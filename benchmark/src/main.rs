//! The repository's benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! jackpine-benchmark [run] --workload NAME --seed N --seconds S --trace 0|1
//! jackpine-benchmark run [--seed N] [--seconds S] [--smoke]
//! jackpine-benchmark repeat SETS [--seed N] [--seconds S] [--out FILE]
//! jackpine-benchmark compare A.json B.json
//! jackpine-benchmark layers [--seed N] [--smoke]
//! jackpine-benchmark lock      # prints workloads.lock
//! ```

mod calib;
mod digest;
mod host;
mod layers;
mod model;
mod report;
mod runner;
mod spec;
mod trace;
mod workloads;

use report::Sets;
use spec::{declared, DEFAULT_SEED, WORKLOADS};
use std::process::{Command, ExitCode, Stdio};

struct Args {
    command: String,
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
    out: Option<String>,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: jackpine-benchmark [run] [--workload {}] [--seed N] [--seconds 1..60] \
         [--trace 0|1] [--smoke]\n       jackpine-benchmark repeat SETS [--seed N] [--seconds S] \
         [--out FILE]\n       jackpine-benchmark compare A.json B.json\n       \
         jackpine-benchmark layers [--seed N] [--smoke]\n       jackpine-benchmark lock",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: "run".into(),
        positional: Vec::new(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: declared().run_seconds,
        traced: false,
        smoke: false,
        out: None,
    };
    let mut argv = std::env::args().skip(1).peekable();
    if let Some(first) = argv.peek() {
        if !first.starts_with("--") {
            args.command = argv.next().expect("peeked");
        }
    }
    while let Some(arg) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1..60".into());
                }
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(value("a file")?),
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            _ => args.positional.push(arg),
        }
    }
    Ok(args)
}

/// Runs one workload in a child process (peak memory is per process)
/// and returns its stamp line and its result line.
fn child_run(
    args: &Args,
    workload: &str,
    seed: u64,
    traced: bool,
) -> Result<(String, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = text.lines().rev();
    let (result, stamp) = (lines.next().unwrap_or(""), lines.next().unwrap_or(""));
    if !out.status.success() || !result.starts_with("{\"correct\"") {
        return Err(format!("{workload} (seed {seed}) failed: {}", text.trim()));
    }
    Ok((stamp.to_string(), result.to_string()))
}

/// One workload, in this process: the form the driver calls.
fn run_one(args: &Args, name: &str) -> Result<(), String> {
    let workload =
        spec::workload(name).ok_or_else(|| format!("unknown workload {name}\n{}", usage()))?;
    let outcome = runner::run(&runner::Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        smoke: args.smoke,
    })?;
    let specs = if args.traced { &declared().per_layer } else { &declared().end_to_end };
    let result = report::result_line(&outcome, specs)?;
    println!("{}", report::stamp_line(&outcome));
    println!("{result}");
    Ok(())
}

/// Every workload untraced, then every workload traced.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    for traced in [false, true] {
        for w in &WORKLOADS {
            let (_, line) = child_run(args, w.name, args.seed, traced)?;
            all_correct &= line.starts_with("{\"correct\": true");
            println!("{} trace={} {line}", w.name, u8::from(traced));
        }
    }
    Ok(all_correct)
}

/// `SETS` untraced sets, each with another seed, as the driver does.
fn repeat(args: &Args) -> Result<bool, String> {
    let sets: u64 = args
        .positional
        .first()
        .and_then(|s| s.parse().ok())
        .filter(|n| *n >= 2)
        .ok_or("repeat needs SETS, at least 2")?;
    let mut results = Sets::new();
    for set in 0..sets {
        for (w, workload) in WORKLOADS.iter().enumerate() {
            let (stamp, line) = child_run(args, workload.name, args.seed + set, false)?;
            eprintln!("set {set} {} {stamp} {line}", workload.name);
            if !line.starts_with("{\"correct\": true") {
                return Err(format!("{} (seed {}) is not correct", workload.name, args.seed + set));
            }
            results.add(w, &stamp, &line)?;
        }
    }
    if let Some(path) = &args.out {
        std::fs::write(path, results.to_json()).map_err(|e| format!("{path}: {e}"))?;
    }
    let (table, steady) = results.table();
    print!("{table}");
    Ok(steady)
}

fn compare(args: &Args) -> Result<bool, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("compare needs two files written by `repeat --out`".into());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (table, none_worse) =
        report::compare(&Sets::from_json(&read(a)?)?, &Sets::from_json(&read(b)?)?);
    print!("{table}");
    Ok(none_worse)
}

fn layers(args: &Args) -> Result<bool, String> {
    let scratch = host::Scratch::new("layers").map_err(|e| format!("scratch: {e}"))?;
    for (name, value) in layers::probes(args.seed, &scratch, args.smoke)? {
        let unit = declared().per_layer.iter().find(|m| m.name == name).map_or("", |m| &m.unit);
        println!("{name:<40} {value:>14.3} {unit}");
    }
    Ok(true)
}

/// `workloads.lock` as this engine answers today: a one-second run of
/// every workload at the default seed, of which only round 0's digests
/// are kept.
fn lock() -> Result<bool, String> {
    println!(
        "# Round 0 of every workload at seed {DEFAULT_SEED}: statement-list digest, then per class"
    );
    println!(
        "# the rows returned and the FNV-1a of the canonicalised results. `lock` rewrites it."
    );
    for workload in &WORKLOADS {
        let options = runner::Options {
            workload,
            seed: DEFAULT_SEED,
            seconds: 1,
            traced: false,
            smoke: false,
        };
        for line in runner::run(&options)?.lock {
            println!("{line}");
        }
    }
    Ok(true)
}

fn main() -> ExitCode {
    host::fix_allocator_policy();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let ok = match (args.command.as_str(), &args.workload) {
        ("run", Some(name)) => run_one(&args, name).map(|()| true),
        ("run", None) => run_all(&args),
        ("repeat", _) => repeat(&args),
        ("compare", _) => compare(&args),
        ("layers", _) => layers(&args),
        ("lock", _) => lock(),
        (other, _) => Err(format!("unknown command {other}\n{}", usage())),
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(1)
        }
    }
}

//! Runs the benchmark binary the way its callers do, on the `--smoke`
//! size: every workload untraced and traced, the driver's output
//! contract with the names `BENCHMARK.json` declares, and repeatability
//! by seed.

use jackpine_core::benchreport::Json;
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_jackpine-benchmark");
const WORKLOADS: [&str; 4] = ["refine_warm", "browse_warm", "cold_bounded", "ingest_durable"];

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(EXE).args(args).output().expect("the benchmark binary starts");
    (out.status.success(), String::from_utf8_lossy(&out.stdout).into_owned())
}

/// `BENCHMARK.json`, which the binary has compiled in.
fn spec() -> Json {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is at the repository root");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn names(spec: &Json, list: &str) -> Vec<String> {
    spec.get(list)
        .and_then(Json::as_arr)
        .expect("spec lists metrics")
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).expect("a metric has a name").to_string())
        .collect()
}

fn keys(json: &Json) -> Vec<&str> {
    match json {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("not an object: {json:?}"),
    }
}

#[test]
fn smoke_run_reports_every_metric_of_every_workload() {
    let started = std::time::Instant::now();
    let (ok, text) = run(&["run", "--smoke", "--seed", "3"]);
    assert!(ok, "run --smoke failed:\n{text}");
    assert!(started.elapsed().as_secs() < 20, "smoke run took {:?}", started.elapsed());
    let spec = spec();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 8, "four workloads, untraced then traced:\n{text}");
    for (i, line) in lines.iter().enumerate() {
        let (head, json) = line.split_once(" {").expect("name, trace flag, result");
        let traced = i >= 4;
        assert_eq!(head, format!("{} trace={}", WORKLOADS[i % 4], u8::from(traced)));
        let result = Json::parse(&format!("{{{json}")).expect("a result line is JSON");
        assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{line}");
        assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 72.0);
        let metrics = result.get("metrics").unwrap();
        let expected = names(&spec, if traced { "per_layer" } else { "end_to_end" });
        assert_eq!(keys(metrics), expected.iter().map(String::as_str).collect::<Vec<_>>());
        for name in &expected {
            let value = metrics.get(name).and_then(|m| m.get("value")).and_then(Json::as_f64);
            let value = value.unwrap_or_else(|| panic!("{name} has no value in {line}"));
            assert!(value.is_finite() && value >= 0.0, "{name} = {value}");
            assert!(traced || value > 0.0, "end-to-end {name} is zero on {head}");
        }
        if traced {
            let value =
                |name: &str| metrics.get(name).unwrap().get("value").unwrap().as_f64().unwrap();
            // The separation the workloads are built for, by counts.
            let cold_pins = value("storage.pool_cold_pins_per_op");
            let fsyncs = value("engine.wal_fsyncs_per_commit");
            match WORKLOADS[i % 4] {
                "cold_bounded" => {
                    assert!(cold_pins > 1.0, "cold_bounded faults pages: {cold_pins}")
                }
                "ingest_durable" => assert_eq!(fsyncs, 1.0, "one fsync per commit"),
                _ => assert_eq!((cold_pins, fsyncs), (0.0, 0.0), "{head} is warm and read-only"),
            }
            assert!(value("engine.unaccounted_share") > 0.0, "statements were traced");
        }
    }
}

fn stamp_field(text: &str, field: &str) -> String {
    let stamp = text.lines().rev().nth(1).expect("a stamp line precedes the result");
    let json = Json::parse(stamp).expect("the stamp is JSON");
    json.get("stamp").and_then(|s| s.get(field)).and_then(Json::as_str).expect("field").to_string()
}

#[test]
fn same_seed_same_statements_and_results() {
    let browse = |seed: &str| {
        let (ok, text) = run(&[
            "--workload",
            "browse_warm",
            "--seed",
            seed,
            "--seconds",
            "1",
            "--trace",
            "0",
            "--smoke",
        ]);
        assert!(ok, "{text}");
        (stamp_field(&text, "statements_fnv"), stamp_field(&text, "results_fnv"))
    };
    let (first, again, other) = (browse("11"), browse("11"), browse("12"));
    assert_eq!(first, again);
    assert_ne!(first.0, other.0, "another seed draws other statements");
    // cold_bounded runs browse_warm's statements, byte for byte.
    let (ok, text) = run(&[
        "--workload",
        "cold_bounded",
        "--seed",
        "11",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--smoke",
    ]);
    assert!(ok, "{text}");
    assert_eq!(stamp_field(&text, "statements_fnv"), first.0);
    assert_eq!(stamp_field(&text, "results_fnv"), first.1);
}

#[test]
fn repeat_tabulates_gated_metrics_and_stamped_timings() {
    let (_, text) = run(&["repeat", "2", "--smoke", "--seed", "5"]);
    for workload in WORKLOADS {
        for metric in ["peak_rss_mb", "throughput_ops_s", "recovery_s"] {
            let row = text.lines().find(|l| {
                let mut cells = l.split_whitespace();
                cells.next() == Some(workload) && cells.next() == Some(metric)
            });
            assert!(row.is_some(), "no row for {workload} {metric}:\n{text}");
        }
    }
}

#[test]
fn bad_arguments_print_no_result() {
    for args in
        [&["--workload", "nope", "--trace", "0"][..], &["--seconds", "0"], &["--trace", "2"]]
    {
        let (ok, text) = run(args);
        assert!(!ok && !text.contains("\"correct\""), "{args:?} -> {text}");
    }
}

#[test]
fn compare_gives_a_verdict_per_metric() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scratch");
    std::fs::create_dir_all(&dir).unwrap();
    // What `compare` follows: the gated metrics, then the stamped timings.
    let spec = spec();
    let mut metrics = names(&spec, "end_to_end");
    metrics.extend(names(&spec, "per_layer").into_iter().filter(|m| !m.contains('.')));
    assert!(metrics.iter().any(|m| m == "throughput_ops_s"));
    let sets = |throughput: [f64; 3]| {
        let workloads: Vec<String> = WORKLOADS
            .iter()
            .map(|w| {
                let fields: Vec<String> = metrics
                    .iter()
                    .map(|m| {
                        let v =
                            if m == "throughput_ops_s" { throughput } else { [1.0, 1.01, 1.02] };
                        format!("\"{m}\": [{}, {}, {}]", v[0], v[1], v[2])
                    })
                    .collect();
                format!("\"{w}\": {{{}}}", fields.join(", "))
            })
            .collect();
        format!("{{{}}}", workloads.join(", "))
    };
    let (a, b, c) = (dir.join("cmp-a.json"), dir.join("cmp-b.json"), dir.join("cmp-c.json"));
    std::fs::write(&a, sets([100.0, 101.0, 102.0])).unwrap();
    std::fs::write(&b, sets([60.0, 61.0, 62.0])).unwrap();
    std::fs::write(&c, sets([60.0, 101.0, 140.0])).unwrap();
    let path = |p: &std::path::PathBuf| p.to_str().unwrap().to_string();
    let (ok, slower) = run(&["compare", &path(&a), &path(&b)]);
    assert!(!ok, "two fifths less throughput is worse:\n{slower}");
    assert!(slower.contains("worse") && slower.contains("within bound"), "{slower}");
    let (ok, faster) = run(&["compare", &path(&b), &path(&a)]);
    assert!(ok && faster.contains("better"), "{faster}");
    let (ok, noisy) = run(&["compare", &path(&a), &path(&c)]);
    assert!(ok && noisy.contains("unresolved"), "{noisy}");
    for p in [a, b, c] {
        std::fs::remove_file(p).unwrap();
    }
}

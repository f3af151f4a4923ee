//! `repro` — regenerates every table and figure of the Jackpine
//! evaluation (see the experiment index in DESIGN.md).
//!
//! ```text
//! repro [--scale S] [--reps R] [--quick] [--sessions N] [--workers W]
//!       [--csv DIR] [--persist DIR] [--wal on|off] [--trace]
//!       [--pool-mb N] <experiment>...
//! experiments: t1 t2 t3 f1..f9 all
//! ```
//!
//! `--workers 0` (the default) uses the machine's available parallelism;
//! `--workers 1` forces serial execution. The worker count in effect is
//! recorded under every report header. `f9` times the spatial-join
//! micros and the join-heavy macro scenarios at `workers=1` vs. that
//! count (at least 2), checking that both settings return identical
//! results.
//!
//! `--persist DIR` runs every engine with crash-safe durability attached:
//! an atomic snapshot plus write-ahead log under `DIR/<engine>/`, so the
//! scenario insert traffic exercises the WAL append path. `--wal off`
//! keeps the snapshot but detaches the log (snapshot-only durability).
//! Both knobs are recorded under every report header.
//!
//! `--trace` prints an EXPLAIN ANALYZE-style trace (per-stage timings,
//! the unaccounted remainder, engine counters) for every
//! micro-benchmark query on the exact-rtree engine. Everything else the
//! engines record is SQL: the `jp_*` system tables (`jp_metrics`,
//! `jp_stat_statements`, `jp_buffer_pool`, ...).
//!
//! `--reps` defaults to 10 timed repetitions after one warmup; `--quick`
//! drops to a single repetition for smoke runs (CI tier 1), where
//! confidence intervals are not needed.
//!
//! `--pool-mb N` bounds every engine's buffer pool at N MiB (rows page
//! out through pinned frames, R-tree leaves demand-load; 0 = unbounded,
//! the default). Evicted pages go to a spill file in the system temp
//! directory, removed with its engine. `f2`'s cold repetitions then fault
//! every page back in from that file, and `t3` adds the time that
//! bounding a freshly loaded engine's pool takes (its R-tree leaves
//! spill).
//!
//! An unknown flag or experiment prints the usage line and exits 2.

use jackpine_bench::{all_engines, dataset, engine_with_data, DEFAULT_SCALE};
use jackpine_core::driver::{CacheMode, Driver};
use jackpine_core::features::feature_matrix;
use jackpine_core::macrobench::{
    all_scenarios, run_scenario, run_scenario_parallel, ScenarioConfig,
};
use jackpine_core::micro::{analysis_suite, topo_suite, BenchQuery};
use jackpine_core::report::{fmt_ms, fmt_qps, Table};
use jackpine_core::Stats;
use jackpine_datagen::{TigerConfig, TigerDataset};
use jackpine_engine::{DurabilityOptions, EngineProfile, SpatialConnector, SpatialDb};
use std::sync::Arc;

struct Options {
    scale: f64,
    reps: usize,
    sessions: usize,
    workers: usize,
    csv_dir: Option<String>,
    persist_dir: Option<String>,
    wal: bool,
    trace: bool,
    pool_mb: Option<usize>,
    experiments: Vec<String>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        scale: DEFAULT_SCALE,
        reps: 10,
        sessions: 5,
        workers: 0,
        csv_dir: None,
        persist_dir: None,
        wal: true,
        trace: false,
        pool_mb: None,
        experiments: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => opts.scale = expect_num(args.next(), "--scale"),
            "--reps" => opts.reps = expect_num(args.next(), "--reps") as usize,
            "--quick" => opts.reps = 1,
            "--sessions" => opts.sessions = expect_num(args.next(), "--sessions") as usize,
            "--workers" => opts.workers = expect_num(args.next(), "--workers") as usize,
            "--csv" => opts.csv_dir = Some(args.next().unwrap_or_else(|| usage())),
            "--persist" => opts.persist_dir = Some(args.next().unwrap_or_else(|| usage())),
            "--wal" => {
                opts.wal = match args.next().as_deref() {
                    Some("on") => true,
                    Some("off") => false,
                    _ => usage(),
                }
            }
            "--trace" => opts.trace = true,
            "--pool-mb" => opts.pool_mb = Some(expect_num(args.next(), "--pool-mb") as usize),
            "--help" | "-h" => {
                usage();
            }
            exp => opts.experiments.push(exp.to_ascii_lowercase()),
        }
    }
    if opts.experiments.is_empty() {
        opts.experiments.push("all".to_string());
    }
    const KNOWN: &[&str] =
        &["t1", "t2", "t3", "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9", "all"];
    for exp in &opts.experiments {
        if !KNOWN.contains(&exp.as_str()) {
            eprintln!("unknown experiment: {exp}");
            usage();
        }
    }
    opts
}

fn expect_num(v: Option<String>, flag: &str) -> f64 {
    v.and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} needs a numeric argument");
        std::process::exit(2)
    })
}

fn usage() -> ! {
    eprintln!(
        "usage: repro [--scale S] [--reps R] [--quick] [--sessions N] [--workers W] [--csv DIR] \
         [--persist DIR] [--wal on|off] [--trace] [--pool-mb N] <t1|t2|t3|f1..f9|all>..."
    );
    std::process::exit(2)
}

fn main() {
    let opts = parse_args();
    let want = |e: &str| {
        opts.experiments.iter().any(|x| x == e) || opts.experiments.iter().any(|x| x == "all")
    };

    println!("Jackpine reproduction harness");
    println!("scale = {}, reps = {}, sessions = {}\n", opts.scale, opts.reps, opts.sessions);

    let started = std::time::Instant::now();
    let data = dataset(opts.scale);
    let generate_ms = started.elapsed().as_secs_f64() * 1e3;
    eprintln!("dataset generated: {} rows; loading engines...", data.total_rows());
    let engines = all_engines(&data);
    for e in &engines {
        e.set_workers(opts.workers);
        if let Some(mb) = opts.pool_mb {
            e.set_pool_bytes(mb * 1024 * 1024);
        }
    }
    let workers = engines.first().map(|e| e.workers()).unwrap_or(1);
    println!("intra-query workers = {workers}\n");

    // Crash-safe durability: snapshot (+ WAL unless --wal off) per engine.
    if let Some(dir) = &opts.persist_dir {
        for e in &engines {
            let edir = std::path::Path::new(dir).join(e.name());
            if opts.wal {
                SpatialDb::set_durability(e, Some(&edir), DurabilityOptions::default())
                    .expect("attach durability");
            } else {
                std::fs::create_dir_all(&edir).expect("create persist dir");
                e.save(edir.join(jackpine_engine::SNAPSHOT_FILE)).expect("write snapshot");
            }
        }
        println!(
            "durability: snapshots under {dir}/<engine>/, WAL {}\n",
            if opts.wal { "on" } else { "off" }
        );
    }
    let mut tables: Vec<Table> = Vec::new();

    if want("t1") {
        tables.push(t1_inventory(&data, opts.scale));
    }
    if want("t2") {
        tables.push(t2_features(&engines));
    }
    if want("t3") {
        tables.push(t3_load_times(&data, generate_ms, opts.pool_mb));
    }
    if want("f1") {
        tables.push(micro_table(
            "F1  Micro: topological relations, warm cache (mean ms)",
            &topo_suite(&data),
            &engines,
            CacheMode::Warm,
            opts.reps,
        ));
    }
    if want("f2") {
        tables.push(micro_table(
            "F2  Micro: topological relations, cold cache (mean ms)",
            &topo_suite(&data),
            &engines,
            CacheMode::Cold,
            opts.reps,
        ));
    }
    if want("f3") {
        tables.push(micro_table(
            "F3  Micro: spatial analysis functions, warm cache (mean ms)",
            &analysis_suite(&data),
            &engines,
            CacheMode::Warm,
            opts.reps,
        ));
    }
    if want("f4") {
        tables.push(f4_macro(&data, &engines, opts.sessions));
    }
    if want("f5") {
        tables.push(f5_indexing(&data, opts.reps));
    }
    if want("f6") {
        tables.push(f6_scalability(opts.scale, opts.reps));
    }
    if want("f7") {
        tables.push(f7_drilldown(&data, &engines, opts.sessions));
    }
    if want("f8") {
        tables.push(f8_concurrency(&data, &engines, opts.sessions));
    }
    if want("f9") {
        tables.push(f9_workers(&data, workers, opts.reps, opts.sessions));
    }

    // Record run context under every table header.
    let persist_note = match &opts.persist_dir {
        Some(dir) => format!("persist={dir} wal={}", if opts.wal { "on" } else { "off" }),
        None => "persist=off".to_string(),
    };
    let trace_note = if opts.trace { " trace=on" } else { "" };
    let pool_note = match opts.pool_mb {
        Some(mb) => format!(" pool_mb={mb}"),
        None => String::new(),
    };
    for t in &mut tables {
        t.context = format!("workers={workers} {persist_note}{trace_note}{pool_note}");
    }

    if opts.trace {
        trace_report(&data, &engines);
    }

    for t in &tables {
        println!("{}", t.render());
    }

    if let Some(dir) = &opts.csv_dir {
        std::fs::create_dir_all(dir).expect("create csv output dir");
        for t in &tables {
            let slug: String = t
                .title
                .chars()
                .take_while(|c| !c.is_whitespace())
                .flat_map(char::to_lowercase)
                .collect();
            let path = format!("{dir}/{slug}.csv");
            std::fs::write(&path, t.to_csv()).expect("write csv");
            eprintln!("wrote {path}");
        }
    }
}

// ---------------------------------------------------------------------------
// T1: dataset inventory
// ---------------------------------------------------------------------------

fn t1_inventory(data: &TigerDataset, scale: f64) -> Table {
    let mut t = Table::new(
        format!("T1  Dataset inventory (scale factor {scale})"),
        &["table", "rows", "geometry", "role (TIGER analogue)"],
    );
    let rows: [(&str, usize, &str, &str); 5] = [
        ("county", data.counties.len(), "POLYGON", "county boundaries"),
        ("roads", data.roads.len(), "LINESTRING", "edges/roads with address ranges"),
        ("arealm", data.arealm.len(), "POLYGON", "area landmarks"),
        ("pointlm", data.pointlm.len(), "POINT", "point landmarks"),
        ("areawater", data.areawater.len(), "POLYGON", "rivers and lakes"),
    ];
    for (name, n, g, role) in rows {
        t.push_row(vec![name.into(), n.to_string(), g.into(), role.into()]);
    }
    t.push_row(vec!["TOTAL".into(), data.total_rows().to_string(), String::new(), String::new()]);
    t
}

// ---------------------------------------------------------------------------
// T3: data load and index build times
// ---------------------------------------------------------------------------

/// The set-up split per engine: generating the dataset (once, shared),
/// loading it, indexing it and, with `--pool-mb`, bounding the loaded
/// engine's pool, which spills its R-tree leaves.
fn t3_load_times(data: &TigerDataset, generate_ms: f64, pool_mb: Option<usize>) -> Table {
    use jackpine_core::load_dataset;
    let mut headers = vec!["engine", "rows", "generate ms", "load ms", "index ms"];
    if pool_mb.is_some() {
        headers.push("attach ms");
    }
    let mut t = Table::new("T3  Data load and index build times", &headers);
    for profile in EngineProfile::ALL {
        let db = Arc::new(SpatialDb::new(profile));
        let summary = load_dataset(&db, data).expect("load succeeds");
        let mut row = vec![
            profile.name().to_string(),
            summary.total_rows().to_string(),
            fmt_ms(generate_ms),
            fmt_ms(summary.load_time.as_secs_f64() * 1e3),
            fmt_ms(summary.index_time.as_secs_f64() * 1e3),
        ];
        if let Some(mb) = pool_mb {
            let started = std::time::Instant::now();
            db.set_pool_bytes(mb * 1024 * 1024);
            row.push(fmt_ms(started.elapsed().as_secs_f64() * 1e3));
        }
        t.push_row(row);
        eprint!(".");
    }
    eprintln!();
    t
}

// ---------------------------------------------------------------------------
// T2: feature matrix
// ---------------------------------------------------------------------------

fn t2_features(engines: &[Arc<SpatialDb>]) -> Table {
    let conns: Vec<&dyn SpatialConnector> =
        engines.iter().map(|e| e as &dyn SpatialConnector).collect();
    let matrix = feature_matrix(&conns);
    let mut headers: Vec<&str> = vec!["function"];
    let names: Vec<String> = matrix.iter().map(|r| r.engine.clone()).collect();
    for n in &names {
        headers.push(n);
    }
    let mut t = Table::new("T2  Feature-support matrix", &headers);
    for (i, (f, _)) in matrix[0].support.iter().enumerate() {
        let mut row = vec![f.to_string()];
        for r in &matrix {
            row.push(if r.support[i].1 { "yes".into() } else { "-".into() });
        }
        t.push_row(row);
    }
    t
}

// ---------------------------------------------------------------------------
// F1/F2/F3: micro suites
// ---------------------------------------------------------------------------

fn micro_table(
    title: &str,
    suite: &[BenchQuery],
    engines: &[Arc<SpatialDb>],
    mode: CacheMode,
    reps: usize,
) -> Table {
    let driver = Driver { repetitions: reps, warmup: 1, cache_mode: mode };
    let mut headers: Vec<String> = vec!["id".into(), "query".into()];
    for e in engines {
        headers.push(format!("{} ms", e.name()));
    }
    headers.push("result".into());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(title, &header_refs);

    for q in suite {
        let mut row = vec![q.id.to_string(), q.name.to_string()];
        let mut result: Option<String> = None;
        for e in engines {
            match driver.run_query(e, q.id, &q.sql) {
                Ok(m) => {
                    row.push(fmt_ms(m.stats.mean_ms));
                    if e.profile() == EngineProfile::ExactRtree {
                        result = m.scalar;
                    }
                }
                Err(err) if err.source.to_string().contains("not supported") => {
                    row.push("n/s".into());
                }
                Err(err) => {
                    eprintln!("warning: {} failed on {}: {}", q.id, e.name(), err);
                    row.push("err".into());
                }
            }
        }
        row.push(result.unwrap_or_default());
        t.push_row(row);
        eprint!(".");
    }
    eprintln!();
    t
}

// ---------------------------------------------------------------------------
// F4: macro scenario throughput
// ---------------------------------------------------------------------------

fn f4_macro(data: &TigerDataset, engines: &[Arc<SpatialDb>], sessions: usize) -> Table {
    let config = ScenarioConfig { seed: 0xbead, sessions };
    let scenarios = all_scenarios(data, &config);
    let mut headers: Vec<String> = vec!["id".into(), "scenario".into()];
    for e in engines {
        headers.push(format!("{} q/s", e.name()));
    }
    headers.push("skipped".into());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new("F4  Macro workloads: throughput (queries/second)", &header_refs);

    for s in &scenarios {
        let mut row = vec![s.id.to_string(), s.name.to_string()];
        let mut skipped = 0;
        for e in engines {
            match run_scenario(e, s) {
                Ok(r) => {
                    row.push(fmt_qps(r.throughput_qps()));
                    skipped = skipped.max(r.skipped);
                }
                Err(err) => {
                    eprintln!("warning: scenario {} failed on {}: {}", s.id, e.name(), err);
                    row.push("err".into());
                }
            }
        }
        row.push(skipped.to_string());
        t.push_row(row);
        eprint!(".");
    }
    eprintln!();
    t
}

// ---------------------------------------------------------------------------
// F5: effect of spatial indexing
// ---------------------------------------------------------------------------

fn f5_indexing(data: &TigerDataset, reps: usize) -> Table {
    let db = engine_with_data(EngineProfile::ExactRtree, data);
    let driver = Driver { repetitions: reps, warmup: 1, cache_mode: CacheMode::Warm };
    let suite = topo_suite(data);
    let picks = ["T01", "T04", "T05", "T09", "T16"];
    let mut t = Table::new(
        "F5  Effect of spatial indexing (exact-rtree, mean ms)",
        &["id", "query", "index on", "index off", "speedup"],
    );
    for q in suite.iter().filter(|q| picks.contains(&q.id)) {
        db.set_use_spatial_index(true);
        let on = driver.run_query(&db, q.id, &q.sql).expect("indexed run");
        db.set_use_spatial_index(false);
        let off = driver.run_query(&db, q.id, &q.sql).expect("sequential run");
        db.set_use_spatial_index(true);
        let speedup = if on.stats.mean_ms > 0.0 {
            off.stats.mean_ms / on.stats.mean_ms
        } else {
            f64::INFINITY
        };
        t.push_row(vec![
            q.id.to_string(),
            q.name.to_string(),
            fmt_ms(on.stats.mean_ms),
            fmt_ms(off.stats.mean_ms),
            format!("{speedup:.1}x"),
        ]);
        eprint!(".");
    }
    eprintln!();
    t
}

// ---------------------------------------------------------------------------
// F6: data-size scalability
// ---------------------------------------------------------------------------

fn f6_scalability(base_scale: f64, reps: usize) -> Table {
    let factors = [0.5, 1.0, 2.0, 4.0];
    let driver = Driver { repetitions: reps, warmup: 1, cache_mode: CacheMode::Warm };
    let mut t = Table::new(
        "F6  Data-size scalability (exact-rtree, mean ms)",
        &["scale", "rows", "T01 bbox", "T08 join", "A04 scan"],
    );
    for f in factors {
        let scale = base_scale * f;
        let data =
            TigerDataset::generate(&TigerConfig { seed: jackpine_bench::DEFAULT_SEED, scale });
        let db = engine_with_data(EngineProfile::ExactRtree, &data);
        let suite = topo_suite(&data);
        let analysis = analysis_suite(&data);
        let t01 = suite.iter().find(|q| q.id == "T01").expect("T01 exists");
        let t08 = suite.iter().find(|q| q.id == "T08").expect("T08 exists");
        let a04 = analysis.iter().find(|q| q.id == "A04").expect("A04 exists");
        let m1 = driver.run_query(&db, "T01", &t01.sql).expect("T01");
        let m2 = driver.run_query(&db, "T08", &t08.sql).expect("T08");
        let m3 = driver.run_query(&db, "A04", &a04.sql).expect("A04");
        t.push_row(vec![
            format!("{scale:.3}"),
            data.total_rows().to_string(),
            fmt_ms(m1.stats.mean_ms),
            fmt_ms(m2.stats.mean_ms),
            fmt_ms(m3.stats.mean_ms),
        ]);
        eprint!(".");
    }
    eprintln!();
    t
}

// ---------------------------------------------------------------------------
// F7: macro per-step drill-down
// ---------------------------------------------------------------------------

fn f7_drilldown(data: &TigerDataset, engines: &[Arc<SpatialDb>], sessions: usize) -> Table {
    let config = ScenarioConfig { seed: 0xbead, sessions };
    let scenarios = all_scenarios(data, &config);
    let mut headers: Vec<String> = vec!["scenario".into(), "step".into()];
    for e in engines {
        headers.push(format!("{} ms", e.name()));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new("F7  Macro workloads: per-step mean latency (ms)", &header_refs);

    for s in &scenarios {
        // Collect per-step stats for each engine, then join by label.
        let mut per_engine: Vec<Vec<(String, Stats)>> = Vec::new();
        for e in engines {
            match run_scenario(e, s) {
                Ok(r) => per_engine.push(r.per_step),
                Err(err) => {
                    eprintln!("warning: scenario {} failed on {}: {}", s.id, e.name(), err);
                    per_engine.push(Vec::new());
                }
            }
        }
        let labels: Vec<String> = per_engine
            .first()
            .map(|v| v.iter().map(|(l, _)| l.clone()).collect())
            .unwrap_or_default();
        for label in labels {
            let mut row = vec![s.id.to_string(), label.clone()];
            for steps in &per_engine {
                match steps.iter().find(|(l, _)| *l == label) {
                    Some((_, st)) => row.push(fmt_ms(st.mean_ms)),
                    None => row.push("n/s".into()),
                }
            }
            t.push_row(row);
        }
        eprint!(".");
    }
    eprintln!();
    t
}

// ---------------------------------------------------------------------------
// --trace: per-query stage timings and engine counters
// ---------------------------------------------------------------------------

/// Prints an EXPLAIN ANALYZE-style trace for every micro-benchmark query
/// (topological and analysis suites) on the exact-rtree engine.
fn trace_report(data: &TigerDataset, engines: &[Arc<SpatialDb>]) {
    let db = engines
        .iter()
        .find(|e| e.profile() == EngineProfile::ExactRtree)
        .expect("exact-rtree engine present");
    println!("Query traces (exact-rtree)");
    println!("--------------------------");
    let topo = topo_suite(data);
    let analysis = analysis_suite(data);
    for q in topo.iter().chain(analysis.iter()) {
        match db.execute_traced(&q.sql) {
            Ok((_, trace)) => {
                println!("[{}] {}", q.id, q.name);
                println!("{}", trace.render());
            }
            Err(err) => println!("[{}] {}: error: {err}", q.id, q.name),
        }
    }
}

// ---------------------------------------------------------------------------
// F8: multi-client throughput scaling
// ---------------------------------------------------------------------------

fn f8_concurrency(data: &TigerDataset, engines: &[Arc<SpatialDb>], sessions: usize) -> Table {
    let config = ScenarioConfig { seed: 0xbead, sessions };
    // Map browsing is the scenario the paper scaled with clients: short,
    // index-bound queries.
    let scenario =
        all_scenarios(data, &config).into_iter().find(|s| s.id == "M1").expect("M1 exists");
    let client_counts = [1usize, 2, 4, 8];
    let mut headers: Vec<String> = vec!["clients".into()];
    for e in engines {
        headers.push(format!("{} q/s", e.name()));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "F8  Multi-client throughput scaling (map browsing, queries/second)",
        &header_refs,
    );
    for clients in client_counts {
        let mut row = vec![clients.to_string()];
        for e in engines {
            match run_scenario_parallel(e, &scenario, clients) {
                Ok(r) => row.push(fmt_qps(r.throughput_qps())),
                Err(err) => {
                    eprintln!("warning: F8 with {clients} clients on {}: {err}", e.name());
                    row.push("err".into());
                }
            }
        }
        t.push_row(row);
        eprint!(".");
    }
    eprintln!();
    t
}

// ---------------------------------------------------------------------------
// F9: intra-query worker scaling
// ---------------------------------------------------------------------------

/// Times the spatial-join micros (T02/T05/T08/T10) and the join-heavy
/// macro scenarios (M4 flood risk, M6 toxic spill) on one exact-rtree
/// engine at `workers=1` and at the configured worker count — at least
/// 2, so a single-core host reports dispatch overhead rather than a
/// table comparing a setting with itself — and asserts that both
/// settings return the same results.
fn f9_workers(data: &TigerDataset, workers: usize, reps: usize, sessions: usize) -> Table {
    let workers = workers.max(2);
    let db = engine_with_data(EngineProfile::ExactRtree, data);
    let driver = Driver { repetitions: reps, warmup: 1, cache_mode: CacheMode::Warm };
    let parallel_header = format!("workers={workers} ms");
    let mut t = Table::new(
        "F9  Intra-query worker scaling (exact-rtree, mean ms per query)",
        &["id", "query", "workers=1 ms", &parallel_header, "speedup"],
    );
    let mut push = |id: &str, name: &str, serial_ms: f64, parallel_ms: f64| {
        t.push_row(vec![
            id.to_string(),
            name.to_string(),
            fmt_ms(serial_ms),
            fmt_ms(parallel_ms),
            format!("{:.2}x", serial_ms / parallel_ms),
        ]);
        eprint!(".");
    };

    let picks = ["T02", "T05", "T08", "T10"];
    for q in topo_suite(data).iter().filter(|q| picks.contains(&q.id)) {
        let [serial, parallel] = [1, workers].map(|w| {
            db.set_workers(w);
            driver.run_query(&db, q.id, &q.sql).expect("F9 micro run")
        });
        assert_eq!(
            (serial.rows, &serial.scalar),
            (parallel.rows, &parallel.scalar),
            "{}: workers=1 and workers={workers} disagree",
            q.id
        );
        push(q.id, q.name, serial.stats.mean_ms, parallel.stats.mean_ms);
    }

    let config = ScenarioConfig { seed: 0xbead, sessions };
    for s in all_scenarios(data, &config).iter().filter(|s| s.id == "M4" || s.id == "M6") {
        let [(serial_ms, serial_rows), (parallel_ms, parallel_rows)] = [1, workers].map(|w| {
            db.set_workers(w);
            let run = || driver.run_session(&db, &s.steps).expect("F9 scenario run");
            // One untimed session warms the caches; its row counts are
            // the result the two settings must agree on.
            let rows: Vec<(String, usize)> =
                run().per_step.into_iter().map(|(label, _, n)| (label, n)).collect();
            let totals: Vec<_> = (0..reps.max(1)).map(|_| run().total).collect();
            (Stats::from_durations(&totals).mean_ms / s.steps.len() as f64, rows)
        });
        assert_eq!(
            serial_rows, parallel_rows,
            "{}: workers=1 and workers={workers} disagree",
            s.id
        );
        push(s.id, s.name, serial_ms, parallel_ms);
    }
    eprintln!();
    t
}

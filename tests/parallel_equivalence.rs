//! The morsel executor's core guarantee: every benchmark query returns
//! **identical** results at any worker count. Also pins the datagen row
//! counts at scale 0.25 so PRNG or generator drift is caught.

use jackpine::bench::load_dataset;
use jackpine::bench::macrobench::{all_scenarios, ScenarioConfig};
use jackpine::bench::micro::{analysis_suite, topo_suite};
use jackpine::datagen::{TigerConfig, TigerDataset};
use jackpine::engine::{EngineProfile, SpatialDb};
use jackpine::sql::exec::MIN_PARALLEL_ROWS;
use jackpine::sql::ResultSet;
use std::sync::Arc;

const SCALE: f64 = 0.02;

fn test_db(data: &TigerDataset) -> Arc<SpatialDb> {
    let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
    load_dataset(&db, data).expect("dataset loads");
    db
}

/// Rows as strings, sorted, so comparisons are independent of row order
/// (the executor preserves order anyway; sorting makes the test's claim
/// purely about content).
fn sorted_rows(r: &ResultSet) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> =
        r.rows.iter().map(|row| row.iter().map(|v| v.to_string()).collect()).collect();
    rows.sort();
    rows
}

fn assert_equivalent(db: &Arc<SpatialDb>, label: &str, sql: &str) {
    db.set_workers(1);
    let serial = db.execute(sql);
    for workers in [2usize, 4] {
        db.set_workers(workers);
        let parallel = db.execute(sql);
        match (&serial, &parallel) {
            (Ok(s), Ok(p)) => {
                // The executor promises bit-identical output including
                // order; check the strong claim first, then the sorted
                // comparison for a clearer diff on failure.
                assert_eq!(
                    sorted_rows(s),
                    sorted_rows(p),
                    "{label}: workers=1 vs workers={workers} content differs"
                );
                assert_eq!(s, p, "{label}: workers=1 vs workers={workers} row order differs");
            }
            (Err(_), Err(_)) => {}
            (s, p) => panic!(
                "{label}: workers=1 gave {} but workers={workers} gave {}",
                if s.is_ok() { "Ok" } else { "Err" },
                if p.is_ok() { "Ok" } else { "Err" }
            ),
        }
    }
    db.set_workers(1);
}

#[test]
fn micro_suites_identical_at_any_worker_count() {
    let data = TigerDataset::generate(&TigerConfig { scale: SCALE, ..TigerConfig::default() });
    let db = test_db(&data);
    for q in topo_suite(&data).iter().chain(analysis_suite(&data).iter()) {
        assert_equivalent(&db, q.id, &q.sql);
    }
}

#[test]
fn macro_scenario_steps_identical_at_any_worker_count() {
    let data = TigerDataset::generate(&TigerConfig { scale: SCALE, ..TigerConfig::default() });
    let db = test_db(&data);
    let config = ScenarioConfig { seed: 0xbead, sessions: 1 };
    for scenario in all_scenarios(&data, &config) {
        for (label, sql) in &scenario.steps {
            assert_equivalent(&db, &format!("{}/{label}", scenario.id), sql);
        }
    }
}

/// The deterministic engine counters (index probes, candidates, refine
/// counts, heap fetches) are a function of the statement sequence alone:
/// two fresh engines running the same suite at different worker counts
/// must report byte-identical values for them. Scheduling-dependent
/// counters (morsel dispatch, queue waits) are explicitly excluded.
#[test]
fn deterministic_counters_equal_across_worker_counts() {
    let data = TigerDataset::generate(&TigerConfig { scale: SCALE, ..TigerConfig::default() });
    let run_suite = |workers: usize| {
        let db = test_db(&data);
        db.set_workers(workers);
        let before = db.metrics_snapshot();
        for q in topo_suite(&data) {
            let _ = db.execute(&q.sql);
        }
        db.metrics_snapshot().delta_since(&before).deterministic_counters()
    };
    let serial = run_suite(1);
    assert!(
        serial.iter().any(|(_, v)| *v > 0),
        "suite must move at least one deterministic counter: {serial:?}"
    );
    for workers in [2usize, 4] {
        let parallel = run_suite(workers);
        assert_eq!(
            serial, parallel,
            "deterministic counters differ between workers=1 and workers={workers}"
        );
    }
}

/// Metric snapshots are safe at any moment: a thread hammering
/// `metrics_snapshot()` while parallel queries run must never panic,
/// and every mid-flight snapshot stays internally sane (candidates ≥
/// hits can be momentarily torn, but counters never go backwards).
#[test]
fn mid_flight_snapshots_never_panic() {
    let data = TigerDataset::generate(&TigerConfig { scale: SCALE, ..TigerConfig::default() });
    let db = test_db(&data);
    db.set_workers(4);
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let observer = scope.spawn(|| {
            let mut last_queries = 0u64;
            let mut snapshots = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let snap = db.metrics_snapshot();
                let queries = snap.counter("queries");
                assert!(queries >= last_queries, "counter went backwards");
                last_queries = queries;
                snapshots += 1;
            }
            snapshots
        });
        for q in topo_suite(&data) {
            db.execute(&q.sql).expect(q.id);
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let snapshots = observer.join().expect("observer thread must not panic");
        assert!(snapshots > 0, "observer never got a snapshot in");
    });
}

#[test]
fn datagen_row_counts_pinned_at_quarter_scale() {
    let data = TigerDataset::generate(&TigerConfig { scale: 0.25, ..TigerConfig::default() });
    assert_eq!(data.counties.len(), 16, "county count drifted");
    assert_eq!(data.roads.len(), 5008, "roads count drifted");
    assert_eq!(data.arealm.len(), 375, "arealm count drifted");
    assert_eq!(data.pointlm.len(), 1000, "pointlm count drifted");
    assert_eq!(data.areawater.len(), 202, "areawater count drifted");
    assert_eq!(data.total_rows(), 6601);
}

/// Rows past the executor's serial cutoff, so key tuples and aggregate
/// arguments are evaluated morsel-parallel: `id` ascending (the scan
/// order), `one` the same for every row, `tie` in 7 runs of equal keys,
/// `x` a float whose sum depends on the order it is added in, and
/// `name` text; `x` and `name` are NULL here and there.
fn parallel_sized_table() -> Arc<SpatialDb> {
    use jackpine::storage::{ColumnDef, DataType, Value};
    let n = 3 * MIN_PARALLEL_ROWS + 17;
    let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
    let columns = [
        ("id", DataType::Int),
        ("one", DataType::Int),
        ("tie", DataType::Int),
        ("x", DataType::Float),
        ("name", DataType::Text),
    ];
    db.create_table("t", columns.iter().map(|&(c, ty)| ColumnDef::new(c, ty)).collect()).unwrap();
    let rows = (0..n).map(|i| {
        let x = match i % 5 {
            0 => Value::Null,
            k => Value::Float((i as f64).sqrt() * 1e7 + 0.1 * k as f64),
        };
        let name =
            if i % 11 == 0 { Value::Null } else { Value::Text(format!("n{}", i * 37 % 101)) };
        vec![Value::Int(i as i64), Value::Int(1), Value::Int((i * 13 % 7) as i64), x, name]
    });
    db.insert_rows("t", rows.collect::<Vec<_>>()).unwrap();
    db
}

/// A value with its float bits, so "equal" means bit for bit.
fn bits(r: &ResultSet) -> Vec<Vec<String>> {
    use jackpine::storage::Value;
    let cell = |v: &Value| match v {
        Value::Float(f) => format!("float {:#x}", f.to_bits()),
        v => format!("{v:?}"),
    };
    r.rows.iter().map(|row| row.iter().map(cell).collect()).collect()
}

#[test]
fn a_global_aggregate_is_the_one_group_of_all_rows_bit_for_bit() {
    let db = parallel_sized_table();
    let aggs = "COUNT(*), COUNT(x), SUM(x), AVG(x), MIN(x), MAX(x), COUNT(name), MIN(name), \
                MAX(name)";
    let global = format!("SELECT {aggs} FROM t");
    let grouped = format!("SELECT {aggs} FROM t GROUP BY one");
    db.set_workers(1);
    let want = bits(&db.execute(&global).unwrap());
    assert_eq!(want.len(), 1);
    for workers in [1usize, 2, 7] {
        db.set_workers(workers);
        assert_eq!(bits(&db.execute(&global).unwrap()), want, "global, workers={workers}");
        assert_eq!(bits(&db.execute(&grouped).unwrap()), want, "one group, workers={workers}");
    }
    // Over no rows the global aggregate is still one row; GROUP BY has
    // no group to report.
    let none = db.execute(&format!("SELECT {aggs} FROM t WHERE id < 0")).unwrap();
    assert_eq!(bits(&none).len(), 1);
    assert_eq!(none.rows[0][0], jackpine::storage::Value::Int(0));
    assert_eq!(none.rows[0][2], jackpine::storage::Value::Null);
    let no_group = db.execute(&format!("SELECT {aggs} FROM t WHERE id < 0 GROUP BY one")).unwrap();
    assert!(no_group.is_empty());
    db.set_workers(1);
}

#[test]
fn order_by_with_tied_keys_keeps_input_order_at_every_worker_count() {
    use jackpine::storage::Value;
    let db = parallel_sized_table();
    for dir in ["", " DESC"] {
        let sql = format!("SELECT tie, id FROM t ORDER BY tie{dir}");
        for workers in [1usize, 2, 7] {
            db.set_workers(workers);
            let r = db.execute(&sql).unwrap();
            assert_eq!(r.len(), 3 * MIN_PARALLEL_ROWS + 17);
            for pair in r.rows.windows(2) {
                let [Value::Int(ta), Value::Int(ia)] = pair[0][..] else { panic!() };
                let [Value::Int(tb), Value::Int(ib)] = pair[1][..] else { panic!() };
                let in_order = if dir.is_empty() { ta <= tb } else { ta >= tb };
                assert!(in_order, "ORDER BY tie{dir} out of order at workers={workers}");
                if ta == tb {
                    assert!(ia < ib, "tie {ta} lost input order at workers={workers}: {ia}, {ib}");
                }
            }
        }
        assert_equivalent(&db, "tied sort", &sql);
    }
    db.set_workers(1);
}

//! The morsel executor's core guarantee: every benchmark query returns
//! **identical** results at any worker count. Also pins the datagen row
//! counts at scale 0.25 so PRNG or generator drift is caught.

use jackpine::bench::load_dataset;
use jackpine::bench::macrobench::{all_scenarios, ScenarioConfig};
use jackpine::bench::micro::{analysis_suite, topo_suite};
use jackpine::datagen::{TigerConfig, TigerDataset};
use jackpine::engine::{EngineProfile, SpatialDb};
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

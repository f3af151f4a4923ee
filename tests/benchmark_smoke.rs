//! End-to-end benchmark smoke test: the full Jackpine pipeline (dataset →
//! load → micro suites → macro scenarios → feature matrix → report) runs
//! on every engine profile at a small scale.

use jackpine::bench::driver::{CacheMode, Driver};
use jackpine::bench::features::{feature_matrix, PROBED_FUNCTIONS};
use jackpine::bench::load_dataset;
use jackpine::bench::macrobench::{all_scenarios, run_scenario, ScenarioConfig};
use jackpine::bench::micro::{analysis_suite, topo_suite};
use jackpine::bench::report::Table;
use jackpine::datagen::{TigerConfig, TigerDataset};
use jackpine::engine::{EngineProfile, SpatialConnector, SpatialDb};
use std::sync::Arc;

#[test]
fn full_benchmark_pipeline_runs_on_all_profiles() {
    let data = TigerDataset::generate(&TigerConfig { seed: 123, scale: 0.02 });
    let driver = Driver { repetitions: 1, warmup: 0, cache_mode: CacheMode::Warm };

    let mut engines = Vec::new();
    for profile in EngineProfile::ALL {
        let db = Arc::new(SpatialDb::new(profile));
        let summary = load_dataset(&db, &data).expect("load");
        assert_eq!(summary.total_rows(), data.total_rows());
        engines.push(db);
    }

    // Micro suites: every query must either run or fail with the
    // documented unsupported-feature error.
    for q in topo_suite(&data).iter().chain(analysis_suite(&data).iter()) {
        for e in &engines {
            match driver.run_query(e, q.id, &q.sql) {
                Ok(m) => assert!(m.stats.n == 1, "{} on {}", q.id, e.name()),
                Err(err) => {
                    let msg = err.to_string();
                    assert!(
                        msg.contains("not supported"),
                        "{} on {} failed unexpectedly: {msg}",
                        q.id,
                        e.name()
                    );
                }
            }
        }
    }

    // Macro scenarios.
    let scenarios = all_scenarios(&data, &ScenarioConfig { seed: 9, sessions: 1 });
    assert_eq!(scenarios.len(), 6);
    for s in &scenarios {
        for e in &engines {
            let r = run_scenario(e, s).expect("scenario runs");
            assert_eq!(r.executed + r.skipped, s.steps.len(), "{} on {}", s.id, e.name());
        }
    }

    // Feature matrix covers all probes for all engines.
    let conns: Vec<&dyn SpatialConnector> =
        engines.iter().map(|e| e as &dyn SpatialConnector).collect();
    let matrix = feature_matrix(&conns);
    assert_eq!(matrix.len(), 3);
    for row in &matrix {
        assert_eq!(row.support.len(), PROBED_FUNCTIONS.len());
    }

    // Reporting round trip.
    let mut t = Table::new("smoke", &["engine", "functions"]);
    for row in &matrix {
        t.push_row(vec![row.engine.clone(), row.supported_count().to_string()]);
    }
    let rendered = t.render();
    assert!(rendered.contains("exact-rtree"));
    let csv = t.to_csv();
    assert_eq!(csv.lines().count(), 4);
}

#[test]
fn cold_mode_is_slower_than_warm_on_scan_heavy_query() {
    // Not a strict-timing test (CI noise), but the cold path must at
    // least run and produce sane stats.
    let data = TigerDataset::generate(&TigerConfig { seed: 123, scale: 0.05 });
    let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
    load_dataset(&db, &data).expect("load");
    let sql = "SELECT SUM(ST_Length(geom)) FROM roads";
    let warm = Driver { repetitions: 3, warmup: 1, cache_mode: CacheMode::Warm }
        .run_query(&db, "warm", sql)
        .expect("warm runs");
    let cold = Driver { repetitions: 3, warmup: 0, cache_mode: CacheMode::Cold }
        .run_query(&db, "cold", sql)
        .expect("cold runs");
    assert_eq!(warm.scalar, cold.scalar, "cold and warm answers differ");
    assert!(cold.stats.mean_ms > 0.0 && warm.stats.mean_ms > 0.0);
}

#[test]
fn worker_scaling_runs_equal_at_one_and_two_workers() {
    // `repro f9` at smoke size: the join micros and the join-heavy
    // scenarios through the driver at workers = 1 vs 2, the same
    // results from both, one table row per query.
    let data = TigerDataset::generate(&TigerConfig { seed: 123, scale: 0.02 });
    let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
    load_dataset(&db, &data).expect("load");
    let driver = Driver { repetitions: 1, warmup: 0, cache_mode: CacheMode::Warm };
    let mut t = Table::new("F9 smoke", &["id", "workers=1 ms", "workers=2 ms"]);

    let picks = ["T02", "T05", "T08", "T10"];
    for q in topo_suite(&data).iter().filter(|q| picks.contains(&q.id)) {
        let [serial, parallel] = [1, 2].map(|w| {
            db.set_workers(w);
            driver.run_query(&db, q.id, &q.sql).expect("micro runs")
        });
        assert!(serial.scalar.is_some(), "{} counts", q.id);
        assert_eq!((serial.rows, &serial.scalar), (parallel.rows, &parallel.scalar), "{}", q.id);
        t.push_row(vec![
            q.id.to_string(),
            serial.stats.mean_ms.to_string(),
            parallel.stats.mean_ms.to_string(),
        ]);
    }
    let scenarios = all_scenarios(&data, &ScenarioConfig { seed: 9, sessions: 1 });
    for s in scenarios.iter().filter(|s| s.id == "M4" || s.id == "M6") {
        let [serial, parallel] = [1, 2].map(|w| {
            db.set_workers(w);
            driver.run_session(&db, &s.steps).expect("scenario runs")
        });
        let rows = |m: &jackpine::bench::driver::SessionMeasurement| -> Vec<(String, usize)> {
            m.per_step.iter().map(|(label, _, n)| (label.clone(), *n)).collect()
        };
        assert_eq!(rows(&serial).len(), s.steps.len(), "{}", s.id);
        assert_eq!(rows(&serial), rows(&parallel), "{}", s.id);
        t.push_row(vec![
            s.id.to_string(),
            (serial.total.as_secs_f64() * 1e3).to_string(),
            (parallel.total.as_secs_f64() * 1e3).to_string(),
        ]);
    }
    assert_eq!(t.to_csv().lines().count(), 1 + 6, "a header and one row per query");
}

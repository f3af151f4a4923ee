//! Golden-trace tests for the query-observability layer: per-stage trace
//! shape and engine-counter invariants for every DE-9IM predicate family
//! and for a macro scenario. Assertions are about counter presence,
//! ordering and arithmetic relations — never about timings, which vary
//! run to run.

use jackpine::bench::load_dataset;
use jackpine::bench::macrobench::{all_scenarios, ScenarioConfig};
use jackpine::bench::micro::topo_suite;
use jackpine::datagen::{TigerConfig, TigerDataset};
use jackpine::engine::{EngineProfile, SpatialDb};
use jackpine::obs::{Stage, DETERMINISTIC_COUNTERS, SCHEDULING_COUNTERS};
use jackpine::storage::Value;
use std::sync::Arc;
use std::time::Duration;

const SCALE: f64 = 0.02;

fn loaded_db() -> (TigerDataset, Arc<SpatialDb>) {
    let data = TigerDataset::generate(&TigerConfig { scale: SCALE, ..TigerConfig::default() });
    let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
    load_dataset(&db, &data).expect("dataset loads");
    db.set_workers(1);
    (data, db)
}

/// A tiny hand-built table with a spatial index, for tests that need
/// full control over index lifecycle.
fn tiny_db() -> Arc<SpatialDb> {
    let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
    db.execute("CREATE TABLE pts (id BIGINT, geom GEOMETRY)").unwrap();
    for i in 0..50 {
        db.execute(&format!("INSERT INTO pts VALUES ({i}, ST_GeomFromText('POINT ({i} {i})'))"))
            .unwrap();
    }
    db.create_spatial_index("pts", "geom").unwrap();
    db.set_workers(1);
    db
}

/// The canonical counter vocabulary is a frozen API surface: renaming or
/// reordering a counter breaks downstream trace consumers, so the full
/// lists are pinned here verbatim.
#[test]
fn counter_names_are_golden() {
    assert_eq!(
        DETERMINISTIC_COUNTERS,
        [
            "queries",
            "index_probes",
            "index_candidates",
            "index_nodes_visited",
            "refine_candidates",
            "refine_hits",
            "refine_short_circuits",
            "prefilter_rejects",
            "selvec_survivors",
            "prepared_cache_hits",
            "prepared_cache_misses",
            "heap_rows_fetched",
            "wal_appends",
            "wal_fsyncs",
        ]
    );
    assert_eq!(
        SCHEDULING_COUNTERS,
        [
            "plan_cache_hits",
            "plan_cache_misses",
            "morsels_dispatched",
            "group_commit_batches",
            "group_commit_size",
        ]
    );
    assert_eq!(
        Stage::ALL.map(Stage::name),
        ["parse", "plan", "index_probe", "prefilter", "refine", "materialize"]
    );
}

/// Every topological micro query (one per DE-9IM predicate family) must
/// produce a well-formed trace: exactly one statement, stages reported
/// in pipeline order starting with parse/plan, candidate counts that
/// never undershoot hit counts, and — at one worker, where stages never
/// overlap — an `unaccounted` remainder that closes the stage sums to
/// the statement's total.
#[test]
fn golden_traces_for_every_predicate_family() {
    let (data, db) = loaded_db();
    for q in topo_suite(&data) {
        let (result, trace) = db.execute_traced(&q.sql).expect(q.id);
        assert_eq!(trace.counter("queries"), 1, "{}: one statement, one query", q.id);
        assert_eq!(trace.rows, result.rows.len(), "{}: trace row count", q.id);

        let stage_ns: u64 = Stage::ALL.iter().map(|s| trace.stage_ns(s.name())).sum();
        assert_eq!(trace.delta.commit_wait_us.sum, 0, "{}: a SELECT commits nothing", q.id);
        assert_eq!(
            trace.unaccounted() + Duration::from_nanos(stage_ns),
            trace.total,
            "{}: stages plus unaccounted must be the total",
            q.id
        );
        let text = trace.render();
        assert!(
            text.lines()
                .any(|l| l.trim_start().starts_with("unaccounted") && l.ends_with("% of total)")),
            "{}: EXPLAIN ANALYZE text lacks the unaccounted line:\n{text}",
            q.id
        );

        let stages = trace.stage_names();
        assert!(
            stages.starts_with(&["parse", "plan"]),
            "{}: trace must begin with parse, plan — got {stages:?}",
            q.id
        );
        // Stage order is the canonical pipeline order (subsequence of
        // Stage::ALL, no duplicates, no inversions).
        let canonical: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        let positions: Vec<usize> = stages
            .iter()
            .map(|s| canonical.iter().position(|c| c == s).expect("known stage"))
            .collect();
        assert!(positions.windows(2).all(|w| w[0] < w[1]), "{}: stage order {stages:?}", q.id);

        // The filter-and-refine invariant: hits are a subset of
        // candidates, and the index can't emit more candidates than it
        // inspects entries for.
        assert!(
            trace.counter("refine_candidates") >= trace.counter("refine_hits"),
            "{}: refine candidates {} < hits {}",
            q.id,
            trace.counter("refine_candidates"),
            trace.counter("refine_hits")
        );
        if trace.counter("index_probes") > 0 {
            assert!(
                trace.counter("index_nodes_visited") > 0,
                "{}: probes without node visits",
                q.id
            );
        }

        // Spatial-filter arithmetic: every row the envelope rule decided
        // plus every row it left to the refine was a refine candidate.
        // (Filters the generic evaluator runs add candidates without
        // prefilter counts, hence `<=`.)
        assert!(
            trace.counter("prefilter_rejects") + trace.counter("selvec_survivors")
                <= trace.counter("refine_candidates"),
            "{}: prefilter accounting exceeds refine candidates",
            q.id
        );
    }
}

/// The single-table constant-window queries are planned through the
/// spatial index, so their traces must show index work.
#[test]
fn indexed_window_queries_report_probes() {
    let (data, db) = loaded_db();
    let indexed = ["T01", "T04", "T06", "T16"];
    for q in topo_suite(&data).iter().filter(|q| indexed.contains(&q.id)) {
        let (_, trace) = db.execute_traced(&q.sql).expect(q.id);
        assert!(trace.counter("index_probes") > 0, "{}: expected an index probe", q.id);
        assert!(trace.counter("index_nodes_visited") > 0, "{}: expected node visits", q.id);
        assert!(
            trace.stage_names().contains(&"index_probe"),
            "{}: index_probe stage missing from {:?}",
            q.id,
            trace.stage_names()
        );
    }
}

/// Dropping the index flips the plan back to a sequential scan: probe
/// counters go to zero while the answer stays identical.
#[test]
fn index_probes_zero_after_drop_index() {
    let db = tiny_db();
    let sql = "SELECT COUNT(*) FROM pts WHERE ST_Within(geom, ST_MakeEnvelope(-1, -1, 10.5, 10.5))";

    let (with_index, trace) = db.execute_traced(sql).unwrap();
    assert_eq!(with_index.scalar(), Some(&Value::Int(11)));
    assert!(trace.counter("index_probes") > 0, "indexed run must probe");

    db.drop_spatial_index("pts", "geom").unwrap();
    let (without_index, trace) = db.execute_traced(sql).unwrap();
    assert_eq!(without_index, with_index, "answer must not depend on the index");
    assert_eq!(trace.counter("index_probes"), 0, "no index left to probe");
    assert_eq!(trace.counter("index_nodes_visited"), 0);
    assert!(!trace.stage_names().contains(&"index_probe"));

    // Dropping twice is an error; the ordered variant enforces the same.
    assert!(db.drop_spatial_index("pts", "geom").is_err());
    assert!(db.drop_ordered_index("pts", "id").is_err());
}

/// A macro scenario traced step by step: every step is a statement with
/// a parse stage, and the per-step deltas sum to the engine-wide delta.
#[test]
fn macro_scenario_traces_are_consistent() {
    let data = TigerDataset::generate(&TigerConfig { scale: SCALE, ..TigerConfig::default() });
    let db = {
        let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
        load_dataset(&db, &data).expect("dataset loads");
        db.set_workers(1);
        db
    };
    let config = ScenarioConfig { seed: 0xbead, sessions: 1 };
    let scenario = all_scenarios(&data, &config)
        .into_iter()
        .find(|s| s.id == "M1")
        .expect("map-browsing scenario exists");

    let before = db.metrics_snapshot();
    let mut traced_queries = 0u64;
    let mut traced_probes = 0u64;
    for (label, sql) in &scenario.steps {
        let (_, trace) = db.execute_traced(sql).expect(label);
        assert_eq!(trace.counter("queries"), 1, "{label}: one query per step");
        assert!(trace.stage_names().contains(&"parse"), "{label}: parse stage missing");
        traced_queries += trace.counter("queries");
        traced_probes += trace.counter("index_probes");
    }
    let delta = db.metrics_snapshot().delta_since(&before);
    assert_eq!(delta.counter("queries"), traced_queries, "per-step deltas must sum");
    assert_eq!(delta.counter("index_probes"), traced_probes);
    assert_eq!(traced_queries, scenario.steps.len() as u64);
}

/// EXPLAIN ANALYZE through plain SQL: executes the query and renders the
/// trace as the result set.
#[test]
fn explain_analyze_renders_trace() {
    let db = tiny_db();
    let r = db
        .execute(
            "EXPLAIN ANALYZE SELECT COUNT(*) FROM pts WHERE ST_Within(geom, \
             ST_MakeEnvelope(0, 0, 5, 5))",
        )
        .unwrap();
    assert_eq!(r.columns, vec!["analyze"]);
    let text: String = r.rows.iter().map(|row| row[0].to_string() + "\n").collect();
    assert!(text.contains("total:"), "analyze output was:\n{text}");
    assert!(text.contains("stage plan"), "analyze output was:\n{text}");
    assert!(text.contains("unaccounted"), "analyze output was:\n{text}");
    assert!(text.contains("counter index_probes"), "analyze output was:\n{text}");
    assert!(text.contains("index probes:"), "probe summary missing:\n{text}");
    assert!(text.contains("nodes visited"), "probe summary missing:\n{text}");

    // Only SELECT can be analyzed.
    assert!(db.execute("EXPLAIN ANALYZE DELETE FROM pts").is_err());
}

/// The counters of an `EXPLAIN ANALYZE` text; a counter it does not
/// list is zero.
fn analyzed_counters(db: &Arc<SpatialDb>, sql: &str) -> (Vec<String>, impl Fn(&str) -> u64) {
    let r = db.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
    let lines: Vec<String> = r.rows.iter().map(|row| row[0].to_string()).collect();
    let counters: Vec<(String, u64)> = lines
        .iter()
        .filter_map(|l| {
            let mut words = l.split_whitespace();
            (words.next() == Some("counter")).then_some(())?;
            Some((words.next()?.to_string(), words.next()?.parse().ok()?))
        })
        .collect();
    let get = move |name: &str| counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v);
    (lines, get)
}

/// Map browsing (M1) fetches no row: its `COUNT(*)` is decided on the
/// envelopes the heap keeps, each index candidate a refine candidate.
/// Geocoding (M2) fetches only the rows its address filter keeps.
#[test]
fn explain_analyze_counts_only_the_rows_a_statement_fetches() {
    let (data, db) = loaded_db();
    let config = ScenarioConfig { seed: 0xbead, sessions: 1 };
    let scenarios = all_scenarios(&data, &config);
    let steps = |id: &str| scenarios.iter().find(|s| s.id == id).unwrap().steps.clone();
    let mut candidates = 0;
    for (label, sql) in steps("M1") {
        let (text, counter) = analyzed_counters(&db, &sql);
        assert_eq!(counter("heap_rows_fetched"), 0, "{label}: {text:?}");
        assert_eq!(counter("refine_candidates"), counter("index_candidates"), "{label}: {text:?}");
        candidates += counter("index_candidates");
    }
    assert!(candidates > 0, "no window held a row");
    let mut found = 0;
    for (label, sql) in steps("M2") {
        let rows = db.execute(&sql).unwrap().rows.len() as u64;
        let (text, counter) = analyzed_counters(&db, &sql);
        assert_eq!(counter("heap_rows_fetched"), rows, "{label}: {text:?}");
        assert!(counter("refine_candidates") >= rows, "{label}: {text:?}");
        found += rows;
    }
    assert!(found > 0, "no address was found");
}

/// A write's reads are counted as fetches: an `UPDATE` fetches each row
/// it replaces, once; a `DELETE` whose WHERE the stored ids decide
/// fetches none; and one whose WHERE reads geometries fetches each
/// candidate the index probe found, once.
#[test]
fn dml_counts_the_rows_it_reads() {
    let db = tiny_db();
    let fetched = |sql: &str| {
        let (rs, trace) = db.execute_traced(sql).unwrap();
        (
            rs.scalar().cloned(),
            trace.counter("heap_rows_fetched"),
            trace.counter("index_candidates"),
        )
    };
    let (n, rows, _) = fetched("UPDATE pts SET id = id + 100 WHERE id >= 10 AND id < 15");
    assert_eq!((n, rows), (Some(Value::Int(5)), 5), "an UPDATE fetches the rows it replaces");
    let (n, rows, _) = fetched("DELETE FROM pts WHERE id < 5");
    assert_eq!((n, rows), (Some(Value::Int(5)), 0), "a DELETE on stored ids fetches nothing");
    let window = "ST_Intersects(geom, ST_MakeEnvelope(19.5, 19.5, 24.5, 24.5))";
    let (n, rows, candidates) = fetched(&format!("DELETE FROM pts WHERE {window}"));
    assert_eq!(n, Some(Value::Int(5)));
    assert!(candidates >= 5, "the delete probed the index: {candidates} candidates");
    assert_eq!(rows, candidates, "a DELETE fetches each candidate it refines, once");
}

/// WAL counters: with durability attached, every logged statement appends
/// a record, visible in the per-query trace.
#[test]
fn wal_appends_show_in_traces() {
    let dir = std::env::temp_dir().join(format!("jackpine_obs_wal_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
    db.set_durability(Some(&dir), jackpine::engine::DurabilityOptions::default()).unwrap();
    db.execute("CREATE TABLE t (id BIGINT)").unwrap();
    let (_, trace) = db.execute_traced("INSERT INTO t VALUES (1), (2)").unwrap();
    assert_eq!(trace.counter("wal_appends"), 2, "one WAL record per inserted row");
    let (_, trace) = db.execute_traced("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(trace.counter("wal_appends"), 0, "reads append nothing");
    db.set_durability(None, jackpine::engine::DurabilityOptions::default()).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

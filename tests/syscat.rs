//! System-catalog tests: the `jp_*` virtual tables answer ordinary SQL
//! through the normal planner and executor. Golden column sets, WHERE /
//! ORDER BY / LIMIT / aggregate composition, EXPLAIN ANALYZE on
//! introspection queries, freshness across the plan cache, and the
//! wait-state/gauge surfaces behind `jp_metrics`. Assertions are about
//! shapes and counts — never about timings.

use jackpine::engine::{EngineProfile, SpatialDb};
use jackpine::obs::{DETERMINISTIC_COUNTERS, GAUGES, SCHEDULING_COUNTERS};
use jackpine::storage::Value;
use std::sync::Arc;
use std::time::Duration;

fn tiny_db() -> Arc<SpatialDb> {
    let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
    db.execute("CREATE TABLE pts (id BIGINT, geom GEOMETRY)").unwrap();
    for i in 0..20 {
        db.execute(&format!("INSERT INTO pts VALUES ({i}, ST_GeomFromText('POINT ({i} {i})'))"))
            .unwrap();
    }
    db.create_spatial_index("pts", "geom").unwrap();
    db.set_workers(1);
    db
}

fn count(db: &Arc<SpatialDb>, sql: &str) -> i64 {
    match db.execute(sql).unwrap().scalar().unwrap() {
        Value::Int(n) => *n,
        other => panic!("expected integer scalar from {sql}, got {other:?}"),
    }
}

/// Every system table answers a plain `SELECT *` and its column set is
/// frozen: these names are the catalog's public schema (DESIGN.md
/// "System catalog"), so renames break downstream dashboards.
#[test]
fn system_table_schemas_are_golden() {
    let db = tiny_db();
    let golden: &[(&str, &[&str])] = &[
        (
            "jp_stat_statements",
            &["fingerprint", "statement", "calls", "errors", "rows", "mean_ms", "p95_ms"],
        ),
        (
            "jp_flight_recorder",
            &[
                "seq",
                "statement",
                "total_ms",
                "rows",
                "parse_ms",
                "plan_ms",
                "index_probe_ms",
                "prefilter_ms",
                "refine_ms",
                "materialize_ms",
                "index_probes",
                "refine_hits",
            ],
        ),
        (
            "jp_slow_queries",
            &[
                "seq",
                "statement",
                "total_ms",
                "rows",
                "parse_ms",
                "plan_ms",
                "index_probe_ms",
                "prefilter_ms",
                "refine_ms",
                "materialize_ms",
                "index_probes",
                "refine_hits",
            ],
        ),
        ("jp_metrics", &["name", "kind", "value", "count", "sum", "max", "p50", "p99"]),
        ("jp_sessions", &["session_id", "statement", "elapsed_ms"]),
        ("jp_snapshots", &["generation", "readers", "age_ms"]),
        (
            "jp_wal",
            &[
                "attached",
                "generation",
                "sync_each_append",
                "wal_appends",
                "wal_fsyncs",
                "group_commit_batches",
                "group_commit_size",
            ],
        ),
        (
            "jp_buffer_pool",
            &[
                "capacity_frames",
                "resident_frames",
                "pinned_frames",
                "decoded_rows",
                "pin_hits",
                "cold_pins",
                "evictions",
                "dirty_writebacks",
            ],
        ),
    ];
    for (table, cols) in golden {
        let r = db.execute(&format!("SELECT * FROM {table}")).unwrap();
        assert_eq!(r.columns, *cols, "{table} schema drifted");
    }
}

/// The catalog name space is case-insensitive like the rest of the
/// planner's table resolution.
#[test]
fn system_tables_resolve_case_insensitively() {
    let db = tiny_db();
    let lower = db.execute("SELECT name FROM jp_metrics").unwrap();
    let upper = db.execute("SELECT name FROM JP_METRICS").unwrap();
    assert_eq!(lower.rows.len(), upper.rows.len());
}

/// `jp_metrics` carries the whole registry: every canonical counter and
/// gauge appears exactly once, kinds are right, and filtering works.
#[test]
fn metrics_table_covers_counters_and_gauges() {
    let db = tiny_db();
    let n_counters = count(&db, "SELECT COUNT(*) FROM jp_metrics WHERE kind = 'counter'");
    assert_eq!(
        n_counters as usize,
        DETERMINISTIC_COUNTERS.len() + SCHEDULING_COUNTERS.len(),
        "every canonical counter shows as one row"
    );
    let n_gauges = count(&db, "SELECT COUNT(*) FROM jp_metrics WHERE kind = 'gauge'");
    assert_eq!(n_gauges as usize, GAUGES.len());

    // The engine has executed statements, so the queries counter is live.
    let queries = count(&db, "SELECT value FROM jp_metrics WHERE name = 'queries'");
    assert!(queries > 20, "tiny_db ran >20 statements, jp_metrics says {queries}");
}

/// The gauges are engine state computed as `jp_metrics` is read; a
/// statement's trace carries none, so no stale level rides along in it.
#[test]
fn gauges_are_read_from_the_engine_and_traces_carry_none() {
    let db = tiny_db();
    let gauge =
        |name: &str| count(&db, &format!("SELECT value FROM jp_metrics WHERE name = '{name}'"));
    let pin = db.pin_snapshot_handle();
    db.execute("DELETE FROM pts WHERE id < 3").unwrap();
    assert_eq!((gauge("active_snapshots"), gauge("pending_reclaim_rows")), (1, 3));
    drop(pin);
    db.execute("INSERT INTO pts VALUES (20, ST_GeomFromText('POINT (20 20)'))").unwrap();
    assert_eq!((gauge("active_snapshots"), gauge("pending_reclaim_rows")), (0, 0));
    assert_eq!(gauge("oldest_snapshot_age_us"), 0);
    let (_, traced) = db.execute_traced("SELECT COUNT(*) FROM pts").unwrap();
    assert!(traced.delta.gauges.is_empty(), "{:?}", traced.delta.gauges);
    let recent = db.flight_recorder().recent();
    assert!(recent.iter().all(|t| t.delta.gauges.is_empty()), "a recorded trace has gauges");
}

/// Writer-lock wait histograms: every INSERT passes the insert txn-wait
/// site, so its histogram count matches the statement count even when
/// the lock was uncontended (zero wait is still a sample).
#[test]
fn txn_wait_histograms_surface_through_jp_metrics() {
    let db = tiny_db();
    let r =
        db.execute("SELECT count, p99 FROM jp_metrics WHERE name = 'txn_wait_insert_ns'").unwrap();
    assert_eq!(r.rows.len(), 1);
    let Value::Int(samples) = r.rows[0][0] else { panic!("count must be integer") };
    assert_eq!(samples, 20, "one wait sample per INSERT");
    let ddl = count(&db, "SELECT count FROM jp_metrics WHERE name = 'txn_wait_ddl_ns'");
    assert!(ddl >= 2, "CREATE TABLE + CREATE INDEX record ddl waits, got {ddl}");
    // Snapshot pins: every recorded SELECT pins and releases one.
    let pins = count(&db, "SELECT count FROM jp_metrics WHERE name = 'snapshot_pin_ns'");
    assert!(pins > 0, "snapshot pin lifetimes must be recorded");
}

/// WHERE, ORDER BY, LIMIT and aggregates compose on system tables
/// because they run through the ordinary executor.
#[test]
fn where_order_by_limit_compose_on_system_tables() {
    let db = tiny_db();
    let r = db
        .execute("SELECT name FROM jp_metrics WHERE kind = 'counter' ORDER BY name DESC LIMIT 3")
        .unwrap();
    assert_eq!(r.rows.len(), 3);
    let names: Vec<String> = r.rows.iter().map(|row| row[0].to_string()).collect();
    let mut sorted = names.clone();
    sorted.sort_by(|a, b| b.cmp(a));
    assert_eq!(names, sorted, "ORDER BY DESC must hold");
}

/// `jp_stat_statements` aggregates by fingerprint: same-shape statements
/// with different literals collapse into one row whose call count adds.
#[test]
fn stat_statements_aggregate_by_shape() {
    let db = tiny_db();
    for i in 0..5 {
        db.execute(&format!("SELECT COUNT(*) FROM pts WHERE id = {i}")).unwrap();
    }
    let r = db
        .execute("SELECT statement, calls FROM jp_stat_statements ORDER BY calls DESC LIMIT 1")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    let Value::Int(calls) = r.rows[0][1] else { panic!("calls must be integer") };
    assert!(calls >= 5, "top shape has at least the 5 identical probes, got {calls}");
}

/// The flight recorder and slow log are queryable, and a zero threshold
/// turns every statement into a slow query.
#[test]
fn flight_recorder_and_slow_log_answer_sql() {
    let db = tiny_db();
    let traces = count(&db, "SELECT COUNT(*) FROM jp_flight_recorder");
    assert!(traces > 0, "tiny_db left traces in the ring");

    db.slow_log().set_threshold(Duration::ZERO);
    db.execute("SELECT COUNT(*) FROM pts").unwrap();
    let r = db
        .execute("SELECT statement, total_ms FROM jp_slow_queries ORDER BY seq DESC LIMIT 1")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], Value::Text("SELECT COUNT(*) FROM pts".into()));
}

/// System-table reads must see live state even though SELECT plans are
/// cached: the cache is bypassed for any statement touching a `jp_`
/// table, so re-running the same introspection SQL reflects new traffic.
#[test]
fn introspection_queries_bypass_the_plan_cache() {
    let db = tiny_db();
    let sql = "SELECT value FROM jp_metrics WHERE name = 'queries'";
    let before = count(&db, sql);
    for _ in 0..4 {
        db.execute("SELECT COUNT(*) FROM pts").unwrap();
    }
    let after = count(&db, sql);
    assert!(after >= before + 4, "stale plan cache: {before} -> {after}");
}

/// The session registry shows in-flight statements — including the
/// introspection query itself, which registered before planning.
#[test]
fn sessions_table_shows_the_running_statement() {
    let db = tiny_db();
    let r = db.execute("SELECT statement FROM jp_sessions").unwrap();
    assert!(
        r.rows.iter().any(|row| row[0].to_string().contains("jp_sessions")),
        "the introspection query must see itself in-flight: {:?}",
        r.rows
    );
}

/// An idle engine pins no snapshots: the statement's own pin is taken
/// after `jp_snapshots` materializes.
#[test]
fn snapshots_table_is_empty_when_idle() {
    let db = tiny_db();
    assert_eq!(count(&db, "SELECT COUNT(*) FROM jp_snapshots"), 0);
}

/// `jp_wal` reflects durability state: detached shows NULLs, attached
/// shows the live generation and append counters.
#[test]
fn wal_table_tracks_durability_state() {
    let db = tiny_db();
    let r = db.execute("SELECT attached, generation FROM jp_wal").unwrap();
    assert_eq!(r.rows.len(), 1, "jp_wal is single-row");
    assert_eq!(r.rows[0][0], Value::Int(0));
    assert_eq!(r.rows[0][1], Value::Null);

    let dir = std::env::temp_dir().join(format!("jackpine_syscat_wal_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    SpatialDb::set_durability(&db, Some(&dir), jackpine::engine::DurabilityOptions::default())
        .unwrap();
    db.execute("INSERT INTO pts VALUES (100, ST_GeomFromText('POINT (100 100)'))").unwrap();
    let r = db.execute("SELECT attached, wal_appends FROM jp_wal").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(1));
    let Value::Int(appends) = r.rows[0][1] else { panic!("wal_appends must be integer") };
    assert!(appends >= 1, "the INSERT appended to the WAL");
    SpatialDb::set_durability(&db, None, jackpine::engine::DurabilityOptions::default()).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `jp_buffer_pool` reflects pool state: unbounded by default, and once
/// bounded it reports the frame budget and live pin/eviction counters
/// that a cold re-scan advances.
#[test]
fn buffer_pool_table_tracks_pool_state() {
    let db = tiny_db();
    let r = db.execute("SELECT decoded_rows FROM jp_buffer_pool").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(0), "inserts and an index build decode no row");
    let r = db.execute("SELECT capacity_frames, pinned_frames FROM jp_buffer_pool").unwrap();
    assert_eq!(r.rows.len(), 1, "jp_buffer_pool is single-row");
    assert_eq!(r.rows[0][0], Value::Int(0), "default pool is unbounded");
    assert_eq!(r.rows[0][1], Value::Int(0), "no pins held between statements");

    db.set_pool_bytes(8 * 1024 * 1024);
    db.clear_caches();
    // A projection reads every page (a COUNT(*) reads none), and keeps
    // none of the rows it only passes on.
    db.execute("SELECT id FROM pts").unwrap();
    let r = db.execute("SELECT capacity_frames, cold_pins, decoded_rows FROM jp_buffer_pool");
    let r = r.unwrap();
    assert_eq!(r.rows[0][0], Value::Int(1024), "8 MiB of 8 KiB frames");
    let Value::Int(cold) = r.rows[0][1] else { panic!("cold_pins must be integer") };
    assert!(cold > 0, "the cold scan faulted pages in");
    assert_eq!(r.rows[0][2], Value::Int(0), "a projection of plain columns keeps no row");

    // Decoded rows live in frames: a read that evaluates its rows (an
    // aggregate here) decodes and keeps some, and dropping the frames
    // drops every one of them.
    db.execute("SELECT MAX(id) FROM pts WHERE id >= 0").unwrap();
    let decoded = "SELECT decoded_rows, resident_frames FROM jp_buffer_pool";
    let r = db.execute(decoded).unwrap();
    assert!(matches!(r.rows[0][0], Value::Int(n) if n > 0), "the scan decoded rows: {r:?}");
    assert!(matches!(r.rows[0][1], Value::Int(n) if n > 0), "into resident frames: {r:?}");
    db.clear_caches();
    let r = db.execute(decoded).unwrap();
    assert_eq!(r.rows[0], vec![Value::Int(0), Value::Int(0)], "no frame, no decoded row");

    // Less than a frame is one frame, not the unbounded sentinel.
    db.set_pool_bytes(4096);
    let r = db.execute("SELECT capacity_frames FROM jp_buffer_pool").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(1), "a request below 8 KiB still bounds the pool");
    assert_eq!(count(&db, "SELECT COUNT(*) FROM pts WHERE id >= 0"), 20);
    let r = db.execute("SELECT resident_frames FROM jp_buffer_pool").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(1), "and the bound holds between statements");
}

/// A statement decodes only the rows it returns: a map-browsing count
/// (`COUNT(*)` under an envelope filter, through the spatial index) and
/// a count under geocoding's address filter (text and integer
/// comparisons, through the ordered index) decode none, and geocoding's
/// projection decodes exactly the rows it returns — and, passing them
/// on, keeps none of them.
#[test]
fn a_statement_decodes_only_the_rows_it_returns() {
    let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
    db.execute("CREATE TABLE roads (id BIGINT, name TEXT, zip BIGINT, geom GEOMETRY)").unwrap();
    for i in 0..40 {
        let line = format!("ST_GeomFromText('LINESTRING ({i} 0, {i} 5)')");
        let name = format!("road {}", i % 4);
        db.execute(&format!("INSERT INTO roads VALUES ({i}, '{name}', {}, {line})", i % 3))
            .unwrap();
    }
    db.create_spatial_index("roads", "geom").unwrap();
    db.create_ordered_index("roads", "name").unwrap();
    let decoded = || count(&db, "SELECT decoded_rows FROM jp_buffer_pool");
    let browse = "SELECT COUNT(*) FROM roads WHERE MBRIntersects(geom, \
                  ST_MakeEnvelope(2.5, 1, 20.5, 2))";
    assert_eq!(count(&db, browse), 18);
    let address = "name = 'road 1' AND zip = 2 AND id >= 4 AND id <= 30";
    assert_eq!(count(&db, &format!("SELECT COUNT(*) FROM roads WHERE {address}")), 3);
    assert_eq!(decoded(), 0, "a count decodes no row");
    let misses = || db.table("roads").unwrap().heap.stats().cache_misses;
    let before = misses();
    let lookup = format!("SELECT id, name, geom FROM roads WHERE {address}");
    let (lookup, trace) = db.execute_traced(&lookup).unwrap();
    assert_eq!(lookup.rows.len(), 3);
    assert_eq!(trace.counter("heap_rows_fetched"), 3, "a projection fetches the rows it returns");
    assert_eq!(misses() - before, 3, "and decodes each of them");
    assert_eq!(decoded(), 0, "and keeps none: it only passes them on");
}

/// A reopened engine holds no decoded row: neither the snapshot restore
/// nor the log replay keeps one, a read that passes rows on keeps none,
/// and a read that evaluates rows decodes, and keeps, what it reads.
#[test]
fn a_reopened_engine_decodes_only_what_a_read_asks_for() {
    let dir = std::env::temp_dir().join(format!("jackpine_syscat_reopen_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = jackpine::engine::DurabilityOptions::default;
    let db = tiny_db();
    SpatialDb::set_durability(&db, Some(&dir), opts()).unwrap();
    // Rows in the snapshot the attach cut, and rows only in the log.
    for i in 20..30 {
        db.execute(&format!("INSERT INTO pts VALUES ({i}, ST_GeomFromText('POINT ({i} 0)'))"))
            .unwrap();
    }
    drop(db);
    let db = SpatialDb::open_durable(&dir, EngineProfile::ExactRtree, opts()).unwrap();
    let decoded = "SELECT decoded_rows FROM jp_buffer_pool";
    assert_eq!(db.execute(decoded).unwrap().rows[0][0], Value::Int(0), "open decoded rows");
    let all = db.execute("SELECT * FROM pts").unwrap();
    assert_eq!(all.rows.len(), 30);
    assert_eq!(db.execute(decoded).unwrap().rows[0][0], Value::Int(0), "SELECT * keeps none");
    let counted = db.execute("SELECT COUNT(geom) FROM pts").unwrap();
    assert_eq!(counted.scalar(), Some(&Value::Int(30)));
    assert_eq!(db.execute(decoded).unwrap().rows[0][0], Value::Int(30), "a scan keeps its rows");
    SpatialDb::set_durability(&db, None, opts()).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// EXPLAIN ANALYZE works on introspection queries: the catalog resolves
/// through the normal planner, so the analyze path needs no special case.
#[test]
fn explain_analyze_works_on_system_tables() {
    let db = tiny_db();
    let r = db.execute("EXPLAIN ANALYZE SELECT COUNT(*) FROM jp_metrics").unwrap();
    assert_eq!(r.columns, vec!["analyze"]);
    let text: String = r.rows.iter().map(|row| row[0].to_string() + "\n").collect();
    assert!(text.contains("total:"), "analyze output was:\n{text}");
    assert!(text.contains("stage plan"), "analyze output was:\n{text}");
}

/// The `jp_` prefix is reserved: user tables cannot shadow the catalog.
#[test]
fn create_table_rejects_the_jp_prefix() {
    let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
    let err = db.execute("CREATE TABLE jp_mine (id BIGINT)").expect_err("jp_ is reserved");
    assert!(format!("{err}").contains("reserved"), "unexpected error: {err}");
    // Unknown jp_ names in FROM still give the ordinary not-found error.
    assert!(db.execute("SELECT * FROM jp_no_such_table").is_err());
}

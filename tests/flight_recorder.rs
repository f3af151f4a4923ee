//! Flight-recorder integration tests: concurrency safety of the trace
//! ring (writers racing a draining reader), capacity/eviction-order
//! guarantees, slow-query-log thresholding through the engine, and the
//! fingerprint stats API. Assertions are about structure and counts,
//! never about timings.

use jackpine::engine::{EngineProfile, SpatialDb, FLIGHT_RECORDER_CAPACITY};
use jackpine::obs::{EngineMetrics, FlightRecorder, QueryTrace, SlowQueryLog};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn trace(sql: &str) -> Arc<QueryTrace> {
    let m = EngineMetrics::new();
    Arc::new(QueryTrace::new(
        sql,
        Duration::from_micros(1),
        3,
        m.snapshot().delta_since(&m.snapshot()),
    ))
}

/// A small table-backed engine for the engine-level tests.
fn tiny_db() -> Arc<SpatialDb> {
    let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
    db.execute("CREATE TABLE pts (id BIGINT, geom GEOMETRY)").unwrap();
    for i in 0..20 {
        db.execute(&format!("INSERT INTO pts VALUES ({i}, ST_GeomFromText('POINT ({i} {i})'))"))
            .unwrap();
    }
    db
}

/// N writer threads race a reader that alternates `recent` and `drain`.
/// Every observed trace must be whole (its SQL and row count are the
/// pair the writer created together), the ring must never exceed its
/// capacity, and the recorded/evicted/drained accounting must balance.
#[test]
fn concurrent_writers_with_draining_reader() {
    const WRITERS: usize = 4;
    const PER_WRITER: usize = 500;
    const CAPACITY: usize = 32;

    let ring = Arc::new(FlightRecorder::new(CAPACITY));
    let stop = Arc::new(AtomicBool::new(false));

    let reader = {
        let ring = Arc::clone(&ring);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut seen = 0usize;
            while !stop.load(Ordering::Relaxed) {
                assert!(ring.len() <= CAPACITY, "capacity bound violated");
                for t in ring.drain() {
                    // Torn-trace check: the writer stored `w<i>:<j>` as
                    // SQL and j as the row count, atomically together.
                    let j: usize =
                        t.sql.split(':').nth(1).expect("well-formed sql").parse().unwrap();
                    assert_eq!(t.rows, j, "trace torn: sql {} vs rows {}", t.sql, t.rows);
                    seen += 1;
                }
                for t in ring.recent() {
                    assert!(t.sql.starts_with('w'), "foreign trace in ring: {}", t.sql);
                }
                std::thread::yield_now();
            }
            seen + ring.drain().len()
        })
    };

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let m = EngineMetrics::new();
                for j in 0..PER_WRITER {
                    let t = QueryTrace::new(
                        &format!("w{w}:{j}"),
                        Duration::from_micros(1),
                        j,
                        m.snapshot().delta_since(&m.snapshot()),
                    );
                    ring.push(Arc::new(t));
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let drained = reader.join().unwrap();

    let pushed = (WRITERS * PER_WRITER) as u64;
    assert_eq!(ring.recorded(), pushed);
    // Every pushed trace was either drained by the reader or evicted to
    // make room; nothing is lost or double-counted.
    assert_eq!(drained as u64 + ring.evicted(), pushed);
}

/// Eviction order is pinned: pushing k > capacity traces retains exactly
/// the last `capacity`, oldest first.
#[test]
fn eviction_order_is_oldest_first() {
    let ring = FlightRecorder::new(8);
    for i in 0..30 {
        ring.push(trace(&format!("q{i}")));
    }
    let sqls: Vec<String> = ring.recent().iter().map(|t| t.sql.clone()).collect();
    let expect: Vec<String> = (22..30).map(|i| format!("q{i}")).collect();
    assert_eq!(sqls, expect);
    assert_eq!(ring.evicted(), 22);
    assert_eq!(ring.recorded(), 30);
}

/// The slow log is a filter over the same stream: offers below the
/// threshold vanish, at-or-above are retained, and the threshold can be
/// retuned live.
#[test]
fn slow_log_respects_threshold_under_concurrency() {
    let log = Arc::new(SlowQueryLog::new(1024, Duration::from_micros(500)));
    let handles: Vec<_> = (0..4)
        .map(|w| {
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                let m = EngineMetrics::new();
                let mut admitted = 0u64;
                for j in 0..200 {
                    let micros = if (w + j) % 2 == 0 { 1 } else { 1000 };
                    let t = Arc::new(QueryTrace::new(
                        &format!("w{w}:{j}"),
                        Duration::from_micros(micros),
                        0,
                        m.snapshot().delta_since(&m.snapshot()),
                    ));
                    if log.offer(&t) {
                        admitted += 1;
                    }
                }
                admitted
            })
        })
        .collect();
    let admitted: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(admitted, 400, "exactly the slow half is admitted");
    assert_eq!(log.len(), 400);
    assert!(log.recent().iter().all(|t| t.total >= Duration::from_micros(500)));
}

/// The engine records every executed statement into its flight
/// recorder, bounded by the recorder capacity, oldest evicted first.
#[test]
fn engine_records_statements_and_bounds_capacity() {
    let db = tiny_db();
    // CREATE + 20 INSERTs already recorded; run SELECTs past capacity.
    let already = db.flight_recorder().recorded();
    let extra = FLIGHT_RECORDER_CAPACITY as u64 + 10 - already;
    for i in 0..extra {
        db.execute(&format!("SELECT COUNT(*) FROM pts WHERE id >= {i}")).unwrap();
    }
    assert_eq!(db.flight_recorder().recorded(), already + extra);
    assert_eq!(db.flight_recorder().recent().len(), FLIGHT_RECORDER_CAPACITY);
    assert!(db.flight_recorder().evicted() > 0);
    // The newest trace is the last statement executed.
    let last = db.flight_recorder().recent().last().cloned().unwrap();
    assert_eq!(last.sql, format!("SELECT COUNT(*) FROM pts WHERE id >= {}", extra - 1));
    assert_eq!(last.rows, 1);
    assert_eq!(last.counter("queries"), 1);

    // Draining empties the ring; subsequent statements refill it.
    assert_eq!(db.flight_recorder().drain().len(), FLIGHT_RECORDER_CAPACITY);
    assert!(db.flight_recorder().recent().is_empty());
    db.execute("SELECT COUNT(*) FROM pts").unwrap();
    assert_eq!(db.flight_recorder().recent().len(), 1);
}

/// Concurrency at the engine level: sessions executing on a shared
/// instance while a reader drains. Traces are never torn and the ring
/// stays within capacity.
#[test]
fn engine_concurrent_execution_with_reader() {
    let db = tiny_db();
    db.flight_recorder().drain();
    // `recorded`/`evicted` are lifetime counters; measure from here.
    let recorded_base = db.flight_recorder().recorded();
    let evicted_base = db.flight_recorder().evicted();
    let stop = Arc::new(AtomicBool::new(false));

    let reader = {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut drained = 0usize;
            while !stop.load(Ordering::Relaxed) {
                assert!(db.flight_recorder().recent().len() <= FLIGHT_RECORDER_CAPACITY);
                for t in db.flight_recorder().drain() {
                    assert!(t.sql.starts_with("SELECT COUNT(*) FROM pts"), "torn sql: {}", t.sql);
                    assert_eq!(t.rows, 1, "COUNT(*) returns one row");
                    drained += 1;
                }
                std::thread::yield_now();
            }
            drained + db.flight_recorder().drain().len()
        })
    };

    const SESSIONS: usize = 4;
    const PER_SESSION: usize = 100;
    let workers: Vec<_> = (0..SESSIONS)
        .map(|w| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                for j in 0..PER_SESSION {
                    db.execute(&format!("SELECT COUNT(*) FROM pts WHERE id >= {}", (w + j) % 20))
                        .unwrap();
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let drained = reader.join().unwrap();
    let r = db.flight_recorder();
    assert_eq!(r.recorded() - recorded_base, (SESSIONS * PER_SESSION) as u64);
    assert_eq!(drained as u64 + (r.evicted() - evicted_base), r.recorded() - recorded_base);
}

/// Slow-query log through the engine surface: at threshold zero every
/// statement is slow; at an unreachable threshold none are.
#[test]
fn engine_slow_query_log_thresholds() {
    let db = tiny_db();
    assert!(db.slow_log().recent().is_empty(), "µs-scale statements are not slow by default");

    db.slow_log().set_threshold(Duration::ZERO);
    assert_eq!(db.slow_log().threshold(), Duration::ZERO);
    db.execute("SELECT COUNT(*) FROM pts").unwrap();
    assert_eq!(db.slow_log().recent().len(), 1);
    assert_eq!(db.slow_log().recent()[0].sql, "SELECT COUNT(*) FROM pts");

    db.slow_log().set_threshold(Duration::from_secs(3600));
    db.execute("SELECT COUNT(*) FROM pts").unwrap();
    assert_eq!(db.slow_log().recent().len(), 1, "fast statement must not be admitted");
}

/// Fingerprint stats through the engine: same-shape statements with
/// different literals share one fingerprint; errors are counted on the
/// shape; top-k ranks by executions.
#[test]
fn engine_query_stats_aggregate_by_shape() {
    let db = tiny_db();
    for i in 0..7 {
        db.execute(&format!("SELECT COUNT(*) FROM pts WHERE id = {i}")).unwrap();
    }
    db.execute("SELECT id FROM pts WHERE id < 3").unwrap();
    // Same shape as the COUNT query, but against a missing table: the
    // error lands on a *different* shape (table name differs).
    assert!(db.execute("SELECT COUNT(*) FROM missing WHERE id = 9").is_err());

    let stats = db.query_stats(50);
    let count_shape = stats
        .iter()
        .find(|s| s.normalized == "select count ( * ) from pts where id = ?")
        .expect("COUNT shape tracked");
    assert_eq!(count_shape.count, 7, "seven literals, one fingerprint");
    assert_eq!(count_shape.errors, 0);
    assert_eq!(count_shape.rows, 7, "one aggregate row per execution");

    let err_shape = stats
        .iter()
        .find(|s| s.normalized == "select count ( * ) from missing where id = ?")
        .expect("failed shape tracked");
    assert_eq!(err_shape.errors, 1);
    assert_eq!(err_shape.count, 0);

    // Ranking: the COUNT shape has the most executions of any SELECT.
    assert!(stats.iter().position(|s| s.normalized == count_shape.normalized).unwrap() <= 1);
    // top-k truncates.
    assert_eq!(db.query_stats(2).len(), 2);
}

//! Concurrency integration tests: the engine must stay consistent under
//! parallel readers and under readers racing writers.

use jackpine::engine::{EngineProfile, SpatialConnector, SpatialDb};
use jackpine::obs::DETERMINISTIC_COUNTERS;
use jackpine::storage::Value;
use std::sync::Arc;
use std::thread;

/// Deterministic xorshift64* — seeded sweeps must replay identically.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn seeded_db() -> Arc<SpatialDb> {
    let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
    db.execute("CREATE TABLE pts (id BIGINT, geom GEOMETRY)").unwrap();
    for i in 0..200 {
        db.execute(&format!(
            "INSERT INTO pts VALUES ({i}, ST_GeomFromText('POINT ({} {})'))",
            i % 20,
            i / 20
        ))
        .unwrap();
    }
    db.create_spatial_index("pts", "geom").unwrap();
    db
}

#[test]
fn parallel_readers_get_identical_answers() {
    let db = seeded_db();
    let sql = "SELECT COUNT(*) FROM pts WHERE ST_Within(geom, ST_MakeEnvelope(-1, -1, 9.5, 4.5))";
    let expected = db.execute(sql).unwrap();
    let mut handles = Vec::new();
    for _ in 0..8 {
        let db = db.clone();
        let sql = sql.to_string();
        handles.push(thread::spawn(move || {
            for _ in 0..50 {
                let r = db.execute(&sql).expect("read");
                assert_eq!(r.rows, vec![vec![Value::Int(50)]]);
            }
        }));
    }
    for h in handles {
        h.join().expect("reader thread");
    }
    assert_eq!(expected.rows, vec![vec![Value::Int(50)]]);
}

#[test]
fn readers_race_writers_without_corruption() {
    let db = seeded_db();
    let writer = {
        let db = db.clone();
        thread::spawn(move || {
            for i in 200..400 {
                db.execute(&format!(
                    "INSERT INTO pts VALUES ({i}, ST_GeomFromText('POINT (100 {i})'))"
                ))
                .expect("insert");
            }
        })
    };
    let mut readers = Vec::new();
    for _ in 0..4 {
        let db = db.clone();
        readers.push(thread::spawn(move || {
            for _ in 0..100 {
                // The original region is untouched by the writer: every
                // read must see exactly the original 200 points there.
                let r = db
                    .execute(
                        "SELECT COUNT(*) FROM pts WHERE ST_Within(geom, \
                         ST_MakeEnvelope(-1, -1, 50, 50))",
                    )
                    .expect("read");
                assert_eq!(r.rows[0][0], Value::Int(200));
            }
        }));
    }
    writer.join().expect("writer thread");
    for r in readers {
        r.join().expect("reader thread");
    }
    let r = db.execute("SELECT COUNT(*) FROM pts").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(400));
}

/// `insert_rows` is one transaction however many rows it carries: a
/// reader counting by scan or through the spatial index sees whole
/// batches or nothing of them, never part of one, and never fewer rows
/// than it saw before. The readers stop when the writer hangs up, which a
/// panicking writer does too.
#[test]
fn readers_see_whole_insert_rows_batches() {
    const BATCH: i64 = 256;
    const BATCHES: i64 = 30;
    let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
    db.execute("CREATE TABLE loaded (id BIGINT, geom GEOMETRY)").unwrap();
    db.create_spatial_index("loaded", "geom").unwrap();
    let counts = [
        "SELECT COUNT(*) FROM loaded",
        "SELECT COUNT(*) FROM loaded WHERE ST_Intersects(geom, ST_MakeEnvelope(-1, -1, 17, 17))",
    ];
    let (hang_ups, listeners): (Vec<_>, Vec<_>) =
        (0..2).map(|_| std::sync::mpsc::channel::<()>()).unzip();
    thread::scope(|s| {
        let writer_db = &db;
        s.spawn(move || {
            let _hang_ups = hang_ups;
            for b in 0..BATCHES {
                let rows = (0..BATCH).map(|j| {
                    let at = format!("POINT ({} {})", j % 16, j / 16);
                    let geom = jackpine::geom::wkt::parse(&at).unwrap();
                    vec![Value::Int(b * BATCH + j), Value::Geom(geom)]
                });
                writer_db.insert_rows("loaded", rows).expect("batch insert");
            }
        });
        for (listener, sql) in listeners.into_iter().zip(counts) {
            let db = &db;
            s.spawn(move || {
                let mut seen = 0;
                while let Err(std::sync::mpsc::TryRecvError::Empty) = listener.try_recv() {
                    let n = db.execute(sql).expect("read").scalar().unwrap().as_i64().unwrap();
                    assert_eq!(n % BATCH, 0, "{sql}: part of a batch ({n} rows)");
                    assert!(n >= seen, "{sql}: {n} rows after {seen}");
                    seen = n;
                }
            });
        }
    });
    let all = db.execute(counts[1]).unwrap();
    assert_eq!(all.scalar(), Some(&Value::Int(BATCH * BATCHES)));
}

/// A seeded multi-session sweep: writers racing readers across every
/// DML shape plus index DDL, with three invariants a snapshot reader
/// must never see broken:
///
/// 1. A stable region (ids 0..100) that no writer touches spatially —
///    every windowed count over it returns exactly 100.
/// 2. A flag column flipped for the whole stable region in one UPDATE —
///    readers see all-zeros or all-ones, never a mix (statement
///    atomicity).
/// 3. Batch churn (each writer INSERTs 5 rows in one statement, then
///    DELETEs the batch in one statement) — the churn-region count is
///    always a multiple of 5.
#[test]
fn seeded_multi_session_sweep_holds_snapshot_invariants() {
    let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
    db.execute("CREATE TABLE sweep (id BIGINT, flag BIGINT, geom GEOMETRY)").unwrap();
    for i in 0..100 {
        db.execute(&format!(
            "INSERT INTO sweep VALUES ({i}, 0, ST_GeomFromText('POINT ({} {})'))",
            i % 10,
            i / 10
        ))
        .unwrap();
    }
    db.create_spatial_index("sweep", "geom").unwrap();

    const SEED: u64 = 0x5eed_cafe;
    const WRITERS: u64 = 3;
    const READERS: usize = 3;
    const ROUNDS: usize = 40;

    thread::scope(|s| {
        for w in 0..WRITERS {
            let db = db.clone();
            s.spawn(move || {
                let mut rng = Rng::new(SEED ^ (w + 1));
                // Each writer owns a disjoint id range for batch churn.
                let base = 1000 * (w + 1);
                for round in 0..ROUNDS {
                    match rng.below(3) {
                        0 => {
                            // Atomic whole-region flag flip.
                            db.execute("UPDATE sweep SET flag = 1 - flag WHERE id < 100")
                                .expect("flip");
                        }
                        1 => {
                            // One INSERT statement, 5 rows, far region.
                            let tag = base + round as u64;
                            let vals: Vec<String> = (0..5)
                                .map(|j| {
                                    format!(
                                        "({tag}, -1, ST_GeomFromText('POINT ({} 0)'))",
                                        5000 + j
                                    )
                                })
                                .collect();
                            db.execute(&format!("INSERT INTO sweep VALUES {}", vals.join(", ")))
                                .expect("batch insert");
                            db.execute(&format!("DELETE FROM sweep WHERE id = {tag}"))
                                .expect("batch delete");
                        }
                        _ => {
                            // Count-preserving geometry rewrite inside
                            // the stable window (translate by zero).
                            db.execute(
                                "UPDATE sweep SET geom = ST_Translate(geom, 0, 0) \
                                 WHERE id < 100",
                            )
                            .expect("rewrite");
                        }
                    }
                }
            });
        }
        // One DDL session churns an ordered index while DML runs; a
        // concurrent drop may race a concurrent create, so only the
        // engine's own invariants (not success) are asserted.
        {
            let db = db.clone();
            s.spawn(move || {
                for i in 0..20 {
                    if i % 2 == 0 {
                        let _ = db.create_ordered_index("sweep", "id");
                    } else {
                        let _ = db.drop_ordered_index("sweep", "id");
                    }
                }
            });
        }
        for r in 0..READERS {
            let db = db.clone();
            s.spawn(move || {
                let mut rng = Rng::new(SEED ^ (0x1000 + r as u64));
                for _ in 0..ROUNDS * 2 {
                    match rng.below(3) {
                        0 => {
                            let c = db
                                .execute(
                                    "SELECT COUNT(*) FROM sweep WHERE ST_Within(geom, \
                                     ST_MakeEnvelope(-1, -1, 10.5, 10.5))",
                                )
                                .expect("window read");
                            assert_eq!(
                                c.rows[0][0],
                                Value::Int(100),
                                "stable region count drifted mid-statement"
                            );
                        }
                        1 => {
                            let c = db
                                .execute("SELECT COUNT(*) FROM sweep WHERE id < 100 AND flag = 0")
                                .expect("flag read");
                            let n = match c.rows[0][0] {
                                Value::Int(n) => n,
                                ref other => panic!("count returned {other:?}"),
                            };
                            assert!(
                                n == 0 || n == 100,
                                "observed a half-applied UPDATE: {n} rows with flag = 0"
                            );
                        }
                        _ => {
                            let c = db
                                .execute("SELECT COUNT(*) FROM sweep WHERE id >= 1000")
                                .expect("churn read");
                            let n = match c.rows[0][0] {
                                Value::Int(n) => n,
                                ref other => panic!("count returned {other:?}"),
                            };
                            assert_eq!(
                                n % 5,
                                0,
                                "observed a half-applied batch INSERT/DELETE: {n} churn rows"
                            );
                        }
                    }
                }
            });
        }
    });

    // Quiesced end state: churn drained, stable region intact.
    let c = db.execute("SELECT COUNT(*) FROM sweep WHERE id >= 1000").unwrap();
    assert_eq!(c.rows[0][0], Value::Int(0));
    let c = db.execute("SELECT COUNT(*) FROM sweep").unwrap();
    assert_eq!(c.rows[0][0], Value::Int(100));
}

/// After a racing sweep, the deterministic counter set must still be
/// worker-invariant: the same query, cold caches, produces identical
/// deterministic deltas at 1 worker and at 4.
#[test]
fn deterministic_counters_stay_worker_invariant_after_dml() {
    let db = seeded_db();
    // Mix the visibility metadata: leave live tombstone traffic behind.
    db.execute("UPDATE pts SET geom = ST_Translate(geom, 0, 0) WHERE id < 50").unwrap();
    db.execute("DELETE FROM pts WHERE id >= 190").unwrap();

    let sql = "SELECT COUNT(*) FROM pts WHERE ST_Within(geom, ST_MakeEnvelope(-1, -1, 9.5, 4.5))";
    let mut deltas = Vec::new();
    for workers in [1usize, 4] {
        db.set_workers(workers);
        db.clear_caches();
        let (result, trace) = db.execute_traced(sql).expect("traced read");
        deltas.push((workers, result, trace));
    }
    let (_, r1, t1) = &deltas[0];
    let (_, r4, t4) = &deltas[1];
    assert_eq!(r1, r4, "answers must not depend on worker count");
    for name in DETERMINISTIC_COUNTERS {
        assert_eq!(
            t1.counter(name),
            t4.counter(name),
            "deterministic counter '{name}' varies with worker count"
        );
    }
}

#[test]
fn cache_eviction_races_reads_safely() {
    let db = seeded_db();
    let evictor = {
        let db = db.clone();
        thread::spawn(move || {
            for _ in 0..200 {
                db.clear_caches();
            }
        })
    };
    let reader = {
        let db = db.clone();
        thread::spawn(move || {
            for _ in 0..100 {
                let r = db.execute("SELECT COUNT(*) FROM pts").expect("read");
                assert_eq!(r.rows[0][0], Value::Int(200));
            }
        })
    };
    evictor.join().expect("evictor");
    reader.join().expect("reader");
}

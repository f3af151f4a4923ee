//! Seeded interleaving harness: N writer sessions racing M reader
//! sessions over one engine, with the MVCC contract asserted from the
//! reader side and the group-commit contract asserted from the WAL
//! counters.
//!
//! The contract under test:
//!
//! * **Snapshot isolation** — a SELECT pins one commit generation at
//!   statement start and observes exactly the statements published
//!   before it: never a half-applied INSERT batch, UPDATE, or DELETE.
//! * **Statement atomicity** — every DML statement publishes all of its
//!   row effects with one commit-generation store, or none of them
//!   (WAL-failure rollback is covered in `durability.rs`).
//! * **Group commit** — with per-commit fsync on, concurrent commits
//!   batch their fsyncs through the pipeline: exactly one fsync per
//!   batch, every commit counted in exactly one batch.

mod common;

use jackpine::engine::{DurabilityOptions, EngineProfile, SpatialDb};
use jackpine::storage::Value;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

fn int(v: &Value) -> i64 {
    match v {
        Value::Int(n) => *n,
        other => panic!("expected an integer count, got {other:?}"),
    }
}

const FLIP_ROWS: i64 = 40;
const BATCH: i64 = 7;

/// Creates and seeds the harness tables (outside any metric bracket:
/// DDL logs through direct WAL appends, not the commit pipeline).
fn setup_tables(db: &Arc<SpatialDb>) {
    db.execute("CREATE TABLE flip (id BIGINT, val BIGINT)").unwrap();
    let vals: Vec<String> = (0..FLIP_ROWS).map(|i| format!("({i}, 0)")).collect();
    db.execute(&format!("INSERT INTO flip VALUES {}", vals.join(", "))).unwrap();
    db.execute("CREATE TABLE churn (tag BIGINT, seq BIGINT)").unwrap();
}

/// The interleaving harness proper. `writers` sessions each run
/// `rounds` seeded DML statements against the `setup_tables` tables
/// while `readers` sessions assert the snapshot invariants until every
/// writer is done. Returns the total number of write statements
/// committed.
fn run_interleaving(
    db: &Arc<SpatialDb>,
    seed: u64,
    writers: u64,
    readers: usize,
    rounds: usize,
) -> u64 {
    use std::sync::atomic::AtomicU64;

    let commits = AtomicU64::new(0);
    let writers_done = AtomicBool::new(false);
    thread::scope(|s| {
        let commits = &commits;
        let writers_done = &writers_done;
        let mut handles = Vec::new();
        for w in 0..writers {
            let db = db.clone();
            handles.push(s.spawn(move || {
                let mut rng = common::test_rng(&format!("{seed:x} writer {w}"));
                let mut n = 0u64;
                for round in 0..rounds {
                    match rng.gen_range(0..3usize) {
                        0 => {
                            // Whole-table flip: one UPDATE, all rows.
                            db.execute("UPDATE flip SET val = 1 - val").expect("flip");
                            n += 1;
                        }
                        1 => {
                            // One INSERT statement, BATCH rows, then an
                            // exact-batch DELETE. Tags are per-writer
                            // unique, so batches never alias.
                            let tag = (w + 1) * 100_000 + round as u64;
                            let vals: Vec<String> =
                                (0..BATCH).map(|j| format!("({tag}, {j})")).collect();
                            db.execute(&format!("INSERT INTO churn VALUES {}", vals.join(", ")))
                                .expect("batch insert");
                            db.execute(&format!("DELETE FROM churn WHERE tag = {tag}"))
                                .expect("batch delete");
                            n += 2;
                        }
                        _ => {
                            // Count-preserving UPDATE of one churn-free
                            // flip row (exercises delete+reinsert).
                            let id = rng.gen_range(0..FLIP_ROWS as u64);
                            db.execute(&format!("UPDATE flip SET id = {id} WHERE id = {id}"))
                                .expect("touch");
                            n += 1;
                        }
                    }
                }
                commits.fetch_add(n, std::sync::atomic::Ordering::Relaxed);
            }));
        }
        for r in 0..readers {
            let db = db.clone();
            s.spawn(move || {
                let mut rng = common::test_rng(&format!("{seed:x} reader {r}"));
                // Readers run until the writers finish, then one final
                // sweep so the quiesced state is also checked.
                loop {
                    let done = writers_done.load(Ordering::Acquire);
                    for _ in 0..8 {
                        match rng.gen_range(0..3usize) {
                            0 => {
                                let c = db
                                    .execute("SELECT COUNT(*) FROM flip WHERE val = 0")
                                    .expect("flip read");
                                let n = int(&c.rows[0][0]);
                                assert!(
                                    n == 0 || n == FLIP_ROWS,
                                    "half-applied UPDATE visible: {n} of {FLIP_ROWS} rows \
                                     still at val = 0"
                                );
                            }
                            1 => {
                                let c =
                                    db.execute("SELECT COUNT(*) FROM churn").expect("churn read");
                                let n = int(&c.rows[0][0]);
                                assert_eq!(
                                    n % BATCH,
                                    0,
                                    "half-applied batch visible: {n} churn rows"
                                );
                            }
                            _ => {
                                let c =
                                    db.execute("SELECT COUNT(*) FROM flip").expect("count read");
                                assert_eq!(
                                    int(&c.rows[0][0]),
                                    FLIP_ROWS,
                                    "flip table count drifted"
                                );
                            }
                        }
                    }
                    if done {
                        break;
                    }
                }
            });
        }
        for h in handles {
            h.join().expect("writer session");
        }
        writers_done.store(true, Ordering::Release);
    });
    commits.load(std::sync::atomic::Ordering::Relaxed)
}

/// In-memory engine: the isolation and atomicity half of the contract.
#[test]
fn interleaved_sessions_see_only_whole_statements() {
    let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
    setup_tables(&db);
    run_interleaving(&db, 0xD15C_0B01, 4, 3, common::cases(30));
    // Quiesced: every batch was drained by its paired delete.
    let c = db.execute("SELECT COUNT(*) FROM churn").unwrap();
    assert_eq!(c.rows[0][0], Value::Int(0));
}

/// Durable engine with per-commit fsync: the group-commit half. Every
/// write statement passes through the commit pipeline; each batch costs
/// exactly one fsync, and the batch sizes account for every commit.
#[test]
fn group_commit_batches_concurrent_fsyncs() {
    let dir = std::env::temp_dir().join(format!("jackpine-interleaving-gc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let db = SpatialDb::open_durable(
        &dir,
        EngineProfile::ExactRtree,
        DurabilityOptions { sync_each_append: true },
    )
    .unwrap();

    // Bracket only the interleaved DML phase: every statement in it
    // commits through the pipeline, so the counters must balance
    // exactly.
    setup_tables(&db);
    let before = db.metrics_snapshot();
    let commits = run_interleaving(&db, 0x6C0B_A17E, 6, 2, common::cases(20));
    let delta = db.metrics_snapshot().delta_since(&before);

    let batches = delta.counter("group_commit_batches");
    let batched_commits = delta.counter("group_commit_size");
    assert_eq!(
        batched_commits, commits,
        "every write statement must pass through the commit pipeline"
    );
    assert!(batches >= 1, "no commit batches recorded");
    assert!(
        batches <= batched_commits,
        "more batches ({batches}) than commits ({batched_commits})"
    );
    // The fsync economy: one fsync per batch, so under concurrency the
    // engine never fsyncs more often than once per committed statement,
    // and the wait histogram saw every commit.
    assert_eq!(
        delta.counter("wal_fsyncs"),
        batches,
        "group commit must cost exactly one fsync per batch"
    );
    assert_eq!(
        delta.commit_wait_us.count, batched_commits,
        "every piped commit must record its wait"
    );

    drop(db);
    // Recovery sees the quiesced state: all churn drained.
    let db = SpatialDb::open_durable(&dir, EngineProfile::ExactRtree, DurabilityOptions::default())
        .unwrap();
    let c = db.execute("SELECT COUNT(*) FROM churn").unwrap();
    assert_eq!(c.rows[0][0], Value::Int(0));
    let c = db.execute("SELECT COUNT(*) FROM flip").unwrap();
    assert_eq!(c.rows[0][0], Value::Int(40));
    std::fs::remove_dir_all(&dir).ok();
}

/// Readers pinned to a snapshot keep their view while writers publish
/// past them: a long statement's snapshot is stable even though the
/// live table has moved on, and dropping the pin releases it.
#[test]
fn pinned_snapshots_outlive_writer_publishes() {
    let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
    db.execute("CREATE TABLE t (id BIGINT)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();

    assert_eq!(db.active_snapshot_count(), 0);
    let pin = db.pin_snapshot_handle();
    let pinned_gen = db.commit_generation();
    assert_eq!(db.active_snapshot_count(), 1);

    // Writers publish past the pin; the pin's generation is unchanged.
    db.execute("INSERT INTO t VALUES (4)").unwrap();
    db.execute("DELETE FROM t WHERE id = 1").unwrap();
    assert!(db.commit_generation() > pinned_gen);

    // The deleted row is invisible live, but its storage cannot be
    // reclaimed while the pin is alive.
    let c = db.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(c.rows[0][0], Value::Int(3));
    assert!(db.pending_reclaim_len() > 0, "delete must defer reclaim under a pin");

    drop(pin);
    assert_eq!(db.active_snapshot_count(), 0);
    // The next write transaction vacuums the now-unpinned victim.
    db.execute("INSERT INTO t VALUES (5)").unwrap();
    assert_eq!(db.pending_reclaim_len(), 0, "vacuum must drain once the pin drops");
    let c = db.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(c.rows[0][0], Value::Int(4));
}

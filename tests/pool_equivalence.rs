//! Out-of-core equivalence: paging must be invisible to query
//! semantics. The same corpus answered through a bounded buffer pool
//! (heap pages faulting in and out of pinned frames, R-tree leaves
//! demand-loaded) must be **bit-identical** to the unbounded in-memory
//! run — same rows in the same order — across pool sizes and worker
//! counts, and must stay that way while concurrent writers churn the
//! heap under pinned MVCC snapshots.
//!
//! The sweep reconfigures one live engine (unbounded → 8 MiB → back),
//! so it also exercises the spill/unspill transitions: bounding the
//! pool pages index leaves out, unbounding faults them back to
//! resident entries.

use jackpine::bench::load_dataset;
use jackpine::bench::micro::{analysis_suite, topo_suite};
use jackpine::datagen::{TigerConfig, TigerDataset};
use jackpine::engine::{EngineProfile, SpatialDb};
use jackpine::sql::ResultSet;
use std::sync::Arc;

const MIB: usize = 1024 * 1024;

/// Pool capacities the corpus is swept over: unbounded (0), a bound
/// that holds the working set, and one that cannot (forced evictions).
const POOL_BYTES: [usize; 3] = [0, 8 * MIB, TINY];

/// Eight frames: far smaller than any corpus here, so every scan
/// cycles pages through the clock sweep.
const TINY: usize = 64 * 1024;
const WORKERS: [usize; 2] = [1, 4];
/// Two frames: the churned table's heap pages and its index leaves,
/// packed a run to a page, fit in eight, so its writers get fewer.
const CHURN: usize = 2 * 8192;

fn tiger_db() -> (TigerDataset, Arc<SpatialDb>) {
    let data = TigerDataset::generate(&TigerConfig { scale: 0.02, ..TigerConfig::default() });
    let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
    load_dataset(&db, &data).expect("dataset loads");
    (data, db)
}

/// The full micro corpus (topological + analysis suites) on one engine
/// configuration, in suite order.
fn run_corpus(db: &Arc<SpatialDb>, data: &TigerDataset) -> Vec<ResultSet> {
    topo_suite(data)
        .iter()
        .chain(analysis_suite(data).iter())
        .map(|q| db.execute(&q.sql).unwrap_or_else(|e| panic!("{}: {e}", q.id)))
        .collect()
}

/// Every (pool size, worker count) combination answers the full
/// corpus bit-identically to the unbounded serial reference, with the
/// caches dropped first so bounded runs actually fault pages in.
#[test]
fn corpus_identical_across_pool_configs() {
    let (data, db) = tiger_db();
    db.set_workers(1);
    let reference = run_corpus(&db, &data);

    for bytes in POOL_BYTES {
        for workers in WORKERS {
            db.set_pool_bytes(bytes);
            db.set_workers(workers);
            db.clear_caches();
            let got = run_corpus(&db, &data);
            assert_eq!(reference, got, "corpus differs at pool_bytes={bytes}, workers={workers}");
            if bytes != 0 {
                let stats = db.pool_stats();
                assert!(
                    stats.cold_pins > 0,
                    "bounded run (pool_bytes={bytes}) never faulted a page"
                );
            }
        }
    }
}

/// Bounding the pool spills index leaves; unbounding pulls them back;
/// bounding it again re-spills them through the pagers already attached.
/// Every transition preserves results, and the eight-frame bound
/// (smaller than the dataset's heap) must evict each time.
#[test]
fn resize_transitions_preserve_results_and_evict_when_undersized() {
    let (data, db) = tiger_db();
    db.set_workers(1);
    let reference = run_corpus(&db, &data);

    db.set_pool_bytes(TINY);
    db.clear_caches();
    assert_eq!(reference, run_corpus(&db, &data), "eight-frame bound changes results");
    let stats = db.pool_stats();
    assert!(stats.evictions > 0, "an eight-frame pool must evict on this corpus");
    assert!(stats.dirty_writebacks > 0 || stats.cold_pins > 0, "pool never cycled a frame");

    db.set_pool_bytes(0);
    assert_eq!(reference, run_corpus(&db, &data), "unbounding changes results");

    // Bounded again: the trees keep the pagers the first bound attached,
    // and their leaves spill through them once more.
    let before = db.pool_stats();
    db.set_pool_bytes(TINY);
    db.clear_caches();
    assert_eq!(reference, run_corpus(&db, &data), "re-bounding changes results");
    let after = db.pool_stats();
    assert_eq!(after.capacity_frames, stats.capacity_frames);
    assert!(after.evictions > before.evictions, "the re-bounded pool must evict again");
}

/// Concurrent writers churn an indexed table through a deliberately
/// tiny pool — every insert dirties pages that evict mid-transaction —
/// while readers hold pinned snapshots. Afterwards the bounded engine
/// must agree bit-for-bit with an unbounded engine that applied the
/// same statements.
#[test]
fn concurrent_writers_with_pinned_snapshots_stay_equivalent() {
    let build = |pool_bytes: usize| {
        let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
        db.execute("CREATE TABLE pts (id BIGINT, geom GEOMETRY)").unwrap();
        for i in 0..256 {
            db.execute(&format!(
                "INSERT INTO pts VALUES ({i}, ST_GeomFromText('POINT ({} {})'))",
                i % 16,
                i / 16
            ))
            .unwrap();
        }
        db.create_spatial_index("pts", "geom").unwrap();
        db.set_pool_bytes(pool_bytes);
        db
    };
    let bounded = build(CHURN);
    let unbounded = build(0);

    for db in [&bounded, &unbounded] {
        // An old generation stays pinned for the whole run: vacuum must
        // defer, and no page a reader can still see may be reclaimed.
        let pin = db.pin_snapshot_handle();
        let writers = 2usize;
        std::thread::scope(|s| {
            for w in 0..writers {
                let db = db.clone();
                s.spawn(move || {
                    for i in 0..128 {
                        let id = 1000 + w * 1000 + i;
                        db.execute(&format!(
                            "INSERT INTO pts VALUES ({id}, ST_GeomFromText('POINT ({} {})'))",
                            id % 32,
                            id / 32
                        ))
                        .expect("concurrent insert");
                        if i % 4 == 3 {
                            db.execute(&format!("DELETE FROM pts WHERE id = {}", id - 2))
                                .expect("concurrent delete");
                        }
                    }
                });
            }
            let db = db.clone();
            s.spawn(move || {
                for _ in 0..64 {
                    // Readers run against whatever generation is
                    // current; they must never error or see a torn row.
                    db.execute(
                        "SELECT COUNT(*) FROM pts WHERE ST_Intersects(geom, \
                         ST_GeomFromText('POLYGON ((0 0, 40 0, 40 40, 0 40, 0 0))'))",
                    )
                    .expect("concurrent read");
                }
            });
        });
        drop(pin);
    }

    let corpus = [
        "SELECT COUNT(*) FROM pts",
        "SELECT id FROM pts WHERE ST_Within(geom, \
         ST_GeomFromText('POLYGON ((0 0, 8 0, 8 8, 0 8, 0 0))')) ORDER BY id",
        "SELECT COUNT(*) FROM pts a, pts b WHERE ST_Equals(a.geom, b.geom)",
    ];
    for sql in corpus {
        assert_eq!(
            unbounded.execute(sql).unwrap(),
            bounded.execute(sql).unwrap(),
            "bounded and unbounded engines disagree after concurrent churn: {sql}"
        );
    }
    let stats = bounded.pool_stats();
    assert!(
        stats.dirty_writebacks > 0,
        "churn through a two-frame pool must write back dirty pages"
    );
}

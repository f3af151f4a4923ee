//! A bounded pool bounds memory: rows decoded from a page live in its
//! frame and leave with it — and only a read decodes them, each at the
//! width of its 32-byte values.
//!
//! A counting `#[global_allocator]` (`tests/common/alloc.rs`) measures
//! the live heap. One test function in this file, so that no other
//! test's allocations are counted.

use jackpine::engine::{EngineProfile, SpatialDb};
use jackpine::storage::{Value, PAGE_SIZE};
use std::sync::atomic::Ordering;
use std::sync::Arc;

mod common;
use common::alloc::{Counting, LIVE, PEAK};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const MIB: usize = 1 << 20;
const ROWS: i64 = 20_000;
const FRAMES: usize = 32;

#[test]
fn a_bounded_pool_bounds_pages_and_decoded_rows() {
    let spill = std::env::temp_dir().join(format!("jackpine-pool-memory-{}", std::process::id()));
    std::fs::remove_dir_all(&spill).ok();
    std::fs::create_dir_all(&spill).unwrap();
    let live = || LIVE.load(Ordering::Relaxed);
    let base = live();

    let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
    db.set_workers(1);
    db.execute("CREATE TABLE pts (id BIGINT, name TEXT, geom GEOMETRY)").unwrap();
    // Page images go to disk, not to an in-memory store.
    let table = db.table("pts").unwrap();
    table.heap.pool().set_spill_dir(Some(spill.clone()));
    let row = |i: i64| {
        let geom = jackpine::geom::wkt::parse(&format!("POINT ({} {})", i % 200, i / 200)).unwrap();
        vec![Value::Int(i), Value::Text("n".repeat(100)), Value::Geom(geom)]
    };
    for i in 0..ROWS {
        db.insert_row("pts", row(i)).unwrap();
    }
    db.close().unwrap(); // settles the rows' visibility entries
    let heap_bytes = live() - base;
    db.create_spatial_index("pts", "geom").unwrap();
    let rtree_bytes = live() - base - heap_bytes;
    db.create_ordered_index("pts", "id").unwrap();
    let index_bytes = live() - base - heap_bytes;
    let pages = table.heap.page_count() as usize;
    let max_slots = (PAGE_SIZE / Value::encode_row(&row(0)).len()) as u64;
    assert!(pages > 8 * FRAMES, "the table must dwarf the bound: {pages} pages");
    // Fill on read, never on insert: neither the inserts nor the index
    // builds decoded a row, so what is live is the pages and the indexes.
    assert_eq!(db.pool_stats().decoded_rows, 0, "a load decodes nothing");
    let loaded = live() - base;
    let pages_only = pages * PAGE_SIZE + index_bytes + 2 * MIB;
    assert!(loaded < pages_only, "{loaded} bytes live after the load, bound {pages_only}");
    let all = db.execute("SELECT COUNT(*) FROM pts WHERE id >= 0").unwrap();
    assert_eq!(all.scalar(), Some(&Value::Int(ROWS)));
    assert_eq!(db.pool_stats().decoded_rows, ROWS as u64, "a scan keeps what it decoded");
    // What one decoded row costs: its `Arc<Row>` (40 B), three value
    // slots, the text's 100 B and the frame's bookkeeping: 244 B with
    // 32-byte values, 292 B with 48-byte ones. The bound sits between.
    let per_row = (live() - base - loaded) / ROWS as usize;
    assert!(per_row < 268, "{per_row} live bytes per decoded row");

    // What the bound allows above the pre-load level: the indexes with
    // the R-tree's leaves spilled — the ordered index, and of the R-tree
    // its inner nodes and a directory entry a leaf, under a quarter of
    // its resident bytes (a spilled leaf lives only in its pool page) —
    // 32 frames at four times their page — the page, and decoded rows at
    // up to three times the bytes they were decoded from — and 2 MiB
    // for everything that is per engine or per statement text (plans,
    // traces, prepared constants), not per row.
    let bound = index_bytes - rtree_bytes * 3 / 4 + FRAMES * 4 * PAGE_SIZE + 2 * MIB;
    let check = |when: &str| {
        let pool = db.pool_stats();
        assert!(pool.resident_frames <= FRAMES as u64, "{when}: {pool:?}");
        assert!(pool.decoded_rows <= pool.resident_frames * max_slots, "{when}: {pool:?}");
        let held = live() - base;
        assert!(held < bound, "{when}: {held} bytes live, bound {bound} ({heap_bytes} loaded)");
    };

    db.set_pool_bytes(FRAMES * PAGE_SIZE);
    check("set_pool_bytes releases the rows of the frames it evicts");

    // (A scan's statement holds the rows it fetched until it ends, so
    // only what is live between statements is the pool's to bound.)
    for _ in 0..2 {
        let all = db.execute("SELECT COUNT(*) FROM pts WHERE id >= 0").unwrap();
        assert_eq!(all.scalar(), Some(&Value::Int(ROWS)));
        check("after a scan");
    }
    PEAK.store(live(), Ordering::Relaxed);
    for i in (0..20).cycle().take(200) {
        let (x, y) = (i * 7 % 190, i * 3 % 90);
        let window = format!(
            "SELECT COUNT(*) FROM pts WHERE ST_Intersects(geom, ST_MakeEnvelope({x}, {y}, {}, {}))",
            x + 4,
            y + 4
        );
        assert_eq!(db.execute(&window).unwrap().scalar(), Some(&Value::Int(25)));
        let by_id = format!("SELECT id FROM pts WHERE id = {}", i * 97);
        assert_eq!(db.execute(&by_id).unwrap().rows, vec![vec![Value::Int(i * 97)]]);
    }
    check("after index-probed lookups");

    let peak = PEAK.load(Ordering::Relaxed) - base;
    assert!(peak < bound, "the lookups peaked at {peak} bytes, bound {bound}");
    assert!(db.pool_stats().evictions > 2 * pages as u64, "two scans cycled the pool");

    // A probe that visits every leaf leaves none of them behind: with
    // the frames dropped, what stays live is its statement's plan and
    // trace (a probe of one corner warmed the rest), well under the
    // decoded leaves, which would be most of the R-tree's bytes.
    let count_in = |x: i64, y: i64| {
        let sql = format!(
            "SELECT COUNT(*) FROM pts WHERE ST_Intersects(geom, ST_MakeEnvelope(-1, -1, {x}, {y}))"
        );
        db.execute(&sql).unwrap().scalar().and_then(Value::as_i64).unwrap()
    };
    assert_eq!(count_in(0, 0), 1);
    table.heap.pool().clear();
    let settled = live();
    assert_eq!(count_in(200, 100), ROWS);
    table.heap.pool().clear();
    let left = live().saturating_sub(settled);
    assert!(left < rtree_bytes / 4, "a probe of every leaf left {left} bytes behind");
    check("after a probe of every leaf");

    drop(table);
    drop(db);
    std::fs::remove_dir_all(&spill).ok();
}

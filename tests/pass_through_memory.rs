//! A read keeps only what it evaluates. A projection of plain columns
//! straight off an access path passes its rows on: it decodes them
//! without keeping them and moves their values into the result, so
//! `SELECT *` leaves the pool's frames and the live heap as it found
//! them. A DML statement finds its rows through the same access path:
//! a ranged `UPDATE` reads each of its rows once and keeps none, and a
//! ranged `DELETE` decodes none.
//!
//! A counting `#[global_allocator]` (`tests/common/alloc.rs`) measures
//! the live heap. One test function in this file, so that no other
//! test's allocations are counted.

use jackpine::engine::{EngineProfile, SpatialDb};
use jackpine::storage::Value;
use std::sync::atomic::Ordering;
use std::sync::Arc;

mod common;
use common::alloc::{Counting, LIVE, PEAK};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const ROWS: i64 = 20_000;

/// What a statement may leave live once its result is dropped: its
/// cached plan, its trace in the flight recorder and its fingerprint's
/// statistics — per statement text, not per row.
const LEFT_BEHIND: usize = 256 << 10;

#[test]
fn a_pass_through_read_keeps_nothing() {
    let live = || LIVE.load(Ordering::Relaxed);
    let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
    db.set_workers(1);
    db.execute("CREATE TABLE pts (id BIGINT, name TEXT, geom GEOMETRY)").unwrap();
    let rows: Vec<Vec<Value>> = (0..ROWS)
        .map(|i| {
            let g = jackpine::geom::wkt::parse(&format!("POINT ({} {})", i % 200, i / 200));
            vec![Value::Int(i), Value::Text("n".repeat(100)), Value::Geom(g.unwrap())]
        })
        .collect();
    db.insert_rows("pts", &rows).unwrap();
    drop(rows);
    db.create_spatial_index("pts", "geom").unwrap();
    let table = db.table("pts").unwrap();
    let misses = || table.heap.stats().cache_misses;
    let decoded = || db.pool_stats().decoded_rows;
    // One statement of each text first, so that what a text leaves
    // behind once (its plan, its statistics) is not counted below.
    db.execute("SELECT * FROM pts").unwrap();
    assert_eq!(decoded(), 0, "SELECT * keeps no row");

    let before = live();
    PEAK.store(before, Ordering::Relaxed);
    let all = db.execute("SELECT * FROM pts").unwrap();
    assert_eq!(all.rows.len(), ROWS as usize);
    let holding = live() - before;
    drop(all);
    let left = live().saturating_sub(before);
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert_eq!(decoded(), 0, "SELECT * keeps no row");
    assert!(left < LEFT_BEHIND, "SELECT * left {left} bytes live (bound {LEFT_BEHIND})");
    // The rows are decoded once and moved into the result: at its peak
    // the statement held little beyond the result itself. (Rows kept by
    // their frames, then projected and then copied into the result,
    // held three times its bytes.)
    assert!(peak < holding * 3 / 2, "peak {peak} bytes for a {holding}-byte result");

    // A ranged UPDATE decides its range on the stored ids and reads
    // each of its 20 rows once, keeping none.
    let m0 = misses();
    let update = "UPDATE pts SET name = 'x' WHERE id >= 100 AND id < 120";
    let (n, trace) = db.execute_traced(update).unwrap();
    assert_eq!(n.scalar(), Some(&Value::Int(20)));
    assert_eq!(misses() - m0, 20, "an UPDATE reads its rows once each");
    assert_eq!(trace.counter("heap_rows_fetched"), 20, "and counts them as fetched");
    assert_eq!(decoded(), 0, "an UPDATE keeps no row");

    // A ranged DELETE decodes nothing: its index entries come off the
    // stored bytes.
    let m0 = misses();
    let (n, trace) = db.execute_traced("DELETE FROM pts WHERE id >= 200 AND id < 220").unwrap();
    assert_eq!(n.scalar(), Some(&Value::Int(20)));
    assert_eq!(misses() - m0, 0, "a DELETE decodes no row");
    assert_eq!(trace.counter("heap_rows_fetched"), 0);
    assert_eq!(decoded(), 0, "a DELETE keeps no row");
    let count = "SELECT COUNT(*) FROM pts WHERE name = 'x'";
    assert_eq!(db.execute(count).unwrap().scalar(), Some(&Value::Int(20)));
    assert_eq!(
        db.execute("SELECT COUNT(*) FROM pts").unwrap().scalar(),
        Some(&Value::Int(ROWS - 20))
    );
}

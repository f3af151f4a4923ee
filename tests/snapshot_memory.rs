//! Checkpoint and restart stream: neither ever holds the image.
//!
//! A counting `#[global_allocator]` measures the live heap. The writer
//! may add its stream buffer and the tables' id lists to it, the reader
//! its stream buffer and one page; a materialised image, on either side,
//! is several times the bound. The opened engine holds the pages and no
//! decoded row: restore checks each tuple in place and keeps nothing. One test function in this file, so that
//! no other test's allocations are counted.

use jackpine::engine::{DurabilityOptions, EngineProfile, SpatialDb, SNAPSHOT_FILE};
use jackpine::storage::Value;
use std::sync::atomic::Ordering;
use std::sync::Arc;

mod common;
use common::alloc::{Counting, LIVE, PEAK};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns how far the live heap rose above its level at
/// entry while `f` ran, how much of that is still held at exit, and what
/// `f` returned.
fn heap_of<T>(f: impl FnOnce() -> T) -> (usize, usize, T) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = f();
    let peak = PEAK.load(Ordering::Relaxed);
    let after = LIVE.load(Ordering::Relaxed);
    (peak - before, after.saturating_sub(before), out)
}

const MIB: usize = 1 << 20;

#[test]
fn checkpoint_and_open_hold_no_image() {
    let dir = std::env::temp_dir().join(format!("jackpine-snapshot-memory-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    // ~3 MB of rows; no index yet, so that opening the image below builds
    // none (a bulk load's entry list is its own, not the reader's).
    let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
    db.execute("CREATE TABLE pts (id BIGINT, name TEXT, geom GEOMETRY)").unwrap();
    let pad = "n".repeat(150);
    for i in 0..15_000i64 {
        let geom = jackpine::geom::wkt::parse(&format!("POINT ({} {})", i % 200, i / 200)).unwrap();
        db.insert_row("pts", vec![Value::Int(i), Value::Text(pad.clone()), Value::Geom(geom)])
            .unwrap();
    }
    let image = dir.join("image.jkpn");
    db.save(&image).unwrap();
    let image_len = std::fs::metadata(&image).unwrap().len() as usize;
    assert!(image_len >= 2 * MIB, "the image must dwarf the bound: {image_len} bytes");

    let (peak, retained, opened) = heap_of(|| SpatialDb::open(&image).unwrap());
    assert!(retained > image_len, "the opened engine holds its pages: {retained}");
    assert_eq!(opened.pool_stats().decoded_rows, 0, "restore keeps no decoded row");
    assert!(
        peak - retained < MIB,
        "open() of a {image_len}-byte image held {} transient bytes",
        peak - retained
    );
    let count = opened.execute("SELECT COUNT(*) FROM pts").unwrap();
    assert_eq!(count.scalar().unwrap().to_string(), "15000");
    drop(opened);

    db.create_spatial_index("pts", "geom").unwrap();
    db.create_ordered_index("pts", "id").unwrap();
    db.set_durability(Some(&dir), DurabilityOptions::default()).unwrap();
    db.execute("DELETE FROM pts WHERE id < 10").unwrap();
    let (peak, _, result) = heap_of(|| db.checkpoint());
    result.unwrap();
    let snapshot_len = std::fs::metadata(dir.join(SNAPSHOT_FILE)).unwrap().len() as usize;
    assert!(snapshot_len >= 2 * MIB);
    assert!(
        peak < MIB,
        "checkpoint() of a {snapshot_len}-byte snapshot held {peak} transient bytes"
    );

    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

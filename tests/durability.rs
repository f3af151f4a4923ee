//! Crash-safety suite: fault-injection sweeps over the snapshot and WAL
//! persistence paths.
//!
//! The contract under test: for a save or WAL append killed (truncated)
//! or bit-flipped at *any* byte offset, recovery returns either the
//! pre-crash or the post-crash consistent state — never a panic, an
//! OOM-sized allocation, or a silently short table. The fast mode sweeps
//! a seeded stride of offsets; `--features slow-tests` sweeps every
//! offset.

mod common;

use jackpine::engine::failpoint::{apply_failpoint, Failpoint, FailpointFile};
use jackpine::engine::wal::{wal_header, WalRecord};
use jackpine::engine::{
    DurabilityOptions, EngineError, EngineProfile, SpatialDb, SNAPSHOT_FILE, WAL_FILE,
};
use jackpine::storage::{ColumnDef, DataType, HeapFile, RowId, StorageError, Value};
use std::io::Read;
use std::sync::Arc;

/// A unique scratch path under the system temp dir.
fn scratch(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("jackpine-durability-{name}-{}", std::process::id()));
    p
}

/// A fresh scratch directory (removing any leftover from a dead run).
fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = scratch(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Offset stride for fault sweeps: every offset under `slow-tests`, a
/// coprime stride otherwise (hits varied alignments, not just one byte
/// lane).
fn sweep_step() -> usize {
    if cfg!(feature = "slow-tests") {
        1
    } else {
        7
    }
}

/// A database with two tables, geometry, NULLs and both index kinds —
/// enough structure that every section of the file format is exercised.
fn sample_db() -> Arc<SpatialDb> {
    let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
    db.execute("CREATE TABLE pois (id BIGINT, name TEXT, geom GEOMETRY)").unwrap();
    for i in 0..30 {
        db.execute(&format!(
            "INSERT INTO pois VALUES ({i}, 'p{i}', ST_GeomFromText('POINT ({i} {i})'))"
        ))
        .unwrap();
    }
    db.execute("INSERT INTO pois VALUES (999, NULL, NULL)").unwrap();
    db.execute("CREATE TABLE tags (k TEXT, v TEXT)").unwrap();
    db.execute("INSERT INTO tags VALUES ('a', '1'), ('b', '2')").unwrap();
    db.create_spatial_index("pois", "geom").unwrap();
    db.create_ordered_index("pois", "name").unwrap();
    db
}

// ---------------------------------------------------------------------------
// Snapshot faults
// ---------------------------------------------------------------------------

/// A byte source that hands out its content a few bytes at a time (1 to
/// 13, cycling), the way a pipe or a socket may: the streaming reader has
/// to refill its buffer in the middle of every kind of field.
struct Trickle<'a> {
    bytes: &'a [u8],
    step: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.step = self.step % 13 + 1;
        let n = self.step.min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// Opens an image through both entrances of the streaming reader: the
/// whole slice and a stream that trickles. They must agree.
fn open_image(image: &[u8]) -> Result<Arc<SpatialDb>, EngineError> {
    let from_slice = SpatialDb::open_from(image);
    let from_stream = SpatialDb::open_from(Trickle { bytes: image, step: image.len() % 13 });
    assert_eq!(
        from_slice.as_ref().map(|_| ()),
        from_stream.as_ref().map(|_| ()),
        "slice and stream disagree on a {}-byte image",
        image.len()
    );
    from_stream
}

#[test]
fn every_strict_prefix_of_a_snapshot_is_rejected() {
    let bytes = sample_db().snapshot_bytes().unwrap();
    assert!(open_image(&bytes).is_ok(), "the full image must load");
    for offset in (0..bytes.len()).step_by(sweep_step()) {
        let torn = apply_failpoint(&bytes, Failpoint::Truncate { offset: offset as u64 });
        assert_eq!(torn.len(), offset);
        match open_image(&torn) {
            Err(EngineError::Persist(_)) => {}
            Err(other) => panic!("prefix {offset}: wrong error kind {other:?}"),
            Ok(_) => panic!("prefix {offset} of {} loaded as a database", bytes.len()),
        }
    }
    // Bytes after the image are as wrong as bytes missing from it.
    let mut longer = bytes.clone();
    longer.push(0);
    assert!(matches!(open_image(&longer), Err(EngineError::Persist(_))));
}

#[test]
fn every_bit_flip_in_a_snapshot_is_rejected() {
    let bytes = sample_db().snapshot_bytes().unwrap();
    for offset in (0..bytes.len()).step_by(sweep_step()) {
        // One varying bit per offset in fast mode, all eight in slow.
        let bits: &[u8] = if cfg!(feature = "slow-tests") {
            &[0, 1, 2, 3, 4, 5, 6, 7]
        } else {
            &[(offset % 8) as u8]
        };
        for &bit in bits {
            let flipped =
                apply_failpoint(&bytes, Failpoint::BitFlip { offset: offset as u64, bit });
            assert_eq!(flipped.len(), bytes.len());
            match open_image(&flipped) {
                Err(EngineError::Persist(_)) => {}
                Err(other) => panic!("flip at {offset}.{bit}: wrong error kind {other:?}"),
                Ok(_) => panic!("flip at byte {offset} bit {bit} went undetected"),
            }
        }
    }
}

#[test]
fn crash_during_save_never_shadows_the_previous_file() {
    let dir = scratch_dir("atomic-save");
    let path = dir.join("db.jkpn");

    // State A on disk.
    let a = sample_db();
    a.save(&path).unwrap();
    let a_count = a.execute("SELECT COUNT(*) FROM pois").unwrap();

    // State B's save "crashes" at assorted offsets of what the real
    // writer puts out — the image in file order, then the four checksum
    // bytes it patches into the header last. The torn bytes only ever
    // reach the temp sibling, exactly as SpatialDb::save stages them, so
    // the real file must still open as state A; and the sibling itself
    // must never pass for a database before its last byte has landed.
    let b = Arc::new(SpatialDb::new(EngineProfile::ExactGrid));
    b.execute("CREATE TABLE pois (id BIGINT, name TEXT, geom GEOMETRY)").unwrap();
    b.execute("INSERT INTO pois VALUES (1, 'only', NULL)").unwrap();
    let b_bytes = b.snapshot_bytes().unwrap();
    let stream_len = b_bytes.len() as u64 + 4;
    let tmp = dir.join("db.jkpn.tmp");
    let mut offsets: Vec<u64> = (0..stream_len).step_by(sweep_step()).collect();
    offsets.extend([1, 25, 26, 29, 33, stream_len - 5, stream_len - 4, stream_len - 1]);
    for offset in offsets {
        let fp = FailpointFile::new(
            std::fs::File::create(&tmp).unwrap(),
            Failpoint::Truncate { offset },
        );
        assert!(b.snapshot_to(fp).is_err(), "failpoint at {offset} must fire");
        let torn = std::fs::read(&tmp).unwrap();
        assert!(
            torn == b_bytes || SpatialDb::open(&tmp).is_err(),
            "a save torn at {offset} of {stream_len} opens as a database"
        );
        let restored = SpatialDb::open(&path).expect("previous file intact");
        let count = restored.execute("SELECT COUNT(*) FROM pois").unwrap();
        assert_eq!(count, a_count, "crash at {offset} corrupted the visible file");
    }
    // With the failpoint out of reach the same call writes the image.
    let fp = FailpointFile::new(
        std::fs::File::create(&tmp).unwrap(),
        Failpoint::Truncate { offset: stream_len },
    );
    b.snapshot_to(fp).unwrap();
    assert_eq!(std::fs::read(&tmp).unwrap(), b_bytes);

    // A completed save replaces the file: now state B is visible.
    b.save(&path).unwrap();
    let restored = SpatialDb::open(&path).unwrap();
    assert_eq!(restored.profile(), EngineProfile::ExactGrid);
    let count = restored.execute("SELECT COUNT(*) FROM pois").unwrap();
    assert_eq!(count.scalar().unwrap().to_string(), "1");
    std::fs::remove_dir_all(&dir).ok();
}

/// FNV-1a, 64 bits: the digest the image below is pinned by.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3))
}

#[test]
fn streamed_image_is_the_materialised_one_byte_for_byte() {
    // A seeded engine holding everything the writer has a case for: NULL
    // geometries and NULL texts, an empty table, one row too large for a
    // page, slots tombstoned by an earlier vacuum, rows deleted but
    // still awaiting vacuum behind a pinned snapshot, and both index
    // kinds. Its image is pinned: re-pinned when format v5 replaced v4
    // (52,993 bytes), whose image restored the same rows at the same row
    // ids on the same pages, when each page entry began to keep every
    // slot and the bytes of rows not saved (48,753 bytes), which restores
    // the same rows at the same ids too, when format v6 stored each row
    // in the compact row codec (48,762 bytes in v5), which restores the
    // same pages, tuples and next row ids, and when format v7 copied the
    // heap's own pages, whose rows are stored in that codec (41,951 bytes
    // in v6): a page holds more rows, so the rows sit on fewer pages at
    // other ids. The file and the in-memory sink of the streaming writer
    // are the same bytes.
    let mut rng = common::test_rng("pinned-image");
    let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
    db.execute("CREATE TABLE shapes (id BIGINT, name TEXT, score DOUBLE, geom GEOMETRY)").unwrap();
    db.execute("CREATE TABLE nothing (k TEXT)").unwrap();
    db.execute("CREATE TABLE tags (k TEXT, v BIGINT)").unwrap();
    for i in 0..400i64 {
        let geom = match i % 7 {
            0 => Value::Null,
            1 | 2 => Value::Geom(common::linestring(&mut rng)),
            _ => Value::Geom(common::point(&mut rng)),
        };
        let name = if i % 11 == 0 { Value::Null } else { Value::Text(format!("shape-{i}")) };
        let score = Value::Float(rng.gen_range(0.0..100.0f64));
        db.insert_row("shapes", vec![Value::Int(i), name, score, geom]).unwrap();
    }
    let huge = Value::Text("g".repeat(20_000));
    db.insert_row("shapes", vec![Value::Int(1000), huge, Value::Null, Value::Null]).unwrap();
    for i in 400..420i64 {
        let geom = Value::Geom(common::point(&mut rng));
        db.insert_row("shapes", vec![Value::Int(i), Value::Null, Value::Float(1.0), geom]).unwrap();
    }
    for i in 0..40i64 {
        db.insert_row("tags", vec![Value::Text(format!("k{}", i % 9)), Value::Int(i)]).unwrap();
    }
    db.create_spatial_index("shapes", "geom").unwrap();
    db.create_ordered_index("shapes", "name").unwrap();
    db.create_ordered_index("tags", "v").unwrap();
    // Vacuumed tombstones: these deletes are reclaimed by the next write.
    db.execute("DELETE FROM shapes WHERE id >= 100 AND id < 130").unwrap();
    db.execute("UPDATE tags SET k = 'moved' WHERE v < 5").unwrap();
    assert_eq!(db.pending_reclaim_len(), 5, "the update's own victims");
    // Pending ones: a reader pinned before the delete still sees them.
    let reader = db.pin_snapshot_handle();
    db.execute("DELETE FROM shapes WHERE id >= 300 AND id < 320").unwrap();
    db.execute("DELETE FROM tags WHERE v >= 30").unwrap();
    assert!(db.pending_reclaim_len() >= 30, "rows await vacuum while the reader is pinned");

    let image = db.snapshot_bytes().unwrap();
    let path = scratch("pinned-image.jkpn");
    db.save(&path).unwrap();
    let file = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(file == image, "save() and snapshot_bytes() wrote different images");
    assert_eq!(
        (image.len(), fnv64(&image)),
        (41_945, 32_381_822_491_250_916),
        "format v7 image moved"
    );
    drop(reader);

    // And it loads to the latest committed state.
    let restored = SpatialDb::open_from(&image[..]).unwrap();
    for (sql, want) in [
        ("SELECT COUNT(*) FROM shapes", "371"),
        ("SELECT COUNT(*) FROM shapes WHERE geom IS NULL", "52"),
        ("SELECT COUNT(*) FROM nothing", "0"),
        ("SELECT COUNT(*) FROM tags", "30"),
        ("SELECT COUNT(*) FROM tags WHERE k = 'moved'", "5"),
        ("SELECT id FROM shapes WHERE name = 'shape-7'", "7"),
    ] {
        assert_eq!(db.execute(sql).unwrap().scalar().unwrap().to_string(), want, "{sql}");
        assert_eq!(restored.execute(sql).unwrap().scalar().unwrap().to_string(), want, "{sql}");
    }
    assert_eq!(
        restored.table("shapes").unwrap().heap.row_ids(),
        db.table("shapes").unwrap().heap.row_ids()
    );
}

/// A page as a restart must keep it: slot count, room used, and the
/// tuple in each slot.
type PageContent = (usize, usize, Vec<Option<Vec<u8>>>);

/// Every page of `heap`, 0 to its page count.
fn pages(heap: &HeapFile) -> Vec<PageContent> {
    let mut out = Vec::new();
    heap.scan_pages(&[], |_, page, _| {
        let slots = 0..page.slot_count() as u16;
        let tuples = slots.map(|slot| page.get(slot).ok().map(<[u8]>::to_vec)).collect();
        out.push((page.slot_count(), page.used(), tuples));
        Ok::<(), StorageError>(())
    })
    .unwrap();
    out
}

#[test]
fn a_restart_keeps_every_page_and_the_next_row_id() {
    // Two tables with vacuumed deletes (tombstones and the bytes they
    // left) and deletes still awaiting vacuum behind a pinned reader;
    // in `u` the last rows of the last page are among them. After save
    // + open every page must be the live heap's once it has vacuumed —
    // its slots, the room it takes and the tuple in each slot — and the
    // next INSERT must land where it lands without a restart.
    let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
    db.execute("CREATE TABLE t (id BIGINT, name TEXT)").unwrap();
    db.execute("CREATE TABLE u (id BIGINT, name TEXT)").unwrap();
    db.execute("CREATE TABLE z (id BIGINT)").unwrap();
    let row = |i: i64| vec![Value::Int(i), Value::Text("n".repeat((i as usize * 37) % 150))];
    db.insert_rows("t", (0..700).map(row)).unwrap();
    db.insert_rows("u", (0..300).map(row)).unwrap();
    let delete = |table: &str, ids: &mut dyn Iterator<Item = i64>| {
        ids.for_each(|i| drop(db.execute(&format!("DELETE FROM {table} WHERE id = {i}")).unwrap()))
    };
    delete("t", &mut (3..500).step_by(7));
    delete("u", &mut (0..300).step_by(5).chain(290..300));
    db.insert_row("z", vec![Value::Int(0)]).unwrap();
    assert_eq!(db.pending_reclaim_len(), 0, "the deletes were vacuumed");
    let reader = db.pin_snapshot_handle();
    delete("t", &mut (5..500).step_by(11));
    delete("u", &mut (4..290).step_by(9));
    assert!(db.pending_reclaim_len() > 50, "rows await vacuum while the reader is pinned");

    let path = scratch("restart-pages.jkpn");
    db.save(&path).unwrap();
    let restored = SpatialDb::open(&path).unwrap();
    std::fs::remove_file(&path).ok();
    drop(reader);
    db.close().unwrap();
    assert_eq!(db.pending_reclaim_len(), 0, "the live heap vacuumed");
    for name in ["t", "u"] {
        let (live, after) = (db.table(name).unwrap(), restored.table(name).unwrap());
        assert!(live.heap.page_count() > 3, "{name}: {} pages", live.heap.page_count());
        assert_eq!(after.heap.page_count(), live.heap.page_count(), "{name}");
        assert!(pages(&after.heap) == pages(&live.heap), "{name}: a page differs");
        assert_eq!(after.heap.row_ids(), live.heap.row_ids(), "{name}");

        let next = row(7_000);
        let id = restored.insert_row(name, next.clone()).unwrap();
        assert_eq!(id, db.insert_row(name, next).unwrap(), "{name}");
    }
}

#[test]
fn concurrent_inserts_never_produce_an_unloadable_snapshot() {
    let dir = scratch_dir("racing-save");
    let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
    db.execute("CREATE TABLE t (id BIGINT, name TEXT)").unwrap();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

    std::thread::scope(|s| {
        let writer_db = db.clone();
        let writer_stop = stop.clone();
        s.spawn(move || {
            // Bounded: an unthrottled writer would grow the table faster
            // than each round can serialize it.
            for i in 0..20_000i64 {
                if writer_stop.load(std::sync::atomic::Ordering::Relaxed) {
                    break;
                }
                writer_db
                    .insert_row("t", vec![Value::Int(i), Value::Text(format!("r{i}"))])
                    .unwrap();
            }
        });

        let path = dir.join("race.jkpn");
        for round in 0..common::cases(10) {
            db.save(&path).expect("save under concurrent inserts");
            let restored = SpatialDb::open(&path)
                .unwrap_or_else(|e| panic!("round {round}: saved file unloadable: {e}"));
            // The restored count must equal the rows the file actually
            // holds — open() verifies count-vs-payload, so loading at
            // all proves no mismatch was written.
            let r = restored.execute("SELECT COUNT(*) FROM t").unwrap();
            assert!(r.scalar().is_some());
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_snapshot_beside_insert_delete_churn_is_a_whole_statement_image() {
    // A DELETE plus the next statement's vacuum reclaims rows; a snapshot
    // that listed them first must still find them. The writer starts each
    // burst of churn on a rendezvous with the snapshotting thread, so
    // every image is cut beside live DML (and either side failing closes
    // the channel under the other instead of leaving it waiting).
    const BATCH: usize = 7;
    const STANDING: usize = 200;
    let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
    db.execute("CREATE TABLE churn (tag BIGINT, seq BIGINT)").unwrap();
    let batch = |tag: usize| {
        let vals: Vec<String> = (0..BATCH).map(|j| format!("({tag}, {j})")).collect();
        format!("INSERT INTO churn VALUES {}", vals.join(", "))
    };
    for tag in 0..STANDING {
        db.execute(&batch(tag)).unwrap();
    }
    std::thread::scope(|s| {
        let (db, batch) = (&db, &batch);
        let (go, bursts) = std::sync::mpsc::sync_channel::<usize>(0);
        s.spawn(move || {
            for round in bursts {
                for step in 0..8 {
                    let tag = STANDING + round * 8 + step;
                    db.execute(&batch(tag)).expect("batch insert");
                    db.execute(&format!("DELETE FROM churn WHERE tag = {}", tag - STANDING))
                        .expect("batch delete");
                }
            }
        });
        for round in 0..common::cases(60) {
            go.send(round).expect("writer is alive");
            let image = db
                .snapshot_bytes()
                .unwrap_or_else(|e| panic!("round {round}: snapshot beside churn: {e}"));
            let restored = SpatialDb::open_from(&image[..]).expect("image reopens");
            let n = restored.table("churn").unwrap().heap.len();
            assert_eq!(n % BATCH, 0, "round {round}: half a statement in the image ({n} rows)");
        }
    });
}

#[test]
fn insert_rows_beside_checkpoints_reopens_to_whole_batches() {
    // An `insert_rows` batch is one transaction: the snapshot a checkpoint
    // cuts beside it holds all of its rows or none, and so does the
    // directory reopened from that snapshot and the log after it. Each
    // checkpoint runs beside a burst of batches (a rendezvous starts the
    // burst; either side failing closes the channel under the other).
    const BATCH: usize = 256;
    const BURST: usize = 2;
    let (dir, copy) = (scratch_dir("batches-beside-checkpoints"), scratch_dir("batches-copy"));
    let opts = DurabilityOptions::default();
    let db = SpatialDb::open_durable(&dir, EngineProfile::ExactRtree, opts).unwrap();
    db.execute("CREATE TABLE loaded (id BIGINT, name TEXT)").unwrap();
    let reopened_rows = |files: &[&str]| {
        std::fs::remove_dir_all(&copy).ok();
        std::fs::create_dir_all(&copy).unwrap();
        for f in files {
            std::fs::copy(dir.join(f), copy.join(f)).unwrap();
        }
        let reopened = SpatialDb::open_durable(&copy, EngineProfile::ExactRtree, opts).unwrap();
        let n = reopened.table("loaded").unwrap().heap.len();
        assert_eq!(n % BATCH, 0, "{files:?}: part of a batch reopened ({n} rows)");
        n
    };
    let rounds = common::cases(12);
    std::thread::scope(|s| {
        let writer_db = &db;
        let (go, bursts) = std::sync::mpsc::sync_channel::<usize>(0);
        s.spawn(move || {
            for round in bursts {
                for b in 0..BURST {
                    let first = (round * BURST + b) * BATCH;
                    let rows = (first..first + BATCH)
                        .map(|i| vec![Value::Int(i as i64), Value::Text(format!("row {i}"))]);
                    writer_db.insert_rows("loaded", rows).expect("batch insert");
                }
            }
        });
        for round in 0..rounds {
            go.send(round).expect("writer is alive");
            db.checkpoint().unwrap_or_else(|e| panic!("round {round}: checkpoint: {e}"));
            // The log is being appended to; the snapshot is settled.
            reopened_rows(&[SNAPSHOT_FILE]);
        }
    });
    let all = rounds * BURST * BATCH;
    assert_eq!(db.table("loaded").unwrap().heap.len(), all);
    assert_eq!(reopened_rows(&[SNAPSHOT_FILE, WAL_FILE]), all, "snapshot plus log");
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&copy).ok();
}

// ---------------------------------------------------------------------------
// WAL faults
// ---------------------------------------------------------------------------

#[test]
fn wal_replay_recovers_writes_since_the_snapshot() {
    let dir = scratch_dir("wal-recover");
    {
        let db =
            SpatialDb::open_durable(&dir, EngineProfile::ExactRtree, DurabilityOptions::default())
                .unwrap();
        // The schema is cut into the snapshot as it changes.
        db.execute("CREATE TABLE pts (id BIGINT, name TEXT, geom GEOMETRY)").unwrap();
        db.create_spatial_index("pts", "geom").unwrap();
        db.create_ordered_index("pts", "name").unwrap();
        for i in 0..25 {
            db.execute(&format!(
                "INSERT INTO pts VALUES ({i}, 'n{i}', ST_GeomFromText('POINT ({i} 0)'))"
            ))
            .unwrap();
        }
        // No checkpoint, no explicit save: the WAL is the only record of
        // the rows.
    }
    let db = SpatialDb::open_durable(&dir, EngineProfile::ExactRtree, DurabilityOptions::default())
        .unwrap();
    let r = db.execute("SELECT COUNT(*) FROM pts").unwrap();
    assert_eq!(r.scalar().unwrap().to_string(), "25");
    // The replayed rows went into the snapshot's indexes too.
    let r = db
        .execute(
            "SELECT COUNT(*) FROM pts WHERE ST_DWithin(geom, \
             ST_GeomFromText('POINT (10 0)'), 1.5)",
        )
        .unwrap();
    assert_eq!(r.scalar().unwrap().to_string(), "3");
    let r = db.execute("SELECT id FROM pts WHERE name = 'n7'").unwrap();
    assert_eq!(r.rows[0][0].to_string(), "7");
    std::fs::remove_dir_all(&dir).ok();
}

/// A standalone snapshot image (generation 0) of `columns` as the empty
/// table `name`, with an ordered index on each of `ordered`: what a
/// hand-built log of rows sits beside.
fn schema_image(name: &str, columns: Vec<ColumnDef>, ordered: &[&str]) -> Vec<u8> {
    let db = SpatialDb::new(EngineProfile::ExactRtree);
    db.create_table(name, columns).unwrap();
    db.create_indexes(name, &[], ordered).unwrap();
    let path = scratch(&format!("schema-image-{name}.jkpn"));
    db.save(&path).unwrap();
    let image = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    image
}

/// A directory holding `snapshot` and the log `wal` beside it, emptied
/// first.
fn write_pair(dir: &std::path::Path, snapshot: &[u8], wal: &[u8]) {
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join(SNAPSHOT_FILE), snapshot).unwrap();
    std::fs::write(dir.join(WAL_FILE), wal).unwrap();
}

/// Hand-built WAL image of `inserts` one-row transactions into `pts`,
/// the snapshot it is cut against (the empty table, an ordered index on
/// `name`), and the end offset of every frame, so the sweeps can compute
/// exactly which records survive a cut at offset `k`.
fn wal_image(inserts: usize) -> (Vec<u8>, Vec<u8>, Vec<usize>) {
    let columns = vec![ColumnDef::new("id", DataType::Int), ColumnDef::new("name", DataType::Text)];
    let snapshot = schema_image("pts", columns, &["name"]);
    // Generation 0: the generation of the standalone snapshot this log
    // sits next to, so recovery accepts its records.
    let mut bytes = wal_header(0);
    let mut frames = Vec::new();
    for i in 0..inserts {
        let rec = WalRecord::InsertAt {
            table: "pts".into(),
            id: RowId { page: 0, slot: i as u16 },
            row: vec![Value::Int(i as i64), Value::Text(format!("n{i}"))],
        };
        bytes.extend_from_slice(&rec.frame());
        frames.push(bytes.len());
    }
    (snapshot, bytes, frames)
}

/// Rows expected after recovery from a log whose bytes are intact only
/// up to (exclusive) `valid_up_to`.
fn expected_rows(frames: &[usize], valid_up_to: usize) -> usize {
    frames.iter().take_while(|&&end| end <= valid_up_to).count()
}

/// The recovered rows of `pts` agree with the intact prefix: its count,
/// and the first row found through the snapshot's index on `name`.
fn assert_prefix(db: &Arc<SpatialDb>, rows: usize, what: &str) {
    let r = db.execute("SELECT COUNT(*) FROM pts").unwrap();
    assert_eq!(r.scalar().unwrap().to_string(), rows.to_string(), "{what}: wrong prefix recovered");
    let r = db.execute("SELECT COUNT(*) FROM pts WHERE name = 'n0'").unwrap();
    assert_eq!(r.scalar().unwrap().to_string(), usize::from(rows > 0).to_string(), "{what}");
}

#[test]
fn wal_append_killed_at_any_offset_recovers_a_consistent_prefix() {
    let dir = scratch_dir("wal-torn");
    let (snapshot, bytes, frames) = wal_image(common::cases(6));
    for cut in (0..bytes.len()).step_by(sweep_step()) {
        write_pair(&dir, &snapshot, &bytes[..cut]);
        let db =
            SpatialDb::open_durable(&dir, EngineProfile::ExactRtree, DurabilityOptions::default())
                .unwrap_or_else(|e| panic!("cut at {cut}: recovery failed: {e}"));
        assert_prefix(&db, expected_rows(&frames, cut), &format!("cut at {cut}"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wal_bit_flip_at_any_offset_recovers_a_consistent_prefix_or_fails_loudly() {
    let dir = scratch_dir("wal-flip");
    let (snapshot, bytes, frames) = wal_image(common::cases(6));
    for offset in (0..bytes.len()).step_by(sweep_step()) {
        let bit = (offset % 8) as u8;
        let flipped = apply_failpoint(&bytes, Failpoint::BitFlip { offset: offset as u64, bit });
        write_pair(&dir, &snapshot, &flipped);

        let result =
            SpatialDb::open_durable(&dir, EngineProfile::ExactRtree, DurabilityOptions::default());
        if offset < 8 {
            // A corrupted log head is detected, not replayed.
            assert!(result.is_err(), "flip in WAL header at {offset} went undetected");
            continue;
        }
        let db = result.unwrap_or_else(|e| panic!("flip at {offset}: recovery failed: {e}"));
        // The flip lands inside exactly one frame; everything before it
        // must survive, nothing at or after it may.
        assert_prefix(&db, expected_rows(&frames, offset), &format!("flip at {offset}"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// CRC32 (IEEE 802.3, reflected polynomial `0xEDB88320`) a bit at a
/// time: a log frame's checksum, for frames built by hand.
fn crc32(bytes: &[u8]) -> u32 {
    !bytes.iter().fold(!0u32, |mut crc, &b| {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
        }
        crc
    })
}

/// `payload` framed as the log frames a transaction: `len | crc | payload`.
fn frame_of(payload: &[u8]) -> Vec<u8> {
    [&(payload.len() as u32).to_le_bytes()[..], &crc32(payload).to_le_bytes(), payload].concat()
}

#[test]
fn a_logged_tuple_that_does_not_check_fails_the_open() {
    // Checksum-valid logs whose one insert steps over as a stored row
    // does — its tags, lengths and counts are whole, so replay splits it
    // off its record — but whose tuple no table takes: a line of one
    // vertex, which building it refuses, and a row that does not fit the
    // table's schema. Replay checks the log's bytes in place as restore
    // checks a snapshot's: the open is a persistence error, no engine is
    // returned, and the log is left as it is.
    let dir = scratch_dir("unchecked-tuple");
    let columns =
        vec![ColumnDef::new("id", DataType::Int), ColumnDef::new("g", DataType::Geometry)];
    let snapshot = schema_image("t", columns, &[]);
    let line = jackpine::geom::wkt::parse("LINESTRING (0 0, 1 1)").unwrap();
    let id = RowId { page: 0, slot: 0 };
    let record = |row| WalRecord::InsertAt { table: "t".into(), id, row };
    let sound = record(vec![Value::Int(7), Value::Geom(line)]);
    assert_eq!(frame_of(&sound.encode()), sound.frame(), "frames are built as the log builds them");
    // The tuple ends the record: the line's count (2), then its two
    // vertices. One vertex: the count 1 and the first vertex alone.
    let mut one_vertex = sound.encode();
    let count_at = one_vertex.len() - 2 * 16 - 1;
    assert_eq!(one_vertex[count_at], 2);
    one_vertex[count_at] = 1;
    one_vertex.truncate(one_vertex.len() - 16);
    let misfit = record(vec![Value::Text("seven".into()), Value::Null]).encode();

    let open = || SpatialDb::open_durable(&dir, EngineProfile::ExactRtree, Default::default());
    for (what, payload) in [("a line of one vertex", one_vertex), ("a misfit row", misfit)] {
        let log = [wal_header(0), frame_of(&payload)].concat();
        write_pair(&dir, &snapshot, &log);
        match open() {
            Err(EngineError::Persist(_)) => {}
            Err(other) => panic!("{what}: unexpected error {other:?}"),
            Ok(_) => panic!("{what}: opened"),
        }
        assert_eq!(std::fs::read(dir.join(WAL_FILE)).unwrap(), log, "{what}: the log is kept");
        assert_eq!(std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap(), snapshot, "{what}");
    }
    // The same log around the sound row replays it.
    write_pair(&dir, &snapshot, &[wal_header(0), sound.frame()].concat());
    let db = open().unwrap();
    assert_eq!(db.pool_stats().decoded_rows, 0, "replay keeps no row");
    let r = db.execute("SELECT id, ST_NumPoints(g) FROM t").unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(7), Value::Int(2)]]);
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_log_torn_inside_a_statement_reopens_to_none_of_it() {
    // A write transaction is one WAL frame, so a crash that tears the log
    // anywhere in a statement's bytes loses all of the statement, and one
    // that tears nothing keeps all of it: never the leading rows of a
    // multi-row INSERT or of an `insert_rows` batch, and never an UPDATE's
    // delete without its reinsert (which would lose the row). Checked by
    // the row count, by lookups through the ordered index and by the
    // updated rows' values.
    let dir = scratch_dir("torn-statements");
    let opts = DurabilityOptions::default();
    let db = SpatialDb::open_durable(&dir, EngineProfile::ExactRtree, opts).unwrap();
    db.execute("CREATE TABLE t (id BIGINT, name TEXT)").unwrap();
    db.create_ordered_index("t", "name").unwrap();
    db.execute("INSERT INTO t VALUES (0, 'seed'), (1, 'seed')").unwrap();
    let state = |db: &Arc<SpatialDb>| {
        let scalar = |sql: &str| db.execute(sql).unwrap().scalar().unwrap().to_string();
        let names = db.execute("SELECT name FROM t WHERE id >= 10 AND id < 18 ORDER BY id");
        let names: Vec<String> = names.unwrap().rows.iter().map(|r| r[0].to_string()).collect();
        let named = ["multi", "batch", "updated"]
            .map(|n| scalar(&format!("SELECT COUNT(*) FROM t WHERE name = '{n}'")));
        (scalar("SELECT COUNT(*) FROM t"), named, names)
    };
    let wal_len = || std::fs::metadata(dir.join(WAL_FILE)).unwrap().len() as usize;
    let statements: [(&str, &dyn Fn()); 3] = [
        ("a multi-row INSERT", &|| {
            let values: Vec<String> = (10..18).map(|i| format!("({i}, 'multi')")).collect();
            db.execute(&format!("INSERT INTO t VALUES {}", values.join(", "))).unwrap();
        }),
        ("a 1,024-row insert_rows", &|| {
            let rows = (100..1124).map(|i| vec![Value::Int(i), Value::Text("batch".into())]);
            db.insert_rows("t", rows).unwrap();
        }),
        ("a multi-row UPDATE", &|| {
            db.execute("UPDATE t SET name = 'updated' WHERE name = 'multi'").unwrap();
        }),
    ];
    // (statement, log length before it, after it, state before, after)
    let mut steps = Vec::new();
    for (what, run) in statements {
        let (start, before) = (wal_len(), state(&db));
        run();
        steps.push((what, start, wal_len(), before, state(&db)));
    }
    let snapshot = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
    let wal = std::fs::read(dir.join(WAL_FILE)).unwrap();
    drop(db);

    let copy = scratch_dir("torn-statements-copy");
    for (what, start, end, before, after) in steps {
        assert!(before != after, "{what} changed nothing");
        let step = ((end - start) / 40).max(sweep_step());
        let cuts = (start..end).step_by(step).chain([end - 1, end]);
        for cut in cuts {
            // The log as a crash at `cut` leaves it, through a failpoint.
            let torn = apply_failpoint(&wal[..end], Failpoint::Truncate { offset: cut as u64 });
            std::fs::remove_dir_all(&copy).ok();
            std::fs::create_dir_all(&copy).unwrap();
            std::fs::write(copy.join(SNAPSHOT_FILE), &snapshot).unwrap();
            std::fs::write(copy.join(WAL_FILE), &torn).unwrap();
            let reopened = SpatialDb::open_durable(&copy, EngineProfile::ExactRtree, opts)
                .unwrap_or_else(|e| panic!("{what}, cut at {cut}: {e}"));
            let want = if cut == end { &after } else { &before };
            assert_eq!(&state(&reopened), want, "{what}, cut at {cut} of {start}..{end}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&copy).ok();
}

// ---------------------------------------------------------------------------
// Durable lifecycle
// ---------------------------------------------------------------------------

#[test]
fn dml_is_durable_via_checkpoint() {
    let dir = scratch_dir("dml-checkpoint");
    {
        let db =
            SpatialDb::open_durable(&dir, EngineProfile::ExactRtree, DurabilityOptions::default())
                .unwrap();
        db.execute("CREATE TABLE t (id BIGINT, name TEXT)").unwrap();
        for i in 0..10 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, 'x{i}')")).unwrap();
        }
        db.execute("DELETE FROM t WHERE id >= 7").unwrap();
        db.execute("UPDATE t SET name = 'renamed' WHERE id = 0").unwrap();
    }
    let db = SpatialDb::open_durable(&dir, EngineProfile::ExactRtree, DurabilityOptions::default())
        .unwrap();
    let r = db.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.scalar().unwrap().to_string(), "7");
    let r = db.execute("SELECT name FROM t WHERE id = 0").unwrap();
    assert_eq!(r.rows[0][0].to_string(), "renamed");
    std::fs::remove_dir_all(&dir).ok();
}

/// A drop is durable: a dropped table, spatial index and ordered index
/// stay dropped after a reopen, and a table created under the dropped
/// name comes back with its own schema and row. Reopened from copies of
/// the directory taken while the engine runs (crashes: one right after
/// the DROP TABLE, one at the end) and after `close()`, on both index
/// kinds.
#[test]
fn a_drop_stays_dropped_after_reopen() {
    let copy_files = |from: &std::path::Path, to: &std::path::Path| {
        for entry in std::fs::read_dir(from).unwrap() {
            let path = entry.unwrap().path();
            std::fs::copy(&path, to.join(path.file_name().unwrap())).unwrap();
        }
    };
    for profile in [EngineProfile::ExactRtree, EngineProfile::ExactGrid] {
        let dir = scratch_dir(&format!("drop-reopen-{}", profile.name()));
        let dropped = scratch_dir(&format!("drop-reopen-dropped-{}", profile.name()));
        let crashed = scratch_dir(&format!("drop-reopen-crash-{}", profile.name()));
        {
            let db = SpatialDb::open_durable(&dir, profile, DurabilityOptions::default()).unwrap();
            db.execute("CREATE TABLE a (id BIGINT, geom GEOMETRY)").unwrap();
            for i in 0..10 {
                db.execute(&format!(
                    "INSERT INTO a VALUES ({i}, ST_GeomFromText('POINT ({i} {i})'))"
                ))
                .unwrap();
            }
            db.execute("CREATE TABLE b (k TEXT, v TEXT)").unwrap();
            db.execute("INSERT INTO b VALUES ('x', '1'), ('y', '2')").unwrap();
            db.create_spatial_index("a", "geom").unwrap();
            db.create_ordered_index("a", "id").unwrap();

            db.execute("DROP TABLE b").unwrap();
            copy_files(&dir, &dropped);
            db.drop_spatial_index("a", "geom").unwrap();
            db.drop_ordered_index("a", "id").unwrap();
            db.execute("CREATE TABLE b (id BIGINT, name TEXT, geom GEOMETRY)").unwrap();
            db.execute("INSERT INTO b VALUES (7, 'seven', ST_GeomFromText('POINT (7 7)'))")
                .unwrap();
            copy_files(&dir, &crashed);
            db.close().unwrap();
        }
        let reopen = |from: &std::path::Path, label: &str| {
            let db = SpatialDb::open_durable(from, profile, DurabilityOptions::default())
                .unwrap_or_else(|e| panic!("{label}: reopen failed: {e}"));
            let count = db.execute("SELECT COUNT(*) FROM a").unwrap();
            assert_eq!(count.scalar().unwrap().to_string(), "10", "{label}");
            db
        };

        let label = format!("{} after a crash right after DROP TABLE", profile.name());
        let db = reopen(&dropped, &label);
        assert!(db.execute("SELECT * FROM b").is_err(), "{label}: the dropped table came back");

        for (how, from) in [("crash", &crashed), ("close", &dir)] {
            let label = format!("{} after {how}", profile.name());
            let db = reopen(from, &label);
            for sql in [
                "SELECT COUNT(*) FROM a WHERE \
                 ST_Intersects(geom, ST_GeomFromText('POLYGON ((0 0, 4.5 0, 4.5 4.5, 0 4.5, 0 0))'))",
                "SELECT COUNT(*) FROM a WHERE id = 3",
            ] {
                let (r, trace) = db.execute_traced(sql).unwrap();
                let want = if sql.contains("id = 3") { "1" } else { "5" };
                assert_eq!(r.scalar().unwrap().to_string(), want, "{label}: {sql}");
                assert_eq!(trace.counter("index_probes"), 0, "{label}: a dropped index probed");
            }
            let b = db.execute("SELECT * FROM b").unwrap();
            assert_eq!(b.columns, ["id", "name", "geom"], "{label}");
            assert_eq!(b.rows.len(), 1, "{label}");
            assert_eq!(b.rows[0][1].to_string(), "seven", "{label}");
        }
        for d in [&dir, &dropped, &crashed] {
            std::fs::remove_dir_all(d).ok();
        }
    }
}

/// The generation stamped in the snapshot file of `dir`.
fn snapshot_generation(dir: &std::path::Path) -> u64 {
    let bytes = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
    u64::from_le_bytes(bytes[9..17].try_into().unwrap())
}

/// Copies the snapshot and the log of `from` into `to`: the directory a
/// crash at this moment leaves.
fn copy_pair(from: &std::path::Path, to: &std::path::Path) {
    for f in [SNAPSHOT_FILE, WAL_FILE] {
        std::fs::copy(from.join(f), to.join(f)).unwrap();
    }
}

/// Regression: CREATE TABLE once logged its record after it had applied,
/// so a failed log write returned an error but left the table in place.
/// The next INSERT into it was logged, and the directory then failed to
/// reopen with `no such table: t`. A schema change writes no record now:
/// whatever the CREATE answered, a crash copy taken after the INSERT
/// reopens, and holds `t` with its row exactly when the CREATE succeeded.
#[test]
fn a_create_table_beside_a_failing_log_reopens_as_it_answered() {
    let dir = scratch_dir("create-log-fails");
    let copy = scratch_dir("create-log-fails-copy");
    let db = SpatialDb::open_durable(&dir, EngineProfile::ExactRtree, DurabilityOptions::default())
        .unwrap();
    db.fail_wal_appends(true);
    let created = db.execute("CREATE TABLE t (id BIGINT)");
    db.fail_wal_appends(false);
    let inserted = db.execute("INSERT INTO t VALUES (1)");
    copy_pair(&dir, &copy);
    let reopened =
        SpatialDb::open_durable(&copy, EngineProfile::ExactRtree, DurabilityOptions::default())
            .unwrap_or_else(|e| panic!("the crash copy does not reopen: {e}"));
    match created {
        Ok(_) => {
            inserted.unwrap();
            let r = reopened.execute("SELECT id FROM t").unwrap();
            assert_eq!(r.rows, vec![vec![Value::Int(1)]]);
        }
        Err(e) => {
            assert!(inserted.is_err(), "CREATE TABLE failed ({e}) but t took a row");
            assert!(reopened.table_names().is_empty(), "CREATE TABLE failed ({e}) but t came back");
        }
    }
    drop((db, reopened));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&copy).ok();
}

/// A schema change whose snapshot cut fails: a create is taken back out
/// and returns the cut's error, and a drop stays applied in memory while
/// the snapshot on disk keeps the object. The cut is made to fail at its
/// rename, by putting a non-empty directory where the snapshot file goes
/// (a rename cannot replace one, whoever runs it).
#[test]
fn a_schema_change_whose_cut_fails_leaves_nothing_behind() {
    let dir = scratch_dir("cut-fails");
    let copy = scratch_dir("cut-fails-copy");
    let db = SpatialDb::open_durable(&dir, EngineProfile::ExactRtree, DurabilityOptions::default())
        .unwrap();
    db.execute("CREATE TABLE a (id BIGINT, geom GEOMETRY)").unwrap();
    db.create_spatial_index("a", "geom").unwrap();
    for i in 0..10 {
        db.execute(&format!("INSERT INTO a VALUES ({i}, ST_GeomFromText('POINT ({i} {i})'))"))
            .unwrap();
    }
    let window = "SELECT COUNT(*) FROM a WHERE \
                  ST_Intersects(geom, ST_GeomFromText('POLYGON ((0 0, 4.5 0, 4.5 4.5, 0 4.5, 0 0))'))";
    let probes = |db: &Arc<SpatialDb>| {
        let (r, trace) = db.execute_traced(window).unwrap();
        assert_eq!(r.scalar().unwrap().to_string(), "5");
        trace.counter("index_probes")
    };
    assert!(probes(&db) > 0);

    let snap = dir.join(SNAPSHOT_FILE);
    let image = std::fs::read(&snap).unwrap();
    std::fs::remove_file(&snap).unwrap();
    std::fs::create_dir(&snap).unwrap();
    std::fs::write(snap.join("keep"), b"x").unwrap();
    let persist = |what: &str, result: Result<(), EngineError>| match result {
        Err(EngineError::Persist(_)) => {}
        other => panic!("{what}: expected the cut's error, got {other:?}"),
    };

    persist("CREATE TABLE", db.execute("CREATE TABLE b (id BIGINT)").map(drop));
    assert_eq!(db.table_names(), ["a"], "the failed CREATE TABLE left its table");
    persist("create_indexes", db.create_indexes("a", &[], &["id"]));
    persist("DROP INDEX", db.drop_spatial_index("a", "geom"));
    assert_eq!(probes(&db), 0, "a drop whose cut failed stays applied in memory");

    std::fs::remove_dir_all(&snap).unwrap();
    std::fs::write(&snap, &image).unwrap();
    copy_pair(&dir, &copy);
    let reopened =
        SpatialDb::open_durable(&copy, EngineProfile::ExactRtree, DurabilityOptions::default())
            .unwrap();
    assert!(probes(&reopened) > 0, "the snapshot on disk still holds the dropped index");
    assert_eq!(reopened.table_names(), ["a"]);
    // Nothing of the failed creates is left: each succeeds now.
    db.create_indexes("a", &[], &["id"]).unwrap();
    db.execute("CREATE TABLE b (id BIGINT)").unwrap();
    let r = db.execute("SELECT COUNT(*) FROM a WHERE id = 3").unwrap();
    assert_eq!(r.scalar().unwrap().to_string(), "1");
    drop((db, reopened));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&copy).ok();
}

/// Every schema change is one cut: after CREATE TABLE, CREATE INDEX,
/// DROP INDEX and DROP TABLE the log is a bare header at the snapshot's
/// new generation, whatever rows it held before.
#[test]
fn every_schema_change_leaves_a_header_only_log_at_the_new_generation() {
    let dir = scratch_dir("ddl-cuts");
    let db = SpatialDb::open_durable(&dir, EngineProfile::ExactRtree, DurabilityOptions::default())
        .unwrap();
    db.execute("CREATE TABLE logged (id BIGINT)").unwrap();
    type Change<'a> = &'a dyn Fn() -> Result<(), EngineError>;
    let changes: [(&str, Change); 4] = [
        ("CREATE TABLE", &|| db.execute("CREATE TABLE t (id BIGINT, g GEOMETRY)").map(drop)),
        ("CREATE INDEX", &|| db.create_indexes("t", &["g"], &["id"])),
        ("DROP INDEX", &|| db.drop_ordered_index("t", "id")),
        ("DROP TABLE", &|| db.execute("DROP TABLE t").map(drop)),
    ];
    for (what, change) in changes {
        db.execute("INSERT INTO logged VALUES (1)").unwrap();
        let before = snapshot_generation(&dir);
        assert!(std::fs::read(dir.join(WAL_FILE)).unwrap() != wal_header(before), "{what}");
        change().unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(snapshot_generation(&dir), before + 1, "{what}: the snapshot was not cut");
        let log = std::fs::read(dir.join(WAL_FILE)).unwrap();
        assert!(log == wal_header(before + 1), "{what}: the log is not a bare header");
    }
    drop(db);
    let db = SpatialDb::open_durable(&dir, EngineProfile::ExactRtree, DurabilityOptions::default())
        .unwrap();
    assert_eq!(db.table_names(), ["logged"]);
    let r = db.execute("SELECT COUNT(*) FROM logged").unwrap();
    assert_eq!(r.scalar().unwrap().to_string(), "4");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stale_wal_surviving_a_checkpoint_crash_is_not_replayed() {
    // The checkpoint crash window: the new snapshot has been renamed
    // into place but the crash hits before the WAL is truncated, so a
    // stale log (whose records the snapshot already contains) survives
    // next to it. Recovery must open the snapshot and DISCARD the log —
    // replaying it would put its rows a second time into slots the
    // snapshot already fills.
    let dir = scratch_dir("stale-wal");
    {
        let db =
            SpatialDb::open_durable(&dir, EngineProfile::ExactRtree, DurabilityOptions::default())
                .unwrap();
        db.execute("CREATE TABLE t (id BIGINT, name TEXT)").unwrap();
        for i in 0..8 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, 'x{i}')")).unwrap();
        }
        // Save the WAL as it stands (8 inserts), checkpoint,
        // then put the stale copy back: byte-for-byte the post-crash
        // directory state.
        let stale = std::fs::read(dir.join(WAL_FILE)).unwrap();
        db.checkpoint().unwrap();
        std::fs::write(dir.join(WAL_FILE), &stale).unwrap();
    }
    let db = SpatialDb::open_durable(&dir, EngineProfile::ExactRtree, DurabilityOptions::default())
        .unwrap_or_else(|e| panic!("stale WAL broke recovery: {e}"));
    let r = db.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.scalar().unwrap().to_string(), "8", "stale WAL records were replayed");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_clean_open_keeps_the_snapshot_and_a_replaying_open_recuts_it() {
    // Opening a directory whose log has nothing to fold must not rewrite
    // (and fsync) the whole snapshot: same bytes, same generation, same
    // file. One applied record, and the open checkpoints as it always
    // did.
    use jackpine::engine::wal::Wal;
    let dir = scratch_dir("clean-open");
    let snap = dir.join(SNAPSHOT_FILE);
    let open = || {
        SpatialDb::open_durable(&dir, EngineProfile::ExactRtree, DurabilityOptions::default())
            .unwrap()
    };
    let generation = |bytes: &[u8]| u64::from_le_bytes(bytes[9..17].try_into().unwrap());
    #[cfg(unix)]
    let inode = |p: &std::path::Path| {
        use std::os::unix::fs::MetadataExt;
        std::fs::metadata(p).unwrap().ino()
    };
    #[cfg(not(unix))]
    let inode = |_: &std::path::Path| 0u64;

    // No snapshot yet: the first open cuts one (generation 1), the
    // CREATE TABLE the next and the checkpoint a third.
    let db = open();
    db.execute("CREATE TABLE t (id BIGINT, name TEXT)").unwrap();
    for i in 0..6 {
        db.execute(&format!("INSERT INTO t VALUES ({i}, 'x{i}')")).unwrap();
    }
    db.checkpoint().unwrap();
    drop(db);
    let cut = std::fs::read(&snap).unwrap();
    let (cut_gen, cut_inode) = (generation(&cut), inode(&snap));
    assert_eq!(cut_gen, 3);

    // Nothing to fold, four ways: an empty log of the same generation, no
    // log, a torn log header, a stale log of another generation.
    let stale = {
        let mut bytes = wal_header(cut_gen - 1);
        let row = vec![Value::Int(99), Value::Text("stale".into())];
        let id = RowId { page: 0, slot: 99 };
        bytes.extend_from_slice(&WalRecord::InsertAt { table: "t".into(), id, row }.frame());
        bytes
    };
    let logs: [(&str, Option<Vec<u8>>); 4] = [
        ("empty log", Some(wal_header(cut_gen))),
        ("no log", None),
        ("torn log header", Some(wal_header(cut_gen)[..11].to_vec())),
        ("stale log", Some(stale)),
    ];
    for (what, log) in logs {
        std::fs::remove_file(dir.join(WAL_FILE)).ok();
        if let Some(bytes) = log {
            std::fs::write(dir.join(WAL_FILE), bytes).unwrap();
        }
        let db = open();
        assert!(std::fs::read(&snap).unwrap() == cut, "{what}: the snapshot was rewritten");
        assert_eq!(inode(&snap), cut_inode, "{what}: the snapshot was replaced");
        assert_eq!(Wal::peek_generation(dir.join(WAL_FILE)), cut_gen, "{what}: log generation");
        let r = db.execute("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.scalar().unwrap().to_string(), "6", "{what}");
        drop(db);
    }

    // The kept snapshot and the fresh log still make a working pair: a
    // write logged after a clean open is replayed by the next open,
    // which then has something to fold and re-cuts.
    let db = open();
    db.execute("INSERT INTO t VALUES (6, 'logged')").unwrap();
    drop(db);
    assert!(std::fs::read(&snap).unwrap() == cut, "an INSERT does not touch the snapshot");
    let db = open();
    let r = db.execute("SELECT name FROM t WHERE id = 6").unwrap();
    assert_eq!(r.rows[0][0], Value::Text("logged".into()));
    drop(db);
    let recut = std::fs::read(&snap).unwrap();
    assert_eq!(generation(&recut), cut_gen + 1, "a replaying open checkpoints");
    assert_eq!(Wal::peek_generation(dir.join(WAL_FILE)), cut_gen + 1);
    assert!(SpatialDb::open_from(&recut[..]).is_ok());

    // A standalone image (generation 0) dropped into an empty directory
    // is adopted as it is, and the log cut against it replays over it.
    let adopted = scratch_dir("clean-open-adopted");
    sample_db().save(adopted.join(SNAPSHOT_FILE)).unwrap();
    let image = std::fs::read(adopted.join(SNAPSHOT_FILE)).unwrap();
    let open_adopted = || {
        SpatialDb::open_durable(&adopted, EngineProfile::ExactGrid, DurabilityOptions::default())
            .unwrap()
    };
    let db = open_adopted();
    assert_eq!(db.profile(), EngineProfile::ExactRtree, "the stored profile wins");
    assert!(std::fs::read(adopted.join(SNAPSHOT_FILE)).unwrap() == image);
    assert_eq!(Wal::peek_generation(adopted.join(WAL_FILE)), 0);
    db.execute("INSERT INTO tags VALUES ('c', '3')").unwrap();
    drop(db);
    let db = open_adopted();
    let r = db.execute("SELECT COUNT(*) FROM tags").unwrap();
    assert_eq!(r.scalar().unwrap().to_string(), "3");
    drop(db);
    assert_eq!(generation(&std::fs::read(adopted.join(SNAPSHOT_FILE)).unwrap()), 1);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&adopted).ok();
}

#[test]
fn failed_dml_rolls_back_atomically() {
    // DML statements are atomic: an UPDATE that errors — here a type
    // error the schema check catches — leaves memory, the WAL and the
    // recovered state exactly as they were before the statement.
    let dir = scratch_dir("failed-dml");
    let db = SpatialDb::open_durable(&dir, EngineProfile::ExactRtree, DurabilityOptions::default())
        .unwrap();
    db.execute("CREATE TABLE t (id BIGINT, name TEXT)").unwrap();
    for i in 0..5 {
        db.execute(&format!("INSERT INTO t VALUES ({i}, 'x{i}')")).unwrap();
    }
    let logged = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
    assert!(db.execute("UPDATE t SET id = 'not a number'").is_err());
    // Nothing was applied, so nothing was logged.
    let after = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
    assert_eq!(after, logged, "failed UPDATE must not leave WAL records behind");
    let r = db.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.scalar().unwrap().to_string(), "5");
    drop(db);
    let db = SpatialDb::open_durable(&dir, EngineProfile::ExactRtree, DurabilityOptions::default())
        .unwrap();
    let r = db.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.scalar().unwrap().to_string(), "5");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wal_append_failure_leaves_no_phantom_rows() {
    // A statement that fails after it began applying — its log write
    // fails, or a later row of it fails the schema check with earlier
    // rows already in heap and indexes — leaves nothing behind: not in
    // the heap, not in either index, not in the reclaim queue, not in the
    // commit generation, not in the log, and not after a reopen.
    // (Regression: the insert path once applied before it logged, so an
    // append failure left a row that was visible in memory and lost on
    // restart.) The two 1,024-row batches run once more behind a
    // two-frame pool with a spill directory, where the batch's first
    // pages are evicted long before its rollback: the rollback must take
    // the rows' index entries from its own copy of their bytes.
    type Statement = Box<dyn Fn(&Arc<SpatialDb>) -> Result<(), EngineError>>;
    let sql = |sql: String| -> Statement { Box::new(move |db| db.execute(&sql).map(drop)) };
    // Rows inside the window, under the probed names; `bad` has a text id.
    let batch = |bad: Option<usize>| -> Statement {
        Box::new(move |db| {
            let rows = (0..1024).map(|i| {
                let id = match bad {
                    Some(b) if b == i => Value::Text("bad".into()),
                    _ => Value::Int(100 + i as i64),
                };
                let at = i % 90;
                let geom = jackpine::geom::wkt::parse(&format!("POINT ({at} {at})")).unwrap();
                vec![id, Value::Text(format!("n{}", 7 + i % 3)), Value::Geom(geom)]
            });
            db.insert_rows("t", rows).map(drop)
        })
    };
    let point = |i: i64| format!("ST_GeomFromText('POINT ({i} {i})')");
    // (what, the log refuses the write, the statement)
    let cases: [(&str, bool, Statement); 5] = [
        ("INSERT, log fails", true, sql(format!("INSERT INTO t VALUES (7, 'n7', {})", point(7)))),
        ("DELETE, log fails", true, sql("DELETE FROM t WHERE id >= 1".to_string())),
        (
            "UPDATE, log fails",
            true,
            sql("UPDATE t SET id = id + 10, name = 'n8' WHERE id >= 1".into()),
        ),
        (
            "INSERT, third row has the wrong type",
            false,
            sql(format!(
                "INSERT INTO t VALUES (7, 'n7', {}), (8, 'n8', {}), ('nine', 'n9', {})",
                point(7),
                point(8),
                point(9)
            )),
        ),
        (
            // id 1 becomes 1 / 0 = NULL, which fits; id 2 becomes the
            // float 2 / 1, which does not fit a BIGINT.
            "UPDATE, second victim's replacement fails the schema check",
            false,
            sql("UPDATE t SET id = id / (id - 1), name = 'n8' WHERE id >= 1".to_string()),
        ),
    ];
    let batches: [(&str, bool, Statement); 2] = [
        ("1,024-row insert_rows, log fails", true, batch(None)),
        ("1,024-row insert_rows, row 1,000 has the wrong type", false, batch(Some(1000))),
    ];
    // Everything a statement could have left a trace in. Rows a failed
    // statement would have written sit inside the window and under the
    // probed names, so an index entry it left behind shows (or fails the
    // fetch). The window's rows are sorted: an R-tree that took and gave
    // back a batch's entries holds the same entries, not the same shape.
    let observe = |db: &Arc<SpatialDb>, dir: &std::path::Path| {
        let rows = |sql: &str| db.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}")).rows;
        (
            db.table("t").unwrap().heap.row_ids(),
            rows(
                "SELECT id, name FROM t WHERE ST_Within(geom, ST_MakeEnvelope(-1, -1, 99, 99)) \
                 ORDER BY id",
            ),
            ["n1", "n2", "n7", "n8", "n9"]
                .map(|name| rows(&format!("SELECT id FROM t WHERE name = '{name}'"))),
            db.pending_reclaim_len(),
            db.commit_generation(),
            std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(),
        )
    };
    let open = |dir: &std::path::Path, profile| {
        SpatialDb::open_durable(dir, profile, DurabilityOptions::default()).unwrap()
    };
    let configs = [
        (EngineProfile::ExactRtree, false),
        (EngineProfile::ExactGrid, false),
        (EngineProfile::ExactRtree, true),
    ];
    for (profile, bounded) in configs {
        let dir = scratch_dir("wal-append-fails");
        let copy = scratch_dir("wal-append-fails-copy");
        let spill = scratch_dir("wal-append-fails-spill");
        let db = open(&dir, profile);
        db.execute("CREATE TABLE t (id BIGINT, name TEXT, geom GEOMETRY)").unwrap();
        for i in 0..3 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, 'n{i}', {})", point(i))).unwrap();
        }
        db.create_spatial_index("t", "geom").unwrap();
        db.create_ordered_index("t", "name").unwrap();
        if bounded {
            db.table("t").unwrap().heap.pool().set_spill_dir(Some(spill.clone()));
            db.set_pool_bytes(2 * jackpine::storage::PAGE_SIZE);
        }
        // One death the pin keeps queued: the vacuum at the head of every
        // statement below must leave it, and no failed statement may add
        // to it.
        let pin = db.pin_snapshot_handle();
        db.execute("DELETE FROM t WHERE id = 0").unwrap();
        assert_eq!((db.commit_generation(), db.pending_reclaim_len()), (4, 1));

        let run: Vec<_> =
            if bounded { batches.iter().collect() } else { cases.iter().chain(&batches).collect() };
        for (what, log_fails, statement) in run {
            let what = format!("{profile:?}{}, {what}", if bounded { " bounded" } else { "" });
            let before = observe(&db, &dir);
            let evictions = db.pool_stats().evictions;
            db.fail_wal_appends(*log_fails);
            let err = statement(&db).expect_err(&what);
            db.fail_wal_appends(false);
            match err {
                EngineError::Persist(_) if *log_fails => {}
                EngineError::Storage(_) if !*log_fails => {}
                other => panic!("{what}: unexpected error {other:?}"),
            }
            if bounded {
                assert!(
                    db.pool_stats().evictions > evictions + 4,
                    "{what}: the batch's pages stayed"
                );
            }
            assert_eq!(observe(&db, &dir), before, "{what}");
            // And recovery agrees: the directory as it is now reopens to
            // the same rows.
            for f in [SNAPSHOT_FILE, WAL_FILE] {
                std::fs::copy(dir.join(f), copy.join(f)).unwrap();
            }
            let all = "SELECT id, name FROM t";
            assert_eq!(
                open(&copy, profile).execute(all).unwrap().rows,
                db.execute(all).unwrap().rows,
                "{what}: reopened"
            );
        }
        drop((pin, db));
        for d in [dir, copy, spill] {
            std::fs::remove_dir_all(d).ok();
        }
    }
}

#[test]
fn delete_and_update_replay_from_wal() {
    // DeleteId records replay across a reopen that recovers from the
    // WAL (no clean shutdown checkpoint): the victim is addressed by
    // row id, which v4 snapshots keep stable across restarts.
    let dir = scratch_dir("delete-replay");
    {
        let db =
            SpatialDb::open_durable(&dir, EngineProfile::ExactRtree, DurabilityOptions::default())
                .unwrap();
        db.execute("CREATE TABLE t (id BIGINT, name TEXT)").unwrap();
        for i in 0..6 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, 'x{i}')")).unwrap();
        }
        db.execute("DELETE FROM t WHERE id >= 4").unwrap();
        db.execute("UPDATE t SET name = 'updated' WHERE id = 0").unwrap();
        // No drop-time checkpoint path: leak the handle so recovery must
        // come from the log alone? The engine checkpoints on detach, so
        // instead copy the durable dir mid-flight.
        let copy = scratch_dir("delete-replay-copy");
        for f in [SNAPSHOT_FILE, WAL_FILE] {
            std::fs::copy(dir.join(f), copy.join(f)).unwrap();
        }
        let db2 =
            SpatialDb::open_durable(&copy, EngineProfile::ExactRtree, DurabilityOptions::default())
                .unwrap();
        let r = db2.execute("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.scalar().unwrap().to_string(), "4", "replayed deletes");
        let r = db2.execute("SELECT name FROM t WHERE id = 0").unwrap();
        assert_eq!(r.rows[0][0], Value::Text("updated".into()), "replayed update pair");
        std::fs::remove_dir_all(&copy).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn duplicate_rows_replay_deletes_by_row_id_not_bytes() {
    // Regression for the v3 WAL bug: Delete records carried the row's
    // canonical bytes and replay removed the *first* byte-matching live
    // row, so with duplicate rows a crash could resurrect the deleted
    // copy and kill a survivor. v4 logs DeleteId/InsertAt by row id.
    // Three byte-identical rows at slots 0..2, delete the middle one:
    // recovery must keep exactly slots 0 and 2.
    let dup = vec![Value::Int(7), Value::Text("dup".into())];
    let columns = vec![ColumnDef::new("id", DataType::Int), ColumnDef::new("name", DataType::Text)];
    let records = vec![
        WalRecord::InsertAt { table: "t".into(), id: RowId { page: 0, slot: 0 }, row: dup.clone() },
        WalRecord::InsertAt { table: "t".into(), id: RowId { page: 0, slot: 1 }, row: dup.clone() },
        WalRecord::InsertAt { table: "t".into(), id: RowId { page: 0, slot: 2 }, row: dup.clone() },
        WalRecord::DeleteId { table: "t".into(), id: RowId { page: 0, slot: 1 } },
    ];
    let mut bytes = wal_header(0);
    for rec in &records {
        bytes.extend_from_slice(&rec.frame());
    }
    let dir = scratch_dir("dup-delete");
    write_pair(&dir, &schema_image("t", columns, &[]), &bytes);
    let db = SpatialDb::open_durable(&dir, EngineProfile::ExactRtree, DurabilityOptions::default())
        .unwrap();
    let r = db.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.scalar().unwrap().to_string(), "2", "exactly one duplicate was deleted");
    let mut survivors = db.table("t").unwrap().heap.row_ids();
    survivors.sort_unstable_by_key(|id| (id.page, id.slot));
    assert_eq!(
        survivors,
        vec![RowId { page: 0, slot: 0 }, RowId { page: 0, slot: 2 }],
        "replay must delete the logged row id, not the first byte match"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_or_flipped_wal_recovery_is_identical_through_a_tiny_pool() {
    // The write path that produced this history ran against a two-frame
    // buffer pool, so pages evicted (dirty-writeback and fault back in)
    // mid-transaction. For a WAL cut at any offset — and for a bit flip
    // at any offset — recovery into an unbounded engine and into a
    // paged engine must answer identically: same rows, or the same
    // loud corruption error.
    let src = scratch_dir("pool-sweep-src");
    let (snapshot, wal) = {
        let db =
            SpatialDb::open_durable(&src, EngineProfile::ExactRtree, DurabilityOptions::default())
                .unwrap();
        db.set_pool_bytes(2 * 8192);
        db.execute("CREATE TABLE t (id BIGINT, pad TEXT)").unwrap();
        let pad = "x".repeat(400);
        for i in 0..60 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, '{pad}')")).unwrap();
        }
        db.execute("DELETE FROM t WHERE id >= 48").unwrap();
        db.execute("UPDATE t SET pad = 'small' WHERE id < 9").unwrap();
        assert!(db.pool_stats().evictions > 0, "two frames must evict across 60 padded rows");
        // Copy the durable pair while the engine is live — detaching
        // checkpoints, and the sweep needs the raw log.
        (
            std::fs::read(src.join(SNAPSHOT_FILE)).unwrap(),
            std::fs::read(src.join(WAL_FILE)).unwrap(),
        )
    };
    std::fs::remove_dir_all(&src).ok();

    // None: recovery refused the image (detected corruption). The
    // snapshot holds the table from its CREATE TABLE on, so every image
    // that recovers has it.
    let open_image = |tag: &str, image: &[u8], pool_bytes: usize| {
        let dir = scratch_dir(&format!("pool-sweep-{tag}"));
        write_pair(&dir, &snapshot, image);
        let rows = match SpatialDb::open_durable(
            &dir,
            EngineProfile::ExactRtree,
            DurabilityOptions::default(),
        ) {
            Err(_) => None,
            Ok(db) => {
                db.set_pool_bytes(pool_bytes);
                db.clear_caches();
                Some(db.execute("SELECT id, pad FROM t ORDER BY id").unwrap())
            }
        };
        std::fs::remove_dir_all(&dir).ok();
        rows
    };
    // A coarser stride than the byte sweeps: each image pays two full
    // recoveries. ~50 points still cross every record kind.
    let step = (wal.len() / 50).max(sweep_step());
    for cut in (0..=wal.len()).step_by(step) {
        let unbounded = open_image("unbounded", &wal[..cut], 0);
        assert!(unbounded.is_some(), "cut at {cut}: a clean prefix must recover");
        let paged = open_image("paged", &wal[..cut], 2 * 8192);
        assert_eq!(unbounded, paged, "cut at {cut}: paged recovery diverged from unbounded");
    }
    for offset in (0..wal.len()).step_by(step) {
        let bit = (offset % 8) as u8;
        let flipped = apply_failpoint(&wal, Failpoint::BitFlip { offset: offset as u64, bit });
        let unbounded = open_image("unbounded", &flipped, 0);
        let paged = open_image("paged", &flipped, 2 * 8192);
        assert_eq!(
            unbounded, paged,
            "flip at {offset}.{bit}: paged recovery diverged from unbounded"
        );
    }
}

#[test]
fn deferred_vacuum_drains_on_checkpoint_and_close() {
    // Logically-deleted rows queue for physical reclaim; besides the
    // next DML statement, a checkpoint and connection close are both
    // drain points (asserted through the pending_reclaim gauge's
    // backing count).
    let dir = scratch_dir("vacuum-triggers");
    let db = SpatialDb::open_durable(&dir, EngineProfile::ExactRtree, DurabilityOptions::default())
        .unwrap();
    db.execute("CREATE TABLE t (id BIGINT, geom GEOMETRY)").unwrap();
    for i in 0..20 {
        db.execute(&format!("INSERT INTO t VALUES ({i}, ST_GeomFromText('POINT ({i} 0)'))"))
            .unwrap();
    }
    db.create_spatial_index("t", "geom").unwrap();

    db.execute("DELETE FROM t WHERE id < 5").unwrap();
    assert!(db.pending_reclaim_len() > 0, "deletes must defer physical reclaim");
    db.checkpoint().unwrap();
    assert_eq!(db.pending_reclaim_len(), 0, "checkpoint must vacuum");

    db.execute("DELETE FROM t WHERE id >= 15").unwrap();
    assert!(db.pending_reclaim_len() > 0, "deletes must defer physical reclaim");
    db.close().unwrap();
    assert_eq!(db.pending_reclaim_len(), 0, "close must vacuum");
    // The survivors are intact after both drains, via index and scan.
    let r = db.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.scalar().unwrap().to_string(), "10");
    let r = db
        .execute("SELECT COUNT(*) FROM t WHERE ST_Within(geom, ST_MakeEnvelope(4.5, -1, 9.5, 1))")
        .unwrap();
    assert_eq!(r.scalar().unwrap().to_string(), "5");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_saves_to_one_path_never_destroy_the_file() {
    // Each save stages a uniquely named temp file, so two racing saves
    // can interleave freely: the destination only ever receives one
    // complete image or the other.
    let dir = scratch_dir("racing-two-savers");
    let path = dir.join("shared.jkpn");
    let a = sample_db();
    let b = sample_db();
    std::thread::scope(|s| {
        let path = &path;
        for db in [&a, &b] {
            s.spawn(move || {
                for _ in 0..common::cases(12) {
                    db.save(path).expect("save");
                }
            });
        }
    });
    SpatialDb::open(&path).expect("racing saves corrupted the snapshot");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn set_durability_attaches_and_detaches() {
    let dir = scratch_dir("attach");
    let db = sample_db();
    assert!(db.durability_dir().is_none());
    db.set_durability(Some(&dir), DurabilityOptions::default()).unwrap();
    assert_eq!(db.durability_dir().as_deref(), Some(dir.as_path()));
    assert!(dir.join(SNAPSHOT_FILE).exists());
    assert!(dir.join(WAL_FILE).exists());
    db.execute("INSERT INTO tags VALUES ('c', '3')").unwrap();
    db.set_durability(None, DurabilityOptions::default()).unwrap();
    assert!(db.durability_dir().is_none());

    // The attached period is recoverable: snapshot + the logged insert.
    let restored =
        SpatialDb::open_durable(&dir, EngineProfile::ExactRtree, DurabilityOptions::default())
            .unwrap();
    let r = restored.execute("SELECT COUNT(*) FROM tags").unwrap();
    assert_eq!(r.scalar().unwrap().to_string(), "3");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn set_durability_beside_create_drop_table_churn() {
    // An attach cuts its snapshot under the writer lock, which DROP
    // TABLE takes too: a table listed for the cut is still there when
    // the cut streams it. The churn runs until the attaching side hangs
    // up, which a panic on that side does as well.
    let dir = scratch_dir("attach-churn");
    let db = sample_db();
    // Sorts ahead of every churned `tN`: the cut spends a while on it
    // after listing the tables, and that is when a drop lands.
    db.execute("CREATE TABLE a_wide (id BIGINT, pad TEXT)").unwrap();
    let pad = "x".repeat(100);
    let rows: Vec<String> = (0..500).map(|i| format!("({i}, '{pad}')")).collect();
    db.execute(&format!("INSERT INTO a_wide VALUES {}", rows.join(", "))).unwrap();
    let (attaching, hung_up) = std::sync::mpsc::channel::<()>();
    let failed: Vec<String> = std::thread::scope(|s| {
        let churn_db = db.clone();
        s.spawn(move || {
            let mut n = 0u64;
            while let Err(std::sync::mpsc::TryRecvError::Empty) = hung_up.try_recv() {
                churn_db.execute(&format!("CREATE TABLE t{n} (id BIGINT)")).expect("create");
                churn_db.execute(&format!("DROP TABLE t{n}")).expect("drop");
                n += 1;
            }
        });
        let failed = (0..common::cases(60))
            .filter_map(|_| {
                let attached = db.set_durability(Some(&dir), DurabilityOptions::default());
                db.set_durability(None, DurabilityOptions::default()).unwrap();
                attached.err().map(|e| e.to_string())
            })
            .collect();
        drop(attaching);
        failed
    });
    assert!(failed.is_empty(), "{} attaches failed beside the churn: {failed:?}", failed.len());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn persistence_and_index_errors_are_distinct_variants() {
    let err = SpatialDb::open_from(&b"definitely not a database"[..]).err().expect("must fail");
    assert!(matches!(err, EngineError::Persist(_)), "got {err:?}");
    let db = sample_db();
    let err = db.create_spatial_index("pois", "name").expect_err("must fail");
    assert!(matches!(err, EngineError::Index(_)), "got {err:?}");
}

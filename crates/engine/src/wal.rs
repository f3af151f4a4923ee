//! Append-only write-ahead log: every row change since the last snapshot
//! is recorded, one length- and checksum-framed frame per transaction, so
//! [`crate::SpatialDb::open_durable`] can redo writes that a crash would
//! otherwise lose. The log carries row changes only: a schema change is
//! cut into the snapshot (`SpatialDb::change_schema`), so every
//! table a record names is in the snapshot the log is cut against.
//!
//! File layout (all little-endian):
//!
//! ```text
//! magic "JKWL" | version u32 | generation u64
//! per transaction: payload len u32 | crc32(payload) u32 | payload
//! payload: its records back to back, each self-delimiting
//! ```
//!
//! Replay trusts a frame only when it is complete *and* its checksum
//! matches; the first torn or corrupt frame ends the log — a crash
//! mid-append can only lose the suffix it was writing, never resurrect
//! garbage. That is the same tail-scan rule PostgreSQL and SQLite's WAL
//! use, with the transaction as the unit: the frame's checksum is its
//! commit mark, so a torn write drops whole statements — never an
//! UPDATE's delete without its reinsert, or half of a multi-row INSERT.
//! A checksum-valid payload must decode exactly to its end. A frame of
//! one record is byte for byte what version 4 wrote for that record.
//!
//! The header's generation number ties the log to the snapshot it was
//! cut against: a checkpoint writes the new snapshot (stamped with the
//! next generation) *before* truncating the log, so a crash between the
//! two leaves a stale log whose generation no longer matches — recovery
//! sees the mismatch and discards it instead of replaying records the
//! snapshot already contains.

use crate::checksum::crc32;
use crate::{EngineError, Result};
use jackpine_geom::codec::{PutBytes, TakeBytes};
use jackpine_storage::sync::Mutex;
use jackpine_storage::{Row, RowId, Value};
use std::io::Write;
use std::path::{Path, PathBuf};

/// WAL file magic.
pub const WAL_MAGIC: &[u8; 4] = b"JKWL";
/// WAL format version, the only one read or written: one frame per
/// transaction, holding row changes only — rows logged by `RowId`
/// ([`WalRecord::InsertAt`], [`WalRecord::DeleteId`]) against a snapshot
/// that holds the schema and restores every row to its recorded slot.
/// Version 5 also logged CREATE TABLE and CREATE INDEX.
pub const WAL_VERSION: u32 = 6;
/// Bytes of file header before the first record frame.
pub const WAL_HEADER_LEN: usize = 16;
/// Bytes of framing (length + checksum) per frame, i.e. per transaction.
pub const FRAME_OVERHEAD: usize = 8;

fn persist_err(msg: impl Into<String>) -> EngineError {
    EngineError::Persist(msg.into())
}

fn io_err(e: std::io::Error) -> EngineError {
    persist_err(format!("WAL I/O: {e}"))
}

/// One logged row change.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// One logically deleted row, addressed by its `RowId`. Row ids are
    /// stable across recovery because snapshots record each row's id and
    /// reload restores rows to their original slots.
    DeleteId {
        /// Source table.
        table: String,
        /// The deleted row's heap address.
        id: RowId,
    },
    /// One inserted row together with the heap slot it landed in, so
    /// replay reproduces the exact same `RowId` the live run handed
    /// to indexes and later `DeleteId` records.
    InsertAt {
        /// Destination table.
        table: String,
        /// The heap address the row was placed at.
        id: RowId,
        /// The row values.
        row: Row,
    },
}

// 0 to 4 belonged to retired record kinds (rows by value, and the schema
// changes of version 5) and are not reused.
const KIND_DELETE_ID: u8 = 5;
const KIND_INSERT_AT: u8 = 6;

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn put_row_id(buf: &mut Vec<u8>, id: RowId) {
    buf.put_u32_le(id.page);
    buf.put_u32_le(u32::from(id.slot));
}

fn get_row_id(data: &mut &[u8]) -> Result<RowId> {
    if data.remaining() < 8 {
        return Err(persist_err("WAL: truncated row id"));
    }
    let page = data.get_u32_le();
    let slot = data.get_u32_le();
    let slot = u16::try_from(slot).map_err(|_| persist_err("WAL: row id slot out of range"))?;
    Ok(RowId { page, slot })
}

fn get_str(data: &mut &[u8]) -> Result<String> {
    if data.remaining() < 4 {
        return Err(persist_err("WAL: truncated string length"));
    }
    let len = data.get_u32_le() as usize;
    if data.remaining() < len {
        return Err(persist_err("WAL: truncated string payload"));
    }
    let s = std::str::from_utf8(&data[..len])
        .map_err(|_| persist_err("WAL: invalid UTF-8"))?
        .to_string();
    data.advance(len);
    Ok(s)
}

/// The one [`WalRecord::InsertAt`] payload encoder, given the row as it
/// is stored (`tuple`, [`Value::encode_row`] of it): the record ends with
/// exactly those bytes.
pub(crate) fn put_insert_at(buf: &mut Vec<u8>, table: &str, id: RowId, tuple: &[u8]) {
    buf.put_u8(KIND_INSERT_AT);
    put_str(buf, table);
    put_row_id(buf, id);
    buf.put_slice(tuple);
}

/// Writes `id` into the [`WalRecord::InsertAt`] record in `buf` whose
/// tuple starts at `buf[tuple_at]`: a write transaction stages a batch's
/// records before the heap places their rows, so [`put_insert_at`] left a
/// zero id there, laid out as `put_row_id` lays it out.
pub(crate) fn set_insert_id(buf: &mut [u8], tuple_at: usize, id: RowId) {
    let (page, slot) = buf[tuple_at - 8..tuple_at].split_at_mut(4);
    page.copy_from_slice(&id.page.to_le_bytes());
    slot.copy_from_slice(&u32::from(id.slot).to_le_bytes());
}

/// The [`WalRecord::DeleteId`] payload encoder.
pub(crate) fn put_delete_id(buf: &mut Vec<u8>, table: &str, id: RowId) {
    buf.put_u8(KIND_DELETE_ID);
    put_str(buf, table);
    put_row_id(buf, id);
}

/// Appends one frame to `buf` — `len | crc | payload` — with the payload
/// written in place by `payload`.
fn put_frame(buf: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    let head = buf.len();
    buf.put_slice(&[0; FRAME_OVERHEAD]);
    payload(buf);
    seal_frame(&mut buf[head..]);
}

/// Writes `frame`'s length and checksum into its first
/// [`FRAME_OVERHEAD`] bytes, over the payload after them.
fn seal_frame(frame: &mut [u8]) {
    let (head, body) = frame.split_at_mut(FRAME_OVERHEAD);
    head[..4].copy_from_slice(&(body.len() as u32).to_le_bytes());
    head[4..].copy_from_slice(&crc32(body).to_le_bytes());
}

/// One frame holding `records` back to back: a transaction as it is
/// logged.
fn transaction_frame(records: &[WalRecord]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(FRAME_OVERHEAD + records.len() * 64);
    put_frame(&mut buf, |b| records.iter().for_each(|rec| rec.encode_into(b)));
    buf
}

/// Reads a row laid out as [`Value::encode_row`] lays it out off the
/// front of `data`, advancing past it: rows, like every record, delimit
/// themselves.
fn get_row(data: &mut &[u8]) -> Result<Row> {
    if data.remaining() < 2 {
        return Err(persist_err("WAL: truncated row header"));
    }
    let n = data.get_u16_le() as usize;
    // Clamp: a value needs at least its tag byte.
    let mut row = Vec::with_capacity(n.min(data.remaining()));
    for _ in 0..n {
        row.push(Value::decode(data)?);
    }
    Ok(row)
}

impl WalRecord {
    /// Serializes the record payload (no framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        self.encode_into(&mut buf);
        buf
    }

    fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            WalRecord::DeleteId { table, id } => put_delete_id(buf, table, *id),
            WalRecord::InsertAt { table, id, row } => {
                put_insert_at(buf, table, *id, &Value::encode_row(row))
            }
        }
    }

    /// Decodes one record payload produced by [`WalRecord::encode`], which
    /// must end where the record does.
    pub fn decode(mut data: &[u8]) -> Result<WalRecord> {
        let rec = WalRecord::decode_next(&mut data)?;
        if !data.is_empty() {
            return Err(persist_err(format!("WAL: {} bytes after the record", data.len())));
        }
        Ok(rec)
    }

    /// Decodes the record at the front of `data`, advancing past it.
    fn decode_next(data: &mut &[u8]) -> Result<WalRecord> {
        if data.remaining() < 1 {
            return Err(persist_err("WAL: empty record"));
        }
        match data.get_u8() {
            KIND_DELETE_ID => {
                let table = get_str(data)?;
                let id = get_row_id(data)?;
                Ok(WalRecord::DeleteId { table, id })
            }
            KIND_INSERT_AT => {
                let table = get_str(data)?;
                let id = get_row_id(data)?;
                let row = get_row(data)?;
                Ok(WalRecord::InsertAt { table, id, row })
            }
            other => Err(persist_err(format!("WAL: unknown record kind {other}"))),
        }
    }

    /// The record as a complete on-disk frame, a transaction of one
    /// record: `len | crc | payload`. Write transactions stage their
    /// frames in place; the readers of this one are the tests that build
    /// logs by hand.
    pub fn frame(&self) -> Vec<u8> {
        transaction_frame(std::slice::from_ref(self))
    }
}

/// The WAL header bytes (magic + version + generation).
pub fn wal_header(generation: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(WAL_HEADER_LEN);
    buf.put_slice(WAL_MAGIC);
    buf.put_u32_le(WAL_VERSION);
    buf.put_u64_le(generation);
    buf
}

/// The generation a complete header is stamped with — or why it is not a
/// header this version reads. The one place a log's version is judged.
fn header_generation(head: &[u8; WAL_HEADER_LEN]) -> Result<u64> {
    let mut data: &[u8] = head;
    if &data[..4] != WAL_MAGIC {
        return Err(persist_err("WAL: bad magic"));
    }
    data.advance(4);
    let version = data.get_u32_le();
    if version != WAL_VERSION {
        return Err(persist_err(format!("WAL: unsupported version {version}")));
    }
    Ok(data.get_u64_le())
}

/// What a replay recovered.
#[derive(Debug)]
pub struct Replay {
    /// Every record of every intact frame, in append order.
    pub records: Vec<WalRecord>,
    /// Bytes of torn or corrupt tail that were ignored (0 for a clean log).
    pub ignored_tail: usize,
    /// The generation of the snapshot this log was cut against (0 when
    /// the file was missing or its header torn — `records` is empty in
    /// both cases). A log is replayable only over the snapshot whose
    /// generation matches.
    pub generation: u64,
}

/// An open, appendable write-ahead log.
#[derive(Debug)]
pub struct Wal {
    file: Mutex<std::fs::File>,
    path: PathBuf,
    sync: bool,
    /// Metrics registry counting appends and fsyncs, when attached.
    metrics: Option<std::sync::Arc<jackpine_obs::EngineMetrics>>,
    /// Fault injection (tests): when set, the next append attempts fail
    /// with an I/O-shaped error without touching the file.
    fail_appends: std::sync::atomic::AtomicBool,
}

impl Wal {
    /// Creates (or truncates to empty) the log at `path` and writes the
    /// file header, stamped with the generation of the snapshot the log
    /// is cut against. With `sync`, every append is fsynced.
    pub fn create(path: impl AsRef<Path>, sync: bool, generation: u64) -> Result<Wal> {
        let path = path.as_ref().to_path_buf();
        let mut file = std::fs::File::create(&path).map_err(io_err)?;
        file.write_all(&wal_header(generation)).map_err(io_err)?;
        if sync {
            file.sync_data().map_err(io_err)?;
        }
        Ok(Wal {
            file: Mutex::new(file),
            path,
            sync,
            metrics: None,
            fail_appends: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// Attaches a metrics registry: subsequent appends count into
    /// `wal_appends`, and their fsyncs into `wal_fsyncs`.
    pub fn set_metrics(&mut self, metrics: std::sync::Arc<jackpine_obs::EngineMetrics>) {
        self.metrics = Some(metrics);
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether appends are durable (fsync-backed). The group-commit
    /// pipeline consults this to decide if a batch needs an fsync at
    /// all.
    pub fn sync_enabled(&self) -> bool {
        self.sync
    }

    /// Fault injection for tests: while enabled, every append attempt
    /// fails without touching the file, simulating a full or failing
    /// disk at the worst possible moment.
    #[doc(hidden)]
    pub fn set_fail_appends(&self, fail: bool) {
        self.fail_appends.store(fail, std::sync::atomic::Ordering::SeqCst);
    }

    fn check_fail(&self) -> Result<()> {
        if self.fail_appends.load(std::sync::atomic::Ordering::SeqCst) {
            return Err(persist_err("WAL I/O: injected append failure"));
        }
        Ok(())
    }

    /// Appends `record` as a transaction of its own
    /// ([`Wal::write_frames`]), fsynced when every append is. No engine
    /// path appends a lone record; the readers of this one are the WAL
    /// probe of `benchmark/src/layers.rs` and the tests.
    pub fn append(&self, record: &WalRecord) -> Result<()> {
        self.write_frames(std::slice::from_ref(record))?;
        if self.sync {
            self.sync()?;
        }
        Ok(())
    }

    /// Appends `records` as one transaction frame with a single
    /// `write_all` and **no fsync**. A crash tears at most this frame,
    /// which replay then drops whole; durability arrives with the next
    /// [`Wal::sync`]. Counts one `wal_appends` per record. Write
    /// transactions stage their frame in place and write it through
    /// `Wal::write_txn`; the readers of this one are the WAL probes of
    /// `benchmark/src/layers.rs` and the tests.
    pub fn write_frames(&self, records: &[WalRecord]) -> Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        self.write_txn(&mut transaction_frame(records), records.len() as u64)
    }

    /// [`Wal::write_frames`] of the `count` records a write transaction
    /// staged as it applied, back to back in `frame` after
    /// [`FRAME_OVERHEAD`] bytes left for the header, which is written
    /// here. Nothing is written for no records.
    pub(crate) fn write_txn(&self, frame: &mut [u8], count: u64) -> Result<()> {
        if count == 0 {
            return Ok(());
        }
        self.check_fail()?;
        seal_frame(frame);
        let mut file = self.file.lock();
        file.write_all(frame).map_err(io_err)?;
        drop(file);
        if let Some(m) = &self.metrics {
            m.wal_appends.add(count);
        }
        Ok(())
    }

    /// Flushes everything written so far to stable storage (one
    /// `sync_data`). The group-commit leader calls this once per batch,
    /// amortizing the fsync across every commit in it.
    pub fn sync(&self) -> Result<()> {
        let file = self.file.lock();
        file.sync_data().map_err(io_err)?;
        drop(file);
        if let Some(m) = &self.metrics {
            m.wal_fsyncs.incr();
        }
        Ok(())
    }

    /// Truncates the log back to an empty (header-only) state at the
    /// given generation, after a checkpoint has made its records
    /// redundant. Every intermediate crash state (empty file, partial
    /// header) replays to zero records, so the truncation itself is
    /// crash-safe.
    pub fn reset(&self, generation: u64) -> Result<()> {
        let mut file = self.file.lock();
        file.set_len(0).map_err(io_err)?;
        // Rewind: set_len does not move the write cursor.
        use std::io::Seek;
        file.seek(std::io::SeekFrom::Start(0)).map_err(io_err)?;
        file.write_all(&wal_header(generation)).map_err(io_err)?;
        if self.sync {
            file.sync_data().map_err(io_err)?;
        }
        Ok(())
    }

    /// The generation stamp of the log at `path`, without replaying it.
    /// Best effort: a missing or unreadable header, or one of another
    /// version, reports 0.
    pub fn peek_generation(path: impl AsRef<Path>) -> u64 {
        use std::io::Read;
        let mut head = [0u8; WAL_HEADER_LEN];
        let Ok(mut f) = std::fs::File::open(path) else { return 0 };
        if f.read_exact(&mut head).is_err() {
            return 0;
        }
        header_generation(&head).unwrap_or(0)
    }

    /// Scans the log at `path`, returning the records of every intact
    /// frame, the log's generation, and the size of any ignored torn
    /// tail. A missing file replays to nothing, and so does a strict
    /// prefix of a valid header (a crash while [`Wal::create`] was
    /// writing it). Header bytes that could *not* have come from a torn
    /// header write — wrong magic or version — are rejected: that is
    /// corruption of the log head, which no crash during create or
    /// append can produce.
    pub fn replay(path: impl AsRef<Path>) -> Result<Replay> {
        let raw = match std::fs::read(path.as_ref()) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(Replay { records: Vec::new(), ignored_tail: 0, generation: 0 })
            }
            Err(e) => return Err(io_err(e)),
        };
        let mut data: &[u8] = &raw;
        let Some((head, body)) = data.split_first_chunk::<WAL_HEADER_LEN>() else {
            // Short header: torn create if it is a prefix of a valid
            // header (the generation bytes, 8.., may hold any value),
            // corruption otherwise.
            let fixed = wal_header(0);
            let n = data.remaining().min(8);
            if data[..n] != fixed[..n] {
                return Err(persist_err("WAL: bad header"));
            }
            return Ok(Replay {
                records: Vec::new(),
                ignored_tail: data.remaining(),
                generation: 0,
            });
        };
        let generation = header_generation(head)?;
        data = body;
        let mut records = Vec::new();
        while data.remaining() >= FRAME_OVERHEAD {
            let tail = data.remaining();
            let mut peek = data;
            let len = peek.get_u32_le() as usize;
            let want_crc = peek.get_u32_le();
            if peek.remaining() < len {
                // Torn frame: the append was cut off mid-payload.
                return Ok(Replay { records, ignored_tail: tail, generation });
            }
            if crc32(&peek[..len]) != want_crc {
                // Bit rot or a torn length field; nothing past this
                // point can be trusted.
                return Ok(Replay { records, ignored_tail: tail, generation });
            }
            // The checksum passed, so these are the bytes that were
            // appended — if they do not parse, exactly to the frame's
            // end, that is a format bug or version skew, not a torn
            // write. Silently dropping this transaction (and every
            // committed one behind it) would be data loss, so fail
            // loudly instead.
            let (mut payload, rest) = peek.split_at(len);
            loop {
                let rec = WalRecord::decode_next(&mut payload).map_err(|e| {
                    persist_err(format!("WAL: checksum-valid record failed to decode: {e}"))
                })?;
                records.push(rec);
                if payload.is_empty() {
                    break;
                }
            }
            data = rest;
        }
        let ignored_tail = data.remaining();
        Ok(Replay { records, ignored_tail, generation })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("jackpine-wal-{name}-{}.log", std::process::id()));
        p
    }

    fn sample_records() -> Vec<WalRecord> {
        let point = jackpine_geom::wkt::parse("POINT (1 2)").unwrap();
        vec![
            WalRecord::InsertAt {
                table: "t".into(),
                id: RowId { page: 0, slot: 0 },
                row: vec![Value::Int(7), Value::Text("x".into())],
            },
            WalRecord::InsertAt {
                table: "t".into(),
                id: RowId { page: 0, slot: 1 },
                row: vec![Value::Int(8), Value::Null],
            },
            WalRecord::DeleteId { table: "t".into(), id: RowId { page: 0, slot: 0 } },
            WalRecord::InsertAt {
                table: "pts".into(),
                id: RowId { page: 1, slot: 2 },
                row: vec![Value::Float(0.5), Value::Geom(point)],
            },
            WalRecord::InsertAt {
                table: "t".into(),
                id: RowId { page: 3, slot: 41 },
                row: vec![Value::Int(9), Value::Text("y".into())],
            },
            WalRecord::DeleteId { table: "t".into(), id: RowId { page: 3, slot: 41 } },
        ]
    }

    #[test]
    fn record_roundtrip() {
        for rec in sample_records() {
            let bytes = rec.encode();
            assert_eq!(WalRecord::decode(&bytes).unwrap(), rec);
        }
    }

    #[test]
    fn append_and_replay() {
        let path = temp_path("roundtrip");
        let wal = Wal::create(&path, false, 7).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        drop(wal);
        let replay = Wal::replay(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(replay.records, sample_records());
        assert_eq!(replay.ignored_tail, 0);
        assert_eq!(replay.generation, 7);
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let path = temp_path("torn");
        let wal = Wal::create(&path, false, 1).unwrap();
        let recs = sample_records();
        for rec in &recs {
            wal.append(rec).unwrap();
        }
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        // Cut mid-way through the last record's frame.
        let cut = full.len() - 3;
        std::fs::write(&path, &full[..cut]).unwrap();
        let replay = Wal::replay(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(replay.records, recs[..recs.len() - 1]);
        assert!(replay.ignored_tail > 0);
    }

    #[test]
    fn reset_empties_the_log_and_restamps_the_generation() {
        let path = temp_path("reset");
        let wal = Wal::create(&path, true, 1).unwrap();
        wal.append(&sample_records()[0]).unwrap();
        wal.reset(2).unwrap();
        wal.append(&sample_records()[3]).unwrap();
        drop(wal);
        let replay = Wal::replay(&path).unwrap();
        assert_eq!(replay.records, vec![sample_records()[3].clone()]);
        assert_eq!(replay.generation, 2);
        assert_eq!(Wal::peek_generation(&path), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_head_is_rejected() {
        let path = temp_path("badhead");
        std::fs::write(&path, b"NOPE\x01\x00\x00\x00").unwrap();
        assert!(Wal::replay(&path).is_err());
        std::fs::write(&path, b"JKWL\x63\x00\x00\x00").unwrap();
        assert!(Wal::replay(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_header_replays_to_nothing() {
        let path = temp_path("tornhead");
        // Any strict prefix of a valid header is a crash during create.
        let head = wal_header(0x0102_0304_0506_0708);
        for cut in 0..head.len() {
            std::fs::write(&path, &head[..cut]).unwrap();
            let replay = Wal::replay(&path).unwrap();
            assert!(replay.records.is_empty(), "cut at {cut}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn retired_versions_are_refused_not_read_as_empty() {
        // Versions 2 and 3 logged rows by value, version 4 a frame per
        // record, version 5 schema changes too; nothing reads them any
        // more. A log stamped with one must stop recovery, not pass for a
        // log with nothing in it.
        for version in [2u32, 3, 4, 5] {
            let dir = std::env::temp_dir()
                .join(format!("jackpine-wal-retired-v{version}-{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join(crate::WAL_FILE);
            let wal = Wal::create(&path, false, 0).unwrap();
            wal.write_frames(&sample_records()).unwrap();
            drop(wal);
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();

            let refused = |err: EngineError| match err {
                EngineError::Persist(m) => {
                    assert!(m.contains(&format!("unsupported version {version}")), "{m}")
                }
                other => panic!("v{version}: unexpected error {other:?}"),
            };
            refused(Wal::replay(&path).expect_err("replay"));
            assert_eq!(Wal::peek_generation(&path), 0);
            let opts = crate::DurabilityOptions::default();
            match crate::SpatialDb::open_durable(&dir, crate::EngineProfile::ExactRtree, opts) {
                Ok(_) => panic!("v{version}: opened, with the log's writes lost"),
                Err(e) => refused(e),
            }
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "the refused log is left as it is");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn write_frames_batch_replays_like_individual_appends() {
        let path = temp_path("frames");
        let wal = Wal::create(&path, false, 1).unwrap();
        let recs = sample_records();
        wal.write_frames(&recs).unwrap();
        wal.write_frames(&[]).unwrap(); // no-op
        wal.sync().unwrap();
        drop(wal);
        let replay = Wal::replay(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(replay.records, recs);
        assert_eq!(replay.ignored_tail, 0);
    }

    #[test]
    fn a_transaction_stages_the_frames_its_records_would_make() {
        // Every value kind, and every geometry kind: point, line, a
        // polygon with a hole, each multi-kind, a collection, empties.
        let geoms = [
            "POINT (1 2)",
            "LINESTRING (0 0, 3 4, 5 1)",
            "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 4 2, 4 4, 2 4, 2 2))",
            "MULTIPOINT ((1 1), (2 3))",
            "MULTILINESTRING ((0 0, 1 1), (2 2, 3 5))",
            "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)), ((5 5, 9 5, 9 9, 5 9, 5 5), (6 6, 7 6, 7 7, 6 6)))",
            "GEOMETRYCOLLECTION (POINT (4 4), LINESTRING (0 1, 1 0))",
            "MULTIPOINT EMPTY",
        ];
        let mut rows: Vec<Row> = vec![vec![Value::Null, Value::Null, Value::Null, Value::Null]];
        for (i, wkt) in geoms.iter().enumerate() {
            let g = jackpine_geom::wkt::parse(wkt).unwrap();
            let name = Value::Text(format!("row {i} · {wkt}"));
            rows.push(vec![
                Value::Int(-(i as i64)),
                Value::Float(i as f64 / 3.0),
                name,
                Value::Geom(g),
            ]);
        }
        let dir = std::env::temp_dir().join(format!("jackpine-wal-staged-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let opts = crate::DurabilityOptions::default();
        let db =
            crate::SpatialDb::open_durable(&dir, crate::EngineProfile::ExactRtree, opts).unwrap();
        db.execute("CREATE TABLE Kinds (i BIGINT, f DOUBLE, t TEXT, g GEOMETRY)").unwrap();
        db.create_spatial_index("kinds", "g").unwrap();
        db.create_ordered_index("kinds", "t").unwrap();
        let path = dir.join(crate::WAL_FILE);
        let logged = std::fs::read(&path).unwrap().len();
        let ids = db.insert_rows("Kinds", rows.clone()).unwrap();
        db.execute("DELETE FROM Kinds WHERE i = -3").unwrap();

        let mut want: Vec<WalRecord> = ids
            .iter()
            .zip(&rows)
            .map(|(&id, row)| WalRecord::InsertAt { table: "Kinds".into(), id, row: row.clone() })
            .collect();
        want.push(WalRecord::DeleteId { table: "Kinds".into(), id: ids[4] });
        // Two transactions, two frames: the batch's, then the DELETE's.
        let staged = std::fs::read(&path).unwrap()[logged..].to_vec();
        let (batch, delete) = want.split_at(rows.len());
        let framed = [transaction_frame(batch), transaction_frame(delete)].concat();
        assert!(staged == framed, "staged frames differ from the records' own");
        let replay = Wal::replay(&path).unwrap();
        assert_eq!(replay.records[replay.records.len() - want.len()..], want[..]);
        // The encoder the transaction stages with, one record at a time.
        for (rec, (&id, row)) in want.iter().zip(ids.iter().zip(&rows)) {
            let mut buf = vec![0xAB];
            put_insert_at(&mut buf, "Kinds", id, &Value::encode_row(row));
            assert_eq!(buf[1..], rec.encode()[..]);
            assert_eq!(&WalRecord::decode(&buf[1..]).unwrap(), rec);
        }
        // A transaction of one record is framed as version 4 framed a
        // record: `len | crc | payload`.
        let payload = delete[0].encode();
        let v4 = [(payload.len() as u32).to_le_bytes(), crc32(&payload).to_le_bytes()].concat();
        assert_eq!(delete[0].frame(), [v4, payload].concat());
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_append_failure_leaves_no_partial_frames() {
        let path = temp_path("failinject");
        let wal = Wal::create(&path, false, 1).unwrap();
        let recs = sample_records();
        wal.append(&recs[0]).unwrap();
        wal.set_fail_appends(true);
        assert!(wal.append(&recs[1]).is_err());
        assert!(wal.write_frames(&recs[1..3]).is_err());
        wal.set_fail_appends(false);
        wal.append(&recs[1]).unwrap();
        drop(wal);
        let replay = Wal::replay(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(replay.records, recs[..2]);
        assert_eq!(replay.ignored_tail, 0, "failed appends wrote nothing");
    }

    #[test]
    fn checksum_valid_but_undecodable_record_is_an_error() {
        let path = temp_path("undecodable");
        // A frame whose CRC is correct but whose payload is an unknown
        // record kind: format bug or version skew, not a torn write.
        let payload = [0xEEu8, 0x01, 0x02];
        let mut bytes = wal_header(0);
        bytes.put_u32_le(payload.len() as u32);
        bytes.put_u32_le(crc32(&payload));
        bytes.put_slice(&payload);
        std::fs::write(&path, &bytes).unwrap();
        let err = Wal::replay(&path).expect_err("must fail, not silently drop");
        assert!(matches!(err, EngineError::Persist(_)), "got {err:?}");
        // So is a record of a retired kind: version 5's CREATE TABLE (0),
        // CREATE INDEX spatial (2) and ordered (3), laid out as it laid
        // them out, behind a row record the log still holds.
        let mut create_table = vec![0u8];
        put_str(&mut create_table, "t");
        create_table.put_u32_le(1);
        put_str(&mut create_table, "id");
        create_table.put_u8(0);
        let mut retired = vec![create_table];
        for kind in [2u8, 3] {
            let mut index = vec![kind];
            put_str(&mut index, "t");
            put_str(&mut index, "id");
            retired.push(index);
        }
        for payload in retired {
            let mut bytes = wal_header(0);
            bytes.put_slice(&sample_records()[0].frame());
            bytes.put_u32_le(payload.len() as u32);
            bytes.put_u32_le(crc32(&payload));
            bytes.put_slice(&payload);
            std::fs::write(&path, &bytes).unwrap();
            match Wal::replay(&path).expect_err("a retired record kind") {
                EngineError::Persist(m) => {
                    assert!(m.contains(&format!("unknown record kind {}", payload[0])), "{m}")
                }
                other => panic!("kind {}: unexpected error {other:?}", payload[0]),
            }
        }
        // So is a payload that does not decode exactly to its end: a
        // record and a byte, or a record and a truncated second one.
        let two = [sample_records()[1].encode(), sample_records()[2].encode()].concat();
        let one = sample_records()[1].encode().len();
        for payload in [&[&two[..one], &[0][..]].concat(), &two[..two.len() - 1]] {
            let mut bytes = wal_header(0);
            bytes.put_u32_le(payload.len() as u32);
            bytes.put_u32_le(crc32(payload));
            bytes.put_slice(payload);
            std::fs::write(&path, &bytes).unwrap();
            let err = Wal::replay(&path).expect_err("a payload with bytes left over");
            assert!(matches!(err, EngineError::Persist(_)), "got {err:?}");
        }
        std::fs::remove_file(&path).ok();
    }
}

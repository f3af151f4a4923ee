//! Durability: a snapshot and the write-ahead log cut against it.
//!
//! An engine with durability attached keeps two files in one directory:
//! the atomic snapshot ([`SNAPSHOT_FILE`], in [`crate::persist`]'s
//! format) and the log of every write since ([`WAL_FILE`]), both stamped
//! with one generation. Two steps do all the work here:
//!
//! * **The cut** ([`SpatialDb::cut`]): the writer lock, a vacuum, then
//!   the snapshot streamed at a new generation. Checkpoints, attaches and
//!   the fold at the end of a replaying open all cut this way, so no
//!   image holds half a statement or lists a table dropped beside it.
//! * **The attach** ([`SpatialDb::attach`]): the directory created, the
//!   durability lock taken, a cut if one is due, then a fresh log at the
//!   same generation installed — `open_durable` and `set_durability`.
//!
//! Lock order: `durability` → writer lock → the table registry → a
//! table's `indexes` → its heap locks.
//! Writers hold `durability`'s read side across apply + log, so an
//! attach or a checkpoint (its write side) never cuts between a
//! statement and its record, nor truncates staged-but-unsynced frames.

use crate::db::{EngineError, SpatialDb};
use crate::wal::{Wal, WalRecord};
use crate::{EngineProfile, Result};
use jackpine_obs::TxnSite;
use jackpine_storage::Value;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File name of the atomic snapshot inside a durability directory.
pub const SNAPSHOT_FILE: &str = "snapshot.jkpn";
/// File name of the write-ahead log inside a durability directory.
pub const WAL_FILE: &str = "wal.jkwl";

/// Tuning knobs for crash-safe durability.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DurabilityOptions {
    /// fsync the write-ahead log after every append. Off by default:
    /// the benchmark's crash model is torn files, not lost page cache,
    /// and per-append fsync dominates insert latency.
    pub sync_each_append: bool,
}

/// Attached durability: the open WAL, the directory its snapshot lives
/// in, and the current generation — the stamp shared by the snapshot
/// and the WAL cut against it. (The fsync policy lives inside the
/// [`Wal`].)
pub(crate) struct DurabilityState {
    pub(crate) wal: Wal,
    dir: PathBuf,
    pub(crate) generation: u64,
}

impl SpatialDb {
    /// Opens (or creates) a crash-safe database under `dir`: loads the
    /// atomic snapshot if one exists and replays every intact
    /// write-ahead-log record on top of it. When replay applied a record,
    /// or the directory held no snapshot, it then checkpoints — folding
    /// the replayed tail into a fresh snapshot and truncating the log —
    /// so recovery is idempotent. When there was nothing to fold (a log
    /// with no intact record, no log, a torn log header, or a stale log
    /// of another generation) the snapshot on disk already *is* the
    /// state: it is kept as it is, not rewritten, and a fresh log is
    /// created at its generation. `profile` is used only when the
    /// directory holds no snapshot yet; otherwise the stored profile
    /// wins.
    ///
    /// A crash at *any* byte offset of a snapshot save or WAL append
    /// leaves this returning a consistent state: the snapshot is replaced
    /// atomically (old or new, never torn), a torn or bit-flipped WAL
    /// tail is detected by its checksum and dropped, and a WAL whose
    /// generation does not match the snapshot's (a crash between a
    /// checkpoint's snapshot rename and its log truncation) is discarded
    /// rather than replayed — its records are already in the snapshot.
    pub fn open_durable(
        dir: impl AsRef<Path>,
        profile: EngineProfile,
        opts: DurabilityOptions,
    ) -> Result<Arc<SpatialDb>> {
        let dir = dir.as_ref();
        let snap = dir.join(SNAPSHOT_FILE);
        let had_snapshot = snap.exists();
        let (db, snap_gen) = if had_snapshot {
            SpatialDb::open_gen(&snap)?
        } else {
            (Arc::new(SpatialDb::new(profile)), 0)
        };
        let replay = Wal::replay(dir.join(WAL_FILE))?;
        let fold = replay.generation == snap_gen && !replay.records.is_empty();
        // Checkpoint: replayed writes become part of a snapshot at the
        // next generation, which lands before the fresh log, so a crash
        // between the two leaves a stale log whose generation no longer
        // matches — harmless. With nothing to fold the snapshot stays.
        // Either way the fresh log truncates whatever was there; every
        // crash state of that (empty file, partial header) replays to
        // zero records, which the next open again reads as "nothing to
        // fold".
        let cut = fold || !had_snapshot;
        let gen = if cut { snap_gen.max(replay.generation) + 1 } else { snap_gen };
        if fold {
            for rec in replay.records {
                db.apply_wal_record(rec)?;
            }
        }
        db.attach(dir, opts, gen, cut)?;
        Ok(db)
    }

    /// Attaches durability to an already-loaded database: writes a
    /// snapshot under `dir` and opens a fresh WAL that every subsequent
    /// `CREATE TABLE`, `INSERT` and `CREATE INDEX` appends to. `None`
    /// detaches, returning the instance to purely in-memory operation.
    pub fn set_durability(&self, dir: Option<&Path>, opts: DurabilityOptions) -> Result<()> {
        let Some(dir) = dir else {
            *self.durability.write() = None;
            return Ok(());
        };
        // Stamp past anything already in the directory, so that a crash
        // between the snapshot and the fresh WAL cannot leave a stale
        // log whose generation collides with the new snapshot's.
        let gen = SpatialDb::peek_snapshot_generation(dir.join(SNAPSHOT_FILE))
            .max(Wal::peek_generation(dir.join(WAL_FILE)))
            + 1;
        self.attach(dir, opts, gen, true)
    }

    /// The one attach: creates `dir`, cuts the snapshot at `gen` when
    /// `cut` is set, and installs a fresh WAL at `gen` — all under the
    /// durability write lock, so no write lands between the snapshot and
    /// the log that continues it.
    fn attach(&self, dir: &Path, opts: DurabilityOptions, gen: u64, cut: bool) -> Result<()> {
        std::fs::create_dir_all(dir)
            .map_err(|e| EngineError::Persist(format!("create durability dir: {e}")))?;
        let mut durability = self.durability.write();
        if cut {
            self.cut(dir, gen)?;
        }
        let mut wal = Wal::create(dir.join(WAL_FILE), opts.sync_each_append, gen)?;
        wal.set_metrics(self.metrics.clone());
        *durability = Some(DurabilityState { wal, dir: dir.to_path_buf(), generation: gen });
        Ok(())
    }

    /// The one snapshot cut: under the writer lock — no statement
    /// mid-apply, no table or index dropping — vacuums, so the image
    /// never re-persists a row no snapshot can see, then streams the
    /// snapshot stamped `gen` into `dir`. The caller holds the durability
    /// write lock, which already excludes committed-but-unsynced frames.
    fn cut(&self, dir: &Path, gen: u64) -> Result<()> {
        let writers = self.txn.lock_writers(TxnSite::Checkpoint);
        self.vacuum(&writers)?;
        self.save_gen(dir.join(SNAPSHOT_FILE), gen)
    }

    /// The durability directory, when durability is attached: a hook for
    /// `tests/durability.rs`.
    pub fn durability_dir(&self) -> Option<PathBuf> {
        self.durability.read().as_ref().map(|d| d.dir.clone())
    }

    /// Folds all logged writes into a fresh atomic snapshot and truncates
    /// the WAL. A no-op without attached durability.
    ///
    /// Runs automatically after `DROP TABLE` and index drops: drops have
    /// no WAL record shape, so the snapshot is re-cut instead. (DML no
    /// longer needs this — `INSERT`, `DELETE` and `UPDATE` all log
    /// records and commit through the group pipeline.)
    ///
    /// Crash-atomic: the new snapshot carries the next generation and
    /// replaces the old one atomically *before* the log is truncated to
    /// that same generation. A crash between the two leaves the new
    /// snapshot next to the old log — whose generation no longer
    /// matches, so recovery discards it instead of replaying records
    /// the snapshot already contains.
    pub fn checkpoint(&self) -> Result<()> {
        let mut durability = self.durability.write();
        if let Some(d) = durability.as_mut() {
            let gen = d.generation + 1;
            self.cut(&d.dir, gen)?;
            d.wal.reset(gen)?;
            d.generation = gen;
        }
        Ok(())
    }

    /// Flushes dirty pool frames and reclaims what no snapshot needs.
    pub fn close(&self) -> Result<()> {
        self.vacuum(&self.txn.lock_writers(TxnSite::Checkpoint))?;
        self.pool.flush().map_err(|e| EngineError::Persist(format!("pool flush: {e}")))
    }

    /// Applies one replayed WAL record. Replay runs before a WAL is
    /// attached and before any concurrent session exists, so records
    /// apply through unlogged, generation-free paths (rows are reborn
    /// visible-everywhere; the snapshot that follows settles them).
    fn apply_wal_record(&self, rec: WalRecord) -> Result<()> {
        match rec {
            WalRecord::CreateTable { name, columns } => self.create_table(&name, columns),
            WalRecord::CreateSpatialIndex { table, column } => {
                self.create_spatial_index(&table, &column)
            }
            WalRecord::CreateOrderedIndex { table, column } => {
                self.create_ordered_index(&table, &column)
            }
            // Back into the exact slot it was logged at, so later
            // `DeleteId` records (and index entries) address the right
            // row even among byte-identical duplicates; the slot keeps
            // the row the log handed over (restore's rule), and the row is
            // encoded once for the slot and the index entries.
            WalRecord::InsertAt { table, id, row } => {
                let (t, tuple) = (self.table(&table)?, Value::encode_row(&row));
                t.heap.place_tuple(&tuple, row, id, 0)?;
                t.index_tuples([(id, &tuple[..])], true)
            }
            // A missing row means the record's effect is already there:
            // recovery stays idempotent.
            WalRecord::DeleteId { table, id } => {
                let t = self.table(&table)?;
                t.remove_index_entries(id)?;
                t.heap.delete(id);
                Ok(())
            }
        }
    }

    /// Fault injection: makes every subsequent WAL append (and staged
    /// frame write) fail, to exercise commit rollback. A hook for
    /// `tests/durability.rs`.
    #[doc(hidden)]
    pub fn fail_wal_appends(&self, fail: bool) {
        if let Some(d) = self.durability.read().as_ref() {
            d.wal.set_fail_appends(fail);
        }
    }
}

//! Durability: a snapshot and the write-ahead log cut against it.
//!
//! An engine with durability attached keeps two files in one directory:
//! the atomic snapshot ([`SNAPSHOT_FILE`], in [`crate::persist`]'s
//! format), which holds every table and index, and the log of every row
//! change since ([`WAL_FILE`]), both stamped with one generation. Three
//! steps do all the work here:
//!
//! * **The cut** ([`SpatialDb::cut`]): under the writer lock, a vacuum,
//!   then the snapshot streamed at a new generation. Checkpoints,
//!   attaches, schema changes and the fold at the end of a replaying open
//!   all cut this way, so no image holds half a statement or lists a
//!   table dropped beside it.
//! * **The schema change** ([`SpatialDb::change_schema`]): CREATE TABLE,
//!   CREATE INDEX, DROP TABLE and DROP INDEX, each applied and then cut
//!   into the snapshot before any writer can log. The log never names a
//!   table or an index it does not find in the snapshot it is cut
//!   against.
//! * **The attach** ([`SpatialDb::attach`]): the directory created, the
//!   durability lock taken, a cut if one is due, then a fresh log at the
//!   same generation installed — `open_durable` and `set_durability`.
//!
//! Lock order: `durability` → writer lock → the table registry → a
//! table's `indexes` → its heap locks.
//! Writers hold `durability`'s read side across apply + log, so a schema
//! change, an attach or a checkpoint (its write side) never cuts between
//! a statement and its record, nor truncates staged-but-unsynced frames.

use crate::db::{EngineError, SpatialDb};
use crate::wal::{Logged, Wal};
use crate::{EngineProfile, Result};
use jackpine_obs::TxnSite;
use std::path::{Path, PathBuf};
use std::sync::{Arc, MutexGuard};

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
        // A checksum-valid record that does not apply (a tuple that does
        // not check, a slot taken) is corruption, as in a snapshot.
        let replay = Wal::replay(dir.join(WAL_FILE), snap_gen, |rec| {
            db.apply_wal_record(rec).map_err(|e| match e {
                EngineError::Persist(_) => e,
                other => EngineError::Persist(format!("WAL: unreplayable record: {other}")),
            })
        })?;
        let fold = replay.records > 0;
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
        db.attach(dir, opts, gen, cut)?;
        Ok(db)
    }

    /// Attaches durability to an already-loaded database: writes a
    /// snapshot under `dir` and opens a fresh WAL that every subsequent
    /// `INSERT`, `UPDATE` and `DELETE` appends to (a schema change is cut
    /// into the snapshot instead). `None` detaches, returning the
    /// instance to purely in-memory operation.
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
            self.cut(&self.txn.lock_writers(TxnSite::Checkpoint), dir, gen)?;
        }
        let mut wal = Wal::create(dir.join(WAL_FILE), opts.sync_each_append, gen)?;
        wal.set_metrics(self.metrics.clone());
        *durability = Some(DurabilityState { wal, dir: dir.to_path_buf(), generation: gen });
        Ok(())
    }

    /// The one snapshot cut: under the caller's writer lock — no
    /// statement mid-apply, no table or index dropping — vacuums, so the
    /// image never re-persists a row no snapshot can see, then streams the
    /// snapshot stamped `gen` into `dir`. The caller holds the durability
    /// write lock, which already excludes committed-but-unsynced frames.
    fn cut(&self, writers: &MutexGuard<'_, ()>, dir: &Path, gen: u64) -> Result<()> {
        self.vacuum(writers)?;
        self.save_gen(dir.join(SNAPSHOT_FILE), gen)
    }

    /// The step that ends a checkpoint and every schema change: cuts the
    /// snapshot at the next generation, then restarts the log, empty, at
    /// that generation. `on_failed_cut` runs when the cut fails, before its
    /// error is returned; a failed restart of the log leaves the new
    /// snapshot in place.
    fn next_generation(
        &self,
        d: &mut DurabilityState,
        writers: &MutexGuard<'_, ()>,
        on_failed_cut: impl FnOnce(),
    ) -> Result<()> {
        let gen = d.generation + 1;
        if let Err(e) = self.cut(writers, &d.dir, gen) {
            on_failed_cut();
            return Err(e);
        }
        d.wal.reset(gen)?;
        d.generation = gen;
        Ok(())
    }

    /// The one schema change — CREATE TABLE, CREATE INDEX, DROP TABLE,
    /// DROP INDEX. Under the durability write lock, then the writer lock
    /// (its wait charged to [`TxnSite::Ddl`]), `apply` makes the change and
    /// cached plans are restaled; with durability attached the change is
    /// then cut into the snapshot ([`SpatialDb::next_generation`]) before
    /// any writer can log. When the cut fails, `undo` takes the change back
    /// out under the same locks and the cut's error is returned; a drop
    /// passes an `undo` that does nothing, so it stays applied in memory
    /// while the snapshot on disk keeps the object. What `apply` returns is
    /// handed back after the locks are released, so a dropped object is
    /// freed outside them.
    pub(crate) fn change_schema<T>(
        &self,
        apply: impl FnOnce() -> Result<T>,
        undo: impl FnOnce(&T),
    ) -> Result<T> {
        let mut durability = self.durability.write();
        let writers = self.txn.lock_writers(TxnSite::Ddl);
        let changed = apply()?;
        self.bump_ddl_gen();
        if let Some(d) = durability.as_mut() {
            self.next_generation(d, &writers, || {
                undo(&changed);
                self.bump_ddl_gen();
            })?;
        }
        Ok(changed)
    }

    /// The durability directory, when durability is attached: a hook for
    /// `tests/durability.rs`.
    pub fn durability_dir(&self) -> Option<PathBuf> {
        self.durability.read().as_ref().map(|d| d.dir.clone())
    }

    /// Folds all logged writes into a fresh atomic snapshot and truncates
    /// the WAL. A no-op without attached durability. Every schema change
    /// ends with the same step (`SpatialDb::change_schema`).
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
            self.next_generation(d, &self.txn.lock_writers(TxnSite::Checkpoint), || ())?;
        }
        Ok(())
    }

    /// Flushes dirty pool frames and reclaims what no snapshot needs.
    pub fn close(&self) -> Result<()> {
        self.vacuum(&self.txn.lock_writers(TxnSite::Checkpoint))?;
        self.pool.flush().map_err(|e| EngineError::Persist(format!("pool flush: {e}")))
    }

    /// Redoes one replayed row change over the snapshot, which holds
    /// every table and index the log names. Replay runs before a WAL is
    /// attached and before any concurrent session exists, so records
    /// apply through unlogged, generation-free paths (rows are reborn
    /// visible-everywhere; the snapshot that follows settles them).
    fn apply_wal_record(&self, rec: Logged<'_>) -> Result<()> {
        match rec {
            // Back into the exact slot it was logged at, so later
            // `DeleteId` records (and index entries) address the right
            // row even among byte-identical duplicates. The slot and the
            // index entries take the log's bytes, checked in place: no row
            // is built, and a frame keeps only what a read decoded.
            Logged::InsertAt { table, id, tuple } => {
                let t = self.table(table)?;
                t.heap.place_tuple(tuple, id, 0)?;
                t.index_tuples([(id, tuple)], true)
            }
            // A missing row means the record's effect is already there:
            // recovery stays idempotent.
            Logged::DeleteId { table, id } => {
                let t = self.table(table)?;
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

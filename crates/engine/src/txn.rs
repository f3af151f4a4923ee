//! The write seam: one writer at a time, readers on pinned generations.
//!
//! [`Transactions`] is the engine's MVCC state — the published commit
//! generation, the writer lock, the registry of pinned snapshots, the
//! queue of dead rows awaiting reclaim, the group-commit pipeline — and
//! [`WriteTxn`] is the one path every INSERT, UPDATE and DELETE takes
//! through it:
//!
//! 1. [`WriteTxn::begin`] takes the durability read guard, then the
//!    writer lock (its wait charged to the statement's site), vacuums,
//!    and fixes `gen = commit_gen + 1`.
//! 2. [`WriteTxn::insert`] and [`WriteTxn::kill`] apply to heap and
//!    indexes stamped `gen` — which no reader is pinned at yet, so none
//!    sees them — and remember the ids inserted, with the bytes they
//!    wrote, and the ids killed. `insert` takes a batch of rows whose
//!    values are lent ([`Lend`]): each is checked and encoded straight
//!    into the staging buffer (with a log, as the tail of its record),
//!    and each page's worth is applied as one run — the heap appends it
//!    with one take of its append lock and of each tail frame, the
//!    indexes take it under one lock — while the log keeps the same bytes
//!    in place. No `Row` is kept. `kill` takes a statement's victims.
//! 3. [`WriteTxn::commit`] stages those records as one WAL frame, with
//!    one write, queues the kills as one entry for reclaim, publishes
//!    `gen` with one store, settles, releases the writer lock and *only
//!    then* waits for the group fsync (followers park behind their batch
//!    leader; a parked writer lock would serialise them), the durability
//!    guard still held, so no checkpoint truncates staged-but-unsynced frames.
//! 4. Dropping an uncommitted `WriteTxn` — any `?` on the way there —
//!    undoes what was applied *before* the writer lock is released (the
//!    next writer never finds half a statement): the inserts leave as one
//!    run, newest first, off the transaction's own copy of their bytes.
//!
//! Lock order: `durability` (read) → writer lock → `snapshots` /
//! `pending_reclaim` / the table registry → a table's `indexes` → its
//! heap locks. The registry's lock is held only for a lookup.

use crate::catalog::Table;
use crate::commit::CommitPipeline;
use crate::db::SpatialDb;
use crate::durable::DurabilityState;
use crate::wal;
use crate::Result;
use jackpine_obs::{EngineMetrics, TxnSite};
use jackpine_sqlmini::provider::SnapshotHandle;
use jackpine_storage::sync::Mutex;
use jackpine_storage::{Lend, Row, RowId, StorageError, Value, PAGE_SIZE};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, MutexGuard, RwLockReadGuard, Weak};
use std::time::{Duration, Instant};

/// Book-keeping for one pinned snapshot generation.
struct SnapshotEntry {
    /// Live reader pins on this generation.
    readers: usize,
    /// When the generation was first pinned; drives the
    /// oldest-snapshot-age gauge and `jp_snapshots.age_ms`.
    first_pinned: Instant,
}

/// One statement's logically-deleted rows, whose physical storage (heap
/// bytes + index entries) survives until no snapshot can see them. The
/// queue does not keep its table alive: a dropped table's heap is freed
/// at the drop, and its deaths go with it.
struct Deaths {
    table: Weak<Table>,
    died: u64,
    ids: Vec<RowId>,
}

/// The engine's transaction state (see the module note). Behind an `Arc`
/// in the engine: snapshot guards and the table adapters of cached plans
/// share it, and must not hold the engine.
pub(crate) struct Transactions {
    /// The newest published commit generation. One atomic store makes a
    /// whole statement visible, so readers never observe half of one.
    commit_gen: AtomicU64,
    /// The writer lock: one mutating statement at a time. Readers never
    /// take it — they pin a generation instead.
    writers: Mutex<()>,
    /// Pinned snapshot generations. The minimum key is the vacuum
    /// horizon: no logically-deleted row younger than it can be
    /// physically reclaimed.
    snapshots: Mutex<HashMap<u64, SnapshotEntry>>,
    /// Drained by [`SpatialDb::vacuum`] at the head of every write
    /// transaction, checkpoint and close.
    pending_reclaim: Mutex<Vec<Deaths>>,
    /// Batches WAL fsyncs across sessions.
    pipeline: CommitPipeline,
    metrics: Arc<EngineMetrics>,
}

impl Transactions {
    pub(crate) fn new(metrics: Arc<EngineMetrics>) -> Transactions {
        Transactions {
            commit_gen: AtomicU64::new(0),
            writers: Mutex::new(()),
            snapshots: Mutex::new(HashMap::new()),
            pending_reclaim: Mutex::new(Vec::new()),
            pipeline: CommitPipeline::new(),
            metrics,
        }
    }

    /// The newest published commit generation.
    pub(crate) fn generation(&self) -> u64 {
        self.commit_gen.load(Ordering::Acquire)
    }

    /// `(generation, readers, age)` per pinned generation, sorted by
    /// generation.
    pub(crate) fn snapshot_pins(&self) -> Vec<(u64, usize, Duration)> {
        let snapshots = self.snapshots.lock();
        let mut out: Vec<(u64, usize, Duration)> =
            snapshots.iter().map(|(gen, e)| (*gen, e.readers, e.first_pinned.elapsed())).collect();
        drop(snapshots);
        out.sort_unstable_by_key(|(gen, ..)| *gen);
        out
    }

    /// Logically-deleted rows awaiting physical reclaim.
    pub(crate) fn pending_reclaim_len(&self) -> usize {
        self.pending_reclaim.lock().iter().map(|d| d.ids.len()).sum()
    }

    /// Pins the current commit generation until the guard drops.
    pub(crate) fn pin(self: &Arc<Self>) -> Arc<SnapshotGuard> {
        let pinned = Instant::now();
        let mut snapshots = self.snapshots.lock();
        let gen = self.generation();
        snapshots
            .entry(gen)
            .or_insert_with(|| SnapshotEntry { readers: 0, first_pinned: pinned })
            .readers += 1;
        drop(snapshots);
        Arc::new(SnapshotGuard { txn: self.clone(), gen, pinned })
    }

    /// The writer lock, its wait charged to `site` — the crate's only
    /// acquisition. While it is held no statement applies or publishes
    /// and no vacuum reclaims, so every id a snapshot cut lists is still
    /// there when the cut streams it.
    pub(crate) fn lock_writers(&self, site: TxnSite) -> MutexGuard<'_, ()> {
        let (writers, waited) = self.writers.lock_timed();
        self.metrics.record_txn_wait(site, waited);
        writers
    }

    /// The vacuum horizon: the oldest pinned generation, if any.
    fn horizon(&self) -> Option<u64> {
        self.snapshots.lock().keys().copied().min()
    }
}

/// A statement-scoped snapshot pin. Holds one refcount on its commit
/// generation in the snapshot registry; while any guard for a generation
/// is alive, vacuum will not physically reclaim rows that generation can
/// see.
pub struct SnapshotGuard {
    txn: Arc<Transactions>,
    gen: u64,
    /// When this pin was taken; its lifetime feeds the
    /// `snapshot_pin_ns` wait histogram on drop.
    pinned: Instant,
}

impl SnapshotHandle for SnapshotGuard {
    fn generation(&self) -> u64 {
        self.gen
    }
}

impl std::fmt::Debug for SnapshotGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotGuard").field("gen", &self.gen).finish()
    }
}

impl Drop for SnapshotGuard {
    fn drop(&mut self) {
        self.txn.metrics.record_snapshot_pin(self.pinned.elapsed());
        let mut snapshots = self.txn.snapshots.lock();
        if let Some(e) = snapshots.get_mut(&self.gen) {
            e.readers -= 1;
            if e.readers == 0 {
                snapshots.remove(&self.gen);
            }
        }
    }
}

impl SpatialDb {
    /// Inserts `rows` into `table` programmatically, maintaining any
    /// indexes, as one write transaction: readers, the log and a snapshot
    /// cut see all of them or none. A row is any slice of values the
    /// engine can borrow: a [`Row`], or an array of
    /// [`ValueRef`](jackpine_storage::ValueRef)s a producer lends from its
    /// own records. Each is encoded as it arrives and let go, so an open
    /// batch holds its rows' bytes, not the rows. Returns their ids, in
    /// order.
    pub fn insert_rows<V: Lend>(
        &self,
        table: &str,
        rows: impl IntoIterator<Item = impl AsRef<[V]>>,
    ) -> Result<Vec<RowId>> {
        let mut txn = WriteTxn::begin(self, TxnSite::Insert, table)?;
        let ids = txn.insert(rows)?;
        txn.commit()?;
        Ok(ids)
    }

    /// [`SpatialDb::insert_rows`] of one row: staged to the WAL before it
    /// is published, fsynced through the group-commit pipeline.
    pub fn insert_row(&self, table: &str, row: Row) -> Result<RowId> {
        Ok(self.insert_rows(table, [row])?[0])
    }

    /// Physically reclaims the logically-deleted rows no snapshot can
    /// see, a statement's as one run: index entries first, then the heap
    /// bytes — probe-side visibility filtering depends on that order.
    /// `_writers` is the proof the writer lock is held. A row that cannot
    /// be read keeps its whole entry queued, and everything behind it.
    pub(crate) fn vacuum(&self, _writers: &MutexGuard<'_, ()>) -> Result<()> {
        let mut pending = self.txn.pending_reclaim.lock();
        if pending.is_empty() {
            return Ok(());
        }
        // A row that died at generation d is invisible to every snapshot
        // pinned at or after d; new pins always take the current commit
        // generation, which is >= every recorded death.
        let horizon = self.txn.horizon().unwrap_or(u64::MAX);
        let mut result = Ok(());
        pending.retain(|d| {
            if d.died > horizon || result.is_err() {
                return true;
            }
            // A dropped table is gone with its heap; so are its deaths.
            let Some(t) = d.table.upgrade() else { return false };
            result = t.unindex(&d.ids).map(|()| d.ids.iter().for_each(|&id| t.heap.reclaim(id)));
            result.is_err()
        });
        result
    }
}

impl Table {
    /// Strips the index entries of the rows at `ids` as one run, off
    /// their tuple bytes, copied by one scan into one buffer so that no
    /// page lock is held while the index lock is taken. Only a row that is
    /// not there counts as already done; a row that cannot be read is an
    /// error, not a row without entries, and no entry of the run is stripped.
    pub(crate) fn unindex(&self, ids: &[RowId]) -> Result<()> {
        let (mut bytes, mut run, mut rest) = (Vec::new(), Vec::new(), ids);
        loop {
            let read = run.len();
            match self.heap.scan_tuples(rest, |id, tuple| {
                run.push((id, bytes.len()..bytes.len() + tuple.len()));
                bytes.extend_from_slice(tuple);
                Ok::<(), StorageError>(())
            }) {
                Ok(()) => break,
                // The scan stops at the missing row, after the rows read.
                Err(StorageError::RowNotFound { .. }) => rest = &rest[run.len() - read + 1..],
                Err(e) => return Err(e.into()),
            }
        }
        self.index_tuples(run.into_iter().map(|(id, t)| (id, &bytes[t])), false)
    }
}

/// One mutating statement on one table (see the module note).
pub(crate) struct WriteTxn<'a> {
    db: &'a SpatialDb,
    /// `None` once [`WriteTxn::commit`] has released it.
    writers: Option<MutexGuard<'a, ()>>,
    durability: RwLockReadGuard<'a, Option<DurabilityState>>,
    /// The table as the statement spelled it, which is how it is logged.
    name: &'a str,
    table: Arc<Table>,
    gen: u64,
    /// The transaction's own copy of what it wrote. With a log attached,
    /// the one frame `commit` stages: room for its header, then a record
    /// per applied change, each insert's tuple the tail of its record;
    /// without one, each insert's tuple.
    staged: Vec<u8>,
    /// The rows inserted, in order, each with its tuple's place in
    /// `staged`, the first `indexed` of them with their index entries in.
    inserted: Vec<(RowId, Range<usize>)>,
    indexed: usize,
    /// The rows killed, in order, none of them a row of `inserted`.
    killed: Vec<RowId>,
}

impl<'a> WriteTxn<'a> {
    /// Opens the statement. The table is looked up under the writer
    /// lock, which DROP TABLE takes too: a table that is found is there
    /// until this transaction ends.
    pub(crate) fn begin(db: &'a SpatialDb, site: TxnSite, name: &'a str) -> Result<Self> {
        let durability = db.durability.read();
        let writers = db.txn.lock_writers(site);
        db.vacuum(&writers)?;
        let table = db.table(name)?;
        let staged = match *durability {
            Some(_) => vec![0; wal::FRAME_OVERHEAD],
            None => Vec::new(),
        };
        Ok(WriteTxn {
            db,
            writers: Some(writers),
            durability,
            name,
            table,
            gen: db.txn.generation() + 1,
            staged,
            inserted: Vec::new(),
            indexed: 0,
            killed: Vec::new(),
        })
    }

    /// The statement's table.
    pub(crate) fn table(&self) -> &Table {
        &self.table
    }

    /// Inserts `rows`, born at this transaction's generation, and returns
    /// their ids in order. Each row is checked and encoded straight into
    /// `staged` — with a log, as the tail of its record, whose id is
    /// filled in once the heap has placed the row — and nothing else is
    /// built. Every page's worth of staged rows is applied as one run
    /// ([`WriteTxn::apply`]). A row that does not fit the schema fails
    /// the call with the runs before it applied; after any error the
    /// transaction is only fit to be dropped.
    pub(crate) fn insert<V: Lend>(
        &mut self,
        rows: impl IntoIterator<Item = impl AsRef<[V]>>,
    ) -> Result<Vec<RowId>> {
        let (mut ids, mut run) = (Vec::new(), Vec::new());
        for row in rows {
            let row = row.as_ref();
            self.table.schema().check_row(row)?;
            if self.durability.is_some() {
                wal::put_insert_at(&mut self.staged, self.name, RowId { page: 0, slot: 0 }, &[]);
            }
            let start = self.staged.len();
            Value::store_row_into(row, &mut self.staged);
            run.push(start..self.staged.len());
            if self.staged.len() - run[0].start >= PAGE_SIZE {
                self.apply(&mut run, &mut ids)?;
            }
        }
        self.apply(&mut run, &mut ids)?;
        Ok(ids)
    }

    /// Applies the staged tuples `run` and empties it: the heap appends
    /// them with one take of its append lock and of each tail frame
    /// ([`HeapFile::insert_tuples`]), their ids go into their records and
    /// onto `ids`, and their index entries go in under one lock — all off
    /// the same bytes.
    ///
    /// [`HeapFile::insert_tuples`]: jackpine_storage::HeapFile::insert_tuples
    fn apply(&mut self, run: &mut Vec<Range<usize>>, ids: &mut Vec<RowId>) -> Result<()> {
        if run.is_empty() {
            return Ok(());
        }
        let placed = self.table.heap.insert_tuples(&self.staged, run, self.gen)?;
        for (&id, tuple) in placed.iter().zip(run.iter()) {
            if self.durability.is_some() {
                wal::set_insert_id(&mut self.staged, tuple.start, id);
            }
            self.inserted.push((id, tuple.clone()));
        }
        let tuples = placed.iter().zip(run.iter()).map(|(&id, t)| (id, &self.staged[t.clone()]));
        self.table.index_tuples(tuples, true)?;
        self.indexed = self.inserted.len();
        ids.extend(placed);
        run.clear();
        Ok(())
    }

    /// Marks the statement's victims `ids` — rows that were there before
    /// it, never ones it inserted — dead at this transaction's generation.
    /// Their bytes and index entries stay for the snapshots that still see
    /// them, until vacuum.
    pub(crate) fn kill(&mut self, ids: impl IntoIterator<Item = RowId>) {
        for id in ids {
            self.table.heap.mark_deleted(id, self.gen);
            if self.durability.is_some() {
                wal::put_delete_id(&mut self.staged, self.name, id);
            }
            self.killed.push(id);
        }
    }

    /// Logs, publishes, and makes durable what was applied. A log write
    /// that fails rolls the statement back (by `drop`); an fsync that
    /// fails is reported after the statement is visible.
    pub(crate) fn commit(mut self) -> Result<()> {
        let txn = &self.db.txn;
        if let Some(d) = self.durability.as_ref() {
            d.wal.write_txn(&mut self.staged, (self.inserted.len() + self.killed.len()) as u64)?;
        }
        let (gen, ids) = (self.gen, std::mem::take(&mut self.killed));
        if !ids.is_empty() {
            let deaths = Deaths { table: Arc::downgrade(&self.table), died: gen, ids };
            txn.pending_reclaim.lock().push(deaths);
        }
        txn.commit_gen.store(gen, Ordering::Release);
        // Settle: prune the visibility metadata just published when no
        // older snapshot still needs it — keeps the metadata-free fast
        // path hot under single-session DML streams.
        self.table.heap.settle(txn.horizon().map_or(gen, |h| h.min(gen)));
        drop(self.writers.take());
        match self.durability.as_ref() {
            Some(d) if d.wal.sync_enabled() => txn.pipeline.commit(|| d.wal.sync(), &txn.metrics),
            _ => Ok(()),
        }
    }
}

impl Drop for WriteTxn<'_> {
    /// Rollback: nothing applied was published, so no reader saw it;
    /// undone with the writer lock (a field) still held.
    fn drop(&mut self) {
        // Committed (the lock released): nothing to undo. Else index entries
        // before heap slots, off the rows' bytes in `staged`, never their
        // pages, which a bounded pool may have evicted. Only rows whose
        // entries went in are read, as the insert read them.
        let Some(_held) = &self.writers else { return };
        let (staged, heap) = (&self.staged, &self.table.heap);
        let rows = self.inserted[..self.indexed].iter().rev();
        let _ = self.table.index_tuples(rows.map(|(id, t)| (*id, &staged[t.clone()])), false);
        self.inserted.iter().rev().for_each(|&(id, _)| _ = heap.delete(id));
        self.killed.iter().rev().for_each(|&id| _ = heap.revive(id));
    }
}

#[cfg(test)]
mod tests {
    use crate::{EngineProfile, SpatialDb};
    use jackpine_storage::{Lend, Row, RowId, StorageError, Value, ValueRef};
    use std::sync::Arc;

    /// The stored bytes of `ids`, in order.
    fn stored(db: &SpatialDb, table: &str, ids: &[RowId]) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        let heap = &db.table(table).unwrap().heap;
        heap.scan_tuples(ids, |_, bytes| {
            out.push(bytes.to_vec());
            Ok::<(), StorageError>(())
        })
        .unwrap();
        out
    }

    #[test]
    fn insert_rows_stores_exactly_the_encoded_rows_owned_or_lent() {
        let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
        for t in ["owned", "lent"] {
            db.execute(&format!("CREATE TABLE {t} (i BIGINT, f DOUBLE, s TEXT, g GEOMETRY)"))
                .unwrap();
            db.create_spatial_index(t, "g").unwrap();
            db.create_ordered_index(t, "s").unwrap();
        }
        let g = |wkt: &str| Value::Geom(jackpine_geom::wkt::parse(wkt).unwrap());
        let holes = "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 4 2, 4 4, 2 4, 2 2), \
                     (6 6, 8 6, 8 8, 6 8, 6 6))";
        let full =
            vec![Value::Int(-7), Value::Float(0.1 + 0.2), Value::Text("Oak St".into()), g(holes)];
        let mut rows: Vec<Row> = (0..full.len())
            .map(|col| {
                let mut row = full.clone();
                row[col] = Value::Null;
                row
            })
            .collect();
        rows.push(full.clone());
        rows.push(vec![Value::Null; 4]);
        for empty in ["POINT EMPTY", "LINESTRING EMPTY", "GEOMETRYCOLLECTION EMPTY"] {
            rows.push(vec![Value::Int(1), Value::Int(2), Value::Text(String::new()), g(empty)]);
        }
        let want: Vec<Vec<u8>> = rows.iter().map(|r| Value::store_row(r)).collect();

        let ids = db.insert_rows("owned", rows.clone()).unwrap();
        assert!(stored(&db, "owned", &ids) == want, "owned rows stored other bytes");
        let lent: Vec<Vec<ValueRef<'_>>> =
            rows.iter().map(|r| r.iter().map(Lend::lend).collect()).collect();
        let ids = db.insert_rows("lent", &lent).unwrap();
        assert!(stored(&db, "lent", &ids) == want, "lent rows stored other bytes");
        for t in ["owned", "lent"] {
            let hit = db.execute(&format!("SELECT COUNT(*) FROM {t} WHERE s = 'Oak St'")).unwrap();
            assert_eq!(hit.scalar().unwrap().as_i64(), Some(4), "{t}: ordered index entries");
        }
    }

    #[test]
    fn a_lent_non_ascii_text_is_found_by_sql_through_the_ordered_index() {
        let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
        db.execute("CREATE TABLE t (i BIGINT, s TEXT)").unwrap();
        db.create_ordered_index("t", "s").unwrap();
        db.insert_rows("t", [[ValueRef::Int(1), ValueRef::Text("ß·x")]]).unwrap();
        db.execute("INSERT INTO t VALUES (2, 'ß·x')").unwrap();
        let before = db.metrics_snapshot();
        let hit = db.execute("SELECT i FROM t WHERE s = 'ß·x' ORDER BY i").unwrap();
        let probes = db.metrics_snapshot().delta_since(&before).counter("index_probes");
        assert_eq!(probes, 1, "the lookup goes through the ordered index");
        let ids: Vec<_> = hit.rows.iter().map(|r| r[0].as_i64()).collect();
        assert_eq!(ids, [Some(1), Some(2)], "both rows hold the same text");
        let text = db.execute("SELECT s FROM t WHERE i = 2").unwrap();
        assert_eq!(text.scalar(), Some(&Value::Text("ß·x".into())));
    }
}

//! Heap files: unordered collections of rows in slotted pages pinned
//! through the shared [`BufferPool`], with a decoded-row cache that the
//! benchmark's cold mode can evict.
//!
//! # Out-of-core layout
//!
//! Rows live in slotted 8 KiB pages registered as one page file in the
//! heap's buffer pool. Every page access goes through
//! [`BufferPool::pin`]; a bounded pool evicts cold pages (writing dirty
//! ones back to the backing store) and reloads them on demand, so the
//! heap no longer has to fit in memory. All readers copy rows out while
//! holding the pin, so no reference ever outlives a frame.
//!
//! # Row visibility (MVCC)
//!
//! Each row optionally carries a `(born, died)` generation pair in a
//! side table. A reader pinned at generation `g` sees exactly the rows
//! with `born <= g && died > g`; rows without an entry are visible at
//! every generation. Writers stamp new rows with their commit
//! generation ([`HeapFile::insert_at`]) and delete logically
//! ([`HeapFile::mark_deleted`]) so concurrent snapshot readers keep
//! seeing the old version until every snapshot that could need it is
//! gone — at which point [`HeapFile::reclaim`] tombstones the bytes and
//! [`HeapFile::settle`] prunes entries the visibility horizon has
//! passed, restoring the metadata-free fast path. Slots are never
//! reused by normal inserts (deletes tombstone, inserts append), so a
//! `RowId` names one row version forever; only WAL replay
//! ([`HeapFile::place_at`]) and snapshot load ([`HeapFile::place_tuple`])
//! write to explicit slots, reproducing ids recorded on disk.
//!
//! # Lock order
//!
//! The append path holds a page **write** guard while publishing the
//! row's visibility entry (meta lock), so the meta lock nests *inside*
//! page pins. Readers must therefore never hold the meta lock while
//! pinning a page: scan paths first collect physically-present ids
//! under individual pins, drop them, and only then consult the meta
//! table — any row whose bytes they observed has its entry published
//! by the time the page guard was released.

use crate::pool::BufferPool;
use crate::sync::{Mutex, RwLock};
use crate::{Result, Row, Schema, StorageError, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// A stable row address: page number plus slot within the page.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId {
    /// Page index in the heap.
    pub page: u32,
    /// Slot within the page.
    pub slot: u16,
}

/// Cache and access counters, for the benchmark's instrumentation.
#[derive(Clone, Copy, Debug, Default)]
pub struct HeapStats {
    /// Row fetches served from the decoded-row cache.
    pub cache_hits: u64,
    /// Row fetches that had to decode from the page bytes.
    pub cache_misses: u64,
}

/// Shards in the decoded-row cache. The morsel executor fetches rows
/// from many worker threads at once; sharding the cache lock by row id
/// keeps those fetches from serializing on one mutex.
const CACHE_SHARDS: usize = 16;

/// One shard of the row cache.
type RowCacheShard = Mutex<HashMap<RowId, Arc<Row>>>;
/// One shard of the MBR quad cache, keyed by `(row, column)`.
type MbrCacheShard = Mutex<HashMap<(RowId, usize), Option<[f64; 4]>>>;

/// A heap file: buffer-pool-resident pages of serialized rows plus a
/// decoded-row cache.
///
/// All methods take `&self`; interior locks make the heap shareable across
/// the benchmark driver's worker threads.
#[derive(Debug)]
pub struct HeapFile {
    schema: Arc<Schema>,
    /// The pool every page access pins through. Shared with the rest of
    /// the engine when constructed via [`HeapFile::with_pool`].
    pool: Arc<BufferPool>,
    /// This heap's page-file id within the pool.
    file: u64,
    /// Pages materialized so far (monotone; scans iterate `0..npages`).
    npages: AtomicU32,
    /// Serializes appends: the page-full check and new-page creation
    /// must be atomic with respect to other appenders.
    append: Mutex<()>,
    cache: [RowCacheShard; CACHE_SHARDS],
    /// Per-(row, column) geometry MBR quads, gathered batch-wise by the
    /// vectorized executor. Computing an envelope walks every coordinate
    /// of the geometry, so caching the 32-byte quad here turns the
    /// executor's MBR-column gather into an O(1) copy per row. Sharded
    /// like the row cache; invalidated with it.
    mbr_cache: [MbrCacheShard; CACHE_SHARDS],
    /// Per-row `(born, died)` visibility generations. Absent = visible
    /// at every generation. Kept small by [`HeapFile::settle`]: when
    /// empty, every visibility query takes the metadata-free fast path.
    meta: RwLock<HashMap<RowId, (u64, u64)>>,
    row_count: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Reclaim begin/end counters. Lock-free readers capture
    /// [`HeapFile::reclaim_epoch`] before collecting row ids, take the
    /// cheap metadata-only classification pass, and re-check both
    /// counters afterwards: equality proves no reclaim overlapped the
    /// read, so no id can have lost its metadata entry (and thereby
    /// misread as settled-visible) mid-pass. Vacuum is rare, so the
    /// expensive re-verification almost never runs.
    reclaims_started: AtomicU64,
    reclaims_finished: AtomicU64,
}

/// `died` value of a live row: visible to every future generation.
const LIVE: u64 = u64::MAX;

impl HeapFile {
    /// Creates an empty heap for rows of `schema`, backed by a private
    /// unbounded pool (tests and standalone use; engines share one pool
    /// via [`HeapFile::with_pool`]).
    pub fn new(schema: Arc<Schema>) -> HeapFile {
        HeapFile::with_pool(schema, Arc::new(BufferPool::new()))
    }

    /// Creates an empty heap whose pages live in `pool`.
    pub fn with_pool(schema: Arc<Schema>, pool: Arc<BufferPool>) -> HeapFile {
        let file = pool.register("heap");
        HeapFile {
            schema,
            pool,
            file,
            npages: AtomicU32::new(1),
            append: Mutex::new(()),
            cache: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            mbr_cache: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            meta: RwLock::new(HashMap::new()),
            row_count: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            reclaims_started: AtomicU64::new(0),
            reclaims_finished: AtomicU64::new(0),
        }
    }

    /// The buffer pool this heap pins pages through.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Pages materialized so far.
    pub fn page_count(&self) -> u32 {
        self.npages.load(Ordering::Relaxed)
    }

    fn cache_shard(&self, id: RowId) -> &RowCacheShard {
        // Consecutive slots land in different shards, so a scan's worker
        // threads spread their lock traffic.
        &self.cache
            [(id.page as usize).wrapping_mul(31).wrapping_add(id.slot as usize) % CACHE_SHARDS]
    }

    fn mbr_shard(&self, id: RowId) -> &MbrCacheShard {
        &self.mbr_cache
            [(id.page as usize).wrapping_mul(31).wrapping_add(id.slot as usize) % CACHE_SHARDS]
    }

    /// Drops any cached MBR quads for `id`. Slots are never reused by
    /// appends, so only deletion and replay-time placement must
    /// invalidate.
    fn invalidate_mbrs(&self, id: RowId) {
        let ncols = self.schema.columns().len();
        let mut shard = self.mbr_shard(id).lock();
        for col in 0..ncols {
            shard.remove(&(id, col));
        }
    }

    /// The row schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.row_count.load(Ordering::Relaxed) as usize
    }

    /// `true` when the heap holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Validates and appends a row visible at every generation; returns
    /// its id.
    pub fn insert(&self, row: Row) -> Result<RowId> {
        self.insert_at(row, 0)
    }

    /// Validates and appends a row born at generation `born` (`0` =
    /// visible since the beginning); returns its id. The row is
    /// invisible to snapshot readers pinned before `born` and becomes
    /// visible to later snapshots once the owning transaction publishes
    /// that generation.
    pub fn insert_at(&self, row: Row, born: u64) -> Result<RowId> {
        self.schema.check_row(&row)?;
        let bytes = Value::encode_row(&row);
        let _append = self.append.lock();
        let last = self.npages.load(Ordering::Relaxed).saturating_sub(1);
        let mut target = last;
        let mut pin = self.pool.pin(self.file, target);
        if !pin.read().fits(bytes.len()) {
            drop(pin);
            target = last + 1;
            self.npages.store(target + 1, Ordering::Relaxed);
            pin = self.pool.pin(self.file, target);
        }
        let id = {
            let mut guard = pin.write();
            let slot = guard.insert(&bytes);
            let id = RowId { page: target, slot };
            if born > 0 {
                // Publish the visibility entry while still holding the
                // page write guard (lock order: pins before meta): a
                // concurrent scan can only observe the new bytes after
                // this guard drops, by which time the entry gating them
                // is in place — an unpublished row can never leak into
                // an older snapshot.
                self.meta.write().insert(id, (born, LIVE));
            }
            id
        };
        drop(pin);
        self.row_count.fetch_add(1, Ordering::Relaxed);
        // Slots are never reused by appends, so no stale cache entry can
        // exist for this id; just warm the row cache.
        self.cache_shard(id).lock().insert(id, Arc::new(row));
        Ok(id)
    }

    /// Writes a row into a *specific* slot — WAL replay and snapshot
    /// load, which must reproduce `RowId`s recorded on disk exactly.
    /// Idempotent: re-placing the identical bytes at the same id is a
    /// no-op, so a crash between replay and checkpoint replays cleanly.
    ///
    /// # Errors
    /// [`StorageError::Corrupt`] when the slot holds a *different* live
    /// row; schema errors as for [`HeapFile::insert`].
    pub fn place_at(&self, row: Row, id: RowId, born: u64) -> Result<()> {
        let bytes = Value::encode_row(&row);
        self.place_tuple(&bytes, row, id, born)
    }

    /// [`HeapFile::place_at`] for a caller that already holds the row's
    /// stored form: `bytes` go into the slot as they are and `row`, which
    /// the caller decoded from exactly those bytes, warms the row cache.
    /// Snapshot load uses it to put back the tuple it read instead of
    /// re-encoding the row it validated.
    pub fn place_tuple(&self, bytes: &[u8], row: Row, id: RowId, born: u64) -> Result<()> {
        self.schema.check_row(&row)?;
        let _append = self.append.lock();
        if self.npages.load(Ordering::Relaxed) <= id.page {
            self.npages.store(id.page + 1, Ordering::Relaxed);
        }
        let pin = self.pool.pin(self.file, id.page);
        {
            let mut guard = pin.write();
            if let Ok(existing) = guard.get(id.slot) {
                if existing == bytes {
                    return Ok(()); // already applied
                }
                return Err(StorageError::Corrupt(format!(
                    "place_at: slot {}/{} holds a different row",
                    id.page, id.slot
                )));
            }
            guard.place(id.slot, bytes)?;
            if born > 0 {
                self.meta.write().insert(id, (born, LIVE));
            }
        }
        drop(pin);
        self.row_count.fetch_add(1, Ordering::Relaxed);
        self.invalidate_mbrs(id);
        self.cache_shard(id).lock().insert(id, Arc::new(row));
        Ok(())
    }

    /// Logically deletes a row at generation `died`: snapshots pinned
    /// before `died` keep seeing it; the bytes stay in place until
    /// [`HeapFile::reclaim`]. Returns whether a live row existed.
    pub fn mark_deleted(&self, id: RowId, died: u64) -> bool {
        if id.page >= self.npages.load(Ordering::Relaxed) {
            return false;
        }
        let live = {
            let pin = self.pool.pin(self.file, id.page);
            let present = pin.read().get(id.slot).is_ok();
            present
        };
        if !live {
            return false;
        }
        let mut meta = self.meta.write();
        match meta.get_mut(&id) {
            Some((_, d)) if *d != LIVE => return false, // already deleted
            Some((_, d)) => *d = died,
            None => {
                meta.insert(id, (0, died));
            }
        }
        drop(meta);
        self.row_count.fetch_sub(1, Ordering::Relaxed);
        true
    }

    /// Undoes a [`HeapFile::mark_deleted`] (transaction rollback):
    /// the row becomes live again. Returns whether it was dead.
    pub fn revive(&self, id: RowId) -> bool {
        let mut meta = self.meta.write();
        let revived = match meta.get_mut(&id) {
            Some((born, d)) if *d != LIVE => {
                if *born == 0 {
                    meta.remove(&id);
                } else {
                    *d = LIVE;
                }
                true
            }
            _ => false,
        };
        drop(meta);
        if revived {
            self.row_count.fetch_add(1, Ordering::Relaxed);
        }
        revived
    }

    /// Physically tombstones a logically-deleted row once no snapshot
    /// can see it (vacuum). The live-row count was already adjusted by
    /// [`HeapFile::mark_deleted`].
    ///
    /// Step order is a contract lock-free readers rely on: the epoch
    /// counters bracket everything (see the field note), the cache
    /// entry goes first (so a cache hit always implies the slot is
    /// still present), the slot second, and the visibility entry last
    /// (so a metadata-free id whose reclaim has finished is guaranteed
    /// to have lost its slot — see [`HeapFile::retain_visible`]).
    pub fn reclaim(&self, id: RowId) {
        self.reclaims_started.fetch_add(1, Ordering::SeqCst);
        self.cache_shard(id).lock().remove(&id);
        if id.page < self.npages.load(Ordering::Relaxed) {
            let pin = self.pool.pin(self.file, id.page);
            pin.write().delete(id.slot);
        }
        self.meta.write().remove(&id);
        self.invalidate_mbrs(id);
        self.reclaims_finished.fetch_add(1, Ordering::SeqCst);
    }

    /// The reclaim counter to capture *before* collecting row ids from
    /// an index probe or page sweep; pass it to
    /// [`HeapFile::retain_visible`] so a vacuum overlapping the
    /// collection is detected rather than misread.
    pub fn reclaim_epoch(&self) -> u64 {
        self.reclaims_started.load(Ordering::SeqCst)
    }

    /// Whether any [`HeapFile::reclaim`] began after `epoch` was
    /// captured, or is still in flight now. When this is false, no
    /// metadata entry can have been dropped by a reclaim since the
    /// capture, so a metadata-free id observed since then is a settled
    /// always-visible row — and a row fully reclaimed *before* the
    /// capture was removed from every index first, so it cannot have
    /// been collected at all.
    fn reclaim_overlapped(&self, epoch: u64) -> bool {
        let started = self.reclaims_started.load(Ordering::SeqCst);
        started != epoch || self.reclaims_finished.load(Ordering::SeqCst) != started
    }

    /// Prunes visibility entries the horizon has passed: a row born at
    /// or before `horizon` and never deleted is visible to every
    /// remaining snapshot, so its entry can revert to the metadata-free
    /// default. Keeps the common all-settled case on the fast path.
    pub fn settle(&self, horizon: u64) {
        let mut meta = self.meta.write();
        if !meta.is_empty() {
            meta.retain(|_, (born, died)| *born > horizon || *died != LIVE);
        }
    }

    /// Visibility entries currently held (tests and diagnostics).
    pub fn meta_len(&self) -> usize {
        self.meta.read().len()
    }

    /// Filters `ids` down to the rows visible at `gen`, preserving
    /// order, under one metadata lock take. `epoch` must have been
    /// captured via [`HeapFile::reclaim_epoch`] *before* the ids were
    /// collected (index probe). A metadata-free id is normally a
    /// settled always-visible row — but a vacuum racing the probe can
    /// reclaim a dead row after the probe captured its id, dropping
    /// the entry that recorded its death. The epoch re-check detects
    /// exactly that overlap; only then does the rare second pass
    /// verify survivors by physical presence ([`HeapFile::reclaim`]
    /// drops a row's slot before its entry, so a reclaimed row that
    /// lost its entry has verifiably lost its slot too). The common
    /// settled case stays one is-empty check plus two atomic loads.
    pub fn retain_visible(&self, ids: &mut Vec<RowId>, gen: u64, epoch: u64) {
        {
            let meta = self.meta.read();
            if !meta.is_empty() {
                ids.retain(|id| match meta.get(id) {
                    Some((born, died)) => *born <= gen && *died > gen,
                    None => true,
                });
            }
        }
        if self.reclaim_overlapped(epoch) {
            // The presence checks run with no metadata lock held: the
            // metadata lock is never held across a page pin (see the
            // lock-order note above). Visible survivors are present by
            // definition (a pinned reader's rows cannot be reclaimed),
            // so this only ever drops concurrently-reclaimed ids.
            ids.retain(|id| self.slot_present(*id));
        }
    }

    /// Whether `id` physically holds row bytes right now: decoded-row
    /// cache hit, or a live slot on its page. Readers use this to
    /// separate settled rows from concurrently-reclaimed ones.
    fn slot_present(&self, id: RowId) -> bool {
        if self.cache_shard(id).lock().get(&id).is_some() {
            return true;
        }
        if id.page >= self.npages.load(Ordering::Relaxed) {
            return false;
        }
        let pin = self.pool.pin(self.file, id.page);
        let present = pin.read().get(id.slot).is_ok();
        present
    }

    /// Whether `id` is visible to a reader pinned at `gen`.
    pub fn is_visible(&self, id: RowId, gen: u64) -> bool {
        // Copy the entry out before touching pages: the meta lock must
        // never be held across a pin (see the lock-order note above).
        let entry = self.meta.read().get(&id).copied();
        if let Some((born, died)) = entry {
            return born <= gen && died > gen;
        }
        // No entry: visible at every generation, if physically present.
        self.slot_present(id)
    }

    /// Fetches a row, consulting the decoded-row cache first.
    pub fn get(&self, id: RowId) -> Result<Arc<Row>> {
        if let Some(row) = self.cache_shard(id).lock().get(&id).cloned() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(row);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        if id.page >= self.npages.load(Ordering::Relaxed) {
            return Err(StorageError::RowNotFound { page: id.page, slot: id.slot });
        }
        let row = {
            let pin = self.pool.pin(self.file, id.page);
            let guard = pin.read();
            let bytes = guard
                .get(id.slot)
                .map_err(|_| StorageError::RowNotFound { page: id.page, slot: id.slot })?;
            // Decode while pinned, then copy out: nothing we hand to the
            // caller can dangle into an evicted frame.
            Arc::new(Value::decode_row(bytes)?)
        };
        self.cache_shard(id).lock().insert(id, row.clone());
        Ok(row)
    }

    /// Immediately and physically deletes a row (single-session paths
    /// and vacuum). Returns whether it existed. Snapshot-aware deletes
    /// go through [`HeapFile::mark_deleted`] instead.
    pub fn delete(&self, id: RowId) -> bool {
        if id.page >= self.npages.load(Ordering::Relaxed) {
            return false;
        }
        // Bracketed by the same epoch counters as reclaim: rollback
        // paths physically remove rows while lock-free readers may be
        // mid-sweep, and the epoch check is what keeps them honest.
        self.reclaims_started.fetch_add(1, Ordering::SeqCst);
        self.cache_shard(id).lock().remove(&id);
        let deleted = {
            let pin = self.pool.pin(self.file, id.page);
            let removed = pin.write().delete(id.slot);
            removed
        };
        if deleted {
            self.meta.write().remove(&id);
            self.row_count.fetch_sub(1, Ordering::Relaxed);
            self.invalidate_mbrs(id);
        }
        self.reclaims_finished.fetch_add(1, Ordering::SeqCst);
        deleted
    }

    /// Every physically-present row id, in storage order, collected
    /// under per-page pins with no other lock held.
    fn present_ids(&self) -> Vec<RowId> {
        let npages = self.npages.load(Ordering::Relaxed);
        let mut out = Vec::with_capacity(self.len());
        for p in 0..npages {
            let pin = self.pool.pin(self.file, p);
            let guard = pin.read();
            for (slot, _) in guard.iter() {
                out.push(RowId { page: p, slot });
            }
        }
        out
    }

    /// All currently-live row ids (latest committed state), in storage
    /// order. Excludes logically-deleted rows awaiting reclaim.
    pub fn row_ids(&self) -> Vec<RowId> {
        // Collect physical ids first, then filter under one meta read:
        // the meta lock is never held across a pin. Any row *written*
        // mid-sweep whose bytes we observed has its entry published
        // (the writer publishes before releasing the page write
        // guard), so the later meta read cannot miss it. A row
        // *reclaimed* mid-sweep would be misread — its entry is gone
        // by the time we filter — so the sweep retries when the epoch
        // check reports an overlapping reclaim (rare: vacuum only).
        loop {
            let epoch = self.reclaim_epoch();
            let present = self.present_ids();
            let meta = self.meta.read();
            let out = if meta.is_empty() {
                present // settled heap: every present row is live
            } else {
                present
                    .into_iter()
                    .filter(|id| !matches!(meta.get(id), Some((_, died)) if *died != LIVE))
                    .collect()
            };
            drop(meta);
            if !self.reclaim_overlapped(epoch) {
                return out;
            }
        }
    }

    /// Row ids visible to a snapshot pinned at generation `gen`, in
    /// storage order: `born <= gen && died > gen`, plus every
    /// metadata-free row. Retries on an overlapping reclaim, exactly
    /// like [`HeapFile::row_ids`].
    pub fn row_ids_visible(&self, gen: u64) -> Vec<RowId> {
        loop {
            let epoch = self.reclaim_epoch();
            let present = self.present_ids();
            let meta = self.meta.read();
            let out = if meta.is_empty() {
                present // settled heap: visible at every generation
            } else {
                present
                    .into_iter()
                    .filter(|id| {
                        !matches!(meta.get(id), Some((born, died)) if *born > gen || *died <= gen)
                    })
                    .collect()
            };
            drop(meta);
            if !self.reclaim_overlapped(epoch) {
                return out;
            }
        }
    }

    /// Every physically-present row id, including logically-deleted rows
    /// awaiting reclaim. Index builds use this so rows still visible to
    /// an older pinned snapshot remain probe-able through the new index.
    pub fn row_ids_any(&self) -> Vec<RowId> {
        self.present_ids()
    }

    /// Raw tuple scan: calls `visit` with the stored bytes — exactly
    /// [`Value::encode_row`] of the row — of every id in `ids`, which
    /// must be in storage order (as [`HeapFile::row_ids`] returns them).
    /// Each page is pinned once per run of ids on it and `visit` runs
    /// under the pin; nothing is decoded and the row cache is not
    /// touched. Stops at the first error, `visit`'s or a
    /// [`StorageError::RowNotFound`] for an id reclaimed since it was
    /// collected.
    pub fn scan_tuples<E: From<StorageError>>(
        &self,
        ids: &[RowId],
        mut visit: impl FnMut(RowId, &[u8]) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        let npages = self.npages.load(Ordering::Relaxed);
        for run in ids.chunk_by(|a, b| a.page == b.page) {
            let page = run[0].page;
            if page >= npages {
                return Err(StorageError::RowNotFound { page, slot: run[0].slot }.into());
            }
            let pin = self.pool.pin(self.file, page);
            let guard = pin.read();
            for &id in run {
                let bytes = guard
                    .get(id.slot)
                    .map_err(|_| StorageError::RowNotFound { page, slot: id.slot })?;
                visit(id, bytes)?;
            }
        }
        Ok(())
    }

    /// Full scan over every physically-present row, including
    /// logically-deleted ones (index builds).
    pub fn scan_any(&self, mut visit: impl FnMut(RowId, &Arc<Row>)) -> Result<()> {
        for id in self.row_ids_any() {
            let row = self.get(id)?;
            visit(id, &row);
        }
        Ok(())
    }

    /// Cached MBR quad of `row[col]` (see [`Value::mbr`]); computes and
    /// caches on miss. `None` when the column holds a non-geometry.
    pub fn mbr(&self, id: RowId, col: usize) -> Result<Option<[f64; 4]>> {
        if let Some(m) = self.mbr_shard(id).lock().get(&(id, col)) {
            return Ok(*m);
        }
        let row = self.get(id)?;
        let m = row.get(col).and_then(Value::mbr);
        self.mbr_shard(id).lock().insert((id, col), m);
        Ok(m)
    }

    /// Batch MBR gather: one quad per id, in input order — the
    /// vectorized executor's column-load path.
    pub fn mbrs(&self, col: usize, ids: &[RowId]) -> Result<Vec<Option<[f64; 4]>>> {
        ids.iter().map(|&id| self.mbr(id, col)).collect()
    }

    /// Drops the decoded-row cache — the benchmark's cold-run switch
    /// for decoded state. (The buffer pool itself is cleared separately
    /// via [`BufferPool::clear`] on the shared pool.)
    pub fn clear_cache(&self) {
        for shard in &self.cache {
            shard.lock().clear();
        }
        for shard in &self.mbr_cache {
            shard.lock().clear();
        }
    }

    /// Cache counters.
    pub fn stats(&self) -> HeapStats {
        HeapStats {
            cache_hits: self.hits.load(Ordering::Relaxed),
            cache_misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ColumnDef, DataType};

    fn heap() -> HeapFile {
        let schema = Arc::new(
            Schema::new(vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("name", DataType::Text),
            ])
            .unwrap(),
        );
        HeapFile::new(schema)
    }

    #[test]
    fn insert_get_roundtrip() {
        let h = heap();
        let id = h.insert(vec![Value::Int(1), Value::Text("a".into())]).unwrap();
        let row = h.get(id).unwrap();
        assert_eq!(*row, vec![Value::Int(1), Value::Text("a".into())]);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn schema_enforced() {
        let h = heap();
        assert!(h.insert(vec![Value::Int(1)]).is_err());
        assert!(h.insert(vec![Value::Text("x".into()), Value::Int(1)]).is_err());
        assert_eq!(h.len(), 0);
    }

    #[test]
    fn many_rows_span_pages() {
        let h = heap();
        let long = "x".repeat(1000);
        let mut ids = Vec::new();
        for i in 0..100 {
            ids.push(h.insert(vec![Value::Int(i), Value::Text(long.clone())]).unwrap());
        }
        // Must have used several pages.
        assert!(ids.iter().map(|id| id.page).max().unwrap() > 5);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(h.get(*id).unwrap()[0], Value::Int(i as i64));
        }
        assert_eq!(h.row_ids().len(), 100);
    }

    #[test]
    fn tiny_pool_evicts_and_reloads_identically() {
        let schema = Arc::new(
            Schema::new(vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("name", DataType::Text),
            ])
            .unwrap(),
        );
        let pool = Arc::new(BufferPool::new());
        pool.set_capacity_bytes(2 * crate::page::PAGE_SIZE);
        let h = HeapFile::with_pool(schema, pool.clone());
        let long = "y".repeat(1000);
        let mut ids = Vec::new();
        for i in 0..100 {
            ids.push(h.insert(vec![Value::Int(i), Value::Text(long.clone())]).unwrap());
        }
        assert!(pool.stats().evictions > 0, "2-frame pool must evict");
        h.clear_cache(); // force page reads, not decoded-cache hits
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(h.get(*id).unwrap()[0], Value::Int(i as i64));
        }
        assert_eq!(h.row_ids().len(), 100);
        // And a full cold switch (pool cleared too) still reads back.
        h.clear_cache();
        pool.clear();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(h.get(*id).unwrap()[0], Value::Int(i as i64));
        }
    }

    #[test]
    fn place_at_reproduces_recorded_row_ids() {
        let h = heap();
        let a = RowId { page: 0, slot: 0 };
        let b = RowId { page: 0, slot: 2 };
        let c = RowId { page: 1, slot: 1 };
        h.place_at(vec![Value::Int(1), Value::Null], a, 0).unwrap();
        h.place_at(vec![Value::Int(2), Value::Null], b, 0).unwrap();
        h.place_at(vec![Value::Int(3), Value::Null], c, 0).unwrap();
        assert_eq!(h.row_ids(), vec![a, b, c]);
        assert_eq!(h.get(b).unwrap()[0], Value::Int(2));
        assert_eq!(h.len(), 3);
        // Idempotent for identical bytes, an error for different ones.
        h.place_at(vec![Value::Int(2), Value::Null], b, 0).unwrap();
        assert_eq!(h.len(), 3, "re-place of identical row is a no-op");
        assert!(h.place_at(vec![Value::Int(9), Value::Null], b, 0).is_err());
    }

    #[test]
    fn delete_and_scan() {
        let h = heap();
        let a = h.insert(vec![Value::Int(1), Value::Null]).unwrap();
        let b = h.insert(vec![Value::Int(2), Value::Null]).unwrap();
        assert!(h.delete(a));
        assert!(!h.delete(a));
        assert!(h.get(a).is_err());
        assert_eq!(h.len(), 1);
        let mut seen = Vec::new();
        h.scan_any(|id, row| {
            seen.push((id, row[0].clone()));
        })
        .unwrap();
        assert_eq!(seen, vec![(b, Value::Int(2))]);
    }

    #[test]
    fn tuple_scan_hands_out_the_stored_encoding_without_decoding() {
        let h = heap();
        let long = "z".repeat(3000);
        let rows: Vec<Row> =
            (0..12).map(|i| vec![Value::Int(i), Value::Text(long.clone())]).collect();
        for row in &rows {
            h.insert(row.clone()).unwrap();
        }
        let dead = h.row_ids()[3];
        assert!(h.mark_deleted(dead, 1), "a row awaiting vacuum is not in row_ids");
        h.clear_cache();
        let ids = h.row_ids();
        assert!(ids.last().unwrap().page > 1, "rows span pages");
        let mut seen = Vec::new();
        h.scan_tuples(&ids, |id, bytes| {
            seen.push((id, bytes.to_vec()));
            Ok::<(), StorageError>(())
        })
        .unwrap();
        let want: Vec<(RowId, Vec<u8>)> =
            ids.iter().map(|&id| (id, Value::encode_row(&h.get(id).unwrap()))).collect();
        assert_eq!(h.stats().cache_misses, ids.len() as u64, "only the `get`s above decoded");
        assert_eq!(seen, want);
        assert_eq!(seen.len(), 11);

        // An id reclaimed after it was collected is an error, and so is
        // one the visitor raises.
        h.reclaim(dead);
        let gone = h.scan_tuples(&[dead], |_, _| Ok::<(), StorageError>(()));
        assert!(matches!(gone, Err(StorageError::RowNotFound { .. })), "got {gone:?}");
        let stop = h.scan_tuples(&ids, |_, _| Err(StorageError::Corrupt("stop".into())));
        assert_eq!(stop, Err(StorageError::Corrupt("stop".into())));
    }

    #[test]
    fn place_tuple_stores_the_given_bytes_and_caches_the_row() {
        let h = heap();
        let row = vec![Value::Int(7), Value::Text("seven".into())];
        let bytes = Value::encode_row(&row);
        let id = RowId { page: 2, slot: 5 };
        h.place_tuple(&bytes, row.clone(), id, 0).unwrap();
        assert_eq!(*h.get(id).unwrap(), row);
        assert_eq!(h.stats().cache_misses, 0, "placement warmed the row cache");
        let mut stored = Vec::new();
        h.scan_tuples(&[id], |_, b| {
            stored = b.to_vec();
            Ok::<(), StorageError>(())
        })
        .unwrap();
        assert_eq!(stored, bytes);
        // Same idempotence and schema rules as place_at.
        h.place_at(row, id, 0).unwrap();
        assert_eq!(h.len(), 1);
        assert!(h.place_tuple(&bytes, vec![Value::Int(7)], id, 0).is_err());
    }

    #[test]
    fn cold_cache_counts_misses() {
        let h = heap();
        let id = h.insert(vec![Value::Int(1), Value::Text("warm".into())]).unwrap();
        h.get(id).unwrap(); // hit (insert warms the cache)
        let s1 = h.stats();
        assert_eq!(s1.cache_hits, 1);
        assert_eq!(s1.cache_misses, 0);
        h.clear_cache();
        h.get(id).unwrap(); // miss: decode from page
        h.get(id).unwrap(); // hit again
        let s2 = h.stats();
        assert_eq!(s2.cache_misses, 1);
        assert_eq!(s2.cache_hits, 2);
    }

    #[test]
    fn mbr_cache_round_trip_and_invalidation() {
        let schema = Arc::new(
            Schema::new(vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("geom", DataType::Geometry),
            ])
            .unwrap(),
        );
        let h = HeapFile::new(schema);
        let g = jackpine_geom::wkt::parse("LINESTRING (0 0, 4 2)").unwrap();
        let id = h.insert(vec![Value::Int(1), Value::Geom(g)]).unwrap();

        assert_eq!(h.mbr(id, 1).unwrap(), Some([0.0, 0.0, 4.0, 2.0]));
        assert_eq!(h.mbr(id, 0).unwrap(), None, "non-geometry column has no MBR");
        // Batch accessor agrees with the scalar one and preserves order.
        assert_eq!(h.mbrs(1, &[id, id]).unwrap(), vec![Some([0.0, 0.0, 4.0, 2.0]); 2]);

        // Delete then insert again (slots are never reused, so the new
        // row gets a fresh id and cannot see the old quad).
        assert!(h.delete(id));
        let g2 = jackpine_geom::wkt::parse("POINT (9 9)").unwrap();
        let id2 = h.insert(vec![Value::Int(2), Value::Geom(g2)]).unwrap();
        assert_eq!(h.mbr(id2, 1).unwrap(), Some([9.0, 9.0, 9.0, 9.0]));

        // clear_cache drops MBR quads too (cold-run switch), and the
        // value is recomputed identically from page bytes.
        h.clear_cache();
        assert_eq!(h.mbr(id2, 1).unwrap(), Some([9.0, 9.0, 9.0, 9.0]));
    }

    #[test]
    fn visibility_generations_gate_readers() {
        let h = heap();
        let a = h.insert(vec![Value::Int(1), Value::Null]).unwrap(); // born 0
        let b = h.insert_at(vec![Value::Int(2), Value::Null], 5).unwrap();
        assert_eq!(h.len(), 2, "len counts latest state, not a snapshot");

        // A snapshot pinned before b's birth sees only a.
        assert_eq!(h.row_ids_visible(4), vec![a]);
        assert!(h.is_visible(a, 4));
        assert!(!h.is_visible(b, 4));
        // At or after the birth generation, both.
        assert_eq!(h.row_ids_visible(5), vec![a, b]);
        assert_eq!(h.row_ids(), vec![a, b]);

        // Logical delete of a at gen 7: old snapshots keep it, newer
        // ones and the latest view lose it; the bytes stay readable.
        assert!(h.mark_deleted(a, 7));
        assert!(!h.mark_deleted(a, 8), "double delete refused");
        assert_eq!(h.len(), 1);
        assert_eq!(h.row_ids_visible(6), vec![a, b]);
        assert_eq!(h.row_ids_visible(7), vec![b]);
        assert_eq!(h.row_ids(), vec![b]);
        assert_eq!(h.row_ids_any(), vec![a, b]);
        assert!(h.get(a).is_ok(), "dead row readable until reclaim");

        // Vacuum: reclaim tombstones the bytes without touching len.
        h.reclaim(a);
        assert_eq!(h.len(), 1);
        assert!(h.get(a).is_err());
        assert_eq!(h.row_ids_any(), vec![b]);

        // Settling past b's birth drops its entry; the heap is back on
        // the metadata-free fast path with identical answers.
        h.settle(5);
        assert_eq!(h.meta_len(), 0);
        assert_eq!(h.row_ids(), vec![b]);
        assert!(h.is_visible(b, 0), "settled rows visible everywhere");
    }

    #[test]
    fn revive_rolls_back_logical_delete() {
        let h = heap();
        let a = h.insert(vec![Value::Int(1), Value::Null]).unwrap();
        let b = h.insert_at(vec![Value::Int(2), Value::Null], 3).unwrap();
        assert!(h.mark_deleted(a, 9));
        assert!(h.mark_deleted(b, 9));
        assert_eq!(h.len(), 0);

        assert!(h.revive(a));
        assert!(h.revive(b));
        assert!(!h.revive(a), "revive of a live row is a no-op");
        assert_eq!(h.len(), 2);
        assert_eq!(h.row_ids(), vec![a, b]);
        // a reverts to metadata-free; b keeps its birth generation.
        assert!(!h.is_visible(b, 2));
        assert!(h.is_visible(a, 0));
    }

    #[test]
    fn settle_keeps_unreachable_births_and_pending_deletes() {
        let h = heap();
        let a = h.insert_at(vec![Value::Int(1), Value::Null], 4).unwrap();
        let b = h.insert_at(vec![Value::Int(2), Value::Null], 8).unwrap();
        assert!(h.mark_deleted(a, 9));
        h.settle(8);
        // a is logically deleted (must keep its entry until reclaim);
        // b's birth has settled.
        assert_eq!(h.meta_len(), 1);
        assert!(!h.is_visible(a, 10));
        assert!(h.is_visible(b, 0));
    }

    #[test]
    fn oversized_row_gets_own_page() {
        let h = heap();
        let huge = "g".repeat(100_000);
        let id = h.insert(vec![Value::Int(1), Value::Text(huge.clone())]).unwrap();
        h.clear_cache();
        assert_eq!(h.get(id).unwrap()[1].as_str(), Some(huge.as_str()));
    }
}

//! Heap files: unordered collections of rows in slotted pages of the
//! shared [`BufferPool`], each resident page carrying the rows decoded
//! from it.
//!
//! # Out-of-core layout
//!
//! Rows live in slotted 8 KiB pages registered as one page file in the
//! heap's buffer pool, and every access goes through that file's page
//! table: a bounded pool evicts cold pages (writing dirty ones back to
//! the backing store) and reloads them on demand, so the heap does not
//! have to fit in memory. The pool's frame is also the only cache of
//! decoded rows and MBR quads — [`HeapFile::get`] is "find the frame,
//! read the slot", decoding on first use, and [`HeapFile::get_many`]
//! does the same a page run at a time — so a row shares its page's
//! fate: evicted with it, changed only under its lock. Only a read fills
//! it: an insert, WAL replay and snapshot restore store bytes (restore
//! checks each tuple in place, building nothing), and quads are computed
//! from the bytes. Readers clone the `Arc<Row>`
//! out while holding the frame, so nothing they keep can dangle into an
//! evicted one.
//!
//! # Row visibility (MVCC)
//!
//! Rows carry optional `(born, died)` generations in a side table
//! ([`visibility`]), so snapshot readers keep seeing old versions until
//! vacuum. Slots are never reused by normal inserts (deletes tombstone,
//! inserts append), so a `RowId` names one row version forever; only
//! WAL replay ([`HeapFile::place_tuple`]) and snapshot load
//! ([`HeapFile::restore_page`]) write to explicit slots, reproducing ids
//! recorded on disk.
//!
//! # Lock order
//!
//! Page table (lock-free) → frame lock → visibility metadata. The
//! append path holds a frame's **write** guard while publishing the
//! entries of the rows it put there, so the meta lock nests *inside*
//! frame locks. Readers must therefore never hold the meta lock while
//! touching a page: scan paths first collect physically-present ids
//! under one frame lock at a time, drop it, and only then consult the
//! meta table — any row whose bytes they observed has its entry
//! published by the time the frame's guard was released.

use crate::page::Page;
use crate::pool::{BufferPool, PageFile, PageRead, PageWrite};
use crate::sync::{Mutex, RwLock};
use crate::{DataType, Result, Row, Schema, StorageError, Value};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

mod visibility;

/// A stable row address: page number plus slot within the page.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId {
    /// Page index in the heap.
    pub page: u32,
    /// Slot within the page.
    pub slot: u16,
}

/// Access counters, for the benchmark's instrumentation.
#[derive(Clone, Copy, Debug, Default)]
pub struct HeapStats {
    /// Row fetches served from a slot's decoded row.
    pub cache_hits: u64,
    /// Row fetches that had to read the page bytes: to decode the row,
    /// or to compute MBR quads from them.
    pub cache_misses: u64,
}

/// A heap file: pages of serialized rows in the buffer pool.
///
/// All methods take `&self`; interior locks make the heap shareable across
/// the benchmark driver's worker threads.
#[derive(Debug)]
pub struct HeapFile {
    schema: Arc<Schema>,
    /// The pool whose frames hold this heap's pages. Shared with the
    /// rest of the engine when constructed via [`HeapFile::with_pool`].
    pool: Arc<BufferPool>,
    /// This heap's page file within the pool; unregistered on drop.
    file: Arc<PageFile>,
    /// Pages materialized so far (monotone; scans iterate `0..npages`).
    npages: AtomicU32,
    /// Serializes appends: the page-full check and new-page creation
    /// must be atomic with respect to other appenders.
    append: Mutex<()>,
    /// The geometry columns: the ones a frame keeps MBR quads of.
    /// Computing an envelope walks every coordinate of the geometry, so
    /// the cached 32-byte quad turns the vectorized executor's
    /// MBR-column gather into a copy per row.
    geom_cols: Box<[usize]>,
    /// Per-row `(born, died)` visibility generations. Absent = visible
    /// at every generation. Kept small by [`HeapFile::settle`]: when
    /// empty, every visibility query takes the metadata-free fast path.
    meta: RwLock<HashMap<RowId, (u64, u64)>>,
    row_count: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Physical removals begun and ended (`started >= finished` always).
    /// Lock-free readers capture `finished` ([`HeapFile::reclaim_epoch`])
    /// before collecting row ids, take the cheap metadata-only
    /// classification pass, and compare `started` with the capture
    /// afterwards. No removal overlapped `[capture, check]` iff the
    /// removals started by the end equal the removals finished at the
    /// beginning: equality says none was in flight at the capture and
    /// none began since, so no id can have lost its metadata entry (and
    /// thereby misread as settled-visible) mid-pass. Vacuum is rare, so
    /// the expensive re-verification almost never runs.
    reclaims_started: AtomicU64,
    reclaims_finished: AtomicU64,
}

/// `died` value of a live row: visible to every future generation.
const LIVE: u64 = u64::MAX;

/// A page reports a missing slot without knowing its own number.
fn located(e: StorageError, id: RowId) -> StorageError {
    match e {
        StorageError::RowNotFound { .. } => {
            StorageError::RowNotFound { page: id.page, slot: id.slot }
        }
        e => e,
    }
}

impl HeapFile {
    /// Creates an empty heap for rows of `schema`, backed by a private
    /// unbounded pool (tests and standalone use; engines share one pool
    /// via [`HeapFile::with_pool`]).
    pub fn new(schema: Arc<Schema>) -> HeapFile {
        HeapFile::with_pool(schema, Arc::new(BufferPool::new()))
    }

    /// Creates an empty heap whose pages live in `pool`.
    pub fn with_pool(schema: Arc<Schema>, pool: Arc<BufferPool>) -> HeapFile {
        let file = pool.open("heap", None);
        let geom_cols = (0..schema.columns().len())
            .filter(|&c| schema.columns()[c].ty == DataType::Geometry)
            .collect();
        HeapFile {
            schema,
            pool,
            file,
            npages: AtomicU32::new(1),
            append: Mutex::new(()),
            geom_cols,
            meta: RwLock::new(HashMap::new()),
            row_count: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            reclaims_started: AtomicU64::new(0),
            reclaims_finished: AtomicU64::new(0),
        }
    }

    /// The buffer pool this heap's pages live in.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Pages materialized so far.
    pub fn page_count(&self) -> u32 {
        self.npages.load(Ordering::Relaxed)
    }

    /// Shared access to a page, faulting it in first if need be.
    fn read(&self, page: u32) -> Result<PageRead<'_>> {
        self.pool.read(&self.file, page)
    }

    /// Exclusive access to a page, faulting it in first if need be.
    fn write(&self, page: u32) -> Result<PageWrite<'_>> {
        self.pool.write(&self.file, page)
    }

    /// [`HeapFile::read`] for the methods with no error to return: a
    /// page that cannot be read back panics, as [`BufferPool::pin`] does.
    fn page(&self, page: u32) -> PageRead<'_> {
        self.read(page).unwrap_or_else(|e| panic!("heap: {e}"))
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
        self.insert_at(&row, 0)
    }

    /// Validates and appends a row born at generation `born` (`0` =
    /// visible since the beginning), which snapshots pinned before `born`
    /// do not see; returns its id. Only its bytes are stored: the slot is
    /// decoded when a read first asks for it.
    pub fn insert_at(&self, row: &Row, born: u64) -> Result<RowId> {
        self.schema.check_row(row)?;
        self.insert_tuple(&Value::store_row(row), born)
    }

    /// [`HeapFile::insert_tuples`] of one tuple, `bytes`.
    pub fn insert_tuple(&self, bytes: &[u8], born: u64) -> Result<RowId> {
        let mut id = [RowId { page: 0, slot: 0 }];
        self.append(bytes, std::slice::from_ref(&(0..bytes.len())), born, &mut id)?;
        Ok(id[0])
    }

    /// [`HeapFile::insert_at`] of a batch in stored form: the tuples
    /// `staged[r]`, `r` in `tuples` — each [`Value::store_row`] of a row
    /// that passed [`Schema::check_row`] — go into slots as they are, in
    /// order; returns their ids. One take of the append lock, and of each
    /// tail frame per run of tuples; an error leaves none of them behind.
    pub fn insert_tuples(
        &self,
        staged: &[u8],
        tuples: &[Range<usize>],
        born: u64,
    ) -> Result<Vec<RowId>> {
        let mut ids = vec![RowId { page: 0, slot: 0 }; tuples.len()];
        self.append(staged, tuples, born, &mut ids)?;
        Ok(ids)
    }

    /// The one append loop: [`HeapFile::insert_tuples`] into `ids`, so
    /// that one tuple allocates nothing.
    fn append(
        &self,
        staged: &[u8],
        tuples: &[Range<usize>],
        born: u64,
        ids: &mut [RowId],
    ) -> Result<()> {
        if tuples.is_empty() {
            return Ok(());
        }
        let _append = self.append.lock();
        let (mut target, mut placed) = (self.npages.load(Ordering::Relaxed).saturating_sub(1), 0);
        loop {
            let undo = |_: &_| ids[..placed].iter().for_each(|&id| _ = self.delete(id));
            let mut frame = self.write(target).inspect_err(undo)?;
            let run = placed;
            while let Some(r) = tuples.get(placed).filter(|r| frame.fits(r.len())) {
                ids[placed] = RowId { page: target, slot: frame.insert(&staged[r.clone()]) };
                placed += 1;
            }
            if born > 0 && placed > run {
                // Published under the frame's write guard (frames before
                // meta): a scan sees the run's bytes only after it drops,
                // with the entries that hide them from older snapshots.
                self.meta.write().extend(ids[run..placed].iter().map(|&id| (id, (born, LIVE))));
            }
            drop(frame);
            self.row_count.fetch_add((placed - run) as u64, Ordering::Relaxed);
            if placed == tuples.len() {
                return Ok(());
            }
            // An empty page takes any tuple (an oversized one gets its own).
            target += 1;
            self.npages.store(target + 1, Ordering::Relaxed);
        }
    }

    /// Writes a row into a *specific* slot — WAL replay, which must
    /// reproduce `RowId`s recorded in the log exactly. `bytes`,
    /// [`Value::store_row`] of `row`, go into the slot as they are; `row`
    /// is checked against the schema and not kept: the slot is decoded
    /// when a read first asks for it. Idempotent: re-placing the
    /// identical bytes at the same id is a no-op, so a crash between
    /// replay and checkpoint replays cleanly.
    ///
    /// # Errors
    /// [`StorageError::Corrupt`] when the slot holds a *different* live
    /// row; schema errors as for [`HeapFile::insert`].
    pub fn place_tuple(&self, bytes: &[u8], row: &Row, id: RowId, born: u64) -> Result<()> {
        self.schema.check_row(row)?;
        let _append = self.append.lock();
        if self.npages.load(Ordering::Relaxed) <= id.page {
            self.npages.store(id.page + 1, Ordering::Relaxed);
        }
        let mut page = self.write(id.page)?;
        if let Ok(existing) = page.get(id.slot) {
            if existing == bytes {
                return Ok(()); // already applied
            }
            return Err(StorageError::Corrupt(format!(
                "place_tuple: slot {}/{} holds a different row",
                id.page, id.slot
            )));
        }
        page.place(id.slot, bytes)?;
        if born > 0 {
            self.meta.write().insert(id, (born, LIVE));
        }
        drop(page);
        self.row_count.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Snapshot load's way in: `page`, read back from a snapshot, becomes
    /// page `no` of this heap, which holds nothing there yet — one frame
    /// lock, and the page count raised once. Each live tuple is checked
    /// in place against the schema ([`Schema::check_tuple`]: nothing is
    /// built) and `visit`ed with its id; no row is kept, so the slot is
    /// decoded when a read first asks for it. Returns the rows restored.
    ///
    /// # Errors
    /// `visit`'s, decode and schema errors, and [`StorageError::Corrupt`]
    /// when page `no` holds slots already.
    pub fn restore_page<E: From<StorageError>>(
        &self,
        no: u32,
        page: Page,
        mut visit: impl FnMut(RowId, &[u8]) -> std::result::Result<(), E>,
    ) -> std::result::Result<usize, E> {
        let (mut coords, mut live) = (Vec::new(), 0);
        for (slot, tuple) in page.iter() {
            self.schema.check_tuple(tuple, &mut coords)?;
            visit(RowId { page: no, slot }, tuple)?;
            live += 1;
        }
        let corrupt = |what: &str| StorageError::Corrupt(format!("restore of page {no}: {what}"));
        let npages = no.checked_add(1).ok_or_else(|| corrupt("no such page number"))?;
        let _append = self.append.lock();
        let mut frame = self.write(no)?;
        if frame.slot_count() > 0 {
            return Err(corrupt("the page holds slots").into());
        }
        frame.replace(page);
        drop(frame);
        self.npages.fetch_max(npages, Ordering::Relaxed);
        self.row_count.fetch_add(live as u64, Ordering::Relaxed);
        Ok(live)
    }

    /// Fetches a row: its slot's decoded row if the frame has one,
    /// decoded from the slot's bytes (and kept there) otherwise.
    pub fn get(&self, id: RowId) -> Result<Arc<Row>> {
        let known = id.page < self.npages.load(Ordering::Relaxed);
        if known {
            if let Some(row) = self.read(id.page)?.row(id.slot) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(row.clone());
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        if !known {
            return Err(StorageError::RowNotFound { page: id.page, slot: id.slot });
        }
        self.write(id.page)?.decode(id.slot).map_err(|e| located(e, id))
    }

    /// [`HeapFile::get`] of every id, in input order, a page run at a
    /// time: each run of consecutive ids on one page takes that page's
    /// lock once — shared when every row of the run is decoded, exclusive
    /// otherwise, and then the run's missing rows are decoded back to
    /// back. Hits and misses are counted per row, exactly as that many
    /// `get`s would count them, up to and including the first error in
    /// input order, which is the one returned.
    pub fn get_many(&self, ids: &[RowId]) -> Result<Vec<Arc<Row>>> {
        let npages = self.npages.load(Ordering::Relaxed);
        let mut out = Vec::with_capacity(ids.len());
        for run in ids.chunk_by(|a, b| a.page == b.page) {
            let page = run[0].page;
            if page >= npages {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return Err(StorageError::RowNotFound { page, slot: run[0].slot });
            }
            let shared = self.read(page)?;
            if run.iter().all(|id| shared.row(id.slot).is_some()) {
                out.extend(run.iter().filter_map(|id| shared.row(id.slot).cloned()));
                self.hits.fetch_add(run.len() as u64, Ordering::Relaxed);
                continue;
            }
            drop(shared);
            let mut page = self.write(page)?;
            for &id in run {
                let counter = if page.row(id.slot).is_some() { &self.hits } else { &self.misses };
                counter.fetch_add(1, Ordering::Relaxed);
                out.push(page.decode(id.slot).map_err(|e| located(e, id))?);
            }
        }
        Ok(out)
    }

    /// Raw page scan: calls `visit` with every page below
    /// [`HeapFile::page_count`], in order, its number and the run of
    /// `ids` on it (empty when it holds none); `ids` must be in storage
    /// order (as [`HeapFile::row_ids`] returns them). Each page is locked
    /// once and `visit` runs under the lock. Stops at the first error:
    /// `visit`'s, an unreadable page's, or an id past the last page.
    pub fn scan_pages<E: From<StorageError>>(
        &self,
        ids: &[RowId],
        mut visit: impl FnMut(u32, &Page, &[RowId]) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        let mut rest = ids;
        for no in 0..self.npages.load(Ordering::Relaxed) {
            let (run, after) = rest.split_at(rest.partition_point(|id| id.page == no));
            visit(no, &*self.read(no)?, run)?;
            rest = after;
        }
        match rest.first() {
            Some(&id) => Err(StorageError::RowNotFound { page: id.page, slot: id.slot }.into()),
            None => Ok(()),
        }
    }

    /// Raw tuple scan: calls `visit` with the stored bytes — exactly
    /// [`Value::store_row`] of the row — of each id of `ids`, in storage
    /// order; nothing is decoded and no decoded row is kept. Each page
    /// holding ids is locked once per run, and no other page is read.
    /// Stops at the first error: `visit`'s, an unreadable page's, or an
    /// id reclaimed since it was collected or past the last page (a
    /// [`StorageError::RowNotFound`]).
    pub fn scan_tuples<E: From<StorageError>>(
        &self,
        ids: &[RowId],
        mut visit: impl FnMut(RowId, &[u8]) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        let npages = self.npages.load(Ordering::Relaxed);
        for run in ids.chunk_by(|a, b| a.page == b.page) {
            if run[0].page >= npages {
                return Err(
                    StorageError::RowNotFound { page: run[0].page, slot: run[0].slot }.into()
                );
            }
            let page = self.read(run[0].page)?;
            run.iter()
                .try_for_each(|&id| visit(id, page.get(id.slot).map_err(|e| located(e, id))?))?;
        }
        Ok(())
    }

    /// MBR quad of `row[col]` (see [`Value::mbr`]), computed from the
    /// slot's bytes and kept in its frame once computed; the row is not
    /// decoded. `None` when the column holds a non-geometry.
    pub fn mbr(&self, id: RowId, col: usize) -> Result<Option<[f64; 4]>> {
        if id.page >= self.npages.load(Ordering::Relaxed) {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Err(StorageError::RowNotFound { page: id.page, slot: id.slot });
        }
        let k = self.geom_cols.iter().position(|&c| c == col);
        let page = self.read(id.page)?;
        if let (Some(k), Some(quads)) = (k, page.quads(id.slot)) {
            return Ok(quads[k]);
        }
        // Counted like a fetch: a hit when the slot's row is decoded, a
        // miss when the quads come from its bytes.
        let counter = if page.row(id.slot).is_some() { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        let Some(k) = k else {
            page.get(id.slot).map_err(|e| located(e, id))?;
            return Ok(None);
        };
        drop(page);
        let mut page = self.write(id.page)?;
        Ok(page.quads(id.slot, &self.geom_cols).map_err(|e| located(e, id))?[k])
    }

    /// Batch MBR gather: one quad per id, in input order — the
    /// vectorized executor's column-load path.
    pub fn mbrs(&self, col: usize, ids: &[RowId]) -> Result<Vec<Option<[f64; 4]>>> {
        ids.iter().map(|&id| self.mbr(id, col)).collect()
    }

    /// Drops this heap's decoded rows and quads, keeping its frames —
    /// the benchmark's cold-run switch for decoded state. (The frames
    /// themselves go with [`BufferPool::clear`] on the shared pool.)
    pub fn clear_cache(&self) {
        self.file.drop_decoded(self.npages.load(Ordering::Relaxed));
    }

    /// Cache counters.
    pub fn stats(&self) -> HeapStats {
        HeapStats {
            cache_hits: self.hits.load(Ordering::Relaxed),
            cache_misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

impl Drop for HeapFile {
    fn drop(&mut self) {
        self.pool.unregister(self.file.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ColumnDef, DataType};

    impl HeapFile {
        /// Visibility entries currently held.
        fn meta_len(&self) -> usize {
            self.meta.read().len()
        }

        /// Whether `id` is visible to a reader pinned at `gen`.
        fn is_visible(&self, id: RowId, gen: u64) -> bool {
            // Copy the entry out before touching pages: the meta lock must
            // never be held while touching one (see the lock-order note
            // above).
            let entry = self.meta.read().get(&id).copied();
            if let Some((born, died)) = entry {
                return born <= gen && died > gen;
            }
            // No entry: visible at every generation, if physically present.
            self.slot_present(id)
        }
    }

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
        h.clear_cache(); // force decodes from page bytes, not decoded-slot hits
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

    /// Places `row` at `id` as replay does: encoded, bytes and row both.
    fn place(h: &HeapFile, row: Row, id: RowId) -> Result<()> {
        h.place_tuple(&Value::store_row(&row), &row, id, 0)
    }

    #[test]
    fn place_tuple_reproduces_recorded_row_ids() {
        let h = heap();
        let a = RowId { page: 0, slot: 0 };
        let b = RowId { page: 0, slot: 2 };
        let c = RowId { page: 1, slot: 1 };
        place(&h, vec![Value::Int(1), Value::Null], a).unwrap();
        place(&h, vec![Value::Int(2), Value::Null], b).unwrap();
        place(&h, vec![Value::Int(3), Value::Null], c).unwrap();
        assert_eq!(h.row_ids(), vec![a, b, c]);
        assert_eq!(h.get(b).unwrap()[0], Value::Int(2));
        assert_eq!(h.len(), 3);
        // Idempotent for identical bytes, an error for different ones.
        place(&h, vec![Value::Int(2), Value::Null], b).unwrap();
        assert_eq!(h.len(), 3, "re-place of identical row is a no-op");
        assert!(place(&h, vec![Value::Int(9), Value::Null], b).is_err());
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
        h.scan_tuples(&h.row_ids_any(), |id, bytes| {
            seen.push((id, Value::decode_row(bytes)?[0].clone()));
            Ok::<(), StorageError>(())
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
            ids.iter().map(|&id| (id, Value::store_row(&h.get(id).unwrap()))).collect();
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
    fn place_tuple_stores_the_given_bytes_and_keeps_no_row() {
        let h = heap();
        let row = vec![Value::Int(7), Value::Text("seven".into())];
        let bytes = Value::store_row(&row);
        let id = RowId { page: 2, slot: 5 };
        h.place_tuple(&bytes, &row, id, 0).unwrap();
        assert_eq!(h.pool().stats().decoded_rows, 0, "placement keeps no row");
        assert_eq!(*h.get(id).unwrap(), row);
        assert_eq!(h.stats().cache_misses, 1, "the first read decodes the slot");
        assert_eq!(h.pool().stats().decoded_rows, 1, "and keeps what it decoded");
        let mut stored = Vec::new();
        h.scan_tuples(&[id], |_, b| {
            stored = b.to_vec();
            Ok::<(), StorageError>(())
        })
        .unwrap();
        assert_eq!(stored, bytes);
        // Idempotent for the same bytes; the row must fit the schema.
        h.place_tuple(&bytes, &row, id, 0).unwrap();
        assert_eq!(h.len(), 1);
        assert!(h.place_tuple(&bytes, &vec![Value::Int(7)], id, 0).is_err());
    }

    #[test]
    fn cold_cache_counts_misses() {
        let h = heap();
        let id = h.insert(vec![Value::Int(1), Value::Text("warm".into())]).unwrap();
        assert_eq!(h.pool().stats().decoded_rows, 0, "an insert stores bytes only");
        h.get(id).unwrap(); // miss: the first read decodes
        h.get(id).unwrap(); // hit: and keeps
        let s1 = h.stats();
        assert_eq!((s1.cache_hits, s1.cache_misses), (1, 1));
        h.clear_cache();
        h.get(id).unwrap(); // miss: decode from page
        h.get(id).unwrap(); // hit again
        let s2 = h.stats();
        assert_eq!((s2.cache_hits, s2.cache_misses), (2, 2));
    }

    #[test]
    fn get_many_agrees_with_one_get_per_id() {
        // Two heaps with identical contents; one is read with `get_many`,
        // the other with a `get` per id stopping at the first error.
        let fill = || {
            let h = heap();
            let long = "w".repeat(900);
            for i in 0..40 {
                h.insert(vec![Value::Int(i), Value::Text(long.clone())]).unwrap();
            }
            let dead = h.row_ids()[13];
            h.mark_deleted(dead, 1);
            h.reclaim(dead);
            h.get(h.row_ids()[2]).unwrap(); // one row decoded beforehand
            (h, dead)
        };
        let ((many, reclaimed), (one, _)) = (fill(), fill());
        let all = many.row_ids();
        assert!(all.last().unwrap().page > 3, "rows span pages");
        let beyond = RowId { page: many.page_count() + 4, slot: 0 };
        let mut shuffled = all.clone();
        shuffled.reverse();
        shuffled.swap(3, 30);
        let cases: Vec<Vec<RowId>> = vec![
            all.clone(),
            shuffled,
            vec![all[5], all[5], all[6], all[5], all[0], all[0]],
            vec![all[1], all[38], all[2], all[37]],
            vec![all[3], all[4], reclaimed, all[5]],
            vec![all[7], beyond, reclaimed],
            vec![all[8], reclaimed, beyond],
            vec![],
        ];
        for ids in cases {
            let got = many.get_many(&ids);
            let want: Result<Vec<Arc<Row>>> = ids.iter().map(|&id| one.get(id)).collect();
            assert_eq!(got, want, "{ids:?}");
            let (s, t) = (many.stats(), one.stats());
            assert_eq!((s.cache_hits, s.cache_misses), (t.cache_hits, t.cache_misses), "{ids:?}");
            let (p, q) = (many.pool().stats(), one.pool().stats());
            assert_eq!(p.decoded_rows, q.decoded_rows, "{ids:?}");
        }
    }

    fn geom_heap(pool: Arc<BufferPool>) -> HeapFile {
        let schema = Arc::new(
            Schema::new(vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("geom", DataType::Geometry),
                ColumnDef::new("also", DataType::Geometry),
            ])
            .unwrap(),
        );
        HeapFile::with_pool(schema, pool)
    }

    fn geom(wkt: &str) -> Value {
        Value::Geom(jackpine_geom::wkt::parse(wkt).unwrap())
    }

    #[test]
    fn quads_round_trip_and_follow_their_slot() {
        let h = geom_heap(Arc::new(BufferPool::new()));
        let id = h.insert(vec![Value::Int(1), geom("LINESTRING (0 0, 4 2)"), Value::Null]).unwrap();

        assert_eq!(h.mbr(id, 1).unwrap(), Some([0.0, 0.0, 4.0, 2.0]));
        assert_eq!(h.mbr(id, 0).unwrap(), None, "non-geometry column has no MBR");
        assert_eq!(h.mbr(id, 2).unwrap(), None, "nor has a NULL geometry");
        // Batch accessor agrees with the scalar one and preserves order.
        assert_eq!(h.mbrs(1, &[id, id]).unwrap(), vec![Some([0.0, 0.0, 4.0, 2.0]); 2]);

        // Delete, then put another row into the very slot (as replay
        // does): neither the old row nor its quads may be served.
        assert!(h.delete(id));
        assert!(h.mbr(id, 1).is_err());
        place(&h, vec![Value::Int(2), geom("POINT (9 9)"), geom("POINT (1 2)")], id).unwrap();
        assert_eq!(h.get(id).unwrap()[0], Value::Int(2));
        assert_eq!(h.mbr(id, 1).unwrap(), Some([9.0, 9.0, 9.0, 9.0]));
        assert_eq!(h.mbr(id, 2).unwrap(), Some([1.0, 2.0, 1.0, 2.0]));

        // clear_cache drops quads too (cold-run switch), and the value
        // is recomputed identically from page bytes — which is all the
        // quads need: the row stays undecoded.
        h.clear_cache();
        assert_eq!(h.pool().stats().decoded_rows, 0);
        assert_eq!(h.mbr(id, 1).unwrap(), Some([9.0, 9.0, 9.0, 9.0]));
        assert_eq!(h.mbr(id, 2).unwrap(), Some([1.0, 2.0, 1.0, 2.0]));
        assert_eq!(h.pool().stats().decoded_rows, 0, "quads come from the bytes");
        let misses = h.stats().cache_misses;
        h.get(id).unwrap();
        assert_eq!(h.mbr(id, 0).unwrap(), None);
        assert_eq!(h.stats().cache_misses, misses + 1, "a decoded row's column reads as a hit");
    }

    #[test]
    fn decoded_rows_leave_with_their_frame_and_with_their_heap() {
        let pool = Arc::new(BufferPool::new());
        let (a, b) = (geom_heap(pool.clone()), geom_heap(pool.clone()));
        // Enough rows for three pages of 22-byte tuples.
        const ROWS: u64 = 700;
        let point = geom("POINT (1 1)");
        let mut ids = Vec::new();
        for i in 0..ROWS as i64 {
            ids.push(a.insert(vec![Value::Int(i), point.clone(), Value::Null]).unwrap());
            b.insert(vec![Value::Int(i), point.clone(), Value::Null]).unwrap();
        }
        assert!(a.page_count() > 2);
        assert_eq!(pool.stats().decoded_rows, 0, "inserts decode nothing");
        a.get_many(&ids).unwrap();
        b.get_many(&b.row_ids()).unwrap();
        assert_eq!(pool.stats().decoded_rows, 2 * ROWS, "reads keep what they decoded");
        let kept = Arc::clone(&a.get(ids[0]).unwrap());

        pool.set_capacity_bytes(crate::page::PAGE_SIZE);
        let s = pool.stats();
        assert_eq!(s.resident_frames, 1);
        assert!(
            s.decoded_rows <= ROWS / (u64::from(a.page_count()) - 1),
            "one frame's rows: {s:?}"
        );
        assert_eq!(kept[0], Value::Int(0), "a handle given out outlives the frame");
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(a.get(*id).unwrap()[0], Value::Int(i as i64));
        }

        pool.set_capacity_bytes(0);
        a.row_ids().iter().for_each(|id| drop(a.get(*id).unwrap()));
        b.row_ids().iter().for_each(|id| drop(b.get(*id).unwrap()));
        assert_eq!(pool.stats().decoded_rows, 2 * ROWS);
        let frames = pool.stats().resident_frames;
        drop(a);
        let s = pool.stats();
        assert_eq!((s.decoded_rows, s.resident_frames), (ROWS, frames / 2), "a's went with it");
    }

    #[test]
    fn visibility_generations_gate_readers() {
        let h = heap();
        let a = h.insert(vec![Value::Int(1), Value::Null]).unwrap(); // born 0
        let b = h.insert_at(&vec![Value::Int(2), Value::Null], 5).unwrap();
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
        let b = h.insert_at(&vec![Value::Int(2), Value::Null], 3).unwrap();
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
        let a = h.insert_at(&vec![Value::Int(1), Value::Null], 4).unwrap();
        let b = h.insert_at(&vec![Value::Int(2), Value::Null], 8).unwrap();
        assert!(h.mark_deleted(a, 9));
        h.settle(8);
        // a is logically deleted (must keep its entry until reclaim);
        // b's birth has settled.
        assert_eq!(h.meta_len(), 1);
        assert!(!h.is_visible(a, 10));
        assert!(h.is_visible(b, 0));
    }

    #[test]
    fn an_epoch_captured_inside_a_reclaim_reports_the_overlap() {
        // A reader that captures its epoch while a reclaim is in flight
        // and checks after that reclaim completes collected the dead
        // row's id before the slot went and reads the metadata after
        // the entry went: only the epoch can tell it the id is stale.
        let h = heap();
        let x = h.insert(vec![Value::Int(1), Value::Null]).unwrap();
        assert!(h.mark_deleted(x, 2));
        h.begin_removal();
        let epoch = h.reclaim_epoch();
        let mut ids = vec![x];
        h.finish_reclaim(x);
        h.retain_visible(&mut ids, 5, epoch);
        assert_eq!(ids, vec![], "a reclaimed row passed for settled-visible");
        assert!(h.reclaim_overlapped(epoch));
    }

    #[test]
    fn a_batch_append_equals_one_append_per_tuple() {
        let (batch, single) = (heap(), heap());
        // One row ahead, so the batch starts on a page holding one.
        for h in [&batch, &single] {
            h.insert(vec![Value::Int(-1), Value::Text("w".repeat(2000))]).unwrap();
        }
        // Rows of 1.5-2.6 KiB, and one larger than a page in the middle.
        let mut staged = vec![0xEE; 3]; // tuples need not start at 0
        let tuples: Vec<Range<usize>> = (0..12)
            .map(|i| {
                let len = if i == 7 { 3 * crate::page::PAGE_SIZE } else { 1500 + 100 * i };
                let start = staged.len();
                let row = [Value::Int(i as i64), Value::Text("v".repeat(len))];
                Value::store_row_into(&row, &mut staged);
                start..staged.len()
            })
            .collect();
        let ids = batch.insert_tuples(&staged, &tuples, 5).unwrap();
        let one: Vec<RowId> =
            tuples.iter().map(|r| single.insert_tuple(&staged[r.clone()], 5).unwrap()).collect();
        assert_eq!(ids, one);
        assert_eq!(batch.page_count(), single.page_count());
        let pages: std::collections::BTreeSet<u32> = ids.iter().map(|id| id.page).collect();
        assert!(pages.len() >= 3, "the run crosses two page boundaries: {pages:?}");
        assert_eq!((batch.len(), batch.meta_len()), (13, 12), "one entry per row born at 5");
        assert_eq!(batch.row_ids_visible(4).len(), 1, "unseen before their generation");
        assert_eq!(batch.row_ids_visible(5), single.row_ids_visible(5));
        let mut stored = Vec::new();
        batch
            .scan_tuples(&ids, |_, bytes| {
                stored.push(bytes.to_vec());
                Ok::<(), StorageError>(())
            })
            .unwrap();
        let want: Vec<Vec<u8>> = tuples.iter().map(|r| staged[r.clone()].to_vec()).collect();
        assert!(stored == want, "the slots hold the staged bytes");

        batch.settle(5);
        assert_eq!(batch.meta_len(), 0, "settled");
        batch.insert_tuples(&staged, &tuples[..2], 0).unwrap();
        assert_eq!((batch.len(), batch.meta_len()), (15, 0), "born 0: no entries");
        assert_eq!(batch.insert_tuples(&staged, &[], 9).unwrap(), vec![]);
        assert_eq!(batch.len(), 15);
    }

    #[test]
    fn a_geometry_nested_past_what_wkb_reads_is_refused_at_insert() {
        // One that nests as deep as a WKB reader follows is stored (whole,
        // as WKB) and read back; one deeper would be stored and never read
        // back, so it is refused.
        let nested = |depth| {
            let mut g = jackpine_geom::wkt::parse("POINT (1 2)").unwrap();
            for _ in 0..depth {
                g = jackpine_geom::Geometry::GeometryCollection(jackpine_geom::GeometryCollection(
                    vec![g],
                ));
            }
            Value::Geom(g)
        };
        let h = geom_heap(Arc::new(BufferPool::new()));
        let deep = vec![Value::Int(1), nested(jackpine_geom::wkb::MAX_NESTING), Value::Null];
        let id = h.insert(deep.clone()).unwrap();
        h.clear_cache();
        assert!(*h.get(id).unwrap() == deep);
        let deeper = vec![Value::Int(2), nested(jackpine_geom::wkb::MAX_NESTING + 1), Value::Null];
        let refused = h.insert(deeper);
        assert!(matches!(refused, Err(StorageError::SchemaMismatch(_))), "{refused:?}");
        assert_eq!(h.len(), 1);
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

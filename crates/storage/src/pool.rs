//! The buffer pool: one frame budget over every page file of an engine,
//! and the only place a page — and what was decoded from it — is cached.
//!
//! Each registered file has its own **page table**, a grow-only radix
//! tree over the four bytes of a page number: finding a page takes no
//! lock and no hash. A table entry is permanent once its page was
//! touched and holds the page's frame while it is resident. The
//! frame carries the slotted bytes and, per slot, the row decoded from
//! them and its MBR quads, so one eviction drops all three and a slot's
//! decoded form can change only under the lock its bytes change under.
//!
//! A frame is kept from eviction in two ways. [`BufferPool::pin`] hands
//! out a [`PinnedPage`], counted in the entry, for callers that take the
//! page lock more than once; the heap's own accesses hold the frame's
//! lock for their whole duration, and a held lock is a pin too — the
//! eviction sweep only `try_write`s. When more frames are resident than
//! the capacity allows, a **clock** (second-chance) sweep over all files
//! evicts unpinned ones, writing dirty ones back to the file's
//! [`PageStore`] first. Store reads and write-backs happen under the
//! lock of the one frame concerned and no other.
//!
//! Lock order: page table (lock-free) → frame lock → clock ring; the
//! sweep holds the ring and only *tries* frame locks.
//!
//! A page that leaves the pool goes to its file's [`PageStore`], a spill
//! file made on the file's first write-back: in the directory a caller
//! named with [`BufferPool::set_spill_dir`], else in the system temp
//! directory, under a name no other live pool can take. No second copy
//! is kept in memory. A page that cannot be *read back* is an error
//! ([`BufferPool::try_pin`]); a spill file that cannot be created fails
//! the write-back as a failed write does: the frame stays resident and
//! dirty, and [`BufferPool::flush`] reports the error.
//!
//! Counters (pin hits, cold pins, evictions, dirty write-backs) and
//! levels (resident frames, decoded rows) surface in the `jp_buffer_pool`
//! system-catalog table and the benchmark's cold/warm entries.

use crate::page::{Page, PAGE_SIZE};
use crate::store::{FileStore, PageStore, PoolTag};
use crate::sync::{Mutex, RwLock};
use crate::{Field, Result, Row, StorageError, Value};
use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::ops::Deref;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLockReadGuard, RwLockWriteGuard};

/// Pool-level counters and occupancy, snapshotted by
/// [`BufferPool::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Frame capacity (0 = unbounded).
    pub capacity_frames: u64,
    /// Frames currently resident.
    pub resident_frames: u64,
    /// Resident frames with a nonzero pin count.
    pub pinned_frames: u64,
    /// Rows currently decoded in resident frames.
    pub decoded_rows: u64,
    /// Pins served by an already-resident frame.
    pub pin_hits: u64,
    /// Pins that had to materialize a frame (fresh page or store read).
    pub cold_pins: u64,
    /// Frames evicted under capacity pressure.
    pub evictions: u64,
    /// Evicted or flushed frames whose bytes were written back.
    pub dirty_writebacks: u64,
}

/// MBR quad of one geometry column of a row (see [`Value::mbr`]).
type Quad = Option<[f64; 4]>;

/// Levels the pool reads without a sweep. Every frame holds a handle
/// and subtracts itself when it drops, wherever that happens: eviction,
/// [`BufferPool::clear`], or its file going away.
#[derive(Debug, Default)]
struct Gauges {
    resident: AtomicUsize,
    decoded_rows: AtomicU64,
}

/// One resident page: its slotted bytes and what was decoded from them.
#[derive(Debug)]
struct Frame {
    page: Page,
    /// The row decoded from each slot's current bytes, indexed by slot:
    /// kept by a read that decoded it ([`PageWrite::decode`]), and by
    /// nothing else — not an insert, WAL replay or snapshot restore.
    /// Grown to the slot directory's length when a row is first kept, so
    /// leaf files and never-read pages carry none.
    rows: Vec<Option<Arc<Row>>>,
    /// Per slot, one quad per geometry column, computed from the slot's
    /// bytes on first use and grown like `rows`; empty until then.
    quads: Vec<Option<Box<[Quad]>>>,
    dirty: bool,
    gauges: Arc<Gauges>,
}

impl Frame {
    /// Forgets what was decoded from `slot`. Every change to a slot's
    /// bytes ends here, under the same write guard.
    fn reset(&mut self, slot: u16) {
        if self.rows.get_mut(slot as usize).and_then(Option::take).is_some() {
            self.gauges.decoded_rows.fetch_sub(1, Ordering::Relaxed);
        }
        if let Some(quads) = self.quads.get_mut(slot as usize) {
            *quads = None;
        }
    }

    fn drop_decoded(&mut self) {
        let rows = self.rows.iter().flatten().count();
        self.gauges.decoded_rows.fetch_sub(rows as u64, Ordering::Relaxed);
        (self.rows, self.quads) = (Vec::new(), Vec::new());
    }

    fn keep_row(&mut self, slot: u16, row: Arc<Row>) {
        let at = slot as usize;
        if self.rows.len() <= at {
            self.rows.resize(self.page.slot_count().max(at + 1), None);
        }
        if self.rows[at].replace(row).is_none() {
            self.gauges.decoded_rows.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Drop for Frame {
    fn drop(&mut self) {
        self.drop_decoded();
        self.gauges.resident.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Set in [`Entry::state`] while the entry holds a frame; the bits below
/// it count the live [`PinnedPage`]s.
const RESIDENT: u32 = 1 << 31;

/// One page's permanent place in its file's page table.
#[derive(Debug, Default)]
struct Entry {
    /// `None` while the page is not resident. Loading, write-back and
    /// eviction happen under this lock and no other.
    frame: RwLock<Option<Box<Frame>>>,
    /// One word, so that "resident and unpinned" can be tested and
    /// revoked in a single compare-exchange: a pin that finds
    /// [`RESIDENT`] set needs no lock, and eviction cannot win against
    /// it.
    state: AtomicU32,
    /// Clock reference bit: set on every access, cleared by the sweep.
    referenced: AtomicBool,
}

impl Entry {
    /// Closes a resident, unpinned entry to pins — the first step of
    /// taking its frame away. `false` if it is pinned or not resident.
    fn claim(&self) -> bool {
        self.state.compare_exchange(RESIDENT, 0, Ordering::SeqCst, Ordering::SeqCst).is_ok()
    }
}

/// One level of a page table: 256 children, made on first touch.
type Level<T> = Box<[OnceLock<T>; 256]>;

fn level<T>() -> Level<T> {
    Box::new(std::array::from_fn(|_| OnceLock::new()))
}

/// One registered page file: its backing store and its page table.
pub(crate) struct PageFile {
    /// What [`BufferPool::pin`] and [`BufferPool::unregister`] know this
    /// file by.
    pub(crate) id: u64,
    /// `name-id`: the stem of its spill file, and its `Debug` form.
    name: String,
    store: OnceLock<Box<dyn PageStore>>,
    /// Radix tree over the bytes of a page number, most significant
    /// first. Grow-only, so lookups are lock-free, and a sparse page
    /// number (a corrupt `RowId` read before its checksum) costs three
    /// nodes, not a table as long as the number.
    pages: Level<Level<Level<Box<[Entry; 256]>>>>,
}

impl fmt::Debug for PageFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PageFile({})", self.name)
    }
}

impl PageFile {
    fn entry(&self, page: u32) -> &Entry {
        let [a, b, c, d] = page.to_be_bytes().map(usize::from);
        let leaf = self.pages[a].get_or_init(level)[b].get_or_init(level)[c]
            .get_or_init(|| Box::new(std::array::from_fn(|_| Entry::default())));
        &leaf[d]
    }

    /// Drops every decoded row and quad of pages `0..pages`, keeping
    /// their frames.
    pub(crate) fn drop_decoded(&self, pages: u32) {
        for page in 0..pages {
            if let Some(frame) = self.entry(page).frame.write().as_mut() {
                frame.drop_decoded();
            }
        }
    }
}

fn resident(frame: &Option<Box<Frame>>) -> &Frame {
    frame.as_deref().expect("a pinned or just-loaded page is resident")
}

/// Shared access to a resident page, from [`PinnedPage::read`].
#[derive(Debug)]
pub struct PageRead<'a>(RwLockReadGuard<'a, Option<Box<Frame>>>);

impl Deref for PageRead<'_> {
    type Target = Page;
    fn deref(&self) -> &Page {
        &resident(&self.0).page
    }
}

impl PageRead<'_> {
    /// The row decoded from `slot`'s current bytes, if one is cached.
    pub(crate) fn row(&self, slot: u16) -> Option<&Arc<Row>> {
        resident(&self.0).rows.get(slot as usize)?.as_ref()
    }

    /// The cached quads of `slot`'s row, one per geometry column.
    pub(crate) fn quads(&self, slot: u16) -> Option<&[Quad]> {
        resident(&self.0).quads.get(slot as usize)?.as_deref()
    }
}

/// Exclusive access to a resident page, from [`PinnedPage::write`].
/// Reads go through `Deref`; the page changes only through the methods
/// here, each of which marks the frame dirty and forgets what was
/// decoded from the slots it touches.
#[derive(Debug)]
pub struct PageWrite<'a>(RwLockWriteGuard<'a, Option<Box<Frame>>>);

impl Deref for PageWrite<'_> {
    type Target = Page;
    fn deref(&self) -> &Page {
        &resident(&self.0).page
    }
}

impl PageWrite<'_> {
    fn frame(&mut self) -> &mut Frame {
        self.0.as_deref_mut().expect("a pinned or just-loaded page is resident")
    }

    /// [`Page::insert`].
    pub fn insert(&mut self, tuple: &[u8]) -> u16 {
        let frame = self.frame();
        frame.dirty = true;
        let slot = frame.page.insert(tuple);
        frame.reset(slot);
        slot
    }

    /// [`Page::place`].
    pub fn place(&mut self, slot: u16, tuple: &[u8]) -> Result<()> {
        let frame = self.frame();
        frame.page.place(slot, tuple)?;
        frame.dirty = true;
        frame.reset(slot);
        Ok(())
    }

    /// [`Page::delete`].
    pub fn delete(&mut self, slot: u16) -> bool {
        let frame = self.frame();
        let removed = frame.page.delete(slot);
        if removed {
            frame.dirty = true;
            frame.reset(slot);
        }
        removed
    }

    /// Replaces the page with `page` — restore's way in, for a page read
    /// back from a snapshot — forgetting everything decoded.
    pub(crate) fn replace(&mut self, page: Page) {
        let frame = self.frame();
        frame.drop_decoded();
        (frame.page, frame.dirty) = (page, true);
    }

    /// [`PageRead::row`].
    pub(crate) fn row(&self, slot: u16) -> Option<&Arc<Row>> {
        resident(&self.0).rows.get(slot as usize)?.as_ref()
    }

    /// The row in `slot`: the one kept there, or else decoded from the
    /// slot's bytes now and kept from now on.
    pub(crate) fn decode(&mut self, slot: u16) -> Result<Arc<Row>> {
        let frame = self.frame();
        if let Some(Some(row)) = frame.rows.get(slot as usize) {
            return Ok(row.clone());
        }
        let row = Arc::new(Value::decode_row(frame.page.get(slot)?)?);
        frame.keep_row(slot, row.clone());
        Ok(row)
    }

    /// The quads of columns `cols` of the tuple in `slot`, computed from
    /// its bytes ([`Field::mbr`]) on first use — the row is not decoded.
    pub(crate) fn quads(&mut self, slot: u16, cols: &[usize]) -> Result<&[Quad]> {
        let frame = self.frame();
        let at = slot as usize;
        if frame.quads.get(at).is_none_or(Option::is_none) {
            let tuple = frame.page.get(slot)?;
            let mut quads = vec![None; cols.len()];
            Field::of(tuple, cols, |k, f| f.mbr().map(|q| quads[k] = q))?;
            if frame.quads.len() <= at {
                frame.quads.resize(frame.page.slot_count().max(at + 1), None);
            }
            frame.quads[at] = Some(quads.into());
        }
        Ok(frame.quads[at].as_deref().expect("computed above"))
    }
}

/// RAII pin on one page: while alive, the frame cannot be evicted.
/// Obtain read or write access to the underlying [`Page`] through it;
/// taking a write guard marks the frame dirty.
#[derive(Debug)]
pub struct PinnedPage {
    file: Arc<PageFile>,
    page: u32,
}

impl PinnedPage {
    /// Shared read access to the page.
    pub fn read(&self) -> PageRead<'_> {
        PageRead(self.file.entry(self.page).frame.read())
    }

    /// Exclusive write access; marks the frame dirty.
    pub fn write(&self) -> PageWrite<'_> {
        let mut guard = PageWrite(self.file.entry(self.page).frame.write());
        guard.frame().dirty = true;
        guard
    }
}

impl Drop for PinnedPage {
    fn drop(&mut self) {
        self.file.entry(self.page).state.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Pin hits are counted in one of these by page number, so that two
/// workers fetching from different pages do not share a cache line.
#[derive(Debug, Default)]
#[repr(align(64))]
struct HitCounter(AtomicU64);

/// The shared buffer pool, one per engine: every heap and demand-loaded
/// index file in that engine pins pages through it, sharing one capacity
/// budget.
#[derive(Debug, Default)]
pub struct BufferPool {
    /// Registered files by id; ids are never reused.
    files: RwLock<Vec<Option<Arc<PageFile>>>>,
    /// Clock order over all files: the front is under the hand, loads
    /// and spared frames go to the back. Holds every resident frame's
    /// key except one being evicted right now; keys of files since
    /// unregistered are dropped when the hand meets them.
    ring: Mutex<VecDeque<(u64, u32)>>,
    /// Capacity in frames; 0 = unbounded.
    capacity: AtomicUsize,
    spill_dir: Mutex<Option<PathBuf>>,
    tag: PoolTag,
    gauges: Arc<Gauges>,
    pin_hits: [HitCounter; 16],
    cold_pins: AtomicU64,
    evictions: AtomicU64,
    dirty_writebacks: AtomicU64,
}

impl BufferPool {
    /// Creates an unbounded pool whose spill files go to the system temp
    /// directory.
    pub fn new() -> BufferPool {
        BufferPool::default()
    }

    /// Registers a new page file, returning its id. Its spill file is
    /// named `<name>-<id>.<pool tag>.jkpg`: unique by the id in the pool,
    /// and by the tag among pools.
    pub fn register(&self, name: &str) -> u64 {
        self.open(name, None).id
    }

    /// [`BufferPool::register`] for a caller that keeps the file's
    /// handle and so skips the lookup by id on every access; `store`
    /// replaces the lazily created backing store (tests).
    pub(crate) fn open(&self, name: &str, store: Option<Box<dyn PageStore>>) -> Arc<PageFile> {
        let mut files = self.files.write();
        let file = Arc::new(PageFile {
            id: files.len() as u64,
            name: format!("{name}-{}", files.len()),
            store: store.map(OnceLock::from).unwrap_or_default(),
            pages: level(),
        });
        files.push(Some(file.clone()));
        file
    }

    /// Forgets a registered file: its frames and its spill file go as
    /// soon as the last handle to it does (at once for a caller of
    /// [`BufferPool::register`]).
    pub fn unregister(&self, file: u64) {
        if let Some(slot) = self.files.write().get_mut(file as usize) {
            *slot = None;
        }
    }

    fn file(&self, id: u64) -> Option<Arc<PageFile>> {
        self.files.read().get(id as usize)?.clone()
    }

    /// Pins `page` of `file`, materializing the frame on a miss (from
    /// the backing store when the page was evicted before, as a fresh
    /// empty page otherwise). May push the pool over capacity when
    /// every other frame is pinned; the overflow drains on later pins.
    ///
    /// # Errors
    /// [`StorageError::Corrupt`] when the store lists the page and
    /// cannot produce a decodable image of it, or `file` is not
    /// registered.
    pub fn try_pin(&self, file: u64, page: u32) -> Result<PinnedPage> {
        let file = self
            .file(file)
            .ok_or_else(|| StorageError::Corrupt(format!("page file {file} is not registered")))?;
        self.pin_entry(&file, page)?;
        Ok(PinnedPage { file, page })
    }

    /// [`BufferPool::try_pin`] for callers with no error path: a page
    /// that cannot be read back panics, as an undecodable one always
    /// has.
    pub fn pin(&self, file: u64, page: u32) -> PinnedPage {
        self.try_pin(file, page).unwrap_or_else(|e| panic!("buffer pool: {e}"))
    }

    /// Shared access to a page for the length of the guard, which is
    /// all the pin such an access needs.
    pub(crate) fn read<'a>(&self, file: &'a Arc<PageFile>, page: u32) -> Result<PageRead<'a>> {
        let entry = file.entry(page);
        let guard = entry.frame.read();
        if guard.is_some() {
            self.hit(entry, page);
            return Ok(PageRead(guard));
        }
        drop(guard);
        // Pinned across the load, so that the frame is still there when
        // the lock is taken again.
        self.pin_entry(file, page)?;
        let guard = entry.frame.read();
        entry.state.fetch_sub(1, Ordering::SeqCst);
        Ok(PageRead(guard))
    }

    /// Exclusive access to a page; see [`BufferPool::read`].
    pub(crate) fn write<'a>(&self, file: &'a Arc<PageFile>, page: u32) -> Result<PageWrite<'a>> {
        let entry = file.entry(page);
        let guard = entry.frame.write();
        if guard.is_some() {
            self.hit(entry, page);
            return Ok(PageWrite(guard));
        }
        drop(guard);
        self.pin_entry(file, page)?;
        let guard = entry.frame.write();
        entry.state.fetch_sub(1, Ordering::SeqCst);
        Ok(PageWrite(guard))
    }

    fn hit(&self, entry: &Entry, page: u32) {
        if !entry.referenced.load(Ordering::Relaxed) {
            entry.referenced.store(true, Ordering::Relaxed);
        }
        self.pin_hits[page as usize % self.pin_hits.len()].0.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a pin on `page` and makes it resident; the caller owes the
    /// matching decrement of `state` unless this fails.
    fn pin_entry(&self, file: &Arc<PageFile>, page: u32) -> Result<()> {
        let entry = file.entry(page);
        if entry.state.fetch_add(1, Ordering::SeqCst) & RESIDENT != 0 {
            self.hit(entry, page);
            return Ok(());
        }
        self.load(file, entry, page).inspect_err(|_| {
            entry.state.fetch_sub(1, Ordering::SeqCst);
        })
    }

    fn load(&self, file: &Arc<PageFile>, entry: &Entry, page: u32) -> Result<()> {
        let mut guard = entry.frame.write();
        if guard.is_some() {
            // Loaded by another thread, or an eviction was called off,
            // while this one waited for the lock.
            self.hit(entry, page);
            return Ok(());
        }
        let unreadable = |why: &dyn fmt::Display| {
            StorageError::Corrupt(format!(
                "page {page} of file {file:?} cannot be read back: {why}"
            ))
        };
        let image = match file.store.get() {
            Some(store) => store.read_page(page).map_err(|e| unreadable(&e))?,
            None => None,
        };
        // A page no store holds yet starts empty, and owes a write-back.
        let (content, dirty) = match image {
            Some(bytes) => (Page::from_bytes(bytes).map_err(|e| unreadable(&e))?, false),
            None => (Page::new(), true),
        };
        self.gauges.resident.fetch_add(1, Ordering::Relaxed);
        *guard = Some(Box::new(Frame {
            page: content,
            rows: Vec::new(),
            quads: Vec::new(),
            dirty,
            gauges: self.gauges.clone(),
        }));
        entry.referenced.store(true, Ordering::Relaxed);
        entry.state.fetch_or(RESIDENT, Ordering::SeqCst);
        self.cold_pins.fetch_add(1, Ordering::Relaxed);
        self.ring.lock().push_back((file.id, page));
        drop(guard);
        self.evict_overflow();
        Ok(())
    }

    /// Writes `frame` to its file's store, made by the file's first
    /// write-back: a file in the spill directory if one is set, else in
    /// the temp directory. The frame stays dirty if that fails, and a
    /// spill file that cannot be created fails it too; the next
    /// write-back tries again.
    fn write_back(&self, file: &PageFile, page: u32, frame: &mut Frame) -> io::Result<()> {
        // Made under the spill-directory lock, so a file's store is made once.
        let unmade = file.store.get().is_none().then(|| self.spill_dir.lock());
        if let Some(dir) = unmade.filter(|_| file.store.get().is_none()) {
            let dir = dir.clone().unwrap_or_else(std::env::temp_dir);
            let path = dir.join(format!("{}.{}.jkpg", file.name, self.tag.0));
            file.store.set(Box::new(FileStore::create(path)?)).ok();
        }
        let store = file.store.get().expect("made above");
        store.write_page(page, &frame.page.to_bytes())?;
        frame.dirty = false;
        self.dirty_writebacks.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Evicts unpinned frames until the pool is back under capacity (or
    /// only pinned frames remain).
    fn evict_overflow(&self) {
        let cap = self.capacity.load(Ordering::Relaxed);
        while cap != 0 && self.gauges.resident.load(Ordering::Relaxed) > cap && self.evict_one() {}
    }

    /// Second-chance sweep: frames that are pinned, in use (a held lock
    /// is a pin too) or referenced since the hand last passed go to the
    /// back of the ring, the last with their bit cleared; the first
    /// frame found otherwise is evicted. `false` when two turns of the
    /// ring found none, or the victim's write-back failed.
    fn evict_one(&self) -> bool {
        let mut ring = self.ring.lock();
        // Two full turns: the first may only clear reference bits.
        for _ in 0..2 * ring.len() {
            let Some(key @ (id, page)) = ring.pop_front() else { break };
            let Some(file) = self.file(id) else { continue };
            let entry = file.entry(page);
            if entry.state.load(Ordering::SeqCst) != RESIDENT
                || entry.referenced.swap(false, Ordering::Relaxed)
            {
                ring.push_back(key);
                continue;
            }
            let Some(mut guard) = entry.frame.try_write().filter(|_| entry.claim()) else {
                ring.push_back(key);
                continue;
            };
            // Out of the ring and closed to pins: what follows happens
            // under this frame's lock alone.
            drop(ring);
            let frame = guard.as_deref_mut().expect("a resident entry holds a frame");
            if frame.dirty && self.write_back(&file, page, frame).is_err() {
                entry.state.fetch_or(RESIDENT, Ordering::SeqCst);
                self.ring.lock().push_back(key);
                return false;
            }
            *guard = None;
            self.evictions.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Sets the pool capacity in bytes (frames of [`PAGE_SIZE`], a
    /// smaller non-zero request rounded up to one; 0 = unbounded) and
    /// evicts down to it immediately.
    pub fn set_capacity_bytes(&self, bytes: usize) {
        self.capacity.store((bytes / PAGE_SIZE).max(usize::from(bytes > 0)), Ordering::Relaxed);
        self.evict_overflow();
    }

    /// Capacity in frames (0 = unbounded).
    pub fn capacity_frames(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Directory for spill files; `None` (the default) is the system
    /// temp directory. Applies to stores created after the call (stores
    /// materialize on first write-back).
    pub fn set_spill_dir(&self, dir: Option<PathBuf>) {
        *self.spill_dir.lock() = dir;
    }

    /// Writes every dirty frame back to its store without evicting —
    /// the engine's `close` uses this. Stops at the first store error.
    pub fn flush(&self) -> io::Result<()> {
        let keys: Vec<(u64, u32)> = self.ring.lock().iter().copied().collect();
        for (id, page) in keys {
            let Some(file) = self.file(id) else { continue };
            let mut guard = file.entry(page).frame.write();
            if let Some(frame) = guard.as_deref_mut().filter(|frame| frame.dirty) {
                self.write_back(&file, page, frame)?;
            }
        }
        Ok(())
    }

    /// The cold-run switch: writes every dirty frame back, drops all
    /// unpinned frames and every decoded row, and re-opens the backing
    /// stores, so the next pin of any page is a genuine cold pin through
    /// the store. A frame whose write-back fails stays, like a pinned one.
    pub fn clear(&self) {
        let keys = std::mem::take(&mut *self.ring.lock());
        let mut kept = Vec::new();
        for key @ (id, page) in keys {
            let Some(file) = self.file(id) else { continue };
            let entry = file.entry(page);
            let mut guard = entry.frame.write();
            let Some(frame) = guard.as_deref_mut() else { continue };
            let clean = !frame.dirty || self.write_back(&file, page, frame).is_ok();
            if clean && entry.claim() {
                *guard = None;
            } else {
                frame.drop_decoded();
                kept.push(key);
            }
        }
        self.ring.lock().extend(kept);
        for file in self.files.read().iter().flatten() {
            if let Some(store) = file.store.get() {
                store.reopen();
            }
        }
    }

    /// Counter and occupancy snapshot.
    pub fn stats(&self) -> PoolStats {
        let ring = self.ring.lock();
        let files = self.files.read();
        let pinned = |&&(id, page): &&(u64, u32)| {
            let file = files.get(id as usize).and_then(Option::as_ref);
            file.is_some_and(|f| f.entry(page).state.load(Ordering::SeqCst) > RESIDENT)
        };
        PoolStats {
            capacity_frames: self.capacity.load(Ordering::Relaxed) as u64,
            resident_frames: self.gauges.resident.load(Ordering::Relaxed) as u64,
            pinned_frames: ring.iter().filter(pinned).count() as u64,
            decoded_rows: self.gauges.decoded_rows.load(Ordering::Relaxed),
            pin_hits: self.pin_hits.iter().map(|c| c.0.load(Ordering::Relaxed)).sum(),
            cold_pins: self.cold_pins.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            dirty_writebacks: self.dirty_writebacks.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn fill(pool: &BufferPool, file: u64, page: u32, text: &[u8]) {
        let pin = pool.pin(file, page);
        pin.write().insert(text);
    }

    fn first_tuple(pool: &BufferPool, file: u64, page: u32) -> Vec<u8> {
        let pin = pool.pin(file, page);
        let guard = pin.read();
        guard.get(0).unwrap().to_vec()
    }

    #[test]
    fn pin_counters_distinguish_hits_from_cold_pins() {
        let pool = BufferPool::new();
        let f = pool.register("t");
        fill(&pool, f, 0, b"hello");
        assert_eq!(first_tuple(&pool, f, 0), b"hello");
        let s = pool.stats();
        assert_eq!(s.cold_pins, 1);
        assert_eq!(s.pin_hits, 1);
        assert_eq!(s.resident_frames, 1);
        assert_eq!(s.evictions, 0);
    }

    #[test]
    fn eviction_writes_back_and_reloads_identically() {
        let pool = BufferPool::new();
        pool.set_capacity_bytes(2 * PAGE_SIZE);
        let f = pool.register("t");
        for p in 0..6u32 {
            fill(&pool, f, p, format!("page-{p}").as_bytes());
        }
        let s = pool.stats();
        assert!(s.evictions >= 4, "capacity 2 must evict, got {s:?}");
        assert!(s.dirty_writebacks >= 4);
        assert!(s.resident_frames <= 2);
        for p in 0..6u32 {
            assert_eq!(first_tuple(&pool, f, p), format!("page-{p}").as_bytes());
        }
    }

    #[test]
    fn pinned_frames_survive_capacity_pressure() {
        let pool = BufferPool::new();
        pool.set_capacity_bytes(PAGE_SIZE); // 1 frame
        let f = pool.register("t");
        let a = pool.pin(f, 0);
        a.write().insert(b"pinned");
        // Pinning a second page overflows, but the pinned frame must
        // not be stolen.
        let b = pool.pin(f, 1);
        b.write().insert(b"other");
        assert_eq!(a.read().get(0).unwrap(), b"pinned");
        assert!(pool.stats().resident_frames >= 2, "over-capacity while pinned");
        drop(a);
        drop(b);
        // Pressure drains once pins release.
        fill(&pool, f, 2, b"third");
        assert!(pool.stats().resident_frames <= 1);
    }

    #[test]
    fn clear_drops_frames_and_preserves_bytes() {
        let pool = BufferPool::new();
        let f = pool.register("t");
        fill(&pool, f, 0, b"durable");
        let before = pool.stats().cold_pins;
        pool.clear();
        assert_eq!(pool.stats().resident_frames, 0);
        assert_eq!(first_tuple(&pool, f, 0), b"durable");
        assert_eq!(pool.stats().cold_pins, before + 1, "post-clear pin is cold");
    }

    #[test]
    fn spill_dir_creates_and_cleans_real_page_files() {
        let dir = std::env::temp_dir().join(format!("jackpine-pool-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let pool = BufferPool::new();
        pool.set_spill_dir(Some(dir.clone()));
        let f = pool.register("spill");
        fill(&pool, f, 0, b"on-disk");
        fill(&pool, f, 1, b"second");
        pool.clear();
        let spill_files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("spill"))
            .collect();
        assert_eq!(spill_files.len(), 1, "one page file per registered file");
        assert_eq!(first_tuple(&pool, f, 0), b"on-disk");
        assert_eq!(first_tuple(&pool, f, 1), b"second");
        drop(pool);
        assert!(
            std::fs::read_dir(&dir).unwrap().next().is_none(),
            "FileStore drop removes its spill file"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_spill_file_that_cannot_be_created_fails_the_write_back() {
        let tmp = std::env::temp_dir();
        let not_a_dir = tmp.join(format!("jackpine-not-a-dir-{}", std::process::id()));
        std::fs::write(&not_a_dir, b"a regular file").unwrap();
        let pool = BufferPool::new();
        pool.set_spill_dir(Some(not_a_dir.clone()));
        pool.set_capacity_bytes(PAGE_SIZE);
        let f = pool.register("t");
        fill(&pool, f, 0, b"first");
        // Evicting page 0 needs its store, which cannot be made: the
        // frame stays, dirty, and nothing went to memory instead.
        fill(&pool, f, 1, b"second");
        let s = pool.stats();
        assert_eq!((s.resident_frames, s.evictions, s.dirty_writebacks), (2, 0, 0), "{s:?}");
        assert!(pool.flush().is_err(), "flush reports the store error");
        // The store stayed unmade: the next write-back tries again.
        let dir = tmp.join(format!("jackpine-retry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        pool.set_spill_dir(Some(dir.clone()));
        pool.flush().unwrap();
        assert_eq!(pool.stats().dirty_writebacks, 2);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1, "the page file was made");
        pool.clear();
        assert_eq!(first_tuple(&pool, f, 0), b"first");
        drop(pool);
        std::fs::remove_file(&not_a_dir).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn with_no_spill_dir_evicted_pages_go_to_a_temp_file_that_goes_with_the_pool() {
        let pool = BufferPool::new();
        pool.set_capacity_bytes(PAGE_SIZE);
        let ours = format!(".{}.jkpg", pool.tag.0);
        let files_of_this_pool = || {
            let names = std::fs::read_dir(std::env::temp_dir()).unwrap().flatten();
            names.filter(|e| e.file_name().to_string_lossy().ends_with(&ours)).count()
        };
        let f = pool.register("t");
        for p in 0..8u32 {
            fill(&pool, f, p, format!("page-{p}").as_bytes());
        }
        assert!(pool.stats().evictions >= 7);
        assert_eq!(files_of_this_pool(), 1, "one file in the temp directory for the one page file");
        for p in 0..8u32 {
            assert_eq!(first_tuple(&pool, f, p), format!("page-{p}").as_bytes());
        }
        drop(pool);
        assert_eq!(files_of_this_pool(), 0, "the file goes with its store");
    }

    #[test]
    fn clock_gives_a_repinned_frame_its_second_chance() {
        let pool = BufferPool::new();
        pool.set_capacity_bytes(3 * PAGE_SIZE);
        let f = pool.register("t");
        // The fourth fill sweeps every reference bit clear and evicts
        // page 0, leaving the hand on page 1.
        for p in 0..4u32 {
            fill(&pool, f, p, b"x");
        }
        // Page 1 is pinned again; page 2 behind it stays untouched.
        assert_eq!(first_tuple(&pool, f, 1), b"x");
        // The hand meets page 1 first, spares it, and takes page 2.
        fill(&pool, f, 4, b"x");
        assert_eq!(pool.stats().evictions, 2);
        let resident = |p: u32| {
            let before = pool.stats().pin_hits;
            let _pin = pool.pin(f, p);
            pool.stats().pin_hits > before
        };
        assert!(resident(1), "the re-pinned page survived the sweep");
        assert!(!resident(2), "the untouched page behind it was evicted");
    }

    #[test]
    fn concurrent_pins_never_lose_writes() {
        let pool = Arc::new(BufferPool::new());
        pool.set_capacity_bytes(4 * PAGE_SIZE);
        let f = pool.register("t");
        let threads: Vec<_> = (0..4u32)
            .map(|t| {
                let pool = pool.clone();
                std::thread::spawn(move || {
                    for p in 0..16u32 {
                        let pin = pool.pin(f, t * 16 + p);
                        pin.write().insert(format!("{t}/{p}").as_bytes());
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        for t in 0..4u32 {
            for p in 0..16u32 {
                assert_eq!(first_tuple(&pool, f, t * 16 + p), format!("{t}/{p}").as_bytes());
            }
        }
    }

    #[test]
    fn a_request_below_one_frame_still_bounds_the_pool() {
        let pool = BufferPool::new();
        pool.set_capacity_bytes(PAGE_SIZE / 2);
        assert_eq!(pool.capacity_frames(), 1, "0 is the unbounded sentinel, not a rounding result");
        pool.set_capacity_bytes(3 * PAGE_SIZE + 1);
        assert_eq!(pool.capacity_frames(), 3);
        pool.set_capacity_bytes(0);
        assert_eq!(pool.capacity_frames(), 0);
    }

    #[test]
    fn unregister_releases_frames_images_and_the_spill_file() {
        let dir = std::env::temp_dir().join(format!("jackpine-unreg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let pool = BufferPool::new();
        pool.set_spill_dir(Some(dir.clone()));
        pool.set_capacity_bytes(4 * PAGE_SIZE);
        let (gone, kept) = (pool.register("gone"), pool.register("kept"));
        for p in 0..6u32 {
            fill(&pool, gone, p, b"g");
            fill(&pool, kept, p, b"k");
        }
        pool.set_capacity_bytes(0);
        for p in 0..6u32 {
            first_tuple(&pool, gone, p);
            first_tuple(&pool, kept, p);
        }
        let spilled = |name: &str| {
            std::fs::read_dir(&dir)
                .unwrap()
                .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().starts_with(name))
                .count()
        };
        assert_eq!((spilled("gone"), spilled("kept")), (1, 1));
        assert_eq!(pool.stats().resident_frames, 12);

        pool.unregister(gone);
        assert_eq!(pool.stats().resident_frames, 6, "its frames went with it");
        assert_eq!((spilled("gone"), spilled("kept")), (0, 1), "and its spill file");
        assert!(pool.try_pin(gone, 0).is_err(), "the id is not reused and no longer pins");
        // The ring still lists the dropped file's pages; the sweep skips them.
        pool.set_capacity_bytes(2 * PAGE_SIZE);
        assert_eq!(pool.stats().resident_frames, 2);
        for p in 0..6u32 {
            assert_eq!(first_tuple(&pool, kept, p), b"k");
        }
        drop(pool);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An in-memory store whose reads of one page wait at two barriers,
    /// and whose reads and writes can be made to fail.
    #[derive(Debug)]
    struct GatedStore {
        pages: Mutex<HashMap<u32, Vec<u8>>>,
        gated: u32,
        entered: std::sync::Barrier,
        release: std::sync::Barrier,
        reads: AtomicU64,
        fail_reads: AtomicBool,
        fail_writes: AtomicBool,
    }

    impl GatedStore {
        fn new(gated: u32) -> Arc<GatedStore> {
            Arc::new(GatedStore {
                pages: Mutex::default(),
                gated,
                entered: std::sync::Barrier::new(2),
                release: std::sync::Barrier::new(2),
                reads: AtomicU64::new(0),
                fail_reads: AtomicBool::new(false),
                fail_writes: AtomicBool::new(false),
            })
        }
    }

    fn injected(fail: &AtomicBool) -> io::Result<()> {
        match fail.load(Ordering::SeqCst) {
            true => Err(io::Error::other("injected")),
            false => Ok(()),
        }
    }

    impl PageStore for Arc<GatedStore> {
        fn read_page(&self, page: u32) -> io::Result<Option<Vec<u8>>> {
            injected(&self.fail_reads)?;
            if page == self.gated {
                self.reads.fetch_add(1, Ordering::SeqCst);
                self.entered.wait();
                self.release.wait();
            }
            Ok(self.pages.lock().get(&page).cloned())
        }

        fn write_page(&self, page: u32, image: &[u8]) -> io::Result<()> {
            injected(&self.fail_writes)?;
            self.pages.lock().insert(page, image.to_vec());
            Ok(())
        }

        fn reopen(&self) {}
    }

    fn image(text: &[u8]) -> Vec<u8> {
        let mut page = Page::new();
        page.insert(text);
        page.to_bytes()
    }

    #[test]
    fn a_load_blocks_neither_hits_nor_a_second_load_of_its_page() {
        const A: u32 = 7;
        const B: u32 = 8;
        let store = GatedStore::new(A);
        store.write_page(A, &image(b"a")).unwrap();
        store.write_page(B, &image(b"b")).unwrap();
        let pool = BufferPool::new();
        let file = pool.open("gated", Some(Box::new(store.clone())));
        assert_eq!(first_tuple(&pool, file.id, B), b"b");
        let before = pool.stats();

        std::thread::scope(|s| {
            let first = s.spawn(|| first_tuple(&pool, file.id, A));
            store.entered.wait(); // `first` is inside read_page(A), holding A's frame lock
            assert_eq!(
                first_tuple(&pool, file.id, B),
                b"b",
                "a hit on B does not wait for A's read"
            );
            assert_eq!(pool.read(&file, B).unwrap().get(0).unwrap(), b"b");
            let second = s.spawn(|| first_tuple(&pool, file.id, A));
            // Two pins counted and nothing resident: `second` is past the
            // point where it could have hit, so it must wait for the load.
            while file.entry(A).state.load(Ordering::SeqCst) != 2 {
                std::thread::yield_now();
            }
            store.release.wait();
            assert_eq!(first.join().unwrap(), b"a");
            assert_eq!(second.join().unwrap(), b"a");
        });
        let after = pool.stats();
        assert_eq!(after.cold_pins, before.cold_pins + 1, "two misses on A, one load");
        assert_eq!(store.reads.load(Ordering::SeqCst), 1);
        assert_eq!(after.pin_hits, before.pin_hits + 3, "B twice, and the pin that waited for A");
    }

    #[test]
    fn store_errors_surface_and_lose_nothing() {
        let store = GatedStore::new(u32::MAX);
        let pool = BufferPool::new();
        let file = pool.open("flaky", Some(Box::new(store.clone())));
        pool.set_capacity_bytes(2 * PAGE_SIZE);
        fill(&pool, file.id, 0, b"zero");
        fill(&pool, file.id, 1, b"one");

        // Write-backs fail: the frames stay, dirty, and the pool runs
        // over capacity instead of dropping them.
        store.fail_writes.store(true, Ordering::SeqCst);
        fill(&pool, file.id, 2, b"two");
        let s = pool.stats();
        assert_eq!((s.resident_frames, s.evictions, s.dirty_writebacks), (3, 0, 0));
        assert!(pool.flush().is_err());
        pool.clear();
        assert_eq!(pool.stats().resident_frames, 3, "clear() keeps what it could not write");

        // The store recovers: everything is written and read back.
        store.fail_writes.store(false, Ordering::SeqCst);
        pool.clear();
        assert_eq!(pool.stats().resident_frames, 0);
        assert_eq!(first_tuple(&pool, file.id, 0), b"zero");

        // Reads fail: a page the store holds is an error, not an empty page.
        pool.clear();
        store.fail_reads.store(true, Ordering::SeqCst);
        let err = pool.try_pin(file.id, 1).unwrap_err();
        assert!(
            matches!(&err, StorageError::Corrupt(m) if m.contains("page 1") && m.contains("flaky")),
            "{err}"
        );
        assert!(pool.read(&file, 2).is_err());
        assert_eq!(pool.stats().resident_frames, 0);
        assert_eq!(pool.stats().pinned_frames, 0);
        store.fail_reads.store(false, Ordering::SeqCst);
        assert_eq!(first_tuple(&pool, file.id, 1), b"one");
    }

    #[test]
    fn random_operations_agree_with_a_model() {
        type Slots = Vec<Option<Vec<u8>>>;
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n
        };
        let pool = BufferPool::new();
        let mut files: Vec<Arc<PageFile>> =
            (0..3).map(|i| pool.open(&format!("f{i}"), None)).collect();
        let mut model: HashMap<(usize, u32), Slots> = HashMap::new();
        let mut capacity = 0u64;
        for step in 0..3000i64 {
            let (f, p) = (next(3) as usize, next(5) as u32);
            let slots = model.entry((f, p)).or_default();
            let text = Value::Text("x".repeat(next(600) as usize));
            let tuple = Value::store_row(&[Value::Int(step), text]);
            match next(16) {
                0 => pool.clear(),
                1 => {
                    capacity = next(5);
                    pool.set_capacity_bytes(capacity as usize * PAGE_SIZE);
                }
                2 => {
                    pool.unregister(files[f].id);
                    files[f] = pool.open(&format!("f{f}"), None);
                    model.retain(|key, _| key.0 != f);
                }
                3..=6 => {
                    let slot = pool.write(&files[f], p).unwrap().insert(&tuple);
                    assert_eq!(slot as usize, slots.len());
                    slots.push(Some(tuple));
                }
                7..=8 if !slots.is_empty() => {
                    let slot = next(slots.len() as u64) as usize;
                    let removed = pool.write(&files[f], p).unwrap().delete(slot as u16);
                    assert_eq!(removed, slots[slot].take().is_some());
                }
                9..=10 => {
                    let slot = next(slots.len() as u64 + 2) as usize;
                    let placed = pool.write(&files[f], p).unwrap().place(slot as u16, &tuple);
                    let free = slots.get(slot).is_none_or(Option::is_none);
                    assert_eq!(placed.is_ok(), free);
                    if free {
                        slots.resize(slots.len().max(slot + 1), None);
                        slots[slot] = Some(tuple);
                    }
                }
                _ if !slots.is_empty() => {
                    // Through the public pin on odd steps, so that both
                    // ways in are exercised.
                    let slot = next(slots.len() as u64) as u16;
                    let _pin = (step % 2 == 1).then(|| pool.pin(files[f].id, p));
                    let row = pool.write(&files[f], p).unwrap().decode(slot);
                    let want = slots[slot as usize].as_ref().map(|b| Value::decode_row(b).unwrap());
                    assert_eq!(row.ok().map(|r| (*r).clone()), want);
                }
                _ => {}
            }

            let mut decoded = 0;
            for (&(f, p), slots) in &model {
                let page = pool.read(&files[f], p).unwrap();
                assert_eq!(page.slot_count(), slots.len(), "step {step}: page {f}/{p}");
                for (slot, want) in slots.iter().enumerate() {
                    assert_eq!(page.get(slot as u16).ok(), want.as_deref(), "step {step}");
                    if let Some(row) = page.row(slot as u16) {
                        decoded += 1;
                        let bytes = Value::store_row(row);
                        assert_eq!(
                            Some(&bytes),
                            want.as_ref(),
                            "step {step}: a row outlived its bytes"
                        );
                    }
                }
            }
            let stats = pool.stats();
            assert_eq!(stats.pinned_frames, 0);
            if capacity == 0 {
                assert_eq!(
                    stats.decoded_rows, decoded,
                    "step {step}: nothing evicts, so the count is exact"
                );
                assert_eq!(stats.resident_frames, model.len() as u64);
            } else {
                assert!(stats.resident_frames <= capacity, "step {step}: {stats:?}");
            }
        }
        assert!(pool.stats().evictions > 1000 && pool.stats().dirty_writebacks > 100);
    }
}

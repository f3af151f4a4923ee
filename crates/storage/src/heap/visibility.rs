//! Row visibility (MVCC): the heap's side table of generations, and
//! the removals that race the readers of it.
//!
//! Each row optionally carries a `(born, died)` generation pair in a
//! side table. A reader pinned at generation `g` sees exactly the rows
//! with `born <= g && died > g`; rows without an entry are visible at
//! every generation. Writers stamp new rows with their commit
//! generation ([`HeapFile::insert_tuples`]) and delete logically
//! ([`HeapFile::mark_deleted`]) so concurrent snapshot readers keep
//! seeing the old version until every snapshot that could need it is
//! gone — at which point [`HeapFile::reclaim`] tombstones the bytes and
//! [`HeapFile::settle`] prunes entries the visibility horizon has
//! passed, restoring the metadata-free fast path. The lock order this
//! keeps is the heap's (see its module docs): the meta lock is never
//! held while touching a page.

use super::{HeapFile, RowId, LIVE};
use std::sync::atomic::Ordering;

impl HeapFile {
    /// Logically deletes a row at generation `died`: snapshots pinned
    /// before `died` keep seeing it; the bytes stay in place until
    /// [`HeapFile::reclaim`]. Returns whether a live row existed.
    pub fn mark_deleted(&self, id: RowId, died: u64) -> bool {
        if !self.slot_present(id) {
            return false;
        }
        let mut meta = self.meta.write();
        let (_, d) = meta.entry(id).or_insert((0, LIVE));
        if *d != LIVE {
            return false; // already deleted
        }
        *d = died;
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
    /// counters bracket everything (see the field note), the slot goes
    /// first — and its decoded row with it, under the same guard — and
    /// the visibility entry last (so a metadata-free id whose reclaim
    /// has finished is guaranteed to have lost its slot — see
    /// [`HeapFile::retain_visible`]).
    pub fn reclaim(&self, id: RowId) {
        self.begin_removal();
        self.finish_reclaim(id);
    }

    /// Opens a physical removal's bracket (see the field note).
    pub(super) fn begin_removal(&self) {
        self.reclaims_started.fetch_add(1, Ordering::SeqCst);
    }

    /// The rest of [`HeapFile::reclaim`]: slot, entry, closing bracket.
    /// Returns whether the slot held a row; panics where
    /// [`HeapFile::page`] would.
    pub(super) fn finish_reclaim(&self, id: RowId) -> bool {
        let deleted = id.page < self.npages.load(Ordering::Relaxed)
            && self.write(id.page).unwrap_or_else(|e| panic!("heap: {e}")).delete(id.slot);
        self.meta.write().remove(&id);
        self.reclaims_finished.fetch_add(1, Ordering::SeqCst);
        deleted
    }

    /// The count of finished removals, to capture *before* collecting
    /// row ids from an index probe or page sweep; pass it to
    /// [`HeapFile::retain_visible`] so a vacuum overlapping the
    /// collection is detected rather than misread.
    pub fn reclaim_epoch(&self) -> u64 {
        self.reclaims_finished.load(Ordering::SeqCst)
    }

    /// Whether a physical removal was in flight when `epoch` was
    /// captured or has begun since: the removals started by now differ
    /// from the removals that had finished then. When this is false, no
    /// metadata entry can have been dropped since the capture, so a
    /// metadata-free id observed since then is a settled always-visible
    /// row — and a row fully reclaimed *before* the capture was removed
    /// from every index first, so it cannot have been collected at all.
    pub(super) fn reclaim_overlapped(&self, epoch: u64) -> bool {
        self.reclaims_started.load(Ordering::SeqCst) != epoch
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
    /// settled case stays one is-empty check plus one atomic load.
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
            // metadata lock is never held while touching a page (see
            // the lock-order note above). Visible survivors are present by
            // definition (a pinned reader's rows cannot be reclaimed),
            // so this only ever drops concurrently-reclaimed ids.
            ids.retain(|id| self.slot_present(*id));
        }
    }

    /// Whether `id` physically holds row bytes right now. Readers use
    /// this to separate settled rows from concurrently-reclaimed ones.
    pub(super) fn slot_present(&self, id: RowId) -> bool {
        id.page < self.npages.load(Ordering::Relaxed) && self.page(id.page).get(id.slot).is_ok()
    }

    /// Immediately and physically deletes a row (single-session paths
    /// and vacuum). Returns whether it existed. Snapshot-aware deletes
    /// go through [`HeapFile::mark_deleted`] instead.
    pub fn delete(&self, id: RowId) -> bool {
        // A reclaim that counts the row: rollback paths physically remove
        // rows while lock-free readers may be mid-sweep, and the epoch
        // check is what keeps them honest.
        self.begin_removal();
        let deleted = self.finish_reclaim(id);
        if deleted {
            self.row_count.fetch_sub(1, Ordering::Relaxed);
        }
        deleted
    }

    /// Every physically-present row id, in storage order, collected one
    /// page at a time with no other lock held: logically-deleted rows
    /// awaiting reclaim included. Index builds use this so rows still
    /// visible to an older pinned snapshot remain probe-able through the
    /// new index.
    pub fn row_ids_any(&self) -> Vec<RowId> {
        let npages = self.npages.load(Ordering::Relaxed);
        let mut out = Vec::with_capacity(self.len());
        for p in 0..npages {
            out.extend(self.page(p).iter().map(|(slot, _)| RowId { page: p, slot }));
        }
        out
    }

    /// All currently-live row ids (latest state, a writer's own rows
    /// included), in storage order. Excludes logically-deleted rows
    /// awaiting reclaim: every death is at a generation below `LIVE - 1`.
    pub fn row_ids(&self) -> Vec<RowId> {
        self.row_ids_visible(LIVE - 1)
    }

    /// Row ids visible to a snapshot pinned at generation `gen`, in
    /// storage order: `born <= gen && died > gen`, plus every
    /// metadata-free row.
    pub fn row_ids_visible(&self, gen: u64) -> Vec<RowId> {
        // Collect physical ids first, then filter under one meta read:
        // the meta lock is never held while touching a page. Any row
        // *written* mid-sweep whose bytes we observed has its entry
        // published (the writer publishes before releasing the frame's
        // write guard), so the later meta read cannot miss it. A row
        // *reclaimed* mid-sweep would be misread — its entry is gone
        // by the time we filter — so the sweep retries when the epoch
        // check reports an overlapping reclaim (rare: vacuum only).
        loop {
            let epoch = self.reclaim_epoch();
            let present = self.row_ids_any();
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
}

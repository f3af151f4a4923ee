//! Slotted pages: the serialized resting place of rows.
//!
//! A page is a byte buffer with tuples packed from the front and a slot
//! directory (offset, length) growing from the back, the classic heap-file
//! layout. Deleted slots are tombstoned (length 0) so row ids stay stable.

use crate::{Result, StorageError};

/// Target page payload size in bytes. A tuple larger than this gets a
/// dedicated oversized page (spatial rows with large polygons are common
/// in cadastral data, so this must not be a hard limit).
pub const PAGE_SIZE: usize = 8192;

const SLOT_BYTES: usize = 8; // u32 offset + u32 length

/// A slotted page.
#[derive(Clone, Debug)]
pub struct Page {
    /// The tuples, from `base` on. A page read back from a store keeps
    /// its whole image here and skips the directory in front of them.
    data: Vec<u8>,
    base: usize,
    /// (offset, len) per slot; len == 0 marks a tombstone.
    slots: Vec<(u32, u32)>,
}

impl Default for Page {
    fn default() -> Self {
        Page::new()
    }
}

impl Page {
    /// Creates an empty page.
    pub fn new() -> Page {
        Page { data: Vec::with_capacity(PAGE_SIZE), base: 0, slots: Vec::new() }
    }

    fn tuples(&self) -> &[u8] {
        &self.data[self.base..]
    }

    /// Bytes used by tuples plus slot directory.
    pub fn used(&self) -> usize {
        self.tuples().len() + self.slots.len() * SLOT_BYTES
    }

    /// `true` when `tuple_len` more bytes (plus a slot) would overflow the
    /// target page size. Oversized tuples report `false` only on an empty
    /// page, where they are always accepted.
    pub fn fits(&self, tuple_len: usize) -> bool {
        if self.slots.is_empty() {
            return true; // an empty page accepts anything (oversized page)
        }
        self.used() + tuple_len + SLOT_BYTES <= PAGE_SIZE
    }

    /// Number of slots, live and tombstoned.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Appends a tuple, returning its slot number.
    pub fn insert(&mut self, tuple: &[u8]) -> u16 {
        let offset = self.tuples().len() as u32;
        self.data.extend_from_slice(tuple);
        self.slots.push((offset, tuple.len() as u32));
        (self.slots.len() - 1) as u16
    }

    /// Reads the tuple in `slot`.
    ///
    /// # Errors
    /// [`StorageError::RowNotFound`] for out-of-range or tombstoned slots.
    pub fn get(&self, slot: u16) -> Result<&[u8]> {
        match self.slots.get(slot as usize) {
            Some(&(off, len)) if len > 0 => {
                Ok(&self.tuples()[off as usize..off as usize + len as usize])
            }
            _ => Err(StorageError::RowNotFound { page: u32::MAX, slot }),
        }
    }

    /// Tombstones `slot`. Returns whether a live tuple was removed.
    pub fn delete(&mut self, slot: u16) -> bool {
        match self.slots.get_mut(slot as usize) {
            Some(s) if s.1 > 0 => {
                s.1 = 0;
                true
            }
            _ => false,
        }
    }

    /// Iterates the live tuples as `(slot, bytes)`.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &[u8])> {
        self.slots.iter().enumerate().filter(|&(_i, &(_off, len))| len > 0).map(
            |(i, &(off, len))| {
                (i as u16, &self.tuples()[off as usize..off as usize + len as usize])
            },
        )
    }

    /// Writes a tuple into a *specific* slot — WAL replay and snapshot
    /// load, where `RowId`s recorded on disk must be reproduced exactly.
    /// Missing intermediate slots are padded with tombstones; a
    /// tombstoned slot is refilled in place.
    ///
    /// # Errors
    /// [`StorageError::Corrupt`] when the slot already holds a live tuple.
    pub fn place(&mut self, slot: u16, tuple: &[u8]) -> Result<()> {
        let idx = slot as usize;
        while self.slots.len() <= idx {
            self.slots.push((0, 0)); // tombstone padding
        }
        if self.slots[idx].1 > 0 {
            return Err(StorageError::Corrupt(format!("slot {slot} already occupied")));
        }
        let offset = self.tuples().len() as u32;
        self.data.extend_from_slice(tuple);
        self.slots[idx] = (offset, tuple.len() as u32);
        Ok(())
    }

    /// Serializes the page for the buffer pool's backing store, after
    /// `headroom` zero bytes for the caller to fill (a page store puts its
    /// own prefix there and writes prefix and image with one call):
    /// `slot count u32 | (offset u32, len u32)* | data len u32 | data`,
    /// all little-endian.
    pub fn to_bytes_after(&self, headroom: usize) -> Vec<u8> {
        let tuples = self.tuples();
        let size = headroom + 8 + self.slots.len() * SLOT_BYTES + tuples.len();
        let mut out = Vec::with_capacity(size);
        out.resize(headroom, 0);
        out.extend_from_slice(&(self.slots.len() as u32).to_le_bytes());
        for &(off, len) in &self.slots {
            out.extend_from_slice(&off.to_le_bytes());
            out.extend_from_slice(&len.to_le_bytes());
        }
        out.extend_from_slice(&(tuples.len() as u32).to_le_bytes());
        out.extend_from_slice(tuples);
        out
    }

    /// Deserializes a page image written by [`Page::to_bytes_after`] (past
    /// its headroom), keeping the image as the page's buffer rather than
    /// copying the tuples out.
    ///
    /// # Errors
    /// [`StorageError::Corrupt`] when the bytes are truncated or a slot
    /// points outside the data area.
    pub fn from_bytes(mut bytes: Vec<u8>) -> Result<Page> {
        let corrupt = || StorageError::Corrupt("page image truncated".into());
        let take_u32 = |b: &[u8], at: usize| -> Result<u32> {
            let raw: [u8; 4] = b.get(at..at + 4).ok_or_else(corrupt)?.try_into().unwrap();
            Ok(u32::from_le_bytes(raw))
        };
        let nslots = take_u32(&bytes, 0)? as usize;
        let mut slots = Vec::with_capacity(nslots.min(bytes.len() / SLOT_BYTES + 1));
        let mut at = 4;
        for _ in 0..nslots {
            let off = take_u32(&bytes, at)?;
            let len = take_u32(&bytes, at + 4)?;
            slots.push((off, len));
            at += SLOT_BYTES;
        }
        let dlen = take_u32(&bytes, at)? as usize;
        at += 4;
        if bytes.len() - at < dlen {
            return Err(corrupt());
        }
        bytes.truncate(at + dlen);
        for &(off, len) in &slots {
            if len > 0 && (off as usize + len as usize) > dlen {
                return Err(StorageError::Corrupt("page slot out of bounds".into()));
            }
        }
        Ok(Page { data: bytes, base: at, slots })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_delete() {
        let mut p = Page::new();
        let s0 = p.insert(b"hello");
        let s1 = p.insert(b"world!");
        assert_eq!(p.get(s0).unwrap(), b"hello");
        assert_eq!(p.get(s1).unwrap(), b"world!");
        assert!(p.delete(s0));
        assert!(!p.delete(s0)); // already gone
        assert!(p.get(s0).is_err());
        assert_eq!(p.get(s1).unwrap(), b"world!"); // untouched
        assert!(p.get(99).is_err());
    }

    #[test]
    fn iteration_skips_tombstones() {
        let mut p = Page::new();
        p.insert(b"a");
        let s1 = p.insert(b"b");
        p.insert(b"c");
        p.delete(s1);
        let live: Vec<&[u8]> = p.iter().map(|(_, b)| b).collect();
        assert_eq!(live, vec![b"a".as_slice(), b"c".as_slice()]);
        assert_eq!(p.slot_count(), 3);
    }

    #[test]
    fn serialization_roundtrip_preserves_slots_and_tombstones() {
        let mut p = Page::new();
        p.insert(b"alpha");
        let s1 = p.insert(b"beta");
        p.insert(b"gamma");
        p.delete(s1);
        let img = p.to_bytes_after(0);
        let q = Page::from_bytes(img.clone()).unwrap();
        assert_eq!(q.slot_count(), 3);
        assert_eq!(q.get(0).unwrap(), b"alpha");
        assert!(q.get(1).is_err(), "tombstone survives the roundtrip");
        assert_eq!(q.get(2).unwrap(), b"gamma");
        assert_eq!(q.to_bytes_after(0), img, "re-serialization is byte-identical");
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(Page::from_bytes(vec![]).is_err());
        assert!(Page::from_bytes(vec![9, 0, 0, 0, 1]).is_err());
        // Slot pointing past the data area.
        let mut bad = Vec::new();
        bad.extend_from_slice(&1u32.to_le_bytes()); // 1 slot
        bad.extend_from_slice(&100u32.to_le_bytes()); // offset 100
        bad.extend_from_slice(&8u32.to_le_bytes()); // len 8
        bad.extend_from_slice(&2u32.to_le_bytes()); // data len 2
        bad.extend_from_slice(b"xy");
        assert!(Page::from_bytes(bad).is_err());
    }

    #[test]
    fn place_pads_refills_and_refuses_live_slots() {
        let mut p = Page::new();
        p.place(2, b"two").unwrap();
        assert_eq!(p.slot_count(), 3);
        assert!(p.get(0).is_err(), "padding slots are tombstones");
        assert_eq!(p.get(2).unwrap(), b"two");
        p.place(0, b"zero").unwrap();
        assert_eq!(p.get(0).unwrap(), b"zero");
        assert!(p.place(2, b"clash").is_err(), "live slot refused");
        p.delete(2);
        p.place(2, b"again").unwrap();
        assert_eq!(p.get(2).unwrap(), b"again");
    }

    #[test]
    fn capacity_accounting() {
        let mut p = Page::new();
        assert!(p.fits(PAGE_SIZE * 10)); // empty page accepts oversized
        p.insert(&vec![0u8; 4000]);
        assert!(p.fits(4000));
        assert!(!p.fits(5000));
        p.insert(&vec![0u8; 4000]);
        assert!(!p.fits(500));
    }
}

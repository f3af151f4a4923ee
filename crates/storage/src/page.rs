//! Slotted pages: the serialized resting place of rows.
//!
//! In memory a page is a byte buffer with tuples packed from the front
//! and a slot directory of (offset, length) pairs, the classic heap-file
//! layout. Deleted slots are tombstoned (length 0) so row ids stay
//! stable, and [`Page::used`] charges each slot 8 bytes however the page
//! was last stored, so a page takes the rows it always took.
//!
//! At rest — in a spill file, and in a snapshot block — a page is one
//! compact image, every number in it an unsigned LEB128 varint:
//!
//! ```text
//! slot count | dropped bytes | per slot: tuple length (0 = tombstone)
//! then the live tuples, in slot order
//! ```
//!
//! The tuples are the heap's own bytes ([`crate::compact`]'s stored
//! rows), copied as they are: a spill file and a snapshot page entry
//! hold the same image, and reading one back hands the page its tuples
//! with nothing transcoded.
//!
//! A tuple under 128 bytes pays one length byte and one under 16 KiB
//! two, where the in-memory directory spends eight. Offsets are not
//! stored: [`Page::from_bytes`] rebuilds them as prefix sums, so a tuple
//! [`Page::place`]d out of slot order comes back in order. Nor are the
//! bytes of tuples no slot holds any more (deleted, or refilled), or
//! that a snapshot does not save ([`Page::put_head`]): the image counts
//! them as `dropped bytes`, and `used()` goes on counting them.

use crate::{Result, StorageError};

/// Target page payload size in bytes. A tuple larger than this gets a
/// dedicated oversized page (spatial rows with large polygons are common
/// in cadastral data, so this must not be a hard limit).
pub const PAGE_SIZE: usize = 8192;

const SLOT_BYTES: usize = 8; // u32 offset + u32 length

/// Slot numbers are `u16`: no page has more slots than this.
const MAX_SLOTS: u64 = 1 << 16;

fn corrupt(what: &str) -> StorageError {
    StorageError::Corrupt(format!("page image: {what}"))
}

/// Writes `v` as an unsigned LEB128 varint a byte at a time to `push`.
pub(crate) fn put_varint(mut push: impl FnMut(u8), mut v: u64) {
    while v >= 0x80 {
        push(v as u8 | 0x80);
        v >>= 7;
    }
    push(v as u8);
}

/// Reads an unsigned LEB128 varint a byte at a time from `next`: at most
/// ten bytes, and none that overflows 64 bits.
pub(crate) fn take_varint<E: From<StorageError>>(
    mut next: impl FnMut() -> std::result::Result<u8, E>,
) -> std::result::Result<u64, E> {
    let mut v = 0u64;
    for i in 0..10 {
        let byte = next()?;
        let bits = u64::from(byte & 0x7f);
        if i == 9 && bits > 1 {
            return Err(StorageError::Corrupt("varint overflows 64 bits".into()).into());
        }
        v |= bits << (7 * i);
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(StorageError::Corrupt("varint longer than ten bytes".into()).into())
}

/// A length read from an image, which an in-memory slot can hold.
fn length(v: u64) -> Result<u32> {
    u32::try_from(v).map_err(|_| corrupt("length over 4 GiB"))
}

/// A slotted page.
#[derive(Clone, Debug)]
pub struct Page {
    /// The tuples, from `base` on. A page read back from an image keeps
    /// the whole image here and skips the head in front of the tuples.
    data: Vec<u8>,
    base: usize,
    /// (offset, len) per slot; len == 0 marks a tombstone.
    slots: Vec<(u32, u32)>,
    /// Bytes of tuples no slot held when the page was last read back,
    /// which its image dropped and [`Page::used`] still counts.
    dropped: usize,
}

impl Default for Page {
    fn default() -> Self {
        Page::new()
    }
}

impl Page {
    /// Creates an empty page. It allocates nothing until its first
    /// tuple, so a page that restore replaces or that is only read
    /// costs no buffer.
    pub fn new() -> Page {
        Page { data: Vec::new(), base: 0, slots: Vec::new(), dropped: 0 }
    }

    /// Appends `tuple` to the buffer and returns its offset; the first
    /// tuple of a new page reserves the target page size at once.
    fn push(&mut self, tuple: &[u8]) -> u32 {
        if self.data.capacity() == 0 {
            self.data.reserve_exact(PAGE_SIZE);
        }
        let offset = self.tuples().len() as u32;
        self.data.extend_from_slice(tuple);
        offset
    }

    fn tuples(&self) -> &[u8] {
        &self.data[self.base..]
    }

    /// Bytes used by tuples, live and dead, plus slot directory.
    pub fn used(&self) -> usize {
        self.tuples().len() + self.dropped + self.slots.len() * SLOT_BYTES
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
        let offset = self.push(tuple);
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

    /// Writes a tuple into a *specific* slot — WAL replay, where `RowId`s
    /// recorded on disk must be reproduced exactly. Missing intermediate
    /// slots are padded with tombstones; a tombstoned slot is refilled in
    /// place.
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
        self.slots[idx] = (self.push(tuple), tuple.len() as u32);
        Ok(())
    }

    /// The page's image (see the module docs).
    pub fn to_bytes(&self) -> Vec<u8> {
        let live: usize = self.iter().map(|(_, tuple)| tuple.len()).sum();
        // Two numbers of at most ten bytes, and a length under 2 MiB
        // takes at most three.
        let mut out = Vec::with_capacity(20 + 3 * self.slots.len() + live);
        self.put_head((0..self.slots.len()).map(|slot| slot as u16), &mut out);
        for (_, tuple) in self.iter() {
            out.extend_from_slice(tuple);
        }
        out
    }

    /// Appends the head of the image of this page holding only the live
    /// tuples of the slots in `keep` (ascending; a slot that holds no
    /// tuple or does not ascend is passed over): every slot is there, the
    /// others as tombstones whose bytes join the dropped bytes, so the
    /// page read back has the slots and takes the room this one does. A
    /// spill keeps every slot as it is and a snapshot the rows it saves.
    /// Returns the length of the tuples that complete the image: each
    /// kept slot's tuple, in slot order.
    pub fn put_head(&self, keep: impl Iterator<Item = u16>, out: &mut Vec<u8>) -> usize {
        put_varint(|byte| out.push(byte), self.slots.len() as u64);
        let (lengths, mut next, mut kept) = (out.len(), 0, 0);
        for at in keep.map(usize::from) {
            if let Some(&(_, len)) = self.slots.get(at).filter(|s| at >= next && s.1 > 0) {
                out.resize(out.len() + at - next, 0); // tombstones
                put_varint(|byte| out.push(byte), u64::from(len));
                (next, kept) = (at + 1, kept + len as usize);
            }
        }
        out.resize(out.len() + self.slots.len() - next, 0);
        // The dropped bytes, known only now, go in front of the lengths.
        let end = out.len();
        put_varint(|byte| out.push(byte), (self.dropped + self.tuples().len() - kept) as u64);
        let dropped = out.len() - end;
        out[lengths..].rotate_right(dropped);
        kept
    }

    /// Reads one image from a stream that needs no length for it:
    /// `read(buf, n)` appends the stream's next `n` bytes to `buf`. The
    /// head is read a byte at a time and the tuples with one call, so
    /// a stream that bounds what it hands out bounds what this
    /// allocates; the image is then checked as [`Page::from_bytes`]
    /// checks it.
    ///
    /// # Errors
    /// `read`'s, and [`StorageError::Corrupt`] as for
    /// [`Page::from_bytes`].
    pub fn read_from<E: From<StorageError>>(
        mut read: impl FnMut(&mut Vec<u8>, usize) -> std::result::Result<(), E>,
    ) -> std::result::Result<Page, E> {
        let mut image = Vec::new();
        let mut varint = |image: &mut Vec<u8>| {
            take_varint(|| {
                read(image, 1)?;
                Ok::<u8, E>(image[image.len() - 1])
            })
        };
        let nslots = varint(&mut image)?;
        if nslots > MAX_SLOTS {
            return Err(corrupt("more slots than a page has").into());
        }
        varint(&mut image)?; // dropped bytes
        let mut tuples = 0;
        for _ in 0..nslots {
            tuples += u64::from(length(varint(&mut image)?)?);
        }
        let tuples =
            usize::try_from(tuples).map_err(|_| corrupt("tuples past the address space"))?;
        read(&mut image, tuples)?;
        Ok(Page::from_bytes(image)?)
    }

    /// Reads a page back from its image (see [`Page::to_bytes`]; `bytes`
    /// hold exactly the image), keeping the image as the page's buffer
    /// rather than copying the tuples out. Every count and length is
    /// checked against the bytes present before anything is reserved.
    ///
    /// # Errors
    /// [`StorageError::Corrupt`] when the bytes are truncated, the slot
    /// lengths do not add up to the bytes after the head, or a number
    /// is out of range.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Page> {
        let mut at = 0;
        let varint = |at: &mut usize| {
            take_varint(|| {
                let byte = *bytes.get(*at).ok_or_else(|| corrupt("truncated"))?;
                *at += 1;
                Ok::<u8, StorageError>(byte)
            })
        };
        let nslots = varint(&mut at)?;
        let dropped = length(varint(&mut at)?)? as usize;
        // A length takes at least a byte.
        if nslots > MAX_SLOTS || nslots > (bytes.len() - at) as u64 {
            return Err(corrupt("more slots than the image holds"));
        }
        let mut slots = Vec::with_capacity(nslots as usize);
        let mut end = 0u64;
        for _ in 0..nslots {
            let len = length(varint(&mut at)?)?;
            slots.push((length(end)?, len));
            end += u64::from(len);
            if end > (bytes.len() - at) as u64 {
                return Err(corrupt("slot lengths sum past the image"));
            }
        }
        if end != (bytes.len() - at) as u64 {
            return Err(corrupt("bytes after the last tuple"));
        }
        Ok(Page { data: bytes, base: at, slots, dropped })
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
        let img = p.to_bytes();
        // 3 slots, 4 dropped bytes, lengths 5 0 5, then the live tuples.
        assert_eq!(img, [&[3, 4, 5, 0, 5][..], b"alpha", b"gamma"].concat());
        let q = Page::from_bytes(img.clone()).unwrap();
        assert_eq!(q.slot_count(), 3);
        assert_eq!(q.get(0).unwrap(), b"alpha");
        assert!(q.get(1).is_err(), "tombstone survives the roundtrip");
        assert_eq!(q.get(2).unwrap(), b"gamma");
        assert_eq!(q.used(), p.used(), "the dropped bytes are still counted");
        assert_eq!(q.to_bytes(), img, "re-serialization is byte-identical");
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(Page::from_bytes(vec![]).is_err());
        assert!(Page::from_bytes(vec![9, 0, 0, 0, 1]).is_err(), "9 slots in 3 bytes");
        assert!(Page::from_bytes(vec![1, 0, 8, b'x', b'y']).is_err(), "8 bytes claimed, 2 held");
        assert!(Page::from_bytes(vec![1, 0, 1, b'x', b'y']).is_err(), "a byte after the tuples");
        assert!(Page::from_bytes(vec![0xff; 11]).is_err(), "an eleven-byte varint");
        assert!(
            Page::from_bytes(vec![0, 0x80, 0x80, 0x80, 0x80, 0x10]).is_err(),
            "dropped > 4 GiB"
        );
        let mut many = Vec::new();
        put_varint(|byte| many.push(byte), MAX_SLOTS + 1);
        many.extend(std::iter::repeat_n(0, MAX_SLOTS as usize + 2));
        assert!(Page::from_bytes(many).is_err(), "more slots than a u16 numbers");
        assert!(Page::from_bytes(vec![0, 0]).unwrap().slot_count() == 0, "the empty page");
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

    /// A xorshift draw below `n`, from a fixed seed.
    fn draws() -> impl FnMut(u64) -> u64 {
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        move |n| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n.max(1)
        }
    }

    /// A page made by up to `ops` random inserts, deletes and refills of
    /// tombstones (which leave offsets out of slot order) of tuples under
    /// `max` bytes; now and then one over 64 KiB, and now and then
    /// nothing at all.
    fn random_page(next: &mut impl FnMut(u64) -> u64, ops: u64, max: u64) -> Page {
        let mut p = Page::new();
        for _ in 0..next(ops) {
            let len = if next(60) == 0 { 70_000 } else { next(max) as usize };
            let fill = next(256) as u8;
            let tuple: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
            match next(10) {
                0..=5 => drop(p.insert(&tuple)),
                6..=7 => drop(p.delete(next(p.slot_count() as u64) as u16)),
                _ => drop(p.place(next(p.slot_count() as u64 + 3) as u16, &tuple)),
            }
        }
        p
    }

    /// The same slots, the same tuples in them, the same room taken.
    fn assert_same(p: &Page, q: &Page, what: &str) {
        assert_eq!((q.slot_count(), q.used()), (p.slot_count(), p.used()), "{what}");
        for slot in 0..=p.slot_count() as u16 {
            assert_eq!(q.get(slot).ok(), p.get(slot).ok(), "{what}: slot {slot}");
        }
    }

    /// A page read back from a damaged image: every slot in bounds, and
    /// nothing reserved past the image's length.
    fn assert_sound(page: &Page, image_len: usize) {
        assert!(page.slots.capacity() <= image_len && page.data.len() == image_len);
        let live: usize = page.iter().map(|(_, t)| t.len()).sum();
        assert!(live <= image_len);
        let _ = page.used();
    }

    /// Reads `image` through [`Page::read_from`], as a stream that ends
    /// where the image ends; returns the page and the bytes left over.
    fn read_stream(image: &[u8]) -> (Result<Page>, usize) {
        let mut rest = image;
        let page = Page::read_from(|buf: &mut Vec<u8>, n| {
            let bytes = rest.get(..n).ok_or_else(|| corrupt("stream ended"))?;
            buf.extend_from_slice(bytes);
            rest = &rest[n..];
            Ok::<(), StorageError>(())
        });
        (page, rest.len())
    }

    #[test]
    fn a_page_round_trips_through_its_image() {
        let mut next = draws();
        let mut over_64k = 0;
        for round in 0..400 {
            let p = if round == 0 { Page::new() } else { random_page(&mut next, 48, 200) };
            over_64k += usize::from(p.iter().any(|(_, t)| t.len() > 65_536));
            let image = p.to_bytes();
            let q = Page::from_bytes(image.clone()).unwrap();
            assert_same(&p, &q, &format!("round {round}"));
            assert_eq!(q.to_bytes(), image, "round {round}: re-serialized");
            let (streamed, left) = read_stream(&image);
            assert_same(&p, &streamed.unwrap(), &format!("round {round}: streamed"));
            assert_eq!(left, 0);
            // A page read back takes the inserts the page it was took.
            let (mut p, mut q) = (p, q);
            for len in [10, 500, 3000] {
                assert_eq!(p.fits(len), q.fits(len), "round {round}");
                assert_eq!(p.insert(&vec![7; len]), q.insert(&vec![7; len]));
            }
        }
        assert!(over_64k > 5, "{over_64k} pages hold a tuple over 64 KiB");
    }

    #[test]
    fn a_damaged_image_is_corrupt_or_in_bounds() {
        // Every truncation and every single-bit flip of the images of
        // small random pages (and a stride of them on large ones): an
        // error, or a page with every slot in bounds. Never a panic.
        let mut next = draws();
        for round in 0..48 {
            let (ops, max) = if round % 8 == 0 { (48, 200) } else { (24, 40) };
            let image = random_page(&mut next, ops, max).to_bytes();
            let step = image.len() / 1000 + 1;
            for cut in (0..image.len()).step_by(step) {
                assert!(Page::from_bytes(image[..cut].to_vec()).is_err(), "round {round}: {cut}");
                assert!(read_stream(&image[..cut]).0.is_err(), "round {round}: stream {cut}");
            }
            for bit in (0..8 * image.len()).step_by(step) {
                let mut flipped = image.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                if let Ok(page) = Page::from_bytes(flipped.clone()) {
                    assert_sound(&page, image.len());
                }
                if let (Ok(page), left) = read_stream(&flipped) {
                    assert_sound(&page, image.len() - left);
                }
            }
        }
    }

    #[test]
    fn the_image_of_some_slots_keeps_every_slot_and_the_room() {
        // What a snapshot stores of a page: the kept tuples, every other
        // slot a tombstone whose bytes are dropped — a page with the
        // slots of the one it was, taking the room it took, so that the
        // next insert lands where it lands there.
        let mut next = draws();
        for round in 0..200 {
            let mut p = random_page(&mut next, 48, 200);
            let kept: Vec<u16> = p.iter().map(|(slot, _)| slot).filter(|_| next(4) != 0).collect();
            let mut image = Vec::new();
            let tuples = p.put_head(kept.iter().copied(), &mut image);
            for &slot in &kept {
                image.extend_from_slice(p.get(slot).unwrap());
            }
            let mut q = Page::from_bytes(image).unwrap();
            assert_eq!((q.slot_count(), q.used()), (p.slot_count(), p.used()), "round {round}");
            assert_eq!(tuples, q.tuples().len(), "round {round}");
            for slot in 0..=p.slot_count() as u16 {
                let want = p.get(slot).ok().filter(|_| kept.contains(&slot));
                assert_eq!(q.get(slot).ok(), want, "round {round}: slot {slot}");
            }
            for len in [10, 500, 3000] {
                assert_eq!(p.fits(len), q.fits(len), "round {round}");
                assert_eq!(p.insert(&vec![7; len]), q.insert(&vec![7; len]));
            }
        }
    }
}

//! Where a page goes when it leaves the pool: each page file's
//! [`PageStore`], a scratch file made by the file's first write-back
//! and removed when the store drops (crash durability is the
//! WAL/snapshot's job).
//!
//! The file is in the spill directory when a caller named one with
//! [`crate::BufferPool::set_spill_dir`], and otherwise in
//! [`std::env::temp_dir`] (which `TMPDIR` sets). Either way its name
//! ends in the pool's [`PoolTag`], so that no other live pool, in this
//! process or another, can take it.

use crate::sync::{Mutex, RwLock};
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::os::unix::fs::FileExt as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Backing storage for one page file: where evicted pages go and where
/// cold pins reload them from.
pub trait PageStore: Send + Sync + fmt::Debug {
    /// Reads the serialized image of `page`; `None` if none was ever
    /// written. An image that was written and cannot be read is an error.
    fn read_page(&self, page: u32) -> io::Result<Option<Vec<u8>>>;
    /// Writes (or overwrites) the serialized image of `page`: `framed`
    /// past its first 4 bytes, which a store may fill with a prefix of
    /// its own so that prefix and image go out in one write.
    fn write_page(&self, page: u32, framed: &mut [u8]) -> io::Result<()>;
    /// Re-opens any OS handles — the cold-run switch, so a cold rep
    /// pays the open() as a real disk-backed restart would.
    fn reopen(&self);
}

/// `jackpine-<process id>-<pool sequence>`, taken when a pool is made:
/// the end of its files' names, which no other live pool has.
#[derive(Debug)]
pub(crate) struct PoolTag(pub(crate) String);

impl Default for PoolTag {
    fn default() -> PoolTag {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        PoolTag(format!("jackpine-{}-{seq}", std::process::id()))
    }
}

/// A real page file on disk. Pages are written append-only with
/// in-place overwrite when the new image fits the old extent; the
/// directory of extents lives in memory (the file is scratch and dies
/// with the pool — durability belongs to the WAL/snapshot).
#[derive(Debug)]
pub(crate) struct FileStore {
    path: PathBuf,
    /// Pages are read and written at their offsets (`pread`/`pwrite`), so
    /// I/O shares the handle; only the lazy re-open after
    /// [`PageStore::reopen`] takes this lock exclusively.
    file: RwLock<Option<std::fs::File>>,
    /// Page -> (offset, capacity, image length) of its extent, which
    /// holds the length as a `u32` and then the image.
    dir: Mutex<HashMap<u32, (u64, u32, u32)>>,
    end: AtomicU64,
}

impl FileStore {
    pub(crate) fn create(path: PathBuf) -> io::Result<FileStore> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        Ok(FileStore {
            path,
            file: RwLock::new(Some(file)),
            dir: Mutex::new(HashMap::new()),
            end: AtomicU64::new(0),
        })
    }

    fn with_file<R>(&self, f: impl FnOnce(&std::fs::File) -> io::Result<R>) -> io::Result<R> {
        loop {
            if let Some(file) = self.file.read().as_ref() {
                return f(file);
            }
            let mut slot = self.file.write();
            if slot.is_none() {
                // Lazy re-open after a cold switch.
                *slot = Some(std::fs::OpenOptions::new().read(true).write(true).open(&self.path)?);
            }
        }
    }
}

impl PageStore for FileStore {
    fn read_page(&self, page: u32) -> io::Result<Option<Vec<u8>>> {
        let Some((off, _cap, len)) = self.dir.lock().get(&page).copied() else { return Ok(None) };
        self.with_file(|file| {
            // The directory knows the length: one read, past the prefix.
            let mut buf = vec![0u8; len as usize];
            file.read_exact_at(&mut buf, off + 4)?;
            Ok(Some(buf))
        })
    }

    fn write_page(&self, page: u32, framed: &mut [u8]) -> io::Result<()> {
        let len = (framed.len() - 4) as u32;
        let mut dir = self.dir.lock();
        let (off, cap) = match dir.get(&page) {
            Some(&(off, cap, _)) if cap >= len + 4 => (off, cap),
            _ => (self.end.fetch_add(len as u64 + 4, Ordering::Relaxed), len + 4),
        };
        dir.insert(page, (off, cap, len));
        drop(dir);
        // The length goes into the headroom: one `pwrite` a page.
        framed[..4].copy_from_slice(&len.to_le_bytes());
        self.with_file(|file| file.write_all_at(framed, off))
    }

    fn reopen(&self) {
        // The next access re-opens the file: a cold rep pays the open().
        *self.file.write() = None;
    }
}

impl Drop for FileStore {
    fn drop(&mut self) {
        std::fs::remove_file(&self.path).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::Page;

    fn image(text: &[u8]) -> Vec<u8> {
        let mut page = Page::new();
        page.insert(text);
        page.to_bytes_after(4)
    }

    #[test]
    fn a_file_store_extent_is_the_length_then_the_image() {
        let dir = std::env::temp_dir().join(format!("jackpine-extents-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.jkpg");
        let store = FileStore::create(path.clone()).unwrap();
        // What the file held when the length and the image were two writes.
        let extent = |framed: &[u8]| {
            let len = (framed.len() - 4) as u32;
            [&len.to_le_bytes()[..], &framed[4..]].concat()
        };
        let (a, b, c) = (image(b"first image"), image(b"second"), image(b"3"));
        store.write_page(3, &mut a.clone()).unwrap();
        store.write_page(5, &mut b.clone()).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), [extent(&a), extent(&b)].concat());
        // A smaller image overwrites its extent in place.
        store.write_page(3, &mut c.clone()).unwrap();
        let raw = std::fs::read(&path).unwrap();
        assert_eq!(raw.len(), extent(&a).len() + extent(&b).len());
        assert_eq!(raw[..extent(&c).len()], extent(&c)[..]);
        assert_eq!(store.read_page(3).unwrap().as_deref(), Some(&c[4..]));
        assert_eq!(store.read_page(5).unwrap().as_deref(), Some(&b[4..]));
        drop(store);
        assert!(!path.exists(), "scratch file removed with its store");
        std::fs::remove_dir_all(&dir).ok();
    }
}

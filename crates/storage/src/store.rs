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
    /// Writes (or overwrites) the serialized image of `page`.
    fn write_page(&self, page: u32, image: &[u8]) -> io::Result<()>;
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
/// with the pool — durability belongs to the WAL/snapshot), so an
/// extent holds the bare image, written with one `pwrite`.
#[derive(Debug)]
pub(crate) struct FileStore {
    path: PathBuf,
    /// Pages are read and written at their offsets (`pread`/`pwrite`), so
    /// I/O shares the handle; only the lazy re-open after
    /// [`PageStore::reopen`] takes this lock exclusively.
    file: RwLock<Option<std::fs::File>>,
    /// Page -> (offset, capacity, image length) of its extent.
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
            let mut buf = vec![0u8; len as usize];
            file.read_exact_at(&mut buf, off)?;
            Ok(Some(buf))
        })
    }

    fn write_page(&self, page: u32, image: &[u8]) -> io::Result<()> {
        let len = image.len() as u32;
        let mut dir = self.dir.lock();
        let (off, cap) = match dir.get(&page) {
            Some(&(off, cap, _)) if cap >= len => (off, cap),
            _ => (self.end.fetch_add(u64::from(len), Ordering::Relaxed), len),
        };
        dir.insert(page, (off, cap, len));
        drop(dir);
        self.with_file(|file| file.write_all_at(image, off))
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
        page.to_bytes()
    }

    #[test]
    fn a_file_store_extent_is_the_bare_image() {
        let dir = std::env::temp_dir().join(format!("jackpine-extents-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.jkpg");
        let store = FileStore::create(path.clone()).unwrap();
        let (a, b, c) = (image(b"first image"), image(b"second"), image(b"3"));
        store.write_page(3, &a).unwrap();
        store.write_page(5, &b).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), [&a[..], &b[..]].concat());
        // A smaller image overwrites its extent in place.
        store.write_page(3, &c).unwrap();
        let raw = std::fs::read(&path).unwrap();
        assert_eq!(raw.len(), a.len() + b.len());
        assert_eq!(raw[..c.len()], c[..]);
        assert_eq!(store.read_page(3).unwrap(), Some(c));
        assert_eq!(store.read_page(5).unwrap(), Some(b));
        drop(store);
        assert!(!path.exists(), "scratch file removed with its store");
        std::fs::remove_dir_all(&dir).ok();
    }
}

//! Database persistence: one streaming writer that saves a [`SpatialDb`]
//! to a single file and one streaming reader that opens it again,
//! rebuilding indexes.
//!
//! Format v7 (all little-endian):
//!
//! ```text
//! header (33 bytes):
//!   magic "JKPN" | version u32 = 7 | profile u8 | generation u64
//!   table count u32 | body len u64 | file crc32 u32
//!   (the file crc covers profile..body-len plus the whole body)
//! body, per table:
//!   block len u32 | block bytes | block crc32 u32
//! block bytes:
//!   name (u32 len + utf8) | column count u32
//!   per column: name (u32 len + utf8) | type tag u8
//!   spatial-index column count u32 | column ids u32...
//!   ordered-index column count u32 | column ids u32...
//!   row count u64
//!   per page of the heap, every page in order from 0:
//!     page u32 (entry n is page n) | the page's image (jackpine_storage::page)
//! page image (every number an unsigned LEB128 varint):
//!   slot count | dropped bytes | per slot: tuple length (0 = none)
//!   the saved rows' tuples, in slot order, as the heap holds them
//! ```
//!
//! A page's entry is the heap page's own image — the one a spill file
//! holds — with the rows of it that are saved, each in its slot, and
//! every slot the page has: the others are tombstones, and the bytes of
//! rows not saved count as dropped. Each tuple is copied as the heap
//! stores it, in the stored row codec ([`jackpine_storage::compact`]),
//! and read back as it was written: nothing is transcoded either way.
//! Reload puts each page back as one frame with the tuples, the slots
//! and the room of the page saved, so row ids are **stable across
//! recovery** — the property the WAL's `InsertAt`/`DeleteId` records
//! rely on — and so is the id the next insert takes; a row costs its
//! tuple and a length byte or two. Indexes are stored as *definitions*
//! and rebuilt on open (bulk loads are fast and the format stays
//! independent of index internals).
//!
//! **The writer** ([`SpatialDb::snapshot_to`]; `save`, `snapshot_bytes`
//! and [`crate::durable`]'s one snapshot cut — every checkpoint, schema
//! change, attach and replaying open — all go through it) never holds
//! the image. It first fixes each table's row set (`HeapFile::row_ids`:
//! latest committed state; rows awaiting vacuum are skipped, so
//! truncating their pending WAL `DeleteId` records at the same cut is
//! harmless) and sizes every block from the slot directories of the
//! pages it pins, which hold every length the block has: no tuple is
//! read. Each count and length is thus written in place and equals what
//! is streamed, whatever inserts run beside it. Then it writes each
//! page's entry head and its saved tuples, copied out of the pinned heap
//! page — nothing is decoded or cached — through a fixed buffer into the
//! sink, folding the bytes into the block checksum as they pass and each
//! block's checksum into the file checksum where the block ends, so each
//! byte is checksummed once. The file checksum sits in the header, in
//! front of the bytes it covers: it alone is patched by a seek when the
//! stream ends. Memory: the buffer, one page's entry head, and the id
//! lists (8 bytes a row).
//!
//! **The reader** ([`SpatialDb::open_from`]; `open` and `open_durable`
//! go through it) mirrors it: a buffered stream, checksums folded as the
//! bytes pass, a page at a time. Each image is read into the one buffer
//! that becomes the page; each of its tuples is checked in place against
//! the schema and the geometry rules
//! ([`jackpine_storage::Schema::check_tuple`]) and leaves its index
//! entries in the seeds, with no row built or kept — a slot is decoded
//! when a read first asks for it — and the page goes into the heap as one
//! frame ([`jackpine_storage::HeapFile::restore_page`]). Memory: the
//! stream buffer plus the largest page. Tuples are thus read *before*
//! their checksum is known. That is safe because every length and count
//! is checked against the bytes its block or its tuple has left, buffers
//! grow only as bytes arrive, counts clamp their `with_capacity`, page
//! entry n must be page n (a crafted page number cannot stretch a heap),
//! nothing sweeps the heap before the block checksum matched, every
//! decode or placement error becomes [`EngineError::Persist`], and the
//! half-built engine is dropped unless every block checksum, the file
//! checksum and the exact body length check out — truncation and bit rot
//! never panic, never allocate gigabytes and never load a silently short
//! table.
//!
//! * **Atomic replacement** — [`SpatialDb::save`] streams into a uniquely
//!   named temp sibling, fsyncs it, renames it over the destination and
//!   fsyncs the directory. A crash at any point, the checksum patch
//!   included, leaves the old file or the new one, never a hybrid;
//!   concurrent saves to one path never share a temp file.
//! * **Generations** — the header's generation number ties the snapshot
//!   to the write-ahead log cut against it (the WAL header stores the
//!   same value). Recovery replays a WAL only when the two match, so a
//!   crash between a checkpoint's snapshot rename and its log truncation
//!   can never replay stale records over the new snapshot.

use crate::checksum::Crc32;
use crate::seeds::IndexSeeds;
use crate::{EngineError, EngineProfile, Result, SpatialDb, Table};
use jackpine_geom::codec::{PutBytes, TakeBytes};
use jackpine_obs::TxnSite;
use jackpine_storage::page::Page;
use jackpine_storage::{ColumnDef, DataType, RowId};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"JKPN";
const VERSION: u32 = 7;
/// Profile + generation + table count + body len (the header bytes the
/// file checksum covers).
const META_LEN: usize = 1 + 8 + 4 + 8;
/// Magic + version + covered meta + file crc.
const HEADER_LEN: usize = 4 + 4 + META_LEN + 4;
/// Where the file crc sits.
const CRC_OFFSET: usize = HEADER_LEN - 4;
/// The fewest block bytes a saved row takes: its length byte and its
/// tuple's one-byte column count.
const MIN_ROW_LEN: u64 = 2;
/// The writer's and the reader's stream buffer, and the step by which
/// the reader's buffers grow towards a length read from the file.
const BUF_LEN: usize = 64 * 1024;

fn io_err(e: std::io::Error) -> EngineError {
    EngineError::Persist(format!("persistence I/O: {e}"))
}

fn corrupt(msg: &str) -> EngineError {
    EngineError::Persist(format!("persistence: {msg}"))
}

fn type_tag(ty: DataType) -> u8 {
    match ty {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Text => 2,
        DataType::Geometry => 3,
    }
}

fn tag_type(tag: u8) -> Option<DataType> {
    match tag {
        0 => Some(DataType::Int),
        1 => Some(DataType::Float),
        2 => Some(DataType::Text),
        3 => Some(DataType::Geometry),
        _ => None,
    }
}

fn profile_tag(p: EngineProfile) -> u8 {
    match p {
        EngineProfile::ExactRtree => 0,
        EngineProfile::MbrOnly => 1,
        EngineProfile::ExactGrid => 2,
    }
}

fn tag_profile(tag: u8) -> Option<EngineProfile> {
    match tag {
        0 => Some(EngineProfile::ExactRtree),
        1 => Some(EngineProfile::MbrOnly),
        2 => Some(EngineProfile::ExactGrid),
        _ => None,
    }
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Puts the head of the entry of page `no` into `out`: the page number
/// and the head of the image of the page holding only `run`'s rows (its
/// saved rows, in slot order). Returns the length of the tuples that
/// complete the entry.
fn entry_head(no: u32, page: &Page, run: &[RowId], out: &mut Vec<u8>) -> usize {
    out.clear();
    out.put_u32_le(no);
    page.put_head(run.iter().map(|id| id.slot), out)
}

/// One table as the writer fixed it before the first byte went out.
struct Block {
    table: Arc<Table>,
    /// Name, columns, index definitions and row count, encoded.
    head: Vec<u8>,
    /// The rows that will be streamed, in storage order.
    ids: Vec<RowId>,
    /// Encoded length of the whole block: head plus every page entry.
    len: u64,
}

/// The writer's output side: a fixed buffer in front of the sink and the
/// two checksums the bytes are folded into as they pass — each byte into
/// one of them; a finished block's checksum is appended to the file's.
struct Sink<W: Write> {
    out: BufWriter<W>,
    file_crc: Crc32,
    block_crc: Crc32,
}

impl<W: Write> Sink<W> {
    /// Body bytes around a block (its length prefix, its checksum): the
    /// file checksum covers them, the block's does not.
    fn framing(&mut self, bytes: &[u8]) -> Result<()> {
        self.file_crc.update(bytes);
        self.out.write_all(bytes).map_err(io_err)
    }

    /// Bytes of a block: the file checksum takes them with the block's
    /// ([`Crc32::append`]) where the block ends.
    fn block(&mut self, bytes: &[u8]) -> Result<()> {
        self.block_crc.update(bytes);
        self.out.write_all(bytes).map_err(io_err)
    }
}

impl SpatialDb {
    /// Serializes every table (schema, index definitions, rows) to the
    /// complete format-v7 byte image, checksums included, at generation
    /// 0 (the standalone-snapshot generation; checkpoints stamp real
    /// ones). The in-memory sink of [`SpatialDb::snapshot_to`].
    pub fn snapshot_bytes(&self) -> Result<Vec<u8>> {
        let mut image = std::io::Cursor::new(Vec::new());
        self.snapshot_to(&mut image)?;
        Ok(image.into_inner())
    }

    /// Streams the format-v7 image at generation 0 into `sink` — what
    /// [`SpatialDb::save`] does to its temp file, for callers (and fault
    /// injectors) that bring their own sink. The sink needs `Seek` for
    /// one patch: the file checksum in the header, written last. Holds
    /// the writer lock for the cut, as [`SpatialDb::checkpoint`] does.
    pub fn snapshot_to(&self, sink: impl Write + Seek) -> Result<()> {
        let _writers = self.txn.lock_writers(TxnSite::Checkpoint);
        self.snapshot_to_gen(sink, 0)
    }

    /// [`SpatialDb::snapshot_to`] with an explicit generation stamp.
    fn snapshot_to_gen(&self, sink: impl Write + Seek, generation: u64) -> Result<()> {
        // Fix every table's row set and size its block from the slot
        // directories: what is written below is then what is streamed.
        let mut blocks = Vec::new();
        for table in self.tables.all() {
            let mut head: Vec<u8> = Vec::with_capacity(256);
            put_str(&mut head, &table.name);
            head.put_u32_le(table.schema().arity() as u32);
            for col in table.schema().columns() {
                put_str(&mut head, &col.name);
                head.put_u8(type_tag(col.ty));
            }
            let (spatial_cols, ordered_cols) = table.index_definitions();
            for cols in [spatial_cols, ordered_cols] {
                head.put_u32_le(cols.len() as u32);
                for c in cols {
                    head.put_u32_le(c as u32);
                }
            }
            let ids = table.heap.row_ids();
            head.put_u64_le(ids.len() as u64);
            let (mut len, mut entry) = (head.len() as u64, Vec::new());
            table.heap.scan_pages(&ids, |no, page, run| {
                let tuples = entry_head(no, page, run, &mut entry);
                len += (entry.len() + tuples) as u64;
                Ok::<(), EngineError>(())
            })?;
            blocks.push(Block { table, head, ids, len });
        }

        let mut meta: Vec<u8> = Vec::with_capacity(META_LEN);
        meta.put_u8(profile_tag(self.profile()));
        meta.put_u64_le(generation);
        meta.put_u32_le(blocks.len() as u32);
        meta.put_u64_le(blocks.iter().map(|b| 4 + b.len + 4).sum());
        let mut sink = Sink {
            out: BufWriter::with_capacity(BUF_LEN, sink),
            file_crc: Crc32::new(),
            block_crc: Crc32::new(),
        };
        sink.out.write_all(MAGIC).map_err(io_err)?;
        sink.out.write_all(&VERSION.to_le_bytes()).map_err(io_err)?;
        sink.framing(&meta)?;
        sink.out.write_all(&[0; 4]).map_err(io_err)?; // the file crc, patched below

        let mut entry = Vec::new();
        for b in &blocks {
            let len = u32::try_from(b.len)
                .map_err(|_| corrupt(&format!("table '{}' exceeds 4 GiB", b.table.name)))?;
            sink.framing(&len.to_le_bytes())?;
            sink.block_crc = Crc32::new();
            sink.block(&b.head)?;
            b.table.heap.scan_pages(&b.ids, |no, page, run| {
                entry_head(no, page, run, &mut entry);
                sink.block(&entry)?;
                run.iter().try_for_each(|id| sink.block(page.get(id.slot)?))
            })?;
            let block_crc = sink.block_crc.finish();
            sink.file_crc.append(block_crc, b.len);
            sink.framing(&block_crc.to_le_bytes())?;
        }

        let file_crc = sink.file_crc.finish();
        sink.out.seek(SeekFrom::Start(CRC_OFFSET as u64)).map_err(io_err)?;
        sink.out.write_all(&file_crc.to_le_bytes()).map_err(io_err)?;
        sink.out.flush().map_err(io_err)
    }

    /// Serializes every table to `path`, atomically: the bytes stream to
    /// a uniquely named temp sibling, are fsynced, and are renamed into
    /// place. A crash mid-save leaves the previous file untouched.
    /// Holds the writer lock for the cut, as [`SpatialDb::checkpoint`]
    /// does, so a save beside live DML is a whole-statement image.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let _writers = self.txn.lock_writers(TxnSite::Checkpoint);
        self.save_gen(path, 0)
    }

    /// [`SpatialDb::save`] with an explicit generation stamp (used by
    /// checkpoints to tie the snapshot to the WAL cut against it). The
    /// temp name is unique per call (pid + counter), so concurrent saves
    /// to the same path each stage a private file and the last complete
    /// rename wins — two writers can never interleave into one image.
    pub(crate) fn save_gen(&self, path: impl AsRef<Path>, generation: u64) -> Result<()> {
        static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let path = path.as_ref();
        let seq = TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".{}.{seq}.tmp", std::process::id()));
        let tmp = std::path::PathBuf::from(tmp);
        let staged = std::fs::File::create(&tmp)
            .map_err(io_err)
            .and_then(|file| {
                self.snapshot_to_gen(&file, generation)?;
                // The rename must not be reordered before the data reaches disk.
                file.sync_all().map_err(io_err)
            })
            .and_then(|()| std::fs::rename(&tmp, path).map_err(io_err));
        if staged.is_err() {
            std::fs::remove_file(&tmp).ok();
            return staged;
        }
        // Persist the rename itself. Directory fsync is not supported on
        // every platform/filesystem; failure to sync is not failure to save.
        if let Some(dir) = path.parent() {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Opens a database saved with [`SpatialDb::save`], verifying
    /// checksums and rebuilding every index. The stored engine profile
    /// is restored. Corrupt or truncated files fail with
    /// [`EngineError::Persist`]; they never panic and never load a
    /// silently short table.
    pub fn open(path: impl AsRef<Path>) -> Result<Arc<SpatialDb>> {
        Self::open_gen(path).map(|(db, _)| db)
    }

    /// Opens a snapshot file, also returning its generation stamp.
    pub(crate) fn open_gen(path: impl AsRef<Path>) -> Result<(Arc<SpatialDb>, u64)> {
        Self::open_from_gen(std::fs::File::open(path).map_err(io_err)?)
    }

    /// Opens a database from any byte stream holding a snapshot image —
    /// an in-memory one is `&bytes[..]` — which must end where the image
    /// ends. The engine is returned only after every block checksum, the
    /// file checksum and the exact body length have checked out.
    pub fn open_from(source: impl Read) -> Result<Arc<SpatialDb>> {
        Self::open_from_gen(source).map(|(db, _)| db)
    }

    /// [`SpatialDb::open_from`], also returning the generation stamp.
    fn open_from_gen(source: impl Read) -> Result<(Arc<SpatialDb>, u64)> {
        let mut src = Source {
            inp: BufReader::with_capacity(BUF_LEN, source),
            file_crc: Crc32::new(),
            block_crc: Crc32::new(),
            left: HEADER_LEN as u64,
        };
        // Whatever a flipped bit makes of a row parsed before its checksum
        // — undecodable, misfit, its slot taken — is corruption of this
        // file, not a storage or SQL error of the caller's.
        src.load().map_err(|e| match e {
            EngineError::Persist(_) => e,
            other => corrupt(&format!("unloadable snapshot: {other}")),
        })
    }

    /// The generation stamp of the snapshot at `path`, without loading
    /// its tables. Best effort: a missing or unreadable file reports
    /// generation 0.
    pub(crate) fn peek_snapshot_generation(path: impl AsRef<Path>) -> u64 {
        let mut head = [0u8; 4 + 4 + 1 + 8];
        let read = std::fs::File::open(path).and_then(|mut f| f.read_exact(&mut head));
        if read.is_err() || &head[..4] != MAGIC || head[4..8] != VERSION.to_le_bytes() {
            return 0;
        }
        u64::from_le_bytes(head[9..].try_into().expect("eight bytes"))
    }
}

/// The reader's input side: a fixed buffer behind the source, the two
/// checksums, and how many bytes the enclosing length field (the header,
/// the body, a table block) still allows to be taken.
struct Source<R: Read> {
    inp: BufReader<R>,
    file_crc: Crc32,
    block_crc: Crc32,
    left: u64,
}

impl<R: Read> Source<R> {
    /// Fills `buf` from the stream, within what `left` allows.
    fn fill(&mut self, buf: &mut [u8]) -> Result<()> {
        if buf.len() as u64 > self.left {
            return Err(corrupt("a field runs past the end of its block"));
        }
        self.inp.read_exact(buf).map_err(|e| match e.kind() {
            std::io::ErrorKind::UnexpectedEof => corrupt("truncated file"),
            _ => io_err(e),
        })?;
        self.left -= buf.len() as u64;
        Ok(())
    }

    /// Fills `buf` with bytes of a block, folding them into its checksum
    /// (the file checksum takes them with it where the block ends).
    fn take(&mut self, buf: &mut [u8]) -> Result<()> {
        self.fill(buf)?;
        self.block_crc.update(buf);
        Ok(())
    }

    /// A u32 of the body around a block (its length, its checksum): the
    /// file checksum covers it, the block's does not.
    fn framing_u32(&mut self) -> Result<u32> {
        let mut b = [0u8; 4];
        self.fill(&mut b)?;
        self.file_crc.update(&b);
        Ok(u32::from_le_bytes(b))
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut b = [0u8; N];
        self.take(&mut b)?;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Appends `len` bytes to `buf`. `len` comes from the file and may
    /// be garbage: it is checked against what the block has left, and
    /// the buffer grows a step at a time as bytes actually arrive, so it
    /// can never outgrow the source.
    fn append(&mut self, len: usize, buf: &mut Vec<u8>) -> Result<()> {
        if len as u64 > self.left {
            return Err(corrupt("a field runs past the end of its block"));
        }
        let end = buf.len() + len;
        while buf.len() < end {
            let at = buf.len();
            buf.resize(end.min(at + BUF_LEN), 0);
            self.take(&mut buf[at..])?;
        }
        Ok(())
    }

    fn string(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let mut buf = Vec::new();
        self.append(len, &mut buf)?;
        String::from_utf8(buf).map_err(|_| corrupt("invalid UTF-8"))
    }

    /// Reads a whole image: header, `table count` checksummed blocks,
    /// and nothing after them.
    fn load(&mut self) -> Result<(Arc<SpatialDb>, u64)> {
        let mut head = [0u8; HEADER_LEN];
        self.fill(&mut head)?;
        let mut data: &[u8] = &head;
        if &data[..4] != MAGIC {
            return Err(corrupt("bad magic"));
        }
        data.advance(4);
        let version = data.get_u32_le();
        if version != VERSION {
            return Err(corrupt(&format!("unsupported version {version}")));
        }
        // The file checksum covers the header's own fields (profile,
        // generation, counts) as well as the body, so a bit flip
        // anywhere in the file is detected.
        self.file_crc = Crc32::new();
        self.file_crc.update(&data[..META_LEN]);
        let profile = tag_profile(data.get_u8()).ok_or_else(|| corrupt("unknown profile tag"))?;
        let generation = data.get_u64_le();
        let ntables = data.get_u32_le();
        let body_len = data.get_u64_le();
        let file_crc = data.get_u32_le();

        let db = Arc::new(SpatialDb::new(profile));
        self.left = body_len;
        for _ in 0..ntables {
            let block_len = u64::from(self.framing_u32()?);
            // What the body holds after this block and its checksum.
            let after = self
                .left
                .checked_sub(block_len + 4)
                .ok_or_else(|| corrupt("table block runs past the body"))?;
            self.left = block_len;
            self.block_crc = Crc32::new();
            let (table, seeds) = self.load_table(&db)?;
            let block_crc = self.block_crc.finish();
            self.file_crc.append(block_crc, block_len);
            self.left = after + 4;
            if self.framing_u32()? != block_crc {
                return Err(corrupt("table block checksum mismatch"));
            }
            // The entries are the saved ones: build now and let them go.
            db.install_indexes(&table, seeds)?;
        }
        // The byte count is exact: truncation failed above, and garbage
        // after the last block fails here, inside the body or past it.
        if self.left != 0 {
            return Err(corrupt("trailing bytes after last table"));
        }
        match self.inp.read_exact(&mut [0u8; 1]) {
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {}
            Err(e) => return Err(io_err(e)),
            Ok(()) => return Err(corrupt("body length mismatch: bytes follow the body")),
        }
        if self.file_crc.finish() != file_crc {
            return Err(corrupt("file checksum mismatch"));
        }
        Ok((db, generation))
    }

    /// Parses one table block, to its end, and loads it into `db` a page
    /// at a time: each page image goes back to its page number, and each
    /// of its rows leaves its index entries in the seeds on the way — the
    /// caller bulk-builds the table's indexes from those once the block's
    /// checksum has matched, instead of scanning the heap once per index.
    fn load_table(&mut self, db: &Arc<SpatialDb>) -> Result<(Arc<Table>, IndexSeeds)> {
        let name = self.string()?;
        let ncols = self.u32()? as usize;
        // Clamp: a column needs ≥ 5 encoded bytes, so a corrupt count cannot
        // pre-allocate more than the block could possibly hold.
        let mut cols = Vec::with_capacity(ncols.min(self.left as usize / 5 + 1));
        for _ in 0..ncols {
            let cname = self.string()?;
            let [tag] = self.array()?;
            let ty = tag_type(tag).ok_or_else(|| corrupt("unknown type tag"))?;
            cols.push(ColumnDef::new(&cname, ty));
        }
        db.create_table(&name, cols)?;
        let table = db.table(&name)?;

        let mut index_cols = [Vec::new(), Vec::new()];
        for out in &mut index_cols {
            let n = self.u32()? as usize;
            out.reserve(n.min(self.left as usize / 4 + 1));
            for _ in 0..n {
                out.push(self.u32()? as usize);
            }
        }
        let nrows = u64::from_le_bytes(self.array()?);
        // Clamp: a corrupt count cannot reserve more entries than the
        // block could possibly hold rows.
        let room = nrows.min(self.left / MIN_ROW_LEN) as usize;
        let mut seeds = IndexSeeds::new(&table, &index_cols[0], &index_cols[1], room)?;
        // The writer emits every page of the heap, so entry n is page n:
        // a page number past the end would make the heap that long.
        let (mut rows, mut next) = (0, 0);
        while self.left > 0 {
            let no = self.u32()?;
            if no != next {
                return Err(corrupt(&format!("page entry {next} names page {no}")));
            }
            next += 1;
            let page = Page::read_from(|buf, n| self.append(n, buf))?;
            rows += table.heap.restore_page(no, page, |id, tuple| seeds.add(id, tuple))? as u64;
        }
        if rows != nrows {
            return Err(corrupt("row count does not match the pages"));
        }
        Ok((table, seeds))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::crc32;
    use jackpine_storage::Value;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("jackpine-persist-{name}-{}.db", std::process::id()));
        p
    }

    #[test]
    fn roundtrip_preserves_data_and_indexes() {
        let db = Arc::new(SpatialDb::new(EngineProfile::ExactGrid));
        db.execute("CREATE TABLE pois (id BIGINT, name TEXT, score DOUBLE, geom GEOMETRY)")
            .unwrap();
        for i in 0..50 {
            db.execute(&format!(
                "INSERT INTO pois VALUES ({i}, 'p{i}', {i}.5, \
                 ST_GeomFromText('POINT ({i} {i})'))"
            ))
            .unwrap();
        }
        db.execute("INSERT INTO pois VALUES (999, NULL, NULL, NULL)").unwrap();
        db.create_spatial_index("pois", "geom").unwrap();
        db.create_ordered_index("pois", "name").unwrap();

        let path = temp_path("roundtrip");
        db.save(&path).unwrap();
        let restored = SpatialDb::open(&path).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(restored.profile(), EngineProfile::ExactGrid);
        let want = db.execute("SELECT COUNT(*) FROM pois").unwrap();
        let got = restored.execute("SELECT COUNT(*) FROM pois").unwrap();
        assert_eq!(want, got);

        // Indexes were rebuilt: spatial and ordered paths both answer.
        let r = restored
            .execute(
                "SELECT COUNT(*) FROM pois WHERE ST_DWithin(geom, \
                 ST_GeomFromText('POINT (10 10)'), 1.5)",
            )
            .unwrap();
        assert_eq!(r.scalar().unwrap().to_string(), "3"); // points 9,10,11
        let r = restored.execute("SELECT id FROM pois WHERE name = 'p7'").unwrap();
        assert_eq!(r.rows[0][0].to_string(), "7");
        // NULL row survived.
        let r = restored.execute("SELECT COUNT(*) FROM pois WHERE name IS NULL").unwrap();
        assert_eq!(r.scalar().unwrap().to_string(), "1");
        // The restored heap holds the very tuples that were saved, at the
        // very addresses: saving it again gives the same image.
        assert_eq!(restored.snapshot_bytes().unwrap(), db.snapshot_bytes().unwrap());
    }

    #[test]
    fn restored_ordered_indexes_answer_like_the_built_ones() {
        // Names and zips with many duplicates. The ordered indexes are
        // built by CREATE INDEX over rows loaded in batches (some deleted
        // and vacuumed before), then grow by single inserts; restore
        // rebuilds them from the snapshot's seeds. Every lookup must
        // return the same ids in the same order. (No entry is removed
        // after the build: a removal reorders its key's ids.)
        let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
        db.execute("CREATE TABLE roads (id BIGINT, name TEXT, zip BIGINT)").unwrap();
        let row = |i: i64| {
            let name = Value::Text(format!("street {}", i * 7 % 40));
            vec![Value::Int(i), name, Value::Int(i * 13 % 25)]
        };
        for (b, batch) in (0..3000).collect::<Vec<i64>>().chunks(1024).enumerate() {
            if b == 2 {
                db.execute("DELETE FROM roads WHERE id < 100").unwrap();
            }
            db.insert_rows("roads", batch.iter().map(|&i| row(i))).unwrap();
        }
        assert_eq!(db.pending_reclaim_len(), 0, "the last batch vacuumed the deletes");
        db.create_ordered_index("roads", "name").unwrap();
        db.create_ordered_index("roads", "zip").unwrap();
        for i in 3000..3200 {
            db.insert_row("roads", row(i)).unwrap();
        }
        let path = temp_path("ordered-groups");
        db.save(&path).unwrap();
        let restored = SpatialDb::open(&path).unwrap();
        std::fs::remove_file(&path).ok();

        let lookups = (0..40)
            .map(|n| format!("SELECT id FROM roads WHERE name = 'street {n}'"))
            .chain((0..25).map(|z| format!("SELECT id FROM roads WHERE zip = {z}")));
        for sql in lookups {
            let plan = restored.execute(&format!("EXPLAIN {sql}")).unwrap();
            assert!(format!("{:?}", plan.rows).contains("OrderedIndexScan"), "{sql}");
            let (want, got) = (db.execute(&sql).unwrap(), restored.execute(&sql).unwrap());
            assert!(want.rows.len() > 50, "{sql}: {} rows", want.rows.len());
            assert_eq!(want.rows, got.rows, "{sql}");
        }
    }

    #[test]
    fn rejects_garbage_files() {
        let path = temp_path("garbage");
        std::fs::write(&path, b"not a database").unwrap();
        assert!(SpatialDb::open(&path).is_err());
        std::fs::write(&path, b"JKPN\x63\x00\x00\x00").unwrap(); // wrong version
        assert!(SpatialDb::open(&path).is_err());
        std::fs::remove_file(&path).ok();
        assert!(SpatialDb::open("/nonexistent/dir/x.db").is_err());
    }

    #[test]
    fn only_format_v7_opens() {
        // The v1–v6 readers are gone: their version numbers, like any
        // other, are a persistence error whatever follows the header.
        let image = SpatialDb::new(EngineProfile::ExactRtree).snapshot_bytes().unwrap();
        assert!(SpatialDb::open_from(&image[..]).is_ok());
        for version in [0u32, 1, 2, 3, 4, 5, 6, 8, u32::MAX] {
            let mut other = image.clone();
            other[4..8].copy_from_slice(&version.to_le_bytes());
            match SpatialDb::open_from(&other[..]) {
                Err(EngineError::Persist(m)) => assert!(m.contains("unsupported version"), "{m}"),
                other => panic!("version {version}: {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn empty_database_roundtrips() {
        let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
        let path = temp_path("empty");
        db.save(&path).unwrap();
        let restored = SpatialDb::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(restored.profile(), EngineProfile::ExactRtree);
        assert!(restored.table_names().is_empty());
    }

    #[test]
    fn save_leaves_no_temp_file_and_replaces_atomically() {
        let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
        db.execute("CREATE TABLE t (id BIGINT)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        let path = temp_path("atomic");
        db.save(&path).unwrap();
        // Save again over the existing file (the rename path).
        db.execute("INSERT INTO t VALUES (2)").unwrap();
        db.save(&path).unwrap();
        // No temp sibling (any `<name>.*.tmp`) may survive a save.
        let stem = path.file_name().unwrap().to_string_lossy().to_string();
        for entry in std::fs::read_dir(path.parent().unwrap()).unwrap() {
            let name = entry.unwrap().file_name().to_string_lossy().to_string();
            assert!(
                !(name.starts_with(&stem) && name.ends_with(".tmp")),
                "temp file {name} survived a save"
            );
        }
        // The file is the streamed image, byte for byte.
        assert_eq!(std::fs::read(&path).unwrap(), db.snapshot_bytes().unwrap());
        let restored = SpatialDb::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let r = restored.execute("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.scalar().unwrap().to_string(), "2");
    }

    #[test]
    fn generation_stamp_roundtrips_and_peeks() {
        let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
        db.execute("CREATE TABLE t (id BIGINT)").unwrap();
        let path = temp_path("generation");
        db.save_gen(&path, 41).unwrap();
        assert_eq!(SpatialDb::peek_snapshot_generation(&path), 41);
        let (_, generation) = SpatialDb::open_gen(&path).unwrap();
        assert_eq!(generation, 41);
        std::fs::remove_file(&path).ok();
        // Missing files peek as generation 0.
        assert_eq!(SpatialDb::peek_snapshot_generation(&path), 0);
    }

    /// A one-table v7 image around `block`, with both checksums right.
    fn image_around(block: &[u8]) -> Vec<u8> {
        let mut body: Vec<u8> = Vec::new();
        body.put_u32_le(block.len() as u32);
        body.put_slice(block);
        body.put_u32_le(crc32(block));
        let mut meta: Vec<u8> = Vec::new();
        meta.put_u8(profile_tag(EngineProfile::ExactRtree));
        meta.put_u64_le(0);
        meta.put_u32_le(1);
        meta.put_u64_le(body.len() as u64);
        let mut crc = Crc32::new();
        crc.update(&meta);
        crc.update(&body);
        let mut image: Vec<u8> = Vec::new();
        image.put_slice(MAGIC);
        image.put_u32_le(VERSION);
        image.put_slice(&meta);
        image.put_u32_le(crc.finish());
        image.put_slice(&body);
        image
    }

    /// Appends the entry of page `page` holding `rows`, each in its slot,
    /// to a hand-built block.
    fn page_entry(block: &mut Vec<u8>, page: u32, rows: &[(u16, &[Value])]) {
        let mut image = Page::new();
        for (slot, row) in rows {
            image.place(*slot, &Value::store_row(row)).unwrap();
        }
        block.put_u32_le(page);
        block.put_slice(&image.to_bytes());
    }

    #[test]
    fn corrupt_count_cannot_preallocate() {
        // Checksum-valid images claiming 4 billion columns, index
        // columns or rows, a page of 2^64 slots, or a row of 4 GB must
        // fail fast on the clamped paths, not allocate gigabytes first.
        let mut block: Vec<u8> = Vec::new();
        put_str(&mut block, "t");
        let mut absurd_columns = block.clone();
        absurd_columns.put_u32_le(u32::MAX);

        block.put_u32_le(1); // one column
        put_str(&mut block, "id");
        block.put_u8(type_tag(DataType::Int));
        let mut absurd_index_columns = block.clone();
        absurd_index_columns.put_u32_le(u32::MAX);

        block.put_u32_le(0); // no spatial indexes
        block.put_u32_le(0); // no ordered indexes
        let mut absurd_rows = block.clone();
        absurd_rows.put_u64_le(u64::MAX); // rows
        page_entry(&mut absurd_rows, 0, &[(0, &[Value::Int(42)])]);
        let mut absurd_slots = block.clone();
        absurd_slots.put_u64_le(1);
        absurd_slots.put_u32_le(0); // page
        absurd_slots.put_slice(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01]);
        let mut absurd_row = block.clone();
        absurd_row.put_u64_le(1);
        absurd_row.put_u32_le(0); // page
        absurd_row.put_slice(&[1, 0, 0xff, 0xff, 0xff, 0xff, 0x0f]); // one 4 GiB tuple

        for (what, block) in [
            ("columns", absurd_columns),
            ("index columns", absurd_index_columns),
            ("rows", absurd_rows),
            ("slots", absurd_slots),
            ("row", absurd_row),
        ] {
            let err = SpatialDb::open_from(&image_around(&block)[..]).err().expect("must fail");
            assert!(matches!(err, EngineError::Persist(_)), "{what}: got {err:?}");
        }

        // And the hand-built frame itself is sound: a good block opens.
        block.put_u64_le(1);
        page_entry(&mut block, 0, &[(0, &[Value::Int(42)])]);
        let db = SpatialDb::open_from(&image_around(&block)[..]).unwrap();
        assert_eq!(db.execute("SELECT id FROM t").unwrap().rows[0][0].to_string(), "42");
    }

    #[test]
    fn checksum_valid_nonsense_is_a_persistence_error() {
        // What the checksums cannot catch — a writer bug, a crafted file —
        // still comes back as Persist, not as a storage or SQL error: a
        // row that does not fit its schema, a page listed twice, out of
        // order or past the next (entry n is page n), slot lengths that
        // sum past the image, pages that do not hold the row count, a
        // table named twice, an index on a column that cannot carry one.
        let mut head: Vec<u8> = Vec::new();
        put_str(&mut head, "t");
        head.put_u32_le(1);
        put_str(&mut head, "id");
        head.put_u8(type_tag(DataType::Int));
        head.put_u32_le(0);
        head.put_u32_le(0);
        let rows = |n: u64, entries: &[(u32, u16, i64)]| {
            let mut block = head.clone();
            block.put_u64_le(n);
            for &(page, slot, id) in entries {
                page_entry(&mut block, page, &[(slot, &[Value::Int(id)])]);
            }
            block
        };
        let good = rows(2, &[(0, 3, 1), (1, 0, 2)]);
        let db = SpatialDb::open_from(&image_around(&good)[..]).unwrap();
        assert_eq!(
            db.execute("SELECT COUNT(*) FROM t").unwrap().scalar().unwrap().to_string(),
            "2"
        );

        let mut misfit = head.clone();
        misfit.put_u64_le(1);
        page_entry(&mut misfit, 0, &[(0, &[Value::Text("not an int".into())])]);

        // The one length byte of the last page's one row, three too many.
        let mut past_the_image = good.clone();
        let at = past_the_image.len() - Value::store_row(&[Value::Int(2)]).len() - 1;
        past_the_image[at] += 3;

        // A page entry without a row is a page whose rows all died.
        let mut empty_page = rows(1, &[(0, 3, 1)]);
        page_entry(&mut empty_page, 1, &[]);
        let db = SpatialDb::open_from(&image_around(&empty_page)[..]).unwrap();
        assert_eq!(db.table("t").unwrap().heap.page_count(), 2);

        let mut reserved: Vec<u8> = Vec::new();
        put_str(&mut reserved, "jp_metrics");
        reserved.put_u32_le(0);
        reserved.put_u32_le(0);
        reserved.put_u32_le(0);
        reserved.put_u64_le(0);

        let mut bad_index = head[..head.len() - 8].to_vec();
        bad_index.put_u32_le(1); // a spatial index...
        bad_index.put_u32_le(0); // ...on the BIGINT column
        bad_index.put_u32_le(0);
        bad_index.put_u64_le(0);

        for (what, block) in [
            ("misfit row", misfit),
            ("page listed twice", rows(2, &[(0, 3, 1), (0, 4, 2)])),
            ("pages out of order", rows(2, &[(1, 0, 2), (0, 3, 1)])),
            ("a first page past page 0", rows(1, &[(1, 0, 2)])),
            ("a page past the next", rows(2, &[(0, 3, 1), (2, 0, 2)])),
            ("a page far past the end", rows(2, &[(0, 3, 1), (1_000_000, 0, 2)])),
            ("slot lengths past the image", past_the_image),
            ("more rows than the pages hold", rows(3, &[(0, 3, 1), (1, 0, 2)])),
            ("fewer rows than the pages hold", rows(1, &[(0, 3, 1), (1, 0, 2)])),
            ("index on a scalar", bad_index),
            ("reserved table name", reserved),
        ] {
            let err = SpatialDb::open_from(&image_around(&block)[..]).err().expect(what);
            assert!(matches!(err, EngineError::Persist(_)), "{what}: got {err:?}");
        }
    }

    /// The head of a hand-built block of one `(id BIGINT, g GEOMETRY)`
    /// table, `t`, of one row.
    fn id_geom_head() -> Vec<u8> {
        let mut head: Vec<u8> = Vec::new();
        put_str(&mut head, "t");
        head.put_u32_le(2);
        put_str(&mut head, "id");
        head.put_u8(type_tag(DataType::Int));
        put_str(&mut head, "g");
        head.put_u8(type_tag(DataType::Geometry));
        head.put_u32_le(0);
        head.put_u32_le(0);
        head.put_u64_le(1);
        head
    }

    /// An image of [`id_geom_head`]'s table whose page 0 holds `tuple`
    /// alone, as it is.
    fn image_of_tuple(tuple: &[u8]) -> Vec<u8> {
        let mut block = id_geom_head();
        block.put_u32_le(0); // page
        block.put_slice(&[1, 0, tuple.len() as u8]);
        block.put_slice(tuple);
        image_around(&block)
    }

    #[test]
    fn hostile_compact_rows_are_persistence_errors() {
        // Checksum-valid blocks whose one page holds one stored tuple of
        // a `(BIGINT, GEOMETRY)` row that the codec must refuse — a count
        // or length of 2^62 would abort the test if anything reserved it.
        let head = id_geom_head();
        let huge = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40];
        let point = Value::store_row(&[
            Value::Int(7),
            Value::Geom(jackpine_geom::wkt::parse("POINT (1 2)").unwrap()),
        ]);
        for (what, tuple) in [
            ("a varint over ten bytes", [&[2, 1][..], &[0x80; 9], &[0x81, 0, 0]].concat()),
            ("a count past the block", [&[2, 1, 2, 4, 2][..], &huge].concat()),
            ("a length past the block", [&[2, 1, 2, 5][..], &huge].concat()),
            ("a ring count past the block", [&[2, 1, 2, 4, 3][..], &huge].concat()),
            ("an unknown tag", vec![2, 1, 2, 9]),
            ("an unknown geometry type", vec![2, 1, 2, 4, 8]),
            ("a truncated coordinate", point[..point.len() - 1].to_vec()),
        ] {
            match SpatialDb::open_from(&image_of_tuple(&tuple)[..]) {
                Err(EngineError::Persist(m)) => {
                    assert!(m.contains("compact row") || m.contains("varint"), "{what}: {m}")
                }
                other => panic!("{what}: {:?}", other.map(|_| ())),
            }
        }
        let mut block = head.clone();
        page_entry(&mut block, 0, &[(0, &[Value::Int(7), Value::Null])]);
        let db = SpatialDb::open_from(&image_around(&block)[..]).unwrap();
        assert_eq!(db.execute("SELECT id FROM t").unwrap().rows[0][0].to_string(), "7");
    }

    #[test]
    fn hostile_geometries_are_persistence_errors() {
        // Checksum-valid tuples of a `(BIGINT, GEOMETRY)` row whose bytes
        // are sound but whose geometry no constructor would build: each
        // is refused at open as decoding it would refuse it.
        let xy = |pairs: &[(f64, f64)]| -> Vec<u8> {
            pairs.iter().flat_map(|&(x, y)| [x.to_le_bytes(), y.to_le_bytes()]).flatten().collect()
        };
        // Arity 2, the integer 7, then a compact geometry (tag 4) or a
        // WKB one (tag 5).
        let row = |geom: &[u8]| [&[2, 1, 14][..], geom].concat();
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        let triangle = [(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)];
        for (what, tuple) in [
            ("a ring of 2 open vertices", row(&[&[4, 3, 1, 2][..], &xy(&triangle[..2])].concat())),
            (
                "consecutive duplicates in a line",
                row(&[&[4, 2, 3][..], &xy(&[(0.0, 0.0), (1.0, 1.0), (1.0, 1.0)])].concat()),
            ),
            (
                "consecutive duplicates in a ring",
                row(&[&[4, 3, 1, 4][..], &xy(&[(0.0, 0.0), (4.0, 0.0), (4.0, 0.0), (0.0, 4.0)])]
                    .concat()),
            ),
            (
                "a zero-area ring",
                row(&[&[4, 3, 1, 3][..], &xy(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)])].concat()),
            ),
            ("a NaN in a point", row(&[&[4, 1][..], &xy(&[(nan, 1.0)])].concat())),
            ("an infinity in a point", row(&[&[4, 1][..], &xy(&[(1.0, inf)])].concat())),
            ("a NaN in a line", row(&[&[4, 2, 2][..], &xy(&[(0.0, 0.0), (nan, 1.0)])].concat())),
            (
                "an infinity in a line",
                row(&[&[4, 2, 2][..], &xy(&[(0.0, 0.0), (-inf, 1.0)])].concat()),
            ),
            (
                "a NaN in a ring",
                row(&[&[4, 3, 1, 3][..], &xy(&[(0.0, 0.0), (4.0, nan), (0.0, 4.0)])].concat()),
            ),
            (
                "an infinity in a ring",
                row(&[&[4, 3, 1, 3][..], &xy(&[(0.0, 0.0), (inf, 0.0), (0.0, 4.0)])].concat()),
            ),
            ("a 1-vertex line", row(&[&[4, 2, 1][..], &xy(&[(1.0, 1.0)])].concat())),
            (
                "a zero-area hole",
                row(&[
                    &[4, 3, 2, 3][..],
                    &xy(&triangle),
                    &[3],
                    &xy(&[(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]),
                ]
                .concat()),
            ),
            (
                "a multi-line member of 1 vertex",
                row(&[&[4, 5, 2, 2][..], &xy(&[(0.0, 0.0), (1.0, 1.0)]), &[1], &xy(&[(2.0, 2.0)])]
                    .concat()),
            ),
            ("an undecodable WKB", row(&[5, 5, 1, 3, 0, 0, 0])),
        ] {
            match SpatialDb::open_from(&image_of_tuple(&tuple)[..]) {
                Err(EngineError::Persist(_)) => {}
                other => panic!("{what}: {:?}", other.map(|_| ())),
            }
        }
        // The same frame around sound geometries opens.
        for sound in [
            row(&[&[4, 3, 1, 3][..], &xy(&triangle)].concat()),
            row(&[&[4, 1][..], &xy(&[(nan, nan)])].concat()), // POINT EMPTY
            row(&[4, 2, 0]),                                  // LINESTRING EMPTY
        ] {
            let db = SpatialDb::open_from(&image_of_tuple(&sound)[..]).unwrap();
            assert_eq!(db.execute("SELECT id FROM t").unwrap().rows[0][0].to_string(), "7");
        }
    }

    #[test]
    fn persistence_errors_are_persist_variant() {
        let err = SpatialDb::open("/nonexistent/dir/x.db").err().expect("must fail");
        assert!(matches!(err, EngineError::Persist(_)), "got {err:?}");
        let err = SpatialDb::open_from(&b"garbage!!"[..]).err().expect("must fail");
        assert!(matches!(err, EngineError::Persist(_)), "got {err:?}");
    }
}

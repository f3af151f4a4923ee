//! # jackpine-storage
//!
//! Row storage for the Jackpine spatial engines: typed values with a
//! compact stored codec ([`Value`], [`compact`]), table schemas ([`Schema`]), slotted
//! pages ([`page::Page`]) in the frames of a buffer pool
//! ([`BufferPool`]) and heap files ([`HeapFile`]).
//!
//! ## Cold vs. warm runs
//!
//! Rows are stored *serialized* in pages, in the stored row codec
//! ([`compact`]). The pool frame that holds a page also holds the rows
//! decoded from it — a row only when a read decoded it: a row is decoded
//! and kept when a statement first reads it (a run of ids on one page at
//! a time, [`HeapFile::get_many`]), while loads, WAL replay, snapshot
//! restore (which checks each tuple in place, [`Schema::check_tuple`]),
//! index builds, vacuum and MBR quads work from the tuple bytes
//! ([`Field`]) and keep none. So there is one cache with one budget: a fetch from a
//! resident, decoded slot costs a lock and a clone; one from a resident
//! page pays the decode — the in-process analogue of detoasting in the
//! systems Jackpine originally measured — and one from an evicted page
//! pays the read from the page store first. The engine's cold mode drops
//! the frames ([`BufferPool::clear`]) between queries, so cold numbers
//! genuinely include that work rather than a simulated sleep.
//!
//! ## One stored encoding of a row, and a canonical one
//!
//! * **The stored form** ([`compact`], [`Value::store_row`]): varint
//!   column counts, integers and lengths, and geometries without WKB
//!   headers or their rings' closing vertices. It is encoded straight
//!   from the values lent to an insert, read in place ([`Field`]) and
//!   decoded ([`Value::decode_row`]), and it is what a page holds in
//!   memory, in a spill file, in the write-ahead log's insert records
//!   (which share it with the write transaction's staging buffer) and in
//!   a snapshot's page entries — all the same bytes, nothing transcoded.
//! * **The canonical form** ([`Value::encode_row`]): a two-byte column
//!   count, then per value a tag and a fixed-width integer or float, a
//!   text's `u32` length and bytes, or a geometry's `u32` length and
//!   WKB. It is made only for output: result digests and the byte
//!   counts that storage is measured against. Nothing stores it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod heap;
pub mod page;
pub mod pool;
mod schema;
mod store;
pub mod sync;
mod value;

pub use error::StorageError;
pub use heap::{HeapFile, HeapStats, RowId};
pub use page::PAGE_SIZE;
pub use pool::{BufferPool, PinnedPage, PoolStats};
pub use schema::{ColumnDef, DataType, Schema};
pub use store::PageStore;
pub use value::{compact, Field, Lend, Row, Value, ValueRef};

/// Result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;

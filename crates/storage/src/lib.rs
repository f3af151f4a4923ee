//! # jackpine-storage
//!
//! Row storage for the Jackpine spatial engines: typed values with a
//! compact binary codec ([`Value`]), table schemas ([`Schema`]), slotted
//! pages ([`page::Page`]), heap files ([`HeapFile`]) and a catalog
//! ([`Catalog`]).
//!
//! ## Cold vs. warm runs
//!
//! Rows are stored *serialized* in pages (geometries as WKB). Each heap
//! keeps a decoded-row cache; a cache miss pays the full decode cost —
//! the in-process analogue of a buffer-pool miss plus detoasting in the
//! systems Jackpine originally measured. The benchmark driver's cold mode
//! calls [`HeapFile::clear_cache`] between queries, so cold numbers
//! genuinely include that work rather than a simulated sleep.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod catalog;
mod error;
mod heap;
pub mod page;
pub mod pool;
mod schema;
pub mod sync;
mod value;

pub use catalog::{Catalog, Table, TableId};
pub use error::StorageError;
pub use heap::{HeapFile, HeapStats, RowId};
pub use page::PAGE_SIZE;
pub use pool::{BufferPool, PageStore, PinnedPage, PoolStats};
pub use schema::{ColumnDef, DataType, Schema};
pub use value::{Row, Value};

/// Result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;

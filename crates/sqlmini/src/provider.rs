//! Storage-access traits the SQL engine consumes.
//!
//! `jackpine-engine` implements these over its catalog, heaps and indexes;
//! the planner and executor in this crate only ever see the traits, which
//! keeps the SQL layer portable across engine profiles — the role JDBC
//! plays in the original Jackpine.

use crate::Result;
use jackpine_geom::{Coord, Envelope};
use jackpine_storage::{Row, RowId, Schema, Value};
use std::sync::Arc;

/// A statement-scoped snapshot pin, created by the engine before a
/// SELECT executes and dropped when it finishes. The handle fixes one
/// commit generation for the whole statement — every table the plan
/// touches is pinned at the same generation, so multi-table reads are
/// consistent even while writers commit concurrently — and keeps that
/// generation's rows reclaimable-proof while any reader holds it.
pub trait SnapshotHandle: Send + Sync + std::fmt::Debug {
    /// The commit generation this handle pins.
    fn generation(&self) -> u64;
}

/// A readable table with optional index access paths.
pub trait TableProvider: Send + Sync {
    /// The table's schema.
    fn schema(&self) -> Arc<Schema>;

    /// Ids of all live rows (storage order).
    fn row_ids(&self) -> Vec<RowId>;

    /// Fetches one row.
    fn fetch(&self, id: RowId) -> Result<Arc<Row>>;

    /// Fetches every row of `ids`, in input order; the first error wins.
    /// The executor calls this once per morsel (and once per join
    /// probe), so a paged provider can read a run of ids on one page
    /// under one lock and decode the run's rows back to back. `keep`
    /// says whether the rows will be evaluated: a provider that caches
    /// decoded rows keeps those it decodes only then, and hands a row
    /// that is only passed on — into a result, or to a DML statement —
    /// over as the caller's alone. The default fetches each row.
    fn fetch_many(&self, ids: &[RowId], keep: bool) -> Result<Vec<Arc<Row>>> {
        let _ = keep;
        ids.iter().map(|&id| self.fetch(id)).collect()
    }

    /// Candidate rows whose geometry envelope (column `col`) intersects
    /// `env`, served by a spatial index. `None` when no usable index
    /// exists (the planner then falls back to a scan).
    fn spatial_candidates(&self, col: usize, env: &Envelope) -> Option<Vec<RowId>>;

    /// Rows whose column `col` equals `key`, served by an ordered index.
    fn ordered_candidates(&self, col: usize, key: &Value) -> Option<Vec<RowId>>;

    /// `k` rows near `query` by envelope distance of column `col` (an
    /// index may rank by a lower bound of it), served by a spatial
    /// index. `None` when no usable index exists, or when the index
    /// cannot rank every row — it holds a row whose geometry is empty —
    /// and the caller must read the whole table.
    fn nearest(&self, col: usize, query: Coord, k: usize) -> Option<Vec<RowId>>;

    /// Packed MBR quads ([`Envelope::quad`]: NaN bounds for empty
    /// geometries; `None` per row for non-geometry values) of column
    /// `col` for each id, in input order — read off what the table
    /// stores, without fetching a row: the envelopes the access path's
    /// envelope filter decides on, and those the spatial filter loop
    /// passes through the envelope rule for a scanned table. `Ok(None)`
    /// (the default) when the provider has no such store; the executor
    /// then reads the envelopes off fetched rows.
    fn fetch_mbrs(&self, _col: usize, _ids: &[RowId]) -> Result<Option<Vec<Option<[f64; 4]>>>> {
        Ok(None)
    }

    /// The ids of `ids` whose row `keep` accepts, in input order; the
    /// first error, the provider's or `keep`'s, wins. `keep` reads only
    /// the columns `cols` (ascending) of the row it is handed, so a
    /// provider that stores rows may hand it a tuple holding just those
    /// columns, read where the row is stored, and every other column
    /// NULL — fetching and decoding nothing. The default fetches the
    /// rows, keeping none ([`TableProvider::fetch_many`]), and hands each
    /// over whole.
    fn filter_ids(
        &self,
        ids: &[RowId],
        cols: &[usize],
        keep: &mut dyn FnMut(&[Value]) -> Result<bool>,
    ) -> Result<Vec<RowId>> {
        let _ = cols;
        let rows = self.fetch_many(ids, false)?;
        let mut out = Vec::new();
        for (&id, row) in ids.iter().zip(&rows) {
            if keep(row)? {
                out.push(id);
            }
        }
        Ok(out)
    }

    /// A copy of this provider pinned to the statement snapshot `snap`:
    /// its reads observe exactly the rows visible at
    /// `snap.generation()`, regardless of concurrent writers. `None`
    /// (the default) means the provider has no snapshot support and the
    /// executor reads it live.
    fn pin_snapshot(&self, snap: &Arc<dyn SnapshotHandle>) -> Option<Arc<dyn TableProvider>> {
        let _ = snap;
        None
    }
}

/// Name → table resolution.
pub trait CatalogProvider: Send + Sync {
    /// Resolves a table by name (case-insensitive).
    fn table(&self, name: &str) -> Result<Arc<dyn TableProvider>>;
}

//! Materialized read-only virtual tables.
//!
//! A [`VirtualTable`] adapts a vector of in-memory rows to the
//! [`TableProvider`] trait, which is all the planner and executor ever
//! see — so a virtual table flows through
//! the *normal* SELECT pipeline (WHERE, ORDER BY, LIMIT, aggregates,
//! even `EXPLAIN ANALYZE`) with zero special cases. The engine uses it
//! for the `jp_*` system catalog: each introspection query materializes
//! the relevant observability state into one of these and hands it to
//! the planner like any base table.
//!
//! Virtual tables have no indexes (every access path returns `None`, so
//! plans degrade to a scan — introspection tables are small) and no
//! snapshot support (the default `pin_snapshot` of `None` makes the
//! executor read them live, which is exactly right for data that was
//! materialized at statement start).

use crate::provider::TableProvider;
use crate::{Result, SqlError};
use jackpine_geom::{Coord, Envelope};
use jackpine_storage::{Row, RowId, Schema, StorageError, Value};
use std::sync::Arc;

/// A read-only table materialized from in-memory rows.
#[derive(Debug)]
pub struct VirtualTable {
    schema: Arc<Schema>,
    rows: Vec<Arc<Row>>,
}

impl VirtualTable {
    /// Builds a virtual table, type-checking every row against the
    /// schema so downstream expression evaluation can trust the column
    /// types just as it does for heap tables.
    pub fn new(schema: Schema, rows: Vec<Row>) -> Result<VirtualTable> {
        for row in &rows {
            schema.check_row(row)?;
        }
        Ok(VirtualTable {
            schema: Arc::new(schema),
            rows: rows.into_iter().map(Arc::new).collect(),
        })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Synthetic id for row `i`: the index split across the page/slot
    /// fields (slot is only 16 bits wide).
    fn row_id(i: usize) -> RowId {
        RowId { page: (i >> 16) as u32, slot: (i & 0xffff) as u16 }
    }

    fn index_of(id: RowId) -> usize {
        ((id.page as usize) << 16) | id.slot as usize
    }
}

impl TableProvider for VirtualTable {
    fn schema(&self) -> Arc<Schema> {
        self.schema.clone()
    }

    fn row_ids(&self) -> Vec<RowId> {
        (0..self.rows.len()).map(Self::row_id).collect()
    }

    fn fetch(&self, id: RowId) -> Result<Arc<Row>> {
        self.rows
            .get(Self::index_of(id))
            .cloned()
            .ok_or(SqlError::Storage(StorageError::RowNotFound { page: id.page, slot: id.slot }))
    }

    fn spatial_candidates(&self, _col: usize, _env: &Envelope) -> Option<Vec<RowId>> {
        None
    }

    fn ordered_candidates(&self, _col: usize, _key: &Value) -> Option<Vec<RowId>> {
        None
    }

    fn nearest(&self, _col: usize, _query: Coord, _k: usize) -> Option<Vec<RowId>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jackpine_storage::{ColumnDef, DataType};

    fn table(n: usize) -> VirtualTable {
        let schema = Schema::new(vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("name", DataType::Text),
        ])
        .unwrap();
        let rows =
            (0..n).map(|i| vec![Value::Int(i as i64), Value::Text(format!("r{i}"))]).collect();
        VirtualTable::new(schema, rows).unwrap()
    }

    #[test]
    fn round_trips_rows_through_synthetic_ids() {
        let t = table(5);
        assert_eq!(t.len(), 5);
        let ids = t.row_ids();
        assert_eq!(ids.len(), 5);
        for (i, id) in ids.iter().enumerate() {
            let row = t.fetch(*id).unwrap();
            assert_eq!(row[0], Value::Int(i as i64));
        }
        assert!(t.fetch(RowId { page: 9, slot: 9 }).is_err());
    }

    #[test]
    fn ids_split_across_page_and_slot_beyond_u16() {
        // Index 70000 does not fit in the 16-bit slot field alone.
        let i = 70_000usize;
        let id = VirtualTable::row_id(i);
        assert_eq!(id.page, 1);
        assert_eq!(id.slot, (70_000 - 65_536) as u16);
        assert_eq!(VirtualTable::index_of(id), i);
    }

    #[test]
    fn rows_are_type_checked() {
        let schema = Schema::new(vec![ColumnDef::new("id", DataType::Int)]).unwrap();
        assert!(VirtualTable::new(schema, vec![vec![Value::Text("no".into())]]).is_err());
    }

    #[test]
    fn no_index_paths() {
        let t = table(1);
        assert!(t.spatial_candidates(0, &Envelope::new(0.0, 0.0, 1.0, 1.0)).is_none());
        assert!(t.ordered_candidates(0, &Value::Int(0)).is_none());
        assert!(t.nearest(0, Coord { x: 0.0, y: 0.0 }, 1).is_none());
        assert!(!t.is_empty());
    }
}

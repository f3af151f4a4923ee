//! The table registry: a [`Table`] is one engine object — its heap and
//! the indexes over it — and [`Tables`] holds each behind an `Arc`, keyed
//! by name. A name is looked up here and nowhere else: what outlives a
//! lookup (a plan's provider adapter, a write transaction, the reclaim
//! queue) holds the table itself, so a table dropped and created again
//! under its name is a new object that nothing of the old one reaches.

use crate::indexes::TableIndexes;
use jackpine_storage::sync::RwLock;
use jackpine_storage::{BufferPool, HeapFile, Schema, StorageError};
use std::collections::HashMap;
use std::sync::Arc;

/// A named table: its heap and its indexes.
pub struct Table {
    /// The name as created (lookups are case-insensitive).
    pub name: String,
    /// Row storage.
    pub heap: HeapFile,
    /// The table's indexes, behind their own lock (see
    /// [`crate::txn`] for the lock order).
    pub(crate) indexes: RwLock<TableIndexes>,
}

impl Table {
    /// The table's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        self.heap.schema()
    }
}

/// The engine's tables by lowercased name.
#[derive(Default)]
pub(crate) struct Tables(RwLock<HashMap<String, Arc<Table>>>);

impl Tables {
    /// Registers a table named `name`, with an empty heap in `pool` and
    /// no index.
    pub(crate) fn create(
        &self,
        name: &str,
        schema: Schema,
        pool: &Arc<BufferPool>,
    ) -> Result<(), StorageError> {
        let mut tables = self.0.write();
        let key = name.to_ascii_lowercase();
        if tables.contains_key(&key) {
            return Err(StorageError::TableExists(name.to_string()));
        }
        let heap = HeapFile::with_pool(Arc::new(schema), pool.clone());
        let indexes = RwLock::default();
        tables.insert(key, Arc::new(Table { name: name.to_string(), heap, indexes }));
        Ok(())
    }

    /// The table named `name` (case-insensitive).
    pub(crate) fn get(&self, name: &str) -> Result<Arc<Table>, StorageError> {
        let found = self.0.read().get(&name.to_ascii_lowercase()).cloned();
        found.ok_or_else(|| StorageError::NoSuchTable(name.to_string()))
    }

    /// Unregisters the table named `name`, returning it, so that its
    /// last handle is not dropped under the registry's lock.
    pub(crate) fn remove(&self, name: &str) -> Result<Arc<Table>, StorageError> {
        let removed = self.0.write().remove(&name.to_ascii_lowercase());
        removed.ok_or_else(|| StorageError::NoSuchTable(name.to_string()))
    }

    /// Every table, sorted by name.
    pub(crate) fn all(&self) -> Vec<Arc<Table>> {
        let mut all: Vec<Arc<Table>> = self.0.read().values().cloned().collect();
        all.sort_unstable_by(|a, b| a.name.cmp(&b.name));
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jackpine_storage::{ColumnDef, DataType, Value};

    fn schema() -> Schema {
        Schema::new(vec![ColumnDef::new("id", DataType::Int)]).unwrap()
    }

    #[test]
    fn create_lookup_drop() {
        let (tables, pool) = (Tables::default(), Arc::new(BufferPool::new()));
        tables.create("roads", schema(), &pool).unwrap();
        assert!(tables.get("ROADS").is_ok());
        assert!(tables.get("rivers").is_err());
        assert!(tables.create("Roads", schema(), &pool).is_err());
        let names: Vec<String> = tables.all().iter().map(|t| t.name.clone()).collect();
        assert_eq!(names, vec!["roads"]);
        assert!(tables.remove("Roads").is_ok());
        assert!(tables.remove("roads").is_err());
    }

    #[test]
    fn tables_hold_rows() {
        let (tables, pool) = (Tables::default(), Arc::new(BufferPool::new()));
        tables.create("t", schema(), &pool).unwrap();
        tables.get("t").unwrap().heap.insert(vec![Value::Int(1)]).unwrap();
        assert_eq!(tables.get("T").unwrap().heap.len(), 1);
    }
}

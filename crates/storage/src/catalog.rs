//! The catalog: name → table resolution.

use crate::pool::BufferPool;
use crate::sync::RwLock;
use crate::{HeapFile, Result, Schema, StorageError};
use std::collections::HashMap;
use std::sync::Arc;

/// Opaque table identifier (creation order).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TableId(pub u32);

/// A named table: schema plus heap storage.
#[derive(Debug)]
pub struct Table {
    /// Catalog id.
    pub id: TableId,
    /// Table name as created (lookups are case-insensitive).
    pub name: String,
    /// Row storage.
    pub heap: HeapFile,
}

impl Table {
    /// The table's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        self.heap.schema()
    }
}

/// The set of tables in a database instance. All table heaps share the
/// catalog's buffer pool, so one capacity budget governs the instance.
#[derive(Debug)]
pub struct Catalog {
    tables: RwLock<HashMap<String, Arc<Table>>>,
    next_id: RwLock<u32>,
    pool: Arc<BufferPool>,
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog::new()
    }
}

impl Catalog {
    /// Creates an empty catalog with its own (unbounded) buffer pool.
    pub fn new() -> Catalog {
        Catalog::with_pool(Arc::new(BufferPool::new()))
    }

    /// Creates an empty catalog whose tables page through `pool`.
    pub fn with_pool(pool: Arc<BufferPool>) -> Catalog {
        Catalog { tables: RwLock::new(HashMap::new()), next_id: RwLock::new(0), pool }
    }

    /// The buffer pool shared by every table in this catalog.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Creates a table.
    ///
    /// # Errors
    /// [`StorageError::TableExists`] if the (case-insensitive) name is
    /// already taken.
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<Arc<Table>> {
        let key = name.to_ascii_lowercase();
        let mut tables = self.tables.write();
        if tables.contains_key(&key) {
            return Err(StorageError::TableExists(name.to_string()));
        }
        let mut next = self.next_id.write();
        let id = TableId(*next);
        *next += 1;
        let table = Arc::new(Table {
            id,
            name: name.to_string(),
            heap: HeapFile::with_pool(Arc::new(schema), self.pool.clone()),
        });
        tables.insert(key, table.clone());
        Ok(table)
    }

    /// Looks a table up by name (case-insensitive).
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        self.tables
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| StorageError::NoSuchTable(name.to_string()))
    }

    /// Drops a table; returns whether it existed.
    pub fn drop_table(&self, name: &str) -> bool {
        self.tables.write().remove(&name.to_ascii_lowercase()).is_some()
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().values().map(|t| t.name.clone()).collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ColumnDef, DataType, Value};

    fn schema() -> Schema {
        Schema::new(vec![ColumnDef::new("id", DataType::Int)]).unwrap()
    }

    #[test]
    fn create_lookup_drop() {
        let cat = Catalog::new();
        cat.create_table("roads", schema()).unwrap();
        assert!(cat.table("ROADS").is_ok());
        assert!(cat.table("rivers").is_err());
        assert!(cat.create_table("Roads", schema()).is_err());
        assert_eq!(cat.table_names(), vec!["roads"]);
        assert!(cat.drop_table("roads"));
        assert!(!cat.drop_table("roads"));
    }

    #[test]
    fn tables_hold_rows() {
        let cat = Catalog::new();
        let t = cat.create_table("t", schema()).unwrap();
        t.heap.insert(vec![Value::Int(1)]).unwrap();
        assert_eq!(cat.table("t").unwrap().heap.len(), 1);
    }

    #[test]
    fn distinct_ids() {
        let cat = Catalog::new();
        let a = cat.create_table("a", schema()).unwrap();
        let b = cat.create_table("b", schema()).unwrap();
        assert_ne!(a.id, b.id);
    }
}

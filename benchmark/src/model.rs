//! The write workload's reference: plain vectors of rows that every
//! statement is replayed on, with no index, cache, log or concurrency.
//! The engine's answers and its tables after a crash reopen must match.

use crate::digest::{fnv1a, table_digest};
use crate::workloads::Effect;
use jackpine_engine::SpatialDb;
use jackpine_storage::{Row, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// The write tables first, in the order [`Effect`] indexes them.
pub const TABLES: [&str; 5] = ["pointlm", "roads", "arealm", "county", "areawater"];

/// One row as the model needs it: who it is, where it is, what it holds.
struct Entry {
    id: i64,
    mbr: [f64; 4],
    digest: u64,
}

pub struct Model {
    tables: Vec<Vec<Entry>>,
    /// Rows the benchmark inserted, kept whole because an UPDATE edits them.
    written: HashMap<(usize, i64), Row>,
    /// Canonical bytes of every row image written: loaded, inserted, updated.
    pub user_bytes: u64,
}

fn entry(row: &[Value]) -> (Entry, u64) {
    let bytes = Value::encode_row(row);
    let id = row[0].as_i64().expect("every benchmark table's first column is the id");
    let mbr = row.iter().find_map(Value::mbr).unwrap_or([f64::NAN; 4]);
    (Entry { id, mbr, digest: fnv1a(&bytes) }, bytes.len() as u64)
}

/// Row count and digest of a table as the engine holds it.
pub fn engine_table(db: &Arc<SpatialDb>, table: &str) -> Result<(usize, u64), String> {
    let rs = db.execute(&format!("SELECT * FROM {table}")).map_err(|e| format!("{table}: {e}"))?;
    let digests = rs.rows.iter().map(|r| fnv1a(&Value::encode_row(r))).collect();
    Ok((rs.rows.len(), table_digest(digests)))
}

impl Model {
    /// Takes the loaded tables as the starting state.
    pub fn from_engine(db: &Arc<SpatialDb>) -> Result<Model, String> {
        let mut model = Model { tables: Vec::new(), written: HashMap::new(), user_bytes: 0 };
        for table in TABLES {
            let rs = db
                .execute(&format!("SELECT * FROM {table}"))
                .map_err(|e| format!("{table}: {e}"))?;
            let mut entries = Vec::with_capacity(rs.rows.len());
            for row in &rs.rows {
                let (e, len) = entry(row);
                model.user_bytes += len;
                entries.push(e);
            }
            model.tables.push(entries);
        }
        Ok(model)
    }

    /// Replays one statement and returns the number it must report: rows
    /// affected for a write, the count for a read.
    pub fn apply(&mut self, effect: &Effect) -> i64 {
        match effect {
            Effect::Query | Effect::Checkpoint => 0,
            Effect::Insert { table, row } => {
                let (e, len) = entry(row);
                self.user_bytes += len;
                self.written.insert((*table, e.id), row.clone());
                self.tables[*table].push(e);
                1
            }
            Effect::Rename { table, lo, hi, name } => {
                let mut renamed = 0;
                for e in self.tables[*table].iter_mut().filter(|e| (*lo..*hi).contains(&e.id)) {
                    let row = self
                        .written
                        .get_mut(&(*table, e.id))
                        .expect("the write workload only renames rows it inserted");
                    row[1] = Value::Text(name.clone());
                    let (updated, len) = entry(row);
                    *e = updated;
                    self.user_bytes += len;
                    renamed += 1;
                }
                renamed
            }
            Effect::Delete { table, lo, hi } => {
                let before = self.tables[*table].len();
                self.tables[*table].retain(|e| !(*lo..*hi).contains(&e.id));
                (before - self.tables[*table].len()) as i64
            }
            Effect::CountWindow { table, window } => self.tables[*table]
                .iter()
                .filter(|e| {
                    e.mbr[0] <= window.max_x
                        && e.mbr[2] >= window.min_x
                        && e.mbr[1] <= window.max_y
                        && e.mbr[3] >= window.min_y
                })
                .count() as i64,
        }
    }

    /// Row count and digest of a table as the model holds it.
    pub fn table(&self, index: usize) -> (usize, u64) {
        let t = &self.tables[index];
        (t.len(), table_digest(t.iter().map(|e| e.digest).collect()))
    }
}

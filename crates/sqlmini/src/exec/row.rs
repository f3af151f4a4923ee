//! Late-materialized rows and the column access the evaluator reads
//! them through.

use jackpine_storage::{Row, Value};
use std::sync::Arc;

/// A row flowing between operators without materializing its values.
#[derive(Clone, Debug)]
pub enum LazyRow {
    /// Concatenation of zero or more base-table row handles (scans and
    /// joins). Column offsets run across the parts in order.
    Handles(Vec<Arc<Row>>),
    /// A computed tuple (`Project`/`Aggregate` output).
    Owned(Vec<Value>),
}

impl LazyRow {
    /// The zero-column row (`SELECT` without `FROM`).
    pub fn empty() -> LazyRow {
        LazyRow::Handles(Vec::new())
    }

    /// A single-table row handle.
    pub(super) fn one(row: Arc<Row>) -> LazyRow {
        LazyRow::Handles(vec![row])
    }

    /// The row formed by `self`'s columns followed by `other`'s.
    pub(super) fn join(&self, other: &LazyRow) -> LazyRow {
        match (self, other) {
            (LazyRow::Handles(a), LazyRow::Handles(b)) => {
                let mut parts = Vec::with_capacity(a.len() + b.len());
                parts.extend(a.iter().cloned());
                parts.extend(b.iter().cloned());
                LazyRow::Handles(parts)
            }
            _ => {
                let mut vals = self.materialize();
                vals.extend(other.materialize());
                LazyRow::Owned(vals)
            }
        }
    }

    /// The row extended by one more table-row handle (index join probes).
    pub(super) fn join_handle(&self, handle: Arc<Row>) -> LazyRow {
        match self {
            LazyRow::Handles(a) => {
                let mut parts = Vec::with_capacity(a.len() + 1);
                parts.extend(a.iter().cloned());
                parts.push(handle);
                LazyRow::Handles(parts)
            }
            LazyRow::Owned(vals) => {
                let mut vals = vals.clone();
                vals.extend(handle.iter().cloned());
                LazyRow::Owned(vals)
            }
        }
    }

    /// The handle part holding flat column offset `i`, plus the offset
    /// inside it — the physical row identity the prepared-geometry cache
    /// keys by. `None` for owned (materialized) tuples, which have no
    /// stable identity to cache under.
    pub(super) fn col_part(&self, i: usize) -> Option<(&Arc<Row>, usize)> {
        match self {
            LazyRow::Handles(parts) => {
                let mut i = i;
                for part in parts {
                    if i < part.len() {
                        return Some((part, i));
                    }
                    i -= part.len();
                }
                None
            }
            LazyRow::Owned(_) => None,
        }
    }

    /// Deep-copies the row into a flat tuple.
    pub(super) fn materialize(&self) -> Vec<Value> {
        match self {
            LazyRow::Handles(parts) => {
                let n = parts.iter().map(|p| p.len()).sum();
                let mut out = Vec::with_capacity(n);
                for part in parts {
                    out.extend(part.iter().cloned());
                }
                out
            }
            LazyRow::Owned(vals) => vals.clone(),
        }
    }
}

/// Column access shared by materialized slices and [`LazyRow`]s, so one
/// expression evaluator serves both.
pub trait TupleView {
    /// The value at flat column offset `i`, if in range.
    fn col(&self, i: usize) -> Option<&Value>;
}

impl TupleView for LazyRow {
    fn col(&self, i: usize) -> Option<&Value> {
        match self {
            LazyRow::Handles(_) => self.col_part(i).map(|(part, off)| &part[off]),
            LazyRow::Owned(vals) => vals.get(i),
        }
    }
}

impl TupleView for [Value] {
    fn col(&self, i: usize) -> Option<&Value> {
        self.get(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lazy_row_column_walk() {
        let a = Arc::new(vec![Value::Int(1), Value::Int(2)]);
        let b = Arc::new(vec![Value::Int(3)]);
        let joined = LazyRow::one(a).join(&LazyRow::one(b));
        assert_eq!(joined.col(0), Some(&Value::Int(1)));
        assert_eq!(joined.col(2), Some(&Value::Int(3)));
        assert_eq!(joined.col(3), None);
        assert_eq!(joined.materialize(), vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
    }
}

//! Late-materialized rows and the column access the evaluator reads
//! them through.

use jackpine_storage::{Row, Value};
use std::sync::Arc;

/// A row flowing between operators without materializing its values.
#[derive(Clone, Debug)]
pub enum LazyRow {
    /// One base-table row handle (scans and index fetches), held inline:
    /// making or cloning it allocates nothing.
    One(Arc<Row>),
    /// Two base-table row handles (a two-table join), held inline.
    Pair([Arc<Row>; 2]),
    /// Concatenation of any other number of base-table row handles.
    /// Column offsets run across the parts in order, as in `Pair`.
    Handles(Vec<Arc<Row>>),
    /// A computed tuple (`Project`/`Aggregate` output).
    Owned(Vec<Value>),
}

impl LazyRow {
    /// The zero-column row (`SELECT` without `FROM`).
    pub fn empty() -> LazyRow {
        LazyRow::Handles(Vec::new())
    }

    /// The row's handles in column order; `None` for an owned tuple.
    fn parts(&self) -> Option<&[Arc<Row>]> {
        match self {
            LazyRow::One(row) => Some(std::slice::from_ref(row)),
            LazyRow::Pair(parts) => Some(parts),
            LazyRow::Handles(parts) => Some(parts),
            LazyRow::Owned(_) => None,
        }
    }

    /// The row of handles `a` followed by handles `b`.
    fn concat(a: &[Arc<Row>], b: &[Arc<Row>]) -> LazyRow {
        match (a, b) {
            ([x], [y]) => LazyRow::Pair([x.clone(), y.clone()]),
            _ => LazyRow::Handles(a.iter().chain(b).cloned().collect()),
        }
    }

    /// The row formed by `self`'s columns followed by `other`'s.
    pub(super) fn join(&self, other: &LazyRow) -> LazyRow {
        match (self.parts(), other.parts()) {
            (Some(a), Some(b)) => LazyRow::concat(a, b),
            _ => {
                let mut vals = self.materialize();
                vals.extend(other.materialize());
                LazyRow::Owned(vals)
            }
        }
    }

    /// The row extended by one more table-row handle (index join probes).
    pub(super) fn join_handle(&self, handle: Arc<Row>) -> LazyRow {
        match self.parts() {
            Some(a) => LazyRow::concat(a, std::slice::from_ref(&handle)),
            None => {
                let mut vals = self.materialize();
                vals.extend(handle.iter().cloned());
                LazyRow::Owned(vals)
            }
        }
    }

    /// The handle part holding flat column offset `i`, plus the offset
    /// inside it — the physical row identity the vectorized filter's
    /// batch-local memos key by. `None` for owned (materialized) tuples,
    /// which have no stable identity to memo under.
    pub(super) fn col_part(&self, i: usize) -> Option<(&Arc<Row>, usize)> {
        let mut i = i;
        for part in self.parts()? {
            if i < part.len() {
                return Some((part, i));
            }
            i -= part.len();
        }
        None
    }

    /// The row as a flat tuple: a computed one moved out, a row of
    /// handles deep-copied.
    pub(super) fn into_values(self) -> Vec<Value> {
        match self {
            LazyRow::Owned(vals) => vals,
            handles => handles.materialize(),
        }
    }

    /// Deep-copies the row into a flat tuple.
    pub(super) fn materialize(&self) -> Vec<Value> {
        if let LazyRow::Owned(vals) = self {
            return vals.clone();
        }
        let parts = self.parts().unwrap_or_default();
        let mut out = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
        for part in parts {
            out.extend(part.iter().cloned());
        }
        out
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
            LazyRow::Owned(vals) => vals.get(i),
            _ => self.col_part(i).map(|(part, off)| &part[off]),
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
        let joined = LazyRow::One(a).join(&LazyRow::One(b));
        assert_eq!(joined.col(0), Some(&Value::Int(1)));
        assert_eq!(joined.col(2), Some(&Value::Int(3)));
        assert_eq!(joined.col(3), None);
        assert_eq!(joined.materialize(), vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
    }

    #[test]
    fn one_and_two_handles_are_held_inline() {
        let row = |v: i64| Arc::new(vec![Value::Int(v)]);
        let one = LazyRow::One(row(1));
        let pair = one.join_handle(row(2));
        let three = pair.join(&LazyRow::One(row(3)));
        assert!(matches!(one, LazyRow::One(_)));
        assert!(matches!(pair, LazyRow::Pair(_)));
        assert!(matches!(&three, LazyRow::Handles(parts) if parts.len() == 3));
        assert_eq!(three.col(2), Some(&Value::Int(3)));
        assert_eq!(three.materialize(), vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
    }
}

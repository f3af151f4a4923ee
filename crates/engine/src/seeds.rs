//! What a table's indexes are built from: [`IndexSeeds`], taken off tuple
//! bytes row by row — by one heap scan for all of a `CREATE INDEX`
//! batch's indexes ([`SpatialDb::scan_seeds`], split over the workers on a
//! large table), or while a snapshot's rows go by on open. One walk of a
//! tuple visits every indexed column; nothing is decoded.

use crate::catalog::Table;
use crate::db::{EngineError, SpatialDb};
use jackpine_geom::Envelope;
use jackpine_sqlmini::exec::MIN_PARALLEL_ROWS;
use jackpine_storage::{DataType, Field, RowId};
use std::collections::hash_map::{Entry, HashMap};
use std::hash::Hash;

/// Ordered-index entries grouped by key as they arrive, each group in
/// storage order: the build sorts only the distinct keys
/// ([`jackpine_index::OrderedIndex::from_groups`]), and no key is held
/// once per row.
pub(crate) type Groups<K> = HashMap<K, Vec<RowId>>;

/// The key a spatial index holds a geometry column's field under: the
/// geometry's envelope, or the empty one for a NULL. So the index counts
/// the rows no nearest search can rank, NULL and empty alike, and finds
/// each again on removal.
fn envelope_key(f: Field<'_>) -> crate::Result<Option<Envelope>> {
    match f {
        Field::Null => Ok(Some(Envelope::EMPTY)),
        f => Ok(f.envelope()?),
    }
}

/// What one index is built from.
#[cfg_attr(test, derive(Debug, PartialEq))]
pub(crate) enum Seed {
    /// A spatial index's bulk-load input, in storage order.
    Spatial(Vec<(Envelope, RowId)>),
    /// An ordered index's groups, integer and text keys apart, so that a
    /// text key seen before costs a lookup and no `String`; both become
    /// ordered-index keys at the build.
    Ordered(Groups<i64>, Groups<String>),
}

/// What a table's indexes are built from, gathered row by row: by a heap
/// scan (`CREATE INDEX`), or while the rows of a snapshot go by (every
/// index of the table in the one pass that places them, no scan at all).
#[cfg_attr(test, derive(Debug, PartialEq))]
pub(crate) struct IndexSeeds {
    /// The indexed columns, ascending: the order one walk of a tuple
    /// reaches them in.
    pub(crate) cols: Vec<usize>,
    /// Per column of `cols`, its index's seed.
    pub(crate) seeds: Vec<Seed>,
}

impl IndexSeeds {
    /// Empty seeds, with room for `rows` rows, for a spatial index on
    /// each of `spatial_cols` and an ordered one on each of
    /// `ordered_cols`; [`EngineError::Index`] when a column cannot carry
    /// its index or is named twice.
    pub(crate) fn new(
        t: &Table,
        spatial_cols: &[usize],
        ordered_cols: &[usize],
        rows: usize,
    ) -> crate::Result<IndexSeeds> {
        let mut by_col: Vec<(usize, Seed)> = Vec::new();
        for (&col, spatial) in
            spatial_cols.iter().map(|c| (c, true)).chain(ordered_cols.iter().map(|c| (c, false)))
        {
            let c = t.schema().columns().get(col).ok_or_else(|| {
                EngineError::Index(format!("'{}' has no column number {col}", t.name))
            })?;
            if by_col.iter().any(|(named, _)| *named == col) {
                return Err(EngineError::Index(format!(
                    "column '{}' of '{}' is indexed twice",
                    c.name, t.name
                )));
            }
            let seed = if !spatial {
                if !matches!(c.ty, DataType::Int | DataType::Text) {
                    return Err(EngineError::Index(format!(
                        "ordered index unsupported on {} column '{}'",
                        c.ty.sql_name(),
                        c.name
                    )));
                }
                Seed::Ordered(HashMap::new(), HashMap::new())
            } else if c.ty == DataType::Geometry {
                Seed::Spatial(Vec::with_capacity(rows))
            } else {
                return Err(EngineError::Index(format!(
                    "column '{}' of '{}' is not a geometry",
                    c.name, t.name
                )));
            };
            by_col.push((col, seed));
        }
        by_col.sort_unstable_by_key(|(col, _)| *col);
        let (cols, seeds) = by_col.into_iter().unzip();
        Ok(IndexSeeds { cols, seeds })
    }

    /// Adds the entries of the row stored as `tuple`, read straight off
    /// its bytes in one walk: nothing is decoded.
    pub(crate) fn add(&mut self, id: RowId, tuple: &[u8]) -> crate::Result<()> {
        let seeds = &mut self.seeds;
        Field::of(tuple, &self.cols, |k, field| {
            match (&mut seeds[k], field) {
                (Seed::Spatial(items), f) => {
                    if let Some(env) = envelope_key(f)? {
                        items.push((env, id));
                    }
                }
                (Seed::Ordered(ints, _), Field::Int(key)) => ints.entry(key).or_default().push(id),
                (Seed::Ordered(_, texts), Field::Text(key)) => match texts.get_mut(key) {
                    Some(ids) => ids.push(id),
                    None => drop(texts.insert(key.to_string(), vec![id])),
                },
                (Seed::Ordered(..), _) => {}
            }
            Ok(())
        })
    }

    /// Appends `later`, gathered from the rows after this one's (same
    /// columns): every entry list stays in storage order.
    fn append(&mut self, later: IndexSeeds) {
        fn join<K: Hash + Eq>(groups: &mut Groups<K>, later: Groups<K>) {
            for (key, mut ids) in later {
                match groups.entry(key) {
                    Entry::Occupied(e) => e.into_mut().append(&mut ids),
                    Entry::Vacant(e) => drop(e.insert(ids)),
                }
            }
        }
        for (seed, later) in self.seeds.iter_mut().zip(later.seeds) {
            match (seed, later) {
                (Seed::Spatial(items), Seed::Spatial(more)) => items.extend(more),
                (Seed::Ordered(ints, texts), Seed::Ordered(more_ints, more_texts)) => {
                    join(ints, more_ints);
                    join(texts, more_texts);
                }
                _ => unreachable!("seeds of one table's runs share their columns"),
            }
        }
    }
}

impl SpatialDb {
    /// The seeds of indexes on `spatial_cols` and `ordered_cols` from
    /// every physically present row of `t`, logically deleted ones
    /// included: an older pinned snapshot that still sees such a row must
    /// be able to find it through the new index (probes post-filter by
    /// visibility). From the tuple bytes, so no row is decoded. Above
    /// [`MIN_PARALLEL_ROWS`] rows the ids are cut into one contiguous run
    /// per worker, each run is scanned into seeds of its own — the first
    /// on this thread, each other one on a scoped thread — and the seeds
    /// are joined in run order: every entry list is in storage order at
    /// any worker count, and the error returned is the first in id order.
    pub(crate) fn scan_seeds(
        &self,
        t: &Table,
        spatial_cols: &[usize],
        ordered_cols: &[usize],
    ) -> crate::Result<IndexSeeds> {
        let ids = t.heap.row_ids_any();
        let scan = |run: &[RowId]| {
            let mut seeds = IndexSeeds::new(t, spatial_cols, ordered_cols, run.len())?;
            t.heap.scan_tuples(run, |id, tuple| seeds.add(id, tuple))?;
            Ok(seeds)
        };
        let workers = self.workers();
        if workers <= 1 || ids.len() <= MIN_PARALLEL_ROWS {
            return scan(&ids);
        }
        // The first run is scanned here, not on a thread of its own: what
        // a thread allocates comes from a glibc arena of its own, whose
        // freed space stays resident.
        let scan = &scan;
        let mut runs = ids.chunks(ids.len().div_ceil(workers));
        let first = runs.next().expect("a table above the cutoff has a run");
        let (first, later): (_, Vec<crate::Result<IndexSeeds>>) = std::thread::scope(|s| {
            let threads: Vec<_> = runs.map(|run| s.spawn(move || scan(run))).collect();
            let first = scan(first);
            (
                first,
                threads.into_iter().map(|h| h.join().expect("an index scan panicked")).collect(),
            )
        });
        let mut seeds = first?;
        for run in later {
            seeds.append(run?);
        }
        Ok(seeds)
    }
}

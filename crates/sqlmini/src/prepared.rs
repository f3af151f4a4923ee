//! Prepared-geometry cache for the refine stage.
//!
//! An index-nested-loop spatial join evaluates its predicate against the
//! same inner-table geometry once per candidate *pair*, so the cost of
//! building a [`PreparedGeometry`] (monotone chains, edge bins) is repaid
//! many times over — but only if the preparation survives from one pair
//! to the next. This cache holds preparations keyed by the physical
//! identity of the heap row the geometry came from: the `Arc` pointer of
//! the row handle plus the column offset inside it.
//!
//! Keying by pointer identity is sound because every entry *pins* its
//! row handle: while the entry lives, the allocation cannot be freed and
//! the address cannot be reused by a different row. A deleted row's
//! entry is merely dead weight (its row never flows through the executor
//! again), and an updated row is a delete-plus-reinsert that arrives
//! under a fresh `Arc` — a guaranteed miss. So DML leaves the cache
//! alone; the engine clears it only on index and table drops and on
//! explicit cold runs, to bound that dead weight.
//!
//! The cache is capacity-bounded. Overflow used to clear the map
//! wholesale, which dumps hot preparations under churn (a join whose
//! inner working set slightly exceeds capacity re-prepares *everything*
//! each round). It now evicts only the least-recently-hit quarter of the
//! entries: each hit stamps its entry from a global monotone tick, and
//! overflow drops the entries below the quarter-quantile stamp, so hot
//! inner geometries survive.

use jackpine_geom::Geometry;
use jackpine_obs::EngineMetrics;
use jackpine_storage::sync::RwLock;
use jackpine_storage::Row;
use jackpine_topo::PreparedGeometry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Prepared geometries retained before eviction kicks in.
pub const PREPARED_CACHE_CAPACITY: usize = 1024;

/// One cached preparation, pinning the heap row whose address keys it.
struct Entry {
    /// Keeps the row allocation alive so the keying address cannot be
    /// reused by a different row while this entry exists.
    _pin: Arc<Row>,
    prepared: Arc<PreparedGeometry>,
    /// Tick of the most recent hit (or the insert), from the cache's
    /// global counter. Updated under the read lock — stamping a hit must
    /// not serialize concurrent refine workers.
    last_hit: AtomicU64,
}

/// A concurrent, capacity-bounded cache of [`PreparedGeometry`]s keyed
/// by heap-row identity. Shared by reference between the engine (which
/// clears it on index and table drops) and the executor (which populates
/// it during refine).
#[derive(Default)]
pub struct PreparedCache {
    map: RwLock<HashMap<(usize, usize), Entry>>,
    /// Monotone hit/insert tick feeding the eviction stamps.
    tick: AtomicU64,
}

impl std::fmt::Debug for PreparedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedCache").field("len", &self.len()).finish()
    }
}

impl PreparedCache {
    /// An empty cache.
    pub fn new() -> PreparedCache {
        PreparedCache::default()
    }

    /// Drops every cached preparation (index or table drop, cold run).
    pub fn clear(&self) {
        self.map.write().clear();
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// `true` when no preparations are cached.
    pub fn is_empty(&self) -> bool {
        self.map.read().is_empty()
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// The preparation of column `col` of the heap row behind `part`,
    /// building and caching it on first sight. `g` must be the geometry
    /// stored at that column. Records hits, misses and capacity
    /// evictions in `metrics`.
    pub(crate) fn get_or_prepare(
        &self,
        part: &Arc<Row>,
        col: usize,
        g: &Geometry,
        metrics: &EngineMetrics,
    ) -> Arc<PreparedGeometry> {
        let key = (Arc::as_ptr(part) as usize, col);
        if let Some(e) = self.map.read().get(&key) {
            e.last_hit.store(self.next_tick(), Ordering::Relaxed);
            metrics.prepared_cache_hits.incr();
            return e.prepared.clone();
        }
        metrics.prepared_cache_misses.incr();
        // Build outside any lock: preparation is the expensive part.
        let prepared = Arc::new(PreparedGeometry::new(g));
        let mut map = self.map.write();
        if map.len() >= PREPARED_CACHE_CAPACITY {
            let dropped = evict_coldest_quarter(&mut map, |e| e.last_hit.load(Ordering::Relaxed));
            metrics.prepared_cache_evictions.add(dropped);
        }
        let entry = map.entry(key).or_insert_with(|| Entry {
            _pin: Arc::clone(part),
            prepared: Arc::clone(&prepared),
            last_hit: AtomicU64::new(self.next_tick()),
        });
        Arc::clone(&entry.prepared)
    }
}

/// Drops the coldest quarter of `map` — the entries whose `stamp` (the
/// tick of their last hit) is lowest — and returns how many left. With
/// unique stamps (one tick per hit or insert) the quantile cut is exact.
/// The eviction of every least-recently-hit cache in the workspace.
pub fn evict_coldest_quarter<K, V>(map: &mut HashMap<K, V>, stamp: impl Fn(&V) -> u64) -> u64 {
    let target = (map.len() / 4).max(1);
    let mut stamps: Vec<u64> = map.values().map(&stamp).collect();
    let threshold = *stamps.select_nth_unstable(target - 1).1;
    let before = map.len();
    map.retain(|_, v| stamp(v) > threshold);
    (before - map.len()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use jackpine_geom::wkt;
    use jackpine_storage::Value;

    fn row_with_geom(text: &str) -> Arc<Row> {
        Arc::new(vec![Value::Int(1), Value::Geom(wkt::parse(text).unwrap())])
    }

    #[test]
    fn second_lookup_hits() {
        let cache = PreparedCache::new();
        let m = EngineMetrics::new();
        let row = row_with_geom("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))");
        let Some(Value::Geom(g)) = row.get(1) else { panic!() };
        let a = cache.get_or_prepare(&row, 1, g, &m);
        let b = cache.get_or_prepare(&row, 1, g, &m);
        assert!(Arc::ptr_eq(&a, &b), "same row must reuse the preparation");
        assert_eq!(m.prepared_cache_hits.get(), 1);
        assert_eq!(m.prepared_cache_misses.get(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_rows_get_distinct_entries() {
        let cache = PreparedCache::new();
        let m = EngineMetrics::new();
        let r1 = row_with_geom("POINT (1 1)");
        let r2 = row_with_geom("POINT (2 2)");
        for r in [&r1, &r2] {
            let Some(Value::Geom(g)) = r.get(1) else { panic!() };
            cache.get_or_prepare(r, 1, g, &m);
        }
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn overflow_evicts_a_fraction_and_keeps_hot_entries() {
        let cache = PreparedCache::new();
        // `fill` counts the set-up probes, `m` only the ones asserted on.
        let fill = EngineMetrics::new();
        let m = EngineMetrics::new();
        let mut rows = Vec::new();
        for i in 0..PREPARED_CACHE_CAPACITY {
            let r = row_with_geom(&format!("POINT ({i} 0)"));
            let Some(Value::Geom(g)) = r.get(1) else { panic!() };
            cache.get_or_prepare(&r, 1, g, &fill);
            rows.push(r); // keep the Arcs alive so keys stay distinct
        }
        assert_eq!(cache.len(), PREPARED_CACHE_CAPACITY);

        // Re-hit the first entry so its stamp beats every cold insert.
        let hot = &rows[0];
        let Some(Value::Geom(hot_g)) = hot.get(1) else { panic!() };
        let hot_prep = cache.get_or_prepare(hot, 1, hot_g, &fill);

        // One more insert overflows the cache and triggers eviction.
        let extra = row_with_geom("POINT (-1 -1)");
        let Some(Value::Geom(g)) = extra.get(1) else { panic!() };
        cache.get_or_prepare(&extra, 1, g, &m);

        let evicted = PREPARED_CACHE_CAPACITY / 4;
        assert_eq!(cache.len(), PREPARED_CACHE_CAPACITY - evicted + 1);
        assert_eq!(m.prepared_cache_evictions.get(), evicted as u64);

        // The hot entry survived: probing it again returns the same
        // preparation without a fresh miss.
        let again = cache.get_or_prepare(hot, 1, hot_g, &m);
        assert!(Arc::ptr_eq(&hot_prep, &again), "hot entry must survive eviction");
        assert_eq!(m.prepared_cache_hits.get(), 1, "hot probe must hit");
        assert_eq!(m.prepared_cache_misses.get(), 1, "only the overflow insert missed");
    }
}

//! DDL and the indexes: tables, the indexes over them, and the adapters
//! through which the planner and executor read both. Each DDL entry
//! point here, like DROP TABLE in [`crate::statement`], is one schema
//! change (`SpatialDb::change_schema`): applied under the writer lock,
//! then cut into the durable snapshot, never logged.
//!
//! Every [`Table`] holds its [`TableIndexes`]: its spatial indexes
//! (R\*-tree or grid, by profile) and its ordered ones, keyed by column.
//! An index is built by one bulk load from [`IndexSeeds`] taken off tuple
//! bytes — by one heap scan for all of a `CREATE INDEX` batch's indexes
//! ([`SpatialDb::create_indexes`]), or while a snapshot's rows go by on
//! open — and then kept in step, off the same bytes, by the write
//! transaction, its rollback and vacuum ([`Table::index_tuples`]).
//! Under a bounded pool an R-tree's leaves page through the pool
//! ([`PoolLeafPager`]), attached in one place.

use crate::catalog::Table;
use crate::db::{EngineError, SpatialDb};
use crate::seeds::{Groups, IndexSeeds, Seed};
use crate::syscat;
use crate::txn::Transactions;
use jackpine_geom::{Coord, Envelope};
use jackpine_index::{GridIndex, LeafPager, OrderedIndex, ProbeStats, RTree, RTreeConfig};
use jackpine_obs::EngineMetrics;
use jackpine_sqlmini::provider::{CatalogProvider, SnapshotHandle, TableProvider};
use jackpine_sqlmini::SqlError;
use jackpine_storage::sync::RwLock;
use jackpine_storage::{BufferPool, ColumnDef, Field, Row, RowId, Schema, StorageError, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// A spatial index over one geometry column.
enum SpatialIdx {
    Rtree(RTree<RowId>),
    Grid(GridIndex<RowId>),
}

/// A geometry column's spatial index, and how many of its entries have
/// an empty envelope (a NULL geometry, or one with no points): no window
/// meets them, and no nearest search ranks them among the rest.
struct SpatialColumn {
    idx: SpatialIdx,
    empty: usize,
}

impl SpatialColumn {
    fn insert(&mut self, env: Envelope, id: RowId) {
        self.empty += usize::from(env.is_empty());
        self.idx.insert(env, id);
    }

    fn remove(&mut self, env: &Envelope, id: RowId) {
        if self.idx.remove(env, id) {
            self.empty -= usize::from(env.is_empty());
        }
    }
}

/// [`LeafPager`] backed by the engine's shared buffer pool. Leaves are
/// packed into the pages of the index's own pool file in the order they
/// are written: each goes into the last page while it fits and starts a
/// new one when it does not. A tree spills in node-id order, which for a
/// bulk-loaded tree is STR order, so a page holds a run of neighbouring
/// leaves (about 23 at the default fan-out). Spilled leaves compete for
/// frames with heap pages under one capacity budget, and show up in the
/// same pin/eviction counters.
#[derive(Debug)]
struct PoolLeafPager {
    pool: Arc<BufferPool>,
    file: u64,
    /// Where each leaf went, and how many pages are started.
    dir: RwLock<LeafDirectory>,
}

#[derive(Debug, Default)]
struct LeafDirectory {
    /// `(page, slot)` by leaf id; `None` for an id never written.
    at: Vec<Option<(u32, u16)>>,
    /// Pages started; the last of them is being filled.
    pages: u32,
}

impl LeafPager for PoolLeafPager {
    fn write(&self, leaf: u64, bytes: &[u8]) {
        let mut dir = self.dir.write();
        let mut page = dir.pages.saturating_sub(1);
        let mut pin = self.pool.pin(self.file, page);
        if !pin.read().fits(bytes.len()) {
            page += 1;
            pin = self.pool.pin(self.file, page);
        }
        let slot = pin.write().insert(bytes);
        dir.pages = page + 1;
        let leaf = leaf as usize;
        if dir.at.len() <= leaf {
            dir.at.resize(leaf + 1, None);
        }
        dir.at[leaf] = Some((page, slot));
    }

    fn read(&self, leaf: u64) -> Option<Vec<u8>> {
        let (page, slot) = (*self.dir.read().at.get(leaf as usize)?)?;
        let pin = self.pool.pin(self.file, page);
        let guard = pin.read();
        guard.get(slot).ok().map(<[u8]>::to_vec)
    }
}

impl Drop for PoolLeafPager {
    fn drop(&mut self) {
        self.pool.unregister(self.file);
    }
}

/// Pages `tree`'s leaves out through `pool`. Inner nodes stay resident;
/// leaf probes pin pool pages and show up in the pool's hit/miss
/// counters. A tree with no leaf spilled — never spilled, or faulted
/// back in by a write since — is written into a new, empty pool file of
/// `table`'s column `col`, and the file of its previous spill goes with
/// the pager it replaces. A tree whose leaves are spilled already keeps
/// them where they are.
fn spill_through_pool(tree: &mut RTree<RowId>, pool: &Arc<BufferPool>, table: &str, col: usize) {
    if tree.spilled_leaves() == 0 {
        let file = pool.register(&format!("idx-{}-{col}", table.to_ascii_lowercase()));
        let dir = RwLock::new(LeafDirectory::default());
        tree.attach_pager(Arc::new(PoolLeafPager { pool: pool.clone(), file, dir }));
    }
    tree.spill_leaves();
}

impl SpatialIdx {
    fn insert(&mut self, env: Envelope, id: RowId) {
        match self {
            SpatialIdx::Rtree(t) => t.insert(env, id),
            SpatialIdx::Grid(g) => g.insert(env, id),
        }
    }

    /// Window query that also reports how much work the probe did
    /// (nodes/cells inspected, candidates emitted).
    fn window_probe(&self, env: &Envelope) -> (Vec<RowId>, ProbeStats) {
        let mut out = Vec::new();
        let stats = match self {
            SpatialIdx::Rtree(t) => t.query_window_probe(env, |_, v| out.push(*v)),
            SpatialIdx::Grid(g) => g.query_window_probe(env, |_, v| out.push(*v)),
        };
        (out, stats)
    }

    fn nearest_probe(&self, q: Coord, k: usize) -> (Vec<RowId>, ProbeStats) {
        let (hits, stats) = match self {
            SpatialIdx::Rtree(t) => t.nearest_probe(q, k),
            SpatialIdx::Grid(g) => g.nearest_probe(q, k),
        };
        (hits.into_iter().map(|(_, v)| v).collect(), stats)
    }

    /// Removes the entry of row `id` under `env`; `false` if none.
    fn remove(&mut self, env: &Envelope, id: RowId) -> bool {
        match self {
            SpatialIdx::Rtree(t) => t.remove(env, |v| *v == id).is_some(),
            SpatialIdx::Grid(g) => g.remove(env, |v| *v == id).is_some(),
        }
    }
}

/// Ordered-index key: the orderable subset of [`Value`].
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Key {
    Int(i64),
    Text(String),
}

impl Key {
    fn from_value(v: &Value) -> Option<Key> {
        match v {
            Value::Int(i) => Some(Key::Int(*i)),
            Value::Text(s) => Some(Key::Text(s.clone())),
            _ => None,
        }
    }
}

/// Per-table index bookkeeping.
#[derive(Default)]
pub(crate) struct TableIndexes {
    spatial: HashMap<usize, SpatialColumn>,
    ordered: HashMap<usize, OrderedIndex<Key, RowId>>,
}

impl TableIndexes {
    /// Adds the entries `seeds` hold, gathered for these indexes, when
    /// `present`, or removes them: each index's in the order its rows
    /// came, as one insert or removal a row would.
    fn apply(&mut self, seeds: IndexSeeds, present: bool) {
        let missing = "seeds are gathered for the indexes there are";
        for (col, seed) in seeds.cols.iter().zip(seeds.seeds) {
            match seed {
                Seed::Spatial(items) => {
                    let idx = self.spatial.get_mut(col).expect(missing);
                    for (env, id) in items {
                        if present {
                            idx.insert(env, id)
                        } else {
                            idx.remove(&env, id)
                        }
                    }
                }
                Seed::Ordered(ints, texts) => {
                    let idx = self.ordered.get_mut(col).expect(missing);
                    for (key, ids) in key_groups(ints, texts) {
                        for id in ids {
                            if present {
                                idx.insert(key.clone(), id);
                            } else {
                                idx.remove(&key, |v| *v == id);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// An ordered index's seed as its entries grouped by key.
fn key_groups(ints: Groups<i64>, texts: Groups<String>) -> impl Iterator<Item = (Key, Vec<RowId>)> {
    let ints = ints.into_iter().map(|(k, ids)| (Key::Int(k), ids));
    ints.chain(texts.into_iter().map(|(k, ids)| (Key::Text(k), ids)))
}

impl SpatialDb {
    /// Creates a table programmatically, a schema change
    /// (`SpatialDb::change_schema`). Names with the `jp_` prefix are
    /// reserved for the system catalog.
    pub fn create_table(&self, name: &str, columns: Vec<ColumnDef>) -> crate::Result<()> {
        if syscat::is_system_table(name) {
            return Err(EngineError::Storage(StorageError::TableExists(format!(
                "{name} (the jp_ prefix is reserved for the system catalog)"
            ))));
        }
        let schema = Schema::new(columns)?;
        self.change_schema(
            || Ok(self.tables.create(name, schema, &self.pool)?),
            |()| drop(self.tables.remove(name)),
        )
    }

    /// Builds a spatial index on a geometry column. Uses R\*-tree STR
    /// bulk loading or grid construction depending on the profile.
    pub fn create_spatial_index(&self, table: &str, column: &str) -> crate::Result<()> {
        self.create_indexes(table, &[column], &[])
    }

    /// Builds an ordered (attribute) index on an integer or text column.
    pub fn create_ordered_index(&self, table: &str, column: &str) -> crate::Result<()> {
        self.create_indexes(table, &[], &[column])
    }

    /// `CREATE INDEX` of a spatial index on each of the geometry columns
    /// `spatial` and an ordered one on each of the integer or text columns
    /// `ordered` of `table`, all gathered by one heap scan and installed
    /// together, one schema change (`SpatialDb::change_schema`). On any
    /// error, the cut's included, none of them is installed.
    pub fn create_indexes(
        &self,
        table: &str,
        spatial: &[&str],
        ordered: &[&str],
    ) -> crate::Result<()> {
        let apply = || {
            let t = self.table(table)?;
            let cols = |names: &[&str]| -> crate::Result<Vec<usize>> {
                Ok(names.iter().map(|c| t.schema().column_index(c)).collect::<Result<_, _>>()?)
            };
            let (spatial, ordered) = (cols(spatial)?, cols(ordered)?);
            let seeds = self.scan_seeds(&t, &spatial, &ordered)?;
            self.install_indexes(&t, seeds)?;
            Ok((t, spatial, ordered))
        };
        let installed = self.change_schema(apply, |(t, spatial, ordered)| {
            let mut ti = t.indexes.write();
            spatial.iter().for_each(|col| drop(ti.spatial.remove(col)));
            ordered.iter().for_each(|col| drop(ti.ordered.remove(col)));
        });
        installed.map(drop)
    }

    /// Builds an index from each of `seeds` (the bulk path) and registers
    /// them on `t`: all of them, or none when one is there already. The
    /// caller holds the writer lock, or owns the engine as restore does,
    /// so no index is installed between the check and the install.
    pub(crate) fn install_indexes(&self, t: &Table, seeds: IndexSeeds) -> crate::Result<()> {
        let ti = t.indexes.read();
        let taken = seeds.cols.iter().zip(&seeds.seeds).find_map(|(col, seed)| match seed {
            Seed::Spatial(_) => ti.spatial.contains_key(col).then_some(("spatial", col)),
            Seed::Ordered(..) => ti.ordered.contains_key(col).then_some(("ordered", col)),
        });
        if let Some((kind, &col)) = taken {
            let column = &t.schema().columns()[col].name;
            return Err(EngineError::Index(format!(
                "{kind} index on '{}.{column}' already exists",
                t.name
            )));
        }
        drop(ti);
        let (mut spatial, mut ordered) = (Vec::new(), Vec::new());
        for (col, seed) in seeds.cols.into_iter().zip(seeds.seeds) {
            match seed {
                Seed::Spatial(items) => {
                    spatial.push((col, self.build_spatial_index(&t.name, col, items)))
                }
                Seed::Ordered(ints, texts) => {
                    ordered.push((col, OrderedIndex::from_groups(key_groups(ints, texts))))
                }
            }
        }
        let mut ti = t.indexes.write();
        ti.spatial.extend(spatial);
        ti.ordered.extend(ordered);
        Ok(())
    }

    fn build_spatial_index(
        &self,
        table: &str,
        col: usize,
        items: Vec<(Envelope, RowId)>,
    ) -> SpatialColumn {
        let empty = items.iter().filter(|(e, _)| e.is_empty()).count();
        let idx = if self.profile().uses_grid_index() {
            let mut extent = Envelope::EMPTY;
            for (e, _) in &items {
                extent.expand_to_include(e);
            }
            let cells = ((items.len() as f64).sqrt().ceil() as usize).clamp(16, 256);
            let extent = if extent.is_empty() {
                Envelope::new(0.0, 0.0, 1.0, 1.0)
            } else {
                extent.expanded_by(extent.margin() * 0.001 + 1e-9)
            };
            SpatialIdx::Grid(GridIndex::bulk_load(extent, cells, cells, items))
        } else {
            let mut tree = RTree::bulk_load(RTreeConfig::default(), items);
            // Under a bounded pool, leaves page through it from the start.
            if self.pool.capacity_frames() != 0 {
                spill_through_pool(&mut tree, &self.pool, table, col);
            }
            SpatialIdx::Rtree(tree)
        };
        SpatialColumn { idx, empty }
    }

    /// Drops the spatial index on `table.column`, a schema change
    /// (`SpatialDb::change_schema`): cached plans are restaled and the
    /// durable snapshot re-cut without the index. Errors if no such index
    /// exists.
    pub fn drop_spatial_index(&self, table: &str, column: &str) -> crate::Result<()> {
        self.drop_index(table, column, true)
    }

    /// Drops the ordered index on `table.column`. Errors if no such
    /// index exists. Same invalidation rules as
    /// [`SpatialDb::drop_spatial_index`]. A hook for the index churn of
    /// `tests/concurrency.rs` and `tests/observability.rs`.
    pub fn drop_ordered_index(&self, table: &str, column: &str) -> crate::Result<()> {
        self.drop_index(table, column, false)
    }

    /// `DROP INDEX` of either kind.
    fn drop_index(&self, table: &str, column: &str, spatial: bool) -> crate::Result<()> {
        // Both kinds' slots, so the index is freed after the locks are.
        let apply = || {
            let t = self.table(table)?;
            let col = t.schema().column_index(column)?;
            let mut ti = t.indexes.write();
            let removed = if spatial {
                (ti.spatial.remove(&col), None)
            } else {
                (None, ti.ordered.remove(&col))
            };
            if matches!(removed, (None, None)) {
                let kind = if spatial { "spatial" } else { "ordered" };
                return Err(EngineError::Index(format!("no {kind} index on '{table}.{column}'")));
            }
            Ok(removed)
        };
        self.change_schema(apply, |_| ()).map(drop)
    }

    /// Drops everything a cold run must not find warm. The buffer pool
    /// writes back its dirty frames, drops every unpinned one, and with
    /// them every row and quad decoded from a page (a frame that stays
    /// pinned loses those too) — so the next probe of any page, or of a
    /// spilled R-tree leaf (which lives only in its pool page), genuinely
    /// goes back to the page store. The statement cache goes as well — a
    /// cold run that skipped it would still be warm where it counts for
    /// short queries.
    pub fn clear_caches(&self) {
        self.statements.clear();
        self.pool.clear();
    }

    /// Sizes the shared buffer pool: heaps and spilled index leaves
    /// compete for `bytes / PAGE_SIZE` frames (`0` = unbounded, the
    /// default). Shrinking evicts unpinned frames immediately; every
    /// R-tree's leaves are then spilled into the pool under a bound, or
    /// faulted back out of it without one.
    pub fn set_pool_bytes(&self, bytes: usize) {
        self.pool.set_capacity_bytes(bytes);
        let bounded = self.pool.capacity_frames() != 0;
        for t in self.tables.all() {
            for (col, sc) in t.indexes.write().spatial.iter_mut() {
                match &mut sc.idx {
                    SpatialIdx::Rtree(tree) if bounded => {
                        spill_through_pool(tree, &self.pool, &t.name, *col)
                    }
                    SpatialIdx::Rtree(tree) => tree.unspill(),
                    SpatialIdx::Grid(_) => {}
                }
            }
        }
    }
}

impl Table {
    /// Adds the entries of each `(id, tuple)` of `rows` — the row at `id`,
    /// stored as `tuple` — to every index on this table when `present`,
    /// or removes them, all under one lock. They are gathered first, by
    /// the one walk a tuple that gathers a `CREATE INDEX`'s or a
    /// restore's ([`IndexSeeds::add`]), so what a rollback or a vacuum
    /// strips is what the insert put there, and an error leaves the
    /// indexes as they were. A table without an index reads nothing.
    pub(crate) fn index_tuples<'t>(
        &self,
        rows: impl IntoIterator<Item = (RowId, &'t [u8])>,
        present: bool,
    ) -> crate::Result<()> {
        let ti = &mut *self.indexes.write();
        if ti.spatial.is_empty() && ti.ordered.is_empty() {
            return Ok(());
        }
        let (spatial, ordered): (Vec<_>, Vec<_>) =
            (ti.spatial.keys().copied().collect(), ti.ordered.keys().copied().collect());
        let rows = rows.into_iter();
        let mut seeds = IndexSeeds::new(self, &spatial, &ordered, rows.size_hint().0)?;
        for (id, tuple) in rows {
            seeds.add(id, tuple)?;
        }
        ti.apply(seeds, present);
        Ok(())
    }

    /// Column indices carrying a (spatial, ordered) index, each ascending.
    pub(crate) fn index_definitions(&self) -> (Vec<usize>, Vec<usize>) {
        let ti = self.indexes.read();
        let mut s: Vec<usize> = ti.spatial.keys().copied().collect();
        let mut o: Vec<usize> = ti.ordered.keys().copied().collect();
        s.sort_unstable();
        o.sort_unstable();
        (s, o)
    }
}

// ---------------------------------------------------------------------------
// Provider adapters
// ---------------------------------------------------------------------------

pub(crate) struct DbCatalogAdapter {
    pub(crate) db: Arc<SpatialDb>,
}

impl CatalogProvider for DbCatalogAdapter {
    fn table(&self, name: &str) -> jackpine_sqlmini::Result<Arc<dyn TableProvider>> {
        // System-catalog names resolve to point-in-time virtual tables;
        // unknown jp_* names fall through to the ordinary not-found
        // error below.
        if let Some(provider) = syscat::provider(&self.db, name) {
            return provider;
        }
        let table = self.db.tables.get(name).map_err(SqlError::from)?;
        Ok(Arc::new(DbTableAdapter {
            metrics: self.db.metrics.clone(),
            txn: self.db.txn.clone(),
            table,
            pinned: None,
        }))
    }
}

/// One table as the planner and executor see it. Plans holding these
/// sit in the engine's statement cache, so an adapter holds the parts of
/// the engine it reads — the table itself, never its name, and never the
/// engine: `statements` → plan → adapter → engine would be a cycle, and
/// an engine that had run one cached SELECT would never be freed.
#[derive(Clone)]
struct DbTableAdapter {
    metrics: Arc<EngineMetrics>,
    txn: Arc<Transactions>,
    table: Arc<Table>,
    /// When set, every read observes exactly the rows visible at this
    /// handle's generation. `None` reads live (newest published state
    /// per call) — correct for single-statement uses like DML scans that
    /// run under the writer lock.
    pinned: Option<Arc<dyn SnapshotHandle>>,
}

impl DbTableAdapter {
    /// The generation this adapter reads at.
    fn gen(&self) -> u64 {
        match &self.pinned {
            Some(s) => s.generation(),
            None => self.txn.generation(),
        }
    }
}

impl TableProvider for DbTableAdapter {
    fn schema(&self) -> Arc<Schema> {
        self.table.schema().clone()
    }

    fn row_ids(&self) -> Vec<RowId> {
        self.table.heap.row_ids_visible(self.gen())
    }

    fn fetch(&self, id: RowId) -> jackpine_sqlmini::Result<Arc<Row>> {
        self.metrics.heap_rows_fetched.incr();
        self.table.heap.get(id).map_err(SqlError::from)
    }

    fn fetch_many(&self, ids: &[RowId], keep: bool) -> jackpine_sqlmini::Result<Vec<Arc<Row>>> {
        self.metrics.heap_rows_fetched.add(ids.len() as u64);
        self.table.heap.get_many(ids, keep).map_err(SqlError::from)
    }

    fn spatial_candidates(&self, col: usize, env: &Envelope) -> Option<Vec<RowId>> {
        // Epoch before the probe: a vacuum racing the probe must be
        // visible to the visibility filter below.
        let epoch = self.table.heap.reclaim_epoch();
        let ti = self.table.indexes.read();
        let (mut ids, stats) = ti.spatial.get(&col)?.idx.window_probe(env);
        let m = &self.metrics;
        m.index_probes.incr();
        m.index_candidates.add(stats.candidates);
        m.index_nodes_visited.add(stats.nodes_visited);
        // Indexes may hold entries for rows this snapshot cannot see
        // (not yet born, or dead but unreclaimed); filter them out
        // after counting raw candidates, so index stats stay a property
        // of the index, not of concurrent write traffic.
        self.table.heap.retain_visible(&mut ids, self.gen(), epoch);
        Some(ids)
    }

    fn ordered_candidates(&self, col: usize, key: &Value) -> Option<Vec<RowId>> {
        let epoch = self.table.heap.reclaim_epoch();
        let ti = self.table.indexes.read();
        let idx = ti.ordered.get(&col)?;
        let k = Key::from_value(key)?;
        let mut ids = idx.get(&k).to_vec();
        let m = &self.metrics;
        m.index_probes.incr();
        m.index_candidates.add(ids.len() as u64);
        self.table.heap.retain_visible(&mut ids, self.gen(), epoch);
        Some(ids)
    }

    fn nearest(&self, col: usize, query: Coord, k: usize) -> Option<Vec<RowId>> {
        let gen = self.gen();
        let ti = self.table.indexes.read();
        let sc = ti.spatial.get(&col)?;
        // A row whose geometry is NULL or empty has a NULL distance,
        // which sorts before every other; no nearest search ranks it, so
        // the caller reads the whole table.
        if sc.empty > 0 {
            return None;
        }
        let idx = &sc.idx;
        let m = &self.metrics;
        // The index can surface rows this snapshot cannot see; when the
        // visible set comes up short of k, re-probe with a doubled
        // budget until it fills or the index is exhausted. Visibility
        // filtering preserves the probe's distance order, so truncating
        // still yields the k nearest visible rows.
        let mut want = k;
        loop {
            let epoch = self.table.heap.reclaim_epoch();
            let (mut ids, stats) = idx.nearest_probe(query, want);
            m.index_probes.incr();
            m.index_candidates.add(stats.candidates);
            m.index_nodes_visited.add(stats.nodes_visited);
            let exhausted = ids.len() < want;
            self.table.heap.retain_visible(&mut ids, gen, epoch);
            if ids.len() >= k || exhausted {
                ids.truncate(k);
                return Some(ids);
            }
            want = want.saturating_mul(2);
        }
    }

    fn pin_snapshot(&self, snap: &Arc<dyn SnapshotHandle>) -> Option<Arc<dyn TableProvider>> {
        Some(Arc::new(DbTableAdapter { pinned: Some(snap.clone()), ..self.clone() }))
    }

    fn fetch_mbrs(
        &self,
        col: usize,
        ids: &[RowId],
    ) -> jackpine_sqlmini::Result<Option<Vec<Option<[f64; 4]>>>> {
        // Served from the quads kept in the rows' pool frames, computed
        // from the stored bytes where missing; no row is fetched.
        Ok(Some(self.table.heap.mbrs(col, ids)?))
    }

    fn filter_ids(
        &self,
        ids: &[RowId],
        cols: &[usize],
        keep: &mut dyn FnMut(&[Value]) -> jackpine_sqlmini::Result<bool>,
    ) -> jackpine_sqlmini::Result<Vec<RowId>> {
        // A row a read decoded is handed over whole; any other is read
        // off its stored bytes, `cols` alone, into one reused tuple.
        let mut tuple = vec![Value::Null; self.table.schema().columns().len()];
        let mut out = Vec::new();
        self.table.heap.scan_stored(ids, |id, bytes, row| {
            let kept = match row {
                Some(row) => keep(row)?,
                None => {
                    cols.iter().for_each(|&c| tuple[c] = Value::Null);
                    Field::of(bytes, cols, |k, f| {
                        tuple[cols[k]] = f.value()?;
                        Ok::<(), SqlError>(())
                    })?;
                    keep(&tuple)?
                }
            };
            if kept {
                out.push(id);
            }
            Ok::<(), SqlError>(())
        })?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineProfile;
    use jackpine_geom::{wkt, Geometry};
    use jackpine_sqlmini::exec::MIN_PARALLEL_ROWS;
    use jackpine_storage::DataType;
    use std::sync::atomic::Ordering;

    /// Rows past the serial cutoff: ids, 97 repeating names, NULLs here
    /// and there, points and small squares.
    fn rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                let (x, y) = ((i * 37 % 1000) as f64, (i * 91 % 1000) as f64);
                let g = match i % 3 {
                    0 => wkt::parse(&format!("POINT ({x} {y})")).unwrap(),
                    1 => wkt::parse(&format!(
                        "POLYGON (({x} {y}, {} {y}, {} {}, {x} {y}))",
                        x + 2.0,
                        x + 2.0,
                        y + 2.0
                    ))
                    .unwrap(),
                    _ => Geometry::Point(jackpine_geom::Point::empty()),
                };
                let name =
                    if i % 11 == 0 { Value::Null } else { Value::Text(format!("n{}", i % 97)) };
                let g = if i % 13 == 0 { Value::Null } else { Value::Geom(g) };
                vec![Value::Int((i % 41) as i64), name, g]
            })
            .collect()
    }

    fn table_of(db: &SpatialDb, name: &str, n: usize) -> Arc<Table> {
        let columns = [("id", DataType::Int), ("name", DataType::Text), ("g", DataType::Geometry)];
        db.create_table(name, columns.iter().map(|&(c, ty)| ColumnDef::new(c, ty)).collect())
            .unwrap();
        db.insert_rows(name, rows(n)).unwrap();
        db.table(name).unwrap()
    }

    /// What the indexes on `t` answer, in the order they answer it: the
    /// spatial index's whole-extent probe (entries in tree order, nodes
    /// visited), its shape, and every ordered group in key order.
    fn answers(db: &SpatialDb, t: &str) -> Vec<String> {
        let t = db.table(t).unwrap();
        let ti = t.indexes.read();
        let everything = Envelope::new(-1e9, -1e9, 1e9, 1e9);
        let mut out = Vec::new();
        for (col, sc) in &ti.spatial {
            let mut seen = Vec::new();
            let visit = |e: &Envelope, v: &RowId| {
                seen.push(([e.min_x, e.min_y, e.max_x, e.max_y].map(f64::to_bits), *v))
            };
            let (stats, shape) = match &sc.idx {
                SpatialIdx::Rtree(r) => (r.query_window_probe(&everything, visit), r.stats()),
                SpatialIdx::Grid(g) => (g.query_window_probe(&everything, visit), g.stats()),
            };
            out.push(format!("spatial {col}: {shape:?} {stats:?} {seen:?}"));
        }
        for (col, idx) in &ti.ordered {
            out.push(format!("ordered {col}: {} keys {idx:?}", idx.key_count()));
        }
        out.sort();
        out
    }

    #[test]
    fn a_split_scan_builds_what_one_scan_builds() {
        for profile in [EngineProfile::ExactRtree, EngineProfile::ExactGrid] {
            let db = SpatialDb::new(profile);
            let t = table_of(&db, "t", MIN_PARALLEL_ROWS + 904);
            let mut built = Vec::new();
            for workers in [1, 2, 7] {
                db.set_workers(workers);
                let seeds = db.scan_seeds(&t, &[2], &[0, 1]).unwrap();
                for seed in &seeds.seeds {
                    // Storage order is ascending (page, slot).
                    let in_order = |ids: &Vec<RowId>| {
                        ids.windows(2).all(|w| (w[0].page, w[0].slot) < (w[1].page, w[1].slot))
                    };
                    match seed {
                        Seed::Spatial(items) => {
                            assert!(in_order(&items.iter().map(|(_, id)| *id).collect()))
                        }
                        Seed::Ordered(ints, texts) => {
                            assert!(ints.values().chain(texts.values()).all(in_order))
                        }
                    }
                }
                db.create_indexes("t", &["g"], &["id", "name"]).unwrap();
                built.push((workers, seeds, answers(&db, "t")));
                db.drop_spatial_index("t", "g").unwrap();
                db.drop_ordered_index("t", "id").unwrap();
                db.drop_ordered_index("t", "name").unwrap();
            }
            let (_, seeds, answers) = &built[0];
            assert_eq!(answers.len(), 3);
            for (workers, other_seeds, other_answers) in &built[1..] {
                assert!(other_seeds == seeds, "{profile}: seeds differ at workers={workers}");
                assert!(other_answers == answers, "{profile}: indexes differ at workers={workers}");
            }
        }
    }

    /// A tuple whose geometry has type code `mark`, which no geometry
    /// has: its envelope cannot be read.
    fn corrupt(mark: u8) -> Vec<u8> {
        let g = Value::Geom(wkt::parse("POINT (1 2)").unwrap());
        let mut tuple = Value::store_row(&[Value::Int(1), Value::Text("x".into()), g]);
        // Row arity, the integer, the text, the geometry's tag.
        tuple[1 + 2 + 3 + 1] = mark;
        tuple
    }

    /// Appends `tuple` to `t`'s heap as it is, past every check.
    fn append_raw(t: &Table, tuple: &[u8]) {
        t.heap.insert_tuples(tuple, std::slice::from_ref(&(0..tuple.len())), 0).unwrap();
    }

    #[test]
    fn a_failed_split_scan_installs_nothing() {
        let db = SpatialDb::new(EngineProfile::ExactRtree);
        // `last`: one bad tuple, at the end, in the last run. `both`: one
        // in an early run and one in the last; the first in id order is
        // the one reported.
        let last = table_of(&db, "last", MIN_PARALLEL_ROWS + 700);
        append_raw(&last, &corrupt(17));
        let both = table_of(&db, "both", 700);
        append_raw(&both, &corrupt(18));
        db.insert_rows("both", rows(MIN_PARALLEL_ROWS)).unwrap();
        append_raw(&both, &corrupt(19));
        for (table, mark) in [("last", 17), ("both", 18)] {
            let mut errors = Vec::new();
            for workers in [1, 2, 7] {
                db.set_workers(workers);
                let stamp = db.ddl_gen.load(Ordering::SeqCst);
                let err = db.create_indexes(table, &["g"], &["name"]).unwrap_err();
                assert!(
                    err.to_string().contains(&format!("unknown geometry type {mark}")),
                    "{err}"
                );
                let defined = db.table(table).unwrap().index_definitions();
                assert_eq!(defined, (vec![], vec![]), "{table}");
                assert_eq!(db.ddl_gen.load(Ordering::SeqCst), stamp, "{table}: DDL stamp moved");
                errors.push(format!("{err:?}"));
            }
            assert!(errors.iter().all(|e| *e == errors[0]), "{table}: {errors:?}");
        }
        // Nothing is installed unless everything is: a column named twice,
        // or one index of the batch already there.
        let t = table_of(&db, "t", 100);
        assert!(db.create_indexes("t", &["g", "g"], &[]).is_err());
        db.create_spatial_index("t", "g").unwrap();
        let stamp = db.ddl_gen.load(Ordering::SeqCst);
        let before = answers(&db, "t");
        let err = db.create_indexes("t", &["g"], &["name"]).unwrap_err();
        assert!(err.to_string().contains("already exists"), "{err}");
        assert_eq!(t.index_definitions(), (vec![2], vec![]));
        assert_eq!(db.ddl_gen.load(Ordering::SeqCst), stamp);
        assert_eq!(answers(&db, "t"), before);
        drop(t);
    }
}

#[cfg(test)]
mod out_of_core_tests {
    use super::*;
    use crate::EngineProfile;
    use jackpine_geom::wkt;
    use jackpine_sqlmini::ResultSet;
    use jackpine_storage::PAGE_SIZE;
    use std::path::{Path, PathBuf};

    /// Points `from..from + n` on a 50-wide lattice; the ones from 3,000
    /// on sit between the first 3,000, so inserting them splits leaves.
    fn points(from: usize, n: usize) -> Vec<Row> {
        (from..from + n)
            .map(|i| {
                let off = if i >= 3000 { 0.5 } else { 0.0 };
                let (x, y) = ((i % 50) as f64 + off, ((i / 50) % 60) as f64 + off);
                let g = wkt::parse(&format!("POINT ({x} {y})")).unwrap();
                vec![Value::Int(i as i64), Value::Geom(g)]
            })
            .collect()
    }

    /// 3,000 indexed points; pages spill into `spill` when it is given.
    fn engine(spill: Option<&Path>) -> Arc<SpatialDb> {
        let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
        db.execute("CREATE TABLE t (id BIGINT, geom GEOMETRY)").unwrap();
        db.table("t").unwrap().heap.pool().set_spill_dir(spill.map(Path::to_path_buf));
        db.insert_rows("t", points(0, 3000)).unwrap();
        db.create_spatial_index("t", "geom").unwrap();
        db
    }

    fn spill_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("jackpine-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The names of the index leaf files in `dir`.
    fn leaf_files(dir: &Path) -> Vec<String> {
        let names = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().file_name());
        names.map(|n| n.to_string_lossy().into_owned()).filter(|n| n.starts_with("idx-")).collect()
    }

    fn spilled(db: &SpatialDb) -> usize {
        match &db.table("t").unwrap().indexes.read().spatial[&1].idx {
            SpatialIdx::Rtree(tree) => tree.spilled_leaves(),
            SpatialIdx::Grid(_) => unreachable!("an R-tree profile"),
        }
    }

    /// Windows, nearest neighbours and a count.
    fn answers(db: &Arc<SpatialDb>) -> Vec<ResultSet> {
        [
            "SELECT COUNT(*) FROM t",
            "SELECT id FROM t WHERE ST_Intersects(geom, ST_MakeEnvelope(10, 10, 23, 31)) \
             ORDER BY id",
            "SELECT COUNT(*) FROM t WHERE ST_Intersects(geom, ST_MakeEnvelope(-1, -1, 99, 99))",
            "SELECT id FROM t ORDER BY ST_Distance(geom, ST_GeomFromText('POINT (33.3 17.1)')) \
             LIMIT 7",
            "SELECT id FROM t ORDER BY ST_Distance(geom, ST_GeomFromText('POINT (0.2 58.9)')) \
             LIMIT 3",
        ]
        .iter()
        .map(|sql| db.execute(sql).unwrap())
        .collect()
    }

    #[test]
    fn a_respill_after_writes_rewrites_the_tree_and_answers_as_unbounded() {
        let spill = spill_dir("respill");
        let (db, twin) = (engine(Some(&spill)), engine(None));
        db.set_pool_bytes(4 * PAGE_SIZE);
        let leaves = spilled(&db);
        assert!(leaves > 0);
        let first = leaf_files(&spill);
        assert_eq!(first.len(), 1, "four frames: the leaves were written back");
        for d in [&db, &twin] {
            d.insert_rows("t", points(3000, 600)).unwrap();
        }
        assert_eq!(spilled(&db), 0, "the writes faulted every leaf back");
        db.set_pool_bytes(4 * PAGE_SIZE);
        assert!(spilled(&db) > leaves, "the writes split leaves");
        db.clear_caches();
        let second = leaf_files(&spill);
        assert_eq!(second.len(), 1, "one leaf file: {second:?}");
        assert_ne!(first, second, "the previous spill's file is gone");
        assert!(answers(&db) == answers(&twin), "the respilled tree answers otherwise");
        drop(db);
        std::fs::remove_dir_all(&spill).ok();
    }

    #[test]
    fn a_spill_dir_that_is_a_file_fails_close_instead_of_keeping_pages_in_memory() {
        let file = std::env::temp_dir().join(format!("jackpine-file-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").unwrap();
        let db = engine(Some(&file));
        db.set_pool_bytes(4 * PAGE_SIZE);
        assert_eq!(db.pool_stats().evictions, 0, "no page went anywhere");
        let err = db.close().unwrap_err();
        assert!(err.to_string().contains("pool flush"), "{err}");
        drop(db);
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn spilling_twice_loses_no_leaf() {
        let spill = spill_dir("spill-twice");
        let (db, twin) = (engine(Some(&spill)), engine(None));
        db.set_pool_bytes(4 * PAGE_SIZE);
        let leaves = spilled(&db);
        db.set_pool_bytes(4 * PAGE_SIZE);
        assert_eq!(spilled(&db), leaves);
        db.clear_caches();
        assert!(answers(&db) == answers(&twin), "a leaf went missing");
        drop(db);
        std::fs::remove_dir_all(&spill).ok();
    }

    /// Rows whose index key meets a window their geometry misses are
    /// candidates, never answers. Row 3,000 is `POINT (0.1 5.5)`: 0.1 lies
    /// between two float4 values, and its key reaches down to the lower
    /// one, which is the window's east edge, 6e-9 short of the point.
    #[test]
    fn a_key_that_meets_a_window_its_geometry_misses_is_only_a_candidate() {
        let edge = f64::from(0.1f32.next_down());
        assert!(edge < 0.1 && 0.1 - edge < f64::from(f32::EPSILON) * 0.1);
        let sql = format!(
            "SELECT COUNT(*) FROM t WHERE ST_Intersects(geom, ST_MakeEnvelope(-1, 5, {edge}, 6))"
        );
        for profile in [EngineProfile::ExactRtree, EngineProfile::MbrOnly] {
            let db = Arc::new(SpatialDb::new(profile));
            db.execute("CREATE TABLE t (id BIGINT, geom GEOMETRY)").unwrap();
            db.insert_rows("t", points(0, 3000)).unwrap();
            let p = wkt::parse("POINT (0.1 5.5)").unwrap();
            db.insert_rows("t", [vec![Value::Int(3000), Value::Geom(p)]]).unwrap();
            db.create_spatial_index("t", "geom").unwrap();
            db.set_use_spatial_index(false);
            let off = db.execute(&sql).unwrap().rows;
            // (0 5) and (0 6), the lattice points on the window's west edge.
            assert_eq!(off, vec![vec![Value::Int(2)]], "{profile:?}");
            db.set_use_spatial_index(true);
            for bounded in [false, true] {
                if bounded {
                    db.set_pool_bytes(4 * PAGE_SIZE);
                    assert!(spilled(&db) > 0, "{profile:?}: the leaves spilled");
                    db.clear_caches();
                }
                let (on, trace) = db.execute_traced(&sql).unwrap();
                assert_eq!(on.rows, off, "{profile:?}, bounded {bounded}");
                assert_eq!(trace.counter("index_candidates"), 3, "{profile:?}, bounded {bounded}");
            }
        }
    }

    /// Inserts, updates and deletes on a tree whose leaves have spilled
    /// (each write faults them back in) leave a tree that holds exactly
    /// the live rows: every removal found its entry under the rounded key
    /// its insert gave it. The lattice is shifted by a tenth, so no
    /// coordinate is a float4 value.
    #[test]
    fn writes_after_a_spill_remove_exactly_what_they_inserted() {
        let db = engine(None);
        let t = db.table("t").unwrap();
        let mut seen = t.heap.row_ids();
        db.execute("UPDATE t SET geom = ST_Translate(geom, 0.1, 0.3)").unwrap();
        seen.extend(t.heap.row_ids());
        let writes = [
            "DELETE FROM t WHERE id >= 1000 AND id < 1400",
            "UPDATE t SET geom = ST_Translate(geom, 0.7, 0.9) WHERE id >= 2000 AND id < 2300",
            "DELETE FROM t WHERE id >= 3100 AND id < 3150",
        ];
        db.set_pool_bytes(4 * PAGE_SIZE);
        assert!(spilled(&db) > 0);
        db.insert_rows("t", points(3000, 400)).unwrap();
        assert_eq!(spilled(&db), 0, "the insert faulted the leaves back");
        for sql in writes {
            db.set_pool_bytes(4 * PAGE_SIZE);
            assert!(spilled(&db) > 0);
            seen.extend(t.heap.row_ids());
            db.execute(sql).unwrap();
            seen.extend(t.heap.row_ids());
        }
        // The next write vacuums: every dead version leaves the index.
        db.insert_rows("t", points(3400, 1)).unwrap();
        let mut live = t.heap.row_ids();
        live.sort_unstable();
        assert_eq!(live.len(), 3401 - 400 - 50);
        let everything = Envelope::new(-1e9, -1e9, 1e9, 1e9);
        let (mut probed, _) = t.indexes.read().spatial[&1].idx.window_probe(&everything);
        probed.sort_unstable();
        assert_eq!(probed, live, "one entry a live row");
        let dead: Vec<RowId> =
            seen.into_iter().filter(|id| live.binary_search(id).is_err()).collect();
        assert!(dead.len() >= 3000 + 400 + 300 + 50, "{} dead versions", dead.len());
    }

    #[test]
    fn a_bulk_loaded_tree_packs_eight_leaves_or_more_a_page() {
        let db = engine(None);
        let before = db.pool_stats();
        db.set_pool_bytes(1 << 30);
        let after = db.pool_stats();
        assert_eq!(after.evictions, before.evictions, "everything fits");
        let (leaves, pages) = (spilled(&db), after.resident_frames - before.resident_frames);
        assert!(leaves >= 3000 / 16, "{leaves} leaves");
        assert!(pages as usize <= leaves.div_ceil(8), "{leaves} leaves on {pages} pages");
    }
}

//! The `SpatialDb` facade: one engine profile over a registry of tables
//! ([`crate::catalog`]), and the state every statement shares.
//!
//! The engine's seams live beside it, each an `impl SpatialDb` of its
//! own: DDL and the indexes ([`crate::indexes`]), the statement
//! path ([`crate::statement`]), the write transaction ([`crate::txn`]),
//! durability ([`crate::durable`]) over the snapshot format
//! ([`crate::persist`]), and introspection ([`crate::syscat`]).

use crate::catalog::{Table, Tables};
use crate::durable::DurabilityState;
use crate::statement::{Sessions, StatementCache};
use crate::syscat::Introspection;
use crate::txn::{SnapshotGuard, Transactions};
use crate::EngineProfile;
use jackpine_obs::EngineMetrics;
use jackpine_sqlmini::SqlError;
use jackpine_storage::sync::RwLock;
use jackpine_storage::{BufferPool, PoolStats, StorageError};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Errors surfaced by [`SpatialDb`].
#[derive(Clone, Debug, PartialEq)]
pub enum EngineError {
    /// SQL front-end error.
    Sql(SqlError),
    /// Storage error.
    Storage(StorageError),
    /// Index management error (bad column, wrong type, duplicate index).
    Index(String),
    /// Persistence error: snapshot/WAL I/O failure or on-disk corruption
    /// (bad magic, checksum mismatch, truncated file). Distinct from
    /// [`EngineError::Index`] so callers can tell storage failures from
    /// index failures.
    Persist(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Sql(e) => write!(f, "{e}"),
            EngineError::Storage(e) => write!(f, "{e}"),
            EngineError::Index(m) => write!(f, "index error: {m}"),
            EngineError::Persist(m) => write!(f, "persistence error: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<SqlError> for EngineError {
    fn from(e: SqlError) -> Self {
        EngineError::Sql(e)
    }
}
impl From<StorageError> for EngineError {
    fn from(e: StorageError) -> Self {
        EngineError::Storage(e)
    }
}

/// An embedded spatial database instance under one [`EngineProfile`].
pub struct SpatialDb {
    profile: EngineProfile,
    pub(crate) tables: Tables,
    /// Every heap page and spilled R-tree leaf, under one budget.
    pub(crate) pool: Arc<BufferPool>,
    pub(crate) use_spatial_index: RwLock<bool>,
    /// Raw statement text → fingerprint, normalized shape and, for a
    /// SELECT, its plan stamped with the DDL generation it was planned
    /// under (see [`crate::statement`]). Consulted before parsing. DML
    /// never clears it; a DDL change lazily stales every plan.
    pub(crate) statements: StatementCache,
    /// Intra-query worker threads for the morsel executor and parallel
    /// index builds. Defaults to the machine's available parallelism;
    /// `1` means fully serial execution.
    workers: AtomicUsize,
    /// Crash-safe durability (snapshot + WAL), when attached. Taken
    /// before any other lock (see [`crate::durable`]).
    pub(crate) durability: RwLock<Option<DurabilityState>>,
    /// Engine-wide observability registry: every counter and stage
    /// histogram this instance records into, shared with the executor,
    /// the WAL, and the provider adapters.
    pub(crate) metrics: Arc<EngineMetrics>,
    /// Where completed statements are recorded: flight recorder,
    /// slow-query log, fingerprint stats.
    pub(crate) introspection: Introspection,
    /// Commit generation, writer lock, snapshot registry, reclaim queue
    /// and group commit: everything a write transaction goes through.
    pub(crate) txn: Arc<Transactions>,
    /// Bumped by every DDL change (create/drop table or index, planner
    /// toggles); stamps cached plans.
    pub(crate) ddl_gen: AtomicU64,
    /// In-flight statements — the rows of `jp_sessions`.
    pub(crate) sessions: Sessions,
}

impl SpatialDb {
    /// Creates an empty database under the given profile.
    pub fn new(profile: EngineProfile) -> SpatialDb {
        let metrics = Arc::new(EngineMetrics::new());
        SpatialDb {
            profile,
            tables: Tables::default(),
            pool: Arc::new(BufferPool::new()),
            use_spatial_index: RwLock::new(true),
            statements: StatementCache::default(),
            workers: AtomicUsize::new(default_workers()),
            durability: RwLock::default(),
            txn: Arc::new(Transactions::new(metrics.clone())),
            metrics,
            introspection: Introspection::default(),
            ddl_gen: AtomicU64::new(0),
            sessions: Sessions::default(),
        }
    }

    /// Sets the intra-query worker count. `0` restores the default
    /// (available parallelism); `1` forces serial execution. Results are
    /// bit-identical at any setting — only wall-clock changes.
    pub fn set_workers(&self, workers: usize) {
        let w = if workers == 0 { default_workers() } else { workers };
        self.workers.store(w, Ordering::Relaxed);
    }

    /// The current intra-query worker count.
    pub fn workers(&self) -> usize {
        self.workers.load(Ordering::Relaxed)
    }

    /// The engine profile.
    pub fn profile(&self) -> EngineProfile {
        self.profile
    }

    /// Enables or disables spatial-index use by the planner (the F5
    /// indexing experiment's switch). Invalidates cached plans by
    /// advancing the DDL generation their stamps are checked against.
    pub fn set_use_spatial_index(&self, on: bool) {
        *self.use_spatial_index.write() = on;
        self.bump_ddl_gen();
    }

    /// Advances the DDL generation, lazily invalidating every cached
    /// plan stamped under an older one.
    pub(crate) fn bump_ddl_gen(&self) {
        self.ddl_gen.fetch_add(1, Ordering::SeqCst);
    }

    /// The newest commit generation: a hook for `durability.rs`, `interleaving.rs`.
    pub fn commit_generation(&self) -> u64 {
        self.txn.generation()
    }

    /// Currently pinned reader snapshots: a hook for `tests/interleaving.rs`.
    pub fn active_snapshot_count(&self) -> usize {
        self.txn.snapshot_pins().iter().map(|(_, readers, _)| readers).sum()
    }

    /// Logically-deleted rows awaiting physical reclaim (diagnostics and
    /// tests).
    pub fn pending_reclaim_len(&self) -> usize {
        self.txn.pending_reclaim_len()
    }

    /// Pins the current commit generation for one statement; vacuum
    /// never reclaims a row any live handle can still see. Readers never
    /// take the writer lock — pinning is one short mutex on the refcount
    /// map.
    pub fn pin_snapshot_handle(self: &Arc<Self>) -> Arc<SnapshotGuard> {
        self.txn.pin()
    }

    /// A point-in-time copy of the buffer pool's counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// The table named `name` (for loaders and tests).
    pub fn table(&self, name: &str) -> crate::Result<Arc<Table>> {
        Ok(self.tables.get(name)?)
    }

    /// Names of all tables, sorted: a hook for `tests/durability.rs`.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.all().iter().map(|t| t.name.clone()).collect()
    }
}

/// Default intra-query worker count: the machine's available parallelism.
fn default_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jackpine_storage::Value;

    fn db(profile: EngineProfile) -> Arc<SpatialDb> {
        let db = Arc::new(SpatialDb::new(profile));
        db.execute("CREATE TABLE parcels (id BIGINT, name TEXT, geom GEOMETRY)").unwrap();
        for (id, name, wkt) in [
            (1, "a", "POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))"),
            (2, "b", "POLYGON ((1 1, 3 1, 3 3, 1 3, 1 1))"),
            (3, "c", "POLYGON ((10 10, 12 10, 12 12, 10 12, 10 10))"),
            (4, "d", "POLYGON ((2 0, 4 0, 4 2, 2 2, 2 0))"),
        ] {
            db.execute(&format!(
                "INSERT INTO parcels VALUES ({id}, '{name}', ST_GeomFromText('{wkt}'))"
            ))
            .unwrap();
        }
        db
    }

    #[test]
    fn end_to_end_select() {
        let db = db(EngineProfile::ExactRtree);
        let r = db.execute("SELECT id, name FROM parcels WHERE id > 2 ORDER BY id").unwrap();
        assert_eq!(r.columns, vec!["id", "name"]);
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][0], Value::Int(3));
    }

    #[test]
    fn spatial_predicate_with_index() {
        let db = db(EngineProfile::ExactRtree);
        db.create_spatial_index("parcels", "geom").unwrap();
        let r = db
            .execute(
                "SELECT COUNT(*) FROM parcels WHERE ST_Intersects(geom, \
                 ST_GeomFromText('POLYGON ((0.5 0.5, 1.5 0.5, 1.5 1.5, 0.5 1.5, 0.5 0.5))'))",
            )
            .unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(2))); // parcels 1 and 2
    }

    #[test]
    fn index_and_scan_agree() {
        for profile in [EngineProfile::ExactRtree, EngineProfile::ExactGrid] {
            let db = db(profile);
            db.create_spatial_index("parcels", "geom").unwrap();
            let sql = "SELECT COUNT(*) FROM parcels WHERE ST_Overlaps(geom, \
                       ST_GeomFromText('POLYGON ((1 1, 3 1, 3 3, 1 3, 1 1))'))";
            let with = db.execute(sql).unwrap();
            db.set_use_spatial_index(false);
            let without = db.execute(sql).unwrap();
            assert_eq!(with, without, "profile {profile}");
        }
    }

    #[test]
    fn spatial_join_between_tables() {
        let db = db(EngineProfile::ExactRtree);
        db.execute("CREATE TABLE probes (pid BIGINT, geom GEOMETRY)").unwrap();
        db.execute("INSERT INTO probes VALUES (100, ST_GeomFromText('POINT (1.5 1.5)'))").unwrap();
        db.create_spatial_index("parcels", "geom").unwrap();
        let r = db
            .execute(
                "SELECT p.id FROM probes q JOIN parcels p ON ST_Contains(p.geom, q.geom) \
                 ORDER BY p.id",
            )
            .unwrap();
        let ids: Vec<&Value> = r.rows.iter().map(|r| &r[0]).collect();
        assert_eq!(ids, vec![&Value::Int(1), &Value::Int(2)]);
    }

    #[test]
    fn mbr_profile_differs_on_refinement() {
        // A thin diagonal line whose MBR covers a small parcel it misses.
        let exact = db(EngineProfile::ExactRtree);
        let mbr = db(EngineProfile::MbrOnly);
        for d in [&exact, &mbr] {
            d.execute("CREATE TABLE lines (id BIGINT, geom GEOMETRY)").unwrap();
            d.execute("INSERT INTO lines VALUES (1, ST_GeomFromText('LINESTRING (0 4, 4 8)'))")
                .unwrap();
        }
        let sql = "SELECT COUNT(*) FROM lines l, parcels p \
                   WHERE ST_Intersects(l.geom, p.geom) AND p.id = 2";
        // Line 2 slips past parcel 2's (1,1) corner: its MBR (0,0)-(1.5,1.5)
        // overlaps the parcel's MBR, but the segment x+y = 1.5 never reaches
        // the square (which needs x+y ≥ 2).
        for d in [&exact, &mbr] {
            d.execute("INSERT INTO lines VALUES (2, ST_GeomFromText('LINESTRING (0 1.5, 1.5 0)'))")
                .unwrap();
        }
        let e = exact.execute(sql).unwrap();
        let m = mbr.execute(sql).unwrap();
        let ev = e.scalar().unwrap().as_i64().unwrap();
        let mv = m.scalar().unwrap().as_i64().unwrap();
        assert_eq!(ev, 0, "exact semantics reject the MBR-only false positive");
        assert_eq!(mv, 1, "MBR semantics accept the false positive");
    }

    #[test]
    fn ordered_index_lookup() {
        let db = db(EngineProfile::ExactRtree);
        db.create_ordered_index("parcels", "name").unwrap();
        let r = db.execute("SELECT id FROM parcels WHERE name = 'b'").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn knn_via_order_by_distance() {
        let db = db(EngineProfile::ExactRtree);
        db.create_spatial_index("parcels", "geom").unwrap();
        let r = db
            .execute(
                "SELECT id FROM parcels \
                 ORDER BY ST_Distance(geom, ST_GeomFromText('POINT (11 11)')) LIMIT 2",
            )
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(3)); // the far parcel is nearest to (11,11)
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn unsupported_feature_error_in_mbr_profile() {
        let db = db(EngineProfile::MbrOnly);
        let err = db.execute("SELECT ST_Buffer(geom, 1.0) FROM parcels");
        assert!(matches!(err, Err(EngineError::Sql(SqlError::UnsupportedFeature(_)))));
    }

    #[test]
    fn errors_surface() {
        let db = db(EngineProfile::ExactRtree);
        assert!(db.execute("SELECT * FROM nonexistent").is_err());
        assert!(db.execute("SELECT nocolumn FROM parcels").is_err());
        assert!(db.create_spatial_index("parcels", "name").is_err());
        assert!(db.create_ordered_index("parcels", "geom").is_err());
        db.create_spatial_index("parcels", "geom").unwrap();
        assert!(db.create_spatial_index("parcels", "geom").is_err()); // duplicate
    }

    #[test]
    fn insert_maintains_indexes() {
        let db = db(EngineProfile::ExactRtree);
        db.create_spatial_index("parcels", "geom").unwrap();
        db.execute(
            "INSERT INTO parcels VALUES (5, 'e', \
             ST_GeomFromText('POLYGON ((0.2 0.2, 0.8 0.2, 0.8 0.8, 0.2 0.8, 0.2 0.2))'))",
        )
        .unwrap();
        let r = db
            .execute(
                "SELECT COUNT(*) FROM parcels WHERE ST_Within(geom, \
                 ST_GeomFromText('POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))'))",
            )
            .unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(1)));
    }

    #[test]
    fn cold_cache_still_correct() {
        let db = db(EngineProfile::ExactRtree);
        db.clear_caches();
        let r = db.execute("SELECT COUNT(*) FROM parcels").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(4)));
        let stats = db.table("parcels").unwrap().heap.stats();
        assert!(stats.cache_misses > 0, "cold run must decode rows");
    }
}

#[cfg(test)]
mod dml_tests {
    use super::*;
    use jackpine_storage::Value;

    fn db_with_rows(profile: EngineProfile) -> Arc<SpatialDb> {
        let db = Arc::new(SpatialDb::new(profile));
        db.execute("CREATE TABLE pts (id BIGINT, name TEXT, geom GEOMETRY)").unwrap();
        for i in 0..20 {
            db.execute(&format!(
                "INSERT INTO pts VALUES ({i}, 'p{i}', ST_GeomFromText('POINT ({i} {i})'))"
            ))
            .unwrap();
        }
        db.create_spatial_index("pts", "geom").unwrap();
        db.create_ordered_index("pts", "name").unwrap();
        db
    }

    #[test]
    fn delete_with_scalar_filter() {
        let db = db_with_rows(EngineProfile::ExactRtree);
        let r = db.execute("DELETE FROM pts WHERE id >= 15").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(5)));
        // The SURVIVORS must be exactly ids 0..14 (guards against
        // deleting the complement).
        let r = db.execute("SELECT MIN(id), MAX(id), COUNT(*) FROM pts").unwrap();
        assert_eq!(r.rows[0], vec![Value::Int(0), Value::Int(14), Value::Int(15)]);
        // Idempotent second delete.
        let r = db.execute("DELETE FROM pts WHERE id >= 15").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(0)));
    }

    #[test]
    fn delete_maintains_spatial_index_on_both_index_kinds() {
        for profile in [EngineProfile::ExactRtree, EngineProfile::ExactGrid] {
            let db = db_with_rows(profile);
            db.execute("DELETE FROM pts WHERE ST_Within(geom, ST_MakeEnvelope(-1, -1, 4.5, 4.5))")
                .unwrap();
            // The spatial-index path must see the deletions: points 0–4
            // are gone, 5–19 remain.
            let r = db
                .execute(
                    "SELECT MIN(id), COUNT(*) FROM pts WHERE ST_Within(geom, \
                     ST_MakeEnvelope(-1, -1, 25, 25))",
                )
                .unwrap();
            assert_eq!(r.rows[0], vec![Value::Int(5), Value::Int(15)], "profile {profile}");
        }
    }

    #[test]
    fn delete_maintains_ordered_index() {
        let db = db_with_rows(EngineProfile::ExactRtree);
        db.execute("DELETE FROM pts WHERE name = 'p5'").unwrap();
        let r = db.execute("SELECT COUNT(*) FROM pts WHERE name = 'p5'").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(0)));
        let r = db.execute("SELECT COUNT(*) FROM pts WHERE name = 'p6'").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(1)));
    }

    #[test]
    fn delete_without_where_empties_table() {
        let db = db_with_rows(EngineProfile::ExactRtree);
        let r = db.execute("DELETE FROM pts").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(20)));
        assert_eq!(db.execute("SELECT COUNT(*) FROM pts").unwrap().scalar(), Some(&Value::Int(0)));
    }

    #[test]
    fn explain_shows_access_paths() {
        let db = db_with_rows(EngineProfile::ExactRtree);
        let r = db
            .execute(
                "EXPLAIN SELECT COUNT(*) FROM pts WHERE ST_Within(geom, \
                 ST_MakeEnvelope(0, 0, 5, 5))",
            )
            .unwrap();
        let plan: String = r.rows.iter().map(|row| row[0].to_string() + "\n").collect();
        assert!(plan.contains("SpatialIndexScan"), "plan was:\n{plan}");
        assert!(plan.contains("Aggregate"), "plan was:\n{plan}");

        db.set_use_spatial_index(false);
        let r = db
            .execute(
                "EXPLAIN SELECT COUNT(*) FROM pts WHERE ST_Within(geom, \
                 ST_MakeEnvelope(0, 0, 5, 5))",
            )
            .unwrap();
        let plan: String = r.rows.iter().map(|row| row[0].to_string() + "\n").collect();
        assert!(plan.contains("SeqScan"), "plan was:\n{plan}");

        // Ordered index path.
        db.set_use_spatial_index(true);
        let r = db.execute("EXPLAIN SELECT id FROM pts WHERE name = 'p3'").unwrap();
        let plan: String = r.rows.iter().map(|row| row[0].to_string() + "\n").collect();
        assert!(plan.contains("OrderedIndexScan"), "plan was:\n{plan}");

        // kNN path.
        let r = db
            .execute(
                "EXPLAIN SELECT id FROM pts \
                 ORDER BY ST_Distance(geom, ST_GeomFromText('POINT (3 3)')) LIMIT 2",
            )
            .unwrap();
        let plan: String = r.rows.iter().map(|row| row[0].to_string() + "\n").collect();
        assert!(plan.contains("KnnScan"), "plan was:\n{plan}");
    }

    #[test]
    fn explain_non_select_rejected() {
        let db = db_with_rows(EngineProfile::ExactRtree);
        assert!(db.execute("EXPLAIN DELETE FROM pts").is_err());
    }
}

#[cfg(test)]
mod group_by_tests {
    use super::*;
    use jackpine_storage::Value;

    fn db() -> Arc<SpatialDb> {
        let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
        db.execute("CREATE TABLE sales (region TEXT, amount BIGINT)").unwrap();
        for (r, a) in
            [("north", 10), ("south", 5), ("north", 20), ("east", 7), ("south", 15), ("north", 1)]
        {
            db.execute(&format!("INSERT INTO sales VALUES ('{r}', {a})")).unwrap();
        }
        db
    }

    #[test]
    fn group_by_with_aggregates() {
        let db = db();
        let r = db
            .execute(
                "SELECT region, COUNT(*), SUM(amount) FROM sales \
                 GROUP BY region ORDER BY 1",
            )
            .unwrap();
        assert_eq!(r.columns, vec!["region", "count", "sum"]);
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Text("east".into()), Value::Int(1), Value::Float(7.0)],
                vec![Value::Text("north".into()), Value::Int(3), Value::Float(31.0)],
                vec![Value::Text("south".into()), Value::Int(2), Value::Float(20.0)],
            ]
        );
    }

    #[test]
    fn group_by_spatial_measure() {
        let db = db();
        db.execute("CREATE TABLE lots (county TEXT, geom GEOMETRY)").unwrap();
        for (c, wkt) in [
            ("a", "POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))"),
            ("a", "POLYGON ((5 5, 6 5, 6 6, 5 6, 5 5))"),
            ("b", "POLYGON ((0 0, 3 0, 3 3, 0 3, 0 0))"),
        ] {
            db.execute(&format!("INSERT INTO lots VALUES ('{c}', ST_GeomFromText('{wkt}'))"))
                .unwrap();
        }
        let r = db
            .execute("SELECT county, SUM(ST_Area(geom)) FROM lots GROUP BY county ORDER BY 1")
            .unwrap();
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Text("a".into()), Value::Float(5.0)],
                vec![Value::Text("b".into()), Value::Float(9.0)],
            ]
        );
    }

    #[test]
    fn non_grouped_column_rejected() {
        let db = db();
        let err = db.execute("SELECT region, amount FROM sales GROUP BY region");
        assert!(err.is_err());
    }

    #[test]
    fn group_by_without_aggregates_is_distinct() {
        let db = db();
        let r = db.execute("SELECT region FROM sales GROUP BY region ORDER BY 1").unwrap();
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.rows[0][0], Value::Text("east".into()));
    }
}

#[cfg(test)]
mod update_tests {
    use super::*;
    use jackpine_storage::Value;

    fn db() -> Arc<SpatialDb> {
        let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
        db.execute("CREATE TABLE pois (id BIGINT, name TEXT, geom GEOMETRY)").unwrap();
        for i in 0..10 {
            db.execute(&format!(
                "INSERT INTO pois VALUES ({i}, 'poi{i}', ST_GeomFromText('POINT ({i} 0)'))"
            ))
            .unwrap();
        }
        db.create_spatial_index("pois", "geom").unwrap();
        db.create_ordered_index("pois", "name").unwrap();
        db
    }

    #[test]
    fn update_scalar_column() {
        let db = db();
        let r = db.execute("UPDATE pois SET name = 'renamed' WHERE id < 3").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(3)));
        let r = db.execute("SELECT COUNT(*) FROM pois WHERE name = 'renamed'").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(3)));
        // Old names gone from the ordered index.
        let r = db.execute("SELECT COUNT(*) FROM pois WHERE name = 'poi1'").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(0)));
    }

    #[test]
    fn update_geometry_maintains_spatial_index() {
        let db = db();
        // Move point 5 far away.
        db.execute("UPDATE pois SET geom = ST_GeomFromText('POINT (100 100)') WHERE id = 5")
            .unwrap();
        let near = db
            .execute(
                "SELECT COUNT(*) FROM pois WHERE ST_DWithin(geom, \
                 ST_GeomFromText('POINT (5 0)'), 0.5)",
            )
            .unwrap();
        assert_eq!(near.scalar(), Some(&Value::Int(0)), "old location still indexed");
        let far = db
            .execute(
                "SELECT COUNT(*) FROM pois WHERE ST_DWithin(geom, \
                 ST_GeomFromText('POINT (100 100)'), 0.5)",
            )
            .unwrap();
        assert_eq!(far.scalar(), Some(&Value::Int(1)), "new location not indexed");
    }

    #[test]
    fn update_rhs_references_old_row() {
        let db = db();
        db.execute("UPDATE pois SET id = id + 100").unwrap();
        let r = db.execute("SELECT MIN(id), MAX(id) FROM pois").unwrap();
        assert_eq!(r.rows[0], vec![Value::Int(100), Value::Int(109)]);
    }

    #[test]
    fn update_with_affine_function() {
        let db = db();
        db.execute("UPDATE pois SET geom = ST_Translate(geom, 0, 10) WHERE id = 2").unwrap();
        let r = db.execute("SELECT ST_AsText(geom) FROM pois WHERE id = 2").unwrap();
        assert_eq!(r.rows[0][0], Value::Text("POINT (2 10)".into()));
    }

    #[test]
    fn update_type_mismatch_rejected() {
        let db = db();
        assert!(db.execute("UPDATE pois SET id = 'not a number'").is_err());
        assert!(db.execute("UPDATE pois SET missing = 1").is_err());
    }
}

#[cfg(test)]
mod vectorized_tests {
    use super::*;

    fn db_with_polys() -> Arc<SpatialDb> {
        let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
        db.execute("CREATE TABLE lots (id BIGINT, geom GEOMETRY)").unwrap();
        for i in 0..12 {
            let x0 = i as f64;
            let x1 = x0 + 1.5;
            db.execute(&format!(
                "INSERT INTO lots VALUES ({i}, ST_GeomFromText('POLYGON (({x0} 0, {x1} 0, \
                 {x1} 1, {x0} 1, {x0} 0))'))"
            ))
            .unwrap();
        }
        db.create_spatial_index("lots", "geom").unwrap();
        db.set_workers(1);
        db
    }

    #[test]
    fn vectorized_filter_populates_batch_counters() {
        let db = db_with_polys();
        let before = db.metrics_snapshot();
        db.execute("SELECT COUNT(*) FROM lots a, lots b WHERE ST_Disjoint(a.geom, b.geom)")
            .unwrap();
        let delta = db.metrics_snapshot().delta_since(&before);
        assert!(delta.counter("batches_dispatched") > 0, "vectorized path must run");
        assert!(delta.counter("prefilter_rejects") > 0, "disjoint pairs decided by MBR");
        assert_eq!(
            delta.counter("prefilter_rejects") + delta.counter("selvec_survivors"),
            delta.counter("refine_candidates"),
            "every candidate is either MBR-decided or refined"
        );
    }
}

#[cfg(test)]
mod out_of_core_tests {
    use super::*;
    use jackpine_storage::Value;

    fn files_in(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
        std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()).collect()
    }

    #[test]
    fn drop_table_releases_its_frames_and_spill_file() {
        let spill = std::env::temp_dir().join(format!("jackpine-drop-{}", std::process::id()));
        std::fs::remove_dir_all(&spill).ok();
        std::fs::create_dir_all(&spill).unwrap();
        let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
        db.execute("CREATE TABLE gone (id BIGINT, pad TEXT)").unwrap();
        db.execute("CREATE TABLE kept (id BIGINT, pad TEXT)").unwrap();
        db.table("kept").unwrap().heap.pool().set_spill_dir(Some(spill.clone()));
        db.set_pool_bytes(2 * jackpine_storage::PAGE_SIZE);
        let pad = "x".repeat(900);
        for i in 0..40 {
            db.execute(&format!("INSERT INTO gone VALUES ({i}, '{pad}')")).unwrap();
            db.execute(&format!("INSERT INTO kept VALUES ({i}, '{pad}')")).unwrap();
        }
        assert_eq!(files_in(&spill).len(), 2, "two frames: both heaps spilled");
        db.set_pool_bytes(0);
        // Everything resident and decoded again, and a cached plan on
        // the table about to go.
        for table in ["gone", "kept"] {
            let all = format!("SELECT COUNT(*) FROM {table} WHERE id >= 0");
            assert_eq!(db.execute(&all).unwrap().scalar(), Some(&Value::Int(40)));
        }
        let pages = |table: &str| u64::from(db.table(table).unwrap().heap.page_count());
        let (gone, kept) = (pages("gone"), pages("kept"));
        let before = db.pool_stats();
        assert_eq!((before.resident_frames, before.decoded_rows), (gone + kept, 80));

        db.execute("DROP TABLE gone").unwrap();
        let after = db.pool_stats();
        assert_eq!((after.resident_frames, after.decoded_rows), (kept, 40), "only kept's remain");
        assert_eq!(files_in(&spill).len(), 1, "the dropped heap's spill file went with it");
        let all = "SELECT COUNT(*) FROM kept WHERE id >= 0";
        assert_eq!(db.execute(all).unwrap().scalar(), Some(&Value::Int(40)));
        drop(db);
        std::fs::remove_dir_all(&spill).ok();
    }

    /// A death queued in a table, then the table dropped: its frames and
    /// spill files (heap and R-tree leaves) go at the drop, not when the
    /// queue is next drained.
    #[test]
    fn a_drop_beside_a_queued_death_frees_the_table_at_once() {
        let spill = std::env::temp_dir().join(format!("jackpine-drop-q-{}", std::process::id()));
        std::fs::remove_dir_all(&spill).ok();
        std::fs::create_dir_all(&spill).unwrap();
        let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
        db.execute("CREATE TABLE gone (id BIGINT, pad TEXT, geom GEOMETRY)").unwrap();
        db.execute("CREATE TABLE kept (id BIGINT, pad TEXT)").unwrap();
        db.table("kept").unwrap().heap.pool().set_spill_dir(Some(spill.clone()));
        db.set_pool_bytes(2 * jackpine_storage::PAGE_SIZE);
        let pad = "x".repeat(900);
        for i in 0..40 {
            let point = format!("ST_GeomFromText('POINT ({i} {i})')");
            db.execute(&format!("INSERT INTO gone VALUES ({i}, '{pad}', {point})")).unwrap();
            db.execute(&format!("INSERT INTO kept VALUES ({i}, '{pad}')")).unwrap();
        }
        db.create_spatial_index("gone", "geom").unwrap();
        db.clear_caches();
        let names = || {
            let mut names: Vec<String> = files_in(&spill)
                .iter()
                .map(|p| p.file_name().unwrap().to_string_lossy().split('-').next().unwrap().into())
                .collect();
            names.sort();
            names
        };
        assert_eq!(names(), ["heap", "heap", "idx"], "both heaps and gone's leaves spilled");
        db.set_pool_bytes(0);
        for table in ["gone", "kept"] {
            let all = format!("SELECT COUNT(*) FROM {table} WHERE id >= 0");
            assert_eq!(db.execute(&all).unwrap().scalar(), Some(&Value::Int(40)));
        }
        let kept = u64::from(db.table("kept").unwrap().heap.page_count());

        let pin = db.pin_snapshot_handle();
        db.execute("DELETE FROM gone WHERE id = 0").unwrap();
        db.execute("DROP TABLE gone").unwrap();
        assert_eq!(db.pending_reclaim_len(), 1, "the death is still queued");
        let after = db.pool_stats();
        assert_eq!((after.resident_frames, after.decoded_rows), (kept, 40), "only kept's remain");
        assert_eq!(names(), ["heap"], "the dropped table's spill files went with it");
        drop(pin);
        db.execute("INSERT INTO kept VALUES (40, 'y')").unwrap();
        assert_eq!(db.pending_reclaim_len(), 0, "the dropped table's death went too");
        drop(db);
        std::fs::remove_dir_all(&spill).ok();
    }

    /// Forty 900-byte rows with a spatial index behind a two-frame pool
    /// that spills into the returned directory.
    fn spilled_db(name: &str) -> (Arc<SpatialDb>, std::path::PathBuf) {
        let spill = std::env::temp_dir().join(format!("jackpine-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&spill).ok();
        std::fs::create_dir_all(&spill).unwrap();
        let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
        db.execute("CREATE TABLE g (id BIGINT, pad TEXT, geom GEOMETRY)").unwrap();
        db.table("g").unwrap().heap.pool().set_spill_dir(Some(spill.clone()));
        db.set_pool_bytes(2 * jackpine_storage::PAGE_SIZE);
        let pad = "x".repeat(900);
        for i in 0..40 {
            db.execute(&format!(
                "INSERT INTO g VALUES ({i}, '{pad}', ST_GeomFromText('POINT ({i} {i})'))"
            ))
            .unwrap();
        }
        db.create_spatial_index("g", "geom").unwrap();
        (db, spill)
    }

    /// Every page written back and dropped; then the heap's file loses
    /// its second half. The index leaves' file is left alone.
    fn lose_half_the_heap(db: &SpatialDb, spill: &std::path::Path) {
        db.clear_caches();
        let heap_file = files_in(spill)
            .into_iter()
            .find(|p| p.file_name().unwrap().to_string_lossy().starts_with("heap-"))
            .expect("the heap spilled");
        let len = std::fs::metadata(&heap_file).unwrap().len();
        std::fs::OpenOptions::new().write(true).open(&heap_file).unwrap().set_len(len / 2).unwrap();
    }

    #[test]
    fn a_truncated_spill_file_is_an_error_not_fewer_rows() {
        let (db, spill) = spilled_db("trunc");
        let window = "SELECT COUNT(*) FROM g WHERE ST_Intersects(geom, \
                      ST_MakeEnvelope(0, 0, 100, 100))";
        assert_eq!(db.execute(window).unwrap().scalar(), Some(&Value::Int(40)));
        lose_half_the_heap(&db, &spill);
        let err = db.execute(window).expect_err("half the rows cannot be read back");
        assert!(err.to_string().contains("cannot be read back"), "unexpected error: {err}");
        drop(db);
        std::fs::remove_dir_all(&spill).ok();
    }

    #[test]
    fn a_vacuum_that_cannot_read_a_dead_row_says_so_and_keeps_it_queued() {
        // The dead row's index entries can only be found through the row.
        // Unreadable is not gone: reclaiming the slot anyway would leave
        // the entries behind with nothing to say so.
        let (db, spill) = spilled_db("trunc-vacuum");
        let pin = db.pin_snapshot_handle();
        db.execute("DELETE FROM g WHERE id = 39").unwrap();
        drop(pin);
        assert_eq!(db.pending_reclaim_len(), 1);
        lose_half_the_heap(&db, &spill);
        let unreadable = |what: &str, result: crate::Result<()>| match result {
            Err(EngineError::Storage(StorageError::Corrupt(m))) => {
                assert!(m.contains("cannot be read back"), "{what}: {m}")
            }
            other => panic!("{what}: expected a storage error, got {other:?}"),
        };
        let insert = "INSERT INTO g VALUES (40, 'y', ST_GeomFromText('POINT (1 1)'))";
        unreadable("INSERT", db.execute(insert).map(drop));
        unreadable("insert_row", db.insert_row("g", vec![Value::Null; 3]).map(drop));
        unreadable("close", db.close());
        assert_eq!(db.pending_reclaim_len(), 1, "the death is still queued");
        assert_eq!(db.commit_generation(), 41, "nothing was applied behind the failed vacuum");
        drop(db);
        std::fs::remove_dir_all(&spill).ok();
    }
}

#[cfg(test)]
mod drop_table_tests {
    use super::*;
    use jackpine_storage::Value;

    #[test]
    fn drop_removes_table_and_invalidates_plans() {
        let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
        db.execute("CREATE TABLE t (id BIGINT)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        db.execute("SELECT COUNT(*) FROM t").unwrap(); // cache a plan
        db.execute("DROP TABLE t").unwrap();
        assert!(db.execute("SELECT COUNT(*) FROM t").is_err());
        assert!(db.execute("DROP TABLE t").is_err()); // already gone
                                                      // The name is reusable with a different schema.
        db.execute("CREATE TABLE t (name TEXT)").unwrap();
        db.execute("INSERT INTO t VALUES ('x')").unwrap();
        let r = db.execute("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(1)));
    }

    /// A death queued in the table that was dropped is not reclaimed in
    /// the table created under its name, at the same row id.
    #[test]
    fn a_drop_and_recreate_keeps_the_new_tables_rows() {
        for profile in [EngineProfile::ExactRtree, EngineProfile::ExactGrid] {
            let db = Arc::new(SpatialDb::new(profile));
            let create = "CREATE TABLE t (id BIGINT, geom GEOMETRY)";
            let insert =
                |id: i64| format!("INSERT INTO t VALUES ({id}, ST_GeomFromText('POINT ({id} 0)'))");
            db.execute(create).unwrap();
            db.create_spatial_index("t", "geom").unwrap();
            db.execute(&insert(1)).unwrap();
            let pin = db.pin_snapshot_handle();
            db.execute("DELETE FROM t WHERE id = 1").unwrap();
            db.execute("DROP TABLE t").unwrap();
            db.execute(create).unwrap();
            db.create_spatial_index("t", "geom").unwrap();
            db.execute(&insert(2)).unwrap();
            db.execute(&insert(3)).unwrap();
            drop(pin);
            // This write's vacuum meets the death queued before the drop.
            db.execute(&insert(4)).unwrap();
            assert_eq!(db.pending_reclaim_len(), 0, "{profile}");
            for sql in [
                "SELECT COUNT(*) FROM t",
                "SELECT COUNT(*) FROM t WHERE ST_Intersects(geom, ST_MakeEnvelope(0, -1, 9, 1))",
            ] {
                assert_eq!(db.execute(sql).unwrap().scalar(), Some(&Value::Int(3)), "{profile}");
            }
        }
    }
}

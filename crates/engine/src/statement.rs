//! The statement path: SQL text in, result set out, recorded.
//!
//! A statement's raw text is looked up in the [`StatementCache`] before
//! anything is tokenized. A hit whose plan was made under the current
//! DDL generation goes straight to the executor; its `parse` stage is the
//! lookup and its `plan` stage the stamp check. Anything else parses, and
//! a SELECT on no `jp_*` table keeps its plan. The same entry holds the
//! text's fingerprint and shape, so `jp_stat_statements` never
//! re-normalizes a text. A failed text keeps no plan, so it fails the
//! same way every time. Keyed by the text, not a digest: no collision can
//! hand one statement another's plan.

use crate::db::{EngineError, SpatialDb};
use crate::indexes::DbCatalogAdapter;
use crate::syscat;
use crate::txn::WriteTxn;
use jackpine_obs::{digest, QueryTrace, Stage, TxnSite};
use jackpine_sqlmini::ast::{Expr, Select, SelectItem, Statement, TableRef};
use jackpine_sqlmini::plan::{PlanOptions, PlannedSelect};
use jackpine_sqlmini::{exec, parser, plan, ResultSet, SqlError};
use jackpine_storage::sync::{Mutex, RwLock};
use jackpine_storage::{ColumnDef, DataType, Row, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Statement texts the cache keeps. A full cache drops its coldest
/// quarter, so hot statements survive a burst of one-off texts.
const STATEMENT_CACHE_CAPACITY: usize = 512;
/// Longest statement text retained per session-registry entry.
const SESSION_SQL_MAX: usize = 512;

/// A SELECT's plan and the DDL generation it was planned under.
type StampedPlan = (u64, Arc<PlannedSelect>);

/// What the engine knows of one statement text. Immutable but for its
/// hit stamp: keeping a new plan replaces the entry.
struct CachedStatement {
    fingerprint: u64,
    /// The normalized text `fingerprint` digests.
    shape: Arc<str>,
    plan: Option<StampedPlan>,
    /// Tick of the last hit (or the insert), stamped under the read lock.
    last_hit: AtomicU64,
}

/// The engine's one statement cache: raw text → [`CachedStatement`].
#[derive(Default)]
pub(crate) struct StatementCache {
    map: RwLock<HashMap<Arc<str>, Arc<CachedStatement>>>,
    /// Monotone tick feeding the eviction stamps.
    tick: AtomicU64,
}

impl StatementCache {
    /// Forgets every text (DROP TABLE, cold runs).
    pub(crate) fn clear(&self) {
        self.map.write().clear();
    }

    /// The entry for `sql`, stamped as hit.
    fn get(&self, sql: &str) -> Option<Arc<CachedStatement>> {
        let entry = self.map.read().get(sql).cloned()?;
        entry.last_hit.store(self.tick.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
        Some(entry)
    }

    /// The entry `sql` ends a run with: `known`, or when a plan was made,
    /// a new entry carrying it and `known`'s (or a new) fingerprint.
    fn keep(
        &self,
        sql: &str,
        known: Option<Arc<CachedStatement>>,
        planned: Option<StampedPlan>,
    ) -> Arc<CachedStatement> {
        let (fingerprint, shape) = match (known, &planned) {
            (Some(entry), None) => return entry,
            (Some(entry), Some(_)) => (entry.fingerprint, Arc::clone(&entry.shape)),
            (None, _) => {
                let shape: Arc<str> = jackpine_sqlmini::fingerprint::normalize(sql).into();
                (digest(&shape), shape)
            }
        };
        let entry = Arc::new(CachedStatement {
            fingerprint,
            shape,
            plan: planned,
            last_hit: AtomicU64::new(self.tick.fetch_add(1, Ordering::Relaxed)),
        });
        let mut map = self.map.write();
        if map.len() >= STATEMENT_CACHE_CAPACITY && !map.contains_key(sql) {
            evict_coldest_quarter(&mut map, |e| e.last_hit.load(Ordering::Relaxed));
        }
        map.insert(sql.into(), Arc::clone(&entry));
        entry
    }
}

/// Drops the coldest quarter of `map`, the entries whose `stamp` (the
/// tick of their last hit) is lowest. With unique stamps (one tick per
/// hit or insert) the quantile cut is exact.
fn evict_coldest_quarter<K, V>(map: &mut HashMap<K, V>, stamp: impl Fn(&V) -> u64) {
    let target = (map.len() / 4).max(1);
    let mut stamps: Vec<u64> = map.values().map(&stamp).collect();
    let threshold = *stamps.select_nth_unstable(target - 1).1;
    map.retain(|_, v| stamp(v) > threshold);
}

/// In-flight statements, keyed by a monotone session id — the rows of
/// `jp_sessions`: the text (its first 512 bytes) and when it began.
/// Entries live for the duration of one `execute` call.
#[derive(Default)]
pub(crate) struct Sessions {
    live: Mutex<HashMap<u64, (String, Instant)>>,
    seq: AtomicU64,
}

impl Sessions {
    /// Registers one in-flight statement; the returned slot deregisters
    /// it when dropped.
    fn register(&self, sql: &str) -> SessionSlot<'_> {
        let id = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let text = sql[..sql.floor_char_boundary(SESSION_SQL_MAX)].to_string();
        self.live.lock().insert(id, (text, Instant::now()));
        SessionSlot { sessions: self, id }
    }

    /// In-flight statements as `(session id, statement text, elapsed)`
    /// triples sorted by id.
    pub(crate) fn active(&self) -> Vec<(u64, String, Duration)> {
        let live = self.live.lock();
        let mut out: Vec<(u64, String, Duration)> =
            live.iter().map(|(id, (sql, started))| (*id, sql.clone(), started.elapsed())).collect();
        drop(live);
        out.sort_unstable_by_key(|(id, ..)| *id);
        out
    }
}

/// One in-flight statement's registration in `jp_sessions`; deregisters
/// on drop, so error paths and panics unwind cleanly.
struct SessionSlot<'a> {
    sessions: &'a Sessions,
    id: u64,
}

impl Drop for SessionSlot<'_> {
    fn drop(&mut self) {
        self.sessions.live.lock().remove(&self.id);
    }
}

impl SpatialDb {
    /// Runs one SQL statement. The completed statement lands in the
    /// flight recorder, the slow-query log (if slow enough) and the
    /// fingerprint stats table.
    pub fn execute(self: &Arc<Self>, sql: &str) -> crate::Result<ResultSet> {
        Ok(self.execute_traced(sql)?.0)
    }

    /// Runs one SQL statement and returns, beside the result, the trace
    /// the flight recorder keeps for it: per-stage timings and the
    /// engine-counter delta attributable to this statement. Concurrent
    /// statements on the same instance bleed into each other's deltas —
    /// trace under a single client connection, the way EXPLAIN ANALYZE
    /// is used.
    pub fn execute_traced(
        self: &Arc<Self>,
        sql: &str,
    ) -> crate::Result<(ResultSet, Arc<QueryTrace>)> {
        let _session = self.sessions.register(sql);
        // The statement's trace is allocated before it runs, holding
        // the counters as they stand; the recorder keeps it. Built
        // after, it would sit above a large result in the heap and keep
        // the result's pages resident once the caller drops it.
        let trace =
            Arc::new(QueryTrace::new(sql, Duration::ZERO, 0, self.metrics.query_snapshot()));
        let t0 = Instant::now();
        let (result, known, planned) = self.execute_unrecorded(sql);
        let total = t0.elapsed();
        let entry = self.statements.keep(sql, known, planned);
        self.record((entry.fingerprint, &entry.shape), total, result, trace)
    }

    /// The execution path itself, with no retrospective recording.
    /// Returns, beside the result, the cache entry the text had and the
    /// plan this run made for it, if one is worth keeping.
    fn execute_unrecorded(
        self: &Arc<Self>,
        sql: &str,
    ) -> (crate::Result<ResultSet>, Option<Arc<CachedStatement>>, Option<StampedPlan>) {
        self.metrics.queries.incr();
        let t0 = Instant::now();
        let known = self.statements.get(sql);
        let looked_up = Instant::now();
        if let Some((stamp, planned)) = known.as_ref().and_then(|e| e.plan.as_ref()) {
            // A plan counts only under the DDL generation it was made
            // in; a stale one (an index came or went) is replanned below.
            if *stamp == self.ddl_gen.load(Ordering::SeqCst) {
                self.metrics.record_stage(Stage::Parse, looked_up - t0);
                self.metrics.plan_cache_hits.incr();
                self.metrics.record_stage(Stage::Plan, looked_up.elapsed());
                let result = self.execute_plan(planned);
                return (result, known, None);
            }
        }
        let stmt = match parser::parse(sql) {
            Ok(stmt) => stmt,
            Err(e) => return (Err(e.into()), known, None),
        };
        self.metrics.record_stage(Stage::Parse, t0.elapsed());
        match stmt {
            // System-catalog FROMs are never kept: a plan holds the
            // providers it was planned against, and a jp_* provider is a
            // point-in-time materialization rebuilt per statement.
            Statement::Select(select)
                if !select.from.iter().any(|t| syscat::is_system_table(&t.table)) =>
            {
                let stamp = self.ddl_gen.load(Ordering::SeqCst);
                match self.plan_fresh(&select) {
                    Ok(planned) => (self.execute_plan(&planned), known, Some((stamp, planned))),
                    Err(e) => (Err(e), known, None),
                }
            }
            stmt => (self.execute_statement(stmt, sql), known, None),
        }
    }

    /// Plans a SELECT, recording plan-stage time and a plan-cache miss.
    fn plan_fresh(self: &Arc<Self>, select: &Select) -> crate::Result<Arc<PlannedSelect>> {
        let t0 = Instant::now();
        self.metrics.plan_cache_misses.incr();
        let result = self.plan_select(select).map(Arc::new);
        self.metrics.record_stage(Stage::Plan, t0.elapsed());
        result
    }

    /// Plans a SELECT under the engine's current planner settings.
    fn plan_select(self: &Arc<Self>, select: &Select) -> crate::Result<PlannedSelect> {
        let opts = PlanOptions {
            mode: self.profile().function_mode(),
            use_spatial_index: *self.use_spatial_index.read(),
        };
        let adapter = DbCatalogAdapter { db: self.clone() };
        Ok(plan::plan_select(&adapter, select, &opts)?)
    }

    /// Runs a planned SELECT. One commit generation is pinned for the
    /// whole statement: every snapshot-capable provider in the plan
    /// resolves to a copy reading exactly that generation, so the
    /// statement never observes a concurrent writer's half-applied
    /// changes — and never blocks on one.
    fn execute_plan(self: &Arc<Self>, planned: &PlannedSelect) -> crate::Result<ResultSet> {
        let opts = exec::ExecOptions {
            workers: self.workers(),
            metrics: self.metrics.clone(),
            snapshot: Some(self.pin_snapshot_handle()),
        };
        Ok(exec::execute_with(planned, &opts)?)
    }

    /// Runs one parsed statement; `sql` is its text (EXPLAIN ANALYZE's
    /// trace label). A SELECT here is planned fresh and not kept.
    fn execute_statement(self: &Arc<Self>, stmt: Statement, sql: &str) -> crate::Result<ResultSet> {
        match stmt {
            Statement::Select(select) => {
                let planned = self.plan_fresh(&select)?;
                self.execute_plan(&planned)
            }
            Statement::CreateTable { name, columns } => {
                let cols = columns
                    .into_iter()
                    .map(|(n, ty)| {
                        Ok(ColumnDef::new(
                            &n,
                            parse_type(&ty).ok_or_else(|| {
                                EngineError::Sql(SqlError::Type(format!("unknown type '{ty}'")))
                            })?,
                        ))
                    })
                    .collect::<crate::Result<Vec<_>>>()?;
                self.create_table(&name, cols)?;
                Ok(affected(0))
            }
            Statement::Delete { table, filters } => {
                Ok(affected(self.delete_or_update(&table, None, &filters)?))
            }
            Statement::DropTable { name } => {
                // Readers that looked the table up before the drop keep
                // it and finish against it; only the name is gone. Every
                // cached plan is stale after the change, and one planned
                // against this table would keep it, and its heap its pool
                // frames, until its entry was evicted.
                self.change_schema(|| Ok(self.tables.remove(&name)?), |_| ())?;
                self.statements.clear();
                Ok(affected(0))
            }
            Statement::Update { table, assignments, filters } => {
                Ok(affected(self.delete_or_update(&table, Some(&assignments), &filters)?))
            }
            Statement::Explain(inner) => match *inner {
                Statement::Select(select) => {
                    let planned = self.plan_select(&select)?;
                    let rows = planned
                        .root
                        .describe()
                        .lines()
                        .map(|l| vec![Value::Text(l.to_string())])
                        .collect();
                    Ok(ResultSet { columns: vec!["plan".into()], rows })
                }
                _ => Err(EngineError::Sql(SqlError::Type("EXPLAIN supports only SELECT".into()))),
            },
            Statement::ExplainAnalyze(inner) => {
                if !matches!(*inner, Statement::Select(_)) {
                    return Err(EngineError::Sql(SqlError::Type(
                        "EXPLAIN ANALYZE supports only SELECT".into(),
                    )));
                }
                // Execute the inner SELECT for real (planned fresh, so
                // the plan stage is always exercised), bracketed by
                // metric snapshots of its own.
                let before = self.metrics.query_snapshot();
                let t0 = Instant::now();
                let result = self.execute_statement(*inner, sql)?;
                let total = t0.elapsed();
                let delta = self.metrics.query_snapshot().delta_since(&before);
                let trace = QueryTrace::new(sql, total, result.rows.len(), delta);
                let rows =
                    trace.render().lines().map(|l| vec![Value::Text(l.to_string())]).collect();
                Ok(ResultSet { columns: vec!["analyze".into()], rows })
            }
            Statement::Insert { table, rows } => {
                // Evaluate every VALUES tuple up front, then apply the
                // whole statement as one write transaction: a multi-row
                // INSERT publishes all rows atomically or none.
                // Bound with no columns in scope: a column reference fails.
                let mode = self.profile().function_mode();
                let mut staged: Vec<Row> = Vec::with_capacity(rows.len());
                for exprs in rows {
                    let mut row = Vec::with_capacity(exprs.len());
                    for e in exprs {
                        row.push(exec::eval(&plan::bind_columns(Vec::new(), &e)?, &[], mode)?);
                    }
                    staged.push(row);
                }
                Ok(affected(self.insert_rows(&table, staged)?.len()))
            }
        }
    }

    /// DELETE (`assignments` absent) and UPDATE: one write transaction
    /// that kills every row of `table` for which each term of `filters`
    /// holds (the WHERE conjunction; no terms means every row) and, for
    /// an UPDATE, inserts its replacement — the assignments applied,
    /// right-hand sides reading the old row — at the same generation, so
    /// readers observe the old row or the new one, never both and never
    /// neither. Returns the number of rows acted on.
    ///
    /// The rows are the ones `SELECT * FROM table WHERE filters` returns,
    /// found the way it finds them ([`exec::matching_rows`]): its access
    /// path and the filters the stored rows decide read no row, and an
    /// UPDATE reads each of its rows once, keeping none.
    fn delete_or_update(
        self: &Arc<Self>,
        table: &str,
        assignments: Option<&[(String, Expr)]>,
        filters: &[Expr],
    ) -> crate::Result<usize> {
        let mode = self.profile().function_mode();
        let site = if assignments.is_some() { TxnSite::Update } else { TxnSite::Delete };
        let mut txn = WriteTxn::begin(self, site, table)?;
        // The writer lock keeps schema changes out, so the plan reads the
        // transaction's table, live: only rows visible at the published
        // generation qualify (one some pinned snapshot still sees but
        // that is already dead stays dead).
        let select = Select {
            items: vec![SelectItem::Wildcard],
            from: vec![TableRef { table: table.to_string(), alias: table.to_string() }],
            filters: filters.to_vec(),
            group_by: Vec::new(),
            order_by: Vec::new(),
            limit: None,
        };
        let planned = self.plan_select(&select)?;
        let schema = txn.table().schema().clone();
        let scope: Vec<(String, String)> =
            schema.columns().iter().map(|c| (table.to_string(), c.name.clone())).collect();
        let replacement: Vec<(usize, _)> = assignments
            .unwrap_or_default()
            .iter()
            .map(|(col, e)| Ok((schema.column_index(col)?, plan::bind_columns(scope.clone(), e)?)))
            .collect::<crate::Result<_>>()?;

        // Victims first, so a WHERE that cannot be evaluated touches
        // nothing.
        let opts = exec::ExecOptions {
            workers: self.workers(),
            metrics: self.metrics.clone(),
            snapshot: None,
        };
        let mut victims = exec::matching_rows(&planned, &opts, assignments.is_some())?;
        // Every replacement before any change, so one that cannot be
        // computed touches nothing; then the kills, and the replacements as
        // one batch, inserted a page-sized run at a time as `insert_rows`' are.
        let mut replacements = Vec::new();
        for (_, old) in &mut victims {
            if let Some(old) = old.take() {
                let values = replacement
                    .iter()
                    .map(|(_, e)| exec::eval(e, &old, mode))
                    .collect::<std::result::Result<Vec<_>, _>>()?;
                // The old row is this statement's alone unless a read
                // kept it: then it is copied, else its values are reused.
                let mut new: Row = Arc::unwrap_or_clone(old);
                for ((col, _), v) in replacement.iter().zip(values) {
                    new[*col] = v;
                }
                replacements.push(new);
            }
        }
        txn.kill(victims.iter().map(|&(id, _)| id));
        txn.insert(replacements)?;
        txn.commit()?;
        Ok(victims.len())
    }
}

fn affected(n: usize) -> ResultSet {
    ResultSet { columns: vec!["rows_affected".into()], rows: vec![vec![Value::Int(n as i64)]] }
}

fn parse_type(ty: &str) -> Option<DataType> {
    match ty.to_ascii_uppercase().as_str() {
        "BIGINT" | "INT" | "INTEGER" => Some(DataType::Int),
        "DOUBLE" | "FLOAT" | "REAL" => Some(DataType::Float),
        "TEXT" | "VARCHAR" | "STRING" => Some(DataType::Text),
        "GEOMETRY" => Some(DataType::Geometry),
        _ => None,
    }
}

#[cfg(test)]
mod plan_cache_tests {
    use super::*;
    use crate::EngineProfile;

    fn hits(db: &SpatialDb) -> u64 {
        db.metrics.plan_cache_hits.get()
    }

    #[test]
    fn cache_hits_on_repeated_statements() {
        let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
        db.execute("CREATE TABLE t (id BIGINT)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
        let sql = "SELECT COUNT(*) FROM t WHERE id > 1";
        let r1 = db.execute(sql).unwrap();
        let h0 = hits(&db);
        let r2 = db.execute(sql).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(hits(&db), h0 + 1, "second execution must hit the cache");
    }

    #[test]
    fn an_engine_that_ran_cached_selects_is_freed_on_drop() {
        // Regression: cached plans held table adapters that held the
        // engine, so one cached SELECT kept it alive for the life of the
        // process — heaps, WAL handle, spill files and all.
        let spill = std::env::temp_dir().join(format!("jackpine-leak-{}", std::process::id()));
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
        let window = "SELECT COUNT(*) FROM g WHERE ST_Intersects(geom, \
                      ST_MakeEnvelope(0, 0, 9.5, 9.5))";
        for _ in 0..2 {
            assert_eq!(db.execute(window).unwrap().scalar().unwrap().to_string(), "10");
        }
        assert!(hits(&db) >= 1, "the plan is cached and was hit");
        db.execute(&format!("EXPLAIN ANALYZE {window}")).unwrap();
        db.execute("SELECT COUNT(*) FROM g").unwrap();
        db.execute("SELECT name, value FROM jp_metrics").unwrap();
        assert!(std::fs::read_dir(&spill).unwrap().count() > 0, "two frames must spill");

        let weak = Arc::downgrade(&db);
        drop(db);
        assert!(weak.upgrade().is_none(), "something still holds the engine");
        assert_eq!(std::fs::read_dir(&spill).unwrap().count(), 0, "spill files outlived it");
        std::fs::remove_dir_all(&spill).ok();
    }

    /// `(index probes, plan-cache hits, plan-cache misses)` of one run.
    fn probes_hits_misses(db: &Arc<SpatialDb>, sql: &str) -> (u64, u64, u64) {
        let (_, t) = db.execute_traced(sql).unwrap();
        (t.counter("index_probes"), t.counter("plan_cache_hits"), t.counter("plan_cache_misses"))
    }

    #[test]
    fn ddl_invalidates_cache() {
        let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
        db.execute("CREATE TABLE g (id BIGINT, geom GEOMETRY)").unwrap();
        db.execute("INSERT INTO g VALUES (1, ST_GeomFromText('POINT (1 1)'))").unwrap();
        let sql = "SELECT COUNT(*) FROM g WHERE ST_Intersects(geom, \
                   ST_MakeEnvelope(0, 0, 2, 2))";
        // Cached with a SeqScan: there is no index yet.
        assert_eq!(probes_hits_misses(&db, sql), (0, 0, 1));
        assert_eq!(probes_hits_misses(&db, sql), (0, 1, 0));
        db.create_spatial_index("g", "geom").unwrap();
        // The cached text is replanned, and the new plan probes.
        let (probes, hits, misses) = probes_hits_misses(&db, sql);
        assert!(probes > 0, "stale SeqScan plan survived CREATE INDEX");
        assert_eq!((hits, misses), (0, 1));
        assert_eq!(probes_hits_misses(&db, sql).1, 1, "the new plan is cached");
    }

    #[test]
    fn toggling_index_use_invalidates() {
        let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
        db.execute("CREATE TABLE g (id BIGINT, geom GEOMETRY)").unwrap();
        for i in 0..5 {
            db.execute(&format!("INSERT INTO g VALUES ({i}, ST_GeomFromText('POINT ({i} 0)'))"))
                .unwrap();
        }
        db.create_spatial_index("g", "geom").unwrap();
        let sql = "SELECT COUNT(*) FROM g WHERE ST_DWithin(geom, \
                   ST_GeomFromText('POINT (2 0)'), 1.5)";
        let a = db.execute(sql).unwrap();
        assert!(probes_hits_misses(&db, sql).0 > 0, "the cached plan probes the index");
        db.set_use_spatial_index(false);
        assert_eq!(probes_hits_misses(&db, sql), (0, 0, 1), "stale index plan survived");
        let b = db.execute(sql).unwrap();
        assert_eq!(a, b, "answers must not depend on the plan-cache state");
    }

    #[test]
    fn a_hot_statement_survives_a_burst_of_one_off_texts() {
        let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
        db.execute("CREATE TABLE t (id BIGINT)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
        let hot = "SELECT COUNT(*) FROM t WHERE id > 1";
        for i in 0..600 {
            if i % 100 == 0 {
                db.execute(hot).unwrap();
            }
            db.execute(&format!("SELECT COUNT(*) FROM t WHERE id > {}", i + 1000)).unwrap();
        }
        assert!(db.statements.map.read().len() <= STATEMENT_CACHE_CAPACITY);
        let (_, t) = db.execute_traced(hot).unwrap();
        assert_eq!(t.counter("plan_cache_hits"), 1, "the hot plan was evicted");
        assert_eq!(t.counter("plan_cache_misses"), 0);
    }

    #[test]
    fn errors_are_not_cached() {
        let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
        db.execute("CREATE TABLE t (id BIGINT)").unwrap();
        // One that fails to parse, one that fails to plan.
        for bad in ["SELECT id FROM t WHERE", "SELECT nocolumn FROM t"] {
            let first = db.execute(bad).unwrap_err().to_string();
            let misses = db.metrics.plan_cache_misses.get();
            assert_eq!(db.execute(bad).unwrap_err().to_string(), first, "{bad}");
            assert_eq!(hits(&db), 0, "{bad}: a failed statement hit the cache");
            let planned = u64::from(bad.contains("nocolumn"));
            assert_eq!(db.metrics.plan_cache_misses.get(), misses + planned, "{bad}");
        }
        let failed: Vec<_> = db.query_stats(10).into_iter().filter(|s| s.errors > 0).collect();
        assert_eq!(failed.len(), 2, "one fingerprint per failing text: {failed:?}");
        assert!(failed.iter().all(|s| (s.count, s.errors) == (0, 2)), "{failed:?}");
    }

    #[test]
    fn a_hit_skips_parsing() {
        let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
        db.execute("CREATE TABLE g (id BIGINT, geom GEOMETRY)").unwrap();
        db.execute("INSERT INTO g VALUES (1, ST_GeomFromText('POINT (1 1)'))").unwrap();
        // 8 KB of short tokens. Scanning one string literal as long costs
        // about what hashing the text does in an unoptimized build, so the
        // text is tokens: its parse is what a hit must skip.
        let columns: Vec<String> = (0..1024).map(|i| format!("id + {i}")).collect();
        let sql = format!("SELECT {} FROM g", columns.join(", "));
        assert!(sql.len() > 8 * 1024, "{}", sql.len());
        let (first, miss) = db.execute_traced(&sql).unwrap();
        assert_eq!(miss.counter("plan_cache_misses"), 1);
        // Misses and hits interleaved, the fastest of each: both are timed
        // under the same load, and a busy host only ever slows a run.
        let (mut parse, mut fastest_hit) = (miss.stage_ns("parse"), u64::MAX);
        for k in 1..=16 {
            // Trailing blanks make a text the cache has not seen.
            let (_, miss) = db.execute_traced(&format!("{sql}{}", " ".repeat(k))).unwrap();
            assert_eq!(miss.counter("plan_cache_misses"), 1);
            parse = parse.min(miss.stage_ns("parse"));
            let (again, hit) = db.execute_traced(&sql).unwrap();
            assert_eq!(first, again);
            assert_eq!(hit.counter("plan_cache_hits"), 1);
            assert_eq!(hit.counter("plan_cache_misses"), 0);
            assert!(hit.stage_names().starts_with(&["parse", "plan"]), "{:?}", hit.stage_names());
            fastest_hit = fastest_hit.min(hit.stage_ns("parse"));
        }
        // A lookup hashes the text once; a parse tokenizes it. At least
        // a 2x margin, so a hit that still parses cannot pass on noise.
        assert!(fastest_hit * 2 < parse, "the hit parsed: {fastest_hit} ns vs {parse} ns");
    }
}

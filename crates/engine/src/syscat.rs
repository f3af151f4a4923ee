//! The SQL-queryable system catalog: `jp_*` virtual tables.
//!
//! Every table here is a point-in-time materialization of engine
//! observability state into a [`VirtualTable`], resolved by name in
//! [`provider`] when the planner binds a `FROM` clause. Because the
//! result is an ordinary [`TableProvider`], introspection queries run
//! through the normal planner and executor — `WHERE`, `ORDER BY`,
//! `LIMIT`, aggregates and `EXPLAIN ANALYZE` all work with zero special
//! cases, the way `pg_stat_*` views do in PostgreSQL.
//!
//! The tables:
//!
//! | name | one row per | backing state |
//! |---|---|---|
//! | `jp_stat_statements` | statement fingerprint | the query-stats table |
//! | `jp_flight_recorder` | retained trace | the flight-recorder ring |
//! | `jp_slow_queries` | retained slow trace | the slow-query log |
//! | `jp_metrics` | counter/gauge/histogram | the metrics registry |
//! | `jp_sessions` | in-flight statement | the session registry |
//! | `jp_snapshots` | pinned generation | the MVCC snapshot registry |
//! | `jp_wal` | engine (single row) | WAL + group-commit state |
//! | `jp_buffer_pool` | engine (single row) | buffer-pool frames, decoded rows + counters |
//!
//! Schemas are documented in DESIGN.md ("System catalog"). Tables are
//! read-only by construction: DML never resolves through the SQL
//! catalog-provider path, and `CREATE TABLE` rejects the `jp_` prefix.
//!
//! The three rings and tables a completed statement lands in are one
//! [`Introspection`] sink, fed by one [`SpatialDb::record`] call per
//! statement.

use crate::SpatialDb;
use jackpine_obs::{
    FingerprintStats, FlightRecorder, MetricsSnapshot, QueryStatsTable, QueryTrace, SlowQueryLog,
    Stage,
};
use jackpine_sqlmini::provider::TableProvider;
use jackpine_sqlmini::virt::VirtualTable;
use jackpine_sqlmini::ResultSet;
use jackpine_storage::{ColumnDef, DataType, Row, Schema, Value};
use std::sync::Arc;
use std::time::Duration;

/// Traces retained by the default flight recorder.
pub const FLIGHT_RECORDER_CAPACITY: usize = 256;
/// Slow traces retained by the default slow-query log.
const SLOW_LOG_CAPACITY: usize = 64;
/// Default slow-query threshold. Warm micro queries run in microseconds
/// to low milliseconds, so 100 ms marks genuinely pathological
/// statements without admitting ordinary cold-cache noise.
const SLOW_QUERY_THRESHOLD: Duration = Duration::from_millis(100);
/// Distinct statement shapes tracked by the fingerprint stats table.
const QUERY_STATS_CAPACITY: usize = 512;

/// Where completed statements are recorded.
pub(crate) struct Introspection {
    /// Always-on flight recorder: the last N completed query traces.
    recorder: FlightRecorder,
    /// Threshold-gated view of the same stream: only slow queries.
    slow_log: SlowQueryLog,
    /// Per-fingerprint rolling statistics (`pg_stat_statements`-style).
    query_stats: QueryStatsTable,
}

impl Default for Introspection {
    fn default() -> Self {
        Introspection {
            recorder: FlightRecorder::new(FLIGHT_RECORDER_CAPACITY),
            slow_log: SlowQueryLog::new(SLOW_LOG_CAPACITY, SLOW_QUERY_THRESHOLD),
            query_stats: QueryStatsTable::new(QUERY_STATS_CAPACITY),
        }
    }
}

impl SpatialDb {
    /// Records one completed statement: its fingerprint's stats; for a
    /// success, its trace — `trace` was built before the statement ran,
    /// with the counters as they stood, and gets `total`, the row count
    /// and the delta since — in the flight recorder and, if slow enough,
    /// the slow-query log. A failed statement has no meaningful delta
    /// or row count: it shows in the error column of its fingerprint
    /// instead of the trace rings.
    pub(crate) fn record(
        &self,
        (fingerprint, shape): (u64, &str),
        total: Duration,
        result: &crate::Result<ResultSet>,
        mut trace: Arc<QueryTrace>,
    ) {
        let sink = &self.introspection;
        match result {
            Ok(r) => {
                sink.query_stats.record(fingerprint, shape, total, r.rows.len() as u64, false);
                let t = Arc::get_mut(&mut trace).expect("a statement's trace is unshared");
                t.total = total;
                t.rows = r.rows.len();
                t.delta.rebase_to(&self.metrics.query_snapshot());
                sink.recorder.push(trace.clone());
                sink.slow_log.offer(&trace);
            }
            Err(_) => sink.query_stats.record(fingerprint, shape, total, 0, true),
        }
    }

    /// A point-in-time copy of every engine counter, gauge and
    /// histogram. The gauges are computed from engine state as it is
    /// read: the number of distinct pinned snapshot generations, the
    /// vacuum backlog and the age of the oldest pin. The buffer pool's
    /// levels and counters are [`SpatialDb::pool_stats`] (`jp_buffer_pool`).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        let pins = self.txn.snapshot_pins();
        let oldest = pins.iter().map(|(.., age)| *age).max().unwrap_or_default();
        snap.gauges = vec![
            ("active_snapshots", pins.len() as u64),
            ("pending_reclaim_rows", self.txn.pending_reclaim_len() as u64),
            ("oldest_snapshot_age_us", oldest.as_micros().min(u64::MAX as u128) as u64),
        ];
        snap
    }

    /// The flight recorder: the last completed traces, oldest first.
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.introspection.recorder
    }

    /// The slow-query log: the completed traces over its threshold
    /// (`Duration::ZERO` admits everything), oldest first.
    pub fn slow_log(&self) -> &SlowQueryLog {
        &self.introspection.slow_log
    }

    /// The top `k` statement shapes by execution count, with rolling
    /// latency/row/error statistics per fingerprint.
    pub fn query_stats(&self, k: usize) -> Vec<FingerprintStats> {
        self.introspection.query_stats.top(k)
    }
}

/// Whether `name` is reserved for the system catalog (the `jp_` prefix,
/// case-insensitive).
pub(crate) fn is_system_table(name: &str) -> bool {
    name.get(..3).is_some_and(|p| p.eq_ignore_ascii_case("jp_"))
}

/// Resolves a system-table name to a freshly materialized provider.
/// `None` for names outside the catalog (including unknown `jp_*`
/// names, which the caller turns into the ordinary not-found error).
pub(crate) fn provider(
    db: &Arc<SpatialDb>,
    name: &str,
) -> Option<jackpine_sqlmini::Result<Arc<dyn TableProvider>>> {
    let table = match name.to_ascii_lowercase().as_str() {
        "jp_stat_statements" => stat_statements(db),
        "jp_flight_recorder" => trace_ring(db.flight_recorder().recent()),
        "jp_slow_queries" => trace_ring(db.slow_log().recent()),
        "jp_metrics" => metrics(&db.metrics_snapshot()),
        "jp_sessions" => sessions(db),
        "jp_snapshots" => snapshots(db),
        "jp_wal" => wal(db),
        "jp_buffer_pool" => buffer_pool(db),
        _ => return None,
    };
    Some(table.map(|t| Arc::new(t) as Arc<dyn TableProvider>))
}

fn int(v: u64) -> Value {
    Value::Int(v.min(i64::MAX as u64) as i64)
}

fn ms(d: Duration) -> Value {
    Value::Float(d.as_secs_f64() * 1e3)
}

fn ns_to_ms(ns: u64) -> Value {
    Value::Float(ns as f64 / 1e6)
}

fn cols(defs: &[(&str, DataType)]) -> jackpine_sqlmini::Result<Schema> {
    Schema::new(defs.iter().map(|(n, ty)| ColumnDef::new(n, *ty)).collect())
        .map_err(jackpine_sqlmini::SqlError::from)
}

/// `jp_stat_statements`: one row per statement fingerprint, ordered by
/// execution count descending (the table's natural "top statements"
/// reading; ORDER BY re-sorts like any other table).
fn stat_statements(db: &Arc<SpatialDb>) -> jackpine_sqlmini::Result<VirtualTable> {
    let schema = cols(&[
        ("fingerprint", DataType::Text),
        ("statement", DataType::Text),
        ("calls", DataType::Int),
        ("errors", DataType::Int),
        ("rows", DataType::Int),
        ("mean_ms", DataType::Float),
        ("p95_ms", DataType::Float),
    ])?;
    let rows: Vec<Row> = db
        .query_stats(usize::MAX)
        .into_iter()
        .map(|s| {
            vec![
                Value::Text(format!("{:016x}", s.digest)),
                Value::Text(s.normalized.clone()),
                int(s.executions()),
                int(s.errors),
                int(s.rows),
                Value::Float(s.mean_ms()),
                Value::Float(s.p95_ms()),
            ]
        })
        .collect();
    VirtualTable::new(schema, rows)
}

/// `jp_flight_recorder` / `jp_slow_queries`: one row per retained trace,
/// oldest first, with per-stage self-times as columns.
fn trace_ring(traces: Vec<Arc<QueryTrace>>) -> jackpine_sqlmini::Result<VirtualTable> {
    let mut defs: Vec<(&str, DataType)> = vec![
        ("seq", DataType::Int),
        ("statement", DataType::Text),
        ("total_ms", DataType::Float),
        ("rows", DataType::Int),
    ];
    let stage_cols: Vec<String> = Stage::ALL.iter().map(|s| format!("{}_ms", s.name())).collect();
    for name in &stage_cols {
        defs.push((name.as_str(), DataType::Float));
    }
    defs.push(("index_probes", DataType::Int));
    defs.push(("refine_hits", DataType::Int));
    let schema = cols(&defs)?;
    let rows: Vec<Row> = traces
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mut row =
                vec![int(i as u64), Value::Text(t.sql.clone()), ms(t.total), int(t.rows as u64)];
            for s in Stage::ALL {
                row.push(ns_to_ms(t.stage_ns(s.name())));
            }
            row.push(int(t.counter("index_probes")));
            row.push(int(t.counter("refine_hits")));
            row
        })
        .collect();
    VirtualTable::new(schema, rows)
}

/// `jp_metrics`: the whole registry flattened to rows. Counters and
/// gauges carry `value`; histograms carry `count`/`sum`/`max`/`p50`/
/// `p99` (quantiles are log2-bucket upper bounds). Columns that do not
/// apply to a kind are NULL.
fn metrics(snap: &MetricsSnapshot) -> jackpine_sqlmini::Result<VirtualTable> {
    let schema = cols(&[
        ("name", DataType::Text),
        ("kind", DataType::Text),
        ("value", DataType::Int),
        ("count", DataType::Int),
        ("sum", DataType::Int),
        ("max", DataType::Int),
        ("p50", DataType::Int),
        ("p99", DataType::Int),
    ])?;
    let mut rows: Vec<Row> = Vec::new();
    for (kind, series) in [("counter", &snap.counters), ("gauge", &snap.gauges)] {
        rows.extend(series.iter().map(|(name, v)| scalar_row(name, kind, *v)));
    }
    for (stage, h) in &snap.stages {
        rows.push(histogram_row(&format!("stage_{}_ns", stage.name()), h));
    }
    rows.push(histogram_row("morsel_wait_ns", &snap.morsel_wait_ns));
    rows.push(histogram_row("commit_wait_us", &snap.commit_wait_us));
    for (name, h) in &snap.waits {
        rows.push(histogram_row(name, h));
    }
    VirtualTable::new(schema, rows)
}

fn scalar_row(name: &str, kind: &str, v: u64) -> Row {
    vec![
        Value::Text(name.to_string()),
        Value::Text(kind.to_string()),
        int(v),
        Value::Null,
        Value::Null,
        Value::Null,
        Value::Null,
        Value::Null,
    ]
}

fn histogram_row(name: &str, h: &jackpine_obs::HistogramSnapshot) -> Row {
    vec![
        Value::Text(name.to_string()),
        Value::Text("histogram".to_string()),
        Value::Null,
        int(h.count),
        int(h.sum),
        int(h.max),
        int(h.quantile(0.5)),
        int(h.quantile(0.99)),
    ]
}

/// `jp_sessions`: in-flight statements. The introspection query itself
/// appears — it registered before its own planning resolved this table.
fn sessions(db: &Arc<SpatialDb>) -> jackpine_sqlmini::Result<VirtualTable> {
    let schema = cols(&[
        ("session_id", DataType::Int),
        ("statement", DataType::Text),
        ("elapsed_ms", DataType::Float),
    ])?;
    let rows: Vec<Row> = db
        .sessions
        .active()
        .into_iter()
        .map(|(id, sql, elapsed)| vec![int(id), Value::Text(sql), ms(elapsed)])
        .collect();
    VirtualTable::new(schema, rows)
}

/// `jp_snapshots`: pinned MVCC snapshot generations with reader counts
/// and ages. The statement's own pin is taken at execution, after this
/// materialization, so an otherwise-idle engine shows zero rows.
fn snapshots(db: &Arc<SpatialDb>) -> jackpine_sqlmini::Result<VirtualTable> {
    let schema = cols(&[
        ("generation", DataType::Int),
        ("readers", DataType::Int),
        ("age_ms", DataType::Float),
    ])?;
    let rows: Vec<Row> = db
        .txn
        .snapshot_pins()
        .into_iter()
        .map(|(gen, readers, age)| vec![int(gen), int(readers as u64), ms(age)])
        .collect();
    VirtualTable::new(schema, rows)
}

/// `jp_wal`: one row of durability state. With durability detached,
/// `attached` is 0 and the per-WAL columns are NULL; the commit
/// counters still report historical totals.
fn wal(db: &Arc<SpatialDb>) -> jackpine_sqlmini::Result<VirtualTable> {
    let schema = cols(&[
        ("attached", DataType::Int),
        ("generation", DataType::Int),
        ("sync_each_append", DataType::Int),
        ("wal_appends", DataType::Int),
        ("wal_fsyncs", DataType::Int),
        ("group_commit_batches", DataType::Int),
        ("group_commit_size", DataType::Int),
    ])?;
    let snap = db.metrics_snapshot();
    let status = db.durability.read().as_ref().map(|d| (d.generation, d.wal.sync_enabled()));
    let (attached, generation, sync) = match status {
        Some((gen, sync)) => (Value::Int(1), int(gen), Value::Int(sync as i64)),
        None => (Value::Int(0), Value::Null, Value::Null),
    };
    let row = vec![
        attached,
        generation,
        sync,
        int(snap.counter("wal_appends")),
        int(snap.counter("wal_fsyncs")),
        int(snap.counter("group_commit_batches")),
        int(snap.counter("group_commit_size")),
    ];
    VirtualTable::new(schema, vec![row])
}

/// `jp_buffer_pool`: one row of buffer-pool state. `capacity_frames` is
/// 0 when the pool is
/// unbounded (every page stays resident and nothing evicts);
/// `decoded_rows` is what the resident frames hold decoded, the part of
/// the budget that is not page bytes.
fn buffer_pool(db: &Arc<SpatialDb>) -> jackpine_sqlmini::Result<VirtualTable> {
    let schema = cols(&[
        ("capacity_frames", DataType::Int),
        ("resident_frames", DataType::Int),
        ("pinned_frames", DataType::Int),
        ("decoded_rows", DataType::Int),
        ("pin_hits", DataType::Int),
        ("cold_pins", DataType::Int),
        ("evictions", DataType::Int),
        ("dirty_writebacks", DataType::Int),
    ])?;
    let stats = db.pool_stats();
    let row = vec![
        int(stats.capacity_frames),
        int(stats.resident_frames),
        int(stats.pinned_frames),
        int(stats.decoded_rows),
        int(stats.pin_hits),
        int(stats.cold_pins),
        int(stats.evictions),
        int(stats.dirty_writebacks),
    ];
    VirtualTable::new(schema, vec![row])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jp_prefix_is_case_insensitive_and_bounded() {
        assert!(is_system_table("jp_metrics"));
        assert!(is_system_table("JP_WAL"));
        assert!(is_system_table("Jp_anything"));
        assert!(!is_system_table("jp"));
        assert!(!is_system_table("jpx_metrics"));
        assert!(!is_system_table(""));
        assert!(!is_system_table("réjp_"));
    }

    #[test]
    fn unknown_jp_names_fall_through() {
        let db = Arc::new(SpatialDb::new(crate::EngineProfile::ExactRtree));
        assert!(provider(&db, "jp_no_such_table").is_none());
        assert!(provider(&db, "regular_table").is_none());
    }

    #[test]
    fn every_table_materializes_on_a_fresh_engine() {
        let db = Arc::new(SpatialDb::new(crate::EngineProfile::ExactRtree));
        for name in [
            "jp_stat_statements",
            "jp_flight_recorder",
            "jp_slow_queries",
            "jp_metrics",
            "jp_sessions",
            "jp_snapshots",
            "jp_wal",
            "jp_buffer_pool",
        ] {
            let p = provider(&db, name).unwrap_or_else(|| panic!("{name} resolves"));
            let p = p.unwrap_or_else(|e| panic!("{name} materializes: {e}"));
            // Schema and rows agree (VirtualTable type-checked them).
            let ids = p.row_ids();
            for id in ids {
                p.fetch(id).unwrap();
            }
        }
    }
}

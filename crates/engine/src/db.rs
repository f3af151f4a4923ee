//! The `SpatialDb` facade: catalog + heaps + indexes + SQL, under one
//! engine profile.

use crate::statement::StatementCache;
use crate::syscat;
use crate::txn::{SnapshotGuard, Transactions, WriteTxn};
use crate::wal::{Wal, WalRecord};
use crate::EngineProfile;
use jackpine_geom::{Coord, Envelope};
use jackpine_index::{GridIndex, LeafPager, OrderedIndex, ProbeStats, RTree, RTreeConfig};
use jackpine_obs::{
    EngineMetrics, FingerprintStats, FlightRecorder, HistoryPoint, MetricsHistory, MetricsSnapshot,
    QueryStatsTable, QueryTrace, SlowQueryLog, TxnSite,
};
use jackpine_sqlmini::provider::{CatalogProvider, SnapshotHandle, TableProvider};
use jackpine_sqlmini::{PreparedCache, SqlError};
use jackpine_storage::sync::{Mutex, RwLock};
use jackpine_storage::{
    BufferPool, Catalog, ColumnDef, DataType, Field, PoolStats, Row, RowId, Schema, StorageError,
    Table, Value,
};
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// A spatial index over one geometry column.
enum SpatialIdx {
    Rtree(RTree<RowId>),
    Grid(GridIndex<RowId>),
}

/// [`LeafPager`] backed by the engine's shared buffer pool: each R-tree
/// leaf serializes into slot 0 of its own pool page, so spilled leaves
/// compete for frames with heap pages under one capacity budget (and
/// show up in the same pin/eviction counters).
#[derive(Debug)]
struct PoolLeafPager {
    pool: Arc<BufferPool>,
    file: u64,
}

/// Pool page-file name for a spatial index's spilled leaves.
fn leaf_file_name(table: &str, col: usize) -> String {
    format!("idx-{}-{col}", table.to_ascii_lowercase())
}

impl LeafPager for PoolLeafPager {
    fn write(&self, leaf: u64, bytes: &[u8]) {
        let pin = self.pool.pin(self.file, leaf as u32);
        let mut guard = pin.write();
        guard.clear();
        guard.insert(bytes);
    }

    fn read(&self, leaf: u64) -> Option<Vec<u8>> {
        let pin = self.pool.pin(self.file, leaf as u32);
        let guard = pin.read();
        guard.get(0).ok().map(|b| b.to_vec())
    }
}

impl Drop for PoolLeafPager {
    fn drop(&mut self) {
        self.pool.unregister(self.file);
    }
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

    fn remove(&mut self, env: &Envelope, id: RowId) {
        match self {
            SpatialIdx::Rtree(t) => {
                t.remove(env, |v| *v == id);
            }
            SpatialIdx::Grid(g) => {
                g.remove(env, |v| *v == id);
            }
        }
    }
}

/// Ordered-index key: the orderable subset of [`Value`].
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
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

    /// [`Key::from_value`] of a column still in its tuple's bytes.
    fn from_field(f: Field<'_>) -> Option<Key> {
        match f {
            Field::Int(i) => Some(Key::Int(i)),
            Field::Text(s) => Some(Key::Text(s.to_string())),
            _ => None,
        }
    }
}

/// The spatial-index entry column `col` of an encoded row makes: its
/// geometry's envelope, read off the WKB — bit-identical to the decoded
/// geometry's, so an entry found this way is the entry inserted.
fn tuple_envelope(tuple: &[u8], col: usize) -> crate::Result<Option<Envelope>> {
    Ok(Field::of(tuple, col)?.map_or(Ok(None), |f| f.envelope())?)
}

/// The ordered-index key column `col` of an encoded row makes.
fn tuple_key(tuple: &[u8], col: usize) -> crate::Result<Option<Key>> {
    Ok(Field::of(tuple, col)?.and_then(Key::from_field))
}

/// Per-table index bookkeeping.
#[derive(Default)]
pub(crate) struct TableIndexes {
    spatial: HashMap<usize, SpatialIdx>,
    ordered: HashMap<usize, OrderedIndex<Key, RowId>>,
}

/// What a table's indexes are built from, gathered row by row: by a heap
/// scan (`CREATE INDEX`), or while the rows of a snapshot go by (every
/// index of the table in the one pass that places them, no scan at all).
pub(crate) struct IndexSeeds {
    /// Per indexed geometry column, the bulk load's input.
    spatial: Vec<(usize, Vec<(Envelope, RowId)>)>,
    ordered: Vec<(usize, OrderedIndex<Key, RowId>)>,
}

impl IndexSeeds {
    /// Empty seeds, with room for `rows` rows, for a spatial index on
    /// each of `spatial_cols` and an ordered one on each of
    /// `ordered_cols`; [`EngineError::Index`] when a column cannot carry
    /// its index.
    pub(crate) fn new(
        t: &Table,
        spatial_cols: &[usize],
        ordered_cols: &[usize],
        rows: usize,
    ) -> crate::Result<IndexSeeds> {
        let column = |col: usize| {
            t.schema().columns().get(col).ok_or_else(|| {
                EngineError::Index(format!("'{}' has no column number {col}", t.name))
            })
        };
        for &col in spatial_cols {
            let c = column(col)?;
            if c.ty != DataType::Geometry {
                return Err(EngineError::Index(format!(
                    "column '{}' of '{}' is not a geometry",
                    c.name, t.name
                )));
            }
        }
        for &col in ordered_cols {
            let c = column(col)?;
            if !matches!(c.ty, DataType::Int | DataType::Text) {
                return Err(EngineError::Index(format!(
                    "ordered index unsupported on {} column '{}'",
                    c.ty.sql_name(),
                    c.name
                )));
            }
        }
        Ok(IndexSeeds {
            spatial: spatial_cols.iter().map(|&c| (c, Vec::with_capacity(rows))).collect(),
            ordered: ordered_cols.iter().map(|&c| (c, OrderedIndex::new())).collect(),
        })
    }

    /// Adds the entries of the row stored as `tuple`, read straight off
    /// its bytes: nothing is decoded.
    pub(crate) fn add(&mut self, id: RowId, tuple: &[u8]) -> crate::Result<()> {
        for (col, items) in &mut self.spatial {
            if let Some(env) = tuple_envelope(tuple, *col)? {
                items.push((env, id));
            }
        }
        for (col, idx) in &mut self.ordered {
            if let Some(k) = tuple_key(tuple, *col)? {
                idx.insert(k, id);
            }
        }
        Ok(())
    }
}

/// File name of the atomic snapshot inside a durability directory.
pub const SNAPSHOT_FILE: &str = "snapshot.jkpn";
/// File name of the write-ahead log inside a durability directory.
pub const WAL_FILE: &str = "wal.jkwl";

/// Tuning knobs for crash-safe durability.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DurabilityOptions {
    /// fsync the write-ahead log after every append. Off by default:
    /// the benchmark's crash model is torn files, not lost page cache,
    /// and per-append fsync dominates insert latency.
    pub sync_each_append: bool,
}

/// Attached durability: the open WAL, the directory its snapshot lives
/// in, and the current generation — the stamp shared by the snapshot
/// and the WAL cut against it. (The fsync policy lives inside the
/// [`Wal`].)
pub(crate) struct DurabilityState {
    pub(crate) wal: Wal,
    dir: PathBuf,
    generation: u64,
}

/// An embedded spatial database instance under one [`EngineProfile`].
pub struct SpatialDb {
    profile: EngineProfile,
    pub(crate) catalog: Catalog,
    /// Behind its own `Arc` (like `metrics` and `txn`) because
    /// cached plans hold table adapters that probe it: an adapter that
    /// held the engine itself would make `statements` → plan → adapter →
    /// engine a cycle, and an engine that had run one cached SELECT
    /// would never be freed.
    pub(crate) indexes: Arc<RwLock<HashMap<String, TableIndexes>>>,
    pub(crate) use_spatial_index: RwLock<bool>,
    /// Raw statement text → fingerprint, normalized shape and, for a
    /// SELECT, its plan stamped with the DDL generation it was planned
    /// under (see [`crate::statement`]). Consulted before parsing. DML
    /// never clears it; a DDL change lazily stales every plan.
    pub(crate) statements: StatementCache,
    /// Intra-query worker threads for the morsel executor and parallel
    /// index builds. Defaults to the machine's available parallelism;
    /// `1` means fully serial execution.
    workers: std::sync::atomic::AtomicUsize,
    /// Crash-safe durability (snapshot + WAL), when attached.
    ///
    /// Lock order: this lock is always taken *before* `indexes`, the
    /// statement cache, or any heap lock, never after.
    pub(crate) durability: RwLock<Option<DurabilityState>>,
    /// Engine-wide observability registry: every counter and stage
    /// histogram this instance records into, shared with the executor,
    /// the WAL, and the provider adapters.
    pub(crate) metrics: Arc<EngineMetrics>,
    /// Always-on flight recorder: the last N completed query traces.
    pub(crate) recorder: FlightRecorder,
    /// Threshold-gated view of the same stream: only slow queries.
    pub(crate) slow_log: SlowQueryLog,
    /// Per-fingerprint rolling statistics (`pg_stat_statements`-style).
    pub(crate) query_stats: QueryStatsTable,
    /// Prepared-geometry cache shared with the executor's refine stage,
    /// keyed by heap-row identity. Row slots are never reused and
    /// entries pin the rows they were built from, so DML cannot
    /// invalidate them — the cache survives INSERT/UPDATE/DELETE and is
    /// only cleared on index/table drops (memory hygiene) and explicit
    /// cold runs.
    pub(crate) prepared_cache: Arc<PreparedCache>,
    /// Commit generation, writer lock, snapshot registry, reclaim queue
    /// and group commit: everything a write transaction goes through.
    ///
    /// Lock order: `durability` (read) before the writer lock before
    /// `indexes`/heap locks.
    pub(crate) txn: Arc<Transactions>,
    /// Bumped by every DDL change (create/drop table or index, planner
    /// toggles); stamps cached plans.
    pub(crate) ddl_gen: AtomicU64,
    /// In-flight statements, keyed by a monotone session id — the rows
    /// of `jp_sessions`: the text (its first 512 bytes) and when it
    /// began. Entries live for the duration of one `execute` call.
    pub(crate) sessions: Mutex<HashMap<u64, (String, Instant)>>,
    /// Monotone id feeding the session registry.
    pub(crate) session_seq: AtomicU64,
    /// Time-series ring of whole-engine metrics snapshots sampled at a
    /// configurable minimum interval — the rows of `jp_metrics_history`.
    pub(crate) history: MetricsHistory,
}

/// Traces retained by the default flight recorder.
pub const FLIGHT_RECORDER_CAPACITY: usize = 256;
/// Slow traces retained by the default slow-query log.
pub const SLOW_LOG_CAPACITY: usize = 64;
/// Default slow-query threshold. Warm micro queries run in microseconds
/// to low milliseconds, so 100 ms marks genuinely pathological
/// statements without admitting ordinary cold-cache noise.
pub const SLOW_QUERY_THRESHOLD: Duration = Duration::from_millis(100);
/// Distinct statement shapes tracked by the fingerprint stats table.
pub const QUERY_STATS_CAPACITY: usize = 512;
/// Metrics snapshots retained by the `jp_metrics_history` ring.
pub const METRICS_HISTORY_CAPACITY: usize = 64;
/// Default minimum interval between metrics-history points.
pub const METRICS_HISTORY_INTERVAL: Duration = Duration::from_secs(1);

impl SpatialDb {
    /// Creates an empty database under the given profile.
    pub fn new(profile: EngineProfile) -> SpatialDb {
        let metrics = Arc::new(EngineMetrics::new());
        SpatialDb {
            profile,
            catalog: Catalog::new(),
            indexes: Arc::new(RwLock::new(HashMap::new())),
            use_spatial_index: RwLock::new(true),
            statements: StatementCache::default(),
            workers: std::sync::atomic::AtomicUsize::new(default_workers()),
            durability: RwLock::new(None),
            txn: Arc::new(Transactions::new(metrics.clone())),
            metrics,
            recorder: FlightRecorder::new(FLIGHT_RECORDER_CAPACITY),
            slow_log: SlowQueryLog::new(SLOW_LOG_CAPACITY, SLOW_QUERY_THRESHOLD),
            query_stats: QueryStatsTable::new(QUERY_STATS_CAPACITY),
            prepared_cache: Arc::new(PreparedCache::new()),
            ddl_gen: AtomicU64::new(0),
            sessions: Mutex::new(HashMap::new()),
            session_seq: AtomicU64::new(0),
            history: MetricsHistory::new(METRICS_HISTORY_CAPACITY, METRICS_HISTORY_INTERVAL),
        }
    }

    /// Opens (or creates) a crash-safe database under `dir`: loads the
    /// atomic snapshot if one exists and replays every intact
    /// write-ahead-log record on top of it. When replay applied a record,
    /// or the directory held no snapshot, it then checkpoints — folding
    /// the replayed tail into a fresh snapshot and truncating the log —
    /// so recovery is idempotent. When there was nothing to fold (a log
    /// with no intact record, no log, a torn log header, or a stale log
    /// of another generation) the snapshot on disk already *is* the
    /// state: it is kept as it is, not rewritten, and a fresh log is
    /// created at its generation. `profile` is used only when the
    /// directory holds no snapshot yet; otherwise the stored profile
    /// wins.
    ///
    /// A crash at *any* byte offset of a snapshot save or WAL append
    /// leaves this returning a consistent state: the snapshot is replaced
    /// atomically (old or new, never torn), a torn or bit-flipped WAL
    /// tail is detected by its checksum and dropped, and a WAL whose
    /// generation does not match the snapshot's (a crash between a
    /// checkpoint's snapshot rename and its log truncation) is discarded
    /// rather than replayed — its records are already in the snapshot.
    pub fn open_durable(
        dir: impl AsRef<Path>,
        profile: EngineProfile,
        opts: DurabilityOptions,
    ) -> crate::Result<Arc<SpatialDb>> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)
            .map_err(|e| EngineError::Persist(format!("create durability dir: {e}")))?;
        let snap = dir.join(SNAPSHOT_FILE);
        let had_snapshot = snap.exists();
        let (db, snap_gen) = if had_snapshot {
            SpatialDb::open_gen(&snap)?
        } else {
            (Arc::new(SpatialDb::new(profile)), 0)
        };
        let replay = Wal::replay(dir.join(WAL_FILE))?;
        let fold = replay.generation == snap_gen && !replay.records.is_empty();
        if fold {
            for rec in replay.records {
                db.apply_wal_record(rec)?;
            }
        }
        let gen = if had_snapshot && !fold {
            snap_gen
        } else {
            // Checkpoint: replayed writes become part of the snapshot and
            // the log restarts empty. The snapshot (at the next
            // generation) lands first, so a crash before the fresh WAL
            // exists leaves a stale log whose generation no longer
            // matches — harmless.
            let gen = snap_gen.max(replay.generation) + 1;
            db.save_gen(&snap, gen)?;
            gen
        };
        // Truncates whatever log was there. Every crash state of this
        // (empty file, partial header) replays to zero records, which
        // the next open again reads as "nothing to fold".
        let mut wal = Wal::create(dir.join(WAL_FILE), opts.sync_each_append, gen)?;
        wal.set_metrics(db.metrics.clone());
        *db.durability.write() =
            Some(DurabilityState { wal, dir: dir.to_path_buf(), generation: gen });
        Ok(db)
    }

    /// Attaches durability to an already-loaded database: writes a
    /// snapshot under `dir` and opens a fresh WAL that every subsequent
    /// `CREATE TABLE`, `INSERT` and `CREATE INDEX` appends to. `None`
    /// detaches, returning the instance to purely in-memory operation.
    pub fn set_durability(&self, dir: Option<&Path>, opts: DurabilityOptions) -> crate::Result<()> {
        match dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)
                    .map_err(|e| EngineError::Persist(format!("create durability dir: {e}")))?;
                // Take the write lock first so no write sneaks between
                // the snapshot and the fresh log.
                let mut guard = self.durability.write();
                // Stamp past anything already in the directory, so that
                // a crash between the snapshot and the fresh WAL cannot
                // leave a stale log whose generation collides with the
                // new snapshot's.
                let snap = dir.join(SNAPSHOT_FILE);
                let gen = SpatialDb::peek_snapshot_generation(&snap)
                    .max(Wal::peek_generation(dir.join(WAL_FILE)))
                    + 1;
                self.save_gen(&snap, gen)?;
                let mut wal = Wal::create(dir.join(WAL_FILE), opts.sync_each_append, gen)?;
                wal.set_metrics(self.metrics.clone());
                *guard = Some(DurabilityState { wal, dir: dir.to_path_buf(), generation: gen });
            }
            None => *self.durability.write() = None,
        }
        Ok(())
    }

    /// The durability directory, when durability is attached.
    pub fn durability_dir(&self) -> Option<PathBuf> {
        self.durability.read().as_ref().map(|d| d.dir.clone())
    }

    /// Folds all logged writes into a fresh atomic snapshot and truncates
    /// the WAL. A no-op without attached durability.
    ///
    /// Runs automatically after `DROP TABLE` and index drops: drops have
    /// no WAL record shape, so the snapshot is re-cut instead. (DML no
    /// longer needs this — `INSERT`, `DELETE` and `UPDATE` all log
    /// records and commit through the group pipeline.)
    ///
    /// Crash-atomic: the new snapshot carries the next generation and
    /// replaces the old one atomically *before* the log is truncated to
    /// that same generation. A crash between the two leaves the new
    /// snapshot next to the old log — whose generation no longer
    /// matches, so recovery discards it instead of replaying records
    /// the snapshot already contains.
    pub fn checkpoint(&self) -> crate::Result<()> {
        let mut guard = self.durability.write();
        if let Some(d) = guard.as_mut() {
            // The writer lock keeps a mid-apply (unpublished) statement
            // out of the snapshot; the durability write lock above
            // already excludes committed-but-unsynced frames, since
            // committing sessions hold the read side end to end.
            let writers = self.txn.lock_writers(TxnSite::Checkpoint);
            // A checkpoint is a natural vacuum point: any row whose
            // death no pinned snapshot can still see is reclaimed now,
            // so the snapshot being cut never re-persists it.
            self.vacuum(&writers)?;
            let gen = d.generation + 1;
            self.save_gen(d.dir.join(SNAPSHOT_FILE), gen)?;
            d.wal.reset(gen)?;
            d.generation = gen;
        }
        Ok(())
    }

    /// Applies one replayed WAL record. Replay runs before a WAL is
    /// attached and before any concurrent session exists, so records
    /// apply through unlogged, generation-free paths (rows are reborn
    /// visible-everywhere; the snapshot that follows settles them).
    fn apply_wal_record(self: &Arc<Self>, rec: WalRecord) -> crate::Result<()> {
        match rec {
            WalRecord::CreateTable { name, columns } => self.create_table(&name, columns),
            WalRecord::CreateSpatialIndex { table, column } => {
                self.create_spatial_index(&table, &column)
            }
            WalRecord::CreateOrderedIndex { table, column } => {
                self.create_ordered_index(&table, &column)
            }
            WalRecord::InsertAt { table, id, row } => self.replay_insert_at(&table, id, row),
            WalRecord::DeleteId { table, id } => self.replay_delete_id(&table, id),
        }
    }

    /// Sets the intra-query worker count. `0` restores the default
    /// (available parallelism); `1` forces serial execution. Results are
    /// bit-identical at any setting — only wall-clock changes.
    pub fn set_workers(&self, workers: usize) {
        let w = if workers == 0 { default_workers() } else { workers };
        self.workers.store(w, std::sync::atomic::Ordering::Relaxed);
    }

    /// The current intra-query worker count.
    pub fn workers(&self) -> usize {
        self.workers.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The engine's observability registry (shared, always-on).
    pub fn metrics(&self) -> &Arc<EngineMetrics> {
        &self.metrics
    }

    /// A point-in-time copy of every engine counter, gauge and
    /// histogram. Gauges (vacuum backlog, pinned snapshots, oldest-pin
    /// age) are refreshed from engine state first.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.refresh_gauges();
        self.metrics.snapshot()
    }

    /// Refreshes the point-in-time gauges from engine state: the vacuum
    /// backlog, the number of distinct pinned snapshot generations, the
    /// age of the oldest pin, and the buffer pool's frame occupancy and
    /// lifetime counters. Two short mutex acquisitions.
    pub(crate) fn refresh_gauges(&self) {
        self.metrics.pending_reclaim_rows.set(self.txn.pending_reclaim_len() as u64);
        let pins = self.txn.snapshot_pins();
        self.metrics.active_snapshots.set(pins.len() as u64);
        let oldest = pins.iter().map(|(.., age)| *age).max().unwrap_or_default();
        self.metrics.oldest_snapshot_age_us.set(oldest.as_micros().min(u64::MAX as u128) as u64);
        let pool = self.catalog.pool().stats();
        self.metrics.pool_capacity_frames.set(pool.capacity_frames);
        self.metrics.pool_resident_frames.set(pool.resident_frames);
        self.metrics.pool_pinned_frames.set(pool.pinned_frames);
        self.metrics.pool_decoded_rows.set(pool.decoded_rows);
        self.metrics.pool_pin_hits.set(pool.pin_hits);
        self.metrics.pool_cold_pins.set(pool.cold_pins);
        self.metrics.pool_evictions.set(pool.evictions);
        self.metrics.pool_dirty_writebacks.set(pool.dirty_writebacks);
    }

    /// Prometheus text-exposition rendering of the current metrics
    /// (gauges refreshed), with every series labeled by the engine
    /// profile name. The output passes
    /// [`jackpine_obs::lint_prometheus_text`].
    pub fn prometheus_text(&self) -> String {
        jackpine_obs::prometheus_text(&[(self.profile.name(), &self.metrics_snapshot())])
    }

    /// The retained metrics-history points, oldest first — the rows of
    /// `jp_metrics_history`. Points are sampled after recorded
    /// statements, at most one per history interval.
    pub fn metrics_history(&self) -> Vec<HistoryPoint> {
        self.history.recent()
    }

    /// Sets the minimum interval between metrics-history points.
    /// `Duration::ZERO` samples after every recorded statement.
    pub fn set_metrics_history_interval(&self, interval: Duration) {
        self.history.set_interval(interval);
    }

    /// WAL status when durability is attached: `(generation,
    /// sync_each_append)` — the scalar half of `jp_wal`.
    pub fn wal_status(&self) -> Option<(u64, bool)> {
        self.durability.read().as_ref().map(|d| (d.generation, d.wal.sync_enabled()))
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

    /// Creates a table programmatically. Names with the `jp_` prefix are
    /// reserved for the system catalog.
    pub fn create_table(&self, name: &str, columns: Vec<ColumnDef>) -> crate::Result<()> {
        if syscat::is_system_table(name) {
            return Err(EngineError::Storage(StorageError::TableExists(format!(
                "{name} (the jp_ prefix is reserved for the system catalog)"
            ))));
        }
        // Held across apply + log so a concurrent checkpoint cannot cut
        // its snapshot between the two (which would replay this create
        // twice after a crash).
        let durability = self.durability.read();
        let _writers = self.txn.lock_writers(TxnSite::Ddl);
        let logged = durability.as_ref().map(|_| columns.clone());
        let schema = Schema::new(columns)?;
        self.catalog.create_table(name, schema)?;
        self.indexes.write().insert(name.to_ascii_lowercase(), TableIndexes::default());
        self.bump_ddl_gen();
        if let (Some(d), Some(columns)) = (durability.as_ref(), logged) {
            d.wal.append(&WalRecord::CreateTable { name: name.to_string(), columns })?;
        }
        Ok(())
    }

    /// Inserts a row programmatically, maintaining any indexes. One
    /// single-row write transaction: staged to the WAL before it is
    /// published, fsynced through the group-commit pipeline.
    pub fn insert_row(&self, table: &str, row: Row) -> crate::Result<RowId> {
        let mut txn = WriteTxn::begin(self, TxnSite::Insert, table)?;
        let id = txn.insert(row)?;
        txn.commit()?;
        Ok(id)
    }

    /// Adds `row`'s entries to every index on `table` (`present`), or
    /// removes them: one walk, so what a rollback strips is what the
    /// insert put there.
    pub(crate) fn set_index_entries(&self, table: &str, id: RowId, row: &Row, present: bool) {
        let mut indexes = self.indexes.write();
        let Some(ti) = indexes.get_mut(&table.to_ascii_lowercase()) else { return };
        for (col, idx) in ti.spatial.iter_mut() {
            match row.get(*col) {
                Some(Value::Geom(g)) if present => idx.insert(g.envelope(), id),
                Some(Value::Geom(g)) => idx.remove(&g.envelope(), id),
                _ => {}
            }
        }
        for (col, idx) in ti.ordered.iter_mut() {
            match row.get(*col).and_then(Key::from_value) {
                Some(k) if present => idx.insert(k, id),
                Some(k) => drop(idx.remove(&k, |v| *v == id)),
                None => {}
            }
        }
    }

    /// Removes the index entries of the row at `id`, stored as `tuple`,
    /// taking them off its bytes as [`IndexSeeds::add`] does.
    pub(crate) fn unindex_tuple(&self, table: &str, id: RowId, tuple: &[u8]) -> crate::Result<()> {
        let mut indexes = self.indexes.write();
        let Some(ti) = indexes.get_mut(&table.to_ascii_lowercase()) else { return Ok(()) };
        for (col, idx) in ti.spatial.iter_mut() {
            if let Some(env) = tuple_envelope(tuple, *col)? {
                idx.remove(&env, id);
            }
        }
        for (col, idx) in ti.ordered.iter_mut() {
            if let Some(k) = tuple_key(tuple, *col)? {
                idx.remove(&k, |v| *v == id);
            }
        }
        Ok(())
    }

    /// The newest published commit generation (diagnostics and tests).
    pub fn commit_generation(&self) -> u64 {
        self.txn.generation()
    }

    /// Currently pinned reader snapshots (diagnostics and tests).
    pub fn active_snapshot_count(&self) -> usize {
        self.txn.snapshot_pins().iter().map(|(_, readers, _)| readers).sum()
    }

    /// Currently pinned snapshot generations as `(generation, readers,
    /// age)` triples sorted by generation — the rows of `jp_snapshots`.
    pub fn snapshot_pins(&self) -> Vec<(u64, usize, Duration)> {
        self.txn.snapshot_pins()
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

    /// Test-only fault injection: makes every subsequent WAL append (and
    /// staged frame write) fail, to exercise commit rollback.
    #[doc(hidden)]
    pub fn fail_wal_appends(&self, fail: bool) {
        if let Some(d) = self.durability.read().as_ref() {
            d.wal.set_fail_appends(fail);
        }
    }

    /// Builds a spatial index on a geometry column. Uses R\*-tree STR
    /// bulk loading or grid construction depending on the profile.
    pub fn create_spatial_index(&self, table: &str, column: &str) -> crate::Result<()> {
        self.create_index(table, column, true)
    }

    /// Builds an ordered (attribute) index on an integer or text column.
    pub fn create_ordered_index(&self, table: &str, column: &str) -> crate::Result<()> {
        self.create_index(table, column, false)
    }

    /// `CREATE INDEX` of either kind: seeds gathered by one heap scan,
    /// installed, logged.
    fn create_index(&self, table: &str, column: &str, spatial: bool) -> crate::Result<()> {
        let durability = self.durability.read();
        let _writers = self.txn.lock_writers(TxnSite::Ddl);
        let t = self.catalog.table(table)?;
        let col = [t.schema().column_index(column)?];
        let (spatial_cols, ordered_cols): (&[usize], &[usize]) =
            if spatial { (&col, &[]) } else { (&[], &col) };
        let mut seeds = IndexSeeds::new(&t, spatial_cols, ordered_cols, t.heap.len())?;
        // Every physically-present row, logically-deleted ones included:
        // an older pinned snapshot that still sees such a row must be
        // able to find it through the new index (probes post-filter by
        // visibility). From the tuple bytes: a build decodes no row.
        t.heap.scan_tuples(&t.heap.row_ids_any(), |id, tuple| seeds.add(id, tuple))?;
        self.install_indexes(&t, seeds)?;
        if let Some(d) = durability.as_ref() {
            let (table, column) = (table.to_string(), column.to_string());
            d.wal.append(&if spatial {
                WalRecord::CreateSpatialIndex { table, column }
            } else {
                WalRecord::CreateOrderedIndex { table, column }
            })?;
        }
        Ok(())
    }

    /// Builds an index from each of `seeds` (the bulk path) and registers
    /// them on `t`.
    pub(crate) fn install_indexes(&self, t: &Table, seeds: IndexSeeds) -> crate::Result<()> {
        let built: Vec<(usize, SpatialIdx)> = seeds
            .spatial
            .into_iter()
            .map(|(col, items)| (col, self.build_spatial_index(&t.name, col, items)))
            .collect();
        let exists = |kind: &str, col: usize| {
            let column = &t.schema().columns()[col].name;
            EngineError::Index(format!("{kind} index on '{}.{column}' already exists", t.name))
        };
        let mut indexes = self.indexes.write();
        let ti = indexes.entry(t.name.to_ascii_lowercase()).or_default();
        for (col, idx) in built {
            if ti.spatial.insert(col, idx).is_some() {
                return Err(exists("spatial", col));
            }
        }
        for (col, idx) in seeds.ordered {
            if ti.ordered.insert(col, idx).is_some() {
                return Err(exists("ordered", col));
            }
        }
        drop(indexes);
        self.bump_ddl_gen();
        Ok(())
    }

    fn build_spatial_index(
        &self,
        table: &str,
        col: usize,
        items: Vec<(Envelope, RowId)>,
    ) -> SpatialIdx {
        if self.profile.uses_grid_index() {
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
            let mut tree = RTree::bulk_load_parallel(RTreeConfig::default(), items, self.workers());
            // Under a bounded pool, leaves page through it from the
            // start: inner nodes stay resident, leaf probes pin pool
            // pages and show up in the pool's hit/miss counters.
            let pool = self.catalog.pool();
            if pool.capacity_frames() != 0 {
                let file = pool.register(&leaf_file_name(table, col));
                tree.attach_pager(Arc::new(PoolLeafPager { pool: pool.clone(), file }));
                tree.spill_leaves();
            }
            SpatialIdx::Rtree(tree)
        }
    }

    /// Drops the spatial index on `table.column`. Errors if no such
    /// index exists. Invalidates cached plans and re-cuts the durable
    /// snapshot, so recovery cannot resurrect the index from a logged
    /// `CREATE INDEX` record.
    pub fn drop_spatial_index(&self, table: &str, column: &str) -> crate::Result<()> {
        self.drop_index(table, column, true)
    }

    /// Drops the ordered index on `table.column`. Errors if no such
    /// index exists. Same invalidation rules as
    /// [`SpatialDb::drop_spatial_index`].
    pub fn drop_ordered_index(&self, table: &str, column: &str) -> crate::Result<()> {
        self.drop_index(table, column, false)
    }

    /// `DROP INDEX` of either kind.
    fn drop_index(&self, table: &str, column: &str, spatial: bool) -> crate::Result<()> {
        let t = self.catalog.table(table)?;
        let col = t.schema().column_index(column)?;
        // Both kinds' slots, so the index is freed after the locks are.
        let removed = {
            let _writers = self.txn.lock_writers(TxnSite::Ddl);
            let mut indexes = self.indexes.write();
            indexes.get_mut(&table.to_ascii_lowercase()).map(|ti| {
                if spatial {
                    (ti.spatial.remove(&col), None)
                } else {
                    (None, ti.ordered.remove(&col))
                }
            })
        };
        if !matches!(removed, Some((Some(_), _) | (_, Some(_)))) {
            let kind = if spatial { "spatial" } else { "ordered" };
            return Err(EngineError::Index(format!("no {kind} index on '{table}.{column}'")));
        }
        self.bump_ddl_gen();
        self.prepared_cache.clear();
        self.checkpoint()
    }

    /// The flight recorder itself (capacity/eviction accounting).
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// The most recent completed traces, oldest first, up to the
    /// recorder capacity. Traces stay in the ring.
    pub fn recent_traces(&self) -> Vec<Arc<QueryTrace>> {
        self.recorder.recent()
    }

    /// Removes and returns every retained trace, oldest first.
    pub fn drain_traces(&self) -> Vec<Arc<QueryTrace>> {
        self.recorder.drain()
    }

    /// Retained slow-query traces, oldest first.
    pub fn slow_queries(&self) -> Vec<Arc<QueryTrace>> {
        self.slow_log.recent()
    }

    /// The current slow-query threshold.
    pub fn slow_query_threshold(&self) -> Duration {
        self.slow_log.threshold()
    }

    /// Sets the slow-query threshold. `Duration::ZERO` logs everything.
    pub fn set_slow_query_threshold(&self, threshold: Duration) {
        self.slow_log.set_threshold(threshold);
    }

    /// The top `k` statement shapes by execution count, with rolling
    /// latency/row/error statistics per fingerprint.
    pub fn query_stats(&self, k: usize) -> Vec<FingerprintStats> {
        self.query_stats.top(k)
    }

    /// Drops everything a cold run must not find warm. The buffer pool
    /// writes back its dirty frames, drops every unpinned one, and with
    /// them every row and quad decoded from a page (a frame that stays
    /// pinned loses those too); spilled R-tree leaves lose their decoded
    /// images — so the next probe of any page or leaf genuinely goes
    /// back to the page store. Cached geometry preparations go as well:
    /// they hold the decoded rows they were built from. So does the
    /// statement cache — a cold run that skipped it would still be warm
    /// where it counts for short queries.
    pub fn clear_caches(&self) {
        self.prepared_cache.clear();
        self.statements.clear();
        let indexes = self.indexes.read();
        for ti in indexes.values() {
            for idx in ti.spatial.values() {
                if let SpatialIdx::Rtree(tree) = idx {
                    tree.clear_leaf_cache();
                }
            }
        }
        drop(indexes);
        self.catalog.pool().clear();
    }

    /// Sizes the shared buffer pool: heaps and spilled index leaves
    /// compete for `bytes / PAGE_SIZE` frames (`0` = unbounded, the
    /// default). Shrinking evicts unpinned frames immediately; R-tree
    /// leaves are spilled into (or faulted back out of) the pool to
    /// match the new budget.
    pub fn set_pool_bytes(&self, bytes: usize) {
        self.catalog.pool().set_capacity_bytes(bytes);
        self.respill_indexes();
    }

    /// A point-in-time copy of the buffer pool's counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.catalog.pool().stats()
    }

    /// Brings every R-tree's leaf residency in line with the pool
    /// budget: spilled under a bounded pool, fully resident otherwise.
    fn respill_indexes(&self) {
        let pool = self.catalog.pool().clone();
        let bounded = pool.capacity_frames() != 0;
        let mut indexes = self.indexes.write();
        for (tname, ti) in indexes.iter_mut() {
            for (col, idx) in ti.spatial.iter_mut() {
                if let SpatialIdx::Rtree(tree) = idx {
                    if bounded {
                        if !tree.has_pager() {
                            let file = pool.register(&leaf_file_name(tname, *col));
                            tree.attach_pager(Arc::new(PoolLeafPager { pool: pool.clone(), file }));
                        }
                        tree.spill_leaves();
                    } else {
                        tree.unspill();
                    }
                }
            }
        }
    }

    /// Flushes dirty pool frames and reclaims what no snapshot needs.
    pub fn close(&self) -> crate::Result<()> {
        {
            let writers = self.txn.lock_writers(TxnSite::Checkpoint);
            self.vacuum(&writers)?;
        }
        self.catalog.pool().flush().map_err(|e| EngineError::Persist(format!("pool flush: {e}")))
    }

    /// Live row ids of `table`, in heap order (diagnostics and tests —
    /// recovery equivalence asserts on these).
    pub fn table_row_ids(&self, table: &str) -> crate::Result<Vec<RowId>> {
        Ok(self.catalog.table(table)?.heap.row_ids())
    }

    /// The underlying catalog table (for loaders and tests).
    pub fn table(&self, name: &str) -> crate::Result<Arc<Table>> {
        Ok(self.catalog.table(name)?)
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.catalog.table_names()
    }

    /// Column indices carrying a (spatial, ordered) index on `table`.
    pub(crate) fn index_definitions(&self, table: &str) -> (Vec<usize>, Vec<usize>) {
        let indexes = self.indexes.read();
        match indexes.get(&table.to_ascii_lowercase()) {
            Some(ti) => {
                let mut s: Vec<usize> = ti.spatial.keys().copied().collect();
                let mut o: Vec<usize> = ti.ordered.keys().copied().collect();
                s.sort_unstable();
                o.sort_unstable();
                (s, o)
            }
            None => (Vec::new(), Vec::new()),
        }
    }
}

/// Default intra-query worker count: the machine's available parallelism.
fn default_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
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
        let table = self.db.catalog.table(name).map_err(SqlError::from)?;
        Ok(Arc::new(DbTableAdapter {
            metrics: self.db.metrics.clone(),
            indexes: self.db.indexes.clone(),
            txn: self.db.txn.clone(),
            key: name.to_ascii_lowercase(),
            table,
            pinned: None,
        }))
    }
}

/// One table as the planner and executor see it. Plans holding these
/// sit in the engine's statement cache, so an adapter shares the parts of the
/// engine it reads — never the engine (see [`SpatialDb`]'s `indexes`).
struct DbTableAdapter {
    metrics: Arc<EngineMetrics>,
    indexes: Arc<RwLock<HashMap<String, TableIndexes>>>,
    txn: Arc<Transactions>,
    key: String,
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

    fn fetch_many(&self, ids: &[RowId]) -> jackpine_sqlmini::Result<Vec<Arc<Row>>> {
        self.metrics.heap_rows_fetched.add(ids.len() as u64);
        self.table.heap.get_many(ids).map_err(SqlError::from)
    }

    fn spatial_candidates(&self, col: usize, env: &Envelope) -> Option<Vec<RowId>> {
        // Epoch before the probe: a vacuum racing the probe must be
        // visible to the visibility filter below.
        let epoch = self.table.heap.reclaim_epoch();
        let indexes = self.indexes.read();
        let ti = indexes.get(&self.key)?;
        let (mut ids, stats) = ti.spatial.get(&col)?.window_probe(env);
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
        let indexes = self.indexes.read();
        let ti = indexes.get(&self.key)?;
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
        let indexes = self.indexes.read();
        let ti = indexes.get(&self.key)?;
        let idx = ti.spatial.get(&col)?;
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
        Some(Arc::new(DbTableAdapter {
            metrics: self.metrics.clone(),
            indexes: self.indexes.clone(),
            txn: self.txn.clone(),
            key: self.key.clone(),
            table: self.table.clone(),
            pinned: Some(snap.clone()),
        }))
    }

    fn fetch_mbrs(&self, col: usize, ids: &[RowId]) -> Option<Vec<Option<[f64; 4]>>> {
        // Served from the quads kept in the rows' pool frames. Not
        // counted as heap row fetches: the rows themselves were already
        // fetched (and counted) by the scan feeding the filter. Any
        // storage error falls back to the executor's row-walk gather,
        // which surfaces errors through the normal fetch path.
        self.table.heap.mbrs(col, ids).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
mod prepared_cache_tests {
    use super::*;

    /// Overlapping unit-height rectangles along the x axis, spatially
    /// indexed, so a self-join refines many polygon-polygon pairs.
    fn db_with_polys() -> Arc<SpatialDb> {
        let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
        db.execute("CREATE TABLE lots (id BIGINT, geom GEOMETRY)").unwrap();
        for i in 0..10 {
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

    const JOIN: &str = "SELECT COUNT(*) FROM lots a, lots b WHERE ST_Intersects(a.geom, b.geom)";

    #[test]
    fn join_populates_cache() {
        let db = db_with_polys();
        db.execute(JOIN).unwrap();
        assert!(!db.prepared_cache.is_empty(), "spatial join must populate the cache");
        let m = db.metrics_snapshot();
        assert!(m.counter("prepared_cache_hits") > 0, "inner geometries must be reused");
    }

    #[test]
    fn dml_keeps_cache_index_drop_invalidates() {
        let db = db_with_polys();
        let populate = |db: &Arc<SpatialDb>| {
            db.execute(JOIN).unwrap();
            assert!(!db.prepared_cache.is_empty(), "query must repopulate the cache");
        };

        // Row ids are never reused, and UPDATE reinserts under a fresh
        // id, so cached preparations stay valid across every DML shape
        // — the cache must survive, not be wiped.
        populate(&db);
        let warm = db.prepared_cache.len();
        db.execute("INSERT INTO lots VALUES (100, ST_GeomFromText('POINT (50 50)'))").unwrap();
        assert_eq!(db.prepared_cache.len(), warm, "INSERT must not clear the cache");

        db.execute("UPDATE lots SET geom = ST_Translate(geom, 20, 0) WHERE id = 100").unwrap();
        assert_eq!(db.prepared_cache.len(), warm, "UPDATE must not clear the cache");

        db.execute("DELETE FROM lots WHERE id = 100").unwrap();
        assert_eq!(db.prepared_cache.len(), warm, "DELETE must not clear the cache");

        // Results stay correct against the surviving cache.
        populate(&db);

        db.drop_spatial_index("lots", "geom").unwrap();
        assert_eq!(db.prepared_cache.len(), 0, "index drop must invalidate");

        // Still correct (and repopulating) without the index.
        populate(&db);
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
}

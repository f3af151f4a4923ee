//! Plan execution: expression evaluation and the physical operators.
//!
//! The executor is **morsel-driven**: operators over large inputs split
//! their work into fixed-size morsels ([`MORSEL_SIZE`] rows) dispatched
//! to a scoped worker pool (`std::thread::scope`). Worker count comes
//! from [`ExecOptions`]; `workers = 1` runs everything on the calling
//! thread. Results are collected per-morsel and reassembled in morsel
//! order, so **output is bit-identical for every worker count** — the
//! equivalence tests rely on that.
//!
//! Rows flow between operators as [`LazyRow`]s — late materialization:
//! scans pass `Arc`-counted handles to heap rows instead of deep-cloning
//! values at every operator boundary, joins concatenate handle lists,
//! and only `Project`/`Aggregate` outputs (and the final result set)
//! materialize actual tuples.

use crate::ast::BinOp;
use crate::batch::{MbrColumn, MbrQuad, DEFAULT_BATCH_SIZE};
use crate::functions::{self, FunctionMode};
use crate::plan::{AggExpr, AggOutput, BoundExpr, PlanNode, PlannedSelect};
use crate::prepared::PreparedCache;
use crate::provider::{SnapshotHandle, TableProvider};
use crate::{Result, SqlError};
use jackpine_geom::{Envelope, Geometry};
use jackpine_obs::{EngineMetrics, Stage};
use jackpine_storage::{Row, Value};
use jackpine_topo::{PredicateKind, PreparedGeometry};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows per morsel claimed by one worker at a time: exactly one filter
/// batch, so batch boundaries are a pure function of row position —
/// identical at every worker count.
pub const MORSEL_SIZE: usize = DEFAULT_BATCH_SIZE;

/// Input rows at or below which dispatch stays serial, regardless of the
/// worker setting: thread spawn plus result stitching costs more than
/// the parallel win on small inputs (a few-thousand-row filter is
/// measurably *slower* at 4 workers than at 1).
pub const MIN_PARALLEL_ROWS: usize = 4 * MORSEL_SIZE;

/// Upper bound on speculative `Vec` capacity hints (rows). Join outputs
/// can legitimately exceed this; it only caps the *pre-allocation*, so a
/// hostile or mis-estimated cross product cannot OOM up front.
const MAX_CAPACITY_HINT: usize = 1 << 20;

/// The materialized result of a query.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultSet {
    /// Output column labels.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
}

impl ResultSet {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no rows were produced.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The single scalar of a one-row, one-column result (e.g. `COUNT(*)`).
    pub fn scalar(&self) -> Option<&Value> {
        match (self.rows.len(), self.columns.len()) {
            (1, 1) => self.rows[0].first(),
            _ => None,
        }
    }
}

/// Executor knobs.
#[derive(Clone, Debug, Default)]
pub struct ExecOptions {
    /// Worker threads for morsel dispatch; `0` and `1` = serial execution.
    pub workers: usize,
    /// Metrics registry to record stage timings, refine counters and
    /// morsel dispatch into; `None` executes uninstrumented.
    pub metrics: Option<Arc<EngineMetrics>>,
    /// Prepared-geometry cache for the refine stage. The engine passes
    /// its long-lived cache; the default is an empty one that lives for
    /// the statement.
    pub prepared: Arc<PreparedCache>,
    /// The statement snapshot, when the engine pinned one. Every
    /// snapshot-capable provider in the plan is resolved to a pinned
    /// copy before execution starts, so all reads — scans, index
    /// probes, join-side fetches — observe one commit generation.
    /// `None` reads providers live (tests and embedded use).
    pub snapshot: Option<Arc<dyn SnapshotHandle>>,
}

/// Executes a planned `SELECT` with explicit executor options.
pub fn execute_with(plan: &PlannedSelect, opts: &ExecOptions) -> Result<ResultSet> {
    let ctx = ExecCtx {
        mode: plan.mode,
        workers: opts.workers.max(1),
        metrics: opts.metrics.clone(),
        prepared: opts.prepared.clone(),
        pins: build_pins(&plan.root, opts.snapshot.as_ref()),
    };
    let lazy = run(&plan.root, &ctx)?;
    // Final materialization: the only place surviving rows are deep-copied.
    let t0 = ctx.metrics.as_ref().map(|_| Instant::now());
    let rows =
        ctx.parallel_morsels(&lazy, |chunk| Ok(chunk.iter().map(LazyRow::materialize).collect()))?;
    if let (Some(m), Some(t0)) = (&ctx.metrics, t0) {
        m.record_stage(Stage::Materialize, t0.elapsed());
    }
    Ok(ResultSet { columns: plan.columns.clone(), rows })
}

// ---------------------------------------------------------------------------
// Late-materialized rows
// ---------------------------------------------------------------------------

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
    fn one(row: Arc<Row>) -> LazyRow {
        LazyRow::Handles(vec![row])
    }

    /// The row formed by `self`'s columns followed by `other`'s.
    fn join(&self, other: &LazyRow) -> LazyRow {
        match (self, other) {
            (LazyRow::Handles(a), LazyRow::Handles(b)) => {
                let mut parts = Vec::with_capacity(a.len() + b.len());
                parts.extend(a.iter().cloned());
                parts.extend(b.iter().cloned());
                LazyRow::Handles(parts)
            }
            _ => {
                let mut vals = self.materialize();
                vals.extend(self_extend(other));
                LazyRow::Owned(vals)
            }
        }
    }

    /// The row extended by one more table-row handle (index join probes).
    fn join_handle(&self, handle: Arc<Row>) -> LazyRow {
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
    fn col_part(&self, i: usize) -> Option<(&Arc<Row>, usize)> {
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
    fn materialize(&self) -> Vec<Value> {
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

fn self_extend(row: &LazyRow) -> Vec<Value> {
    row.materialize()
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
            LazyRow::Handles(parts) => {
                let mut i = i;
                for part in parts {
                    if i < part.len() {
                        return Some(&part[i]);
                    }
                    i -= part.len();
                }
                None
            }
            LazyRow::Owned(vals) => vals.get(i),
        }
    }
}

struct SliceView<'a>(&'a [Value]);

impl TupleView for SliceView<'_> {
    fn col(&self, i: usize) -> Option<&Value> {
        self.0.get(i)
    }
}

// ---------------------------------------------------------------------------
// Morsel dispatch
// ---------------------------------------------------------------------------

struct ExecCtx {
    mode: FunctionMode,
    workers: usize,
    metrics: Option<Arc<EngineMetrics>>,
    prepared: Arc<PreparedCache>,
    /// Plan-provider identity (thin `Arc` pointer) → its snapshot-pinned
    /// replacement. Built once per statement; empty when executing
    /// without a snapshot. Cached plans hold live providers, so pinning
    /// per execution is what lets one plan serve many snapshots.
    pins: HashMap<usize, Arc<dyn TableProvider>>,
}

/// Thin-pointer identity of a provider `Arc` (vtable discarded): the
/// pin-map key. A self-join shares one `Arc`, hence one pin.
fn provider_key(table: &Arc<dyn TableProvider>) -> usize {
    Arc::as_ptr(table) as *const () as usize
}

/// Resolves every distinct provider in the plan to its snapshot-pinned
/// copy. Providers that decline (`pin_snapshot` → `None`) are read live.
fn build_pins(
    root: &PlanNode,
    snapshot: Option<&Arc<dyn SnapshotHandle>>,
) -> HashMap<usize, Arc<dyn TableProvider>> {
    let mut pins = HashMap::new();
    if let Some(snap) = snapshot {
        let mut providers = Vec::new();
        root.collect_providers(&mut providers);
        for p in providers {
            let key = provider_key(p);
            if let std::collections::hash_map::Entry::Vacant(e) = pins.entry(key) {
                if let Some(pinned) = p.pin_snapshot(snap) {
                    e.insert(pinned);
                }
            }
        }
    }
    pins
}

impl ExecCtx {
    /// The provider to actually read from: the snapshot-pinned copy when
    /// the statement pinned one, otherwise `table` itself.
    fn src<'a>(&'a self, table: &'a Arc<dyn TableProvider>) -> &'a Arc<dyn TableProvider> {
        self.pins.get(&provider_key(table)).unwrap_or(table)
    }

    /// Runs `f`, recording its elapsed time as one sample of `stage` when
    /// metrics are attached — but only when `f` returns `Some`, so a query
    /// whose index was dropped does not report an `index_probe` stage for
    /// the sequential-scan fallback.
    fn stage_if_some<T>(&self, stage: Stage, f: impl FnOnce() -> Option<T>) -> Option<T> {
        match &self.metrics {
            Some(m) => {
                let t0 = Instant::now();
                let out = f();
                if out.is_some() {
                    m.record_stage(stage, t0.elapsed());
                }
                out
            }
            None => f(),
        }
    }

    /// Applies `f` to morsels of `items`, concatenating outputs in morsel
    /// order. With one worker — or at most [`MIN_PARALLEL_ROWS`] items,
    /// where dispatch overhead beats the win — this is a single direct
    /// call on the current thread; otherwise morsels are claimed by
    /// scoped worker threads off a shared counter. Morsel
    /// boundaries depend only on morsel size, and outputs are stitched by
    /// morsel index, so results are identical for any worker count.
    fn parallel_morsels<I, O>(
        &self,
        items: &[I],
        f: impl Fn(&[I]) -> Result<Vec<O>> + Sync,
    ) -> Result<Vec<O>>
    where
        I: Sync,
        O: Send,
    {
        self.parallel_morsels_indexed(items, |_, chunk| f(chunk))
    }

    /// [`parallel_morsels`](Self::parallel_morsels), with the morsel's
    /// global item offset passed to `f` — the vectorized filter uses it
    /// to index pre-gathered MBR columns.
    fn parallel_morsels_indexed<I, O>(
        &self,
        items: &[I],
        f: impl Fn(usize, &[I]) -> Result<Vec<O>> + Sync,
    ) -> Result<Vec<O>>
    where
        I: Sync,
        O: Send,
    {
        if self.workers <= 1 || items.len() <= MIN_PARALLEL_ROWS {
            return f(0, items);
        }
        let morsels: Vec<&[I]> = items.chunks(MORSEL_SIZE).collect();
        let nworkers = self.workers.min(morsels.len());
        let counter = AtomicUsize::new(0);
        let metrics = self.metrics.as_deref();
        let dispatch_start = Instant::now();
        let mut results: Vec<(usize, Result<Vec<O>>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..nworkers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let idx = counter.fetch_add(1, Ordering::Relaxed);
                            let Some(morsel) = morsels.get(idx) else {
                                break;
                            };
                            if let Some(m) = metrics {
                                // Queue wait: how long this morsel sat
                                // between dispatch start and its claim.
                                m.morsels_dispatched.incr();
                                m.morsel_wait_ns.record(
                                    dispatch_start.elapsed().as_nanos().min(u64::MAX as u128)
                                        as u64,
                                );
                            }
                            local.push((idx, f(idx * MORSEL_SIZE, morsel)));
                        }
                        local
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("morsel worker panicked")).collect()
        });
        results.sort_by_key(|(idx, _)| *idx);
        let mut out = Vec::with_capacity(items.len());
        for (_, r) in results {
            out.extend(r?);
        }
        Ok(out)
    }

    /// Recognizes the filter shape the vectorized path accelerates: a
    /// top-level `pred(x, y)` where `pred` is a named DE-9IM predicate
    /// under exact semantics and `x`/`y` are geometry columns or
    /// constant geometry expressions.
    /// Anything else returns `None` and evaluates generically.
    fn spatial_shape(&self, predicate: &BoundExpr) -> Option<SpatialShape> {
        if self.mode != FunctionMode::Exact {
            return None;
        }
        let BoundExpr::Func { name, args } = predicate else {
            return None;
        };
        let kind = PredicateKind::from_sql_name(&name.to_ascii_uppercase())?;
        let [a, b] = args.as_slice() else {
            return None;
        };
        let operand = |e: &BoundExpr| -> Option<ShapeOperand> {
            match e {
                BoundExpr::Column(i) => Some(ShapeOperand::Column(*i)),
                // A constant operand that fails to evaluate, or is not a
                // geometry, is left to the generic path — which raises
                // the error per row, or not at all over an empty input.
                e if e.is_constant() => match eval_const(e, FunctionMode::Exact) {
                    Ok(Value::Geom(g)) => Some(ShapeOperand::Constant(g)),
                    _ => None,
                },
                _ => None,
            }
        };
        Some(SpatialShape { kind, a: operand(a)?, b: operand(b)? })
    }
}

/// A recognized top-level spatial predicate: `kind(a, b)` over columns
/// and/or constant geometries.
struct SpatialShape {
    kind: PredicateKind,
    a: ShapeOperand,
    b: ShapeOperand,
}

enum ShapeOperand {
    /// Tuple column offset.
    Column(usize),
    /// Constant geometry, evaluated once at recognition.
    Constant(Geometry),
}

// ---------------------------------------------------------------------------
// Operators
// ---------------------------------------------------------------------------

fn run(node: &PlanNode, ctx: &ExecCtx) -> Result<Vec<LazyRow>> {
    let mode = ctx.mode;
    match node {
        PlanNode::SingleRow => Ok(vec![LazyRow::empty()]),
        PlanNode::Scan { table } => {
            let table = ctx.src(table);
            fetch_rows(table, table.row_ids(), ctx)
        }
        PlanNode::SpatialIndexScan { table, col, query, expand } => {
            let table = ctx.src(table);
            let env = probe_envelope(query, expand, mode)?;
            let ids = ctx.stage_if_some(Stage::IndexProbe, || table.spatial_candidates(*col, &env));
            match ids {
                Some(ids) => fetch_rows(table, ids, ctx),
                None => fetch_rows(table, table.row_ids(), ctx),
            }
        }
        PlanNode::OrderedIndexScan { table, col, key } => {
            let table = ctx.src(table);
            let key = eval_const(key, mode)?;
            let ids = ctx.stage_if_some(Stage::IndexProbe, || table.ordered_candidates(*col, &key));
            match ids {
                Some(ids) => fetch_rows(table, ids, ctx),
                None => fetch_rows(table, table.row_ids(), ctx),
            }
        }
        PlanNode::KnnScan { table, col, query, k } => {
            let table = ctx.src(table);
            let g = eval_const(query, mode)?;
            let geom = g
                .as_geom()
                .ok_or_else(|| SqlError::Type("k-NN query expression must be a geometry".into()))?;
            let center = geom
                .envelope()
                .center()
                .ok_or_else(|| SqlError::Type("k-NN query geometry is empty".into()))?;
            let ids = ctx.stage_if_some(Stage::IndexProbe, || table.nearest(*col, center, *k));
            match ids {
                Some(ids) => fetch_rows(table, ids, ctx),
                None => fetch_rows(table, table.row_ids(), ctx),
            }
        }
        PlanNode::Filter { input, predicate } => {
            if let Some(shape) = ctx.spatial_shape(predicate) {
                return vectorized_filter(input, predicate, shape, ctx);
            }
            // Not a recognized spatial shape: the generic evaluator
            // decides every row.
            let rows = run(input, ctx)?;
            let metrics = ctx.metrics.as_deref();
            ctx.parallel_morsels(&rows, |chunk| {
                let t0 = metrics.map(|_| Instant::now());
                let mut out = Vec::with_capacity(chunk.len());
                for row in chunk {
                    if truthy(&eval_view(predicate, row, mode)?) {
                        out.push(row.clone());
                    }
                }
                if let (Some(m), Some(t0)) = (metrics, t0) {
                    m.refine_candidates.add(chunk.len() as u64);
                    m.refine_hits.add(out.len() as u64);
                    m.record_stage(Stage::Refine, t0.elapsed());
                }
                Ok(out)
            })
        }
        PlanNode::NestedLoopJoin { left, right } => {
            let l = run(left, ctx)?;
            let r = run(right, ctx)?;
            ctx.parallel_morsels(&l, |chunk| {
                // Capacity is a capped hint: the cross product itself is
                // produced incrementally, never pre-allocated in full.
                let hint = chunk.len().saturating_mul(r.len()).min(MAX_CAPACITY_HINT);
                let mut out = Vec::with_capacity(hint);
                for lr in chunk {
                    for rr in &r {
                        out.push(lr.join(rr));
                    }
                }
                Ok(out)
            })
        }
        PlanNode::SpatialIndexJoin { left, right, right_col, probe, expand } => {
            let right = ctx.src(right);
            let l = run(left, ctx)?;
            let expand_by = match expand {
                Some(e) => eval_const(e, mode)?
                    .as_f64()
                    .ok_or_else(|| SqlError::Type("DWithin distance must be numeric".into()))?,
                None => 0.0,
            };
            let metrics = ctx.metrics.as_deref();
            ctx.parallel_morsels(&l, |chunk| {
                let t0 = metrics.map(|_| Instant::now());
                let mut out = Vec::new();
                for lr in chunk {
                    let g = eval_view(probe, lr, mode)?;
                    let Some(geom) = g.as_geom() else {
                        continue; // NULL geometry joins nothing
                    };
                    let env = geom.envelope().expanded_by(expand_by);
                    let ids = match right.spatial_candidates(*right_col, &env) {
                        Some(ids) => ids,
                        // No index after all: degenerate to scanning the
                        // right table for this probe.
                        None => right.row_ids(),
                    };
                    for row in right.fetch_many(&ids)? {
                        out.push(lr.join_handle(row));
                    }
                }
                if let (Some(m), Some(t0)) = (metrics, t0) {
                    m.record_stage(Stage::IndexProbe, t0.elapsed());
                }
                Ok(out)
            })
        }
        PlanNode::Project { input, exprs } => {
            let rows = run(input, ctx)?;
            ctx.parallel_morsels(&rows, |chunk| {
                let mut out = Vec::with_capacity(chunk.len());
                for row in chunk {
                    let mut projected = Vec::with_capacity(exprs.len());
                    for (e, _) in exprs {
                        projected.push(eval_view(e, row, mode)?);
                    }
                    out.push(LazyRow::Owned(projected));
                }
                Ok(out)
            })
        }
        PlanNode::Aggregate { input, group_by, outputs } => {
            let rows = run(input, ctx)?;
            if group_by.is_empty() {
                let mut out_row = Vec::with_capacity(outputs.len());
                for (o, _) in outputs {
                    match o {
                        AggOutput::Agg(agg) => out_row.push(eval_aggregate(agg, &rows, ctx)?),
                        AggOutput::Group(_) => {
                            return Err(SqlError::Type("group column without GROUP BY".into()))
                        }
                    }
                }
                return Ok(vec![LazyRow::Owned(out_row)]);
            }
            // Compute grouping keys morsel-parallel, sort the keyed rows,
            // then fold each run — aggregating directly over the
            // `keyed[i..j]` slice (no per-group row copies).
            let keys: Vec<Vec<Value>> = ctx.parallel_morsels(&rows, |chunk| {
                let mut out = Vec::with_capacity(chunk.len());
                for row in chunk {
                    let mut key = Vec::with_capacity(group_by.len());
                    for g in group_by {
                        key.push(eval_view(g, row, mode)?);
                    }
                    out.push(key);
                }
                Ok(out)
            })?;
            let mut keyed: Vec<(Vec<Value>, LazyRow)> = keys.into_iter().zip(rows).collect();
            keyed.sort_by(|(ka, _), (kb, _)| {
                for (a, b) in ka.iter().zip(kb) {
                    let ord = compare_values(a, b);
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            // Group boundaries, then aggregate the groups morsel-parallel.
            let mut bounds: Vec<(usize, usize)> = Vec::new();
            let mut i = 0;
            while i < keyed.len() {
                let mut j = i + 1;
                while j < keyed.len()
                    && keyed[i]
                        .0
                        .iter()
                        .zip(&keyed[j].0)
                        .all(|(a, b)| compare_values(a, b) == std::cmp::Ordering::Equal)
                {
                    j += 1;
                }
                bounds.push((i, j));
                i = j;
            }
            let keyed = &keyed;
            ctx.parallel_morsels(&bounds, |chunk| {
                let mut out = Vec::with_capacity(chunk.len());
                for &(i, j) in chunk {
                    let group = &keyed[i..j];
                    let mut out_row = Vec::with_capacity(outputs.len());
                    for (o, _) in outputs {
                        match o {
                            AggOutput::Group(g) => out_row.push(keyed[i].0[*g].clone()),
                            AggOutput::Agg(agg) => {
                                out_row.push(eval_aggregate_slice(agg, group, mode)?)
                            }
                        }
                    }
                    out.push(LazyRow::Owned(out_row));
                }
                Ok(out)
            })
        }
        PlanNode::Sort { input, keys } => {
            let rows = run(input, ctx)?;
            // Precompute key tuples morsel-parallel, then sort by them.
            let key_tuples: Vec<Vec<Value>> = ctx.parallel_morsels(&rows, |chunk| {
                let mut out = Vec::with_capacity(chunk.len());
                for row in chunk {
                    let mut kt = Vec::with_capacity(keys.len());
                    for (e, _) in keys {
                        kt.push(eval_view(e, row, mode)?);
                    }
                    out.push(kt);
                }
                Ok(out)
            })?;
            let mut keyed: Vec<(Vec<Value>, LazyRow)> = key_tuples.into_iter().zip(rows).collect();
            keyed.sort_by(|(ka, _), (kb, _)| {
                for (i, (_, asc)) in keys.iter().enumerate() {
                    let ord = compare_values(&ka[i], &kb[i]);
                    let ord = if *asc { ord } else { ord.reverse() };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            Ok(keyed.into_iter().map(|(_, r)| r).collect())
        }
        PlanNode::Limit { input, n } => {
            let mut rows = run(input, ctx)?;
            rows.truncate(*n);
            Ok(rows)
        }
    }
}

/// Fetches `ids` from `table` as row handles, morsel-parallel, one
/// [`TableProvider::fetch_many`] per morsel, without copying row values
/// (the handles share the heap's `Arc<Row>`s).
fn fetch_rows(
    table: &Arc<dyn TableProvider>,
    ids: Vec<jackpine_storage::RowId>,
    ctx: &ExecCtx,
) -> Result<Vec<LazyRow>> {
    ctx.parallel_morsels(&ids, |chunk| {
        Ok(table.fetch_many(chunk)?.into_iter().map(LazyRow::one).collect())
    })
}

// ---------------------------------------------------------------------------
// Vectorized filter
// ---------------------------------------------------------------------------

/// One bound operand of a vectorized filter.
struct VecOperand {
    /// Column offset for column operands, `None` for constants.
    col: Option<usize>,
    /// Constant operand's envelope quad.
    const_quad: Option<MbrQuad>,
    /// Constant operand's preparation, built once at bind time.
    const_prepared: Option<Arc<PreparedGeometry>>,
    /// MBR quads for every input row in global row order, gathered from
    /// the quads the heap keeps beside its decoded rows when the filter
    /// sits directly on a table scan. `None` falls back to the per-chunk memoized gather.
    pregathered: Option<Vec<Option<MbrQuad>>>,
}

impl VecOperand {
    /// Whether row `i` of the current batch has a geometry in this
    /// operand (constants always do; column operands consult the
    /// gathered column's validity mask).
    fn valid_at(&self, gathered: &MbrColumn, i: usize) -> bool {
        match self.col {
            Some(_) => gathered.valid[i],
            None => true,
        }
    }
}

/// Chunk-local envelope memo for the generic (join-shaped) gather: the
/// same heap row repeats across consecutive output rows of an index
/// join, so a last-pointer fast path plus a per-chunk map computes each
/// distinct row's envelope once per chunk. Keying by `Arc` pointer is
/// sound for the memo's lifetime because the chunk borrows every row.
#[derive(Default)]
struct GatherMemo {
    last: Option<(usize, Option<MbrQuad>)>,
    map: HashMap<usize, Option<MbrQuad>>,
}

impl GatherMemo {
    fn mbr_of(&mut self, row: &LazyRow, col: usize) -> Option<MbrQuad> {
        match row.col_part(col) {
            Some((part, off)) => {
                let ptr = Arc::as_ptr(part) as usize;
                if let Some((p, q)) = self.last {
                    if p == ptr {
                        return q;
                    }
                }
                let q = *self.map.entry(ptr).or_insert_with(|| part[off].mbr());
                self.last = Some((ptr, q));
                q
            }
            // Owned tuple: no stable identity to memo under.
            None => row.col(col).and_then(Value::mbr),
        }
    }
}

/// Chunk-local memo of the last resolved preparation per operand: one
/// cache probe amortized across a run of identical row pointers — the
/// batch-amortized prepared refine.
#[derive(Default)]
struct PrepMemo {
    last: Option<(usize, Arc<PreparedGeometry>)>,
}

fn resolve_prepared(
    op: &VecOperand,
    row: &LazyRow,
    cache: &PreparedCache,
    metrics: Option<&EngineMetrics>,
    memo: &mut PrepMemo,
) -> Option<Arc<PreparedGeometry>> {
    let col = match op.col {
        None => return op.const_prepared.clone(),
        Some(c) => c,
    };
    match row.col_part(col) {
        Some((part, off)) => {
            let ptr = Arc::as_ptr(part) as usize;
            if let Some((p, prepared)) = &memo.last {
                if *p == ptr {
                    // Counted as the cache hit a fresh probe would be,
                    // so hit/miss totals do not depend on run lengths.
                    if let Some(m) = metrics {
                        m.prepared_cache_hits.incr();
                    }
                    return Some(Arc::clone(prepared));
                }
            }
            match &part[off] {
                Value::Geom(g) => {
                    let prepared = cache.get_or_prepare(part, off, g, metrics);
                    memo.last = Some((ptr, Arc::clone(&prepared)));
                    Some(prepared)
                }
                _ => None,
            }
        }
        // Owned tuple: no stable identity to cache under, so prepare
        // fresh. Still a miss — the work was done.
        None => match row.col(col) {
            Some(Value::Geom(g)) => {
                if let Some(m) = metrics {
                    m.prepared_cache_misses.incr();
                }
                Some(Arc::new(PreparedGeometry::new(g)))
            }
            _ => None,
        },
    }
}

/// The packed quad of a geometry's envelope, NaN-encoded when empty —
/// must agree exactly with [`Value::mbr`].
fn quad_of(g: &Geometry) -> MbrQuad {
    let e = g.envelope();
    if e.is_empty() {
        [f64::NAN; 4]
    } else {
        [e.min_x, e.min_y, e.max_x, e.max_y]
    }
}

/// Scalar positive-form envelope test over packed quads; false against
/// any NaN bound, like the columnar kernels.
fn quads_intersect(a: MbrQuad, b: MbrQuad) -> bool {
    (a[0] <= b[2]) & (b[0] <= a[2]) & (a[1] <= b[3]) & (b[1] <= a[3])
}

/// Gathers one batch of MBR quads for a column operand into `out`
/// (cleared first). Constants leave `out` empty. Prefers the
/// pre-gathered scan quads; otherwise walks the rows through the memo.
fn gather_column(
    op: &VecOperand,
    batch: &[LazyRow],
    global_offset: usize,
    out: &mut MbrColumn,
    memo: &mut GatherMemo,
) {
    out.clear();
    let Some(col) = op.col else { return };
    if let Some(pre) = &op.pregathered {
        for q in &pre[global_offset..global_offset + batch.len()] {
            out.push(*q);
        }
        return;
    }
    for row in batch {
        out.push(memo.mbr_of(row, col));
    }
}

/// Executes `Filter(input, kind(a, b))` on the vectorized batch path:
/// fixed-size batches, a columnar MBR gather, a branch-free envelope
/// prefilter writing decided rows straight into the keep mask, and a
/// refine pass over the surviving selection-vector entries.
///
/// Decision semantics mirror the generic evaluator (`eval_view`) bit
/// for bit. The prefilter applies only the *unconditional* envelope
/// gate — the one both
/// `topo::evaluate` and the naive SQL predicates apply before any other
/// work, even for unsupported geometry types: an env-disjoint valid pair
/// is decided `false` (`true` for Disjoint) with no error possible.
/// Every other row is refined in ascending row order, so result rows,
/// error choice and NULL semantics are those of evaluating the predicate
/// row by row, at any worker count.
fn vectorized_filter(
    input: &PlanNode,
    predicate: &BoundExpr,
    shape: SpatialShape,
    ctx: &ExecCtx,
) -> Result<Vec<LazyRow>> {
    // Filters sitting directly on a base-table scan expose their row
    // ids, letting MBR columns be gathered from the heap's packed quad
    // cache instead of touching each geometry. The scan logic here
    // mirrors the corresponding `run` arms, stage recording included.
    let scanned = match input {
        PlanNode::Scan { table } => {
            let table = ctx.src(table);
            Some((table, table.row_ids()))
        }
        PlanNode::SpatialIndexScan { table, col, query, expand } => {
            let table = ctx.src(table);
            let env = probe_envelope(query, expand, ctx.mode)?;
            let ids = ctx
                .stage_if_some(Stage::IndexProbe, || table.spatial_candidates(*col, &env))
                .unwrap_or_else(|| table.row_ids());
            Some((table, ids))
        }
        _ => None,
    };
    let (rows, scanned) = match scanned {
        Some((table, ids)) => (fetch_rows(table, ids.clone(), ctx)?, Some((table, ids))),
        None => (run(input, ctx)?, None),
    };

    let SpatialShape { kind, a, b } = shape;
    let bind = |op: ShapeOperand| -> VecOperand {
        match op {
            ShapeOperand::Column(i) => VecOperand {
                col: Some(i),
                const_quad: None,
                const_prepared: None,
                pregathered: scanned.as_ref().and_then(|(t, ids)| t.fetch_mbrs(i, ids)),
            },
            ShapeOperand::Constant(g) => VecOperand {
                col: None,
                const_quad: Some(quad_of(&g)),
                const_prepared: Some(Arc::new(PreparedGeometry::new(&g))),
                pregathered: None,
            },
        }
    };
    let a = bind(a);
    let b = bind(b);

    let metrics = ctx.metrics.as_deref();
    let cache = &*ctx.prepared;
    let bs = DEFAULT_BATCH_SIZE;
    let mode = ctx.mode;
    ctx.parallel_morsels_indexed(&rows, |base, chunk| {
        let mut out = Vec::with_capacity(chunk.len());
        let mut col_a = MbrColumn::with_capacity(bs.min(chunk.len()));
        let mut col_b = MbrColumn::with_capacity(bs.min(chunk.len()));
        let mut hit: Vec<bool> = Vec::new();
        let mut keep: Vec<bool> = Vec::new();
        let mut sel: Vec<u32> = Vec::new();
        let mut gather_a = GatherMemo::default();
        let mut gather_b = GatherMemo::default();
        let mut prep_a = PrepMemo::default();
        let mut prep_b = PrepMemo::default();
        let mut rejects = 0u64;
        let mut survivors = 0u64;
        let mut short_circuits = 0u64;
        let mut batches = 0u64;
        let mut prefilter_time = Duration::ZERO;
        let mut refine_time = Duration::ZERO;
        let mut offset = 0usize;
        while offset < chunk.len() {
            let batch = &chunk[offset..(offset + bs).min(chunk.len())];
            batches += 1;

            // Prefilter: columnar gather plus branch-free envelope test.
            let t0 = metrics.map(|_| Instant::now());
            gather_column(&a, batch, base + offset, &mut col_a, &mut gather_a);
            gather_column(&b, batch, base + offset, &mut col_b, &mut gather_b);
            match (a.const_quad, b.const_quad) {
                (None, None) => col_a.intersects_pairwise(&col_b, &mut hit),
                (None, Some(q)) => col_a.intersects_const(q, &mut hit),
                (Some(q), None) => col_b.intersects_const(q, &mut hit),
                (Some(qa), Some(qb)) => {
                    // Constant vs constant: one scalar test decides the
                    // whole batch's prefilter outcome.
                    let h = quads_intersect(qa, qb);
                    hit.clear();
                    hit.resize(batch.len(), h);
                }
            }
            keep.clear();
            keep.resize(batch.len(), false);
            sel.clear();
            for (i, &h) in hit.iter().enumerate() {
                if a.valid_at(&col_a, i) & b.valid_at(&col_b, i) & !h {
                    // Decided by the envelope gate alone; Disjoint is
                    // the one predicate an env-disjoint pair satisfies.
                    keep[i] = kind == PredicateKind::Disjoint;
                    rejects += 1;
                } else {
                    sel.push(i as u32);
                }
            }
            #[cfg(debug_assertions)]
            debug_assert!(crate::batch::selvec_is_sorted_unique(&sel, batch.len()));
            survivors += sel.len() as u64;
            if let Some(t0) = t0 {
                prefilter_time += t0.elapsed();
            }

            // Refine: exact evaluation over the selection vector, in
            // ascending row order (so the first failing row's error is
            // the one that surfaces).
            let t1 = metrics.map(|_| Instant::now());
            for &i in &sel {
                let i = i as usize;
                let row = &batch[i];
                let valid = a.valid_at(&col_a, i) && b.valid_at(&col_b, i);
                let prepared =
                    if valid {
                        resolve_prepared(&a, row, cache, metrics, &mut prep_a)
                            .zip(resolve_prepared(&b, row, cache, metrics, &mut prep_b))
                    } else {
                        None
                    };
                keep[i] = match prepared {
                    Some((pa, pb)) => {
                        let outcome = jackpine_topo::evaluate(kind, &pa, &pb)?;
                        short_circuits += u64::from(outcome.short_circuit);
                        outcome.value
                    }
                    // A non-geometry operand: the generic evaluator
                    // decides, reproducing exact naive errors and NULL
                    // semantics.
                    None => truthy(&eval_view(predicate, row, mode)?),
                };
            }
            if let Some(t1) = t1 {
                refine_time += t1.elapsed();
            }

            for (row, &k) in batch.iter().zip(&keep) {
                if k {
                    out.push(row.clone());
                }
            }
            offset += bs;
        }
        if let Some(m) = metrics {
            m.refine_candidates.add(chunk.len() as u64);
            m.refine_hits.add(out.len() as u64);
            m.prefilter_rejects.add(rejects);
            m.selvec_survivors.add(survivors);
            m.batches_dispatched.add(batches);
            // Each envelope reject is exactly the short-circuit
            // `evaluate` would have reported had the row reached it.
            m.refine_short_circuits.add(rejects + short_circuits);
            m.record_stage(Stage::Prefilter, prefilter_time);
            m.record_stage(Stage::Refine, refine_time);
        }
        Ok(out)
    })
}

fn probe_envelope(
    query: &BoundExpr,
    expand: &Option<BoundExpr>,
    mode: FunctionMode,
) -> Result<Envelope> {
    let v = eval_const(query, mode)?;
    let g = v
        .as_geom()
        .ok_or_else(|| SqlError::Type("spatial index probe must be a geometry".into()))?;
    let mut env = g.envelope();
    if let Some(e) = expand {
        let d = eval_const(e, mode)?
            .as_f64()
            .ok_or_else(|| SqlError::Type("DWithin distance must be numeric".into()))?;
        env = env.expanded_by(d);
    }
    Ok(env)
}

/// SQL truthiness: non-zero numbers are true; NULL and everything else is
/// false.
pub fn truthy(v: &Value) -> bool {
    match v {
        Value::Int(i) => *i != 0,
        Value::Float(f) => *f != 0.0,
        _ => false,
    }
}

/// Total ordering for sorting: NULLs first, then numeric, text, geometry
/// (by WKT) — enough for benchmark queries.
pub fn compare_values(a: &Value, b: &Value) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a, b) {
        (Value::Null, Value::Null) => Ordering::Equal,
        (Value::Null, _) => Ordering::Less,
        (_, Value::Null) => Ordering::Greater,
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Text(x), Value::Text(y)) => x.cmp(y),
        _ => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => x.total_cmp(&y),
            _ => a.to_string().cmp(&b.to_string()),
        },
    }
}

/// Evaluates a bound expression over a materialized tuple.
pub fn eval(e: &BoundExpr, row: &[Value], mode: FunctionMode) -> Result<Value> {
    eval_view(e, &SliceView(row), mode)
}

/// Evaluates a constant expression (no column references).
fn eval_const(e: &BoundExpr, mode: FunctionMode) -> Result<Value> {
    eval_view(e, &SliceView(&[]), mode)
}

/// Evaluates a bound expression over any tuple view (materialized slice
/// or late-materialized [`LazyRow`]).
pub fn eval_view(e: &BoundExpr, row: &dyn TupleView, mode: FunctionMode) -> Result<Value> {
    Ok(match e {
        BoundExpr::Literal(v) => v.clone(),
        BoundExpr::Column(i) => row
            .col(*i)
            .cloned()
            .ok_or_else(|| SqlError::Type(format!("column offset {i} out of range")))?,
        BoundExpr::Func { name, args } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_view(a, row, mode)?);
            }
            functions::call(mode, name, &vals)?
        }
        BoundExpr::Binary { op, left, right } => {
            let l = eval_view(left, row, mode)?;
            // Short-circuit logic.
            match op {
                BinOp::And => {
                    if !truthy(&l) {
                        return Ok(Value::Int(0));
                    }
                    return Ok(Value::Int(i64::from(truthy(&eval_view(right, row, mode)?))));
                }
                BinOp::Or => {
                    if truthy(&l) {
                        return Ok(Value::Int(1));
                    }
                    return Ok(Value::Int(i64::from(truthy(&eval_view(right, row, mode)?))));
                }
                _ => {}
            }
            let r = eval_view(right, row, mode)?;
            eval_binary(*op, &l, &r)?
        }
        BoundExpr::Not(inner) => Value::Int(i64::from(!truthy(&eval_view(inner, row, mode)?))),
        BoundExpr::Neg(inner) => match eval_view(inner, row, mode)? {
            Value::Int(i) => Value::Int(-i),
            Value::Float(f) => Value::Float(-f),
            Value::Null => Value::Null,
            other => return Err(SqlError::Type(format!("cannot negate {other:?}"))),
        },
        BoundExpr::Between { expr, lo, hi } => {
            let v = eval_view(expr, row, mode)?;
            let lo = eval_view(lo, row, mode)?;
            let hi = eval_view(hi, row, mode)?;
            if v.is_null() || lo.is_null() || hi.is_null() {
                Value::Int(0)
            } else {
                let ge = compare_values(&v, &lo) != std::cmp::Ordering::Less;
                let le = compare_values(&v, &hi) != std::cmp::Ordering::Greater;
                Value::Int(i64::from(ge && le))
            }
        }
        BoundExpr::IsNull { expr, negated } => {
            let v = eval_view(expr, row, mode)?;
            Value::Int(i64::from(v.is_null() != *negated))
        }
    })
}

fn eval_binary(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    use std::cmp::Ordering;
    // NULL propagates through comparisons (as false) and arithmetic.
    if l.is_null() || r.is_null() {
        return Ok(match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => Value::Null,
            _ => Value::Int(0),
        });
    }
    Ok(match op {
        BinOp::Eq => Value::Int(i64::from(value_eq(l, r))),
        BinOp::Neq => Value::Int(i64::from(!value_eq(l, r))),
        BinOp::Lt => Value::Int(i64::from(compare_values(l, r) == Ordering::Less)),
        BinOp::Le => Value::Int(i64::from(compare_values(l, r) != Ordering::Greater)),
        BinOp::Gt => Value::Int(i64::from(compare_values(l, r) == Ordering::Greater)),
        BinOp::Ge => Value::Int(i64::from(compare_values(l, r) != Ordering::Less)),
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => arith(op, l, r)?,
        BinOp::And | BinOp::Or => unreachable!("short-circuited by caller"),
    })
}

fn value_eq(l: &Value, r: &Value) -> bool {
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => a == b,
        (Value::Text(a), Value::Text(b)) => a == b,
        (Value::Geom(a), Value::Geom(b)) => a == b,
        _ => match (l.as_f64(), r.as_f64()) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        },
    }
}

fn arith(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    // Integer arithmetic stays integral except division.
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        return Ok(match op {
            BinOp::Add => Value::Int(a.wrapping_add(*b)),
            BinOp::Sub => Value::Int(a.wrapping_sub(*b)),
            BinOp::Mul => Value::Int(a.wrapping_mul(*b)),
            BinOp::Div => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Float(*a as f64 / *b as f64)
                }
            }
            _ => unreachable!(),
        });
    }
    let (a, b) = match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            return Err(SqlError::Type(format!("arithmetic on non-numeric values {l:?} and {r:?}")))
        }
    };
    Ok(match op {
        BinOp::Add => Value::Float(a + b),
        BinOp::Sub => Value::Float(a - b),
        BinOp::Mul => Value::Float(a * b),
        BinOp::Div => {
            if b == 0.0 {
                Value::Null
            } else {
                Value::Float(a / b)
            }
        }
        _ => unreachable!(),
    })
}

/// Global (ungrouped) aggregate: argument expressions are evaluated
/// morsel-parallel, then folded serially **in row order**, so float sums
/// are bit-identical to the single-threaded result.
fn eval_aggregate(agg: &AggExpr, rows: &[LazyRow], ctx: &ExecCtx) -> Result<Value> {
    let mode = ctx.mode;
    let arg_values = |e: &BoundExpr| -> Result<Vec<Value>> {
        ctx.parallel_morsels(rows, |chunk| {
            let mut out = Vec::with_capacity(chunk.len());
            for row in chunk {
                out.push(eval_view(e, row, mode)?);
            }
            Ok(out)
        })
    };
    match agg {
        AggExpr::CountStar => Ok(Value::Int(rows.len() as i64)),
        AggExpr::Count(e) => {
            Ok(Value::Int(arg_values(e)?.iter().filter(|v| !v.is_null()).count() as i64))
        }
        AggExpr::Sum(e) | AggExpr::Avg(e) => {
            fold_sum(agg, arg_values(e)?.iter().map(|v| v.as_f64()))
        }
        AggExpr::Min(e) | AggExpr::Max(e) => fold_minmax(agg, arg_values(e)?.into_iter()),
    }
}

/// Grouped aggregate over one `keyed[i..j]` run: rows are aggregated in
/// place through the key/row pairs — no per-group copies.
fn eval_aggregate_slice(
    agg: &AggExpr,
    group: &[(Vec<Value>, LazyRow)],
    mode: FunctionMode,
) -> Result<Value> {
    match agg {
        AggExpr::CountStar => Ok(Value::Int(group.len() as i64)),
        AggExpr::Count(e) => {
            let mut n = 0i64;
            for (_, row) in group {
                if !eval_view(e, row, mode)?.is_null() {
                    n += 1;
                }
            }
            Ok(Value::Int(n))
        }
        AggExpr::Sum(e) | AggExpr::Avg(e) => {
            let mut vals = Vec::with_capacity(group.len());
            for (_, row) in group {
                vals.push(eval_view(e, row, mode)?.as_f64());
            }
            fold_sum(agg, vals.into_iter())
        }
        AggExpr::Min(e) | AggExpr::Max(e) => {
            let mut vals = Vec::with_capacity(group.len());
            for (_, row) in group {
                vals.push(eval_view(e, row, mode)?);
            }
            fold_minmax(agg, vals.into_iter())
        }
    }
}

/// Serial in-order SUM/AVG fold over pre-evaluated argument values.
fn fold_sum(agg: &AggExpr, values: impl Iterator<Item = Option<f64>>) -> Result<Value> {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values.flatten() {
        sum += v;
        n += 1;
    }
    if n == 0 {
        return Ok(Value::Null);
    }
    Ok(match agg {
        AggExpr::Sum(_) => Value::Float(sum),
        _ => Value::Float(sum / n as f64),
    })
}

/// Serial in-order MIN/MAX fold over pre-evaluated argument values.
fn fold_minmax(agg: &AggExpr, values: impl Iterator<Item = Value>) -> Result<Value> {
    let mut best: Option<Value> = None;
    for v in values {
        if v.is_null() {
            continue;
        }
        best = Some(match best {
            None => v,
            Some(b) => {
                let keep_new = match agg {
                    AggExpr::Min(_) => compare_values(&v, &b) == std::cmp::Ordering::Less,
                    _ => compare_values(&v, &b) == std::cmp::Ordering::Greater,
                };
                if keep_new {
                    v
                } else {
                    b
                }
            }
        });
    }
    Ok(best.unwrap_or(Value::Null))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(truthy(&Value::Int(1)));
        assert!(truthy(&Value::Float(0.5)));
        assert!(!truthy(&Value::Int(0)));
        assert!(!truthy(&Value::Null));
        assert!(!truthy(&Value::Text("yes".into())));
    }

    #[test]
    fn value_comparisons() {
        use std::cmp::Ordering;
        assert_eq!(compare_values(&Value::Int(1), &Value::Int(2)), Ordering::Less);
        assert_eq!(compare_values(&Value::Int(2), &Value::Float(1.5)), Ordering::Greater);
        assert_eq!(compare_values(&Value::Null, &Value::Int(0)), Ordering::Less);
        assert_eq!(
            compare_values(&Value::Text("a".into()), &Value::Text("b".into())),
            Ordering::Less
        );
    }

    #[test]
    fn arithmetic_semantics() {
        assert_eq!(eval_binary(BinOp::Add, &Value::Int(2), &Value::Int(3)).unwrap(), Value::Int(5));
        assert_eq!(eval_binary(BinOp::Div, &Value::Int(1), &Value::Int(0)).unwrap(), Value::Null);
        assert_eq!(
            eval_binary(BinOp::Mul, &Value::Float(2.0), &Value::Int(3)).unwrap(),
            Value::Float(6.0)
        );
        assert_eq!(eval_binary(BinOp::Add, &Value::Null, &Value::Int(3)).unwrap(), Value::Null);
        assert!(eval_binary(BinOp::Add, &Value::Text("a".into()), &Value::Int(1)).is_err());
    }

    #[test]
    fn is_null_logic() {
        let e =
            BoundExpr::IsNull { expr: Box::new(BoundExpr::Literal(Value::Null)), negated: false };
        assert_eq!(eval(&e, &[], FunctionMode::Exact).unwrap(), Value::Int(1));
        let e =
            BoundExpr::IsNull { expr: Box::new(BoundExpr::Literal(Value::Int(5))), negated: true };
        assert_eq!(eval(&e, &[], FunctionMode::Exact).unwrap(), Value::Int(1));
        let e =
            BoundExpr::IsNull { expr: Box::new(BoundExpr::Literal(Value::Int(5))), negated: false };
        assert_eq!(eval(&e, &[], FunctionMode::Exact).unwrap(), Value::Int(0));
    }

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

    #[test]
    fn morsel_dispatch_preserves_order_and_errors() {
        let ctx = ExecCtx {
            mode: FunctionMode::Exact,
            workers: 4,
            metrics: None,
            prepared: Arc::default(),
            pins: HashMap::new(),
        };
        let items: Vec<usize> = (0..10_000).collect();
        let out = ctx.parallel_morsels(&items, |chunk| Ok(chunk.to_vec())).unwrap();
        assert_eq!(out, items);
        // Errors surface deterministically regardless of worker count.
        let err = ctx
            .parallel_morsels(&items, |chunk| {
                if chunk.contains(&4321) {
                    Err(SqlError::Type("boom".into()))
                } else {
                    Ok(chunk.to_vec())
                }
            })
            .unwrap_err();
        assert!(matches!(err, SqlError::Type(_)));
    }
}

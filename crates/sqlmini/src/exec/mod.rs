//! Plan execution: expression evaluation and the physical operators.
//!
//! The executor is **morsel-driven**: operators over large inputs split
//! their work into fixed-size morsels ([`MORSEL_SIZE`] rows) shared
//! round-robin between the calling thread and scoped worker threads
//! (`std::thread::scope`). Worker count comes
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
//!
//! One job, one path: `row` holds the late-materialized rows, `eval`
//! the expression evaluator, `operators` the operators (one access path
//! for every scan, one keyed sort, one aggregate evaluator) and
//! `vectorized` the batched spatial filter, which reads its input
//! through the same access path.

mod eval;
mod operators;
mod row;
mod vectorized;

pub use eval::{compare_values, eval, eval_view, truthy};
pub use row::{LazyRow, TupleView};

use crate::batch::DEFAULT_BATCH_SIZE;
use crate::functions::FunctionMode;
use crate::plan::{PlanNode, PlannedSelect};
use crate::provider::{SnapshotHandle, TableProvider};
use crate::Result;
use jackpine_obs::{EngineMetrics, Stage};
use jackpine_storage::Value;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Rows per morsel, the unit one worker runs at a time: exactly one filter
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
    /// morsel dispatch into. The engine passes its own; the default is a
    /// fresh registry that lives for the statement.
    pub metrics: Arc<EngineMetrics>,
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
        pins: build_pins(&plan.root, opts.snapshot.as_ref()),
    };
    let lazy = operators::run(&plan.root, &ctx)?;
    // Final materialization: the only place surviving rows are deep-copied.
    let t0 = Instant::now();
    let rows =
        ctx.parallel_morsels(&lazy, |chunk| Ok(chunk.iter().map(LazyRow::materialize).collect()))?;
    ctx.metrics.record_stage(Stage::Materialize, t0.elapsed());
    Ok(ResultSet { columns: plan.columns.clone(), rows })
}

struct ExecCtx {
    mode: FunctionMode,
    workers: usize,
    metrics: Arc<EngineMetrics>,
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

    /// Runs `f`, recording its elapsed time as one sample of `stage` —
    /// but only when `f` returns `Some`, so a query whose index was
    /// dropped does not report an `index_probe` stage for the
    /// sequential-scan fallback.
    fn stage_if_some<T>(&self, stage: Stage, f: impl FnOnce() -> Option<T>) -> Option<T> {
        let t0 = Instant::now();
        let out = f();
        if out.is_some() {
            self.metrics.record_stage(stage, t0.elapsed());
        }
        out
    }

    /// Applies `f` to morsels of `items`, concatenating outputs in morsel
    /// order. With one worker — or at most [`MIN_PARALLEL_ROWS`] items,
    /// where dispatch overhead beats the win — this is a single direct
    /// call on the current thread. Otherwise the calling thread and
    /// `workers - 1` scoped threads share the morsels round-robin:
    /// participant `w` of `n` runs morsels `w`, `w + n`, `w + 2n`, ….
    /// The split is fixed rather than claimed off a shared counter, so
    /// which thread runs — and allocates for — which morsel is a function
    /// of the input alone, not of thread timing (DESIGN.md, "Query
    /// execution"). Morsel boundaries depend only on morsel size, and
    /// outputs are stitched by morsel index, so results are identical for
    /// any worker count.
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
        let n = self.workers.min(morsels.len());
        // Every morsel runs, an error in one or not.
        self.metrics.morsels_dispatched.add(morsels.len() as u64);
        let share = |w: usize| -> Vec<(usize, Result<Vec<O>>)> {
            (w..morsels.len())
                .step_by(n)
                .map(|idx| (idx, f(idx * MORSEL_SIZE, morsels[idx])))
                .collect()
        };
        let mut results = std::thread::scope(|scope| {
            let share = &share;
            let others: Vec<_> = (1..n).map(|w| scope.spawn(move || share(w))).collect();
            let mut results = share(0);
            for other in others {
                results.extend(other.join().expect("morsel worker panicked"));
            }
            results
        });
        results.sort_by_key(|(idx, _)| *idx);
        let mut out = Vec::with_capacity(items.len());
        for (_, r) in results {
            out.extend(r?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SqlError;

    #[test]
    fn morsel_dispatch_preserves_order_and_errors() {
        let ctx = ExecCtx {
            mode: FunctionMode::Exact,
            workers: 4,
            metrics: Arc::default(),
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

    #[test]
    fn the_caller_and_the_workers_split_morsels_round_robin() {
        let ctx = ExecCtx {
            mode: FunctionMode::Exact,
            workers: 3,
            metrics: Arc::default(),
            pins: HashMap::new(),
        };
        let items: Vec<usize> = (0..10 * MORSEL_SIZE).collect();
        let ran = ctx.parallel_morsels(&items, |_| Ok(vec![std::thread::current().id()])).unwrap();
        assert_eq!(ran.len(), 10);
        assert_eq!(ran[0], std::thread::current().id(), "the caller runs morsel 0");
        assert!(ran[0] != ran[1] && ran[1] != ran[2] && ran[0] != ran[2]);
        for (idx, id) in ran.iter().enumerate() {
            assert_eq!(*id, ran[idx % 3], "morsel {idx} runs on participant {}", idx % 3);
        }
        assert_eq!(ctx.metrics.morsels_dispatched.get(), 10);
    }
}

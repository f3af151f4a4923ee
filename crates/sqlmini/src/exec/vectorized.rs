//! The vectorized filter: a recognized `pred(a, b)` is decided batch
//! by batch through a columnar envelope prefilter and a prepared refine.

use super::eval::{eval_const, eval_view, truthy};
use super::operators::{access, fetch_rows, run};
use super::{ExecCtx, LazyRow, TupleView};
use crate::batch::{MbrColumn, MbrQuad, DEFAULT_BATCH_SIZE};
use crate::functions::{Func, FunctionMode};
use crate::plan::{BoundExpr, PlanNode};
use crate::Result;
use jackpine_geom::Geometry;
use jackpine_obs::Stage;
use jackpine_storage::Value;
use jackpine_topo::{PredicateKind, PreparedGeometry};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

impl ExecCtx {
    /// Recognizes the filter shape the vectorized path accelerates: a
    /// top-level `pred(x, y)` where `pred` is a named DE-9IM predicate
    /// under exact semantics and `x`/`y` are geometry columns or
    /// constant geometry expressions.
    /// Anything else returns `None` and evaluates generically.
    pub(super) fn spatial_shape(&self, predicate: &BoundExpr) -> Option<SpatialShape> {
        if self.mode != FunctionMode::Exact {
            return None;
        }
        let BoundExpr::Func { func: Func::Predicate(kind), args } = predicate else {
            return None;
        };
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
        Some(SpatialShape { kind: *kind, a: operand(a)?, b: operand(b)? })
    }
}

/// A recognized top-level spatial predicate: `kind(a, b)` over columns
/// and/or constant geometries.
pub(super) struct SpatialShape {
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

/// Batch-local preparations keyed by physical row identity (the `Arc`
/// pointer of the row part plus the column offset in it): a geometry
/// that recurs within a batch, like an index join's inner row, is
/// prepared once. Cleared at every batch boundary, so keying by pointer
/// is sound (the batch borrows every row it keys) and, batch boundaries
/// being fixed row positions, hits and misses depend on the statement
/// alone.
#[derive(Default)]
struct PrepMemo {
    map: HashMap<(usize, usize), Arc<PreparedGeometry>>,
    hits: u64,
    misses: u64,
}

impl PrepMemo {
    /// The preparation of `op` in `row`: the constant's, the batch's
    /// earlier one of the same row column (a hit), or a fresh one (a
    /// miss). `None` for a non-geometry value.
    fn resolve(&mut self, op: &VecOperand, row: &LazyRow) -> Option<Arc<PreparedGeometry>> {
        let Some(col) = op.col else { return op.const_prepared.clone() };
        let Some((part, off)) = row.col_part(col) else {
            // Owned tuple: no stable identity to memo under.
            let Some(Value::Geom(g)) = row.col(col) else { return None };
            self.misses += 1;
            return Some(Arc::new(PreparedGeometry::new(g)));
        };
        let Value::Geom(g) = &part[off] else { return None };
        let key = (Arc::as_ptr(part) as usize, off);
        if let Some(prepared) = self.map.get(&key) {
            self.hits += 1;
            return Some(Arc::clone(prepared));
        }
        self.misses += 1;
        let prepared = Arc::new(PreparedGeometry::new(g));
        self.map.insert(key, Arc::clone(&prepared));
        Some(prepared)
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
pub(super) fn vectorized_filter(
    input: &PlanNode,
    predicate: &BoundExpr,
    shape: SpatialShape,
    ctx: &ExecCtx,
) -> Result<Vec<LazyRow>> {
    // Filters sitting directly on a base-table scan expose their row
    // ids, letting MBR columns be gathered from the heap's packed quad
    // cache instead of touching each geometry.
    let scanned = access(input, ctx)?;
    let rows = match &scanned {
        Some((table, ids)) => fetch_rows(table, ids, ctx)?,
        None => run(input, ctx)?,
    };

    let SpatialShape { kind, a, b } = shape;
    let bind = |op: ShapeOperand| -> Result<VecOperand> {
        Ok(match op {
            ShapeOperand::Column(i) => VecOperand {
                col: Some(i),
                const_quad: None,
                const_prepared: None,
                pregathered: match &scanned {
                    Some((t, ids)) => t.fetch_mbrs(i, ids)?,
                    None => None,
                },
            },
            ShapeOperand::Constant(g) => VecOperand {
                col: None,
                const_quad: Some(g.envelope().quad()),
                const_prepared: Some(Arc::new(PreparedGeometry::new(&g))),
                pregathered: None,
            },
        })
    };
    let a = bind(a)?;
    let b = bind(b)?;

    let metrics = &*ctx.metrics;
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
        let mut prep = PrepMemo::default();
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
            prep.map.clear();

            // Prefilter: columnar gather plus branch-free envelope test.
            let t0 = Instant::now();
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
                    // Decided by the envelope gate alone, by
                    // `topo::holds`'s envelope rule.
                    keep[i] = kind == PredicateKind::Disjoint;
                    rejects += 1;
                } else {
                    sel.push(i as u32);
                }
            }
            #[cfg(debug_assertions)]
            debug_assert!(crate::batch::selvec_is_sorted_unique(&sel, batch.len()));
            survivors += sel.len() as u64;
            prefilter_time += t0.elapsed();

            // Refine: exact evaluation over the selection vector, in
            // ascending row order (so the first failing row's error is
            // the one that surfaces).
            let t1 = Instant::now();
            for &i in &sel {
                let i = i as usize;
                let row = &batch[i];
                let valid = a.valid_at(&col_a, i) && b.valid_at(&col_b, i);
                let prepared =
                    if valid { prep.resolve(&a, row).zip(prep.resolve(&b, row)) } else { None };
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
            refine_time += t1.elapsed();

            for (row, &k) in batch.iter().zip(&keep) {
                if k {
                    out.push(row.clone());
                }
            }
            offset += bs;
        }
        metrics.refine_candidates.add(chunk.len() as u64);
        metrics.refine_hits.add(out.len() as u64);
        metrics.prefilter_rejects.add(rejects);
        metrics.selvec_survivors.add(survivors);
        metrics.batches_dispatched.add(batches);
        metrics.prepared_cache_hits.add(prep.hits);
        metrics.prepared_cache_misses.add(prep.misses);
        // Each envelope reject is exactly the short-circuit `evaluate`
        // would have reported had the row reached it.
        metrics.refine_short_circuits.add(rejects + short_circuits);
        metrics.record_stage(Stage::Prefilter, prefilter_time);
        metrics.record_stage(Stage::Refine, refine_time);
        Ok(out)
    })
}

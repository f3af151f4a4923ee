//! The spatial filter: a recognized `pred(a, b)` is decided one
//! morsel-sized run of rows at a time. Each row's two envelopes pass the
//! envelope rule ([`PredicateKind::on_disjoint_envelopes`]); the rows it
//! leaves undecided are refined in ascending order on prepared
//! geometries, through one memo a run.

use super::eval::{eval_const, eval_view, truthy};
use super::{ExecCtx, LazyRow, TupleView, MORSEL_SIZE};
use crate::functions::{Func, FunctionMode};
use crate::plan::BoundExpr;
use crate::provider::TableProvider;
use crate::Result;
use jackpine_geom::{Envelope, Geometry};
use jackpine_obs::Stage;
use jackpine_storage::{RowId, Value};
use jackpine_topo::{PredicateKind, PreparedGeometry};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One operand of a two-geometry call: a column of the row, or a
/// constant geometry.
pub(super) enum Operand {
    /// The column at this offset of the row.
    Column(usize),
    /// A constant geometry, evaluated once.
    Constant(Geometry),
}

impl Operand {
    /// Recognizes `e` as an operand. A constant that fails to evaluate in
    /// `mode`, or is no geometry, is `None`: the generic evaluator raises
    /// the error per row, or not at all over no rows.
    pub(super) fn of(e: &BoundExpr, mode: FunctionMode) -> Option<Operand> {
        match e {
            BoundExpr::Column(i) => Some(Operand::Column(*i)),
            e if e.is_constant() => match eval_const(e, mode) {
                Ok(Value::Geom(g)) => Some(Operand::Constant(g)),
                _ => None,
            },
            _ => None,
        }
    }
}

/// A recognized spatial filter: `kind(a, b)`.
pub(super) type Shape = (PredicateKind, Operand, Operand);

/// Recognizes the filter the spatial loop decides: a top-level
/// `kind(a, b)` of a named DE-9IM predicate under exact semantics whose
/// arguments are [`Operand`]s. Anything else returns `None` and
/// evaluates generically.
pub(super) fn spatial_shape(predicate: &BoundExpr, mode: FunctionMode) -> Option<Shape> {
    let BoundExpr::Func { func: Func::Predicate(kind), args } = predicate else { return None };
    let ([a, b], FunctionMode::Exact) = (args.as_slice(), mode) else { return None };
    Some((*kind, Operand::of(a, mode)?, Operand::of(b, mode)?))
}

/// An [`Operand`] as the loop reads it: a column, with its quad for
/// every input row when the filter reads a scanned table whose frames
/// keep them (`TableProvider::fetch_mbrs`), or a constant, prepared once
/// a statement.
enum Side {
    Column(usize, Option<Vec<Option<[f64; 4]>>>),
    Constant(Arc<PreparedGeometry>),
}

impl Side {
    /// The envelope of this operand in `row`, the input's row `at`;
    /// `None` when the value is no geometry.
    fn envelope(&self, row: &LazyRow, at: usize, memo: &mut Memo) -> Option<Envelope> {
        match self {
            Side::Column(_, Some(quads)) => quads[at].map(Envelope::from_quad),
            Side::Column(col, None) => {
                let (g, entry) = entry(&mut memo.map, row, *col)?;
                Some(entry.map_or_else(|| g.envelope(), |e| e.0))
            }
            Side::Constant(c) => Some(*c.envelope()),
        }
    }

    /// The preparation of this operand in `row`, `None` when the value is
    /// no geometry: a memo hit when the run already prepared it, else a
    /// miss that prepares it.
    fn prepared(&self, row: &LazyRow, memo: &mut Memo) -> Option<Arc<PreparedGeometry>> {
        let col = match self {
            Side::Column(col, _) => *col,
            Side::Constant(c) => return Some(Arc::clone(c)),
        };
        let (g, entry) = entry(&mut memo.map, row, col)?;
        if let Some(prepared) = entry.as_ref().and_then(|e| e.1.clone()) {
            memo.hits += 1;
            return Some(prepared);
        }
        memo.misses += 1;
        let prepared = Arc::new(PreparedGeometry::new(g));
        if let Some(e) = entry {
            e.1 = Some(Arc::clone(&prepared));
        }
        Some(prepared)
    }
}

/// One geometry's memo entry: its envelope, and its preparation once a
/// refine asked for it.
type Entry = (Envelope, Option<Arc<PreparedGeometry>>);

/// The run's memo, keyed by row identity (the `Arc` pointer of the row
/// part and the column's offset in it): a geometry that recurs within a
/// run, like an index join's inner row, has its envelope taken and its
/// preparation built once. Cleared at every run boundary, so keying by
/// pointer is sound (the run borrows every row it keys) and, run
/// boundaries being fixed row positions, hits and misses depend on the
/// statement alone.
#[derive(Default)]
struct Memo {
    map: HashMap<(usize, usize), Entry>,
    hits: u64,
    misses: u64,
}

/// The geometry in column `col` of `row`, and its entry in `map`; `None`
/// when the value is no geometry. An owned tuple has no identity to key
/// an entry by.
fn entry<'r, 'm>(
    map: &'m mut HashMap<(usize, usize), Entry>,
    row: &'r LazyRow,
    col: usize,
) -> Option<(&'r Geometry, Option<&'m mut Entry>)> {
    let Some((part, off)) = row.col_part(col) else {
        return Some((row.col(col)?.as_geom()?, None));
    };
    let g = part[off].as_geom()?;
    let key = (Arc::as_ptr(part) as usize, off);
    Some((g, Some(map.entry(key).or_insert_with(|| (g.envelope(), None)))))
}

/// Decides `kind(a, b)` over `rows`: the one spatial filter loop.
/// Returns the positions in `rows` of the rows it keeps, ascending.
///
/// Its answers are the generic evaluator's (`eval_view`) bit for bit.
/// A row whose operands are both geometries with envelopes that do not
/// meet is decided by the envelope rule, which `topo::evaluate` and the
/// naive predicates apply before any other work and which raises no
/// error. Every other row is refined in ascending row order, so result
/// rows, error choice and NULL semantics are those of evaluating the
/// predicate row by row, at any worker count.
///
/// `scanned` is the table and ids `rows` were fetched from when they
/// come straight off a scan: the column operands' envelopes are then
/// read from the quads the table's frames keep.
pub(super) fn spatial_filter(
    rows: &[LazyRow],
    scanned: Option<(&Arc<dyn TableProvider>, &[RowId])>,
    predicate: &BoundExpr,
    (kind, a, b): Shape,
    ctx: &ExecCtx,
) -> Result<Vec<usize>> {
    let bind = |op: Operand| -> Result<Side> {
        Ok(match (op, scanned) {
            (Operand::Column(c), Some((table, ids))) => Side::Column(c, table.fetch_mbrs(c, ids)?),
            (Operand::Column(c), None) => Side::Column(c, None),
            (Operand::Constant(g), _) => Side::Constant(Arc::new(PreparedGeometry::new(&g))),
        })
    };
    let (a, b) = (bind(a)?, bind(b)?);

    let (metrics, mode) = (&*ctx.metrics, ctx.mode);
    ctx.parallel_morsels(rows, |chunk| {
        let (mut out, mut memo) = (Vec::with_capacity(chunk.len()), Memo::default());
        let (mut keep, mut undecided) = (Vec::new(), Vec::new());
        let (mut rejects, mut short_circuits) = (0u64, 0u64);
        let (mut prefilter_time, mut refine_time) = (Duration::ZERO, Duration::ZERO);
        for run in chunk.chunks(MORSEL_SIZE) {
            memo.map.clear();
            let at = rows.element_offset(&run[0]).expect("a run lies in the filter's input");
            // Each row's envelopes pass the envelope rule; the rows it
            // leaves undecided note whether both operands are geometries.
            let t0 = Instant::now();
            keep.clear();
            undecided.clear();
            for (i, row) in run.iter().enumerate() {
                let (ea, eb) =
                    (a.envelope(row, at + i, &mut memo), b.envelope(row, at + i, &mut memo));
                let decided = ea.zip(eb).and_then(|(ea, eb)| kind.on_disjoint_envelopes(&ea, &eb));
                keep.push(decided.unwrap_or(false));
                match decided {
                    Some(_) => rejects += 1,
                    None => undecided.push((i, ea.is_some() && eb.is_some())),
                }
            }
            prefilter_time += t0.elapsed();
            // The undecided rows, refined in ascending order, so the first
            // failing row's error is the one that surfaces.
            let t1 = Instant::now();
            for &(i, geometries) in &undecided {
                let row = &run[i];
                let prepared = match geometries {
                    true => a.prepared(row, &mut memo).zip(b.prepared(row, &mut memo)),
                    false => None,
                };
                keep[i] = match prepared {
                    Some((pa, pb)) => {
                        let outcome = jackpine_topo::evaluate(kind, &pa, &pb)?;
                        short_circuits += u64::from(outcome.short_circuit);
                        outcome.value
                    }
                    // A non-geometry operand: the generic evaluator
                    // decides, with its errors and NULL semantics.
                    None => truthy(&eval_view(predicate, row, mode)?),
                };
            }
            refine_time += t1.elapsed();
            out.extend(keep.iter().enumerate().filter(|(_, &k)| k).map(|(i, _)| at + i));
        }
        metrics.refine_candidates.add(chunk.len() as u64);
        metrics.refine_hits.add(out.len() as u64);
        metrics.prefilter_rejects.add(rejects);
        metrics.selvec_survivors.add(chunk.len() as u64 - rejects);
        metrics.prepared_cache_hits.add(memo.hits);
        metrics.prepared_cache_misses.add(memo.misses);
        // Each envelope reject is exactly the short-circuit `evaluate`
        // would have reported had the row reached it.
        metrics.refine_short_circuits.add(rejects + short_circuits);
        metrics.record_stage(Stage::Prefilter, prefilter_time);
        metrics.record_stage(Stage::Refine, refine_time);
        Ok(out)
    })
}

//! The physical operators: one access path for every scan and the
//! filters over it that the stored rows decide, one filter over rows
//! read, one keyed sort for `Sort` and `GROUP BY`, one aggregate
//! evaluator — and the search a DML statement finds its rows with,
//! through the same access path and filters.
//!
//! The keep rule: a row a statement evaluates (a filter, a join, an
//! aggregate, a sort, a k-NN reach) is fetched into its frame's cache,
//! where the next statement finds it decoded; a row it only passes on —
//! a projection of plain columns straight off an access path, a DML
//! statement's candidates and victims — is read without being kept.

use super::eval::{compare_values, eval_const, eval_view, probe_envelope, truthy};
use super::vectorized::{spatial_filter, spatial_shape, Operand};
use super::{ExecCtx, LazyRow, MAX_CAPACITY_HINT};
use crate::functions::{mbr_predicate, FunctionMode};
use crate::plan::{AggExpr, AggOutput, BoundExpr, PlanNode};
use crate::provider::TableProvider;
use crate::{Result, SqlError};
use jackpine_geom::algorithms as alg;
use jackpine_geom::{Envelope, Geometry};
use jackpine_obs::Stage;
use jackpine_storage::{DataType, Row, RowId, Schema, Value};
use jackpine_topo::PredicateKind;
use std::cmp::Ordering;
use std::sync::Arc;
use std::time::Instant;

pub(super) fn run(node: &PlanNode, ctx: &ExecCtx) -> Result<Vec<LazyRow>> {
    if let Some((table, ids)) = access(node, ctx)? {
        return fetch_rows(table, &ids, true, ctx);
    }
    let mode = ctx.mode;
    let metrics = &*ctx.metrics;
    match node {
        PlanNode::SingleRow => Ok(vec![LazyRow::empty()]),
        PlanNode::Scan { .. }
        | PlanNode::SpatialIndexScan { .. }
        | PlanNode::OrderedIndexScan { .. }
        | PlanNode::KnnScan { .. } => unreachable!("every scan is read through `access`"),
        PlanNode::Filter { input, predicate } => {
            // A filter directly on a scan reads its column operands'
            // envelopes from the quads the table's frames keep.
            let scanned = access(input, ctx)?;
            let rows = match &scanned {
                Some((table, ids)) => fetch_rows(table, ids, true, ctx)?,
                None => run(input, ctx)?,
            };
            let scanned = scanned.as_ref().map(|(table, ids)| (*table, ids.as_slice()));
            let kept = filter(predicate, &rows, scanned, ctx)?;
            Ok(pick(rows, &kept))
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
            let expand = expand.as_ref().map(|d| eval_const(d, mode)).transpose()?;
            ctx.parallel_morsels(&l, |chunk| {
                let t0 = Instant::now();
                let mut out = Vec::new();
                for lr in chunk {
                    let g = eval_view(probe, lr, mode)?;
                    if g.is_null() {
                        continue; // NULL geometry joins nothing
                    }
                    let probed = probe_envelope(&g, expand.as_ref())
                        .and_then(|env| right.spatial_candidates(*right_col, &env));
                    // No index after all, or no envelope to probe with:
                    // degenerate to scanning the right table for this row.
                    let ids = probed.unwrap_or_else(|| right.row_ids());
                    for row in right.fetch_many(&ids, true)? {
                        out.push(lr.join_handle(row));
                    }
                }
                metrics.record_stage(Stage::IndexProbe, t0.elapsed());
                Ok(out)
            })
        }
        PlanNode::Project { input, exprs } => {
            // Plain columns straight off an access path pass the rows on:
            // none is kept, and one read for this alone gives up its
            // values to the result instead of having them cloned.
            let plain: Option<Vec<usize>> = exprs
                .iter()
                .map(|(e, _)| match e {
                    BoundExpr::Column(c) => Some(*c),
                    _ => None,
                })
                .collect();
            if let Some(cols) = plain {
                if let Some((table, ids)) = access(input, ctx)? {
                    return ctx.parallel_morsels(&ids, |chunk| {
                        let rows = table.fetch_many(chunk, false)?;
                        rows.into_iter()
                            .map(|row| pass_on(row, &cols).map(LazyRow::Owned))
                            .collect()
                    });
                }
            }
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
            // COUNT(*) alone, ungrouped, over an access path: the count
            // of the ids it keeps, with no row fetched.
            let counts_only =
                outputs.iter().all(|(o, _)| matches!(o, AggOutput::Agg(AggExpr::CountStar)));
            if group_by.is_empty() && counts_only {
                if let Some((_, ids)) = access(input, ctx)? {
                    let n = Value::Int(ids.len() as i64);
                    return Ok(vec![LazyRow::Owned(vec![n; outputs.len()])]);
                }
            }
            aggregate(run(input, ctx)?, group_by, outputs, ctx)
        }
        PlanNode::Sort { input, keys } => {
            let keys: Vec<_> = keys.iter().map(|(e, asc)| (e, *asc)).collect();
            Ok(keyed_sort(run(input, ctx)?, &keys, ctx)?.into_iter().map(|(_, r)| r).collect())
        }
        PlanNode::Limit { input, n } => {
            let mut rows = run(input, ctx)?;
            rows.truncate(*n);
            Ok(rows)
        }
    }
}

/// A scan's table and the row ids it and the filters over it keep.
pub(super) type Access<'a> = (&'a Arc<dyn TableProvider>, Vec<RowId>);

/// The one access path of every scan node, and of every filter over one
/// that the stored rows decide ([`Stored`]): the table to read (its
/// snapshot-pinned copy when the statement pinned one) and the row ids
/// kept, in the scan's order. An index probe is timed as the
/// `index_probe` stage; a table with no such index is read whole
/// (`row_ids()`), with no stage recorded. A filter is decided before
/// any row is fetched, morsel by morsel, and timed as the `refine`
/// stage, as the generic filter is. `None` for every other node — and
/// then no work was done, so the caller runs the node instead.
pub(super) fn access<'a>(node: &'a PlanNode, ctx: &'a ExecCtx) -> Result<Option<Access<'a>>> {
    let mode = ctx.mode;
    let (table, probed) = match node {
        PlanNode::Scan { table } => (ctx.src(table), None),
        PlanNode::SpatialIndexScan { table, col, query, expand } => {
            let table = ctx.src(table);
            let query = eval_const(query, mode)?;
            let expand = expand.as_ref().map(|d| eval_const(d, mode)).transpose()?;
            let probed = probe_envelope(&query, expand.as_ref()).and_then(|env| {
                ctx.stage_if_some(Stage::IndexProbe, || table.spatial_candidates(*col, &env))
            });
            (table, probed)
        }
        PlanNode::OrderedIndexScan { table, col, key } => {
            let table = ctx.src(table);
            let key = eval_const(key, mode)?;
            (table, ctx.stage_if_some(Stage::IndexProbe, || table.ordered_candidates(*col, &key)))
        }
        PlanNode::KnnScan { table, col, query, k } => {
            let table = ctx.src(table);
            let g = eval_const(query, mode)?;
            let geom = g
                .as_geom()
                .ok_or_else(|| SqlError::Type("k-NN query expression must be a geometry".into()))?;
            (table, knn_candidates(table, *col, geom, *k, ctx)?)
        }
        PlanNode::Filter { input, predicate } => {
            // Recognized before the input is read, so that `None` means
            // nothing was done.
            let Some(schema) = scanned_schema(input) else { return Ok(None) };
            let Some(stored) = Stored::of(predicate, &schema, mode) else { return Ok(None) };
            let Some((table, ids)) = access(input, ctx)? else { return Ok(None) };
            return Ok(Some((table, stored.retain_all(table, &ids, predicate, ctx)?)));
        }
        _ => return Ok(None),
    };
    let ids = probed.unwrap_or_else(|| table.row_ids());
    Ok(Some((table, ids)))
}

/// The schema of the table a scan node reads, through the filters over
/// it; `None` when `node` is not such a chain.
fn scanned_schema(node: &PlanNode) -> Option<Arc<Schema>> {
    match node {
        PlanNode::Scan { table }
        | PlanNode::SpatialIndexScan { table, .. }
        | PlanNode::OrderedIndexScan { table, .. }
        | PlanNode::KnnScan { table, .. } => Some(table.schema()),
        PlanNode::Filter { input, .. } => scanned_schema(input),
        _ => None,
    }
}

/// A filter over a scan that the stored rows decide, with no row
/// fetched or decoded: what [`access`] applies itself.
enum Stored {
    /// `kind` of the envelopes of geometry column `col` and of a
    /// constant geometry (the call's first argument when `col_first`),
    /// decided on the quads the table keeps
    /// ([`TableProvider::fetch_mbrs`]) exactly as the function decides
    /// it on the decoded values: a NULL is no match.
    Envelope { kind: PredicateKind, col: usize, constant: Envelope, col_first: bool },
    /// A predicate that reads only the non-geometry columns `cols`
    /// (ascending), evaluated over their stored values
    /// ([`TableProvider::filter_ids`]).
    Scalar(Vec<usize>),
}

impl Stored {
    /// How the stored rows of a table of `schema` decide `predicate`,
    /// if they do: anything that reads a geometry other than by its
    /// envelope against a constant's is decided on fetched rows.
    fn of(predicate: &BoundExpr, schema: &Schema, mode: FunctionMode) -> Option<Stored> {
        let geometry =
            |c: usize| schema.columns().get(c).is_some_and(|d| d.ty == DataType::Geometry);
        if let BoundExpr::Func { func, args } = predicate {
            if let (Some(kind), [a, b]) = (func.envelope_test(mode), args.as_slice()) {
                let (col, g, col_first) = match (Operand::of(a, mode)?, Operand::of(b, mode)?) {
                    (Operand::Column(col), Operand::Constant(g)) if geometry(col) => (col, g, true),
                    (Operand::Constant(g), Operand::Column(col)) if geometry(col) => {
                        (col, g, false)
                    }
                    _ => return None,
                };
                return Some(Stored::Envelope { kind, col, constant: g.envelope(), col_first });
            }
        }
        let mut cols = Vec::new();
        predicate.columns(&mut cols);
        if cols.iter().any(|&c| c >= schema.columns().len() || geometry(c)) {
            return None;
        }
        cols.sort_unstable();
        cols.dedup();
        Some(Stored::Scalar(cols))
    }

    /// [`Stored::retain`] of `ids`, morsel by morsel, timed as the
    /// `refine` stage and counted as refine candidates and hits, as the
    /// generic filter is.
    fn retain_all(
        &self,
        table: &Arc<dyn TableProvider>,
        ids: &[RowId],
        predicate: &BoundExpr,
        ctx: &ExecCtx,
    ) -> Result<Vec<RowId>> {
        let metrics = &*ctx.metrics;
        ctx.parallel_morsels(ids, |chunk| {
            let t0 = Instant::now();
            let kept = self.retain(table, chunk, predicate, ctx.mode)?;
            metrics.refine_candidates.add(chunk.len() as u64);
            metrics.refine_hits.add(kept.len() as u64);
            metrics.record_stage(Stage::Refine, t0.elapsed());
            Ok(kept)
        })
    }

    /// The ids of `ids` whose rows pass the filter, in input order.
    /// Without stored quads an envelope test, like a scalar predicate,
    /// evaluates `predicate` over the values the provider hands over.
    fn retain(
        &self,
        table: &Arc<dyn TableProvider>,
        ids: &[RowId],
        predicate: &BoundExpr,
        mode: FunctionMode,
    ) -> Result<Vec<RowId>> {
        let cols = match self {
            Stored::Envelope { kind, col, constant, col_first } => {
                if let Some(quads) = table.fetch_mbrs(*col, ids)? {
                    let holds = |q: [f64; 4]| {
                        let e = Envelope::from_quad(q);
                        let (a, b) = if *col_first { (&e, constant) } else { (constant, &e) };
                        mbr_predicate(*kind, a, b)
                    };
                    let kept = ids.iter().zip(quads).filter(|(_, q)| q.is_some_and(holds));
                    return Ok(kept.map(|(id, _)| *id).collect());
                }
                std::slice::from_ref(col)
            }
            Stored::Scalar(cols) => cols,
        };
        table.filter_ids(ids, cols, &mut |row| Ok(truthy(&eval_view(predicate, row, mode)?)))
    }
}

/// The rows `ORDER BY ST_Distance(col, query) LIMIT k` must sort to
/// answer exactly as a full scan would, in two index probes. The first
/// takes any k rows near `query` (the index's `nearest`, ranked by
/// envelope distance) and fetches them: the farthest of them, at exact
/// distance D, bounds the k-th smallest distance of the table. Every
/// row at distance D or less has its envelope within D of `query`'s
/// envelope, so the second probe, a window of that envelope grown by D
/// (and by a margin far above the rounding error of a distance), holds
/// every row the sort can keep. The ids are sorted, so the stable sort
/// breaks ties in storage order as the scan does. `None` (read the
/// whole table) without an index, when the index holds a row whose
/// geometry is empty or NULL (its NULL distance sorts first), with fewer
/// than k indexed rows, for an empty `query`, or when a fetched row has
/// no distance to it.
fn knn_candidates(
    table: &Arc<dyn TableProvider>,
    col: usize,
    query: &Geometry,
    k: usize,
    ctx: &ExecCtx,
) -> Result<Option<Vec<RowId>>> {
    let env = query.envelope();
    let Some(centre) = env.center() else { return Ok(None) };
    let Some(near) = ctx.stage_if_some(Stage::IndexProbe, || table.nearest(col, centre, k)) else {
        return Ok(None);
    };
    if near.len() < k {
        return Ok(None);
    }
    let mut reach = 0.0f64;
    for row in table.fetch_many(&near, true)? {
        let d = row.get(col).and_then(Value::as_geom).map(|g| alg::distance(g, query));
        match d {
            Some(d) if d.is_finite() => reach = reach.max(d),
            _ => return Ok(None),
        }
    }
    let scale =
        [env.min_x, env.min_y, env.max_x, env.max_y].iter().fold(reach, |m, v| m.max(v.abs()));
    let window = env.expanded_by(reach + scale * 1e-9);
    let mut ids = ctx.stage_if_some(Stage::IndexProbe, || table.spatial_candidates(col, &window));
    if let Some(ids) = &mut ids {
        ids.sort_unstable();
    }
    Ok(ids)
}

/// Fetches `ids` from `table` as row handles, morsel-parallel, one
/// [`TableProvider::fetch_many`] per morsel (`keep` passed on), without
/// copying row values (the handles share the heap's `Arc<Row>`s).
fn fetch_rows(
    table: &Arc<dyn TableProvider>,
    ids: &[RowId],
    keep: bool,
    ctx: &ExecCtx,
) -> Result<Vec<LazyRow>> {
    ctx.parallel_morsels(ids, |chunk| {
        Ok(table.fetch_many(chunk, keep)?.into_iter().map(LazyRow::One).collect())
    })
}

/// The values of columns `cols` of `row`, in order, for a projection
/// that passes the row on: moved out of a row the caller holds alone
/// (one no frame keeps), cloned out of a shared one.
fn pass_on(row: Arc<Row>, cols: &[usize]) -> Result<Vec<Value>> {
    if let Some(c) = cols.iter().find(|&&c| c >= row.len()) {
        return Err(SqlError::Type(format!("column offset {c} out of range")));
    }
    Ok(match Arc::try_unwrap(row) {
        Ok(values) if cols.iter().copied().eq(0..values.len()) => values,
        Ok(mut values) => {
            let mut out = Vec::with_capacity(cols.len());
            for (k, &c) in cols.iter().enumerate() {
                out.push(match cols[k + 1..].contains(&c) {
                    true => values[c].clone(),
                    false => std::mem::replace(&mut values[c], Value::Null),
                });
            }
            out
        }
        Err(shared) => cols.iter().map(|&c| shared[c].clone()).collect(),
    })
}

/// The positions in `rows` of the rows `predicate` holds for, ascending:
/// decided by the spatial filter loop for a recognized shape, and row by
/// row by the generic evaluator otherwise. `scanned`: see
/// [`spatial_filter`].
fn filter(
    predicate: &BoundExpr,
    rows: &[LazyRow],
    scanned: Option<(&Arc<dyn TableProvider>, &[RowId])>,
    ctx: &ExecCtx,
) -> Result<Vec<usize>> {
    if let Some(shape) = spatial_shape(predicate, ctx.mode) {
        return spatial_filter(rows, scanned, predicate, shape, ctx);
    }
    let metrics = &*ctx.metrics;
    ctx.parallel_morsels(rows, |chunk| {
        let Some(first) = chunk.first() else { return Ok(Vec::new()) };
        let at = rows.element_offset(first).expect("a morsel lies in the filter's input");
        let t0 = Instant::now();
        let mut out = Vec::new();
        for (i, row) in chunk.iter().enumerate() {
            if truthy(&eval_view(predicate, row, ctx.mode)?) {
                out.push(at + i);
            }
        }
        metrics.refine_candidates.add(chunk.len() as u64);
        metrics.refine_hits.add(out.len() as u64);
        metrics.record_stage(Stage::Refine, t0.elapsed());
        Ok(out)
    })
}

/// The items of `items` at `positions` (ascending), moved out in order.
fn pick<T>(items: Vec<T>, positions: &[usize]) -> Vec<T> {
    let mut wanted = positions.iter().copied().peekable();
    let kept = items.into_iter().enumerate().filter(|(i, _)| wanted.next_if_eq(i).is_some());
    kept.map(|(_, item)| item).collect()
}

/// The rows a DML statement acts on, found as the `SELECT *` of its
/// table under its WHERE (`node`, the plan's root) finds them: the ids,
/// in the scan's order, of the rows every filter keeps. The access path
/// and the filters the stored rows decide pick the candidates, reading
/// only the columns those filters use; any other filter is decided over
/// the candidates' rows, read without being kept. With `rows`, each id
/// comes with its row, read the same way, which the caller then holds
/// alone unless a frame already kept it.
pub(super) fn matching(
    node: &PlanNode,
    ctx: &ExecCtx,
    rows: bool,
) -> Result<Vec<(RowId, Option<Arc<Row>>)>> {
    let (table, ids, read) = candidates(node, ctx)?;
    let read = match read {
        Some(read) => read,
        None if rows => fetch_rows(table, &ids, false, ctx)?,
        None => return Ok(ids.into_iter().map(|id| (id, None)).collect()),
    };
    let handle = |row: LazyRow| match row {
        LazyRow::One(row) => row,
        _ => unreachable!("a scan's row is one handle"),
    };
    Ok(ids.into_iter().zip(read).map(|(id, row)| (id, rows.then(|| handle(row)))).collect())
}

/// The table `node` reads, the ids of its rows the filters keep and,
/// when a filter read them, those rows: what [`matching`] finds.
type Candidates<'a> = (&'a Arc<dyn TableProvider>, Vec<RowId>, Option<Vec<LazyRow>>);

fn candidates<'a>(node: &'a PlanNode, ctx: &'a ExecCtx) -> Result<Candidates<'a>> {
    if let Some((table, ids)) = access(node, ctx)? {
        return Ok((table, ids, None));
    }
    let (input, predicate) = match node {
        PlanNode::Project { input, .. } => return candidates(input, ctx),
        PlanNode::Filter { input, predicate } => (input, predicate),
        _ => return Err(SqlError::Type("a write reads one table under its filters".into())),
    };
    let (table, ids, read) = candidates(input, ctx)?;
    let read = match read {
        Some(read) => read,
        None => match Stored::of(predicate, &table.schema(), ctx.mode) {
            Some(stored) => {
                return Ok((table, stored.retain_all(table, &ids, predicate, ctx)?, None))
            }
            None => fetch_rows(table, &ids, false, ctx)?,
        },
    };
    let kept = filter(predicate, &read, None, ctx)?;
    Ok((table, pick(ids, &kept), Some(pick(read, &kept))))
}

/// The one keyed sort, for `Sort` and `GROUP BY`: each row's key tuple
/// (`keys`, each with its ascending flag) is evaluated morsel-parallel,
/// then the (key tuple, row) pairs are stable-sorted, so rows with equal
/// keys keep their input order at every worker count.
fn keyed_sort(
    rows: Vec<LazyRow>,
    keys: &[(&BoundExpr, bool)],
    ctx: &ExecCtx,
) -> Result<Vec<(Vec<Value>, LazyRow)>> {
    let mode = ctx.mode;
    let tuples: Vec<Vec<Value>> = ctx.parallel_morsels(&rows, |chunk| {
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
    let mut keyed: Vec<(Vec<Value>, LazyRow)> = tuples.into_iter().zip(rows).collect();
    keyed.sort_by(|(ka, _), (kb, _)| {
        for (i, (_, asc)) in keys.iter().enumerate() {
            let ord = compare_values(&ka[i], &kb[i]);
            let ord = if *asc { ord } else { ord.reverse() };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
    Ok(keyed)
}

/// The one aggregate evaluator. A global aggregate is the single group
/// of all rows; `GROUP BY` rows go through the keyed sort and each run
/// of equal keys is a group. Every aggregate's argument is evaluated
/// morsel-parallel over all rows, then folded serially per group **in
/// row order**, so float sums are bit-identical at every worker count.
fn aggregate(
    rows: Vec<LazyRow>,
    group_by: &[BoundExpr],
    outputs: &[(AggOutput, String)],
    ctx: &ExecCtx,
) -> Result<Vec<LazyRow>> {
    let mut groups = Vec::new();
    let (keys, rows): (Vec<Vec<Value>>, Vec<LazyRow>) = if group_by.is_empty() {
        if outputs.iter().any(|(o, _)| matches!(o, AggOutput::Group(_))) {
            return Err(SqlError::Type("group column without GROUP BY".into()));
        }
        groups.push(0..rows.len());
        (Vec::new(), rows)
    } else {
        let keys: Vec<_> = group_by.iter().map(|g| (g, true)).collect();
        keyed_sort(rows, &keys, ctx)?.into_iter().unzip()
    };
    let mut i = 0;
    while i < keys.len() {
        let j = i + keys[i..].iter().take_while(|k| equal_keys(&keys[i], k)).count();
        groups.push(i..j);
        i = j;
    }
    let mode = ctx.mode;
    let mut args = Vec::with_capacity(outputs.len());
    for (o, _) in outputs {
        args.push(match o {
            AggOutput::Agg(
                AggExpr::Count(e)
                | AggExpr::Sum(e)
                | AggExpr::Avg(e)
                | AggExpr::Min(e)
                | AggExpr::Max(e),
            ) => ctx.parallel_morsels(&rows, |chunk| {
                chunk.iter().map(|row| eval_view(e, row, mode)).collect()
            })?,
            AggOutput::Agg(AggExpr::CountStar) | AggOutput::Group(_) => Vec::new(),
        });
    }
    let out = groups.into_iter().map(|g| {
        let row = outputs.iter().zip(&args).map(|((o, _), vals)| match o {
            AggOutput::Group(k) => keys[g.start][*k].clone(),
            AggOutput::Agg(agg) => fold(agg, g.len(), vals.get(g.clone()).unwrap_or(&[])),
        });
        LazyRow::Owned(row.collect())
    });
    Ok(out.collect())
}

fn equal_keys(a: &[Value], b: &[Value]) -> bool {
    a.iter().zip(b).all(|(x, y)| compare_values(x, y) == Ordering::Equal)
}

/// Folds one aggregate over a group of `n` rows whose argument values
/// are `vals`, in row order (empty for `COUNT(*)`).
fn fold(agg: &AggExpr, n: usize, vals: &[Value]) -> Value {
    match agg {
        AggExpr::CountStar => Value::Int(n as i64),
        AggExpr::Count(_) => Value::Int(vals.iter().filter(|v| !v.is_null()).count() as i64),
        AggExpr::Sum(_) | AggExpr::Avg(_) => {
            let mut sum = 0.0;
            let mut summed = 0usize;
            for v in vals.iter().filter_map(Value::as_f64) {
                sum += v;
                summed += 1;
            }
            match agg {
                _ if summed == 0 => Value::Null,
                AggExpr::Sum(_) => Value::Float(sum),
                _ => Value::Float(sum / summed as f64),
            }
        }
        AggExpr::Min(_) | AggExpr::Max(_) => {
            let wanted =
                if matches!(agg, AggExpr::Min(_)) { Ordering::Less } else { Ordering::Greater };
            let mut best: Option<&Value> = None;
            for v in vals.iter().filter(|v| !v.is_null()) {
                if best.is_none_or(|b| compare_values(v, b) == wanted) {
                    best = Some(v);
                }
            }
            best.cloned().unwrap_or(Value::Null)
        }
    }
}

//! The physical operators: one access path for every scan, one keyed
//! sort for `Sort` and `GROUP BY`, one aggregate evaluator.

use super::eval::{
    compare_values, dwithin_distance, eval_const, eval_view, probe_envelope, truthy,
};
use super::vectorized::vectorized_filter;
use super::{ExecCtx, LazyRow, MAX_CAPACITY_HINT};
use crate::plan::{AggExpr, AggOutput, BoundExpr, PlanNode};
use crate::provider::TableProvider;
use crate::{Result, SqlError};
use jackpine_geom::algorithms as alg;
use jackpine_geom::Geometry;
use jackpine_obs::Stage;
use jackpine_storage::{RowId, Value};
use std::cmp::Ordering;
use std::sync::Arc;
use std::time::Instant;

pub(super) fn run(node: &PlanNode, ctx: &ExecCtx) -> Result<Vec<LazyRow>> {
    if let Some((table, ids)) = access(node, ctx)? {
        return fetch_rows(table, &ids, ctx);
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
            if let Some(shape) = ctx.spatial_shape(predicate) {
                return vectorized_filter(input, predicate, shape, ctx);
            }
            // Not a recognized spatial shape: the generic evaluator
            // decides every row.
            let rows = run(input, ctx)?;
            ctx.parallel_morsels(&rows, |chunk| {
                let t0 = Instant::now();
                let mut out = Vec::with_capacity(chunk.len());
                for row in chunk {
                    if truthy(&eval_view(predicate, row, mode)?) {
                        out.push(row.clone());
                    }
                }
                metrics.refine_candidates.add(chunk.len() as u64);
                metrics.refine_hits.add(out.len() as u64);
                metrics.record_stage(Stage::Refine, t0.elapsed());
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
            let expand_by = dwithin_distance(expand, mode)?.unwrap_or(0.0);
            ctx.parallel_morsels(&l, |chunk| {
                let t0 = Instant::now();
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
                metrics.record_stage(Stage::IndexProbe, t0.elapsed());
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

/// A scan's table and the row ids it reads.
pub(super) type Access<'a> = (&'a Arc<dyn TableProvider>, Vec<RowId>);

/// The one access path of every scan node: the table to read (its
/// snapshot-pinned copy when the statement pinned one) and the row ids
/// the scan yields. An index probe is timed as the `index_probe` stage;
/// a table with no such index is read whole (`row_ids()`), with no
/// stage recorded. `None` for every other node.
pub(super) fn access<'a>(node: &'a PlanNode, ctx: &'a ExecCtx) -> Result<Option<Access<'a>>> {
    let mode = ctx.mode;
    let (table, probed) = match node {
        PlanNode::Scan { table } => (ctx.src(table), None),
        PlanNode::SpatialIndexScan { table, col, query, expand } => {
            let table = ctx.src(table);
            let env = probe_envelope(query, expand, mode)?;
            (table, ctx.stage_if_some(Stage::IndexProbe, || table.spatial_candidates(*col, &env)))
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
        _ => return Ok(None),
    };
    let ids = probed.unwrap_or_else(|| table.row_ids());
    Ok(Some((table, ids)))
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
/// whole table) without an index, with fewer than k indexed rows, for
/// an empty `query`, or when a fetched row has no distance to it.
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
    for row in table.fetch_many(&near)? {
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
/// [`TableProvider::fetch_many`] per morsel, without copying row values
/// (the handles share the heap's `Arc<Row>`s).
pub(super) fn fetch_rows(
    table: &Arc<dyn TableProvider>,
    ids: &[RowId],
    ctx: &ExecCtx,
) -> Result<Vec<LazyRow>> {
    ctx.parallel_morsels(ids, |chunk| {
        Ok(table.fetch_many(chunk)?.into_iter().map(LazyRow::one).collect())
    })
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

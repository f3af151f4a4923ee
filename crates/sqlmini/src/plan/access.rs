//! Access-path choice: a table's k-NN, spatial-index, ordered-index or
//! sequential scan, and the index-join form of a join predicate.

use super::bind::{bind, referenced_tables, BoundTable, Layout};
use super::{aggregates, BoundExpr, PlanNode, PlanOptions};
use crate::ast::{BinOp, Expr, Select};
use crate::functions::{Func, FunctionMode};
use crate::Result;

/// Chooses the base access path for one table given its single-table
/// filters.
pub(super) fn choose_access(
    t_idx: usize,
    t: &BoundTable,
    filters: &[&Expr],
    layout: &Layout,
    opts: &PlanOptions,
    select: &Select,
) -> Result<PlanNode> {
    // k-NN path: single table, ORDER BY ST_Distance(geom, const) LIMIT k,
    // no other filters and no aggregate (an aggregate would see only the
    // candidates, not every row).
    if layout.tables.len() == 1
        && select.order_by.len() == 1
        && filters.is_empty()
        && !aggregates(select)
    {
        let (key, ascending) = &select.order_by[0];
        if let (Some(k), Some((Func::Distance, [a, b])), true) =
            (select.limit, call_of(key), *ascending)
        {
            for (col_side, const_side) in [(a, b), (b, a)] {
                if let Some(col) = table_geometry_column(col_side, t_idx, t, layout)? {
                    let c = bind(const_side, layout);
                    if let Ok(c) = c {
                        if c.is_constant() && opts.use_spatial_index {
                            return Ok(PlanNode::KnnScan {
                                table: t.provider.clone(),
                                col,
                                query: c,
                                k,
                            });
                        }
                    }
                }
            }
        }
    }

    if opts.use_spatial_index {
        for f in filters {
            if let Some((func, args)) = call_of(f) {
                if index_filter(func, opts.mode) && args.len() >= 2 {
                    for (col_side, const_side) in [(&args[0], &args[1]), (&args[1], &args[0])] {
                        if let Some(col) = table_geometry_column(col_side, t_idx, t, layout)? {
                            let bound_const = bind(const_side, layout);
                            if let Ok(c) = bound_const {
                                if c.is_constant() {
                                    let expand = if func == Func::DWithin {
                                        // Without a constant distance the
                                        // filter decides every row.
                                        match args.get(2).map(|d| bind(d, layout)).transpose()? {
                                            Some(d) if d.is_constant() => Some(d),
                                            _ => continue,
                                        }
                                    } else {
                                        None
                                    };
                                    return Ok(PlanNode::SpatialIndexScan {
                                        table: t.provider.clone(),
                                        col,
                                        query: c,
                                        expand,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    // Ordered-index equality.
    for f in filters {
        if let Expr::Binary { op: BinOp::Eq, left, right } = f {
            for (col_side, const_side) in [(left, right), (right, left)] {
                if let Expr::Column { table, name } = col_side.as_ref() {
                    let idx = layout.resolve(table.as_deref(), name)?;
                    if layout.table_of(idx) == t_idx {
                        let key = bind(const_side, layout)?;
                        if key.is_constant() {
                            return Ok(PlanNode::OrderedIndexScan {
                                table: t.provider.clone(),
                                col: idx - t.offset,
                                key,
                            });
                        }
                    }
                }
            }
        }
    }

    Ok(PlanNode::Scan { table: t.provider.clone() })
}

/// If `expr` is a column of table `t_idx`'s geometry, returns its
/// table-local column index.
fn table_geometry_column(
    expr: &Expr,
    t_idx: usize,
    t: &BoundTable,
    layout: &Layout,
) -> Result<Option<usize>> {
    if let Expr::Column { table, name } = expr {
        // Unresolvable names are simply "not this table's column".
        if let Ok(idx) = layout.resolve(table.as_deref(), name) {
            if layout.table_of(idx) == t_idx {
                let local = idx - t.offset;
                if t.geometry_cols.contains(&local) {
                    return Ok(Some(local));
                }
            }
        }
    }
    Ok(None)
}

/// Recognizes `pred(expr-over-covered, right.geom)` (either argument
/// order) as an index-join opportunity. Returns the probe expression and
/// the right geometry column expression.
pub(super) fn spatial_join_form<'a>(
    f: &'a Expr,
    layout: &Layout,
    covered: &[usize],
    right_idx: usize,
    mode: FunctionMode,
) -> Result<Option<(&'a Expr, &'a Expr)>> {
    let Some((func, args)) = call_of(f) else {
        return Ok(None);
    };
    if !index_filter(func, mode) || args.len() < 2 {
        return Ok(None);
    }
    let right = &layout.tables[right_idx];
    for (a, b) in [(&args[0], &args[1]), (&args[1], &args[0])] {
        if table_geometry_column(b, right_idx, right, layout)?.is_some() {
            // The other side must reference only covered tables.
            let mut refs = Vec::new();
            referenced_tables(a, layout, &mut refs)?;
            if !refs.is_empty() && refs.iter().all(|r| covered.contains(r)) {
                return Ok(Some((a, b)));
            }
        }
    }
    Ok(None)
}

/// Extracts the constant distance of an `ST_DWithin` join predicate.
pub(super) fn dwithin_distance(f: &Expr, layout: &Layout) -> Result<Option<BoundExpr>> {
    if let Some((Func::DWithin, [_, _, d])) = call_of(f) {
        let d = bind(d, layout)?;
        if d.is_constant() {
            return Ok(Some(d));
        }
    }
    Ok(None)
}

/// Whether a call of `func` may be served with a spatial-index filter
/// step in `mode`. A function the profile lacks is planned as a scan:
/// its call fails on the first row, where a probe that found no
/// candidate would answer no rows.
fn index_filter(func: Func, mode: FunctionMode) -> bool {
    func.is_index_filter() && func.available_in(mode)
}

/// The function `e` calls and its arguments, when `e` is a call of a
/// known function.
fn call_of(e: &Expr) -> Option<(Func, &[Expr])> {
    match e {
        Expr::Func { name, args } => Some((Func::from_name(name)?, args)),
        _ => None,
    }
}

//! Binding and planning: turns a parsed `SELECT` into an executable plan
//! tree, choosing index access paths the way the benchmarked systems do
//! (filter on the spatial index, refine with the exact predicate).
//!
//! `bind` resolves names against the flat tuple layout and folds
//! constants; `access` chooses each table's access path and recognizes
//! index joins; this module assembles the tree.

mod access;
mod bind;

use crate::ast::{BinOp, Expr, Select, SelectItem};
use crate::functions::FunctionMode;
use crate::provider::{CatalogProvider, TableProvider};
use crate::{Result, SqlError};
use access::{choose_access, dwithin_distance, spatial_join_form};
use bind::{bind, referenced_tables, BoundTable, Layout};
use jackpine_storage::{DataType, Value};
use std::sync::Arc;

/// Planner switches, set by the engine profile.
#[derive(Clone, Copy, Debug)]
pub struct PlanOptions {
    /// Spatial semantics (exact vs. MBR-only).
    pub mode: FunctionMode,
    /// Whether spatial indexes may be used (off = sequential refine, the
    /// F5 indexing experiment's baseline).
    pub use_spatial_index: bool,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions { mode: FunctionMode::Exact, use_spatial_index: true }
    }
}

/// An expression with column references resolved to tuple offsets.
#[derive(Clone, Debug)]
pub enum BoundExpr {
    /// A constant.
    Literal(Value),
    /// Tuple column by offset.
    Column(usize),
    /// Function call.
    Func {
        /// Function name.
        name: String,
        /// Bound arguments.
        args: Vec<BoundExpr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<BoundExpr>,
        /// Right operand.
        right: Box<BoundExpr>,
    },
    /// Logical NOT.
    Not(Box<BoundExpr>),
    /// Numeric negation.
    Neg(Box<BoundExpr>),
    /// Range test.
    Between {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Inclusive lower bound.
        lo: Box<BoundExpr>,
        /// Inclusive upper bound.
        hi: Box<BoundExpr>,
    },
    /// NULL test.
    IsNull {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// `true` for IS NOT NULL.
        negated: bool,
    },
}

impl BoundExpr {
    /// `true` when the expression references no tuple columns (safe to
    /// evaluate once, before execution).
    pub fn is_constant(&self) -> bool {
        match self {
            BoundExpr::Literal(_) => true,
            BoundExpr::Column(_) => false,
            BoundExpr::Func { args, .. } => args.iter().all(BoundExpr::is_constant),
            BoundExpr::Binary { left, right, .. } => left.is_constant() && right.is_constant(),
            BoundExpr::Not(e) | BoundExpr::Neg(e) => e.is_constant(),
            BoundExpr::Between { expr, lo, hi } => {
                expr.is_constant() && lo.is_constant() && hi.is_constant()
            }
            BoundExpr::IsNull { expr, .. } => expr.is_constant(),
        }
    }
}

/// One output column of a grouped aggregation.
#[derive(Clone, Debug)]
pub enum AggOutput {
    /// The i-th grouping key.
    Group(usize),
    /// An aggregate over the group's rows.
    Agg(AggExpr),
}

/// An aggregate in the projection list.
#[derive(Clone, Debug)]
pub enum AggExpr {
    /// `COUNT(*)`
    CountStar,
    /// `COUNT(expr)` — non-NULL count.
    Count(BoundExpr),
    /// `SUM(expr)`
    Sum(BoundExpr),
    /// `AVG(expr)`
    Avg(BoundExpr),
    /// `MIN(expr)`
    Min(BoundExpr),
    /// `MAX(expr)`
    Max(BoundExpr),
}

/// An executable plan node. Tuples flow bottom-up; each node's output
/// layout is fixed at plan time.
pub enum PlanNode {
    /// Produces exactly one empty tuple (FROM-less constant queries).
    SingleRow,
    /// Full table scan.
    Scan {
        /// Source table.
        table: Arc<dyn TableProvider>,
    },
    /// Spatial-index window scan: candidates whose envelope intersects the
    /// (constant) query envelope. Falls back to a full scan when the table
    /// has no index on the column.
    SpatialIndexScan {
        /// Source table.
        table: Arc<dyn TableProvider>,
        /// Geometry column index in the table.
        col: usize,
        /// Constant expression producing the query geometry.
        query: BoundExpr,
        /// Constant expansion distance (for `ST_DWithin`).
        expand: Option<BoundExpr>,
    },
    /// Ordered-index equality scan. Falls back to a full scan without an
    /// index.
    OrderedIndexScan {
        /// Source table.
        table: Arc<dyn TableProvider>,
        /// Key column index in the table.
        col: usize,
        /// Constant key expression.
        key: BoundExpr,
    },
    /// k-nearest-neighbour scan (reverse geocoding's access path).
    KnnScan {
        /// Source table.
        table: Arc<dyn TableProvider>,
        /// Geometry column index in the table.
        col: usize,
        /// Constant query geometry expression.
        query: BoundExpr,
        /// The statement's `LIMIT`: how many rows the exact sort keeps.
        k: usize,
    },
    /// Tuple filter.
    Filter {
        /// Input node.
        input: Box<PlanNode>,
        /// Predicate over the input layout.
        predicate: BoundExpr,
    },
    /// Cross product (filters above restore join semantics).
    NestedLoopJoin {
        /// Left input.
        left: Box<PlanNode>,
        /// Right input.
        right: Box<PlanNode>,
    },
    /// Index nested-loop spatial join: for each left tuple, probe the
    /// right table's spatial index with the left geometry's envelope.
    SpatialIndexJoin {
        /// Left input.
        left: Box<PlanNode>,
        /// Right (probed) table.
        right: Arc<dyn TableProvider>,
        /// Geometry column in the right table.
        right_col: usize,
        /// Expression over the *left* tuple producing the probe geometry.
        probe: BoundExpr,
        /// Constant probe-envelope expansion (for `ST_DWithin` joins).
        expand: Option<BoundExpr>,
    },
    /// Projection.
    Project {
        /// Input node.
        input: Box<PlanNode>,
        /// Output expressions with labels.
        exprs: Vec<(BoundExpr, String)>,
    },
    /// Aggregation, optionally grouped.
    Aggregate {
        /// Input node.
        input: Box<PlanNode>,
        /// Grouping key expressions (empty = one global group).
        group_by: Vec<BoundExpr>,
        /// Output columns in projection order.
        outputs: Vec<(AggOutput, String)>,
    },
    /// Sort by key expressions (ascending flags per key).
    Sort {
        /// Input node.
        input: Box<PlanNode>,
        /// Sort keys over the input layout.
        keys: Vec<(BoundExpr, bool)>,
    },
    /// Row-count limit.
    Limit {
        /// Input node.
        input: Box<PlanNode>,
        /// Maximum rows.
        n: usize,
    },
}

/// The planned form of a `SELECT`: the root node plus output labels.
pub struct PlannedSelect {
    /// Root of the plan tree.
    pub root: PlanNode,
    /// Output column labels.
    pub columns: Vec<String>,
    /// Evaluation mode for expression execution.
    pub mode: FunctionMode,
}

/// Plans a `SELECT` against a catalog.
pub fn plan_select(
    catalog: &dyn CatalogProvider,
    select: &Select,
    opts: &PlanOptions,
) -> Result<PlannedSelect> {
    // Resolve FROM tables and build the flat layout.
    let mut layout = Layout { tables: Vec::new(), columns: Vec::new() };
    for tref in &select.from {
        let provider = catalog.table(&tref.table)?;
        let schema = provider.schema();
        let offset = layout.columns.len();
        let mut geometry_cols = Vec::new();
        for (i, col) in schema.columns().iter().enumerate() {
            if col.ty == DataType::Geometry {
                geometry_cols.push(i);
            }
            layout.columns.push((tref.alias.clone(), col.name.clone()));
        }
        layout.tables.push(BoundTable {
            alias: tref.alias.clone(),
            provider,
            offset,
            geometry_cols,
        });
    }
    if layout
        .tables
        .iter()
        .enumerate()
        .any(|(i, t)| layout.tables[..i].iter().any(|u| u.alias.eq_ignore_ascii_case(&t.alias)))
    {
        return Err(SqlError::Unresolved("duplicate table alias".into()));
    }

    // Classify filters by the tables they touch.
    let mut single: Vec<Vec<&Expr>> = vec![Vec::new(); layout.tables.len()];
    let mut multi: Vec<&Expr> = Vec::new();
    for f in &select.filters {
        let mut refs = Vec::new();
        referenced_tables(f, &layout, &mut refs)?;
        match refs.as_slice() {
            [t] => single[*t].push(f),
            _ => multi.push(f),
        }
    }

    // Access path per table.
    let mut accesses: Vec<PlanNode> = Vec::new();
    for (t_idx, t) in layout.tables.iter().enumerate() {
        accesses.push(choose_access(t_idx, t, &single[t_idx], &layout, opts, select)?);
    }

    // FROM-less query: a single empty tuple feeds the projection.
    if layout.tables.is_empty() {
        let mut root = PlanNode::SingleRow;
        for f in &select.filters {
            root = PlanNode::Filter { input: Box::new(root), predicate: bind(f, &layout)? };
        }
        let (mut root, columns) = plan_projection(root, select, &layout)?;
        if let Some(n) = select.limit {
            root = PlanNode::Limit { input: Box::new(root), n };
        }
        return Ok(PlannedSelect { root, columns, mode: opts.mode });
    }

    // Left-deep join tree. Track which original table each joined plan
    // covers so join predicates can pick the spatial-index path.
    let mut covered: Vec<usize> = vec![0];
    let mut accesses_iter = accesses.into_iter();
    let mut root = accesses_iter.next().expect("FROM has at least one table");
    // Apply table 0's own filters now.
    for f in &single[0] {
        root = PlanNode::Filter { input: Box::new(root), predicate: bind(f, &layout)? };
    }
    let mut applied_multi: Vec<bool> = vec![false; multi.len()];

    for (next_idx, access) in accesses_iter.enumerate() {
        let t_idx = next_idx + 1;
        // Look for a spatial join predicate connecting `covered` ⇄ t_idx.
        let mut spatial_join: Option<(usize, &Expr, &Expr)> = None; // (multi idx, probe side expr, other)
        if opts.use_spatial_index {
            for (mi, f) in multi.iter().enumerate() {
                if applied_multi[mi] {
                    continue;
                }
                if let Some((probe, right_col)) = spatial_join_form(f, &layout, &covered, t_idx)? {
                    spatial_join = Some((mi, probe, right_col));
                    break;
                }
            }
        }

        root = match spatial_join {
            Some((mi, probe_expr, right_geom_expr)) => {
                // The join predicate itself stays as a refinement filter
                // above; only the probe path changes.
                let probe = bind(probe_expr, &layout)?;
                let right_col_offset = match bind(right_geom_expr, &layout)? {
                    BoundExpr::Column(c) => c,
                    _ => unreachable!("spatial_join_form returns a column"),
                };
                let right_table = &layout.tables[t_idx];
                let right_col = right_col_offset - right_table.offset;
                // Detect DWithin to expand the probe envelope.
                let expand = dwithin_distance(multi[mi], &layout)?;
                // The chosen access path for the right table is discarded:
                // the index join subsumes it. Its single-table filters are
                // applied above.
                drop(access);
                PlanNode::SpatialIndexJoin {
                    left: Box::new(root),
                    right: right_table.provider.clone(),
                    right_col,
                    probe,
                    expand,
                }
            }
            None => PlanNode::NestedLoopJoin { left: Box::new(root), right: Box::new(access) },
        };

        // Right table's single-table filters.
        for f in &single[t_idx] {
            root = PlanNode::Filter { input: Box::new(root), predicate: bind(f, &layout)? };
        }
        covered.push(t_idx);
        // Join predicates now fully covered.
        for (mi, f) in multi.iter().enumerate() {
            if applied_multi[mi] {
                continue;
            }
            let mut refs = Vec::new();
            referenced_tables(f, &layout, &mut refs)?;
            if refs.iter().all(|r| covered.contains(r)) {
                root = PlanNode::Filter { input: Box::new(root), predicate: bind(f, &layout)? };
                applied_multi[mi] = true;
            }
        }
    }

    // Any remaining (degenerate single-table-from) multi filters.
    for (mi, f) in multi.iter().enumerate() {
        if !applied_multi[mi] && layout.tables.len() == 1 {
            root = PlanNode::Filter { input: Box::new(root), predicate: bind(f, &layout)? };
        }
    }

    // Sort before projection (keys see the FROM layout), positional keys
    // after projection.
    let mut pre_sort: Vec<(BoundExpr, bool)> = Vec::new();
    let mut positional_sort: Vec<(usize, bool)> = Vec::new();
    for (e, asc) in &select.order_by {
        if let Expr::Literal(Value::Int(n)) = e {
            if *n < 1 {
                return Err(SqlError::Type("ORDER BY position must be ≥ 1".into()));
            }
            positional_sort.push((*n as usize - 1, *asc));
        } else {
            pre_sort.push((bind(e, &layout)?, *asc));
        }
    }
    if !pre_sort.is_empty() {
        // Expression sort keys run before projection/aggregation; with
        // GROUP BY the pre-aggregation ordering would be meaningless, so
        // require positional keys there instead of silently ignoring the
        // requested order.
        if !select.group_by.is_empty() {
            return Err(SqlError::Type(
                "ORDER BY with GROUP BY must use positional references (ORDER BY 1)".into(),
            ));
        }
        root = PlanNode::Sort { input: Box::new(root), keys: pre_sort };
    }

    // Projection / aggregation.
    let (mut root, columns) = plan_projection(root, select, &layout)?;

    if !positional_sort.is_empty() {
        let keys = positional_sort
            .into_iter()
            .map(|(i, asc)| {
                if i >= columns.len() {
                    return Err(SqlError::Type(format!(
                        "ORDER BY position {} exceeds projection width",
                        i + 1
                    )));
                }
                Ok((BoundExpr::Column(i), asc))
            })
            .collect::<Result<Vec<_>>>()?;
        root = PlanNode::Sort { input: Box::new(root), keys };
    }

    if let Some(n) = select.limit {
        root = PlanNode::Limit { input: Box::new(root), n };
    }

    Ok(PlannedSelect { root, columns, mode: opts.mode })
}

/// Whether `select` aggregates: a `GROUP BY`, or an aggregate call in
/// its projection list.
fn aggregates(select: &Select) -> bool {
    !select.group_by.is_empty()
        || select.items.iter().any(|i| {
            matches!(i, SelectItem::Expr { expr: Expr::Func { name, .. }, .. }
                if ["COUNT", "SUM", "AVG", "MIN", "MAX"]
                    .contains(&name.to_ascii_uppercase().as_str()))
        })
}

/// Builds the projection or aggregation stage.
fn plan_projection(
    input: PlanNode,
    select: &Select,
    layout: &Layout,
) -> Result<(PlanNode, Vec<String>)> {
    if aggregates(select) {
        let group_by: Vec<BoundExpr> =
            select.group_by.iter().map(|e| bind(e, layout)).collect::<Result<_>>()?;
        let mut outputs: Vec<(AggOutput, String)> = Vec::new();
        for item in &select.items {
            let SelectItem::Expr { expr, alias } = item else {
                return Err(SqlError::Type("cannot mix '*' with aggregates".into()));
            };
            if let Expr::Func { name, args } = expr {
                let upper = name.to_ascii_uppercase();
                if ["COUNT", "SUM", "AVG", "MIN", "MAX"].contains(&upper.as_str()) {
                    let label = alias.clone().unwrap_or_else(|| upper.to_lowercase());
                    let agg = match (upper.as_str(), args.as_slice()) {
                        ("COUNT", [Expr::Star]) => AggExpr::CountStar,
                        ("COUNT", [a]) => AggExpr::Count(bind(a, layout)?),
                        ("SUM", [a]) => AggExpr::Sum(bind(a, layout)?),
                        ("AVG", [a]) => AggExpr::Avg(bind(a, layout)?),
                        ("MIN", [a]) => AggExpr::Min(bind(a, layout)?),
                        ("MAX", [a]) => AggExpr::Max(bind(a, layout)?),
                        _ => {
                            return Err(SqlError::Type(format!(
                                "malformed aggregate {name}({} args)",
                                args.len()
                            )))
                        }
                    };
                    outputs.push((AggOutput::Agg(agg), label));
                    continue;
                }
            }
            // Non-aggregate item: must match a GROUP BY expression.
            let pos = select.group_by.iter().position(|g| g == expr).ok_or_else(|| {
                SqlError::Type("non-aggregate select expression must appear in GROUP BY".into())
            })?;
            let label = alias.clone().unwrap_or_else(|| default_label(expr));
            outputs.push((AggOutput::Group(pos), label));
        }
        let columns = outputs.iter().map(|(_, l)| l.clone()).collect();
        return Ok((PlanNode::Aggregate { input: Box::new(input), group_by, outputs }, columns));
    }

    // Plain projection.
    let mut exprs: Vec<(BoundExpr, String)> = Vec::new();
    for item in &select.items {
        match item {
            SelectItem::Wildcard => {
                for (i, (alias, col)) in layout.columns.iter().enumerate() {
                    let label = if layout.tables.len() > 1 {
                        format!("{alias}.{col}")
                    } else {
                        col.clone()
                    };
                    exprs.push((BoundExpr::Column(i), label));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let label = alias.clone().unwrap_or_else(|| default_label(expr));
                exprs.push((bind(expr, layout)?, label));
            }
        }
    }
    let columns = exprs.iter().map(|(_, l)| l.clone()).collect();
    Ok((PlanNode::Project { input: Box::new(input), exprs }, columns))
}

fn default_label(e: &Expr) -> String {
    match e {
        Expr::Column { name, .. } => name.clone(),
        Expr::Func { name, .. } => name.to_lowercase(),
        _ => "expr".to_string(),
    }
}

impl PlanNode {
    /// Renders the plan as an indented tree, one operator per line — the
    /// `EXPLAIN` output.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        self.describe_into(0, &mut out);
        out
    }

    fn describe_into(&self, depth: usize, out: &mut String) {
        use std::fmt::Write as _;
        for _ in 0..depth {
            out.push_str("  ");
        }
        match self {
            PlanNode::SingleRow => {
                out.push_str("SingleRow\n");
            }
            PlanNode::Scan { table } => {
                let _ = writeln!(out, "SeqScan rows={}", table.row_ids().len());
            }
            PlanNode::SpatialIndexScan { table, col, expand, .. } => {
                let _ = writeln!(
                    out,
                    "SpatialIndexScan col={col} rows={}{}",
                    table.row_ids().len(),
                    if expand.is_some() { " expand=dwithin" } else { "" }
                );
            }
            PlanNode::OrderedIndexScan { col, .. } => {
                let _ = writeln!(out, "OrderedIndexScan col={col}");
            }
            PlanNode::KnnScan { col, k, .. } => {
                let _ = writeln!(out, "KnnScan col={col} k={k}");
            }
            PlanNode::Filter { input, .. } => {
                out.push_str("Filter\n");
                input.describe_into(depth + 1, out);
            }
            PlanNode::NestedLoopJoin { left, right } => {
                out.push_str("NestedLoopJoin\n");
                left.describe_into(depth + 1, out);
                right.describe_into(depth + 1, out);
            }
            PlanNode::SpatialIndexJoin { left, right_col, expand, .. } => {
                let _ = writeln!(
                    out,
                    "SpatialIndexJoin right_col={right_col}{}",
                    if expand.is_some() { " expand=dwithin" } else { "" }
                );
                left.describe_into(depth + 1, out);
            }
            PlanNode::Project { input, exprs } => {
                let _ = writeln!(out, "Project cols={}", exprs.len());
                input.describe_into(depth + 1, out);
            }
            PlanNode::Aggregate { input, group_by, outputs } => {
                let _ = writeln!(out, "Aggregate groups={} cols={}", group_by.len(), outputs.len());
                input.describe_into(depth + 1, out);
            }
            PlanNode::Sort { input, keys } => {
                let _ = writeln!(out, "Sort keys={}", keys.len());
                input.describe_into(depth + 1, out);
            }
            PlanNode::Limit { input, n } => {
                let _ = writeln!(out, "Limit n={n}");
                input.describe_into(depth + 1, out);
            }
        }
    }

    /// Appends every table provider the plan reads (leaves and probed
    /// join sides) to `out`, duplicates included. The executor uses this
    /// to pin each distinct provider to the statement snapshot.
    pub fn collect_providers<'a>(&'a self, out: &mut Vec<&'a Arc<dyn TableProvider>>) {
        match self {
            PlanNode::SingleRow => {}
            PlanNode::Scan { table }
            | PlanNode::SpatialIndexScan { table, .. }
            | PlanNode::OrderedIndexScan { table, .. }
            | PlanNode::KnnScan { table, .. } => out.push(table),
            PlanNode::Filter { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::Aggregate { input, .. }
            | PlanNode::Sort { input, .. }
            | PlanNode::Limit { input, .. } => input.collect_providers(out),
            PlanNode::NestedLoopJoin { left, right } => {
                left.collect_providers(out);
                right.collect_providers(out);
            }
            PlanNode::SpatialIndexJoin { left, right, .. } => {
                left.collect_providers(out);
                out.push(right);
            }
        }
    }
}

/// Binds an expression against a bare `(alias, column)` list, for callers
/// outside the `SELECT` planner (e.g. `DELETE` filter evaluation).
pub fn bind_columns(columns: Vec<(String, String)>, expr: &Expr) -> Result<BoundExpr> {
    let layout = Layout { tables: Vec::new(), columns };
    bind(expr, &layout)
}

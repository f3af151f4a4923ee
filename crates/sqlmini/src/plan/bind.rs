//! Name binding: the flat tuple layout of a `FROM` list, expressions
//! bound against it with constant subtrees folded, and the tables an
//! expression reads.

use super::BoundExpr;
use crate::ast::Expr;
use crate::functions::FunctionMode;
use crate::provider::TableProvider;
use crate::{Result, SqlError};
use jackpine_storage::Value;
use std::sync::Arc;

/// One table's slice of the flat tuple layout.
pub(super) struct BoundTable {
    pub(super) alias: String,
    pub(super) provider: Arc<dyn TableProvider>,
    pub(super) offset: usize,
    pub(super) geometry_cols: Vec<usize>,
}

/// The flat layout: qualified column names in tuple order.
pub(super) struct Layout {
    pub(super) tables: Vec<BoundTable>,
    pub(super) columns: Vec<(String, String)>, // (alias, column)
}

impl Layout {
    pub(super) fn resolve(&self, table: Option<&str>, name: &str) -> Result<usize> {
        let mut hit = None;
        for (i, (alias, col)) in self.columns.iter().enumerate() {
            let table_ok = table.is_none_or(|t| t.eq_ignore_ascii_case(alias));
            if table_ok && col.eq_ignore_ascii_case(name) {
                if hit.is_some() && table.is_none() {
                    return Err(SqlError::Unresolved(format!("ambiguous column '{name}'")));
                }
                hit = Some(i);
                if table.is_some() {
                    break;
                }
            }
        }
        hit.ok_or_else(|| {
            SqlError::Unresolved(match table {
                Some(t) => format!("column '{t}.{name}'"),
                None => format!("column '{name}'"),
            })
        })
    }

    /// The index of the table whose columns cover flat offset `offset`.
    pub(super) fn table_of(&self, offset: usize) -> usize {
        self.tables.iter().rposition(|t| t.offset <= offset).expect("offset inside some table")
    }
}

/// Binds `expr` against `layout`, folding constant subtrees.
pub(super) fn bind(expr: &Expr, layout: &Layout) -> Result<BoundExpr> {
    let bound = bind_raw(expr, layout)?;
    Ok(fold_constants(bound))
}

/// Evaluates constant subexpressions once at plan time, so per-row
/// evaluation never re-parses WKT literals or re-buffers constant
/// geometries. Folding uses exact semantics; it never folds function
/// calls whose availability depends on the engine profile, so the
/// MBR-only profile still reports its missing functions at run time.
fn fold_constants(e: BoundExpr) -> BoundExpr {
    // Only fold cheap, profile-independent constructors; predicate and
    // analysis calls are left for the evaluator, where the engine profile
    // decides their semantics and availability.
    const FOLDABLE: [&str; 4] = ["ST_GEOMFROMTEXT", "ST_POINT", "ST_MAKEPOINT", "ST_MAKEENVELOPE"];
    match e {
        BoundExpr::Func { name, args } => {
            let args: Vec<BoundExpr> = args.into_iter().map(fold_constants).collect();
            let folded = BoundExpr::Func { name: name.clone(), args };
            if FOLDABLE.contains(&name.to_ascii_uppercase().as_str()) && folded.is_constant() {
                if let BoundExpr::Func { name, args } = &folded {
                    let vals: Option<Vec<Value>> = args
                        .iter()
                        .map(|a| match a {
                            BoundExpr::Literal(v) => Some(v.clone()),
                            _ => None,
                        })
                        .collect();
                    if let Some(vals) = vals {
                        if let Ok(v) = crate::functions::call(FunctionMode::Exact, name, &vals) {
                            return BoundExpr::Literal(v);
                        }
                    }
                }
            }
            folded
        }
        BoundExpr::Binary { op, left, right } => BoundExpr::Binary {
            op,
            left: Box::new(fold_constants(*left)),
            right: Box::new(fold_constants(*right)),
        },
        BoundExpr::Not(inner) => BoundExpr::Not(Box::new(fold_constants(*inner))),
        BoundExpr::Neg(inner) => BoundExpr::Neg(Box::new(fold_constants(*inner))),
        BoundExpr::Between { expr, lo, hi } => BoundExpr::Between {
            expr: Box::new(fold_constants(*expr)),
            lo: Box::new(fold_constants(*lo)),
            hi: Box::new(fold_constants(*hi)),
        },
        BoundExpr::IsNull { expr, negated } => {
            BoundExpr::IsNull { expr: Box::new(fold_constants(*expr)), negated }
        }
        other => other,
    }
}

fn bind_raw(expr: &Expr, layout: &Layout) -> Result<BoundExpr> {
    Ok(match expr {
        Expr::Literal(v) => BoundExpr::Literal(v.clone()),
        Expr::Column { table, name } => BoundExpr::Column(layout.resolve(table.as_deref(), name)?),
        Expr::Func { name, args } => BoundExpr::Func {
            name: name.clone(),
            args: args.iter().map(|a| bind_raw(a, layout)).collect::<Result<_>>()?,
        },
        Expr::Star => return Err(SqlError::Type("'*' is only valid inside COUNT(*)".into())),
        Expr::Binary { op, left, right } => BoundExpr::Binary {
            op: *op,
            left: Box::new(bind_raw(left, layout)?),
            right: Box::new(bind_raw(right, layout)?),
        },
        Expr::Not(e) => BoundExpr::Not(Box::new(bind_raw(e, layout)?)),
        Expr::Neg(e) => BoundExpr::Neg(Box::new(bind_raw(e, layout)?)),
        Expr::Between { expr, lo, hi } => BoundExpr::Between {
            expr: Box::new(bind_raw(expr, layout)?),
            lo: Box::new(bind_raw(lo, layout)?),
            hi: Box::new(bind_raw(hi, layout)?),
        },
        Expr::IsNull { expr, negated } => {
            BoundExpr::IsNull { expr: Box::new(bind_raw(expr, layout)?), negated: *negated }
        }
    })
}

/// Aliases referenced by an (unbound) expression, resolved through the
/// layout for unqualified names.
pub(super) fn referenced_tables(expr: &Expr, layout: &Layout, out: &mut Vec<usize>) -> Result<()> {
    match expr {
        Expr::Column { table, name } => {
            let tbl = layout.table_of(layout.resolve(table.as_deref(), name)?);
            if !out.contains(&tbl) {
                out.push(tbl);
            }
        }
        Expr::Func { args, .. } => {
            for a in args {
                referenced_tables(a, layout, out)?;
            }
        }
        Expr::Binary { left, right, .. } => {
            referenced_tables(left, layout, out)?;
            referenced_tables(right, layout, out)?;
        }
        Expr::Not(e) | Expr::Neg(e) => referenced_tables(e, layout, out)?,
        Expr::Between { expr, lo, hi } => {
            referenced_tables(expr, layout, out)?;
            referenced_tables(lo, layout, out)?;
            referenced_tables(hi, layout, out)?;
        }
        Expr::IsNull { expr, .. } => referenced_tables(expr, layout, out)?,
        Expr::Literal(_) | Expr::Star => {}
    }
    Ok(())
}

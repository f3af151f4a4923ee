//! Expression evaluation: one evaluator over any [`TupleView`], SQL
//! truthiness, value ordering and the constant operands of index probes.

use super::TupleView;
use crate::ast::BinOp;
use crate::functions::{self, FunctionMode};
use crate::plan::BoundExpr;
use crate::{Result, SqlError};
use jackpine_geom::Envelope;
use jackpine_storage::Value;

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
    eval_view(e, row, mode)
}

/// Evaluates a constant expression (no column references).
pub(super) fn eval_const(e: &BoundExpr, mode: FunctionMode) -> Result<Value> {
    eval_view(e, &[][..], mode)
}

/// The envelope a spatial index scan probes with: the constant query
/// geometry's, grown by the `ST_DWithin` distance when there is one.
pub(super) fn probe_envelope(
    query: &BoundExpr,
    expand: &Option<BoundExpr>,
    mode: FunctionMode,
) -> Result<Envelope> {
    let v = eval_const(query, mode)?;
    let g = v
        .as_geom()
        .ok_or_else(|| SqlError::Type("spatial index probe must be a geometry".into()))?;
    Ok(match dwithin_distance(expand, mode)? {
        Some(d) => g.envelope().expanded_by(d),
        None => g.envelope(),
    })
}

/// The constant `ST_DWithin` distance a probe envelope grows by, if the
/// probe has one.
pub(super) fn dwithin_distance(
    expand: &Option<BoundExpr>,
    mode: FunctionMode,
) -> Result<Option<f64>> {
    let Some(e) = expand else { return Ok(None) };
    let d = eval_const(e, mode)?
        .as_f64()
        .ok_or_else(|| SqlError::Type("DWithin distance must be numeric".into()))?;
    Ok(Some(d))
}

/// Evaluates a bound expression over any tuple view (materialized slice
/// or late-materialized [`LazyRow`](super::LazyRow)).
pub fn eval_view<R: TupleView + ?Sized>(
    e: &BoundExpr,
    row: &R,
    mode: FunctionMode,
) -> Result<Value> {
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
}

//! Row-at-a-time expression evaluation with SQL three-valued logic, plus
//! the batched `PREDICT` bridge ("separate ML runtime" integration).

use tqp_data::dates;
use tqp_data::LogicalType;
use tqp_ir::expr::{eval_binary_scalar, BinOp, BoundExpr, ScalarFunc};
use tqp_ml::ModelRegistry;
use tqp_tensor::strings::LikePattern;
use tqp_tensor::{Scalar, Tensor};

use crate::Row;

/// Evaluate a bound expression over one row (three-valued logic: operations
/// over NULL yield NULL; predicates count NULL as non-match upstream).
pub fn eval_expr(e: &BoundExpr, row: &Row) -> Scalar {
    match e {
        BoundExpr::Column { index, .. } => row[*index].clone(),
        BoundExpr::OuterRef { .. } => {
            panic!("OuterRef survived decorrelation (optimizer bug)")
        }
        BoundExpr::Param { index, .. } => {
            panic!(
                "unbound parameter ${} reached the row engine — bind values before execution",
                index + 1
            )
        }
        BoundExpr::Literal { value, .. } => value.clone(),
        BoundExpr::Binary {
            op, left, right, ..
        } => match op {
            BinOp::And => {
                // Kleene AND: false dominates NULL.
                match eval_expr(left, row) {
                    Scalar::Bool(false) => Scalar::Bool(false),
                    l => match (l, eval_expr(right, row)) {
                        (_, Scalar::Bool(false)) => Scalar::Bool(false),
                        (Scalar::Bool(true), Scalar::Bool(true)) => Scalar::Bool(true),
                        _ => Scalar::Null,
                    },
                }
            }
            BinOp::Or => match eval_expr(left, row) {
                Scalar::Bool(true) => Scalar::Bool(true),
                l => match (l, eval_expr(right, row)) {
                    (_, Scalar::Bool(true)) => Scalar::Bool(true),
                    (Scalar::Bool(false), Scalar::Bool(false)) => Scalar::Bool(false),
                    _ => Scalar::Null,
                },
            },
            _ => {
                let l = eval_expr(left, row);
                let r = eval_expr(right, row);
                eval_binary_scalar(*op, &l, &r).unwrap_or(Scalar::Null)
            }
        },
        BoundExpr::Not(inner) => match eval_expr(inner, row) {
            Scalar::Bool(b) => Scalar::Bool(!b),
            _ => Scalar::Null,
        },
        BoundExpr::Neg(inner) => match eval_expr(inner, row) {
            Scalar::I64(v) => Scalar::I64(-v),
            Scalar::F64(v) => Scalar::F64(-v),
            Scalar::I32(v) => Scalar::I32(-v),
            Scalar::F32(v) => Scalar::F32(-v),
            _ => Scalar::Null,
        },
        BoundExpr::Case {
            branches,
            else_expr,
            ..
        } => {
            for (cond, val) in branches {
                if matches!(eval_expr(cond, row), Scalar::Bool(true)) {
                    return eval_expr(val, row);
                }
            }
            eval_expr(else_expr, row)
        }
        BoundExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval_expr(expr, row);
            if v.is_null() {
                return Scalar::Null;
            }
            let m = LikePattern::compile(pattern).matches(v.as_str().as_bytes());
            Scalar::Bool(m != *negated)
        }
        BoundExpr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval_expr(expr, row);
            if v.is_null() {
                return Scalar::Null;
            }
            let found = list
                .iter()
                .any(|s| eval_binary_scalar(BinOp::Eq, &v, s) == Some(Scalar::Bool(true)));
            Scalar::Bool(found != *negated)
        }
        BoundExpr::IsNull { expr, negated } => {
            let v = eval_expr(expr, row);
            Scalar::Bool(v.is_null() != *negated)
        }
        BoundExpr::Func { func, args, .. } => {
            let v = eval_expr(&args[0], row);
            if v.is_null() {
                return Scalar::Null;
            }
            match func {
                ScalarFunc::ExtractYear => Scalar::I64(dates::extract_year(v.as_i64())),
                ScalarFunc::ExtractMonth => Scalar::I64(dates::extract_month(v.as_i64())),
                ScalarFunc::Substring { start, len } => {
                    let s = v.as_str();
                    let lo = ((*start - 1) as usize).min(s.len());
                    let hi = (lo + *len as usize).min(s.len());
                    Scalar::Str(s[lo..hi].to_string())
                }
                ScalarFunc::Abs => match v {
                    Scalar::I64(x) => Scalar::I64(x.abs()),
                    Scalar::F64(x) => Scalar::F64(x.abs()),
                    other => Scalar::F64(other.as_f64().abs()),
                },
            }
        }
        BoundExpr::Predict { .. } => {
            panic!("Predict must be batch-prepared before row evaluation")
        }
        BoundExpr::ScalarSubquery { .. }
        | BoundExpr::InSubquery { .. }
        | BoundExpr::Exists { .. } => {
            panic!("subquery survived decorrelation (optimizer bug)")
        }
    }
}

/// Hashable, equality-comparable key material (floats by bit pattern).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum KeyPart {
    I(i64),
    B(bool),
    S(String),
    F(u64),
}

/// Encode selected row columns as a join/group key; `None` if any is NULL
/// (NULL keys never match in joins).
pub fn key_of(row: &Row, cols: &[usize]) -> Option<Vec<KeyPart>> {
    let mut out = Vec::with_capacity(cols.len());
    for &c in cols {
        out.push(scalar_key(&row[c])?);
    }
    Some(out)
}

/// Encode one scalar as key material.
pub fn scalar_key(v: &Scalar) -> Option<KeyPart> {
    Some(match v {
        Scalar::Null => return None,
        Scalar::Bool(b) => KeyPart::B(*b),
        Scalar::I32(x) => KeyPart::I(*x as i64),
        Scalar::I64(x) => KeyPart::I(*x),
        Scalar::F32(x) => KeyPart::F((*x as f64).to_bits()),
        Scalar::F64(x) => KeyPart::F(x.to_bits()),
        Scalar::Str(s) => KeyPart::S(s.clone()),
    })
}

/// Batch-evaluate every `PREDICT` in `exprs`: argument columns are
/// materialized into tensors (the row→tensor "data movement" of a split
/// relational/ML runtime), the model is invoked once, and predictions are
/// appended to each row; the returned expressions reference them as columns.
pub fn prepare_predicts(
    rows: Vec<Row>,
    exprs: &[BoundExpr],
    models: &ModelRegistry,
) -> (Vec<Row>, Vec<BoundExpr>) {
    // Collect PREDICT nodes in deterministic (visit) order.
    let mut calls: Vec<(String, Vec<BoundExpr>)> = Vec::new();
    for e in exprs {
        e.visit(&mut |node| {
            if let BoundExpr::Predict { model, args, .. } = node {
                calls.push((model.clone(), args.clone()));
            }
        });
    }
    if calls.is_empty() {
        return (rows, exprs.to_vec());
    }
    let base = rows.first().map(|r| r.len()).unwrap_or(0);
    let mut rows = rows;
    for (k, (model_name, args)) in calls.iter().enumerate() {
        let model = models.require(model_name);
        // Materialize each argument column. A NULL argument feeds the
        // model a placeholder (0 / "") and makes its row's prediction NULL.
        let arg_vals: Vec<Vec<Scalar>> = args
            .iter()
            .map(|a| rows.iter().map(|r| eval_expr(a, r)).collect())
            .collect();
        let inputs: Vec<Tensor> = args
            .iter()
            .zip(&arg_vals)
            .map(|(a, vals)| {
                if a.ty() == LogicalType::Str {
                    let refs: Vec<&str> = vals
                        .iter()
                        .map(|v| if v.is_null() { "" } else { v.as_str() })
                        .collect();
                    Tensor::from_strings(&refs, 1)
                } else {
                    Tensor::from_f64(
                        vals.iter()
                            .map(|v| if v.is_null() { 0.0 } else { v.as_f64() })
                            .collect(),
                    )
                }
            })
            .collect();
        let preds = model.predict(&inputs);
        let pv = preds.as_f64();
        assert_eq!(pv.len(), rows.len(), "model output arity mismatch");
        for (i, (row, &p)) in rows.iter_mut().zip(pv).enumerate() {
            let null = arg_vals.iter().any(|vals| vals[i].is_null());
            row.push(if null { Scalar::Null } else { Scalar::F64(p) });
        }
        let _ = k;
    }
    // Rewrite expressions: each PREDICT (in the same visit order) becomes a
    // reference to its appended column.
    let counter = std::cell::Cell::new(0usize);
    let rewritten: Vec<BoundExpr> = exprs
        .iter()
        .map(|e| {
            e.clone().transform(&|node| match node {
                BoundExpr::Predict { ty, .. } => {
                    let idx = base + counter.get();
                    counter.set(counter.get() + 1);
                    BoundExpr::Column { index: idx, ty }
                }
                other => other,
            })
        })
        .collect();
    (rows, rewritten)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqp_ir::expr::BoundExpr as E;

    fn row() -> Row {
        vec![Scalar::I64(5), Scalar::Str("PROMO X".into()), Scalar::Null]
    }

    #[test]
    fn three_valued_and_or() {
        let t = E::lit_bool(true);
        let f = E::lit_bool(false);
        let null = E::IsNull {
            expr: Box::new(E::col(0, LogicalType::Int64)),
            negated: false,
        }; // false for non-null col... build real NULL instead:
        let null_cmp = E::Binary {
            op: BinOp::Eq,
            left: Box::new(E::col(2, LogicalType::Int64)),
            right: Box::new(E::lit_i64(1)),
            ty: LogicalType::Bool,
        };
        let _ = null;
        // NULL AND false = false
        let e = E::Binary {
            op: BinOp::And,
            left: Box::new(null_cmp.clone()),
            right: Box::new(f.clone()),
            ty: LogicalType::Bool,
        };
        assert_eq!(eval_expr(&e, &row()), Scalar::Bool(false));
        // NULL AND true = NULL
        let e = E::Binary {
            op: BinOp::And,
            left: Box::new(null_cmp.clone()),
            right: Box::new(t.clone()),
            ty: LogicalType::Bool,
        };
        assert_eq!(eval_expr(&e, &row()), Scalar::Null);
        // NULL OR true = true
        let e = E::Binary {
            op: BinOp::Or,
            left: Box::new(null_cmp),
            right: Box::new(t),
            ty: LogicalType::Bool,
        };
        assert_eq!(eval_expr(&e, &row()), Scalar::Bool(true));
    }

    #[test]
    fn like_and_substring() {
        let like = E::Like {
            expr: Box::new(E::col(1, LogicalType::Str)),
            pattern: "PROMO%".into(),
            negated: false,
        };
        assert_eq!(eval_expr(&like, &row()), Scalar::Bool(true));
        let sub = E::Func {
            func: ScalarFunc::Substring { start: 1, len: 5 },
            args: vec![E::col(1, LogicalType::Str)],
            ty: LogicalType::Str,
        };
        assert_eq!(eval_expr(&sub, &row()), Scalar::Str("PROMO".into()));
    }

    #[test]
    fn null_propagates_through_arithmetic() {
        let e = E::Binary {
            op: BinOp::Add,
            left: Box::new(E::col(2, LogicalType::Int64)),
            right: Box::new(E::lit_i64(1)),
            ty: LogicalType::Int64,
        };
        assert_eq!(eval_expr(&e, &row()), Scalar::Null);
        let isnull = E::IsNull {
            expr: Box::new(E::col(2, LogicalType::Int64)),
            negated: false,
        };
        assert_eq!(eval_expr(&isnull, &row()), Scalar::Bool(true));
    }

    #[test]
    fn keys_reject_null() {
        assert!(key_of(&row(), &[0, 1]).is_some());
        assert!(key_of(&row(), &[0, 2]).is_none());
        assert_eq!(
            scalar_key(&Scalar::F64(1.5)),
            Some(KeyPart::F(1.5f64.to_bits()))
        );
    }
}

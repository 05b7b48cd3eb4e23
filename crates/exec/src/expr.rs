//! Shared expression kernels (`EXTRACT`, row hashing, key equality) and
//! the **legacy tree-walk interpreter**.
//!
//! Production execution no longer goes through this module's [`eval`] /
//! [`eval_mask`]: every backend now runs expressions as compiled
//! [`crate::exprprog::ExprProgram`]s (flat register-based kernel
//! sequences, built at lowering time). The tree walk is kept as the
//! **reference oracle** — the proptest parity suite
//! (`tests/property_exprprog.rs`) asserts bitwise equivalence between it
//! and the compiled form. Do not add production callers.
//!
//! `PREDICT` is evaluated *inline*: argument columns are already tensors, so
//! the model's tensor program runs as just another kernel in the pipeline —
//! no runtime boundary, which is the paper's §3.3 "unified runtime" claim.
//!
//! Validity handling is conservative Kleene logic: a result row is valid iff
//! every input it touched was valid; filters treat invalid predicate rows as
//! non-matching. (TPC-H's only NULL producers are left joins whose NULLs
//! flow directly into COUNT, so the approximation is exact on the suite —
//! asserted by the differential tests.)

use tqp_data::dates::Date;
use tqp_data::LogicalType;
use tqp_ir::expr::{BinOp, BoundExpr, ScalarFunc};
use tqp_ml::ModelRegistry;
use tqp_tensor::ops::{self, BinOp as TB, CmpOp};
use tqp_tensor::strings::{self, LikePattern};
use tqp_tensor::{Scalar, Tensor};

use crate::batch::Batch;

/// A value + optional validity pair.
pub type Evaled = (Tensor, Option<Tensor>);

/// Evaluate an expression tree over a batch.
///
/// **Legacy reference interpreter** — production paths run compiled
/// [`crate::exprprog::ExprProgram`]s instead; this stays as the oracle
/// for parity tests.
pub fn eval(e: &BoundExpr, batch: &Batch, models: &ModelRegistry) -> Evaled {
    let n = batch.nrows();
    match e {
        BoundExpr::Column { index, .. } => (
            batch.columns[*index].clone(),
            batch.validity[*index].clone(),
        ),
        BoundExpr::OuterRef { .. } => panic!("OuterRef survived decorrelation"),
        BoundExpr::Param { index, .. } => panic!(
            "unbound parameter ${} reached the tree interpreter — bind values first",
            index + 1
        ),
        BoundExpr::Literal { value, ty } => {
            assert!(
                !value.is_null() || *ty == LogicalType::Int64,
                "NULL literals are not materializable"
            );
            if value.is_null() {
                // Only reachable through IS NULL checks on literals.
                return (
                    Tensor::zeros(tqp_tensor::DType::I64, n),
                    Some(Tensor::from_bool(vec![false; n])),
                );
            }
            (Tensor::full(value, n), None)
        }
        BoundExpr::Binary {
            op, left, right, ..
        } => {
            // Scalar fast paths: comparisons/arithmetic against a literal
            // never materialize the broadcast tensor.
            if let Some(cmp) = to_cmp(*op) {
                if let BoundExpr::Literal { value, .. } = right.as_ref() {
                    if !value.is_null() {
                        let (lv, lval) = eval(left, batch, models);
                        return (ops::compare_scalar(cmp, &lv, value), lval);
                    }
                }
                if let BoundExpr::Literal { value, .. } = left.as_ref() {
                    if !value.is_null() {
                        let (rv, rval) = eval(right, batch, models);
                        return (ops::compare_scalar(cmp.flip(), &rv, value), rval);
                    }
                }
            }
            let (lv, lval) = eval(left, batch, models);
            let (rv, rval) = eval(right, batch, models);
            let validity = merge_validity(lval, rval);
            let value = match op {
                BinOp::And => ops::and(&lv, &rv),
                BinOp::Or => ops::or(&lv, &rv),
                BinOp::Add => ops::binary(TB::Add, &lv, &rv),
                BinOp::Sub => ops::binary(TB::Sub, &lv, &rv),
                BinOp::Mul => ops::binary(TB::Mul, &lv, &rv),
                BinOp::Div => ops::binary(TB::Div, &lv, &rv),
                BinOp::Mod => ops::binary(TB::Mod, &lv, &rv),
                BinOp::Eq => ops::compare(CmpOp::Eq, &lv, &rv),
                BinOp::NotEq => ops::compare(CmpOp::Ne, &lv, &rv),
                BinOp::Lt => ops::compare(CmpOp::Lt, &lv, &rv),
                BinOp::LtEq => ops::compare(CmpOp::Le, &lv, &rv),
                BinOp::Gt => ops::compare(CmpOp::Gt, &lv, &rv),
                BinOp::GtEq => ops::compare(CmpOp::Ge, &lv, &rv),
            };
            (value, validity)
        }
        BoundExpr::Not(inner) => {
            let (v, val) = eval(inner, batch, models);
            (ops::not(&v), val)
        }
        BoundExpr::Neg(inner) => {
            let (v, val) = eval(inner, batch, models);
            (ops::neg(&v), val)
        }
        BoundExpr::Case {
            branches,
            else_expr,
            ty,
        } => {
            // Fold from the last branch backwards: where(cond, val, acc).
            let (mut acc, mut acc_val) = eval(else_expr, batch, models);
            // CASE values may mix Int64/Float64; land on the result type.
            acc = coerce(acc, *ty);
            for (cond, val) in branches.iter().rev() {
                let (c, cval) = eval(cond, batch, models);
                // Invalid condition = no match: fold into the condition.
                let c = match cval {
                    Some(m) => ops::and(&c, &m),
                    None => c,
                };
                let (v, vval) = eval(val, batch, models);
                let v = coerce(v, *ty);
                acc = ops::where_select(&c, &v, &acc);
                acc_val = merge_validity(acc_val, vval);
            }
            (acc, acc_val)
        }
        BoundExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let (v, val) = eval(expr, batch, models);
            let compiled = LikePattern::compile(pattern);
            let mask = strings::like(&v, &compiled);
            let mask = if *negated { ops::not(&mask) } else { mask };
            (mask, val)
        }
        BoundExpr::InList {
            expr,
            list,
            negated,
        } => {
            let (v, val) = eval(expr, batch, models);
            let mask = ops::in_list(&v, list);
            let mask = if *negated { ops::not(&mask) } else { mask };
            (mask, val)
        }
        BoundExpr::IsNull { expr, negated } => {
            let (v, val) = eval(expr, batch, models);
            let _ = v;
            let mask = match val {
                Some(m) => ops::not(&m), // invalid == NULL
                None => Tensor::from_bool(vec![false; n]),
            };
            let mask = if *negated { ops::not(&mask) } else { mask };
            (mask, None)
        }
        BoundExpr::Func { func, args, .. } => {
            let (v, val) = eval(&args[0], batch, models);
            let out = match func {
                ScalarFunc::ExtractYear => extract_year_kernel(&v),
                ScalarFunc::ExtractMonth => extract_month_kernel(&v),
                ScalarFunc::Substring { start, len } => {
                    strings::substring(&v, *start as usize, *len as usize)
                }
                ScalarFunc::Abs => ops::abs(&v),
            };
            (out, val)
        }
        BoundExpr::Predict { model, args, .. } => {
            let m = models.require(model);
            let inputs: Vec<Tensor> = args
                .iter()
                .map(|a| {
                    let (v, val) = eval(a, batch, models);
                    assert!(val.is_none(), "PREDICT over NULLable columns unsupported");
                    v
                })
                .collect();
            (m.predict(&inputs), None)
        }
        BoundExpr::ScalarSubquery { .. }
        | BoundExpr::InSubquery { .. }
        | BoundExpr::Exists { .. } => panic!("subquery survived decorrelation"),
    }
}

/// Evaluate a predicate tree to a filter mask (validity folded in:
/// NULL = drop). Legacy reference path — see [`eval`].
pub fn eval_mask(e: &BoundExpr, batch: &Batch, models: &ModelRegistry) -> Tensor {
    let (v, val) = eval(e, batch, models);
    match val {
        Some(m) => ops::and(&v, &m),
        None => v,
    }
}

/// Comparison `BinOp` → tensor `CmpOp` (shared with the compiled
/// expression executor in [`crate::exprprog`]).
pub(crate) fn to_cmp(op: BinOp) -> Option<CmpOp> {
    Some(match op {
        BinOp::Eq => CmpOp::Eq,
        BinOp::NotEq => CmpOp::Ne,
        BinOp::Lt => CmpOp::Lt,
        BinOp::LtEq => CmpOp::Le,
        BinOp::Gt => CmpOp::Gt,
        BinOp::GtEq => CmpOp::Ge,
        _ => return None,
    })
}

/// Conservative Kleene validity merge (shared with the compiled
/// expression executor in [`crate::exprprog`]).
pub(crate) fn merge_validity(a: Option<Tensor>, b: Option<Tensor>) -> Option<Tensor> {
    match (a, b) {
        (None, None) => None,
        (Some(m), None) | (None, Some(m)) => Some(m),
        (Some(x), Some(y)) => Some(ops::and(&x, &y)),
    }
}

/// Dtype-checked cast onto a logical type's tensor dtype (CASE branch
/// unification; shared with the compiled expression executor).
pub(crate) fn coerce(t: Tensor, ty: LogicalType) -> Tensor {
    match ty {
        LogicalType::Float64 if t.dtype() != tqp_tensor::DType::F64 => {
            t.cast(tqp_tensor::DType::F64).expect("coerce to f64")
        }
        LogicalType::Int64
            if t.dtype() != tqp_tensor::DType::I64 && t.dtype() != tqp_tensor::DType::U8 =>
        {
            t.cast(tqp_tensor::DType::I64).expect("coerce to i64")
        }
        _ => t,
    }
}

/// Vectorized `EXTRACT(YEAR ...)` over epoch-nanosecond dates.
pub fn extract_year_kernel(t: &Tensor) -> Tensor {
    let out: Vec<i64> = t
        .as_i64()
        .iter()
        .map(|&ns| Date::from_epoch_ns(ns).year as i64)
        .collect();
    Tensor::from_i64(out)
}

/// Vectorized `EXTRACT(MONTH ...)`.
pub fn extract_month_kernel(t: &Tensor) -> Tensor {
    let out: Vec<i64> = t
        .as_i64()
        .iter()
        .map(|&ns| Date::from_epoch_ns(ns).month as i64)
        .collect();
    Tensor::from_i64(out)
}

/// FxHash-style row hash over multiple key columns → `I64` tensor. Used by
/// multi-key joins and hash aggregation (hash + full-key verification).
pub fn hash_rows(keys: &[&Tensor]) -> Tensor {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let n = keys.first().map_or(0, |k| k.nrows());
    let mut acc = vec![0xcbf2_9ce4_8422_2325u64; n];
    let mix = |h: u64, v: u64| -> u64 { (h.rotate_left(5) ^ v).wrapping_mul(SEED) };
    for k in keys {
        match k.dtype() {
            tqp_tensor::DType::I64 => {
                for (a, &v) in acc.iter_mut().zip(k.as_i64()) {
                    *a = mix(*a, v as u64);
                }
            }
            tqp_tensor::DType::I32 => {
                for (a, &v) in acc.iter_mut().zip(k.as_i32()) {
                    *a = mix(*a, v as i64 as u64);
                }
            }
            tqp_tensor::DType::F64 => {
                for (a, &v) in acc.iter_mut().zip(k.as_f64()) {
                    *a = mix(*a, v.to_bits());
                }
            }
            tqp_tensor::DType::Bool => {
                for (a, &v) in acc.iter_mut().zip(k.as_bool()) {
                    *a = mix(*a, v as u64);
                }
            }
            tqp_tensor::DType::U8 => {
                for (i, a) in acc.iter_mut().enumerate() {
                    let row = k.str_row_trimmed(i);
                    let mut h = 0xcbf2_9ce4_8422_2325u64;
                    for &b in row {
                        h = mix(h, b as u64);
                    }
                    *a = mix(*a, h);
                }
            }
            other => panic!("hash_rows on {other:?}"),
        }
    }
    Tensor::from_i64(acc.into_iter().map(|h| h as i64).collect())
}

/// Row-wise key equality across two gathered key sets (hash-collision
/// verification and join-key residuals).
pub fn keys_equal(left: &[Tensor], right: &[Tensor]) -> Tensor {
    assert_eq!(left.len(), right.len());
    let n = left.first().map_or(0, |t| t.nrows());
    let mut acc = Tensor::from_bool(vec![true; n]);
    for (l, r) in left.iter().zip(right) {
        acc = ops::and(&acc, &ops::compare(CmpOp::Eq, l, r));
    }
    acc
}

/// Dynamically typed scalar → 1-element tensor helper for tests.
pub fn scalar_tensor(s: &Scalar, n: usize) -> Tensor {
    Tensor::full(s, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqp_ir::expr::BoundExpr as E;

    fn batch() -> Batch {
        Batch::new(vec![
            Tensor::from_i64(vec![1, 2, 3, 4]),
            Tensor::from_f64(vec![10.0, 20.0, 30.0, 40.0]),
            Tensor::from_strings(&["PROMO A", "STD B", "PROMO C", "ECON D"], 0),
        ])
    }

    fn models() -> ModelRegistry {
        ModelRegistry::new()
    }

    #[test]
    fn arithmetic_and_compare() {
        let e = E::Binary {
            op: BinOp::Mul,
            left: Box::new(E::col(1, LogicalType::Float64)),
            right: Box::new(E::lit_f64(2.0)),
            ty: LogicalType::Float64,
        };
        let (v, val) = eval(&e, &batch(), &models());
        assert_eq!(v.as_f64(), &[20.0, 40.0, 60.0, 80.0]);
        assert!(val.is_none());
        let c = E::Binary {
            op: BinOp::Lt,
            left: Box::new(E::col(0, LogicalType::Int64)),
            right: Box::new(E::lit_i64(3)),
            ty: LogicalType::Bool,
        };
        let mask = eval_mask(&c, &batch(), &models());
        assert_eq!(mask.as_bool(), &[true, true, false, false]);
    }

    #[test]
    fn case_when_like() {
        // Q14 numerator shape.
        let e = E::Case {
            branches: vec![(
                E::Like {
                    expr: Box::new(E::col(2, LogicalType::Str)),
                    pattern: "PROMO%".into(),
                    negated: false,
                },
                E::col(1, LogicalType::Float64),
            )],
            else_expr: Box::new(E::lit_f64(0.0)),
            ty: LogicalType::Float64,
        };
        let (v, _) = eval(&e, &batch(), &models());
        assert_eq!(v.as_f64(), &[10.0, 0.0, 30.0, 0.0]);
    }

    #[test]
    fn case_mixing_int_and_float_coerces() {
        let e = E::Case {
            branches: vec![(
                E::Binary {
                    op: BinOp::Gt,
                    left: Box::new(E::col(0, LogicalType::Int64)),
                    right: Box::new(E::lit_i64(2)),
                    ty: LogicalType::Bool,
                },
                E::col(1, LogicalType::Float64),
            )],
            else_expr: Box::new(E::lit_i64(0)),
            ty: LogicalType::Float64,
        };
        let (v, _) = eval(&e, &batch(), &models());
        assert_eq!(v.as_f64(), &[0.0, 0.0, 30.0, 40.0]);
    }

    #[test]
    fn validity_drops_rows_in_masks() {
        let b = Batch::with_validity(
            vec![Tensor::from_i64(vec![1, 2, 3])],
            vec![Some(Tensor::from_bool(vec![true, false, true]))],
        );
        let e = E::Binary {
            op: BinOp::Gt,
            left: Box::new(E::col(0, LogicalType::Int64)),
            right: Box::new(E::lit_i64(0)),
            ty: LogicalType::Bool,
        };
        let mask = eval_mask(&e, &b, &models());
        assert_eq!(mask.as_bool(), &[true, false, true]);
        // IS NULL sees the invalid row.
        let isnull = E::IsNull {
            expr: Box::new(E::col(0, LogicalType::Int64)),
            negated: false,
        };
        let (v, _) = eval(&isnull, &b, &models());
        assert_eq!(v.as_bool(), &[false, true, false]);
    }

    #[test]
    fn extract_kernels() {
        let ns = tqp_data::dates::parse_to_ns("1995-09-14").unwrap();
        let t = Tensor::from_i64(vec![ns]);
        assert_eq!(extract_year_kernel(&t).as_i64(), &[1995]);
        assert_eq!(extract_month_kernel(&t).as_i64(), &[9]);
    }

    #[test]
    fn hash_rows_consistency() {
        let a = Tensor::from_i64(vec![1, 2, 1]);
        let b = Tensor::from_strings(&["x", "y", "x"], 0);
        let h = hash_rows(&[&a, &b]);
        assert_eq!(h.as_i64()[0], h.as_i64()[2]);
        assert_ne!(h.as_i64()[0], h.as_i64()[1]);
    }

    #[test]
    fn keys_equal_verifies() {
        let l = vec![Tensor::from_i64(vec![1, 2])];
        let r = vec![Tensor::from_i64(vec![1, 3])];
        assert_eq!(keys_equal(&l, &r).as_bool(), &[true, false]);
    }
}

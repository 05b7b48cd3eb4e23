//! Shared expression kernels: `EXTRACT`, row hashing and key equality,
//! plus the validity and coercion rules the compiled expression walk
//! ([`crate::exprprog`]) applies.

use tqp_data::dates::Date;
use tqp_data::LogicalType;
use tqp_ir::expr::BinOp;
use tqp_tensor::ops::{self, CmpOp};
use tqp_tensor::Tensor;

/// A value + optional validity pair.
pub type Evaled = (Tensor, Option<Tensor>);

/// Comparison `BinOp` → tensor `CmpOp`.
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

/// Conservative validity merge: a row is valid iff it is valid on both
/// sides.
pub(crate) fn merge_validity(a: Option<Tensor>, b: Option<Tensor>) -> Option<Tensor> {
    match (a, b) {
        (None, None) => None,
        (Some(m), None) | (None, Some(m)) => Some(m),
        (Some(x), Some(y)) => Some(ops::and(&x, &y)),
    }
}

/// Dtype-checked cast onto a logical type's tensor dtype (CASE branch
/// unification).
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

#[cfg(test)]
mod tests {
    use super::*;

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

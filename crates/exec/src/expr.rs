//! Shared expression kernels: `EXTRACT` and key equality,
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
    fn keys_equal_verifies() {
        let l = vec![Tensor::from_i64(vec![1, 2])];
        let r = vec![Tensor::from_i64(vec![1, 3])];
        assert_eq!(keys_equal(&l, &r).as_bool(), &[true, false]);
    }
}

//! Element-wise kernels: arithmetic, comparison, boolean logic, selection.
//!
//! These are the tensor equivalents of the expression nodes TQP's planning
//! layer emits for filters, projections, and `CASE` expressions. All kernels
//! are sequential vectorized columnar loops (the executor splits work across
//! cores) and allocate exactly one output buffer.
//!
//! Numeric inputs of different dtypes are promoted SQL-style (see
//! [`DType::promote`]); comparisons yield `Bool` tensors; `where_select`
//! implements the ternary `CASE WHEN` building block the paper highlights in
//! Figure 4.

use std::sync::Arc;

use crate::dict::{str_mask, StrPred};
use crate::dtype::{DType, Scalar};
use crate::tensor::Tensor;

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    /// Remainder. Integer remainder by zero yields 0 (documented SQL-NULL
    /// simplification; TPC-H never exercises it).
    Mod,
}

/// Comparison operators producing `Bool` tensors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// The operator with operand sides swapped (`a < b` ⇔ `b > a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Evaluate on an `Ordering`.
    pub fn eval_ord(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

fn assert_same_rows(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(
        a.nrows(),
        b.nrows(),
        "{what}: row count mismatch {} vs {}",
        a.nrows(),
        b.nrows()
    );
}

/// `f(x[i], y[i])` for every row of two equal-length slices.
fn zip_map<T: Copy, U>(x: &[T], y: &[T], f: impl Fn(T, T) -> U) -> Vec<U> {
    x.iter().zip(y).map(|(&a, &b)| f(a, b)).collect()
}

macro_rules! arith {
    ($op:expr, $x:expr, $y:expr, int) => {
        match $op {
            BinOp::Add => zip_map($x, $y, |a, b| a.wrapping_add(b)),
            BinOp::Sub => zip_map($x, $y, |a, b| a.wrapping_sub(b)),
            BinOp::Mul => zip_map($x, $y, |a, b| a.wrapping_mul(b)),
            BinOp::Div => zip_map($x, $y, |a, b| if b == 0 { 0 } else { a.wrapping_div(b) }),
            BinOp::Mod => zip_map($x, $y, |a, b| if b == 0 { 0 } else { a.wrapping_rem(b) }),
        }
    };
    ($op:expr, $x:expr, $y:expr, float) => {
        match $op {
            BinOp::Add => zip_map($x, $y, |a, b| a + b),
            BinOp::Sub => zip_map($x, $y, |a, b| a - b),
            BinOp::Mul => zip_map($x, $y, |a, b| a * b),
            BinOp::Div => zip_map($x, $y, |a, b| a / b),
            BinOp::Mod => zip_map($x, $y, |a, b| a % b),
        }
    };
}

/// Element-wise arithmetic over two equal-length rank-1 numeric tensors.
pub fn binary(op: BinOp, a: &Tensor, b: &Tensor) -> Tensor {
    assert_same_rows(a, b, "binary");
    let dt = a.dtype().promote(b.dtype());
    let a = a.cast(dt).expect("promote cast");
    let b = b.cast(dt).expect("promote cast");
    match dt {
        DType::I32 => Tensor::from_i32(arith!(op, a.as_i32(), b.as_i32(), int)),
        DType::I64 => Tensor::from_i64(arith!(op, a.as_i64(), b.as_i64(), int)),
        DType::F32 => Tensor::from_f32(arith!(op, a.as_f32(), b.as_f32(), float)),
        DType::F64 => Tensor::from_f64(arith!(op, a.as_f64(), b.as_f64(), float)),
        other => panic!("arithmetic on non-numeric dtype {other:?}"),
    }
}

/// `a op scalar` with the scalar broadcast across all rows.
pub fn binary_scalar(op: BinOp, a: &Tensor, s: &Scalar) -> Tensor {
    binary(op, a, &Tensor::full(s, a.nrows()))
}

/// `scalar op a` (non-commutative forms need the scalar on the left).
pub fn scalar_binary(op: BinOp, s: &Scalar, a: &Tensor) -> Tensor {
    binary(op, &Tensor::full(s, a.nrows()), a)
}

/// Arithmetic negation.
pub fn neg(a: &Tensor) -> Tensor {
    match a.dtype() {
        DType::I32 => Tensor::from_i32(a.as_i32().iter().map(|&x| -x).collect()),
        DType::I64 => Tensor::from_i64(a.as_i64().iter().map(|&x| -x).collect()),
        DType::F32 => Tensor::from_f32(a.as_f32().iter().map(|&x| -x).collect()),
        DType::F64 => Tensor::from_f64(a.as_f64().iter().map(|&x| -x).collect()),
        other => panic!("neg on non-numeric dtype {other:?}"),
    }
}

/// Absolute value.
pub fn abs(a: &Tensor) -> Tensor {
    match a.dtype() {
        DType::I32 => Tensor::from_i32(a.as_i32().iter().map(|&x| x.abs()).collect()),
        DType::I64 => Tensor::from_i64(a.as_i64().iter().map(|&x| x.abs()).collect()),
        DType::F32 => Tensor::from_f32(a.as_f32().iter().map(|&x| x.abs()).collect()),
        DType::F64 => Tensor::from_f64(a.as_f64().iter().map(|&x| x.abs()).collect()),
        other => panic!("abs on non-numeric dtype {other:?}"),
    }
}

macro_rules! cmp {
    ($op:expr, $x:expr, $y:expr) => {
        match $op {
            CmpOp::Eq => zip_map($x, $y, |a, b| a == b),
            CmpOp::Ne => zip_map($x, $y, |a, b| a != b),
            CmpOp::Lt => zip_map($x, $y, |a, b| a < b),
            CmpOp::Le => zip_map($x, $y, |a, b| a <= b),
            CmpOp::Gt => zip_map($x, $y, |a, b| a > b),
            CmpOp::Ge => zip_map($x, $y, |a, b| a >= b),
        }
    };
}

/// Element-wise comparison producing a `Bool` mask. Supports numeric tensors
/// (with promotion), bool tensors, and `(n×m)` string matrices (row-wise
/// trimmed byte-lexicographic comparison, ≡ UTF-8 code-point order; two
/// coded matrices over one dictionary compare codes, which order the same).
pub fn compare(op: CmpOp, a: &Tensor, b: &Tensor) -> Tensor {
    assert_same_rows(a, b, "compare");
    let n = a.nrows();
    if a.dtype() == DType::U8 || b.dtype() == DType::U8 {
        assert!(
            a.dtype() == DType::U8 && b.dtype() == DType::U8,
            "cannot compare string with {:?}",
            if a.dtype() == DType::U8 {
                b.dtype()
            } else {
                a.dtype()
            }
        );
        if let (Some((x, da)), Some((y, db))) = (a.coded(), b.coded()) {
            if Arc::ptr_eq(da, db) {
                return Tensor::from_bool(cmp!(op, x, y));
            }
        }
        let out = (0..n).map(|i| op.eval_ord(a.str_row_trimmed(i).cmp(b.str_row_trimmed(i))));
        return Tensor::from_bool(out.collect());
    }
    if a.dtype() == DType::Bool && b.dtype() == DType::Bool {
        return Tensor::from_bool(cmp!(op, a.as_bool(), b.as_bool()));
    }
    let dt = a.dtype().promote(b.dtype());
    let a = a.cast(dt).expect("promote cast");
    let b = b.cast(dt).expect("promote cast");
    let out = match dt {
        DType::I32 => cmp!(op, a.as_i32(), b.as_i32()),
        DType::I64 => cmp!(op, a.as_i64(), b.as_i64()),
        DType::F32 => cmp!(op, a.as_f32(), b.as_f32()),
        DType::F64 => cmp!(op, a.as_f64(), b.as_f64()),
        other => panic!("compare on dtype {other:?}"),
    };
    Tensor::from_bool(out)
}

/// Compare against a broadcast scalar. String scalars compare against the
/// trimmed rows of a string matrix ([`str_mask`]: a coded matrix compares
/// once per dictionary entry). Numeric scalars take a fused path that never
/// materializes the broadcast tensor (this is the hottest kernel in TPC-H
/// filters).
pub fn compare_scalar(op: CmpOp, a: &Tensor, s: &Scalar) -> Tensor {
    if let Scalar::Str(needle) = s {
        assert_eq!(
            a.dtype(),
            DType::U8,
            "string comparison against {:?}",
            a.dtype()
        );
        return str_mask(a, &StrPred::Cmp(op, needle.as_bytes().to_vec()));
    }
    macro_rules! cmp_const {
        ($x:expr, $v:expr) => {{
            let (x, v) = ($x, $v);
            let out = match op {
                CmpOp::Eq => x.iter().map(|&a| a == v).collect(),
                CmpOp::Ne => x.iter().map(|&a| a != v).collect(),
                CmpOp::Lt => x.iter().map(|&a| a < v).collect(),
                CmpOp::Le => x.iter().map(|&a| a <= v).collect(),
                CmpOp::Gt => x.iter().map(|&a| a > v).collect(),
                CmpOp::Ge => x.iter().map(|&a| a >= v).collect(),
            };
            Tensor::from_bool(out)
        }};
    }
    match (a.dtype(), s) {
        (DType::I64, _) if s.dtype().map(|d| d.is_int()) == Some(true) => {
            cmp_const!(a.as_i64(), s.as_i64())
        }
        (DType::I32, Scalar::I32(v)) => cmp_const!(a.as_i32(), *v),
        (DType::F64, _) if s.dtype().map(|d| d.is_numeric()) == Some(true) => {
            cmp_const!(a.as_f64(), s.as_f64())
        }
        _ => compare(op, a, &Tensor::full(s, a.nrows())),
    }
}

/// Logical AND of two bool tensors.
pub fn and(a: &Tensor, b: &Tensor) -> Tensor {
    assert_same_rows(a, b, "and");
    Tensor::from_bool(zip_map(a.as_bool(), b.as_bool(), |x, y| x && y))
}

/// Logical OR of two bool tensors.
pub fn or(a: &Tensor, b: &Tensor) -> Tensor {
    assert_same_rows(a, b, "or");
    Tensor::from_bool(zip_map(a.as_bool(), b.as_bool(), |x, y| x || y))
}

/// Logical NOT of a bool tensor.
pub fn not(a: &Tensor) -> Tensor {
    Tensor::from_bool(a.as_bool().iter().map(|&x| !x).collect())
}

/// Ternary select: `out[i] = if cond[i] { a[i] } else { b[i] }`.
///
/// This is the `torch.where` analogue the planning layer uses for `CASE WHEN`
/// (paper Figure 4 ➌). `a` and `b` must share a numeric dtype after
/// promotion, or both be string matrices (output width = max of both).
pub fn where_select(cond: &Tensor, a: &Tensor, b: &Tensor) -> Tensor {
    assert_same_rows(cond, a, "where_select");
    assert_same_rows(cond, b, "where_select");
    let mask = cond.as_bool();
    if a.dtype() == DType::U8 && b.dtype() == DType::U8 {
        let m = a.row_width().max(b.row_width());
        let n = a.nrows();
        let mut out = vec![0u8; n * m];
        for i in 0..n {
            let src = if mask[i] {
                a.str_row_trimmed(i)
            } else {
                b.str_row_trimmed(i)
            };
            out[i * m..i * m + src.len()].copy_from_slice(src);
        }
        return Tensor::from_u8_matrix(out, n, m);
    }
    macro_rules! sel {
        ($x:expr, $y:expr) => {{
            let out = mask.iter().zip($x.iter().zip($y));
            out.map(|(&c, (&x, &y))| if c { x } else { y }).collect()
        }};
    }
    if a.dtype() == DType::Bool && b.dtype() == DType::Bool {
        return Tensor::from_bool(sel!(a.as_bool(), b.as_bool()));
    }
    let dt = a.dtype().promote(b.dtype());
    let a = a.cast(dt).expect("promote cast");
    let b = b.cast(dt).expect("promote cast");
    match dt {
        DType::I32 => Tensor::from_i32(sel!(a.as_i32(), b.as_i32())),
        DType::I64 => Tensor::from_i64(sel!(a.as_i64(), b.as_i64())),
        DType::F32 => Tensor::from_f32(sel!(a.as_f32(), b.as_f32())),
        DType::F64 => Tensor::from_f64(sel!(a.as_f64(), b.as_f64())),
        other => panic!("where_select on dtype {other:?}"),
    }
}

/// Membership test against a literal list (`expr IN (v1, v2, ...)`),
/// implemented as an OR-fold of equality masks — the tensor formulation of
/// `IN` used by queries like TPC-H Q12/Q19/Q22. A string matrix against a
/// list of strings tests each row (a coded one: each dictionary entry)
/// against the whole list in one pass.
pub fn in_list(a: &Tensor, values: &[Scalar]) -> Tensor {
    if a.dtype() == DType::U8 && values.iter().all(|v| matches!(v, Scalar::Str(_))) {
        let list = values.iter().map(|v| v.as_str().as_bytes().to_vec());
        return str_mask(a, &StrPred::In(list.collect()));
    }
    let mut acc = Tensor::from_bool(vec![false; a.nrows()]);
    for v in values {
        acc = or(&acc, &compare_scalar(CmpOp::Eq, a, v));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_int() {
        let a = Tensor::from_i64(vec![1, 2, 3]);
        let b = Tensor::from_i64(vec![10, 20, 30]);
        assert_eq!(binary(BinOp::Add, &a, &b).as_i64(), &[11, 22, 33]);
        assert_eq!(binary(BinOp::Sub, &b, &a).as_i64(), &[9, 18, 27]);
        assert_eq!(binary(BinOp::Mul, &a, &b).as_i64(), &[10, 40, 90]);
        assert_eq!(binary(BinOp::Div, &b, &a).as_i64(), &[10, 10, 10]);
        assert_eq!(binary(BinOp::Mod, &b, &a).as_i64(), &[0, 0, 0]);
    }

    #[test]
    fn int_div_by_zero_yields_zero() {
        let a = Tensor::from_i64(vec![5]);
        let z = Tensor::from_i64(vec![0]);
        assert_eq!(binary(BinOp::Div, &a, &z).as_i64(), &[0]);
        assert_eq!(binary(BinOp::Mod, &a, &z).as_i64(), &[0]);
    }

    #[test]
    fn arithmetic_promotes() {
        let a = Tensor::from_i32(vec![1, 2]);
        let b = Tensor::from_f64(vec![0.5, 0.25]);
        let r = binary(BinOp::Mul, &a, &b);
        assert_eq!(r.dtype(), DType::F64);
        assert_eq!(r.as_f64(), &[0.5, 0.5]);
    }

    #[test]
    fn scalar_forms() {
        let a = Tensor::from_f64(vec![1.0, 2.0]);
        assert_eq!(
            binary_scalar(BinOp::Add, &a, &Scalar::F64(1.0)).as_f64(),
            &[2.0, 3.0]
        );
        assert_eq!(
            scalar_binary(BinOp::Sub, &Scalar::F64(10.0), &a).as_f64(),
            &[9.0, 8.0]
        );
    }

    #[test]
    fn neg_abs() {
        let a = Tensor::from_i64(vec![-1, 2]);
        assert_eq!(neg(&a).as_i64(), &[1, -2]);
        assert_eq!(abs(&a).as_i64(), &[1, 2]);
        let f = Tensor::from_f64(vec![-1.5]);
        assert_eq!(abs(&f).as_f64(), &[1.5]);
    }

    #[test]
    fn comparisons() {
        let a = Tensor::from_i64(vec![1, 2, 3]);
        let b = Tensor::from_i64(vec![2, 2, 2]);
        assert_eq!(compare(CmpOp::Lt, &a, &b).as_bool(), &[true, false, false]);
        assert_eq!(compare(CmpOp::Eq, &a, &b).as_bool(), &[false, true, false]);
        assert_eq!(compare(CmpOp::Ge, &a, &b).as_bool(), &[false, true, true]);
        assert_eq!(
            compare_scalar(CmpOp::Ne, &a, &Scalar::I64(2)).as_bool(),
            &[true, false, true]
        );
    }

    #[test]
    fn string_comparisons() {
        let a = Tensor::from_strings(&["apple", "pear", "fig"], 0);
        let b = Tensor::from_strings(&["apple", "plum", "aa"], 0);
        assert_eq!(compare(CmpOp::Eq, &a, &b).as_bool(), &[true, false, false]);
        assert_eq!(compare(CmpOp::Lt, &a, &b).as_bool(), &[false, true, false]);
        assert_eq!(
            compare_scalar(CmpOp::Ge, &a, &Scalar::Str("fig".into())).as_bool(),
            &[false, true, true]
        );
    }

    #[test]
    fn coded_string_comparisons_match_padded() {
        let vals = ["apple", "pear", "fig", "", "pear", "fig\0"];
        let p = Tensor::from_strings(&vals, 0);
        let c = crate::dict::encode(&vals, 0).unwrap();
        let shifted = crate::index::take(&c, &Tensor::from_i64(vec![1, 2, 3, 4, 5, 0]));
        let other = crate::dict::encode(&["pear", "fig", "zed", "", "a", "fig"], 3).unwrap();
        let needles = ["fig", "", "pear", "zzz"];
        let list: Vec<Scalar> = needles.iter().map(|s| Scalar::Str(s.to_string())).collect();
        assert_eq!(in_list(&c, &list).as_bool(), in_list(&p, &list).as_bool());
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            for n in needles {
                let s = Scalar::Str(n.into());
                assert_eq!(
                    compare_scalar(op, &c, &s).as_bool(),
                    compare_scalar(op, &p, &s).as_bool(),
                    "{op:?} {n:?}"
                );
            }
            // Shared dictionary (codes), another dictionary and a padded
            // side (bytes) all agree with the padded comparison.
            let sp = crate::index::take(&p, &Tensor::from_i64(vec![1, 2, 3, 4, 5, 0]));
            let want = compare(op, &p, &sp);
            assert_eq!(
                compare(op, &c, &shifted).as_bool(),
                want.as_bool(),
                "{op:?}"
            );
            assert_eq!(compare(op, &c, &sp).as_bool(), want.as_bool(), "{op:?}");
            let po = Tensor::from_strings(&["pear", "fig", "zed", "", "a", "fig"], 0);
            assert_eq!(
                compare(op, &c, &other).as_bool(),
                compare(op, &p, &po).as_bool(),
                "{op:?}"
            );
        }
    }

    #[test]
    fn string_prefix_ordering_with_padding() {
        // "ab" < "abc": padding must not break lexicographic order.
        let a = Tensor::from_strings(&["ab"], 3);
        let b = Tensor::from_strings(&["abc"], 3);
        assert_eq!(compare(CmpOp::Lt, &a, &b).as_bool(), &[true]);
    }

    #[test]
    fn boolean_logic() {
        let a = Tensor::from_bool(vec![true, true, false, false]);
        let b = Tensor::from_bool(vec![true, false, true, false]);
        assert_eq!(and(&a, &b).as_bool(), &[true, false, false, false]);
        assert_eq!(or(&a, &b).as_bool(), &[true, true, true, false]);
        assert_eq!(not(&a).as_bool(), &[false, false, true, true]);
    }

    #[test]
    fn where_select_numeric() {
        let c = Tensor::from_bool(vec![true, false, true]);
        let a = Tensor::from_i64(vec![1, 1, 1]);
        let b = Tensor::from_i64(vec![0, 0, 0]);
        assert_eq!(where_select(&c, &a, &b).as_i64(), &[1, 0, 1]);
    }

    #[test]
    fn where_select_strings() {
        let c = Tensor::from_bool(vec![true, false]);
        let a = Tensor::from_strings(&["yes", "yes"], 0);
        let b = Tensor::from_strings(&["no", "no"], 0);
        let r = where_select(&c, &a, &b);
        assert_eq!(r.str_at(0), "yes");
        assert_eq!(r.str_at(1), "no");
    }

    #[test]
    fn in_list_membership() {
        let a = Tensor::from_i64(vec![1, 5, 7, 9]);
        let r = in_list(&a, &[Scalar::I64(5), Scalar::I64(9)]);
        assert_eq!(r.as_bool(), &[false, true, false, true]);
        let s = Tensor::from_strings(&["MAIL", "AIR", "SHIP"], 0);
        let r = in_list(
            &s,
            &[Scalar::Str("MAIL".into()), Scalar::Str("SHIP".into())],
        );
        assert_eq!(r.as_bool(), &[true, false, true]);
    }
}

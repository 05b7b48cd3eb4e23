//! Full and segmented reductions — the aggregation kernels behind SQL
//! `SUM`/`AVG`/`MIN`/`MAX`/`COUNT`.
//!
//! Grouped aggregation folds each row into its group's slot with
//! [`segmented_reduce`] (dense group ids, rows folded in input order).
//! Full-column reductions implement ungrouped aggregates such as TPC-H
//! Q6's single `SUM`.

use std::borrow::Cow;

use crate::dtype::DType;
use crate::pool::par_reduce;
use crate::tensor::Tensor;

/// Aggregation function selector shared by all engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFn {
    Sum,
    Min,
    Max,
    Count,
    Avg,
}

/// Sum of a numeric tensor as `f64` (parallel tree reduction).
///
/// Float ranges reduce with the canonical lane-split kernel
/// ([`crate::simd::sum_f64`]): the accumulation order is fixed by the
/// kernel definition, not by the dispatch tier, so results are bitwise
/// identical with SIMD on or off. The thread-range geometry of
/// [`par_reduce`] is unchanged, so worker count keeps its (pre-existing)
/// determinism contract too.
pub fn sum_f64(t: &Tensor) -> f64 {
    match t.dtype() {
        DType::F64 => {
            let x = t.as_f64();
            par_reduce(x.len(), |r| crate::simd::sum_f64(&x[r]), |a, b| a + b, 0.0)
        }
        DType::F32 => {
            let x = t.as_f32();
            par_reduce(x.len(), |r| crate::simd::sum_f32(&x[r]), |a, b| a + b, 0.0)
        }
        DType::I64 => sum_i64(t) as f64,
        DType::I32 => sum_i64(t) as f64,
        DType::Bool => sum_i64(t) as f64,
        other => panic!("sum on dtype {other:?}"),
    }
}

/// Sum of an integer/bool tensor as `i64`.
pub fn sum_i64(t: &Tensor) -> i64 {
    match t.dtype() {
        DType::I64 => {
            let x = t.as_i64();
            par_reduce(x.len(), |r| crate::simd::sum_i64(&x[r]), |a, b| a + b, 0)
        }
        DType::I32 => {
            let x = t.as_i32();
            par_reduce(
                x.len(),
                |r| x[r].iter().map(|&v| v as i64).sum::<i64>(),
                |a, b| a + b,
                0,
            )
        }
        DType::Bool => {
            let x = t.as_bool();
            par_reduce(
                x.len(),
                |r| crate::simd::count_true(&x[r]) as i64,
                |a, b| a + b,
                0,
            )
        }
        other => panic!("integer sum on dtype {other:?}"),
    }
}

/// Minimum as `f64`, or `None` on empty input.
///
/// Folds with the canonical comparator [`crate::simd::cmin`] (identity
/// `+inf`): deterministic on NaN (ignored) and signed-zero ties, and
/// identical on every dispatch tier — see the `simd` module docs.
pub fn min_f64(t: &Tensor) -> Option<f64> {
    if t.is_empty() {
        return None;
    }
    if t.dtype() == DType::F64 {
        let x = t.as_f64();
        return Some(par_reduce(
            x.len(),
            |r| crate::simd::min_f64(&x[r]),
            crate::simd::cmin,
            f64::INFINITY,
        ));
    }
    let v = t.to_f64_vec();
    Some(crate::simd::min_f64(&v))
}

/// Maximum as `f64`, or `None` on empty input (mirror of [`min_f64`]).
pub fn max_f64(t: &Tensor) -> Option<f64> {
    if t.is_empty() {
        return None;
    }
    if t.dtype() == DType::F64 {
        let x = t.as_f64();
        return Some(par_reduce(
            x.len(),
            |r| crate::simd::max_f64(&x[r]),
            crate::simd::cmax,
            f64::NEG_INFINITY,
        ));
    }
    let v = t.to_f64_vec();
    Some(crate::simd::max_f64(&v))
}

/// Mean, or `None` on empty input.
pub fn mean(t: &Tensor) -> Option<f64> {
    if t.is_empty() {
        None
    } else {
        Some(sum_f64(t) / t.nrows() as f64)
    }
}

/// `values` as `f64`s: borrowed when the column already is `F64`.
fn f64_values(values: &Tensor) -> Cow<'_, [f64]> {
    match values.dtype() {
        DType::F64 => Cow::Borrowed(values.as_f64()),
        _ => Cow::Owned(values.to_f64_vec()),
    }
}

/// `values` as `i64`s: borrowed when the column already is `I64`.
fn i64_values(values: &Tensor) -> Cow<'_, [i64]> {
    match values.dtype() {
        DType::I64 => Cow::Borrowed(values.as_i64()),
        _ => Cow::Owned(values.to_i64_vec()),
    }
}

/// Segmented reduction: reduce `values` into the group each row's `ids`
/// entry names (dense ids in `0..num_groups`, any order; each group's rows
/// fold in ascending row order). Returns one `F64` output row per group; a
/// group with no rows holds the reduction identity (0, +∞, −∞), which
/// callers that allow empty groups replace with their default.
pub fn segmented_reduce(values: &Tensor, ids: &Tensor, num_groups: usize, f: AggFn) -> Tensor {
    let gid = ids.as_i64();
    assert_eq!(
        values.nrows(),
        gid.len(),
        "segmented_reduce operand mismatch"
    );
    match f {
        AggFn::Count => {
            let mut out = vec![0f64; num_groups];
            for &g in gid {
                out[g as usize] += 1.0;
            }
            Tensor::from_f64(out)
        }
        AggFn::Sum | AggFn::Avg => {
            let xs = f64_values(values);
            let mut sums = vec![0f64; num_groups];
            let mut counts = vec![0i64; num_groups];
            for (&g, &v) in gid.iter().zip(xs.iter()) {
                sums[g as usize] += v;
                counts[g as usize] += 1;
            }
            if f == AggFn::Avg {
                for (s, &c) in sums.iter_mut().zip(&counts) {
                    if c > 0 {
                        *s /= c as f64;
                    }
                }
            }
            Tensor::from_f64(sums)
        }
        AggFn::Min => {
            let xs = f64_values(values);
            let mut out = vec![f64::INFINITY; num_groups];
            for (&g, &v) in gid.iter().zip(xs.iter()) {
                let slot = &mut out[g as usize];
                if v < *slot {
                    *slot = v;
                }
            }
            Tensor::from_f64(out)
        }
        AggFn::Max => {
            let xs = f64_values(values);
            let mut out = vec![f64::NEG_INFINITY; num_groups];
            for (&g, &v) in gid.iter().zip(xs.iter()) {
                let slot = &mut out[g as usize];
                if v > *slot {
                    *slot = v;
                }
            }
            Tensor::from_f64(out)
        }
    }
}

/// Segmented reduction preserving integer type (SUM/COUNT/MIN/MAX over
/// integer columns stay exact `I64`).
pub fn segmented_reduce_i64(values: &Tensor, ids: &Tensor, num_groups: usize, f: AggFn) -> Tensor {
    let gid = ids.as_i64();
    assert_eq!(
        values.nrows(),
        gid.len(),
        "segmented_reduce operand mismatch"
    );
    let xs = i64_values(values);
    match f {
        AggFn::Count => {
            let mut out = vec![0i64; num_groups];
            for &g in gid {
                out[g as usize] += 1;
            }
            Tensor::from_i64(out)
        }
        AggFn::Sum => {
            let mut out = vec![0i64; num_groups];
            for (&g, &v) in gid.iter().zip(xs.iter()) {
                out[g as usize] += v;
            }
            Tensor::from_i64(out)
        }
        AggFn::Min => {
            let mut out = vec![i64::MAX; num_groups];
            for (&g, &v) in gid.iter().zip(xs.iter()) {
                let slot = &mut out[g as usize];
                if v < *slot {
                    *slot = v;
                }
            }
            Tensor::from_i64(out)
        }
        AggFn::Max => {
            let mut out = vec![i64::MIN; num_groups];
            for (&g, &v) in gid.iter().zip(xs.iter()) {
                let slot = &mut out[g as usize];
                if v > *slot {
                    *slot = v;
                }
            }
            Tensor::from_i64(out)
        }
        AggFn::Avg => panic!("integer AVG must go through segmented_reduce (f64)"),
    }
}

/// Best (min or max) row index per group of a segmented string reduction;
/// `None` for groups with no member rows.
fn segmented_minmax_str_best(
    values: &Tensor,
    ids: &Tensor,
    num_groups: usize,
    min: bool,
) -> Vec<Option<usize>> {
    let gid = ids.as_i64();
    let mut best: Vec<Option<usize>> = vec![None; num_groups];
    for (row, &g) in gid.iter().enumerate() {
        let slot = &mut best[g as usize];
        match slot {
            None => *slot = Some(row),
            Some(cur) => {
                let ord = values.str_row(row).cmp(values.str_row(*cur));
                if (min && ord.is_lt()) || (!min && ord.is_gt()) {
                    *slot = Some(row);
                }
            }
        }
    }
    best
}

/// Segmented MIN over string rows: returns the lexicographically-smallest
/// row per group as a new `(g × m)` matrix (used by MIN/MAX over text
/// columns, e.g. TPC-H Q2's `min(ps_supplycost)` sibling projections).
/// Panics on a group with no member rows.
pub fn segmented_min_str(values: &Tensor, ids: &Tensor, num_groups: usize, min: bool) -> Tensor {
    let idx: Vec<i64> = segmented_minmax_str_best(values, ids, num_groups, min)
        .into_iter()
        .map(|b| b.expect("empty group") as i64)
        .collect();
    crate::index::take(values, &Tensor::from_i64(idx))
}

/// [`segmented_min_str`], except a group with no member rows materializes
/// an all-zero filler row instead of panicking. Used by partitioned
/// aggregation, where a morsel-local group can be entirely NULL — the
/// caller must exclude filler rows (by the zero valid count) before the
/// cross-morsel reduction.
pub fn segmented_min_str_or_filler(
    values: &Tensor,
    ids: &Tensor,
    num_groups: usize,
    min: bool,
) -> Tensor {
    let best = segmented_minmax_str_best(values, ids, num_groups, min);
    let width = values.row_width().max(1);
    let mut out = vec![0u8; num_groups * width];
    for (gi, b) in best.iter().enumerate() {
        if let Some(row) = b {
            let src = values.str_row(*row);
            out[gi * width..gi * width + src.len()].copy_from_slice(src);
        }
    }
    Tensor::from_u8_matrix(out, num_groups, width)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_reductions() {
        let t = Tensor::from_f64(vec![1.0, 2.0, 3.0]);
        assert_eq!(sum_f64(&t), 6.0);
        assert_eq!(min_f64(&t), Some(1.0));
        assert_eq!(max_f64(&t), Some(3.0));
        assert_eq!(mean(&t), Some(2.0));
        let i = Tensor::from_i64(vec![5, -2]);
        assert_eq!(sum_i64(&i), 3);
        let b = Tensor::from_bool(vec![true, false, true]);
        assert_eq!(sum_i64(&b), 2);
    }

    #[test]
    fn empty_reductions() {
        let t = Tensor::from_f64(vec![]);
        assert_eq!(sum_f64(&t), 0.0);
        assert_eq!(min_f64(&t), None);
        assert_eq!(max_f64(&t), None);
        assert_eq!(mean(&t), None);
    }

    #[test]
    fn parallel_sum_matches_serial() {
        let n = crate::pool::PAR_THRESHOLD * 3;
        let t = Tensor::from_i64(vec![1; n]);
        assert_eq!(sum_i64(&t), n as i64);
    }

    #[test]
    fn segmented_all_functions() {
        let vals = Tensor::from_f64(vec![1.0, 2.0, 10.0, 4.0, 6.0]);
        let ids = Tensor::from_i64(vec![0, 0, 1, 2, 2]);
        assert_eq!(
            segmented_reduce(&vals, &ids, 3, AggFn::Sum).as_f64(),
            &[3.0, 10.0, 10.0]
        );
        assert_eq!(
            segmented_reduce(&vals, &ids, 3, AggFn::Avg).as_f64(),
            &[1.5, 10.0, 5.0]
        );
        assert_eq!(
            segmented_reduce(&vals, &ids, 3, AggFn::Min).as_f64(),
            &[1.0, 10.0, 4.0]
        );
        assert_eq!(
            segmented_reduce(&vals, &ids, 3, AggFn::Max).as_f64(),
            &[2.0, 10.0, 6.0]
        );
        assert_eq!(
            segmented_reduce(&vals, &ids, 3, AggFn::Count).as_f64(),
            &[2.0, 1.0, 2.0]
        );
    }

    #[test]
    fn segmented_integer_exact() {
        let vals = Tensor::from_i64(vec![i64::MAX - 1, 1, 7]);
        let ids = Tensor::from_i64(vec![0, 0, 1]);
        let s = segmented_reduce_i64(&vals, &ids, 2, AggFn::Sum);
        assert_eq!(s.as_i64(), &[i64::MAX, 7]);
        assert_eq!(
            segmented_reduce_i64(&vals, &ids, 2, AggFn::Min).as_i64(),
            &[1, 7]
        );
        assert_eq!(
            segmented_reduce_i64(&vals, &ids, 2, AggFn::Count).as_i64(),
            &[2, 1]
        );
    }

    #[test]
    fn segmented_string_minmax() {
        let vals = Tensor::from_strings(&["pear", "apple", "zed", "kiwi"], 0);
        let ids = Tensor::from_i64(vec![0, 0, 1, 1]);
        let mn = segmented_min_str(&vals, &ids, 2, true);
        assert_eq!(mn.str_at(0), "apple");
        assert_eq!(mn.str_at(1), "kiwi");
        let mx = segmented_min_str(&vals, &ids, 2, false);
        assert_eq!(mx.str_at(0), "pear");
        assert_eq!(mx.str_at(1), "zed");
    }
}

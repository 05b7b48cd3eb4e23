//! Run detection over sorted keys (`unique_consecutive` on tensor
//! runtimes): [`run_starts`] marks the start of every run of equal keys
//! (`x[i] != x[i-1]`, OR-ed across key columns). `COUNT(DISTINCT)` sorts
//! `(group, value)` and counts the runs.

use crate::dtype::DType;
use crate::tensor::Tensor;

/// Boolean mask of length `n` with `true` where row `i` differs from row
/// `i-1` in *any* of the key columns. Row 0 is always `true` (first run).
#[allow(clippy::needless_range_loop)] // comparisons look back at i-1
pub fn run_starts(keys: &[&Tensor]) -> Tensor {
    assert!(!keys.is_empty(), "run_starts needs at least one key");
    let n = keys[0].nrows();
    let mut mask = vec![false; n];
    if n > 0 {
        mask[0] = true;
    }
    for key in keys {
        assert_eq!(key.nrows(), n, "run_starts keys must align");
        match key.dtype() {
            DType::U8 if key.coded().is_some() => {
                let v = key.coded().expect("checked coded").0;
                for i in 1..n {
                    mask[i] |= v[i] != v[i - 1];
                }
            }
            DType::U8 => {
                for i in 1..n {
                    if !mask[i] && key.str_row(i) != key.str_row(i - 1) {
                        mask[i] = true;
                    }
                }
            }
            DType::Bool => {
                let v = key.as_bool();
                for i in 1..n {
                    mask[i] |= v[i] != v[i - 1];
                }
            }
            DType::I32 => {
                let v = key.as_i32();
                for i in 1..n {
                    mask[i] |= v[i] != v[i - 1];
                }
            }
            DType::I64 => {
                let v = key.as_i64();
                for i in 1..n {
                    mask[i] |= v[i] != v[i - 1];
                }
            }
            DType::F32 => {
                let v = key.as_f32();
                for i in 1..n {
                    mask[i] |= v[i].to_bits() != v[i - 1].to_bits();
                }
            }
            DType::F64 => {
                let v = key.as_f64();
                for i in 1..n {
                    mask[i] |= v[i].to_bits() != v[i - 1].to_bits();
                }
            }
        }
    }
    Tensor::from_bool(mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_starts_single_key() {
        let t = Tensor::from_i64(vec![1, 1, 2, 2, 2, 3]);
        assert_eq!(
            run_starts(&[&t]).as_bool(),
            &[true, false, true, false, false, true]
        );
    }

    #[test]
    fn run_starts_multi_key() {
        let a = Tensor::from_i64(vec![1, 1, 1, 2]);
        let b = Tensor::from_strings(&["x", "x", "y", "y"], 0);
        assert_eq!(run_starts(&[&a, &b]).as_bool(), &[true, false, true, true]);
    }

    #[test]
    fn empty_input() {
        let t = Tensor::from_i64(vec![]);
        assert_eq!(run_starts(&[&t]).nrows(), 0);
    }

    #[test]
    fn float_runs_use_bits() {
        let t = Tensor::from_f64(vec![1.0, 1.0, 2.0, -0.0, 0.0]);
        assert_eq!(
            run_starts(&[&t]).as_bool(),
            &[true, false, true, true, true]
        );
    }
}

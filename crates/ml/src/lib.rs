//! # tqp-ml — classical ML models compiled to tensor programs
//!
//! The stand-in for scikit-learn + Hummingbird + the HuggingFace models of
//! the paper's Scenario 3 (§3.3). Everything here is trainable in-tree and
//! compiles to pure tensor programs over `tqp-tensor`, which is exactly the
//! Hummingbird thesis the paper builds on: *classical ML models are tensor
//! programs too*.
//!
//! * [`linear`] — linear & logistic regression (gradient-descent training,
//!   `X·w + b` inference);
//! * [`tree`] — CART decision trees, random forests, gradient-boosted
//!   trees;
//! * [`compile`] — the two Hummingbird tree-compilation strategies:
//!   [`compile::TreeStrategy::Gemm`] (trees as matrix cascades) and
//!   [`compile::TreeStrategy::Traversal`] (vectorized pointer chasing) —
//!   the ablation of the `trees` bench;
//! * [`mlp`] — a small feed-forward network (backprop training);
//! * [`text`] — hashed bag-of-words sentiment classifier (the
//!   `sentiment_classifier` of the paper's Figure 4);
//! * [`registry`] — the model registry backing the SQL `PREDICT` keyword.
//!
//! **Work in proportion to the input, bit-for-bit.** `PREDICT` hands a
//! model one column tensor per SQL argument, a morsel at a time. The
//! linear models and the compiled tree ensembles read those columns as
//! they are (`feature_columns`) instead of assembling a row-major
//! design matrix first; the text classifier scores only the feature
//! buckets a row touches; the GEMM tree strategy gathers the one column
//! each node tests instead of multiplying by a one-hot matrix. Each keeps
//! the per-row order of floating-point operations of the dense
//! formulation it replaces — which the tests keep as the oracle — so
//! predictions are unchanged to the last bit.

pub mod compile;
pub mod linear;
pub mod mlp;
pub mod registry;
pub mod text;
pub mod tree;

pub use registry::{Model, ModelRegistry};

use std::borrow::Cow;

use tqp_tensor::{DType, Tensor};

/// Assemble per-argument rank-1 `F64` feature tensors into a row-major
/// `(n × k)` design matrix (the `X` training consumes).
pub fn design_matrix(inputs: &[Tensor]) -> Tensor {
    let cols = feature_columns(inputs);
    let n = cols[0].len();
    let k = cols.len();
    let mut data = vec![0f64; n * k];
    for (j, col) in cols.iter().enumerate() {
        for (i, &v) in col.iter().enumerate() {
            data[i * k + j] = v;
        }
    }
    Tensor::from_f64_matrix(data, n, k)
}

/// The per-argument feature columns of a `PREDICT` call as `f64` slices:
/// `F64` tensors are borrowed, other numeric tensors convert once.
pub(crate) fn feature_columns(inputs: &[Tensor]) -> Vec<Cow<'_, [f64]>> {
    assert!(!inputs.is_empty(), "a model needs at least one feature");
    let n = inputs[0].nrows();
    inputs
        .iter()
        .map(|t| {
            assert_eq!(t.nrows(), n, "feature column length mismatch");
            match t.dtype() {
                DType::F64 => Cow::Borrowed(t.as_f64()),
                _ => Cow::Owned(t.to_f64_vec()),
            }
        })
        .collect()
}

/// The columns of a row-major `(n × k)` design matrix.
pub(crate) fn matrix_columns(x: &Tensor) -> Vec<Cow<'static, [f64]>> {
    let (n, k) = (x.shape()[0], x.shape()[1]);
    let xv = x.as_f64();
    (0..k)
        .map(|j| Cow::Owned((0..n).map(|i| xv[i * k + j]).collect()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_matrix_layout() {
        let a = Tensor::from_f64(vec![1.0, 2.0]);
        let b = Tensor::from_i64(vec![10, 20]);
        let x = design_matrix(&[a, b]);
        assert_eq!(x.shape(), &[2, 2]);
        assert_eq!(x.as_f64(), &[1.0, 10.0, 2.0, 20.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn design_matrix_rejects_ragged() {
        design_matrix(&[
            Tensor::from_f64(vec![1.0]),
            Tensor::from_f64(vec![1.0, 2.0]),
        ]);
    }
}

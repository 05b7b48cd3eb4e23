//! # tqp-tensor — a Tensor Computation Runtime (TCR) substrate
//!
//! This crate is the stand-in for PyTorch in the TQP reproduction: a dense,
//! CPU-resident tensor library exposing exactly the operator vocabulary that
//! the paper's relational-algebra-to-tensor compilation requires:
//!
//! * element-wise arithmetic / comparison / boolean kernels with scalar
//!   broadcasting ([`ops`]),
//! * full and segmented reductions ([`reduce`]),
//! * stable single- and multi-key argsort, gather/take ([`sort`]),
//! * boolean-mask compaction, `arange`, `repeat`, `cumsum`
//!   ([`index`]),
//! * run-boundary / unique-consecutive detection ([`unique`]),
//! * dense GEMM for the ML operators ([`gemm`]),
//! * kernels over `(n × m)` right-zero-padded UTF-8 byte matrices — the
//!   paper's string representation (§2.1) — including `LIKE` ([`strings`]),
//! * dictionary-coded string matrices, the second string form: `u32` codes
//!   into a sorted dictionary, on which predicates, hashes, sorts and group
//!   keys run as code arithmetic ([`dict`]).
//!
//! Tensors are immutable, reference-counted, contiguous and row-major
//! ([`Tensor`]); cloning is O(1). Every kernel is a sequential leaf function
//! and this crate starts no threads: "TQP-CPU runs over all cores" in the
//! paper's evaluation setup is the execution layer's job, whose scheduler
//! splits the rows and calls these kernels once per piece.
//!
//! Device placement (CPU vs the simulated GPU of the reproduction) is decided
//! by the execution layer (`tqp-exec`); kernels here are device-agnostic pure
//! compute, exactly like ATen kernels underneath PyTorch.

pub mod dict;
pub mod dtype;
pub mod gemm;
pub mod hash;
pub mod index;
pub mod kernels;
pub mod ops;
pub mod reduce;
pub mod simd;
pub mod sort;
pub mod strings;
pub mod tensor;
pub mod unique;

pub use dtype::{DType, Scalar};
pub use tensor::{Footprint, Tensor};

/// Errors produced by tensor kernels on semantically invalid input.
///
/// Shape/dtype mismatches that can only arise from planner bugs `panic!` with
/// descriptive messages instead (they are programmer errors, not data errors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// An index was out of bounds for the tensor it addresses.
    IndexOutOfBounds { index: i64, len: usize },
    /// A cast between dtypes is not supported.
    BadCast { from: DType, to: DType },
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for tensor of length {len}")
            }
            TensorError::BadCast { from, to } => {
                write!(f, "unsupported cast from {from:?} to {to:?}")
            }
        }
    }
}

impl std::error::Error for TensorError {}

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, TensorError>;

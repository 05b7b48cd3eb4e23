//! The [`Tensor`] type: an immutable, reference-counted, contiguous,
//! row-major array.
//!
//! TQP represents every table column as a tensor (paper §2.1): numeric and
//! date columns are rank-1 `(n)`, string columns are rank-2 `(n × m)` byte
//! matrices in one of two forms — **padded** (`n × m` right-zero-padded
//! bytes) or **dictionary-coded** (one `u32` code per row into a shared,
//! sorted dictionary of the distinct values; see [`crate::dict`]). Both
//! forms report dtype `U8` and shape `[n, m]`, and [`Tensor::str_row`]
//! reads the same padded bytes from either, so only bulk kernels need to
//! know which form they hold. Rank-2 float tensors also appear inside
//! compiled ML operators (weight matrices). Cloning a tensor is O(1) —
//! buffers are shared through `Arc`, which is what makes the ingestion
//! path "zero-copy in general" (paper §2.1).

use std::sync::Arc;

use crate::dict::StrDict;
use crate::dtype::{DType, Scalar};
use crate::{Result, TensorError};

/// Typed, shared storage behind a tensor.
#[derive(Debug, Clone)]
pub enum Buffer {
    Bool(Arc<Vec<bool>>),
    I32(Arc<Vec<i32>>),
    I64(Arc<Vec<i64>>),
    F32(Arc<Vec<f32>>),
    F64(Arc<Vec<f64>>),
    U8(Arc<Vec<u8>>),
    /// A dictionary-coded string matrix: row `i` is `dict.row(codes[i])`.
    Coded(Arc<Vec<u32>>, Arc<StrDict>),
}

impl Buffer {
    /// Elements of the (logical, padded) matrix.
    fn len(&self) -> usize {
        match self {
            Buffer::Bool(v) => v.len(),
            Buffer::I32(v) => v.len(),
            Buffer::I64(v) => v.len(),
            Buffer::F32(v) => v.len(),
            Buffer::F64(v) => v.len(),
            Buffer::U8(v) => v.len(),
            Buffer::Coded(codes, dict) => codes.len() * dict.width(),
        }
    }

    fn dtype(&self) -> DType {
        match self {
            Buffer::Bool(_) => DType::Bool,
            Buffer::I32(_) => DType::I32,
            Buffer::I64(_) => DType::I64,
            Buffer::F32(_) => DType::F32,
            Buffer::F64(_) => DType::F64,
            Buffer::U8(_) | Buffer::Coded(..) => DType::U8,
        }
    }
}

/// Bytes a tensor (or a table of them) keeps resident, by buffer kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Numeric, bool and date buffers.
    pub numeric: usize,
    /// Padded string matrices.
    pub padded: usize,
    /// Codes of dictionary-coded string columns.
    pub codes: usize,
    /// Their dictionaries.
    pub dict: usize,
}

impl Footprint {
    /// All resident bytes.
    pub fn total(&self) -> usize {
        self.numeric + self.padded + self.codes + self.dict
    }
}

impl std::ops::Add for Footprint {
    type Output = Footprint;

    fn add(self, o: Footprint) -> Footprint {
        Footprint {
            numeric: self.numeric + o.numeric,
            padded: self.padded + o.padded,
            codes: self.codes + o.codes,
            dict: self.dict + o.dict,
        }
    }
}

/// Dense, immutable tensor. Rank is 1 or 2 (all TQP relational kernels
/// operate on columns and byte matrices; ML kernels on matrices).
#[derive(Debug, Clone)]
pub struct Tensor {
    shape: Vec<usize>,
    buf: Buffer,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    fn new(shape: Vec<usize>, buf: Buffer) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(
            numel,
            buf.len(),
            "shape {shape:?} does not match buffer of {} elements",
            buf.len()
        );
        Tensor { shape, buf }
    }

    /// Rank-1 tensor from a `bool` vector.
    pub fn from_bool(v: Vec<bool>) -> Self {
        let n = v.len();
        Tensor::new(vec![n], Buffer::Bool(Arc::new(v)))
    }

    /// Rank-1 tensor from an `i32` vector.
    pub fn from_i32(v: Vec<i32>) -> Self {
        let n = v.len();
        Tensor::new(vec![n], Buffer::I32(Arc::new(v)))
    }

    /// Rank-1 tensor from an `i64` vector.
    pub fn from_i64(v: Vec<i64>) -> Self {
        let n = v.len();
        Tensor::new(vec![n], Buffer::I64(Arc::new(v)))
    }

    /// Rank-1 tensor from an `f32` vector.
    pub fn from_f32(v: Vec<f32>) -> Self {
        let n = v.len();
        Tensor::new(vec![n], Buffer::F32(Arc::new(v)))
    }

    /// Rank-1 tensor from an `f64` vector.
    pub fn from_f64(v: Vec<f64>) -> Self {
        let n = v.len();
        Tensor::new(vec![n], Buffer::F64(Arc::new(v)))
    }

    /// Rank-1 tensor from a raw byte vector.
    pub fn from_u8(v: Vec<u8>) -> Self {
        let n = v.len();
        Tensor::new(vec![n], Buffer::U8(Arc::new(v)))
    }

    /// Rank-1 tensor sharing an existing `i64` buffer — the zero-copy
    /// ingestion path of paper §2.1 ("data transformation is in general
    /// zero-copy"): the DataFrame column and the tensor alias one allocation.
    pub fn from_i64_shared(v: Arc<Vec<i64>>) -> Self {
        let n = v.len();
        Tensor::new(vec![n], Buffer::I64(v))
    }

    /// Rank-1 tensor sharing an existing `f64` buffer (zero-copy ingestion).
    pub fn from_f64_shared(v: Arc<Vec<f64>>) -> Self {
        let n = v.len();
        Tensor::new(vec![n], Buffer::F64(v))
    }

    /// Rank-1 tensor sharing an existing `bool` buffer (zero-copy ingestion).
    pub fn from_bool_shared(v: Arc<Vec<bool>>) -> Self {
        let n = v.len();
        Tensor::new(vec![n], Buffer::Bool(v))
    }

    /// Rank-2 `(rows × cols)` tensor from a row-major `f64` vector.
    pub fn from_f64_matrix(v: Vec<f64>, rows: usize, cols: usize) -> Self {
        Tensor::new(vec![rows, cols], Buffer::F64(Arc::new(v)))
    }

    /// Rank-2 `(rows × cols)` tensor from a row-major `f32` vector.
    pub fn from_f32_matrix(v: Vec<f32>, rows: usize, cols: usize) -> Self {
        Tensor::new(vec![rows, cols], Buffer::F32(Arc::new(v)))
    }

    /// Rank-2 `(rows × cols)` byte matrix — TQP's padded-string column layout.
    pub fn from_u8_matrix(v: Vec<u8>, rows: usize, cols: usize) -> Self {
        Tensor::new(vec![rows, cols], Buffer::U8(Arc::new(v)))
    }

    /// Rank-2 `(rows × cols)` i64 matrix (token-id matrices for the text
    /// models of scenario 3).
    pub fn from_i64_matrix(v: Vec<i64>, rows: usize, cols: usize) -> Self {
        Tensor::new(vec![rows, cols], Buffer::I64(Arc::new(v)))
    }

    /// A dictionary-coded `(n × m)` string matrix, `m` = the dictionary's
    /// width; every code must index `dict`.
    pub fn from_coded(codes: Vec<u32>, dict: Arc<StrDict>) -> Self {
        let shape = vec![codes.len(), dict.width()];
        Tensor {
            shape,
            buf: Buffer::Coded(Arc::new(codes), dict),
        }
    }

    /// Build a `(n × m)` padded byte matrix from UTF-8 strings, right-padding
    /// with zeros — the paper's string representation (§2.1). `m` is
    /// `max(len)` unless `min_width` demands more.
    pub fn from_strings(values: &[&str], min_width: usize) -> Self {
        let m = values
            .iter()
            .map(|s| s.len())
            .max()
            .unwrap_or(0)
            .max(min_width)
            .max(1);
        let mut data = vec![0u8; values.len() * m];
        for (i, s) in values.iter().enumerate() {
            data[i * m..i * m + s.len()].copy_from_slice(s.as_bytes());
        }
        Tensor::from_u8_matrix(data, values.len(), m)
    }

    /// All-zeros tensor of the given dtype and rank-1 length.
    pub fn zeros(dtype: DType, n: usize) -> Self {
        match dtype {
            DType::Bool => Tensor::from_bool(vec![false; n]),
            DType::I32 => Tensor::from_i32(vec![0; n]),
            DType::I64 => Tensor::from_i64(vec![0; n]),
            DType::F32 => Tensor::from_f32(vec![0.0; n]),
            DType::F64 => Tensor::from_f64(vec![0.0; n]),
            DType::U8 => Tensor::from_u8(vec![0; n]),
        }
    }

    /// Rank-1 tensor filled with `scalar` repeated `n` times.
    pub fn full(scalar: &Scalar, n: usize) -> Self {
        match scalar {
            Scalar::Bool(v) => Tensor::from_bool(vec![*v; n]),
            Scalar::I32(v) => Tensor::from_i32(vec![*v; n]),
            Scalar::I64(v) => Tensor::from_i64(vec![*v; n]),
            Scalar::F32(v) => Tensor::from_f32(vec![*v; n]),
            Scalar::F64(v) => Tensor::from_f64(vec![*v; n]),
            Scalar::Str(s) => {
                Tensor::from_strings(&std::iter::repeat_n(s.as_str(), n).collect::<Vec<_>>(), 1)
            }
            Scalar::Null => panic!("cannot broadcast NULL into a tensor; use a validity mask"),
        }
    }

    // ------------------------------------------------------------------
    // Metadata
    // ------------------------------------------------------------------

    /// Shape of the tensor (`[n]` or `[n, m]`).
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Element dtype.
    pub fn dtype(&self) -> DType {
        self.buf.dtype()
    }

    /// Number of rows (first dimension).
    pub fn nrows(&self) -> usize {
        self.shape.first().copied().unwrap_or(0)
    }

    /// Row width: 1 for rank-1 tensors, `m` for rank-2.
    #[inline]
    pub fn row_width(&self) -> usize {
        if self.shape.len() >= 2 {
            self.shape[1]
        } else {
            1
        }
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.shape.iter().product()
    }

    /// Payload size in bytes of the dense (padded) form, whichever form
    /// the tensor holds (drives the GPU cost model in `tqp-exec`).
    pub fn nbytes(&self) -> usize {
        self.numel() * self.dtype().size_of()
    }

    /// Bytes this tensor keeps resident, by buffer kind.
    pub fn footprint(&self) -> Footprint {
        match &self.buf {
            Buffer::Coded(codes, dict) => Footprint {
                codes: codes.len() * 4,
                dict: dict.nbytes(),
                ..Footprint::default()
            },
            Buffer::U8(v) if self.shape.len() == 2 => Footprint {
                padded: v.len(),
                ..Footprint::default()
            },
            _ => Footprint {
                numeric: self.nbytes(),
                ..Footprint::default()
            },
        }
    }

    /// The codes and dictionary of a dictionary-coded string matrix;
    /// `None` for every other tensor.
    pub fn coded(&self) -> Option<(&[u32], &Arc<StrDict>)> {
        match &self.buf {
            Buffer::Coded(codes, dict) => Some((codes, dict)),
            _ => None,
        }
    }

    /// True when the tensor holds no rows.
    pub fn is_empty(&self) -> bool {
        self.nrows() == 0
    }

    /// Reinterpret the buffer with a new shape (same number of elements).
    /// Dense tensors only.
    pub fn reshape(&self, shape: Vec<usize>) -> Tensor {
        assert!(self.coded().is_none(), "reshape of a coded string matrix");
        assert_eq!(
            shape.iter().product::<usize>(),
            self.numel(),
            "reshape {shape:?} incompatible with {:?}",
            self.shape
        );
        Tensor {
            shape,
            buf: self.buf.clone(),
        }
    }

    // ------------------------------------------------------------------
    // Typed slice accessors (panic on dtype mismatch — planner bug)
    // ------------------------------------------------------------------

    /// Borrow as `&[bool]`; panics if dtype differs.
    pub fn as_bool(&self) -> &[bool] {
        match &self.buf {
            Buffer::Bool(v) => v,
            _ => panic!("expected Bool tensor, got {:?}", self.dtype()),
        }
    }

    /// Borrow as `&[i32]`; panics if dtype differs.
    pub fn as_i32(&self) -> &[i32] {
        match &self.buf {
            Buffer::I32(v) => v,
            _ => panic!("expected I32 tensor, got {:?}", self.dtype()),
        }
    }

    /// Borrow as `&[i64]`; panics if dtype differs.
    pub fn as_i64(&self) -> &[i64] {
        match &self.buf {
            Buffer::I64(v) => v,
            _ => panic!("expected I64 tensor, got {:?}", self.dtype()),
        }
    }

    /// Borrow as `&[f32]`; panics if dtype differs.
    pub fn as_f32(&self) -> &[f32] {
        match &self.buf {
            Buffer::F32(v) => v,
            _ => panic!("expected F32 tensor, got {:?}", self.dtype()),
        }
    }

    /// Borrow as `&[f64]`; panics if dtype differs.
    pub fn as_f64(&self) -> &[f64] {
        match &self.buf {
            Buffer::F64(v) => v,
            _ => panic!("expected F64 tensor, got {:?}", self.dtype()),
        }
    }

    /// Borrow as `&[u8]`; panics if dtype differs or the matrix is
    /// dictionary-coded (read its rows with [`Tensor::str_row`]).
    pub fn as_u8(&self) -> &[u8] {
        match &self.buf {
            Buffer::U8(v) => v,
            Buffer::Coded(..) => panic!("a coded string matrix has no padded byte buffer"),
            _ => panic!("expected U8 tensor, got {:?}", self.dtype()),
        }
    }

    /// Byte row `i` of a rank-2 `U8` matrix, including padding.
    #[inline]
    pub fn str_row(&self, i: usize) -> &[u8] {
        match &self.buf {
            Buffer::U8(v) => {
                let m = self.row_width();
                &v[i * m..(i + 1) * m]
            }
            Buffer::Coded(codes, dict) => dict.row(codes[i]),
            _ => panic!("expected U8 tensor, got {:?}", self.dtype()),
        }
    }

    /// Byte row `i` with trailing zero padding removed.
    #[inline]
    pub fn str_row_trimmed(&self, i: usize) -> &[u8] {
        match &self.buf {
            Buffer::Coded(codes, dict) => dict.trimmed(codes[i]),
            _ => trim_padding(self.str_row(i)),
        }
    }

    /// Decode row `i` of a string matrix into `String`.
    pub fn str_at(&self, i: usize) -> String {
        String::from_utf8_lossy(self.str_row_trimmed(i)).into_owned()
    }

    // ------------------------------------------------------------------
    // Element access & conversion
    // ------------------------------------------------------------------

    /// Dynamically-typed element access (rank-1 numeric/bool tensors, or the
    /// full row of a string matrix).
    pub fn get(&self, i: usize) -> Scalar {
        assert!(i < self.nrows(), "row {i} out of bounds ({})", self.nrows());
        match &self.buf {
            Buffer::Bool(v) => Scalar::Bool(v[i]),
            Buffer::I32(v) => Scalar::I32(v[i]),
            Buffer::I64(v) => Scalar::I64(v[i]),
            Buffer::F32(v) => Scalar::F32(v[i]),
            Buffer::F64(v) => Scalar::F64(v[i]),
            Buffer::U8(_) | Buffer::Coded(..) => Scalar::Str(self.str_at(i)),
        }
    }

    /// Cast to another dtype (numeric/bool only; `U8` casts unsupported).
    pub fn cast(&self, to: DType) -> Result<Tensor> {
        let from = self.dtype();
        if from == to {
            return Ok(self.clone());
        }
        macro_rules! conv {
            ($src:expr, $t:ty, $ctor:path) => {{
                let v: Vec<$t> = $src;
                Ok(Tensor {
                    shape: self.shape.clone(),
                    buf: $ctor(Arc::new(v)),
                })
            }};
        }
        match (from, to) {
            (DType::U8, _) | (_, DType::U8) => Err(TensorError::BadCast { from, to }),
            (_, DType::Bool) => Err(TensorError::BadCast { from, to }),
            (DType::Bool, DType::I32) => {
                conv!(
                    self.as_bool().iter().map(|&b| b as i32).collect(),
                    i32,
                    Buffer::I32
                )
            }
            (DType::Bool, DType::I64) => {
                conv!(
                    self.as_bool().iter().map(|&b| b as i64).collect(),
                    i64,
                    Buffer::I64
                )
            }
            (DType::Bool, DType::F32) => {
                conv!(
                    self.as_bool().iter().map(|&b| b as i32 as f32).collect(),
                    f32,
                    Buffer::F32
                )
            }
            (DType::Bool, DType::F64) => {
                conv!(
                    self.as_bool().iter().map(|&b| b as i32 as f64).collect(),
                    f64,
                    Buffer::F64
                )
            }
            (DType::I32, DType::I64) => {
                conv!(
                    self.as_i32().iter().map(|&x| x as i64).collect(),
                    i64,
                    Buffer::I64
                )
            }
            (DType::I32, DType::F32) => {
                conv!(
                    self.as_i32().iter().map(|&x| x as f32).collect(),
                    f32,
                    Buffer::F32
                )
            }
            (DType::I32, DType::F64) => {
                conv!(
                    self.as_i32().iter().map(|&x| x as f64).collect(),
                    f64,
                    Buffer::F64
                )
            }
            (DType::I64, DType::I32) => {
                conv!(
                    self.as_i64().iter().map(|&x| x as i32).collect(),
                    i32,
                    Buffer::I32
                )
            }
            (DType::I64, DType::F32) => {
                conv!(
                    self.as_i64().iter().map(|&x| x as f32).collect(),
                    f32,
                    Buffer::F32
                )
            }
            (DType::I64, DType::F64) => {
                conv!(
                    self.as_i64().iter().map(|&x| x as f64).collect(),
                    f64,
                    Buffer::F64
                )
            }
            (DType::F32, DType::I32) => {
                conv!(
                    self.as_f32().iter().map(|&x| x as i32).collect(),
                    i32,
                    Buffer::I32
                )
            }
            (DType::F32, DType::I64) => {
                conv!(
                    self.as_f32().iter().map(|&x| x as i64).collect(),
                    i64,
                    Buffer::I64
                )
            }
            (DType::F32, DType::F64) => {
                conv!(
                    self.as_f32().iter().map(|&x| x as f64).collect(),
                    f64,
                    Buffer::F64
                )
            }
            (DType::F64, DType::I32) => {
                conv!(
                    self.as_f64().iter().map(|&x| x as i32).collect(),
                    i32,
                    Buffer::I32
                )
            }
            (DType::F64, DType::I64) => {
                conv!(
                    self.as_f64().iter().map(|&x| x as i64).collect(),
                    i64,
                    Buffer::I64
                )
            }
            (DType::F64, DType::F32) => {
                conv!(
                    self.as_f64().iter().map(|&x| x as f32).collect(),
                    f32,
                    Buffer::F32
                )
            }
            _ => unreachable!("cast {from:?}->{to:?}"),
        }
    }

    /// Contents as a `Vec<f64>` regardless of numeric dtype.
    pub fn to_f64_vec(&self) -> Vec<f64> {
        match &self.buf {
            Buffer::Bool(v) => v.iter().map(|&b| b as i64 as f64).collect(),
            Buffer::I32(v) => v.iter().map(|&x| x as f64).collect(),
            Buffer::I64(v) => v.iter().map(|&x| x as f64).collect(),
            Buffer::F32(v) => v.iter().map(|&x| x as f64).collect(),
            Buffer::F64(v) => v.as_ref().clone(),
            Buffer::U8(_) | Buffer::Coded(..) => panic!("string tensor has no f64 view"),
        }
    }

    /// Contents as a `Vec<i64>` (integer/bool dtypes only).
    pub fn to_i64_vec(&self) -> Vec<i64> {
        match &self.buf {
            Buffer::Bool(v) => v.iter().map(|&b| b as i64).collect(),
            Buffer::I32(v) => v.iter().map(|&x| x as i64).collect(),
            Buffer::I64(v) => v.as_ref().clone(),
            _ => panic!("tensor {:?} has no lossless i64 view", self.dtype()),
        }
    }
}

impl PartialEq for Tensor {
    /// Structural equality: same dtype, shape, and bitwise-equal elements
    /// (floats compared by `==`; NaN != NaN as usual). A coded string
    /// matrix equals the padded matrix it stands for.
    fn eq(&self, other: &Self) -> bool {
        if self.shape != other.shape || self.dtype() != other.dtype() {
            return false;
        }
        if self.coded().is_some() || other.coded().is_some() {
            return (0..self.nrows()).all(|i| self.str_row(i) == other.str_row(i));
        }
        match (&self.buf, &other.buf) {
            (Buffer::Bool(a), Buffer::Bool(b)) => a == b,
            (Buffer::I32(a), Buffer::I32(b)) => a == b,
            (Buffer::I64(a), Buffer::I64(b)) => a == b,
            (Buffer::F32(a), Buffer::F32(b)) => a == b,
            (Buffer::F64(a), Buffer::F64(b)) => a == b,
            (Buffer::U8(a), Buffer::U8(b)) => a == b,
            _ => false,
        }
    }
}

/// `row` without its trailing zero padding. Padding goes a word at a time:
/// read little-endian, a word's last bytes in memory are its leading zeros.
#[inline]
pub(crate) fn trim_padding(row: &[u8]) -> &[u8] {
    let mut end = row.len();
    while end >= 8 {
        let word = u64::from_le_bytes(row[end - 8..end].try_into().expect("8 bytes"));
        if word != 0 {
            return &row[..end - word.leading_zeros() as usize / 8];
        }
        end -= 8;
    }
    while end > 0 && row[end - 1] == 0 {
        end -= 1;
    }
    &row[..end]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trimmed_rows_drop_trailing_padding_only() {
        // Every length in every width around the word size, with a NUL
        // inside the text (only trailing padding goes).
        for width in 0..20usize {
            for len in 0..=width {
                let mut row = vec![b'x'; len];
                if len > 2 {
                    row[len / 2] = 0;
                }
                row.resize(width, 0);
                let t = Tensor::from_u8_matrix([row.clone(), row].concat(), 2, width);
                for r in 0..2 {
                    assert_eq!(t.str_row_trimmed(r).len(), len, "width {width}");
                    assert_eq!(t.str_row_trimmed(r), &t.str_row(r)[..len]);
                }
            }
        }
    }

    #[test]
    fn construct_and_meta() {
        let t = Tensor::from_i64(vec![1, 2, 3]);
        assert_eq!(t.shape(), &[3]);
        assert_eq!(t.dtype(), DType::I64);
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.numel(), 3);
        assert_eq!(t.nbytes(), 24);
        assert!(!t.is_empty());
        assert_eq!(t.get(1), Scalar::I64(2));
    }

    #[test]
    fn clone_is_shallow() {
        let t = Tensor::from_f64(vec![0.0; 1024]);
        let u = t.clone();
        assert_eq!(t.as_f64().as_ptr(), u.as_f64().as_ptr());
    }

    #[test]
    fn string_matrix_padding() {
        let t = Tensor::from_strings(&["ab", "", "xyz"], 0);
        assert_eq!(t.shape(), &[3, 3]);
        assert_eq!(t.str_at(0), "ab");
        assert_eq!(t.str_at(1), "");
        assert_eq!(t.str_at(2), "xyz");
        assert_eq!(t.str_row(0), b"ab\0");
        assert_eq!(t.str_row_trimmed(0), b"ab");
    }

    #[test]
    fn string_matrix_min_width() {
        let t = Tensor::from_strings(&["a"], 5);
        assert_eq!(t.shape(), &[1, 5]);
    }

    #[test]
    fn empty_string_matrix() {
        let t = Tensor::from_strings(&[], 0);
        assert_eq!(t.nrows(), 0);
        assert!(t.is_empty());
    }

    #[test]
    fn cast_roundtrips() {
        let t = Tensor::from_i32(vec![-1, 0, 5]);
        assert_eq!(t.cast(DType::I64).unwrap().as_i64(), &[-1, 0, 5]);
        assert_eq!(t.cast(DType::F64).unwrap().as_f64(), &[-1.0, 0.0, 5.0]);
        let f = Tensor::from_f64(vec![1.9, -2.9]);
        assert_eq!(f.cast(DType::I64).unwrap().as_i64(), &[1, -2]);
        let b = Tensor::from_bool(vec![true, false]);
        assert_eq!(b.cast(DType::I64).unwrap().as_i64(), &[1, 0]);
        assert!(Tensor::from_u8(vec![1]).cast(DType::I64).is_err());
    }

    #[test]
    fn full_and_zeros() {
        assert_eq!(Tensor::zeros(DType::F64, 3).as_f64(), &[0.0; 3]);
        assert_eq!(Tensor::full(&Scalar::I64(7), 2).as_i64(), &[7, 7]);
        let s = Tensor::full(&Scalar::Str("hi".into()), 2);
        assert_eq!(s.str_at(1), "hi");
    }

    #[test]
    fn reshape_shares_buffer() {
        let t = Tensor::from_f64(vec![1.0, 2.0, 3.0, 4.0]);
        let m = t.reshape(vec![2, 2]);
        assert_eq!(m.shape(), &[2, 2]);
        assert_eq!(m.as_f64().as_ptr(), t.as_f64().as_ptr());
    }

    #[test]
    fn equality() {
        assert_eq!(Tensor::from_i64(vec![1, 2]), Tensor::from_i64(vec![1, 2]));
        assert_ne!(Tensor::from_i64(vec![1, 2]), Tensor::from_i64(vec![2, 1]));
        assert_ne!(
            Tensor::from_i64(vec![1, 2]),
            Tensor::from_i32(vec![1, 2])
                .cast(DType::I64)
                .unwrap()
                .reshape(vec![2, 1])
        );
    }
}

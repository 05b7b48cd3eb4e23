//! Typed columns and the logical type system shared by every engine layer.
//!
//! Columns hold their buffers behind `Arc` so that handing a numeric column
//! to the tensor runtime is zero-copy (paper §2.1): the `DataFrame` and the
//! `Tensor` alias the same allocation.

use std::ops::Range;
use std::sync::Arc;

use tqp_tensor::Scalar;

/// SQL-level column types. `Decimal` values are carried as `f64` in this
/// reproduction (documented precision substitution; TPC-H validation uses
/// 1e-6 relative tolerance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogicalType {
    Bool,
    Int64,
    Float64,
    /// Day-aligned date carried as epoch nanoseconds (paper §2.1).
    Date,
    Str,
}

impl LogicalType {
    /// True for Int64/Float64.
    pub fn is_numeric(self) -> bool {
        matches!(self, LogicalType::Int64 | LogicalType::Float64)
    }
}

/// A typed column of values with shared storage.
#[derive(Debug, Clone)]
pub enum Column {
    Bool(Arc<Vec<bool>>),
    Int64(Arc<Vec<i64>>),
    Float64(Arc<Vec<f64>>),
    /// Epoch nanoseconds.
    Date(Arc<Vec<i64>>),
    Str(Arc<Vec<String>>),
}

impl Column {
    /// Column from owned bools.
    pub fn from_bool(v: Vec<bool>) -> Column {
        Column::Bool(Arc::new(v))
    }

    /// Column from owned i64s.
    pub fn from_i64(v: Vec<i64>) -> Column {
        Column::Int64(Arc::new(v))
    }

    /// Column from owned f64s.
    pub fn from_f64(v: Vec<f64>) -> Column {
        Column::Float64(Arc::new(v))
    }

    /// Date column from epoch-nanosecond values.
    pub fn from_date_ns(v: Vec<i64>) -> Column {
        Column::Date(Arc::new(v))
    }

    /// Column from owned strings.
    #[allow(clippy::should_implement_trait)] // constructor family naming, not parsing
    pub fn from_str(v: Vec<String>) -> Column {
        Column::Str(Arc::new(v))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Bool(v) => v.len(),
            Column::Int64(v) => v.len(),
            Column::Float64(v) => v.len(),
            Column::Date(v) => v.len(),
            Column::Str(v) => v.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's logical type.
    pub fn logical_type(&self) -> LogicalType {
        match self {
            Column::Bool(_) => LogicalType::Bool,
            Column::Int64(_) => LogicalType::Int64,
            Column::Float64(_) => LogicalType::Float64,
            Column::Date(_) => LogicalType::Date,
            Column::Str(_) => LogicalType::Str,
        }
    }

    /// Dynamically-typed element access.
    pub fn get(&self, i: usize) -> Scalar {
        match self {
            Column::Bool(v) => Scalar::Bool(v[i]),
            Column::Int64(v) => Scalar::I64(v[i]),
            Column::Float64(v) => Scalar::F64(v[i]),
            Column::Date(v) => Scalar::I64(v[i]),
            Column::Str(v) => Scalar::Str(v[i].clone()),
        }
    }

    /// Render element `i` for display/CSV (dates format as `YYYY-MM-DD`).
    pub fn display(&self, i: usize) -> String {
        match self {
            Column::Date(v) => crate::dates::format_ns(v[i]),
            Column::Float64(v) => format!("{:.4}", v[i]),
            other => other.get(i).to_string(),
        }
    }

    /// Gather rows by index (used by test fixtures and CSV round-trips).
    pub fn take(&self, idx: &[usize]) -> Column {
        match self {
            Column::Bool(v) => Column::from_bool(idx.iter().map(|&i| v[i]).collect()),
            Column::Int64(v) => Column::from_i64(idx.iter().map(|&i| v[i]).collect()),
            Column::Float64(v) => Column::from_f64(idx.iter().map(|&i| v[i]).collect()),
            Column::Date(v) => Column::from_date_ns(idx.iter().map(|&i| v[i]).collect()),
            Column::Str(v) => Column::from_str(idx.iter().map(|&i| v[i].clone()).collect()),
        }
    }

    /// Build a column of `ty` from dynamically-typed scalars (NULLs are not
    /// representable in a `DataFrame`; callers must substitute defaults).
    pub fn from_scalars(ty: LogicalType, values: &[Scalar]) -> Column {
        match ty {
            LogicalType::Bool => Column::from_bool(values.iter().map(|s| s.as_bool()).collect()),
            LogicalType::Int64 => Column::from_i64(values.iter().map(|s| s.as_i64()).collect()),
            LogicalType::Float64 => Column::from_f64(values.iter().map(|s| s.as_f64()).collect()),
            LogicalType::Date => Column::from_date_ns(values.iter().map(|s| s.as_i64()).collect()),
            LogicalType::Str => {
                Column::from_str(values.iter().map(|s| s.as_str().to_owned()).collect())
            }
        }
    }
}

/// Strings as one UTF-8 byte buffer and the offset of each row's end:
/// row `i` is `text[ends[i - 1]..ends[i]]`. What the CSV parser and the
/// store writer move instead of one `String` per cell.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StrBuf {
    text: String,
    ends: Vec<usize>,
}

impl StrBuf {
    /// An empty buffer.
    pub fn new() -> StrBuf {
        StrBuf::default()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when the buffer holds no rows.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Append one row.
    pub fn push(&mut self, s: &str) {
        self.text.push_str(s);
        self.ends.push(self.text.len());
    }

    /// Row `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start..self.ends[i]]
    }

    /// Rows in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Append rows `range` of `other`: one copy of their bytes.
    pub fn extend_from(&mut self, other: &StrBuf, range: Range<usize>) {
        if range.is_empty() {
            return;
        }
        let start = if range.start == 0 {
            0
        } else {
            other.ends[range.start - 1]
        };
        let base = self.text.len();
        self.text
            .push_str(&other.text[start..other.ends[range.end - 1]]);
        self.ends
            .extend(other.ends[range].iter().map(|&e| e - start + base));
    }

    /// Drop every row, keeping the allocations.
    pub fn clear(&mut self) {
        self.text.clear();
        self.ends.clear();
    }
}

/// One column's values in append-friendly form: the typed buffers the CSV
/// parser fills and the store writer holds between chunks.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnBuf {
    Bool(Vec<bool>),
    Int64(Vec<i64>),
    Float64(Vec<f64>),
    /// Epoch nanoseconds.
    Date(Vec<i64>),
    Str(StrBuf),
}

impl ColumnBuf {
    /// An empty buffer for values of `ty`.
    pub fn new(ty: LogicalType) -> ColumnBuf {
        match ty {
            LogicalType::Bool => ColumnBuf::Bool(Vec::new()),
            LogicalType::Int64 => ColumnBuf::Int64(Vec::new()),
            LogicalType::Float64 => ColumnBuf::Float64(Vec::new()),
            LogicalType::Date => ColumnBuf::Date(Vec::new()),
            LogicalType::Str => ColumnBuf::Str(StrBuf::new()),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnBuf::Bool(v) => v.len(),
            ColumnBuf::Int64(v) | ColumnBuf::Date(v) => v.len(),
            ColumnBuf::Float64(v) => v.len(),
            ColumnBuf::Str(v) => v.len(),
        }
    }

    /// True when the buffer holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The buffer's logical type.
    pub fn logical_type(&self) -> LogicalType {
        match self {
            ColumnBuf::Bool(_) => LogicalType::Bool,
            ColumnBuf::Int64(_) => LogicalType::Int64,
            ColumnBuf::Float64(_) => LogicalType::Float64,
            ColumnBuf::Date(_) => LogicalType::Date,
            ColumnBuf::Str(_) => LogicalType::Str,
        }
    }

    /// Append rows `range` of `col`, which must have this buffer's type.
    pub fn extend_from_column(&mut self, col: &Column, range: Range<usize>) {
        match (self, col) {
            (ColumnBuf::Bool(b), Column::Bool(v)) => b.extend_from_slice(&v[range]),
            (ColumnBuf::Int64(b), Column::Int64(v)) | (ColumnBuf::Date(b), Column::Date(v)) => {
                b.extend_from_slice(&v[range])
            }
            (ColumnBuf::Float64(b), Column::Float64(v)) => b.extend_from_slice(&v[range]),
            (ColumnBuf::Str(b), Column::Str(v)) => v[range].iter().for_each(|s| b.push(s)),
            (b, c) => panic!(
                "column of {:?} appended to a {:?} buffer",
                c.logical_type(),
                b.logical_type()
            ),
        }
    }

    /// Append rows `range` of `other`, which must have this buffer's type.
    pub fn extend_from(&mut self, other: &ColumnBuf, range: Range<usize>) {
        match (self, other) {
            (ColumnBuf::Bool(b), ColumnBuf::Bool(v)) => b.extend_from_slice(&v[range]),
            (ColumnBuf::Int64(b), ColumnBuf::Int64(v))
            | (ColumnBuf::Date(b), ColumnBuf::Date(v)) => b.extend_from_slice(&v[range]),
            (ColumnBuf::Float64(b), ColumnBuf::Float64(v)) => b.extend_from_slice(&v[range]),
            (ColumnBuf::Str(b), ColumnBuf::Str(v)) => b.extend_from(v, range),
            (b, o) => panic!(
                "{:?} rows appended to a {:?} buffer",
                o.logical_type(),
                b.logical_type()
            ),
        }
    }

    /// Drop every row, keeping the allocations.
    pub fn clear(&mut self) {
        match self {
            ColumnBuf::Bool(v) => v.clear(),
            ColumnBuf::Int64(v) | ColumnBuf::Date(v) => v.clear(),
            ColumnBuf::Float64(v) => v.clear(),
            ColumnBuf::Str(v) => v.clear(),
        }
    }

    /// The buffered rows as a [`Column`].
    pub fn into_column(self) -> Column {
        match self {
            ColumnBuf::Bool(v) => Column::from_bool(v),
            ColumnBuf::Int64(v) => Column::from_i64(v),
            ColumnBuf::Float64(v) => Column::from_f64(v),
            ColumnBuf::Date(v) => Column::from_date_ns(v),
            ColumnBuf::Str(v) => Column::from_str(v.iter().map(str::to_owned).collect()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_access() {
        let c = Column::from_i64(vec![1, 2, 3]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.logical_type(), LogicalType::Int64);
        assert_eq!(c.get(1), Scalar::I64(2));
        assert!(!c.is_empty());
    }

    #[test]
    fn date_display() {
        let ns = crate::dates::parse_to_ns("1994-02-01").unwrap();
        let c = Column::from_date_ns(vec![ns]);
        assert_eq!(c.display(0), "1994-02-01");
        assert_eq!(c.logical_type(), LogicalType::Date);
    }

    #[test]
    fn take_reorders() {
        let c = Column::from_str(vec!["a".into(), "b".into(), "c".into()]);
        let t = c.take(&[2, 0]);
        assert_eq!(t.get(0), Scalar::Str("c".into()));
        assert_eq!(t.get(1), Scalar::Str("a".into()));
    }

    #[test]
    fn from_scalars_roundtrip() {
        let vals = vec![Scalar::F64(1.5), Scalar::F64(2.5)];
        let c = Column::from_scalars(LogicalType::Float64, &vals);
        assert_eq!(c.get(0), Scalar::F64(1.5));
    }

    #[test]
    fn str_buf_rows_and_ranges() {
        let mut a = StrBuf::new();
        for s in ["", "ab", "naïve", "", "x"] {
            a.push(s);
        }
        assert_eq!(a.iter().collect::<Vec<_>>(), ["", "ab", "naïve", "", "x"]);
        let mut b = StrBuf::new();
        b.push("head");
        b.extend_from(&a, 1..4);
        b.extend_from(&a, 0..0);
        b.extend_from(&a, 4..5);
        assert_eq!(
            b.iter().collect::<Vec<_>>(),
            ["head", "ab", "naïve", "", "x"]
        );
        let mut col = ColumnBuf::new(LogicalType::Str);
        col.extend_from(&ColumnBuf::Str(b), 2..5);
        assert_eq!(col.len(), 3);
        assert_eq!(col.into_column().get(0), Scalar::Str("naïve".into()));
    }

    #[test]
    fn clone_is_shallow() {
        let c = Column::from_i64(vec![0; 1000]);
        let d = c.clone();
        if let (Column::Int64(a), Column::Int64(b)) = (&c, &d) {
            assert!(Arc::ptr_eq(a, b));
        } else {
            panic!("wrong variant");
        }
    }
}

//! Column batches: the unit of data flowing between tensor operators.
//!
//! A batch is one tensor per column (paper §2.1's representation) plus an
//! optional validity mask per column — NULLs exist only downstream of
//! left-outer joins in the TPC-H workload, so most columns carry `None`.

use std::ops::Range;

use tqp_tensor::index::{concat, concat_ranges, slice_rows, take};
use tqp_tensor::Tensor;

/// A set of equal-length column tensors with optional validity.
#[derive(Debug, Clone)]
pub struct Batch {
    pub columns: Vec<Tensor>,
    /// `validity[i]` is `None` (all rows valid) or a `Bool` tensor.
    pub validity: Vec<Option<Tensor>>,
    nrows: usize,
}

impl Batch {
    /// Build from all-valid columns.
    pub fn new(columns: Vec<Tensor>) -> Batch {
        let nrows = columns.first().map_or(0, |c| c.nrows());
        for c in &columns {
            assert_eq!(c.nrows(), nrows, "batch columns must align");
        }
        let validity = vec![None; columns.len()];
        Batch {
            columns,
            validity,
            nrows,
        }
    }

    /// Build with explicit validity masks. Enforces the same column-length
    /// alignment as [`Batch::new`], plus mask/column alignment — a
    /// misaligned validity mask would silently mis-NULL rows downstream.
    pub fn with_validity(columns: Vec<Tensor>, validity: Vec<Option<Tensor>>) -> Batch {
        assert_eq!(
            columns.len(),
            validity.len(),
            "one validity slot per column"
        );
        let nrows = columns.first().map_or(0, |c| c.nrows());
        for c in &columns {
            assert_eq!(c.nrows(), nrows, "batch columns must align");
        }
        for v in validity.iter().flatten() {
            assert_eq!(v.nrows(), nrows, "validity masks must align with columns");
        }
        Batch {
            columns,
            validity,
            nrows,
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.columns.len()
    }

    /// Total payload bytes (drives the GPU cost model).
    pub fn nbytes(&self) -> usize {
        self.columns.iter().map(|c| c.nbytes()).sum()
    }

    /// Gather rows by an `I64` index tensor (columns and validity move
    /// together) — the compaction step behind filters and joins.
    pub fn take(&self, idx: &Tensor) -> Batch {
        let columns = self.columns.iter().map(|c| take(c, idx)).collect();
        let validity = self
            .validity
            .iter()
            .map(|v| v.as_ref().map(|m| take(m, idx)))
            .collect();
        Batch {
            columns,
            validity,
            nrows: idx.nrows(),
        }
    }

    /// Horizontal concatenation (join output assembly).
    pub fn hcat(mut self, right: Batch) -> Batch {
        assert_eq!(self.nrows, right.nrows, "hcat row mismatch");
        self.columns.extend(right.columns);
        self.validity.extend(right.validity);
        self
    }

    /// A sub-batch of the given columns.
    pub fn select(&self, cols: &[usize]) -> Batch {
        Batch {
            columns: cols.iter().map(|&c| self.columns[c].clone()).collect(),
            validity: cols.iter().map(|&c| self.validity[c].clone()).collect(),
            nrows: self.nrows,
        }
    }

    /// Contiguous row range `[lo, hi)` — the morsel split of the parallel
    /// executor.
    pub fn slice_rows(&self, lo: usize, hi: usize) -> Batch {
        assert!(lo <= hi && hi <= self.nrows, "slice out of range");
        Batch {
            columns: self.columns.iter().map(|c| slice_rows(c, lo, hi)).collect(),
            validity: self
                .validity
                .iter()
                .map(|v| v.as_ref().map(|m| slice_rows(m, lo, hi)))
                .collect(),
            nrows: hi - lo,
        }
    }

    /// Vertical concatenation of two batches (validity-aware).
    pub fn vcat(a: Batch, b: Batch) -> Batch {
        Batch::vcat_all(vec![a, b])
    }

    /// Vertical concatenation of any number of batches, in order
    /// (validity-aware), each column copied once. Zero-row parts
    /// contribute nothing; when every part is empty the first is returned.
    pub fn vcat_all(parts: Vec<Batch>) -> Batch {
        let whole: Vec<(&Batch, Range<usize>)> = parts.iter().map(|p| (p, 0..p.nrows())).collect();
        Batch::vcat_ranges(&whole)
    }

    /// [`Batch::vcat_all`] of a row range of each part, without
    /// materializing the slices. One range alone is that part's
    /// [`Batch::slice_rows`], or the part itself when it covers it.
    pub fn vcat_ranges(parts: &[(&Batch, Range<usize>)]) -> Batch {
        assert!(!parts.is_empty(), "vcat of zero batches");
        let ncols = parts[0].0.ncols();
        assert!(
            parts.iter().all(|(p, _)| p.ncols() == ncols),
            "vcat arity mismatch"
        );
        let filled: Vec<&(&Batch, Range<usize>)> =
            parts.iter().filter(|(_, r)| !r.is_empty()).collect();
        match filled[..] {
            [] => return parts[0].0.slice_rows(parts[0].1.start, parts[0].1.start),
            [(p, r)] if r.len() == p.nrows() => return (*p).clone(),
            [(p, r)] => return p.slice_rows(r.start, r.end),
            _ => {}
        }
        let columns: Vec<Tensor> = (0..ncols)
            .map(|c| {
                let cols: Vec<(&Tensor, Range<usize>)> = filled
                    .iter()
                    .map(|(p, r)| (&p.columns[c], r.clone()))
                    .collect();
                concat_ranges(&cols)
            })
            .collect();
        let validity: Vec<Option<Tensor>> = (0..ncols)
            .map(|c| {
                if filled.iter().all(|(p, _)| p.validity[c].is_none()) {
                    return None;
                }
                let masks: Vec<Tensor> = filled
                    .iter()
                    .map(|(p, r)| match &p.validity[c] {
                        Some(m) => slice_rows(m, r.start, r.end),
                        None => Tensor::from_bool(vec![true; r.len()]),
                    })
                    .collect();
                Some(concat(&masks.iter().collect::<Vec<_>>()))
            })
            .collect();
        Batch::with_validity(columns, validity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_meta() {
        let b = Batch::new(vec![
            Tensor::from_i64(vec![1, 2, 3]),
            Tensor::from_f64(vec![0.5, 1.5, 2.5]),
        ]);
        assert_eq!(b.nrows(), 3);
        assert_eq!(b.ncols(), 2);
        assert_eq!(b.nbytes(), 48);
    }

    #[test]
    fn take_moves_validity() {
        let b = Batch::with_validity(
            vec![Tensor::from_i64(vec![10, 20, 30])],
            vec![Some(Tensor::from_bool(vec![true, false, true]))],
        );
        let t = b.take(&Tensor::from_i64(vec![2, 1]));
        assert_eq!(t.columns[0].as_i64(), &[30, 20]);
        assert_eq!(t.validity[0].as_ref().unwrap().as_bool(), &[true, false]);
    }

    #[test]
    fn hcat_and_select() {
        let a = Batch::new(vec![Tensor::from_i64(vec![1, 2])]);
        let b = Batch::new(vec![Tensor::from_f64(vec![5.0, 6.0])]);
        let c = a.hcat(b);
        assert_eq!(c.ncols(), 2);
        let s = c.select(&[1]);
        assert_eq!(s.columns[0].as_f64(), &[5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "align")]
    fn rejects_misaligned() {
        Batch::new(vec![
            Tensor::from_i64(vec![1]),
            Tensor::from_i64(vec![1, 2]),
        ]);
    }
}

//! Per-chunk zone maps and the conservative "may this chunk match?"
//! decision rules the scan pruning pre-pass evaluates.
//!
//! One type serves both kinds of table: `tqp-store` records a zone per
//! column per chunk in its footer, and an in-memory
//! [`crate::ingest::TensorTable`] builds one per column per
//! [`ZONE_BLOCK_ROWS`]-row block ([`ZoneMap::blocks`]), under the same
//! min/max rules as [`crate::stats::ColumnStatsBuilder`].

use tqp_tensor::ops::CmpOp;
use tqp_tensor::{DType, Scalar, Tensor};

use crate::stats::scalar_cmp;

/// Rows per zone block of an in-memory table. A constant of the format,
/// like the store's chunk size is of a file: an equality on a sorted key
/// reads one block.
pub const ZONE_BLOCK_ROWS: usize = 1024;

/// Min/max + NULL count + distinct estimate for one column of one chunk.
///
/// `min`/`max` cover **non-NULL** values only; both are `None` when the
/// chunk column is entirely NULL (or the chunk is empty).
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneMap {
    pub min: Option<Scalar>,
    pub max: Option<Scalar>,
    pub null_count: u64,
    /// Estimated distinct non-NULL values in the chunk (0 for the blocks
    /// of an in-memory table, which pruning never asks).
    pub distinct: u32,
}

/// Ordering used for prune decisions. Unlike [`scalar_cmp`] (`total_cmp`,
/// which puts `-0.0 < 0.0`), floats compare with **IEEE semantics** here —
/// the same ordering the filter kernels apply — so zone boundaries at
/// `±0.0` never prune a chunk the filter would keep. NaN operands are
/// screened out by the caller before this runs.
fn prune_cmp(a: &Scalar, b: &Scalar) -> std::cmp::Ordering {
    match (a, b) {
        (Scalar::F64(x), Scalar::F64(y)) => {
            x.partial_cmp(y).expect("NaN screened before prune_cmp")
        }
        _ => scalar_cmp(a, b),
    }
}

/// Comparable scalars: same variant (dates ride as `I64`). Pruning must
/// never guess across types — a mismatch means "cannot prune".
fn comparable(a: &Scalar, b: &Scalar) -> bool {
    matches!(
        (a, b),
        (Scalar::Bool(_), Scalar::Bool(_))
            | (Scalar::I64(_), Scalar::I64(_))
            | (Scalar::F64(_), Scalar::F64(_))
            | (Scalar::Str(_), Scalar::Str(_))
    )
}

impl ZoneMap {
    /// Could any row of this chunk satisfy `column <op> value`?
    ///
    /// Returns `false` only when the conjunct is **provably false for
    /// every row**: all non-NULL values fall outside the satisfying
    /// range, and NULL rows never satisfy a comparison (three-valued
    /// logic: `NULL <op> v` is NULL, which a filter drops). Any
    /// uncertainty — type mismatch, NaN bounds, missing min/max with
    /// valid rows — answers `true` (decode the chunk; the filter decides).
    pub fn may_match_compare(&self, op: CmpOp, value: &Scalar) -> bool {
        let (Some(min), Some(max)) = (&self.min, &self.max) else {
            // No non-NULL values: every row is NULL, comparisons all fail.
            return false;
        };
        if value.is_null() {
            // NULL constant: comparison is NULL for every row.
            return false;
        }
        if !comparable(min, value) || !comparable(max, value) {
            return true;
        }
        // NaN bounds poison range reasoning (total_cmp sorts NaN above
        // +inf, which does not model `>` semantics); stay conservative.
        if let (Scalar::F64(lo), Scalar::F64(hi)) = (min, max) {
            if lo.is_nan() || hi.is_nan() {
                return true;
            }
            if let Scalar::F64(v) = value {
                if v.is_nan() {
                    // x <op> NaN is false for every ordered comparison and
                    // for equality; Ne is true wherever x is valid.
                    return matches!(op, CmpOp::Ne);
                }
            }
        }
        match op {
            CmpOp::Eq => prune_cmp(value, min).is_ge() && prune_cmp(value, max).is_le(),
            CmpOp::Ne => {
                // Only prunable when every valid row equals `value`.
                !(prune_cmp(min, max).is_eq() && prune_cmp(min, value).is_eq())
            }
            CmpOp::Lt => prune_cmp(min, value).is_lt(),
            CmpOp::Le => prune_cmp(min, value).is_le(),
            CmpOp::Gt => prune_cmp(max, value).is_gt(),
            CmpOp::Ge => prune_cmp(max, value).is_ge(),
        }
    }

    /// Could any row satisfy `IS NULL` (`negated = false`) or
    /// `IS NOT NULL` (`negated = true`)?
    pub fn may_match_is_null(&self, negated: bool, rows: u64) -> bool {
        if negated {
            self.null_count < rows
        } else {
            self.null_count > 0
        }
    }

    /// The zone of every [`ZONE_BLOCK_ROWS`]-row block of an all-valid
    /// column tensor, by the store writer's rules: integers (dates
    /// included) and booleans by value, floats by `total_cmp`, strings by
    /// their bytes without trailing NULs. `None` for a tensor no zone
    /// describes (a numeric matrix, an `I32`/`F32` column, a string that is
    /// not UTF-8): its conjuncts never prune.
    pub fn blocks(t: &Tensor) -> Option<Vec<ZoneMap>> {
        let n = t.nrows();
        let blocks = (0..n)
            .step_by(ZONE_BLOCK_ROWS)
            .map(|lo| lo..(lo + ZONE_BLOCK_ROWS).min(n));
        let bounds: Vec<(Scalar, Scalar)> = match (t.dtype(), t.shape().len()) {
            (DType::I64, 1) => {
                let v = t.as_i64();
                blocks
                    .map(|r| {
                        let b = &v[r];
                        let min = *b.iter().min().expect("blocks are non-empty");
                        let max = *b.iter().max().expect("blocks are non-empty");
                        (Scalar::I64(min), Scalar::I64(max))
                    })
                    .collect()
            }
            (DType::F64, 1) => {
                let v = t.as_f64();
                blocks
                    .map(|r| {
                        let b = &v[r];
                        let min = b.iter().copied().min_by(f64::total_cmp);
                        let max = b.iter().copied().max_by(f64::total_cmp);
                        let (min, max) = (min.expect("non-empty"), max.expect("non-empty"));
                        (Scalar::F64(min), Scalar::F64(max))
                    })
                    .collect()
            }
            (DType::Bool, 1) => {
                let v = t.as_bool();
                blocks
                    .map(|r| {
                        let b = &v[r];
                        let min = b.iter().all(|&x| x);
                        let max = b.iter().any(|&x| x);
                        (Scalar::Bool(min), Scalar::Bool(max))
                    })
                    .collect()
            }
            (DType::U8, 2) => {
                let mut out = Vec::with_capacity(n.div_ceil(ZONE_BLOCK_ROWS));
                let text = |b: &[u8]| Some(Scalar::Str(std::str::from_utf8(b).ok()?.to_owned()));
                for r in blocks {
                    let mut rows = r.map(|i| t.str_row_trimmed(i));
                    let first = rows.next().expect("blocks are non-empty");
                    let (min, max) =
                        rows.fold((first, first), |(lo, hi), s| (lo.min(s), hi.max(s)));
                    out.push((text(min)?, text(max)?));
                }
                out
            }
            _ => return None,
        };
        Some(
            bounds
                .into_iter()
                .map(|(min, max)| ZoneMap {
                    min: Some(min),
                    max: Some(max),
                    null_count: 0,
                    distinct: 0,
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zone_i64(min: i64, max: i64, nulls: u64) -> ZoneMap {
        ZoneMap {
            min: Some(Scalar::I64(min)),
            max: Some(Scalar::I64(max)),
            null_count: nulls,
            distinct: 0,
        }
    }

    #[test]
    fn range_pruning() {
        let z = zone_i64(10, 20, 0);
        assert!(!z.may_match_compare(CmpOp::Eq, &Scalar::I64(9)));
        assert!(z.may_match_compare(CmpOp::Eq, &Scalar::I64(10)));
        assert!(!z.may_match_compare(CmpOp::Lt, &Scalar::I64(10)));
        assert!(z.may_match_compare(CmpOp::Le, &Scalar::I64(10)));
        assert!(!z.may_match_compare(CmpOp::Gt, &Scalar::I64(20)));
        assert!(z.may_match_compare(CmpOp::Ge, &Scalar::I64(20)));
        assert!(z.may_match_compare(CmpOp::Ne, &Scalar::I64(15)));
        assert!(!zone_i64(5, 5, 0).may_match_compare(CmpOp::Ne, &Scalar::I64(5)));
    }

    #[test]
    fn all_null_chunk_prunes_every_comparison() {
        let z = ZoneMap {
            min: None,
            max: None,
            null_count: 100,
            distinct: 0,
        };
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Ge] {
            assert!(!z.may_match_compare(op, &Scalar::I64(0)));
        }
        assert!(z.may_match_is_null(false, 100));
        assert!(!z.may_match_is_null(true, 100));
    }

    #[test]
    fn type_mismatch_never_prunes() {
        let z = zone_i64(0, 1, 0);
        assert!(z.may_match_compare(CmpOp::Eq, &Scalar::F64(99.0)));
        assert!(z.may_match_compare(CmpOp::Eq, &Scalar::Str("x".into())));
    }

    #[test]
    fn string_ranges() {
        let z = ZoneMap {
            min: Some(Scalar::Str("BRAND#11".into())),
            max: Some(Scalar::Str("BRAND#35".into())),
            null_count: 0,
            distinct: 10,
        };
        assert!(!z.may_match_compare(CmpOp::Eq, &Scalar::Str("BRAND#55".into())));
        assert!(z.may_match_compare(CmpOp::Eq, &Scalar::Str("BRAND#22".into())));
        assert!(!z.may_match_compare(CmpOp::Gt, &Scalar::Str("BRAND#35".into())));
    }

    #[test]
    fn nan_stays_conservative() {
        let z = ZoneMap {
            min: Some(Scalar::F64(f64::NAN)),
            max: Some(Scalar::F64(f64::NAN)),
            null_count: 0,
            distinct: 1,
        };
        assert!(z.may_match_compare(CmpOp::Gt, &Scalar::F64(0.0)));
        let z = ZoneMap {
            min: Some(Scalar::F64(0.0)),
            max: Some(Scalar::F64(1.0)),
            null_count: 0,
            distinct: 2,
        };
        assert!(!z.may_match_compare(CmpOp::Eq, &Scalar::F64(f64::NAN)));
        assert!(z.may_match_compare(CmpOp::Ne, &Scalar::F64(f64::NAN)));
    }

    #[test]
    fn signed_zero_boundaries_use_ieee_equality() {
        // A chunk of 0.0 values must not be pruned for `x = -0.0` (IEEE
        // equality holds) even though total_cmp orders -0.0 below 0.0.
        let z = ZoneMap {
            min: Some(Scalar::F64(0.0)),
            max: Some(Scalar::F64(0.0)),
            null_count: 0,
            distinct: 1,
        };
        assert!(z.may_match_compare(CmpOp::Eq, &Scalar::F64(-0.0)));
        assert!(z.may_match_compare(CmpOp::Ge, &Scalar::F64(-0.0)));
        assert!(!z.may_match_compare(CmpOp::Gt, &Scalar::F64(-0.0)));
    }

    #[test]
    fn blocks_cover_the_rows_in_order() {
        let t = Tensor::from_i64((0..2500).rev().collect());
        let z = ZoneMap::blocks(&t).expect("i64 zones");
        assert_eq!(z.len(), 3);
        assert_eq!(z[0].min, Some(Scalar::I64(1476)));
        assert_eq!(z[0].max, Some(Scalar::I64(2499)));
        assert_eq!(z[2].min, Some(Scalar::I64(0)));
        assert_eq!(z[2].max, Some(Scalar::I64(451)));
        let f = Tensor::from_f64(vec![0.0, -0.0, f64::NAN]);
        let z = ZoneMap::blocks(&f).expect("f64 zones");
        assert_eq!(format!("{:?}", z[0].min), "Some(F64(-0.0))");
        assert!(matches!(z[0].max, Some(Scalar::F64(x)) if x.is_nan()));
        let s = Tensor::from_strings(&["b\0", "a", "c"], 1);
        let z = ZoneMap::blocks(&s).expect("string zones");
        assert_eq!(z[0].min, Some(Scalar::Str("a".into())));
        assert_eq!(z[0].max, Some(Scalar::Str("c".into())));
        assert!(ZoneMap::blocks(&Tensor::from_f64_matrix(vec![1.0; 4], 2, 2)).is_none());
        assert_eq!(ZoneMap::blocks(&Tensor::from_i64(vec![])), Some(vec![]));
    }

    #[test]
    fn null_tests() {
        let z = zone_i64(0, 9, 3);
        assert!(z.may_match_is_null(false, 10));
        assert!(z.may_match_is_null(true, 10));
        let z = zone_i64(0, 9, 0);
        assert!(!z.may_match_is_null(false, 10));
        assert!(z.may_match_is_null(true, 10));
    }
}

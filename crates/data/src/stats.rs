//! Table/column statistics shared by the storage and optimizer layers.
//!
//! `tqp-store` persists a [`TableStats`] in every table footer (derived
//! from the per-chunk zone maps it writes anyway); `tqp-ir`'s catalog
//! carries the same type so the join orderer can replace its fixed
//! selectivity constants with real numbers. The [`StatsBuilder`] is the
//! single producer both paths use: statistics computed chunk-at-a-time
//! while streaming into the store are **identical** to statistics computed
//! in one pass over a whole in-memory column — min/max/null-count are
//! order-insensitive, and the distinct estimator is a KMV (k-minimum-
//! values) sketch whose state is a set of hashes, also order-insensitive.
//! That invariant is what keeps plans (and therefore float summation
//! orders) identical between a frame-backed and a store-backed session,
//! which the differential suites rely on for bitwise result parity.

use std::collections::BTreeSet;

use tqp_tensor::Scalar;

use crate::column::Column;

/// Number of minimum hash values the distinct sketch retains. 256 keeps
/// the sketch under 2 KiB per column with ~6% relative error — plenty for
/// join-order selectivity math.
const KMV_K: usize = 256;

/// Statistics for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Minimum over non-NULL values (`None` when every value is NULL or
    /// the table is empty).
    pub min: Option<Scalar>,
    /// Maximum over non-NULL values.
    pub max: Option<Scalar>,
    /// Number of NULL rows.
    pub null_count: usize,
    /// Estimated distinct non-NULL values (exact below `KMV_K`).
    pub distinct: usize,
}

/// Statistics for a whole table: row count plus one [`ColumnStats`] per
/// schema column.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    pub rows: usize,
    pub columns: Vec<ColumnStats>,
}

/// FNV-1a 64-bit — tiny, deterministic, and stable across platforms (the
/// sketch hash must not vary between the writer and any later reader).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Slots of the sketch's cache of recently observed hashes.
const SEEN_SLOTS: usize = 64;

/// KMV (k-minimum-values) distinct-count sketch: keep the `k` smallest
/// 64-bit hashes seen; with `n ≥ k` distinct values the k-th smallest
/// hash `m` estimates `n ≈ (k − 1) · 2⁶⁴ / m`. State is a set, so update
/// order (and chunking) never changes the result.
#[derive(Debug, Clone)]
pub struct DistinctSketch {
    mins: BTreeSet<u64>,
    /// Hashes observed lately, slot `h % SEEN_SLOTS`. Observing a hash a
    /// second time never changes the sketch, so a hit skips the set — the
    /// common case on a low-cardinality column. Slot `i` starts at `i ^ 1`,
    /// a value no hash of that slot can equal.
    seen: [u64; SEEN_SLOTS],
    /// The largest of `mins` once it holds `KMV_K` hashes: no larger hash
    /// can enter.
    ceiling: u64,
}

impl Default for DistinctSketch {
    fn default() -> DistinctSketch {
        DistinctSketch {
            mins: BTreeSet::new(),
            seen: std::array::from_fn(|i| i as u64 ^ 1),
            ceiling: u64::MAX,
        }
    }
}

impl DistinctSketch {
    /// Empty sketch.
    pub fn new() -> DistinctSketch {
        DistinctSketch::default()
    }

    /// Observe one value's hash.
    pub fn insert_hash(&mut self, h: u64) {
        let slot = &mut self.seen[h as usize % SEEN_SLOTS];
        if *slot == h {
            return;
        }
        *slot = h;
        if self.mins.len() == KMV_K && h >= self.ceiling {
            return;
        }
        if self.mins.insert(h) && self.mins.len() > KMV_K {
            self.mins.pop_last();
        }
        if self.mins.len() == KMV_K {
            self.ceiling = *self.mins.last().expect("full");
        }
    }

    /// Fold another sketch in (chunk merge).
    pub fn merge(&mut self, other: &DistinctSketch) {
        for &h in &other.mins {
            self.insert_hash(h);
        }
    }

    /// Estimated distinct count.
    pub fn estimate(&self) -> usize {
        if self.mins.len() < KMV_K {
            return self.mins.len();
        }
        let kth = *self.mins.iter().next_back().expect("non-empty");
        if kth == 0 {
            return self.mins.len();
        }
        (((KMV_K - 1) as f64) * (u64::MAX as f64) / (kth as f64)) as usize
    }
}

/// Total order over non-NULL scalars of one logical type, used for
/// min/max accumulation (floats by `total_cmp`; mixing types is a caller
/// bug and panics).
pub fn scalar_cmp(a: &Scalar, b: &Scalar) -> std::cmp::Ordering {
    match (a, b) {
        (Scalar::Bool(x), Scalar::Bool(y)) => x.cmp(y),
        (Scalar::I32(x), Scalar::I32(y)) => x.cmp(y),
        (Scalar::I64(x), Scalar::I64(y)) => x.cmp(y),
        (Scalar::F32(x), Scalar::F32(y)) => x.total_cmp(y),
        (Scalar::F64(x), Scalar::F64(y)) => x.total_cmp(y),
        (Scalar::Str(x), Scalar::Str(y)) => x.as_bytes().cmp(y.as_bytes()),
        _ => panic!("scalar_cmp across types: {a:?} vs {b:?}"),
    }
}

/// Incremental statistics for one column.
#[derive(Debug, Clone, Default)]
pub struct ColumnStatsBuilder {
    min: Option<Scalar>,
    max: Option<Scalar>,
    null_count: usize,
    sketch: DistinctSketch,
}

impl ColumnStatsBuilder {
    /// Empty builder.
    pub fn new() -> ColumnStatsBuilder {
        ColumnStatsBuilder::default()
    }

    /// Observe one value (`Scalar::Null` counts a NULL).
    pub fn update(&mut self, v: &Scalar) {
        if v.is_null() {
            self.null_count += 1;
            return;
        }
        if let Scalar::Str(s) = v {
            // Strings route through the trimming path — see update_str.
            self.update_str(s);
            return;
        }
        let h = match v {
            Scalar::Bool(b) => fnv1a(&[*b as u8]),
            Scalar::I64(x) => fnv1a(&x.to_le_bytes()),
            Scalar::I32(x) => fnv1a(&(*x as i64).to_le_bytes()),
            Scalar::F64(x) => fnv1a(&x.to_bits().to_le_bytes()),
            Scalar::F32(x) => fnv1a(&(*x as f64).to_bits().to_le_bytes()),
            Scalar::Str(_) | Scalar::Null => unreachable!(),
        };
        self.sketch.insert_hash(h);
        match &self.min {
            Some(m) if scalar_cmp(v, m).is_ge() => {}
            _ => self.min = Some(v.clone()),
        }
        match &self.max {
            Some(m) if scalar_cmp(v, m).is_le() => {}
            _ => self.max = Some(v.clone()),
        }
    }

    /// Observe every value of a column slice (no NULLs — `Column` cannot
    /// represent them).
    pub fn update_column(&mut self, col: &Column) {
        match col {
            Column::Bool(v) => {
                // Bounded domain: skip per-row Scalar boxing.
                let t = v.iter().filter(|&&b| b).count();
                let f = v.len() - t;
                if t > 0 {
                    self.update(&Scalar::Bool(true));
                }
                if f > 0 {
                    self.update(&Scalar::Bool(false));
                }
            }
            Column::Int64(v) | Column::Date(v) => {
                for &x in v.iter() {
                    self.update_i64(x);
                }
            }
            Column::Float64(v) => {
                for &x in v.iter() {
                    self.update_f64(x);
                }
            }
            Column::Str(v) => {
                for s in v.iter() {
                    self.update_str(s);
                }
            }
        }
    }

    /// Fast-path i64 observation (dates included).
    pub fn update_i64(&mut self, x: i64) {
        self.sketch.insert_hash(fnv1a(&x.to_le_bytes()));
        match self.min {
            Some(Scalar::I64(m)) if m <= x => {}
            _ => self.min = Some(Scalar::I64(x)),
        }
        match self.max {
            Some(Scalar::I64(m)) if m >= x => {}
            _ => self.max = Some(Scalar::I64(x)),
        }
    }

    /// Fast-path f64 observation.
    pub fn update_f64(&mut self, x: f64) {
        self.sketch.insert_hash(fnv1a(&x.to_bits().to_le_bytes()));
        match self.min {
            Some(Scalar::F64(m)) if m.total_cmp(&x).is_le() => {}
            _ => self.min = Some(Scalar::F64(x)),
        }
        match self.max {
            Some(Scalar::F64(m)) if m.total_cmp(&x).is_ge() => {}
            _ => self.max = Some(Scalar::F64(x)),
        }
    }

    /// Fast-path string observation.
    ///
    /// Trailing NUL bytes are trimmed first: the engine's padded-byte
    /// tensor representation cannot distinguish `"x\0"` from `"x"`
    /// (comparison kernels operate on NUL-trimmed rows), so min/max
    /// bounds and distinct hashes must use the trimmed form too —
    /// otherwise a zone map could claim `min > "x"` for a chunk whose
    /// rows all compare equal to `"x"` and pruning would drop matches.
    pub fn update_str(&mut self, s: &str) {
        let s = s.trim_end_matches('\0');
        self.sketch.insert_hash(fnv1a(s.as_bytes()));
        let need_min = match &self.min {
            Some(Scalar::Str(m)) => s.as_bytes() < m.as_bytes(),
            _ => true,
        };
        if need_min {
            self.min = Some(Scalar::Str(s.to_owned()));
        }
        let need_max = match &self.max {
            Some(Scalar::Str(m)) => s.as_bytes() > m.as_bytes(),
            _ => true,
        };
        if need_max {
            self.max = Some(Scalar::Str(s.to_owned()));
        }
    }

    /// Record `n` NULL rows.
    pub fn add_nulls(&mut self, n: usize) {
        self.null_count += n;
    }

    /// Fold a chunk builder into this one.
    pub fn merge(&mut self, other: &ColumnStatsBuilder) {
        self.null_count += other.null_count;
        self.sketch.merge(&other.sketch);
        if let Some(m) = &other.min {
            match &self.min {
                Some(cur) if scalar_cmp(m, cur).is_ge() => {}
                _ => self.min = Some(m.clone()),
            }
        }
        if let Some(m) = &other.max {
            match &self.max {
                Some(cur) if scalar_cmp(m, cur).is_le() => {}
                _ => self.max = Some(m.clone()),
            }
        }
    }

    /// Current min over non-NULL values.
    pub fn min(&self) -> Option<&Scalar> {
        self.min.as_ref()
    }

    /// Current max over non-NULL values.
    pub fn max(&self) -> Option<&Scalar> {
        self.max.as_ref()
    }

    /// NULL rows observed.
    pub fn null_count(&self) -> usize {
        self.null_count
    }

    /// Finalize.
    pub fn finish(&self) -> ColumnStats {
        ColumnStats {
            min: self.min.clone(),
            max: self.max.clone(),
            null_count: self.null_count,
            distinct: self.sketch.estimate(),
        }
    }
}

/// Incremental whole-table statistics (one builder per column).
#[derive(Debug, Clone, Default)]
pub struct StatsBuilder {
    pub rows: usize,
    pub columns: Vec<ColumnStatsBuilder>,
}

impl StatsBuilder {
    /// A builder for `ncols` columns.
    pub fn new(ncols: usize) -> StatsBuilder {
        StatsBuilder {
            rows: 0,
            columns: (0..ncols).map(|_| ColumnStatsBuilder::new()).collect(),
        }
    }

    /// Observe one frame/chunk of rows.
    pub fn update_frame(&mut self, frame: &crate::frame::DataFrame) {
        assert_eq!(frame.ncols(), self.columns.len(), "stats arity mismatch");
        self.rows += frame.nrows();
        for (b, c) in self.columns.iter_mut().zip(frame.columns()) {
            b.update_column(c);
        }
    }

    /// Finalize into a [`TableStats`].
    pub fn finish(&self) -> TableStats {
        TableStats {
            rows: self.rows,
            columns: self.columns.iter().map(|b| b.finish()).collect(),
        }
    }
}

/// Compute statistics for a whole in-memory frame (the path
/// `Session::register_table` takes; equals the store's streamed stats on
/// the same data by the order-insensitivity invariant above).
pub fn frame_stats(frame: &crate::frame::DataFrame) -> TableStats {
    let mut b = StatsBuilder::new(frame.ncols());
    b.update_frame(frame);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::df;

    #[test]
    fn minmax_null_distinct() {
        let mut b = ColumnStatsBuilder::new();
        for x in [5i64, -2, 9, 5] {
            b.update(&Scalar::I64(x));
        }
        b.update(&Scalar::Null);
        let s = b.finish();
        assert_eq!(s.min, Some(Scalar::I64(-2)));
        assert_eq!(s.max, Some(Scalar::I64(9)));
        assert_eq!(s.null_count, 1);
        assert_eq!(s.distinct, 3);
    }

    #[test]
    fn chunked_equals_whole() {
        // The invariant the bitwise plan-parity contract rests on.
        let vals: Vec<i64> = (0..10_000).map(|i| (i * 37) % 613).collect();
        let whole = {
            let mut b = ColumnStatsBuilder::new();
            for &v in &vals {
                b.update_i64(v);
            }
            b.finish()
        };
        let chunked = {
            let mut total = ColumnStatsBuilder::new();
            for chunk in vals.chunks(777) {
                let mut b = ColumnStatsBuilder::new();
                for &v in chunk {
                    b.update_i64(v);
                }
                total.merge(&b);
            }
            total.finish()
        };
        assert_eq!(whole, chunked);
        // 613 distinct values exceed the sketch's exact range (k = 256),
        // so the count is an estimate; require it within 15%.
        let err = (whole.distinct as f64 - 613.0).abs() / 613.0;
        assert!(err < 0.15, "distinct estimate {} too far", whole.distinct);
    }

    #[test]
    fn kmv_estimates_large_cardinalities() {
        let mut s = DistinctSketch::new();
        for i in 0..100_000u64 {
            s.insert_hash(fnv1a(&i.to_le_bytes()));
        }
        let est = s.estimate() as f64;
        assert!(
            (est - 100_000.0).abs() / 100_000.0 < 0.15,
            "estimate {est} too far from 100000"
        );
    }

    #[test]
    fn frame_stats_all_types() {
        let f = df(vec![
            ("b", crate::Column::from_bool(vec![true, true, false])),
            ("i", crate::Column::from_i64(vec![3, 1, 2])),
            ("f", crate::Column::from_f64(vec![0.5, -1.5, 2.0])),
            ("d", crate::Column::from_date_ns(vec![0, 86_400, 86_400])),
            (
                "s",
                crate::Column::from_str(vec!["b".into(), "a".into(), "c".into()]),
            ),
        ]);
        let st = frame_stats(&f);
        assert_eq!(st.rows, 3);
        assert_eq!(st.columns[1].min, Some(Scalar::I64(1)));
        assert_eq!(st.columns[2].max, Some(Scalar::F64(2.0)));
        assert_eq!(st.columns[3].distinct, 2);
        assert_eq!(st.columns[4].min, Some(Scalar::Str("a".into())));
        assert!(st.columns.iter().all(|c| c.null_count == 0));
    }
}

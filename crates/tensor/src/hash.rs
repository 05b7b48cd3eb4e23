//! Blockwise hashing kernels and arena join tables — the vectorized
//! hash core behind `tqp-exec`'s join build/probe and group-by.
//!
//! "Query Processing on Tensor Computation Runtimes" frames hash build and
//! probe as the operators where a tensor runtime wins or loses: they must
//! be bulk array passes, not per-row pointer chases. This module supplies
//! that shape:
//!
//! * **Blockwise multi-lane hashing** ([`hash_i64`], [`hash_columns`]):
//!   the whole key column hashes in one pass over [`HASH_BLOCK_ROWS`]-row
//!   blocks, [`HASH_LANES`] independent accumulator lanes per block so the
//!   compiler can keep the multiply/xor chains in SIMD registers — instead
//!   of one `Hasher` state machine invocation per row.
//! * **[`DenseRowTable`]** — the join build table for a single `i64` key
//!   whose span is bounded ([`dense_span_fits`]): the key *is* the
//!   address. A presence bitmap over `key − min` plus a per-word rank
//!   numbers the distinct keys, and a counting pass lays their rows out
//!   contiguously. Probing is a bounds check, a bit test and a popcount —
//!   no hash and no key compare.
//! * **[`HashedRowTable`]** — the join build table for every other key: a
//!   power-of-two directory of about one bucket per build row, masked
//!   from the row hash, over one row arena. It owns the build side's hash
//!   column, which a probe compares against before the caller verifies
//!   true key equality. No per-key `Vec`s, no rehash growth, no second
//!   copy of the keys.
//! * **[`group_rows_by_hash`]** — the group-by table: open-addressing
//!   linear probing over fixed-width slots, collision-verified through a
//!   caller-supplied row-equality callback so this crate stays independent
//!   of the executor's column layout.
//!
//! ## Determinism contract
//!
//! `tqp-exec` promises bitwise-identical results at any worker count, and
//! its hash-join contract is specifically that every key's row bucket
//! lists build rows in **ascending row order** (the order a sequential
//! per-key row list would push them). Each join table lays its rows out
//! with one sequential pass pair, shared by both kinds: a counting pass,
//! then a fill that places every row in its key's (or bucket's) run so
//! that each run ascends, and with it the rows of any single key. Nothing
//! in a build depends on the worker count. Which table a build gets
//! is a function of the key column alone, and both list the same rows per
//! key, so the choice never shows in a join's output.
//! [`group_rows_by_hash`] assigns dense group ids in first-appearance
//! order over a sequential scan, matching the executor's documented
//! group-output order exactly.

use crate::tensor::trim_padding;
use crate::{DType, Tensor};

/// Rows per hashing block: big enough to amortize loop overhead, small
/// enough that a block's lanes stay cache- and register-resident.
pub const HASH_BLOCK_ROWS: usize = 1024;

/// Independent accumulator lanes per block (8-wide: one AVX2/NEON-friendly
/// stripe of u64 multiplies with no cross-lane dependency).
pub const HASH_LANES: usize = 8;

/// Fibonacci multiplier (2^64 / φ), the same constant the executor's radix
/// partitioner uses.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Odd multiplier for multi-column combining (FxHash's).
const COMBINE: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Seed for multi-column row hashes.
const SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Finalizing integer mix: a Fibonacci multiply spreads entropy upward,
/// the xor-shift folds the well-mixed high half back onto the low bits
/// (which a power-of-two directory masks on).
#[inline(always)]
pub fn mix64(k: u64) -> u64 {
    let h = k.wrapping_mul(FIB);
    h ^ (h >> 32)
}

/// Hash an `i64` key column in one blockwise pass: `out[i] = mix64(v[i])`,
/// computed [`HASH_LANES`] elements at a stride so the multiplies pipeline
/// instead of serializing through one accumulator.
pub fn hash_i64(vals: &[i64]) -> Vec<u64> {
    let mut out = vec![0u64; vals.len()];
    hash_i64_into(vals, &mut out);
    out
}

/// [`hash_i64`] into a caller-provided buffer (must be the same length).
/// Dispatches to the explicit SIMD tier (`simd::hash_i64`); all tiers
/// compute the identical per-element `mix64`.
pub fn hash_i64_into(vals: &[i64], out: &mut [u64]) {
    assert_eq!(vals.len(), out.len(), "hash output length mismatch");
    crate::simd::hash_i64(vals, out);
}

/// Fold one `i64` column into an existing row-hash accumulator column
/// (vectorized; per-element result identical on every tier).
fn combine_i64(acc: &mut [u64], vals: &[i64]) {
    assert_eq!(acc.len(), vals.len(), "hash combine length mismatch");
    crate::simd::hash_combine_i64(acc, vals);
}

/// FNV-1a over one trimmed string (strings cannot lane-split; everything
/// else hashes blockwise). Padding is never hashed, so a value hashes the
/// same at every matrix width and in a dictionary.
#[inline]
pub(crate) fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = SEED;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    mix64(h)
}

/// Hash multi-column row keys into one `u64` column, column-at-a-time:
/// every numeric column folds in as a blockwise `combine_i64`-style
/// pass over the whole column (the "hash column in one pass" shape), a
/// coded string column gathers its dictionary's per-entry hashes, a padded
/// one hashes each trimmed row. Row equality must still be verified by the
/// caller — two distinct rows may collide.
pub fn hash_columns(cols: &[&Tensor]) -> Vec<u64> {
    assert!(
        !cols.is_empty(),
        "hash_columns requires at least one column"
    );
    let n = cols[0].nrows();
    let mut acc = vec![SEED; n];
    for c in cols {
        assert_eq!(c.nrows(), n, "hash_columns column length mismatch");
        match c.dtype() {
            DType::I64 => combine_i64(&mut acc, c.as_i64()),
            DType::I32 => {
                for (a, &v) in acc.iter_mut().zip(c.as_i32()) {
                    *a = (*a ^ mix64(v as u64)).wrapping_mul(COMBINE);
                }
            }
            DType::F64 => crate::simd::hash_combine_f64(&mut acc, c.as_f64()),
            DType::F32 => {
                for (a, &v) in acc.iter_mut().zip(c.as_f32()) {
                    *a = (*a ^ mix64(v.to_bits() as u64)).wrapping_mul(COMBINE);
                }
            }
            DType::Bool => {
                for (a, &v) in acc.iter_mut().zip(c.as_bool()) {
                    *a = (*a ^ mix64(v as u64)).wrapping_mul(COMBINE);
                }
            }
            DType::U8 => match c.coded() {
                Some((codes, dict)) => {
                    for (a, &code) in acc.iter_mut().zip(codes) {
                        *a = (*a ^ dict.hash(code)).wrapping_mul(COMBINE);
                    }
                }
                None => {
                    let (data, m) = (c.as_u8(), c.row_width());
                    for (i, a) in acc.iter_mut().enumerate() {
                        let row = trim_padding(&data[i * m..(i + 1) * m]);
                        *a = (*a ^ hash_bytes(row)).wrapping_mul(COMBINE);
                    }
                }
            },
        }
    }
    acc
}

/// Counting-sort the rows `0..n` into bucket-contiguous runs: bucket `b`
/// owns `rows[starts[b]..starts[b + 1]]`, where `bucket_of(i)` names row
/// `i`'s bucket (`None` leaves it out). One counting pass turns into end
/// offsets; the fill pass walks the rows backwards and writes each to its
/// bucket's next slot from the end, so every run lists its rows ascending
/// and the offsets end as the runs' starts. Both join tables lay their
/// rows out with it.
fn fill_buckets(
    n: usize,
    buckets: usize,
    bucket_of: impl Fn(usize) -> Option<usize>,
) -> (Vec<u32>, Vec<u32>) {
    let mut starts = vec![0u32; buckets + 1];
    for b in (0..n).filter_map(&bucket_of) {
        starts[b] += 1;
    }
    let mut end = 0u32;
    for s in &mut starts {
        end += *s;
        *s = end;
    }
    let mut rows = vec![0u32; end as usize];
    for i in (0..n).rev() {
        if let Some(b) = bucket_of(i) {
            starts[b] -= 1;
            rows[starts[b] as usize] = i as u32;
        }
    }
    (starts, rows)
}

/// The hashed join build table, for every key a [`DenseRowTable`] cannot
/// address: a power-of-two directory of about one bucket per build row,
/// indexed by the masked row hash, over one bucket-contiguous row arena.
///
/// The table owns the build side's hash column (one `u64` per build row,
/// computed once, blockwise, by [`hash_columns`]). A probe row's
/// candidates are the rows of its bucket whose stored hash equals its own;
/// the caller still verifies true key equality, since distinct keys may
/// share a hash. Rows ascend within every bucket, so the candidates of any
/// key come out in ascending row order — the same rows, in the same
/// order, that [`DenseRowTable`] lists for it.
///
/// NULL rows match nothing, so they stay out of the table.
pub struct HashedRowTable {
    /// Directory-size-minus-one bit mask over the hash.
    mask: u64,
    /// Bucket `b` spans `rows[starts[b]..starts[b + 1]]`.
    starts: Vec<u32>,
    /// Row-id arena, bucket-contiguous, ascending within each bucket.
    rows: Vec<u32>,
    /// The build side's row hashes, indexed by row id.
    hashes: Vec<u64>,
    /// Distinct hashes among the rows in the table.
    distinct: usize,
}

impl HashedRowTable {
    /// Build over the row hashes `hashes[i]` with row ids `0..n`, skipping
    /// the rows whose `valid` entry is false.
    pub fn build(hashes: Vec<u64>, valid: Option<&[bool]>) -> HashedRowTable {
        let n = hashes.len();
        if let Some(v) = valid {
            assert_eq!(v.len(), n, "hashes/validity length mismatch");
        }
        let buckets = n.max(1).next_power_of_two();
        let mask = (buckets - 1) as u64;
        let (starts, rows) = fill_buckets(n, buckets, |i| {
            valid
                .is_none_or(|v| v[i])
                .then_some((hashes[i] & mask) as usize)
        });
        // A row adds a distinct hash unless an earlier row of its bucket
        // holds the same one.
        let distinct = starts
            .windows(2)
            .map(|w| {
                let run = &rows[w[0] as usize..w[1] as usize];
                (0..run.len())
                    .filter(|&j| {
                        let h = hashes[run[j] as usize];
                        !run[..j].iter().any(|&r| hashes[r as usize] == h)
                    })
                    .count()
            })
            .sum();
        HashedRowTable {
            mask,
            starts,
            rows,
            hashes,
            distinct,
        }
    }

    /// The arena range `[start, end)` of the bucket `h` selects. It touches
    /// only the directory, so a probe gathers a block of ranges before it
    /// scans any: the directory misses of many rows then overlap instead
    /// of queuing behind each row's arena scan.
    #[inline]
    pub fn bucket_range(&self, h: u64) -> (u32, u32) {
        let b = (h & self.mask) as usize;
        (self.starts[b], self.starts[b + 1])
    }

    /// The rows of the arena range `(start, end)` (from
    /// [`Self::bucket_range`]) whose hash is `h`, ascending.
    #[inline]
    pub fn matches(&self, (start, end): (u32, u32), h: u64) -> impl Iterator<Item = u32> + '_ {
        self.rows[start as usize..end as usize]
            .iter()
            .copied()
            .filter(move |&r| self.hashes[r as usize] == h)
    }

    /// Number of distinct row hashes in the table: its distinct keys, but
    /// for the rare keys whose hashes collide.
    pub fn len(&self) -> usize {
        self.distinct
    }

    /// True when no rows were inserted.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Key span a [`DenseRowTable`] may address per build row. Bitmap plus
/// rank cost `3 · span / 16` bytes, so this bounds the directory at 12 B a
/// build row ([`HashedRowTable`] spends 16 to 20).
pub const DENSE_SPAN_PER_ROW: u64 = 64;

/// Key span any build may address, however few its rows (a directory of
/// at most 192 KB).
pub const DENSE_SPAN_FLOOR: u64 = 1 << 20;

/// Whether a key span of `span` slots over `rows` build rows is addressed
/// directly: `span ≤ max(DENSE_SPAN_PER_ROW · rows, DENSE_SPAN_FLOOR)`.
pub fn dense_span_fits(span: u64, rows: u64) -> bool {
    span <= DENSE_SPAN_PER_ROW
        .saturating_mul(rows)
        .max(DENSE_SPAN_FLOOR)
}

/// The direct-addressed join build table over one `i64` key column whose
/// span passes [`dense_span_fits`].
///
/// Key `k` lives at offset `k − min`. A presence bitmap over the span
/// marks the keys that occur, and `rank[w]` counts the set bits before
/// word `w`, so a present key's slot — its index among the distinct keys
/// in ascending key order — is `rank[w] + popcount(word & below)`. Slot
/// `s` owns `rows[starts[s]..starts[s+1]]`, filled by a counting pass in
/// ascending row order: every key lists its rows ascending, exactly the
/// rows [`HashedRowTable`] would return for it.
///
/// NULL rows match nothing, so they stay out of the table and out of the
/// span.
pub struct DenseRowTable {
    /// The smallest valid key (0 for an empty table).
    min: i64,
    /// `max − min + 1` over the valid keys (0 for an empty table).
    span: u64,
    /// Presence bitmap over `key − min`.
    bits: Vec<u64>,
    /// Set bits before each bitmap word.
    rank: Vec<u32>,
    /// Exclusive prefix sums: slot `s` spans `starts[s]..starts[s+1]`.
    starts: Vec<u32>,
    /// Row-id arena, slot-contiguous, ascending within each slot.
    rows: Vec<u32>,
}

impl DenseRowTable {
    /// Build over `keys[i]` with row ids `0..n`, skipping the rows whose
    /// `valid` entry is false. `None` when the exact span of the valid
    /// keys fails [`dense_span_fits`]; the caller then hashes.
    pub fn build(keys: &[i64], valid: Option<&[bool]>) -> Option<DenseRowTable> {
        if let Some(v) = valid {
            assert_eq!(v.len(), keys.len(), "keys/validity length mismatch");
        }
        let is_valid = |i: usize| valid.is_none_or(|v| v[i]);
        let (mut min, mut max, mut n) = (i64::MAX, i64::MIN, 0u64);
        for (i, &k) in keys.iter().enumerate() {
            if is_valid(i) {
                min = min.min(k);
                max = max.max(k);
                n += 1;
            }
        }
        let span = if n == 0 {
            min = 0;
            0
        } else {
            (max.wrapping_sub(min) as u64).checked_add(1)?
        };
        if !dense_span_fits(span, n) {
            return None;
        }

        // Pass 1: presence bits.
        let mut bits = vec![0u64; span.div_ceil(64) as usize];
        for (i, &k) in keys.iter().enumerate() {
            if is_valid(i) {
                let off = k.wrapping_sub(min) as u64;
                bits[(off / 64) as usize] |= 1 << (off % 64);
            }
        }
        // Pass 2: rank.
        let mut rank = Vec::with_capacity(bits.len());
        let mut distinct = 0u32;
        for w in &bits {
            rank.push(distinct);
            distinct += w.count_ones();
        }
        let mut table = DenseRowTable {
            min,
            span,
            bits,
            rank,
            starts: Vec::new(),
            rows: Vec::new(),
        };
        // Pass 3: lay each slot's rows out, ascending.
        let (starts, rows) = fill_buckets(keys.len(), distinct as usize, |i| {
            is_valid(i).then(|| table.slot(keys[i]).expect("a valid key is present"))
        });
        table.starts = starts;
        table.rows = rows;
        Some(table)
    }

    /// The slot of key `k` — its index among the distinct keys in
    /// ascending key order — or `None` when `k` is absent.
    #[inline]
    fn slot(&self, k: i64) -> Option<usize> {
        let off = k.wrapping_sub(self.min) as u64;
        if off >= self.span {
            return None;
        }
        let w = (off / 64) as usize;
        let bit = 1u64 << (off % 64);
        let word = self.bits[w];
        (word & bit != 0).then(|| self.rank[w] as usize + (word & (bit - 1)).count_ones() as usize)
    }

    /// The rows holding key `k`, ascending (empty when `k` is absent).
    #[inline]
    pub fn rows_of(&self, k: i64) -> &[u32] {
        match self.slot(k) {
            Some(s) => &self.rows[self.starts[s] as usize..self.starts[s + 1] as usize],
            None => &[],
        }
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// True when no rows were inserted.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// One open-addressing slot of the group table.
#[derive(Clone, Copy)]
struct GroupSlot {
    hash: u64,
    /// First row of the group; `u32::MAX` = empty slot.
    first: u32,
    gid: u32,
}

const EMPTY: u32 = u32::MAX;

/// Group rows by their hash with collision verification: `eq(i, j)` must
/// report true key equality of rows `i` and `j`. Returns `(gids, firsts)`
/// — dense group ids per row in first-appearance order, and each group's
/// first row — computed over a flat linear-probing table.
///
/// The scan is sequential in row order, so group numbering is a pure
/// function of the input (never of scheduling); hash collisions between
/// distinct keys fail `eq` and probe onward to their own slot.
pub fn group_rows_by_hash(
    hashes: &[u64],
    mut eq: impl FnMut(usize, usize) -> bool,
) -> (Vec<i64>, Vec<i64>) {
    let n = hashes.len();
    // Start small and double at 7/8 load: a 16 Ki-row morsel with few
    // groups stays in one cache-resident table, many-group inputs
    // amortize the (cheap, eq-free) rehashes.
    let mut cap = 64usize;
    while cap < n / 4 {
        cap <<= 1;
    }
    let mut slots = vec![
        GroupSlot {
            hash: 0,
            first: EMPTY,
            gid: 0
        };
        cap
    ];
    let mut mask = cap - 1;
    let mut gids = vec![0i64; n];
    let mut firsts: Vec<i64> = Vec::new();
    for i in 0..n {
        if (firsts.len() + 1) * 8 > cap * 7 {
            // Grow: re-scatter occupied slots by their stored hash. All
            // occupants are distinct groups, so no equality checks.
            cap <<= 1;
            mask = cap - 1;
            let mut next = vec![
                GroupSlot {
                    hash: 0,
                    first: EMPTY,
                    gid: 0
                };
                cap
            ];
            for s in slots.iter().filter(|s| s.first != EMPTY) {
                let mut idx = (s.hash as usize) & mask;
                while next[idx].first != EMPTY {
                    idx = (idx + 1) & mask;
                }
                next[idx] = *s;
            }
            slots = next;
        }
        let h = hashes[i];
        let mut idx = (h as usize) & mask;
        let gid = loop {
            let s = slots[idx];
            if s.first == EMPTY {
                let g = firsts.len() as u32;
                slots[idx] = GroupSlot {
                    hash: h,
                    first: i as u32,
                    gid: g,
                };
                firsts.push(i as i64);
                break g;
            }
            if s.hash == h && eq(i, s.first as usize) {
                break s.gid;
            }
            idx = (idx + 1) & mask;
        };
        gids[i] = gid as i64;
    }
    (gids, firsts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn hash_matches_scalar_mix() {
        let vals: Vec<i64> = (-5000..5000).map(|i| i * 37 - 11).collect();
        let hs = hash_i64(&vals);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(hs[i], mix64(v as u64));
        }
    }

    #[test]
    fn string_hashes_ignore_width_and_form() {
        let vals = ["x", "yy", "", "x\0", "zzzz"];
        let narrow = Tensor::from_strings(&vals, 0);
        let wide = Tensor::from_strings(&vals, 9);
        let coded = crate::dict::encode(&vals, 0).unwrap();
        let h = hash_columns(&[&narrow]);
        assert_eq!(h, hash_columns(&[&wide]));
        assert_eq!(h, hash_columns(&[&coded]));
        assert_eq!(h[0], h[3], "trailing NULs are padding");
    }

    /// Each valid key's rows, ascending.
    fn oracle(keys: &[i64], valid: Option<&[bool]>) -> BTreeMap<i64, Vec<u32>> {
        let mut m: BTreeMap<i64, Vec<u32>> = BTreeMap::new();
        for (i, &k) in keys.iter().enumerate() {
            if valid.is_none_or(|v| v[i]) {
                m.entry(k).or_default().push(i as u32);
            }
        }
        m
    }

    /// The hashed table's candidates for each valid key are its rows,
    /// ascending; NULL rows are listed for no key.
    fn assert_hashed_matches(keys: &[i64], valid: Option<&[bool]>) {
        let t = HashedRowTable::build(hash_i64(keys), valid);
        let m = oracle(keys, valid);
        assert_eq!(t.len(), m.len(), "distinct count");
        assert_eq!(t.is_empty(), m.is_empty());
        for &k in keys {
            for probe in [k.wrapping_sub(1), k, k.wrapping_add(1)] {
                let h = mix64(probe as u64);
                let got: Vec<u32> = t.matches(t.bucket_range(h), h).collect();
                let want = m.get(&probe).map_or(&[][..], |r| &r[..]);
                assert_eq!(got, want, "rows for {probe}");
            }
        }
    }

    #[test]
    fn hashed_table_matches_map_oracle() {
        assert_hashed_matches(&[], None);
        assert_hashed_matches(&[42], None);
        assert_hashed_matches(&(0..1000).collect::<Vec<i64>>(), None);
        assert_hashed_matches(&vec![7i64; 500], None);
        assert_hashed_matches(&(0..2000).map(|i| i % 13).collect::<Vec<i64>>(), None);
        assert_hashed_matches(&[i64::MIN, i64::MAX, 0, -1, i64::MIN, i64::MAX], None);
        // NULL rows are listed for no key, and count for nothing.
        let keys = [3i64, i64::MIN, 5, 3, i64::MAX, 5];
        assert_hashed_matches(&keys, Some(&[true, false, true, true, false, false]));
        assert_hashed_matches(&keys, Some(&[false; 6]));
    }

    /// The dense table lists each valid key's rows ascending and nothing
    /// for any other key, NULL rows included.
    fn assert_dense_matches(keys: &[i64], valid: Option<&[bool]>) {
        let t = DenseRowTable::build(keys, valid).expect("span fits");
        let m = oracle(keys, valid);
        assert_eq!(t.len(), m.len(), "distinct count");
        assert_eq!(t.is_empty(), m.is_empty());
        for (&k, rows) in &m {
            assert_eq!(t.rows_of(k), &rows[..], "rows for {k}");
        }
        for &k in keys {
            for probe in [k.wrapping_sub(1), k.wrapping_add(1), k] {
                if !m.contains_key(&probe) {
                    assert!(t.rows_of(probe).is_empty(), "absent key {probe}");
                }
            }
        }
        for probe in [i64::MIN, i64::MAX, 0] {
            assert_eq!(t.rows_of(probe), m.get(&probe).map_or(&[][..], |r| &r[..]));
        }
    }

    #[test]
    fn dense_table_matches_map_oracle() {
        assert_dense_matches(&[], None);
        assert_dense_matches(&[42], None);
        assert_dense_matches(&(0..1000).rev().collect::<Vec<i64>>(), None);
        assert_dense_matches(&vec![-7i64; 500], None);
        assert_dense_matches(&(0..2000).map(|i| i % 13 - 6).collect::<Vec<i64>>(), None);
        assert_dense_matches(&[i64::MIN, i64::MIN + 5, i64::MIN], None);
        assert_dense_matches(&[i64::MAX, i64::MAX - 64, i64::MAX - 63], None);
        // NULL rows are neither listed nor part of the span.
        let keys = [3i64, i64::MIN, 5, 3, i64::MAX];
        assert_dense_matches(&keys, Some(&[true, false, true, true, false]));
        assert_dense_matches(&keys, Some(&[false; 5]));
    }

    #[test]
    fn group_rows_first_appearance_order() {
        let keys = [30i64, 10, 30, 20, 10, 30];
        let hashes = hash_i64(&keys);
        let (gids, firsts) = group_rows_by_hash(&hashes, |i, j| keys[i] == keys[j]);
        assert_eq!(gids, vec![0, 1, 0, 2, 1, 0]);
        assert_eq!(firsts, vec![0, 1, 3]);
    }

    #[test]
    fn group_rows_collisions_verified() {
        // Identical hashes for every row, distinct keys: the eq callback
        // must separate them into their own groups via linear probing.
        let keys: Vec<i64> = (0..500).collect();
        let hashes = vec![0xDEAD_BEEFu64; keys.len()];
        let (gids, firsts) = group_rows_by_hash(&hashes, |i, j| keys[i] == keys[j]);
        assert_eq!(firsts.len(), 500);
        for (i, &g) in gids.iter().enumerate() {
            assert_eq!(g, i as i64);
        }
    }

    #[test]
    fn group_rows_grows_past_initial_capacity() {
        let n = 100_000usize;
        let keys: Vec<i64> = (0..n as i64).map(|i| i % 40_000).collect();
        let hashes = hash_i64(&keys);
        let (gids, firsts) = group_rows_by_hash(&hashes, |i, j| keys[i] == keys[j]);
        assert_eq!(firsts.len(), 40_000);
        for (i, &g) in gids.iter().enumerate() {
            assert_eq!(firsts[g as usize], keys[i]);
        }
    }
}

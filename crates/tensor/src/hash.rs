//! Blockwise hashing kernels and flat arena hash tables — the vectorized
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
//! * **Counting-sort primitives** ([`scatter_count`], [`gather_u32`]): the
//!   histogram and gather passes flat table construction is made of.
//! * **[`FlatRowTable`]** — the join build table: a power-of-two bucket
//!   directory over two contiguous arenas (`rows`, `keys`), built with a
//!   counting pass then exact-offset fills. No per-key `Vec` allocations,
//!   no rehash growth, no hash-again on insert: the precomputed hash
//!   column *is* the directory index.
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
//! per-key row list would push them). [`FlatRowTable`] preserves
//! this structurally: the fill pass scans entries in ascending row order
//! and appends each to its bucket's next free slot, so within a bucket —
//! and therefore within the entries of any single key — rows ascend.
//! Radix-partitioned parallel builds feed each partition its entries in
//! ascending global row order (contiguous worker ranges drained in worker
//! order), so the same argument applies per partition.
//! [`group_rows_by_hash`] assigns dense group ids in first-appearance
//! order over a sequential scan, matching the executor's documented
//! group-output order exactly.

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

/// FNV-1a over one string row (strings cannot lane-split; everything else
/// hashes blockwise).
#[inline]
fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = SEED;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    mix64(h)
}

/// Hash multi-column row keys into one `u64` column, column-at-a-time:
/// every numeric column folds in as a blockwise [`combine_i64`]-style
/// pass over the whole column (the "hash column in one pass" shape),
/// strings fall back to per-row byte hashing. Row equality must still be
/// verified by the caller — two distinct rows may collide.
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
            DType::U8 => {
                for (i, a) in acc.iter_mut().enumerate() {
                    *a = (*a ^ hash_bytes(c.str_row(i))).wrapping_mul(COMBINE);
                }
            }
        }
    }
    acc
}

/// Histogram pass: `out[idx[i]] += 1`. The counting half of flat table
/// construction (and of any counting-sort shaped kernel).
pub fn scatter_count(idx: &[u32], n: usize) -> Vec<u32> {
    let mut counts = vec![0u32; n];
    for &b in idx {
        counts[b as usize] += 1;
    }
    counts
}

/// Gather pass: `out[i] = src[idx[i]]` (hardware-gather tier when the
/// index set validates in bounds; panics on out-of-range either way).
pub fn gather_u32(src: &[u32], idx: &[u32]) -> Vec<u32> {
    let mut out = vec![0u32; idx.len()];
    crate::simd::gather_u32(src, idx, &mut out);
    out
}

/// Directory size for `n` entries with an optional distinct-key estimate
/// (e.g. the catalog's KMV sketch): two slots per expected distinct key,
/// clamped to at most two per *entry* so a wild over-estimate cannot
/// explode the directory, power of two for mask indexing.
fn directory_size(n: usize, distinct_hint: Option<u64>) -> usize {
    let est = match distinct_hint {
        Some(d) => (d as usize).min(n),
        None => n,
    };
    (est.max(8) * 2).next_power_of_two()
}

/// The flat join build table: a power-of-two bucket directory over two
/// contiguous arenas.
///
/// Bucket `b` owns `rows[starts[b]..starts[b+1]]` (and the aligned
/// `keys[..]` slice): the entry set is bucket-sorted into the arena by a
/// counting pass + exact-offset fill, which subsumes a `next`-chain —
/// every chain is materialized as a contiguous run, so probing walks a
/// dense slice instead of chasing links. There are no per-key `Vec`s, no
/// growth reallocation, and inserts never re-hash: the caller supplies
/// the hash column (computed once, blockwise) and the table masks it.
///
/// Entries fill in input order; when the input is in ascending row order
/// (both the sequential build and each radix partition of the parallel
/// build are), every bucket — and every key within it — lists rows
/// ascending, which is the executor's bitwise-determinism contract.
pub struct FlatRowTable {
    /// Directory-size-minus-one bit mask over the hash.
    mask: u64,
    /// Exclusive prefix sums: bucket `b` spans `starts[b]..starts[b+1]`.
    starts: Vec<u32>,
    /// Row-id arena, bucket-contiguous.
    rows: Vec<u32>,
    /// Key arena aligned with `rows` (probe compares against it).
    keys: Vec<i64>,
    /// Distinct key count (tracked during the fill).
    distinct: usize,
}

impl FlatRowTable {
    /// Build over `keys[i]` with implicit row ids `0..n`.
    pub fn build(keys: &[i64], hashes: &[u64], distinct_hint: Option<u64>) -> FlatRowTable {
        Self::build_inner(keys, None, hashes, distinct_hint)
    }

    /// Build over explicit `(key, row)` entries (the radix-partitioned
    /// path, where each partition holds a subset of the global rows).
    /// Entries must arrive in ascending `rows` order for the bucket-order
    /// contract to hold.
    pub fn build_with_rows(
        keys: &[i64],
        rows: &[u32],
        hashes: &[u64],
        distinct_hint: Option<u64>,
    ) -> FlatRowTable {
        assert_eq!(keys.len(), rows.len(), "keys/rows length mismatch");
        Self::build_inner(keys, Some(rows), hashes, distinct_hint)
    }

    fn build_inner(
        keys: &[i64],
        rows: Option<&[u32]>,
        hashes: &[u64],
        distinct_hint: Option<u64>,
    ) -> FlatRowTable {
        let n = keys.len();
        assert_eq!(hashes.len(), n, "keys/hashes length mismatch");
        let d = directory_size(n, distinct_hint);
        let mask = (d - 1) as u64;

        // Counting pass: bucket histogram → exclusive prefix = exact
        // arena offsets. (This *is* `scatter_count`, fused with the mask
        // so the bucket ids never materialize.)
        let mut counts = vec![0u32; d];
        for &h in hashes {
            counts[(h & mask) as usize] += 1;
        }
        let mut starts = Vec::with_capacity(d + 1);
        let mut acc = 0u32;
        for &c in &counts {
            starts.push(acc);
            acc += c;
        }
        starts.push(acc);

        // Fill pass: ascending input order, each entry to its bucket's
        // next free slot. `cursor` reuses the counts buffer as write
        // heads.
        let mut cursor: Vec<u32> = starts[..d].to_vec();
        let mut row_arena = vec![0u32; n];
        let mut key_arena = vec![0i64; n];
        let mut distinct = 0usize;
        for i in 0..n {
            let b = (hashes[i] & mask) as usize;
            let slot = cursor[b] as usize;
            cursor[b] += 1;
            let k = keys[i];
            // First occurrence check against the bucket's filled prefix:
            // early-exits on the first equal key, so duplicate-heavy
            // buckets cost O(1) per insert.
            if !key_arena[starts[b] as usize..slot].contains(&k) {
                distinct += 1;
            }
            key_arena[slot] = k;
            row_arena[slot] = match rows {
                Some(r) => r[i],
                None => i as u32,
            };
        }
        FlatRowTable {
            mask,
            starts,
            rows: row_arena,
            keys: key_arena,
            distinct,
        }
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.distinct
    }

    /// True when no entries were inserted.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Total entries (rows) in the table.
    pub fn n_entries(&self) -> usize {
        self.rows.len()
    }

    /// The `(keys, rows)` slices of the bucket `h` selects. Probing scans
    /// the key slice for equality and emits the aligned rows — matching
    /// rows appear in ascending row order.
    #[inline]
    pub fn bucket(&self, h: u64) -> (&[i64], &[u32]) {
        let b = (h & self.mask) as usize;
        let s = self.starts[b] as usize;
        let e = self.starts[b + 1] as usize;
        (&self.keys[s..e], &self.rows[s..e])
    }

    /// Number of entries matching key `k` (the probe's pre-sizing pass).
    /// Long skewed buckets scan with the vectorized equality count;
    /// typical short buckets stay on the scalar loop.
    #[inline]
    pub fn count_matches(&self, k: i64, h: u64) -> usize {
        let (keys, _) = self.bucket(h);
        crate::simd::count_eq_i64(keys, k)
    }

    /// The arena range `[start, end)` of the bucket `h` selects — the
    /// cheap half of [`Self::bucket`] (touches only the directory). The
    /// probe gathers a block of ranges first, then scans: splitting the
    /// directory read from the arena scan breaks the per-row dependent
    /// load chain so cache misses overlap across rows.
    #[inline]
    pub fn bucket_range(&self, h: u64) -> (u32, u32) {
        let b = (h & self.mask) as usize;
        (self.starts[b], self.starts[b + 1])
    }

    /// The `(keys, rows)` arena slices for a range from
    /// [`Self::bucket_range`].
    #[inline]
    pub fn entries(&self, start: u32, end: u32) -> (&[i64], &[u32]) {
        (
            &self.keys[start as usize..end as usize],
            &self.rows[start as usize..end as usize],
        )
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
    fn scatter_count_and_gather() {
        let idx = [1u32, 0, 1, 3, 1];
        assert_eq!(scatter_count(&idx, 4), vec![1, 3, 0, 1]);
        assert_eq!(
            gather_u32(&[10, 20, 30, 40], &idx),
            vec![20, 10, 20, 40, 20]
        );
    }

    fn oracle(keys: &[i64]) -> BTreeMap<i64, Vec<u32>> {
        let mut m: BTreeMap<i64, Vec<u32>> = BTreeMap::new();
        for (i, &k) in keys.iter().enumerate() {
            m.entry(k).or_default().push(i as u32);
        }
        m
    }

    fn assert_table_matches(keys: &[i64], hint: Option<u64>) {
        let hashes = hash_i64(keys);
        let t = FlatRowTable::build(keys, &hashes, hint);
        let m = oracle(keys);
        assert_eq!(t.len(), m.len(), "distinct count");
        assert_eq!(t.n_entries(), keys.len());
        for (&k, rows) in &m {
            let h = mix64(k as u64);
            assert_eq!(t.count_matches(k, h), rows.len(), "count for {k}");
            let (bkeys, brows) = t.bucket(h);
            let got: Vec<u32> = bkeys
                .iter()
                .zip(brows)
                .filter(|(&bk, _)| bk == k)
                .map(|(_, &r)| r)
                .collect();
            // The oracle's bucket is in ascending insert order; so must
            // the flat bucket be.
            assert_eq!(&got, rows, "bucket rows for {k}");
        }
    }

    #[test]
    fn flat_table_matches_map_oracle() {
        assert_table_matches(&[], None);
        assert_table_matches(&[42], None);
        assert_table_matches(&(0..1000).collect::<Vec<i64>>(), None);
        assert_table_matches(&vec![7i64; 500], None);
        assert_table_matches(&(0..2000).map(|i| i % 13).collect::<Vec<i64>>(), Some(13));
        assert_table_matches(&[i64::MIN, i64::MAX, 0, -1, i64::MIN, i64::MAX], None);
    }

    #[test]
    fn build_with_rows_keeps_explicit_ids() {
        let keys = [5i64, 9, 5];
        let rows = [10u32, 20, 30];
        let hashes = hash_i64(&keys);
        let t = FlatRowTable::build_with_rows(&keys, &rows, &hashes, None);
        let (bkeys, brows) = t.bucket(mix64(5));
        let got: Vec<u32> = bkeys
            .iter()
            .zip(brows)
            .filter(|(&k, _)| k == 5)
            .map(|(_, &r)| r)
            .collect();
        assert_eq!(got, vec![10, 30]);
    }

    #[test]
    fn distinct_hint_only_shrinks_directory() {
        // A hint far above n must not blow up the directory.
        let keys: Vec<i64> = (0..64).collect();
        let hashes = hash_i64(&keys);
        let t = FlatRowTable::build(&keys, &hashes, Some(1 << 40));
        assert_eq!(t.len(), 64);
        // A hint far below still probes correctly (just longer buckets).
        let t = FlatRowTable::build(&keys, &hashes, Some(2));
        assert_eq!(t.len(), 64);
        for &k in &keys {
            assert_eq!(t.count_matches(k, mix64(k as u64)), 1);
        }
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

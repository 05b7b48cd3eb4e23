//! Tensor join algorithms (the paper's "novel algorithms mapping relational
//! operators into tensor programs").
//!
//! * **Sort-merge** (tensor-native): stable-argsort the build side,
//!   probe with two `searchsorted` calls to get each probe key's match run
//!   `[lo, hi)`, expand runs into aligned index tensors with
//!   `repeat_interleave`/`cumsum`/`arange` arithmetic, then gather. No data-
//!   dependent control flow — every step is a dense kernel.
//! * **Hash**: hash each side exactly once with the blockwise kernels in
//!   [`tqp_tensor::hash`] and build a [`FlatRowTable`] — a power-of-two
//!   directory over contiguous row/key arenas, filled by a counting pass
//!   (no per-key `Vec` allocations, no second hash on insert). Probe pairs
//!   come out in (probe row asc, build row asc) order, and hashed keys are
//!   verified for true equality.
//!
//! Multi-column keys reduce to the single-key case by joining on a 64-bit
//! combined row hash and verifying true key equality on the expanded pairs
//! (collision-safe). Inner/left/semi/anti all derive from the pair lists;
//! residual predicates (Q13's `NOT LIKE`, Q21's `<>` correlations) are
//! evaluated over the gathered pair batch, and a pair either of whose keys
//! is NULL (an outer join's padding) is dropped.
//!
//! Joins build on their right input. A hash **semi/anti** join may
//! instead build on its *left* input (`build_left`, chosen by the planner
//! when the left side is the smaller one): the right side's keys probe the
//! table and mark the left rows they match. The pair list comes out in
//! another order, but a semi/anti join only reads *which* left rows
//! matched and emits them in left order, so the output is the same
//! whichever side was built — and the same at every worker count.

use tqp_ir::physical::JoinStrategy;
use tqp_ir::plan::JoinType;
use tqp_ml::ModelRegistry;
use tqp_tensor::hash::{self, FlatRowTable};
use tqp_tensor::index::{
    arange, exclusive_cumsum, mask_to_indices, repeat_interleave, searchsorted, take, Side,
};
use tqp_tensor::ops::{self, BinOp as TB};
use tqp_tensor::sort::{argsort, Order};
use tqp_tensor::{DType, Tensor};

use crate::batch::Batch;
use crate::expr::{hash_rows, keys_equal};
use crate::exprprog::{self, ExprProgram};

/// Execute a join between two batches (single-threaded entry point; the
/// program VM calls the build/probe halves directly).
#[allow(clippy::too_many_arguments)]
pub fn join(
    left: &Batch,
    right: &Batch,
    join_type: JoinType,
    strategy: JoinStrategy,
    on: &[(usize, usize)],
    residual: Option<&ExprProgram>,
    models: &ModelRegistry,
) -> Batch {
    match strategy {
        JoinStrategy::SortMerge => sort_merge_join(left, right, join_type, on, residual, models),
        JoinStrategy::Hash => {
            let keys: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
            let table = build_table(right, &keys);
            probe_table(
                &table, left, right, join_type, on, residual, models, 1, false,
            )
        }
    }
}

/// The tensor-native sort-merge join: one fused pairs+assembly op.
pub fn sort_merge_join(
    left: &Batch,
    right: &Batch,
    join_type: JoinType,
    on: &[(usize, usize)],
    residual: Option<&ExprProgram>,
    models: &ModelRegistry,
) -> Batch {
    assert!(!on.is_empty(), "tensor joins require at least one equi key");
    let lkeys: Vec<&Tensor> = on.iter().map(|&(l, _)| &left.columns[l]).collect();
    let rkeys: Vec<&Tensor> = on.iter().map(|&(_, r)| &right.columns[r]).collect();
    // Reduce to one I64 key column; hashed keys require verification.
    let (lkey, rkey, need_verify) = make_keys(&lkeys, &rkeys);
    let (left_idx, right_idx) = smj_pairs(&lkey, &rkey);
    finish_join(
        left,
        right,
        join_type,
        left_idx,
        right_idx,
        need_verify,
        on,
        residual,
        models,
    )
}

/// The build side of a hash join (the program's `HashBuild` op): a
/// row-index table over the build (right) input's key columns. Multi-key
/// and non-integer keys are reduced to a 64-bit row hash; the probe then
/// verifies true key equality on the expanded pairs (collision-safe).
///
/// Large builds construct **radix-partitioned**: `2^bits` disjoint tables,
/// each owning the keys whose hash's top bits select it, built by
/// independent workers. Partitions fill from contiguous, ascending worker
/// ranges, so every key's bucket holds its rows in ascending row order —
/// **exactly** the bucket a sequential build produces. Probe output is
/// therefore identical whatever the partition count, which is why it may
/// follow the worker knob freely.
pub struct JoinTable {
    /// One table when built sequentially, `2^bits` radix partitions
    /// otherwise.
    parts: Vec<FlatRowTable>,
    /// log2 of the partition count (0 = unpartitioned).
    bits: u32,
    /// True when keys were hashed (probe must verify equality).
    hashed: bool,
}

impl JoinTable {
    /// Number of distinct build keys.
    pub fn len(&self) -> usize {
        self.parts.iter().map(|t| t.len()).sum()
    }

    /// True when no build rows were inserted.
    pub fn is_empty(&self) -> bool {
        self.parts.iter().all(|t| t.is_empty())
    }
}

/// Build the hash table over `keys` of the build-side batch, sequentially.
pub fn build_table(build: &Batch, keys: &[usize]) -> JoinTable {
    build_table_par(build, keys, 1, None)
}

/// Minimum build rows before the radix-partitioned parallel build pays for
/// its extra per-worker key scans.
const PAR_BUILD_MIN_ROWS: usize = 32 * 1024;

/// Maximum radix bits (16 partitions): beyond this the redundant key scans
/// per worker outweigh insert parallelism.
const MAX_RADIX_BITS: u32 = 4;

/// Reduce key columns to one `(keys, hashes)` pair, hashing the side
/// exactly once, blockwise. Single bare-I64 keys stay raw (probe compares
/// true values); everything else joins on the combined row hash and
/// verifies equality on the expanded pairs.
fn hash_keys(cols: &[&Tensor], hashed: bool) -> (Vec<i64>, Vec<u64>) {
    if hashed {
        let h = hash::hash_columns(cols);
        let k = h.iter().map(|&x| x as i64).collect();
        (k, h)
    } else {
        let k = cols[0].as_i64().to_vec();
        let h = hash::hash_i64(&k);
        (k, h)
    }
}

/// Build the hash table, radix-partitioned across up to `workers` threads
/// when the build side is large enough: hash once, then counting-pass
/// table construction, sequential or partitioned on the hash's top bits.
/// The table's *content* is identical to [`build_table`] at any worker
/// count (see [`JoinTable`]).
///
/// `distinct` is an optional distinct-key estimate (the catalog's KMV
/// sketch, threaded through the plan) used to size the directory —
/// without it the directory assumes all-distinct keys.
pub fn build_table_par(
    build: &Batch,
    keys: &[usize],
    workers: usize,
    distinct: Option<u64>,
) -> JoinTable {
    assert!(
        !keys.is_empty(),
        "tensor joins require at least one equi key"
    );
    let rkeys: Vec<&Tensor> = keys.iter().map(|&k| &build.columns[k]).collect();
    let hashed =
        !(rkeys.len() == 1 && rkeys[0].dtype() == DType::I64 && rkeys[0].shape().len() == 1);
    let (kvec, hvec) = hash_keys(&rkeys, hashed);
    let n = kvec.len();

    if workers <= 1 || n < PAR_BUILD_MIN_ROWS {
        return JoinTable {
            parts: vec![FlatRowTable::build(&kvec, &hvec, distinct)],
            bits: 0,
            hashed,
        };
    }

    let bits = (workers.next_power_of_two().trailing_zeros()).clamp(1, MAX_RADIX_BITS);
    let p = 1usize << bits;

    // Phase 1 — contiguous worker ranges bin (key, row, hash) triples per
    // partition, in row order (the hash rides along so partitions never
    // re-hash).
    let threads = workers.min(n);
    let chunk = n.div_ceil(threads);
    /// Per-partition (keys, rows, hashes) columns, per phase-1 worker.
    type FlatBins = Vec<(Vec<i64>, Vec<u32>, Vec<u64>)>;
    let (kref, href) = (&kvec, &hvec);
    let bins: Vec<FlatBins> = crate::sched::map_tasks(threads, workers, |t| {
        // Partition boundary: deadline/cancellation check per build task.
        crate::sched::check_cancelled();
        let lo = t * chunk;
        let hi = ((t + 1) * chunk).min(n);
        let mut local: FlatBins = vec![(Vec::new(), Vec::new(), Vec::new()); p];
        for i in lo..hi {
            let pi = (href[i] >> (64 - bits)) as usize;
            local[pi].0.push(kref[i]);
            local[pi].1.push(i as u32);
            local[pi].2.push(href[i]);
        }
        local
    });

    // Phase 2 — one flat table per partition over the workers' bins in
    // worker order; ranges are contiguous and ascending, so every bucket
    // fills in ascending global row order. The distinct estimate splits
    // evenly across partitions (the mixed top bits spread keys uniformly).
    let part_hint = distinct.map(|d| (d >> bits).max(1));
    let bins_ref = &bins;
    let parts: Vec<FlatRowTable> = crate::sched::map_tasks(p, workers, |pi| {
        let cap: usize = bins_ref.iter().map(|b| b[pi].0.len()).sum();
        let mut ks = Vec::with_capacity(cap);
        let mut rs = Vec::with_capacity(cap);
        let mut hs = Vec::with_capacity(cap);
        for b in bins_ref {
            ks.extend_from_slice(&b[pi].0);
            rs.extend_from_slice(&b[pi].1);
            hs.extend_from_slice(&b[pi].2);
        }
        FlatRowTable::build_with_rows(&ks, &rs, &hs, part_hint)
    });
    JoinTable {
        parts,
        bits,
        hashed,
    }
}

/// Probe a [`JoinTable`] with the other side's keys and assemble the join
/// output (the program's `HashProbe` op). With `workers > 1` the probe
/// loop runs partition-parallel over contiguous chunks of the probe side;
/// chunk results are concatenated in order, so the output is identical to
/// the single-threaded probe.
///
/// `table` was built over `right` and `left` probes it, unless
/// `build_left` (semi/anti only, see the module docs): then it was built
/// over `left` and `right` probes.
#[allow(clippy::too_many_arguments)]
pub fn probe_table(
    table: &JoinTable,
    left: &Batch,
    right: &Batch,
    join_type: JoinType,
    on: &[(usize, usize)],
    residual: Option<&ExprProgram>,
    models: &ModelRegistry,
    workers: usize,
    build_left: bool,
) -> Batch {
    assert!(!on.is_empty(), "tensor joins require at least one equi key");
    assert!(
        !build_left || matches!(join_type, JoinType::Semi | JoinType::Anti),
        "only semi/anti joins build on the left (plan bug)"
    );
    let lkeys: Vec<&Tensor> = on.iter().map(|&(l, _)| &left.columns[l]).collect();
    let rkeys: Vec<&Tensor> = on.iter().map(|&(_, r)| &right.columns[r]).collect();
    let pkeys = if build_left { &rkeys } else { &lkeys };
    if !table.hashed {
        assert!(
            pkeys.len() == 1 && pkeys[0].dtype() == DType::I64,
            "probe keys must match build keys (plan bug)"
        );
    }
    // Hash the probe side exactly once, blockwise.
    let (pk, ph) = hash_keys(pkeys, table.hashed);
    let (probe_idx, build_idx) = probe_pairs(&table.parts, table.bits, &pk, &ph, workers);
    let (left_idx, right_idx) = if build_left {
        (build_idx, probe_idx)
    } else {
        (probe_idx, build_idx)
    };
    finish_join(
        left,
        right,
        join_type,
        left_idx,
        right_idx,
        table.hashed,
        on,
        residual,
        models,
    )
}

/// Pair verification + residual filtering + join-type assembly, shared by
/// both join algorithms.
#[allow(clippy::too_many_arguments)]
fn finish_join(
    left: &Batch,
    right: &Batch,
    join_type: JoinType,
    mut left_idx: Tensor,
    mut right_idx: Tensor,
    need_verify: bool,
    on: &[(usize, usize)],
    residual: Option<&ExprProgram>,
    models: &ModelRegistry,
) -> Batch {
    // Verification + residual masking over the expanded pairs.
    let mut mask: Option<Tensor> = None;
    let mut and_mask = |m: Tensor| {
        mask = Some(match mask.take() {
            Some(prev) => ops::and(&prev, &m),
            None => m,
        })
    };
    if need_verify {
        let lg: Vec<Tensor> = on
            .iter()
            .map(|&(l, _)| take(&left.columns[l], &left_idx))
            .collect();
        let rg: Vec<Tensor> = on
            .iter()
            .map(|&(_, r)| take(&right.columns[r], &right_idx))
            .collect();
        and_mask(keys_equal(&lg, &rg));
    }
    // A NULL key (an outer join's padding) matches nothing, whatever value
    // its slot happens to hold.
    for &(l, r) in on {
        for (validity, idx) in [
            (&left.validity[l], &left_idx),
            (&right.validity[r], &right_idx),
        ] {
            if let Some(valid) = validity {
                and_mask(take(valid, idx));
            }
        }
    }
    if let Some(res) = residual {
        let pair_batch = left.take(&left_idx).hcat(right.take(&right_idx));
        and_mask(exprprog::eval_mask(res, &pair_batch, models));
    }
    if let Some(m) = mask {
        let keep = mask_to_indices(&m);
        left_idx = take(&left_idx, &keep);
        right_idx = take(&right_idx, &keep);
    }

    match join_type {
        JoinType::Inner => left.take(&left_idx).hcat(right.take(&right_idx)),
        JoinType::Semi | JoinType::Anti => {
            let matched = matched_mask(left.nrows(), &left_idx);
            let want = if join_type == JoinType::Semi {
                matched
            } else {
                ops::not(&matched)
            };
            left.take(&mask_to_indices(&want))
        }
        JoinType::Left => {
            let matched = matched_mask(left.nrows(), &left_idx);
            let unmatched = mask_to_indices(&ops::not(&matched));
            let matched_out = left.take(&left_idx).hcat(right.take(&right_idx));
            let null_right = null_batch(right, unmatched.nrows());
            let unmatched_out = left.take(&unmatched).hcat(null_right);
            vcat(matched_out, unmatched_out)
        }
    }
}

/// Cartesian product (only reached for single-row scalar-subquery sides).
pub fn cross_join(left: &Batch, right: &Batch) -> Batch {
    let (ln, rn) = (left.nrows(), right.nrows());
    let left_idx = repeat_interleave(&Tensor::from_i64(vec![rn as i64; ln]));
    let mut ridx = Vec::with_capacity(ln * rn);
    for _ in 0..ln {
        for j in 0..rn as i64 {
            ridx.push(j);
        }
    }
    left.take(&left_idx)
        .hcat(right.take(&Tensor::from_i64(ridx)))
}

/// Build single-I64 key tensors from (possibly multi-column, possibly
/// non-integer) key sets. Returns `(lkey, rkey, needs_verification)`.
fn make_keys(lkeys: &[&Tensor], rkeys: &[&Tensor]) -> (Tensor, Tensor, bool) {
    if lkeys.len() == 1
        && lkeys[0].dtype() == DType::I64
        && rkeys[0].dtype() == DType::I64
        && lkeys[0].shape().len() == 1
    {
        return (lkeys[0].clone(), rkeys[0].clone(), false);
    }
    (hash_rows(lkeys), hash_rows(rkeys), true)
}

/// Sort-merge pair expansion.
fn smj_pairs(lkey: &Tensor, rkey: &Tensor) -> (Tensor, Tensor) {
    if lkey.is_empty() || rkey.is_empty() {
        return (Tensor::from_i64(vec![]), Tensor::from_i64(vec![]));
    }
    let perm_r = argsort(rkey, Order::Asc);
    let sorted = take(rkey, &perm_r);
    let lo = searchsorted(&sorted, lkey, Side::Left);
    let hi = searchsorted(&sorted, lkey, Side::Right);
    let counts = ops::binary(TB::Sub, &hi, &lo);
    let total: i64 = counts.as_i64().iter().sum();
    if total == 0 {
        return (Tensor::from_i64(vec![]), Tensor::from_i64(vec![]));
    }
    let left_idx = repeat_interleave(&counts);
    let offsets = exclusive_cumsum(&counts);
    let k = arange(0, total);
    let within = ops::binary(TB::Sub, &k, &take(&offsets, &left_idx));
    let right_sorted_pos = ops::binary(TB::Add, &take(&lo, &left_idx), &within);
    let right_idx = take(&perm_r, &right_sorted_pos);
    (left_idx, right_idx)
}

/// Minimum probe rows per worker before chunking pays for itself.
const PAR_PROBE_THRESHOLD: usize = 16 * 1024;

/// Shared probe-chunking harness: pairs are emitted in probe-row order;
/// parallel chunks concatenate in order, keeping the output bit-identical
/// to a sequential probe. `chunk_fn(lo, hi)` expands probe rows
/// `[lo, hi)` into absolute pair lists.
fn collect_pairs(
    n: usize,
    workers: usize,
    chunk_fn: &(dyn Fn(usize, usize) -> (Vec<i64>, Vec<i64>) + Sync),
) -> (Tensor, Tensor) {
    if workers <= 1 || n < PAR_PROBE_THRESHOLD * 2 {
        let (li, ri) = chunk_fn(0, n);
        return (Tensor::from_i64(li), Tensor::from_i64(ri));
    }

    let n_chunks = workers.min(n / PAR_PROBE_THRESHOLD).max(1);
    let chunk_len = n.div_ceil(n_chunks);
    let partials: Vec<(Vec<i64>, Vec<i64>)> = crate::sched::map_tasks(n_chunks, workers, |c| {
        // Probe-chunk boundary: deadline/cancellation check per chunk.
        crate::sched::check_cancelled();
        chunk_fn(c * chunk_len, ((c + 1) * chunk_len).min(n))
    });
    let total: usize = partials.iter().map(|p| p.0.len()).sum();
    let mut li = Vec::with_capacity(total);
    let mut ri = Vec::with_capacity(total);
    for part in partials {
        li.extend(part.0);
        ri.extend(part.1);
    }
    (Tensor::from_i64(li), Tensor::from_i64(ri))
}

/// Probe rows per two-phase block. The range pass is a tight loop of
/// independent directory lookups, so its cache misses overlap instead of
/// serializing behind the key-compare chain; the scan pass then walks
/// bucket runs whose `starts` lines are already hot. (A whole-chunk count
/// pass and a fused lookup+scan loop both measured slower: the former
/// pays two cold directory sweeps, the latter one dependent-load chain
/// per row.)
const PROBE_BLOCK_ROWS: usize = 1024;

/// Probe-side pair expansion: partition by the
/// hash's top bits, bucket by its masked low bits, then per
/// [`PROBE_BLOCK_ROWS`] block gather every row's bucket `[start, end)`
/// range into a stack array before scanning the contiguous key runs and
/// emitting pairs.
fn probe_pairs(
    parts: &[FlatRowTable],
    bits: u32,
    lk: &[i64],
    lh: &[u64],
    workers: usize,
) -> (Tensor, Tensor) {
    let part_of = |h: u64| -> usize {
        if bits == 0 {
            0
        } else {
            (h >> (64 - bits)) as usize
        }
    };
    collect_pairs(lk.len(), workers, &|lo, hi| {
        // At least one pair per probe row is the common inner-join case;
        // reserve for it up front, let rare high-fanout blocks grow.
        let mut li = Vec::with_capacity(hi - lo);
        let mut ri = Vec::with_capacity(hi - lo);
        let mut ranges = [(0u32, 0u32, 0u32); PROBE_BLOCK_ROWS];
        let mut b = lo;
        while b < hi {
            let e = (b + PROBE_BLOCK_ROWS).min(hi);
            for (slot, i) in (b..e).enumerate() {
                let p = part_of(lh[i]);
                let (s, t) = parts[p].bucket_range(lh[i]);
                ranges[slot] = (p as u32, s, t);
            }
            for (slot, i) in (b..e).enumerate() {
                let (p, s, t) = ranges[slot];
                let (bkeys, brows) = parts[p as usize].entries(s, t);
                let k = lk[i];
                for (bk, &r) in bkeys.iter().zip(brows) {
                    if *bk == k {
                        li.push(i as i64);
                        ri.push(r as i64);
                    }
                }
            }
            b = e;
        }
        (li, ri)
    })
}

/// `matched[i] = true` iff left row i appears in the pair list.
fn matched_mask(n: usize, left_idx: &Tensor) -> Tensor {
    let mut mask = vec![false; n];
    for &i in left_idx.as_i64() {
        mask[i as usize] = true;
    }
    Tensor::from_bool(mask)
}

/// An all-NULL batch shaped like `proto` with `n` rows.
fn null_batch(proto: &Batch, n: usize) -> Batch {
    let columns: Vec<Tensor> = proto
        .columns
        .iter()
        .map(|c| {
            if c.shape().len() == 2 {
                Tensor::from_u8_matrix(vec![0; n * c.row_width()], n, c.row_width())
            } else {
                Tensor::zeros(c.dtype(), n)
            }
        })
        .collect();
    let validity = vec![Some(Tensor::from_bool(vec![false; n])); proto.ncols()];
    Batch::with_validity(columns, validity)
}

/// Vertical concatenation of two batches (validity-aware).
fn vcat(a: Batch, b: Batch) -> Batch {
    Batch::vcat(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(cols: Vec<Tensor>) -> Batch {
        Batch::new(cols)
    }

    fn left() -> Batch {
        b(vec![
            Tensor::from_i64(vec![1, 2, 3, 4]),
            Tensor::from_f64(vec![10.0, 20.0, 30.0, 40.0]),
        ])
    }

    fn right() -> Batch {
        b(vec![
            Tensor::from_i64(vec![2, 3, 3, 9]),
            Tensor::from_strings(&["x", "y", "z", "w"], 0),
        ])
    }

    fn run(jt: JoinType, strat: JoinStrategy) -> Batch {
        join(
            &left(),
            &right(),
            jt,
            strat,
            &[(0, 0)],
            None,
            &ModelRegistry::new(),
        )
    }

    fn sorted_i64(t: &Tensor) -> Vec<i64> {
        let mut v = t.to_i64_vec();
        v.sort_unstable();
        v
    }

    #[test]
    fn inner_join_both_strategies_agree() {
        for strat in [JoinStrategy::SortMerge, JoinStrategy::Hash] {
            let out = run(JoinType::Inner, strat);
            assert_eq!(out.nrows(), 3, "{strat:?}");
            assert_eq!(sorted_i64(&out.columns[0]), vec![2, 3, 3]);
            assert_eq!(out.ncols(), 4);
        }
    }

    #[test]
    fn semi_and_anti() {
        for strat in [JoinStrategy::SortMerge, JoinStrategy::Hash] {
            let semi = run(JoinType::Semi, strat);
            assert_eq!(sorted_i64(&semi.columns[0]), vec![2, 3]);
            let anti = run(JoinType::Anti, strat);
            assert_eq!(sorted_i64(&anti.columns[0]), vec![1, 4]);
        }
    }

    #[test]
    fn left_join_null_extends() {
        let out = run(JoinType::Left, JoinStrategy::SortMerge);
        assert_eq!(out.nrows(), 5); // 3 matches + 2 unmatched
        let validity = out.validity[2].as_ref().expect("right side nullable");
        let invalid = validity.as_bool().iter().filter(|&&v| !v).count();
        assert_eq!(invalid, 2);
    }

    #[test]
    fn residual_filters_pairs() {
        use tqp_data::LogicalType;
        use tqp_ir::expr::{BinOp, BoundExpr as E};
        // Join where right string column != "y".
        let res = crate::exprprog::compile_expr(&E::Binary {
            op: BinOp::NotEq,
            left: Box::new(E::col(3, LogicalType::Str)),
            right: Box::new(E::lit_str("y")),
            ty: LogicalType::Bool,
        });
        let out = join(
            &left(),
            &right(),
            JoinType::Inner,
            JoinStrategy::SortMerge,
            &[(0, 0)],
            Some(&res),
            &ModelRegistry::new(),
        );
        assert_eq!(out.nrows(), 2); // (2,x) and (3,z); (3,y) filtered
    }

    #[test]
    fn multi_key_hash_verified() {
        let l = b(vec![
            Tensor::from_i64(vec![1, 1, 2]),
            Tensor::from_i64(vec![10, 20, 10]),
        ]);
        let r = b(vec![
            Tensor::from_i64(vec![1, 2]),
            Tensor::from_i64(vec![10, 10]),
        ]);
        for strat in [JoinStrategy::SortMerge, JoinStrategy::Hash] {
            let out = join(
                &l,
                &r,
                JoinType::Inner,
                strat,
                &[(0, 0), (1, 1)],
                None,
                &ModelRegistry::new(),
            );
            assert_eq!(out.nrows(), 2, "{strat:?}"); // (1,10) and (2,10)
        }
    }

    #[test]
    fn empty_sides() {
        let empty = b(vec![Tensor::from_i64(vec![]), Tensor::from_f64(vec![])]);
        let out = join(
            &empty,
            &right(),
            JoinType::Inner,
            JoinStrategy::SortMerge,
            &[(0, 0)],
            None,
            &ModelRegistry::new(),
        );
        assert_eq!(out.nrows(), 0);
        let out = join(
            &left(),
            &empty,
            JoinType::Anti,
            JoinStrategy::SortMerge,
            &[(0, 0)],
            None,
            &ModelRegistry::new(),
        );
        assert_eq!(out.nrows(), 4); // nothing matches → all survive anti
    }

    #[test]
    fn cross_join_product() {
        let l = b(vec![Tensor::from_i64(vec![1, 2])]);
        let r = b(vec![Tensor::from_f64(vec![0.5])]);
        let out = cross_join(&l, &r);
        assert_eq!(out.nrows(), 2);
        assert_eq!(out.columns[1].as_f64(), &[0.5, 0.5]);
    }

    /// Parallel radix-partitioned build must produce byte-identical probe
    /// output to the sequential build, at any worker count.
    #[test]
    fn parallel_build_identical_probe_output() {
        let n = PAR_BUILD_MIN_ROWS + 1357;
        // Duplicate-heavy keys so per-key buckets have >1 row (bucket row
        // order is the property under test).
        let bkeys: Vec<i64> = (0..n as i64).map(|i| i % 4096).collect();
        let bvals: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let build = b(vec![Tensor::from_i64(bkeys), Tensor::from_f64(bvals)]);
        let probe = b(vec![Tensor::from_i64(
            (0..8192i64).map(|i| i * 3 % 5000).collect(),
        )]);
        let models = ModelRegistry::new();
        // Golden output: the sort-merge join, which emits the same
        // (probe row asc, build row asc) pair order.
        let seq = sort_merge_join(&probe, &build, JoinType::Inner, &[(0, 0)], None, &models);
        let seq_table = build_table(&build, &[0]);
        // Every worker count must reproduce it bitwise.
        for workers in [1, 2, 4, 8] {
            let par_table = build_table_par(&build, &[0], workers, None);
            assert_eq!(par_table.len(), seq_table.len());
            assert_eq!(par_table.is_empty(), seq_table.is_empty());
            let par = probe_table(
                &par_table,
                &probe,
                &build,
                JoinType::Inner,
                &[(0, 0)],
                None,
                &models,
                workers,
                false,
            );
            assert_eq!(seq.nrows(), par.nrows(), "workers={workers}");
            for c in 0..seq.ncols() {
                match seq.columns[c].dtype() {
                    DType::F64 => assert_eq!(seq.columns[c].as_f64(), par.columns[c].as_f64()),
                    _ => assert_eq!(seq.columns[c].as_i64(), par.columns[c].as_i64()),
                }
            }
        }
    }

    /// Hashed (multi-key) builds partition on the row hash; the probe must
    /// still verify and return the same pairs.
    #[test]
    fn parallel_build_hashed_keys_verified() {
        let n = PAR_BUILD_MIN_ROWS + 64;
        let k1: Vec<i64> = (0..n as i64).map(|i| i % 100).collect();
        let k2: Vec<i64> = (0..n as i64).map(|i| i % 7).collect();
        let build = b(vec![Tensor::from_i64(k1), Tensor::from_i64(k2)]);
        let probe = b(vec![
            Tensor::from_i64((0..500i64).collect()),
            Tensor::from_i64((0..500i64).map(|i| i % 7).collect()),
        ]);
        let models = ModelRegistry::new();
        let on = [(0usize, 0usize), (1usize, 1usize)];
        let seq = sort_merge_join(&probe, &build, JoinType::Inner, &on, None, &models);
        for workers in [1, 4] {
            let par = probe_table(
                &build_table_par(&build, &[0, 1], workers, None),
                &probe,
                &build,
                JoinType::Inner,
                &on,
                None,
                &models,
                workers,
                false,
            );
            assert_eq!(seq.nrows(), par.nrows(), "workers={workers}");
            for c in 0..seq.ncols() {
                assert_eq!(seq.columns[c].as_i64(), par.columns[c].as_i64(), "col {c}");
            }
        }
    }

    /// The distinct hint only sizes the directory; wildly wrong hints
    /// must not change the join output.
    #[test]
    fn distinct_hint_is_output_invariant() {
        let build = b(vec![
            Tensor::from_i64((0..5000i64).map(|i| i % 37).collect()),
            Tensor::from_f64((0..5000).map(|i| i as f64).collect()),
        ]);
        let probe = b(vec![Tensor::from_i64((0..100i64).collect())]);
        let models = ModelRegistry::new();
        let golden = probe_table(
            &build_table_par(&build, &[0], 1, None),
            &probe,
            &build,
            JoinType::Inner,
            &[(0, 0)],
            None,
            &models,
            1,
            false,
        );
        for hint in [Some(1u64), Some(37), Some(1 << 40)] {
            let t = build_table_par(&build, &[0], 1, hint);
            assert_eq!(t.len(), 37);
            let out = probe_table(
                &t,
                &probe,
                &build,
                JoinType::Inner,
                &[(0, 0)],
                None,
                &models,
                1,
                false,
            );
            assert_eq!(out.nrows(), golden.nrows(), "hint={hint:?}");
            assert_eq!(out.columns[0].as_i64(), golden.columns[0].as_i64());
            assert_eq!(out.columns[1].as_i64(), golden.columns[1].as_i64());
            assert_eq!(out.columns[2].as_f64(), golden.columns[2].as_f64());
        }
    }

    /// A left-built semi/anti join emits exactly what the right-built one
    /// does: duplicate-heavy keys on both sides, with and without a
    /// residual, at every worker count (both sides are large enough for
    /// the partitioned build and the chunked probe).
    #[test]
    fn left_build_semi_anti_match_right_build() {
        use tqp_data::LogicalType;
        use tqp_ir::expr::{BinOp, BoundExpr as E};
        let n = PAR_BUILD_MIN_ROWS + 777;
        let m = 4 * PAR_PROBE_THRESHOLD + 333;
        let left = b(vec![
            Tensor::from_i64((0..n as i64).map(|i| i % 5000).collect()),
            Tensor::from_f64((0..n).map(|i| (i % 97) as f64).collect()),
        ]);
        let right = b(vec![
            Tensor::from_i64((0..m as i64).map(|i| i * 7 % 3000).collect()),
            Tensor::from_f64((0..m).map(|i| (i % 89) as f64).collect()),
        ]);
        // left.v < right.v over the combined (left ++ right) row.
        let residual = crate::exprprog::compile_expr(&E::Binary {
            op: BinOp::Lt,
            left: Box::new(E::col(1, LogicalType::Float64)),
            right: Box::new(E::col(3, LogicalType::Float64)),
            ty: LogicalType::Bool,
        });
        let models = ModelRegistry::new();
        let on = [(0usize, 0usize)];
        for join_type in [JoinType::Semi, JoinType::Anti] {
            for residual in [None, Some(&residual)] {
                let golden = probe_table(
                    &build_table(&right, &[0]),
                    &left,
                    &right,
                    join_type,
                    &on,
                    residual,
                    &models,
                    1,
                    false,
                );
                assert!(golden.nrows() > 0 && golden.nrows() < n);
                for workers in [1, 2, 4, 8] {
                    let out = probe_table(
                        &build_table_par(&left, &[0], workers, None),
                        &left,
                        &right,
                        join_type,
                        &on,
                        residual,
                        &models,
                        workers,
                        true,
                    );
                    assert_eq!(out.columns[0].as_i64(), golden.columns[0].as_i64());
                    assert_eq!(out.columns[1].as_f64(), golden.columns[1].as_f64());
                }
            }
        }
    }

    #[test]
    fn null_keys_match_nothing() {
        // Left row 1 holds a NULL key whose slot reads 3, a real right key.
        let l = Batch::with_validity(
            vec![Tensor::from_i64(vec![2, 3, 9])],
            vec![Some(Tensor::from_bool(vec![true, false, true]))],
        );
        for (strat, build_left) in [
            (JoinStrategy::SortMerge, false),
            (JoinStrategy::Hash, false),
            (JoinStrategy::Hash, true),
        ] {
            let run = |join_type| {
                if build_left {
                    let table = build_table(&l, &[0]);
                    let (r, models) = (right(), ModelRegistry::new());
                    probe_table(&table, &l, &r, join_type, &[(0, 0)], None, &models, 1, true)
                } else {
                    let models = ModelRegistry::new();
                    join(&l, &right(), join_type, strat, &[(0, 0)], None, &models)
                }
            };
            assert_eq!(run(JoinType::Semi).columns[0].as_i64(), &[2, 9]);
            assert_eq!(run(JoinType::Anti).columns[0].as_i64(), &[3]);
            if !build_left {
                assert_eq!(run(JoinType::Inner).nrows(), 2, "{strat:?}");
                assert_eq!(run(JoinType::Left).nrows(), 3, "{strat:?}");
            }
        }
    }

    #[test]
    fn string_keys_join_via_hash_path() {
        let l = b(vec![Tensor::from_strings(&["a", "b", "c"], 0)]);
        let r = b(vec![Tensor::from_strings(&["b", "c", "d"], 0)]);
        let out = join(
            &l,
            &r,
            JoinType::Semi,
            JoinStrategy::SortMerge,
            &[(0, 0)],
            None,
            &ModelRegistry::new(),
        );
        assert_eq!(out.nrows(), 2);
    }
}

//! The tensor hash join (the paper's "novel algorithms mapping relational
//! operators into tensor programs").
//!
//! The build side becomes one of two tables from [`tqp_tensor::hash`],
//! chosen from the key data alone (there is no option):
//! * **Dense** — a single `I64` key whose exact span over the valid build
//!   rows passes [`hash::dense_span_fits`] is its own address: a
//!   [`DenseRowTable`] (presence bitmap, per-word rank, contiguous row
//!   runs). The probe reads its key column in place — no copy, no hash, no
//!   key compare — and a row's matches are the run its key addresses.
//! * **Hashed** — every other key (several columns, a non-`I64` column, or
//!   an `I64` key too sparse to address) is hashed exactly once with the
//!   blockwise kernels into a 64-bit combined row hash, which a
//!   [`HashedRowTable`] takes over without a copy: a power-of-two
//!   directory over one row arena, filled by a counting pass. The probe
//!   side is hashed the same way; a probe row's candidates are the build
//!   rows of its bucket with an equal hash, and true key equality is
//!   verified on the expanded pairs (collision-safe).
//!
//! Either kind is built sequentially, by one counting pass and one fill
//! pass; only the probe runs on workers. Either way probe pairs come out
//! in (probe row asc, build row asc) order and list the same pairs, so
//! the table kind never shows in the output. Inner/left/semi/anti all
//! derive from the pair lists; residual predicates (Q13's `NOT LIKE`,
//! Q21's `<>` correlations) are evaluated over the gathered pair batch. A
//! build row with a NULL key (an outer join's padding) never enters
//! either table, and a pair whose probe key is NULL is dropped.
//!
//! Joins build on their right input. A **semi/anti** join may
//! instead build on its *left* input (`build_left`, chosen by the planner
//! when the left side is the smaller one): the right side's keys probe the
//! table and mark the left rows they match. The pair list comes out in
//! another order, but a semi/anti join only reads *which* left rows
//! matched and emits them in left order, so the output is the same
//! whichever side was built — and the same at every worker count.

use std::sync::OnceLock;

use tqp_ir::plan::JoinType;
use tqp_tensor::hash::{self, DenseRowTable, HashedRowTable};
use tqp_tensor::index::{mask_to_indices, repeat_interleave, take};
use tqp_tensor::ops;
use tqp_tensor::{DType, Tensor};

use crate::batch::Batch;
use crate::expr::keys_equal;
use crate::exprfuse;
use crate::exprprog::ExprProgram;

/// The build side of a hash join (the program's `HashBuild` op): a
/// row-index table over the build input's key columns, in one of two
/// kinds (see the module docs). Rows with a NULL in any key are left out
/// of either kind.
pub enum JoinTable {
    /// A single `I64` key addressed directly.
    Dense(DenseRowTable),
    /// Keys joined on their combined row hash; the probe verifies equality.
    Hashed(HashedRowTable),
}

impl JoinTable {
    /// Number of distinct build keys.
    pub fn len(&self) -> usize {
        match self {
            JoinTable::Dense(t) => t.len(),
            JoinTable::Hashed(t) => t.len(),
        }
    }

    /// True when no build rows were inserted.
    pub fn is_empty(&self) -> bool {
        match self {
            JoinTable::Dense(t) => t.is_empty(),
            JoinTable::Hashed(t) => t.is_empty(),
        }
    }
}

/// `exec.join.*` registry counters: builds per table kind.
struct JoinMetrics {
    dense_builds: tqp_obs::Counter,
    hashed_builds: tqp_obs::Counter,
}

fn join_metrics() -> &'static JoinMetrics {
    static METRICS: OnceLock<JoinMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = tqp_obs::registry();
        JoinMetrics {
            dense_builds: r.counter("exec.join.dense_builds"),
            hashed_builds: r.counter("exec.join.hashed_builds"),
        }
    })
}

/// The key column of a join on one bare `I64` key: the only keys a
/// [`DenseRowTable`] can address.
fn single_i64<'a>(cols: &[&'a Tensor]) -> Option<&'a [i64]> {
    match cols {
        [k] if k.dtype() == DType::I64 && k.shape().len() == 1 => Some(k.as_i64()),
        _ => None,
    }
}

/// Build the join table over `keys` of the build-side batch, in one
/// sequential pass pair: a [`DenseRowTable`] when the key is one `I64`
/// column whose span the rule admits, otherwise a [`HashedRowTable`] over
/// the keys' row hash.
pub fn build_table(build: &Batch, keys: &[usize]) -> JoinTable {
    assert!(
        !keys.is_empty(),
        "tensor joins require at least one equi key"
    );
    let cols: Vec<&Tensor> = keys.iter().map(|&k| &build.columns[k]).collect();
    let valid = keys
        .iter()
        .filter_map(|&k| build.validity[k].clone())
        .reduce(|a, b| ops::and(&a, &b));
    let valid = valid.as_ref().map(Tensor::as_bool);
    if let Some(t) = single_i64(&cols).and_then(|k| DenseRowTable::build(k, valid)) {
        join_metrics().dense_builds.inc();
        return JoinTable::Dense(t);
    }
    join_metrics().hashed_builds.inc();
    JoinTable::Hashed(HashedRowTable::build(hash::hash_columns(&cols), valid))
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
    let (probe_idx, build_idx) = match table {
        JoinTable::Dense(t) => {
            let pk = single_i64(pkeys).expect("probe keys must match build keys (plan bug)");
            dense_probe_pairs(t, pk, workers)
        }
        JoinTable::Hashed(t) => probe_pairs(t, &hash::hash_columns(pkeys), workers),
    };
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
        matches!(table, JoinTable::Hashed(_)),
        on,
        residual,
    )
}

/// Pair verification + residual filtering + join-type assembly.
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
        and_mask(exprfuse::conjunct_mask(res, &pair_batch));
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

/// Probe-side pair expansion against a [`HashedRowTable`], over the probe
/// side's row hashes: per [`PROBE_BLOCK_ROWS`] block, gather every row's
/// bucket range into a stack array, then scan the contiguous runs and
/// emit the rows whose hash matches.
fn probe_pairs(table: &HashedRowTable, hashes: &[u64], workers: usize) -> (Tensor, Tensor) {
    collect_pairs(hashes.len(), workers, &|lo, hi| {
        // At least one pair per probe row is the common inner-join case;
        // reserve for it up front, let rare high-fanout blocks grow.
        let mut li = Vec::with_capacity(hi - lo);
        let mut ri = Vec::with_capacity(hi - lo);
        let mut ranges = [(0u32, 0u32); PROBE_BLOCK_ROWS];
        let mut b = lo;
        while b < hi {
            let e = (b + PROBE_BLOCK_ROWS).min(hi);
            for (range, &h) in ranges.iter_mut().zip(&hashes[b..e]) {
                *range = table.bucket_range(h);
            }
            for (&range, i) in ranges.iter().zip(b..e) {
                for r in table.matches(range, hashes[i]) {
                    li.push(i as i64);
                    ri.push(r as i64);
                }
            }
            b = e;
        }
        (li, ri)
    })
}

/// Probe-side pair expansion against a [`DenseRowTable`]: each probe key
/// addresses its run of build rows directly, read from the key column in
/// place.
fn dense_probe_pairs(table: &DenseRowTable, keys: &[i64], workers: usize) -> (Tensor, Tensor) {
    collect_pairs(keys.len(), workers, &|lo, hi| {
        let mut li = Vec::with_capacity(hi - lo);
        let mut ri = Vec::with_capacity(hi - lo);
        for (i, &k) in (lo..hi).zip(&keys[lo..hi]) {
            for &r in table.rows_of(k) {
                li.push(i as i64);
                ri.push(r as i64);
            }
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

    /// A single-threaded join built on `right`.
    fn join(
        left: &Batch,
        right: &Batch,
        join_type: JoinType,
        on: &[(usize, usize)],
        residual: Option<&ExprProgram>,
    ) -> Batch {
        let keys: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
        let table = build_table(right, &keys);
        probe_table(&table, left, right, join_type, on, residual, 1, false)
    }

    fn run(jt: JoinType) -> Batch {
        join(&left(), &right(), jt, &[(0, 0)], None)
    }

    /// The (probe row, build row) pairs of an inner equi-join on `I64`
    /// keys, by nested loops: probe rows ascending, each probe row's
    /// matches in ascending build row order.
    fn nested_loop_pairs(probe: &[&[i64]], build: &[&[i64]]) -> (Vec<i64>, Vec<i64>) {
        let (mut p, mut b) = (Vec::new(), Vec::new());
        for i in 0..probe[0].len() {
            for j in 0..build[0].len() {
                if probe.iter().zip(build).all(|(pk, bk)| pk[i] == bk[j]) {
                    p.push(i as i64);
                    b.push(j as i64);
                }
            }
        }
        (p, b)
    }

    fn sorted_i64(t: &Tensor) -> Vec<i64> {
        let mut v = t.to_i64_vec();
        v.sort_unstable();
        v
    }

    #[test]
    fn inner_join() {
        let out = run(JoinType::Inner);
        assert_eq!(out.nrows(), 3);
        assert_eq!(sorted_i64(&out.columns[0]), vec![2, 3, 3]);
        assert_eq!(out.ncols(), 4);
    }

    #[test]
    fn semi_and_anti() {
        let semi = run(JoinType::Semi);
        assert_eq!(sorted_i64(&semi.columns[0]), vec![2, 3]);
        let anti = run(JoinType::Anti);
        assert_eq!(sorted_i64(&anti.columns[0]), vec![1, 4]);
    }

    #[test]
    fn left_join_null_extends() {
        let out = run(JoinType::Left);
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
        let out = join(&left(), &right(), JoinType::Inner, &[(0, 0)], Some(&res));
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
        let out = join(&l, &r, JoinType::Inner, &[(0, 0), (1, 1)], None);
        assert_eq!(out.nrows(), 2); // (1,10) and (2,10)
    }

    #[test]
    fn empty_sides() {
        let empty = b(vec![Tensor::from_i64(vec![]), Tensor::from_f64(vec![])]);
        let out = join(&empty, &right(), JoinType::Inner, &[(0, 0)], None);
        assert_eq!(out.nrows(), 0);
        let out = join(&left(), &empty, JoinType::Anti, &[(0, 0)], None);
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

    /// Both kinds give byte-identical probe output at every worker count,
    /// in nested-loop pair order.
    #[test]
    fn probe_output_identical_at_every_worker_count() {
        let n = 3000;
        // Duplicate-heavy keys so per-key buckets have >1 row (bucket row
        // order is the property under test), and a probe long enough to
        // chunk.
        let bkeys: Vec<i64> = (0..n as i64).map(|i| i % 1024).collect();
        let bvals: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let m = 4 * PAR_PROBE_THRESHOLD as i64;
        let pkeys: Vec<i64> = (0..m).map(|i| i * 3 % 1500).collect();
        let (pairs_p, pairs_b) = nested_loop_pairs(&[&pkeys], &[&bkeys]);
        let build = b(vec![Tensor::from_i64(bkeys), Tensor::from_f64(bvals)]);
        let probe = b(vec![Tensor::from_i64(pkeys)]);
        // Golden output: the sequential build, whose pairs come out in
        // nested-loop order (probe row asc, build row asc).
        let seq = join(&probe, &build, JoinType::Inner, &[(0, 0)], None);
        let seq_table = build_table(&build, &[0]);
        let build_rows: Vec<i64> = seq.columns[2].as_f64().iter().map(|&v| v as i64).collect();
        assert_eq!(build_rows, pairs_b);
        let probe_keys: Vec<i64> = pairs_p.iter().map(|&i| i * 3 % 1500).collect();
        assert_eq!(seq.columns[0].as_i64(), &probe_keys[..]);
        assert!(matches!(seq_table, JoinTable::Dense(_)));
        // Every worker count must reproduce it bitwise, on both kinds.
        let (chosen, hashed) = chosen_and_hashed(&build);
        for table in [&chosen, &hashed] {
            assert_eq!(table.len(), seq_table.len());
            assert_eq!(table.is_empty(), seq_table.is_empty());
            for workers in [1, 2, 4, 8] {
                let par = probe_table(
                    table,
                    &probe,
                    &build,
                    JoinType::Inner,
                    &[(0, 0)],
                    None,
                    workers,
                    false,
                );
                assert_same_batch(&seq, &par, &format!("workers={workers}"));
            }
        }
    }

    /// A multi-key join hashes; the probe verifies the keys and returns the
    /// nested-loop pairs at every worker count.
    #[test]
    fn multi_key_probe_verified_at_every_worker_count() {
        // Every key pair twice (700 = lcm(100, 7)).
        let k1: Vec<i64> = (0..1400).map(|i| i % 100).collect();
        let k2: Vec<i64> = (0..1400).map(|i| i % 7).collect();
        let m = 4 * PAR_PROBE_THRESHOLD as i64;
        let p1: Vec<i64> = (0..m).map(|i| i % 500).collect();
        let p2: Vec<i64> = (0..m).map(|i| i % 7).collect();
        let (pairs_p, pairs_b) = nested_loop_pairs(&[&p1, &p2], &[&k1, &k2]);
        let take_rows = |col: &[i64], rows: &[i64]| -> Vec<i64> {
            rows.iter().map(|&r| col[r as usize]).collect()
        };
        // Golden output, in nested-loop pair order: probe keys, then build.
        let seq = [
            take_rows(&p1, &pairs_p),
            take_rows(&p2, &pairs_p),
            take_rows(&k1, &pairs_b),
            take_rows(&k2, &pairs_b),
        ];
        let build = b(vec![Tensor::from_i64(k1), Tensor::from_i64(k2)]);
        let probe = b(vec![Tensor::from_i64(p1), Tensor::from_i64(p2)]);
        let on = [(0usize, 0usize), (1usize, 1usize)];
        let table = build_table(&build, &[0, 1]);
        assert!(matches!(table, JoinTable::Hashed(_)));
        for workers in [1, 4] {
            let par = probe_table(
                &table,
                &probe,
                &build,
                JoinType::Inner,
                &on,
                None,
                workers,
                false,
            );
            assert!(!seq[0].is_empty());
            for (c, col) in seq.iter().enumerate() {
                assert_eq!(
                    par.columns[c].as_i64(),
                    &col[..],
                    "workers={workers} col {c}"
                );
            }
        }
    }

    /// A left-built semi/anti join emits exactly what the right-built one
    /// does: duplicate-heavy keys on both sides, with and without a
    /// residual, at every worker count (the probe side is large enough to
    /// chunk).
    #[test]
    fn left_build_semi_anti_match_right_build() {
        use tqp_data::LogicalType;
        use tqp_ir::expr::{BinOp, BoundExpr as E};
        let n = 20_777;
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
                    1,
                    false,
                );
                assert!(golden.nrows() > 0 && golden.nrows() < n);
                let left_built = build_table(&left, &[0]);
                for workers in [1, 2, 4, 8] {
                    let out = probe_table(
                        &left_built,
                        &left,
                        &right,
                        join_type,
                        &on,
                        residual,
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
        for build_left in [false, true] {
            let run = |join_type| {
                if build_left {
                    let table = build_table(&l, &[0]);
                    probe_table(&table, &l, &right(), join_type, &[(0, 0)], None, 1, true)
                } else {
                    join(&l, &right(), join_type, &[(0, 0)], None)
                }
            };
            assert_eq!(run(JoinType::Semi).columns[0].as_i64(), &[2, 9]);
            assert_eq!(run(JoinType::Anti).columns[0].as_i64(), &[3]);
            if !build_left {
                assert_eq!(run(JoinType::Inner).nrows(), 2);
                assert_eq!(run(JoinType::Left).nrows(), 3);
            }
        }
    }

    #[test]
    fn string_keys_join_via_hash_path() {
        let l = b(vec![Tensor::from_strings(&["a", "b", "c"], 0)]);
        let r = b(vec![Tensor::from_strings(&["b", "c", "d"], 0)]);
        let out = join(&l, &r, JoinType::Semi, &[(0, 0)], None);
        assert_eq!(out.nrows(), 2);
    }

    /// One key column plus a row-id column, with optional key validity.
    fn keyed(keys: &[i64], valid: Option<&[bool]>) -> Batch {
        let ids = Tensor::from_i64((0..keys.len() as i64).collect());
        Batch::with_validity(
            vec![Tensor::from_i64(keys.to_vec()), ids],
            vec![valid.map(|v| Tensor::from_bool(v.to_vec())), None],
        )
    }

    /// Both kinds over one build side: what `build_table` picks, and the
    /// hashed table it would fall back to.
    fn chosen_and_hashed(build: &Batch) -> (JoinTable, JoinTable) {
        let valid = build.validity[0].as_ref().map(Tensor::as_bool);
        let hashes = hash::hash_columns(&[&build.columns[0]]);
        (
            build_table(build, &[0]),
            JoinTable::Hashed(HashedRowTable::build(hashes, valid)),
        )
    }

    fn assert_same_batch(a: &Batch, b: &Batch, ctx: &str) {
        assert_eq!(a.nrows(), b.nrows(), "{ctx}: rows");
        assert!(a.columns == b.columns, "{ctx}: columns");
        assert!(a.validity == b.validity, "{ctx}: validity");
    }

    /// A key set for the dense/hashed grid: build keys, probe keys, each
    /// with optional validity, and the kind the build must get.
    struct KeySet {
        name: &'static str,
        build: Vec<i64>,
        build_valid: Option<Vec<bool>>,
        probe: Vec<i64>,
        probe_valid: Option<Vec<bool>>,
        dense: bool,
    }

    fn key_set(name: &'static str, build: Vec<i64>, probe: Vec<i64>, dense: bool) -> KeySet {
        KeySet {
            name,
            build,
            build_valid: None,
            probe,
            probe_valid: None,
            dense,
        }
    }

    fn boundary_key_sets() -> Vec<KeySet> {
        let floor = hash::DENSE_SPAN_FLOOR as i64;
        // Enough rows that the per-row budget, not the floor, sets the rule.
        let n = 2 * hash::DENSE_SPAN_FLOOR / hash::DENSE_SPAN_PER_ROW;
        let at_rule = (n * hash::DENSE_SPAN_PER_ROW) as i64 - 1;
        let mut rule: Vec<i64> = (0..n as i64 - 1).collect();
        rule.push(at_rule);
        let mut past_rule = rule.clone();
        *past_rule.last_mut().unwrap() += 1;
        // Every build key once (a probe long enough to chunk), plus the
        // keys just outside the span.
        let rule_probe: Vec<i64> = (-1..n as i64).rev().chain([at_rule, at_rule + 1]).collect();
        let (min, max) = (i64::MIN, i64::MAX);
        let extremes = vec![max, min, 0, 1, -1, min + 1, max - 1, min, max];
        let mut nulls = key_set(
            "NULL keys on both sides",
            vec![1, 2, 2, 1 << 40, 7],
            vec![2, 1, 3, 2, 7, 1 << 40],
            true,
        );
        nulls.build_valid = Some(vec![true, true, true, false, false]);
        nulls.probe_valid = Some(vec![true, true, true, false, true, true]);
        vec![
            key_set(
                "span at the floor",
                vec![0, floor - 1, 5, 5],
                vec![0, 5, floor - 1, floor, -1, 7],
                true,
            ),
            key_set(
                "span one past the floor",
                vec![0, floor, 5, 5],
                vec![0, 5, floor, floor - 1, -1],
                false,
            ),
            key_set("span at the per-row rule", rule, rule_probe.clone(), true),
            key_set(
                "span one past the per-row rule",
                past_rule,
                rule_probe,
                false,
            ),
            key_set(
                "negative keys",
                vec![-5, -3, -5, -1000],
                vec![-5, -1000, -4, 0, -3, -5],
                true,
            ),
            key_set("i64 extremes", extremes.clone(), extremes, false),
            key_set(
                "keys at i64::MIN",
                vec![min, min + 3, min],
                vec![min, max, min + 3, min + 1, 0],
                true,
            ),
            key_set(
                "keys at i64::MAX",
                vec![max, max - 70, max],
                vec![max, min, max - 70, max - 1, -1],
                true,
            ),
            key_set("a single value", vec![9], vec![9, 8, 9, 10, min], true),
            key_set(
                "duplicate-heavy keys",
                (0..3000).map(|i| i % 7).collect(),
                (0..500).map(|i| i % 11 - 2).collect(),
                true,
            ),
            key_set("an empty build", vec![], vec![1, 2, min, max], true),
            nulls,
        ]
    }

    /// Every boundary key set gets the kind the rule says, matches the
    /// nested-loop oracle, and gives bitwise-identical batches on both
    /// kinds for inner, left, semi and anti joins, built right or (semi,
    /// anti) left, at 1, 2 and 4 workers.
    #[test]
    fn dense_and_hashed_kinds_agree_at_the_span_boundary() {
        let kinds = [
            (JoinType::Inner, false),
            (JoinType::Left, false),
            (JoinType::Semi, false),
            (JoinType::Anti, false),
            (JoinType::Semi, true),
            (JoinType::Anti, true),
        ];
        for set in boundary_key_sets() {
            let build = keyed(&set.build, set.build_valid.as_deref());
            let probe = keyed(&set.probe, set.probe_valid.as_deref());
            let is_dense = matches!(build_table(&build, &[0]), JoinTable::Dense(_));
            assert_eq!(is_dense, set.dense, "{}: table kind", set.name);

            // The oracle, over the non-NULL keys of a prefix of the probe.
            let m = set.probe.len().min(512);
            let valid = |v: &Option<Vec<bool>>, i: usize| v.as_ref().is_none_or(|v| v[i]);
            let (want_p, want_b): (Vec<i64>, Vec<i64>) = {
                let (p, b) = nested_loop_pairs(&[&set.probe[..m]], &[&set.build]);
                p.into_iter()
                    .zip(b)
                    .filter(|&(p, b)| {
                        valid(&set.probe_valid, p as usize) && valid(&set.build_valid, b as usize)
                    })
                    .unzip()
            };
            let out = join(
                &probe.slice_rows(0, m),
                &build,
                JoinType::Inner,
                &[(0, 0)],
                None,
            );
            assert_eq!(
                out.columns[1].as_i64(),
                &want_p[..],
                "{}: probe rows",
                set.name
            );
            assert_eq!(
                out.columns[3].as_i64(),
                &want_b[..],
                "{}: build rows",
                set.name
            );

            let (chosen, hashed) = chosen_and_hashed(&build);
            assert_eq!(chosen.len(), hashed.len(), "{}: distinct keys", set.name);
            assert_eq!(chosen.is_empty(), hashed.is_empty(), "{}: empty", set.name);
            for workers in [1, 2, 4] {
                for (join_type, build_left) in kinds {
                    let (l, r) = if build_left {
                        (&build, &probe)
                    } else {
                        (&probe, &build)
                    };
                    let run = |t: &JoinTable| {
                        probe_table(t, l, r, join_type, &[(0, 0)], None, workers, build_left)
                    };
                    let ctx = format!(
                        "{}: {join_type:?} build_left={build_left} workers={workers}",
                        set.name
                    );
                    let got = run(&chosen);
                    assert_same_batch(&got, &run(&hashed), &ctx);
                    if build_left {
                        let right_built = join(l, r, join_type, &[(0, 0)], None);
                        assert_same_batch(&got, &right_built, &ctx);
                    }
                }
            }
        }
    }
}

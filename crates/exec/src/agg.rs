//! Tensor aggregation: sort-based and hash-based strategies,
//! plus a **partitioned parallel** execution mode.
//!
//! Sort strategy (the tensor-native formulation, paper §2.2): multi-key
//! stable argsort → run-boundary detection → dense group ids via prefix sum
//! → segmented reductions. Hash strategy: FxHash group table with collision
//! chains → scatter reductions. `COUNT(DISTINCT x)` sorts `(keys…, x)` and
//! counts distinct runs per group.
//!
//! Group keys and aggregate arguments arrive as one **compiled
//! [`ReduceExprs`] bundle** ([`crate::program`]): a shared
//! [`crate::exprprog::ExprProgram`] whose outputs are the key columns
//! followed by the argument columns. Evaluation is a single straight-line
//! kernel pass per batch (or per morsel), so a subterm shared by several
//! aggregates (Q1's `l_extendedprice * (1 - l_discount)`) is computed
//! once — there is no per-call expression-tree walk anymore.
//!
//! ## Partitioned parallel aggregation
//!
//! [`aggregate_par`] splits the input into **fixed-size morsels**
//! ([`par_morsel_rows`], *independent of the worker count*), computes a
//! hash-grouped partial state per morsel ([`partial_aggregate`]), and folds
//! the partials in ascending morsel order ([`merge_partials`]).
//!
//! **Determinism contract**: the partial-merge tree — and therefore every
//! float rounding decision in SUM/AVG — is a pure function of the input
//! rows and the (fixed) morsel geometry. Worker threads only *schedule*
//! morsels; they never change which partials exist or the order they merge
//! in. Consequently SUM/AVG/COUNT/MIN/MAX results are **bit-identical at
//! every worker count**, which the differential suites assert at
//! `workers ∈ {1, 4}`. (`COUNT(DISTINCT)` keeps the sequential path: its
//! state is a value *set*, not a mergeable scalar.)
//!
//! Empty-input semantics (shared with the row oracle): a global aggregate
//! yields one row of zeros; a grouped aggregate yields no rows.

use std::collections::HashMap;

use tqp_data::LogicalType;
use tqp_ir::expr::AggFunc;
use tqp_ml::ModelRegistry;
use tqp_tensor::index::{concat, mask_to_indices, scatter_add_i64, take};
use tqp_tensor::reduce::{
    segmented_min_str, segmented_min_str_or_filler, segmented_reduce, segmented_reduce_i64,
    sum_f64, sum_i64, AggFn,
};
use tqp_tensor::sort::{argsort_multi, argsort_multi_par, Order, SortKey};
use tqp_tensor::unique::{group_ids, run_lengths, run_starts, Groups};
use tqp_tensor::{DType, Tensor};

use crate::batch::Batch;
use crate::expr::{hash_rows, Evaled};
use crate::exprfuse;
use crate::join::FxBuild;
use crate::program::{CompiledAgg, ReduceExprs};

/// Aggregation strategy selector (mirrors `tqp_ir::AggStrategy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    Sort,
    Hash,
}

/// Rows per aggregation morsel on the partitioned parallel path. Fixed —
/// **never derived from the worker count** — so the partial-merge tree (and
/// float rounding) depends only on the input. Override with
/// `TQP_AGG_MORSEL_ROWS` (read once per process; the parity suites shrink
/// it to exercise many-morsel merges on small test data).
pub fn par_morsel_rows() -> usize {
    static CACHE: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CACHE.get_or_init(|| {
        std::env::var("TQP_AGG_MORSEL_ROWS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&v| v >= 64)
            .unwrap_or(16 * 1024)
    })
}

/// Minimum input rows before the partitioned path engages (two morsels).
pub fn par_min_rows() -> usize {
    2 * par_morsel_rows()
}

/// True when every aggregate has a mergeable partial state.
/// `COUNT(DISTINCT)` does not (its state is a value set), so it pins the
/// whole `GroupedReduce` to the sequential path.
pub fn parallel_eligible(aggs: &[CompiledAgg]) -> bool {
    !aggs.iter().any(|a| a.func == AggFunc::CountDistinct)
}

/// Evaluate the reduce bundle over a batch: key columns (validity
/// asserted absent) and per-call argument columns.
fn eval_reduce(
    input: &Batch,
    reduce: &ReduceExprs,
    models: &ModelRegistry,
    fuse: bool,
) -> (Vec<Tensor>, Vec<Option<Evaled>>) {
    let outs = exprfuse::eval_all(&reduce.exprs, input, models, fuse);
    let keys: Vec<Tensor> = outs[..reduce.n_keys]
        .iter()
        .map(|(v, validity)| {
            assert!(
                validity.is_none(),
                "NULL group keys unsupported in the tensor engine"
            );
            v.clone()
        })
        .collect();
    let args: Vec<Option<Evaled>> = reduce
        .aggs
        .iter()
        .map(|call| call.arg.map(|slot| outs[slot].clone()))
        .collect();
    (keys, args)
}

/// Execute an aggregation over a batch, sequentially (the metered/GpuSim
/// path, where modeled time must not depend on host threads).
pub fn aggregate(
    input: &Batch,
    reduce: &ReduceExprs,
    strategy: Strategy,
    models: &ModelRegistry,
    fuse: bool,
    flat: bool,
) -> Batch {
    aggregate_seq(input, reduce, strategy, models, 1, fuse, flat)
}

/// Execute an aggregation with the partitioned parallel path when eligible
/// (input ≥ [`par_min_rows`], no `COUNT(DISTINCT)`); otherwise sequential
/// with `workers` threading only the internal argsort.
///
/// Path selection depends on the input and program alone — never on
/// `workers` — so results are bit-identical at every worker count.
pub fn aggregate_par(
    input: &Batch,
    reduce: &ReduceExprs,
    strategy: Strategy,
    models: &ModelRegistry,
    workers: usize,
    fuse: bool,
    flat: bool,
) -> Batch {
    let workers = workers.max(1);
    let n = input.nrows();
    if !parallel_eligible(&reduce.aggs) || n < par_min_rows() {
        return aggregate_seq(input, reduce, strategy, models, workers, fuse, flat);
    }
    let morsel_rows = par_morsel_rows();
    let n_morsels = n.div_ceil(morsel_rows);
    let partials = map_morsels(n_morsels, workers, |m| {
        // Morsel boundary: deadline/cancellation check per partial.
        crate::sched::check_cancelled();
        let lo = m * morsel_rows;
        let hi = ((m + 1) * morsel_rows).min(n);
        partial_aggregate(&input.slice_rows(lo, hi), reduce, models, fuse, flat)
    });
    merge_partials(
        partials,
        reduce.n_keys,
        &reduce.aggs,
        strategy,
        workers,
        flat,
    )
}

/// Run `f(m)` for every morsel index in `0..n_morsels`, scheduling
/// contiguous blocks of morsels across up to `workers` threads. Results
/// return in morsel order. This is *scheduling only*: the set of calls and
/// the result order never depend on `workers` (the determinism contract's
/// scheduling half, shared by [`aggregate_par`] and the VM's fused
/// segment+aggregation route).
pub fn map_morsels<T: Send>(
    n_morsels: usize,
    workers: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let threads = workers.min(n_morsels).max(1);
    if threads <= 1 {
        return (0..n_morsels).map(f).collect();
    }
    // Same contiguous block geometry as the scoped-thread era, but the
    // blocks are tasks on the shared pool scheduler (the process-wide
    // morsel scheduler concurrent queries submit to) instead of freshly
    // spawned threads. Block shape depends only on (n_morsels, workers),
    // never on pool occupancy, so result order — and thus the partial
    // merge order — is unchanged.
    let per_thread = n_morsels.div_ceil(threads);
    let n_blocks = n_morsels.div_ceil(per_thread);
    let blocks: Vec<Vec<T>> = crate::sched::map_tasks(n_blocks, workers, |b| {
        let lo = b * per_thread;
        let hi = ((b + 1) * per_thread).min(n_morsels);
        (lo..hi).map(&f).collect()
    });
    blocks.into_iter().flatten().collect()
}

fn aggregate_seq(
    input: &Batch,
    reduce: &ReduceExprs,
    strategy: Strategy,
    models: &ModelRegistry,
    workers: usize,
    fuse: bool,
    flat: bool,
) -> Batch {
    let (keys, args) = eval_reduce(input, reduce, models, fuse);
    if reduce.n_keys == 0 {
        return global_aggregate(input.nrows(), &reduce.aggs, &args);
    }
    match strategy {
        Strategy::Sort => sort_aggregate(&keys, &reduce.aggs, &args, input.nrows(), workers),
        Strategy::Hash => hash_aggregate(&keys, &reduce.aggs, &args, input.nrows(), flat),
    }
}

fn global_aggregate(n_rows: usize, aggs: &[CompiledAgg], args: &[Option<Evaled>]) -> Batch {
    let columns = aggs
        .iter()
        .zip(args)
        .map(|(call, arg)| match call.func {
            AggFunc::CountStar => Tensor::from_i64(vec![n_rows as i64]),
            _ => {
                let (vals, validity) = arg.clone().expect("agg arg");
                let (vals, n_valid) = apply_validity(vals, validity);
                match call.func {
                    AggFunc::Sum if call.ty == LogicalType::Int64 => {
                        Tensor::from_i64(vec![sum_i64(&vals)])
                    }
                    AggFunc::Sum => Tensor::from_f64(vec![sum_f64(&vals)]),
                    AggFunc::Avg => {
                        let s = sum_f64(&vals);
                        Tensor::from_f64(vec![if n_valid == 0 {
                            0.0
                        } else {
                            s / n_valid as f64
                        }])
                    }
                    AggFunc::Min | AggFunc::Max => global_minmax(&vals, call),
                    AggFunc::Count => Tensor::from_i64(vec![n_valid as i64]),
                    AggFunc::CountDistinct => Tensor::from_i64(vec![count_distinct_all(&vals)]),
                    AggFunc::CountStar => unreachable!(),
                }
            }
        })
        .collect();
    Batch::new(columns)
}

fn global_minmax(vals: &Tensor, call: &CompiledAgg) -> Tensor {
    let min = call.func == AggFunc::Min;
    if vals.is_empty() {
        return default_minmax(call, 1);
    }
    if vals.dtype() == DType::U8 {
        let ids = Tensor::from_i64(vec![0; vals.nrows()]);
        return segmented_min_str(vals, &ids, 1, min);
    }
    if call.ty == LogicalType::Int64 || call.ty == LogicalType::Date {
        let ids = Tensor::from_i64(vec![0; vals.nrows()]);
        return segmented_reduce_i64(vals, &ids, 1, if min { AggFn::Min } else { AggFn::Max });
    }
    let v = if min {
        tqp_tensor::reduce::min_f64(vals).unwrap_or(0.0)
    } else {
        tqp_tensor::reduce::max_f64(vals).unwrap_or(0.0)
    };
    Tensor::from_f64(vec![v])
}

/// The one-row zero defaults a global aggregate produces over empty input
/// (mirrors [`global_aggregate`] on a zero-row batch).
fn global_empty_defaults(aggs: &[CompiledAgg]) -> Batch {
    let columns = aggs
        .iter()
        .map(|call| match call.func {
            AggFunc::CountStar | AggFunc::Count | AggFunc::CountDistinct => {
                Tensor::from_i64(vec![0])
            }
            AggFunc::Sum if call.ty == LogicalType::Int64 => Tensor::from_i64(vec![0]),
            AggFunc::Sum | AggFunc::Avg => Tensor::from_f64(vec![0.0]),
            AggFunc::Min | AggFunc::Max => default_minmax(call, 1),
        })
        .collect();
    Batch::new(columns)
}

fn default_minmax(call: &CompiledAgg, n: usize) -> Tensor {
    match call.ty {
        LogicalType::Int64 | LogicalType::Date => Tensor::from_i64(vec![0; n]),
        LogicalType::Str => Tensor::from_strings(&vec![""; n], 1),
        LogicalType::Bool => Tensor::from_bool(vec![false; n]),
        LogicalType::Float64 => Tensor::from_f64(vec![0.0; n]),
    }
}

fn count_distinct_all(vals: &Tensor) -> i64 {
    if vals.is_empty() {
        return 0;
    }
    let perm = tqp_tensor::sort::argsort(vals, Order::Asc);
    let sorted = take(vals, &perm);
    let starts = run_starts(&[&sorted]);
    tqp_tensor::index::count_true(&starts) as i64
}

/// Compact away invalid rows; returns the values and the valid count.
fn apply_validity(vals: Tensor, validity: Option<Tensor>) -> (Tensor, usize) {
    match validity {
        None => {
            let n = vals.nrows();
            (vals, n)
        }
        Some(mask) => {
            let idx = mask_to_indices(&mask);
            let n = idx.nrows();
            (take(&vals, &idx), n)
        }
    }
}

// ---------------------------------------------------------------------
// Partitioned parallel path: per-morsel partials + ordered merge
// ---------------------------------------------------------------------

/// Mergeable partial aggregation state for one morsel: the morsel's group
/// keys (one row per local group, first-appearance order) and one
/// accumulator column per aggregate call.
pub struct AggPartial {
    /// Group-key columns materialized at local group firsts.
    keys: Vec<Tensor>,
    /// One partial per aggregate call, aligned with `keys` rows.
    cols: Vec<Partial>,
    /// Local group count (needed when there are no key columns).
    groups: usize,
}

/// One aggregate's per-local-group accumulator.
struct Partial {
    /// SUM/COUNT/MIN/MAX accumulator (dtype follows the aggregate). Empty
    /// valid sets hold the reduction identity (0, ±∞, `i64::MAX/MIN`).
    acc: Tensor,
    /// Valid-row count per local group — the merge uses it to finalize AVG
    /// and to reset all-NULL MIN/MAX groups to the shared default.
    counts: Option<Tensor>,
}

/// Compute the partial aggregation state of one morsel. The compiled
/// reduce program (group keys, aggregate arguments) evaluates on the
/// morsel slice, so this step parallelizes the expression work too.
pub fn partial_aggregate(
    morsel: &Batch,
    reduce: &ReduceExprs,
    models: &ModelRegistry,
    fuse: bool,
    flat: bool,
) -> AggPartial {
    let n = morsel.nrows();
    let (keys, args) = eval_reduce(morsel, reduce, models, fuse);
    let (ids, firsts) = hash_group_rows(&keys, n, flat);
    let g = firsts.nrows();
    let key_cols: Vec<Tensor> = keys.iter().map(|k| take(k, &firsts)).collect();
    let cols = reduce
        .aggs
        .iter()
        .zip(&args)
        .map(|(call, arg)| one_partial(call, arg, &ids, g))
        .collect();
    AggPartial {
        keys: key_cols,
        cols,
        groups: g,
    }
}

fn ones_i64(n: usize) -> Tensor {
    Tensor::from_i64(vec![1; n])
}

fn one_partial(call: &CompiledAgg, arg: &Option<Evaled>, ids: &Tensor, g: usize) -> Partial {
    if call.func == AggFunc::CountStar {
        return Partial {
            acc: scatter_add_i64(g, ids, &ones_i64(ids.nrows())),
            counts: None,
        };
    }
    let (vals, validity) = arg.clone().expect("agg arg");
    // Compact away invalid rows; `vids` keeps values aligned to groups.
    let (vals, vids) = match validity {
        None => (vals, ids.clone()),
        Some(mask) => {
            let idx = mask_to_indices(&mask);
            (take(&vals, &idx), take(ids, &idx))
        }
    };
    // Valid counts, only where the merge consumes them: AVG finalization
    // and the all-NULL-group reset of MIN/MAX. (COUNT *is* the count; SUM
    // merges by re-summing accumulators alone.)
    let valid_counts = || scatter_add_i64(g, &vids, &ones_i64(vids.nrows()));
    let (acc, counts) = match call.func {
        AggFunc::Sum if call.ty == LogicalType::Int64 => {
            (segmented_reduce_i64(&vals, &vids, g, AggFn::Sum), None)
        }
        AggFunc::Sum => (segmented_reduce(&vals, &vids, g, AggFn::Sum), None),
        AggFunc::Avg => (
            segmented_reduce(&vals, &vids, g, AggFn::Sum),
            Some(valid_counts()),
        ),
        AggFunc::Count => (valid_counts(), None),
        AggFunc::Min | AggFunc::Max => {
            let min = call.func == AggFunc::Min;
            let acc = if vals.dtype() == DType::U8 {
                // A local group whose valid set is empty (all rows NULL in
                // this morsel) yields an all-zero filler row; the merge
                // excludes filler rows via the zero valid count.
                segmented_min_str_or_filler(&vals, &vids, g, min)
            } else if call.ty == LogicalType::Int64 || call.ty == LogicalType::Date {
                segmented_reduce_i64(&vals, &vids, g, if min { AggFn::Min } else { AggFn::Max })
            } else {
                segmented_reduce(&vals, &vids, g, if min { AggFn::Min } else { AggFn::Max })
            };
            (acc, Some(valid_counts()))
        }
        AggFunc::CountStar | AggFunc::CountDistinct => {
            unreachable!("not eligible for partial aggregation")
        }
    };
    Partial { acc, counts }
}

/// Fold per-morsel partials into the final aggregate batch.
///
/// The partials arrive — and are concatenated — in **ascending morsel
/// order**; global group ids assign in first-encounter order over that
/// concatenation, and every segmented reduction folds accumulator rows in
/// the same order. This fixed fold order is the determinism contract: float
/// SUM/AVG results depend only on the morsel geometry, not on which worker
/// computed which partial.
///
/// Output group order matches the sequential strategies: `Hash` keeps
/// global first-appearance order, `Sort` sorts groups by their keys.
pub fn merge_partials(
    partials: Vec<AggPartial>,
    n_group_cols: usize,
    aggs: &[CompiledAgg],
    strategy: Strategy,
    workers: usize,
    flat: bool,
) -> Batch {
    let total: usize = partials.iter().map(|p| p.groups).sum();
    // A global aggregate whose every morsel came up empty (e.g. a fused
    // filter that matched nothing) must still yield the engine's one row
    // of zeros — the same empty-input semantics as the sequential path.
    if n_group_cols == 0 && total == 0 {
        return global_empty_defaults(aggs);
    }
    let merged_keys: Vec<Tensor> = (0..n_group_cols)
        .map(|c| {
            let parts: Vec<&Tensor> = partials.iter().map(|p| &p.keys[c]).collect();
            concat(&parts)
        })
        .collect();
    let (ids, firsts) = hash_group_rows(&merged_keys, total, flat);
    let g = firsts.nrows();
    let mut columns: Vec<Tensor> = merged_keys.iter().map(|k| take(k, &firsts)).collect();
    for (a, call) in aggs.iter().enumerate() {
        let accs: Vec<&Tensor> = partials.iter().map(|p| &p.cols[a].acc).collect();
        let acc = concat(&accs);
        let counts = if partials.iter().all(|p| p.cols[a].counts.is_some()) {
            let cs: Vec<&Tensor> = partials
                .iter()
                .map(|p| p.cols[a].counts.as_ref().expect("checked"))
                .collect();
            Some(concat(&cs))
        } else {
            None
        };
        columns.push(merge_one(
            call,
            &acc,
            counts.as_ref(),
            &ids,
            g,
            n_group_cols == 0,
        ));
    }
    let out = Batch::new(columns);
    if strategy == Strategy::Sort && n_group_cols > 0 {
        let sort_keys: Vec<SortKey> = out.columns[..n_group_cols]
            .iter()
            .map(|k| SortKey::asc(k.clone()))
            .collect();
        let perm = argsort_multi_par(&sort_keys, workers);
        return out.take(&perm);
    }
    out
}

/// Combine one aggregate's concatenated partial accumulators by global
/// group id. Reductions fold in concatenation (= morsel) order.
fn merge_one(
    call: &CompiledAgg,
    acc: &Tensor,
    counts: Option<&Tensor>,
    ids: &Tensor,
    g: usize,
    global: bool,
) -> Tensor {
    match call.func {
        AggFunc::CountStar | AggFunc::Count => segmented_reduce_i64(acc, ids, g, AggFn::Sum),
        AggFunc::Sum if call.ty == LogicalType::Int64 => {
            segmented_reduce_i64(acc, ids, g, AggFn::Sum)
        }
        AggFunc::Sum => segmented_reduce(acc, ids, g, AggFn::Sum),
        AggFunc::Avg => {
            let sums = segmented_reduce(acc, ids, g, AggFn::Sum);
            let cnts =
                segmented_reduce_i64(counts.expect("AVG partial counts"), ids, g, AggFn::Sum);
            let out: Vec<f64> = sums
                .as_f64()
                .iter()
                .zip(cnts.as_i64())
                .map(|(&s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
                .collect();
            Tensor::from_f64(out)
        }
        AggFunc::Min | AggFunc::Max => {
            let min = call.func == AggFunc::Min;
            if acc.dtype() == DType::U8 {
                // Exclude the filler rows of all-NULL local groups (their
                // valid count is zero); a group with no survivors at all
                // panics inside segmented_min_str — matching the
                // sequential path's "empty group in string MIN/MAX".
                let cnts = counts.expect("MIN/MAX partial counts").as_i64();
                let keep =
                    mask_to_indices(&Tensor::from_bool(cnts.iter().map(|&c| c > 0).collect()));
                // A *global* aggregate over an entirely-NULL column keeps
                // no accumulator rows at all; the sequential path
                // ([`global_minmax`] on empty input) yields the shared
                // default row, so match it instead of panicking. Grouped
                // all-NULL groups still panic on both paths.
                if global && keep.is_empty() {
                    return default_minmax(call, 1);
                }
                return segmented_min_str(&take(acc, &keep), &take(ids, &keep), g, min);
            }
            // Accumulators hold the reduction identity for all-NULL local
            // groups; a zero *total* count resets to the shared default.
            let cnts =
                segmented_reduce_i64(counts.expect("MIN/MAX partial counts"), ids, g, AggFn::Sum);
            if call.ty == LogicalType::Int64 || call.ty == LogicalType::Date {
                let r =
                    segmented_reduce_i64(acc, ids, g, if min { AggFn::Min } else { AggFn::Max });
                let fixed: Vec<i64> = r
                    .as_i64()
                    .iter()
                    .zip(cnts.as_i64())
                    .map(|(&v, &c)| if c == 0 { 0 } else { v })
                    .collect();
                Tensor::from_i64(fixed)
            } else {
                let r = segmented_reduce(acc, ids, g, if min { AggFn::Min } else { AggFn::Max });
                let fixed: Vec<f64> = r
                    .as_f64()
                    .iter()
                    .zip(cnts.as_i64())
                    .map(|(&v, &c)| if c == 0 { 0.0 } else { v })
                    .collect();
                Tensor::from_f64(fixed)
            }
        }
        AggFunc::CountDistinct => unreachable!("not eligible for partial aggregation"),
    }
}

/// Hash-group rows by key equality (collision-verified). Returns dense
/// group ids in first-appearance order plus one representative row per
/// group. Zero key columns means a single global group (the ungrouped
/// aggregate case).
///
/// Two interchangeable implementations behind `flat` (see
/// [`crate::join`]'s module docs for the rollout story): the default
/// hashes the key columns **once, blockwise**
/// ([`tqp_tensor::hash::hash_columns`]) and groups through the flat
/// open-addressing table of [`tqp_tensor::hash::group_rows_by_hash`];
/// `flat = false` keeps the legacy `HashMap` collision-chain path as a
/// differential oracle. Both assign gids in first-appearance order over a
/// sequential row scan and verify collisions through [`rows_equal`], so
/// group numbering — and therefore every aggregate output — is identical
/// whichever path runs.
fn hash_group_rows(keys: &[Tensor], n: usize, flat: bool) -> (Tensor, Tensor) {
    if keys.is_empty() {
        let firsts = if n == 0 { vec![] } else { vec![0] };
        return (Tensor::from_i64(vec![0; n]), Tensor::from_i64(firsts));
    }
    let key_refs: Vec<&Tensor> = keys.iter().collect();
    if flat {
        let hashes = tqp_tensor::hash::hash_columns(&key_refs);
        let (gids, firsts) =
            tqp_tensor::hash::group_rows_by_hash(&hashes, |i, j| rows_equal(keys, i, j));
        return (Tensor::from_i64(gids), Tensor::from_i64(firsts));
    }
    let hashes = hash_rows(&key_refs);
    let hv = hashes.as_i64();
    // hash → chain of (first_row, gid); verify on collision.
    let mut table: HashMap<i64, Vec<(u32, u32)>, FxBuild> =
        HashMap::with_capacity_and_hasher(n, FxBuild);
    let mut gids = vec![0i64; n];
    let mut firsts: Vec<i64> = Vec::new();
    for i in 0..n {
        let chain = table.entry(hv[i]).or_default();
        let mut found = None;
        for &(first, gid) in chain.iter() {
            if rows_equal(keys, i, first as usize) {
                found = Some(gid);
                break;
            }
        }
        let gid = match found {
            Some(g) => g,
            None => {
                let g = firsts.len() as u32;
                chain.push((i as u32, g));
                firsts.push(i as i64);
                g
            }
        };
        gids[i] = gid as i64;
    }
    (Tensor::from_i64(gids), Tensor::from_i64(firsts))
}

// ---------------------------------------------------------------------
// Sort strategy
// ---------------------------------------------------------------------

fn sort_aggregate(
    keys: &[Tensor],
    aggs: &[CompiledAgg],
    args: &[Option<Evaled>],
    n: usize,
    workers: usize,
) -> Batch {
    let sort_keys: Vec<SortKey> = keys.iter().map(|k| SortKey::asc(k.clone())).collect();
    let perm = argsort_multi_par(&sort_keys, workers);
    let sorted_keys: Vec<Tensor> = keys.iter().map(|k| take(k, &perm)).collect();
    let key_refs: Vec<&Tensor> = sorted_keys.iter().collect();
    let groups = group_ids(&key_refs);

    let mut columns: Vec<Tensor> = sorted_keys
        .iter()
        .map(|k| take(k, &groups.firsts))
        .collect();
    for (call, arg) in aggs.iter().zip(args) {
        columns.push(one_agg_sorted(call, arg, &perm, &groups, &sorted_keys, n));
    }
    Batch::new(columns)
}

fn one_agg_sorted(
    call: &CompiledAgg,
    arg: &Option<Evaled>,
    perm: &Tensor,
    groups: &Groups,
    sorted_keys: &[Tensor],
    n: usize,
) -> Tensor {
    let g = groups.num_groups;
    match call.func {
        AggFunc::CountStar => run_lengths(groups, n),
        AggFunc::CountDistinct => {
            let (vals, validity) = arg.clone().expect("agg arg");
            let vals = take(&vals, perm);
            let validity = validity.map(|m| take(&m, perm));
            distinct_per_group(sorted_keys, &vals, validity, groups)
        }
        _ => {
            let (vals, validity) = arg.clone().expect("agg arg");
            let vals = take(&vals, perm);
            let validity = validity.map(|m| take(&m, perm));
            let (vals, ids) = match validity {
                None => (vals, groups.ids.clone()),
                Some(mask) => {
                    let idx = mask_to_indices(&mask);
                    (take(&vals, &idx), take(&groups.ids, &idx))
                }
            };
            reduce_by_ids(&vals, &ids, g, call)
        }
    }
}

/// Segmented reduction dispatch with type- and emptiness-aware finalization.
fn reduce_by_ids(vals: &Tensor, ids: &Tensor, g: usize, call: &CompiledAgg) -> Tensor {
    match call.func {
        AggFunc::Sum if call.ty == LogicalType::Int64 => {
            segmented_reduce_i64(vals, ids, g, AggFn::Sum)
        }
        AggFunc::Sum => segmented_reduce(vals, ids, g, AggFn::Sum),
        AggFunc::Avg => segmented_reduce(vals, ids, g, AggFn::Avg),
        AggFunc::Count => {
            segmented_reduce_i64(&Tensor::from_i64(vec![1; vals.nrows()]), ids, g, AggFn::Sum)
        }
        AggFunc::Min | AggFunc::Max => {
            let min = call.func == AggFunc::Min;
            if vals.dtype() == DType::U8 {
                return minmax_str_with_defaults(vals, ids, g, min);
            }
            // Fix groups whose members were all NULL to the shared default.
            let counts =
                segmented_reduce_i64(&Tensor::from_i64(vec![1; vals.nrows()]), ids, g, AggFn::Sum);
            if call.ty == LogicalType::Int64 || call.ty == LogicalType::Date {
                let r =
                    segmented_reduce_i64(vals, ids, g, if min { AggFn::Min } else { AggFn::Max });
                let fixed: Vec<i64> = r
                    .as_i64()
                    .iter()
                    .zip(counts.as_i64())
                    .map(|(&v, &c)| if c == 0 { 0 } else { v })
                    .collect();
                Tensor::from_i64(fixed)
            } else {
                let r = segmented_reduce(vals, ids, g, if min { AggFn::Min } else { AggFn::Max });
                let fixed: Vec<f64> = r
                    .as_f64()
                    .iter()
                    .zip(counts.as_i64())
                    .map(|(&v, &c)| if c == 0 { 0.0 } else { v })
                    .collect();
                Tensor::from_f64(fixed)
            }
        }
        AggFunc::CountStar | AggFunc::CountDistinct => unreachable!("handled by caller"),
    }
}

fn minmax_str_with_defaults(vals: &Tensor, ids: &Tensor, g: usize, min: bool) -> Tensor {
    // String min/max groups are never empty in practice (no validity on
    // string aggregates in TPC-H); assert instead of patching.
    let mut seen = vec![false; g];
    for &i in ids.as_i64() {
        seen[i as usize] = true;
    }
    assert!(seen.iter().all(|&s| s), "empty group in string MIN/MAX");
    segmented_min_str(vals, ids, g, min)
}

/// Distinct `(keys, value)` runs per group — COUNT(DISTINCT x).
fn distinct_per_group(
    sorted_keys: &[Tensor],
    vals_sorted_by_keys: &Tensor,
    validity: Option<Tensor>,
    groups: &Groups,
) -> Tensor {
    // Re-sort within the key order by value (stable, so key order holds).
    let mut all_keys: Vec<SortKey> = sorted_keys
        .iter()
        .map(|k| SortKey::asc(k.clone()))
        .collect();
    all_keys.push(SortKey::asc(vals_sorted_by_keys.clone()));
    // Sorting by (keys..., val) from scratch: keys are already grouped, so a
    // stable multi-key sort reproduces group order with values ordered.
    let perm2 = argsort_multi(&all_keys);
    let vals2 = take(vals_sorted_by_keys, &perm2);
    let ids2 = take(&groups.ids, &perm2);
    let keep = validity.map(|m| mask_to_indices(&take(&m, &perm2)));
    let (vals2, ids2) = match keep {
        None => (vals2, ids2),
        Some(idx) => (take(&vals2, &idx), take(&ids2, &idx)),
    };
    // Runs over (group id, value).
    let starts = run_starts(&[&ids2, &vals2]);
    let ones = starts.cast(DType::I64).expect("bool->i64");
    tqp_tensor::index::scatter_add_i64(groups.num_groups, &ids2, &ones)
}

// ---------------------------------------------------------------------
// Hash strategy
// ---------------------------------------------------------------------

fn hash_aggregate(
    keys: &[Tensor],
    aggs: &[CompiledAgg],
    args: &[Option<Evaled>],
    n: usize,
    flat: bool,
) -> Batch {
    let (ids, firsts) = hash_group_rows(keys, n, flat);
    let g = firsts.nrows();

    let mut columns: Vec<Tensor> = keys.iter().map(|k| take(k, &firsts)).collect();
    for (call, arg) in aggs.iter().zip(args) {
        let col = match call.func {
            AggFunc::CountStar => scatter_add_i64(g, &ids, &ones_i64(n)),
            AggFunc::CountDistinct => {
                let (vals, validity) = arg.clone().expect("agg arg");
                // Sort by (gid, value) then count runs per gid.
                let perm = argsort_multi(&[SortKey::asc(ids.clone()), SortKey::asc(vals.clone())]);
                let ids_s = take(&ids, &perm);
                let vals_s = take(&vals, &perm);
                let validity_s = validity.map(|m| take(&m, &perm));
                let (ids_s, vals_s) = match validity_s {
                    None => (ids_s, vals_s),
                    Some(m) => {
                        let idx = mask_to_indices(&m);
                        (take(&ids_s, &idx), take(&vals_s, &idx))
                    }
                };
                let starts = run_starts(&[&ids_s, &vals_s]);
                let ones = starts.cast(DType::I64).expect("bool->i64");
                tqp_tensor::index::scatter_add_i64(g, &ids_s, &ones)
            }
            _ => {
                let (vals, validity) = arg.clone().expect("agg arg");
                let (vals, ids2) = match validity {
                    None => (vals, ids.clone()),
                    Some(m) => {
                        let idx = mask_to_indices(&m);
                        (take(&vals, &idx), take(&ids, &idx))
                    }
                };
                reduce_by_ids(&vals, &ids2, g, call)
            }
        };
        columns.push(col);
    }
    Batch::new(columns)
}

fn rows_equal(keys: &[Tensor], i: usize, j: usize) -> bool {
    keys.iter().all(|k| match k.dtype() {
        DType::I64 => k.as_i64()[i] == k.as_i64()[j],
        DType::I32 => k.as_i32()[i] == k.as_i32()[j],
        DType::F64 => k.as_f64()[i].to_bits() == k.as_f64()[j].to_bits(),
        DType::Bool => k.as_bool()[i] == k.as_bool()[j],
        DType::U8 => k.str_row(i) == k.str_row(j),
        DType::F32 => k.as_f32()[i].to_bits() == k.as_f32()[j].to_bits(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqp_ir::expr::{AggCall, BoundExpr as E};

    fn batch() -> Batch {
        Batch::new(vec![
            Tensor::from_strings(&["a", "b", "a", "b", "a"], 0),
            Tensor::from_f64(vec![1.0, 2.0, 3.0, 4.0, 5.0]),
            Tensor::from_i64(vec![7, 7, 8, 8, 7]),
        ])
    }

    fn call(func: AggFunc, col: usize, ty: LogicalType) -> AggCall {
        let arg_ty = if col == 1 {
            LogicalType::Float64
        } else {
            LogicalType::Int64
        };
        AggCall {
            func,
            arg: Some(E::col(col, arg_ty)),
            ty,
        }
    }

    fn star() -> AggCall {
        AggCall {
            func: AggFunc::CountStar,
            arg: None,
            ty: LogicalType::Int64,
        }
    }

    fn reduce_of(group_by: &[E], aggs: &[AggCall]) -> ReduceExprs {
        ReduceExprs::compile(group_by, aggs)
    }

    fn run(strategy: Strategy) -> Batch {
        aggregate(
            &batch(),
            &reduce_of(
                &[E::col(0, LogicalType::Str)],
                &[
                    call(AggFunc::Sum, 1, LogicalType::Float64),
                    star(),
                    call(AggFunc::Min, 1, LogicalType::Float64),
                    call(AggFunc::Max, 1, LogicalType::Float64),
                    call(AggFunc::Avg, 1, LogicalType::Float64),
                    call(AggFunc::CountDistinct, 2, LogicalType::Int64),
                ],
            ),
            strategy,
            &ModelRegistry::new(),
            true,
            true,
        )
    }

    fn group_of(out: &Batch, key: &str) -> Vec<f64> {
        for i in 0..out.nrows() {
            if out.columns[0].str_at(i) == key {
                return (1..out.ncols())
                    .map(|c| match out.columns[c].dtype() {
                        DType::F64 => out.columns[c].as_f64()[i],
                        DType::I64 => out.columns[c].as_i64()[i] as f64,
                        _ => panic!(),
                    })
                    .collect();
            }
        }
        panic!("group {key} missing");
    }

    #[test]
    fn sort_and_hash_agree() {
        for strat in [Strategy::Sort, Strategy::Hash] {
            let out = run(strat);
            assert_eq!(out.nrows(), 2, "{strat:?}");
            // a: vals 1,3,5; i64 7,8,7 → 2 distinct
            assert_eq!(group_of(&out, "a"), vec![9.0, 3.0, 1.0, 5.0, 3.0, 2.0]);
            // b: vals 2,4; i64 7,8 → 2 distinct
            assert_eq!(group_of(&out, "b"), vec![6.0, 2.0, 2.0, 4.0, 3.0, 2.0]);
        }
    }

    #[test]
    fn shared_subterms_compile_once_across_aggregates() {
        // SUM(v * 2) and AVG(v * 2) share the argument subterm; the
        // compiled bundle computes it once (CSE across agg inputs).
        let shared = E::Binary {
            op: tqp_ir::expr::BinOp::Mul,
            left: Box::new(E::col(1, LogicalType::Float64)),
            right: Box::new(E::lit_f64(2.0)),
            ty: LogicalType::Float64,
        };
        let reduce = reduce_of(
            &[E::col(0, LogicalType::Str)],
            &[
                AggCall {
                    func: AggFunc::Sum,
                    arg: Some(shared.clone()),
                    ty: LogicalType::Float64,
                },
                AggCall {
                    func: AggFunc::Avg,
                    arg: Some(shared.clone()),
                    ty: LogicalType::Float64,
                },
            ],
        );
        // Both arg slots resolve to the same output register.
        assert_eq!(
            reduce.exprs.outputs[reduce.aggs[0].arg.unwrap()],
            reduce.exprs.outputs[reduce.aggs[1].arg.unwrap()]
        );
        let out = aggregate(
            &batch(),
            &reduce,
            Strategy::Sort,
            &ModelRegistry::new(),
            true,
            true,
        );
        assert_eq!(group_of(&out, "a"), vec![18.0, 6.0]);
    }

    #[test]
    fn global_aggregates() {
        let out = aggregate(
            &batch(),
            &reduce_of(
                &[],
                &[
                    call(AggFunc::Sum, 1, LogicalType::Float64),
                    star(),
                    call(AggFunc::CountDistinct, 2, LogicalType::Int64),
                ],
            ),
            Strategy::Sort,
            &ModelRegistry::new(),
            true,
            true,
        );
        assert_eq!(out.nrows(), 1);
        assert_eq!(out.columns[0].as_f64(), &[15.0]);
        assert_eq!(out.columns[1].as_i64(), &[5]);
        assert_eq!(out.columns[2].as_i64(), &[2]);
    }

    #[test]
    fn global_empty_input_defaults() {
        let empty = Batch::new(vec![
            Tensor::from_strings(&[], 1),
            Tensor::from_f64(vec![]),
            Tensor::from_i64(vec![]),
        ]);
        let out = aggregate(
            &empty,
            &reduce_of(
                &[],
                &[
                    call(AggFunc::Sum, 1, LogicalType::Float64),
                    star(),
                    call(AggFunc::Min, 1, LogicalType::Float64),
                    call(AggFunc::Avg, 1, LogicalType::Float64),
                ],
            ),
            Strategy::Sort,
            &ModelRegistry::new(),
            true,
            true,
        );
        assert_eq!(out.nrows(), 1);
        assert_eq!(out.columns[0].as_f64(), &[0.0]);
        assert_eq!(out.columns[1].as_i64(), &[0]);
        assert_eq!(out.columns[2].as_f64(), &[0.0]);
        assert_eq!(out.columns[3].as_f64(), &[0.0]);
    }

    #[test]
    fn grouped_empty_input_no_rows() {
        let empty = Batch::new(vec![
            Tensor::from_strings(&[], 1),
            Tensor::from_f64(vec![]),
            Tensor::from_i64(vec![]),
        ]);
        let out = aggregate(
            &empty,
            &reduce_of(&[E::col(0, LogicalType::Str)], &[star()]),
            Strategy::Sort,
            &ModelRegistry::new(),
            true,
            true,
        );
        assert_eq!(out.nrows(), 0);
    }

    #[test]
    fn validity_skipped_in_count_and_sum() {
        // Simulates a left-join output: 2 valid + 1 invalid value.
        let b = Batch::with_validity(
            vec![
                Tensor::from_i64(vec![1, 1, 1]),
                Tensor::from_f64(vec![10.0, 99.0, 20.0]),
            ],
            vec![None, Some(Tensor::from_bool(vec![true, false, true]))],
        );
        for strat in [Strategy::Sort, Strategy::Hash] {
            let out = aggregate(
                &b,
                &reduce_of(
                    &[E::col(0, LogicalType::Int64)],
                    &[
                        AggCall {
                            func: AggFunc::Count,
                            arg: Some(E::col(1, LogicalType::Float64)),
                            ty: LogicalType::Int64,
                        },
                        AggCall {
                            func: AggFunc::Sum,
                            arg: Some(E::col(1, LogicalType::Float64)),
                            ty: LogicalType::Float64,
                        },
                        star(),
                    ],
                ),
                strat,
                &ModelRegistry::new(),
                true,
                true,
            );
            assert_eq!(out.columns[1].as_i64(), &[2], "{strat:?}");
            assert_eq!(out.columns[2].as_f64(), &[30.0]);
            assert_eq!(out.columns[3].as_i64(), &[3]);
        }
    }

    /// Adversarial float magnitudes: values whose sum is exquisitely
    /// sensitive to association order. Locks in the deterministic
    /// partial-merge contract — SUM/AVG are bit-identical at every worker
    /// count because morsel geometry and merge order never change.
    #[test]
    fn parallel_float_sum_bit_identical_across_worker_counts() {
        let n = par_min_rows() * 2 + 4321;
        let vals: Vec<f64> = (0..n)
            .map(|i| match i % 4 {
                0 => 1e18,
                1 => 1.0,
                2 => -1e18,
                _ => 0.1 + (i % 997) as f64 * 1e-7,
            })
            .collect();
        let grp: Vec<i64> = (0..n).map(|i| (i % 3) as i64).collect();
        let b = Batch::new(vec![Tensor::from_i64(grp), Tensor::from_f64(vals)]);
        let reduce = reduce_of(
            &[E::col(0, LogicalType::Int64)],
            &[
                call(AggFunc::Sum, 1, LogicalType::Float64),
                call(AggFunc::Avg, 1, LogicalType::Float64),
                call(AggFunc::Min, 1, LogicalType::Float64),
                call(AggFunc::Max, 1, LogicalType::Float64),
                star(),
            ],
        );
        let models = ModelRegistry::new();
        for strat in [Strategy::Sort, Strategy::Hash] {
            let one = aggregate_par(&b, &reduce, strat, &models, 1, true, true);
            for workers in [2, 5, 8] {
                let many = aggregate_par(&b, &reduce, strat, &models, workers, true, true);
                assert_eq!(one.nrows(), many.nrows(), "{strat:?}");
                for c in 0..one.ncols() {
                    match one.columns[c].dtype() {
                        DType::F64 => {
                            let x: Vec<u64> = one.columns[c]
                                .as_f64()
                                .iter()
                                .map(|v| v.to_bits())
                                .collect();
                            let y: Vec<u64> = many.columns[c]
                                .as_f64()
                                .iter()
                                .map(|v| v.to_bits())
                                .collect();
                            assert_eq!(x, y, "{strat:?} col {c} workers {workers}: float bits");
                        }
                        _ => assert_eq!(
                            one.columns[c].as_i64(),
                            many.columns[c].as_i64(),
                            "{strat:?} col {c} workers {workers}"
                        ),
                    }
                }
            }
            // The sequential path must agree exactly on everything
            // association-insensitive: the group set, MIN, MAX, and
            // COUNT(*). SUM/AVG are deliberately excluded here — with
            // these magnitudes the value genuinely depends on association
            // order (that is what makes the input adversarial); their
            // seq-vs-par agreement is asserted on benign values in
            // `parallel_grouped_matches_sequential`.
            let seq = aggregate(&b, &reduce, strat, &models, true, true);
            assert_eq!(seq.nrows(), one.nrows(), "{strat:?}");
            assert_eq!(
                seq.columns[0].as_i64(),
                one.columns[0].as_i64(),
                "{strat:?} keys"
            );
            for c in [3, 4] {
                let s: Vec<u64> = seq.columns[c]
                    .as_f64()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                let p: Vec<u64> = one.columns[c]
                    .as_f64()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                assert_eq!(s, p, "{strat:?} col {c}: seq-vs-par MIN/MAX bits");
            }
            assert_eq!(
                seq.columns[5].as_i64(),
                one.columns[5].as_i64(),
                "{strat:?} count"
            );
        }
    }

    /// The partitioned path agrees with the sequential strategies on exact
    /// (integer/count) results, group sets, and output order, including
    /// validity-masked inputs (the left-join NULL case).
    #[test]
    fn parallel_grouped_matches_sequential() {
        let n = par_min_rows() + 999;
        let grp: Vec<i64> = (0..n).map(|i| ((i * 7) % 5) as i64).collect();
        let vals: Vec<f64> = (0..n).map(|i| (i % 89) as f64).collect();
        let ints: Vec<i64> = (0..n).map(|i| (i % 13) as i64).collect();
        let valid: Vec<bool> = (0..n).map(|i| i % 11 != 0).collect();
        let b = Batch::with_validity(
            vec![
                Tensor::from_i64(grp),
                Tensor::from_f64(vals),
                Tensor::from_i64(ints),
            ],
            vec![None, Some(Tensor::from_bool(valid)), None],
        );
        let reduce = reduce_of(
            &[E::col(0, LogicalType::Int64)],
            &[
                star(),
                AggCall {
                    func: AggFunc::Count,
                    arg: Some(E::col(1, LogicalType::Float64)),
                    ty: LogicalType::Int64,
                },
                call(AggFunc::Sum, 2, LogicalType::Int64),
                call(AggFunc::Min, 2, LogicalType::Int64),
                call(AggFunc::Max, 2, LogicalType::Int64),
            ],
        );
        let models = ModelRegistry::new();
        for strat in [Strategy::Sort, Strategy::Hash] {
            let seq = aggregate(&b, &reduce, strat, &models, true, true);
            let par = aggregate_par(&b, &reduce, strat, &models, 4, true, true);
            assert_eq!(seq.nrows(), par.nrows(), "{strat:?}");
            for c in 0..seq.ncols() {
                assert_eq!(
                    seq.columns[c].as_i64(),
                    par.columns[c].as_i64(),
                    "{strat:?} col {c}"
                );
            }
        }
    }

    /// Global (ungrouped) aggregates take the same partitioned path.
    #[test]
    fn parallel_global_bit_identical_across_worker_counts() {
        let n = par_min_rows() + 17;
        let vals: Vec<f64> = (0..n)
            .map(|i| if i % 2 == 0 { 1e15 } else { -1e15 + 0.5 })
            .collect();
        let b = Batch::new(vec![Tensor::from_i64(vec![0; n]), Tensor::from_f64(vals)]);
        let reduce = reduce_of(
            &[],
            &[
                call(AggFunc::Sum, 1, LogicalType::Float64),
                call(AggFunc::Avg, 1, LogicalType::Float64),
                star(),
            ],
        );
        let models = ModelRegistry::new();
        let one = aggregate_par(&b, &reduce, Strategy::Sort, &models, 1, true, true);
        let many = aggregate_par(&b, &reduce, Strategy::Sort, &models, 6, true, true);
        assert_eq!(one.nrows(), 1);
        assert_eq!(
            one.columns[0].as_f64()[0].to_bits(),
            many.columns[0].as_f64()[0].to_bits()
        );
        assert_eq!(
            one.columns[1].as_f64()[0].to_bits(),
            many.columns[1].as_f64()[0].to_bits()
        );
        assert_eq!(one.columns[2].as_i64(), many.columns[2].as_i64());
    }

    /// A global MIN/MAX over an entirely-NULL string column (e.g. after a
    /// left join where no probe row matched) must return the sequential
    /// path's default row on the partitioned path too, not panic — the
    /// same query must not crash or succeed depending on whether the row
    /// count crosses the partitioned threshold.
    #[test]
    fn parallel_global_all_null_string_minmax_matches_sequential() {
        let n = par_min_rows() + 7;
        let strs: Vec<&str> = vec!["x"; n];
        let b = Batch::with_validity(
            vec![Tensor::from_strings(&strs, 0)],
            vec![Some(Tensor::from_bool(vec![false; n]))],
        );
        let reduce = reduce_of(
            &[],
            &[
                AggCall {
                    func: AggFunc::Min,
                    arg: Some(E::col(0, LogicalType::Str)),
                    ty: LogicalType::Str,
                },
                AggCall {
                    func: AggFunc::Max,
                    arg: Some(E::col(0, LogicalType::Str)),
                    ty: LogicalType::Str,
                },
                star(),
            ],
        );
        let models = ModelRegistry::new();
        let seq = aggregate(&b, &reduce, Strategy::Hash, &models, true, true);
        for workers in [1usize, 4] {
            let par = aggregate_par(&b, &reduce, Strategy::Hash, &models, workers, true, true);
            assert_eq!(seq.nrows(), par.nrows(), "workers {workers}");
            assert_eq!(seq.columns[0].str_at(0), par.columns[0].str_at(0));
            assert_eq!(seq.columns[1].str_at(0), par.columns[1].str_at(0));
            assert_eq!(seq.columns[2].as_i64(), par.columns[2].as_i64());
        }
    }

    /// Nullable string aggregate arguments (the left-join NULL-padding
    /// case) must work on the partitioned path exactly as they do
    /// sequentially: COUNT skips NULLs, MIN/MAX reduce over the valid
    /// subset — even when a whole *morsel*'s slice of a group is NULL.
    #[test]
    fn parallel_nullable_string_aggregates_match_sequential() {
        let n = par_min_rows() + 123;
        let words = ["pear", "apple", "kiwi", "zed"];
        let grp: Vec<i64> = (0..n).map(|i| (i % 3) as i64).collect();
        let strs: Vec<String> = (0..n).map(|i| words[i % 4].to_string()).collect();
        // Group 2 is NULL everywhere except one early row, so entire
        // morsels of it are all-NULL (the filler-row merge case).
        let valid: Vec<bool> = (0..n).map(|i| i % 3 != 2 || i == 2).collect();
        let b = Batch::with_validity(
            vec![Tensor::from_i64(grp), {
                let refs: Vec<&str> = strs.iter().map(|s| s.as_str()).collect();
                Tensor::from_strings(&refs, 0)
            }],
            vec![None, Some(Tensor::from_bool(valid))],
        );
        let reduce = reduce_of(
            &[E::col(0, LogicalType::Int64)],
            &[
                AggCall {
                    func: AggFunc::Count,
                    arg: Some(E::col(1, LogicalType::Str)),
                    ty: LogicalType::Int64,
                },
                AggCall {
                    func: AggFunc::Min,
                    arg: Some(E::col(1, LogicalType::Str)),
                    ty: LogicalType::Str,
                },
                AggCall {
                    func: AggFunc::Max,
                    arg: Some(E::col(1, LogicalType::Str)),
                    ty: LogicalType::Str,
                },
            ],
        );
        let models = ModelRegistry::new();
        for strat in [Strategy::Sort, Strategy::Hash] {
            let seq = aggregate(&b, &reduce, strat, &models, true, true);
            for workers in [1usize, 4] {
                let par = aggregate_par(&b, &reduce, strat, &models, workers, true, true);
                assert_eq!(seq.nrows(), par.nrows(), "{strat:?}");
                assert_eq!(seq.columns[1].as_i64(), par.columns[1].as_i64());
                for r in 0..seq.nrows() {
                    assert_eq!(seq.columns[2].str_at(r), par.columns[2].str_at(r));
                    assert_eq!(seq.columns[3].str_at(r), par.columns[3].str_at(r));
                }
            }
        }
    }

    #[test]
    fn string_minmax_grouped() {
        let b = Batch::new(vec![
            Tensor::from_i64(vec![1, 1, 2]),
            Tensor::from_strings(&["pear", "apple", "kiwi"], 0),
        ]);
        let out = aggregate(
            &b,
            &reduce_of(
                &[E::col(0, LogicalType::Int64)],
                &[AggCall {
                    func: AggFunc::Min,
                    arg: Some(E::col(1, LogicalType::Str)),
                    ty: LogicalType::Str,
                }],
            ),
            Strategy::Sort,
            &ModelRegistry::new(),
            true,
            true,
        );
        assert_eq!(out.columns[1].str_at(0), "apple");
        assert_eq!(out.columns[1].str_at(1), "kiwi");
    }
}

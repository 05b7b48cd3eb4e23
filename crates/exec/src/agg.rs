//! Tensor aggregation: one grouping algorithm, two parallel shapes.
//!
//! Grouping hashes the key columns once, blockwise, and assigns dense
//! group ids in first-appearance order through the open-addressing table
//! of [`tqp_tensor::hash::group_rows_by_hash`] (collisions verified by
//! key equality); aggregates are segmented reductions by group id.
//! `COUNT(DISTINCT x)` sorts `(group id, x)` and counts distinct runs per
//! group. The plan's [`Strategy`] only picks the output order: `Hash`
//! emits groups in first-appearance order, `Sort` in key order (the hash
//! aggregate's groups, then a stable argsort by key — each group's rows
//! still fold in ascending input order, so the two differ by a
//! permutation of whole rows and nothing else).
//!
//! Group keys and aggregate arguments arrive as one **compiled
//! [`ReduceExprs`] bundle** ([`crate::program`]): a shared
//! [`crate::exprprog::ExprProgram`] whose outputs are the key columns
//! followed by the argument columns. Evaluation is a single straight-line
//! kernel pass per batch (or per morsel), so a subterm shared by several
//! aggregates (Q1's `l_extendedprice * (1 - l_discount)`) is computed
//! once — there is no per-call expression-tree walk anymore.
//!
//! ## Morsel-parallel aggregation: two shapes, chosen by the plan
//!
//! [`aggregate_morsels`] is the one driver: the caller hands it a closure
//! producing the aggregate's input one **fixed-geometry morsel** at a time
//! ([`par_morsel_rows`] rows of the source, *independent of the worker
//! count* — a slice of a batch, or a scan morsel pushed through a fused
//! filter/project chain), and the [`Shape`] the plan's group-count
//! estimate selects ([`morsel_shape`]):
//!
//! * [`Shape::Partial`] — groups ≪ rows (Q1: 4 groups). Every morsel
//!   hash-groups into a partial state (`partial_aggregate`); the partials
//!   fold in ascending morsel order (`merge_partials`). Group order is
//!   first appearance over the concatenated partials; float SUM/AVG
//!   association is *per morsel, then across morsels* — a pure function of
//!   the input rows and the morsel geometry.
//! * [`Shape::Partitioned`] — groups ≈ rows (Q17/Q18/Q20: a morsel cannot
//!   reduce, so partials only re-group later). Every morsel evaluates the
//!   reduce bundle, hashes the keys and clusters its rows by the hash's
//!   **top bits** (the group table probes with the low bits, so the two
//!   stay independent); then one task per partition concatenates its
//!   slice of every morsel — its rows in ascending input order — and
//!   hash-aggregates them once. A group lives in exactly one partition and
//!   its rows fold in ascending row order, so the result is **bit-for-bit
//!   the sequential aggregate** — keys, order (groups are emitted by
//!   ascending first-row index) and float association — whatever the
//!   morsel geometry, the partition count or the worker count. That is why
//!   the partition count is free, why pruned, unpruned and in-memory scans
//!   agree, and why `COUNT(DISTINCT)` may ride this shape although it has
//!   no mergeable partial.
//!
//! **Determinism contract**: worker threads only *schedule* morsels and
//! partitions; they never change which partials exist, the order they
//! merge in, or the rows of a partition. Results are bit-identical at
//! every worker count on both shapes.
//!
//! Empty-input semantics (shared with the row oracle): a global aggregate
//! yields one row of zeros; a grouped aggregate yields no rows.

use std::time::Instant;

use tqp_data::LogicalType;
use tqp_ir::expr::AggFunc;
use tqp_ml::ModelRegistry;
use tqp_tensor::index::{concat, mask_to_indices, scatter_add_i64, take};
use tqp_tensor::reduce::{
    segmented_min_str, segmented_min_str_or_filler, segmented_reduce, segmented_reduce_i64,
    sum_f64, sum_i64, AggFn,
};
use tqp_tensor::sort::{argsort_multi, argsort_multi_par, Order, SortKey};
use tqp_tensor::unique::run_starts;
use tqp_tensor::{DType, Tensor};

use crate::batch::Batch;
use crate::expr::Evaled;
use crate::exprfuse;
use crate::program::{CompiledAgg, ReduceExprs};

/// Aggregation strategy selector (the plan's).
pub use tqp_ir::physical::AggStrategy as Strategy;

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

/// How a morsel-driven `GroupedReduce` executes (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Per-morsel partial states, folded in morsel order.
    Partial,
    /// Rows radix-partitioned by key hash, each partition aggregated once.
    Partitioned,
}

impl Shape {
    /// The shape the planner's group-count estimate selects for a grouped
    /// reduction: partitioned when a morsel could not reduce (more than
    /// half a morsel of estimated groups), per-morsel partials otherwise
    /// and without an estimate.
    pub fn for_groups(est_groups: Option<u64>) -> Shape {
        match est_groups {
            Some(g) if g > (par_morsel_rows() / 2) as u64 => Shape::Partitioned,
            _ => Shape::Partial,
        }
    }

    /// Lower-case name, as `EXPLAIN` prints it.
    pub fn name(self) -> &'static str {
        match self {
            Shape::Partial => "partial",
            Shape::Partitioned => "partitioned",
        }
    }
}

/// The shape `reduce` takes over morsels ([`Shape::for_groups`]; a global
/// reduction has nothing to partition by), or `None` when it must run
/// sequentially: `COUNT(DISTINCT)`'s state is a value set, not a mergeable
/// partial, so it rides the partitioned shape only.
pub fn morsel_shape(reduce: &ReduceExprs, est_groups: Option<u64>) -> Option<Shape> {
    let shape = if reduce.n_keys > 0 {
        Shape::for_groups(est_groups)
    } else {
        Shape::Partial
    };
    let distinct = reduce.aggs.iter().any(|a| a.func == AggFunc::CountDistinct);
    (shape == Shape::Partitioned || !distinct).then_some(shape)
}

/// Split evaluated reduce outputs into key columns (validity asserted
/// absent) and per-call argument columns.
fn split_outs(outs: &[Evaled], reduce: &ReduceExprs) -> (Vec<Tensor>, Vec<Option<Evaled>>) {
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

/// Evaluate the reduce bundle over a batch: key and argument columns.
fn eval_reduce(
    input: &Batch,
    reduce: &ReduceExprs,
    models: &ModelRegistry,
) -> (Vec<Tensor>, Vec<Option<Evaled>>) {
    split_outs(&exprfuse::eval_all(&reduce.exprs, input, models), reduce)
}

/// Execute an aggregation over a whole batch on the calling thread:
/// metered/GpuSim runs (modeled time must not depend on host threads, so
/// they pass `workers = 1`), inputs under [`par_min_rows`], and reductions
/// [`morsel_shape`] refuses. `workers` threads only the `Sort` strategy's
/// key-order argsort, whose permutation is unique.
pub fn aggregate(
    input: &Batch,
    reduce: &ReduceExprs,
    strategy: Strategy,
    models: &ModelRegistry,
    workers: usize,
) -> Batch {
    let (keys, args) = eval_reduce(input, reduce, models);
    if reduce.n_keys == 0 {
        return global_aggregate(input.nrows(), &reduce.aggs, &args);
    }
    let out = hash_aggregate(&keys, &reduce.aggs, &args, input.nrows()).0;
    match strategy {
        Strategy::Sort => sort_groups_by_key(out, reduce.n_keys, workers),
        Strategy::Hash => out,
    }
}

/// The morsel driver behind every parallel `GroupedReduce`: `morsel(m)`
/// yields the aggregate's input rows of morsel `m` (plus whatever the
/// caller wants back per morsel, e.g. its chain's op samples), `shape`
/// says what to do with them. Returns the aggregate, the per-morsel extras
/// in morsel order, and the **worker time** spent aggregating in µs
/// (summed over tasks, excluding the time inside `morsel`).
///
/// Callers fix the morsel geometry from the data alone ([`par_morsel_rows`]
/// over the source's original row space) and pick `shape` from the plan
/// ([`morsel_shape`]) — never from `workers` — so results are bit-identical
/// at every worker count.
#[allow(clippy::too_many_arguments)]
pub fn aggregate_morsels<S: Send>(
    n_morsels: usize,
    morsel: impl Fn(usize) -> (Batch, S) + Sync,
    shape: Shape,
    reduce: &ReduceExprs,
    strategy: Strategy,
    models: &ModelRegistry,
    workers: usize,
) -> (Batch, Vec<S>, u64) {
    let workers = workers.max(1);
    match shape {
        Shape::Partial => {
            let (partials, extras, busy_us) = each_morsel(n_morsels, workers, morsel, |rows| {
                partial_aggregate(rows, reduce, models)
            });
            // The merge runs on this thread.
            let t0 = Instant::now();
            let out = merge_partials(partials, reduce.n_keys, &reduce.aggs, strategy, workers);
            (out, extras, busy_us + t0.elapsed().as_micros() as u64)
        }
        Shape::Partitioned => {
            let bits = partition_bits(n_morsels);
            let (binned, extras, busy_us) = each_morsel(n_morsels, workers, morsel, |rows| {
                bin_morsel(rows, reduce, models, bits)
            });
            let (out, tasks_us) = aggregate_partitions(&binned, bits, reduce, strategy, workers);
            (out, extras, busy_us + tasks_us)
        }
    }
}

/// Phase 1 of either shape, one task per morsel: `work` over the rows
/// `morsel(m)` yields. Returns the per-morsel results and extras in morsel
/// order and the time spent inside `work`, summed, µs.
fn each_morsel<S: Send, T: Send>(
    n_morsels: usize,
    workers: usize,
    morsel: impl Fn(usize) -> (Batch, S) + Sync,
    work: impl Fn(&Batch) -> T + Sync,
) -> (Vec<T>, Vec<S>, u64) {
    let done = map_morsels(n_morsels, workers, |m| {
        // Morsel boundary: deadline/cancellation check.
        crate::sched::check_cancelled();
        let (rows, extra) = morsel(m);
        let t0 = Instant::now();
        (work(&rows), extra, t0.elapsed().as_micros() as u64)
    });
    let mut results = Vec::with_capacity(n_morsels);
    let mut extras = Vec::with_capacity(n_morsels);
    let mut busy_us = 0u64;
    for (result, extra, us) in done {
        results.push(result);
        extras.push(extra);
        busy_us += us;
    }
    (results, extras, busy_us)
}

/// Run `f(m)` for every morsel index in `0..n_morsels`, scheduling
/// contiguous blocks of morsels across up to `workers` threads. Results
/// return in morsel order. This is *scheduling only*: the set of calls and
/// the result order never depend on `workers` (the determinism contract's
/// scheduling half).
fn map_morsels<T: Send>(n_morsels: usize, workers: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = workers.min(n_morsels).max(1);
    if threads <= 1 {
        return (0..n_morsels).map(f).collect();
    }
    // Contiguous blocks of morsels are tasks on the shared pool scheduler
    // (the process-wide morsel scheduler concurrent queries submit to).
    // Block shape depends only on (n_morsels, workers), never on pool
    // occupancy, so result order — and thus the partial merge order — is
    // fixed.
    let per_thread = n_morsels.div_ceil(threads);
    let n_blocks = n_morsels.div_ceil(per_thread);
    let blocks: Vec<Vec<T>> = crate::sched::map_tasks(n_blocks, workers, |b| {
        let lo = b * per_thread;
        let hi = ((b + 1) * per_thread).min(n_morsels);
        (lo..hi).map(&f).collect()
    });
    blocks.into_iter().flatten().collect()
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
// Partial shape: per-morsel partials + ordered merge
// ---------------------------------------------------------------------

/// Mergeable partial aggregation state for one morsel: the morsel's group
/// keys (one row per local group, first-appearance order) and one
/// accumulator column per aggregate call.
struct AggPartial {
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
fn partial_aggregate(morsel: &Batch, reduce: &ReduceExprs, models: &ModelRegistry) -> AggPartial {
    let n = morsel.nrows();
    let (keys, args) = eval_reduce(morsel, reduce, models);
    let (ids, firsts) = hash_group_rows(&keys, n);
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
/// Output group order matches the sequential aggregate: `Hash` keeps
/// global first-appearance order, `Sort` sorts groups by their keys.
fn merge_partials(
    partials: Vec<AggPartial>,
    n_group_cols: usize,
    aggs: &[CompiledAgg],
    strategy: Strategy,
    workers: usize,
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
    let (ids, firsts) = hash_group_rows(&merged_keys, total);
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
        columns.push(merge_one(call, &acc, counts.as_ref(), &ids, g));
    }
    let out = Batch::new(columns);
    if strategy == Strategy::Sort && n_group_cols > 0 {
        return sort_groups_by_key(out, n_group_cols, workers);
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
                // valid count is zero); a group with a zero *total* count
                // gets the filler (empty-string) row, the sequential
                // aggregate's default.
                let cnts = counts.expect("MIN/MAX partial counts").as_i64();
                let keep =
                    mask_to_indices(&Tensor::from_bool(cnts.iter().map(|&c| c > 0).collect()));
                return segmented_min_str_or_filler(&take(acc, &keep), &take(ids, &keep), g, min);
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

// ---------------------------------------------------------------------
// Partitioned shape: bin rows by key hash, aggregate each partition once
// ---------------------------------------------------------------------

/// Cap on the partition count (`2^6`): a 16 Ki-row morsel still bins a
/// few hundred rows per partition.
const MAX_PARTITION_BITS: u32 = 6;

/// log2 of the partition count: about one partition per morsel, so a
/// partition's rows and group table stay cache-sized at any input size
/// the cap covers. The count is free — every value produces the same
/// result — so it follows the data alone.
fn partition_bits(n_morsels: usize) -> u32 {
    n_morsels
        .next_power_of_two()
        .trailing_zeros()
        .clamp(1, MAX_PARTITION_BITS)
}

/// One morsel's input on the partitioned shape, clustered by partition.
struct BinnedMorsel {
    /// The evaluated reduce outputs (key columns, then argument columns
    /// with their validity), rows reordered partition by partition and
    /// ascending within each.
    rows: Batch,
    /// The morsel-local row each clustered row came from.
    order: Tensor,
    /// Partition `p` owns clustered rows `starts[p]..starts[p + 1]`.
    starts: Vec<usize>,
}

/// Phase 1 of the partitioned shape: evaluate the reduce bundle over the
/// morsel, hash the keys once, and cluster the rows by the hash's top
/// `bits` bits — a counting sort, so rows keep their order inside a
/// partition. Gathering here, while the morsel is cache-resident, leaves
/// phase 2 contiguous slices to read instead of one row per cache line.
fn bin_morsel(
    morsel: &Batch,
    reduce: &ReduceExprs,
    models: &ModelRegistry,
    bits: u32,
) -> BinnedMorsel {
    let (columns, validity): (Vec<Tensor>, Vec<Option<Tensor>>) =
        exprfuse::eval_all(&reduce.exprs, morsel, models)
            .into_iter()
            .unzip();
    let key_refs: Vec<&Tensor> = columns[..reduce.n_keys].iter().collect();
    let hashes = tqp_tensor::hash::hash_columns(&key_refs);
    let partition = |h: u64| (h >> (64 - bits)) as usize;
    let mut starts = vec![0usize; (1 << bits) + 1];
    for &h in &hashes {
        starts[partition(h) + 1] += 1;
    }
    for p in 0..1 << bits {
        starts[p + 1] += starts[p];
    }
    let mut next = starts.clone();
    let mut order = vec![0i64; hashes.len()];
    for (i, &h) in hashes.iter().enumerate() {
        let slot = &mut next[partition(h)];
        order[*slot] = i as i64;
        *slot += 1;
    }
    let order = Tensor::from_i64(order);
    BinnedMorsel {
        rows: Batch::with_validity(columns, validity).take(&order),
        order,
        starts,
    }
}

/// Phase 2 of the partitioned shape: one task per partition concatenates
/// its slice of every morsel — its rows in ascending input order — and
/// hash-aggregates them once; the partitions' groups are then emitted in
/// ascending first-row order (`Hash`) or key order (`Sort`) — exactly the
/// order of the sequential aggregate. Returns the aggregate and the worker
/// time spent, µs.
fn aggregate_partitions(
    morsels: &[BinnedMorsel],
    bits: u32,
    reduce: &ReduceExprs,
    strategy: Strategy,
    workers: usize,
) -> (Batch, u64) {
    // Input-order position of each morsel's first row.
    let mut base = Vec::with_capacity(morsels.len());
    let mut n_rows = 0usize;
    for m in morsels {
        base.push(n_rows);
        n_rows += m.rows.nrows();
    }
    let parts = crate::sched::map_tasks(1usize << bits, workers, |pi| {
        // Partition boundary: deadline/cancellation check.
        crate::sched::check_cancelled();
        let t0 = Instant::now();
        let slices: Vec<_> = morsels
            .iter()
            .map(|m| (&m.rows, m.starts[pi]..m.starts[pi + 1]))
            .collect();
        let rows = Batch::vcat_ranges(&slices);
        let n = rows.nrows();
        let outs: Vec<Evaled> = rows.columns.into_iter().zip(rows.validity).collect();
        let (keys, args) = split_outs(&outs, reduce);
        let (groups, firsts) = hash_aggregate(&keys, &reduce.aggs, &args, n);
        // Each group's first row as an input-order position: `firsts`
        // ascends over the partition's rows, which list morsel after
        // morsel, so one forward walk over the morsels resolves them all.
        let mut first_rows = Vec::with_capacity(firsts.nrows());
        let (mut m, mut before) = (0usize, 0usize);
        for &f in firsts.as_i64() {
            let f = f as usize;
            while f >= before + morsels[m].starts[pi + 1] - morsels[m].starts[pi] {
                before += morsels[m].starts[pi + 1] - morsels[m].starts[pi];
                m += 1;
            }
            let local = morsels[m].order.as_i64()[morsels[m].starts[pi] + f - before];
            first_rows.push(base[m] + local as usize);
        }
        (groups, first_rows, t0.elapsed().as_micros() as u64)
    });
    let t0 = Instant::now();
    let mut groups = Vec::with_capacity(parts.len());
    let mut first_rows = Vec::with_capacity(parts.len());
    let mut busy_us = 0u64;
    for (g, f, us) in parts {
        groups.push(g);
        first_rows.push(f);
        busy_us += us;
    }
    let out = Batch::vcat_all(groups);
    let out = match strategy {
        Strategy::Sort => sort_groups_by_key(out, reduce.n_keys, workers),
        Strategy::Hash => out.take(&first_row_order(&first_rows, n_rows)),
    };
    (out, busy_us + t0.elapsed().as_micros() as u64)
}

/// The permutation that lists the partitions' concatenated groups by
/// ascending first row. First rows are distinct positions in `0..n_rows`,
/// so a bitmap of them ranks each in O(1): O(n_rows / 64 + groups) overall,
/// no comparison sort.
fn first_row_order(first_rows: &[Vec<usize>], n_rows: usize) -> Tensor {
    let mut bits = vec![0u64; n_rows.div_ceil(64)];
    for &f in first_rows.iter().flatten() {
        bits[f / 64] |= 1 << (f % 64);
    }
    // Set bits before each word.
    let mut rank = Vec::with_capacity(bits.len());
    let mut seen = 0usize;
    for w in &bits {
        rank.push(seen);
        seen += w.count_ones() as usize;
    }
    let mut perm = vec![0i64; seen];
    for (g, &f) in first_rows.iter().flatten().enumerate() {
        let below = bits[f / 64] & ((1u64 << (f % 64)) - 1);
        perm[rank[f / 64] + below.count_ones() as usize] = g as i64;
    }
    Tensor::from_i64(perm)
}

/// Order an aggregate's groups by their key columns (the `Sort`
/// strategy's output order).
fn sort_groups_by_key(out: Batch, n_keys: usize, workers: usize) -> Batch {
    let sort_keys: Vec<SortKey> = out.columns[..n_keys]
        .iter()
        .map(|k| SortKey::asc(k.clone()))
        .collect();
    let perm = argsort_multi_par(&sort_keys, workers);
    out.take(&perm)
}

/// Hash-group rows by key equality (collision-verified). Returns dense
/// group ids in first-appearance order plus one representative row per
/// group. Zero key columns means a single global group (the ungrouped
/// aggregate case).
///
/// The key columns hash **once, blockwise**
/// ([`tqp_tensor::hash::hash_columns`]) and group through the flat
/// open-addressing table of [`tqp_tensor::hash::group_rows_by_hash`],
/// which assigns gids in first-appearance order over a sequential row scan
/// and verifies collisions through [`rows_equal`].
fn hash_group_rows(keys: &[Tensor], n: usize) -> (Tensor, Tensor) {
    if keys.is_empty() {
        let firsts = if n == 0 { vec![] } else { vec![0] };
        return (Tensor::from_i64(vec![0; n]), Tensor::from_i64(firsts));
    }
    let key_refs: Vec<&Tensor> = keys.iter().collect();
    let hashes = tqp_tensor::hash::hash_columns(&key_refs);
    // A single bare-I64 key compares through one slice instead of the
    // per-dtype dispatch per probe.
    let (gids, firsts) = match keys {
        [k] if k.dtype() == DType::I64 && k.shape().len() == 1 => {
            let v = k.as_i64();
            tqp_tensor::hash::group_rows_by_hash(&hashes, |i, j| v[i] == v[j])
        }
        _ => tqp_tensor::hash::group_rows_by_hash(&hashes, |i, j| rows_equal(keys, i, j)),
    };
    (Tensor::from_i64(gids), Tensor::from_i64(firsts))
}

/// Segmented reduction dispatch with type- and emptiness-aware
/// finalization: a group whose arguments were all NULL yields the shared
/// default (0, 0.0, or the empty string), as a global aggregate over no
/// rows does.
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
                return segmented_min_str_or_filler(vals, ids, g, min);
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

// ---------------------------------------------------------------------
// The sequential aggregate
// ---------------------------------------------------------------------

/// Returns the aggregate (groups in first-appearance order) and each
/// group's first row.
fn hash_aggregate(
    keys: &[Tensor],
    aggs: &[CompiledAgg],
    args: &[Option<Evaled>],
    n: usize,
) -> (Batch, Tensor) {
    let (ids, firsts) = hash_group_rows(keys, n);
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
    (Batch::new(columns), firsts)
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

    /// Morsel-driven aggregation of a batch in hand, the way the VM's
    /// non-fused route slices it.
    fn morsels(
        b: &Batch,
        reduce: &ReduceExprs,
        strategy: Strategy,
        shape: Shape,
        workers: usize,
    ) -> Batch {
        let (n, rows) = (b.nrows(), par_morsel_rows());
        let morsel = |m: usize| (b.slice_rows(m * rows, ((m + 1) * rows).min(n)), ());
        let models = ModelRegistry::new();
        aggregate_morsels(
            n.div_ceil(rows),
            morsel,
            shape,
            reduce,
            strategy,
            &models,
            workers,
        )
        .0
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
            1,
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

    /// `Strategy::Sort` is `Strategy::Hash` with its groups listed in key
    /// order — bitwise, float SUM/AVG association included — for float
    /// keys with signed zeros and NaNs, string keys, two key columns,
    /// COUNT(DISTINCT) and NULL-bearing arguments. The key order is
    /// computed here (`total_cmp` on floats, bytes on strings), not by the
    /// engine.
    #[test]
    fn sort_is_hash_ordered_by_key() {
        for strat in [Strategy::Sort, Strategy::Hash] {
            let out = run(strat);
            assert_eq!(out.nrows(), 2, "{strat:?}");
            // a: vals 1,3,5; i64 7,8,7 → 2 distinct
            assert_eq!(group_of(&out, "a"), vec![9.0, 3.0, 1.0, 5.0, 3.0, 2.0]);
            // b: vals 2,4; i64 7,8 → 2 distinct
            assert_eq!(group_of(&out, "b"), vec![6.0, 2.0, 2.0, 4.0, 3.0, 2.0]);
        }

        let n = 3000;
        let floats = [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff8_0000_0000_0001),
            1.5,
            -2.25,
            f64::INFINITY,
        ];
        let mut b = everything_batch(n, |i| ((i * 7919) % 37) as i64);
        b.columns.push(Tensor::from_f64(
            (0..n)
                .map(|i| floats[(i * 13 + i / 5) % floats.len()])
                .collect(),
        ));
        b.validity.push(None);
        use LogicalType::{Float64 as F, Int64 as I, Str as S};
        let key_sets = [
            vec![E::col(5, F)],
            vec![E::col(1, S)],
            vec![E::col(5, F), E::col(1, S)],
            vec![E::col(0, I), E::col(5, F)],
        ];
        let models = ModelRegistry::new();
        for keys in key_sets {
            let reduce = everything_by(&keys);
            let hash = aggregate(&b, &reduce, Strategy::Hash, &models, 1);
            let cmp_rows = |x: usize, y: usize| {
                hash.columns[..keys.len()]
                    .iter()
                    .map(|k| match k.dtype() {
                        DType::F64 => k.as_f64()[x].total_cmp(&k.as_f64()[y]),
                        DType::U8 => k.str_row(x).cmp(k.str_row(y)),
                        _ => k.as_i64()[x].cmp(&k.as_i64()[y]),
                    })
                    .find(|o| o.is_ne())
                    .unwrap_or(std::cmp::Ordering::Equal)
            };
            let mut perm: Vec<usize> = (0..hash.nrows()).collect();
            perm.sort_by(|&x, &y| cmp_rows(x, y));
            let by_key = hash.take(&Tensor::from_i64(perm.iter().map(|&i| i as i64).collect()));
            for workers in [1, 4] {
                let sort = aggregate(&b, &reduce, Strategy::Sort, &models, workers);
                assert_bitwise(&by_key, &sort, &format!("{} keys, w={workers}", keys.len()));
            }
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
        let out = aggregate(&batch(), &reduce, Strategy::Sort, &ModelRegistry::new(), 1);
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
            1,
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
            1,
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
            1,
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
                1,
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
            let one = morsels(&b, &reduce, strat, Shape::Partial, 1);
            for workers in [2, 5, 8] {
                let many = morsels(&b, &reduce, strat, Shape::Partial, workers);
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
            let seq = aggregate(&b, &reduce, strat, &models, 1);
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
            let seq = aggregate(&b, &reduce, strat, &models, 1);
            let par = morsels(&b, &reduce, strat, Shape::Partial, 4);
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
        let one = morsels(&b, &reduce, Strategy::Sort, Shape::Partial, 1);
        let many = morsels(&b, &reduce, Strategy::Sort, Shape::Partial, 6);
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
        let seq = aggregate(&b, &reduce, Strategy::Hash, &models, 1);
        for workers in [1usize, 4] {
            let par = morsels(&b, &reduce, Strategy::Hash, Shape::Partial, workers);
            assert_eq!(seq.nrows(), par.nrows(), "workers {workers}");
            assert_eq!(seq.columns[0].str_at(0), par.columns[0].str_at(0));
            assert_eq!(seq.columns[1].str_at(0), par.columns[1].str_at(0));
            assert_eq!(seq.columns[2].as_i64(), par.columns[2].as_i64());
        }
    }

    /// Nullable string aggregate arguments (the left-join NULL-padding
    /// case) must work on both parallel shapes exactly as they do
    /// sequentially: COUNT skips NULLs, MIN/MAX reduce over the valid
    /// subset — even when a whole *morsel*'s slice of a group is NULL, and
    /// when a group is NULL everywhere (it yields the empty string).
    #[test]
    fn parallel_nullable_string_aggregates_match_sequential() {
        let n = par_min_rows() + 123;
        let words = ["pear", "apple", "kiwi", "zed"];
        let grp: Vec<i64> = (0..n).map(|i| (i % 3) as i64).collect();
        let strs: Vec<String> = (0..n).map(|i| words[i % 4].to_string()).collect();
        let refs: Vec<&str> = strs.iter().map(|s| s.as_str()).collect();
        let input = |valid: Vec<bool>| {
            Batch::with_validity(
                vec![
                    Tensor::from_i64(grp.clone()),
                    Tensor::from_strings(&refs, 0),
                ],
                vec![None, Some(Tensor::from_bool(valid))],
            )
        };
        // Group 2 is NULL everywhere except one early row, so entire
        // morsels of it are all-NULL (the filler-row merge case); in the
        // second input it is NULL everywhere.
        let inputs = [
            input((0..n).map(|i| i % 3 != 2 || i == 2).collect()),
            input((0..n).map(|i| i % 3 != 2).collect()),
        ];
        let str_arg = |func, ty| AggCall {
            func,
            arg: Some(E::col(1, LogicalType::Str)),
            ty,
        };
        let reduce = reduce_of(
            &[E::col(0, LogicalType::Int64)],
            &[
                str_arg(AggFunc::Count, LogicalType::Int64),
                str_arg(AggFunc::Min, LogicalType::Str),
                str_arg(AggFunc::Max, LogicalType::Str),
            ],
        );
        let models = ModelRegistry::new();
        for (k, b) in inputs.iter().enumerate() {
            for strat in [Strategy::Sort, Strategy::Hash] {
                let seq = aggregate(b, &reduce, strat, &models, 1);
                assert_eq!(seq.nrows(), 3);
                if k == 1 {
                    let g2 = (0..3).find(|&r| seq.columns[0].as_i64()[r] == 2).unwrap();
                    assert_eq!(seq.columns[1].as_i64()[g2], 0);
                    assert_eq!(seq.columns[2].str_at(g2), "");
                    assert_eq!(seq.columns[3].str_at(g2), "");
                }
                for shape in [Shape::Partial, Shape::Partitioned] {
                    for workers in [1usize, 4] {
                        let par = morsels(b, &reduce, strat, shape, workers);
                        let what = format!("input {k} {strat:?} {shape:?} w={workers}");
                        assert_bitwise(&seq, &par, &what);
                    }
                }
            }
        }
    }

    /// Bitwise batch equality: dtypes, row counts, float bit patterns,
    /// string rows (padding width aside).
    fn assert_bitwise(a: &Batch, b: &Batch, what: &str) {
        assert_eq!(a.ncols(), b.ncols(), "{what}: arity");
        assert_eq!(a.nrows(), b.nrows(), "{what}: rows");
        for c in 0..a.ncols() {
            let (x, y) = (&a.columns[c], &b.columns[c]);
            assert_eq!(x.dtype(), y.dtype(), "{what}: col {c} dtype");
            match x.dtype() {
                DType::F64 => {
                    let bits = |t: &Tensor| -> Vec<u64> {
                        t.as_f64().iter().map(|v| v.to_bits()).collect()
                    };
                    assert_eq!(bits(x), bits(y), "{what}: col {c} float bits");
                }
                DType::U8 => {
                    for r in 0..a.nrows() {
                        assert_eq!(x.str_at(r), y.str_at(r), "{what}: col {c} row {r}");
                    }
                }
                _ => assert_eq!(x, y, "{what}: col {c}"),
            }
        }
    }

    /// Every aggregate function over NULL-bearing arguments, float, int and
    /// string, keyed by `(k0: i64, k1: str)`.
    fn everything(n_keys: usize) -> ReduceExprs {
        use LogicalType::{Int64 as I, Str as S};
        everything_by(&[E::col(0, I), E::col(1, S)][..n_keys])
    }

    /// [`everything`]'s aggregates, grouped by `keys`.
    fn everything_by(keys: &[E]) -> ReduceExprs {
        let arg = |func, col, arg_ty, ty| AggCall {
            func,
            arg: Some(E::col(col, arg_ty)),
            ty,
        };
        use LogicalType::{Float64 as F, Int64 as I, Str as S};
        reduce_of(
            keys,
            &[
                arg(AggFunc::Sum, 2, F, F),
                arg(AggFunc::Avg, 2, F, F),
                arg(AggFunc::Min, 2, F, F),
                arg(AggFunc::Max, 2, F, F),
                arg(AggFunc::Count, 2, F, I),
                arg(AggFunc::Sum, 3, I, I),
                arg(AggFunc::Min, 3, I, I),
                arg(AggFunc::Max, 3, I, I),
                arg(AggFunc::CountDistinct, 3, I, I),
                arg(AggFunc::Min, 4, S, S),
                arg(AggFunc::Max, 4, S, S),
                star(),
            ],
        )
    }

    /// `n` rows for [`everything`]: key `key(i)`, adversarial float
    /// magnitudes (the association-sensitive data of
    /// `parallel_float_sum_bit_identical_across_worker_counts`) with NULLs,
    /// ints with NULLs, strings.
    fn everything_batch(n: usize, key: impl Fn(usize) -> i64) -> Batch {
        let words = ["pear", "apple", "kiwi", "zed", "fig"];
        let strs = |f: &dyn Fn(usize) -> usize| -> Tensor {
            let v: Vec<&str> = (0..n).map(|i| words[f(i) % words.len()]).collect();
            Tensor::from_strings(&v, 0)
        };
        let vals: Vec<f64> = (0..n)
            .map(|i| match i % 4 {
                0 => 1e18,
                1 => 1.0,
                2 => -1e18,
                _ => 0.1 + (i % 997) as f64 * 1e-7,
            })
            .collect();
        Batch::with_validity(
            vec![
                Tensor::from_i64((0..n).map(&key).collect()),
                strs(&|i| key(i) as usize),
                Tensor::from_f64(vals),
                Tensor::from_i64((0..n).map(|i| (i % 13) as i64).collect()),
                strs(&|i| i / 3),
            ],
            vec![
                None,
                None,
                Some(Tensor::from_bool((0..n).map(|i| i % 11 != 0).collect())),
                Some(Tensor::from_bool((0..n).map(|i| i % 7 != 3).collect())),
                None,
            ],
        )
    }

    /// The partitioned shape is bit-for-bit the sequential aggregate — group
    /// order, keys and every aggregate, float association included — at
    /// every worker count, both strategies; for
    /// duplicate-heavy keys, all-distinct keys and one giant group.
    #[test]
    fn partitioned_is_bitwise_the_sequential_aggregate() {
        let n = par_min_rows() * 2 + 4321;
        let models = ModelRegistry::new();
        type Key = fn(usize) -> i64;
        let shapes: [(&str, Key); 3] = [
            ("duplicate-heavy", |i| ((i * 7919) % 2003) as i64),
            ("all-distinct", |i| (i as i64 * 7919) % 1_000_003),
            ("one-group", |_| 42),
        ];
        for (name, key) in shapes {
            let b = everything_batch(n, key);
            for n_keys in [1, 2] {
                let reduce = everything(n_keys);
                for strat in [Strategy::Hash, Strategy::Sort] {
                    let seq = aggregate(&b, &reduce, strat, &models, 1);
                    for workers in [1, 2, 4, 8] {
                        let par = morsels(&b, &reduce, strat, Shape::Partitioned, workers);
                        let what = format!("{name} keys={n_keys} {strat:?} w={workers}");
                        assert_bitwise(&seq, &par, &what);
                    }
                }
            }
        }
    }

    /// Morsels a fused filter emptied (some, or all of them) change nothing:
    /// the partitioned result is the sequential aggregate of the surviving
    /// rows; an empty input yields no groups.
    #[test]
    fn partitioned_over_empty_morsels_and_empty_input() {
        let rows = par_morsel_rows();
        let n = rows * 6 + 17;
        let b = everything_batch(n, |i| ((i * 31) % 4001) as i64);
        let reduce = everything(2);
        let models = ModelRegistry::new();
        let run = |alive: &(dyn Fn(usize) -> bool + Sync), workers: usize| -> Batch {
            let morsel = |m: usize| {
                let hi = if alive(m) {
                    ((m + 1) * rows).min(n)
                } else {
                    m * rows
                };
                (b.slice_rows(m * rows, hi), ())
            };
            aggregate_morsels(
                n.div_ceil(rows),
                morsel,
                Shape::Partitioned,
                &reduce,
                Strategy::Hash,
                &models,
                workers,
            )
            .0
        };
        // Morsels 1, 3, 5 survive: the sequential oracle sees those rows.
        let kept: Vec<Batch> = [1, 3, 5]
            .iter()
            .map(|&m| b.slice_rows(m * rows, (m + 1) * rows))
            .collect();
        let seq = aggregate(&Batch::vcat_all(kept), &reduce, Strategy::Hash, &models, 1);
        for workers in [1, 4] {
            let par = run(&|m| m % 2 == 1, workers);
            assert_bitwise(&seq, &par, &format!("odd morsels, w={workers}"));
            let none = run(&|_| false, workers);
            assert_eq!(none.nrows(), 0, "empty input, w={workers}");
            assert_eq!(none.ncols(), seq.ncols());
        }
    }

    /// The plan's estimate picks the shape: more than half a morsel of
    /// groups partitions; `COUNT(DISTINCT)` is morsel-parallel only then.
    #[test]
    fn shape_follows_the_group_estimate() {
        let half = (par_morsel_rows() / 2) as u64;
        let grouped = reduce_of(&[E::col(0, LogicalType::Int64)], &[star()]);
        assert_eq!(morsel_shape(&grouped, None), Some(Shape::Partial));
        assert_eq!(morsel_shape(&grouped, Some(half)), Some(Shape::Partial));
        assert_eq!(
            morsel_shape(&grouped, Some(half + 1)),
            Some(Shape::Partitioned)
        );
        let global = reduce_of(&[], &[star()]);
        assert_eq!(morsel_shape(&global, Some(half + 1)), Some(Shape::Partial));
        let distinct = reduce_of(
            &[E::col(0, LogicalType::Int64)],
            &[call(AggFunc::CountDistinct, 2, LogicalType::Int64)],
        );
        assert_eq!(morsel_shape(&distinct, None), None);
        assert_eq!(
            morsel_shape(&distinct, Some(half + 1)),
            Some(Shape::Partitioned)
        );
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
            1,
        );
        assert_eq!(out.columns[1].str_at(0), "apple");
        assert_eq!(out.columns[1].str_at(1), "kiwi");
    }
}

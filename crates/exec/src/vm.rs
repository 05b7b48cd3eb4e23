//! The vectorized **register VM** — executes a [`TensorProgram`] for the
//! Eager, Fused, and Graph backends.
//!
//! One VM, two modes (the paper's eager-vs-TorchScript axis):
//!
//! * **Eager**: every `Filter` materializes one boolean mask per conjunct
//!   over the full input and compacts once (PyTorch-eager semantics:
//!   every intermediate exists);
//! * **Fused**: conjunct evaluation runs over *selection vectors* — the
//!   batch is compacted adaptively between conjuncts, so later (more
//!   expensive, e.g. `LIKE`) predicates run on the surviving fraction
//!   only. Fusion is a property of how the VM steps the same program, not
//!   a different program.
//!
//! **Morsel-parallel execution**: lowering leaves data-flow explicit, so
//! the VM statically finds *pipeline segments* — a `Scan` followed by a
//! chain of element-wise ops (`Filter`/`Project`) each consuming the
//! previous op's register. A segment executes partition-parallel: the
//! scanned batch splits into contiguous morsels, every worker runs the
//! whole chain over its morsel, and results concatenate in morsel order —
//! bit-identical to sequential execution, because the chain ops are
//! row-local and order-preserving.
//!
//! The former barrier ops are now worker-parallel too:
//!
//! * **`GroupedReduce`** runs over fixed-geometry morsels in the shape the
//!   plan's group-count estimate selects — per-morsel partials folded in
//!   order, or rows radix-partitioned by key and each partition aggregated
//!   once (see [`crate::agg`]). When it directly consumes a pipeline
//!   segment it stops being a segment boundary entirely: each worker
//!   pipelines its scan morsel through the filter/project chain straight
//!   into the aggregation's first phase, and only the second is a barrier.
//! * **`HashBuild`** builds radix-partitioned, one disjoint partition per
//!   worker ([`crate::join::build_table_par`]); the probe loop of
//!   `HashProbe` chunks the probe side ([`crate::join::probe_table`]).
//! * **`Sort`** (and the key-order argsort of an `AggStrategy::Sort`
//!   aggregate's groups) chunk-sorts and stable-merges
//!   ([`tqp_tensor::sort::argsort_multi_par`]).
//!
//! All three are **bit-identical at every worker count**: aggregation by
//! the fixed-morsel merge order (partials) or because every group folds
//! its rows in input order inside one partition, build/probe because partition
//! buckets replicate the sequential row order, sort because a stable
//! permutation is unique. `SortMergeJoin`/`CrossJoin` assembly and `Limit`
//! remain sequential barriers.
//!
//! Every op reports a span keyed by its **program op index** (`Filter@op3`)
//! and charges the [`DeviceMeter`] — the simulated-GPU path stays
//! single-threaded so modeled time is independent of host parallelism.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use tqp_data::{DataFrame, LogicalType};
use tqp_ir::plan::ColMeta;
use tqp_ml::ModelRegistry;
use tqp_profile::{op_key, op_key_par, Profiler};
use tqp_tensor::index::{arange, mask_to_indices};
use tqp_tensor::sort::{argsort_multi, argsort_multi_par, Order, SortKey as TSortKey};
use tqp_tensor::{DType, Tensor};

use crate::agg;
use crate::batch::Batch;
use crate::device::{kernel_count, DeviceMeter};
use crate::exprfuse;
use crate::exprprog::{ExprProgram, FusedEval};
use crate::join;
use crate::program::{ProgOp, TensorProgram};
use crate::stored::{self, ScanLayout, ScanSource};
use crate::{Device, ExecConfig, ScanStats, Storage, TableSource};

/// Minimum scanned rows before a pipeline segment is worth chunking.
const PAR_SEGMENT_MIN_ROWS: usize = 64 * 1024;

/// A register value: a column batch, or a hash-join build table.
pub enum Value {
    Batch(Batch),
    Table(join::JoinTable),
}

impl Value {
    fn batch(&self) -> &Batch {
        match self {
            Value::Batch(b) => b,
            Value::Table(_) => panic!("register holds a join table, expected a batch"),
        }
    }

    fn table(&self) -> &join::JoinTable {
        match self {
            Value::Table(t) => t,
            Value::Batch(_) => panic!("register holds a batch, expected a join table"),
        }
    }
}

/// Execute a program against storage, producing the result frame, the
/// device meter, and chunk-scan counters. `fused` selects the Fused
/// (TorchScript-analog) mode.
pub fn run_program(
    prog: &TensorProgram,
    storage: &Storage,
    models: &ModelRegistry,
    profiler: &Profiler,
    cfg: ExecConfig,
    fused: bool,
) -> (DataFrame, DeviceMeter, ScanStats) {
    let mut meter = DeviceMeter::new(cfg.device == Device::GpuSim, cfg.gpu_strategy);
    let cx = Vm {
        storage,
        models,
        profiler,
        fused,
        prune: cfg.prune_scans,
        workers: cfg.workers.max(1),
        chunks_scanned: AtomicU64::new(0),
        chunks_pruned: AtomicU64::new(0),
    };
    let batch = cx.exec(prog, &mut meter);
    let scans = ScanStats {
        chunks_scanned: cx.chunks_scanned.load(Ordering::Relaxed),
        chunks_pruned: cx.chunks_pruned.load(Ordering::Relaxed),
    };
    (batch_to_frame(&batch, &prog.schema), meter, scans)
}

/// VM context: immutable inputs shared by worker threads.
struct Vm<'a> {
    storage: &'a Storage,
    models: &'a ModelRegistry,
    profiler: &'a Profiler,
    fused: bool,
    /// Zone-map chunk pruning enabled (stored tables only).
    prune: bool,
    workers: usize,
    /// Stored-table chunk counters (updated on the submitting thread).
    chunks_scanned: AtomicU64,
    chunks_pruned: AtomicU64,
}

/// Per-op sample from one morsel: (duration µs, output rows, output bytes).
type OpSample = (u64, u64, u64);

impl Vm<'_> {
    fn exec(&self, prog: &TensorProgram, meter: &mut DeviceMeter) -> Batch {
        let last_use = last_uses(prog);
        let uses = register_use_counts(prog);
        let segments = pipeline_segments(prog, &uses);
        let mut regs: Vec<Option<Value>> = (0..prog.n_regs).map(|_| None).collect();

        let mut i = 0;
        while i < prog.ops.len() {
            // Section boundary: a cancelled/deadline-expired query aborts
            // here before starting its next operator.
            crate::sched::check_cancelled();
            // A chunkable segment: Scan + element-wise chain. Parallel
            // execution is only taken on the real-CPU path — the GPU cost
            // model charges whole-tensor kernels, so metered runs stay
            // sequential to keep modeled time worker-independent.
            // Entered for every Scan on the real-CPU path — including at
            // workers = 1, because the *fused aggregation* route below must
            // be taken independently of the worker count for its morsel
            // geometry (and thus float rounding) to be worker-invariant.
            let seg_end = segments[i];
            if seg_end > i && !meter.is_enabled() {
                // A GroupedReduce fed directly by this segment fuses into
                // it: the aggregation stops being a segment boundary, and
                // each worker pipelines its morsel through the chain
                // straight into the aggregation's per-morsel phase.
                let fused_agg = match prog.ops.get(seg_end) {
                    Some(ProgOp::GroupedReduce {
                        dst,
                        src,
                        reduce,
                        groups,
                        ..
                    }) if *src == prog.ops[seg_end - 1].dst() && uses[*src] == 1 => {
                        agg::morsel_shape(reduce, *groups).map(|shape| (*dst, shape))
                    }
                    _ => None,
                };

                // A Filter directly consuming the scan inside this segment
                // drives the zone-map pruning pre-pass for stored tables
                // (the segment guarantees no other op reads the scan).
                let prune_filter = if seg_end > i + 1 {
                    match &prog.ops[i + 1] {
                        ProgOp::Filter { conjuncts, .. } => Some(conjuncts),
                        _ => None,
                    }
                } else {
                    None
                };
                let (scanned, layout) = self.exec_scan_op(i, &prog.ops[i], meter, prune_filter);
                if let Some((dst, shape)) = fused_agg {
                    // Gate on the *original* (pre-pruning) row count so a
                    // pruned stored scan takes the same aggregation route
                    // — and the same morsel geometry — as the in-memory
                    // path over the same table (bitwise parity contract).
                    if layout.original_rows >= agg::par_min_rows() {
                        let out = self.exec_segment_agg(prog, i, seg_end, scanned, &layout, shape);
                        regs[dst] = Some(Value::Batch(out));
                        for k in i..=seg_end {
                            self.release(&mut regs, &prog.ops[k], &last_use, k, prog.output);
                        }
                        i = seg_end + 1;
                        continue;
                    }
                }
                if seg_end > i + 1 && self.workers > 1 && scanned.nrows() >= PAR_SEGMENT_MIN_ROWS {
                    let out = self.exec_segment_parallel(prog, i, seg_end, scanned);
                    regs[prog.ops[seg_end - 1].dst()] = Some(Value::Batch(out));
                    for k in i..seg_end {
                        self.release(&mut regs, &prog.ops[k], &last_use, k, prog.output);
                    }
                    i = seg_end;
                    continue;
                }
                // Too small to chunk: finish the segment sequentially.
                regs[prog.ops[i].dst()] = Some(Value::Batch(scanned.into_batch(self.workers)));
                for k in i + 1..seg_end {
                    self.exec_op(k, &prog.ops[k], &mut regs, meter);
                    self.release(&mut regs, &prog.ops[k], &last_use, k, prog.output);
                }
                i = seg_end;
                continue;
            }

            self.exec_op(i, &prog.ops[i], &mut regs, meter);
            self.release(&mut regs, &prog.ops[i], &last_use, i, prog.output);
            i += 1;
        }

        match regs[prog.output].take() {
            Some(Value::Batch(b)) => b,
            _ => panic!("program output register does not hold a batch"),
        }
    }

    /// Drop registers after their last reader (keeps peak memory at the
    /// live frontier of the program, like the old tree walk did).
    fn release(
        &self,
        regs: &mut [Option<Value>],
        op: &ProgOp,
        last_use: &[usize],
        idx: usize,
        output: usize,
    ) {
        for s in op.srcs() {
            if last_use[s] == idx && s != output {
                regs[s] = None;
            }
        }
    }

    /// Run one morsel through the element-wise chain `ops[start+1..end]`.
    fn run_chain_morsel(
        &self,
        prog: &TensorProgram,
        start: usize,
        end: usize,
        mut batch: Batch,
        samples: &mut [Vec<OpSample>],
    ) -> Batch {
        // Morsel boundary: each worker checks its query's token before
        // pushing another morsel through the chain.
        crate::sched::check_cancelled();
        for (k, op) in prog.ops[start + 1..end].iter().enumerate() {
            let t0 = Instant::now();
            batch = self.apply_elementwise(op, batch);
            samples[k].push((
                t0.elapsed().as_micros() as u64,
                batch.nrows() as u64,
                batch.nbytes() as u64,
            ));
        }
        batch
    }

    /// Partition-parallel segment execution: split, run chain per morsel,
    /// concatenate in morsel order. `scanned` may be a lazy stored stream:
    /// each worker's `slice_rows` then decodes (and caches) only the
    /// chunks its morsel touches — decode itself is morsel-parallel and
    /// no whole-scan concatenation ever happens.
    fn exec_segment_parallel(
        &self,
        prog: &TensorProgram,
        start: usize,
        end: usize,
        scanned: ScanSource,
    ) -> Batch {
        let n = scanned.nrows();
        let n_chunks = self
            .workers
            .min(n.div_ceil(PAR_SEGMENT_MIN_ROWS / 2))
            .max(1);
        let chunk_len = n.div_ceil(n_chunks);
        let chain_len = end - start - 1;
        let start_us = self.profiler.now_us();

        // Chunk tasks go to the shared pool scheduler: at most
        // `self.workers` threads execute them (caller included), and
        // concurrent queries share the same pool instead of spawning
        // their own threads.
        let scanned = &scanned;
        let results: Vec<(Batch, Vec<Vec<OpSample>>)> =
            crate::sched::map_tasks(n_chunks, self.workers, |c| {
                let lo = c * chunk_len;
                let hi = ((c + 1) * chunk_len).min(n);
                // Slice inside the worker so morsel materialization is
                // itself parallel, not a sequential prefix.
                let morsel = scanned.slice_rows(lo, hi);
                let mut samples: Vec<Vec<OpSample>> = vec![Vec::new(); chain_len];
                let out = self.run_chain_morsel(prog, start, end, morsel, &mut samples);
                (out, samples)
            });

        let mut parts = Vec::with_capacity(n_chunks);
        let mut merged: Vec<Vec<OpSample>> = vec![Vec::new(); chain_len];
        for r in results {
            parts.push(r.0);
            for (k, s) in r.1.into_iter().enumerate() {
                merged[k].extend(s);
            }
        }
        let out = Batch::vcat_all(parts);

        // One span per op, keyed by program index; rows/bytes summed over
        // morsels, duration = summed worker CPU time for that op.
        for (k, op) in prog.ops[start + 1..end].iter().enumerate() {
            let (dur, rows, bytes) = merged[k]
                .iter()
                .fold((0, 0, 0), |acc, s| (acc.0 + s.0, acc.1 + s.1, acc.2 + s.2));
            self.profiler.record_chunks(
                &op_key_par(&op.name(), start + 1 + k),
                "relational",
                start_us,
                dur,
                rows,
                bytes,
                n_chunks as u64,
            );
        }
        out
    }

    /// Fused segment + aggregation: each worker pipelines its scan morsel
    /// through the element-wise chain `ops[start+1..chain_end]` straight
    /// into the per-morsel phase of the `GroupedReduce` at `chain_end`
    /// (see [`crate::agg`] for the two shapes and their determinism
    /// contract). Morsel geometry comes from [`agg::par_morsel_rows`] over
    /// the scan's **original** row space (`layout` maps pruned stored scans
    /// back to it; chunks a pruned scan skipped become empty morsels),
    /// never from the worker count, so results are bit-identical at every
    /// `workers` setting *and* bit-identical between pruned, unpruned, and
    /// in-memory scans of the same table.
    fn exec_segment_agg(
        &self,
        prog: &TensorProgram,
        start: usize,
        chain_end: usize,
        scanned: ScanSource,
        layout: &ScanLayout,
        shape: agg::Shape,
    ) -> Batch {
        let n_orig = layout.original_rows;
        let morsel_rows = agg::par_morsel_rows();
        let n_morsels = n_orig.div_ceil(morsel_rows);
        let chain_len = chain_end - start - 1;
        let start_us = self.profiler.now_us();

        let scanned = &scanned;
        let (out, samples) =
            self.reduce_morsels(chain_end, &prog.ops[chain_end], shape, n_morsels, |m| {
                let lo = m * morsel_rows;
                let hi = ((m + 1) * morsel_rows).min(n_orig);
                let (lo, hi) = layout.project(lo, hi);
                let morsel = scanned.slice_rows(lo, hi);
                let mut samples: Vec<Vec<OpSample>> = vec![Vec::new(); chain_len];
                let out = self.run_chain_morsel(prog, start, chain_end, morsel, &mut samples);
                (out, samples)
            });

        let mut merged: Vec<Vec<OpSample>> = vec![Vec::new(); chain_len];
        for morsel in samples {
            for (k, s) in morsel.into_iter().enumerate() {
                merged[k].extend(s);
            }
        }
        for (k, op) in prog.ops[start + 1..chain_end].iter().enumerate() {
            let (dur, rows, bytes) = merged[k]
                .iter()
                .fold((0, 0, 0), |acc, s| (acc.0 + s.0, acc.1 + s.1, acc.2 + s.2));
            self.profiler.record_chunks(
                &op_key_par(&op.name(), start + 1 + k),
                "relational",
                start_us,
                dur,
                rows,
                bytes,
                n_morsels as u64,
            );
        }
        out
    }

    /// Run the `GroupedReduce` `op` (program index `idx`) over morsels in
    /// `shape` and record its span: duration = worker time spent
    /// aggregating, summed over tasks; rows = aggregate OUTPUT rows,
    /// matching the sequential path's span semantics so EXPLAIN ANALYZE
    /// attribution is route-invariant (the aggregate-input total stays
    /// readable as its producer's rows).
    fn reduce_morsels<S: Send>(
        &self,
        idx: usize,
        op: &ProgOp,
        shape: agg::Shape,
        n_morsels: usize,
        morsel: impl Fn(usize) -> (Batch, S) + Sync,
    ) -> (Batch, Vec<S>) {
        let ProgOp::GroupedReduce {
            strategy, reduce, ..
        } = op
        else {
            panic!("op {} is not a reduction", op.name());
        };
        let start_us = self.profiler.now_us();
        let (out, extras, busy_us) = agg::aggregate_morsels(
            n_morsels,
            morsel,
            shape,
            reduce,
            *strategy,
            self.models,
            self.workers,
        );
        self.profiler.record_chunks(
            &op_key_par(&op.name(), idx),
            "relational",
            start_us,
            busy_us,
            out.nrows() as u64,
            out.nbytes() as u64,
            n_morsels as u64,
        );
        (out, extras)
    }

    /// Element-wise ops a morsel chain may contain.
    fn apply_elementwise(&self, op: &ProgOp, input: Batch) -> Batch {
        match op {
            ProgOp::Filter {
                conjuncts, keep, ..
            } => self.apply_filter(conjuncts, keep.as_deref(), input),
            ProgOp::Project { exprs, .. } => self.apply_project(exprs, &input),
            other => panic!("op {} is not element-wise", other.name()),
        }
    }

    /// `keep` names the input columns the output carries (`None` = all):
    /// surviving rows are gathered for those only, so a column only the
    /// predicate reads is never materialized.
    fn apply_filter(&self, conjuncts: &ExprProgram, keep: Option<&[usize]>, input: Batch) -> Batch {
        // A constant-false conjunct (folded at lowering) short-circuits to
        // an empty scan: no expression evaluation, no mask allocation.
        if conjuncts.has_const_false_output() {
            return narrow(input, keep).slice_rows(0, 0);
        }
        if self.fused {
            return self.apply_filter_fused(conjuncts, keep, input);
        }
        // Eager: the compiled program evaluates every conjunct over the
        // full input in one straight-line kernel pass (shared subterms
        // once), AND-folds all masks + validity into one scratch buffer
        // sized once per batch, and compacts once. When the program
        // specializes, `conjunct_mask` takes the fused kernel instead —
        // a single chunked pass with no intermediate mask tensors.
        let mask = exprfuse::conjunct_mask(conjuncts, &input, self.models);
        narrow(input, keep).take(&mask_to_indices(&mask))
    }

    /// Adaptive fused filter: step the compiled conjuncts one at a time,
    /// switching to selection vectors (compact the batch, evaluate the
    /// rest on survivors) as soon as the accumulated mask turns selective.
    /// Unselective prefixes stay in mask-AND form to avoid gather costs —
    /// the dynamic fusion decision a JIT makes with runtime feedback. The
    /// expression registers compact alongside the batch, so subterms
    /// shared across conjuncts stay computed-once.
    fn apply_filter_fused(
        &self,
        conjuncts: &ExprProgram,
        keep: Option<&[usize]>,
        input: Batch,
    ) -> Batch {
        // A specialized kernel already short-circuits per 1k-row chunk and
        // evaluates string predicates only on still-alive rows, which is
        // the benefit selection-vector compaction buys — without the
        // gather. Take it when the program fuses (bitwise-identical mask).
        if let Some(mask) = exprfuse::try_conjunct_mask(conjuncts, &input, self.models) {
            return narrow(input, keep).take(&mask_to_indices(&mask));
        }
        let mut ev = FusedEval::new(conjuncts);
        let mut acc: Option<Tensor> = None;
        let mut current = input;
        let mut compacted = false;
        for _ in 0..conjuncts.outputs.len() {
            if current.nrows() == 0 {
                return narrow(current, keep);
            }
            let mask = ev.step(&current, self.models);
            let mask = match acc.take() {
                Some(prev) => tqp_tensor::ops::and(&prev, &mask),
                None => mask,
            };
            let kept = tqp_tensor::index::count_true(&mask);
            if compacted || kept * 16 < current.nrows() {
                // Very selective: compact now, stream the rest over the
                // survivors (later LIKE-style conjuncts run on a fraction).
                let idx = mask_to_indices(&mask);
                current = current.take(&idx);
                ev.compact(&idx);
                compacted = true;
            } else {
                acc = Some(mask);
            }
        }
        // Later conjuncts read the predicate-only columns, so the batch
        // narrows only now.
        let current = narrow(current, keep);
        match acc {
            Some(mask) => current.take(&mask_to_indices(&mask)),
            None => current,
        }
    }

    fn apply_project(&self, exprs: &ExprProgram, input: &Batch) -> Batch {
        let outs = exprfuse::eval_all(exprs, input, self.models);
        let mut columns = Vec::with_capacity(outs.len());
        let mut validity = Vec::with_capacity(outs.len());
        for (v, val) in outs {
            columns.push(v);
            validity.push(val);
        }
        Batch::with_validity(columns, validity)
    }

    /// Execute a `Scan` with profiling/metering. Returns the scan source
    /// plus the original-coordinate layout (identity for in-memory tables;
    /// pruned ranges for stored tables when `prune_filter` zone tests
    /// skipped chunks). `prune_filter` is the compiled filter directly
    /// consuming this scan inside its pipeline segment, if any.
    ///
    /// In-memory tables and metered (GpuSim) runs return a fully
    /// materialized [`ScanSource::Whole`] — the meter needs real batch
    /// bytes and metered runs must stay sequential. CPU stored scans
    /// return a lazy [`ScanSource::Stream`]: only chunk *metadata* is read
    /// here (the pruning pre-pass); decode happens chunk-at-a-time as the
    /// pipeline segment pulls morsels.
    fn exec_scan_op(
        &self,
        idx: usize,
        op: &ProgOp,
        meter: &mut DeviceMeter,
        prune_filter: Option<&ExprProgram>,
    ) -> (ScanSource, ScanLayout) {
        let ProgOp::Scan {
            table, projection, ..
        } = op
        else {
            panic!("segment must start with a scan");
        };
        let start = self.profiler.now_us();
        let t0 = Instant::now();
        let src = self
            .storage
            .get(table)
            .unwrap_or_else(|| panic!("table {table} not ingested"));
        let (out, layout) = match src {
            TableSource::Mem(tt) => {
                let tensors: Vec<Tensor> = match projection {
                    Some(p) => p.iter().map(|&i| tt.tensors[i].clone()).collect(),
                    None => tt.tensors.clone(),
                };
                let out = Batch::new(tensors);
                let layout = ScanLayout::identity(out.nrows());
                (ScanSource::Whole(out), layout)
            }
            TableSource::Stored(st) => {
                let cols: Vec<usize> = match projection {
                    Some(p) => p.clone(),
                    None => (0..st.schema().len()).collect(),
                };
                // Zone-map pruning applies on both paths; metered (GpuSim)
                // runs still decode eagerly and sequentially, but only the
                // surviving chunks — skipped chunks never reach the device,
                // so neither wall time nor modeled bytes are spent on them.
                let preds = if self.prune {
                    prune_filter
                        .map(|f| stored::prunable_conjuncts(f, projection.as_deref()))
                        .unwrap_or_default()
                } else {
                    Vec::new()
                };
                if meter.is_enabled() {
                    let scan = stored::scan_stored(st, &cols, &preds, 1);
                    self.chunks_scanned
                        .fetch_add(scan.chunks_scanned, Ordering::Relaxed);
                    self.chunks_pruned
                        .fetch_add(scan.chunks_pruned, Ordering::Relaxed);
                    (ScanSource::Whole(scan.batch), scan.layout)
                } else {
                    let scan = stored::open_stream(st, &cols, &preds);
                    self.chunks_scanned
                        .fetch_add(scan.chunks_scanned, Ordering::Relaxed);
                    self.chunks_pruned
                        .fetch_add(scan.chunks_pruned, Ordering::Relaxed);
                    (ScanSource::Stream(scan.stream), scan.layout)
                }
            }
        };
        // A lazy stream has decoded nothing yet: charge zero bytes (the
        // meter is disabled on this path anyway) and record the kept row
        // count; per-chunk decode cost lands in the downstream ops' spans.
        let (rows, bytes) = match &out {
            ScanSource::Whole(b) => (b.nrows() as u64, b.nbytes()),
            ScanSource::Stream(s) => (s.nrows() as u64, 0),
        };
        meter.op(kernel_count("Scan", 0), 0, bytes);
        self.profiler.record(
            &op_key(&op.name(), idx),
            "relational",
            start,
            t0.elapsed().as_micros() as u64,
            rows,
            bytes as u64,
        );
        (out, layout)
    }

    /// Execute one op sequentially with profiling/metering.
    fn exec_op(
        &self,
        idx: usize,
        op: &ProgOp,
        regs: &mut [Option<Value>],
        meter: &mut DeviceMeter,
    ) {
        match op {
            ProgOp::Scan { dst, .. } => {
                let (out, _) = self.exec_scan_op(idx, op, meter, None);
                // A scan outside any segment feeds a barrier op that needs
                // the whole batch (decode fans out over the pool).
                regs[*dst] = Some(Value::Batch(out.into_batch(self.workers)));
            }
            ProgOp::Filter {
                dst,
                src,
                conjuncts,
                keep,
            } => {
                let child = regs[*src]
                    .as_ref()
                    .expect("src register live")
                    .batch()
                    .clone();
                let start = self.profiler.now_us();
                let t0 = Instant::now();
                let in_bytes = child.nbytes();
                let out = self.apply_filter(conjuncts, keep.as_deref(), child);
                meter.op(
                    kernel_count("Filter", conjuncts.outputs.len()),
                    in_bytes,
                    out.nbytes(),
                );
                self.span(&op_key(&op.name(), idx), start, t0, &out);
                regs[*dst] = Some(Value::Batch(out));
            }
            ProgOp::Project { dst, src, exprs } => {
                let child = regs[*src].as_ref().expect("src register live").batch();
                let start = self.profiler.now_us();
                let t0 = Instant::now();
                let in_bytes = child.nbytes();
                let out = self.apply_project(exprs, child);
                meter.op(
                    kernel_count("Project", exprs.outputs.len()),
                    in_bytes,
                    out.nbytes(),
                );
                self.span(&op_key(&op.name(), idx), start, t0, &out);
                regs[*dst] = Some(Value::Batch(out));
            }
            ProgOp::HashBuild {
                dst,
                src,
                keys,
                distinct,
            } => {
                let build = regs[*src].as_ref().expect("src register live").batch();
                let start = self.profiler.now_us();
                let t0 = Instant::now();
                let in_bytes: usize = keys.iter().map(|&k| build.columns[k].nbytes()).sum();
                let table = join::build_table_par(
                    build,
                    keys,
                    if meter.is_enabled() { 1 } else { self.workers },
                    *distinct,
                );
                let entries = table.len();
                meter.op(
                    kernel_count("HashBuild", keys.len()),
                    in_bytes,
                    entries * 12,
                );
                self.profiler.record(
                    &op_key(&op.name(), idx),
                    "relational",
                    start,
                    t0.elapsed().as_micros() as u64,
                    build.nrows() as u64,
                    (entries * 12) as u64,
                );
                regs[*dst] = Some(Value::Table(table));
            }
            ProgOp::HashProbe {
                dst,
                table,
                left,
                right,
                join_type,
                on,
                residual,
                build_left,
            } => {
                let t = regs[*table].as_ref().expect("table register live").table();
                let l = regs[*left].as_ref().expect("left register live").batch();
                let r = regs[*right].as_ref().expect("right register live").batch();
                let start = self.profiler.now_us();
                let t0 = Instant::now();
                let in_bytes = l.nbytes() + r.nbytes();
                let out = join::probe_table(
                    t,
                    l,
                    r,
                    *join_type,
                    on,
                    residual.as_ref(),
                    self.models,
                    if meter.is_enabled() { 1 } else { self.workers },
                    *build_left,
                );
                meter.op(kernel_count("HashProbe", on.len()), in_bytes, out.nbytes());
                self.span(&op_key(&op.name(), idx), start, t0, &out);
                regs[*dst] = Some(Value::Batch(out));
            }
            ProgOp::SortMergeJoin {
                dst,
                left,
                right,
                join_type,
                on,
                residual,
            } => {
                let l = regs[*left].as_ref().expect("left register live").batch();
                let r = regs[*right].as_ref().expect("right register live").batch();
                let start = self.profiler.now_us();
                let t0 = Instant::now();
                let in_bytes = l.nbytes() + r.nbytes();
                let out =
                    join::sort_merge_join(l, r, *join_type, on, residual.as_ref(), self.models);
                meter.op(kernel_count("Join", on.len()), in_bytes, out.nbytes());
                self.span(&op_key(&op.name(), idx), start, t0, &out);
                regs[*dst] = Some(Value::Batch(out));
            }
            ProgOp::CrossJoin { dst, left, right } => {
                let l = regs[*left].as_ref().expect("left register live").batch();
                let r = regs[*right].as_ref().expect("right register live").batch();
                let start = self.profiler.now_us();
                let t0 = Instant::now();
                let in_bytes = l.nbytes() + r.nbytes();
                let out = join::cross_join(l, r);
                meter.op(kernel_count("CrossJoin", 0), in_bytes, out.nbytes());
                self.span(&op_key(&op.name(), idx), start, t0, &out);
                regs[*dst] = Some(Value::Batch(out));
            }
            ProgOp::GroupedReduce {
                dst,
                src,
                strategy,
                reduce,
                groups,
            } => {
                let child = regs[*src].as_ref().expect("src register live").batch();
                let in_bytes = child.nbytes();
                let n = child.nrows();
                // Metered (GpuSim) runs stay sequential so modeled time is
                // worker-independent; the CPU path runs over morsels when
                // the input is large enough.
                let shape = agg::morsel_shape(reduce, *groups)
                    .filter(|_| !meter.is_enabled() && n >= agg::par_min_rows());
                let out = match shape {
                    Some(shape) => {
                        let rows = agg::par_morsel_rows();
                        let morsel =
                            |m: usize| (child.slice_rows(m * rows, ((m + 1) * rows).min(n)), ());
                        self.reduce_morsels(idx, op, shape, n.div_ceil(rows), morsel)
                            .0
                    }
                    None => {
                        let start = self.profiler.now_us();
                        let t0 = Instant::now();
                        let workers = if meter.is_enabled() { 1 } else { self.workers };
                        let out = agg::aggregate(child, reduce, *strategy, self.models, workers);
                        self.span(&op_key(&op.name(), idx), start, t0, &out);
                        out
                    }
                };
                meter.op(
                    kernel_count("Aggregate", reduce.aggs.len()),
                    in_bytes,
                    out.nbytes(),
                );
                regs[*dst] = Some(Value::Batch(out));
            }
            ProgOp::Sort {
                dst,
                src,
                keys,
                desc,
            } => {
                let child = regs[*src].as_ref().expect("src register live").batch();
                let start = self.profiler.now_us();
                let t0 = Instant::now();
                let in_bytes = child.nbytes();
                let tensor_keys: Vec<TSortKey> = exprfuse::eval_all(keys, child, self.models)
                    .into_iter()
                    .zip(desc)
                    .map(|((v, val), &d)| {
                        assert!(val.is_none(), "NULL sort keys unsupported");
                        TSortKey {
                            values: v,
                            order: if d { Order::Desc } else { Order::Asc },
                        }
                    })
                    .collect();
                // Safe at any worker count: a stable sort permutation is
                // unique, so the parallel chunk-sort + merge is
                // bit-identical to the sequential LSD sort.
                let perm = if meter.is_enabled() {
                    argsort_multi(&tensor_keys)
                } else {
                    argsort_multi_par(&tensor_keys, self.workers)
                };
                let out = child.take(&perm);
                meter.op(
                    kernel_count("Sort", keys.outputs.len()),
                    in_bytes,
                    out.nbytes(),
                );
                self.span(&op_key(&op.name(), idx), start, t0, &out);
                regs[*dst] = Some(Value::Batch(out));
            }
            ProgOp::Limit { dst, src, n } => {
                let child = regs[*src].as_ref().expect("src register live").batch();
                let start = self.profiler.now_us();
                let t0 = Instant::now();
                let k = (*n).min(child.nrows());
                let out = child.take(&arange(0, k as i64));
                meter.op(kernel_count("Limit", 0), 0, out.nbytes());
                self.span(&op_key(&op.name(), idx), start, t0, &out);
                regs[*dst] = Some(Value::Batch(out));
            }
        }
    }

    fn span(&self, name: &str, start: u64, t0: Instant, out: &Batch) {
        self.profiler.record(
            name,
            "relational",
            start,
            t0.elapsed().as_micros() as u64,
            out.nrows() as u64,
            out.nbytes() as u64,
        );
    }
}

/// The columns of `batch` a filter's keep-list names (all without one).
fn narrow(batch: Batch, keep: Option<&[usize]>) -> Batch {
    match keep {
        Some(cols) => batch.select(cols),
        None => batch,
    }
}

/// For each register, the index of the last op that reads it.
fn last_uses(prog: &TensorProgram) -> Vec<usize> {
    let mut last = vec![usize::MAX; prog.n_regs];
    for (i, op) in prog.ops.iter().enumerate() {
        for s in op.srcs() {
            last[s] = i;
        }
    }
    last
}

/// How many ops read each register (plus one for the program output).
fn register_use_counts(prog: &TensorProgram) -> Vec<usize> {
    let mut uses = vec![0usize; prog.n_regs];
    for op in &prog.ops {
        for s in op.srcs() {
            uses[s] += 1;
        }
    }
    uses[prog.output] += 1;
    uses
}

/// `segments[i] = j` means ops `[i, j)` form a chunkable pipeline: a Scan
/// at `i` followed by element-wise ops, each consuming exactly the
/// previous op's output register (and nothing else reading the
/// intermediates). `segments[i] = i` means no segment starts at `i`.
fn pipeline_segments(prog: &TensorProgram, uses: &[usize]) -> Vec<usize> {
    let mut segments = vec![0usize; prog.ops.len()];
    for (i, op) in prog.ops.iter().enumerate() {
        segments[i] = i;
        if !matches!(op, ProgOp::Scan { .. }) {
            continue;
        }
        let mut prev_dst = op.dst();
        let mut j = i + 1;
        while j < prog.ops.len() {
            let chainable = match &prog.ops[j] {
                ProgOp::Filter { src, .. } | ProgOp::Project { src, .. } => {
                    *src == prev_dst && uses[prev_dst] == 1
                }
                _ => false,
            };
            if !chainable {
                break;
            }
            prev_dst = prog.ops[j].dst();
            j += 1;
        }
        segments[i] = j;
    }
    segments
}

/// Materialize a batch into a typed frame using the program's output
/// schema (names already deduplicated by lowering).
pub fn batch_to_frame(batch: &Batch, schema: &[ColMeta]) -> DataFrame {
    assert_eq!(schema.len(), batch.ncols(), "schema/batch arity mismatch");
    for mask in batch.validity.iter().flatten() {
        assert!(
            mask.as_bool().iter().all(|&b| b),
            "NULL leaked into the final output (must be consumed by aggregates)"
        );
    }
    let fields: Vec<tqp_data::Field> = schema
        .iter()
        .map(|c| tqp_data::Field::new(c.name.clone(), c.ty))
        .collect();
    let columns = fields
        .iter()
        .zip(&batch.columns)
        .map(|(f, t)| tensor_to_column(t, f.ty))
        .collect();
    DataFrame::new(tqp_data::Schema::new(fields), columns)
}

fn tensor_to_column(t: &Tensor, ty: LogicalType) -> tqp_data::Column {
    use tqp_data::Column;
    match ty {
        LogicalType::Bool => Column::from_bool(t.as_bool().to_vec()),
        LogicalType::Int64 => Column::from_i64(t.cast(DType::I64).expect("i64 out").to_i64_vec()),
        LogicalType::Float64 => Column::from_f64(t.cast(DType::F64).expect("f64 out").to_f64_vec()),
        LogicalType::Date => {
            Column::from_date_ns(t.cast(DType::I64).expect("date out").to_i64_vec())
        }
        LogicalType::Str => Column::from_str((0..t.nrows()).map(|i| t.str_at(i)).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::lower;
    use std::collections::HashMap;
    use tqp_data::frame::df;
    use tqp_data::Column;
    use tqp_ir::{compile_sql, Catalog, PhysicalOptions};

    fn setup() -> (Storage, Catalog) {
        let t = df(vec![
            ("id", Column::from_i64(vec![1, 2, 3, 4])),
            (
                "grp",
                Column::from_str(vec!["a".into(), "b".into(), "a".into(), "b".into()]),
            ),
            ("v", Column::from_f64(vec![10.0, 20.0, 30.0, 40.0])),
        ]);
        let mut catalog = Catalog::new();
        catalog.register("t", t.schema().clone(), t.nrows());
        let mut tables = HashMap::new();
        tables.insert("t".to_string(), t);
        (crate::ingest_tables(&tables), catalog)
    }

    fn run(sql: &str, fused: bool) -> DataFrame {
        let (storage, catalog) = setup();
        let plan = compile_sql(sql, &catalog, &PhysicalOptions::default()).unwrap();
        let prog = lower(&plan);
        let models = ModelRegistry::new();
        let profiler = Profiler::disabled();
        let (out, _, _) = run_program(
            &prog,
            &storage,
            &models,
            &profiler,
            ExecConfig::default(),
            fused,
        );
        out
    }

    #[test]
    fn filter_project_eager_and_fused_agree() {
        for fused in [false, true] {
            let out = run(
                "select id, v * 2 as vv from t where v > 15.0 and id < 4 order by id",
                fused,
            );
            assert_eq!(out.nrows(), 2, "fused={fused}");
            assert_eq!(out.column(1).get(0).as_f64(), 40.0);
        }
    }

    #[test]
    fn filter_keeps_only_the_columns_read_above_it() {
        // `grp` and `v` are read by the predicate alone: the filter op
        // carries a keep-list and gathers `id` only, in both VM modes.
        let (_, catalog) = setup();
        let sql = "select id from t where grp = 'a' and v > 15.0";
        let plan = compile_sql(sql, &catalog, &PhysicalOptions::default()).unwrap();
        assert!(lower(&plan)
            .ops
            .iter()
            .any(|op| matches!(op, ProgOp::Filter { keep: Some(k), .. } if k.len() == 1)));
        for fused in [false, true] {
            let out = run(sql, fused);
            assert_eq!((out.nrows(), out.ncols()), (1, 1), "fused={fused}");
            assert_eq!(out.column(0).get(0).as_i64(), 3);
            // The constant-false short-circuit narrows too.
            let out = run("select id from t where grp = 'a' and 1 = 2", fused);
            assert_eq!((out.nrows(), out.ncols()), (0, 1), "fused={fused}");
        }
    }

    #[test]
    fn group_by_on_tensors() {
        let out = run(
            "select grp, sum(v) as s, count(*) as c from t group by grp order by grp",
            false,
        );
        assert_eq!(out.nrows(), 2);
        assert_eq!(out.column(1).get(0).as_f64(), 40.0);
        assert_eq!(out.column(2).get(1).as_i64(), 2);
    }

    #[test]
    fn profiler_spans_keyed_by_op_index() {
        let (storage, catalog) = setup();
        let plan = compile_sql(
            "select grp, sum(v) from t group by grp",
            &catalog,
            &PhysicalOptions::default(),
        )
        .unwrap();
        let prog = lower(&plan);
        let models = ModelRegistry::new();
        let profiler = Profiler::new();
        let _ = run_program(
            &prog,
            &storage,
            &models,
            &profiler,
            ExecConfig::default(),
            false,
        );
        let names: Vec<String> = profiler.aggregate().into_iter().map(|s| s.name).collect();
        assert!(names.iter().any(|n| n.starts_with("Scan")), "{names:?}");
        assert!(names.iter().any(|n| n.contains("Aggregate")), "{names:?}");
        // Spans are keyed by program op index.
        assert!(names.iter().all(|n| n.contains("@op")), "{names:?}");
    }

    #[test]
    fn gpu_meter_accumulates_per_op() {
        let (storage, catalog) = setup();
        let plan = compile_sql(
            "select id from t where v > 0.0",
            &catalog,
            &PhysicalOptions::default(),
        )
        .unwrap();
        let prog = lower(&plan);
        let models = ModelRegistry::new();
        let profiler = Profiler::disabled();
        let cfg = ExecConfig {
            device: Device::GpuSim,
            ..Default::default()
        };
        let (_, meter, _) = run_program(&prog, &storage, &models, &profiler, cfg, false);
        assert!(meter.total_us() > 0);
    }

    #[test]
    fn parallel_segment_matches_sequential() {
        // Large enough to cross PAR_SEGMENT_MIN_ROWS.
        let n = (PAR_SEGMENT_MIN_ROWS * 2 + 1234) as i64;
        let t = df(vec![
            ("id", Column::from_i64((0..n).collect())),
            (
                "v",
                Column::from_f64((0..n).map(|i| (i % 997) as f64).collect()),
            ),
        ]);
        let mut catalog = Catalog::new();
        catalog.register("big", t.schema().clone(), t.nrows());
        let mut tables = HashMap::new();
        tables.insert("big".to_string(), t);
        let storage = crate::ingest_tables(&tables);
        let plan = compile_sql(
            "select id, v * 3.0 + 1.0 as w from big where v > 500.0 and id % 3 = 0",
            &catalog,
            &PhysicalOptions::default(),
        )
        .unwrap();
        let prog = lower(&plan);
        let models = ModelRegistry::new();
        let profiler = Profiler::disabled();
        let seq_cfg = ExecConfig {
            workers: 1,
            ..Default::default()
        };
        let par_cfg = ExecConfig {
            workers: 4,
            ..Default::default()
        };
        let (seq, _, _) = run_program(&prog, &storage, &models, &profiler, seq_cfg, false);
        let (par, _, _) = run_program(&prog, &storage, &models, &profiler, par_cfg, false);
        assert_eq!(seq.nrows(), par.nrows());
        for i in 0..seq.nrows() {
            assert_eq!(seq.row(i), par.row(i), "row {i}");
        }
    }

    /// A scan→filter→project→group-by pipeline (Q1 shape) must produce
    /// byte-identical results at workers 1 vs N: the fused partitioned
    /// aggregation uses fixed morsel geometry, so the float merge order
    /// never depends on the worker count.
    #[test]
    fn fused_parallel_aggregation_bit_identical() {
        let n = (agg::par_min_rows() * 2 + 999) as i64;
        let t = df(vec![
            ("id", Column::from_i64((0..n).collect())),
            ("grp", Column::from_i64((0..n).map(|i| i % 5).collect())),
            (
                "v",
                Column::from_f64((0..n).map(|i| ((i % 9973) as f64) * 1e10 - 5e13).collect()),
            ),
        ]);
        let mut catalog = Catalog::new();
        catalog.register("big", t.schema().clone(), t.nrows());
        let mut tables = HashMap::new();
        tables.insert("big".to_string(), t);
        let storage = crate::ingest_tables(&tables);
        let plan = compile_sql(
            "select grp, sum(v) as s, avg(v) as a, count(*) as c, min(v) as mn, max(v) as mx \
             from big where id % 7 < 5 group by grp order by grp",
            &catalog,
            &PhysicalOptions::default(),
        )
        .unwrap();
        let prog = lower(&plan);
        let models = ModelRegistry::new();
        let profiler = Profiler::disabled();
        let mut frames = Vec::new();
        for workers in [1usize, 4, 7] {
            let cfg = ExecConfig {
                workers,
                ..Default::default()
            };
            for fused in [false, true] {
                let (out, _, _) = run_program(&prog, &storage, &models, &profiler, cfg, fused);
                frames.push((workers, fused, out));
            }
        }
        let (_, _, reference) = &frames[0];
        for (workers, fused, out) in &frames {
            assert_eq!(out.nrows(), reference.nrows());
            for i in 0..out.nrows() {
                assert_eq!(
                    format!("{:?}", out.row(i)),
                    format!("{:?}", reference.row(i)),
                    "workers={workers} fused={fused} row {i}"
                );
            }
        }
    }

    /// A fused scan→filter→global-aggregate whose filter matches nothing
    /// must keep the engine's empty-input semantics: one row of zeros —
    /// the same shape the sequential path (and any small input) produces.
    #[test]
    fn fused_global_aggregate_over_empty_filter_yields_zero_row() {
        let n = (agg::par_min_rows() * 2) as i64;
        let t = df(vec![
            ("id", Column::from_i64((0..n).collect())),
            ("v", Column::from_f64((0..n).map(|i| i as f64).collect())),
        ]);
        let mut catalog = Catalog::new();
        catalog.register("big", t.schema().clone(), t.nrows());
        let mut tables = HashMap::new();
        tables.insert("big".to_string(), t);
        let storage = crate::ingest_tables(&tables);
        let plan = compile_sql(
            "select count(*) as c, sum(v) as sv, min(v) as mn from big where v < -1.0",
            &catalog,
            &PhysicalOptions::default(),
        )
        .unwrap();
        let prog = lower(&plan);
        let models = ModelRegistry::new();
        let profiler = Profiler::disabled();
        for workers in [1usize, 4] {
            let cfg = ExecConfig {
                workers,
                ..Default::default()
            };
            let (out, _, _) = run_program(&prog, &storage, &models, &profiler, cfg, false);
            assert_eq!(out.nrows(), 1, "workers={workers}");
            assert_eq!(out.column(0).get(0).as_i64(), 0);
            assert_eq!(out.column(1).get(0).as_f64(), 0.0);
            assert_eq!(out.column(2).get(0).as_f64(), 0.0);
        }
    }

    #[test]
    fn segment_detection_stops_at_barriers() {
        let (_, catalog) = setup();
        let plan = compile_sql(
            "select grp, count(*) from t where v > 1.0 group by grp",
            &catalog,
            &PhysicalOptions::default(),
        )
        .unwrap();
        let prog = lower(&plan);
        let segments = pipeline_segments(&prog, &register_use_counts(&prog));
        // The scan's segment covers the filter but not the aggregate.
        let scan_idx = prog
            .ops
            .iter()
            .position(|o| matches!(o, ProgOp::Scan { .. }))
            .unwrap();
        let end = segments[scan_idx];
        assert!(end > scan_idx);
        for op in &prog.ops[scan_idx..end] {
            assert!(
                matches!(
                    op,
                    ProgOp::Scan { .. } | ProgOp::Filter { .. } | ProgOp::Project { .. }
                ),
                "{}",
                op.name()
            );
        }
    }
}

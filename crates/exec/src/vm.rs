//! The vectorized **register VM** — executes a [`TensorProgram`] for all
//! four backends.
//!
//! One VM, one code path (the paper's eager-vs-TorchScript axis is
//! decided before it runs):
//!
//! * **Eager**: no expression site carries a kernel, so every expression
//!   runs op-at-a-time through the generic walk and every intermediate
//!   register exists (PyTorch-eager semantics); a `Filter` evaluates all
//!   conjunct masks over the full input, AND-folds them and compacts once;
//! * **Fused** and **Graph**: the expression sites carry the kernels bound
//!   when the statement was compiled
//!   ([`crate::exprfuse::bind_program`]) — one chunked pass per site with
//!   no intermediate tensors; only sites no kernel can express (CASE,
//!   scalar functions, `PREDICT`, NULL constants) take the generic walk;
//! * **Wasm**: no kernels, as on Eager, run once on one CPU worker; its
//!   WASM-vs-native slowdown is modelled ([`crate::WASM_DILATION`]).
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
//! * **`HashProbe`** chunks the probe side across workers
//!   ([`crate::join::probe_table`]). The `HashBuild` before it stays one
//!   sequential pass pair ([`crate::join::build_table`]): a
//!   direct-addressed table for a dense single `I64` key, a hashed table
//!   for any other.
//! * **`Sort`** sorts row ranges as pool tasks and stable-merges them
//!   pairwise (`argsort_par`); a `Sort` with a `limit` selects its
//!   first rows per fixed-geometry morsel and merges those
//!   ([`tqp_tensor::sort::topk_range`]).
//!
//! All three are **bit-identical at every worker count**: aggregation by
//! the fixed-morsel merge order (partials) or because every group folds
//! its rows in input order inside one partition, probe because its chunks
//! concatenate in probe-row order over one table, sort because a stable
//! permutation is unique. `CrossJoin` assembly and `Limit` remain
//! sequential barriers.
//!
//! Every op reports a span keyed by its **program op index** (`Filter@op3`)
//! and charges the [`DeviceMeter`] — the simulated-GPU path stays
//! single-threaded so modeled time is independent of host parallelism.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tqp_data::{DataFrame, LogicalType};
use tqp_ir::plan::ColMeta;
use tqp_obs::{op_key, TraceRecorder, TraceSpan};
use tqp_tensor::index::{arange, mask_to_indices};
use tqp_tensor::sort::{
    argsort_multi, argsort_range, merge_runs, topk_merge, topk_range, Order, SortKey as TSortKey,
};
use tqp_tensor::{DType, Tensor};

use crate::agg;
use crate::batch::Batch;
use crate::device::{kernel_count, DeviceMeter};
use crate::exprfuse;
use crate::exprprog::ExprProgram;
use crate::join;
use crate::program::{ProgOp, TensorProgram};
use crate::sched::PredictTally;
use crate::stored::{self, ScanLayout, ScanSource};
use crate::{Device, ExecConfig, ScanStats, Storage, TableSource};

/// Minimum scanned rows before a pipeline segment is worth chunking.
const PAR_SEGMENT_MIN_ROWS: usize = 64 * 1024;

/// Minimum rows before a full sort splits into runs and merges; a run
/// holds at least a quarter of this.
const PAR_SORT_MIN_ROWS: usize = 32 * 1024;

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
/// device meter, and chunk-scan counters; a traced run records its spans
/// into `trace`. Every backend runs the same
/// code; they differ only in the kernels bound into the program's
/// expression sites when it was lowered or loaded
/// ([`crate::exprfuse::bind_program`]) and, for Wasm, in the worker count.
/// A site without a kernel takes the generic op-at-a-time walk.
pub fn run_program(
    prog: &TensorProgram,
    storage: &Storage,
    trace: Option<&TraceRecorder>,
    cfg: ExecConfig,
) -> (DataFrame, DeviceMeter, ScanStats) {
    let mut meter = DeviceMeter::new(cfg.device == Device::GpuSim, cfg.gpu_strategy);
    let cx = Vm {
        storage,
        trace,
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
    /// The run's recorder; `None` when it is untraced.
    trace: Option<&'a TraceRecorder>,
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
            // A chunkable segment: Scan + element-wise chain, entered for
            // every Scan — including at workers = 1, because the *fused
            // aggregation* route below must be taken independently of the
            // worker count for its morsel geometry (and thus float
            // rounding) to be worker-invariant. Fusion and parallel
            // execution are only taken on the real-CPU path: the GPU cost
            // model charges whole-tensor kernels, so metered runs prune
            // their scan and then finish the segment sequentially, which
            // keeps modeled time worker-independent.
            let seg_end = segments[i];
            if seg_end > i {
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
                    }) if !meter.is_enabled()
                        && *src == prog.ops[seg_end - 1].dst()
                        && uses[*src] == 1 =>
                    {
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
                if seg_end > i + 1
                    && self.workers > 1
                    && !meter.is_enabled()
                    && scanned.nrows() >= PAR_SEGMENT_MIN_ROWS
                {
                    let out = self.exec_segment_parallel(prog, i, seg_end, scanned);
                    regs[prog.ops[seg_end - 1].dst()] = Some(Value::Batch(out));
                    for k in i..seg_end {
                        self.release(&mut regs, &prog.ops[k], &last_use, k, prog.output);
                    }
                    i = seg_end;
                    continue;
                }
                // Metered, or too small to chunk: finish the segment
                // sequentially.
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

    /// Run one morsel through the element-wise chain `ops[start+1..end]`,
    /// with one sample per chain op.
    fn run_chain_morsel(
        &self,
        prog: &TensorProgram,
        start: usize,
        end: usize,
        mut batch: Batch,
    ) -> (Batch, Vec<OpSample>) {
        // Morsel boundary: each worker checks its query's token before
        // pushing another morsel through the chain.
        crate::sched::check_cancelled();
        let mut samples = Vec::with_capacity(end - start - 1);
        for (k, op) in prog.ops[start + 1..end].iter().enumerate() {
            let t0 = Instant::now();
            batch = self.charged(start + 1 + k, || self.apply_elementwise(op, batch));
            samples.push((
                t0.elapsed().as_micros() as u64,
                batch.nrows() as u64,
                batch.nbytes() as u64,
            ));
        }
        (batch, samples)
    }

    /// Record one span per chain op `ops[start+1..end]` from its samples
    /// over all morsels: duration is worker time summed over morsels,
    /// rows and bytes the op's output.
    fn record_chain(
        &self,
        prog: &TensorProgram,
        start: usize,
        end: usize,
        t0: Instant,
        morsels: &[Vec<OpSample>],
    ) {
        for (k, op) in prog.ops[start + 1..end].iter().enumerate() {
            let sum = morsels.iter().fold((0, 0, 0), |acc, m| {
                (acc.0 + m[k].0, acc.1 + m[k].1, acc.2 + m[k].2)
            });
            self.record(start + 1 + k, op, t0, sum, morsels.len());
        }
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
        let t0 = Instant::now();

        // Chunk tasks go to the shared pool scheduler: at most
        // `self.workers` threads execute them (caller included), and
        // concurrent queries share the same pool instead of spawning
        // their own threads.
        let scanned = &scanned;
        let (parts, samples): (Vec<Batch>, Vec<Vec<OpSample>>) =
            crate::sched::map_tasks(n_chunks, self.workers, |c| {
                let lo = c * chunk_len;
                let hi = ((c + 1) * chunk_len).min(n);
                // Slice inside the worker so morsel materialization is
                // itself parallel, not a sequential prefix.
                self.run_chain_morsel(prog, start, end, scanned.slice_rows(lo, hi))
            })
            .into_iter()
            .unzip();
        let out = Batch::vcat_all(parts);
        self.record_chain(prog, start, end, t0, &samples);
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
        let t0 = Instant::now();

        let scanned = &scanned;
        let (out, samples) =
            self.reduce_morsels(chain_end, &prog.ops[chain_end], shape, n_morsels, |m| {
                let lo = m * morsel_rows;
                let hi = ((m + 1) * morsel_rows).min(n_orig);
                let (lo, hi) = layout.project(lo, hi);
                self.run_chain_morsel(prog, start, chain_end, scanned.slice_rows(lo, hi))
            });
        self.record_chain(prog, start, chain_end, t0, &samples);
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
        let ProgOp::GroupedReduce { reduce, .. } = op else {
            panic!("op {} is not a reduction", op.name());
        };
        let t0 = Instant::now();
        let (out, extras, busy_us) = self.charged(idx, || {
            agg::aggregate_morsels(n_morsels, morsel, shape, reduce, self.workers)
        });
        let sample = (busy_us, out.nrows() as u64, out.nbytes() as u64);
        self.record(idx, op, t0, sample, n_morsels);
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
        // One kernel pass when the program has one bound, otherwise every
        // conjunct over the full input in one straight-line walk (shared
        // subterms once) AND-folded into one scratch mask; compact once.
        let mask = exprfuse::conjunct_mask(conjuncts, &input);
        narrow(input, keep).take(&mask_to_indices(&mask))
    }

    fn apply_project(&self, exprs: &ExprProgram, input: &Batch) -> Batch {
        let outs = exprfuse::eval_all(exprs, input);
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
                let scan = stored::open_stream(st, &cols, &preds);
                self.chunks_scanned
                    .fetch_add(scan.chunks_scanned, Ordering::Relaxed);
                self.chunks_pruned
                    .fetch_add(scan.chunks_pruned, Ordering::Relaxed);
                let out = if meter.is_enabled() {
                    ScanSource::Whole(scan.stream.into_batch(1))
                } else {
                    ScanSource::Stream(scan.stream)
                };
                (out, scan.layout)
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
        let sample = (t0.elapsed().as_micros() as u64, rows, bytes as u64);
        self.record(idx, op, t0, sample, 0);
        (out, layout)
    }

    /// Run `f` charging the PREDICT work inside it — on any thread — to
    /// program op `idx` (traced runs only; see [`crate::sched::PredictTally`]).
    fn charged<T>(&self, idx: usize, f: impl FnOnce() -> T) -> T {
        let Some(trace) = self.trace else {
            return f();
        };
        let tally = Arc::new(PredictTally::default());
        let out = crate::sched::with_predict_tally(&tally, f);
        let (us, rows) = tally.get();
        if rows > 0 {
            trace.record_predict(idx, us, rows);
        }
        out
    }

    /// Execute one op sequentially with profiling/metering.
    fn exec_op(
        &self,
        idx: usize,
        op: &ProgOp,
        regs: &mut [Option<Value>],
        meter: &mut DeviceMeter,
    ) {
        self.charged(idx, || self.run_op(idx, op, regs, meter));
    }

    fn run_op(&self, idx: usize, op: &ProgOp, regs: &mut [Option<Value>], meter: &mut DeviceMeter) {
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
                let t0 = Instant::now();
                let in_bytes = child.nbytes();
                let out = self.apply_filter(conjuncts, keep.as_deref(), child);
                meter.op(
                    kernel_count("Filter", conjuncts.outputs.len()),
                    in_bytes,
                    out.nbytes(),
                );
                self.span(idx, op, t0, &out);
                regs[*dst] = Some(Value::Batch(out));
            }
            ProgOp::Project { dst, src, exprs } => {
                let child = regs[*src].as_ref().expect("src register live").batch();
                let t0 = Instant::now();
                let in_bytes = child.nbytes();
                let out = self.apply_project(exprs, child);
                meter.op(
                    kernel_count("Project", exprs.outputs.len()),
                    in_bytes,
                    out.nbytes(),
                );
                self.span(idx, op, t0, &out);
                regs[*dst] = Some(Value::Batch(out));
            }
            ProgOp::HashBuild { dst, src, keys } => {
                let build = regs[*src].as_ref().expect("src register live").batch();
                let t0 = Instant::now();
                let in_bytes: usize = keys.iter().map(|&k| build.columns[k].nbytes()).sum();
                let table = join::build_table(build, keys);
                let entries = table.len();
                meter.op(
                    kernel_count("HashBuild", keys.len()),
                    in_bytes,
                    entries * 12,
                );
                let sample = (
                    t0.elapsed().as_micros() as u64,
                    build.nrows() as u64,
                    (entries * 12) as u64,
                );
                self.record(idx, op, t0, sample, 0);
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
                let t0 = Instant::now();
                let in_bytes = l.nbytes() + r.nbytes();
                let out = join::probe_table(
                    t,
                    l,
                    r,
                    *join_type,
                    on,
                    residual.as_ref(),
                    if meter.is_enabled() { 1 } else { self.workers },
                    *build_left,
                );
                meter.op(kernel_count("HashProbe", on.len()), in_bytes, out.nbytes());
                self.span(idx, op, t0, &out);
                regs[*dst] = Some(Value::Batch(out));
            }
            ProgOp::CrossJoin { dst, left, right } => {
                let l = regs[*left].as_ref().expect("left register live").batch();
                let r = regs[*right].as_ref().expect("right register live").batch();
                let t0 = Instant::now();
                let in_bytes = l.nbytes() + r.nbytes();
                let out = join::cross_join(l, r);
                meter.op(kernel_count("CrossJoin", 0), in_bytes, out.nbytes());
                self.span(idx, op, t0, &out);
                regs[*dst] = Some(Value::Batch(out));
            }
            ProgOp::GroupedReduce {
                dst,
                src,
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
                        let t0 = Instant::now();
                        let out = agg::aggregate(child, reduce);
                        self.span(idx, op, t0, &out);
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
                limit,
            } => {
                let child = regs[*src].as_ref().expect("src register live").batch();
                let t0 = Instant::now();
                let in_bytes = child.nbytes();
                let tensor_keys: Vec<TSortKey> = exprfuse::eval_all(keys, child)
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
                let perm = if meter.is_enabled() {
                    let perm = argsort_multi(&tensor_keys);
                    match limit {
                        Some(k) => tqp_tensor::index::head(&perm, (*k).min(perm.nrows())),
                        None => perm,
                    }
                } else {
                    sort_perm(&tensor_keys, child.nrows(), *limit, self.workers)
                };
                let out = child.take(&perm);
                meter.op(
                    kernel_count("Sort", keys.outputs.len()),
                    in_bytes,
                    out.nbytes(),
                );
                self.span(idx, op, t0, &out);
                regs[*dst] = Some(Value::Batch(out));
            }
            ProgOp::Limit { dst, src, n } => {
                let child = regs[*src].as_ref().expect("src register live").batch();
                let t0 = Instant::now();
                let k = (*n).min(child.nrows());
                let out = child.take(&arange(0, k as i64));
                meter.op(kernel_count("Limit", 0), 0, out.nbytes());
                self.span(idx, op, t0, &out);
                regs[*dst] = Some(Value::Batch(out));
            }
        }
    }

    /// Record op `idx`'s span, begun at `t0` over `chunks` morsels (0 when
    /// it ran sequentially), when the run is traced.
    fn record(
        &self,
        idx: usize,
        op: &ProgOp,
        t0: Instant,
        (dur_us, rows, bytes): OpSample,
        chunks: usize,
    ) {
        if let Some(trace) = self.trace {
            trace.record(TraceSpan {
                name: op_key(&op.name(), idx),
                category: "relational".to_string(),
                start_us: trace.offset_us(t0),
                dur_us,
                rows,
                bytes,
                chunks: chunks as u64,
            });
        }
    }

    /// Record a sequential op's span: from `t0` to now, producing `out`.
    fn span(&self, idx: usize, op: &ProgOp, t0: Instant, out: &Batch) {
        let sample = (
            t0.elapsed().as_micros() as u64,
            out.nrows() as u64,
            out.nbytes() as u64,
        );
        self.record(idx, op, t0, sample, 0);
    }
}

/// The stable sort permutation of `n` rows under `keys`, or its first
/// `limit` entries. With a limit, each fixed-geometry morsel
/// ([`agg::par_morsel_rows`]) selects its first `k` rows on the shared
/// pool and one merge keeps `k` of those — unless the morsels' candidates
/// would cover the input anyway, where the full sort is as cheap. Both
/// routes are bit-identical to the sequential sort at any worker count: a
/// stable sort permutation is unique.
fn sort_perm(keys: &[TSortKey], n: usize, limit: Option<usize>, workers: usize) -> Tensor {
    let rows = agg::par_morsel_rows();
    let morsels = n.div_ceil(rows);
    match limit {
        Some(k) if k.saturating_mul(morsels) < n => {
            let candidates = crate::sched::map_tasks(morsels, workers, |m| {
                topk_range(keys, m * rows, ((m + 1) * rows).min(n), k)
            });
            topk_merge(keys, candidates.concat(), k)
        }
        _ => argsort_par(keys, workers),
    }
}

/// The stable sort permutation of all rows under `keys` on the shared
/// pool: up to `workers` contiguous runs of at least
/// `PAR_SORT_MIN_ROWS / 4` rows sort as one section of tasks
/// ([`argsort_range`]), then adjacent runs merge pairwise, one section per
/// level ([`merge_runs`]). An odd last run — the highest rows — moves up a
/// level untouched, keeping the adjacency that makes take-left-on-ties
/// stable. A stable sort permutation is unique, so the result is
/// bit-identical to [`argsort_multi`] at every worker count.
pub(crate) fn argsort_par(keys: &[TSortKey], workers: usize) -> Tensor {
    let n = keys.first().map_or(0, |k| k.values.nrows());
    if workers <= 1 || n < PAR_SORT_MIN_ROWS {
        return argsort_multi(keys);
    }
    let n_runs = workers.min(n / (PAR_SORT_MIN_ROWS / 4));
    let len = n.div_ceil(n_runs);
    let mut runs = crate::sched::map_tasks(n_runs, workers, |r| {
        argsort_range(keys, r * len, ((r + 1) * len).min(n))
    });
    while runs.len() > 1 {
        let leftover = if runs.len() % 2 == 1 {
            runs.pop()
        } else {
            None
        };
        let mut merged = crate::sched::map_tasks(runs.len() / 2, workers, |p| {
            merge_runs(keys, &runs[2 * p], &runs[2 * p + 1])
        });
        merged.extend(leftover);
        runs = merged;
    }
    Tensor::from_i64(runs.pop().expect("the runs merged into one"))
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

    /// Run `sql`, with the Fused backend's kernels bound when `fused`.
    fn run(sql: &str, fused: bool) -> DataFrame {
        let (storage, catalog) = setup();
        let plan = compile_sql(sql, &catalog, &PhysicalOptions).unwrap();
        let mut prog = lower(&plan);
        if fused {
            crate::exprfuse::bind_program(&mut prog);
        }
        let (out, _, _) = run_program(&prog, &storage, None, ExecConfig::default());
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
        let plan = compile_sql(sql, &catalog, &PhysicalOptions).unwrap();
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
    fn spans_keyed_by_op_index() {
        let (storage, catalog) = setup();
        let plan = compile_sql(
            "select grp, sum(v) from t group by grp",
            &catalog,
            &PhysicalOptions,
        )
        .unwrap();
        let prog = lower(&plan);
        let rec = TraceRecorder::new();
        let _ = run_program(&prog, &storage, Some(&rec), ExecConfig::default());
        let names: Vec<String> = rec.into_trace().spans.into_iter().map(|s| s.name).collect();
        assert!(names.iter().any(|n| n.starts_with("Scan")), "{names:?}");
        assert!(names.iter().any(|n| n.contains("Aggregate")), "{names:?}");
        // Spans are keyed by program op index.
        assert!(names.iter().all(|n| n.contains("@op")), "{names:?}");
    }

    #[test]
    fn gpu_meter_accumulates_per_op() {
        let (storage, catalog) = setup();
        let plan =
            compile_sql("select id from t where v > 0.0", &catalog, &PhysicalOptions).unwrap();
        let prog = lower(&plan);
        let cfg = ExecConfig {
            device: Device::GpuSim,
            ..Default::default()
        };
        let (_, meter, _) = run_program(&prog, &storage, None, cfg);
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
            &PhysicalOptions,
        )
        .unwrap();
        let prog = lower(&plan);
        let seq_cfg = ExecConfig {
            workers: 1,
            ..Default::default()
        };
        let par_cfg = ExecConfig {
            workers: 4,
            ..Default::default()
        };
        let (seq, _, _) = run_program(&prog, &storage, None, seq_cfg);
        let (par, _, _) = run_program(&prog, &storage, None, par_cfg);
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
            &PhysicalOptions,
        )
        .unwrap();
        let prog = lower(&plan);
        let mut frames = Vec::new();
        for workers in [1usize, 4, 7] {
            let cfg = ExecConfig {
                workers,
                ..Default::default()
            };
            for fused in [false, true] {
                let mut prog = prog.clone();
                if fused {
                    crate::exprfuse::bind_program(&mut prog);
                }
                let (out, _, _) = run_program(&prog, &storage, None, cfg);
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
            &PhysicalOptions,
        )
        .unwrap();
        let prog = lower(&plan);
        for workers in [1usize, 4] {
            let cfg = ExecConfig {
                workers,
                ..Default::default()
            };
            let (out, _, _) = run_program(&prog, &storage, None, cfg);
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
            &PhysicalOptions,
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

    /// Deterministic LCG for the sort tests (no rand dependency).
    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed >> 33
    }

    #[test]
    fn parallel_argsort_bit_identical_to_sequential() {
        let n = PAR_SORT_MIN_ROWS * 2 + 777;
        let mut seed = 42u64;
        // Low-cardinality primary key (many ties → stability matters),
        // floats with NaNs, and a string key.
        let a = Tensor::from_i64((0..n).map(|_| (lcg(&mut seed) % 7) as i64).collect());
        let b = Tensor::from_f64(
            (0..n)
                .map(|_| {
                    let v = lcg(&mut seed);
                    if v.is_multiple_of(97) {
                        f64::NAN
                    } else {
                        (v % 1000) as f64 / 7.0
                    }
                })
                .collect(),
        );
        let words = ["kiwi", "apple", "pear", "zed", "ap"];
        let strs: Vec<&str> = (0..n)
            .map(|_| words[(lcg(&mut seed) % 5) as usize])
            .collect();
        let c = Tensor::from_strings(&strs, 0);
        let keys = [TSortKey::asc(a), TSortKey::desc(b), TSortKey::asc(c)];
        let seq = argsort_multi(&keys);
        for workers in [1, 2, 3, 8] {
            let par = argsort_par(&keys, workers);
            assert_eq!(seq.as_i64(), par.as_i64(), "workers={workers}");
        }
    }

    /// A sort of `n` rows by one all-equal key, under a cancelled token.
    fn sort_cancelled(n: usize) -> std::thread::Result<Tensor> {
        let token = crate::sched::CancelToken::new();
        token.cancel();
        let keys = [TSortKey::asc(Tensor::from_i64(vec![5; n]))];
        std::panic::catch_unwind(|| crate::sched::with_token(&token, || argsort_par(&keys, 4)))
    }

    #[test]
    fn parallel_argsort_small_input_runs_inline() {
        let t = Tensor::from_i64(vec![3, 1, 2, 1]);
        let p = argsort_par(&[TSortKey::asc(t)], 4);
        assert_eq!(p.as_i64(), &[1, 3, 2, 0]);
        // No section and no cancellation check: a cancelled token cannot
        // stop a sort below the split threshold.
        let p = sort_cancelled(PAR_SORT_MIN_ROWS - 1).expect("sorted inline");
        assert_eq!(p.nrows(), PAR_SORT_MIN_ROWS - 1);
    }

    #[test]
    fn parallel_argsort_all_equal_keys_keeps_row_order() {
        let n = PAR_SORT_MIN_ROWS + 10;
        let p = argsort_par(&[TSortKey::asc(Tensor::from_i64(vec![5; n]))], 4);
        let expect: Vec<i64> = (0..n as i64).collect();
        assert_eq!(p.as_i64(), &expect[..]);
    }

    #[test]
    fn parallel_argsort_unwinds_on_a_cancelled_token() {
        let Err(err) = sort_cancelled(PAR_SORT_MIN_ROWS) else {
            panic!("the sort finished under a cancelled token");
        };
        let c = crate::sched::cancelled_payload(err.as_ref()).expect("Cancelled payload");
        assert_eq!(c.0, crate::sched::CancelReason::Cancelled);
    }

    #[test]
    fn parallel_argsort_opens_scheduler_sections() {
        let sections = tqp_obs::registry().counter("sched.sections");
        let before = sections.get();
        let n = PAR_SORT_MIN_ROWS;
        let keys = [TSortKey::desc(Tensor::from_i64((0..n as i64).collect()))];
        let p = argsort_par(&keys, 2);
        assert_eq!(p.as_i64()[0], n as i64 - 1);
        assert!(
            sections.get() > before,
            "the sort ran outside the scheduler"
        );
    }
}

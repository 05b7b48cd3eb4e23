//! # tqp-exec — TQP's planning and execution layers (paper §2.2)
//!
//! Compiles a physical plan into a **[`program::TensorProgram`]** — a
//! flat, register-based tensor-op sequence, the paper's "tensor program"
//! — and executes *that one program* on a choice of backend × device.
//! Scalar expressions inside the program are themselves compiled: every
//! filter conjunct, projection, join residual, group key, aggregate
//! input, sort key, and `PREDICT` splice point lowers to a flat
//! **[`exprprog::ExprProgram`]** (constant folding + cross-expression
//! CSE at lowering time), so no backend walks an expression tree per
//! batch — or per row:
//!
//! | paper               | here                                            |
//! |---------------------|-------------------------------------------------|
//! | PyTorch eager       | [`Backend::Eager`] — vectorized register VM,    |
//! |                     | every intermediate materialized ([`vm`])        |
//! | TorchScript         | [`Backend::Fused`] — the same VM, every         |
//! |                     | expression site bound at compile time to a      |
//! |                     | specialized kernel ([`exprfuse`])               |
//! | ONNX                | [`Backend::Graph`] — the program serialized to a|
//! |                     | versioned, self-describing artifact, loaded with|
//! |                     | kernels bound and executed by the VM            |
//! |                     | ([`graphvm`])                                   |
//! | ORT-Web (WASM)      | [`Backend::Wasm`] — the same artifact loaded    |
//! |                     | with no kernels and run by the VM on one worker,|
//! |                     | dilated ([`graphvm`])                           |
//! | CUDA device         | [`Device::GpuSim`] — kernels run on CPU for     |
//! |                     | correctness, wall-clock is replaced by an       |
//! |                     | analytical P100 cost model ([`device`])         |
//!
//! On the real-CPU path the VM additionally runs morsel-parallel across
//! [`ExecConfig::workers`] worker threads: scan → filter → project
//! pipeline segments chunk into contiguous morsels, `GroupedReduce` runs
//! partitioned (fixed-geometry partials merged in morsel order — fusing
//! into a preceding segment when data-flow allows), `HashBuild` builds
//! radix-partitioned, and `Sort` chunk-sorts + stable-merges — or, under a
//! `LIMIT`, selects per morsel and merges the candidates (see [`vm`]).
//! Results are byte-identical at every worker count; `Device::GpuSim`
//! and `Backend::Wasm` ignore `workers` entirely and stay sequential.
//!
//! Switching is one line of configuration — the paper's Figure 3:
//!
//! ```ignore
//! let cfg = ExecConfig { backend: Backend::Fused, device: Device::GpuSim, ..Default::default() };
//! ```

pub mod agg;
pub mod batch;
pub mod device;
pub mod expr;
pub mod exprfuse;
pub mod exprprog;
pub mod graphvm;
pub mod join;
pub mod program;
pub mod sched;
pub mod stored;
pub mod viz;
pub mod vm;

use std::collections::HashMap;
use std::sync::Arc;

use tqp_data::ingest::TensorTable;
use tqp_data::DataFrame;
use tqp_ir::physical::PhysicalPlan;
use tqp_ml::ModelRegistry;
use tqp_obs::TraceRecorder;
use tqp_store::StoredTable;

/// Execution backend (the paper's lowering targets, §2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Vectorized register-VM execution, expressions op-at-a-time through
    /// the generic walk (PyTorch eager).
    Eager,
    /// The same VM with every expression site bound at compile time to a
    /// specialized kernel where one fits (TorchScript / `torch.jit`). The
    /// default.
    Fused,
    /// Serialize the program to the portable artifact; loading it binds
    /// the same kernels as Fused, and the vectorized VM runs it (ONNX +
    /// ORT).
    Graph,
    /// The same artifact loaded without kernels and run by the VM on one
    /// CPU worker, repeated to model WASM-vs-native slowdown (ORT-Web on
    /// WASM).
    Wasm,
}

/// Hardware target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Device {
    /// Real execution, real wall-clock, all cores.
    Cpu,
    /// Simulated GPU: results computed on CPU, time from the cost model.
    GpuSim,
}

/// GPU data-placement policy (the TQP-vs-BlazingSQL axis of §1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuStrategy {
    /// Whole query resident on device; one H2D upload, one D2H download.
    Resident,
    /// Every operator ships inputs to the device and results back
    /// (BlazingSQL-style per-operator transfers).
    PerOpTransfer,
}

/// Full execution configuration (paper Figure 3's one-line switch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    pub backend: Backend,
    pub device: Device,
    pub gpu_strategy: GpuStrategy,
    /// Zone-map chunk pruning for `tqp-store`-backed scans (default on).
    /// Pruning never changes results — it only skips chunks the following
    /// filter would empty. Off, every chunk is decoded: the reference scan
    /// the pruning tests (`store_differential`) compare against.
    pub prune_scans: bool,
    /// Worker threads for morsel-parallel CPU execution: chunked pipeline
    /// segments, partitioned aggregation (optionally fused into its
    /// feeding segment), radix-partitioned join build, parallel hash-probe
    /// and parallel sort. `1` = single-threaded scheduling.
    ///
    /// **Knob interactions.** Changing `workers` never changes results —
    /// parallel ops derive their partition geometry from the input, not
    /// the thread count, so outputs are byte-identical at any setting (see
    /// `ARCHITECTURE.md` "Parallel chunked execution"). On
    /// `Device::GpuSim` the knob is ignored: metered runs stay fully
    /// sequential so modeled time is worker-independent. `Backend::Wasm`
    /// ignores it too and always runs on one worker. The aggregation
    /// morsel size is tunable via `TQP_AGG_MORSEL_ROWS` (read once per
    /// process); shrinking it below the default 16 Ki rows trades merge
    /// overhead for scheduling granularity without affecting determinism.
    pub workers: usize,
}

/// Default CPU worker count: all cores, capped at 8 — the width of the
/// shared scheduler pool ([`sched::pool_threads`]) unless overridden.
/// Asked of the OS once: `available_parallelism` reads the affinity mask
/// and cgroup files on every call, which costs more than a small query.
pub fn default_workers() -> usize {
    static WORKERS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8)
    })
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            backend: Backend::Fused,
            device: Device::Cpu,
            gpu_strategy: GpuStrategy::Resident,
            prune_scans: true,
            workers: default_workers(),
        }
    }
}

/// One executable table: fully ingested tensors, or an on-disk
/// `tqp-store` table decoded chunk-at-a-time by the scan path.
#[derive(Debug, Clone)]
pub enum TableSource {
    /// In-memory tensor form (the classic `frame_to_tensors` ingest).
    Mem(TensorTable),
    /// Persistent chunked columnar storage; scans prune and decode chunks
    /// on demand (see [`stored`]).
    Stored(Arc<StoredTable>),
}

impl TableSource {
    /// The table schema.
    pub fn schema(&self) -> &tqp_data::Schema {
        match self {
            TableSource::Mem(t) => &t.schema,
            TableSource::Stored(t) => t.schema(),
        }
    }

    /// Total rows.
    pub fn nrows(&self) -> usize {
        match self {
            TableSource::Mem(t) => t.nrows(),
            TableSource::Stored(t) => t.nrows(),
        }
    }

    /// Materialize as a whole tensor table (decodes every chunk of a
    /// stored table, sequentially and unpruned; the VM scan never calls
    /// this).
    pub fn to_tensor_table(&self) -> TensorTable {
        match self {
            TableSource::Mem(t) => t.clone(),
            TableSource::Stored(t) => stored::materialize(t),
        }
    }

    /// Bytes of column data the table keeps in memory, by buffer kind: a
    /// stored table decodes chunks on demand and keeps none.
    pub fn resident_bytes(&self) -> tqp_tensor::Footprint {
        match self {
            TableSource::Mem(t) => t.footprint(),
            TableSource::Stored(_) => tqp_tensor::Footprint::default(),
        }
    }

    /// The stored-table handle, when disk-backed.
    pub fn as_stored(&self) -> Option<&Arc<StoredTable>> {
        match self {
            TableSource::Stored(t) => Some(t),
            TableSource::Mem(_) => None,
        }
    }
}

impl From<TensorTable> for TableSource {
    fn from(t: TensorTable) -> TableSource {
        TableSource::Mem(t)
    }
}

impl From<Arc<StoredTable>> for TableSource {
    fn from(t: Arc<StoredTable>) -> TableSource {
        TableSource::Stored(t)
    }
}

/// Table storage: the output of ingestion (paper §2.1) — in-memory tensor
/// tables and/or handles to persistent `tqp-store` tables.
pub type Storage = HashMap<String, TableSource>;

/// Chunk-level accounting for one execution's stored-table scans (all
/// zero when every scanned table is in-memory).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Chunks decoded.
    pub chunks_scanned: u64,
    /// Chunks skipped by the zone-map pruning pre-pass.
    pub chunks_pruned: u64,
}

impl ScanStats {
    /// Accumulate another scan's counters.
    pub fn add(&mut self, other: ScanStats) {
        self.chunks_scanned += other.chunks_scanned;
        self.chunks_pruned += other.chunks_pruned;
    }
}

/// Timing/accounting for one execution.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Real wall-clock of the run, microseconds.
    pub wall_us: u64,
    /// Modeled device time (populated when `device == GpuSim`).
    pub gpu_modeled_us: Option<u64>,
    /// Output rows.
    pub rows: usize,
    /// Stored-table chunks decoded (0 for in-memory scans).
    pub chunks_scanned: u64,
    /// Stored-table chunks skipped by zone-map pruning.
    pub chunks_pruned: u64,
    /// Per-family SIMD kernel dispatches during this run (how many times a
    /// vectorized hash/filter/gather/reduce/decode path was taken; all zero
    /// under `TQP_SIMD=off` or when the host lacks AVX2).
    pub simd_dispatch: tqp_tensor::simd::DispatchCounts,
}

impl ExecStats {
    /// The figure-of-merit: modeled time on the simulated GPU, otherwise
    /// real wall time.
    pub fn reported_us(&self) -> u64 {
        self.gpu_modeled_us.unwrap_or(self.wall_us)
    }
}

/// A compiled query ready to run. Compilation lowers the plan to the
/// [`program::TensorProgram`] all backends execute and binds its `PREDICT`
/// models; the Graph/Wasm backends additionally serialize the program into
/// the portable artifact (the "ONNX file") at compile time.
pub struct Executor {
    plan: PhysicalPlan,
    program: program::TensorProgram,
    cfg: ExecConfig,
    /// Serialized artifact for Graph/Wasm.
    artifact: Option<bytes::Bytes>,
    /// Plan-node → program-op attribution table (post-order, children
    /// left-to-right; see [`program::lower_with_map`]). Present on the
    /// [`Executor::compile`] path; `None` for parameter-patched programs
    /// assembled via [`Executor::from_parts`].
    node_map: Option<Vec<Option<usize>>>,
}

impl Executor {
    /// Compile a physical plan for a backend/device configuration: every
    /// backend binds the `PREDICT` models from `models` here (a missing or
    /// wrong-arity model is the error), and Fused binds its expression
    /// kernels, once.
    pub fn compile(
        plan: &PhysicalPlan,
        cfg: ExecConfig,
        models: &ModelRegistry,
    ) -> Result<Executor, String> {
        let (mut program, node_map) = program::lower_with_map(plan);
        program::bind_models(&mut program, models)?;
        if cfg.backend == Backend::Fused {
            exprfuse::bind_program(&mut program);
        }
        let mut executor = Executor::from_parts(plan.clone(), program, cfg);
        executor.node_map = Some(node_map);
        Ok(executor)
    }

    /// Build an executor from an already-lowered program (the prepared-
    /// statement path: the cached program is cloned and parameter-patched,
    /// then wrapped here — no parse/bind/optimize/lower work). The program
    /// keeps the models and kernels it carries: a clone of a template
    /// shares them. Graph/Wasm re-serialize the artifact from the bound
    /// program so shipped artifacts carry the bound constants.
    pub fn from_parts(
        plan: PhysicalPlan,
        program: program::TensorProgram,
        cfg: ExecConfig,
    ) -> Executor {
        let artifact = match cfg.backend {
            Backend::Graph | Backend::Wasm => Some(program::serialize_program(&program)),
            _ => None,
        };
        Executor {
            plan,
            program,
            cfg,
            artifact,
            node_map: None,
        }
    }

    /// The physical plan this executor was compiled from.
    pub fn plan(&self) -> &PhysicalPlan {
        &self.plan
    }

    /// The plan-node → program-op attribution table (compile path only).
    pub fn node_map(&self) -> Option<&[Option<usize>]> {
        self.node_map.as_deref()
    }

    /// The lowered tensor program this executor runs.
    pub fn program(&self) -> &program::TensorProgram {
        &self.program
    }

    /// The configuration this executor was compiled for.
    pub fn config(&self) -> ExecConfig {
        self.cfg
    }

    /// Size of the serialized artifact in bytes (Graph/Wasm backends).
    pub fn artifact_size(&self) -> Option<usize> {
        self.artifact.as_ref().map(|b| b.len())
    }

    /// Execute against tensor storage, recording spans into `trace` when
    /// the run is traced. Returns the materialized result and stats.
    pub fn run(&self, storage: &Storage, trace: Option<&TraceRecorder>) -> (DataFrame, ExecStats) {
        let simd_before = tqp_tensor::simd::counters();
        let t0 = std::time::Instant::now();
        let (frame, meter, scans) = match self.cfg.backend {
            Backend::Eager | Backend::Fused => {
                vm::run_program(&self.program, storage, trace, self.cfg)
            }
            Backend::Graph => {
                let artifact = self.artifact.as_ref().expect("graph artifact");
                graphvm::run_graph(artifact, &self.program.models(), storage, trace, self.cfg)
            }
            Backend::Wasm => {
                let artifact = self.artifact.as_ref().expect("graph artifact");
                graphvm::run_wasm(artifact, &self.program.models(), storage, trace, self.cfg)
            }
        };
        let wall_us = t0.elapsed().as_micros() as u64;
        let gpu_modeled_us = match self.cfg.device {
            Device::GpuSim => Some(meter.total_us()),
            Device::Cpu => None,
        };
        let rows = frame.nrows();
        let stats = ExecStats {
            wall_us,
            gpu_modeled_us,
            rows,
            chunks_scanned: scans.chunks_scanned,
            chunks_pruned: scans.chunks_pruned,
            simd_dispatch: tqp_tensor::simd::counters().since(&simd_before),
        };
        record_exec_metrics(&stats);
        (frame, stats)
    }
}

/// Cached `exec.*`/`simd.*` registry handles — registration locks once,
/// per-query updates are relaxed atomics.
struct ExecMetrics {
    queries: tqp_obs::Counter,
    rows: tqp_obs::Counter,
    chunks_scanned: tqp_obs::Counter,
    chunks_pruned: tqp_obs::Counter,
    query_us: tqp_obs::Histogram,
    simd_hash: tqp_obs::Counter,
    simd_filter: tqp_obs::Counter,
    simd_gather: tqp_obs::Counter,
    simd_reduce: tqp_obs::Counter,
    simd_decode: tqp_obs::Counter,
}

fn exec_metrics() -> &'static ExecMetrics {
    static METRICS: std::sync::OnceLock<ExecMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let r = tqp_obs::registry();
        ExecMetrics {
            queries: r.counter("exec.queries"),
            rows: r.counter("exec.rows"),
            chunks_scanned: r.counter("exec.chunks_scanned"),
            chunks_pruned: r.counter("exec.chunks_pruned"),
            query_us: r.histogram("exec.query_us"),
            simd_hash: r.counter("simd.hash"),
            simd_filter: r.counter("simd.filter"),
            simd_gather: r.counter("simd.gather"),
            simd_reduce: r.counter("simd.reduce"),
            simd_decode: r.counter("simd.decode"),
        }
    })
}

fn record_exec_metrics(stats: &ExecStats) {
    let m = exec_metrics();
    m.queries.inc();
    m.rows.add(stats.rows as u64);
    m.chunks_scanned.add(stats.chunks_scanned);
    m.chunks_pruned.add(stats.chunks_pruned);
    m.query_us.observe(stats.wall_us);
    m.simd_hash.add(stats.simd_dispatch.hash);
    m.simd_filter.add(stats.simd_dispatch.filter);
    m.simd_gather.add(stats.simd_dispatch.gather);
    m.simd_reduce.add(stats.simd_dispatch.reduce);
    m.simd_decode.add(stats.simd_dispatch.decode);
}

/// Ingest a map of DataFrames into tensor storage.
pub fn ingest_tables(tables: &HashMap<String, DataFrame>) -> Storage {
    tables
        .iter()
        .map(|(name, frame)| {
            (
                name.clone(),
                TableSource::Mem(tqp_data::ingest::frame_to_tensors(frame)),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_default_is_fused_cpu() {
        let c = ExecConfig::default();
        assert_eq!(c.backend, Backend::Fused);
        assert_eq!(c.device, Device::Cpu);
        assert_eq!(c.gpu_strategy, GpuStrategy::Resident);
        assert!(c.workers >= 1);
    }

    #[test]
    fn stats_prefer_modeled_time() {
        let s = ExecStats {
            wall_us: 100,
            gpu_modeled_us: Some(7),
            ..Default::default()
        };
        assert_eq!(s.reported_us(), 7);
        let s = ExecStats {
            wall_us: 100,
            gpu_modeled_us: None,
            ..Default::default()
        };
        assert_eq!(s.reported_us(), 100);
    }

    #[test]
    fn executor_exposes_the_lowered_program() {
        use tqp_data::{frame::df, Column};
        use tqp_ir::{compile_sql, Catalog, PhysicalOptions};
        let t = df(vec![("a", Column::from_i64(vec![1, 2]))]);
        let mut catalog = Catalog::new();
        catalog.register("t", t.schema().clone(), t.nrows());
        let plan = compile_sql("select a from t where a > 1", &catalog, &PhysicalOptions).unwrap();
        let models = ModelRegistry::new();
        let ex = Executor::compile(&plan, ExecConfig::default(), &models).unwrap();
        assert!(!ex.program().ops.is_empty());
        assert!(ex.program().display().contains("Scan(t)"));
        // Eager/Fused compile without an artifact; Graph carries one.
        assert!(ex.artifact_size().is_none());
        let g = Executor::compile(
            &plan,
            ExecConfig {
                backend: Backend::Graph,
                ..Default::default()
            },
            &models,
        )
        .unwrap();
        assert!(g.artifact_size().unwrap() > 0);
    }
}

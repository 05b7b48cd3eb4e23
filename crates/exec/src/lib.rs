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
//! |                     | versioned, self-describing artifact, loaded once|
//! |                     | at compile with kernels bound ([`graphvm`]) and |
//! |                     | executed by the VM                              |
//! | ORT-Web (WASM)      | [`Backend::Wasm`] — the same artifact loaded    |
//! |                     | once with no kernels and run by the VM on one   |
//! |                     | worker; its slowdown is modelled, not burned    |
//! | CUDA device         | [`Device::GpuSim`] — the CPU run, its wall-clock|
//! |                     | replaced by an analytical P100 cost model priced|
//! |                     | from the bytes each op moved ([`device`])       |
//!
//! On the real-CPU path the VM additionally runs morsel-parallel across
//! [`ExecConfig::workers`] worker threads: scan → filter → project
//! pipeline segments chunk into contiguous morsels, `GroupedReduce` runs
//! partitioned (fixed-geometry partials merged in morsel order — fusing
//! into a preceding segment when data-flow allows), `HashProbe` chunks its
//! probe side, and `Sort` chunk-sorts + stable-merges — or, under a
//! `LIMIT`, selects per morsel and merges the candidates (see [`vm`]).
//! Results are byte-identical at every worker count, on either device;
//! `Backend::Wasm` ignores `workers` and runs on one.
//!
//! **Compile once, run many.** [`Executor::compile`] does everything a
//! statement needs once: lowering, model binding, the artifact round trip
//! for Graph and Wasm, and kernel binding. [`Executor::run`] then only
//! runs the program, patching a prepared statement's parameters into a
//! per-run clone first; every backend runs through [`vm::run_program`].
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
use tqp_tensor::Scalar;

/// Execution backend (the paper's lowering targets, §2.2). The backends
/// run one VM and differ in exactly three ways, tabled in
/// [`Backend::binds_kernels`], [`Backend::via_artifact`] and
/// [`Backend::single_worker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Vectorized register-VM execution, expressions op-at-a-time through
    /// the generic walk (PyTorch eager).
    Eager,
    /// The same VM with every expression site bound at compile time to a
    /// specialized kernel where one fits (TorchScript / `torch.jit`). The
    /// default.
    Fused,
    /// Serialize the program to the portable artifact and load it back at
    /// compile, binding the same kernels as Fused; the vectorized VM runs
    /// the loaded program (ONNX + ORT).
    Graph,
    /// The same artifact loaded at compile without kernels and run by the
    /// VM once, on one CPU worker. Its WASM-vs-native slowdown is modelled
    /// as [`WASM_DILATION`] × the wall time (ORT-Web on WASM).
    Wasm,
}

/// The modelled WASM-vs-native slowdown: a Wasm run reports this many
/// times its wall time as [`ExecStats::modeled_us`].
pub const WASM_DILATION: u64 = 3;

impl Backend {
    /// The backend table: `(binds_kernels, via_artifact, single_worker)`.
    const fn row(self) -> (bool, bool, bool) {
        match self {
            Backend::Eager => (false, false, false),
            Backend::Fused => (true, false, false),
            Backend::Graph => (true, true, false),
            Backend::Wasm => (false, true, true),
        }
    }

    /// Compile binds a specialized kernel to every fusible expression
    /// site; without, every site takes the generic walk.
    pub const fn binds_kernels(self) -> bool {
        self.row().0
    }

    /// Compile round-trips the program through the serialized artifact
    /// and keeps the loaded program.
    pub const fn via_artifact(self) -> bool {
        self.row().1
    }

    /// Runs on one CPU worker whatever the configured device and worker
    /// count, and reports [`WASM_DILATION`] × its wall time.
    pub const fn single_worker(self) -> bool {
        self.row().2
    }
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
    /// Zone-map chunk pruning for every scan (default on): stored chunks
    /// and in-memory blocks alike. Pruning never changes results — it
    /// only skips chunks the following filter would empty. Off, every
    /// chunk is read: the reference scan the pruning tests
    /// (`store_differential`, `property_zones`) compare against.
    pub prune_scans: bool,
    /// Worker threads for morsel-parallel CPU execution: chunked pipeline
    /// segments, partitioned aggregation (optionally fused into its
    /// feeding segment), chunked hash-join probes and parallel sort (join
    /// builds are sequential). `1` = single-threaded scheduling.
    ///
    /// **Knob interactions.** Changing `workers` never changes results —
    /// parallel ops derive their partition geometry from the input, not
    /// the thread count, so outputs are byte-identical at any setting (see
    /// `ARCHITECTURE.md` "Parallel chunked execution"), and neither does
    /// the modeled time of a `Device::GpuSim` run, which is priced from
    /// per-op bytes that add up the same over any morsels.
    /// `Backend::Wasm` ignores the knob and runs once, on one CPU worker.
    /// The aggregation morsel size is tunable via `TQP_AGG_MORSEL_ROWS`
    /// (read once per process); shrinking it below the default 16 Ki rows
    /// trades merge overhead for scheduling granularity without affecting
    /// determinism.
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
    ///
    /// # Panics
    ///
    /// On a stored chunk that fails to decode or holds a NULL; callers
    /// that must answer with an error call [`stored::materialize`].
    pub fn to_tensor_table(&self) -> TensorTable {
        match self {
            TableSource::Mem(t) => t.clone(),
            TableSource::Stored(t) => stored::materialize(t).unwrap_or_else(|e| panic!("{e}")),
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

/// Chunk-level accounting for one execution's scans: the chunks of a
/// stored table and the zone blocks of an in-memory one
/// ([`tqp_data::zone::ZONE_BLOCK_ROWS`] rows) count alike.
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
    /// Modelled time: the cost model's device time on `Device::GpuSim`,
    /// and [`WASM_DILATION`] × `wall_us` on `Backend::Wasm` (on either
    /// device); `None` otherwise.
    pub modeled_us: Option<u64>,
    /// Output rows.
    pub rows: usize,
    /// Chunks scanned: stored chunks decoded and in-memory blocks read.
    pub chunks_scanned: u64,
    /// Chunks (stored or in-memory) skipped by zone-map pruning.
    pub chunks_pruned: u64,
    /// Per-family SIMD kernel dispatches during this run (how many times a
    /// vectorized hash/filter/gather/reduce/decode path was taken; all zero
    /// under `TQP_SIMD=off` or when the host lacks AVX2).
    pub simd_dispatch: tqp_tensor::simd::DispatchCounts,
}

impl ExecStats {
    /// The figure-of-merit: the modelled time when there is one,
    /// otherwise real wall time.
    pub fn reported_us(&self) -> u64 {
        self.modeled_us.unwrap_or(self.wall_us)
    }
}

/// A compiled query ready to run. Compilation lowers the plan to the
/// [`program::TensorProgram`] all backends execute and binds its `PREDICT`
/// models and, on kernel backends, its expression kernels. Graph and Wasm
/// serialize the program into the portable artifact (the "ONNX file") and
/// keep the program loaded back from it, so they run exactly what the
/// bytes say. All of this happens once; a run only runs.
pub struct Executor {
    plan: PhysicalPlan,
    program: program::TensorProgram,
    cfg: ExecConfig,
    /// Serialized artifact for Graph/Wasm.
    artifact: Option<bytes::Bytes>,
    /// Plan-node → program-op attribution table (post-order, children
    /// left-to-right; see [`program::lower_with_map`]).
    node_map: Vec<Option<usize>>,
}

impl Executor {
    /// Compile a physical plan for a backend/device configuration. Every
    /// backend binds the `PREDICT` models from `models` here (a missing or
    /// wrong-arity model is the error). Graph and Wasm bind them into the
    /// program decoded from the artifact ([`graphvm::load_artifact`], whose
    /// decode errors pass through); Fused and Graph bind their kernels.
    pub fn compile(
        plan: &PhysicalPlan,
        cfg: ExecConfig,
        models: &ModelRegistry,
    ) -> Result<Executor, String> {
        let (mut program, node_map) = program::lower_with_map(plan);
        let artifact = if cfg.backend.via_artifact() {
            let bytes = program::serialize_program(&program);
            program = graphvm::load_artifact(&bytes, models, cfg.backend)?;
            Some(bytes)
        } else {
            program::bind_models(&mut program, models)?;
            if cfg.backend.binds_kernels() {
                exprfuse::bind_program(&mut program);
            }
            None
        };
        Ok(Executor {
            plan: plan.clone(),
            program,
            cfg,
            artifact,
            node_map,
        })
    }

    /// The physical plan this executor was compiled from.
    pub fn plan(&self) -> &PhysicalPlan {
        &self.plan
    }

    /// The plan-node → program-op attribution table.
    pub fn node_map(&self) -> &[Option<usize>] {
        &self.node_map
    }

    /// The tensor program this executor runs (for Graph and Wasm, the one
    /// loaded from its artifact), with its parameter slots unbound.
    pub fn program(&self) -> &program::TensorProgram {
        &self.program
    }

    /// The configuration this executor was compiled for.
    pub fn config(&self) -> ExecConfig {
        self.cfg
    }

    /// The serialized artifact the program was loaded from (Graph/Wasm
    /// backends): the portable form of this statement.
    pub fn artifact(&self) -> Option<&bytes::Bytes> {
        self.artifact.as_ref()
    }

    /// Execute against tensor storage with `params` bound to the program's
    /// `$n` placeholders (empty for a parameter-free program), recording
    /// spans into `trace` when the run is traced. Parameters are patched
    /// into a per-run clone of the program
    /// ([`program::TensorProgram::bind_params`]); a wrong count or a value
    /// that does not coerce is the error, and so is data the run cannot
    /// read (a stored chunk that fails to decode, [`sched::Failed`]).
    /// Returns the materialized result and stats. Every device runs the
    /// same route; a `Device::GpuSim` run is then priced from the bytes
    /// each op read and wrote ([`device::price`]).
    pub fn run(
        &self,
        storage: &Storage,
        params: &[Scalar],
        trace: Option<&TraceRecorder>,
    ) -> Result<(DataFrame, ExecStats), String> {
        let bound;
        let program = if params.is_empty() && self.program.n_params() == 0 {
            &self.program
        } else {
            bound = self.program.bind_params(params)?;
            &bound
        };
        let single = self.cfg.backend.single_worker();
        let cfg = if single {
            ExecConfig {
                workers: 1,
                ..self.cfg
            }
        } else {
            self.cfg
        };
        let simd_before = tqp_tensor::simd::counters();
        let t0 = std::time::Instant::now();
        let (frame, bytes, scans) =
            sched::failures_as_errors(|| vm::run_program(program, storage, trace, cfg))?;
        let wall_us = t0.elapsed().as_micros() as u64;
        let modeled_us = if single {
            Some(wall_us * WASM_DILATION)
        } else {
            (cfg.device == Device::GpuSim).then(|| device::price(program, &bytes, cfg.gpu_strategy))
        };
        let stats = ExecStats {
            wall_us,
            modeled_us,
            rows: frame.nrows(),
            chunks_scanned: scans.chunks_scanned,
            chunks_pruned: scans.chunks_pruned,
            simd_dispatch: tqp_tensor::simd::counters().since(&simd_before),
        };
        record_exec_metrics(&stats);
        Ok((frame, stats))
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
            modeled_us: Some(7),
            ..Default::default()
        };
        assert_eq!(s.reported_us(), 7);
        let s = ExecStats {
            wall_us: 100,
            modeled_us: None,
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
        assert!(ex.artifact().is_none());
        let g = Executor::compile(
            &plan,
            ExecConfig {
                backend: Backend::Graph,
                ..Default::default()
            },
            &models,
        )
        .unwrap();
        assert!(!g.artifact().unwrap().is_empty());
    }

    #[test]
    fn graph_and_wasm_produce_same_result() {
        use tqp_data::{frame::df, Column};
        use tqp_ir::{compile_sql, Catalog, PhysicalOptions};
        let t = df(vec![
            ("id", Column::from_i64(vec![1, 2, 3])),
            ("v", Column::from_f64(vec![5.0, 15.0, 25.0])),
        ]);
        let mut catalog = Catalog::new();
        catalog.register("t", t.schema().clone(), t.nrows());
        let storage = ingest_tables(&HashMap::from([("t".to_string(), t)]));
        let sql = "select id, v * 2 as vv from t where v > 10.0 order by id";
        let plan = compile_sql(sql, &catalog, &PhysicalOptions).unwrap();
        let rec = TraceRecorder::new();
        let run = |backend| {
            let cfg = ExecConfig {
                backend,
                ..Default::default()
            };
            let ex = Executor::compile(&plan, cfg, &ModelRegistry::new()).unwrap();
            ex.run(&storage, &[], Some(&rec)).unwrap()
        };
        let (g, _) = run(Backend::Graph);
        let (w, wasm) = run(Backend::Wasm);
        assert_eq!(g.nrows(), 2);
        assert_eq!(g.nrows(), w.nrows());
        for i in 0..g.nrows() {
            assert_eq!(g.row(i), w.row(i));
        }
        // Wasm ran once and models its slowdown.
        assert_eq!(wasm.modeled_us, Some(wasm.wall_us * WASM_DILATION));
        // Each run scanned once and loaded nothing: the loads were at
        // compile.
        let spans = rec.into_trace().spans;
        let calls = |name: &str| spans.iter().filter(|s| s.name == name).count();
        assert_eq!(calls("GraphLoad"), 0);
        assert_eq!(calls(&tqp_obs::op_key("Scan(t)", 0)), 2);
    }
}

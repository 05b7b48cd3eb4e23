//! # tqp-core — the TQP public façade
//!
//! The Rust equivalent of the paper's pip-installable `tqp` Python package:
//! a [`Session`] holds tables (ingested to the tensor format of §2.1) and
//! registered `PREDICT` models; [`Session::compile`] runs the full
//! compilation stack (parse → bind → optimize → plan → **lower to the
//! [`TensorProgram`](tqp_exec::program::TensorProgram)**) and returns a
//! [`CompiledQuery`] bound to a backend/device configuration. Every
//! backend executes the same lowered program — see `ARCHITECTURE.md`.
//!
//! The paper's Figure 3 one-line backend switch looks like this:
//!
//! ```
//! use tqp_core::{Session, QueryConfig};
//! use tqp_exec::{Backend, Device};
//! # use tqp_data::{frame::df, Column};
//! let mut session = Session::new();
//! # session.register_table("lineitem", df(vec![("l_quantity", Column::from_f64(vec![1.0, 30.0]))]));
//! let sql = "select count(*) as n from lineitem where l_quantity < 24";
//!
//! let cpu = session.compile(sql, QueryConfig::default()).unwrap();
//! // ... switching to the simulated GPU is one line:
//! let gpu = session.compile(sql, QueryConfig::default().device(Device::GpuSim)).unwrap();
//!
//! let (result, stats) = cpu.run(&session).unwrap();
//! assert_eq!(result.column(0).get(0).as_i64(), 1);
//! assert!(stats.wall_us > 0);
//! let (gpu_result, gpu_stats) = gpu.run(&session).unwrap();
//! assert_eq!(gpu_result.column(0).get(0).as_i64(), 1);
//! assert!(gpu_stats.gpu_modeled_us.is_some());
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use tqp_baseline::RowEngine;
use tqp_data::DataFrame;
use tqp_exec::program::{ProgOp, TensorProgram};
use tqp_exec::{Backend, Device, ExecConfig, Executor, GpuStrategy, Storage, TableSource};
use tqp_ir::physical::PhysicalPlan;
use tqp_ir::{compile_query, compile_sql, Catalog, CompileError, PhysicalOptions};
use tqp_ml::{Model, ModelRegistry};
use tqp_obs::QueryTrace;
use tqp_profile::Profiler;
use tqp_store::StoredTable;
use tqp_tensor::Scalar;

pub use tqp_exec::sched::{CancelReason, CancelToken};

/// Per-query configuration: physical strategies + backend + device.
#[derive(Debug, Clone, Copy)]
pub struct QueryConfig {
    /// Join/aggregation strategies: chosen per operator by the planner by
    /// default; a `Some(_)` forces that strategy on every operator (the
    /// paper's ablation axis).
    pub physical: PhysicalOptions,
    pub backend: Backend,
    pub device: Device,
    pub gpu_strategy: GpuStrategy,
    /// Zone-map chunk pruning for store-backed scans (default on; results
    /// are identical either way — the knob exists for benchmarking).
    pub prune_scans: bool,
    /// Worker threads for morsel-parallel CPU execution (1 = sequential).
    pub workers: usize,
    /// Explicit SIMD kernel layer (default on; vector and scalar tiers
    /// share the same lane-split fold order, so results are bitwise
    /// identical either way — the knob keeps the scalar oracle alive for
    /// differential testing).
    pub simd: bool,
    /// Per-query execution deadline (default: none). An execution that
    /// exceeds it aborts at the next morsel/section boundary with a
    /// retryable [`TqpError::Execution`] and frees its worker-pool slots.
    /// A pure *execution* property: it never affects compilation, and the
    /// serving layer excludes it from prepared-statement cache keys.
    pub deadline: Option<std::time::Duration>,
    /// Capture a per-query [`QueryTrace`] (spans + per-op attribution)
    /// for this execution (default off). A pure *execution* property like
    /// `deadline`: it never affects compilation or results, and the
    /// serving layer excludes it from prepared-statement cache keys. When
    /// off, executions allocate no trace machinery at all.
    pub trace: bool,
    /// Slow-query threshold in milliseconds (default: none). Executions
    /// whose wall time meets or exceeds it are appended to the process
    /// slow-query ring buffer ([`tqp_obs::slow_queries`]), tagged with a
    /// trace id. Excluded from prepared-statement cache keys.
    pub slow_query_ms: Option<u64>,
}

impl Default for QueryConfig {
    fn default() -> Self {
        QueryConfig {
            physical: PhysicalOptions::default(),
            backend: Backend::Eager,
            device: Device::Cpu,
            gpu_strategy: GpuStrategy::Resident,
            prune_scans: true,
            workers: tqp_exec::default_workers(),
            simd: true,
            deadline: None,
            trace: false,
            slow_query_ms: None,
        }
    }
}

impl QueryConfig {
    /// Builder-style backend selection.
    pub fn backend(mut self, b: Backend) -> Self {
        self.backend = b;
        self
    }

    /// Builder-style device selection (the Figure 3 one-liner).
    pub fn device(mut self, d: Device) -> Self {
        self.device = d;
        self
    }

    /// Builder-style GPU placement strategy.
    pub fn gpu_strategy(mut self, s: GpuStrategy) -> Self {
        self.gpu_strategy = s;
        self
    }

    /// Builder-style physical options.
    pub fn physical(mut self, p: PhysicalOptions) -> Self {
        self.physical = p;
        self
    }

    /// Builder-style worker count for morsel-parallel execution.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Builder-style zone-map pruning toggle for store-backed scans.
    pub fn prune_scans(mut self, on: bool) -> Self {
        self.prune_scans = on;
        self
    }

    /// Builder-style SIMD kernel-layer toggle.
    pub fn simd(mut self, on: bool) -> Self {
        self.simd = on;
        self
    }

    /// Builder-style per-query execution deadline.
    pub fn deadline(mut self, d: std::time::Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Builder-style per-query trace capture toggle.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Builder-style slow-query threshold (milliseconds).
    pub fn slow_query_ms(mut self, ms: u64) -> Self {
        self.slow_query_ms = Some(ms);
        self
    }
}

/// Errors surfaced by the façade. The compile/run split matters to
/// serving layers: a [`TqpError::Compile`] means the SQL itself is bad
/// (retrying is pointless — reject the statement), while a
/// [`TqpError::Execution`] is a run-time condition of *this* session
/// state (a table dropped between prepare and execute, unbound
/// parameters, a missing model) that a later retry may well succeed on.
#[derive(Debug)]
pub enum TqpError {
    /// Parse/bind failure: the statement can never run as written.
    Compile(CompileError),
    /// The referenced table is not registered in the session.
    UnknownTable(String),
    /// A run-time failure executing a successfully compiled query.
    Execution(String),
}

impl TqpError {
    /// True for errors a serving layer may retry after session state
    /// changes; false for permanently-bad SQL.
    pub fn is_retryable(&self) -> bool {
        matches!(self, TqpError::Execution(_) | TqpError::UnknownTable(_))
    }

    /// True when this error is a cancellation/deadline abort (a subset of
    /// the retryable executions) — the serving layers use this to count
    /// cancelled queries separately from genuine failures.
    pub fn is_cancellation(&self) -> bool {
        matches!(self, TqpError::Execution(m)
            if [CancelReason::Cancelled, CancelReason::DeadlineExceeded]
                .iter()
                .any(|r| tqp_exec::sched::Cancelled(*r).message() == m))
    }
}

impl std::fmt::Display for TqpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TqpError::Compile(e) => write!(f, "{e}"),
            TqpError::UnknownTable(t) => write!(f, "table {t} not registered"),
            TqpError::Execution(msg) => write!(f, "execution error: {msg}"),
        }
    }
}

impl std::error::Error for TqpError {}

/// A TQP session: tables (row + tensor form), models, catalog, profiler.
pub struct Session {
    frames: HashMap<String, DataFrame>,
    storage: Storage,
    catalog: Catalog,
    models: ModelRegistry,
    profiler: Profiler,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    /// An empty session with profiling disabled.
    pub fn new() -> Session {
        Session {
            frames: HashMap::new(),
            storage: Storage::new(),
            catalog: Catalog::new(),
            models: ModelRegistry::new(),
            profiler: Profiler::disabled(),
        }
    }

    /// Register (or replace) a table; it is immediately ingested into the
    /// tensor representation (paper §2.1 — numerics zero-copy), and full
    /// column statistics (min/max, NULL counts, distinct estimates) are
    /// computed for the catalog so the optimizer's selectivity math runs
    /// on real numbers.
    pub fn register_table(&mut self, name: &str, frame: DataFrame) {
        let key = name.to_ascii_lowercase();
        self.catalog.register_with_stats(
            &key,
            frame.schema().clone(),
            tqp_data::stats::frame_stats(&frame),
        );
        self.storage.insert(
            key.clone(),
            TableSource::Mem(tqp_data::ingest::frame_to_tensors(&frame)),
        );
        self.frames.insert(key, frame);
    }

    /// Register (or replace) a table backed by a persistent `tqp-store`
    /// file. No data is materialized: scans decode (and zone-map-prune)
    /// chunks on demand, and the catalog receives the statistics the
    /// store's footer carries — computed by the same builder the
    /// in-memory path uses, so plans (and therefore results) are
    /// bit-identical between the two registrations of the same data.
    pub fn register_stored_table(&mut self, name: &str, table: Arc<StoredTable>) {
        let key = name.to_ascii_lowercase();
        self.catalog
            .register_with_stats(&key, table.schema().clone(), table.stats().clone());
        self.frames.remove(&key);
        self.storage.insert(key, TableSource::Stored(table));
    }

    /// Register a whole TPC-H instance.
    pub fn register_tpch(&mut self, data: &tqp_data::tpch::TpchData) {
        for (name, frame) in data.tables() {
            self.register_table(name, frame.clone());
        }
    }

    /// Register a `PREDICT`-able model.
    pub fn register_model(&mut self, name: &str, model: Arc<dyn Model>) {
        self.models.register(name, model);
    }

    /// Enable span recording (Scenario 1: profiling/TensorBoard).
    pub fn enable_profiling(&mut self) {
        self.profiler = Profiler::new();
    }

    /// The session profiler (breakdowns, Chrome traces).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// The session catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The model registry.
    pub fn models(&self) -> &ModelRegistry {
        &self.models
    }

    /// Row-format table access (for the baseline engine and inspection).
    pub fn frames(&self) -> &HashMap<String, DataFrame> {
        &self.frames
    }

    /// Tensor-format storage access.
    pub fn storage(&self) -> &Storage {
        &self.storage
    }

    /// Compile SQL into an executable query for the given configuration.
    ///
    /// Accepts `EXPLAIN <query>` and `EXPLAIN ANALYZE <query>` prefixes:
    /// both compile the inner query through the full pipeline and return a
    /// single-column `plan` frame when run — the former renders the
    /// physical tree with optimizer row estimates without executing, the
    /// latter executes and annotates each operator with actual rows and
    /// wall time. Because the rendering happens at run time through the
    /// ordinary query path, both work identically in-process and over the
    /// socket front-end.
    pub fn compile(&self, sql: &str, cfg: QueryConfig) -> Result<CompiledQuery, TqpError> {
        let (kind, ast) = parse_stmt(sql)?;
        let plan = compile_query(&ast, &self.catalog, &cfg.physical).map_err(TqpError::Compile)?;
        let executor = Executor::compile(&plan, exec_config(cfg));
        let pre = RunPreconditions::capture(executor.program(), &self.catalog);
        Ok(CompiledQuery {
            executor,
            pre,
            cfg,
            kind,
            sql: sql.to_string(),
        })
    }

    /// Prepare a statement: the full compile pipeline (parse → bind →
    /// optimize → lower) runs **once**, and the result is shared behind an
    /// `Arc` — a serving layer's statement cache hands the same compiled
    /// program to every execution ([`PreparedQuery::ptr_eq`] is how tests
    /// verify a cache hit skipped recompilation entirely). `$1..$n`
    /// placeholders in the SQL become patchable constant slots; values are
    /// bound per execution without re-entering the compiler.
    pub fn prepare(&self, sql: &str, cfg: QueryConfig) -> Result<PreparedQuery, TqpError> {
        let (kind, ast) = parse_stmt(sql)?;
        let plan = compile_query(&ast, &self.catalog, &cfg.physical).map_err(TqpError::Compile)?;
        let executor = Executor::compile(&plan, exec_config(cfg));
        let pre = RunPreconditions::capture(executor.program(), &self.catalog);
        Ok(PreparedQuery {
            inner: Arc::new(PreparedInner {
                cfg,
                executor,
                pre,
                kind,
                sql: sql.to_string(),
            }),
        })
    }

    /// Compile a pre-built physical plan (the external/JSON plan frontend —
    /// how a Spark-produced plan enters TQP).
    pub fn compile_plan(&self, plan: &PhysicalPlan, cfg: QueryConfig) -> CompiledQuery {
        let executor = Executor::compile(plan, exec_config(cfg));
        let pre = RunPreconditions::capture(executor.program(), &self.catalog);
        CompiledQuery {
            executor,
            pre,
            cfg,
            kind: QueryKind::Query,
            sql: "<external plan>".to_string(),
        }
    }

    /// One-shot convenience: compile + run on the default configuration.
    pub fn sql(&self, sql: &str) -> Result<DataFrame, TqpError> {
        let q = self.compile(sql, QueryConfig::default())?;
        Ok(q.run(self)?.0)
    }

    /// Execute on the row-oriented baseline engine (the paper's Spark
    /// comparison axis) — same plan, different substrate. Store-backed
    /// tables **that the plan actually scans** are materialized whole
    /// for the row engine (it is the differential-test oracle, not a
    /// production path); frames are shared, not copied (columns are
    /// `Arc`-backed), and queries over in-memory tables pay nothing.
    pub fn sql_baseline(&self, sql: &str) -> Result<DataFrame, TqpError> {
        let plan = compile_sql(sql, &self.catalog, &PhysicalOptions::default())
            .map_err(TqpError::Compile)?;
        fn scanned_tables(p: &PhysicalPlan, out: &mut Vec<String>) {
            if let PhysicalPlan::Scan { table, .. } = p {
                if !out.contains(table) {
                    out.push(table.clone());
                }
            }
            for c in p.children() {
                scanned_tables(c, out);
            }
        }
        let mut needed = Vec::new();
        scanned_tables(&plan, &mut needed);
        let needed_stored: Vec<&String> = needed
            .iter()
            .filter(|t| matches!(self.storage.get(t.as_str()), Some(TableSource::Stored(_))))
            .collect();
        if needed_stored.is_empty() {
            let engine = RowEngine::new(&self.frames, &self.models);
            return Ok(engine.execute(&plan));
        }
        // Shallow-clone the frame map (Arc-backed columns) and add only
        // the stored tables this query touches.
        let mut frames = self.frames.clone();
        for name in needed_stored {
            let src = self.storage.get(name.as_str()).expect("checked above");
            frames.insert(
                name.clone(),
                tqp_data::ingest::tensors_to_frame(&src.to_tensor_table()),
            );
        }
        let engine = RowEngine::new(&frames, &self.models);
        Ok(engine.execute(&plan))
    }
}

/// Run `f` under a cancellation token: the token rides the executing
/// thread (and every worker-pool section it opens — see
/// `tqp_exec::sched`), and a [`Cancelled`](tqp_exec::sched::Cancelled)
/// unwind from a morsel/section-boundary check is converted into a
/// retryable [`TqpError::Execution`]. Real panics re-raise untouched with
/// their original payloads.
fn run_cancellable<T>(
    token: &CancelToken,
    f: impl FnOnce() -> Result<T, TqpError>,
) -> Result<T, TqpError> {
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    if let Some(reason) = token.state() {
        return Err(cancel_error(reason));
    }
    match catch_unwind(AssertUnwindSafe(|| tqp_exec::sched::with_token(token, f))) {
        Ok(res) => res,
        Err(payload) => match tqp_exec::sched::cancelled_payload(payload.as_ref()) {
            Some(c) => Err(TqpError::Execution(c.message().to_string())),
            None => resume_unwind(payload),
        },
    }
}

fn cancel_error(reason: CancelReason) -> TqpError {
    TqpError::Execution(tqp_exec::sched::Cancelled(reason).message().to_string())
}

/// Translate the façade config into the executor's.
fn exec_config(cfg: QueryConfig) -> ExecConfig {
    ExecConfig {
        backend: cfg.backend,
        device: cfg.device,
        gpu_strategy: cfg.gpu_strategy,
        prune_scans: cfg.prune_scans,
        workers: cfg.workers,
        simd: cfg.simd,
    }
}

/// What a compiled statement does when run: execute the query, render its
/// plan (`EXPLAIN`), or execute *and* render with actuals
/// (`EXPLAIN ANALYZE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QueryKind {
    Query,
    Explain,
    ExplainAnalyze,
}

/// Parse a statement and split off the `EXPLAIN`/`EXPLAIN ANALYZE` prefix.
fn parse_stmt(sql: &str) -> Result<(QueryKind, tqp_sql::Query), TqpError> {
    let stmt =
        tqp_sql::parse_statement(sql).map_err(|e| TqpError::Compile(CompileError::Parse(e)))?;
    Ok(match stmt {
        tqp_sql::Statement::Query(q) => (QueryKind::Query, q),
        tqp_sql::Statement::Explain(q) => (QueryKind::Explain, q),
        tqp_sql::Statement::ExplainAnalyze(q) => (QueryKind::ExplainAnalyze, q),
    })
}

/// Per-execution observability options, applied on top of the statement's
/// compiled [`QueryConfig`]. The serving layer strips `trace`/
/// `slow_query_ms` (like `deadline`) from prepared-statement cache keys
/// and re-applies each request's values through here.
#[derive(Clone, Copy, Default)]
pub struct RunOptions<'a> {
    /// External cancellation token (combined with the statement deadline).
    pub token: Option<&'a CancelToken>,
    /// Capture a [`QueryTrace`] for this execution (OR-ed with the
    /// compiled config's `trace`).
    pub trace: bool,
    /// Slow-query threshold override (falls back to the compiled config).
    pub slow_query_ms: Option<u64>,
}

/// Run an executor, optionally capturing a [`QueryTrace`], and feed the
/// slow-query log. This is the **single choke point** every core
/// execution path funnels through (compiled, prepared, parameterized, and
/// therefore also every socket-served query), so a slow query is logged
/// exactly once no matter which surface issued it.
///
/// Tracing uses a fresh local [`Profiler`] so the trace holds only this
/// execution's spans; when the session profiler is also enabled the spans
/// are mirrored into it, preserving `enable_profiling` semantics. With
/// tracing off (and no slow-query threshold crossed) nothing is allocated.
fn run_with_obs(
    executor: &Executor,
    session: &Session,
    sql: &str,
    trace_on: bool,
    slow_ms: Option<u64>,
) -> (DataFrame, tqp_exec::ExecStats, Option<QueryTrace>) {
    let (frame, stats, trace) = if trace_on && tqp_obs::enabled() {
        let local = Profiler::new();
        let (frame, stats) = executor.run(&session.storage, &session.models, &local);
        let spans = local.spans();
        if session.profiler.is_enabled() {
            for s in &spans {
                session.profiler.record_chunks(
                    &s.name,
                    &s.category,
                    s.start_us,
                    s.dur_us,
                    s.rows,
                    s.bytes,
                    s.chunks,
                );
            }
        }
        let cfg = executor.config();
        let d = &stats.simd_dispatch;
        let mut trace = QueryTrace {
            trace_id: tqp_obs::next_trace_id(),
            sql: sql.to_string(),
            backend: format!("{:?}", cfg.backend),
            workers: cfg.workers as u64,
            wall_us: stats.wall_us,
            rows: stats.rows as u64,
            chunks_scanned: stats.chunks_scanned,
            chunks_pruned: stats.chunks_pruned,
            simd_dispatch: vec![
                ("hash".to_string(), d.hash),
                ("filter".to_string(), d.filter),
                ("gather".to_string(), d.gather),
                ("reduce".to_string(), d.reduce),
                ("decode".to_string(), d.decode),
            ],
            spans: spans
                .into_iter()
                .map(|s| tqp_obs::TraceSpan {
                    name: s.name,
                    category: s.category,
                    start_us: s.start_us,
                    dur_us: s.dur_us,
                    rows: s.rows,
                    bytes: s.bytes,
                    chunks: s.chunks,
                })
                .collect(),
            ops: Vec::new(),
        };
        trace.build_ops();
        observe_qerror(executor, &session.catalog, &trace);
        (frame, stats, Some(trace))
    } else {
        let (frame, stats) = executor.run(&session.storage, &session.models, &session.profiler);
        (frame, stats, None)
    };
    observe_slow(sql, slow_ms, &stats, trace.as_ref());
    (frame, stats, trace)
}

/// Append to the slow-query ring buffer when the threshold is met.
fn observe_slow(
    sql: &str,
    slow_ms: Option<u64>,
    stats: &tqp_exec::ExecStats,
    trace: Option<&QueryTrace>,
) {
    let Some(ms) = slow_ms else { return };
    if !tqp_obs::enabled() || stats.wall_us < ms.saturating_mul(1000) {
        return;
    }
    tqp_obs::record_slow_query(tqp_obs::SlowQuery {
        trace_id: trace
            .map(|t| t.trace_id)
            .unwrap_or_else(tqp_obs::next_trace_id),
        sql: sql.to_string(),
        wall_us: stats.wall_us,
        rows: stats.rows as u64,
        threshold_ms: ms,
    });
}

/// One `EXPLAIN [ANALYZE]` output row: a physical-plan node with the
/// optimizer's row estimate and (for ANALYZE) the measured actuals.
///
/// `actual_rows`/`wall_us` come from per-op span attribution through the
/// lowering's node→op map; they are `None` for plan nodes that lowered to
/// no runtime op and for parameterized executions (which re-bind through
/// [`Executor::from_parts`] and lose the map). Actual rows are **bitwise
/// stable** across worker counts and backends: every span site charges
/// operator *output* rows regardless of morsel route.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainRow {
    /// Tree depth (root = 0); rendering indents two spaces per level.
    pub depth: usize,
    /// Operator label with the planner's choices, e.g. `Scan(lineitem)`,
    /// `HashJoin(Semi, build=left)`, `SortAggregate`,
    /// `HashAggregate(partitioned, est_groups=40243)` (`ANALYZE` appends
    /// `actual_groups=…`).
    pub op: String,
    /// Optimizer cardinality estimate (stats-driven where available).
    pub est_rows: f64,
    /// Measured output rows, summed over this node's program op.
    pub actual_rows: Option<u64>,
    /// Measured wall time attributed to this node's program op (a hash
    /// join's probe; its build is `build`).
    pub wall_us: Option<u64>,
    /// Hash joins: `(input rows, wall time)` of the `HashBuild` op that
    /// feeds this node's probe.
    pub build: Option<(u64, u64)>,
}

impl ExplainRow {
    /// Render one indented text line (`analyze` adds the actuals).
    pub fn render(&self, analyze: bool) -> String {
        let mut s = format!("{}{}", "  ".repeat(self.depth), self.op);
        if analyze {
            let actual = self
                .actual_rows
                .map(|r| r.to_string())
                .unwrap_or_else(|| "?".into());
            let us = self
                .wall_us
                .map(|u| format!("{u} us"))
                .unwrap_or_else(|| "? us".into());
            let build = self
                .build
                .map(|(rows, us)| format!(", build={us} us, build_rows={rows}"))
                .unwrap_or_default();
            s.push_str(&format!(
                "  (est={} rows, actual={actual} rows, {us}{build})",
                fmt_est(self.est_rows)
            ));
        } else {
            s.push_str(&format!("  (est={} rows)", fmt_est(self.est_rows)));
        }
        s
    }
}

fn fmt_est(est: f64) -> String {
    if (est - est.round()).abs() < 1e-9 {
        format!("{}", est.round() as i64)
    } else {
        format!("{est:.1}")
    }
}

/// Per-operator actuals of one run, addressed by plan node.
struct Actuals<'a> {
    /// Plan node (post-order) → the program op producing its output.
    node_map: &'a [Option<usize>],
    program: &'a TensorProgram,
    /// Program op → `(rows, total_us)` from the run's trace.
    ops: HashMap<u64, (u64, u64)>,
}

impl<'a> Actuals<'a> {
    /// `None` when `executor` carries no node→op map (parameter-patched
    /// programs): its operators cannot be attributed to plan nodes.
    fn new(executor: &'a Executor, trace: &QueryTrace) -> Option<Actuals<'a>> {
        Some(Actuals {
            node_map: executor.node_map()?,
            program: executor.program(),
            ops: trace
                .ops
                .iter()
                .map(|o| (o.op_index, (o.rows, o.total_us)))
                .collect(),
        })
    }

    fn op(&self, node: usize) -> Option<usize> {
        self.node_map.get(node).copied().flatten()
    }

    /// `(rows, total_us)` of the op behind plan node `node`.
    fn of(&self, node: usize) -> Option<(u64, u64)> {
        self.ops.get(&(self.op(node)? as u64)).copied()
    }

    /// `(rows, total_us)` of the build op whose table plan node `node`'s
    /// hash probe reads.
    fn build_of(&self, node: usize) -> Option<(u64, u64)> {
        let ProgOp::HashProbe { table, .. } = &self.program.ops[self.op(node)?] else {
            return None;
        };
        let build = self.program.ops.iter().position(|o| o.dst() == *table)?;
        self.ops.get(&(build as u64)).copied()
    }
}

/// Walk a physical plan and produce [`ExplainRow`]s in display (pre-)
/// order. The walk simultaneously assigns each node its **post-order
/// index** — the order `tqp_exec::program::lower_with_map` visits nodes and
/// `tqp_ir::estimate_each` reports estimates — so estimates and per-op
/// actuals from a trace can be joined back onto the tree.
fn explain_rows(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    actuals: Option<&Actuals>,
) -> Vec<ExplainRow> {
    fn go(
        p: &PhysicalPlan,
        depth: usize,
        post: &mut usize,
        est: &[f64],
        actuals: Option<&Actuals>,
    ) -> Vec<ExplainRow> {
        let mut child_rows = Vec::new();
        for c in p.children() {
            child_rows.extend(go(c, depth + 1, post, est, actuals));
        }
        let my_post = *post;
        *post += 1;
        let actual = actuals.and_then(|a| a.of(my_post));
        let build = actuals.and_then(|a| a.build_of(my_post));
        let op = match p {
            // A grouped aggregate with an estimate names the shape the
            // executor derives from it, and what the estimate met.
            PhysicalPlan::Aggregate {
                groups: Some(est), ..
            } => {
                let shape = tqp_exec::agg::Shape::for_groups(Some(*est)).name();
                let met = actual.map_or(String::new(), |(g, _)| format!(", actual_groups={g}"));
                format!("{}({shape}, est_groups={est}{met})", p.op_name())
            }
            _ => p.op_name(),
        };
        let mut rows = vec![ExplainRow {
            depth,
            op,
            est_rows: est[my_post],
            actual_rows: actual.map(|(r, _)| r),
            wall_us: actual.map(|(_, us)| us),
            build,
        }];
        rows.extend(child_rows);
        rows
    }
    let mut est = Vec::new();
    tqp_ir::estimate_each(plan, catalog, &mut |rows| est.push(rows));
    go(plan, 0, &mut 0, &est, actuals)
}

/// Record every attributed plan node's q-error, `max(est/actual,
/// actual/est)` with both floored at one row, into the `opt.qerror`
/// histogram: optimizer quality as a tracked metric.
fn observe_qerror(executor: &Executor, catalog: &Catalog, trace: &QueryTrace) {
    static QERROR: std::sync::OnceLock<tqp_obs::Histogram> = std::sync::OnceLock::new();
    let Some(actuals) = Actuals::new(executor, trace) else {
        return;
    };
    let histogram = QERROR.get_or_init(|| tqp_obs::registry().histogram("opt.qerror"));
    let mut node = 0;
    tqp_ir::estimate_each(executor.plan(), catalog, &mut |est| {
        if let Some((rows, _)) = actuals.of(node) {
            let (est, rows) = (est.max(1.0), (rows as f64).max(1.0));
            histogram.observe((est / rows).max(rows / est).ceil() as u64);
        }
        node += 1;
    });
}

/// Render explain rows as the single-column `plan` result frame.
fn explain_frame(rows: &[ExplainRow], analyze: bool) -> (DataFrame, tqp_exec::ExecStats) {
    let lines: Vec<String> = rows.iter().map(|r| r.render(analyze)).collect();
    let stats = tqp_exec::ExecStats {
        rows: lines.len(),
        ..Default::default()
    };
    (
        tqp_data::frame::df(vec![("plan", tqp_data::Column::from_str(lines))]),
        stats,
    )
}

/// Run-time preconditions of a compiled query, captured **once at compile
/// time** so per-execution checking is two cheap slice walks (no program
/// re-scan, no allocation on the cached hot path):
///
/// * every scanned table must be ingested in the executing session, and —
///   when the compiling catalog knew the table — its schema must still
///   match: a `register_table` replacement with different columns/types
///   invalidates every compiled plan over it, including prepared handles
///   a client kept across the replacement (compiled programs carry
///   positional column indices, so running them against a reshaped table
///   would read the wrong columns);
/// * every `PREDICT` model must be registered;
/// * parameterized programs must have values bound.
///
/// Violations are [`TqpError`] values (not panics) so a serving layer can
/// classify and retry them.
struct RunPreconditions {
    /// Scanned tables with the schema they were compiled against (`None`
    /// when the compiling catalog did not know the table — external
    /// plans — which downgrades to a presence-only check).
    tables: Vec<(String, Option<tqp_data::Schema>)>,
    models: Vec<String>,
    n_params: usize,
}

impl RunPreconditions {
    fn capture(program: &tqp_exec::program::TensorProgram, catalog: &Catalog) -> RunPreconditions {
        RunPreconditions {
            tables: program
                .tables()
                .into_iter()
                .map(|t| (t.to_string(), catalog.get(t).map(|m| m.schema.clone())))
                .collect(),
            models: program.model_names(),
            n_params: program.n_params(),
        }
    }

    /// Table/model checks against the executing session.
    fn check_session(&self, session: &Session) -> Result<(), TqpError> {
        for (table, compiled_schema) in &self.tables {
            if !session.storage.contains_key(table) {
                return Err(TqpError::Execution(format!(
                    "table {table} is not ingested in this session"
                )));
            }
            if let Some(expected) = compiled_schema {
                match session.catalog.get(table) {
                    Some(meta) if meta.schema == *expected => {}
                    _ => {
                        return Err(TqpError::Execution(format!(
                            "table {table} was re-registered with a different schema since \
                             this query was compiled — prepare it again"
                        )))
                    }
                }
            }
        }
        for model in &self.models {
            if session.models.get(model).is_none() {
                return Err(TqpError::Execution(format!(
                    "model {model} is not registered in this session"
                )));
            }
        }
        Ok(())
    }
}

/// A prepared statement: compiled once, executable many times (optionally
/// with per-execution parameter values). Cloning is an `Arc` clone — the
/// compiled plan/program are shared, which is what a serving layer's
/// statement cache relies on.
#[derive(Clone)]
pub struct PreparedQuery {
    inner: Arc<PreparedInner>,
}

struct PreparedInner {
    cfg: QueryConfig,
    /// Compiled executor holding the pristine (pre-binding) program.
    executor: Executor,
    /// Compile-time-captured run preconditions (cheap per-execution check).
    pre: RunPreconditions,
    /// Plain query vs. `EXPLAIN`/`EXPLAIN ANALYZE` statement.
    kind: QueryKind,
    /// Original statement text (trace + slow-query-log attribution).
    sql: String,
}

impl PreparedQuery {
    /// Number of `$n` parameter values each execution must supply.
    pub fn n_params(&self) -> usize {
        self.inner.pre.n_params
    }

    /// The configuration the statement was prepared under.
    pub fn config(&self) -> QueryConfig {
        self.inner.cfg
    }

    /// The compiled (pristine, pre-binding) tensor program.
    pub fn program(&self) -> &tqp_exec::program::TensorProgram {
        self.inner.executor.program()
    }

    /// The physical plan the statement compiled to.
    pub fn plan(&self) -> &PhysicalPlan {
        self.inner.executor.plan()
    }

    /// True when both handles share one compiled statement — the test
    /// hook proving a cache hit did no parse/bind/lower work.
    pub fn ptr_eq(&self, other: &PreparedQuery) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Execute with parameter values (empty slice for parameter-free
    /// statements). Parameter-free executions run the cached executor
    /// directly; parameterized ones clone the compiled program and patch
    /// its constant slots — **never** re-entering the compiler.
    ///
    /// Honours the statement's [`QueryConfig::deadline`], if any: an
    /// execution that exceeds it aborts at the next morsel/section
    /// boundary with a retryable [`TqpError::Execution`].
    pub fn execute(
        &self,
        session: &Session,
        params: &[Scalar],
    ) -> Result<(DataFrame, tqp_exec::ExecStats), TqpError> {
        self.execute_with(session, params, &RunOptions::default())
            .map(|(f, s, _)| (f, s))
    }

    /// Execute under an external cancellation token (a network front-end's
    /// per-connection token, an explicit CANCEL handle). The statement's
    /// [`QueryConfig::deadline`] still applies on top: whichever trips
    /// first aborts the run at the next morsel/section boundary with a
    /// retryable [`TqpError::Execution`], freeing its worker-pool slots.
    pub fn execute_cancellable(
        &self,
        session: &Session,
        params: &[Scalar],
        token: &CancelToken,
    ) -> Result<(DataFrame, tqp_exec::ExecStats), TqpError> {
        self.execute_with(
            session,
            params,
            &RunOptions {
                token: Some(token),
                ..RunOptions::default()
            },
        )
        .map(|(f, s, _)| (f, s))
    }

    /// Execute with per-execution observability options: an external
    /// cancellation token, trace capture, and a slow-query threshold —
    /// applied on top of the compiled config (`trace` OR-ed, the others
    /// falling back to it). Returns the captured [`QueryTrace`] when
    /// tracing was on, which the socket front-end serves through its
    /// `PROFILE` frame.
    pub fn execute_with(
        &self,
        session: &Session,
        params: &[Scalar],
        opts: &RunOptions,
    ) -> Result<(DataFrame, tqp_exec::ExecStats, Option<QueryTrace>), TqpError> {
        match self.effective_token(opts.token) {
            None => self.execute_inner(session, params, opts),
            Some(token) => run_cancellable(&token, || self.execute_inner(session, params, opts)),
        }
    }

    /// Combine an optional external token with the statement's configured
    /// deadline. `None` means "run plain" (no token machinery at all —
    /// the deadline-free fast path pays nothing).
    fn effective_token(&self, external: Option<&CancelToken>) -> Option<CancelToken> {
        match (external, self.inner.cfg.deadline) {
            (None, None) => None,
            (None, Some(d)) => Some(CancelToken::with_deadline(d)),
            (Some(t), d) => Some(t.child(d)),
        }
    }

    fn execute_inner(
        &self,
        session: &Session,
        params: &[Scalar],
        opts: &RunOptions,
    ) -> Result<(DataFrame, tqp_exec::ExecStats, Option<QueryTrace>), TqpError> {
        let inner = &self.inner;
        if inner.kind == QueryKind::Explain {
            // Plan rendering only — no execution, no parameter values
            // needed (placeholder slots stay unbound).
            let rows = explain_rows(inner.executor.plan(), &session.catalog, None);
            let (frame, stats) = explain_frame(&rows, false);
            return Ok((frame, stats, None));
        }
        if params.len() != inner.pre.n_params {
            return Err(TqpError::Execution(format!(
                "query takes {} parameter(s), {} supplied",
                inner.pre.n_params,
                params.len()
            )));
        }
        inner.pre.check_session(session)?;
        let analyze = inner.kind == QueryKind::ExplainAnalyze;
        let trace_on = analyze || opts.trace || inner.cfg.trace;
        let slow_ms = opts.slow_query_ms.or(inner.cfg.slow_query_ms);
        let (frame, stats, trace) = if inner.pre.n_params == 0 {
            run_with_obs(&inner.executor, session, &inner.sql, trace_on, slow_ms)
        } else {
            let bound = inner
                .executor
                .program()
                .bind_params(params)
                .map_err(TqpError::Execution)?;
            let ex =
                Executor::from_parts(inner.executor.plan().clone(), bound, exec_config(inner.cfg));
            // `from_parts` carries no node→op map: EXPLAIN ANALYZE of a
            // parameterized statement renders `actual=?`.
            run_with_obs(&ex, session, &inner.sql, trace_on, slow_ms)
        };
        if analyze {
            let actuals = trace
                .as_ref()
                .filter(|_| inner.pre.n_params == 0)
                .and_then(|t| Actuals::new(&inner.executor, t));
            let rows = explain_rows(inner.executor.plan(), &session.catalog, actuals.as_ref());
            let (frame, mut estats) = explain_frame(&rows, true);
            estats.wall_us = stats.wall_us;
            return Ok((frame, estats, trace));
        }
        Ok((frame, stats, trace))
    }
}

/// A compiled, configured, reusable query.
pub struct CompiledQuery {
    executor: Executor,
    /// Compile-time-captured run preconditions (cheap per-execution check).
    pre: RunPreconditions,
    /// The compiling configuration (deadline + observability knobs apply
    /// per execution).
    cfg: QueryConfig,
    /// Plain query vs. `EXPLAIN`/`EXPLAIN ANALYZE` statement.
    kind: QueryKind,
    /// Original statement text (trace + slow-query-log attribution).
    sql: String,
}

impl CompiledQuery {
    /// Execute against the session. Returns the result frame and stats
    /// (wall time; modeled device time on the simulated GPU). Run-time
    /// preconditions (tables ingested, models registered, parameters
    /// bound) surface as [`TqpError::Execution`] — distinguishable from
    /// compile failures by serve-layer callers.
    pub fn run(&self, session: &Session) -> Result<(DataFrame, tqp_exec::ExecStats), TqpError> {
        self.run_traced(session).map(|(f, s, _)| (f, s))
    }

    /// Execute and also return the captured [`QueryTrace`] when the
    /// compiling config had [`QueryConfig::trace`] on (or the statement is
    /// `EXPLAIN ANALYZE`).
    pub fn run_traced(
        &self,
        session: &Session,
    ) -> Result<(DataFrame, tqp_exec::ExecStats, Option<QueryTrace>), TqpError> {
        match self.cfg.deadline {
            None => self.run_inner(session),
            Some(d) => run_cancellable(&CancelToken::with_deadline(d), || self.run_inner(session)),
        }
    }

    fn run_inner(
        &self,
        session: &Session,
    ) -> Result<(DataFrame, tqp_exec::ExecStats, Option<QueryTrace>), TqpError> {
        if self.kind == QueryKind::Explain {
            let rows = explain_rows(self.executor.plan(), &session.catalog, None);
            let (frame, stats) = explain_frame(&rows, false);
            return Ok((frame, stats, None));
        }
        self.pre.check_session(session)?;
        if self.pre.n_params > 0 {
            return Err(TqpError::Execution(format!(
                "query takes {} parameter(s); prepare it and execute with values",
                self.pre.n_params
            )));
        }
        if self.kind == QueryKind::ExplainAnalyze {
            let (rows, stats, trace) = self.analyze_rows_inner(session);
            let (frame, mut estats) = explain_frame(&rows, true);
            estats.wall_us = stats.wall_us;
            return Ok((frame, estats, trace));
        }
        Ok(run_with_obs(
            &self.executor,
            session,
            &self.sql,
            self.cfg.trace,
            self.cfg.slow_query_ms,
        ))
    }

    /// Structured `EXPLAIN ANALYZE`: execute the query (tracing forced on)
    /// and return one [`ExplainRow`] per plan node with estimates and
    /// measured actuals. Works on any compiled statement regardless of how
    /// it was phrased; this is the API the worker-count/backend invariance
    /// tests assert on.
    pub fn explain_analyze_rows(&self, session: &Session) -> Result<Vec<ExplainRow>, TqpError> {
        self.pre.check_session(session)?;
        if self.pre.n_params > 0 {
            return Err(TqpError::Execution(format!(
                "query takes {} parameter(s); prepare it and execute with values",
                self.pre.n_params
            )));
        }
        Ok(self.analyze_rows_inner(session).0)
    }

    fn analyze_rows_inner(
        &self,
        session: &Session,
    ) -> (Vec<ExplainRow>, tqp_exec::ExecStats, Option<QueryTrace>) {
        let (_frame, stats, trace) = run_with_obs(
            &self.executor,
            session,
            &self.sql,
            true,
            self.cfg.slow_query_ms,
        );
        let actuals = trace.as_ref().and_then(|t| Actuals::new(&self.executor, t));
        let rows = explain_rows(self.executor.plan(), &session.catalog, actuals.as_ref());
        (rows, stats, trace)
    }

    /// The underlying physical plan.
    pub fn plan(&self) -> &PhysicalPlan {
        self.executor.plan()
    }

    /// The lowered tensor program every backend executes.
    pub fn program(&self) -> &tqp_exec::program::TensorProgram {
        self.executor.program()
    }

    /// EXPLAIN-style plan tree.
    pub fn explain(&self) -> String {
        self.executor.plan().display_tree()
    }

    /// EXPLAIN for the lowered program: the flat register-op listing.
    pub fn explain_program(&self) -> String {
        self.executor.program().display()
    }

    /// Graphviz DOT of the executor graph (paper Figure 4).
    pub fn to_dot(&self, title: &str) -> String {
        tqp_exec::viz::plan_to_dot(self.executor.plan(), title)
    }

    /// Size of the serialized Graph/Wasm artifact, if any.
    pub fn artifact_size(&self) -> Option<usize> {
        self.executor.artifact_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqp_data::frame::df;
    use tqp_data::Column;

    fn session() -> Session {
        let mut s = Session::new();
        s.register_table(
            "t",
            df(vec![
                ("id", Column::from_i64(vec![1, 2, 3])),
                ("v", Column::from_f64(vec![1.5, 2.5, 3.5])),
            ]),
        );
        s
    }

    #[test]
    fn sql_roundtrip() {
        let s = session();
        let out = s.sql("select id from t where v > 2.0 order by id").unwrap();
        assert_eq!(out.nrows(), 2);
    }

    #[test]
    fn all_backends_agree() {
        let s = session();
        let sql = "select id, v * 2 as vv from t where v > 1.9 order by id";
        let reference = s.sql_baseline(sql).unwrap();
        for backend in [
            Backend::Eager,
            Backend::Fused,
            Backend::Graph,
            Backend::Wasm,
        ] {
            let q = s
                .compile(sql, QueryConfig::default().backend(backend))
                .unwrap();
            let (out, _) = q.run(&s).unwrap();
            assert_eq!(out.nrows(), reference.nrows(), "{backend:?}");
            for i in 0..out.nrows() {
                assert_eq!(out.row(i), reference.row(i), "{backend:?} row {i}");
            }
        }
    }

    #[test]
    fn gpu_sim_reports_modeled_time() {
        let s = session();
        let q = s
            .compile(
                "select count(*) from t",
                QueryConfig::default().device(Device::GpuSim),
            )
            .unwrap();
        let (_, stats) = q.run(&s).unwrap();
        assert!(stats.gpu_modeled_us.is_some());
        assert!(stats.reported_us() == stats.gpu_modeled_us.unwrap());
    }

    #[test]
    fn unknown_table_is_compile_error() {
        let s = Session::new();
        assert!(s.sql("select * from missing").is_err());
    }

    #[test]
    fn explain_and_dot() {
        let s = session();
        let q = s
            .compile("select id from t where v > 2.0", QueryConfig::default())
            .unwrap();
        assert!(q.explain().contains("Scan(t)"));
        assert!(q.to_dot("test").contains("digraph"));
    }

    #[test]
    fn plan_frontend_accepts_external_plans() {
        let s = session();
        let q1 = s
            .compile("select id from t", QueryConfig::default())
            .unwrap();
        // Ship the plan as JSON (the Spark-frontend path) and re-import.
        let json = q1.plan().to_json();
        let plan = PhysicalPlan::from_json(&json).unwrap();
        let q2 = s.compile_plan(&plan, QueryConfig::default());
        let (out, _) = q2.run(&s).unwrap();
        assert_eq!(out.nrows(), 3);
    }

    #[test]
    fn compile_and_execution_errors_are_distinct() {
        // Permanently-bad SQL → Compile (not retryable).
        let s = session();
        match s.sql("select definitely_not_a_column from t") {
            Err(e @ TqpError::Compile(_)) => assert!(!e.is_retryable()),
            other => panic!("expected a compile error, got {other:?}"),
        }
        // Valid SQL compiled against one session, run against another
        // missing the table → Execution (retryable once the table shows
        // up), not a panic and not a compile error.
        let q = s
            .compile("select id from t", QueryConfig::default())
            .unwrap();
        let empty = Session::new();
        match q.run(&empty) {
            Err(e @ TqpError::Execution(_)) => {
                assert!(e.is_retryable());
                assert!(e.to_string().contains("not ingested"), "{e}");
            }
            other => panic!("expected an execution error, got {:?}", other.map(|_| ())),
        }
        // Retry after registering the table succeeds.
        let mut later = Session::new();
        later.register_table(
            "t",
            df(vec![
                ("id", Column::from_i64(vec![9])),
                ("v", Column::from_f64(vec![1.0])),
            ]),
        );
        assert_eq!(q.run(&later).unwrap().0.nrows(), 1);
    }

    #[test]
    fn unbound_parameters_are_an_execution_error() {
        let s = session();
        let q = s
            .compile("select id from t where v > $1", QueryConfig::default())
            .unwrap();
        match q.run(&s) {
            Err(TqpError::Execution(msg)) => assert!(msg.contains("parameter"), "{msg}"),
            other => panic!("expected execution error, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn prepared_statements_bind_without_recompiling() {
        let s = session();
        let p = s
            .prepare(
                "select id from t where v > $1 order by id",
                QueryConfig::default(),
            )
            .unwrap();
        assert_eq!(p.n_params(), 1);
        let (out, _) = p.execute(&s, &[Scalar::F64(2.0)]).unwrap();
        assert_eq!(out.nrows(), 2);
        // Re-binding the same handle with a different value.
        let (out, _) = p.execute(&s, &[Scalar::F64(3.0)]).unwrap();
        assert_eq!(out.nrows(), 1);
        // Wrong arity is an execution error.
        assert!(matches!(p.execute(&s, &[]), Err(TqpError::Execution(_))));
        // Clones share the compiled statement.
        let p2 = p.clone();
        assert!(p.ptr_eq(&p2));
    }

    #[test]
    fn expired_deadline_is_a_retryable_execution_error() {
        let s = session();
        // An already-expired deadline must abort before (or at) the first
        // boundary check — and classify as retryable, not compile-bad.
        let q = s
            .compile(
                "select sum(v) from t",
                QueryConfig::default().deadline(std::time::Duration::ZERO),
            )
            .unwrap();
        match q.run(&s) {
            Err(e @ TqpError::Execution(_)) => {
                assert!(e.is_retryable());
                assert!(e.to_string().contains("deadline"), "{e}");
            }
            other => panic!("expected deadline error, got {:?}", other.map(|_| ())),
        }
        // Prepared path: same statement, same classification.
        let p = s
            .prepare(
                "select sum(v) from t",
                QueryConfig::default().deadline(std::time::Duration::ZERO),
            )
            .unwrap();
        assert!(matches!(p.execute(&s, &[]), Err(TqpError::Execution(_))));
        // A generous deadline does not perturb results.
        let p = s
            .prepare(
                "select sum(v) from t",
                QueryConfig::default().deadline(std::time::Duration::from_secs(3600)),
            )
            .unwrap();
        let (out, _) = p.execute(&s, &[]).unwrap();
        assert_eq!(out.nrows(), 1);
    }

    #[test]
    fn external_token_cancels_between_executions() {
        let s = session();
        let p = s
            .prepare("select id from t where v > $1", QueryConfig::default())
            .unwrap();
        let token = CancelToken::new();
        let (out, _) = p
            .execute_cancellable(&s, &[Scalar::F64(2.0)], &token)
            .unwrap();
        assert_eq!(out.nrows(), 2);
        token.cancel();
        match p.execute_cancellable(&s, &[Scalar::F64(2.0)], &token) {
            Err(TqpError::Execution(msg)) => assert!(msg.contains("cancelled"), "{msg}"),
            other => panic!("expected cancelled error, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn explain_renders_estimates_without_executing() {
        let s = session();
        let q = s
            .compile(
                "explain select id from t where v > 2.0",
                QueryConfig::default(),
            )
            .unwrap();
        let (out, stats) = q.run(&s).unwrap();
        assert_eq!(out.schema().fields[0].name, "plan");
        let text: Vec<String> = (0..out.nrows())
            .map(|i| out.column(0).get(i).as_str().to_string())
            .collect();
        assert!(text.iter().any(|l| l.contains("Scan(t)")), "{text:?}");
        assert!(text.iter().all(|l| l.contains("est=")), "{text:?}");
        assert!(text.iter().all(|l| !l.contains("actual=")), "{text:?}");
        assert_eq!(stats.rows, out.nrows());
    }

    #[test]
    fn explain_analyze_reports_actual_rows() {
        let s = session();
        let q = s
            .compile(
                "explain analyze select id from t where v > 2.0 order by id",
                QueryConfig::default(),
            )
            .unwrap();
        let (out, _) = q.run(&s).unwrap();
        let text: Vec<String> = (0..out.nrows())
            .map(|i| out.column(0).get(i).as_str().to_string())
            .collect();
        assert!(text.iter().all(|l| l.contains("actual=")), "{text:?}");
        // The scan sees all 3 rows; the filter passes 2.
        assert!(
            text.iter()
                .any(|l| l.contains("Scan(t)") && l.contains("actual=3")),
            "{text:?}"
        );
        // Structured rows agree with the rendering.
        let q2 = s
            .compile(
                "select id from t where v > 2.0 order by id",
                QueryConfig::default(),
            )
            .unwrap();
        let rows = q2.explain_analyze_rows(&s).unwrap();
        assert_eq!(rows[0].depth, 0);
        let scan = rows.iter().find(|r| r.op.starts_with("Scan")).unwrap();
        assert_eq!(scan.actual_rows, Some(3));
    }

    #[test]
    fn traced_run_captures_query_trace() {
        let s = session();
        let q = s
            .compile("select sum(v) from t", QueryConfig::default().trace(true))
            .unwrap();
        let (_, stats, trace) = q.run_traced(&s).unwrap();
        let trace = trace.expect("trace requested");
        assert!(trace.trace_id > 0);
        assert_eq!(trace.sql, "select sum(v) from t");
        assert_eq!(trace.backend, "Eager");
        assert_eq!(trace.wall_us, stats.wall_us);
        assert!(!trace.spans.is_empty());
        assert!(!trace.ops.is_empty());
        // Untraced runs allocate no trace.
        let q2 = s
            .compile("select sum(v) from t", QueryConfig::default())
            .unwrap();
        let (_, _, none) = q2.run_traced(&s).unwrap();
        assert!(none.is_none());
    }

    #[test]
    fn slow_query_log_records_once_with_trace_id() {
        let s = session();
        let marker = "select id, v from t where v > 0.25 order by id";
        let q = s
            .compile(marker, QueryConfig::default().slow_query_ms(0).trace(true))
            .unwrap();
        let (_, _, trace) = q.run_traced(&s).unwrap();
        let hits: Vec<_> = tqp_obs::slow_queries()
            .into_iter()
            .filter(|e| e.sql == marker)
            .collect();
        assert_eq!(hits.len(), 1, "slow query must be logged exactly once");
        assert_eq!(hits[0].trace_id, trace.unwrap().trace_id);
        assert_eq!(hits[0].threshold_ms, 0);
    }

    #[test]
    fn explain_over_prepared_statements() {
        let s = session();
        let p = s
            .prepare(
                "explain select id from t where v > $1",
                QueryConfig::default(),
            )
            .unwrap();
        // EXPLAIN renders without parameter values.
        let (out, _) = p.execute(&s, &[]).unwrap();
        assert!(out.nrows() > 0);
        assert_eq!(out.schema().fields[0].name, "plan");
    }

    #[test]
    fn profiling_session_records() {
        let mut s = session();
        s.enable_profiling();
        let _ = s.sql("select sum(v) from t").unwrap();
        assert!(!s.profiler().spans().is_empty());
    }
}

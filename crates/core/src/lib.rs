//! # tqp-core — the TQP public façade
//!
//! The Rust equivalent of the paper's pip-installable `tqp` Python package:
//! a [`Session`] holds tables (ingested to the tensor format of §2.1) and
//! registered `PREDICT` models; [`Session::compile`] runs the full
//! compilation stack (parse → bind → optimize → plan → **lower to the
//! [`TensorProgram`]**, binding each `PREDICT` model into it) and returns a
//! [`CompiledQuery`] bound to a backend/device configuration. Every
//! backend executes the same lowered program — see `ARCHITECTURE.md`. A
//! compiled query keeps the models it was compiled with: registering a
//! replacement affects only queries compiled afterwards.
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
//! assert!(gpu_stats.modeled_us.is_some());
//! ```
//!
//! Profiling — the paper's Scenario 1, "re-execute with the profiler
//! activated" — is a traced run: compile with [`QueryConfig::trace`], and
//! [`CompiledQuery::run_traced`] returns the run's [`QueryTrace`], whose
//! [`QueryTrace::breakdown`] is the Figure-2 operator table and whose
//! [`QueryTrace::chrome_trace`] is the trace TensorBoard would render.
//! An untraced run records nothing.

use std::collections::HashMap;
use std::sync::Arc;

use tqp_baseline::RowEngine;
use tqp_data::DataFrame;
use tqp_exec::program::{ProgOp, TensorProgram};
use tqp_exec::{Backend, Device, ExecConfig, Executor, GpuStrategy, Storage, TableSource};
use tqp_ir::physical::PhysicalPlan;
use tqp_ir::{compile_query, compile_sql, Catalog, CompileError, PhysicalOptions};
use tqp_ml::{Model, ModelRegistry};
use tqp_obs::{QueryTrace, TraceRecorder};
use tqp_store::StoredTable;
use tqp_tensor::Scalar;

pub use tqp_exec::sched::{CancelReason, CancelToken};

/// Per-query configuration: backend + device, and the execution knobs.
#[derive(Debug, Clone, Copy)]
pub struct QueryConfig {
    /// Carries nothing: the planner makes every physical choice. The field
    /// stays only because the benchmark package passes `&cfg.physical` to
    /// `tqp_ir::compile_sql`; it goes when that call drops the argument.
    pub physical: PhysicalOptions,
    pub backend: Backend,
    pub device: Device,
    pub gpu_strategy: GpuStrategy,
    /// Zone-map chunk pruning for store-backed scans (default on; results
    /// are identical either way — off is the reference scan the pruning
    /// tests compare against).
    pub prune_scans: bool,
    /// Worker threads for morsel-parallel CPU execution (1 = sequential).
    pub workers: usize,
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
            physical: PhysicalOptions,
            backend: Backend::Fused,
            device: Device::Cpu,
            gpu_strategy: GpuStrategy::Resident,
            prune_scans: true,
            workers: tqp_exec::default_workers(),
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
/// [`TqpError::Execution`] is a condition of *this* session state (a
/// table dropped between prepare and execute, unbound parameters, or —
/// at compile time — a `PREDICT` model that is not registered or takes
/// another number of arguments) that a later retry may well succeed on.
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

/// A TQP session: tables (row + tensor form), models, catalog.
pub struct Session {
    frames: HashMap<String, DataFrame>,
    storage: Storage,
    catalog: Catalog,
    models: ModelRegistry,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    /// An empty session.
    pub fn new() -> Session {
        Session {
            frames: HashMap::new(),
            storage: Storage::new(),
            catalog: Catalog::new(),
            models: ModelRegistry::new(),
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
        self.publish_resident_bytes();
    }

    /// Set the `storage.resident_bytes` gauge — column data the session's
    /// tables keep in memory — and its split by buffer kind
    /// (`.padded`, `.codes`, `.dict`; numeric buffers are the rest).
    fn publish_resident_bytes(&self) {
        let bytes = self
            .storage
            .values()
            .map(TableSource::resident_bytes)
            .fold(tqp_tensor::Footprint::default(), |a, b| a + b);
        let r = tqp_obs::registry();
        for (name, v) in [
            ("storage.resident_bytes", bytes.total()),
            ("storage.resident_bytes.padded", bytes.padded),
            ("storage.resident_bytes.codes", bytes.codes),
            ("storage.resident_bytes.dict", bytes.dict),
        ] {
            r.gauge(name).set(v as i64);
        }
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
        self.publish_resident_bytes();
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
        let executor = self.bind(&plan, cfg)?;
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
        let executor = self.bind(&plan, cfg)?;
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
    pub fn compile_plan(
        &self,
        plan: &PhysicalPlan,
        cfg: QueryConfig,
    ) -> Result<CompiledQuery, TqpError> {
        let executor = self.bind(plan, cfg)?;
        let pre = RunPreconditions::capture(executor.program(), &self.catalog);
        Ok(CompiledQuery {
            executor,
            pre,
            cfg,
            kind: QueryKind::Query,
            sql: "<external plan>".to_string(),
        })
    }

    /// Lower a plan and bind the `PREDICT` models registered now (a missing
    /// or wrong-arity model is a retryable [`TqpError::Execution`]).
    fn bind(&self, plan: &PhysicalPlan, cfg: QueryConfig) -> Result<Executor, TqpError> {
        Executor::compile(plan, exec_config(cfg), &self.models).map_err(TqpError::Execution)
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
    /// `Arc`-backed), and queries over in-memory tables pay nothing. A
    /// scanned stored table whose statistics count a NULL is a retryable
    /// [`TqpError::Execution`] naming it: a frame cell cannot hold a NULL.
    /// So is a stored chunk that fails to decode, naming the chunk.
    pub fn sql_baseline(&self, sql: &str) -> Result<DataFrame, TqpError> {
        let plan = compile_sql(sql, &self.catalog, &PhysicalOptions).map_err(TqpError::Compile)?;
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
        let needed_stored: Vec<(&String, &Arc<StoredTable>)> = needed
            .iter()
            .filter_map(|t| Some((t, self.storage.get(t.as_str())?.as_stored()?)))
            .collect();
        // Refuse before decoding anything: a frame cell cannot hold a NULL.
        if let Some((name, _)) = needed_stored
            .iter()
            .find(|(_, t)| t.stats().columns.iter().any(|c| c.null_count > 0))
        {
            return Err(TqpError::Execution(format!(
                "table {name} holds NULLs, which the row engine cannot read"
            )));
        }
        if needed_stored.is_empty() {
            let engine = RowEngine::new(&self.frames, &self.models);
            return Ok(engine.execute(&plan));
        }
        // Shallow-clone the frame map (Arc-backed columns) and add only
        // the stored tables this query touches.
        let mut frames = self.frames.clone();
        for (name, stored) in needed_stored {
            let table = tqp_exec::stored::materialize(stored).map_err(TqpError::Execution)?;
            frames.insert(name.clone(), tqp_data::ingest::tensors_to_frame(&table));
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

/// Run an executor with `params` bound (empty for a parameter-free
/// statement), optionally capturing a [`QueryTrace`], and feed the
/// slow-query log. This is the **single choke point** every core
/// execution path funnels through (compiled, prepared, parameterized, and
/// therefore also every socket-served query), so a slow query is logged
/// exactly once no matter which surface issued it. A parameter that does
/// not bind is an execution error.
///
/// A traced execution records into a [`TraceRecorder`] of its own, which
/// becomes its trace, so the trace holds only this execution's spans, on
/// this execution's clock. An untraced one gets no recorder: with tracing
/// off (and no slow-query threshold crossed) nothing is allocated.
fn run_with_obs(
    executor: &Executor,
    session: &Session,
    params: &[Scalar],
    sql: &str,
    trace_on: bool,
    slow_ms: Option<u64>,
) -> Result<(DataFrame, tqp_exec::ExecStats, Option<QueryTrace>), TqpError> {
    let run = |trace| {
        executor
            .run(&session.storage, params, trace)
            .map_err(TqpError::Execution)
    };
    let (frame, stats, trace) = if trace_on {
        let rec = TraceRecorder::new();
        let (frame, stats) = run(Some(&rec))?;
        let cfg = executor.config();
        let d = &stats.simd_dispatch;
        let trace = QueryTrace {
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
            ..rec.into_trace()
        };
        observe_qerror(executor, &session.catalog, &trace);
        (frame, stats, Some(trace))
    } else {
        let (frame, stats) = run(None)?;
        (frame, stats, None)
    };
    observe_slow(sql, slow_ms, &stats, trace.as_ref());
    Ok((frame, stats, trace))
}

/// Append to the slow-query ring buffer when the threshold is met.
fn observe_slow(
    sql: &str,
    slow_ms: Option<u64>,
    stats: &tqp_exec::ExecStats,
    trace: Option<&QueryTrace>,
) {
    let Some(ms) = slow_ms else { return };
    if stats.wall_us < ms.saturating_mul(1000) {
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
/// no runtime op. Actual rows are **bitwise stable** across worker counts
/// and backends: every span site charges operator *output* rows
/// regardless of morsel route.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainRow {
    /// Tree depth (root = 0); rendering indents two spaces per level.
    pub depth: usize,
    /// Operator label with the planner's choices, e.g. `Scan(lineitem)`,
    /// `HashJoin(Semi, build=left)`, `HashAggregate`,
    /// `HashAggregate(partitioned, est_groups=40243)` (`ANALYZE` appends
    /// `actual_groups=…`), `Sort(limit=100)` (a top-k under a `LIMIT`).
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
    /// `(model µs, rows scored)` of the `PREDICT` calls this node's op
    /// ran, when it ran any.
    pub predict: Option<(u64, u64)>,
    /// Scans: the chunks the scan kept after zone-map pruning (stored
    /// chunks, or the 1 024-row blocks of an in-memory table).
    pub chunks: Option<u64>,
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
            let chunks = self
                .chunks
                .map(|c| format!(", chunks={c}"))
                .unwrap_or_default();
            let build = self
                .build
                .map(|(rows, us)| format!(", build={us} us, build_rows={rows}"))
                .unwrap_or_default();
            let predict = self
                .predict
                .map(|(us, rows)| format!(", predict={us} us, predict_rows={rows}"))
                .unwrap_or_default();
            s.push_str(&format!(
                "  (est={} rows, actual={actual} rows, {us}{chunks}{build}{predict})",
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
    /// Program op → its attribution row in the run's trace.
    ops: HashMap<u64, &'a tqp_obs::OpTrace>,
    /// Program op → the chunks its spans report.
    chunks: HashMap<u64, u64>,
}

impl<'a> Actuals<'a> {
    fn new(executor: &'a Executor, trace: &'a QueryTrace) -> Actuals<'a> {
        let mut chunks = HashMap::new();
        for span in &trace.spans {
            if let Some((_, idx)) = tqp_obs::parse_op_key(&span.name) {
                *chunks.entry(idx).or_default() += span.chunks;
            }
        }
        Actuals {
            node_map: executor.node_map(),
            program: executor.program(),
            ops: trace.ops.iter().map(|o| (o.op_index, o)).collect(),
            chunks,
        }
    }

    /// The chunks (stored chunks or in-memory blocks) the scan behind plan
    /// node `node` kept, when that node is a scan.
    fn chunks_of(&self, node: usize) -> Option<u64> {
        let op = self.op(node)?;
        let ProgOp::Scan { .. } = self.program.ops[op] else {
            return None;
        };
        Some(self.chunks.get(&(op as u64)).copied().unwrap_or(0))
    }

    fn op(&self, node: usize) -> Option<usize> {
        self.node_map.get(node).copied().flatten()
    }

    /// `(rows, total_us)` of the op behind plan node `node`.
    fn of(&self, node: usize) -> Option<(u64, u64)> {
        let o = self.ops.get(&(self.op(node)? as u64))?;
        Some((o.rows, o.total_us))
    }

    /// `(predict_us, predict_rows)` of the op behind plan node `node`, when
    /// it ran a model.
    fn predict_of(&self, node: usize) -> Option<(u64, u64)> {
        let o = self.ops.get(&(self.op(node)? as u64))?;
        (o.predict_rows > 0).then_some((o.predict_us, o.predict_rows))
    }

    /// `(rows, total_us)` of the build op whose table plan node `node`'s
    /// hash probe reads.
    fn build_of(&self, node: usize) -> Option<(u64, u64)> {
        let ProgOp::HashProbe { table, .. } = &self.program.ops[self.op(node)?] else {
            return None;
        };
        let build = self.program.ops.iter().position(|o| o.dst() == *table)?;
        let o = self.ops.get(&(build as u64))?;
        Some((o.rows, o.total_us))
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
    /// `limit`: the `n` of a `Limit` directly above `p` (lowering folds it
    /// into a `Sort` there, which then orders only its first `n` rows).
    fn go(
        p: &PhysicalPlan,
        depth: usize,
        post: &mut usize,
        est: &[f64],
        actuals: Option<&Actuals>,
        limit: Option<usize>,
    ) -> Vec<ExplainRow> {
        let child_limit = match p {
            PhysicalPlan::Limit { n, .. } => Some(*n),
            _ => None,
        };
        let mut child_rows = Vec::new();
        for c in p.children() {
            child_rows.extend(go(c, depth + 1, post, est, actuals, child_limit));
        }
        let my_post = *post;
        *post += 1;
        let actual = actuals.and_then(|a| a.of(my_post));
        let build = actuals.and_then(|a| a.build_of(my_post));
        let op = match (p, limit) {
            // A grouped aggregate with an estimate names the shape the
            // executor derives from it, and what the estimate met.
            (
                PhysicalPlan::Aggregate {
                    groups: Some(est), ..
                },
                _,
            ) => {
                let shape = tqp_exec::agg::Shape::for_groups(Some(*est)).name();
                let met = actual.map_or(String::new(), |(g, _)| format!(", actual_groups={g}"));
                format!("{}({shape}, est_groups={est}{met})", p.op_name())
            }
            (PhysicalPlan::Sort { .. }, Some(n)) => format!("{}(limit={n})", p.op_name()),
            _ => p.op_name(),
        };
        let mut rows = vec![ExplainRow {
            depth,
            op,
            est_rows: est[my_post],
            actual_rows: actual.map(|(r, _)| r),
            wall_us: actual.map(|(_, us)| us),
            build,
            predict: actuals.and_then(|a| a.predict_of(my_post)),
            chunks: actuals.and_then(|a| a.chunks_of(my_post)),
        }];
        rows.extend(child_rows);
        rows
    }
    let mut est = Vec::new();
    tqp_ir::estimate_each(plan, catalog, &mut |rows| est.push(rows));
    go(plan, 0, &mut 0, &est, actuals, None)
}

/// Record every attributed plan node's q-error, `max(est/actual,
/// actual/est)` with both floored at one row, into the `opt.qerror`
/// histogram: optimizer quality as a tracked metric.
fn observe_qerror(executor: &Executor, catalog: &Catalog, trace: &QueryTrace) {
    static QERROR: std::sync::OnceLock<tqp_obs::Histogram> = std::sync::OnceLock::new();
    let actuals = Actuals::new(executor, trace);
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
/// * parameterized programs must have values bound.
///
/// `PREDICT` models are not: a compiled query runs the ones it bound.
///
/// Violations are [`TqpError`] values (not panics) so a serving layer can
/// classify and retry them.
struct RunPreconditions {
    /// Scanned tables with the schema they were compiled against (`None`
    /// when the compiling catalog did not know the table — external
    /// plans — which downgrades to a presence-only check).
    tables: Vec<(String, Option<tqp_data::Schema>)>,
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
            n_params: program.n_params(),
        }
    }

    /// Table checks against the executing session.
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
    /// statements). Every execution runs the cached executor; a
    /// parameterized one patches its values into a per-run clone of the
    /// compiled program's constant slots — **never** re-entering the
    /// compiler.
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
        let (frame, stats, trace) = run_with_obs(
            &inner.executor,
            session,
            params,
            &inner.sql,
            trace_on,
            slow_ms,
        )?;
        if analyze {
            let actuals = trace.as_ref().map(|t| Actuals::new(&inner.executor, t));
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
    /// preconditions (tables ingested, parameters bound) surface as [`TqpError::Execution`] — distinguishable from
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
            let (rows, stats, trace) = self.analyze_rows_inner(session)?;
            let (frame, mut estats) = explain_frame(&rows, true);
            estats.wall_us = stats.wall_us;
            return Ok((frame, estats, trace));
        }
        run_with_obs(
            &self.executor,
            session,
            &[],
            &self.sql,
            self.cfg.trace,
            self.cfg.slow_query_ms,
        )
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
        Ok(self.analyze_rows_inner(session)?.0)
    }

    fn analyze_rows_inner(
        &self,
        session: &Session,
    ) -> Result<(Vec<ExplainRow>, tqp_exec::ExecStats, Option<QueryTrace>), TqpError> {
        let (_frame, stats, trace) = run_with_obs(
            &self.executor,
            session,
            &[],
            &self.sql,
            true,
            self.cfg.slow_query_ms,
        )?;
        let actuals = trace.as_ref().map(|t| Actuals::new(&self.executor, t));
        let rows = explain_rows(self.executor.plan(), &session.catalog, actuals.as_ref());
        Ok((rows, stats, trace))
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
        self.executor.artifact().map(|b| b.len())
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
        assert!(stats.modeled_us.is_some());
        assert!(stats.reported_us() == stats.modeled_us.unwrap());
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
        let q2 = s.compile_plan(&plan, QueryConfig::default()).unwrap();
        let (out, _) = q2.run(&s).unwrap();
        assert_eq!(out.nrows(), 3);
    }

    /// `PREDICT('m', x)` = `k · x`.
    struct Scale(f64);

    impl Model for Scale {
        fn family(&self) -> &'static str {
            "scale"
        }
        fn n_inputs(&self) -> usize {
            1
        }
        fn predict(&self, inputs: &[tqp_tensor::Tensor]) -> tqp_tensor::Tensor {
            tqp_tensor::Tensor::from_f64(
                inputs[0].to_f64_vec().iter().map(|x| x * self.0).collect(),
            )
        }
    }

    #[test]
    fn compiled_query_keeps_the_model_it_was_compiled_with() {
        let sql = "select sum(predict('m', v)) from t";
        let sum = |q: &CompiledQuery, s: &Session| q.run(s).unwrap().0.column(0).get(0).as_f64();
        for backend in [
            Backend::Eager,
            Backend::Fused,
            Backend::Graph,
            Backend::Wasm,
        ] {
            let cfg = QueryConfig::default().backend(backend);
            let mut s = session();
            s.register_model("m", Arc::new(Scale(2.0)));
            let before = s.compile(sql, cfg).unwrap();
            s.register_model("m", Arc::new(Scale(3.0)));
            assert_eq!(sum(&before, &s), 15.0, "{backend:?}");
            assert_eq!(sum(&s.compile(sql, cfg).unwrap(), &s), 22.5, "{backend:?}");
            // A session without the model still runs the compiled query.
            assert_eq!(sum(&before, &session()), 15.0, "{backend:?}");
        }
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
        assert_eq!(trace.backend, "Fused");
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
    fn only_a_traced_run_records() {
        let s = session();
        let sql = "select sum(v) from t";
        let traced = s.compile(sql, QueryConfig::default().trace(true)).unwrap();
        let (_, _, trace) = traced.run_traced(&s).unwrap();
        let trace = trace.expect("a traced run returns its trace");
        assert!(!trace.spans.is_empty());
        assert!(!trace.ops.is_empty());
        assert!(trace.breakdown(10).contains("@op"));
        let untraced = s.compile(sql, QueryConfig::default()).unwrap();
        assert!(untraced.run_traced(&s).unwrap().2.is_none());
    }
}

//! The four workloads and what they share: the engine configuration, the
//! dataset, and the interleaved-pass loop of the two analytic workloads.

pub mod scan_predict;
pub mod serve;
pub mod tpch_power;

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tqp_core::{CompiledQuery, QueryConfig, Session};
use tqp_data::tpch::{TpchConfig, TpchData};
use tqp_data::{Column, DataFrame};
use tqp_exec::{Backend, ExecStats};
use tqp_obs::QueryTrace;

use crate::estimators::{best_of_passes, geomean, median, median_of_passes, quantile};
use crate::metrics::{Report, OP_KINDS, SIMD_FAMILIES};
use crate::trace::Tracer;
use crate::verify::{frame_fingerprint, Digest};
use crate::{Options, Scale};

/// The one engine configuration every workload runs: the paper's fused
/// backend on both cores. Never more threads than cores, never fewer busy
/// threads than cores during a measured phase.
pub fn engine_config() -> QueryConfig {
    QueryConfig::default().backend(Backend::Fused).workers(2)
}

pub fn generate_tpch(sf: f64, data_seed: u64) -> TpchData {
    TpchData::generate(&TpchConfig {
        scale_factor: sf,
        seed: 20_220_901 + data_seed,
    })
}

/// Hash of a whole TPC-H instance (see `verify::frame_fingerprint`).
pub fn tpch_fingerprint(data: &TpchData) -> u64 {
    data.tables()
        .iter()
        .fold(crate::rng::FNV_OFFSET, |h, (_, frame)| {
            crate::rng::fnv_mix(h, frame_fingerprint(frame))
        })
}

/// A float column of `frame`, shared with it.
pub fn f64_column(frame: &DataFrame, name: &str) -> Arc<Vec<f64>> {
    match frame.column_by_name(name) {
        Some(Column::Float64(v)) => Arc::clone(v),
        other => panic!("{name} is not a float column: {other:?}"),
    }
}

/// An integer or date column of `frame`, shared with it.
pub fn i64_column(frame: &DataFrame, name: &str) -> Arc<Vec<i64>> {
    match frame.column_by_name(name) {
        Some(Column::Int64(v)) | Some(Column::Date(v)) => Arc::clone(v),
        other => panic!("{name} is not an integer column: {other:?}"),
    }
}

/// Keeps the second core awake while an in-process workload runs.
///
/// The engine parks its pool helper on a condvar between parallel sections,
/// so the core it ran on goes idle, and on this virtualised host an idle
/// vCPU halts. How fast a halted vCPU wakes depends on the halt-polling
/// state, which follows the machine's recent history: after a minute of
/// two-core activity Q1 takes 41 ms at `workers = 2`, after a minute of
/// one-core activity 80 ms — the `workers = 1` time, the helper arriving too
/// late to take a morsel — and the 22 queries 2.05 s or 2.3-2.6 s. A result
/// that depends on what ran before is not a measurement, so one thread of
/// the harness yields in a loop for as long as the guard lives: the idle
/// core never halts, any runnable thread of the program displaces the
/// yielder within one system call, and the run costs ~3 % over the fast
/// state (2.11 s). This is the protocol's "never fewer busy threads than
/// cores during a measured phase"; the serving workloads meet it with their
/// two closed-loop connections.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl KeepAwake {
    pub fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                // Relaxed: the flag publishes nothing but itself.
                while !stop.load(Ordering::Relaxed) {
                    std::thread::yield_now();
                }
            })
        };
        KeepAwake {
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            // The loop cannot panic; nothing to report.
            let _ = t.join();
        }
    }
}

/// Set up, and again as long as one more set-up of the last one's length
/// keeps the total under `budget_s`; each state is dropped before the next
/// is built, so peak memory is that of one. Returns the last state and every
/// set-up's duration in seconds. The budget keeps a workload whose set-up
/// grows from eating the time the driver allows the whole benchmark.
pub fn repeat_setup<S>(budget_s: f64, mut setup: impl FnMut() -> S) -> (S, Vec<f64>) {
    let mut durations: Vec<f64> = Vec::new();
    let mut state = None;
    loop {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(setup());
        let last = t0.elapsed().as_secs_f64();
        durations.push(last);
        if durations.iter().sum::<f64>() + last > budget_s {
            return (state.expect("at least one set-up"), durations);
        }
    }
}

/// A workload of fixed statements run in interleaved passes.
pub trait Statements {
    fn count(&self) -> usize;
    /// Execute statement `i` once: its time in seconds, and whether its
    /// result agreed with the oracle (checked outside the timed part).
    fn execute(&mut self, i: usize) -> (f64, bool);
}

/// One pass: every statement once, in order. Returns the times.
pub fn run_pass(w: &mut dyn Statements, report: &mut Report) -> Vec<f64> {
    (0..w.count())
        .map(|i| {
            let (secs, ok) = w.execute(i);
            report.attempted += 1;
            report.failed += u64::from(!ok);
            secs
        })
        .collect()
}

/// Measured passes for about `seconds`: a new pass starts while the time
/// used plus the mean pass so far still fits, and never fewer than
/// `min_passes` run.
pub fn measure_passes(
    w: &mut dyn Statements,
    seconds: f64,
    min_passes: usize,
    report: &mut Report,
) -> Vec<Vec<f64>> {
    let t0 = Instant::now();
    let mut passes: Vec<Vec<f64>> = Vec::new();
    loop {
        let used = t0.elapsed().as_secs_f64();
        let mean_pass = used / passes.len().max(1) as f64;
        if passes.len() >= min_passes && used + mean_pass > seconds {
            return passes;
        }
        passes.push(run_pass(w, report));
    }
}

/// The end-to-end metrics of an analytic workload from its measured passes.
pub fn analytic_end_to_end(passes: &[Vec<f64>], report: &mut Report) {
    let best = best_of_passes(passes);
    report.set("ops_per_s", best.len() as f64 / best.iter().sum::<f64>());
    report.set("lat_geomean_us", geomean(&best) * 1e6);
    // A pass is a window: in-pass p95 over the statements, lower quartile
    // over the passes.
    let p95s: Vec<f64> = passes.iter().map(|p| quantile(p, 0.95)).collect();
    report.set("lat_p95_us", quantile(&p95s, 0.25) * 1e6);
}

/// Run a compiled statement once: its time in seconds, and whether its
/// result agrees with the oracle's digest (checked outside the timed part).
pub fn timed_query(
    query: &CompiledQuery,
    session: &Session,
    name: &str,
    oracle: Option<&Digest>,
) -> (f64, bool) {
    let t0 = Instant::now();
    let ran = query.run(session);
    let secs = t0.elapsed().as_secs_f64();
    let ok = match ran {
        Ok((frame, _)) => oracle.is_some_and(|o| Digest::of(&frame).matches(o)),
        Err(e) => {
            eprintln!("{name} failed: {e}");
            false
        }
    };
    (secs, ok)
}

/// The run of an analytic workload: set up (with a warm-up pass, so caches
/// fill and lazy set-up ends before anything is timed), then either the
/// measured passes and the end-to-end metrics, or the workload's traced run.
pub fn run_analytic<S: Statements>(
    opts: &Options,
    build: impl Fn(&Options, &Scale) -> S,
    traced_run: impl FnOnce(&Options, &mut S, &mut Report),
) -> Report {
    let scale = Scale::of(opts);
    let mut report = Report::default();
    let _awake = KeepAwake::start();
    let (mut state, setups) = repeat_setup(scale.setup_budget_s, || {
        let mut state = build(opts, &scale);
        run_pass(&mut state, &mut report);
        state
    });
    if opts.trace {
        traced_run(opts, &mut state, &mut report);
        return report;
    }
    let passes = measure_passes(&mut state, opts.seconds, 3, &mut report);
    analytic_end_to_end(&passes, &mut report);
    report.set("setup_s", median(&setups));
    report.set("peak_rss_mb", crate::host::peak_rss_mb());
    report
}

/// The untraced reference phase of a traced run: a few passes, the
/// scheduler and process counters around them, and each statement's
/// best-of-passes time as `stmt.<name>_ms`. Returns the passes' best times
/// and the summed per-statement medians of the first `reads` statements.
pub fn reference_passes<N: AsRef<str>>(
    w: &mut dyn Statements,
    names: &[N],
    reads: usize,
    opts: &Options,
    report: &mut Report,
) -> Vec<f64> {
    let counters = PhaseCounters::start();
    let before = report.attempted;
    let passes = measure_passes(w, opts.seconds.min(10.0), 3, report);
    counters.finish(report.attempted - before, report);
    let best = best_of_passes(&passes);
    for (name, secs) in names.iter().zip(&best) {
        report.set(format!("stmt.{}_ms", name.as_ref()), secs * 1e3);
    }
    report.set("e2e.query_total_s", best[..reads].iter().sum());
    report.set(
        "raw.query_total_median_s",
        median_of_passes(&passes)[..reads].iter().sum(),
    );
    best
}

/// One traced pass over SQL statements, staged by [`trace_statement`], and
/// what both analytic workloads report from it.
pub fn traced_pass<'a>(
    tracer: &mut Tracer,
    session: &Session,
    statements: impl Iterator<Item = (&'a str, &'a str, Option<&'a Digest>)>,
    report: &mut Report,
) -> Vec<TracedStatement> {
    let traced: Vec<TracedStatement> = statements
        .map(|(name, sql, oracle)| {
            let t = trace_statement(tracer, session, name, sql, oracle);
            report.attempted += 1;
            report.failed += u64::from(!t.ok);
            t
        })
        .collect();
    report_traced_pass(&traced, report);
    let untraced = report
        .get("e2e.query_total_s")
        .expect("reference passes ran");
    let traced_total = traced.iter().map(|t| t.run_us).sum::<f64>() / 1e6;
    report.set("trace.overhead_ratio", traced_total / untraced);
    traced
}

/// One SQL statement taken through the layers one timed public call at a
/// time: parse, parse + plan, the whole compile, the traced run, the check.
pub struct TracedStatement {
    pub parse_us: f64,
    /// `tqp_ir::compile_sql`: parse + bind + optimize + physical plan.
    pub sql_to_plan_us: f64,
    /// `Session::compile`: all of the above + lowering to the program.
    pub compile_us: f64,
    pub run_us: f64,
    pub ok: bool,
    pub stats: ExecStats,
    pub trace: Option<QueryTrace>,
}

pub fn trace_statement(
    t: &mut Tracer,
    session: &Session,
    name: &str,
    sql: &str,
    oracle: Option<&Digest>,
) -> TracedStatement {
    let cfg = engine_config().trace(true);
    t.next_request();
    let (out, _) = t.span("harness", name, |t| {
        // Compile stages cost tens of microseconds, less than a cold cache
        // adds: each is called three times and its fastest call counts.
        let mut best_of_3 = |layer, call: &str, f: &dyn Fn() -> bool| {
            (0..3)
                .map(|_| t.span(layer, call, |_| black_box(f())).1)
                .fold(f64::INFINITY, f64::min)
        };
        let parse_us = best_of_3("sql", "parse_statement", &|| {
            tqp_sql::parse_statement(sql).is_ok()
        });
        let sql_to_plan_us = best_of_3("ir", "compile_sql", &|| {
            tqp_ir::compile_sql(sql, session.catalog(), &cfg.physical).is_ok()
        });
        let compile_us = best_of_3("core", "Session::compile", &|| {
            session.compile(sql, cfg).is_ok()
        });
        let compiled = session.compile(sql, cfg);
        let compiled = compiled.unwrap_or_else(|e| panic!("{name} does not compile: {e}"));
        let (ran, run_us) = t.span("exec", "run_traced", |_| compiled.run_traced(session));
        let mut out = TracedStatement {
            parse_us,
            sql_to_plan_us,
            compile_us,
            run_us,
            ok: false,
            stats: ExecStats::default(),
            trace: None,
        };
        match ran {
            Ok((frame, stats, trace)) => {
                if let Some(trace) = &trace {
                    t.attach_query_trace(trace);
                }
                let (ok, _) = t.span("harness", "verify", |_| {
                    oracle.is_some_and(|o| Digest::of(&frame).matches(o))
                });
                out.ok = ok;
                out.stats = stats;
                out.trace = trace;
            }
            Err(e) => eprintln!("{name} failed: {e}"),
        }
        out
    });
    out
}

/// Index into [`OP_KINDS`] of a program operator, by its trace name.
fn op_kind(name: &str) -> Option<usize> {
    let kind = if name.starts_with("Scan(") {
        "scan"
    } else if name == "Filter" {
        "filter"
    } else if name == "Project+Predict" {
        "predict"
    } else if name == "Project" {
        "project"
    } else if name == "HashBuild" {
        "join_build"
    } else if name.contains("Join") {
        "join_probe"
    } else if name.ends_with("Aggregate") {
        "agg"
    } else if name == "Sort" || name == "Limit" {
        "sort"
    } else {
        return None;
    };
    OP_KINDS.iter().position(|k| *k == kind)
}

/// Fold one traced pass into the per-layer metrics both analytic workloads
/// share: compile stages, operator time by kind, SIMD dispatch counts.
fn report_traced_pass(traced: &[TracedStatement], report: &mut Report) {
    let n = traced.len() as f64;
    let mean = |f: fn(&TracedStatement) -> f64| traced.iter().map(f).sum::<f64>() / n;
    report.set("sql.parse_us", mean(|s| s.parse_us));
    report.set(
        "ir.plan_us",
        mean(|s| s.sql_to_plan_us - s.parse_us).max(0.0),
    );
    report.set(
        "exec.lower_us",
        mean(|s| s.compile_us - s.sql_to_plan_us).max(0.0),
    );
    report.set("core.compile_us", mean(|s| s.compile_us));

    let mut ops = OpTotals::default();
    let mut simd = [0u64; SIMD_FAMILIES.len()];
    for s in traced {
        let d = &s.stats.simd_dispatch;
        for (slot, v) in simd
            .iter_mut()
            .zip([d.hash, d.filter, d.gather, d.reduce, d.decode])
        {
            *slot += v;
        }
        if let Some(trace) = &s.trace {
            ops.add(trace);
        }
    }
    ops.report(report);
    for (family, count) in SIMD_FAMILIES.iter().zip(simd) {
        report.set(format!("tensor.simd.{family}"), count as f64);
    }
}

/// Operator time of the program's own traces, folded by operator kind.
#[derive(Default)]
pub struct OpTotals {
    by_kind: [u64; OP_KINDS.len()],
    attributed_us: u64,
    wall_us: u64,
}

impl OpTotals {
    pub fn add(&mut self, trace: &QueryTrace) {
        self.wall_us += trace.wall_us;
        for op in &trace.ops {
            self.attributed_us += op.total_us;
            if let Some(k) = op_kind(&op.name) {
                self.by_kind[k] += op.total_us;
            }
        }
    }

    pub fn report(&self, report: &mut Report) {
        for (kind, us) in OP_KINDS.iter().zip(self.by_kind) {
            report.set(format!("exec.op.{kind}_us"), us as f64);
        }
        // Operators of one statement can overlap on two workers, so the
        // share can go below zero; a large value either way is an
        // observability finding, not a gain.
        report.set(
            "exec.unattributed_share",
            1.0 - self.attributed_us as f64 / self.wall_us.max(1) as f64,
        );
    }
}

/// Scheduler and process counters around a measured phase.
pub struct PhaseCounters {
    sections: u64,
    helper_tasks: u64,
    cpu_ms: f64,
    ctx: u64,
}

impl PhaseCounters {
    pub fn start() -> PhaseCounters {
        let snap = tqp_obs::registry().snapshot();
        PhaseCounters {
            sections: snap.counter("sched.sections"),
            helper_tasks: snap.counter("sched.helper_tasks"),
            cpu_ms: crate::host::cpu_ms(),
            ctx: crate::host::voluntary_ctx_switches(),
        }
    }

    /// Report the deltas since `start`, per operation where that is the unit.
    pub fn finish(self, ops: u64, report: &mut Report) {
        let now = PhaseCounters::start();
        let sections = (now.sections - self.sections) as f64;
        let helper_tasks = (now.helper_tasks - self.helper_tasks) as f64;
        report.set("sched.sections", sections);
        report.set("sched.helper_tasks", helper_tasks);
        report.set("sched.helper_share", helper_tasks / sections.max(1.0));
        let ops = ops.max(1) as f64;
        report.set("proc.cpu_ms_per_op", (now.cpu_ms - self.cpu_ms) / ops);
        report.set(
            "proc.vol_ctx_switches_per_op",
            now.ctx.saturating_sub(self.ctx) as f64 / ops,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operators_fold_into_known_kinds() {
        let kind = |n| op_kind(n).map(|k| OP_KINDS[k]);
        assert_eq!(kind("Scan(lineitem)"), Some("scan"));
        assert_eq!(kind("SortMergeJoin(Inner)"), Some("join_probe"));
        assert_eq!(kind("HashJoin(Semi)"), Some("join_probe"));
        assert_eq!(kind("HashBuild"), Some("join_build"));
        assert_eq!(kind("SortAggregate"), Some("agg"));
        assert_eq!(kind("Project+Predict"), Some("predict"));
        assert_eq!(kind("Limit"), Some("sort"));
        assert_eq!(kind("Mystery"), None);
    }

    struct Fixed(Vec<f64>);
    impl Statements for Fixed {
        fn count(&self) -> usize {
            self.0.len()
        }
        fn execute(&mut self, i: usize) -> (f64, bool) {
            (self.0[i], i != 1)
        }
    }

    #[test]
    fn passes_count_operations_and_failures() {
        let mut report = Report::default();
        let passes = measure_passes(&mut Fixed(vec![0.1, 0.2, 0.3]), 0.0, 4, &mut report);
        assert_eq!(passes.len(), 4);
        assert_eq!((report.attempted, report.failed), (12, 4));
        analytic_end_to_end(&passes, &mut report);
        assert!((report.get("ops_per_s").unwrap() - 5.0).abs() < 1e-9);
        assert!(report.get("lat_p95_us").unwrap() > 200_000.0);
    }

    #[test]
    fn setup_is_repeated_and_timed() {
        let mut built = 0;
        let (state, times) = repeat_setup(0.05, || {
            built += 1;
            std::thread::sleep(std::time::Duration::from_millis(10));
            built
        });
        assert!(times.len() >= 2 && state == times.len(), "{times:?}");
        // A set-up that does not fit twice in the budget runs once.
        let (_, times) = repeat_setup(0.015, || {
            std::thread::sleep(std::time::Duration::from_millis(10))
        });
        assert_eq!(times.len(), 1);
    }
}

//! `tpch_power`: the 22 TPC-H queries in-process, compiled once, run in
//! interleaved passes.
//!
//! Why it exists: it is the paper's Figure 1. Joins, aggregation and sort in
//! `exec`/`tensor`/`sched` do all the work; `sql`, `ir`, `serve`, `net`,
//! `store` and `ml` do none. A hash-engine, scheduler or kernel change shows
//! here; a serving change must show nothing.

use std::time::Instant;

use tqp_core::{CompiledQuery, Session};
use tqp_data::tpch::queries;

use super::{
    engine_config, generate_tpch, reference_passes, run_analytic, timed_query, tpch_fingerprint,
    traced_pass, Statements,
};
use crate::metrics::{tpch_statements, Report};
use crate::trace::Tracer;
use crate::verify::{load_or_compute_golden, Digest, Golden};
use crate::{data_seed, Options, Scale};

struct State {
    session: Session,
    names: Vec<String>,
    queries: Vec<CompiledQuery>,
    golden: Golden,
    gen_s: f64,
}

impl State {
    /// Generate, register, load the oracle, compile. The caller warms up.
    fn build(opts: &Options, scale: &Scale) -> State {
        let t0 = Instant::now();
        let data = generate_tpch(scale.sf, data_seed(opts.seed));
        let gen_s = t0.elapsed().as_secs_f64();
        let mut session = Session::new();
        session.register_tpch(&data);
        let names = tpch_statements();
        let golden = load_or_compute_golden(
            "tpch_power",
            scale.sf,
            data_seed(opts.seed),
            tpch_fingerprint(&data),
            opts.regen_golden,
            || {
                queries::all()
                    .into_iter()
                    .zip(&names)
                    .map(|((_, sql), name)| {
                        let frame = session
                            .sql_baseline(sql)
                            .unwrap_or_else(|e| panic!("row engine failed on {name}: {e}"));
                        (name.clone(), Digest::of(&frame))
                    })
                    .collect()
            },
        );
        let queries = queries::all()
            .into_iter()
            .map(|(n, sql)| {
                session
                    .compile(sql, engine_config())
                    .unwrap_or_else(|e| panic!("Q{n} does not compile: {e}"))
            })
            .collect();
        State {
            session,
            names,
            queries,
            golden,
            gen_s,
        }
    }
}

impl Statements for State {
    fn count(&self) -> usize {
        self.queries.len()
    }

    fn execute(&mut self, i: usize) -> (f64, bool) {
        let name = &self.names[i];
        timed_query(
            &self.queries[i],
            &self.session,
            name,
            self.golden.digest(name),
        )
    }
}

pub fn run(opts: &Options) -> Report {
    run_analytic(opts, State::build, traced_run)
}

/// The per-layer run: a short untraced phase for the reference times, one
/// traced pass staged parse → plan → lower → run → verify, one pass at
/// `workers = 1`, and the row engine over the same statements.
fn traced_run(opts: &Options, state: &mut State, report: &mut Report) {
    let names = state.names.clone();
    let best = reference_passes(state, &names, names.len(), opts, report);
    let total: f64 = best.iter().sum();
    report.set("data.gen_s", state.gen_s);

    let mut tracer = Tracer::new();
    let statements = queries::all()
        .into_iter()
        .zip(&names)
        .map(|((_, sql), name)| (name.as_str(), sql, state.golden.digest(name)));
    traced_pass(&mut tracer, &state.session, statements, report);

    // One pass on one worker; the same statements, so the ratio is the
    // scheduler's gain on this host.
    let mut single = 0.0;
    for (n, sql) in queries::all() {
        let q = state
            .session
            .compile(sql, engine_config().workers(1))
            .unwrap_or_else(|e| panic!("Q{n} does not compile: {e}"));
        let t0 = Instant::now();
        let ok = q.run(&state.session).is_ok();
        single += t0.elapsed().as_secs_f64();
        report.attempted += 1;
        report.failed += u64::from(!ok);
    }
    report.set("sched.speedup_w2", single / total);

    // The Figure-1 column: the row engine on the same plans.
    let t0 = Instant::now();
    for (n, sql) in queries::all() {
        if let Err(e) = state.session.sql_baseline(sql) {
            eprintln!("row engine failed on Q{n}: {e}");
            report.failed += 1;
        }
        report.attempted += 1;
    }
    let baseline = t0.elapsed().as_secs_f64();
    report.set("baseline.power_total_s", baseline);
    report.set("baseline.speedup", baseline / total);

    tracer.write("tpch_power");
}

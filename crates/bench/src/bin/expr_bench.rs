//! Expression-execution benchmark: compiled [`ExprProgram`]s vs the
//! legacy tree-walk interpreter, on the expression-heavy TPC-H queries
//! (Q1, Q6, Q19).
//!
//! For each query the physical plan is walked and every expression site
//! (filter conjuncts, projections, group-by keys + aggregate inputs, sort
//! keys) is extracted **together with its real input batch** — the site's
//! input sub-plan is executed and its output re-ingested, so Q19's
//! predicate is timed over the actual post-join pair batch, not a toy
//! table. Each site is then evaluated two ways over that batch:
//!
//! * **interpreted** — the legacy `tqp_exec::expr::eval` tree walk, one
//!   recursive dispatch per node per batch (per-conjunct `eval_mask` +
//!   mask AND for filters: the pre-ExprProgram Eager path);
//! * **compiled** — the lowered flat program (`exprprog::eval_all` /
//!   `eval_conjuncts_eager`), compiled once outside the timer, with
//!   constant folding, CSE across sibling expressions, pre-compiled LIKE
//!   patterns, and the scratch-mask conjunct fold;
//! * **fused** — the same program through the kernel-specialization layer
//!   (`tqp_exec::exprfuse`): one chunked single-pass kernel per site when
//!   the shape fuses, the compiled path otherwise.
//!
//! All three must produce identical value checksums (hard failure
//! otherwise), and the process exits non-zero if fused is slower than
//! interpreted on any site over 10k rows — the CI regression gate.
//!
//! Writes `BENCH_expr.json` (format `tqp-bench-expr` v2) into the current
//! directory: one record per query with the summed per-site medians, plus
//! one record per site — timed in **nanoseconds** (tiny sites loop to a
//! minimum sample duration instead of reporting 0). Protocol: median of
//! `TQP_RUNS` runs after as many warm-ups (§2.3), at SF `TQP_SF`.
//!
//! ```bash
//! TQP_SF=0.05 TQP_RUNS=3 cargo run --release -p tqp-bench --bin expr_bench
//! ```

use tqp_bench::{fmt_ns, median_ns, runs, scale_factor, tpch_session};
use tqp_data::tpch::queries;
use tqp_exec::batch::Batch;
use tqp_exec::exprprog::{self, ExprProgram};
use tqp_exec::program::split_and;
use tqp_exec::{expr as tree, exprfuse, ExecConfig, Executor};
use tqp_ir::expr::BoundExpr;
use tqp_ir::physical::PhysicalPlan;
use tqp_ir::{compile_sql, PhysicalOptions};
use tqp_json::Json;
use tqp_ml::ModelRegistry;
use tqp_profile::Profiler;
use tqp_tensor::ops;

/// One expression site: what kind it is, its source trees, and the real
/// input batch it evaluates over.
struct Site {
    label: String,
    is_filter: bool,
    exprs: Vec<BoundExpr>,
    input: Batch,
}

/// Collect every expression site of a plan, materializing each site's
/// input by executing its input sub-plan (Eager, workers = 1).
fn collect_sites(plan: &PhysicalPlan, session: &tqp_core::Session, out: &mut Vec<Site>) {
    let mut push = |label: &str, is_filter: bool, exprs: Vec<BoundExpr>, input: &PhysicalPlan| {
        if exprs.is_empty() {
            return;
        }
        let cfg = ExecConfig {
            workers: 1,
            ..Default::default()
        };
        let (frame, _) = Executor::compile(input, cfg).run(
            session.storage(),
            session.models(),
            &Profiler::disabled(),
        );
        let table = tqp_data::ingest::frame_to_tensors(&frame);
        out.push(Site {
            label: label.to_string(),
            is_filter,
            exprs,
            input: Batch::new(table.tensors),
        });
    };
    match plan {
        PhysicalPlan::Filter { input, predicate } => {
            let mut conjuncts = Vec::new();
            split_and(predicate.clone(), &mut conjuncts);
            push("filter", true, conjuncts, input);
        }
        PhysicalPlan::Project { input, exprs, .. } => {
            push("project", false, exprs.clone(), input);
        }
        PhysicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            ..
        } => {
            let mut exprs = group_by.clone();
            exprs.extend(aggs.iter().filter_map(|a| a.arg.clone()));
            push("agg_inputs", false, exprs, input);
        }
        PhysicalPlan::Sort { input, keys } => {
            push(
                "sort_keys",
                false,
                keys.iter().map(|k| k.expr.clone()).collect(),
                input,
            );
        }
        _ => {}
    }
    for child in plan_children(plan) {
        collect_sites(child, session, out);
    }
}

fn plan_children(plan: &PhysicalPlan) -> Vec<&PhysicalPlan> {
    match plan {
        PhysicalPlan::Scan { .. } => vec![],
        PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::Project { input, .. }
        | PhysicalPlan::Aggregate { input, .. }
        | PhysicalPlan::Sort { input, .. }
        | PhysicalPlan::Limit { input, .. } => vec![input],
        PhysicalPlan::Join { left, right, .. } | PhysicalPlan::CrossJoin { left, right } => {
            vec![left, right]
        }
    }
}

/// Order-sensitive FNV fold over a tensor's values (and a validity mask's
/// bits) — the checksum the parity guard compares, so compiled and
/// interpreted evaluation are provably computing the same *values*, not
/// just the same shapes.
///
/// The fold runs four independent FNV lanes, round-robin over the value
/// sequence, and digests them into `h` at the end: a single lane is a
/// serial multiply chain latency-bound at ~4 cycles per element, which on
/// a 299k-row mask adds ~0.4 ms of constant overhead to *every* timed
/// call and drowns the kernel time being measured. Bool masks additionally
/// pack eight 0/1 bytes per mixed word. Still a fixed deterministic
/// function of the value sequence, so cross-path parity is untouched.
fn tensor_checksum(h: &mut u64, t: &tqp_tensor::Tensor) {
    const P: u64 = 0x0000_0100_0000_01b3;
    let mut lanes = [*h, !*h, h.rotate_left(17), h.rotate_left(41)];
    let mut k = 0usize;
    let mut mix = |v: u64| {
        lanes[k & 3] = (lanes[k & 3] ^ v).wrapping_mul(P);
        k += 1;
    };
    match t.dtype() {
        tqp_tensor::DType::I64 => t.as_i64().iter().for_each(|&x| mix(x as u64)),
        tqp_tensor::DType::I32 => t.as_i32().iter().for_each(|&x| mix(x as i64 as u64)),
        tqp_tensor::DType::F64 => t.as_f64().iter().for_each(|&x| mix(x.to_bits())),
        tqp_tensor::DType::F32 => t.as_f32().iter().for_each(|&x| mix(x.to_bits() as u64)),
        tqp_tensor::DType::Bool => {
            let bs = t.as_bool();
            let mut words = bs.chunks_exact(8);
            for w in &mut words {
                // `bool` is a single 0/1 byte, so eight of them read as
                // one little-endian word losslessly.
                let mut b = [0u8; 8];
                for (dst, &src) in b.iter_mut().zip(w) {
                    *dst = src as u8;
                }
                mix(u64::from_le_bytes(b));
            }
            let rem = words.remainder();
            if !rem.is_empty() {
                let mut w = 0u64;
                for (i, &b) in rem.iter().enumerate() {
                    w |= (b as u64) << (8 * i);
                }
                mix(w);
            }
        }
        tqp_tensor::DType::U8 => {
            for i in 0..t.nrows() {
                t.str_row_trimmed(i).iter().for_each(|&b| mix(b as u64));
            }
        }
    }
    for l in lanes {
        *h = (*h ^ l).wrapping_mul(P);
    }
}

fn evaled_checksum(outs: &[(tqp_tensor::Tensor, Option<tqp_tensor::Tensor>)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (v, validity) in outs {
        tensor_checksum(&mut h, v);
        if let Some(m) = validity {
            tensor_checksum(&mut h, m);
        }
    }
    h
}

/// Evaluate one site the pre-refactor way: recursive tree walk per batch.
fn run_interpreted(site: &Site, models: &ModelRegistry) -> u64 {
    if site.is_filter {
        let mut acc: Option<tqp_tensor::Tensor> = None;
        for c in &site.exprs {
            let mask = tree::eval_mask(c, &site.input, models);
            acc = Some(match acc {
                Some(prev) => ops::and(&prev, &mask),
                None => mask,
            });
        }
        // Checksum the mask itself, not its popcount: the guard must
        // catch the two paths keeping *different* rows in equal number.
        acc.map_or(0, |m| {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            tensor_checksum(&mut h, &m);
            h
        })
    } else {
        let outs: Vec<_> = site
            .exprs
            .iter()
            .map(|e| tree::eval(e, &site.input, models))
            .collect();
        evaled_checksum(&outs)
    }
}

/// Evaluate one site through its compiled program.
fn run_compiled(site: &Site, prog: &ExprProgram, models: &ModelRegistry) -> u64 {
    if site.is_filter {
        let mask = exprprog::eval_conjuncts_eager(prog, &site.input, models);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        tensor_checksum(&mut h, &mask);
        h
    } else {
        evaled_checksum(&exprprog::eval_all(prog, &site.input, models))
    }
}

/// Evaluate one site through the kernel-specialization layer (falls back
/// to the compiled path when the program shape doesn't fuse).
fn run_fused(site: &Site, prog: &ExprProgram, models: &ModelRegistry) -> u64 {
    if site.is_filter {
        let mask = exprfuse::conjunct_mask(prog, &site.input, models);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        tensor_checksum(&mut h, &mask);
        h
    } else {
        evaled_checksum(&exprfuse::eval_all(prog, &site.input, models))
    }
}

fn main() {
    let session = tpch_session();
    let models = ModelRegistry::new();
    println!(
        "expr_bench: SF {}, {} run(s) — interpreted vs compiled vs fused ExprProgram",
        scale_factor(),
        runs()
    );
    println!(
        "\n  {:<5} {:>6} {:>9} {:>13} {:>13} {:>13} {:>9} {:>9}",
        "query", "sites", "expr ops", "interpreted", "compiled", "fused", "comp x", "fused x"
    );

    let mut results: Vec<Json> = Vec::new();
    let mut all_compiled_no_slower = true;
    // Sites > 10k rows where the fused path lost to the interpreter: the
    // CI regression gate (exit 1 below).
    let mut fused_regressions: Vec<String> = Vec::new();
    for qn in [1usize, 6, 19] {
        let sql = queries::all()
            .into_iter()
            .find(|(n, _)| *n == qn)
            .map(|(_, s)| s)
            .expect("query exists");
        let plan = compile_sql(sql, session.catalog(), &PhysicalOptions::default())
            .unwrap_or_else(|e| panic!("Q{qn} compile: {e}"));
        let mut sites = Vec::new();
        collect_sites(&plan, &session, &mut sites);
        let programs: Vec<ExprProgram> = sites
            .iter()
            .map(|s| exprprog::compile_exprs(&s.exprs))
            .collect();
        // Parity guard: the bench must never time computations that
        // disagree — the value checksums of all three paths must match
        // per site (a hard failure, also the CI parity gate).
        for (site, prog) in sites.iter().zip(&programs) {
            let interp = run_interpreted(site, &models);
            assert_eq!(
                interp,
                run_compiled(site, prog, &models),
                "Q{qn} {}: compiled/interpreted checksum diverged",
                site.label
            );
            assert_eq!(
                interp,
                run_fused(site, prog, &models),
                "Q{qn} {}: fused/interpreted checksum diverged",
                site.label
            );
        }

        let mut interp_total = 0u64;
        let mut compiled_total = 0u64;
        let mut fused_total = 0u64;
        let mut expr_ops = 0usize;
        for (site, prog) in sites.iter().zip(&programs) {
            let interp_ns = median_ns(|| {
                std::hint::black_box(run_interpreted(site, &models));
            });
            let comp_ns = median_ns(|| {
                std::hint::black_box(run_compiled(site, prog, &models));
            });
            let fused_ns = median_ns(|| {
                std::hint::black_box(run_fused(site, prog, &models));
            });
            interp_total += interp_ns;
            compiled_total += comp_ns;
            fused_total += fused_ns;
            expr_ops += prog.ops.len();
            // Gate with a 25% noise margin: sites the specializer cannot
            // improve (a single compare, e.g. the Q1 filter) legitimately
            // hover at ~1.0x, and shared-runner timing jitter would make
            // a strict `>` flake. A real regression — the fast path
            // silently disabled, a canonicalization bug forcing the
            // chunked fallback — shows up as 1.5x+ and is still caught.
            if site.input.nrows() > 10_000 && fused_ns * 4 > interp_ns * 5 {
                fused_regressions.push(format!(
                    "Q{qn} {} ({} rows): fused {} ns > 1.25x interpreted {} ns",
                    site.label,
                    site.input.nrows(),
                    fused_ns,
                    interp_ns
                ));
            }
            results.push(Json::obj(vec![
                ("query", Json::I64(qn as i64)),
                ("site", Json::str(site.label.as_str())),
                ("exprs", Json::I64(site.exprs.len() as i64)),
                ("expr_ops", Json::I64(prog.ops.len() as i64)),
                ("rows", Json::I64(site.input.nrows() as i64)),
                ("interpreted_ns", Json::I64(interp_ns as i64)),
                ("compiled_ns", Json::I64(comp_ns as i64)),
                ("fused_ns", Json::I64(fused_ns as i64)),
                (
                    "speedup_compiled",
                    Json::F64(interp_ns as f64 / comp_ns.max(1) as f64),
                ),
                (
                    "speedup_fused",
                    Json::F64(interp_ns as f64 / fused_ns.max(1) as f64),
                ),
            ]));
        }
        let speedup = interp_total as f64 / compiled_total.max(1) as f64;
        let fused_speedup = interp_total as f64 / fused_total.max(1) as f64;
        if compiled_total > interp_total {
            all_compiled_no_slower = false;
        }
        println!(
            "  Q{qn:<4} {:>6} {:>9} {:>13} {:>13} {:>13} {:>8.2}x {:>8.2}x",
            sites.len(),
            expr_ops,
            fmt_ns(interp_total),
            fmt_ns(compiled_total),
            fmt_ns(fused_total),
            speedup,
            fused_speedup
        );
        results.push(Json::obj(vec![
            ("query", Json::I64(qn as i64)),
            ("site", Json::str("total")),
            ("interpreted_ns", Json::I64(interp_total as i64)),
            ("compiled_ns", Json::I64(compiled_total as i64)),
            ("fused_ns", Json::I64(fused_total as i64)),
            (
                "speedup_compiled",
                Json::F64(interp_total as f64 / compiled_total.max(1) as f64),
            ),
            (
                "speedup_fused",
                Json::F64(interp_total as f64 / fused_total.max(1) as f64),
            ),
        ]));
    }

    let doc = Json::obj(vec![
        ("format", Json::str("tqp-bench-expr")),
        ("version", Json::I64(2)),
        ("scale_factor", Json::F64(scale_factor())),
        ("runs", Json::I64(runs() as i64)),
        ("results", Json::Arr(results)),
    ]);
    std::fs::write("BENCH_expr.json", doc.to_string()).expect("write BENCH_expr.json");
    println!("\nwrote BENCH_expr.json");
    let fstats = exprfuse::stats();
    println!(
        "fusion stats: {} expr ops fused, {} kernel-cache executions",
        fstats.ops_fused, fstats.kernels_hit
    );
    if !all_compiled_no_slower {
        println!(
            "warning: compiled expression execution was slower than interpreted on some query"
        );
    }
    if !fused_regressions.is_empty() {
        eprintln!("fused path slower than interpreted on sites over 10k rows:");
        for r in &fused_regressions {
            eprintln!("  {r}");
        }
        std::process::exit(1);
    }
}

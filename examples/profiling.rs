//! Scenario 1 (paper §3.1): DS-tool integration — run a TPC-H query with
//! the profiler active, inspect the operator runtime breakdown (Figure 2),
//! and export a Chrome/Perfetto trace plus the executor graph.
//!
//! ```bash
//! TQP_SF=0.05 cargo run --release --example profiling
//! ```

mod common;

use tqp_repro::core::QueryConfig;
use tqp_repro::data::tpch::queries;

fn main() {
    // Steps (1)-(2) of the scenario: import the library, ingest lineitem
    // (the whole TPC-H instance here) as DataFrames.
    let session = common::tpch_session();

    // Step (3): compile and execute the selected query.
    let sql = queries::query(6);
    let q = session
        .compile(sql, QueryConfig::default())
        .expect("compiles");
    let (out, _) = q.run(&session).expect("runs");
    println!("Q6 revenue = {}\n", out.column(0).display(0));

    // Step (4): re-execute with the profiler activated — a traced run —
    // and investigate the runtime breakdown (the Figure 2 view).
    let traced = session
        .compile(sql, QueryConfig::default().trace(true))
        .expect("compiles");
    let (_, stats, trace) = traced.run_traced(&session).expect("runs");
    let trace = trace.expect("a traced run returns its trace");
    println!(
        "operator runtime breakdown (total {} us):\n\n{}",
        stats.wall_us,
        trace.breakdown(10)
    );

    std::fs::create_dir_all("target").ok();
    std::fs::write("target/profiling_trace.json", trace.chrome_trace()).expect("write trace");
    println!("trace:          target/profiling_trace.json (open in chrome://tracing)");
    let dot = q.to_dot("TPC-H Q6 executor");
    std::fs::write("target/profiling_executor.dot", &dot).expect("write dot");
    println!("executor graph: target/profiling_executor.dot");
}

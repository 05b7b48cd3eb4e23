//! **Figure 2** — Runtime breakdown of the top operators for TPC-H Q6
//! (the TensorBoard/PyTorch-Profiler view of Scenario 1).
//!
//! Prints the per-operator self-time table and writes a Chrome-trace JSON
//! (`target/figure2_trace.json`) that loads in `chrome://tracing` /
//! Perfetto — the same artifact class TensorBoard renders in the paper.
//!
//! ```bash
//! TQP_SF=0.1 cargo run --release --example figure2
//! ```

mod common;

use tqp_repro::core::QueryConfig;
use tqp_repro::data::tpch::queries;
use tqp_repro::exec::Backend;

fn main() {
    let session = common::tpch_session();
    let sql = queries::query(6);
    let q = session
        .compile(
            sql,
            QueryConfig::default().backend(Backend::Eager).trace(true),
        )
        .unwrap();

    // Warm up once (allocator, page faults), then keep a clean run's trace.
    let _ = q.run(&session).unwrap();
    let (out, stats, trace) = q.run_traced(&session).unwrap();
    let trace = trace.expect("a traced run returns its trace");

    println!(
        "Figure 2: operator runtime breakdown, TPC-H Q6 @ SF {} (total {})",
        common::scale_factor(),
        common::fmt_ms(stats.wall_us)
    );
    println!("revenue = {}", out.column(0).display(0));
    println!();
    println!("{}", trace.breakdown(10));

    let chrome = trace.chrome_trace();
    let path = std::path::Path::new("target/figure2_trace.json");
    std::fs::create_dir_all("target").ok();
    std::fs::write(path, &chrome).expect("write trace");
    println!(
        "chrome trace written to {} ({} bytes)",
        path.display(),
        chrome.len()
    );
}

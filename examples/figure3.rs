//! **Figure 3** — TPC-H Q6 compiled once per backend/device combination;
//! switching targets is a one-line configuration change. All combinations
//! must return the identical result (the demo's point in §3.2 step 5).
//! Eager trails Fused and Graph on CPU because it runs every expression
//! op-at-a-time, while they bind specialized kernels once per program.
//!
//! ```bash
//! TQP_SF=0.1 TQP_RUNS=5 cargo run --release --example figure3
//! ```

mod common;

use common::{fmt_ms, median_us, tpch_session};
use tqp_repro::core::QueryConfig;
use tqp_repro::data::tpch::queries;
use tqp_repro::exec::{Backend, Device};

fn main() {
    let session = tpch_session();
    let sql = queries::query(6);
    println!(
        "Figure 3: one-line backend/device switching, TPC-H Q6 @ SF {}",
        common::scale_factor()
    );
    println!(
        "\n  {:<10} {:<8} {:>12} {:>12} {:>14} {:>10}",
        "backend", "device", "compile", "execute", "revenue", "artifact"
    );
    let mut reference: Option<String> = None;
    for backend in [
        Backend::Eager,
        Backend::Fused,
        Backend::Graph,
        Backend::Wasm,
    ] {
        for device in [Device::Cpu, Device::GpuSim] {
            // The Wasm backend models a browser: no CUDA there (the paper's
            // footnote 2 — WebGL fallback is CPU anyway).
            if backend == Backend::Wasm && device == Device::GpuSim {
                continue;
            }
            let cfg = QueryConfig::default().backend(backend).device(device);
            let t0 = std::time::Instant::now();
            let q = session.compile(sql, cfg).unwrap();
            let compile_us = t0.elapsed().as_micros() as u64;
            let exec_us = median_us(|| {
                let (_, stats) = q.run(&session).unwrap();
                stats.modeled_us
            });
            let (out, _) = q.run(&session).unwrap();
            let revenue = out.column(0).display(0);
            match &reference {
                None => reference = Some(revenue.clone()),
                Some(r) => assert_eq!(*r, revenue, "backend disagreement!"),
            }
            let artifact = q
                .artifact_size()
                .map(|b| format!("{:.1} KB", b as f64 / 1024.0))
                .unwrap_or_else(|| "-".into());
            println!(
                "  {:<10} {:<8} {:>12} {:>12} {:>14} {:>10}",
                format!("{backend:?}"),
                format!("{device:?}"),
                fmt_ms(compile_us),
                fmt_ms(exec_us),
                revenue,
                artifact
            );
        }
    }
    println!("\nall configurations produced the same result ✓");
}

//! Scenario 2 (paper §3.2): compile TPC-H Q6 once per backend/hardware
//! target — CPU, simulated GPU, the portable Graph artifact, and the
//! browser-style Wasm VM — "switching between different backends and
//! hardware devices in TQP only needs one line of code change" (Figure 3).
//!
//! ```bash
//! cargo run --release --example multi_backend
//! ```

use tqp_repro::core::{QueryConfig, Session};
use tqp_repro::data::tpch::{queries, TpchConfig, TpchData};
use tqp_repro::exec::{Backend, Device};

fn main() {
    let mut session = Session::new();
    session.register_tpch(&TpchData::generate(&TpchConfig {
        scale_factor: 0.05,
        seed: 42,
    }));
    let sql = queries::query(6);
    println!("TPC-H Q6:\n{sql}\n");

    // Every backend below executes this one lowered tensor program.
    let compiled = session
        .compile(sql, QueryConfig::default())
        .expect("compiles");
    println!("lowered tensor program:\n{}", compiled.explain_program());

    // The paper's Figure 3: each target is one line of configuration.
    let targets = [
        ("CPU / eager", QueryConfig::default()),
        (
            "CPU / fused (torch.jit)",
            QueryConfig::default().backend(Backend::Fused),
        ),
        (
            "GPU (simulated)",
            QueryConfig::default().device(Device::GpuSim),
        ),
        (
            "Graph artifact (ONNX)",
            QueryConfig::default().backend(Backend::Graph),
        ),
        (
            "Browser (Wasm-sim, 1 worker)",
            QueryConfig::default().backend(Backend::Wasm),
        ),
    ];

    let mut reference: Option<String> = None;
    for (label, cfg) in targets {
        let q = session.compile(sql, cfg).expect("compiles");
        let (out, stats) = q.run(&session).expect("runs");
        let revenue = out.column(0).display(0);
        // "...show how all of them generate the same correct result."
        match &reference {
            None => reference = Some(revenue.clone()),
            Some(r) => assert_eq!(*r, revenue, "{label} disagrees"),
        }
        let time = match stats.modeled_us {
            Some(us) => format!("{us:>8} us (modeled)"),
            None => format!("{:>8} us", stats.wall_us),
        };
        let artifact = q
            .artifact_size()
            .map(|b| format!("  [artifact {b} bytes]"))
            .unwrap_or_default();
        println!("{label:<26} revenue={revenue:<14} {time}{artifact}");
    }
    println!("\nall backends agree ✓");
}

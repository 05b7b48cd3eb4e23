//! **Figure 1** — Query execution times for TPC-H Q6 and Q14 on Spark
//! (row baseline), and TQP on CPU, GPU (simulated) and web browser
//! (Wasm-sim), plus the §1 headline BlazingSQL comparison
//! (per-operator-transfer GPU vs TQP's resident GPU).
//!
//! Expected shape (the paper's): TQP-CPU ≳3× over the row engine, the
//! simulated GPU fastest with a larger win on Q6 than Q14, the web backend
//! slowest by a wide margin, and resident-GPU ≥4× over per-op-transfer GPU.
//!
//! ```bash
//! TQP_SF=0.1 TQP_RUNS=5 cargo run --release --example figure1
//! ```

mod common;

use common::{fmt_ms, median_us, print_row, tpch_session};
use tqp_repro::core::QueryConfig;
use tqp_repro::data::tpch::queries;
use tqp_repro::exec::{Backend, Device, GpuStrategy};

fn main() {
    let session = tpch_session();
    println!(
        "Figure 1: TPC-H Q6/Q14 execution time (SF {}, median of {} runs)",
        common::scale_factor(),
        common::runs()
    );
    for qn in [6usize, 14] {
        let sql = queries::query(qn);
        println!("\nTPC-H Q{qn}");

        // Spark stand-in: row-Volcano engine.
        let spark = median_us(|| {
            let _ = session.sql_baseline(sql).unwrap();
            None
        });
        println!(
            "  {:<34} {:>12}",
            "Spark-sim (row Volcano, CPU)",
            fmt_ms(spark)
        );

        // TQP on CPU (eager tensor kernels; the fused backend is within
        // noise of it on small hosts — `figure3` times every backend).
        let cpu_q = session
            .compile(sql, QueryConfig::default().backend(Backend::Eager))
            .unwrap();
        let cpu = median_us(|| {
            let _ = cpu_q.run(&session).unwrap();
            None
        });
        print_row("TQP-CPU (tensor kernels)", cpu, spark);

        // TQP on the simulated GPU (resident data, modeled time).
        let gpu_q = session
            .compile(sql, QueryConfig::default().device(Device::GpuSim))
            .unwrap();
        let gpu = median_us(|| {
            let (_, stats) = gpu_q.run(&session).unwrap();
            stats.gpu_modeled_us
        });
        print_row("TQP-GPU (simulated, resident)", gpu, spark);

        // BlazingSQL stand-in: same cost model, per-operator transfers.
        let blz_q = session
            .compile(
                sql,
                QueryConfig::default()
                    .device(Device::GpuSim)
                    .gpu_strategy(GpuStrategy::PerOpTransfer),
            )
            .unwrap();
        let blz = median_us(|| {
            let (_, stats) = blz_q.run(&session).unwrap();
            stats.gpu_modeled_us
        });
        print_row("BlazingSQL-sim (per-op transfer)", blz, spark);

        // Web backend (scalar WASM-sim VM; real wall-clock).
        let web_q = session
            .compile(sql, QueryConfig::default().backend(Backend::Wasm))
            .unwrap();
        let web = median_us(|| {
            let _ = web_q.run(&session).unwrap();
            None
        });
        print_row("TQP-Web (Wasm-sim scalar VM)", web, spark);

        println!("  -- shape checks --");
        println!(
            "  TQP-CPU speedup over Spark-sim : {:>5.1}x (paper: ~3x)",
            spark as f64 / cpu as f64
        );
        println!(
            "  TQP-GPU speedup over Spark-sim : {:>5.1}x (paper Q6: ~20x, Q14: ~6x)",
            spark as f64 / gpu as f64
        );
        println!(
            "  resident vs per-op GPU         : {:>5.1}x (paper: >4x vs BlazingSQL)",
            blz as f64 / gpu as f64
        );
        println!(
            "  web slowdown vs Spark-sim      : {:>5.1}x slower (paper: 'quite slow')",
            web as f64 / spark as f64
        );
    }
}

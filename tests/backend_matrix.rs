//! Exhaustive configuration matrix: every backend × device must agree on
//! representative queries. This is the full cross-product behind the
//! paper's "all of them generate the same correct result" (§3.2) — 8
//! configurations per query, each at workers 1, 2 and 4. Every backend
//! matches the row engine at printed precision, and the simulated GPU,
//! which runs the CPU's route and only prices it differently, matches the
//! CPU run bit for bit.

use tqp_repro::core::{QueryConfig, Session};
use tqp_repro::data::tpch::{queries, TpchConfig, TpchData};
use tqp_repro::data::DataFrame;
use tqp_repro::exec::{Backend, Device, GpuStrategy};
use tqp_tensor::Scalar;

/// The frame's rows with floats as their bit patterns.
fn exact(frame: &DataFrame) -> Vec<Vec<String>> {
    (0..frame.nrows())
        .map(|i| {
            frame
                .row(i)
                .into_iter()
                .map(|s| match s {
                    Scalar::F64(v) => format!("f64:{:016x}", v.to_bits()),
                    other => format!("{other:?}"),
                })
                .collect()
        })
        .collect()
}

/// The frame's rows sorted, floats at four decimals: the row engine sums
/// in another order.
fn canon(frame: &DataFrame) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = (0..frame.nrows())
        .map(|i| {
            frame
                .row(i)
                .into_iter()
                .map(|s| match s {
                    Scalar::F64(v) => format!("{:.4}", v),
                    other => other.to_string(),
                })
                .collect()
        })
        .collect();
    rows.sort();
    rows
}

#[test]
fn all_8_configurations_agree() {
    let data = TpchData::generate(&TpchConfig {
        scale_factor: 0.005,
        seed: 77,
    });
    let mut session = Session::new();
    session.register_tpch(&data);

    // Q6 (filter+agg), Q3 (join+group+limit), Q13 (left join + double agg).
    for qn in [6usize, 3, 13] {
        let sql = queries::query(qn);
        let reference = session.sql_baseline(sql).unwrap();
        let expect = canon(&reference);
        let mut configs = 0;
        for backend in [
            Backend::Eager,
            Backend::Fused,
            Backend::Graph,
            Backend::Wasm,
        ] {
            for workers in [1usize, 2, 4] {
                let mut cpu = None;
                for device in [Device::Cpu, Device::GpuSim] {
                    let cfg = QueryConfig::default()
                        .backend(backend)
                        .device(device)
                        .gpu_strategy(GpuStrategy::Resident)
                        .workers(workers);
                    let ctx = format!("Q{qn} under {backend:?}/{device:?} workers={workers}");
                    let q = session.compile(sql, cfg).unwrap();
                    let (out, stats) = q.run(&session).unwrap();
                    match &cpu {
                        None => {
                            assert_eq!(canon(&out), expect, "{ctx}: differs from the row engine");
                            cpu = Some(exact(&out));
                        }
                        Some(cpu) => {
                            assert_eq!(&exact(&out), cpu, "{ctx}: differs from the CPU frame")
                        }
                    }
                    if device == Device::GpuSim || backend == Backend::Wasm {
                        assert!(
                            stats.modeled_us.unwrap_or(0) > 0,
                            "{ctx}: GPU and Wasm runs must report modeled time"
                        );
                    }
                    configs += 1;
                }
            }
        }
        assert_eq!(configs, 8 * 3);
    }
}

//! Exhaustive configuration matrix: every backend × device must agree on
//! representative queries. This is the full cross-product behind the
//! paper's "all of them generate the same correct result" (§3.2) — 8
//! configurations per query.

use tqp_repro::core::{QueryConfig, Session};
use tqp_repro::data::tpch::{queries, TpchConfig, TpchData};
use tqp_repro::data::DataFrame;
use tqp_repro::exec::{Backend, Device, GpuStrategy};
use tqp_tensor::Scalar;

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
            for device in [Device::Cpu, Device::GpuSim] {
                let cfg = QueryConfig::default()
                    .backend(backend)
                    .device(device)
                    .gpu_strategy(GpuStrategy::Resident);
                let q = session.compile(sql, cfg).unwrap();
                let (out, stats) = q.run(&session).unwrap();
                assert_eq!(
                    canon(&out),
                    expect,
                    "Q{qn} mismatch under {backend:?}/{device:?}"
                );
                if device == Device::GpuSim && backend != Backend::Wasm {
                    assert!(
                        stats.gpu_modeled_us.unwrap_or(0) > 0,
                        "GPU runs must report modeled time"
                    );
                }
                configs += 1;
            }
        }
        assert_eq!(configs, 8);
    }
}

//! Differential testing: every TPC-H query, tensor engine vs row oracle.
//!
//! The tensor engine runs under multiple backend × strategy combinations;
//! all must produce cell-identical results (1e-6 relative tolerance on
//! floats) to the row-Volcano oracle after canonical sorting. This is the
//! paper's central correctness claim — "all of them generate the same
//! correct result" (§3.2) — checked across the whole benchmark.

use tqp_repro::core::{QueryConfig, Session};
use tqp_repro::data::tpch::{queries, TpchConfig, TpchData};
use tqp_repro::data::DataFrame;
use tqp_repro::exec::Backend;
use tqp_repro::ir::{AggStrategy, JoinStrategy, PhysicalOptions};
use tqp_tensor::Scalar;

fn session() -> Session {
    let data = TpchData::generate(&TpchConfig {
        scale_factor: 0.01,
        seed: 20_220_901,
    });
    let mut s = Session::new();
    s.register_tpch(&data);
    s
}

/// Canonicalize a frame into sorted rows of strings for comparison.
fn canon(frame: &DataFrame) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = (0..frame.nrows())
        .map(|i| {
            frame
                .row(i)
                .into_iter()
                .map(|s| match s {
                    Scalar::F64(v) => format!("{:.4}", v),
                    Scalar::F32(v) => format!("{:.4}", v),
                    other => other.to_string(),
                })
                .collect()
        })
        .collect();
    rows.sort();
    rows
}

fn assert_frames_match(n: usize, label: &str, got: &DataFrame, expect: &DataFrame) {
    assert_eq!(got.nrows(), expect.nrows(), "Q{n} [{label}]: row count");
    assert_eq!(got.ncols(), expect.ncols(), "Q{n} [{label}]: col count");
    let g = canon(got);
    let e = canon(expect);
    for (i, (gr, er)) in g.iter().zip(&e).enumerate() {
        for (c, (gv, ev)) in gr.iter().zip(er).enumerate() {
            if gv == ev {
                continue;
            }
            // Numeric wiggle room: 1e-6 relative.
            if let (Ok(a), Ok(b)) = (gv.parse::<f64>(), ev.parse::<f64>()) {
                let tol = 1e-6 * b.abs().max(1.0);
                assert!(
                    (a - b).abs() <= tol,
                    "Q{n} [{label}] row {i} col {c}: {gv} vs {ev}"
                );
            } else {
                panic!("Q{n} [{label}] row {i} col {c}: {gv:?} vs {ev:?}");
            }
        }
    }
}

fn run_suite(backend: Backend, physical: PhysicalOptions, label: &str) {
    let s = session();
    for (n, sql) in queries::all() {
        let expect = s
            .sql_baseline(sql)
            .unwrap_or_else(|e| panic!("Q{n} oracle: {e}"));
        let q = s
            .compile(
                sql,
                QueryConfig::default().backend(backend).physical(physical),
            )
            .unwrap_or_else(|e| panic!("Q{n} compile: {e}"));
        let (got, _) = q.run(&s).unwrap_or_else(|e| panic!("Q{n} run: {e}"));
        assert_frames_match(n, label, &got, &expect);
    }
}

#[test]
fn eager_sortmerge_sortagg_matches_oracle() {
    run_suite(
        Backend::Eager,
        PhysicalOptions {
            join: Some(JoinStrategy::SortMerge),
            agg: Some(AggStrategy::Sort),
        },
        "eager/smj/sort",
    );
}

#[test]
fn eager_hash_strategies_match_oracle() {
    run_suite(
        Backend::Eager,
        PhysicalOptions {
            join: Some(JoinStrategy::Hash),
            agg: Some(AggStrategy::Hash),
        },
        "eager/hash/hash",
    );
}

#[test]
fn fused_backend_matches_oracle() {
    run_suite(
        Backend::Fused,
        PhysicalOptions {
            join: Some(JoinStrategy::SortMerge),
            agg: Some(AggStrategy::Sort),
        },
        "fused/smj/sort",
    );
}

#[test]
fn graph_backend_matches_oracle() {
    run_suite(
        Backend::Graph,
        PhysicalOptions {
            join: Some(JoinStrategy::SortMerge),
            agg: Some(AggStrategy::Sort),
        },
        "graph/smj/sort",
    );
}

#[test]
fn wasm_backend_matches_oracle() {
    run_suite(
        Backend::Wasm,
        PhysicalOptions {
            join: Some(JoinStrategy::SortMerge),
            agg: Some(AggStrategy::Sort),
        },
        "wasm/smj/sort",
    );
}

#[test]
fn mixed_strategies_match_oracle() {
    run_suite(
        Backend::Eager,
        PhysicalOptions {
            join: Some(JoinStrategy::Hash),
            agg: Some(AggStrategy::Sort),
        },
        "eager/hash/sort",
    );
}

/// A grouped string MIN/MAX whose groups hold only NULL arguments (a left
/// join that matches nothing) yields the empty string, as the row engine
/// does — on every backend, both aggregation strategies, at one and four
/// workers.
#[test]
fn all_null_group_string_minmax_matches_oracle() {
    let s = session();
    let sql = "select c_mktsegment, max(o_orderstatus) as m, min(o_totalprice) as p \
               from customer left join orders on c_custkey = o_custkey and o_totalprice < 0 \
               group by c_mktsegment";
    let expect = s.sql_baseline(sql).expect("oracle");
    assert_eq!(expect.nrows(), 5);
    for backend in [
        Backend::Eager,
        Backend::Fused,
        Backend::Graph,
        Backend::Wasm,
    ] {
        for agg in [AggStrategy::Hash, AggStrategy::Sort] {
            for workers in [1, 4] {
                let label = format!("{backend:?}/{agg:?}/w{workers}");
                let physical = PhysicalOptions {
                    join: None,
                    agg: Some(agg),
                };
                let cfg = QueryConfig::default()
                    .backend(backend)
                    .physical(physical)
                    .workers(workers);
                let q = s
                    .compile(sql, cfg)
                    .unwrap_or_else(|e| panic!("[{label}] compile: {e}"));
                let (got, _) = q.run(&s).unwrap_or_else(|e| panic!("[{label}] run: {e}"));
                assert_frames_match(0, &label, &got, &expect);
            }
        }
    }
}

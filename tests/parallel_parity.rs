//! Worker-count parity: every differential configuration must produce
//! **byte-identical** output at `workers = 1` and `workers = 4`.
//!
//! This locks in the determinism contracts of the parallel barrier ops
//! (see `ARCHITECTURE.md` "Parallel chunked execution"):
//!
//! * morsel-parallel aggregation — fixed morsel geometry with partials
//!   merged in morsel order, or key-partitioned rows folded in input
//!   order (the plan picks), so float SUM/AVG associate identically at
//!   any worker count;
//! * radix-partitioned join build — partition buckets replicate the
//!   sequential per-key row order;
//! * parallel sort — a stable permutation is unique.
//!
//! Floats compare by **bit pattern**, not tolerance: the whole point is
//! that parallelism must not perturb a single rounding decision.
//!
//! The scalar Wasm backend is single-threaded by design (`workers` has no
//! effect there), so the suite covers the three vectorized-VM backends.

use tqp_repro::core::{QueryConfig, Session};
use tqp_repro::data::tpch::{queries, TpchConfig, TpchData};
use tqp_repro::data::DataFrame;
use tqp_repro::exec::Backend;
use tqp_repro::ir::{AggStrategy, JoinStrategy, PhysicalOptions};
use tqp_tensor::Scalar;

fn session() -> Session {
    // SF 0.01 puts lineitem (~60K rows) above the default partitioned-
    // aggregation threshold (2 × 16 Ki-row morsels), so the fused and
    // standalone parallel aggregation routes genuinely engage here with
    // production geometry. (Many-morsel merges and many-morsel partitions
    // are what CI's `TQP_AGG_MORSEL_ROWS=256` leg runs this suite for —
    // the variable is read once per process, so it is set outside.)
    let data = TpchData::generate(&TpchConfig {
        scale_factor: 0.01,
        seed: 20_220_901,
    });
    let mut s = Session::new();
    s.register_tpch(&data);
    s
}

/// Render a frame with full bit fidelity: floats as their raw bit pattern.
fn exact_rows(frame: &DataFrame) -> Vec<Vec<String>> {
    (0..frame.nrows())
        .map(|i| {
            frame
                .row(i)
                .into_iter()
                .map(|s| match s {
                    Scalar::F64(v) => format!("f64:{:016x}", v.to_bits()),
                    Scalar::F32(v) => format!("f32:{:08x}", v.to_bits()),
                    other => format!("{other:?}"),
                })
                .collect()
        })
        .collect()
}

/// Run every TPC-H query at `workers = 1` and `workers = 4` and demand
/// byte-identical output.
fn run_parity(backend: Backend, physical: PhysicalOptions, label: &str) {
    let s = session();
    for (n, sql) in queries::all() {
        let mut outs = Vec::new();
        for workers in [1usize, 4] {
            let q = s
                .compile(
                    sql,
                    QueryConfig::default()
                        .backend(backend)
                        .physical(physical)
                        .workers(workers),
                )
                .unwrap_or_else(|e| panic!("Q{n} [{label}] compile: {e}"));
            let (out, _) = q
                .run(&s)
                .unwrap_or_else(|e| panic!("Q{n} [{label}] run: {e}"));
            outs.push(exact_rows(&out));
        }
        assert_eq!(
            outs[0], outs[1],
            "Q{n} [{label}]: workers = 4 not byte-identical to workers = 1"
        );
    }
}

#[test]
fn eager_sortmerge_sortagg_worker_parity() {
    run_parity(
        Backend::Eager,
        PhysicalOptions {
            join: Some(JoinStrategy::SortMerge),
            agg: Some(AggStrategy::Sort),
        },
        "eager/smj/sort",
    );
}

#[test]
fn eager_hash_strategies_worker_parity() {
    run_parity(
        Backend::Eager,
        PhysicalOptions {
            join: Some(JoinStrategy::Hash),
            agg: Some(AggStrategy::Hash),
        },
        "eager/hash/hash",
    );
}

#[test]
fn fused_sortmerge_sortagg_worker_parity() {
    run_parity(
        Backend::Fused,
        PhysicalOptions {
            join: Some(JoinStrategy::SortMerge),
            agg: Some(AggStrategy::Sort),
        },
        "fused/smj/sort",
    );
}

#[test]
fn fused_hash_strategies_worker_parity() {
    run_parity(
        Backend::Fused,
        PhysicalOptions {
            join: Some(JoinStrategy::Hash),
            agg: Some(AggStrategy::Hash),
        },
        "fused/hash/hash",
    );
}

#[test]
fn fused_planner_chosen_worker_parity() {
    run_parity(Backend::Fused, PhysicalOptions::default(), "fused/chosen");
}

#[test]
fn graph_sortmerge_sortagg_worker_parity() {
    run_parity(
        Backend::Graph,
        PhysicalOptions {
            join: Some(JoinStrategy::SortMerge),
            agg: Some(AggStrategy::Sort),
        },
        "graph/smj/sort",
    );
}

#[test]
fn graph_hash_strategies_worker_parity() {
    run_parity(
        Backend::Graph,
        PhysicalOptions {
            join: Some(JoinStrategy::Hash),
            agg: Some(AggStrategy::Hash),
        },
        "graph/hash/hash",
    );
}

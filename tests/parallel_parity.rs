//! Worker-count parity: every vectorized backend must produce
//! **byte-identical** output at `workers = 1` and `workers = 4`, on the
//! planner's plan (hash joins, hash aggregation).
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
//! `eager_fused_graph_backend_parity` adds the cross-backend leg: Eager
//! runs no specialized expression kernel, so it is the whole-query oracle
//! for the kernels Fused and Graph bind.
//!
//! A synthetic table of more than 2^20 rows adds kernel inputs past the
//! sizes where tensor kernels once split work across threads of their own
//! (`large_kernel_inputs_worker_parity`).
//!
//! Floats compare by **bit pattern**, not tolerance: the whole point is
//! that parallelism must not perturb a single rounding decision.
//!
//! The scalar Wasm backend is single-threaded by design (`workers` has no
//! effect there), so the suite covers the three vectorized-VM backends.

use tqp_repro::core::{QueryConfig, Session};
use tqp_repro::data::frame::df;
use tqp_repro::data::tpch::{queries, TpchConfig, TpchData};
use tqp_repro::data::{Column, DataFrame};
use tqp_repro::exec::Backend;
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
fn run_parity(backend: Backend, label: &str) {
    let s = session();
    for (n, sql) in queries::all() {
        let mut outs = Vec::new();
        for workers in [1usize, 4] {
            let q = s
                .compile(
                    sql,
                    QueryConfig::default().backend(backend).workers(workers),
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
fn eager_hash_strategies_worker_parity() {
    run_parity(Backend::Eager, "eager");
}

#[test]
fn fused_planner_chosen_worker_parity() {
    run_parity(Backend::Fused, "fused");
}

#[test]
fn graph_hash_strategies_worker_parity() {
    run_parity(Backend::Graph, "graph");
}

/// The whole-query oracle for the specialized expression kernels: Eager
/// binds none and runs every expression through the generic walk, Fused
/// binds them at compile time and Graph when it loads its artifact. All
/// three must agree bit for bit on every TPC-H query at `workers = 4`.
#[test]
fn eager_fused_graph_backend_parity() {
    let s = session();
    for (n, sql) in queries::all() {
        let outs: Vec<Vec<Vec<String>>> = [Backend::Eager, Backend::Fused, Backend::Graph]
            .into_iter()
            .map(|backend| {
                let q = s
                    .compile(sql, QueryConfig::default().backend(backend).workers(4))
                    .unwrap_or_else(|e| panic!("Q{n} [{backend:?}] compile: {e}"));
                let (out, _) = q
                    .run(&s)
                    .unwrap_or_else(|e| panic!("Q{n} [{backend:?}] run: {e}"));
                exact_rows(&out)
            })
            .collect();
        assert_eq!(outs[0], outs[1], "Q{n}: Fused not byte-identical to Eager");
        assert_eq!(outs[0], outs[2], "Q{n}: Graph not byte-identical to Eager");
    }
}

/// Rows at printed precision (floats to ten significant digits), for
/// comparison against the row-at-a-time baseline, which sums in another
/// order.
fn printed_rows(frame: &DataFrame) -> Vec<Vec<String>> {
    (0..frame.nrows())
        .map(|i| {
            frame
                .row(i)
                .into_iter()
                .map(|s| match s {
                    Scalar::F64(v) => format!("{v:.9e}"),
                    other => format!("{other:?}"),
                })
                .collect()
        })
        .collect()
}

/// One table of more than 2^20 rows, three shapes: a join whose output
/// gathers a padded string column (20 000 distinct names, too many to
/// dictionary-code) into a > 1 MiB matrix, an ORDER BY without LIMIT over
/// more than 32 Ki rows, and a global SUM beside COUNT(DISTINCT), which
/// reduces the whole column at once. Bitwise equal across workers 1/2/4 on
/// every vectorized backend, and equal to the baseline when printed.
#[test]
fn large_kernel_inputs_worker_parity() {
    let n: usize = (1 << 20) + 4099;
    let mut s = Session::new();
    s.register_table(
        "t",
        df(vec![
            ("id", Column::from_i64((0..n as i64).collect())),
            (
                "k",
                Column::from_i64((0..n as i64).map(|i| i * 31 % 5000).collect()),
            ),
            (
                "x",
                Column::from_f64((0..n).map(|i| (i * 7919 % 100_003) as f64 / 8.0).collect()),
            ),
            (
                "name",
                Column::from_str((0..n).map(|i| format!("n{:06}", i * 13 % 20_000)).collect()),
            ),
        ]),
    );
    s.register_table(
        "d",
        df(vec![
            ("dk", Column::from_i64((0..5000).collect())),
            (
                "label",
                Column::from_str((0..5000).map(|k| format!("L{k}")).collect()),
            ),
        ]),
    );
    let cases = [
        // 200 000 output rows × 7-byte names: a 1.4 MB gather.
        (
            "select name, label, x from t, d where k = dk and id < 200000",
            false,
        ),
        (
            "select id, name, x from t where id < 100000 order by name desc, x, id",
            true,
        ),
        ("select sum(x), count(distinct k) from t", true),
    ];
    for (sql, ordered) in cases {
        let mut expect = printed_rows(&s.sql_baseline(sql).unwrap());
        if !ordered {
            expect.sort();
        }
        for backend in [Backend::Eager, Backend::Fused, Backend::Graph] {
            let mut first: Option<Vec<Vec<String>>> = None;
            for workers in [1, 2, 4] {
                let cfg = QueryConfig::default().backend(backend).workers(workers);
                let (out, _) = s.compile(sql, cfg).unwrap().run(&s).unwrap();
                let label = format!("{backend:?} w={workers}: {sql}");
                let exact = exact_rows(&out);
                match &first {
                    None => {
                        let mut printed = printed_rows(&out);
                        if !ordered {
                            printed.sort();
                        }
                        assert!(printed == expect, "{label}: differs from the baseline");
                        first = Some(exact);
                    }
                    Some(w1) => assert!(&exact == w1, "{label}: not bit-identical to w=1"),
                }
            }
        }
    }
}

//! Concurrent serving stress: many client threads × repeated prepared
//! executions against one [`Server`], all riding the shared worker pool.
//!
//! Asserts (1) results under genuine concurrency are bitwise identical to
//! single-threaded runs — the determinism contract survives the shared
//! scheduler at any interleaving; (2) prepared-statement cache hits are
//! pointer-equal (no recompilation); (3) a `register_table` replacement
//! invalidates the cache so no stale compiled plan ever serves.

use std::sync::Arc;

use tqp_repro::core::{QueryConfig, Session};
use tqp_repro::data::frame::df;
use tqp_repro::data::{Column, DataFrame};
use tqp_repro::exec::Backend;
use tqp_repro::serve::Server;
use tqp_tensor::Scalar;

/// Rows big enough to cross the parallel-segment and partitioned-agg
/// thresholds once `TQP_AGG_MORSEL_ROWS` isn't shrunk (it isn't here), so
/// the shared pool actually gets work.
const N_ROWS: i64 = 160_000;

fn data() -> DataFrame {
    df(vec![
        ("id", Column::from_i64((0..N_ROWS).collect())),
        (
            "grp",
            Column::from_i64((0..N_ROWS).map(|i| i % 7).collect()),
        ),
        (
            "v",
            Column::from_f64(
                (0..N_ROWS)
                    .map(|i| ((i % 9973) as f64) * 1.5 - 250.0)
                    .collect(),
            ),
        ),
        (
            "tag",
            Column::from_str(
                (0..N_ROWS)
                    .map(|i| ["red", "green", "blue"][(i % 3) as usize].to_string())
                    .collect(),
            ),
        ),
    ])
}

fn server() -> Arc<Server> {
    let mut s = Session::new();
    s.register_table("t", data());
    Arc::new(Server::new(s))
}

/// Canonical row digest for bitwise comparison (exact formatting — no
/// tolerance: identical inputs through identical programs must produce
/// identical bits regardless of concurrency).
fn digest(frame: &DataFrame) -> Vec<String> {
    (0..frame.nrows())
        .map(|i| format!("{:?}", frame.row(i)))
        .collect()
}

const STATEMENTS: &[(&str, usize)] = &[
    (
        "select grp, sum(v) as s, count(*) as c from t where id % 3 = 0 group by grp order by grp",
        0,
    ),
    (
        "select id, v * 2.0 as vv from t where v > $1 and id < 5000 order by id",
        1,
    ),
    (
        "select tag, min(v) as mn, max(v) as mx from t group by tag order by tag",
        0,
    ),
];

const PARAMS: &[f64] = &[-100.0, 0.0, 333.25, 5000.0];

#[test]
fn concurrent_prepared_executions_are_bitwise_identical() {
    let srv = server();
    let cfg = QueryConfig::default().workers(4);

    // Single-threaded reference digests, one per (statement, param).
    let mut reference: Vec<Vec<Vec<String>>> = Vec::new();
    for &(sql, n_params) in STATEMENTS {
        let prepared = srv.prepare(sql, cfg).unwrap();
        let mut per_param = Vec::new();
        let values: &[f64] = if n_params == 0 { &[0.0] } else { PARAMS };
        for &p in values {
            let args: Vec<Scalar> = if n_params == 0 {
                vec![]
            } else {
                vec![Scalar::F64(p)]
            };
            let (frame, _) = srv.execute(&prepared, &args).unwrap();
            per_param.push(digest(&frame));
        }
        reference.push(per_param);
    }
    let reference = Arc::new(reference);

    // 8 client threads × 12 rounds, each executing every statement with
    // every parameter, all against the one server (cache hits share the
    // compiled statements; the pool schedules everyone's morsels).
    let threads: Vec<_> = (0..8)
        .map(|tid| {
            let srv = srv.clone();
            let reference = reference.clone();
            std::thread::spawn(move || {
                for round in 0..12 {
                    for (si, &(sql, n_params)) in STATEMENTS.iter().enumerate() {
                        let prepared = srv.prepare(sql, cfg).unwrap();
                        let values: &[f64] = if n_params == 0 { &[0.0] } else { PARAMS };
                        for (pi, &p) in values.iter().enumerate() {
                            let args: Vec<Scalar> = if n_params == 0 {
                                vec![]
                            } else {
                                vec![Scalar::F64(p)]
                            };
                            let (frame, _) = srv.execute(&prepared, &args).unwrap();
                            assert_eq!(
                                digest(&frame),
                                reference[si][pi],
                                "thread {tid} round {round} stmt {si} param {pi} diverged"
                            );
                        }
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    // Every thread after the first hit the cache: 3 statements compiled
    // once each, everything else pointer-shared.
    let stats = srv.cache_stats();
    assert_eq!(stats.misses, STATEMENTS.len() as u64, "{stats:?}");
    assert!(
        stats.hits >= 8 * 12 * STATEMENTS.len() as u64 - 3,
        "{stats:?}"
    );
}

#[test]
fn cache_hits_are_pointer_equal_across_threads() {
    let srv = server();
    let cfg = QueryConfig::default();
    let first = srv.prepare(STATEMENTS[0].0, cfg).unwrap();
    let threads: Vec<_> = (0..6)
        .map(|_| {
            let srv = srv.clone();
            let first = first.clone();
            std::thread::spawn(move || {
                let again = srv.prepare(STATEMENTS[0].0, cfg).unwrap();
                assert!(
                    again.ptr_eq(&first),
                    "cache hit handed out a different compiled statement"
                );
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
}

#[test]
fn register_table_invalidates_under_concurrent_load() {
    let srv = server();
    let cfg = QueryConfig::default().workers(2);
    let sql = "select count(*) as c, sum(v) as s from t where v > 0.0";

    let before = srv.prepare(sql, cfg).unwrap();
    let (frame, _) = srv.execute(&before, &[]).unwrap();
    let before_digest = digest(&frame);

    // Readers hammer the server while the table is replaced. Every
    // observed result must be *exactly* the old table's or the new
    // table's output — never a mix, never a stale compiled plan against
    // the new data's schema.
    let replaced = df(vec![
        ("id", Column::from_i64((0..100).collect())),
        ("grp", Column::from_i64(vec![0; 100])),
        (
            "v",
            Column::from_f64((0..100).map(|i| i as f64 + 1.0).collect()),
        ),
        (
            "tag",
            Column::from_str((0..100).map(|_| "x".to_string()).collect()),
        ),
    ]);
    let mut expect_after = Session::new();
    expect_after.register_table("t", replaced.clone());
    let after_digest = digest(&expect_after.sql(sql).unwrap());

    let writer = {
        let srv = srv.clone();
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            srv.register_table("t", replaced);
        })
    };
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let srv = srv.clone();
            let before_digest = before_digest.clone();
            let after_digest = after_digest.clone();
            std::thread::spawn(move || {
                for _ in 0..25 {
                    let (frame, _) = srv.query(sql, cfg, &[]).unwrap();
                    let d = digest(&frame);
                    assert!(
                        d == before_digest || d == after_digest,
                        "observed a result matching neither table version"
                    );
                }
            })
        })
        .collect();
    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }

    // Post-replacement prepares serve the new data, via a fresh entry.
    let after = srv.prepare(sql, cfg).unwrap();
    assert!(
        !after.ptr_eq(&before),
        "stale cache entry after replacement"
    );
    let (frame, _) = srv.execute(&after, &[]).unwrap();
    assert_eq!(digest(&frame), after_digest);
    assert!(srv.cache_stats().partial_invalidations >= 1);
}

#[test]
fn concurrency_is_backend_agnostic() {
    // The Wasm backend serves concurrently too (each execution runs on one
    // worker, but the server must interleave them safely with
    // multi-worker clients).
    let srv = server();
    let eager = QueryConfig::default().workers(2);
    let wasm = QueryConfig::default().backend(Backend::Wasm);
    let sql = "select grp, count(*) as c from t where id < 3000 group by grp order by grp";
    let ref_eager = digest(&srv.query(sql, eager, &[]).unwrap().0);
    let ref_wasm = digest(&srv.query(sql, wasm, &[]).unwrap().0);
    assert_eq!(ref_eager, ref_wasm);
    let threads: Vec<_> = (0..4)
        .map(|tid| {
            let srv = srv.clone();
            let expect = ref_eager.clone();
            std::thread::spawn(move || {
                let cfg = if tid % 2 == 0 { eager } else { wasm };
                for _ in 0..8 {
                    let (frame, _) = srv.query(sql, cfg, &[]).unwrap();
                    assert_eq!(digest(&frame), expect);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
}

//! Store-backed scan differential: a TPC-H table round-trips
//! CSV → `tqp-store` → scan with results **bitwise identical** to the
//! in-memory frame path — on all four backends, at workers 1 and 4, with
//! zone-map pruning on and off — and the pruning pre-pass actually skips
//! chunks on selective predicates (with counters to prove it).
//!
//! Two sessions are built over byte-identical data (the frame side reads
//! back the same CSV the store ingests, so CSV float formatting affects
//! both equally): one registers in-memory frames, the other registers the
//! lineitem store file. Statistics flow through the same builder on both
//! paths, so the sessions compile identical plans — which is what makes
//! bitwise (not just value-tolerant) comparison legitimate.

use std::sync::Arc;

use tqp_repro::core::{QueryConfig, Session};
use tqp_repro::data::tpch::{TpchConfig, TpchData};
use tqp_repro::data::{csv, DataFrame};
use tqp_repro::exec::Backend;
use tqp_repro::ir::{AggStrategy, JoinStrategy, PhysicalOptions};
use tqp_repro::store::{store_csv, StoredTable};

const CHUNK_ROWS: usize = 512;

/// A scratch directory of the caller's own: the tests of this binary run
/// on parallel threads and write files of the same names.
fn tmpdir() -> std::path::PathBuf {
    static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("tqp_store_diff_{}_{call}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Build the two sessions: (in-memory, store-backed). Lineitem rides the
/// store in the second session; the smaller dimension tables stay
/// in-memory in both (the differential axis is the scan path).
fn sessions() -> (Session, Session, Arc<StoredTable>) {
    let dir = tmpdir();
    let data = TpchData::generate(&TpchConfig {
        scale_factor: 0.01,
        seed: 42,
    });

    // lineitem through a CSV round-trip for BOTH sessions.
    let tables = data.tables();
    let lineitem_frame = &tables.iter().find(|(n, _)| *n == "lineitem").unwrap().1;
    let csv_path = dir.join("lineitem.csv");
    csv::write_csv(lineitem_frame, &csv_path).unwrap();
    let frame_side = csv::read_csv(lineitem_frame.schema(), &csv_path).unwrap();
    let store_path = dir.join("lineitem.tqps");
    let stored =
        Arc::new(store_csv(&csv_path, lineitem_frame.schema(), &store_path, CHUNK_ROWS).unwrap());
    assert!(
        stored.n_chunks() > 4,
        "need a multi-chunk table for a meaningful test (got {})",
        stored.n_chunks()
    );

    let mut mem = Session::new();
    let mut st = Session::new();
    for (name, frame) in data.tables() {
        if name == "lineitem" {
            continue;
        }
        mem.register_table(name, frame.clone());
        st.register_table(name, frame.clone());
    }
    mem.register_table("lineitem", frame_side);
    st.register_stored_table("lineitem", Arc::clone(&stored));
    (mem, st, stored)
}

/// Bitwise frame comparison (Debug formatting preserves every row's
/// scalar values; both sides run identical plans, so row ORDER must
/// match too).
fn assert_bitwise(a: &DataFrame, b: &DataFrame, ctx: &str) {
    assert_eq!(a.nrows(), b.nrows(), "{ctx}: row count");
    assert_eq!(a.ncols(), b.ncols(), "{ctx}: col count");
    for i in 0..a.nrows() {
        assert_eq!(
            format!("{:?}", a.row(i)),
            format!("{:?}", b.row(i)),
            "{ctx}: row {i}"
        );
    }
}

const QUERIES: &[&str] = &[
    // Q6 shape: selective date range + float predicates into a global agg.
    "select sum(l_extendedprice * l_discount) as revenue from lineitem \
     where l_shipdate >= date '1994-01-01' and l_shipdate < date '1995-01-01' \
     and l_discount between 0.05 and 0.07 and l_quantity < 24",
    // Q1 shape: group-by over nearly everything.
    "select l_returnflag, l_linestatus, sum(l_quantity) as sq, avg(l_extendedprice) as ae, \
     count(*) as c from lineitem where l_shipdate <= date '1998-09-02' \
     group by l_returnflag, l_linestatus order by l_returnflag, l_linestatus",
    // Plain scan → filter → project → sort (no aggregation).
    "select l_orderkey, l_extendedprice * (1.0 - l_discount) as net from lineitem \
     where l_quantity > 45.0 order by l_orderkey, net",
    // Equality + IN + LIKE mix (only the comparisons are zone-testable).
    "select count(*) as c from lineitem where l_returnflag = 'R' \
     and l_linestatus in ('F', 'O') and l_comment like '%the%'",
    // Join against an in-memory table: stored scan feeds a hash build/probe.
    "select o_orderpriority, count(*) as c from lineitem, orders \
     where l_orderkey = o_orderkey and l_shipdate < date '1993-06-01' \
     group by o_orderpriority order by o_orderpriority",
    // Fully-pruned scan: the date is outside every chunk's range.
    "select count(*) as c, sum(l_quantity) as s from lineitem \
     where l_shipdate < date '1901-01-01'",
];

#[test]
fn stored_scans_match_memory_bitwise_all_backends() {
    let (mem, st, _) = sessions();
    for sql in QUERIES {
        for backend in [
            Backend::Eager,
            Backend::Fused,
            Backend::Graph,
            Backend::Wasm,
        ] {
            // Planner-chosen strategies, and the sort-merge/sort-aggregate
            // pair forced (what `default()` used to mean).
            let forced = PhysicalOptions {
                join: Some(JoinStrategy::SortMerge),
                agg: Some(AggStrategy::Sort),
            };
            for physical in [PhysicalOptions::default(), forced] {
                for workers in [1usize, 4] {
                    for prune in [true, false] {
                        let cfg = QueryConfig::default()
                            .backend(backend)
                            .physical(physical)
                            .workers(workers)
                            .prune_scans(prune);
                        let ctx = format!(
                            "{backend:?} {physical:?} workers={workers} prune={prune}: {sql}"
                        );
                        let (want, _) = mem.compile(sql, cfg).unwrap().run(&mem).unwrap();
                        let (got, stats) = st.compile(sql, cfg).unwrap().run(&st).unwrap();
                        assert_bitwise(&want, &got, &ctx);
                        if !prune && backend != Backend::Wasm {
                            assert_eq!(stats.chunks_pruned, 0, "{ctx}: pruned while disabled");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn oracle_agrees_with_stored_sessions() {
    // The row-Volcano baseline materializes stored tables on demand; its
    // results must match the tensor path over the store.
    let (_, st, _) = sessions();
    let sql = QUERIES[1];
    let base = st.sql_baseline(sql).unwrap();
    let (got, _) = st
        .compile(sql, QueryConfig::default())
        .unwrap()
        .run(&st)
        .unwrap();
    assert_eq!(base.nrows(), got.nrows());
    for i in 0..base.nrows() {
        let b = base.row(i);
        let g = got.row(i);
        for (bv, gv) in b.iter().zip(&g) {
            match (bv, gv) {
                (tqp_tensor::Scalar::F64(x), tqp_tensor::Scalar::F64(y)) => {
                    assert!(
                        (x - y).abs() <= 1e-6 * x.abs().max(1.0),
                        "row {i}: {x} vs {y}"
                    )
                }
                _ => assert_eq!(format!("{bv:?}"), format!("{gv:?}"), "row {i}"),
            }
        }
    }
}

#[test]
fn selective_predicates_prune_chunks() {
    let (_, st, stored) = sessions();
    // l_orderkey is emitted in ascending order by the generator, so the
    // chunk zone maps have real locality on it; a small key band should
    // prune almost everything.
    let sql = "select count(*) as c from lineitem where l_orderkey < 100";
    let cfg = QueryConfig::default();
    let (out, stats) = st.compile(sql, cfg).unwrap().run(&st).unwrap();
    assert!(out.column(0).get(0).as_i64() > 0);
    assert!(
        stats.chunks_pruned > 0,
        "selective key predicate pruned nothing: {stats:?}"
    );
    assert_eq!(
        stats.chunks_scanned + stats.chunks_pruned,
        stored.n_chunks() as u64
    );

    // Pruning off decodes everything.
    let (out2, stats2) = st
        .compile(sql, cfg.prune_scans(false))
        .unwrap()
        .run(&st)
        .unwrap();
    assert_eq!(stats2.chunks_pruned, 0);
    assert_eq!(stats2.chunks_scanned, stored.n_chunks() as u64);
    assert_bitwise(&out, &out2, "pruned vs unpruned");

    // Impossible predicate prunes every chunk and still answers correctly.
    let (out3, stats3) = st
        .compile(
            "select count(*) as c from lineitem where l_orderkey < -5",
            cfg,
        )
        .unwrap()
        .run(&st)
        .unwrap();
    assert_eq!(out3.column(0).get(0).as_i64(), 0);
    assert_eq!(stats3.chunks_scanned, 0);
    assert_eq!(stats3.chunks_pruned, stored.n_chunks() as u64);
}

/// Strings with trailing NUL bytes are indistinguishable from their
/// trimmed forms in the padded-byte tensor representation (comparison
/// kernels trim before comparing), so zone maps must use trimmed bounds:
/// pruning on `s = 'x'` must keep chunks whose rows are `"x\0"`.
#[test]
fn trailing_nul_strings_do_not_misprune() {
    let dir = tmpdir();
    let n = 5000usize;
    let frame = tqp_repro::data::frame::df(vec![
        (
            "k",
            tqp_repro::data::Column::from_i64((0..n as i64).collect()),
        ),
        (
            "s",
            tqp_repro::data::Column::from_str(vec!["x\0".to_string(); n]),
        ),
    ]);
    let path = dir.join("nulpad.tqps");
    let stored = Arc::new(tqp_repro::store::store_frame(&frame, &path, 500).unwrap());
    let mut st = Session::new();
    st.register_stored_table("t", Arc::clone(&stored));
    let mut mem = Session::new();
    mem.register_table("t", frame);

    let sql = "select count(*) as c from t where s = 'x'";
    for prune in [true, false] {
        let cfg = QueryConfig::default().prune_scans(prune);
        let (want, _) = mem.compile(sql, cfg).unwrap().run(&mem).unwrap();
        let (got, stats) = st.compile(sql, cfg).unwrap().run(&st).unwrap();
        assert_eq!(want.column(0).get(0).as_i64(), n as i64);
        assert_bitwise(&want, &got, &format!("prune={prune}"));
        if prune {
            assert_eq!(stats.chunks_scanned, stored.n_chunks() as u64);
            assert_eq!(stats.chunks_pruned, 0, "NUL-padded rows match 'x'");
        }
    }
    // The mirror case still prunes: no row can equal 'y'.
    let (got, stats) = st
        .compile(
            "select count(*) as c from t where s = 'y'",
            QueryConfig::default(),
        )
        .unwrap()
        .run(&st)
        .unwrap();
    assert_eq!(got.column(0).get(0).as_i64(), 0);
    assert_eq!(stats.chunks_pruned, stored.n_chunks() as u64);
}

/// Adversarial float magnitudes + a clustered key: the pruned scan must
/// reproduce the in-memory fused-aggregation result bitwise at several
/// worker counts — the original-coordinate morsel geometry contract.
#[test]
fn pruned_aggregation_is_bitwise_stable_on_adversarial_floats() {
    let dir = tmpdir();
    let n = 100_000i64;
    let frame = tqp_repro::data::frame::df(vec![
        ("k", tqp_repro::data::Column::from_i64((0..n).collect())),
        (
            "grp",
            tqp_repro::data::Column::from_i64((0..n).map(|i| i % 7).collect()),
        ),
        (
            "v",
            tqp_repro::data::Column::from_f64(
                (0..n).map(|i| ((i % 9973) as f64) * 1e12 - 5e15).collect(),
            ),
        ),
    ]);
    let path = dir.join("adversarial.tqps");
    let stored = Arc::new(tqp_repro::store::store_frame(&frame, &path, 1000).unwrap());

    let mut mem = Session::new();
    mem.register_table("t", frame);
    let mut st = Session::new();
    st.register_stored_table("t", stored);

    // The filter keeps a key band → ~2/3 of chunks prune away; morsel
    // boundaries (16 Ki default) do not align with the 1000-row chunks.
    let sql = "select grp, sum(v) as s, avg(v) as a, count(*) as c from t \
               where k >= 30000 and k < 61000 and grp <> 3 \
               group by grp order by grp";
    for workers in [1usize, 2, 4, 7] {
        let cfg = QueryConfig::default().workers(workers);
        let (want, _) = mem.compile(sql, cfg).unwrap().run(&mem).unwrap();
        let (got, stats) = st.compile(sql, cfg).unwrap().run(&st).unwrap();
        assert!(
            stats.chunks_pruned > 30,
            "expected heavy pruning: {stats:?}"
        );
        assert_bitwise(&want, &got, &format!("workers={workers}"));
    }
}

/// A group-by whose groups outnumber half a morsel takes the partitioned
/// shape (both catalogs carry the NDV that says so): every group folds its
/// rows in input order inside one partition, so pruned, unpruned and
/// in-memory scans agree bitwise at every worker count although the three
/// cut the rows into different morsels.
#[test]
fn partitioned_aggregation_is_bitwise_pruned_unpruned_and_in_memory() {
    let dir = tmpdir();
    let n = 100_000i64;
    let frame = tqp_repro::data::frame::df(vec![
        ("k", tqp_repro::data::Column::from_i64((0..n).collect())),
        (
            "grp",
            tqp_repro::data::Column::from_i64((0..n).map(|i| (i * 7919) % 20_011).collect()),
        ),
        (
            "v",
            tqp_repro::data::Column::from_f64(
                (0..n).map(|i| ((i % 9973) as f64) * 1e12 - 5e15).collect(),
            ),
        ),
    ]);
    let path = dir.join("partitioned.tqps");
    let stored = Arc::new(tqp_repro::store::store_frame(&frame, &path, 1000).unwrap());

    let mut mem = Session::new();
    mem.register_table("t", frame);
    let mut st = Session::new();
    st.register_stored_table("t", stored);

    let sql = "select grp, sum(v) as s, avg(v) as a, count(*) as c, count(distinct k) as d \
               from t where k >= 30000 and k < 91000 and grp <> 3 group by grp";
    for session in [&mem, &st] {
        let plan = session.sql(&format!("explain {sql}")).unwrap();
        let text = format!("{:?}", plan.column(0));
        assert!(text.contains("HashAggregate(partitioned"), "{text}");
    }
    for workers in [1usize, 2, 4, 7] {
        let cfg = QueryConfig::default().workers(workers);
        let (want, _) = mem.compile(sql, cfg).unwrap().run(&mem).unwrap();
        let (pruned, stats) = st.compile(sql, cfg).unwrap().run(&st).unwrap();
        assert!(stats.chunks_pruned > 30, "expected pruning: {stats:?}");
        assert_bitwise(&want, &pruned, &format!("pruned, workers={workers}"));
        let (unpruned, stats) = st
            .compile(sql, cfg.prune_scans(false))
            .unwrap()
            .run(&st)
            .unwrap();
        assert_eq!(stats.chunks_pruned, 0);
        assert_bitwise(&want, &unpruned, &format!("unpruned, workers={workers}"));
    }
}

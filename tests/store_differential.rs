//! Store-backed scan differential: a TPC-H table round-trips
//! CSV → `tqp-store` → scan with results **bitwise identical** to the
//! in-memory frame path — on all four backends, at workers 1, 2 and 4, on
//! the CPU and the simulated GPU, with zone-map pruning on and off — and
//! the pruning pre-pass actually skips chunks on selective predicates
//! (with counters to prove it). In-memory tables prune their blocks too,
//! so the oracle is the **unpruned** in-memory run: the pruned in-memory
//! run and the stored run are each checked against it, and a defect the
//! two pruned paths shared could not cancel out. A chunk corrupted on
//! disk is a typed execution error, not a panic, on the engine and on the
//! row engine alike.
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
use tqp_repro::exec::{Backend, Device};
use tqp_repro::store::{store_csv, store_frame, StoredTable};
use tqp_tensor::Scalar;

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
    // Low-cardinality flags decode to codes into the footer dictionary,
    // one dictionary for every chunk, as the in-memory table codes them.
    let flag = stored.schema().index_of("l_returnflag").unwrap();
    let first = stored.decode_chunk(0, &[flag]).unwrap().remove(0).0;
    let (_, dict) = first.coded().expect("l_returnflag decodes coded");
    for c in 0..stored.n_chunks() {
        let chunk = stored.decode_chunk(c, &[flag]).unwrap().remove(0).0;
        let (_, d) = chunk
            .coded()
            .expect("every l_returnflag chunk decodes coded");
        assert!(
            Arc::ptr_eq(d, dict),
            "chunk {c} shares the table's dictionary"
        );
    }

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

/// Wasm runs on one worker, so its chunk counters must be Fused's at
/// `workers = 1`. The simulated GPU runs the CPU's route, so its frame and
/// its chunk counters must be the CPU run's.
#[test]
fn stored_scans_match_memory_bitwise_all_backends() {
    let (mem, st, _) = sessions();
    for sql in QUERIES {
        let mut fused_w1 = Vec::new();
        for backend in [
            Backend::Eager,
            Backend::Fused,
            Backend::Graph,
            Backend::Wasm,
        ] {
            for workers in [1usize, 2, 4] {
                for prune in [true, false] {
                    let mut cpu = None;
                    for device in [Device::Cpu, Device::GpuSim] {
                        let cfg = QueryConfig::default()
                            .backend(backend)
                            .device(device)
                            .workers(workers)
                            .prune_scans(prune);
                        let ctx = format!(
                            "{backend:?} {device:?} workers={workers} prune={prune}: {sql}"
                        );
                        let oracle = cfg.prune_scans(false);
                        let (want, _) = mem.compile(sql, oracle).unwrap().run(&mem).unwrap();
                        if prune {
                            let (pruned, _) = mem.compile(sql, cfg).unwrap().run(&mem).unwrap();
                            assert_bitwise(&want, &pruned, &format!("{ctx} (in-memory)"));
                        }
                        let (got, stats) = st.compile(sql, cfg).unwrap().run(&st).unwrap();
                        assert_bitwise(&want, &got, &ctx);
                        if !prune {
                            assert_eq!(stats.chunks_pruned, 0, "{ctx}: pruned while disabled");
                        }
                        let chunks = (prune, stats.chunks_scanned, stats.chunks_pruned);
                        match (device, backend) {
                            (Device::GpuSim, _) => {
                                let (cpu_chunks, cpu_frame) = cpu.as_ref().expect("CPU ran first");
                                assert_eq!(
                                    &chunks, cpu_chunks,
                                    "{ctx}: chunk counters differ from the CPU run"
                                );
                                assert_bitwise(cpu_frame, &got, &ctx);
                            }
                            (_, Backend::Fused) if workers == 1 => fused_w1.push(chunks),
                            (_, Backend::Wasm) => assert!(
                                fused_w1.contains(&chunks),
                                "{ctx}: chunk counters {chunks:?} differ from Fused at \
                                 workers=1 {fused_w1:?}"
                            ),
                            _ => {}
                        }
                        if device == Device::Cpu {
                            cpu = Some((chunks, got));
                        }
                    }
                }
            }
        }
    }
}

/// A stored table with NULLs (a validity mask on `a`) answers the same on
/// all four backends, bit for bit. The row engine cannot hold a NULL cell
/// in a frame, so `sql_baseline` refuses the table with a typed error
/// naming it instead of panicking.
#[test]
fn null_bearing_stored_table_agrees_on_all_backends() {
    use tqp_repro::data::{Column, Field, LogicalType, Schema};
    use tqp_repro::store::StoreWriter;
    let schema = Schema::new(vec![
        Field::new("a", LogicalType::Int64),
        Field::new("b", LogicalType::Float64),
    ]);
    let path = tmpdir().join("nulls.tqps");
    let mut w = StoreWriter::create(&path, &schema, 2).unwrap();
    w.append_columns(
        &[
            Column::from_i64(vec![1, 0, 2, 7]),
            Column::from_f64(vec![1.0, 2.0, 3.0, 4.0]),
        ],
        &[Some(vec![true, false, true, true]), None],
    )
    .unwrap();
    let mut s = Session::new();
    s.register_stored_table("t", Arc::new(w.finish().unwrap()));
    let sql = "select count(a), sum(b) from t";
    for backend in [
        Backend::Eager,
        Backend::Fused,
        Backend::Graph,
        Backend::Wasm,
    ] {
        let cfg = QueryConfig::default().backend(backend);
        let (out, _) = s.compile(sql, cfg).unwrap().run(&s).unwrap();
        assert_eq!(out.nrows(), 1, "{backend:?}");
        assert_eq!(
            format!("{:?}", out.row(0)),
            format!("{:?}", [Scalar::I64(3), Scalar::F64(10.0)]),
            "{backend:?}"
        );
    }
    let err = s.sql_baseline(sql).unwrap_err();
    assert!(err.is_retryable(), "{err}");
    assert!(err.to_string().contains("table t"), "{err}");
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
    let oracle = QueryConfig::default().prune_scans(false);
    let (want, _) = mem.compile(sql, oracle).unwrap().run(&mem).unwrap();
    assert_eq!(want.column(0).get(0).as_i64(), n as i64);
    for prune in [true, false] {
        let cfg = QueryConfig::default().prune_scans(prune);
        let (in_memory, stats) = mem.compile(sql, cfg).unwrap().run(&mem).unwrap();
        assert_bitwise(&want, &in_memory, &format!("in-memory, prune={prune}"));
        assert_eq!(
            stats.chunks_pruned, 0,
            "NUL-padded rows match 'x' in memory"
        );
        let (got, stats) = st.compile(sql, cfg).unwrap().run(&st).unwrap();
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
        let (want, _) = mem
            .compile(sql, cfg.prune_scans(false))
            .unwrap()
            .run(&mem)
            .unwrap();
        let (pruned, stats) = mem.compile(sql, cfg).unwrap().run(&mem).unwrap();
        assert!(
            stats.chunks_pruned > 30,
            "expected block pruning: {stats:?}"
        );
        assert_bitwise(&want, &pruned, &format!("in-memory, workers={workers}"));
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
        let (want, _) = mem
            .compile(sql, cfg.prune_scans(false))
            .unwrap()
            .run(&mem)
            .unwrap();
        let (mem_pruned, stats) = mem.compile(sql, cfg).unwrap().run(&mem).unwrap();
        assert!(
            stats.chunks_pruned > 30,
            "expected block pruning: {stats:?}"
        );
        assert_bitwise(&want, &mem_pruned, &format!("in-memory, workers={workers}"));
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

/// Corrupting 32 bytes of a registered 10-chunk file's data section makes
/// a query over it fail with a typed execution error naming the chunk, on
/// either device and on the row engine, and the session goes on
/// answering on both.
#[test]
fn corrupted_chunk_is_an_execution_error() {
    use tqp_repro::core::TqpError;
    use tqp_repro::data::{frame::df, Column};
    let frame = df(vec![("x", Column::from_i64((0..1000).collect()))]);
    let path = tmpdir().join("corrupt.tqps");
    let stored = Arc::new(store_frame(&frame, &path, 100).unwrap());
    assert_eq!(stored.n_chunks(), 10);
    let mut s = Session::new();
    s.register_stored_table("t", stored);
    s.register_table("m", frame);
    // The data section starts after the 8-byte header with chunk 0.
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8..40].fill(0xff);
    std::fs::write(&path, bytes).unwrap();

    let sql = "select sum(x) from t";
    let expect_chunk_error = |res: Result<DataFrame, TqpError>, ctx: &str| match res {
        Err(TqpError::Execution(msg)) => assert!(msg.contains("chunk 0"), "{ctx}: {msg}"),
        Err(other) => panic!("{ctx}: expected an execution error, got {other:?}"),
        Ok(_) => panic!("{ctx}: a corrupted chunk answered"),
    };
    expect_chunk_error(s.sql(sql), "Session::sql");
    for device in [Device::Cpu, Device::GpuSim] {
        for workers in [1usize, 4] {
            let cfg = QueryConfig::default().device(device).workers(workers);
            let res = s.compile(sql, cfg).unwrap().run(&s).map(|(f, _)| f);
            expect_chunk_error(res, &format!("{device:?} workers={workers}"));
        }
    }
    expect_chunk_error(s.sql_baseline(sql), "Session::sql_baseline");
    let out = s.sql("select sum(x) from m").unwrap();
    assert_eq!(format!("{:?}", out.row(0)), "[I64(499500)]");
    let out = s.sql_baseline("select sum(x) from m").unwrap();
    assert_eq!(format!("{:?}", out.row(0)), "[I64(499500)]");
}

//! Artifact round-trip differential suite: for every TPC-H query,
//! `serialize → deserialize → run` of the lowered [`TensorProgram`] must
//! be **byte-identical** to running the in-memory program directly — on
//! all four backends (vectorized eager/fused for Eager+Graph, scalar for
//! Wasm). This is the deployment guarantee behind the paper's portable
//! artifact story (§3.2): shipping the compiled program loses nothing.

use tqp_repro::core::Session;
use tqp_repro::data::tpch::{queries, TpchConfig, TpchData};
use tqp_repro::data::DataFrame;
use tqp_repro::exec::program::{deserialize_program, lower, serialize_program};
use tqp_repro::exec::{scalar, vm, ExecConfig};
use tqp_repro::ir::{compile_sql, AggStrategy, JoinStrategy, PhysicalOptions};
use tqp_repro::ml::ModelRegistry;
use tqp_repro::profile::Profiler;

fn session() -> Session {
    let data = TpchData::generate(&TpchConfig {
        scale_factor: 0.01,
        seed: 20_220_901,
    });
    let mut s = Session::new();
    s.register_tpch(&data);
    s
}

/// Exact equality — no float tolerance: identical code paths must give
/// identical bytes.
fn assert_identical(n: usize, label: &str, a: &DataFrame, b: &DataFrame) {
    assert_eq!(a.nrows(), b.nrows(), "Q{n} [{label}]: row count");
    assert_eq!(a.ncols(), b.ncols(), "Q{n} [{label}]: col count");
    for i in 0..a.nrows() {
        assert_eq!(a.row(i), b.row(i), "Q{n} [{label}]: row {i} differs");
    }
}

#[test]
fn roundtripped_artifact_is_byte_identical_on_all_backends() {
    let s = session();
    let models = ModelRegistry::new();
    let profiler = Profiler::disabled();
    for opts in [
        PhysicalOptions::default(),
        PhysicalOptions {
            join: Some(JoinStrategy::Hash),
            agg: Some(AggStrategy::Hash),
        },
    ] {
        for (n, sql) in queries::all() {
            let plan = compile_sql(sql, s.catalog(), &opts)
                .unwrap_or_else(|e| panic!("Q{n} compile: {e}"));
            let prog = lower(&plan);
            let artifact = serialize_program(&prog);
            let shipped =
                deserialize_program(&artifact).unwrap_or_else(|e| panic!("Q{n} artifact: {e}"));
            // The program itself survives structurally...
            assert_eq!(prog, shipped, "Q{n}: program changed through the artifact");

            // ...and behaviorally, on the vectorized VM in both modes
            // (Eager + Fused backends and the Graph backend's executor all
            // route through this path)...
            for fused in [false, true] {
                let cfg = ExecConfig::default();
                let (direct, _, _) =
                    vm::run_program(&prog, s.storage(), &models, &profiler, cfg, fused);
                let (via_artifact, _, _) =
                    vm::run_program(&shipped, s.storage(), &models, &profiler, cfg, fused);
                let label = if fused { "fused" } else { "eager" };
                assert_identical(n, label, &direct, &via_artifact);
            }

            // ...and on the scalar row VM (the Wasm backend's interpreter).
            let direct = scalar::run_program_scalar(&prog, s.frames(), &models);
            let via_artifact = scalar::run_program_scalar(&shipped, s.frames(), &models);
            assert_identical(n, "wasm-scalar", &direct, &via_artifact);
        }
    }
}

/// The v2 loader must reject a v1 (expression-tree) artifact with an
/// error that names both versions and says what to do — not misparse it,
/// and not fail with a generic decode error.
#[test]
fn v1_artifact_rejected_with_error_naming_both_versions() {
    use tqp_repro::data::{Field, LogicalType, Schema};
    use tqp_repro::exec::program::{ARTIFACT_FORMAT, ARTIFACT_VERSION};
    use tqp_repro::ir::{compile_sql, Catalog, PhysicalOptions};

    assert_eq!(ARTIFACT_VERSION, 2, "bump this test alongside the format");
    let mut catalog = Catalog::new();
    catalog.register(
        "t",
        Schema::new(vec![Field::new("a", LogicalType::Int64)]),
        10,
    );
    let plan = compile_sql(
        "select a from t where a > 1",
        &catalog,
        &PhysicalOptions::default(),
    )
    .unwrap();
    let artifact = serialize_program(&lower(&plan));
    let v1 = String::from_utf8(artifact.to_vec())
        .unwrap()
        .replace("\"version\":2", "\"version\":1");
    let err = deserialize_program(&bytes::Bytes::from(v1.into_bytes()))
        .expect_err("a v1 artifact must be rejected");
    let msg = err.to_string();
    assert!(
        msg.contains(ARTIFACT_FORMAT) || msg.contains("artifact"),
        "{msg}"
    );
    assert!(msg.contains("version 1"), "error must name v1: {msg}");
    assert!(msg.contains("version 2"), "error must name v2: {msg}");
    assert!(msg.to_lowercase().contains("recompile"), "{msg}");
}

/// The aggregation-shape estimate is an optional field of `grouped_reduce`
/// alone: it survives the artifact, a document without it (every artifact
/// written before the field existed) loads as the per-morsel-partials
/// shape, and on any other op it is a corrupt document.
#[test]
fn groups_estimate_rides_grouped_reduce_only() {
    use tqp_repro::exec::program::ProgOp;
    let s = session();
    let models = ModelRegistry::new();
    let profiler = Profiler::disabled();
    // Q18 groups lineitem by l_orderkey: 15 000 estimated groups.
    let plan = compile_sql(queries::query(18), s.catalog(), &PhysicalOptions::default()).unwrap();
    let prog = lower(&plan);
    let estimates = |p: &tqp_repro::exec::program::TensorProgram| -> Vec<Option<u64>> {
        p.ops
            .iter()
            .filter_map(|op| match op {
                ProgOp::GroupedReduce { groups, .. } => Some(*groups),
                _ => None,
            })
            .collect()
    };
    assert!(
        estimates(&prog)
            .iter()
            .any(|g| g.is_some_and(|g| g > 10_000)),
        "{:?}",
        estimates(&prog)
    );
    let text = String::from_utf8(serialize_program(&prog).to_vec()).unwrap();
    let load = |doc: String| deserialize_program(&bytes::Bytes::from(doc.into_bytes()));
    assert_eq!(load(text.clone()).unwrap(), prog);

    // Strip every estimate: the pre-field encoding of the same program.
    let mut old = text.clone();
    while let Some(at) = old.find(",\"groups\":") {
        let end = at + 10 + old[at + 10..].find(|c: char| !c.is_ascii_digit()).unwrap();
        old.replace_range(at..end, "");
    }
    let loaded = load(old).unwrap();
    assert!(estimates(&loaded).iter().all(Option::is_none));
    // Q18 sums integral quantities, so both shapes give the same bytes.
    let cfg = ExecConfig::default();
    let (with, _, _) = vm::run_program(&prog, s.storage(), &models, &profiler, cfg, true);
    let (without, _, _) = vm::run_program(&loaded, s.storage(), &models, &profiler, cfg, true);
    assert_identical(18, "groups stripped", &with, &without);

    // On any other op the field is rejected, not skipped.
    let tampered = text.replacen("{\"op\":\"scan\",", "{\"op\":\"scan\",\"groups\":5,", 1);
    assert_ne!(tampered, text, "tamper point not found");
    let err = load(tampered).unwrap_err().to_string();
    assert!(err.contains("groups"), "{err}");
    // ... as is an estimate that is not a count.
    let at = text.find(",\"groups\":").expect("an estimate");
    let mut negative = text.clone();
    negative.insert(at + 10, '-');
    assert!(load(negative).is_err());
}

#[test]
fn graph_backend_equals_eager_exactly() {
    // Graph = deserialize(artifact) + the same vectorized VM, so its
    // output must match Eager byte-for-byte, not just within tolerance.
    use tqp_repro::core::QueryConfig;
    use tqp_repro::exec::Backend;
    let s = session();
    for (n, sql) in queries::all() {
        let eager = s
            .compile(sql, QueryConfig::default())
            .unwrap()
            .run(&s)
            .unwrap()
            .0;
        let graph = s
            .compile(sql, QueryConfig::default().backend(Backend::Graph))
            .unwrap()
            .run(&s)
            .unwrap()
            .0;
        assert_identical(n, "graph-vs-eager", &eager, &graph);
    }
}

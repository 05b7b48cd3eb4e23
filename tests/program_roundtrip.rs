//! Artifact round-trip differential suite: for every TPC-H query,
//! `serialize → deserialize → run` of the lowered [`TensorProgram`] must
//! be **byte-identical** to running the in-memory program directly — on
//! all four backends (the VM without and with kernels for Eager, Fused
//! and Graph, and a Wasm executor, which loads its artifact at compile).
//! This is the deployment guarantee behind the paper's portable artifact
//! story (§3.2): shipping the compiled program loses nothing.

use tqp_repro::core::Session;
use tqp_repro::data::tpch::{queries, TpchConfig, TpchData};
use tqp_repro::data::DataFrame;
use tqp_repro::exec::program::{deserialize_program, lower, serialize_program, TensorProgram};
use tqp_repro::exec::{exprfuse, vm, Backend, ExecConfig, Executor};
use tqp_repro::ir::{compile_sql, PhysicalOptions};

fn session() -> Session {
    let data = TpchData::generate(&TpchConfig {
        scale_factor: 0.01,
        seed: 20_220_901,
    });
    let mut s = Session::new();
    s.register_tpch(&data);
    s
}

/// `prog` as the Fused backend runs it: kernels bound when `fused`.
fn with_kernels(prog: &TensorProgram, fused: bool) -> TensorProgram {
    let mut prog = prog.clone();
    if fused {
        exprfuse::bind_program(&mut prog);
    }
    prog
}

fn on(backend: Backend) -> ExecConfig {
    ExecConfig {
        backend,
        ..ExecConfig::default()
    }
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
    for (n, sql) in queries::all() {
        let plan = compile_sql(sql, s.catalog(), &PhysicalOptions)
            .unwrap_or_else(|e| panic!("Q{n} compile: {e}"));
        let prog = lower(&plan);
        let artifact = serialize_program(&prog);
        let shipped =
            deserialize_program(&artifact).unwrap_or_else(|e| panic!("Q{n} artifact: {e}"));
        // The program itself survives structurally...
        assert_eq!(prog, shipped, "Q{n}: program changed through the artifact");

        // ...and behaviorally, on the vectorized VM without and with
        // kernels bound (Eager + Fused backends and the Graph
        // backend's executor all route through this path)...
        for fused in [false, true] {
            let cfg = ExecConfig::default();
            let (direct, _, _) =
                vm::run_program(&with_kernels(&prog, fused), s.storage(), None, cfg);
            let (via_artifact, _, _) =
                vm::run_program(&with_kernels(&shipped, fused), s.storage(), None, cfg);
            let label = if fused { "fused" } else { "eager" };
            assert_identical(n, label, &direct, &via_artifact);
        }

        // ...and through the Wasm backend, which loads the artifact itself.
        let (direct, _, _) = vm::run_program(&prog, s.storage(), None, ExecConfig::default());
        let wasm = Executor::compile(&plan, on(Backend::Wasm), s.models()).unwrap();
        let (via_artifact, _) = wasm.run(s.storage(), &[], None).unwrap();
        assert_identical(n, "wasm", &direct, &via_artifact);
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
    let plan = compile_sql("select a from t where a > 1", &catalog, &PhysicalOptions).unwrap();
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
    // Q18 groups lineitem by l_orderkey: 15 000 estimated groups.
    let plan = compile_sql(queries::query(18), s.catalog(), &PhysicalOptions).unwrap();
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
    let (with, _, _) = vm::run_program(&prog, s.storage(), None, cfg);
    let (without, _, _) = vm::run_program(&loaded, s.storage(), None, cfg);
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
    // Graph = deserialize(artifact) + kernels + the same vectorized VM,
    // so its output must match Eager (no kernels) byte-for-byte, not just
    // within tolerance.
    use tqp_repro::core::QueryConfig;
    let s = session();
    for (n, sql) in queries::all() {
        let eager = s
            .compile(sql, QueryConfig::default().backend(Backend::Eager))
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

/// The top-k hint is an optional field of `sort` alone: it survives the
/// artifact, a document without it (every artifact written before the
/// field existed) loads as a full sort with the same result, and on any
/// other op — or as anything but a count — it is a corrupt document.
#[test]
fn limit_rides_sort_only() {
    use tqp_repro::exec::program::ProgOp;
    let s = session();
    // Q3 ends `order by revenue desc, o_orderdate limit 10`.
    let plan = compile_sql(queries::query(3), s.catalog(), &PhysicalOptions).unwrap();
    let prog = lower(&plan);
    let limits = |p: &tqp_repro::exec::program::TensorProgram| -> Vec<Option<usize>> {
        p.ops
            .iter()
            .filter_map(|op| match op {
                ProgOp::Sort { limit, .. } => Some(*limit),
                _ => None,
            })
            .collect()
    };
    assert_eq!(limits(&prog), vec![Some(10)]);
    let text = String::from_utf8(serialize_program(&prog).to_vec()).unwrap();
    let load = |doc: String| deserialize_program(&bytes::Bytes::from(doc.into_bytes()));
    assert_eq!(load(text.clone()).unwrap(), prog);

    let old = text.replace(",\"limit\":10", "");
    assert_ne!(old, text, "field not found");
    let loaded = load(old).unwrap();
    assert_eq!(limits(&loaded), vec![None]);
    for fused in [false, true] {
        let cfg = ExecConfig::default();
        let (with, _, _) = vm::run_program(&with_kernels(&prog, fused), s.storage(), None, cfg);
        let (without, _, _) =
            vm::run_program(&with_kernels(&loaded, fused), s.storage(), None, cfg);
        assert_identical(3, "limit stripped", &with, &without);
    }
    // Wasm runs the kernel-free program on one worker: the stripped
    // document gives the Wasm executor's result there too.
    let wasm = Executor::compile(&plan, on(Backend::Wasm), s.models()).unwrap();
    let (with, _) = wasm.run(s.storage(), &[], None).unwrap();
    let one_worker = ExecConfig {
        workers: 1,
        ..ExecConfig::default()
    };
    let (without, _, _) = vm::run_program(&loaded, s.storage(), None, one_worker);
    assert_identical(3, "limit stripped, wasm", &with, &without);

    let tampered = text.replacen("{\"op\":\"scan\",", "{\"op\":\"scan\",\"limit\":5,", 1);
    assert_ne!(tampered, text, "tamper point not found");
    let err = load(tampered).unwrap_err().to_string();
    assert!(err.contains("limit"), "{err}");
    assert!(load(text.replace("\"limit\":10", "\"limit\":-10")).is_err());
}

/// The evaluator is chosen once, at compile: Fused binds a kernel at every
/// fusible expression site, Graph binds the same set into the program it
/// loads from its artifact, Eager and Wasm bind none, and a
/// prepared statement's parameter-patched clones share the template's
/// kernel and give correct masks for values and NULL alike (that the NULL
/// call takes the generic walk is `exprfuse`'s
/// `null_bound_parameter_takes_the_generic_walk`).
#[test]
fn kernels_are_bound_when_the_program_is_lowered() {
    use std::sync::Arc;
    use tqp_repro::core::QueryConfig;
    use tqp_repro::data::frame::df;
    use tqp_repro::data::Column;
    use tqp_repro::exec::batch::Batch;
    use tqp_repro::exec::program::ProgOp;
    use tqp_repro::tensor::Tensor;
    use tqp_tensor::Scalar;

    let s = session();
    let bound = |p: &TensorProgram| -> Vec<bool> {
        let mut sites = Vec::new();
        p.for_each_exprprog(|e| sites.push(e.kernel.is_some()));
        sites
    };
    for n in [1, 6, 19] {
        let plan = compile_sql(queries::query(n), s.catalog(), &PhysicalOptions).unwrap();
        let compiled = |backend| {
            bound(
                Executor::compile(&plan, on(backend), s.models())
                    .unwrap()
                    .program(),
            )
        };
        // Every site of these three queries is fusible.
        let fused = compiled(Backend::Fused);
        assert!(
            !fused.is_empty() && fused.iter().all(|&b| b),
            "Q{n} Fused: {fused:?}"
        );
        let eager = compiled(Backend::Eager);
        assert!(
            eager.iter().all(|&b| !b),
            "Q{n} Eager binds a kernel: {eager:?}"
        );
        let graph = compiled(Backend::Graph);
        assert_eq!(
            graph, fused,
            "Q{n}: the Graph load binds another set than Fused"
        );
        let wasm = compiled(Backend::Wasm);
        assert!(
            wasm.iter().all(|&b| !b),
            "Q{n} Wasm binds a kernel: {wasm:?}"
        );
    }

    // A prepared `col < $1`, re-bound three times.
    let mut p = tqp_repro::core::Session::new();
    p.register_table("t", df(vec![("a", Column::from_i64((0..50).collect()))]));
    let prepared = p
        .prepare("select a from t where a < $1", QueryConfig::default())
        .unwrap();
    let filter = |prog: &TensorProgram| {
        prog.ops
            .iter()
            .find_map(|op| match op {
                ProgOp::Filter { conjuncts, .. } => Some(conjuncts.clone()),
                _ => None,
            })
            .expect("a filter")
    };
    let template = filter(prepared.program());
    let kernel = template
        .kernel
        .clone()
        .expect("the template binds a kernel");
    let batch = Batch::new(vec![Tensor::from_i64((0..50).collect())]);
    for value in [Scalar::I64(24), Scalar::I64(40), Scalar::Null] {
        let conj = filter(
            &prepared
                .program()
                .bind_params(std::slice::from_ref(&value))
                .unwrap(),
        );
        let shared = conj.kernel.as_ref().expect("the clone keeps the kernel");
        assert!(Arc::ptr_eq(shared, &kernel), "{value:?}: kernel recompiled");
        let want: Vec<bool> = (0..50)
            .map(|a| !value.is_null() && a < value.as_i64())
            .collect();
        let mask = exprfuse::conjunct_mask(&conj, &batch);
        assert_eq!(mask.as_bool(), &want[..], "{value:?}");
    }
}

/// Graph and Wasm load their artifact once, at compile: the program an
/// executor keeps is its own artifact decoded, and a traced, prepared
/// Graph statement run with three parameter values loads nothing per run
/// and gives the results of the same statement with the value spliced in.
#[test]
fn the_artifact_is_loaded_once_at_compile() {
    use tqp_repro::core::{QueryConfig, RunOptions};
    use tqp_tensor::Scalar;

    let s = session();
    for n in [3, 6, 18] {
        let plan = compile_sql(queries::query(n), s.catalog(), &PhysicalOptions).unwrap();
        for backend in [Backend::Graph, Backend::Wasm] {
            let ex = Executor::compile(&plan, on(backend), s.models()).unwrap();
            let artifact = ex.artifact().expect("Graph and Wasm keep their artifact");
            let decoded = deserialize_program(artifact).unwrap();
            assert_eq!(ex.program(), &decoded, "Q{n} {backend:?}");
        }
    }

    let sql =
        "select o_orderkey, o_totalprice from orders where o_orderkey < $1 order by o_orderkey";
    let graph = QueryConfig::default().backend(Backend::Graph);
    let prepared = s.prepare(sql, graph).unwrap();
    let traced = RunOptions {
        trace: true,
        ..RunOptions::default()
    };
    for key in [10i64, 200, 3000] {
        let (got, _, trace) = prepared
            .execute_with(&s, &[Scalar::I64(key)], &traced)
            .unwrap();
        let trace = trace.expect("the run is traced");
        assert!(!trace.spans.is_empty());
        assert!(
            trace.spans.iter().all(|sp| sp.name != "GraphLoad"),
            "a prepared Graph run loaded its artifact"
        );
        let literal = sql.replace("$1", &key.to_string());
        let (want, _) = s.compile(&literal, graph).unwrap().run(&s).unwrap();
        assert_identical(0, &format!("o_orderkey < {key}"), &want, &got);
    }
}

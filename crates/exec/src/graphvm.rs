//! The Graph ("ONNX") and Wasm ("ORT-Web") backends.
//!
//! Both execute the **serialized [`TensorProgram`] artifact** — not the
//! physical plan. The artifact (see [`crate::program::serialize_program`])
//! is versioned and self-describing: it is the reproduction's ONNX file,
//! and these entry points are the deployment story — a compiled query is
//! a portable artifact that runs without the compiler front-end.
//!
//! **Graph**: deserialize, bind the specialized expression kernels
//! ([`crate::exprfuse::bind_program`]), and run the vectorized register VM
//! ([`crate::vm`]).
//!
//! **Wasm**: the same artifact interpreted the way ORT-Web runs on a
//! browser: single-threaded, scalar (boxed values, per-row dispatch), with
//! data copied across the "sandbox" boundary (tensor → row conversion), and
//! an instruction-dilation factor approximating WASM-vs-native slowdown
//! (default ×3, spec'd from typical WASM compute benchmarks; override with
//! `TQP_WASM_DILATION`). All reported numbers are real measured wall-clock
//! of this deliberately interpretive execution — see EXPERIMENTS.md.

use bytes::Bytes;
use tqp_data::DataFrame;
use tqp_ml::ModelRegistry;
use tqp_profile::Profiler;

use crate::device::DeviceMeter;
use crate::program::{deserialize_program, TensorProgram};
use crate::{exprfuse, scalar, vm, Backend, ExecConfig, Storage};

/// Decode the artifact for `backend`, charging the load to the profiler:
/// Graph binds the expression kernels here, once per load (and so once
/// per run: every Graph run loads its artifact); Wasm binds none (its
/// row walk never reads them).
pub fn load_artifact(artifact: &Bytes, backend: Backend, profiler: &Profiler) -> TensorProgram {
    let start = profiler.now_us();
    let t0 = std::time::Instant::now();
    let mut prog = deserialize_program(artifact).expect("artifact deserializes");
    if backend == Backend::Graph {
        exprfuse::bind_program(&mut prog);
    }
    profiler.record(
        "GraphLoad",
        "compile",
        start,
        t0.elapsed().as_micros() as u64,
        0,
        artifact.len() as u64,
    );
    prog
}

/// Execute the Graph backend: load (with kernels bound) + vectorized VM.
pub fn run_graph(
    artifact: &Bytes,
    storage: &Storage,
    models: &ModelRegistry,
    profiler: &Profiler,
    cfg: ExecConfig,
) -> (DataFrame, DeviceMeter, crate::ScanStats) {
    let prog = load_artifact(artifact, Backend::Graph, profiler);
    vm::run_program(&prog, storage, models, profiler, cfg)
}

/// Execute the Wasm backend: scalar single-threaded VM over sandbox copies.
pub fn run_wasm(
    artifact: &Bytes,
    storage: &Storage,
    models: &ModelRegistry,
    profiler: &Profiler,
) -> (DataFrame, DeviceMeter, crate::ScanStats) {
    let prog = load_artifact(artifact, Backend::Wasm, profiler);
    let dilation: u32 = std::env::var("TQP_WASM_DILATION")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);

    // Sandbox boundary: copy tensors into the VM's own (row) representation.
    let start = profiler.now_us();
    let t0 = std::time::Instant::now();
    let mut tables = std::collections::HashMap::new();
    for (name, src) in storage {
        // Stored tables decode every chunk here: the sandbox boundary is
        // a whole-table copy by design (ORT-Web ships the data in).
        tables.insert(
            name.clone(),
            tqp_data::ingest::tensors_to_frame(&src.to_tensor_table()),
        );
    }
    profiler.record(
        "WasmSandboxCopy",
        "transfer",
        start,
        t0.elapsed().as_micros() as u64,
        0,
        tables.values().map(|f| f.nrows() as u64).sum(),
    );

    // Scalar interpretation, dilated to model WASM-vs-native overhead.
    // Per-op spans record on the first iteration only, so trace row
    // counts are independent of the dilation factor.
    let start = profiler.now_us();
    let t0 = std::time::Instant::now();
    let mut out = scalar::run_program_scalar_profiled(&prog, &tables, models, Some(profiler));
    for _ in 1..dilation {
        out = scalar::run_program_scalar(&prog, &tables, models);
    }
    profiler.record(
        "WasmScalarVM",
        "relational",
        start,
        t0.elapsed().as_micros() as u64,
        out.nrows() as u64,
        0,
    );
    (
        out,
        DeviceMeter::new(false, crate::GpuStrategy::Resident),
        crate::ScanStats::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{lower, serialize_program};
    use std::collections::HashMap;
    use tqp_data::frame::df;
    use tqp_data::Column;
    use tqp_ir::{compile_sql, Catalog, PhysicalOptions};

    fn setup() -> (Storage, Catalog) {
        let t = df(vec![
            ("id", Column::from_i64(vec![1, 2, 3])),
            ("v", Column::from_f64(vec![5.0, 15.0, 25.0])),
        ]);
        let mut catalog = Catalog::new();
        catalog.register("t", t.schema().clone(), t.nrows());
        let mut tables = HashMap::new();
        tables.insert("t".to_string(), t);
        (crate::ingest_tables(&tables), catalog)
    }

    #[test]
    fn artifact_roundtrip() {
        let (_, catalog) = setup();
        let plan = compile_sql(
            "select id from t where v > 10.0",
            &catalog,
            &PhysicalOptions::default(),
        )
        .unwrap();
        let prog = lower(&plan);
        let bytes = serialize_program(&prog);
        assert!(!bytes.is_empty());
        let back = deserialize_program(&bytes).unwrap();
        assert_eq!(prog, back);
    }

    #[test]
    fn graph_and_wasm_produce_same_result() {
        let (storage, catalog) = setup();
        let plan = compile_sql(
            "select id, v * 2 as vv from t where v > 10.0 order by id",
            &catalog,
            &PhysicalOptions::default(),
        )
        .unwrap();
        let bytes = serialize_program(&lower(&plan));
        let models = ModelRegistry::new();
        let profiler = Profiler::new();
        let (g, _, _) = run_graph(&bytes, &storage, &models, &profiler, ExecConfig::default());
        let (w, _, _) = run_wasm(&bytes, &storage, &models, &profiler);
        assert_eq!(g.nrows(), w.nrows());
        for i in 0..g.nrows() {
            assert_eq!(g.row(i), w.row(i));
        }
        // The profiler saw the sandbox copy + scalar VM spans.
        let names: Vec<String> = profiler.aggregate().into_iter().map(|s| s.name).collect();
        assert!(names.iter().any(|n| n == "WasmSandboxCopy"));
        assert!(names.iter().any(|n| n == "GraphLoad"));
    }
}

//! The Graph ("ONNX") and Wasm ("ORT-Web") backends.
//!
//! Both execute the **serialized [`TensorProgram`] artifact** — not the
//! physical plan. The artifact (see [`crate::program::serialize_program`])
//! is versioned and self-describing: it is the reproduction's ONNX file,
//! and these entry points are the deployment story — a compiled query is
//! a portable artifact that runs without the compiler front-end.
//!
//! **Graph**: deserialize, bind the `PREDICT` models and the specialized
//! expression kernels ([`crate::exprfuse::bind_program`]), and run the
//! vectorized register VM ([`crate::vm`]).
//!
//! **Wasm**: the same artifact loaded with no kernels bound, so every
//! expression site takes the generic walk (as on Eager), and run by the
//! same vectorized VM on one worker, the way ORT-Web runs a model in a
//! browser: single-threaded, on the CPU whatever the configured device.
//! The run repeats [`WASM_DILATION`] times, approximating WASM-vs-native
//! slowdown; spans and chunk counters come from the first pass alone.
//!
//! The artifact names its `PREDICT` models and does not carry them, so
//! every load binds the decoded program against the models the executor
//! bound at compile.

use bytes::Bytes;
use tqp_data::DataFrame;
use tqp_ml::ModelRegistry;
use tqp_obs::{TraceRecorder, TraceSpan};

use crate::device::DeviceMeter;
use crate::program::{bind_models, deserialize_program, TensorProgram};
use crate::{exprfuse, vm, Backend, Device, ExecConfig, ScanStats, Storage};

/// How many times the Wasm backend runs the program, approximating the
/// WASM-vs-native slowdown.
pub const WASM_DILATION: u32 = 3;

/// Decode the artifact for `backend` and bind its models, recording the
/// load as a `GraphLoad` span when the run is traced. Graph also binds
/// the expression kernels here, once per load (and so once per run: every
/// Graph run loads its artifact); Wasm binds none, so it runs the generic
/// walk.
pub fn load_artifact(
    artifact: &Bytes,
    models: &ModelRegistry,
    backend: Backend,
    trace: Option<&TraceRecorder>,
) -> TensorProgram {
    let t0 = std::time::Instant::now();
    let mut prog = deserialize_program(artifact).expect("artifact deserializes");
    bind_models(&mut prog, models).expect("the artifact's models were bound at compile");
    if backend == Backend::Graph {
        exprfuse::bind_program(&mut prog);
    }
    if let Some(trace) = trace {
        trace.record(TraceSpan {
            name: "GraphLoad".to_string(),
            category: "compile".to_string(),
            start_us: trace.offset_us(t0),
            dur_us: t0.elapsed().as_micros() as u64,
            rows: 0,
            bytes: artifact.len() as u64,
            chunks: 0,
        });
    }
    prog
}

/// Execute the Graph backend: load (with kernels bound) + vectorized VM.
pub fn run_graph(
    artifact: &Bytes,
    models: &ModelRegistry,
    storage: &Storage,
    trace: Option<&TraceRecorder>,
    cfg: ExecConfig,
) -> (DataFrame, DeviceMeter, ScanStats) {
    let prog = load_artifact(artifact, models, Backend::Graph, trace);
    vm::run_program(&prog, storage, trace, cfg)
}

/// Execute the Wasm backend: load (no kernels) + the vectorized VM on one
/// CPU worker, [`WASM_DILATION`] times. Only the first pass reports spans;
/// its result, meter and chunk counters are the run's.
pub fn run_wasm(
    artifact: &Bytes,
    models: &ModelRegistry,
    storage: &Storage,
    trace: Option<&TraceRecorder>,
    cfg: ExecConfig,
) -> (DataFrame, DeviceMeter, ScanStats) {
    let prog = load_artifact(artifact, models, Backend::Wasm, trace);
    let cfg = ExecConfig {
        device: Device::Cpu,
        workers: 1,
        ..cfg
    };
    let first = vm::run_program(&prog, storage, trace, cfg);
    for _ in 1..WASM_DILATION {
        vm::run_program(&prog, storage, None, cfg);
    }
    first
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
            &PhysicalOptions,
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
            &PhysicalOptions,
        )
        .unwrap();
        let bytes = serialize_program(&lower(&plan));
        let (models, rec) = (ModelRegistry::new(), TraceRecorder::new());
        let (g, _, _) = run_graph(&bytes, &models, &storage, Some(&rec), ExecConfig::default());
        let (w, _, _) = run_wasm(&bytes, &models, &storage, Some(&rec), ExecConfig::default());
        assert_eq!(g.nrows(), w.nrows());
        for i in 0..g.nrows() {
            assert_eq!(g.row(i), w.row(i));
        }
        // Both loads and one Wasm pass of the dilated run left spans: the
        // scan ran once for Graph and once for Wasm's first pass.
        let spans = rec.into_trace().spans;
        let calls = |name: &str| spans.iter().filter(|s| s.name == name).count();
        assert_eq!(calls("GraphLoad"), 2);
        assert_eq!(calls(&tqp_obs::op_key("Scan(t)", 0)), 2);
    }
}

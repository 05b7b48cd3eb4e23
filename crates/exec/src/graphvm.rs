//! The artifact loader of the Graph ("ONNX") and Wasm ("ORT-Web")
//! backends.
//!
//! Both backends execute the **serialized [`TensorProgram`] artifact** —
//! not the physical plan. The artifact (see
//! [`crate::program::serialize_program`]) is versioned and
//! self-describing: it is the reproduction's ONNX file, and
//! [`load_artifact`] is the deployment story — a compiled query is a
//! portable artifact that runs without the compiler front-end.
//!
//! [`crate::Executor::compile`] loads the artifact once, the way an ONNX
//! runtime loads a model file once and then feeds it inputs. The loaded
//! program is the one the executor keeps and the vectorized VM
//! ([`crate::vm`]) runs on every call. **Graph** binds the specialized
//! expression kernels at load ([`crate::exprfuse::bind_program`]);
//! **Wasm** binds none, so every expression site takes the generic walk
//! (as on Eager).
//!
//! The artifact names its `PREDICT` models and does not carry them, so
//! the load binds the decoded program against the executor's registry.

use bytes::Bytes;
use tqp_ml::ModelRegistry;

use crate::program::{bind_models, deserialize_program, TensorProgram};
use crate::{exprfuse, Backend};

/// Decode the artifact for `backend` and bind its models, and, when the
/// backend binds kernels (Graph), its expression kernels. A document
/// that does not decode, or that names a model `models` lacks (or one of
/// another arity), is the error.
pub fn load_artifact(
    artifact: &Bytes,
    models: &ModelRegistry,
    backend: Backend,
) -> Result<TensorProgram, String> {
    let mut prog = deserialize_program(artifact).map_err(|e| e.to_string())?;
    bind_models(&mut prog, models)?;
    if backend.binds_kernels() {
        exprfuse::bind_program(&mut prog);
    }
    Ok(prog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{lower, serialize_program};
    use tqp_data::{Field, LogicalType, Schema};
    use tqp_ir::{compile_sql, Catalog, PhysicalOptions};

    fn program(sql: &str) -> TensorProgram {
        let mut catalog = Catalog::new();
        let fields = vec![
            Field::new("id", LogicalType::Int64),
            Field::new("v", LogicalType::Float64),
        ];
        catalog.register("t", Schema::new(fields), 3);
        lower(&compile_sql(sql, &catalog, &PhysicalOptions).unwrap())
    }

    fn artifact(sql: &str) -> Bytes {
        serialize_program(&program(sql))
    }

    #[test]
    fn artifact_roundtrip() {
        let prog = program("select id from t where v > 10.0");
        let bytes = serialize_program(&prog);
        assert!(!bytes.is_empty());
        for backend in [Backend::Graph, Backend::Wasm] {
            let back = load_artifact(&bytes, &ModelRegistry::new(), backend).unwrap();
            assert_eq!(back, prog);
        }
    }

    #[test]
    fn truncated_and_tampered_artifacts_are_errors() {
        let bytes = artifact("select id, v * 2 as vv from t where v > 10.0 order by id");
        let models = ModelRegistry::new();
        let truncated = Bytes::from(bytes[..bytes.len() / 2].to_vec());
        assert!(load_artifact(&truncated, &models, Backend::Graph).is_err());
        let text = String::from_utf8(bytes.to_vec()).unwrap();
        let tampered = text.replacen("\"op\":\"scan\"", "\"op\":\"no_such_op\"", 1);
        assert_ne!(tampered, text, "tamper point not found");
        let err =
            load_artifact(&Bytes::from(tampered.into_bytes()), &models, Backend::Wasm).unwrap_err();
        assert!(err.contains("artifact"), "{err}");
    }

    #[test]
    fn a_model_missing_from_the_registry_is_an_error_naming_it() {
        let bytes = artifact("select predict('price_model', v) as p from t");
        for backend in [Backend::Graph, Backend::Wasm] {
            let err = load_artifact(&bytes, &ModelRegistry::new(), backend).unwrap_err();
            assert!(err.contains("price_model"), "{err}");
        }
    }
}

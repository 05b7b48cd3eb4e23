//! The model registry backing SQL `PREDICT('name', args...)`.

use std::collections::HashMap;
use std::sync::Arc;

use tqp_tensor::Tensor;

/// A predictive model embeddable in a query plan. `predict` consumes one
/// tensor per SQL argument (numeric rank-1 columns, or an `(n × m)` string
/// matrix for text models) and returns a rank-1 `F64` tensor of
/// predictions — i.e. the model *is* a tensor program, which is what lets
/// TQP splice it into the relational program (paper §3.3).
pub trait Model: Send + Sync {
    /// Model family name (for the executor graph display).
    fn family(&self) -> &'static str;
    /// Expected number of SQL arguments.
    fn n_inputs(&self) -> usize;
    /// Run inference over column tensors.
    fn predict(&self, inputs: &[Tensor]) -> Tensor;
}

/// Name → model map, shared by every engine in a session.
#[derive(Clone, Default)]
pub struct ModelRegistry {
    models: HashMap<String, Arc<dyn Model>>,
}

impl ModelRegistry {
    /// Empty registry.
    pub fn new() -> ModelRegistry {
        ModelRegistry::default()
    }

    /// Register (or replace) a model under `name`.
    pub fn register(&mut self, name: &str, model: Arc<dyn Model>) {
        self.models.insert(name.to_ascii_lowercase(), model);
    }

    /// Look up a model.
    pub fn get(&self, name: &str) -> Option<Arc<dyn Model>> {
        self.models.get(&name.to_ascii_lowercase()).cloned()
    }

    /// Look up a model a plan calls, panicking with the canonical "not
    /// registered" message when missing. Only the row engine calls it,
    /// per run: the tensor engines bind each model once, when the program
    /// is lowered, and report a missing one as an error.
    pub fn require(&self, name: &str) -> Arc<dyn Model> {
        self.get(name)
            .unwrap_or_else(|| panic!("model {name} not registered"))
    }

    /// Registered model names (sorted).
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.models.keys().cloned().collect();
        v.sort();
        v
    }
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ModelRegistry({:?})", self.names())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl Model for Echo {
        fn family(&self) -> &'static str {
            "echo"
        }
        fn n_inputs(&self) -> usize {
            1
        }
        fn predict(&self, inputs: &[Tensor]) -> Tensor {
            Tensor::from_f64(inputs[0].to_f64_vec())
        }
    }

    #[test]
    fn register_lookup_case_insensitive() {
        let mut r = ModelRegistry::new();
        r.register("My_Model", Arc::new(Echo));
        assert!(r.get("my_model").is_some());
        assert!(r.get("missing").is_none());
        assert_eq!(r.names(), vec!["my_model".to_string()]);
        let out = r
            .get("MY_MODEL")
            .unwrap()
            .predict(&[Tensor::from_f64(vec![1.5])]);
        assert_eq!(out.as_f64(), &[1.5]);
    }
}

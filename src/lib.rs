//! Meta-crate for the TQP reproduction workspace.
//!
//! Re-exports the public façade so examples and integration tests can use a
//! single import. See [`tqp_core`] for the primary API.

pub use tqp_baseline as baseline;
pub use tqp_core as core;
pub use tqp_data as data;
pub use tqp_exec as exec;
pub use tqp_ir as ir;
pub use tqp_ml as ml;
pub use tqp_net as net;
pub use tqp_obs as obs;
pub use tqp_serve as serve;
pub use tqp_sql as sql;
pub use tqp_store as store;
pub use tqp_tensor as tensor;

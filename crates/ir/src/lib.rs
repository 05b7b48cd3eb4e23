//! # tqp-ir — TQP's parsing/optimization layers (paper §2.2)
//!
//! This crate implements the middle of the paper's 4-layer compilation
//! stack:
//!
//! 1. **parsing layer** (back half): the SQL AST from `tqp-sql` is *bound*
//!    against a [`catalog::Catalog`] into a typed logical IR
//!    ([`plan::LogicalPlan`] + [`expr::BoundExpr`]);
//! 2. **optimization layer**: rule-based IR-to-IR transformations
//!    ([`optimize`]): constant folding, subquery decorrelation,
//!    cross-join → equi-join extraction with estimate-driven greedy
//!    ordering, filter pushdown, and column pruning;
//! 3. hand-off to the **planning layer**: a [`physical::PhysicalPlan`]
//!    annotated with algorithm choices (sort-merge vs hash join and its
//!    build side, sort vs hash aggregation), made per operator from the
//!    same estimates unless forced, that both execution substrates
//!    consume — the tensor
//!    compiler in `tqp-exec` and the row-Volcano baseline in `tqp-baseline`.
//!
//! Plans serialize to JSON ([`json`]): the plan frontend demonstrates the
//! paper's point that "the architecture decouples the physical plan
//! specification from the other layers" (a Spark physical plan would enter
//! here). The execution layer lowers plans further, into the flat
//! `TensorProgram` op sequence that all backends run (`tqp_exec::program`).

pub mod bind;
pub mod catalog;
pub mod expr;
pub mod json;
pub mod optimize;
pub mod physical;
pub mod plan;

pub use bind::{bind_query, BindError};
pub use catalog::{Catalog, TableMeta};
pub use expr::{AggCall, AggFunc, BinOp, BoundExpr, ScalarFunc};
pub use optimize::estimate::{estimate, estimate_each};
pub use physical::{plan_physical, AggStrategy, JoinStrategy, PhysicalOptions, PhysicalPlan};
pub use plan::{ColMeta, JoinType, LogicalPlan, PlanSchema};

/// Compile SQL text all the way to an optimized physical plan.
///
/// Convenience entry point combining parse → bind → optimize → physical.
pub fn compile_sql(
    sql: &str,
    catalog: &Catalog,
    opts: &PhysicalOptions,
) -> Result<PhysicalPlan, CompileError> {
    let ast = tqp_sql::parse(sql).map_err(CompileError::Parse)?;
    compile_query(&ast, catalog, opts)
}

/// Compile an already-parsed query to an optimized physical plan.
///
/// Used by callers that pre-parse the statement themselves (e.g. to strip
/// an `EXPLAIN` prefix) and hand the inner query straight to the binder.
pub fn compile_query(
    ast: &tqp_sql::Query,
    catalog: &Catalog,
    opts: &PhysicalOptions,
) -> Result<PhysicalPlan, CompileError> {
    let logical = bind_query(ast, catalog).map_err(CompileError::Bind)?;
    let optimized = optimize::optimize(logical, catalog);
    Ok(plan_physical(&optimized, opts, catalog))
}

/// Errors from the full compilation pipeline.
#[derive(Debug)]
pub enum CompileError {
    Parse(tqp_sql::ParseError),
    Bind(BindError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "{e}"),
            CompileError::Bind(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {}

//! Rule-based optimizer: IR-to-IR transformations (paper §2.2, layer 2).
//!
//! Pass order matters:
//!
//! 1. [`fold`] — constant folding and boolean simplification;
//! 2. [`decorrelate`] — subquery placeholders → semi/anti/inner joins
//!    (the transformation that makes TPC-H Q2/Q4/Q11/Q15/Q16/Q17/Q18/
//!    Q20/Q21/Q22 executable on both engines);
//! 3. [`joins`] — cross-join chains + filter conjuncts → equi-join trees
//!    with greedy ordering by estimated join output (TPC-H queries are
//!    written in comma-join style, so this pass builds essentially every
//!    join in the benchmark); the estimates are [`estimate`]'s, which the
//!    physical planner and `EXPLAIN` share;
//! 4. [`pushdown`] — remaining filters as close to scans as possible;
//! 5. [`prune`] — column pruning: scans read only what the query touches
//!    (on a 16-column `lineitem`, this is the difference between moving
//!    ~1 GB and ~100 MB per SF through the tensor kernels);
//! 6. [`fold`] again to clean up rewrites.

pub mod decorrelate;
pub mod estimate;
pub mod fold;
pub mod joins;
pub mod prune;
pub mod pushdown;

use crate::catalog::Catalog;
use crate::plan::LogicalPlan;

/// Run the full pass pipeline.
pub fn optimize(plan: LogicalPlan, catalog: &Catalog) -> LogicalPlan {
    let plan = fold::fold_plan(plan);
    let plan = decorrelate::decorrelate(plan);
    let plan = joins::extract_joins(plan, catalog);
    let plan = pushdown::push_filters(plan);
    let plan = prune::prune_plan(plan);
    fold::fold_plan(plan)
}

/// Rebuild a plan node with transformed children (shared by the passes).
pub(crate) fn map_children(
    plan: LogicalPlan,
    f: &mut impl FnMut(LogicalPlan) -> LogicalPlan,
) -> LogicalPlan {
    use LogicalPlan::*;
    match plan {
        Scan { .. } => plan,
        Filter { input, predicate } => Filter {
            input: Box::new(f(*input)),
            predicate,
        },
        Project {
            input,
            exprs,
            schema,
        } => Project {
            input: Box::new(f(*input)),
            exprs,
            schema,
        },
        Join {
            left,
            right,
            join_type,
            on,
            residual,
        } => Join {
            left: Box::new(f(*left)),
            right: Box::new(f(*right)),
            join_type,
            on,
            residual,
        },
        CrossJoin { left, right } => CrossJoin {
            left: Box::new(f(*left)),
            right: Box::new(f(*right)),
        },
        Aggregate {
            input,
            group_by,
            aggs,
            schema,
        } => Aggregate {
            input: Box::new(f(*input)),
            group_by,
            aggs,
            schema,
        },
        Sort { input, keys } => Sort {
            input: Box::new(f(*input)),
            keys,
        },
        Limit { input, n } => Limit {
            input: Box::new(f(*input)),
            n,
        },
    }
}

/// Split a predicate into its top-level AND conjuncts.
pub(crate) fn split_conjuncts(e: crate::expr::BoundExpr, out: &mut Vec<crate::expr::BoundExpr>) {
    use crate::expr::{BinOp, BoundExpr};
    match e {
        BoundExpr::Binary {
            op: BinOp::And,
            left,
            right,
            ..
        } => {
            split_conjuncts(*left, out);
            split_conjuncts(*right, out);
        }
        other => out.push(other),
    }
}

/// AND a list of conjuncts back together (`true` for the empty list).
pub(crate) fn conjoin(mut parts: Vec<crate::expr::BoundExpr>) -> crate::expr::BoundExpr {
    use crate::expr::{BinOp, BoundExpr};
    use tqp_data::LogicalType;
    match parts.len() {
        0 => BoundExpr::lit_bool(true),
        1 => parts.pop().unwrap(),
        _ => {
            let mut it = parts.into_iter();
            let first = it.next().unwrap();
            it.fold(first, |acc, e| BoundExpr::Binary {
                op: BinOp::And,
                left: Box::new(acc),
                right: Box::new(e),
                ty: LogicalType::Bool,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BoundExpr;

    #[test]
    fn split_and_conjoin_roundtrip() {
        let a = BoundExpr::lit_bool(true);
        let b = BoundExpr::lit_bool(false);
        let c = BoundExpr::lit_bool(true);
        let e = conjoin(vec![a.clone(), b.clone(), c.clone()]);
        let mut parts = vec![];
        split_conjuncts(e, &mut parts);
        assert_eq!(parts, vec![a, b, c]);
    }

    #[test]
    fn conjoin_empty_is_true() {
        assert_eq!(conjoin(vec![]), BoundExpr::lit_bool(true));
    }
}

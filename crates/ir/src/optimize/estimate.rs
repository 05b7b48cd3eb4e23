//! Cardinality estimation: the one estimator behind greedy join ordering,
//! the physical planner's build-side choice, and the `est=` column of
//! `EXPLAIN`.
//!
//! It is written once, generic over [`PlanNode`], and runs on both plan
//! types: on [`LogicalPlan`] while joins are being ordered and on
//! [`PhysicalPlan`] when `EXPLAIN` annotates the operators that actually
//! execute. The arithmetic is System-R style:
//!
//! * filters over a scan whose catalog entry carries [`TableStats`]
//!   multiply per-conjunct selectivities from min/max ranges, distinct
//!   counts and NULL fractions; anything else takes the constant
//!   [`DEFAULT_FILTER_SELECTIVITY`];
//! * equi-joins divide `|L|·|R|` by the larger key NDV, each side's NDV
//!   being the catalog's KMV sketch for the key column(s) traced to their
//!   base table ([`column_source`]) and capped by that side's estimated
//!   rows; semi/anti joins keep the fraction of left keys the right side
//!   contains; grouped aggregates emit at most the product of their key
//!   NDVs. Without NDVs (schema-only catalogs, computed keys) each falls
//!   back to the constant it always had, so those plans do not move.
//!
//! [`TableStats`]: tqp_data::TableStats

use tqp_tensor::Scalar;

use crate::catalog::{Catalog, TableMeta};
use crate::expr::{BinOp, BoundExpr};
use crate::optimize::split_conjuncts;
use crate::physical::PhysicalPlan;
use crate::plan::{JoinType, LogicalPlan};

/// What the estimator reads of a plan node.
pub enum Node<'a, P> {
    Scan {
        table: &'a str,
        projection: Option<&'a [usize]>,
    },
    Filter {
        input: &'a P,
        predicate: &'a BoundExpr,
    },
    Project {
        input: &'a P,
        exprs: &'a [BoundExpr],
    },
    Join {
        left: &'a P,
        right: &'a P,
        join_type: JoinType,
        on: &'a [(usize, usize)],
    },
    CrossJoin {
        left: &'a P,
        right: &'a P,
    },
    Aggregate {
        input: &'a P,
        group_by: &'a [BoundExpr],
    },
    /// Row-preserving operators (`Sort`).
    Passthrough {
        input: &'a P,
    },
    Limit {
        input: &'a P,
        n: usize,
    },
}

/// A plan type the estimator can walk.
pub trait PlanNode: Sized {
    fn node(&self) -> Node<'_, Self>;
    fn arity(&self) -> usize;
}

macro_rules! impl_plan_node {
    ($plan:ident) => {
        impl PlanNode for $plan {
            fn node(&self) -> Node<'_, Self> {
                match self {
                    $plan::Scan {
                        table, projection, ..
                    } => Node::Scan {
                        table,
                        projection: projection.as_deref(),
                    },
                    $plan::Filter { input, predicate } => Node::Filter { input, predicate },
                    $plan::Project { input, exprs, .. } => Node::Project { input, exprs },
                    $plan::Join {
                        left,
                        right,
                        join_type,
                        on,
                        ..
                    } => Node::Join {
                        left,
                        right,
                        join_type: *join_type,
                        on,
                    },
                    $plan::CrossJoin { left, right } => Node::CrossJoin { left, right },
                    $plan::Aggregate {
                        input, group_by, ..
                    } => Node::Aggregate { input, group_by },
                    $plan::Sort { input, .. } => Node::Passthrough { input },
                    $plan::Limit { input, n } => Node::Limit { input, n: *n },
                }
            }

            fn arity(&self) -> usize {
                $plan::arity(self)
            }
        }
    };
}

impl_plan_node!(LogicalPlan);
impl_plan_node!(PhysicalPlan);

/// Estimated output rows of `plan`.
pub fn estimate<P: PlanNode>(plan: &P, catalog: &Catalog) -> f64 {
    estimate_each(plan, catalog, &mut |_| {})
}

/// [`estimate`], reporting every node's estimate to `visit` in post-order,
/// children left to right — the order lowering numbers plan nodes in.
pub fn estimate_each<P: PlanNode>(plan: &P, catalog: &Catalog, visit: &mut impl FnMut(f64)) -> f64 {
    let rows = match plan.node() {
        Node::Scan { table, .. } => catalog.get(table).map(|m| m.rows as f64).unwrap_or(1000.0),
        Node::Filter { input, predicate } => {
            estimate_each(input, catalog, visit) * filter_selectivity(predicate, input, catalog)
        }
        Node::Project { input, .. } | Node::Passthrough { input } => {
            estimate_each(input, catalog, visit)
        }
        Node::Join {
            left,
            right,
            join_type,
            on,
        } => {
            let l = estimate_each(left, catalog, visit);
            let r = estimate_each(right, catalog, visit);
            join_rows(
                join_type,
                l,
                r,
                key_distinct(on.iter().map(|k| column_source(left, k.0, catalog))),
                key_distinct(on.iter().map(|k| column_source(right, k.1, catalog))),
                on.len() > 1,
            )
        }
        Node::CrossJoin { left, right } => {
            estimate_each(left, catalog, visit) * estimate_each(right, catalog, visit)
        }
        Node::Aggregate { input, group_by } => {
            let rows = estimate_each(input, catalog, visit);
            if group_by.is_empty() {
                1.0
            } else {
                group_count(rows, input, group_by, catalog).unwrap_or(rows * 0.1)
            }
        }
        Node::Limit { input, n } => estimate_each(input, catalog, visit).min(n as f64),
    };
    visit(rows);
    rows
}

/// Groups a `GROUP BY group_by` over `input` (estimated at `rows` rows)
/// produces: `min(rows, Π ndv)` of the key columns traced to their base
/// tables. `None` without NDVs (schema-only catalogs, computed keys) — the
/// physical planner then leaves the aggregate's execution shape alone.
pub(crate) fn group_count<P: PlanNode>(
    rows: f64,
    input: &P,
    group_by: &[BoundExpr],
    catalog: &Catalog,
) -> Option<f64> {
    let keys = group_by.iter().map(|g| match g {
        BoundExpr::Column { index, .. } => column_source(input, *index, catalog),
        _ => None,
    });
    key_distinct(keys).map(|groups| rows.min(groups))
}

/// Output rows of an equi-join of `l` and `r` estimated rows whose keys
/// have `l_distinct` / `r_distinct` distinct values in their base tables
/// ([`key_distinct`]). With either unknown the estimate is the constant it
/// was before NDVs existed.
pub(crate) fn join_rows(
    join_type: JoinType,
    l: f64,
    r: f64,
    l_distinct: Option<f64>,
    r_distinct: Option<f64>,
    composite: bool,
) -> f64 {
    let semi = matches!(join_type, JoinType::Semi | JoinType::Anti);
    let (Some(mut dl), Some(mut dr)) = (l_distinct, r_distinct) else {
        return if semi { l * 0.5 } else { l.max(r) };
    };
    if composite {
        // A composite count is an upper bound (a product), and the keys of
        // one side are drawn from the other's (lineitem's part/supplier
        // pairs are partsupp's), so the tighter bound holds for both.
        dl = dl.min(dr);
        dr = dl;
    }
    if semi {
        // Containment: a left key finds a partner when it is one of the
        // keys the right side still holds, out of the larger key domain.
        // Filters on the left do not change that chance.
        let found = (dr.min(r) / dl.max(dr).max(1.0)).min(1.0);
        return l * if join_type == JoinType::Semi {
            found
        } else {
            1.0 - found
        };
    }
    // A filtered side cannot hold more distinct keys than rows.
    let inner = l * r / dl.min(l).max(dr.min(r)).max(1.0);
    if join_type == JoinType::Left {
        inner.max(l)
    } else {
        inner
    }
}

/// A column traced to the base table it is read from.
pub(crate) type ColumnSource<'a> = (&'a TableMeta, usize);

/// Distinct values of the key made of `columns`, table-level (an upper
/// bound after any filter; callers cap it by the rows they expect): the
/// product of the columns' KMV sketches, itself capped by the table's rows
/// when all come from one table. `None` when any is unknown.
pub(crate) fn key_distinct<'a>(
    columns: impl IntoIterator<Item = Option<ColumnSource<'a>>>,
) -> Option<f64> {
    let mut product = 1.0;
    let mut table: Option<&TableMeta> = None;
    let mut one_table = true;
    for column in columns {
        let (meta, col) = column?;
        let distinct = meta.stats.as_ref()?.columns.get(col)?.distinct;
        if distinct == 0 {
            return None;
        }
        product *= distinct as f64;
        one_table &= table.is_none_or(|t| std::ptr::eq(t, meta));
        table = Some(meta);
    }
    Some(match table {
        Some(meta) if one_table => product.min(meta.rows as f64),
        _ => product,
    })
}

/// The base-table column behind output column `col` of `plan`, when it is
/// reached through operators that only drop, repeat or reorder rows.
pub(crate) fn column_source<'a, P: PlanNode>(
    plan: &P,
    col: usize,
    catalog: &'a Catalog,
) -> Option<ColumnSource<'a>> {
    match plan.node() {
        Node::Scan { table, projection } => Some((
            catalog.get(table)?,
            match projection {
                Some(p) => *p.get(col)?,
                None => col,
            },
        )),
        Node::Filter { input, .. } | Node::Passthrough { input } | Node::Limit { input, .. } => {
            column_source(input, col, catalog)
        }
        Node::Project { input, exprs } => match exprs.get(col)? {
            BoundExpr::Column { index, .. } => column_source(input, *index, catalog),
            _ => None,
        },
        Node::Join {
            left,
            right,
            join_type,
            ..
        } => {
            let la = left.arity();
            if col < la {
                column_source(left, col, catalog)
            } else if matches!(join_type, JoinType::Semi | JoinType::Anti) {
                None
            } else {
                column_source(right, col - la, catalog)
            }
        }
        Node::CrossJoin { left, right } => {
            let la = left.arity();
            if col < la {
                column_source(left, col, catalog)
            } else {
                column_source(right, col - la, catalog)
            }
        }
        Node::Aggregate { input, group_by } => match group_by.get(col)? {
            BoundExpr::Column { index, .. } => column_source(input, *index, catalog),
            _ => None,
        },
    }
}

// ---------------------------------------------------------------------
// Stats-driven filter selectivity
// ---------------------------------------------------------------------

/// Fallback selectivity for a filter (or a conjunct) the statistics can't
/// estimate — the pre-stats constant, kept so schema-only catalogs plan
/// exactly as before.
const DEFAULT_FILTER_SELECTIVITY: f64 = 0.2;

/// Selectivity of a filter predicate over `input`. When `input` is a
/// scan whose catalog entry carries full [`tqp_data::TableStats`]
/// (in-memory ingestion and `tqp-store` footers both produce them), each
/// conjunct is estimated from real min/max ranges, distinct counts, and
/// NULL fractions; otherwise the historic `0.2` constant applies to the
/// whole filter.
fn filter_selectivity<P: PlanNode>(predicate: &BoundExpr, input: &P, catalog: &Catalog) -> f64 {
    let Node::Scan { table, projection } = input.node() else {
        return DEFAULT_FILTER_SELECTIVITY;
    };
    let Some(stats) = catalog.get(table).and_then(|m| m.stats.as_ref()) else {
        return DEFAULT_FILTER_SELECTIVITY;
    };
    let mut conjuncts = Vec::new();
    split_conjuncts(predicate.clone(), &mut conjuncts);
    let mut s = 1.0;
    for c in &conjuncts {
        s *= conjunct_selectivity(c, stats, projection);
    }
    // Never estimate a truly empty (or full) input: keep ordering stable
    // under small estimation errors.
    s.clamp(1e-4, 1.0)
}

/// Column stats for a scan-output column index (through the projection).
fn col_stats<'a>(
    index: usize,
    stats: &'a tqp_data::TableStats,
    projection: Option<&[usize]>,
) -> Option<&'a tqp_data::ColumnStats> {
    let table_col = match projection {
        Some(p) => *p.get(index)?,
        None => index,
    };
    stats.columns.get(table_col)
}

fn numeric_f64(s: &Scalar) -> Option<f64> {
    match s {
        Scalar::I64(x) => Some(*x as f64),
        Scalar::F64(x) if !x.is_nan() => Some(*x),
        _ => None,
    }
}

/// Selectivity of one conjunct (System-R style estimates).
fn conjunct_selectivity(
    e: &BoundExpr,
    stats: &tqp_data::TableStats,
    projection: Option<&[usize]>,
) -> f64 {
    let rows = stats.rows.max(1) as f64;
    match e {
        BoundExpr::Binary {
            op: BinOp::Or,
            left,
            right,
            ..
        } => {
            let a = conjunct_selectivity(left, stats, projection);
            let b = conjunct_selectivity(right, stats, projection);
            (a + b - a * b).clamp(0.0, 1.0)
        }
        BoundExpr::Binary {
            op: BinOp::And,
            left,
            right,
            ..
        } => {
            let a = conjunct_selectivity(left, stats, projection);
            let b = conjunct_selectivity(right, stats, projection);
            (a * b).clamp(0.0, 1.0)
        }
        BoundExpr::Binary {
            op, left, right, ..
        } => {
            // Normalize to column-op-literal.
            let (col, value, op) = match (left.as_ref(), right.as_ref()) {
                (BoundExpr::Column { index, .. }, BoundExpr::Literal { value, .. }) => {
                    (*index, value, *op)
                }
                (BoundExpr::Literal { value, .. }, BoundExpr::Column { index, .. }) => {
                    let flipped = match op {
                        BinOp::Lt => BinOp::Gt,
                        BinOp::LtEq => BinOp::GtEq,
                        BinOp::Gt => BinOp::Lt,
                        BinOp::GtEq => BinOp::LtEq,
                        other => *other,
                    };
                    (*index, value, flipped)
                }
                _ => return DEFAULT_FILTER_SELECTIVITY,
            };
            let Some(cs) = col_stats(col, stats, projection) else {
                return DEFAULT_FILTER_SELECTIVITY;
            };
            let valid = 1.0 - (cs.null_count as f64 / rows).clamp(0.0, 1.0);
            let distinct = cs.distinct.max(1) as f64;
            match op {
                BinOp::Eq => {
                    if out_of_range(cs, value) {
                        0.0
                    } else {
                        valid / distinct
                    }
                }
                BinOp::NotEq => valid * (1.0 - 1.0 / distinct),
                BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
                    let frac = range_fraction(cs, value, op).unwrap_or(1.0 / 3.0);
                    valid * frac
                }
                _ => DEFAULT_FILTER_SELECTIVITY,
            }
        }
        BoundExpr::InList {
            expr,
            list,
            negated,
        } => {
            let BoundExpr::Column { index, .. } = expr.as_ref() else {
                return DEFAULT_FILTER_SELECTIVITY;
            };
            let Some(cs) = col_stats(*index, stats, projection) else {
                return DEFAULT_FILTER_SELECTIVITY;
            };
            let valid = 1.0 - (cs.null_count as f64 / rows).clamp(0.0, 1.0);
            let hit = (list.len() as f64 / cs.distinct.max(1) as f64).clamp(0.0, 1.0);
            if *negated {
                valid * (1.0 - hit)
            } else {
                valid * hit
            }
        }
        BoundExpr::IsNull { expr, negated } => {
            let BoundExpr::Column { index, .. } = expr.as_ref() else {
                return 0.5;
            };
            let Some(cs) = col_stats(*index, stats, projection) else {
                return 0.5;
            };
            let null_frac = (cs.null_count as f64 / rows).clamp(0.0, 1.0);
            if *negated {
                1.0 - null_frac
            } else {
                null_frac
            }
        }
        BoundExpr::Not(inner) => {
            (1.0 - conjunct_selectivity(inner, stats, projection)).clamp(0.0, 1.0)
        }
        BoundExpr::Like { negated, .. } => {
            if *negated {
                0.75
            } else {
                0.25
            }
        }
        _ => DEFAULT_FILTER_SELECTIVITY,
    }
}

/// True when an equality constant provably falls outside the column's
/// min/max (zone-style reasoning lifted to table level).
fn out_of_range(cs: &tqp_data::ColumnStats, value: &Scalar) -> bool {
    let (Some(min), Some(max), Some(v)) = (
        cs.min.as_ref().and_then(numeric_f64),
        cs.max.as_ref().and_then(numeric_f64),
        numeric_f64(value),
    ) else {
        return false;
    };
    v < min || v > max
}

/// Fraction of the column's [min, max] range a one-sided comparison
/// keeps (`None` when the bounds or the constant aren't numeric).
fn range_fraction(cs: &tqp_data::ColumnStats, value: &Scalar, op: BinOp) -> Option<f64> {
    let min = cs.min.as_ref().and_then(numeric_f64)?;
    let max = cs.max.as_ref().and_then(numeric_f64)?;
    let v = numeric_f64(value)?;
    let below = if max > min {
        ((v - min) / (max - min)).clamp(0.0, 1.0)
    } else if v > min || (v == min && op == BinOp::LtEq) {
        1.0
    } else {
        0.0
    };
    Some(match op {
        BinOp::Lt | BinOp::LtEq => below,
        BinOp::Gt | BinOp::GtEq => 1.0 - below,
        _ => return None,
    })
}

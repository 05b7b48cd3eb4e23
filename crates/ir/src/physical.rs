//! Physical planning: annotate the logical plan with algorithm choices.
//!
//! TQP's planning layer (paper §2.2) maps each IR operator to a tensor
//! program; which program depends on the physical operator chosen here.
//! Two strategy axes exist — they are the ablation knobs of the benchmark
//! suite:
//!
//! * joins: **sort-merge** (the tensor-native formulation built on argsort +
//!   `searchsorted`) vs **hash** (row-hash tables);
//! * aggregation: **sort-based** (sort + run detection + segmented reduce)
//!   vs **hash-based** (group table + scatter).
//!
//! Left alone ([`PhysicalOptions::default`]) the planner decides per
//! operator ([`plan_physical`]); a `Some(_)` option forces one strategy on
//! every operator, which is how the paper's ablation binaries and the
//! parity grid pin an axis.
//!
//! The same physical plan drives the row-Volcano baseline, which is exactly
//! the paper's experimental setup: identical plans, different execution
//! substrates.

use crate::catalog::Catalog;
use crate::expr::{AggCall, BoundExpr};
use crate::optimize::estimate::{column_source, estimate, group_count, key_distinct};
use crate::plan::{ColMeta, JoinType, LogicalPlan, PlanSchema, SortKey};

/// Join algorithm choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Argsort + `searchsorted` probe (tensor-native).
    SortMerge,
    /// Row-hash build + probe.
    Hash,
}

/// Aggregation output order. Both group by hash and fold each group's
/// rows in input order; they differ only in how the groups are listed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggStrategy {
    /// Groups emitted in key order (a stable argsort of the hash
    /// aggregate's groups).
    Sort,
    /// Groups emitted in first-appearance order.
    Hash,
}

/// Physical planning options: `None` (the default) lets the planner
/// choose per operator, `Some(_)` forces that strategy everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhysicalOptions {
    pub join: Option<JoinStrategy>,
    pub agg: Option<AggStrategy>,
}

/// The physical plan: structurally the logical plan plus algorithm tags.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    Scan {
        table: String,
        schema: PlanSchema,
        projection: Option<Vec<usize>>,
    },
    Filter {
        input: Box<PhysicalPlan>,
        predicate: BoundExpr,
    },
    Project {
        input: Box<PhysicalPlan>,
        exprs: Vec<BoundExpr>,
        schema: PlanSchema,
    },
    Join {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        join_type: JoinType,
        strategy: JoinStrategy,
        on: Vec<(usize, usize)>,
        residual: Option<BoundExpr>,
        /// Hash semi/anti joins only: the table is built over the *left*
        /// input and the right input probes it, marking the left rows it
        /// matches; the output is still left rows in left order. Every
        /// other join builds on its right input.
        build_left: bool,
        /// Distinct-key estimate for the build side, from the catalog's
        /// KMV column sketches; sizes the executor's flat hash directory.
        /// `None` when stats are absent or the key columns cannot be
        /// traced to a base table.
        build_distinct: Option<u64>,
    },
    CrossJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
    },
    Aggregate {
        input: Box<PhysicalPlan>,
        strategy: AggStrategy,
        group_by: Vec<BoundExpr>,
        aggs: Vec<AggCall>,
        schema: PlanSchema,
        /// Estimated group count, `min(input rows, Π key NDV)` from the
        /// catalog's KMV sketches: the executor partitions the input by
        /// key instead of pre-aggregating per morsel when a morsel could
        /// not reduce. `None` for global aggregates and when stats are
        /// absent or a key cannot be traced to a base table.
        groups: Option<u64>,
    },
    Sort {
        input: Box<PhysicalPlan>,
        keys: Vec<SortKey>,
    },
    Limit {
        input: Box<PhysicalPlan>,
        n: usize,
    },
}

impl PhysicalPlan {
    /// Output schema.
    pub fn schema(&self) -> PlanSchema {
        match self {
            PhysicalPlan::Scan {
                schema, projection, ..
            } => match projection {
                Some(idx) => idx.iter().map(|&i| schema[i].clone()).collect(),
                None => schema.clone(),
            },
            PhysicalPlan::Filter { input, .. } => input.schema(),
            PhysicalPlan::Project { schema, .. } => schema.clone(),
            PhysicalPlan::Join {
                left,
                right,
                join_type,
                ..
            } => match join_type {
                JoinType::Semi | JoinType::Anti => left.schema(),
                _ => {
                    let mut s = left.schema();
                    s.extend(right.schema());
                    s
                }
            },
            PhysicalPlan::CrossJoin { left, right } => {
                let mut s = left.schema();
                s.extend(right.schema());
                s
            }
            PhysicalPlan::Aggregate { schema, .. } => schema.clone(),
            PhysicalPlan::Sort { input, .. } => input.schema(),
            PhysicalPlan::Limit { input, .. } => input.schema(),
        }
    }

    /// Number of output columns.
    pub fn arity(&self) -> usize {
        self.schema().len()
    }

    /// Immediate children.
    pub fn children(&self) -> Vec<&PhysicalPlan> {
        match self {
            PhysicalPlan::Scan { .. } => vec![],
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Aggregate { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Limit { input, .. } => vec![input],
            PhysicalPlan::Join { left, right, .. } | PhysicalPlan::CrossJoin { left, right } => {
                vec![left, right]
            }
        }
    }

    /// Operator name for profiling / display.
    pub fn op_name(&self) -> String {
        match self {
            PhysicalPlan::Scan { table, .. } => format!("Scan({table})"),
            PhysicalPlan::Filter { .. } => "Filter".into(),
            PhysicalPlan::Project { .. } => "Project".into(),
            PhysicalPlan::Join {
                strategy,
                join_type,
                build_left,
                ..
            } => match strategy {
                JoinStrategy::Hash => {
                    let side = if *build_left { "left" } else { "right" };
                    format!("HashJoin({join_type:?}, build={side})")
                }
                JoinStrategy::SortMerge => format!("SortMergeJoin({join_type:?})"),
            },
            PhysicalPlan::CrossJoin { .. } => "CrossJoin".into(),
            PhysicalPlan::Aggregate { strategy, .. } => format!("{strategy:?}Aggregate"),
            PhysicalPlan::Sort { .. } => "Sort".into(),
            PhysicalPlan::Limit { .. } => "Limit".into(),
        }
    }

    /// EXPLAIN-style indented tree.
    pub fn display_tree(&self) -> String {
        fn go(p: &PhysicalPlan, out: &mut String, depth: usize) {
            out.push_str(&"  ".repeat(depth));
            out.push_str(&p.op_name());
            out.push('\n');
            for c in p.children() {
                go(c, out, depth + 1);
            }
        }
        let mut s = String::new();
        go(self, &mut s, 0);
        s
    }

    /// Serialize to the JSON interchange format (the "external frontend"
    /// representation — how a Spark-produced plan would arrive).
    pub fn to_json(&self) -> String {
        crate::json::plan_to_json(self).to_string()
    }

    /// Deserialize a plan from JSON.
    pub fn from_json(s: &str) -> Result<PhysicalPlan, crate::json::PlanJsonError> {
        let value = tqp_json::Json::parse(s)?;
        crate::json::plan_from_json(&value)
    }
}

/// Convert an optimized logical plan into a physical plan, choosing each
/// operator's algorithm where `opts` leaves it open.
///
/// The choice is a rule, not a cost model, because on every join and
/// aggregation site of the repo's four benchmark workloads one answer won:
/// **hash, built on the side estimated smaller**. Inner joins already
/// arrive with the smaller side on the right (join ordering puts it
/// there); a semi/anti join whose left input is estimated smaller than its
/// right builds on the left ([`PhysicalPlan::Join::build_left`]); left
/// outer joins always build right. Hash joins also get the catalog's
/// distinct-key estimate for their build side, which sizes the hash
/// directory, and grouped aggregates get the estimated group count
/// ([`PhysicalPlan::Aggregate`]'s `groups`), from which the executor picks
/// its aggregation shape. Everything here reads SQL and catalog statistics
/// only, so a plan never depends on workers, backend or host.
pub fn plan_physical(
    plan: &LogicalPlan,
    opts: &PhysicalOptions,
    catalog: &Catalog,
) -> PhysicalPlan {
    match plan {
        LogicalPlan::Scan {
            table,
            schema,
            projection,
        } => PhysicalPlan::Scan {
            table: table.clone(),
            schema: schema.clone(),
            projection: projection.clone(),
        },
        LogicalPlan::Filter { input, predicate } => PhysicalPlan::Filter {
            input: Box::new(plan_physical(input, opts, catalog)),
            predicate: predicate.clone(),
        },
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => PhysicalPlan::Project {
            input: Box::new(plan_physical(input, opts, catalog)),
            exprs: exprs.clone(),
            schema: schema.clone(),
        },
        LogicalPlan::Join {
            left,
            right,
            join_type,
            on,
            residual,
        } => {
            let strategy = opts.join.unwrap_or(JoinStrategy::Hash);
            let hash = strategy == JoinStrategy::Hash;
            let build_left = hash
                && matches!(join_type, JoinType::Semi | JoinType::Anti)
                && estimate(&**left, catalog) < estimate(&**right, catalog);
            let build_distinct = if !hash {
                None
            } else if build_left {
                key_distinct(on.iter().map(|k| column_source(&**left, k.0, catalog)))
            } else {
                key_distinct(on.iter().map(|k| column_source(&**right, k.1, catalog)))
            };
            PhysicalPlan::Join {
                left: Box::new(plan_physical(left, opts, catalog)),
                right: Box::new(plan_physical(right, opts, catalog)),
                join_type: *join_type,
                strategy,
                on: on.clone(),
                residual: residual.clone(),
                build_left,
                build_distinct: build_distinct.map(|d| d as u64),
            }
        }
        LogicalPlan::CrossJoin { left, right } => PhysicalPlan::CrossJoin {
            left: Box::new(plan_physical(left, opts, catalog)),
            right: Box::new(plan_physical(right, opts, catalog)),
        },
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            schema,
        } => PhysicalPlan::Aggregate {
            input: Box::new(plan_physical(input, opts, catalog)),
            strategy: opts.agg.unwrap_or(AggStrategy::Hash),
            group_by: group_by.clone(),
            aggs: aggs.clone(),
            schema: schema.clone(),
            groups: if group_by.is_empty() {
                None
            } else {
                group_count(estimate(&**input, catalog), &**input, group_by, catalog)
                    .map(|g| g.ceil() as u64)
            },
        },
        LogicalPlan::Sort { input, keys } => PhysicalPlan::Sort {
            input: Box::new(plan_physical(input, opts, catalog)),
            keys: keys.clone(),
        },
        LogicalPlan::Limit { input, n } => PhysicalPlan::Limit {
            input: Box::new(plan_physical(input, opts, catalog)),
            n: *n,
        },
    }
}

/// Flatten the schema into a `tqp_data::Schema` (drops qualifiers).
pub fn to_data_schema(schema: &PlanSchema) -> tqp_data::Schema {
    tqp_data::Schema::new(
        schema
            .iter()
            .map(|c| tqp_data::Field::new(c.name.clone(), c.ty))
            .collect(),
    )
}

/// Make output column names unique for display (duplicate names get a
/// positional suffix) — mirrors what DataFrame engines do.
pub fn dedup_names(schema: &PlanSchema) -> Vec<ColMeta> {
    let mut seen: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    schema
        .iter()
        .map(|c| {
            let n = seen.entry(c.name.to_ascii_lowercase()).or_insert(0);
            *n += 1;
            if *n == 1 {
                c.clone()
            } else {
                ColMeta {
                    qualifier: c.qualifier.clone(),
                    name: format!("{}_{}", c.name, n),
                    ty: c.ty,
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::bind_query;
    use crate::catalog::Catalog;
    use tqp_data::{Field, LogicalType, Schema};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            "t",
            Schema::new(vec![
                Field::new("a", LogicalType::Int64),
                Field::new("b", LogicalType::Float64),
            ]),
            100,
        );
        c.register(
            "u",
            Schema::new(vec![
                Field::new("a", LogicalType::Int64),
                Field::new("x", LogicalType::Float64),
            ]),
            50,
        );
        c
    }

    fn physical(sql: &str, opts: PhysicalOptions) -> PhysicalPlan {
        let cat = catalog();
        let p = bind_query(&tqp_sql::parse(sql).unwrap(), &cat).unwrap();
        let p = crate::optimize::optimize(p, &cat);
        plan_physical(&p, &opts, &cat)
    }

    #[test]
    fn strategies_propagate() {
        let p = physical(
            "select t.a, sum(t.b) from t, u where t.a = u.a group by t.a",
            PhysicalOptions {
                join: Some(JoinStrategy::Hash),
                agg: Some(AggStrategy::Hash),
            },
        );
        fn check(p: &PhysicalPlan) -> (bool, bool) {
            let mut j = false;
            let mut a = false;
            if let PhysicalPlan::Join { strategy, .. } = p {
                j |= *strategy == JoinStrategy::Hash;
            }
            if let PhysicalPlan::Aggregate { strategy, .. } = p {
                a |= *strategy == AggStrategy::Hash;
            }
            for c in p.children() {
                let (cj, ca) = check(c);
                j |= cj;
                a |= ca;
            }
            (j, a)
        }
        let (j, a) = check(&p);
        assert!(j && a);
    }

    #[test]
    fn json_roundtrip() {
        let p = physical(
            "select a from t where b > 1.0 order by a limit 3",
            PhysicalOptions::default(),
        );
        let json = p.to_json();
        let back = PhysicalPlan::from_json(&json).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn display_and_names() {
        let p = physical("select a, b from t", PhysicalOptions::default());
        let tree = p.display_tree();
        assert!(tree.contains("Scan(t)"));
        let schema = vec![
            ColMeta::new("x", LogicalType::Int64),
            ColMeta::new("x", LogicalType::Int64),
        ];
        let dd = dedup_names(&schema);
        assert_eq!(dd[0].name, "x");
        assert_eq!(dd[1].name, "x_2");
    }
}

//! Physical planning: annotate the logical plan with what its tensor
//! program needs.
//!
//! TQP's planning layer (paper §2.2) maps each IR operator to one tensor
//! program. Every equi-join is a hash join, built on the side estimated
//! smaller, and every aggregation groups by hash and lists its groups in
//! first-appearance order; what the planner adds per operator are the
//! build side and the catalog's estimates ([`plan_physical`]).
//!
//! The same physical plan drives the row-Volcano baseline, which is exactly
//! the paper's experimental setup: identical plans, different execution
//! substrates.

use crate::catalog::Catalog;
use crate::expr::{AggCall, BoundExpr};
use crate::optimize::estimate::{estimate, group_count};
use crate::plan::{ColMeta, JoinType, LogicalPlan, PlanSchema, SortKey};

/// Physical planning options: none are left. The type remains only
/// because the benchmark package passes `&cfg.physical` to
/// [`crate::compile_sql`]; it goes, with `QueryConfig::physical`, when
/// that call drops the argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhysicalOptions;

/// The physical plan: structurally the logical plan plus the planner's
/// annotations (build side, estimates).
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
        on: Vec<(usize, usize)>,
        residual: Option<BoundExpr>,
        /// Semi/anti joins only: the table is built over the *left*
        /// input and the right input probes it, marking the left rows it
        /// matches; the output is still left rows in left order. Every
        /// other join builds on its right input.
        build_left: bool,
    },
    CrossJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
    },
    Aggregate {
        input: Box<PhysicalPlan>,
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
                join_type,
                build_left,
                ..
            } => {
                let side = if *build_left { "left" } else { "right" };
                format!("HashJoin({join_type:?}, build={side})")
            }
            PhysicalPlan::CrossJoin { .. } => "CrossJoin".into(),
            PhysicalPlan::Aggregate { .. } => "HashAggregate".into(),
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

/// Convert an optimized logical plan into a physical plan.
///
/// Every equi-join is a hash join **built on the side estimated smaller**,
/// and every aggregation a hash aggregation: forced over the 22 TPC-H
/// queries, sort-merge joins cost +28 % and key-order aggregation +3 %.
/// Inner joins already arrive with the smaller side on the right (join
/// ordering puts it there); a semi/anti join whose left input is estimated
/// smaller than its right builds on the left
/// ([`PhysicalPlan::Join::build_left`]); left outer joins always build
/// right. Grouped aggregates get the estimated group count
/// ([`PhysicalPlan::Aggregate`]'s `groups`), from which the executor picks
/// its aggregation shape. Everything here reads
/// SQL and catalog statistics only, so a plan never depends on workers,
/// backend or host.
pub fn plan_physical(plan: &LogicalPlan, catalog: &Catalog) -> PhysicalPlan {
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
            input: Box::new(plan_physical(input, catalog)),
            predicate: predicate.clone(),
        },
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => PhysicalPlan::Project {
            input: Box::new(plan_physical(input, catalog)),
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
            let build_left = matches!(join_type, JoinType::Semi | JoinType::Anti)
                && estimate(&**left, catalog) < estimate(&**right, catalog);
            PhysicalPlan::Join {
                left: Box::new(plan_physical(left, catalog)),
                right: Box::new(plan_physical(right, catalog)),
                join_type: *join_type,
                on: on.clone(),
                residual: residual.clone(),
                build_left,
            }
        }
        LogicalPlan::CrossJoin { left, right } => PhysicalPlan::CrossJoin {
            left: Box::new(plan_physical(left, catalog)),
            right: Box::new(plan_physical(right, catalog)),
        },
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            schema,
        } => PhysicalPlan::Aggregate {
            input: Box::new(plan_physical(input, catalog)),
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
            input: Box::new(plan_physical(input, catalog)),
            keys: keys.clone(),
        },
        LogicalPlan::Limit { input, n } => PhysicalPlan::Limit {
            input: Box::new(plan_physical(input, catalog)),
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

    fn physical(sql: &str) -> PhysicalPlan {
        let cat = catalog();
        let p = bind_query(&tqp_sql::parse(sql).unwrap(), &cat).unwrap();
        let p = crate::optimize::optimize(p, &cat);
        plan_physical(&p, &cat)
    }

    #[test]
    fn json_roundtrip() {
        for sql in [
            "select a from t where b > 1.0 order by a limit 3",
            "select t.a, sum(t.b) from t, u where t.a = u.a group by t.a",
        ] {
            let p = physical(sql);
            let json = p.to_json();
            let back = PhysicalPlan::from_json(&json).unwrap();
            assert_eq!(p, back);
            // Documents written while joins and aggregates carried a
            // `strategy`, and joins their build side's distinct-key
            // estimate, load to the same plan, whatever they named.
            let estimate = format!("\"{}_distinct\":12,", "build");
            for (join, agg) in [("sort_merge", "sort"), ("hash", "hash")] {
                let old = json
                    .replace(
                        "\"op\":\"join\",",
                        &format!("\"op\":\"join\",\"strategy\":\"{join}\",{estimate}"),
                    )
                    .replace(
                        "\"op\":\"aggregate\",",
                        &format!("\"op\":\"aggregate\",\"strategy\":\"{agg}\","),
                    );
                assert_eq!(old == json, !sql.contains("group by"), "{old}");
                assert_eq!(PhysicalPlan::from_json(&old).unwrap(), p);
            }
        }
    }

    #[test]
    fn display_and_names() {
        let p = physical("select a, b from t");
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

//! # tqp-baseline — row-oriented Volcano engine
//!
//! The reproduction's Apache Spark stand-in and differential-testing
//! oracle. It consumes exactly the same [`PhysicalPlan`] as the tensor
//! engine (`tqp-exec`) but executes it the classic row-at-a-time way:
//! rows are `Vec<Scalar>` with dynamic dispatch on every value — the
//! execution model whose per-tuple interpretation overhead TQP's vectorized
//! tensor kernels eliminate (the paper's Figure 1 comparison).
//!
//! Semantics notes (shared with `tqp-exec`, asserted by differential tests):
//!
//! * NULLs arise only from left-outer joins; expression evaluation follows
//!   three-valued logic ([`eval`]);
//! * global aggregates over empty input return 0 for SUM/AVG/MIN/MAX
//!   (documented simplification of SQL's NULL);
//! * `PREDICT` is evaluated per operator batch by materializing argument
//!   columns into tensors and invoking the model — faithfully modeling the
//!   "separate runtimes for relational and ML computations" integration the
//!   paper contrasts against (§3.3).

pub mod agg;
pub mod eval;

use std::collections::HashMap;

use tqp_data::{DataFrame, LogicalType};
use tqp_ir::physical::PhysicalPlan;
use tqp_ir::plan::JoinType;
use tqp_ir::BoundExpr;
use tqp_ml::ModelRegistry;
use tqp_tensor::Scalar;

use eval::{eval_expr, key_of, prepare_predicts, KeyPart};

/// A row of dynamically-typed values.
pub type Row = Vec<Scalar>;

/// The row engine: resolves scans against `tables`, `PREDICT` against
/// `models`, and executes a physical plan to a materialized `DataFrame`.
pub struct RowEngine<'a> {
    pub tables: &'a HashMap<String, DataFrame>,
    pub models: &'a ModelRegistry,
}

impl<'a> RowEngine<'a> {
    /// Construct an engine over a table map and model registry.
    pub fn new(tables: &'a HashMap<String, DataFrame>, models: &'a ModelRegistry) -> Self {
        RowEngine { tables, models }
    }

    /// Execute a plan into a result frame (schema from the plan).
    pub fn execute(&self, plan: &PhysicalPlan) -> DataFrame {
        let rows = self.run(plan);
        rows_to_frame(rows, plan)
    }

    /// Execute a plan into raw rows.
    pub fn run(&self, plan: &PhysicalPlan) -> Vec<Row> {
        match plan {
            PhysicalPlan::Scan {
                table, projection, ..
            } => {
                let frame = self
                    .tables
                    .get(table)
                    .unwrap_or_else(|| panic!("table {table} not registered"));
                let cols: Vec<usize> = match projection {
                    Some(p) => p.clone(),
                    None => (0..frame.ncols()).collect(),
                };
                (0..frame.nrows())
                    .map(|i| cols.iter().map(|&c| frame.column(c).get(i)).collect())
                    .collect()
            }
            PhysicalPlan::Filter { input, predicate } => {
                let rows = self.run(input);
                let (rows, pred) =
                    prepare_predicts(rows, std::slice::from_ref(predicate), self.models);
                let pred = &pred[0];
                rows.into_iter()
                    .filter(|r| matches!(eval_expr(pred, r), Scalar::Bool(true)))
                    .map(|mut r| {
                        r.truncate(input_arity_of(input));
                        r
                    })
                    .collect()
            }
            PhysicalPlan::Project { input, exprs, .. } => {
                let rows = self.run(input);
                let (rows, exprs) = prepare_predicts(rows, exprs, self.models);
                rows.iter()
                    .map(|r| exprs.iter().map(|e| eval_expr(e, r)).collect())
                    .collect()
            }
            PhysicalPlan::Join {
                left,
                right,
                join_type,
                on,
                residual,
                ..
            } => self.join(left, right, *join_type, on, residual.as_ref()),
            PhysicalPlan::CrossJoin { left, right } => {
                let l = self.run(left);
                let r = self.run(right);
                let mut out = Vec::with_capacity(l.len() * r.len());
                for lr in &l {
                    for rr in &r {
                        let mut row = lr.clone();
                        row.extend(rr.iter().cloned());
                        out.push(row);
                    }
                }
                out
            }
            PhysicalPlan::Aggregate {
                input,
                group_by,
                aggs,
                ..
            } => {
                let rows = self.run(input);
                // PREDICT may sit inside group keys or aggregate arguments
                // (Figure 4's `SUM(PREDICT(...))`): batch-prepare them all.
                let mut exprs: Vec<BoundExpr> = group_by.clone();
                for a in aggs {
                    if let Some(arg) = &a.arg {
                        exprs.push(arg.clone());
                    }
                }
                let (rows, prepared) = prepare_predicts(rows, &exprs, self.models);
                let group_by = prepared[..group_by.len()].to_vec();
                let mut aggs = aggs.clone();
                let mut k = group_by.len();
                for a in &mut aggs {
                    if a.arg.is_some() {
                        a.arg = Some(prepared[k].clone());
                        k += 1;
                    }
                }
                agg::aggregate(rows, &group_by, &aggs)
            }
            PhysicalPlan::Sort { input, keys } => {
                let mut rows = self.run(input);
                rows.sort_by(|a, b| {
                    for k in keys {
                        let va = eval_expr(&k.expr, a);
                        let vb = eval_expr(&k.expr, b);
                        let ord = va.cmp_sql(&vb);
                        let ord = if k.desc { ord.reverse() } else { ord };
                        if ord != std::cmp::Ordering::Equal {
                            return ord;
                        }
                    }
                    std::cmp::Ordering::Equal
                });
                rows
            }
            PhysicalPlan::Limit { input, n } => {
                let mut rows = self.run(input);
                rows.truncate(*n);
                rows
            }
        }
    }

    fn join(
        &self,
        left: &PhysicalPlan,
        right: &PhysicalPlan,
        join_type: JoinType,
        on: &[(usize, usize)],
        residual: Option<&BoundExpr>,
    ) -> Vec<Row> {
        let lrows = self.run(left);
        let rrows = self.run(right);
        let rarity = right.arity();
        let rkeys: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
        let table = build_row_table(&rrows, &rkeys);
        probe_row_table(&table, &lrows, &rrows, rarity, join_type, on, residual)
    }
}

/// The build side of the scalar hash join: key tuple → build-row indexes.
/// Shared by the row engine and the Wasm backend's scalar program VM
/// (where it executes the program's `HashBuild` op).
pub struct RowJoinTable {
    map: HashMap<Vec<KeyPart>, Vec<usize>>,
}

impl RowJoinTable {
    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no keyed rows were inserted.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Hash the build rows on `keys` (NULL keys never match, so they are not
/// inserted).
pub fn build_row_table(rows: &[Row], keys: &[usize]) -> RowJoinTable {
    assert!(
        !keys.is_empty(),
        "row joins require at least one equi key (plan bug)"
    );
    let mut map: HashMap<Vec<KeyPart>, Vec<usize>> = HashMap::new();
    for (i, r) in rows.iter().enumerate() {
        if let Some(k) = key_of(r, keys) {
            map.entry(k).or_default().push(i);
        }
    }
    RowJoinTable { map }
}

/// Probe a [`RowJoinTable`] row-at-a-time and assemble the join output
/// (the scalar analog of the program's `HashProbe` op).
pub fn probe_row_table(
    table: &RowJoinTable,
    lrows: &[Row],
    rrows: &[Row],
    rarity: usize,
    join_type: JoinType,
    on: &[(usize, usize)],
    residual: Option<&BoundExpr>,
) -> Vec<Row> {
    let mut pass = residual
        .map(|res| move |combined: &Row| matches!(eval_expr(res, combined), Scalar::Bool(true)));
    probe_row_table_with(
        table,
        lrows,
        rrows,
        rarity,
        join_type,
        on,
        pass.as_mut().map(|f| f as &mut dyn FnMut(&Row) -> bool),
    )
}

/// [`probe_row_table`] with the residual predicate abstracted to a
/// closure over the combined `left ++ right` row — the entry point used
/// by the scalar program VM, whose residuals are compiled `ExprProgram`s
/// rather than expression trees. The closure is `FnMut` so callers can
/// carry reusable evaluation scratch across the (pair-heavy) probe loop.
pub fn probe_row_table_with(
    table: &RowJoinTable,
    lrows: &[Row],
    rrows: &[Row],
    rarity: usize,
    join_type: JoinType,
    on: &[(usize, usize)],
    mut residual: Option<&mut dyn FnMut(&Row) -> bool>,
) -> Vec<Row> {
    let lkeys: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
    let mut matches_pass = |lrow: &Row, ridx: usize| -> bool {
        match residual.as_mut() {
            None => true,
            Some(pass) => {
                let mut combined = lrow.clone();
                combined.extend(rrows[ridx].iter().cloned());
                pass(&combined)
            }
        }
    };
    let mut out = Vec::new();
    for lrow in lrows {
        let key = key_of(lrow, &lkeys);
        let candidates: &[usize] = key
            .as_ref()
            .and_then(|k| table.map.get(k))
            .map(|v| v.as_slice())
            .unwrap_or(&[]);
        match join_type {
            JoinType::Inner => {
                for &ri in candidates {
                    if matches_pass(lrow, ri) {
                        let mut row = lrow.clone();
                        row.extend(rrows[ri].iter().cloned());
                        out.push(row);
                    }
                }
            }
            JoinType::Left => {
                let mut any = false;
                for &ri in candidates {
                    if matches_pass(lrow, ri) {
                        any = true;
                        let mut row = lrow.clone();
                        row.extend(rrows[ri].iter().cloned());
                        out.push(row);
                    }
                }
                if !any {
                    let mut row = lrow.clone();
                    row.extend(std::iter::repeat_n(Scalar::Null, rarity));
                    out.push(row);
                }
            }
            JoinType::Semi => {
                if candidates.iter().any(|&ri| matches_pass(lrow, ri)) {
                    out.push(lrow.clone());
                }
            }
            JoinType::Anti => {
                if !candidates.iter().any(|&ri| matches_pass(lrow, ri)) {
                    out.push(lrow.clone());
                }
            }
        }
    }
    out
}

/// Semi/anti probe of a table built over the **left** rows (the scalar
/// analog of a `HashProbe` with `build_left`): every right row looks up its
/// key and marks the left rows it matches; the marked (semi) or unmarked
/// (anti) left rows come out in left order — exactly what
/// [`probe_row_table_with`] returns from a right-built table.
pub fn probe_row_table_marking(
    table: &RowJoinTable,
    lrows: &[Row],
    rrows: &[Row],
    join_type: JoinType,
    on: &[(usize, usize)],
    mut residual: Option<&mut dyn FnMut(&Row) -> bool>,
) -> Vec<Row> {
    assert!(
        matches!(join_type, JoinType::Semi | JoinType::Anti),
        "only semi/anti joins build on the left (plan bug)"
    );
    let rkeys: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
    let mut matched = vec![false; lrows.len()];
    for rrow in rrows {
        let Some(candidates) = key_of(rrow, &rkeys).and_then(|k| table.map.get(&k)) else {
            continue;
        };
        for &li in candidates {
            if matched[li] {
                continue;
            }
            matched[li] = match residual.as_mut() {
                None => true,
                Some(pass) => {
                    let mut combined = lrows[li].clone();
                    combined.extend(rrow.iter().cloned());
                    pass(&combined)
                }
            };
        }
    }
    let keep = join_type == JoinType::Semi;
    lrows
        .iter()
        .zip(matched)
        .filter(|(_, m)| *m == keep)
        .map(|(row, _)| row.clone())
        .collect()
}

fn input_arity_of(plan: &PhysicalPlan) -> usize {
    plan.arity()
}

/// Materialize rows into a typed frame, applying the plan's output schema.
fn rows_to_frame(rows: Vec<Row>, plan: &PhysicalPlan) -> DataFrame {
    let schema = tqp_ir::physical::dedup_names(&plan.schema());
    rows_to_frame_with_schema(rows, &schema)
}

/// Materialize rows against an explicit (already deduplicated) schema —
/// the scalar program VM materializes against the program's schema.
pub fn rows_to_frame_with_schema(rows: Vec<Row>, schema: &[tqp_ir::ColMeta]) -> DataFrame {
    let fields: Vec<tqp_data::Field> = schema
        .iter()
        .map(|c| tqp_data::Field::new(c.name.clone(), c.ty))
        .collect();
    let ncols = fields.len();
    let mut cols: Vec<Vec<Scalar>> = vec![Vec::with_capacity(rows.len()); ncols];
    for row in rows {
        assert_eq!(row.len(), ncols, "row arity mismatch vs schema");
        for (c, v) in row.into_iter().enumerate() {
            cols[c].push(v);
        }
    }
    let columns = fields
        .iter()
        .zip(cols)
        .map(|(f, vals)| scalars_to_column(f.ty, vals, &f.name))
        .collect();
    DataFrame::new(tqp_data::Schema::new(fields), columns)
}

fn scalars_to_column(ty: LogicalType, vals: Vec<Scalar>, name: &str) -> tqp_data::Column {
    use tqp_data::Column;
    let no_null = |v: &Scalar| {
        assert!(
            !v.is_null(),
            "NULL in output column {name}; outer-join NULLs must be consumed by aggregates"
        )
    };
    match ty {
        LogicalType::Bool => Column::from_bool(
            vals.iter()
                .map(|v| {
                    no_null(v);
                    v.as_bool()
                })
                .collect(),
        ),
        LogicalType::Int64 => Column::from_i64(
            vals.iter()
                .map(|v| {
                    no_null(v);
                    v.as_i64()
                })
                .collect(),
        ),
        LogicalType::Float64 => Column::from_f64(
            vals.iter()
                .map(|v| {
                    no_null(v);
                    v.as_f64()
                })
                .collect(),
        ),
        LogicalType::Date => Column::from_date_ns(
            vals.iter()
                .map(|v| {
                    no_null(v);
                    v.as_i64()
                })
                .collect(),
        ),
        LogicalType::Str => Column::from_str(
            vals.iter()
                .map(|v| {
                    no_null(v);
                    v.as_str().to_owned()
                })
                .collect(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqp_data::frame::df;
    use tqp_data::Column;
    use tqp_ir::{compile_sql, Catalog, PhysicalOptions};

    fn setup() -> (HashMap<String, DataFrame>, Catalog) {
        let t = df(vec![
            ("id", Column::from_i64(vec![1, 2, 3, 4])),
            (
                "grp",
                Column::from_str(vec!["a".into(), "b".into(), "a".into(), "b".into()]),
            ),
            ("v", Column::from_f64(vec![10.0, 20.0, 30.0, 40.0])),
        ]);
        let u = df(vec![
            ("id", Column::from_i64(vec![2, 3, 3, 9])),
            ("w", Column::from_f64(vec![1.0, 2.0, 3.0, 4.0])),
        ]);
        let mut catalog = Catalog::new();
        catalog.register("t", t.schema().clone(), t.nrows());
        catalog.register("u", u.schema().clone(), u.nrows());
        let mut tables = HashMap::new();
        tables.insert("t".to_string(), t);
        tables.insert("u".to_string(), u);
        (tables, catalog)
    }

    fn run(sql: &str) -> DataFrame {
        let (tables, catalog) = setup();
        let plan = compile_sql(sql, &catalog, &PhysicalOptions::default()).unwrap();
        let models = ModelRegistry::new();
        RowEngine::new(&tables, &models).execute(&plan)
    }

    #[test]
    fn scan_filter_project() {
        let out = run("select id, v * 2 as vv from t where v > 15.0 order by id");
        assert_eq!(out.nrows(), 3);
        assert_eq!(out.column(1).get(0), Scalar::F64(40.0));
        assert_eq!(out.schema().fields[1].name, "vv");
    }

    #[test]
    fn inner_join_matches() {
        let out = run("select t.id, u.w from t, u where t.id = u.id order by t.id, u.w");
        assert_eq!(out.nrows(), 3); // id=2 once, id=3 twice
        assert_eq!(out.column(0).get(1), Scalar::I64(3));
    }

    #[test]
    fn group_by_aggregates() {
        let out = run(
            "select grp, sum(v) as s, count(*) as c, avg(v) as a, min(v) as mn, max(v) as mx \
             from t group by grp order by grp",
        );
        assert_eq!(out.nrows(), 2);
        assert_eq!(out.column(1).get(0), Scalar::F64(40.0)); // a: 10+30
        assert_eq!(out.column(2).get(1), Scalar::I64(2));
        assert_eq!(out.column(3).get(0), Scalar::F64(20.0));
        assert_eq!(out.column(4).get(1), Scalar::F64(20.0));
        assert_eq!(out.column(5).get(1), Scalar::F64(40.0));
    }

    #[test]
    fn semi_and_anti_joins() {
        let semi = run("select id from t where id in (select id from u) order by id");
        assert_eq!(semi.nrows(), 2);
        let anti = run("select id from t where id not in (select id from u) order by id");
        assert_eq!(anti.nrows(), 2);
        assert_eq!(anti.column(0).get(0), Scalar::I64(1));
    }

    #[test]
    fn left_join_null_then_count() {
        // Q13 shape: count(u.id) skips nulls.
        let out = run(
            "select t.id, count(u.id) as c from t left outer join u on t.id = u.id \
             group by t.id order by t.id",
        );
        assert_eq!(out.nrows(), 4);
        assert_eq!(out.column(1).get(0), Scalar::I64(0)); // id=1 no match
        assert_eq!(out.column(1).get(2), Scalar::I64(2)); // id=3 two matches
    }

    #[test]
    fn correlated_scalar_subquery() {
        let out = run(
            "select id from t where v > (select sum(w) * 10.0 from u where u.id = t.id) \
             order by id",
        );
        // id=2: v=20 vs 1*10 → keep; id=3: v=30 vs (2+3)*10=50 → drop.
        assert_eq!(out.nrows(), 1);
        assert_eq!(out.column(0).get(0), Scalar::I64(2));
    }

    #[test]
    fn exists_with_residual() {
        let out = run(
            "select id from t where exists (select * from u where u.id = t.id and u.w > 2.5) \
             order by id",
        );
        assert_eq!(out.nrows(), 1);
        assert_eq!(out.column(0).get(0), Scalar::I64(3));
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let out = run("select sum(v), count(*) from t where v > 1000.0");
        assert_eq!(out.nrows(), 1);
        assert_eq!(out.column(0).get(0), Scalar::F64(0.0));
        assert_eq!(out.column(1).get(0), Scalar::I64(0));
    }

    #[test]
    fn case_and_like() {
        let out = run("select sum(case when grp like 'a%' then 1 else 0 end) from t");
        assert_eq!(out.column(0).get(0), Scalar::I64(2));
    }

    #[test]
    fn distinct_and_count_distinct() {
        let out = run("select count(distinct grp) from t");
        assert_eq!(out.column(0).get(0), Scalar::I64(2));
        let out = run("select distinct grp from t order by grp");
        assert_eq!(out.nrows(), 2);
    }

    #[test]
    fn limit_truncates() {
        let out = run("select id from t order by id desc limit 2");
        assert_eq!(out.nrows(), 2);
        assert_eq!(out.column(0).get(0), Scalar::I64(4));
    }
}

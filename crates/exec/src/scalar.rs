//! The scalar **row VM** — executes a [`TensorProgram`] the way ORT-Web
//! runs a model in a browser: single-threaded, row-at-a-time, boxed
//! values, dynamic dispatch per value.
//!
//! This is the Wasm backend's interpreter. It consumes the *same lowered
//! program* (and the same serialized artifact) as the vectorized register
//! VM — the paper's portability claim §3.2: one compiled query, many
//! runtimes — but registers hold `Vec<Row>` instead of column tensors.
//! Expressions arrive **compiled**: the v2 artifact carries flat
//! [`ExprProgram`]s, and this VM walks those same flat ops row-at-a-time
//! ([`crate::exprprog::eval_row`]) — filter conjuncts short-circuit
//! per row through the program's conjunct cuts, `LIKE` patterns are
//! already compiled, and `PREDICT` splice points are batch-prepared
//! ([`crate::exprprog::prepare_model_applies`]) so the model still runs
//! once per batch. Join/aggregate/sort *algorithms* stay the scalar
//! row-engine primitives from `tqp-baseline`. `SortMergeJoin` ops are
//! honored with a hash build+probe: a scalar runtime has no vectorized
//! `searchsorted`, and equi-join semantics are algorithm-independent.

use std::collections::HashMap;

use tqp_baseline::{
    agg as row_agg, build_row_table, probe_row_table_marking, probe_row_table_with,
    rows_to_frame_with_schema, Row, RowJoinTable,
};
use tqp_data::DataFrame;
use tqp_ir::expr::{AggCall, BoundExpr};
use tqp_ml::ModelRegistry;
use tqp_tensor::Scalar;

use crate::exprprog::{
    self, eval_row_conjuncts, eval_row_outputs, prepare_model_applies, ExprProgram,
};
use crate::program::{ProgOp, ReduceExprs, TensorProgram};

/// A scalar-VM register: materialized rows (with their arity, which the
/// rows themselves cannot carry once empty), or a scalar join table.
enum RowValue {
    Rows { rows: Vec<Row>, arity: usize },
    Table(RowJoinTable),
}

impl RowValue {
    fn rows(&self) -> &Vec<Row> {
        match self {
            RowValue::Rows { rows, .. } => rows,
            RowValue::Table(_) => panic!("register holds a join table, expected rows"),
        }
    }

    /// Row width, correct even for empty inputs (an empty build side must
    /// still NULL-pad left-join output to the right schema's width).
    fn arity(&self) -> usize {
        match self {
            RowValue::Rows { arity, .. } => *arity,
            RowValue::Table(_) => panic!("register holds a join table, expected rows"),
        }
    }
}

/// Interpret a program over row-format tables (the sandbox copies made by
/// the Wasm backend), producing the materialized result frame.
pub fn run_program_scalar(
    prog: &TensorProgram,
    tables: &HashMap<String, DataFrame>,
    models: &ModelRegistry,
) -> DataFrame {
    run_program_scalar_profiled(prog, tables, models, None)
}

/// [`run_program_scalar`] with per-op span recording. Spans follow the
/// vectorized VM's conventions — keyed [`tqp_profile::op_key`] by program
/// index, rows = output rows (`HashBuild` charges its build-input rows) —
/// so `EXPLAIN ANALYZE` attribution is backend-invariant.
pub fn run_program_scalar_profiled(
    prog: &TensorProgram,
    tables: &HashMap<String, DataFrame>,
    models: &ModelRegistry,
    profiler: Option<&tqp_profile::Profiler>,
) -> DataFrame {
    let profiler = profiler.filter(|p| p.is_enabled());
    let mut regs: Vec<Option<RowValue>> = (0..prog.n_regs).map(|_| None).collect();
    for (idx, op) in prog.ops.iter().enumerate() {
        let start_us = profiler.map(|p| p.now_us()).unwrap_or(0);
        let t0 = std::time::Instant::now();
        let tally = std::sync::Arc::new(crate::sched::PredictTally::default());
        let value = crate::sched::with_predict_tally(&tally, || exec_op(op, &regs, tables, models));
        if let Some(p) = profiler {
            let rows = match (&value, op) {
                // The vectorized VM charges HashBuild with its build-side
                // input rows (the table itself has no output rows).
                (RowValue::Table(_), ProgOp::HashBuild { src, .. }) => {
                    regs[*src].as_ref().map(|v| v.rows().len()).unwrap_or(0)
                }
                (RowValue::Table(_), _) => 0,
                (RowValue::Rows { rows, .. }, _) => rows.len(),
            };
            p.record(
                &tqp_profile::op_key(&op.name(), idx),
                "relational",
                start_us,
                t0.elapsed().as_micros() as u64,
                rows as u64,
                0,
            );
            let (us, rows) = tally.get();
            if rows > 0 {
                p.record_predict(idx, us, rows);
            }
        }
        regs[op.dst()] = Some(value);
    }
    let rows = match regs[prog.output].take() {
        Some(RowValue::Rows { rows, .. }) => rows,
        _ => panic!("program output register does not hold rows"),
    };
    rows_to_frame_with_schema(rows, &prog.schema)
}

/// Evaluate a compiled residual over the combined `left ++ right` row
/// (NULL = no match). Residuals never carry `PREDICT` (the row engine
/// panics identically), so no batch preparation is needed here.
fn residual_pass(residual: &ExprProgram) -> impl FnMut(&Row) -> bool + '_ {
    // One scratch register file for the whole probe loop: sized on the
    // first pair, overwritten in place for every subsequent pair.
    let mut scratch = Vec::new();
    let out = residual.outputs[0];
    move |combined: &Row| {
        exprprog::eval_row(residual, combined, &mut scratch);
        matches!(scratch[out], Scalar::Bool(true))
    }
}

fn exec_op(
    op: &ProgOp,
    regs: &[Option<RowValue>],
    tables: &HashMap<String, DataFrame>,
    models: &ModelRegistry,
) -> RowValue {
    let reg_rows = |r: usize| regs[r].as_ref().expect("register live").rows();
    match op {
        ProgOp::Scan {
            table, projection, ..
        } => {
            let frame = tables
                .get(table)
                .unwrap_or_else(|| panic!("table {table} not in the sandbox"));
            let cols: Vec<usize> = match projection {
                Some(p) => p.clone(),
                None => (0..frame.ncols()).collect(),
            };
            let rows = (0..frame.nrows())
                .map(|i| cols.iter().map(|&c| frame.column(c).get(i)).collect())
                .collect();
            RowValue::Rows {
                rows,
                arity: cols.len(),
            }
        }
        ProgOp::Filter {
            src,
            conjuncts,
            keep,
            ..
        } => {
            let arity = regs[*src].as_ref().expect("register live").arity();
            let out_arity = keep.as_ref().map_or(arity, |cols| cols.len());
            // Constant-false short-circuit: an empty scan, no evaluation.
            if conjuncts.has_const_false_output() {
                return RowValue::Rows {
                    rows: Vec::new(),
                    arity: out_arity,
                };
            }
            let rows = reg_rows(*src).clone();
            // PREDICT inside predicates: batch-prepare, then scalar loops.
            let (rows, conjuncts) = prepare_model_applies(rows, conjuncts, models);
            let cuts = conjuncts.output_cuts();
            let mut scratch = Vec::new();
            let kept: Vec<Row> = rows
                .into_iter()
                .filter(|r| eval_row_conjuncts(&conjuncts, &cuts, r, &mut scratch))
                .map(|mut r| match keep {
                    Some(cols) => cols.iter().map(|&c| r[c].clone()).collect(),
                    None => {
                        r.truncate(arity);
                        r
                    }
                })
                .collect();
            RowValue::Rows {
                rows: kept,
                arity: out_arity,
            }
        }
        ProgOp::Project { src, exprs, .. } => {
            let rows = reg_rows(*src).clone();
            let (rows, exprs) = prepare_model_applies(rows, exprs, models);
            let arity = exprs.outputs.len();
            let mut scratch = Vec::new();
            RowValue::Rows {
                rows: rows
                    .iter()
                    .map(|r| eval_row_outputs(&exprs, r, &mut scratch))
                    .collect(),
                arity,
            }
        }
        ProgOp::HashBuild { src, keys, .. } => {
            RowValue::Table(build_row_table(reg_rows(*src), keys))
        }
        ProgOp::HashProbe {
            table,
            left,
            right,
            join_type,
            on,
            residual,
            build_left,
            ..
        } => {
            let t = match regs[*table].as_ref().expect("table register live") {
                RowValue::Table(t) => t,
                RowValue::Rows { .. } => panic!("probe register holds rows, expected a table"),
            };
            let lrows = reg_rows(*left);
            let rrows = reg_rows(*right);
            let larity = regs[*left].as_ref().expect("register live").arity();
            let rarity = regs[*right].as_ref().expect("register live").arity();
            let mut pass = residual.as_ref().map(residual_pass);
            let pass = pass.as_mut().map(|f| f as &mut dyn FnMut(&Row) -> bool);
            RowValue::Rows {
                rows: if *build_left {
                    probe_row_table_marking(t, lrows, rrows, *join_type, on, pass)
                } else {
                    probe_row_table_with(t, lrows, rrows, rarity, *join_type, on, pass)
                },
                arity: join_output_arity(*join_type, larity, rarity),
            }
        }
        ProgOp::SortMergeJoin {
            left,
            right,
            join_type,
            on,
            residual,
            ..
        } => {
            // A scalar runtime joins by hashing regardless of the
            // vectorized algorithm choice; semantics are identical.
            let lrows = reg_rows(*left);
            let rrows = reg_rows(*right);
            let larity = regs[*left].as_ref().expect("register live").arity();
            let rarity = regs[*right].as_ref().expect("register live").arity();
            let rkeys: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
            let t = build_row_table(rrows, &rkeys);
            let mut pass = residual.as_ref().map(residual_pass);
            RowValue::Rows {
                rows: probe_row_table_with(
                    &t,
                    lrows,
                    rrows,
                    rarity,
                    *join_type,
                    on,
                    pass.as_mut().map(|f| f as &mut dyn FnMut(&Row) -> bool),
                ),
                arity: join_output_arity(*join_type, larity, rarity),
            }
        }
        ProgOp::CrossJoin { left, right, .. } => {
            let l = reg_rows(*left);
            let r = reg_rows(*right);
            let mut out = Vec::with_capacity(l.len() * r.len());
            for lr in l {
                for rr in r {
                    let mut row = lr.clone();
                    row.extend(rr.iter().cloned());
                    out.push(row);
                }
            }
            let arity = regs[*left].as_ref().expect("register live").arity()
                + regs[*right].as_ref().expect("register live").arity();
            RowValue::Rows { rows: out, arity }
        }
        ProgOp::GroupedReduce { src, reduce, .. } => {
            let rows = reg_rows(*src).clone();
            RowValue::Rows {
                rows: grouped_reduce_rows(rows, reduce, models),
                arity: reduce.n_keys + reduce.aggs.len(),
            }
        }
        ProgOp::Sort {
            src,
            keys,
            desc,
            limit,
            ..
        } => {
            let rows = reg_rows(*src).clone();
            // Evaluate the compiled key program once per row, then stable-
            // sort on the cached key scalars (same comparator the tree
            // walk used: SQL ordering, desc per key).
            let mut scratch = Vec::new();
            let mut keyed: Vec<(Vec<Scalar>, Row)> = rows
                .into_iter()
                .map(|r| {
                    let k = eval_row_outputs(keys, &r, &mut scratch);
                    (k, r)
                })
                .collect();
            keyed.sort_by(|(ka, _), (kb, _)| {
                for (i, d) in desc.iter().enumerate() {
                    let ord = ka[i].cmp_sql(&kb[i]);
                    let ord = if *d { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            keyed.truncate(limit.unwrap_or(usize::MAX));
            let arity = regs[*src].as_ref().expect("register live").arity();
            RowValue::Rows {
                rows: keyed.into_iter().map(|(_, r)| r).collect(),
                arity,
            }
        }
        ProgOp::Limit { src, n, .. } => {
            let mut rows = reg_rows(*src).clone();
            rows.truncate(*n);
            let arity = regs[*src].as_ref().expect("register live").arity();
            RowValue::Rows { rows, arity }
        }
    }
}

/// Run a `GroupedReduce` in row format: batch-prepare any `PREDICT`,
/// evaluate the compiled key/argument bundle once per row, then hand the
/// pre-evaluated columns to the row engine's aggregation (whose grouping,
/// NULL-skipping, and DISTINCT semantics are unchanged).
fn grouped_reduce_rows(rows: Vec<Row>, reduce: &ReduceExprs, models: &ModelRegistry) -> Vec<Row> {
    let (rows, exprs) = prepare_model_applies(rows, &reduce.exprs, models);
    let mut scratch = Vec::new();
    let eval_rows: Vec<Row> = rows
        .iter()
        .map(|r| eval_row_outputs(&exprs, r, &mut scratch))
        .collect();
    // The evaluated rows are `[keys…, args…]`; aggregation consumes them
    // through plain column references.
    let group_by: Vec<BoundExpr> = (0..reduce.n_keys)
        .map(|k| BoundExpr::col(k, exprs.out_tys[k]))
        .collect();
    let aggs: Vec<AggCall> = reduce
        .aggs
        .iter()
        .map(|call| AggCall {
            func: call.func,
            arg: call
                .arg
                .map(|slot| BoundExpr::col(slot, exprs.out_tys[slot])),
            ty: call.ty,
        })
        .collect();
    row_agg::aggregate(eval_rows, &group_by, &aggs)
}

/// Output width of a join: Semi/Anti keep the left schema, Inner/Left
/// concatenate both sides.
fn join_output_arity(join_type: tqp_ir::plan::JoinType, larity: usize, rarity: usize) -> usize {
    use tqp_ir::plan::JoinType as J;
    match join_type {
        J::Semi | J::Anti => larity,
        J::Inner | J::Left => larity + rarity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::lower;
    use tqp_data::frame::df;
    use tqp_data::Column;
    use tqp_ir::{compile_sql, Catalog, JoinStrategy, PhysicalOptions};

    fn tables() -> (HashMap<String, DataFrame>, Catalog) {
        let t = df(vec![
            ("id", Column::from_i64(vec![1, 2, 3, 4])),
            ("v", Column::from_f64(vec![10.0, 20.0, 30.0, 40.0])),
        ]);
        let u = df(vec![
            ("id", Column::from_i64(vec![2, 3, 3])),
            ("w", Column::from_f64(vec![1.0, 2.0, 3.0])),
        ]);
        // An empty table with u's schema (empty-build-side join coverage).
        let e = df(vec![
            ("id", Column::from_i64(vec![])),
            ("w", Column::from_f64(vec![])),
        ]);
        let mut catalog = Catalog::new();
        catalog.register("t", t.schema().clone(), t.nrows());
        catalog.register("u", u.schema().clone(), u.nrows());
        catalog.register("e", e.schema().clone(), e.nrows());
        let mut map = HashMap::new();
        map.insert("t".to_string(), t);
        map.insert("u".to_string(), u);
        map.insert("e".to_string(), e);
        (map, catalog)
    }

    fn run(sql: &str, opts: PhysicalOptions) -> DataFrame {
        let (tables, catalog) = tables();
        let plan = compile_sql(sql, &catalog, &opts).unwrap();
        let prog = lower(&plan);
        run_program_scalar(&prog, &tables, &ModelRegistry::new())
    }

    #[test]
    fn scalar_vm_runs_filters_and_aggregates() {
        let out = run(
            "select count(*) as c, sum(v) as s from t where v > 15.0",
            PhysicalOptions::default(),
        );
        assert_eq!(out.column(0).get(0).as_i64(), 3);
        assert_eq!(out.column(1).get(0).as_f64(), 90.0);
    }

    #[test]
    fn constant_false_filter_yields_no_rows() {
        let out = run(
            "select count(*) as c from t where 1 = 2",
            PhysicalOptions::default(),
        );
        assert_eq!(out.column(0).get(0).as_i64(), 0);
    }

    #[test]
    fn left_join_with_empty_build_side_null_pads() {
        // Regression: an empty right side must still pad left-join output
        // to the right schema's width (arity travels in the register, not
        // in the rows). Output must match the vectorized VM exactly.
        use crate::vm;
        use tqp_ir::JoinStrategy;
        let (tables, catalog) = tables();
        let sql = "select t.id, count(e.w) as c from t left outer join e on t.id = e.id \
                   group by t.id order by t.id";
        for join in [JoinStrategy::SortMerge, JoinStrategy::Hash] {
            let opts = PhysicalOptions {
                join: Some(join),
                ..Default::default()
            };
            let plan = compile_sql(sql, &catalog, &opts).unwrap();
            let prog = lower(&plan);
            let scalar_out = run_program_scalar(&prog, &tables, &ModelRegistry::new());
            let storage = crate::ingest_tables(&tables);
            let (vec_out, _, _) = vm::run_program(
                &prog,
                &storage,
                &ModelRegistry::new(),
                &tqp_profile::Profiler::disabled(),
                crate::ExecConfig::default(),
            );
            assert_eq!(scalar_out.nrows(), vec_out.nrows(), "{join:?}");
            for i in 0..scalar_out.nrows() {
                assert_eq!(scalar_out.row(i), vec_out.row(i), "{join:?} row {i}");
            }
        }
    }

    #[test]
    fn scalar_vm_joins_on_both_strategies() {
        for join in [JoinStrategy::SortMerge, JoinStrategy::Hash] {
            let out = run(
                "select t.id, u.w from t, u where t.id = u.id order by t.id, u.w",
                PhysicalOptions {
                    join: Some(join),
                    ..Default::default()
                },
            );
            assert_eq!(out.nrows(), 3, "{join:?}");
            assert_eq!(out.column(0).get(2).as_i64(), 3);
        }
    }
}

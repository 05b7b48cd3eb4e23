//! Differential fuzzing: random micro-tables + randomized query parameters,
//! tensor engine (Eager and Fused) vs the row oracle. This covers
//! the operator space beyond what the 22 fixed TPC-H queries exercise.

use proptest::prelude::*;
use tqp_repro::baseline::RowEngine;
use tqp_repro::core::{QueryConfig, Session};
use tqp_repro::data::frame::df;
use tqp_repro::data::LogicalType;
use tqp_repro::data::{Column, DataFrame};
use tqp_repro::exec::Backend;
use tqp_repro::ir::physical::PhysicalPlan;
use tqp_repro::ir::plan::{ColMeta, JoinType, SortKey};
use tqp_repro::ir::{BinOp, BoundExpr};
use tqp_tensor::Scalar;

fn canon(frame: &DataFrame) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = (0..frame.nrows())
        .map(|i| {
            frame
                .row(i)
                .into_iter()
                .map(|s| match s {
                    Scalar::F64(v) => format!("{:.6}", v),
                    other => other.to_string(),
                })
                .collect()
        })
        .collect();
    rows.sort();
    rows
}

fn check_all_configs(session: &Session, sql: &str) -> Result<(), TestCaseError> {
    let oracle = session
        .sql_baseline(sql)
        .map_err(|e| TestCaseError::fail(format!("oracle failed on {sql}: {e}")))?;
    let expect = canon(&oracle);
    for backend in [Backend::Eager, Backend::Fused] {
        let cfg = QueryConfig::default().backend(backend);
        let q = session
            .compile(sql, cfg)
            .map_err(|e| TestCaseError::fail(format!("compile {sql}: {e}")))?;
        let (out, _) = q
            .run(session)
            .map_err(|e| TestCaseError::fail(format!("run {sql}: {e}")))?;
        prop_assert_eq!(
            canon(&out),
            expect.clone(),
            "{:?} disagrees on {}",
            backend,
            sql
        );
    }
    Ok(())
}

/// Run a hand-built plan on the tensor engine (both VM modes, 1 and 4
/// workers) and require the row engine's result **bitwise, in order**.
fn check_plan_bitwise(
    session: &Session,
    plan: &PhysicalPlan,
    what: &str,
) -> Result<(), TestCaseError> {
    let oracle = RowEngine::new(session.frames(), session.models()).execute(plan);
    for backend in [Backend::Eager, Backend::Fused] {
        for workers in [1, 4] {
            let cfg = QueryConfig::default().backend(backend).workers(workers);
            let (out, _) = session
                .compile_plan(plan, cfg)
                .and_then(|q| q.run(session))
                .map_err(|e| TestCaseError::fail(format!("run {what}: {e}")))?;
            prop_assert_eq!(
                out.nrows(),
                oracle.nrows(),
                "{} {:?}/{}",
                what,
                backend,
                workers
            );
            for i in 0..out.nrows() {
                prop_assert_eq!(
                    out.row(i),
                    oracle.row(i),
                    "{} {:?}/{} row {}",
                    what,
                    backend,
                    workers,
                    i
                );
            }
        }
    }
    Ok(())
}

fn scan(session: &Session, table: &str) -> PhysicalPlan {
    let schema = &session.catalog().get(table).expect("registered").schema;
    PhysicalPlan::Scan {
        table: table.to_string(),
        schema: schema
            .fields
            .iter()
            .map(|f| ColMeta::qualified(table, f.name.clone(), f.ty))
            .collect(),
        projection: None,
    }
}

/// Keep output columns `cols` of `input` (drops the NULL-able ones a left
/// outer join below may have made).
fn project(input: PhysicalPlan, cols: &[usize]) -> PhysicalPlan {
    let schema = input.schema();
    PhysicalPlan::Project {
        exprs: cols
            .iter()
            .map(|&c| BoundExpr::col(c, schema[c].ty))
            .collect(),
        schema: cols.iter().map(|&c| schema[c].clone()).collect(),
        input: Box::new(input),
    }
}

fn table_t(rows: &[(i64, i64, f64, u8)]) -> DataFrame {
    df(vec![
        ("id", Column::from_i64(rows.iter().map(|r| r.0).collect())),
        ("k", Column::from_i64(rows.iter().map(|r| r.1).collect())),
        ("v", Column::from_f64(rows.iter().map(|r| r.2).collect())),
        (
            "tag",
            Column::from_str(
                rows.iter()
                    .map(|r| ["aa", "ab", "bb", "cc"][(r.3 % 4) as usize].to_string())
                    .collect(),
            ),
        ),
    ])
}

fn table_u(rows: &[(i64, f64)]) -> DataFrame {
    df(vec![
        ("k", Column::from_i64(rows.iter().map(|r| r.0).collect())),
        ("w", Column::from_f64(rows.iter().map(|r| r.1).collect())),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn filters_and_aggregates_agree(
        rows in prop::collection::vec((0i64..50, 0i64..6, -100f64..100.0, any::<u8>()), 0..120),
        thr in -50f64..50.0,
        kcut in 0i64..6,
    ) {
        let mut session = Session::new();
        session.register_table("t", table_t(&rows));
        // Plain filter + projection.
        let sql = format!(
            "select id, v * 2 + 1 as vv, tag from t where v < {thr:.3} and k >= {kcut} order by id, vv, tag"
        );
        check_all_configs(&session, &sql)?;
        // Grouped aggregates over a filtered input.
        let sql = format!(
            "select k, count(*) as c, sum(v) as s, min(v) as mn, max(v) as mx, \
             avg(v) as a, count(distinct tag) as dt \
             from t where v > {thr:.3} group by k order by k"
        );
        check_all_configs(&session, &sql)?;
        // Global aggregate with CASE + LIKE.
        let sql = "select sum(case when tag like 'a%' then 1 else 0 end), count(*) from t";
        check_all_configs(&session, sql)?;
    }

    #[test]
    fn joins_agree(
        t_rows in prop::collection::vec((0i64..30, 0i64..8, -50f64..50.0, any::<u8>()), 0..60),
        u_rows in prop::collection::vec((0i64..8, -50f64..50.0), 0..40),
    ) {
        let mut session = Session::new();
        session.register_table("t", table_t(&t_rows));
        session.register_table("u", table_u(&u_rows));
        // Inner join with post-join filter and aggregation.
        let sql = "select t.k, count(*) as c, sum(u.w) as sw from t, u \
                   where t.k = u.k and u.w > -20.0 group by t.k order by t.k";
        check_all_configs(&session, sql)?;
        // Semi / anti via IN and NOT EXISTS.
        let sql = "select id from t where k in (select k from u where w > 0.0) order by id";
        check_all_configs(&session, sql)?;
        let sql = "select id from t where not exists \
                   (select * from u where u.k = t.k) order by id";
        check_all_configs(&session, sql)?;
        // Left outer join feeding COUNT (the Q13 pattern).
        let sql = "select t.id, count(u.k) as c from t left outer join u on t.k = u.k \
                   group by t.id order by t.id";
        check_all_configs(&session, sql)?;
    }

    // Hash joins on either build side against the row engine: semi/anti
    // joins built on the left and on the right, and inner joins with the
    // inputs in both orders (what join ordering's build-side swap emits),
    // over duplicate-heavy keys, NULL keys (a left outer join below the
    // join pads them), an empty input on either side, and a residual.
    #[test]
    fn hash_joins_on_either_build_side_match_the_row_engine(
        t_rows in prop::collection::vec((0i64..12, 0i64..5, -50f64..50.0, any::<u8>()), 0..50),
        u_rows in prop::collection::vec((0i64..7, -50f64..50.0), 0..40),
    ) {
        let mut session = Session::new();
        session.register_table("t", table_t(&t_rows));
        session.register_table("u", table_u(&u_rows));
        // t(id, k, v, tag) left-joined to u on `id = k`: columns 4 (u.k) and
        // 5 (u.w) are NULL for unmatched t rows. The engines emit a left
        // join's unmatched rows at different positions, so sort on t's
        // columns (the rows of one t row stay in their common order).
        let padded = PhysicalPlan::Join {
            left: Box::new(scan(&session, "t")),
            right: Box::new(scan(&session, "u")),
            join_type: JoinType::Left,
            on: vec![(0, 0)],
            residual: None,
            build_left: false,
        };
        let padded = PhysicalPlan::Sort {
            keys: (0..4)
                .map(|c| SortKey {
                    expr: BoundExpr::col(c, padded.schema()[c].ty),
                    desc: false,
                })
                .collect(),
            input: Box::new(padded),
        };
        // (left input, its key column, the columns to keep of it).
        let lefts = [(scan(&session, "t"), 1, [0, 2]), (padded, 4, [0, 2])];
        for (left, key, keep) in &lefts {
            let arity = left.schema().len();
            // `left.v < u.w` over the combined (left ++ u) row.
            let residual = BoundExpr::Binary {
                op: BinOp::Lt,
                left: Box::new(BoundExpr::col(2, LogicalType::Float64)),
                right: Box::new(BoundExpr::col(arity + 1, LogicalType::Float64)),
                ty: LogicalType::Bool,
            };
            for residual in [None, Some(residual)] {
                for join_type in [JoinType::Semi, JoinType::Anti] {
                    for build_left in [false, true] {
                        let join = PhysicalPlan::Join {
                            left: Box::new(left.clone()),
                            right: Box::new(scan(&session, "u")),
                            join_type,
                            on: vec![(*key, 0)],
                            residual: residual.clone(),
                            build_left,
                        };
                        let what = format!(
                            "{join_type:?} build_left={build_left} key={key} residual={}",
                            residual.is_some()
                        );
                        check_plan_bitwise(&session, &project(join, keep), &what)?;
                    }
                }
                // Inner, with `left` probing and with `left` as the build
                // side (inputs swapped; the residual sees u's columns first).
                let probing = PhysicalPlan::Join {
                    left: Box::new(left.clone()),
                    right: Box::new(scan(&session, "u")),
                    join_type: JoinType::Inner,
                    on: vec![(*key, 0)],
                    residual: residual.clone(),
                    build_left: false,
                };
                let what = format!("Inner key={key} residual={}", residual.is_some());
                check_plan_bitwise(
                    &session,
                    &project(probing, &[keep[0], keep[1], arity + 1]),
                    &what,
                )?;
                let built = PhysicalPlan::Join {
                    left: Box::new(scan(&session, "u")),
                    right: Box::new(left.clone()),
                    join_type: JoinType::Inner,
                    on: vec![(0, *key)],
                    residual: residual.clone().map(|r| {
                        r.transform(&|e| match e {
                            BoundExpr::Column { index, ty } => BoundExpr::Column {
                                index: if index < arity { index + 2 } else { index - arity },
                                ty,
                            },
                            other => other,
                        })
                    }),
                    build_left: false,
                };
                check_plan_bitwise(
                    &session,
                    &project(built, &[keep[0] + 2, keep[1] + 2, 1]),
                    &format!("swapped {what}"),
                )?;
            }
        }
    }

    #[test]
    fn correlated_subqueries_agree(
        t_rows in prop::collection::vec((0i64..20, 0i64..5, -50f64..50.0, any::<u8>()), 1..50),
        u_rows in prop::collection::vec((0i64..5, -50f64..50.0), 1..30),
    ) {
        let mut session = Session::new();
        session.register_table("t", table_t(&t_rows));
        session.register_table("u", table_u(&u_rows));
        // Correlated scalar aggregate (the Q17 pattern).
        let sql = "select id from t where v > \
                   (select avg(w) from u where u.k = t.k) order by id";
        check_all_configs(&session, sql)?;
        // Uncorrelated scalar (the Q22 pattern).
        let sql = "select id from t where v > (select avg(w) from u) order by id";
        check_all_configs(&session, sql)?;
    }

    #[test]
    fn order_limit_distinct_agree(
        rows in prop::collection::vec((0i64..40, 0i64..6, -100f64..100.0, any::<u8>()), 0..100),
        lim in 1usize..20,
    ) {
        let mut session = Session::new();
        session.register_table("t", table_t(&rows));
        // LIMIT needs a total order to be deterministic across engines:
        // order by unique id.
        let sql = format!("select id, v from t order by id limit {lim}");
        check_all_configs(&session, &sql)?;
        let sql = "select distinct tag, k from t order by tag, k";
        check_all_configs(&session, sql)?;
    }
}

/// `n` rows of `t(id, k, v, tag)` derived from `seed`: `k` all-distinct or
/// drawn from 37 values, `v` in `[-100, 100)`.
fn big_table_t(n: usize, seed: u64, distinct: bool) -> DataFrame {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let rows: Vec<(i64, i64, f64, u8)> = (0..n as i64)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = if distinct {
                (i * 7919 + seed as i64) % 1_000_003
            } else {
                (x % 37) as i64
            };
            let v = (x >> 11) as f64 / (1u64 << 53) as f64 * 200.0 - 100.0;
            (i, k, v, (x >> 3) as u8)
        })
        .collect();
    table_t(&rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // Both aggregation shapes against the row engine, on duplicate-heavy
    // and all-distinct keys, at one and four workers, fed by a fused
    // scan→filter chain and by a barrier (a sort). The partitioned shape
    // folds every group in input order — the row engine's own order — so
    // it must agree bitwise and in order; per-morsel partials associate
    // float sums differently and agree to the printed precision.
    #[test]
    fn both_aggregation_shapes_match_the_row_engine(
        seed in 0u64..10_000,
        distinct in any::<bool>(),
        thr in -90f64..60.0,
    ) {
        use tqp_repro::ir::{AggCall, AggFunc};
        let n = 2 * tqp_repro::exec::agg::par_min_rows() + 1234;
        let mut session = Session::new();
        session.register_table("t", big_table_t(n, seed, distinct));
        let t = scan(&session, "t");
        let kept = PhysicalPlan::Filter {
            predicate: BoundExpr::Binary {
                op: BinOp::Gt,
                left: Box::new(BoundExpr::col(2, LogicalType::Float64)),
                right: Box::new(BoundExpr::lit_f64(thr)),
                ty: LogicalType::Bool,
            },
            input: Box::new(t.clone()),
        };
        let sorted = PhysicalPlan::Sort {
            keys: vec![SortKey { expr: BoundExpr::col(0, LogicalType::Int64), desc: false }],
            input: Box::new(kept.clone()),
        };
        let call = |func, col: Option<usize>, ty| AggCall {
            func,
            arg: col.map(|c| BoundExpr::col(c, t.schema()[c].ty)),
            ty,
        };
        let aggs = vec![
            call(AggFunc::CountStar, None, LogicalType::Int64),
            call(AggFunc::Sum, Some(2), LogicalType::Float64),
            call(AggFunc::Avg, Some(2), LogicalType::Float64),
            call(AggFunc::Min, Some(2), LogicalType::Float64),
            call(AggFunc::Max, Some(3), LogicalType::Str),
            call(AggFunc::Sum, Some(0), LogicalType::Int64),
        ];
        let mut with_distinct = aggs.clone();
        with_distinct.push(call(AggFunc::CountDistinct, Some(3), LogicalType::Int64));
        for (route, input) in [("fused", &kept), ("barrier", &sorted)] {
            // (estimate, aggregates): none → partials, many → partitioned
            // (where COUNT(DISTINCT) may ride along).
            for (groups, aggs) in [(None, &aggs), (Some(n as u64), &with_distinct)] {
                let mut schema = vec![t.schema()[1].clone()];
                schema.extend(aggs.iter().enumerate().map(|(i, a)| ColMeta::new(format!("a{i}"), a.ty)));
                let plan = PhysicalPlan::Aggregate {
                    input: Box::new(input.clone()),
                    group_by: vec![BoundExpr::col(1, LogicalType::Int64)],
                    aggs: aggs.clone(),
                    schema,
                    groups,
                };
                let oracle = RowEngine::new(session.frames(), session.models()).execute(&plan);
                for backend in [Backend::Eager, Backend::Fused] {
                    for workers in [1, 4] {
                        let cfg = QueryConfig::default().backend(backend).workers(workers);
                        let (out, _) = session
                            .compile_plan(&plan, cfg)
                            .and_then(|q| q.run(&session))
                            .map_err(|e| TestCaseError::fail(format!("run: {e}")))?;
                        let what = format!("{route} groups={groups:?} {backend:?}/{workers}");
                        if groups.is_some() {
                            prop_assert_eq!(out.nrows(), oracle.nrows(), "{}", &what);
                            for i in 0..out.nrows() {
                                prop_assert_eq!(out.row(i), oracle.row(i), "{} row {}", &what, i);
                            }
                        } else {
                            prop_assert_eq!(canon(&out), canon(&oracle), "{}", &what);
                        }
                    }
                }
            }
        }
    }
}

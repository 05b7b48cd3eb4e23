//! Plan-shape regression tests: the optimizer must produce the *expected
//! operator structure* for representative TPC-H queries — no Cartesian
//! products where joins exist, subqueries fully decorrelated, filters pushed
//! to scans, and scans pruned to the referenced columns.

use tqp_repro::data::tpch::queries;
use tqp_repro::ir::physical::PhysicalPlan;
use tqp_repro::ir::plan::JoinType;
use tqp_repro::ir::{compile_sql, Catalog, PhysicalOptions};

fn plan(n: usize) -> PhysicalPlan {
    let catalog = Catalog::tpch(1.0);
    compile_sql(queries::query(n), &catalog, &PhysicalOptions)
        .unwrap_or_else(|e| panic!("Q{n}: {e}"))
}

fn count(p: &PhysicalPlan, pred: &dyn Fn(&PhysicalPlan) -> bool) -> usize {
    let mut n = usize::from(pred(p));
    for c in p.children() {
        n += count(c, pred);
    }
    n
}

fn joins_of(p: &PhysicalPlan) -> Vec<JoinType> {
    let mut out = Vec::new();
    fn go(p: &PhysicalPlan, out: &mut Vec<JoinType>) {
        if let PhysicalPlan::Join { join_type, .. } = p {
            out.push(*join_type);
        }
        for c in p.children() {
            go(c, out);
        }
    }
    go(p, &mut out);
    out
}

fn cross_joins(p: &PhysicalPlan) -> usize {
    count(p, &|n| matches!(n, PhysicalPlan::CrossJoin { .. }))
}

#[test]
fn q1_is_scan_filter_agg_sort() {
    let p = plan(1);
    assert_eq!(count(&p, &|n| matches!(n, PhysicalPlan::Join { .. })), 0);
    assert_eq!(
        count(&p, &|n| matches!(n, PhysicalPlan::Aggregate { .. })),
        1
    );
    assert_eq!(count(&p, &|n| matches!(n, PhysicalPlan::Sort { .. })), 1);
    // Column pruning: Q1 touches 7 of lineitem's 16 columns.
    fn scan_width(p: &PhysicalPlan) -> Option<usize> {
        match p {
            PhysicalPlan::Scan {
                projection, schema, ..
            } => Some(projection.as_ref().map_or(schema.len(), |x| x.len())),
            _ => p.children().into_iter().find_map(scan_width),
        }
    }
    assert_eq!(scan_width(&p), Some(7));
}

#[test]
fn q2_decorrelates_min_subquery_into_grouped_join() {
    let p = plan(2);
    // The correlated MIN becomes an Inner join against a grouped aggregate;
    // the 5-way and 4-way comma joins become equi-join trees.
    assert_eq!(cross_joins(&p), 0, "Q2 must not contain Cartesian products");
    let grouped_aggs = count(&p, &|n| {
        matches!(
            n,
            PhysicalPlan::Aggregate { group_by, .. } if !group_by.is_empty()
        )
    });
    assert_eq!(
        grouped_aggs, 1,
        "the decorrelated MIN is grouped by ps_partkey"
    );
    assert!(joins_of(&p).len() >= 8, "both join pyramids survive");
}

#[test]
fn q4_exists_becomes_semi_join() {
    let p = plan(4);
    assert_eq!(joins_of(&p), vec![JoinType::Semi]);
    assert_eq!(cross_joins(&p), 0);
}

#[test]
fn q5_builds_full_join_tree() {
    let p = plan(5);
    assert_eq!(cross_joins(&p), 0, "6-table comma join fully extracted");
    assert_eq!(joins_of(&p).len(), 5);
}

#[test]
fn q13_left_join_with_pushed_right_filter() {
    let p = plan(13);
    let jts = joins_of(&p);
    assert!(jts.contains(&JoinType::Left));
    // The NOT LIKE on o_comment must sit on the right side *below* the join.
    fn left_join_right_has_filter(p: &PhysicalPlan) -> bool {
        match p {
            PhysicalPlan::Join {
                join_type: JoinType::Left,
                right,
                ..
            } => {
                fn has_filter(p: &PhysicalPlan) -> bool {
                    matches!(p, PhysicalPlan::Filter { .. })
                        || p.children().into_iter().any(has_filter)
                }
                has_filter(right)
            }
            _ => p.children().into_iter().any(left_join_right_has_filter),
        }
    }
    assert!(left_join_right_has_filter(&p));
}

#[test]
fn q16_not_in_becomes_anti_join() {
    let p = plan(16);
    assert!(joins_of(&p).contains(&JoinType::Anti));
    assert_eq!(cross_joins(&p), 0);
}

#[test]
fn q17_correlated_avg_decorrelated() {
    let p = plan(17);
    assert_eq!(cross_joins(&p), 0);
    let grouped_aggs = count(&p, &|n| {
        matches!(
            n,
            PhysicalPlan::Aggregate { group_by, .. } if !group_by.is_empty()
        )
    });
    assert!(grouped_aggs >= 1, "avg-per-partkey aggregate exists");
}

#[test]
fn q19_or_hoisting_extracts_the_join() {
    let p = plan(19);
    assert_eq!(
        cross_joins(&p),
        0,
        "common p_partkey = l_partkey must be hoisted from the OR"
    );
    assert_eq!(joins_of(&p).len(), 1);
    // The residual OR survives as a filter above the join.
    fn join_has_filter_above(p: &PhysicalPlan) -> bool {
        match p {
            PhysicalPlan::Filter { input, .. } => {
                matches!(**input, PhysicalPlan::Join { .. }) || join_has_filter_above(input)
            }
            _ => p.children().into_iter().any(join_has_filter_above),
        }
    }
    assert!(join_has_filter_above(&p));
}

#[test]
fn q21_has_semi_and_anti_with_residuals() {
    let p = plan(21);
    let jts = joins_of(&p);
    assert!(jts.contains(&JoinType::Semi), "EXISTS → semi");
    assert!(jts.contains(&JoinType::Anti), "NOT EXISTS → anti");
    // The `l2.l_suppkey <> l1.l_suppkey` correlation rides as a residual.
    fn any_semi_anti_residual(p: &PhysicalPlan) -> bool {
        match p {
            PhysicalPlan::Join {
                join_type: JoinType::Semi | JoinType::Anti,
                residual: Some(_),
                ..
            } => true,
            _ => p.children().into_iter().any(any_semi_anti_residual),
        }
    }
    assert!(any_semi_anti_residual(&p));
}

#[test]
fn q22_anti_join_and_scalar_cross() {
    let p = plan(22);
    let jts = joins_of(&p);
    assert!(
        jts.contains(&JoinType::Anti),
        "NOT EXISTS orders → anti join"
    );
    // The uncorrelated AVG subquery becomes a single-row cross join.
    assert!(cross_joins(&p) >= 1);
}

/// Join-order regression for the stats-fed selectivity estimates: with a
/// catalog carrying **real column statistics** (the state every
/// `Session`-registered table now has), all 22 queries must still plan
/// with the same structural invariants the schema-only catalog produces —
/// no Cartesian products appearing, no joins lost, decorrelation intact.
#[test]
fn stats_fed_catalog_does_not_regress_join_orders() {
    use tqp_repro::data::tpch::{TpchConfig, TpchData};
    let data = TpchData::generate(&TpchConfig {
        scale_factor: 0.01,
        seed: 7,
    });
    let mut stats_catalog = Catalog::new();
    for (name, frame) in data.tables() {
        stats_catalog.register_with_stats(
            name,
            frame.schema().clone(),
            tqp_repro::data::stats::frame_stats(frame),
        );
    }
    let plain_catalog = Catalog::tpch(0.01);
    for n in 1..=22 {
        let with_stats = compile_sql(queries::query(n), &stats_catalog, &PhysicalOptions)
            .unwrap_or_else(|e| panic!("Q{n} (stats): {e}"));
        let without = compile_sql(queries::query(n), &plain_catalog, &PhysicalOptions)
            .unwrap_or_else(|e| panic!("Q{n}: {e}"));
        // Same operator census: stats may reorder joins but must not
        // introduce Cartesian products or drop/add join edges.
        assert_eq!(
            cross_joins(&with_stats),
            cross_joins(&without),
            "Q{n}: cross-join count changed with statistics"
        );
        let mut a = joins_of(&with_stats);
        let mut b = joins_of(&without);
        a.sort_by_key(|j| format!("{j:?}"));
        b.sort_by_key(|j| format!("{j:?}"));
        assert_eq!(a, b, "Q{n}: join multiset changed with statistics");
    }
}

#[test]
fn no_query_retains_subqueries_or_outer_refs() {
    for n in 1..=22 {
        let p = plan(n);
        fn exprs_clean(p: &PhysicalPlan) -> bool {
            use tqp_repro::ir::BoundExpr;
            let check = |e: &BoundExpr| -> bool {
                let mut ok = true;
                e.visit(&mut |x| {
                    if x.has_subquery() || matches!(x, BoundExpr::OuterRef { .. }) {
                        ok = false;
                    }
                });
                ok
            };
            let own = match p {
                PhysicalPlan::Filter { predicate, .. } => check(predicate),
                PhysicalPlan::Project { exprs, .. } => exprs.iter().all(check),
                PhysicalPlan::Join { residual, .. } => residual.as_ref().is_none_or(check),
                PhysicalPlan::Aggregate { group_by, aggs, .. } => {
                    group_by.iter().all(check)
                        && aggs.iter().all(|a| a.arg.as_ref().is_none_or(check))
                }
                PhysicalPlan::Sort { keys, .. } => keys.iter().all(|k| check(&k.expr)),
                _ => true,
            };
            own && p.children().into_iter().all(exprs_clean)
        }
        assert!(exprs_clean(&p), "Q{n} has undecorrelated expressions");
    }
}

// ---------------------------------------------------------------------
// Cost-based planning: plan quality on real statistics
// ---------------------------------------------------------------------

/// Inner-join order under the schema-only catalog, per query: for every
/// inner join in post-order, the base tables beneath it (a semi/anti
/// join counts for its left input only). Pinned from the commit before
/// cost-based planning: without column statistics every join estimate is
/// still `max(left, right)`, so the order must not move. The signature
/// does not see which side builds or where a semi join sits — both changed.
const SCHEMA_ONLY_JOIN_ORDER: [&str; 22] = [
    "",
    "nation+region | nation+region+supplier | nation+partsupp+region+supplier | \
     nation+part+partsupp+region+supplier | nation+region | nation+region+supplier | \
     nation+partsupp+region+supplier | \
     nation+nation+part+partsupp+partsupp+region+region+supplier+supplier",
    "customer+orders | customer+lineitem+orders",
    "",
    "nation+region | nation+region+supplier | customer+nation+region+supplier | \
     customer+nation+orders+region+supplier | customer+lineitem+nation+orders+region+supplier",
    "",
    "nation+supplier | lineitem+nation+supplier | lineitem+nation+orders+supplier | \
     customer+lineitem+nation+orders+supplier | customer+lineitem+nation+nation+orders+supplier",
    "nation+region | customer+nation+region | customer+nation+orders+region | \
     customer+lineitem+nation+orders+region | customer+lineitem+nation+orders+region+supplier | \
     customer+lineitem+nation+nation+orders+region+supplier | \
     customer+lineitem+nation+nation+orders+part+region+supplier",
    "nation+supplier | lineitem+nation+supplier | lineitem+nation+part+supplier | \
     lineitem+nation+part+partsupp+supplier | lineitem+nation+orders+part+partsupp+supplier",
    "customer+nation | customer+nation+orders | customer+lineitem+nation+orders",
    "nation+supplier | nation+partsupp+supplier | nation+supplier | nation+partsupp+supplier",
    "lineitem+orders",
    "",
    "lineitem+part",
    "lineitem+supplier | lineitem+lineitem+supplier",
    "part+partsupp",
    "lineitem+part | lineitem+lineitem+part",
    "customer+orders | customer+lineitem+orders",
    "lineitem+part",
    "nation+supplier | lineitem+partsupp",
    "nation+supplier | lineitem+nation+supplier | lineitem+nation+orders+supplier",
    "",
];

/// Base tables beneath `p`, not descending into what a semi/anti join
/// merely probes.
fn tables_under(p: &PhysicalPlan) -> Vec<String> {
    match p {
        PhysicalPlan::Scan { table, .. } => vec![table.clone()],
        PhysicalPlan::Join {
            left,
            join_type: JoinType::Semi | JoinType::Anti,
            ..
        } => tables_under(left),
        _ => p.children().into_iter().flat_map(tables_under).collect(),
    }
}

#[test]
fn schema_only_catalog_keeps_its_join_order() {
    fn signature(p: &PhysicalPlan, out: &mut Vec<String>) {
        for c in p.children() {
            signature(c, out);
        }
        if let PhysicalPlan::Join {
            join_type: JoinType::Inner,
            ..
        } = p
        {
            let mut tables = tables_under(p);
            tables.sort();
            out.push(tables.join("+"));
        }
    }
    for n in 1..=22 {
        let mut joins = Vec::new();
        signature(&plan(n), &mut joins);
        let pinned: String = SCHEMA_ONLY_JOIN_ORDER[n - 1]
            .split_whitespace()
            .collect::<Vec<_>>()
            .join(" ");
        assert_eq!(joins.join(" | "), pinned, "Q{n}: join order moved");
    }
}

mod with_statistics {
    use super::*;
    use std::sync::OnceLock;
    use tqp_repro::core::{CompiledQuery, ExplainRow, QueryConfig, Session};
    use tqp_repro::data::tpch::{TpchConfig, TpchData};

    /// The 22 queries compiled and run once (`EXPLAIN ANALYZE` rows) on a
    /// session whose catalog carries real column statistics, at SF 0.05.
    fn analyzed() -> &'static Vec<(CompiledQuery, Vec<ExplainRow>)> {
        static RUN: OnceLock<Vec<(CompiledQuery, Vec<ExplainRow>)>> = OnceLock::new();
        RUN.get_or_init(|| {
            let data = TpchData::generate(&TpchConfig {
                scale_factor: 0.05,
                seed: 20_220_901,
            });
            let mut session = Session::new();
            session.register_tpch(&data);
            queries::all()
                .into_iter()
                .map(|(n, sql)| {
                    let q = session
                        .compile(sql, QueryConfig::default())
                        .unwrap_or_else(|e| panic!("Q{n}: {e}"));
                    let rows = q.explain_analyze_rows(&session).unwrap();
                    (q, rows)
                })
                .collect()
        })
    }

    fn is_join(row: &ExplainRow) -> bool {
        row.op.contains("Join(")
    }

    /// Actual rows of the direct inputs of `rows[i]` (pre-order rows, so
    /// the inputs are the following rows one level deeper).
    fn input_rows(rows: &[ExplainRow], i: usize) -> Vec<u64> {
        rows[i + 1..]
            .iter()
            .take_while(|r| r.depth > rows[i].depth)
            .filter(|r| r.depth == rows[i].depth + 1)
            .map(|r| r.actual_rows.expect("actuals"))
            .collect()
    }

    #[test]
    fn no_intermediate_join_outgrows_its_inputs() {
        for (n, (_, rows)) in analyzed().iter().enumerate() {
            for (i, row) in rows.iter().enumerate().filter(|(_, r)| is_join(r)) {
                // The last join to run has no join above it.
                let last = !rows[..i].iter().any(is_join);
                let larger = input_rows(rows, i).into_iter().max().expect("two inputs");
                let out = row.actual_rows.expect("actuals");
                assert!(
                    last || out as f64 <= 1.5 * larger as f64,
                    "Q{}: {} makes {out} rows from at most {larger}",
                    n + 1,
                    row.op
                );
            }
        }
    }

    #[test]
    fn q5_never_joins_on_nationkey_alone() {
        // supplier x customer on `nationkey` alone made 446 207 rows.
        fn check(p: &PhysicalPlan) {
            if let PhysicalPlan::Join {
                left, right, on, ..
            } = p
            {
                let (ls, rs) = (left.schema(), right.schema());
                let keys: Vec<[&str; 2]> = on
                    .iter()
                    .map(|&(l, r)| [ls[l].name.as_str(), rs[r].name.as_str()])
                    .collect();
                let nationkeys_only = keys
                    .iter()
                    .all(|k| k.contains(&"s_nationkey") && k.contains(&"c_nationkey"));
                assert!(!nationkeys_only, "join keyed on {keys:?}");
            }
            p.children().into_iter().for_each(check);
        }
        check(analyzed()[4].0.plan());
    }

    #[test]
    fn q18_semi_join_runs_below_the_lineitem_join() {
        fn semi_left(p: &PhysicalPlan) -> Option<Vec<String>> {
            match p {
                PhysicalPlan::Join {
                    left,
                    join_type: JoinType::Semi,
                    ..
                } => Some(tables_under(left)),
                _ => p.children().into_iter().find_map(semi_left),
            }
        }
        let plan = analyzed()[17].0.plan();
        assert_eq!(semi_left(plan), Some(vec!["orders".to_string()]));
        // ... and lineitem joins what is left of orders.
        let (_, rows) = &analyzed()[17];
        let semi = rows
            .iter()
            .position(|r| r.op.contains("Join(Semi"))
            .unwrap();
        assert!(
            rows[..semi].iter().any(is_join),
            "semi join is the last join"
        );
    }

    #[test]
    fn q4_and_q8_build_on_the_smaller_side() {
        for n in [4, 8] {
            let (_, rows) = &analyzed()[n - 1];
            for (i, row) in rows.iter().enumerate().filter(|(_, r)| is_join(r)) {
                let (build_rows, _) = row.build.expect("hash joins report their build");
                let smaller = input_rows(rows, i).into_iter().min().expect("two inputs");
                assert_eq!(
                    build_rows, smaller,
                    "Q{n}: {} built the larger side",
                    row.op
                );
            }
        }
        // Q4's semi join probes 37 897 lineitems into 2 868 orders.
        let (_, rows) = &analyzed()[3];
        assert!(rows.iter().any(|r| r.op == "HashJoin(Semi, build=left)"));
    }

    #[test]
    fn join_estimates_are_closer_than_before_cost_based_planning() {
        // q-error of a join: max(est/actual, actual/est), both floored at 1.
        let worst_per_query: Vec<f64> = analyzed()
            .iter()
            .map(|(_, rows)| {
                rows.iter()
                    .filter(|r| is_join(r))
                    .map(|r| {
                        let est = r.est_rows.max(1.0);
                        let actual = (r.actual_rows.expect("actuals") as f64).max(1.0);
                        (est / actual).max(actual / est)
                    })
                    .fold(0.0, f64::max)
            })
            .collect();
        // The commit before: worst 21 361.6 (Q18's semi join), and 8 of the
        // 22 queries with every join within 10x (Q5's nationkey join alone
        // was 14.9x, Q2 1 904x, Q8 2 492x).
        let worst = worst_per_query.iter().copied().fold(0.0, f64::max);
        assert!(worst < 21_361.6, "worst join q-error {worst}");
        let within_10x = worst_per_query.iter().filter(|&&q| q <= 10.0).count();
        assert!(
            within_10x >= 14,
            "{within_10x} queries within 10x: {worst_per_query:?}"
        );
    }

    /// Estimated group counts of the grouped aggregates in `p`, post-order.
    fn group_estimates(p: &PhysicalPlan, out: &mut Vec<Option<u64>>) {
        p.children()
            .into_iter()
            .for_each(|c| group_estimates(c, out));
        if let PhysicalPlan::Aggregate {
            group_by, groups, ..
        } = p
        {
            if !group_by.is_empty() {
                out.push(*groups);
            }
        }
    }

    #[test]
    fn group_count_estimate_picks_the_aggregation_shape() {
        use tqp_repro::exec::agg::Shape;
        let partitioned = |n: usize| -> Vec<bool> {
            let mut groups = Vec::new();
            group_estimates(analyzed()[n - 1].0.plan(), &mut groups);
            groups
                .into_iter()
                .map(|g| Shape::for_groups(g) == Shape::Partitioned)
                .collect()
        };
        // Groups ≈ rows: per-partkey, per-orderkey, per-(part, supplier).
        for n in [17, 18, 20] {
            assert!(partitioned(n).contains(&true), "Q{n}: {:?}", partitioned(n));
            let (_, rows) = &analyzed()[n - 1];
            let named = rows
                .iter()
                .find(|r| r.op.starts_with("HashAggregate(partitioned, est_groups="))
                .unwrap_or_else(|| panic!("Q{n}: {rows:?}"));
            // ANALYZE puts the count the estimate met beside it.
            let actual = named.actual_rows.expect("actuals");
            assert!(
                named.op.ends_with(&format!(", actual_groups={actual})")),
                "{}",
                named.op
            );
        }
        // Groups ≪ rows (4 flag pairs, 2 ship modes) or no groups at all.
        for n in [1, 6, 12] {
            assert!(
                !partitioned(n).contains(&true),
                "Q{n}: {:?}",
                partitioned(n)
            );
        }
        // Without statistics nothing is estimated, so nothing moves.
        for n in 1..=22 {
            let mut groups = Vec::new();
            group_estimates(&plan(n), &mut groups);
            assert!(groups.iter().all(Option::is_none), "Q{n}: {groups:?}");
            assert!(!plan(n).to_json().contains("\"groups\""), "Q{n}");
        }
    }

    /// `ORDER BY … LIMIT n` lowers to a `Sort` that orders only its first
    /// `n` rows; EXPLAIN names the limit on the Sort row.
    #[test]
    fn sort_under_limit_is_a_top_k() {
        use tqp_repro::exec::program::ProgOp;
        for (n, (q, rows)) in analyzed().iter().enumerate().map(|(i, r)| (i + 1, r)) {
            let limited = [2, 3, 10, 18, 21].contains(&n);
            let limits: Vec<usize> = q
                .program()
                .ops
                .iter()
                .filter_map(|op| match op {
                    ProgOp::Sort { limit, .. } => *limit,
                    _ => None,
                })
                .collect();
            assert_eq!(limits.len(), usize::from(limited), "Q{n}: {limits:?}");
            let labelled: Vec<&ExplainRow> = rows
                .iter()
                .filter(|r| r.op.starts_with("Sort(limit="))
                .collect();
            assert_eq!(labelled.len(), limits.len(), "Q{n}: {rows:?}");
            for (row, limit) in labelled.into_iter().zip(limits) {
                assert_eq!(row.op, format!("Sort(limit={limit})"));
                assert!(row.actual_rows.expect("actuals") <= limit as u64, "Q{n}");
            }
        }
    }

    #[test]
    fn traced_runs_feed_the_qerror_histogram() {
        let before = tqp_repro::obs::registry()
            .snapshot()
            .histogram("opt.qerror")
            .map_or(0, |h| h.count);
        let data = TpchData::generate(&TpchConfig {
            scale_factor: 0.01,
            seed: 7,
        });
        let mut session = Session::new();
        session.register_tpch(&data);
        let q = session
            .compile(queries::query(6), QueryConfig::default().trace(true))
            .unwrap();
        q.run(&session).unwrap();
        let plan_nodes = count(q.plan(), &|_| true) as u64;
        let after = tqp_repro::obs::registry()
            .snapshot()
            .histogram("opt.qerror")
            .expect("opt.qerror registered")
            .count;
        // One observation per plan node of Q6 (other tests may add more).
        assert!(after >= before + plan_nodes, "{before} -> {after}");
    }
}

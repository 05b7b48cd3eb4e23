//! Cross-crate edge-case integration tests: empty inputs, degenerate
//! queries, type corners, and the external-plan (JSON) frontend.

use tqp_repro::core::{QueryConfig, Session};
use tqp_repro::data::frame::df;
use tqp_repro::data::{Column, DataFrame};
use tqp_repro::exec::Backend;
use tqp_repro::ir::physical::PhysicalPlan;
use tqp_tensor::Scalar;

fn session_with(rows: usize) -> Session {
    let mut s = Session::new();
    s.register_table(
        "t",
        df(vec![
            ("id", Column::from_i64((0..rows as i64).collect())),
            (
                "v",
                Column::from_f64((0..rows).map(|i| i as f64 / 2.0).collect()),
            ),
            (
                "s",
                Column::from_str((0..rows).map(|i| format!("name{i:03}")).collect()),
            ),
            (
                "d",
                Column::from_date_ns(
                    (0..rows)
                        .map(|i| {
                            tqp_repro::data::dates::parse_to_ns("1995-01-01").unwrap()
                                + i as i64 * tqp_repro::data::dates::NS_PER_DAY
                        })
                        .collect(),
                ),
            ),
        ]),
    );
    s
}

fn both(s: &Session, sql: &str) -> (DataFrame, DataFrame) {
    let tensor = s.sql(sql).unwrap();
    let row = s.sql_baseline(sql).unwrap();
    (tensor, row)
}

#[test]
fn empty_table_full_pipeline() {
    let s = session_with(0);
    let (t, r) = both(
        &s,
        "select id, v * 2 as vv from t where v > 1.0 order by id limit 5",
    );
    assert_eq!(t.nrows(), 0);
    assert_eq!(r.nrows(), 0);
    // Global aggregate over nothing yields exactly one zero row.
    let (t, r) = both(&s, "select count(*), sum(v), min(v), max(v), avg(v) from t");
    assert_eq!(t.nrows(), 1);
    assert_eq!(r.nrows(), 1);
    assert_eq!(t.column(0).get(0).as_i64(), 0);
    assert_eq!(t.column(1).get(0).as_f64(), 0.0);
    // Grouped aggregate over nothing yields zero rows.
    let (t, _) = both(&s, "select s, count(*) from t group by s");
    assert_eq!(t.nrows(), 0);
}

#[test]
fn single_row_table() {
    let s = session_with(1);
    let (t, r) = both(&s, "select s, v from t where id = 0");
    assert_eq!(t.nrows(), 1);
    assert_eq!(t.row(0), r.row(0));
}

#[test]
fn filter_matching_nothing_then_join() {
    let mut s = session_with(10);
    s.register_table(
        "u",
        df(vec![
            ("id", Column::from_i64(vec![1, 2])),
            ("w", Column::from_f64(vec![1.0, 2.0])),
        ]),
    );
    let (t, r) = both(
        &s,
        "select t.id, u.w from t, u where t.id = u.id and t.v > 999.0 order by t.id",
    );
    assert_eq!(t.nrows(), 0);
    assert_eq!(r.nrows(), 0);
}

#[test]
fn date_arithmetic_and_extract() {
    let s = session_with(400);
    let (t, r) = both(
        &s,
        "select extract(year from d) as y, count(*) as c from t \
         where d >= date '1995-06-01' and d < date '1995-06-01' + interval '6' month \
         group by extract(year from d) order by y",
    );
    assert_eq!(t.nrows(), r.nrows());
    assert_eq!(t.column(0).get(0).as_i64(), 1995);
    assert_eq!(t.column(1).get(0), r.column(1).get(0));
}

#[test]
fn string_functions_and_ordering() {
    let s = session_with(25);
    let (t, r) = both(
        &s,
        "select substring(s from 5 for 3) as tail, count(*) as c from t \
         where s like 'name0%' group by substring(s from 5 for 3) \
         order by tail desc limit 4",
    );
    assert_eq!(t.nrows(), r.nrows());
    for i in 0..t.nrows() {
        assert_eq!(t.row(i), r.row(i));
    }
}

#[test]
fn limit_zero_and_overlimit() {
    let s = session_with(5);
    let (t, _) = both(&s, "select id from t limit 0");
    assert_eq!(t.nrows(), 0);
    let (t, _) = both(&s, "select id from t order by id limit 100");
    assert_eq!(t.nrows(), 5);
}

#[test]
fn duplicate_output_names_are_deduped() {
    let s = session_with(3);
    let out = s.sql("select v, v from t").unwrap();
    assert_eq!(out.schema().fields[0].name, "v");
    assert_eq!(out.schema().fields[1].name, "v_2");
}

#[test]
fn json_plan_frontend_roundtrip_executes() {
    let s = session_with(20);
    let q = s
        .compile(
            "select s, sum(v) as total from t where id % 2 = 0 group by s order by total desc limit 3",
            QueryConfig::default(),
        )
        .unwrap();
    let json = q.plan().to_json();
    let plan = PhysicalPlan::from_json(&json).unwrap();
    let q2 = s
        .compile_plan(&plan, QueryConfig::default().backend(Backend::Graph))
        .unwrap();
    let (a, _) = q.run(&s).unwrap();
    let (b, _) = q2.run(&s).unwrap();
    assert_eq!(a.nrows(), b.nrows());
    for i in 0..a.nrows() {
        assert_eq!(a.row(i), b.row(i));
    }
}

#[test]
fn self_join_with_aliases() {
    let s = session_with(6);
    let (t, r) = both(
        &s,
        "select a.id, b.id from t a, t b where a.id = b.id and a.v > 0.4 order by a.id",
    );
    assert_eq!(t.nrows(), r.nrows());
    for i in 0..t.nrows() {
        assert_eq!(t.row(i), r.row(i));
    }
}

#[test]
fn having_without_group_output() {
    let s = session_with(30);
    let (t, r) = both(
        &s,
        "select s from t group by s having count(*) >= 1 order by s limit 5",
    );
    assert_eq!(t.nrows(), r.nrows());
}

#[test]
fn cte_used_twice() {
    let s = session_with(12);
    let (t, r) = both(
        &s,
        "with big as (select id, v from t where v > 2.0) \
         select a.id from big a, big b where a.id = b.id order by a.id",
    );
    assert_eq!(t.nrows(), r.nrows());
    for i in 0..t.nrows() {
        assert_eq!(t.row(i), r.row(i));
    }
}

#[test]
fn in_list_of_strings_and_numbers() {
    let s = session_with(10);
    let (t, r) = both(
        &s,
        "select id from t where s in ('name003', 'name007', 'missing') \
         and id in (3, 7, 9) order by id",
    );
    assert_eq!(t.nrows(), 2);
    assert_eq!(r.nrows(), 2);
    assert_eq!(t.column(0).get(0), Scalar::I64(3));
}

#[test]
fn wasm_backend_on_edge_inputs() {
    let s = session_with(0);
    let q = s
        .compile(
            "select count(*) from t",
            QueryConfig::default().backend(Backend::Wasm),
        )
        .unwrap();
    let (out, _) = q.run(&s).unwrap();
    assert_eq!(out.column(0).get(0).as_i64(), 0);
}

/// String equi-join keys match across columns of different padded widths
/// (`ak` is 4 bytes wide, `bk` 2): hashes cover the value, not the
/// padding — on every backend and worker count. The joined rows also feed
/// integer `/` and `%` by a zero divisor, which are NULL as on the row
/// engine, and a LEFT JOIN against the empty `e` pads every row with NULLs
/// of the right side's width.
#[test]
fn string_join_keys_of_different_widths_match() {
    let mut s = Session::new();
    let strs = |v: &[&str]| Column::from_str(v.iter().map(|x| x.to_string()).collect());
    s.register_table(
        "a",
        df(vec![
            ("ak", strs(&["x", "yy", "zzzz"])),
            ("av", Column::from_i64(vec![1, 2, 3])),
        ]),
    );
    s.register_table(
        "b",
        df(vec![
            ("bk", strs(&["x", "yy"])),
            ("bv", Column::from_i64(vec![10, 20])),
        ]),
    );
    s.register_table(
        "e",
        df(vec![("ek", strs(&[])), ("ev", Column::from_i64(vec![]))]),
    );
    let cases = [
        ("select av, bv from a, b where ak = bk order by av", 2),
        (
            "select av, av / (bv - 10) is null, av % (bv - 10) is null from a, b \
             where ak = bk order by av",
            2,
        ),
        (
            "select count(av / (bv - 10)), sum(av % (bv - 10)) from a, b where ak = bk",
            1,
        ),
        (
            "select av from a where ak in (select bk from b) order by av",
            2,
        ),
        (
            "select av from a where exists (select * from b where bk = ak) order by av",
            2,
        ),
        (
            "select av from a where ak not in (select bk from b) order by av",
            1,
        ),
        (
            "select av, count(ev) from a left outer join e on ak = ek \
             group by av order by av",
            3,
        ),
    ];
    // `x` joins `bv = 10`: its quotient and remainder are NULL.
    let by_zero = s.sql_baseline(cases[1].0).unwrap();
    assert_eq!(
        by_zero.row(0),
        [Scalar::I64(1), Scalar::Bool(true), Scalar::Bool(true)]
    );
    assert_eq!(
        by_zero.row(1),
        [Scalar::I64(2), Scalar::Bool(false), Scalar::Bool(false)]
    );
    let by_zero = s.sql_baseline(cases[2].0).unwrap();
    assert_eq!(by_zero.row(0), [Scalar::I64(1), Scalar::I64(2)]);
    for (sql, n) in cases {
        let expect = s.sql_baseline(sql).unwrap();
        assert_eq!(expect.nrows(), n, "{sql}");
        for backend in [
            Backend::Eager,
            Backend::Fused,
            Backend::Graph,
            Backend::Wasm,
        ] {
            for workers in [1, 4] {
                let cfg = QueryConfig::default().backend(backend).workers(workers);
                let (out, _) = s.compile(sql, cfg).unwrap().run(&s).unwrap();
                let label = format!("{backend:?} w={workers}: {sql}");
                assert_eq!(out.nrows(), n, "{label}");
                for i in 0..n {
                    assert_eq!(out.row(i), expect.row(i), "{label}");
                }
            }
        }
    }
}

/// `n` mixed-magnitude floats from a fixed LCG: summed in different orders
/// or splits they round differently.
fn mixed_magnitudes(n: usize) -> Vec<f64> {
    let mut seed = 7u64;
    (0..n)
        .map(|i| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let mag = [1e-3, 1.0, 1e6, 1e15][i % 4];
            ((seed >> 33) as f64 / (1u64 << 31) as f64 - 0.25) * mag
        })
        .collect()
}

/// A global float SUM beside COUNT(DISTINCT) — aggregated in one pass over
/// the whole column — is one canonical fold of more than 2^20 values: the
/// same bits on every backend and worker count, and on any host.
#[test]
fn global_float_sum_over_a_large_column_is_host_independent() {
    let n = 3 * (1 << 20) + 5;
    let x = mixed_magnitudes(n);
    let want = tqp_tensor::simd::sum_f64(&x);
    let mut s = Session::new();
    s.register_table(
        "t",
        df(vec![
            ("x", Column::from_f64(x)),
            (
                "k",
                Column::from_i64((0..n as i64).map(|i| i % 1000).collect()),
            ),
        ]),
    );
    let sql = "select sum(x), count(distinct k) from t";
    for backend in [Backend::Eager, Backend::Fused, Backend::Graph] {
        for workers in [1, 4] {
            let cfg = QueryConfig::default().backend(backend).workers(workers);
            let (out, _) = s.compile(sql, cfg).unwrap().run(&s).unwrap();
            let label = format!("{backend:?} w={workers}");
            assert_eq!(
                out.column(0).get(0).as_f64().to_bits(),
                want.to_bits(),
                "{label}"
            );
            assert_eq!(out.column(1).get(0).as_i64(), 1000, "{label}");
        }
    }
}

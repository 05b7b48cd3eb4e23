//! `EXPLAIN ANALYZE` determinism: per-operator **actual rows are an
//! execution-invariant** — the same for 1 or 4 workers and for every
//! backend, because span sites charge operator *output* rows rather than
//! whatever morsel routing happened to deliver.
//!
//! Runs TPC-H Q1/Q6/Q19 (scan-heavy, filter-heavy, and join-heavy
//! respectively) through [`CompiledQuery::explain_analyze_rows`] under
//! every backend × worker-count combination and asserts the structured
//! rows — minus wall time — are identical.

use tqp_repro::core::{QueryConfig, Session};
use tqp_repro::data::tpch::{queries, TpchConfig, TpchData};
use tqp_repro::exec::Backend;

fn session() -> Session {
    let data = TpchData::generate(&TpchConfig {
        scale_factor: 0.01,
        seed: 20_220_901,
    });
    let mut s = Session::new();
    s.register_tpch(&data);
    s
}

/// The invariant part of an explain row: everything except wall time.
fn shape(s: &Session, sql: &str, cfg: QueryConfig) -> Vec<(usize, String, String, Option<u64>)> {
    let q = s.compile(sql, cfg).unwrap();
    q.explain_analyze_rows(s)
        .unwrap()
        .into_iter()
        .map(|r| (r.depth, r.op, format!("{}", r.est_rows), r.actual_rows))
        .collect()
}

#[test]
fn actual_rows_invariant_across_workers_and_backends() {
    let s = session();
    let backends = [
        Backend::Eager,
        Backend::Fused,
        Backend::Graph,
        Backend::Wasm,
    ];
    for qn in [1usize, 6, 19] {
        let sql = queries::query(qn);
        let reference = shape(&s, sql, QueryConfig::default().workers(1));
        assert!(
            reference.iter().any(|(_, _, _, a)| a.is_some()),
            "Q{qn}: no actuals attributed at all"
        );
        // Every plan leaf is a table scan whose actual row count must be
        // present (scans always map to a program op).
        for (depth, op, _, actual) in &reference {
            if op.starts_with("Scan(") {
                assert!(
                    actual.is_some(),
                    "Q{qn}: scan without actuals at depth {depth}"
                );
            }
        }
        for backend in backends {
            for workers in [1usize, 4] {
                let cfg = QueryConfig::default().backend(backend).workers(workers);
                let got = shape(&s, sql, cfg);
                assert_eq!(
                    got, reference,
                    "Q{qn}: explain rows diverged ({backend:?}, {workers} workers)"
                );
            }
        }
    }
}

#[test]
fn explain_text_renders_est_and_actuals() {
    let s = session();
    let sql = queries::query(6);

    // Plain EXPLAIN never executes: estimates only.
    let q = s
        .compile(&format!("explain {sql}"), QueryConfig::default())
        .unwrap();
    let (frame, _) = q.run(&s).unwrap();
    let text: Vec<String> = (0..frame.nrows())
        .map(|i| format!("{}", frame.row(i)[0]))
        .collect();
    assert!(text.iter().any(|l| l.contains("Scan(lineitem)")));
    assert!(text.iter().all(|l| !l.contains("actual=")));

    // EXPLAIN ANALYZE executes and joins actuals onto the same tree.
    let q = s
        .compile(&format!("explain analyze {sql}"), QueryConfig::default())
        .unwrap();
    let (frame, _) = q.run(&s).unwrap();
    let text: Vec<String> = (0..frame.nrows())
        .map(|i| format!("{}", frame.row(i)[0]))
        .collect();
    assert!(
        text.iter()
            .any(|l| l.contains("Scan(lineitem)") && l.contains("actual=")),
        "analyze output missing actuals: {text:?}"
    );
}

/// PREDICT time is charged to the operator that ran the model — a filter
/// here, an aggregate there — on every backend and worker count, and the
/// registry counts every scored row.
#[test]
fn predict_time_lands_on_the_operator_that_ran_it() {
    use std::sync::Arc;
    use tqp_repro::ml::linear::LinearRegression;
    use tqp_repro::tensor::Tensor;

    let mut s = session();
    let xs: Vec<f64> = (0..200)
        .flat_map(|i| [(i % 50) as f64, (i % 11) as f64 / 100.0])
        .collect();
    let ys: Vec<f64> = (0..200).map(|i| (i % 50) as f64 * 2.0).collect();
    let model = LinearRegression::fit(
        &Tensor::from_f64_matrix(xs, 200, 2),
        &Tensor::from_f64(ys),
        100,
        0.1,
    );
    s.register_model("lin", Arc::new(model));
    let lineitem = s.catalog().get("lineitem").expect("lineitem").rows as u64;
    for (sql, op) in [
        (
            "select count(*) from lineitem where predict('lin', l_quantity, l_discount) > 40",
            "Filter",
        ),
        (
            "select l_returnflag, sum(predict('lin', l_quantity, l_discount)) as p \
             from lineitem group by l_returnflag",
            "HashAggregate",
        ),
    ] {
        for backend in [
            Backend::Eager,
            Backend::Fused,
            Backend::Graph,
            Backend::Wasm,
        ] {
            for workers in [1usize, 4] {
                let before = tqp_repro::obs::registry()
                    .snapshot()
                    .counter("ml.predict_rows");
                let cfg = QueryConfig::default().backend(backend).workers(workers);
                let rows = s
                    .compile(sql, cfg)
                    .unwrap()
                    .explain_analyze_rows(&s)
                    .unwrap();
                let charged: Vec<_> = rows.iter().filter(|r| r.predict.is_some()).collect();
                let label = format!("{sql} ({backend:?}, {workers} workers)");
                assert_eq!(charged.len(), 1, "{label}: {rows:?}");
                assert!(charged[0].op.starts_with(op), "{label}: {rows:?}");
                assert_eq!(charged[0].predict.unwrap().1, lineitem, "{label}");
                assert!(charged[0]
                    .render(true)
                    .contains(&format!("predict_rows={lineitem}")));
                let after = tqp_repro::obs::registry()
                    .snapshot()
                    .counter("ml.predict_rows");
                assert!(after >= before + lineitem, "{label}: {before} -> {after}");
            }
        }
    }
}

/// A prepared, parameterized `EXPLAIN ANALYZE` reports the actuals of the
/// run it made: on every backend, the actual rows of each plan node equal
/// those of the same statement with the value spliced in.
#[test]
fn parameterized_explain_analyze_reports_actuals() {
    use tqp_tensor::Scalar;

    let s = session();
    let sql = "explain analyze select l_returnflag, count(*) as n from lineitem \
               where l_quantity < $1 group by l_returnflag order by l_returnflag";
    // `(depth, actual rows)` of each rendered line.
    let actuals = |frame: &tqp_repro::data::DataFrame| -> Vec<(usize, String)> {
        (0..frame.nrows())
            .map(|i| {
                let line = frame.row(i)[0].to_string();
                let depth = (line.len() - line.trim_start().len()) / 2;
                let at = line.find("actual=").expect("an actual") + "actual=".len();
                let rows = line[at..].split(' ').next().unwrap().to_string();
                (depth, rows)
            })
            .collect()
    };
    for backend in [
        Backend::Eager,
        Backend::Fused,
        Backend::Graph,
        Backend::Wasm,
    ] {
        let cfg = QueryConfig::default().backend(backend);
        let prepared = s.prepare(sql, cfg).unwrap();
        for value in [5i64, 24] {
            let (got, _) = prepared.execute(&s, &[Scalar::I64(value)]).unwrap();
            let literal = sql.replace("$1", &value.to_string());
            let (want, _) = s.compile(&literal, cfg).unwrap().run(&s).unwrap();
            let (got, want) = (actuals(&got), actuals(&want));
            assert!(
                got.iter().all(|(_, rows)| rows != "?"),
                "{backend:?} ${value}: {got:?}"
            );
            assert_eq!(got, want, "{backend:?}, $1 = {value}");
        }
    }
}

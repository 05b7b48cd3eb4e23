//! Integration tests for the `PREDICT` path (paper §3.3): the unified
//! tensor execution and the split-runtime row engine must produce identical
//! predictions for every model family, inside arbitrary relational context.

use std::sync::Arc;

use tqp_repro::core::{QueryConfig, Session};
use tqp_repro::data::frame::df;
use tqp_repro::data::{datasets, Column, DataFrame};
use tqp_repro::exec::Backend;
use tqp_repro::ml::compile::{CompiledTrees, TreeStrategy};
use tqp_repro::ml::linear::{LinearRegression, LogisticRegression};
use tqp_repro::ml::mlp::Mlp;
use tqp_repro::ml::text::TextClassifier;
use tqp_repro::ml::tree::{DecisionTree, RandomForest, TreeParams};
use tqp_repro::tensor::Tensor;
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

fn check(session: &Session, sql: &str) {
    let oracle = session.sql_baseline(sql).expect("oracle");
    for backend in [Backend::Eager, Backend::Fused, Backend::Graph] {
        let q = session
            .compile(sql, QueryConfig::default().backend(backend))
            .unwrap();
        let (out, _) = q.run(session).unwrap();
        assert_eq!(
            canon(&out),
            canon(&oracle),
            "{backend:?} vs oracle on {sql}"
        );
    }
}

fn training_xy() -> (Tensor, Tensor) {
    let n = 200;
    let mut xs = Vec::with_capacity(n * 2);
    let mut ys = Vec::with_capacity(n);
    for i in 0..n {
        let a = (i % 13) as f64;
        let b = ((i * 7) % 11) as f64;
        xs.push(a);
        xs.push(b);
        ys.push(a * 0.5 - b * 0.25 + 1.0);
    }
    (Tensor::from_f64_matrix(xs, n, 2), Tensor::from_f64(ys))
}

fn numeric_session() -> Session {
    let mut s = Session::new();
    s.register_table(
        "points",
        df(vec![
            ("id", Column::from_i64((0..50).collect())),
            (
                "a",
                Column::from_f64((0..50).map(|i| (i % 13) as f64).collect()),
            ),
            (
                "b",
                Column::from_f64((0..50).map(|i| ((i * 7) % 11) as f64).collect()),
            ),
            (
                "grp",
                Column::from_str(
                    (0..50)
                        .map(|i| ["x", "y"][(i % 2) as usize].to_string())
                        .collect(),
                ),
            ),
        ]),
    );
    s
}

#[test]
fn linear_regression_predict_in_sql() {
    let (x, y) = training_xy();
    let mut s = numeric_session();
    s.register_model("lin", Arc::new(LinearRegression::fit(&x, &y, 800, 0.3)));
    check(
        &s,
        "select id, predict('lin', a, b) as p from points order by id",
    );
    check(
        &s,
        "select grp, sum(predict('lin', a, b)) as total from points group by grp order by grp",
    );
    check(
        &s,
        "select id from points where predict('lin', a, b) > 2.0 order by id",
    );
}

#[test]
fn logistic_and_mlp_predict_in_sql() {
    let (x, y) = training_xy();
    let labels = Tensor::from_f64(y.as_f64().iter().map(|&v| f64::from(v > 2.0)).collect());
    let mut s = numeric_session();
    s.register_model(
        "logit",
        Arc::new(LogisticRegression::fit(&x, &labels, 400, 0.5)),
    );
    s.register_model("net", Arc::new(Mlp::fit(&x, &y, 8, 150, 0.01, 9)));
    check(
        &s,
        "select grp, sum(predict('logit', a, b)) as positives from points group by grp order by grp",
    );
    check(
        &s,
        "select id, predict('net', a, b) as p from points order by id",
    );
}

#[test]
fn tree_models_both_strategies_in_sql() {
    let (x, y) = training_xy();
    let tree = DecisionTree::fit(
        &x,
        &y,
        TreeParams {
            max_depth: 5,
            min_samples_split: 2,
        },
    );
    let forest = RandomForest::fit(&x, &y, 5, TreeParams::default(), 3);
    let mut s = numeric_session();
    s.register_model(
        "tree_gemm",
        Arc::new(CompiledTrees::from_tree(&tree, TreeStrategy::Gemm)),
    );
    s.register_model(
        "tree_trav",
        Arc::new(CompiledTrees::from_tree(&tree, TreeStrategy::Traversal)),
    );
    s.register_model(
        "forest",
        Arc::new(CompiledTrees::from_forest(&forest, TreeStrategy::Gemm)),
    );
    check(
        &s,
        "select id, predict('tree_gemm', a, b) as p from points order by id",
    );
    check(
        &s,
        "select id, predict('tree_trav', a, b) as p from points order by id",
    );
    check(&s, "select sum(predict('forest', a, b)) from points");
    // Both compilation strategies are bit-identical through SQL.
    let g = s
        .sql("select sum(predict('tree_gemm', a, b)) from points")
        .unwrap();
    let t = s
        .sql("select sum(predict('tree_trav', a, b)) from points")
        .unwrap();
    assert_eq!(canon(&g), canon(&t));
}

#[test]
fn figure4_query_end_to_end() {
    let train = datasets::amazon_reviews(3_000, 7);
    let text_col = train.column_by_name("text").unwrap();
    let texts: Vec<String> = (0..train.nrows())
        .map(|i| text_col.get(i).as_str().to_string())
        .collect();
    let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
    let labels: Vec<f64> = (0..train.nrows())
        .map(|i| f64::from(train.column_by_name("rating").unwrap().get(i).as_i64() >= 3))
        .collect();
    let clf = TextClassifier::fit(
        &Tensor::from_strings(&refs, 1),
        &Tensor::from_f64(labels),
        12,
        2,
        0.5,
    );
    let mut s = Session::new();
    s.register_table("reviews", datasets::amazon_reviews(4_000, 11));
    s.register_model("sentiment_classifier", Arc::new(clf));
    let sql = "select brand, \
                      sum(case when rating >= 3 then 1 else 0 end) as actual_positive, \
                      sum(predict('sentiment_classifier', text)) as predicted_positive \
               from reviews group by brand order by brand";
    check(&s, sql);
    // Predictions must correlate with ratings brand-by-brand.
    let out = s.sql(sql).unwrap();
    assert!(out.nrows() >= 3);
    for i in 0..out.nrows() {
        let actual = out.column(1).get(i).as_i64() as f64;
        let predicted = out.column(2).get(i).as_f64();
        assert!(
            (predicted - actual).abs() / actual.max(1.0) < 0.35,
            "brand {} actual {actual} predicted {predicted}",
            out.column(0).get(i).as_str()
        );
    }
}

#[test]
fn predict_missing_model_is_a_clean_execution_error() {
    // Formerly a panic; the serve-layer error split pre-flights missing
    // models into a retryable TqpError::Execution instead.
    let s = numeric_session();
    match s.sql("select predict('nope', a) from points") {
        Err(tqp_repro::core::TqpError::Execution(msg)) => {
            assert!(msg.contains("nope"), "{msg}");
        }
        other => panic!("expected an execution error, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn predict_over_the_null_side_of_a_left_join_is_null() {
    // `extra` covers every third point, so the left join pads two thirds
    // of the rows with NULL arguments: those rows predict NULL, the others
    // predict exactly what the model gives, on every engine.
    let (x, y) = training_xy();
    let mut s = numeric_session();
    s.register_table(
        "extra",
        df(vec![
            ("eid", Column::from_i64((0..50).step_by(3).collect())),
            (
                "ea",
                Column::from_f64((0..50).step_by(3).map(|i| (i % 7) as f64).collect()),
            ),
            (
                "eb",
                Column::from_f64((0..50).step_by(3).map(|i| (i % 5) as f64).collect()),
            ),
        ]),
    );
    s.register_model("lin", Arc::new(LinearRegression::fit(&x, &y, 800, 0.3)));
    s.register_model("net", Arc::new(Mlp::fit(&x, &y, 8, 150, 0.01, 9)));
    for model in ["lin", "net"] {
        let from = "from points left join extra on id = eid";
        let p = format!("predict('{model}', ea, eb)");
        let missing = format!("select id, {p} is null as missing {from} order by id");
        let oracle = s.sql_baseline(&missing).expect("oracle");
        let nulls = (0..oracle.nrows())
            .filter(|&i| oracle.row(i)[1] == Scalar::Bool(true))
            .count();
        assert_eq!((oracle.nrows(), nulls), (50, 33), "{model}");
        for sql in [
            missing,
            // Per-row predictions, each row its own group: a NULL row
            // counts 0, a valid one 1 with its prediction as the sum.
            format!("select id, count({p}) as c, sum({p}) as s {from} group by id order by id"),
            format!("select count({p}) as c, sum({p}) as s, min({p}) as lo, max({p}) as hi {from}"),
        ] {
            let oracle = s.sql_baseline(&sql).expect("oracle");
            for backend in [
                Backend::Eager,
                Backend::Fused,
                Backend::Graph,
                Backend::Wasm,
            ] {
                let (out, _) = s
                    .compile(&sql, QueryConfig::default().backend(backend))
                    .unwrap()
                    .run(&s)
                    .unwrap();
                assert_eq!(
                    canon(&out),
                    canon(&oracle),
                    "{backend:?} vs oracle on {sql}"
                );
            }
        }
    }
}

//! **Scenario 3** (§3.3) — predictive queries over the two demo tasks:
//!
//! 1. regression on Iris (`PREDICT('petal_width_model', ...)`), with a
//!    linear model, a GBT ensemble (both Hummingbird strategies), and an MLP
//!    — "a variety of models";
//! 2. sentiment classification on the synthetic Amazon reviews with the
//!    hashed bag-of-words classifier, combined with relational operators.
//!
//! ```bash
//! cargo run --release --example scenario3
//! ```

use std::sync::Arc;

use tqp_repro::core::{QueryConfig, Session};
use tqp_repro::data::{self, datasets};
use tqp_repro::exec::Backend;
use tqp_repro::ml::compile::{CompiledTrees, TreeStrategy};
use tqp_repro::ml::linear::LinearRegression;
use tqp_repro::ml::mlp::Mlp;
use tqp_repro::ml::text::TextClassifier;
use tqp_repro::ml::tree::{GradientBoostedTrees, TreeParams};
use tqp_repro::tensor::Tensor;

fn iris_features(frame: &data::DataFrame) -> (Tensor, Tensor) {
    let cols = ["sepal_length", "sepal_width", "petal_length"];
    let n = frame.nrows();
    let mut x = Vec::with_capacity(n * 3);
    for i in 0..n {
        for c in cols {
            x.push(frame.column_by_name(c).unwrap().get(i).as_f64());
        }
    }
    let y: Vec<f64> = (0..n)
        .map(|i| frame.column_by_name("petal_width").unwrap().get(i).as_f64())
        .collect();
    (Tensor::from_f64_matrix(x, n, 3), Tensor::from_f64(y))
}

fn main() {
    println!("Scenario 3: prediction queries (paper §3.3)\n");

    // ---------- Task 2 of the paper: regression on Iris ----------
    let iris = datasets::iris();
    let (x, y) = iris_features(&iris);
    let linear = LinearRegression::fit(&x, &y, 2000, 0.3);
    println!("[iris] linear regression MSE: {:.4}", linear.mse(&x, &y));
    let gbt = GradientBoostedTrees::fit(
        &x,
        &y,
        40,
        0.2,
        TreeParams {
            max_depth: 3,
            min_samples_split: 4,
        },
    );
    let gbt_gemm = CompiledTrees::from_gbt(&gbt, TreeStrategy::Gemm);
    let gbt_trav = CompiledTrees::from_gbt(&gbt, TreeStrategy::Traversal);
    let mlp = Mlp::fit(&x, &y, 12, 400, 0.02, 5);

    let mut session = Session::new();
    session.register_table("iris", iris);
    session.register_model("petal_width_linear", Arc::new(linear));
    session.register_model("petal_width_gbt", Arc::new(gbt_gemm));
    session.register_model("petal_width_gbt_traversal", Arc::new(gbt_trav));
    session.register_model("petal_width_mlp", Arc::new(mlp));

    for model in [
        "petal_width_linear",
        "petal_width_gbt",
        "petal_width_gbt_traversal",
        "petal_width_mlp",
    ] {
        // Mean absolute prediction error per species, computed in SQL.
        let sql = format!(
            "select species, avg(abs(predict('{model}', sepal_length, sepal_width, \
             petal_length) - petal_width)) as mae, count(*) as n \
             from iris group by species order by species"
        );
        let out = session.sql(&sql).unwrap();
        let overall: f64 = (0..out.nrows())
            .map(|i| out.column(1).get(i).as_f64())
            .sum::<f64>()
            / out.nrows() as f64;
        println!("[iris] {model:<28} per-species MAE (overall {overall:.3}):");
        println!("{}", out.to_table_string(5));
        // One compiled program, every runtime: the other backends agree.
        for backend in [Backend::Eager, Backend::Graph, Backend::Wasm] {
            let cfg = QueryConfig::default().backend(backend);
            let other = session.compile(&sql, cfg).unwrap().run(&session).unwrap().0;
            for i in 0..out.nrows() {
                let (a, b) = (
                    out.column(1).get(i).as_f64(),
                    other.column(1).get(i).as_f64(),
                );
                assert!((a - b).abs() < 1e-9, "{backend:?} {model}: {a} vs {b}");
            }
        }
    }

    // ---------- Task 1 of the paper: sentiment on Amazon reviews ----------
    let train = datasets::amazon_reviews(8_000, 7);
    let texts: Vec<&str> = (0..train.nrows())
        .map(|i| match train.column_by_name("text").unwrap() {
            data::Column::Str(v) => v[i].as_str(),
            _ => unreachable!(),
        })
        .collect();
    let labels: Vec<f64> = (0..train.nrows())
        .map(|i| f64::from(train.column_by_name("rating").unwrap().get(i).as_i64() >= 3))
        .collect();
    let clf = TextClassifier::fit(
        &Tensor::from_strings(&texts, 1),
        &Tensor::from_f64(labels),
        14,
        3,
        0.5,
    );
    session.register_table("reviews", datasets::amazon_reviews(20_000, 123));
    session.register_model("sentiment_classifier", Arc::new(clf));

    // Prediction combined with filters and aggregates in one SQL query:
    // per-brand agreement between the model and the star rating.
    let out = session
        .sql(
            "select brand, \
                    count(*) as reviews, \
                    avg(case when predict('sentiment_classifier', text) = \
                        case when rating >= 3 then 1.0 else 0.0 end then 1.0 else 0.0 end) \
                        as agreement \
             from reviews \
             where rating <> 3 \
             group by brand \
             order by agreement desc",
        )
        .unwrap();
    println!("[reviews] per-brand model/rating agreement (rating<>3):");
    println!("{}", out.to_table_string(10));
    let min_agree = (0..out.nrows())
        .map(|i| out.column(2).get(i).as_f64())
        .fold(1.0f64, f64::min);
    println!(
        "minimum per-brand agreement: {:.2} (text carries signal; noise keeps it < 1.0)",
        min_agree
    );
}

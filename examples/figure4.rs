//! **Figure 4 / Scenario 3** — the prediction query: sentiment
//! classification fused into a group-by-aggregate, executed end-to-end as
//! one tensor program, vs the split relational+ML runtime integration.
//!
//! Produces: the per-brand actual-vs-predicted table of Figure 4, the
//! Graphviz executor graph (`target/figure4_executor.dot`), and the unified
//! vs split runtime comparison (the §3.3 "end-to-end acceleration" claim).
//!
//! ```bash
//! TQP_REVIEWS=50000 TQP_RUNS=5 cargo run --release --example figure4
//! ```

use std::sync::Arc;

mod common;

use common::{fmt_ms, median_us, print_row};
use tqp_repro::core::{QueryConfig, Session};
use tqp_repro::data::{self, datasets};
use tqp_repro::exec::Backend;
use tqp_repro::ml::text::TextClassifier;
use tqp_repro::tensor::Tensor;

/// The query of Figure 4 ➋ (AMAZON_REVIEWS → reviews).
const FIG4_SQL: &str = "\
select brand, \
       sum(case when rating >= 3 then 1 else 0 end) as actual_positive, \
       sum(predict('sentiment_classifier', text)) as predicted_positive \
from reviews \
group by brand \
order by brand";

fn main() {
    let n_reviews = std::env::var("TQP_REVIEWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50_000);
    println!("Figure 4: prediction query over {n_reviews} synthetic Amazon-style reviews");

    // Train the sentiment classifier on a disjoint split (the paper uses a
    // pre-trained HF model; we train our hashed bag-of-words stand-in).
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
    let text_tensor = Tensor::from_strings(&texts, 1);
    let label_tensor = Tensor::from_f64(labels);
    let clf = TextClassifier::fit(&text_tensor, &label_tensor, 14, 3, 0.5);
    println!(
        "sentiment classifier train accuracy: {:.1}%",
        100.0 * clf.accuracy(&text_tensor, &label_tensor)
    );

    let mut session = Session::new();
    session.register_table("reviews", datasets::amazon_reviews(n_reviews, 99));
    session.register_model("sentiment_classifier", Arc::new(clf));

    // The Figure 4 table.
    let q = session
        .compile(FIG4_SQL, QueryConfig::default().backend(Backend::Eager))
        .unwrap();
    let (table, _) = q.run(&session).unwrap();
    println!("\n{}", table.to_table_string(10));

    // Executor graph (Figure 4 ➊/➌).
    std::fs::create_dir_all("target").ok();
    let dot = q.to_dot("SELECT brand, SUM(CASE...), SUM(PREDICT(...)) FROM reviews GROUP BY brand");
    std::fs::write("target/figure4_executor.dot", &dot).expect("write dot");
    println!(
        "executor graph written to target/figure4_executor.dot ({} nodes)",
        dot.lines().count()
    );

    // End-to-end unified (tensor program) vs split (row engine + per-batch
    // model invocation with row<->tensor conversion).
    let unified = median_us(|| {
        let _ = q.run(&session).unwrap();
        None
    });
    let split = median_us(|| {
        let _ = session.sql_baseline(FIG4_SQL).unwrap();
        None
    });
    println!(
        "\nend-to-end execution (median of {} runs):",
        common::runs()
    );
    println!(
        "  {:<34} {:>12}",
        "split runtimes (row engine + ML)",
        fmt_ms(split)
    );
    print_row("unified tensor program (TQP)", unified, split);
    println!(
        "\nshape check: unified runtime is {:.1}x faster end-to-end (paper: \"end-to-end accelerate\")",
        split as f64 / unified as f64
    );
}

//! Ablation: sort-merge (tensor-native) vs hash join strategies, as a
//! microbenchmark sweep and on join-heavy TPC-H Q3/Q14.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tqp_core::QueryConfig;
use tqp_data::tpch::{queries, TpchConfig, TpchData};
use tqp_exec::batch::Batch;
use tqp_ir::plan::JoinType;
use tqp_ir::{AggStrategy, JoinStrategy, PhysicalOptions};
use tqp_ml::ModelRegistry;
use tqp_tensor::Tensor;

fn bench_join_micro(c: &mut Criterion) {
    let mut g = c.benchmark_group("join_micro");
    g.sample_size(10);
    let models = ModelRegistry::new();
    for &n in &[10_000usize, 300_000] {
        // Foreign-key shape: right is 1/10 the size, every left row matches.
        let left = Batch::new(vec![Tensor::from_i64(
            (0..n as i64).map(|i| i % (n as i64 / 10)).collect(),
        )]);
        let right = Batch::new(vec![Tensor::from_i64((0..n as i64 / 10).collect())]);
        for strat in [JoinStrategy::SortMerge, JoinStrategy::Hash] {
            g.bench_with_input(BenchmarkId::new(format!("{strat:?}"), n), &n, |b, _| {
                b.iter(|| {
                    tqp_exec::join::join(
                        &left,
                        &right,
                        JoinType::Inner,
                        strat,
                        &[(0, 0)],
                        None,
                        &models,
                    )
                    .nrows()
                })
            });
        }
    }
    g.finish();
}

fn bench_join_queries(c: &mut Criterion) {
    let data = TpchData::generate(&TpchConfig {
        scale_factor: 0.02,
        seed: 3,
    });
    let mut s = tqp_core::Session::new();
    s.register_tpch(&data);
    for qn in [3usize, 14] {
        let sql = queries::query(qn);
        let mut g = c.benchmark_group(format!("q{qn}_join_strategy"));
        g.sample_size(10);
        for strat in [JoinStrategy::SortMerge, JoinStrategy::Hash] {
            let q = s
                .compile(
                    sql,
                    QueryConfig::default().physical(PhysicalOptions {
                        join: Some(strat),
                        agg: Some(AggStrategy::Sort),
                    }),
                )
                .unwrap();
            g.bench_function(format!("{strat:?}"), |b| {
                b.iter(|| q.run(&s).unwrap().0.nrows())
            });
        }
        g.finish();
    }
}

criterion_group!(benches, bench_join_micro, bench_join_queries);
criterion_main!(benches);

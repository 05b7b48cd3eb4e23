//! All 22 TPC-H queries must compile and execute on the row-Volcano oracle.
//! This exercises the full front half of the stack: parser → binder →
//! optimizer (decorrelation, join extraction, pushdown, pruning) →
//! physical planning → row execution.

use std::collections::HashMap;

use tqp_repro::baseline::RowEngine;
use tqp_repro::data::tpch::{queries, TpchConfig, TpchData};
use tqp_repro::data::DataFrame;
use tqp_repro::ir::{compile_sql, Catalog, PhysicalOptions};
use tqp_repro::ml::ModelRegistry;

fn setup() -> (HashMap<String, DataFrame>, Catalog) {
    let data = TpchData::generate(&TpchConfig {
        scale_factor: 0.01,
        seed: 1,
    });
    let mut tables = HashMap::new();
    let mut catalog = Catalog::new();
    for (name, frame) in data.tables() {
        catalog.register(name, frame.schema().clone(), frame.nrows());
        tables.insert(name.to_string(), frame.clone());
    }
    (tables, catalog)
}

#[test]
fn all_22_queries_run_on_row_engine() {
    let (tables, catalog) = setup();
    let models = ModelRegistry::new();
    let engine = RowEngine::new(&tables, &models);
    for (n, sql) in queries::all() {
        let plan = compile_sql(sql, &catalog, &PhysicalOptions)
            .unwrap_or_else(|e| panic!("Q{n} failed to compile: {e}"));
        let result = engine.execute(&plan);
        // Sanity: the well-known result shapes.
        match n {
            1 => {
                assert_eq!(
                    result.nrows(),
                    4,
                    "Q1 has 4 (returnflag, linestatus) groups"
                );
                assert_eq!(result.ncols(), 10);
            }
            3 => assert!(result.nrows() <= 10, "Q3 is LIMIT 10"),
            4 => assert!(result.nrows() <= 5, "Q4 groups by 5 priorities"),
            6 => {
                assert_eq!(result.nrows(), 1);
                let rev = result.column(0).get(0).as_f64();
                assert!(rev > 0.0, "Q6 revenue must be positive, got {rev}");
            }
            13 => assert!(result.nrows() >= 2, "Q13 has a 0-orders bucket"),
            14 => {
                let promo = result.column(0).get(0).as_f64();
                assert!(
                    promo > 0.0 && promo < 100.0,
                    "Q14 promo share out of range: {promo}"
                );
            }
            18 => assert!(result.nrows() <= 100),
            22 => assert!(result.nrows() >= 1, "Q22 must produce country codes"),
            _ => {}
        }
        eprintln!("Q{n:2}: {} rows x {} cols", result.nrows(), result.ncols());
    }
}

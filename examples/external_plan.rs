//! The external-plan frontend: TQP "accepts input as a Spark SQL physical
//! plan" (paper §1) — its architecture "decouples the physical plan
//! specification from the other layers" (§2.2). This example plays the role
//! of an external system: it serializes a physical plan to JSON, ships it
//! across a process boundary (a file), and executes it in a fresh session
//! that never saw the SQL.
//!
//! ```bash
//! cargo run --release --example external_plan
//! ```

use tqp_repro::core::{QueryConfig, Session};
use tqp_repro::data::tpch::{queries, TpchConfig, TpchData};
use tqp_repro::exec::Backend;
use tqp_repro::ir::physical::PhysicalPlan;

fn main() {
    let data = TpchData::generate(&TpchConfig {
        scale_factor: 0.02,
        seed: 42,
    });

    // --- The "frontend database system" process -------------------------
    let plan_json = {
        let mut frontend = Session::new();
        frontend.register_tpch(&data);
        let q = frontend
            .compile(queries::query(3), QueryConfig::default())
            .unwrap();
        q.plan().to_json()
    };
    std::fs::create_dir_all("target").ok();
    std::fs::write("target/q3_physical_plan.json", &plan_json).unwrap();
    println!(
        "frontend exported the Q3 physical plan ({} bytes) to target/q3_physical_plan.json",
        plan_json.len()
    );

    // --- The TQP executor process ----------------------------------------
    let shipped = std::fs::read_to_string("target/q3_physical_plan.json").unwrap();
    let plan = PhysicalPlan::from_json(&shipped).expect("plan deserializes");
    println!("\nimported plan:\n{}", plan.display_tree());

    let mut executor_session = Session::new();
    executor_session.register_tpch(&data);
    let q = executor_session
        .compile_plan(&plan, QueryConfig::default().backend(Backend::Graph))
        .expect("plan compiles");
    let (result, stats) = q.run(&executor_session).unwrap();
    println!("{}", result.to_table_string(10));
    println!("executed the shipped plan in {} us", stats.wall_us);
}

//! Executor-graph visualization (paper Figure 4): render a physical plan as
//! Graphviz DOT, with ML operators (`PREDICT` splice points) highlighted.

use tqp_ir::physical::PhysicalPlan;
use tqp_ir::BoundExpr;
use tqp_profile::graph::DotGraph;

/// Build the DOT executor graph for a plan. Data sources render as
/// cylinders, relational operators as blue boxes, ML operators as salmon
/// boxes (the Figure 4 colour scheme).
pub fn plan_to_dot(plan: &PhysicalPlan, title: &str) -> String {
    let mut g = DotGraph::new();
    build(plan, &mut g);
    g.to_dot(title)
}

fn build(plan: &PhysicalPlan, g: &mut DotGraph) -> String {
    let children: Vec<String> = plan.children().iter().map(|c| build(c, g)).collect();
    let (label, kind) = describe(plan);
    let id = g.add_node(&label, kind);
    for c in children {
        g.add_edge(&c, &id, "");
    }
    // Predict calls get their own ML node feeding the operator.
    for (model, n_args) in predicts_of(plan) {
        let m = g.add_node(&format!("Predict('{model}', {n_args} args)"), "ml");
        g.add_edge(&m, &id, "inference");
    }
    id
}

fn describe(plan: &PhysicalPlan) -> (String, &'static str) {
    match plan {
        PhysicalPlan::Scan {
            table, projection, ..
        } => {
            let cols = projection.as_ref().map(|p| p.len());
            let label = match cols {
                Some(k) => format!("Scan {table}\\n({k} cols)"),
                None => format!("Scan {table}"),
            };
            (label, "data")
        }
        other => (other.op_name(), "relational"),
    }
}

fn predicts_of(plan: &PhysicalPlan) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let mut visit = |e: &BoundExpr| {
        e.visit(&mut |n| {
            if let BoundExpr::Predict { model, args, .. } = n {
                out.push((model.clone(), args.len()));
            }
        });
    };
    match plan {
        PhysicalPlan::Filter { predicate, .. } => visit(predicate),
        PhysicalPlan::Project { exprs, .. } => {
            for e in exprs {
                visit(e);
            }
        }
        PhysicalPlan::Aggregate { group_by, aggs, .. } => {
            for e in group_by {
                visit(e);
            }
            for a in aggs {
                if let Some(arg) = &a.arg {
                    visit(arg);
                }
            }
        }
        _ => {}
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqp_data::{Field, LogicalType, Schema};
    use tqp_ir::{compile_sql, Catalog, PhysicalOptions};

    #[test]
    fn dot_for_prediction_query() {
        let mut catalog = Catalog::new();
        catalog.register(
            "reviews",
            Schema::new(vec![
                Field::new("brand", LogicalType::Str),
                Field::new("rating", LogicalType::Int64),
                Field::new("text", LogicalType::Str),
            ]),
            1000,
        );
        let plan = compile_sql(
            "select brand, sum(case when rating >= 3 then 1 else 0 end) as actual_positive, \
             sum(predict('sentiment_classifier', text)) as predicted_positive \
             from reviews group by brand",
            &catalog,
            &PhysicalOptions,
        )
        .unwrap();
        let dot = plan_to_dot(&plan, "figure 4");
        assert!(dot.contains("Scan reviews"));
        assert!(dot.contains("Predict('sentiment_classifier'"));
        assert!(dot.contains("lightsalmon")); // ML highlight
        assert!(dot.contains("Aggregate"));
    }
}

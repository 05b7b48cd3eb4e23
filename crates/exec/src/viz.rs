//! Executor-graph visualization (paper Figure 4): render a physical plan as
//! Graphviz DOT, with ML operators (`PREDICT` splice points) highlighted.

use tqp_ir::physical::PhysicalPlan;
use tqp_ir::BoundExpr;

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
                Some(k) => format!("Scan {table}\n({k} cols)"),
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

/// A directed graph rendered to Graphviz DOT.
#[derive(Default)]
struct DotGraph {
    nodes: Vec<(String, &'static str)>, // (label, attrs); the id is `n{index}`
    edges: Vec<(String, String, String)>, // (from, to, label)
}

impl DotGraph {
    fn new() -> DotGraph {
        DotGraph::default()
    }

    /// Add a node; returns its id. `kind` picks a shape/colour class:
    /// `relational`, `ml`, `data`, or anything else for the default style.
    fn add_node(&mut self, label: &str, kind: &str) -> String {
        let attrs = match kind {
            "relational" => "shape=box,style=filled,fillcolor=lightblue",
            "ml" => "shape=box,style=filled,fillcolor=lightsalmon",
            "data" => "shape=cylinder,style=filled,fillcolor=lightgrey",
            _ => "shape=ellipse",
        };
        self.nodes.push((label.to_string(), attrs));
        format!("n{}", self.nodes.len() - 1)
    }

    /// Add a directed edge with an optional label (e.g. row counts).
    fn add_edge(&mut self, from: &str, to: &str, label: &str) {
        self.edges
            .push((from.to_string(), to.to_string(), label.to_string()));
    }

    fn to_dot(&self, title: &str) -> String {
        let mut out = String::new();
        out.push_str("digraph executor {\n");
        out.push_str(&format!("  label=\"{}\";\n", escape(title)));
        out.push_str("  rankdir=BT;\n  node [fontname=\"Helvetica\"];\n");
        for (i, (label, attrs)) in self.nodes.iter().enumerate() {
            out.push_str(&format!("  n{i} [label=\"{}\",{attrs}];\n", escape(label)));
        }
        for (from, to, label) in &self.edges {
            if label.is_empty() {
                out.push_str(&format!("  {from} -> {to};\n"));
            } else {
                out.push_str(&format!(
                    "  {from} -> {to} [label=\"{}\"];\n",
                    escape(label)
                ));
            }
        }
        out.push_str("}\n");
        out
    }
}

/// A DOT string literal's body: backslashes first, or the quote escaping's
/// own backslashes would be doubled; a newline becomes DOT's `\n` break.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
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
        // A scan that reads some of the columns shows how many on a second
        // line of its node.
        let plan = compile_sql("select brand from reviews", &catalog, &PhysicalOptions).unwrap();
        let dot = plan_to_dot(&plan, "projected");
        assert!(dot.contains(r#"[label="Scan reviews\n(1 cols)","#), "{dot}");
    }

    #[test]
    fn builds_valid_dot() {
        let mut g = DotGraph::new();
        let scan = g.add_node("Scan(reviews)", "data");
        let predict = g.add_node("Predict(sentiment_classifier)", "ml");
        let agg = g.add_node("HashAggregate", "relational");
        g.add_edge(&scan, &predict, "5000 rows");
        g.add_edge(&predict, &agg, "");
        let dot = g.to_dot("figure 4");
        assert!(dot.starts_with("digraph executor {"));
        assert!(dot.contains("lightsalmon"));
        assert!(dot.contains("5000 rows"));
        assert!(dot.contains("n0 -> n1"));
        assert!(dot.contains("n2 [label=\"HashAggregate\""));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn escapes_quotes_and_backslashes() {
        let mut g = DotGraph::new();
        g.add_node("Filter(\"x\")", "relational");
        g.add_node(r#"Filter(LIKE "%a\_b%")"#, "relational");
        let dot = g.to_dot("t");
        assert!(dot.contains("\\\"x\\\""));
        assert!(dot.contains(r#"\\_b"#));
        assert!(dot.contains(r#"\"%a"#));
    }
}

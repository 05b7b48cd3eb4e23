//! Graphviz DOT export of executor graphs — the Figure 4 artifact ("the
//! query-graph is interactive and the audience can double-click on the
//! various components").

/// A directed graph rendered to Graphviz DOT.
#[derive(Debug, Default)]
pub struct DotGraph {
    nodes: Vec<(String, String, String)>, // (id, label, attrs)
    edges: Vec<(String, String, String)>, // (from, to, label)
}

impl DotGraph {
    /// Empty graph.
    pub fn new() -> DotGraph {
        DotGraph::default()
    }

    /// Add a node; returns its id. `kind` picks a shape/colour class:
    /// `relational`, `ml`, `data`, or anything else for the default style.
    pub fn add_node(&mut self, label: &str, kind: &str) -> String {
        let id = format!("n{}", self.nodes.len());
        let attrs = match kind {
            "relational" => "shape=box,style=filled,fillcolor=lightblue",
            "ml" => "shape=box,style=filled,fillcolor=lightsalmon",
            "data" => "shape=cylinder,style=filled,fillcolor=lightgrey",
            _ => "shape=ellipse",
        };
        self.nodes
            .push((id.clone(), label.to_string(), attrs.to_string()));
        id
    }

    /// Add a directed edge with an optional label (e.g. row counts).
    pub fn add_edge(&mut self, from: &str, to: &str, label: &str) {
        self.edges
            .push((from.to_string(), to.to_string(), label.to_string()));
    }

    /// Number of nodes so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Render DOT text.
    pub fn to_dot(&self, title: &str) -> String {
        let mut out = String::new();
        out.push_str("digraph executor {\n");
        out.push_str(&format!("  label=\"{}\";\n", escape(title)));
        out.push_str("  rankdir=BT;\n  node [fontname=\"Helvetica\"];\n");
        for (id, label, attrs) in &self.nodes {
            out.push_str(&format!("  {id} [label=\"{}\",{attrs}];\n", escape(label)));
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

fn escape(s: &str) -> String {
    // Backslashes first, or the quote escaping's own backslashes would be
    // doubled.
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(dot.ends_with("}\n"));
        assert_eq!(g.node_count(), 3);
    }

    #[test]
    fn escapes_quotes() {
        let mut g = DotGraph::new();
        g.add_node("Filter(\"x\")", "relational");
        assert!(g.to_dot("t").contains("\\\"x\\\""));
    }

    #[test]
    fn escapes_backslashes() {
        let mut g = DotGraph::new();
        g.add_node(r#"Filter(LIKE "%a\_b%")"#, "relational");
        let dot = g.to_dot("t");
        assert!(dot.contains(r#"\\_b"#));
        assert!(dot.contains(r#"\"%a"#));
    }
}

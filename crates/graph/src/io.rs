//! Graph (de)serialization: a plain value type, an edge-list text format,
//! and Graphviz DOT export.

use crate::errors::{GraphError, Result};
use crate::graph::Graph;
use crate::ids::NodeId;
use std::fmt::Write as _;

/// A plain-old-data snapshot of a graph, the value behind the simple text
/// formats below.
///
/// Only live structure is captured: `node_count` is the number of *slots*
/// and `dead` lists tombstoned ids so a round-trip reproduces liveness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphData {
    /// Number of allocated node slots.
    pub node_count: usize,
    /// Tombstoned (deleted) node ids.
    pub dead: Vec<NodeId>,
    /// Undirected edges as `(lo, hi)` pairs.
    pub edges: Vec<(NodeId, NodeId)>,
}

impl GraphData {
    /// Capture `g` into a value snapshot.
    pub fn from_graph(g: &Graph) -> Self {
        let dead = (0..g.node_bound())
            .map(NodeId::from_index)
            .filter(|&v| !g.is_alive(v))
            .collect();
        let edges = g.edges().map(|e| e.endpoints()).collect();
        GraphData {
            node_count: g.node_bound(),
            dead,
            edges,
        }
    }

    /// Rebuild a [`Graph`] from the snapshot.
    pub fn into_graph(&self) -> Result<Graph> {
        let mut g = Graph::new(self.node_count);
        for &(a, b) in &self.edges {
            g.add_edge(a, b)?;
        }
        for &v in &self.dead {
            g.remove_node(v)?;
        }
        Ok(g)
    }
}

/// Serialize to a whitespace edge-list: first line `n m`, then one `u v`
/// pair per line. Dead nodes are not representable in this format; use
/// [`GraphData`] when tombstones matter.
pub fn to_edge_list(g: &Graph) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{} {}", g.node_bound(), g.edge_count());
    for e in g.edges() {
        let _ = writeln!(s, "{} {}", e.lo(), e.hi());
    }
    s
}

/// Parse the edge-list format produced by [`to_edge_list`].
pub fn from_edge_list(text: &str) -> Result<Graph> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or(GraphError::EmptyGraph)?;
    let mut it = header.split_whitespace();
    let n: usize = it
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or(GraphError::EmptyGraph)?;
    let mut g = Graph::new(n);
    for line in lines {
        let mut it = line.split_whitespace();
        let u: u32 = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or(GraphError::EmptyGraph)?;
        let v: u32 = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or(GraphError::EmptyGraph)?;
        g.add_edge(NodeId(u), NodeId(v))?;
    }
    Ok(g)
}

/// Render the live subgraph as Graphviz DOT (undirected).
pub fn to_dot(g: &Graph, name: &str) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "graph {name} {{");
    for v in g.live_nodes() {
        let _ = writeln!(s, "  {v};");
    }
    for e in g.edges() {
        let _ = writeln!(s, "  {} -- {};", e.lo(), e.hi());
    }
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Graph {
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1)).unwrap();
        g.add_edge(NodeId(1), NodeId(2)).unwrap();
        g.add_edge(NodeId(2), NodeId(3)).unwrap();
        g
    }

    #[test]
    fn graph_data_roundtrip() {
        let mut g = sample();
        g.remove_node(NodeId(3)).unwrap();
        let data = GraphData::from_graph(&g);
        let g2 = data.into_graph().unwrap();
        assert_eq!(g2.node_bound(), 4);
        assert!(!g2.is_alive(NodeId(3)));
        assert_eq!(g2.edge_count(), 2);
        assert!(g2.has_edge(NodeId(0), NodeId(1)));
        assert_eq!(GraphData::from_graph(&g2), data);
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = sample();
        let text = to_edge_list(&g);
        let g2 = from_edge_list(&text).unwrap();
        assert_eq!(g2.node_bound(), 4);
        assert_eq!(g2.edge_count(), 3);
        assert!(g2.has_edge(NodeId(1), NodeId(2)));
    }

    #[test]
    fn edge_list_rejects_garbage() {
        assert!(from_edge_list("").is_err());
        assert!(from_edge_list("abc def").is_err());
        assert!(from_edge_list("2 1\n0 zzz").is_err());
        // edge to out-of-range node
        assert!(from_edge_list("2 1\n0 5").is_err());
    }

    #[test]
    fn dot_contains_all_edges() {
        let g = sample();
        let dot = to_dot(&g, "g");
        assert!(dot.starts_with("graph g {"));
        assert!(dot.contains("0 -- 1;"));
        assert!(dot.contains("2 -- 3;"));
        assert!(dot.trim_end().ends_with('}'));
    }
}

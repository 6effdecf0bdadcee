//! Degree-distribution statistics of the live subgraph.

use crate::graph::Graph;

/// Summary of the live degree distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegreeStats {
    /// Minimum degree over live nodes.
    pub min: usize,
    /// Maximum degree over live nodes.
    pub max: usize,
    /// Mean degree over live nodes.
    pub mean: f64,
    /// Number of live nodes the stats were computed over.
    pub nodes: usize,
}

/// Degree statistics of the live subgraph, or `None` if no live nodes.
pub fn degree_stats(g: &Graph) -> Option<DegreeStats> {
    let mut min = usize::MAX;
    let mut max = 0usize;
    let mut sum = 0usize;
    let mut nodes = 0usize;
    for v in g.live_nodes() {
        let d = g.degree(v);
        min = min.min(d);
        max = max.max(d);
        sum += d;
        nodes += 1;
    }
    if nodes == 0 {
        None
    } else {
        Some(DegreeStats {
            min,
            max,
            mean: sum as f64 / nodes as f64,
            nodes,
        })
    }
}

/// Histogram of live degrees: `hist[d]` = number of live nodes of degree `d`.
pub fn degree_histogram(g: &Graph) -> Vec<usize> {
    let mut hist = Vec::new();
    for v in g.live_nodes() {
        let d = g.degree(v);
        if hist.len() <= d {
            hist.resize(d + 1, 0);
        }
        hist[d] += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    #[test]
    fn stats_of_star() {
        let mut g = Graph::new(5);
        for i in 1..5 {
            g.add_edge(NodeId(0), NodeId::from_index(i)).unwrap();
        }
        let s = degree_stats(&g).unwrap();
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 4);
        assert!((s.mean - 1.6).abs() < 1e-12);
        assert_eq!(s.nodes, 5);
    }

    #[test]
    fn stats_none_when_empty() {
        let mut g = Graph::new(1);
        g.remove_node(NodeId(0)).unwrap();
        assert_eq!(degree_stats(&g), None);
    }

    #[test]
    fn histogram_of_star() {
        let mut g = Graph::new(4);
        for i in 1..4 {
            g.add_edge(NodeId(0), NodeId::from_index(i)).unwrap();
        }
        assert_eq!(degree_histogram(&g), vec![0, 3, 0, 1]);
    }
}

//! Deterministic classic topologies: path, cycle, star, complete, grid.

use super::from_generated;
use crate::graph::Graph;
use crate::ids::NodeId;

/// The edges `i - 1 — i` of the path over `n` nodes, with room for one
/// more.
fn path_edges(n: usize) -> Vec<[NodeId; 2]> {
    let mut edges = Vec::with_capacity(n);
    edges.extend((1..n).map(|i| [NodeId::from_index(i - 1), NodeId::from_index(i)]));
    edges
}

/// Path graph `0 - 1 - ... - (n-1)`.
pub fn path_graph(n: usize) -> Graph {
    from_generated(n, &path_edges(n))
}

/// Cycle graph over `n >= 3` nodes (for `n < 3` falls back to a path).
pub fn cycle_graph(n: usize) -> Graph {
    let mut edges = path_edges(n);
    if n >= 3 {
        // A path has no wraparound, so the closing edge is new.
        edges.push([NodeId::from_index(n - 1), NodeId(0)]);
    }
    from_generated(n, &edges)
}

/// Star graph: node 0 is the hub, nodes `1..n` are spokes.
pub fn star_graph(n: usize) -> Graph {
    let edges: Vec<[NodeId; 2]> = (1..n).map(|i| [NodeId(0), NodeId::from_index(i)]).collect();
    from_generated(n, &edges)
}

/// Complete graph `K_n`.
pub fn complete_graph(n: usize) -> Graph {
    // `j > i` keeps endpoints distinct and visits each pair once.
    let edges: Vec<[NodeId; 2]> = (0..n)
        .flat_map(|i| ((i + 1)..n).map(move |j| [NodeId::from_index(i), NodeId::from_index(j)]))
        .collect();
    from_generated(n, &edges)
}

/// `rows x cols` 4-connected grid; node `(r, c)` has id `r * cols + c`.
pub fn grid_graph(rows: usize, cols: usize) -> Graph {
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            let v = NodeId::from_index(r * cols + c);
            if c + 1 < cols {
                edges.push([v, NodeId::from_index(r * cols + c + 1)]);
            }
            if r + 1 < rows {
                edges.push([v, NodeId::from_index((r + 1) * cols + c)]);
            }
        }
    }
    from_generated(rows * cols, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::is_connected;
    use crate::paths::diameter;

    #[test]
    fn path_properties() {
        let g = path_graph(10);
        assert_eq!(g.edge_count(), 9);
        assert!(is_connected(&g));
        assert_eq!(diameter(&g), Some(9));
        assert_eq!(path_graph(0).edge_count(), 0);
        assert_eq!(path_graph(1).edge_count(), 0);
    }

    #[test]
    fn cycle_properties() {
        let g = cycle_graph(8);
        assert_eq!(g.edge_count(), 8);
        assert_eq!(diameter(&g), Some(4));
        // degenerate sizes fall back to paths
        assert_eq!(cycle_graph(2).edge_count(), 1);
        assert_eq!(cycle_graph(1).edge_count(), 0);
    }

    #[test]
    fn star_properties() {
        let g = star_graph(6);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.degree(NodeId(0)), 5);
        assert_eq!(diameter(&g), Some(2));
    }

    #[test]
    fn complete_properties() {
        let g = complete_graph(7);
        assert_eq!(g.edge_count(), 21);
        assert_eq!(diameter(&g), Some(1));
    }

    #[test]
    fn grid_properties() {
        let g = grid_graph(3, 4);
        assert_eq!(g.live_node_count(), 12);
        // edges: 3 rows * 3 horizontal + 2 * 4 vertical = 9 + 8
        assert_eq!(g.edge_count(), 17);
        assert!(is_connected(&g));
        assert_eq!(diameter(&g), Some(5));
        assert_eq!(g.degree(NodeId(0)), 2); // corner
    }
}

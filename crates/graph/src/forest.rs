//! Forest/tree predicates and reconnection-shape helpers.
//!
//! The healing algorithms wire a set of nodes into one of three shapes:
//! a *complete binary tree* (DASH and the naive binary-tree heal), a
//! *line* (the earlier Boman et al. baseline) or a *star* (SDASH's
//! surrogation). The shape helpers here produce the edge lists of the
//! first two; the predicates verify the forest invariant of the healing
//! graph `G'` (Lemma 1 of the paper).

use crate::components::connected_components;
use crate::graph::GraphRead;
use crate::ids::NodeId;

/// Whether the live subgraph is a forest (acyclic).
///
/// Uses the identity `|E| = |V| - #components` that characterizes forests.
pub fn is_forest<G: GraphRead>(g: G) -> bool {
    let cc = connected_components(&g);
    g.edge_count() == g.live_node_count() - cc.count
}

/// Whether the live subgraph is a single tree (connected and acyclic).
///
/// The empty graph is *not* a tree; a single isolated node is.
pub fn is_tree<G: GraphRead>(g: G) -> bool {
    g.live_node_count() >= 1
        && g.edge_count() == g.live_node_count() - 1
        && crate::components::is_connected(&g)
}

/// Edge list wiring `nodes` into a complete binary tree in the given
/// order: `nodes[0]` is the root, `nodes[1..3]` its children, and so on
/// (left to right, top down — exactly the mapping in Algorithm 1).
pub fn complete_binary_tree_edges(nodes: &[NodeId]) -> Vec<(NodeId, NodeId)> {
    let mut edges = Vec::with_capacity(nodes.len().saturating_sub(1));
    for i in 1..nodes.len() {
        edges.push((nodes[(i - 1) / 2], nodes[i]));
    }
    edges
}

/// Edge list wiring `nodes` into a line (path) in the given order.
pub fn line_edges(nodes: &[NodeId]) -> Vec<(NodeId, NodeId)> {
    nodes.windows(2).map(|w| (w[0], w[1])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().map(|&x| NodeId(x)).collect()
    }

    #[test]
    fn forest_and_tree_predicates() {
        let mut g = Graph::new(5);
        assert!(is_forest(&g)); // isolated nodes form a forest
        assert!(!is_tree(&g));
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 4)] {
            g.add_edge(NodeId(a), NodeId(b)).unwrap();
        }
        assert!(is_forest(&g));
        assert!(is_tree(&g));
        g.add_edge(NodeId(0), NodeId(4)).unwrap(); // close the cycle
        assert!(!is_forest(&g));
        assert!(!is_tree(&g));
    }

    #[test]
    fn single_node_is_tree_empty_is_not() {
        let g = Graph::new(1);
        assert!(is_tree(&g));
        let e = Graph::new(0);
        assert!(is_forest(&e));
        assert!(!is_tree(&e));
    }

    #[test]
    fn complete_binary_tree_edges_shape() {
        let nodes = ids(&[10, 20, 30, 40, 50]);
        let edges = complete_binary_tree_edges(&nodes);
        assert_eq!(
            edges,
            vec![
                (NodeId(10), NodeId(20)),
                (NodeId(10), NodeId(30)),
                (NodeId(20), NodeId(40)),
                (NodeId(20), NodeId(50)),
            ]
        );
    }

    #[test]
    fn binary_tree_of_trivial_sizes() {
        assert!(complete_binary_tree_edges(&[]).is_empty());
        assert!(complete_binary_tree_edges(&ids(&[1])).is_empty());
        assert_eq!(
            complete_binary_tree_edges(&ids(&[1, 2])),
            vec![(NodeId(1), NodeId(2))]
        );
    }

    #[test]
    fn binary_tree_edges_form_a_tree() {
        let nodes: Vec<NodeId> = (0..31).map(NodeId).collect();
        let edges = complete_binary_tree_edges(&nodes);
        let mut g = Graph::new(31);
        for (a, b) in edges {
            g.add_edge(a, b).unwrap();
        }
        assert!(is_tree(&g));
        // Max degree in a complete binary tree is 3 (parent + 2 children).
        assert!(nodes.iter().all(|&v| g.degree(v) <= 3));
    }

    #[test]
    fn line_edges_shape() {
        let nodes = ids(&[1, 2, 3, 4]);
        assert_eq!(
            line_edges(&nodes),
            vec![
                (NodeId(1), NodeId(2)),
                (NodeId(2), NodeId(3)),
                (NodeId(3), NodeId(4))
            ]
        );
        assert!(line_edges(&ids(&[7])).is_empty());
    }
}

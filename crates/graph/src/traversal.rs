//! Breadth-first traversal over live nodes.
//!
//! The traversal allocates its bookkeeping from the graph's
//! [`node_bound`](crate::GraphRead::node_bound) so it is safe to run on
//! graphs with tombstoned (deleted) nodes.

use crate::graph::GraphRead;
use crate::ids::NodeId;
use std::collections::VecDeque;

/// Breadth-first search from `src`, invoking `visit(node, depth)` for every
/// reachable live node (including `src` at depth 0).
///
/// Returns the number of nodes visited. Does nothing (returns 0) if `src`
/// is dead or out of range.
pub fn bfs<G: GraphRead, F: FnMut(NodeId, u32)>(g: G, src: NodeId, mut visit: F) -> usize {
    if !g.is_alive(src) {
        return 0;
    }
    let mut seen = vec![false; g.node_bound()];
    let mut queue = VecDeque::new();
    seen[src.index()] = true;
    queue.push_back((src, 0u32));
    let mut count = 0;
    while let Some((v, d)) = queue.pop_front() {
        visit(v, d);
        count += 1;
        for &u in g.neighbors(v) {
            if !seen[u.index()] {
                seen[u.index()] = true;
                queue.push_back((u, d + 1));
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn cycle(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n {
            g.add_edge(NodeId::from_index(i), NodeId::from_index((i + 1) % n))
                .unwrap();
        }
        g
    }

    #[test]
    fn bfs_visits_all_reachable() {
        let g = cycle(6);
        let mut order = Vec::new();
        let n = bfs(&g, NodeId(0), |v, _| order.push(v));
        assert_eq!(n, 6);
        assert_eq!(order.len(), 6);
        assert_eq!(order[0], NodeId(0));
    }

    #[test]
    fn bfs_depths_on_cycle() {
        let g = cycle(6);
        let mut depth = vec![0u32; 6];
        bfs(&g, NodeId(0), |v, d| depth[v.index()] = d);
        assert_eq!(depth, vec![0, 1, 2, 3, 2, 1]);
    }

    #[test]
    fn bfs_from_dead_node_is_empty() {
        let mut g = cycle(4);
        g.remove_node(NodeId(0)).unwrap();
        assert_eq!(bfs(&g, NodeId(0), |_, _| {}), 0);
    }
}

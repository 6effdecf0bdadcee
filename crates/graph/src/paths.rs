//! Shortest paths (unweighted), eccentricity and diameter.

use crate::csr::{Csr, UNREACHABLE};
use crate::graph::Graph;
use crate::ids::NodeId;
use std::collections::VecDeque;

/// BFS hop distances from `src` indexed by original node id
/// (`UNREACHABLE` for dead or unreachable nodes).
pub fn bfs_distances(g: &Graph, src: NodeId) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.node_bound()];
    if !g.is_alive(src) {
        return dist;
    }
    let mut queue = VecDeque::new();
    dist[src.index()] = 0;
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        let next = dist[v.index()] + 1;
        for &u in g.neighbors(v) {
            if dist[u.index()] == UNREACHABLE {
                dist[u.index()] = next;
                queue.push_back(u);
            }
        }
    }
    dist
}

/// Hop distance between two nodes, or `None` if disconnected/dead.
pub fn distance(g: &Graph, u: NodeId, v: NodeId) -> Option<u32> {
    if !g.is_alive(u) || !g.is_alive(v) {
        return None;
    }
    let dist = bfs_distances(g, u);
    match dist[v.index()] {
        UNREACHABLE => None,
        d => Some(d),
    }
}

/// All-pairs shortest path matrix over the dense indices of a CSR
/// snapshot: `result[i][j]` is the hop distance from dense `i` to dense `j`.
///
/// Serial version; see [`crate::parallel::parallel_apsp`] for the
/// multi-threaded one.
pub fn apsp(csr: &Csr) -> Vec<Vec<u32>> {
    let mut out = Vec::with_capacity(csr.len());
    let mut queue = Vec::new();
    for src in 0..csr.len() {
        let mut dist = Vec::new();
        csr.bfs_into(src, &mut dist, &mut queue);
        out.push(dist);
    }
    out
}

/// Eccentricity of `src`: the maximum finite distance to any live node, or
/// `None` if some live node is unreachable or `src` is dead.
pub fn eccentricity(g: &Graph, src: NodeId) -> Option<u32> {
    if !g.is_alive(src) {
        return None;
    }
    let dist = bfs_distances(g, src);
    let mut ecc = 0;
    for v in g.live_nodes() {
        match dist[v.index()] {
            UNREACHABLE => return None,
            d => ecc = ecc.max(d),
        }
    }
    Some(ecc)
}

/// Diameter of the live subgraph: max distance over all connected pairs,
/// or `None` when the graph is disconnected or has no live nodes.
pub fn diameter(g: &Graph) -> Option<u32> {
    let mut best = None;
    for v in g.live_nodes() {
        match eccentricity(g, v) {
            Some(e) => best = Some(best.map_or(e, |b: u32| b.max(e))),
            None => return None,
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 1..n {
            g.add_edge(NodeId::from_index(i - 1), NodeId::from_index(i))
                .unwrap();
        }
        g
    }

    #[test]
    fn distances_on_path() {
        let g = path_graph(5);
        assert_eq!(distance(&g, NodeId(0), NodeId(4)), Some(4));
        assert_eq!(distance(&g, NodeId(2), NodeId(2)), Some(0));
    }

    #[test]
    fn distance_none_for_dead_or_disconnected() {
        let mut g = path_graph(5);
        g.remove_node(NodeId(2)).unwrap();
        assert_eq!(distance(&g, NodeId(0), NodeId(4)), None);
        assert_eq!(distance(&g, NodeId(2), NodeId(0)), None);
    }

    #[test]
    fn apsp_matches_pairwise_bfs() {
        let g = path_graph(5);
        let csr = Csr::from_graph(&g);
        let all = apsp(&csr);
        for (i, row) in all.iter().enumerate() {
            for (j, &d) in row.iter().enumerate() {
                assert_eq!(d, (i as i32 - j as i32).unsigned_abs());
            }
        }
    }

    #[test]
    fn eccentricity_and_diameter() {
        let g = path_graph(5);
        assert_eq!(eccentricity(&g, NodeId(0)), Some(4));
        assert_eq!(eccentricity(&g, NodeId(2)), Some(2));
        assert_eq!(diameter(&g), Some(4));
    }

    #[test]
    fn diameter_none_when_disconnected() {
        let mut g = path_graph(4);
        g.remove_edge(NodeId(1), NodeId(2)).unwrap();
        assert_eq!(diameter(&g), None);
        assert_eq!(eccentricity(&g, NodeId(0)), None);
    }

    #[test]
    fn diameter_of_single_node() {
        let g = Graph::new(1);
        assert_eq!(diameter(&g), Some(0));
    }
}

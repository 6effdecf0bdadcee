//! Connected components: BFS labeling and a union-find (disjoint-set)
//! structure.
//!
//! The healing algorithms need component information in two flavors:
//! a one-shot labeling of the current graph (BFS-based,
//! [`connected_components`]) and an incremental structure that absorbs
//! edge insertions cheaply ([`UnionFind`], used to track the healing
//! forest `G'` under merges).

use crate::graph::GraphRead;
use crate::ids::NodeId;
use std::collections::VecDeque;

/// Result of a one-shot component labeling.
#[derive(Clone, Debug)]
pub struct ComponentLabels {
    /// `labels[v] == usize::MAX` for dead nodes, otherwise the component
    /// index in `0..count`.
    pub labels: Vec<usize>,
    /// Number of connected components among live nodes.
    pub count: usize,
}

impl ComponentLabels {
    /// Component index of `v`, or `None` if `v` is dead/out of range.
    pub fn component_of(&self, v: NodeId) -> Option<usize> {
        match self.labels.get(v.index()) {
            Some(&l) if l != usize::MAX => Some(l),
            _ => None,
        }
    }

    /// Whether two live nodes share a component.
    pub fn same_component(&self, u: NodeId, v: NodeId) -> bool {
        match (self.component_of(u), self.component_of(v)) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        }
    }

    /// Sizes of every component, indexed by component label.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.count];
        for &l in &self.labels {
            if l != usize::MAX {
                sizes[l] += 1;
            }
        }
        sizes
    }
}

/// Label the connected components of the live subgraph.
///
/// Components are numbered in order of their smallest node id, so the
/// labeling is deterministic.
pub fn connected_components<G: GraphRead>(g: G) -> ComponentLabels {
    let mut labels = vec![usize::MAX; g.node_bound()];
    let mut count = 0;
    let mut queue = VecDeque::new();
    for src in (0..g.node_bound()).map(NodeId::from_index) {
        if !g.is_alive(src) || labels[src.index()] != usize::MAX {
            continue;
        }
        labels[src.index()] = count;
        queue.push_back(src);
        while let Some(v) = queue.pop_front() {
            for &u in g.neighbors(v) {
                if labels[u.index()] == usize::MAX {
                    labels[u.index()] = count;
                    queue.push_back(u);
                }
            }
        }
        count += 1;
    }
    ComponentLabels { labels, count }
}

/// Whether all live nodes form a single connected component.
///
/// An empty graph (zero live nodes) is considered connected, matching the
/// paper's "up to all nodes deleted" boundary condition.
pub fn is_connected<G: GraphRead>(g: G) -> bool {
    let Some(src) = (0..g.node_bound())
        .map(NodeId::from_index)
        .find(|&v| g.is_alive(v))
    else {
        return true;
    };
    crate::traversal::bfs(&g, src, |_, _| {}) == g.live_node_count()
}

/// Disjoint-set union with union by rank and path halving.
///
/// Element ids are plain `usize` indices; wrap/unwrap [`NodeId`] at call
/// sites via [`NodeId::index`].
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    sets: usize,
}

impl UnionFind {
    /// Create `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            sets: n,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets.
    pub fn set_count(&self) -> usize {
        self.sets
    }

    /// Add one more singleton set, returning its index.
    pub fn push(&mut self) -> usize {
        let id = self.parent.len();
        self.parent.push(id as u32);
        self.rank.push(0);
        self.sets += 1;
        id
    }

    /// Representative of `x`'s set (with path halving).
    pub fn find(&mut self, x: usize) -> usize {
        let mut x = x as u32;
        while self.parent[x as usize] != x {
            let grandparent = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grandparent;
            x = grandparent;
        }
        x as usize
    }

    /// Merge the sets of `a` and `b`; returns `true` if they were distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra] >= self.rank[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo] = hi as u32;
        if self.rank[hi] == self.rank[lo] {
            self.rank[hi] += 1;
        }
        self.sets -= 1;
        true
    }

    /// Whether `a` and `b` are in the same set.
    pub fn same(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn two_triangles() -> Graph {
        let mut g = Graph::new(6);
        for (a, b) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            g.add_edge(NodeId(a), NodeId(b)).unwrap();
        }
        g
    }

    #[test]
    fn components_of_two_triangles() {
        let g = two_triangles();
        let cc = connected_components(&g);
        assert_eq!(cc.count, 2);
        assert!(cc.same_component(NodeId(0), NodeId(2)));
        assert!(!cc.same_component(NodeId(0), NodeId(3)));
        assert_eq!(cc.sizes(), vec![3, 3]);
        assert!(!is_connected(&g));
    }

    #[test]
    fn components_are_deterministically_numbered() {
        let g = two_triangles();
        let cc = connected_components(&g);
        assert_eq!(cc.component_of(NodeId(0)), Some(0));
        assert_eq!(cc.component_of(NodeId(3)), Some(1));
    }

    #[test]
    fn dead_nodes_have_no_component() {
        let mut g = two_triangles();
        g.remove_node(NodeId(1)).unwrap();
        let cc = connected_components(&g);
        assert_eq!(cc.component_of(NodeId(1)), None);
        assert_eq!(cc.count, 2); // 0-2 still joined through edge (2,0)
    }

    #[test]
    fn empty_graph_is_connected() {
        let g = Graph::new(0);
        assert!(is_connected(&g));
        let mut g1 = Graph::new(1);
        assert!(is_connected(&g1));
        g1.remove_node(NodeId(0)).unwrap();
        assert!(is_connected(&g1));
    }

    #[test]
    fn isolated_nodes_are_their_own_components() {
        let g = Graph::new(3);
        let cc = connected_components(&g);
        assert_eq!(cc.count, 3);
        assert!(!is_connected(&g));
    }

    #[test]
    fn union_find_basic() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.set_count(), 5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2));
        assert_eq!(uf.set_count(), 3);
        assert!(uf.same(0, 2));
        assert!(!uf.same(0, 3));
    }

    #[test]
    fn union_find_push_extends() {
        let mut uf = UnionFind::new(2);
        let id = uf.push();
        assert_eq!(id, 2);
        assert_eq!(uf.len(), 3);
        assert_eq!(uf.set_count(), 3);
        uf.union(0, 2);
        assert!(uf.same(0, 2));
    }

    #[test]
    fn union_find_matches_bfs_components() {
        let g = two_triangles();
        let mut uf = UnionFind::new(g.node_bound());
        for e in g.edges() {
            uf.union(e.lo().index(), e.hi().index());
        }
        let cc = connected_components(&g);
        for u in g.live_nodes() {
            for v in g.live_nodes() {
                assert_eq!(uf.same(u.index(), v.index()), cc.same_component(u, v));
            }
        }
    }
}

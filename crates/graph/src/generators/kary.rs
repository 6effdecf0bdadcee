//! Complete k-ary trees with retained structure.
//!
//! The Theorem 2 lower-bound adversary (LEVELATTACK, Algorithm 2 in the
//! paper) operates on a full `(M+2)`-ary tree and needs to remember the
//! *original* levels and ancestry even after healing has rewired the
//! graph, so this generator returns a [`KaryTree`] carrying that metadata
//! alongside the [`Graph`].

use super::from_generated;
use crate::graph::Graph;
use crate::ids::NodeId;

/// A complete k-ary tree plus its original structural metadata.
///
/// Nodes are numbered in level (BFS) order: the root is node 0 and the
/// children of node `i` are nodes `k*i + 1 ..= k*i + k`.
#[derive(Clone, Debug)]
pub struct KaryTree {
    /// The tree as a graph (mutable copy; healing will rewire it).
    pub graph: Graph,
    /// Branching factor `k >= 1`.
    pub arity: usize,
    /// Depth `D` (root at level 0, leaves at level `D`).
    pub depth: u32,
    levels: Vec<u32>,
}

impl KaryTree {
    /// Build the complete `k`-ary tree of the given depth.
    ///
    /// # Panics
    /// Panics if `arity == 0`.
    pub fn new(arity: usize, depth: u32) -> Self {
        assert!(arity >= 1, "arity must be >= 1");
        let n = Self::size_for(arity, depth);
        let mut levels = vec![0u32; n];
        let mut edges = Vec::with_capacity(n.saturating_sub(1));
        // `parent < i < n`, each child linked once.
        for i in 1..n {
            let parent = (i - 1) / arity;
            edges.push([NodeId::from_index(parent), NodeId::from_index(i)]);
            levels[i] = levels[parent] + 1;
        }
        KaryTree {
            graph: from_generated(n, &edges),
            arity,
            depth,
            levels,
        }
    }

    /// Number of nodes in a complete `k`-ary tree of depth `d`.
    pub fn size_for(arity: usize, depth: u32) -> usize {
        if arity == 1 {
            return depth as usize + 1;
        }
        let mut total = 0usize;
        let mut layer = 1usize;
        for _ in 0..=depth {
            total += layer;
            layer *= arity;
        }
        total
    }

    /// Total number of nodes.
    pub fn node_count(&self) -> usize {
        self.levels.len()
    }

    /// Original level of `v` (0 = root).
    pub fn level(&self, v: NodeId) -> u32 {
        self.levels[v.index()]
    }

    /// Original parent of `v`, or `None` for the root.
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        if v.index() == 0 {
            None
        } else {
            Some(NodeId::from_index((v.index() - 1) / self.arity))
        }
    }

    /// Original children of `v` (empty for original leaves).
    pub fn children(&self, v: NodeId) -> Vec<NodeId> {
        let first = self.arity * v.index() + 1;
        (first..first + self.arity)
            .filter(|&c| c < self.node_count())
            .map(NodeId::from_index)
            .collect()
    }

    /// All node ids at a given original level, in increasing order.
    pub fn nodes_at_level(&self, level: u32) -> Vec<NodeId> {
        (0..self.node_count())
            .filter(|&i| self.levels[i] == level)
            .map(NodeId::from_index)
            .collect()
    }

    /// Whether `desc` lies in the original subtree rooted at `anc`
    /// (inclusive: a node is its own descendant).
    pub fn is_descendant(&self, anc: NodeId, desc: NodeId) -> bool {
        let mut cur = desc;
        loop {
            if cur == anc {
                return true;
            }
            match self.parent(cur) {
                Some(p) => cur = p,
                None => return false,
            }
        }
    }

    /// All original descendants of `v` including `v`, in level order.
    pub fn subtree(&self, v: NodeId) -> Vec<NodeId> {
        let mut out = vec![v];
        let mut head = 0;
        while head < out.len() {
            let cur = out[head];
            head += 1;
            out.extend(self.children(cur));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::is_tree;

    #[test]
    fn sizes() {
        assert_eq!(KaryTree::size_for(2, 0), 1);
        assert_eq!(KaryTree::size_for(2, 3), 15);
        assert_eq!(KaryTree::size_for(3, 2), 13);
        assert_eq!(KaryTree::size_for(1, 5), 6);
    }

    #[test]
    fn structure_is_a_tree() {
        let t = KaryTree::new(3, 3);
        assert_eq!(t.node_count(), 40);
        assert!(is_tree(&t.graph));
        assert_eq!(t.graph.degree(NodeId(0)), 3);
    }

    #[test]
    fn levels_and_parents() {
        let t = KaryTree::new(2, 2); // 7 nodes
        assert_eq!(t.level(NodeId(0)), 0);
        assert_eq!(t.level(NodeId(2)), 1);
        assert_eq!(t.level(NodeId(6)), 2);
        assert_eq!(t.parent(NodeId(0)), None);
        assert_eq!(t.parent(NodeId(5)), Some(NodeId(2)));
        assert_eq!(t.children(NodeId(1)), vec![NodeId(3), NodeId(4)]);
        assert!(t.children(NodeId(6)).is_empty());
    }

    #[test]
    fn nodes_at_level_counts() {
        let t = KaryTree::new(4, 2); // 1 + 4 + 16
        assert_eq!(t.nodes_at_level(0).len(), 1);
        assert_eq!(t.nodes_at_level(1).len(), 4);
        assert_eq!(t.nodes_at_level(2).len(), 16);
        assert!(t.nodes_at_level(3).is_empty());
    }

    #[test]
    fn descendants() {
        let t = KaryTree::new(2, 3);
        assert!(t.is_descendant(NodeId(1), NodeId(1)));
        assert!(t.is_descendant(NodeId(1), NodeId(9)));
        assert!(!t.is_descendant(NodeId(2), NodeId(9)));
        assert!(t.is_descendant(NodeId(0), NodeId(14)));
        let sub = t.subtree(NodeId(1));
        assert_eq!(sub.len(), 7);
        assert!(sub.contains(&NodeId(10)));
        assert!(!sub.contains(&NodeId(2)));
    }

    #[test]
    fn unary_tree_is_a_path() {
        let t = KaryTree::new(1, 4);
        assert_eq!(t.node_count(), 5);
        assert_eq!(t.graph.degree(NodeId(0)), 1);
        assert_eq!(t.graph.degree(NodeId(2)), 2);
        assert_eq!(t.level(NodeId(4)), 4);
    }
}

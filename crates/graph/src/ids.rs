//! Strongly-typed node identifiers.
//!
//! All graphs in this workspace index nodes with a compact [`NodeId`]
//! newtype over `u32`. Using a newtype (instead of bare `usize`) prevents
//! accidental mixing of node ids with, e.g., positions inside a
//! reconstruction tree, and keeps hot adjacency vectors half the size of a
//! `usize`-based representation on 64-bit targets.

use std::fmt;

/// Identifier of a node inside a [`crate::Graph`].
///
/// `NodeId`s are dense indices assigned at construction time: a graph over
/// `n` initial nodes uses ids `0..n`. Deleting a node never invalidates the
/// ids of other nodes (the slot is tombstoned), so a `NodeId` observed at
/// any point during a simulation remains a stable name for that node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Largest representable id, used as a sentinel by some algorithms.
    pub const MAX: NodeId = NodeId(u32::MAX);

    /// The id as a `usize` index, for direct vector indexing.
    #[inline(always)]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a `usize` index.
    ///
    /// # Panics
    /// Panics if `i` does not fit in a `u32`.
    #[inline(always)]
    pub fn from_index(i: usize) -> Self {
        debug_assert!(i <= u32::MAX as usize, "node index {i} overflows u32");
        NodeId(i as u32)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for NodeId {
    #[inline]
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<NodeId> for u32 {
    #[inline]
    fn from(v: NodeId) -> Self {
        v.0
    }
}

/// An undirected edge as an unordered pair of node ids.
///
/// The pair is stored in normalized (sorted) order so `Edge::new(a, b) ==
/// Edge::new(b, a)`, making `Edge` usable as a set/map key.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    lo: NodeId,
    hi: NodeId,
}

impl Edge {
    /// Create a normalized edge; endpoint order does not matter.
    #[inline]
    pub fn new(a: NodeId, b: NodeId) -> Self {
        if a <= b {
            Edge { lo: a, hi: b }
        } else {
            Edge { lo: b, hi: a }
        }
    }

    /// The smaller endpoint.
    #[inline]
    pub fn lo(self) -> NodeId {
        self.lo
    }

    /// The larger endpoint.
    #[inline]
    pub fn hi(self) -> NodeId {
        self.hi
    }

    /// Both endpoints as a tuple `(lo, hi)`.
    #[inline]
    pub fn endpoints(self) -> (NodeId, NodeId) {
        (self.lo, self.hi)
    }

    /// Whether `v` is one of the endpoints.
    #[inline]
    pub fn touches(self, v: NodeId) -> bool {
        self.lo == v || self.hi == v
    }

    /// Given one endpoint, return the other.
    ///
    /// # Panics
    /// Panics if `v` is not an endpoint of this edge.
    #[inline]
    pub fn other(self, v: NodeId) -> NodeId {
        if v == self.lo {
            self.hi
        } else {
            assert_eq!(v, self.hi, "node {v} is not an endpoint of {self:?}");
            self.lo
        }
    }
}

impl fmt::Debug for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}-{})", self.lo.0, self.hi.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let n = NodeId::from_index(42);
        assert_eq!(n.index(), 42);
        assert_eq!(u32::from(n), 42);
        assert_eq!(NodeId::from(42u32), n);
        assert_eq!(format!("{n}"), "42");
        assert_eq!(format!("{n:?}"), "n42");
    }

    #[test]
    fn edge_is_normalized() {
        let a = NodeId(3);
        let b = NodeId(7);
        assert_eq!(Edge::new(a, b), Edge::new(b, a));
        assert_eq!(Edge::new(a, b).lo(), a);
        assert_eq!(Edge::new(a, b).hi(), b);
        assert_eq!(Edge::new(b, a).endpoints(), (a, b));
    }

    #[test]
    fn edge_other_and_touches() {
        let e = Edge::new(NodeId(1), NodeId(2));
        assert_eq!(e.other(NodeId(1)), NodeId(2));
        assert_eq!(e.other(NodeId(2)), NodeId(1));
        assert!(e.touches(NodeId(1)));
        assert!(e.touches(NodeId(2)));
        assert!(!e.touches(NodeId(3)));
    }

    #[test]
    #[should_panic]
    fn edge_other_panics_on_non_endpoint() {
        let e = Edge::new(NodeId(1), NodeId(2));
        let _ = e.other(NodeId(9));
    }

    #[test]
    fn edge_ordering_is_lexicographic() {
        let e1 = Edge::new(NodeId(0), NodeId(5));
        let e2 = Edge::new(NodeId(1), NodeId(2));
        assert!(e1 < e2);
    }
}

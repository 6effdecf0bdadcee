//! Error type shared by all fallible graph operations.

use crate::ids::NodeId;
use std::fmt;

/// Errors returned by mutating or querying operations on [`crate::Graph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// The node id is out of range for this graph.
    NodeOutOfRange(NodeId),
    /// The node exists but has been deleted.
    NodeDead(NodeId),
    /// A self-loop `(v, v)` was requested; simple graphs forbid them.
    SelfLoop(NodeId),
    /// The requested edge already exists.
    EdgeExists(NodeId, NodeId),
    /// The requested edge does not exist.
    EdgeMissing(NodeId, NodeId),
    /// An operation that requires a non-empty graph was called on an empty one.
    EmptyGraph,
    /// [`crate::Graph::validate`] found the named internal invariant broken.
    Corrupt(&'static str),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange(v) => write!(f, "node {v} is out of range"),
            GraphError::NodeDead(v) => write!(f, "node {v} has been deleted"),
            GraphError::SelfLoop(v) => write!(f, "self-loop at node {v} is not allowed"),
            GraphError::EdgeExists(u, v) => write!(f, "edge ({u}, {v}) already exists"),
            GraphError::EdgeMissing(u, v) => write!(f, "edge ({u}, {v}) does not exist"),
            GraphError::EmptyGraph => write!(f, "operation requires a non-empty graph"),
            GraphError::Corrupt(what) => write!(f, "graph invariant broken: {what}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Convenient result alias for graph operations.
pub type Result<T> = std::result::Result<T, GraphError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_the_node() {
        assert!(GraphError::NodeOutOfRange(NodeId(7))
            .to_string()
            .contains('7'));
        assert!(GraphError::NodeDead(NodeId(3)).to_string().contains('3'));
        assert!(GraphError::SelfLoop(NodeId(1)).to_string().contains('1'));
        assert!(GraphError::EdgeExists(NodeId(1), NodeId(2))
            .to_string()
            .contains("(1, 2)"));
        assert!(GraphError::EdgeMissing(NodeId(4), NodeId(5))
            .to_string()
            .contains("(4, 5)"));
        assert!(!GraphError::EmptyGraph.to_string().is_empty());
        assert!(GraphError::Corrupt("edge count")
            .to_string()
            .contains("edge count"));
    }
}

//! Compressed-sparse-row snapshot of the live subgraph.
//!
//! Stretch computation needs many BFS sweeps over a momentarily-frozen
//! graph. Rebuilding the dynamic adjacency into one contiguous CSR buffer
//! makes those sweeps cache-friendly and lets the parallel APSP workers
//! share the structure immutably across threads.

use crate::graph::Graph;
use crate::ids::NodeId;

/// Distance value used for unreachable pairs.
pub const UNREACHABLE: u32 = u32::MAX;

/// An immutable CSR snapshot over the *live* nodes of a [`Graph`].
///
/// Live nodes are renumbered to dense indices `0..len()`; the mapping in
/// both directions is retained so results can be reported in original
/// [`NodeId`] terms.
#[derive(Clone, Debug)]
pub struct Csr {
    /// `offsets[i]..offsets[i+1]` indexes `targets` for dense node `i`.
    offsets: Vec<u32>,
    /// Concatenated neighbor lists in dense indices.
    targets: Vec<u32>,
    /// Dense index -> original id.
    original: Vec<NodeId>,
    /// Original id -> dense index (`u32::MAX` for dead slots).
    dense: Vec<u32>,
}

impl Csr {
    /// Snapshot the live subgraph of `g`.
    pub fn from_graph(g: &Graph) -> Self {
        let n = g.live_node_count();
        let mut original = Vec::with_capacity(n);
        let mut dense = vec![u32::MAX; g.node_bound()];
        for v in g.live_nodes() {
            dense[v.index()] = original.len() as u32;
            original.push(v);
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(g.degree_sum());
        offsets.push(0);
        for &v in &original {
            for &u in g.neighbors(v) {
                targets.push(dense[u.index()]);
            }
            offsets.push(targets.len() as u32);
        }
        Csr {
            offsets,
            targets,
            original,
            dense,
        }
    }

    /// Number of (live) nodes in the snapshot.
    #[inline]
    pub fn len(&self) -> usize {
        self.original.len()
    }

    /// Whether the snapshot contains no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.original.is_empty()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }

    /// Neighbors of dense node `i`.
    #[inline]
    pub fn neighbors(&self, i: usize) -> &[u32] {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Degree of dense node `i`.
    #[inline]
    pub fn degree(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Original id of dense node `i`.
    #[inline]
    pub fn original_id(&self, i: usize) -> NodeId {
        self.original[i]
    }

    /// Dense index of original node `v`, or `None` if dead/out of range.
    #[inline]
    pub fn dense_index(&self, v: NodeId) -> Option<usize> {
        match self.dense.get(v.index()) {
            Some(&d) if d != u32::MAX => Some(d as usize),
            _ => None,
        }
    }

    /// BFS distances (in hops) from dense node `src` to every dense node.
    ///
    /// Unreachable entries are [`UNREACHABLE`]. The output buffer is
    /// supplied by the caller so sweeps can reuse allocations; it is
    /// resized and overwritten.
    pub fn bfs_into(&self, src: usize, dist: &mut Vec<u32>, queue: &mut Vec<u32>) {
        dist.clear();
        dist.resize(self.len(), UNREACHABLE);
        queue.clear();
        dist[src] = 0;
        queue.push(src as u32);
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head] as usize;
            head += 1;
            let next = dist[v] + 1;
            for &u in self.neighbors(v) {
                let u = u as usize;
                if dist[u] == UNREACHABLE {
                    dist[u] = next;
                    queue.push(u as u32);
                }
            }
        }
    }

    /// Convenience wrapper around [`Csr::bfs_into`] that allocates (the
    /// queue once, at its largest size).
    pub fn bfs(&self, src: usize) -> Vec<u32> {
        let mut dist = Vec::new();
        let mut queue = Vec::with_capacity(self.len());
        self.bfs_into(src, &mut dist, &mut queue);
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 1..n {
            g.add_edge(NodeId::from_index(i - 1), NodeId::from_index(i))
                .unwrap();
        }
        g
    }

    #[test]
    fn snapshot_preserves_structure() {
        let g = path(5);
        let csr = Csr::from_graph(&g);
        assert_eq!(csr.len(), 5);
        assert_eq!(csr.edge_count(), 4);
        assert_eq!(csr.degree(0), 1);
        assert_eq!(csr.degree(2), 2);
    }

    #[test]
    fn dense_renumbering_skips_dead_nodes() {
        let mut g = path(5);
        g.remove_node(NodeId(2)).unwrap();
        let csr = Csr::from_graph(&g);
        assert_eq!(csr.len(), 4);
        assert_eq!(csr.dense_index(NodeId(2)), None);
        let d3 = csr.dense_index(NodeId(3)).unwrap();
        assert_eq!(csr.original_id(d3), NodeId(3));
        // 3-4 still connected; 0-1 still connected; but 1 !~ 3.
        let dist = csr.bfs(csr.dense_index(NodeId(0)).unwrap());
        assert_eq!(dist[csr.dense_index(NodeId(1)).unwrap()], 1);
        assert_eq!(dist[d3], UNREACHABLE);
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path(6);
        let csr = Csr::from_graph(&g);
        let dist = csr.bfs(0);
        assert_eq!(dist, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn bfs_into_reuses_buffers() {
        let g = path(4);
        let csr = Csr::from_graph(&g);
        let mut dist = Vec::new();
        let mut queue = Vec::new();
        csr.bfs_into(0, &mut dist, &mut queue);
        assert_eq!(dist, vec![0, 1, 2, 3]);
        csr.bfs_into(3, &mut dist, &mut queue);
        assert_eq!(dist, vec![3, 2, 1, 0]);
    }

    #[test]
    fn empty_snapshot() {
        let mut g = Graph::new(1);
        g.remove_node(NodeId(0)).unwrap();
        let csr = Csr::from_graph(&g);
        assert!(csr.is_empty());
        assert_eq!(csr.edge_count(), 0);
    }
}

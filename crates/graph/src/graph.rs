//! The dynamic undirected graph at the heart of every simulation.
//!
//! [`Graph`] is a simple (no self-loops, no parallel edges) undirected
//! graph with *stable node ids* and tombstoned deletion: removing a node
//! keeps its slot so every other node's id stays valid, which is exactly
//! what a long adversarial deletion/healing run needs.
//!
//! Neighbor lists are kept **sorted**, so membership tests are
//! `O(log deg)` binary searches and neighbor iteration yields ids in
//! increasing order — a property the deterministic healing algorithms rely
//! on for reproducibility.
//!
//! Storage is the pooled arena of [`crate::pool`]: every neighbor list is
//! a contiguous chunk of one shared `Vec<NodeId>`, so `neighbors()` is
//! still a real `&[NodeId]` slice but million-node runs stop paying one
//! heap allocation (and one cache-missing pointer chase) per node.
//!
//! Two side indexes keep an adversary's per-event queries sublinear: a
//! **degree-bucket index** answers [`Graph::max_degree_node`] /
//! [`Graph::min_degree_node`] from the extreme bucket instead of an O(n)
//! scan, and a **Fenwick live-order index** answers [`Graph::nth_live`]
//! (the k-th smallest live id) in O(log n) so adversaries can sample
//! uniform live nodes without materializing the live list. Each is built
//! in O(n) by its first query and maintained by every mutation after
//! that, so a graph nobody asks (a healing graph G′, a serving shard)
//! never pays for either. An index answers only from the graph it
//! shadows, so when it was built cannot change an answer.

use crate::errors::{GraphError, Result};
use crate::ids::{Edge, NodeId};
use crate::pool::{AdjPool, ChunkRef};
use std::sync::OnceLock;
// Under `--cfg loom` the hint atomics become the model checker's mocks,
// so every load/store/fetch_max below is an explored schedule point
// (`make loom-check`; see vendor/loom and crates/graph/tests/loom.rs).
#[cfg(loom)]
use loom::sync::atomic::{AtomicUsize, Ordering};
#[cfg(not(loom))]
use std::sync::atomic::{AtomicUsize, Ordering};

/// Exact degree buckets over the live nodes with lazily-repaired extreme
/// hints.
///
/// Every live node sits in `buckets[degree(v)]`; `pos[v]` is its index in
/// that bucket so moves are O(1) `swap_remove`s. The buckets are chunks
/// of one [`AdjPool`], like the adjacency lists, so a bucket that
/// outgrows its chunk takes one another bucket left behind. Healing
/// keeps moving nodes between degrees until the network is empty, and
/// buckets keep setting new size records; the index still stops
/// allocating once its arena reaches the peak total bucket size. The hints
/// over-approximate (`max_hint ≥` true max, `min_hint ≤` true min):
/// mutations only ever push them outward, and queries walk them back to
/// the first non-empty bucket — each repair step is paid for by the
/// mutation that stranded the hint, so queries are amortized O(1) plus
/// the extreme bucket's tie scan.
///
/// The hints are atomics so queries keep the historical `&self` signature
/// (`Graph::max_degree_node` is called through shared references): a hint
/// repair is a pure narrowing of the search window, so racing relaxed
/// stores can only lose a repair, never break the bounds.
#[derive(Debug)]
struct DegreeIndex {
    pool: AdjPool,
    buckets: Vec<ChunkRef>,
    pos: Vec<u32>,
    max_hint: AtomicUsize,
    min_hint: AtomicUsize,
}

impl Clone for DegreeIndex {
    fn clone(&self) -> Self {
        DegreeIndex {
            pool: self.pool.clone(),
            buckets: self.buckets.clone(),
            pos: self.pos.clone(),
            // relaxed-ok: any conservative snapshot is valid — a hint is
            // only a search start, and a concurrent repair can at worst
            // be lost, leaving the clone's hint equally conservative.
            // Proven by `crates/graph/tests/loom.rs` (`make loom-check`).
            max_hint: AtomicUsize::new(self.max_hint.load(Ordering::Relaxed)),
            // relaxed-ok: as above.
            min_hint: AtomicUsize::new(self.min_hint.load(Ordering::Relaxed)),
        }
    }
}

impl DegreeIndex {
    /// Index the live nodes of `adj` by a counting sort: size every bucket
    /// first, reserve one exactly-sized chunk each, then fill them in id
    /// order. The allocation count is constant, whatever the graph's size.
    fn build(adj: &[ChunkRef], alive: &[bool]) -> Self {
        let live = || (0..adj.len()).filter(|&i| alive[i]);
        let hi = live().map(|i| adj[i].len()).max().unwrap_or(0);
        let mut lens = vec![0u32; hi + 1];
        for i in live() {
            lens[adj[i].len()] += 1;
        }
        let mut pool = AdjPool::default();
        let mut buckets = pool.reserve(&lens);
        let mut pos = vec![0u32; adj.len()];
        for i in live() {
            let bucket = &mut buckets[adj[i].len()];
            pos[i] = bucket.len() as u32;
            pool.push(bucket, NodeId::from_index(i));
        }
        DegreeIndex {
            pool,
            buckets,
            pos,
            max_hint: AtomicUsize::new(hi),
            // The first min query walks up from 0, once.
            min_hint: AtomicUsize::new(0),
        }
    }

    /// Index a freshly added node `v` (the next id) at degree 0.
    fn push_node(&mut self, v: NodeId) {
        self.pos.push(0);
        self.insert(v, 0);
    }

    fn insert(&mut self, v: NodeId, d: usize) {
        if self.buckets.len() <= d {
            self.buckets.resize_with(d + 1, ChunkRef::default);
        }
        let bucket = &mut self.buckets[d];
        self.pos[v.index()] = bucket.len() as u32;
        self.pool.push(bucket, v);
        // relaxed-ok: insert holds `&mut self`, so no query races this
        // store; fetch_max/fetch_min keep the hints conservative
        // (`max_hint ≥` true max, `min_hint ≤` true min) and the loom
        // model checks the full hint protocol under `make loom-check`.
        self.max_hint.fetch_max(d, Ordering::Relaxed);
        // relaxed-ok: as above.
        self.min_hint.fetch_min(d, Ordering::Relaxed);
    }

    fn remove(&mut self, v: NodeId, d: usize) {
        let p = self.pos[v.index()] as usize;
        debug_assert_eq!(self.bucket(d)[p], v);
        let moved = self.pool.swap_remove(&mut self.buckets[d], p);
        self.pos[moved.index()] = p as u32;
    }

    fn change(&mut self, v: NodeId, from: usize, to: usize) {
        self.remove(v, from);
        self.insert(v, to);
    }

    /// The nodes of degree `d`.
    fn bucket(&self, d: usize) -> &[NodeId] {
        self.pool.slice(&self.buckets[d])
    }

    fn is_empty(&self, d: usize) -> bool {
        self.buckets[d].is_empty()
    }

    /// Lowest id in the highest non-empty bucket. The caller guarantees at
    /// least one live node.
    fn max_node(&self) -> NodeId {
        // relaxed-ok: stale reads only start the walk too high — the
        // hint invariant (`max_hint ≥` true max) still holds; verified
        // exhaustively by `crates/graph/tests/loom.rs`.
        let mut h = self.max_hint.load(Ordering::Relaxed);
        while h > 0 && self.is_empty(h) {
            h -= 1;
        }
        // relaxed-ok: lazy repair; racing stores can only lose a repair
        // (leaving a conservative hint), never break the bounds.
        self.max_hint.store(h, Ordering::Relaxed);
        *self
            .bucket(h)
            .iter()
            .min()
            // panic-ok: documented precondition — the caller guarantees a
            // live node, so the downward walk must hit a non-empty bucket.
            .expect("hint repaired to a non-empty bucket")
    }

    /// Lowest id in the lowest non-empty bucket. The caller guarantees at
    /// least one live node.
    fn min_node(&self) -> NodeId {
        // relaxed-ok: mirror of [`Self::max_node`] — stale reads start
        // the walk too low but `min_hint ≤` true min still holds.
        let mut h = self.min_hint.load(Ordering::Relaxed);
        while self.is_empty(h) {
            h += 1;
        }
        // relaxed-ok: lazy repair, losable without harm (see max_node).
        self.min_hint.store(h, Ordering::Relaxed);
        *self
            .bucket(h)
            .iter()
            .min()
            // panic-ok: documented precondition — the caller guarantees a
            // live node, so the upward walk must hit a non-empty bucket.
            .expect("hint repaired to a non-empty bucket")
    }

    /// Every live node of `g` in its degree's bucket at its recorded
    /// position, no stale entries, and the hints still bounding.
    fn validate(&self, g: &Graph) -> Result<()> {
        // relaxed-ok: validation reads on a quiescent graph (`&self`,
        // no concurrent mutators by borrow rules); a conservative
        // hint value is exactly what the bound check wants.
        let max_hint = self.max_hint.load(Ordering::Relaxed);
        // relaxed-ok: as above.
        let min_hint = self.min_hint.load(Ordering::Relaxed);
        let mut indexed = 0usize;
        for d in 0..self.buckets.len() {
            for (p, &v) in self.bucket(d).iter().enumerate() {
                if !g.is_alive(v) || g.degree(v) != d || self.pos[v.index()] as usize != p {
                    return Err(GraphError::Corrupt("degree index entry"));
                }
                indexed += 1;
            }
            if !self.is_empty(d) && (d > max_hint || d < min_hint) {
                return Err(GraphError::Corrupt("degree index hint"));
            }
        }
        if indexed != g.live_count {
            return Err(GraphError::Corrupt("degree index size"));
        }
        Ok(())
    }
}

/// Fenwick (binary-indexed) tree over the alive bits, for O(log n)
/// rank/select on live nodes. Grows by doubling with an O(n) rebuild.
#[derive(Clone, Debug)]
struct LiveIndex {
    /// 1-indexed partial sums; `tree.len() == cap + 1`.
    tree: Vec<u32>,
    cap: usize,
}

impl LiveIndex {
    /// Linear-time build over the alive bits with capacity `cap`.
    fn new(cap: usize, alive: &[bool]) -> Self {
        let mut tree = vec![0u32; cap + 1];
        for (i, &a) in alive.iter().enumerate() {
            tree[i + 1] = u32::from(a);
        }
        for i in 1..=cap {
            let j = i + (i & i.wrapping_neg());
            if j <= cap {
                tree[j] += tree[i];
            }
        }
        LiveIndex { tree, cap }
    }

    fn add(&mut self, i: usize, delta: i32) {
        let mut i = i + 1;
        while i <= self.cap {
            self.tree[i] = (self.tree[i] as i32 + delta) as u32;
            i += i & i.wrapping_neg();
        }
    }

    /// Slot index of the k-th (0-indexed) live node in increasing order.
    /// The caller guarantees `k <` the number of live nodes.
    fn select(&self, k: usize) -> usize {
        let mut pos = 0usize;
        let mut rem = (k + 1) as u32;
        let mut pw = self.cap.next_power_of_two();
        if pw > self.cap {
            pw /= 2;
        }
        while pw > 0 {
            let next = pos + pw;
            if next <= self.cap && self.tree[next] < rem {
                rem -= self.tree[next];
                pos = next;
            }
            pw /= 2;
        }
        pos // tree is 1-indexed: `pos` live entries precede slot `pos`.
    }
}

/// A dynamic, simple, undirected graph with tombstoned node deletion.
///
/// # Examples
/// ```
/// use selfheal_graph::{Graph, NodeId};
///
/// let mut g = Graph::new(4);
/// g.add_edge(NodeId(0), NodeId(1)).unwrap();
/// g.add_edge(NodeId(1), NodeId(2)).unwrap();
/// g.add_edge(NodeId(2), NodeId(3)).unwrap();
/// assert_eq!(g.degree(NodeId(1)), 2);
///
/// let former = g.remove_node(NodeId(1)).unwrap();
/// assert_eq!(former, vec![NodeId(0), NodeId(2)]);
/// assert!(!g.is_alive(NodeId(1)));
/// assert_eq!(g.degree(NodeId(0)), 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Graph {
    /// One arena backing every neighbor list (see [`crate::pool`]).
    pool: AdjPool,
    /// Per-slot chunk handle (dead slots hold the empty handle).
    adj: Vec<ChunkRef>,
    /// Liveness flag per slot.
    alive: Vec<bool>,
    /// Number of live nodes.
    live_count: usize,
    /// Number of live edges.
    edge_count: usize,
    /// Degree buckets for O(extreme-bucket) max/min-degree queries,
    /// built by the first such query.
    degrees: OnceLock<DegreeIndex>,
    /// Fenwick index for O(log n) k-th-live-node selection, built by the
    /// first such query.
    live_index: OnceLock<LiveIndex>,
}

impl Graph {
    /// Create a graph with `n` live, isolated nodes (ids `0..n`).
    pub fn new(n: usize) -> Self {
        Graph {
            adj: vec![ChunkRef::default(); n],
            alive: vec![true; n],
            live_count: n,
            ..Graph::default()
        }
    }

    /// Create an empty graph that will allocate slots lazily via
    /// [`Graph::add_node`].
    pub fn empty() -> Self {
        Self::new(0)
    }

    /// Total number of node slots ever allocated (live + dead).
    ///
    /// All per-node auxiliary vectors in client code should be sized by
    /// this bound.
    #[inline]
    pub fn node_bound(&self) -> usize {
        self.adj.len()
    }

    /// Number of currently live nodes.
    #[inline]
    pub fn live_node_count(&self) -> usize {
        self.live_count
    }

    /// Number of currently live edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Whether `v` refers to an allocated slot (live or dead).
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        v.index() < self.adj.len()
    }

    /// Whether node `v` is currently live.
    #[inline]
    pub fn is_alive(&self, v: NodeId) -> bool {
        self.contains(v) && self.alive[v.index()]
    }

    /// Validate that `v` is an allocated, live node.
    #[inline]
    pub fn check_alive(&self, v: NodeId) -> Result<()> {
        if !self.contains(v) {
            Err(GraphError::NodeOutOfRange(v))
        } else if !self.alive[v.index()] {
            Err(GraphError::NodeDead(v))
        } else {
            Ok(())
        }
    }

    /// Allocate a fresh live node and return its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::from_index(self.adj.len());
        self.adj.push(ChunkRef::default());
        self.alive.push(true);
        self.live_count += 1;
        if let Some(degrees) = self.degrees.get_mut() {
            degrees.push_node(id);
        }
        if let Some(index) = self.live_index.get_mut() {
            if self.alive.len() > index.cap {
                let cap = (index.cap * 2).max(self.alive.len()).max(16);
                *index = LiveIndex::new(cap, &self.alive);
            } else {
                index.add(id.index(), 1);
            }
        }
        id
    }

    /// Degree of `v` (0 for dead or out-of-range nodes).
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        if self.contains(v) {
            self.adj[v.index()].len()
        } else {
            0
        }
    }

    /// The sorted neighbor list of `v` (empty slice for dead nodes).
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        if self.contains(v) {
            self.pool.slice(&self.adj[v.index()])
        } else {
            &[]
        }
    }

    /// Whether the edge `(u, v)` exists (both endpoints live).
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.contains(u)
            && self
                .pool
                .slice(&self.adj[u.index()])
                .binary_search(&v)
                .is_ok()
    }

    /// Insert the undirected edge `(u, v)`.
    ///
    /// # Errors
    /// Fails with [`GraphError::SelfLoop`] for `u == v`, with
    /// [`GraphError::EdgeExists`] if the edge is already present, and with
    /// node errors if either endpoint is dead or out of range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<()> {
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        self.check_alive(u)?;
        self.check_alive(v)?;
        let pos_u = match self.pool.slice(&self.adj[u.index()]).binary_search(&v) {
            Ok(_) => return Err(GraphError::EdgeExists(u, v)),
            Err(pos) => pos,
        };
        // This cannot be Ok if the u-side search wasn't: adjacency is symmetric.
        let pos_v = self
            .pool
            .slice(&self.adj[v.index()])
            .binary_search(&u)
            .expect_err("asymmetric adjacency detected");
        let (du, dv) = (self.adj[u.index()].len(), self.adj[v.index()].len());
        let mut r = self.adj[u.index()];
        self.pool.insert_at(&mut r, pos_u, v);
        self.adj[u.index()] = r;
        let mut r = self.adj[v.index()];
        self.pool.insert_at(&mut r, pos_v, u);
        self.adj[v.index()] = r;
        if let Some(degrees) = self.degrees.get_mut() {
            degrees.change(u, du, du + 1);
            degrees.change(v, dv, dv + 1);
        }
        self.edge_count += 1;
        Ok(())
    }

    /// Insert `(u, v)` if absent; returns `true` when a new edge was added.
    ///
    /// Unlike [`Graph::add_edge`], an already-present edge is not an error.
    pub fn ensure_edge(&mut self, u: NodeId, v: NodeId) -> Result<bool> {
        match self.add_edge(u, v) {
            Ok(()) => Ok(true),
            Err(GraphError::EdgeExists(..)) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Remove the undirected edge `(u, v)`.
    ///
    /// # Errors
    /// Fails with [`GraphError::EdgeMissing`] if the edge is not present.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Result<()> {
        self.check_alive(u)?;
        self.check_alive(v)?;
        let pos_u = self
            .pool
            .slice(&self.adj[u.index()])
            .binary_search(&v)
            .map_err(|_| GraphError::EdgeMissing(u, v))?;
        let pos_v = self
            .pool
            .slice(&self.adj[v.index()])
            .binary_search(&u)
            .map_err(|_| GraphError::EdgeMissing(u, v))?;
        let (du, dv) = (self.adj[u.index()].len(), self.adj[v.index()].len());
        let mut r = self.adj[u.index()];
        self.pool.remove_at(&mut r, pos_u);
        self.adj[u.index()] = r;
        let mut r = self.adj[v.index()];
        self.pool.remove_at(&mut r, pos_v);
        self.adj[v.index()] = r;
        if let Some(degrees) = self.degrees.get_mut() {
            degrees.change(u, du, du - 1);
            degrees.change(v, dv, dv - 1);
        }
        self.edge_count -= 1;
        Ok(())
    }

    /// Delete node `v`, detaching all incident edges.
    ///
    /// Returns the (sorted) list of former neighbors, which is exactly the
    /// set a locality-aware healing algorithm is allowed to rewire.
    pub fn remove_node(&mut self, v: NodeId) -> Result<Vec<NodeId>> {
        let mut neighbors = Vec::new();
        self.remove_node_into(v, &mut neighbors)?;
        Ok(neighbors)
    }

    /// [`Graph::remove_node`] writing the former neighbors into a
    /// caller-owned buffer (cleared first), so steady-state deletion loops
    /// can reuse one allocation across rounds. On error the buffer is left
    /// cleared and the graph untouched.
    pub fn remove_node_into(&mut self, v: NodeId, neighbors: &mut Vec<NodeId>) -> Result<()> {
        neighbors.clear();
        self.check_alive(v)?;
        neighbors.extend_from_slice(self.pool.slice(&self.adj[v.index()]));
        // Release the dead slot's chunk to the pool's free list:
        // tombstoned nodes never come back, so the chunk is immediately
        // reusable and the arena's high-water mark stays bounded by the
        // peak live adjacency.
        let mut r = self.adj[v.index()];
        self.pool.clear(&mut r);
        self.adj[v.index()] = r;
        let mut degrees = self.degrees.get_mut();
        if let Some(degrees) = degrees.as_deref_mut() {
            degrees.remove(v, neighbors.len());
        }
        for &u in neighbors.iter() {
            let pos = self
                .pool
                .slice(&self.adj[u.index()])
                .binary_search(&v)
                // panic-ok: adjacency symmetry is a structural invariant
                // every mutation maintains; asymmetry means memory
                // corruption and must not be papered over.
                .expect("asymmetric adjacency detected");
            let du = self.adj[u.index()].len();
            let mut r = self.adj[u.index()];
            self.pool.remove_at(&mut r, pos);
            self.adj[u.index()] = r;
            if let Some(degrees) = degrees.as_deref_mut() {
                degrees.change(u, du, du - 1);
            }
        }
        self.edge_count -= neighbors.len();
        self.alive[v.index()] = false;
        self.live_count -= 1;
        if let Some(live_index) = self.live_index.get_mut() {
            live_index.add(v.index(), -1);
        }
        Ok(())
    }

    /// Iterator over the ids of all live nodes, in increasing order.
    pub fn live_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.alive
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(i, _)| NodeId::from_index(i))
    }

    /// Collect the degree of every slot (dead slots report 0) into
    /// `out`, indexed by [`NodeId::index`] and sized to
    /// [`Graph::node_bound`], reusing its allocation.
    pub fn degrees_into(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend(
            self.adj
                .iter()
                .map(|r| u32::try_from(r.len()).unwrap_or(u32::MAX)),
        );
    }

    /// The k-th (0-indexed) live node in increasing id order, in O(log n)
    /// (the first call builds the live index in O(n)).
    ///
    /// Agrees exactly with `live_nodes().nth(k)`: sampling
    /// `nth_live(rng.gen_range(live_node_count()))` draws the same node a
    /// collect-then-index of the live list would, without the O(n) scan.
    pub fn nth_live(&self, k: usize) -> Option<NodeId> {
        if k >= self.live_count {
            return None;
        }
        let index = self
            .live_index
            .get_or_init(|| LiveIndex::new(self.alive.len(), &self.alive));
        Some(NodeId::from_index(index.select(k)))
    }

    /// Iterator over all live edges, each reported once with `lo < hi`.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.adj.iter().enumerate().flat_map(move |(i, r)| {
            let u = NodeId::from_index(i);
            self.pool
                .slice(r)
                .iter()
                .filter(move |&&w| u < w)
                .map(move |&w| Edge::new(u, w))
        })
    }

    /// The neighbor-of-neighbor (NoN) set of `v`: every node at distance
    /// exactly 1 or 2 from `v`, excluding `v` itself, sorted and deduplicated.
    ///
    /// This is the information the paper assumes every node maintains
    /// ("for all nodes x, y, z such that x is a neighbor of y and y is a
    /// neighbor of z, x knows z").
    ///
    /// Written into a caller-owned buffer (cleared first), so per-deletion
    /// NoN walks can reuse one allocation across rounds.
    pub fn neighbors_of_neighbors_into(&self, v: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        for &u in self.neighbors(v) {
            out.push(u);
            out.extend(self.neighbors(u).iter().copied().filter(|&w| w != v));
        }
        out.sort_unstable();
        out.dedup();
    }

    /// The live node with the maximum degree (ties broken by lowest id).
    ///
    /// Returns `None` when the graph has no live nodes. Answered from the
    /// degree-bucket index: amortized O(1) hint repair plus a scan of the
    /// single extreme bucket (instead of an O(n) full scan). The first
    /// degree query builds the index in O(n).
    pub fn max_degree_node(&self) -> Option<NodeId> {
        if self.live_count == 0 {
            return None;
        }
        Some(self.degree_index().max_node())
    }

    /// The live node with the minimum degree (ties broken by lowest id).
    pub fn min_degree_node(&self) -> Option<NodeId> {
        if self.live_count == 0 {
            return None;
        }
        Some(self.degree_index().min_node())
    }

    /// The degree index, built on first use.
    fn degree_index(&self) -> &DegreeIndex {
        self.degrees
            .get_or_init(|| DegreeIndex::build(&self.adj, &self.alive))
    }

    /// Sum of degrees over all live nodes (= `2 * edge_count`).
    pub fn degree_sum(&self) -> usize {
        self.adj.iter().map(ChunkRef::len).sum()
    }

    /// Internal consistency check used by tests and `debug_assert!`s:
    /// adjacency symmetric & sorted, dead nodes isolated, counters correct,
    /// and each side index that has been built correct.
    pub fn validate(&self) -> Result<()> {
        let mut edges = 0usize;
        let mut live = 0usize;
        for (i, r) in self.adj.iter().enumerate() {
            let v = NodeId::from_index(i);
            let nbrs = self.pool.slice(r);
            if self.alive[i] {
                live += 1;
            } else if !nbrs.is_empty() {
                return Err(GraphError::NodeDead(v));
            }
            let mut prev: Option<NodeId> = None;
            for &u in nbrs {
                if u == v {
                    return Err(GraphError::SelfLoop(v));
                }
                if let Some(p) = prev {
                    if p >= u {
                        // duplicate or unsorted entry
                        return Err(GraphError::EdgeExists(v, u));
                    }
                }
                prev = Some(u);
                if !self.is_alive(u) {
                    return Err(GraphError::NodeDead(u));
                }
                if self
                    .pool
                    .slice(&self.adj[u.index()])
                    .binary_search(&v)
                    .is_err()
                {
                    return Err(GraphError::EdgeMissing(u, v));
                }
                edges += 1;
            }
        }
        debug_assert_eq!(edges % 2, 0);
        if edges / 2 != self.edge_count {
            return Err(GraphError::Corrupt("edge count"));
        }
        if live != self.live_count {
            return Err(GraphError::Corrupt("live count"));
        }
        if let Some(degrees) = self.degrees.get() {
            degrees.validate(self)?;
        }
        if let Some(live_index) = self.live_index.get() {
            // Fenwick rank/select must agree with the alive bits.
            for (k, v) in self.live_nodes().enumerate() {
                if live_index.select(k) != v.index() {
                    return Err(GraphError::Corrupt("live index select"));
                }
            }
        }
        Ok(())
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
    fn new_graph_is_isolated() {
        let g = Graph::new(5);
        assert_eq!(g.live_node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        for v in g.live_nodes() {
            assert_eq!(g.degree(v), 0);
        }
        g.validate().unwrap();
    }

    #[test]
    fn bulk_accessors_match_their_per_node_counterparts() {
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1)).unwrap();
        g.add_edge(NodeId(1), NodeId(2)).unwrap();
        g.add_edge(NodeId(2), NodeId(3)).unwrap();
        g.remove_node(NodeId(1)).unwrap();

        let mut degs = vec![77u32]; // stale content must be cleared
        g.degrees_into(&mut degs);
        assert_eq!(degs.len(), g.node_bound());
        for (i, &d) in degs.iter().enumerate() {
            assert_eq!(d as usize, g.degree(NodeId::from_index(i)));
        }
        assert_eq!(degs[1], 0, "dead slot must report degree 0");
    }

    #[test]
    fn add_and_query_edges() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(2)).unwrap();
        assert!(g.has_edge(NodeId(0), NodeId(2)));
        assert!(g.has_edge(NodeId(2), NodeId(0)));
        assert!(!g.has_edge(NodeId(0), NodeId(1)));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree_sum(), 2);
        g.validate().unwrap();
    }

    #[test]
    fn duplicate_edge_rejected() {
        let mut g = Graph::new(2);
        g.add_edge(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(
            g.add_edge(NodeId(1), NodeId(0)),
            Err(GraphError::EdgeExists(NodeId(1), NodeId(0)))
        );
        assert_eq!(g.ensure_edge(NodeId(0), NodeId(1)), Ok(false));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = Graph::new(2);
        assert_eq!(
            g.add_edge(NodeId(1), NodeId(1)),
            Err(GraphError::SelfLoop(NodeId(1)))
        );
    }

    #[test]
    fn out_of_range_rejected() {
        let mut g = Graph::new(2);
        assert_eq!(
            g.add_edge(NodeId(0), NodeId(9)),
            Err(GraphError::NodeOutOfRange(NodeId(9)))
        );
        assert!(!g.is_alive(NodeId(9)));
        assert!(!g.has_edge(NodeId(0), NodeId(9)));
    }

    #[test]
    fn remove_edge_works_and_missing_edge_errors() {
        let mut g = path(3);
        g.remove_edge(NodeId(0), NodeId(1)).unwrap();
        assert!(!g.has_edge(NodeId(0), NodeId(1)));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(
            g.remove_edge(NodeId(0), NodeId(1)),
            Err(GraphError::EdgeMissing(NodeId(0), NodeId(1)))
        );
        g.validate().unwrap();
    }

    #[test]
    fn remove_node_detaches_and_tombstones() {
        let mut g = path(4);
        let nbrs = g.remove_node(NodeId(1)).unwrap();
        assert_eq!(nbrs, vec![NodeId(0), NodeId(2)]);
        assert!(!g.is_alive(NodeId(1)));
        assert_eq!(g.live_node_count(), 3);
        assert_eq!(g.edge_count(), 1); // only (2,3) remains
        assert_eq!(g.degree(NodeId(0)), 0);
        assert_eq!(
            g.check_alive(NodeId(1)),
            Err(GraphError::NodeDead(NodeId(1)))
        );
        g.validate().unwrap();
    }

    #[test]
    fn removing_dead_node_errors() {
        let mut g = path(3);
        g.remove_node(NodeId(0)).unwrap();
        assert_eq!(
            g.remove_node(NodeId(0)),
            Err(GraphError::NodeDead(NodeId(0)))
        );
    }

    #[test]
    fn edges_are_reported_once() {
        let g = path(4);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        assert_eq!(edges[0], Edge::new(NodeId(0), NodeId(1)));
        assert_eq!(edges[2], Edge::new(NodeId(2), NodeId(3)));
    }

    #[test]
    fn add_node_extends_graph() {
        let mut g = Graph::new(1);
        let v = g.add_node();
        assert_eq!(v, NodeId(1));
        g.add_edge(NodeId(0), v).unwrap();
        assert_eq!(g.live_node_count(), 2);
        g.validate().unwrap();
    }

    #[test]
    fn neighbors_of_neighbors_into_reuses_buffer() {
        let g = path(5);
        let mut out = vec![NodeId(99)]; // stale content must be cleared
        g.neighbors_of_neighbors_into(NodeId(2), &mut out);
        assert_eq!(out, vec![NodeId(0), NodeId(1), NodeId(3), NodeId(4)]);
        let cap = out.capacity();
        g.neighbors_of_neighbors_into(NodeId(0), &mut out);
        assert_eq!(out, vec![NodeId(1), NodeId(2)]);
        assert_eq!(out.capacity(), cap, "buffer must be reused, not replaced");
    }

    #[test]
    fn max_and_min_degree_nodes() {
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1)).unwrap();
        g.add_edge(NodeId(0), NodeId(2)).unwrap();
        g.add_edge(NodeId(0), NodeId(3)).unwrap();
        assert_eq!(g.max_degree_node(), Some(NodeId(0)));
        assert_eq!(g.min_degree_node(), Some(NodeId(1))); // tie broken by id
        let mut empty = Graph::new(1);
        empty.remove_node(NodeId(0)).unwrap();
        assert_eq!(empty.max_degree_node(), None);
        assert_eq!(empty.min_degree_node(), None);
    }

    #[test]
    fn degree_extremes_track_mutations() {
        // Exercise the lazily-repaired hints: push the max up, delete the
        // hub (hint now over-estimates), then query — and symmetrically
        // drain the min bucket.
        let mut g = Graph::new(6);
        for v in 1..6u32 {
            g.add_edge(NodeId(0), NodeId(v)).unwrap();
        }
        assert!(g.degrees.get().is_none(), "only a query builds the index");
        assert_eq!(g.max_degree_node(), Some(NodeId(0)));
        g.remove_node(NodeId(0)).unwrap();
        // All survivors are isolated again.
        assert_eq!(g.max_degree_node(), Some(NodeId(1)));
        assert_eq!(g.min_degree_node(), Some(NodeId(1)));
        g.add_edge(NodeId(2), NodeId(3)).unwrap();
        assert_eq!(g.max_degree_node(), Some(NodeId(2)));
        assert_eq!(g.min_degree_node(), Some(NodeId(1)));
        g.remove_node(NodeId(1)).unwrap();
        g.remove_node(NodeId(4)).unwrap();
        g.remove_node(NodeId(5)).unwrap();
        // Only the edge (2,3) remains: min degree is now 1.
        assert_eq!(g.min_degree_node(), Some(NodeId(2)));
        g.validate().unwrap();
    }

    #[test]
    fn nth_live_matches_live_nodes_order() {
        let mut g = Graph::new(10);
        for v in [0u32, 3, 7, 9] {
            g.remove_node(NodeId(v)).unwrap();
        }
        assert!(
            g.live_index.get().is_none(),
            "only a query builds the index"
        );
        let live: Vec<NodeId> = g.live_nodes().collect();
        for (k, &v) in live.iter().enumerate() {
            assert_eq!(g.nth_live(k), Some(v));
        }
        assert_eq!(g.nth_live(live.len()), None);
        // Joins grow the index (through a rebuild once capacity doubles).
        for _ in 0..20 {
            g.add_node();
        }
        let live: Vec<NodeId> = g.live_nodes().collect();
        assert_eq!(g.nth_live(live.len() - 1), Some(*live.last().unwrap()));
        assert_eq!(g.nth_live(0), Some(NodeId(1)));
        g.validate().unwrap();
    }

    #[test]
    fn validate_names_the_broken_invariant() {
        let mut g = path(3);
        g.edge_count += 1;
        assert_eq!(g.validate(), Err(GraphError::Corrupt("edge count")));
        let mut g = path(3);
        g.max_degree_node();
        g.degrees.get_mut().unwrap().pos.swap(0, 2);
        assert_eq!(g.validate(), Err(GraphError::Corrupt("degree index entry")));
    }

    #[test]
    fn neighbors_sorted_after_random_insertions() {
        let mut g = Graph::new(10);
        for v in [7u32, 3, 9, 1, 5] {
            g.add_edge(NodeId(0), NodeId(v)).unwrap();
        }
        let nbrs = g.neighbors(NodeId(0));
        assert!(nbrs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn clone_preserves_pooled_storage() {
        let mut g = path(6);
        g.remove_node(NodeId(2)).unwrap();
        let c = g.clone();
        for v in 0..6u32 {
            assert_eq!(g.neighbors(NodeId(v)), c.neighbors(NodeId(v)));
        }
        c.validate().unwrap();
    }
}

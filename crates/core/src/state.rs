//! Shared state of a self-healing run: the actual network `G`, the healing
//! graph `G'`, and all per-node bookkeeping the paper's analysis uses.
//!
//! Notation from the paper (Section 2):
//! - `G(V, E)` — the real network at the current time step,
//! - `G' = (V, E')` — only the *healing* edges added by the algorithm
//!   (`E' ⊆ E`); Lemma 1 shows DASH keeps `G'` a forest,
//! - `δ(v)` — degree increase of `v` relative to its initial degree,
//! - `w(v)` — analysis weight, starts at 1; on deletion it transfers to a
//!   surviving `G'` neighbor,
//! - IDs — every node starts with a distinct random ID; all nodes of a
//!   `G'` component carry the component's minimum ID, maintained by
//!   broadcast after each healing round.
//!
//! IDs here are ranks `0..n` in a seeded random permutation rather than
//! reals in `[0, 1]`: a random permutation gives exactly the distinct
//! uniform ranks the record-breaking argument (Lemma 8) needs, with no
//! floating-point ties.

use selfheal_graph::pool::{AdjPool, SmallList};
use selfheal_graph::{Edge, Graph, GraphError, GraphRead, NodeId};
use selfheal_sim::SplitMix64;
use std::ops::{Index, IndexMut};

/// Everything the healing strategies learn when a node is deleted.
#[derive(Clone, Debug)]
pub struct DeletionContext {
    /// The deleted node.
    pub deleted: NodeId,
    /// Component ID of the deleted node at deletion time.
    pub deleted_comp_id: u64,
    /// `N(v, G)`: neighbors in the real network at deletion time (sorted).
    pub g_neighbors: Vec<NodeId>,
    /// `N(v, G')`: neighbors in the healing graph at deletion time (sorted).
    pub gprime_neighbors: Vec<NodeId>,
}

impl Default for DeletionContext {
    /// An empty context suitable as a reusable buffer for
    /// [`HealingNetwork::delete_node_into`]; fields are meaningless until
    /// a deletion fills them.
    fn default() -> Self {
        DeletionContext {
            deleted: NodeId(u32::MAX),
            deleted_comp_id: u64::MAX,
            g_neighbors: Vec::new(),
            gprime_neighbors: Vec::new(),
        }
    }
}

/// Outcome of one ID-propagation broadcast (Algorithm 1, step 5).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PropagationReport {
    /// Nodes whose component ID decreased.
    pub changed: u64,
    /// Messages sent (each changed node notifies all of its `G` neighbors).
    pub messages: u64,
    /// Hops of broadcast latency (max `G'` BFS depth at which a change
    /// happened; 0 when nothing changed).
    pub latency: u64,
}

impl PropagationReport {
    /// Fold another broadcast of the **same healing round** into this one.
    ///
    /// Semantics (applied by [`crate::batch::heal_batch_into`], the one
    /// loop behind every engine heal): broadcasts triggered by one round
    /// proceed in parallel, so `changed` and `messages` add while
    /// `latency` takes the maximum. Latencies of *different* rounds are
    /// sequential and are summed by the run report
    /// (`total_propagation_latency`), never merged here.
    pub fn merge(&mut self, other: PropagationReport) {
        self.changed += other.changed;
        self.messages += other.messages;
        self.latency = self.latency.max(other.latency);
    }
}

/// Reusable buffers for [`HealingNetwork::propagate_min_id`]'s multi-source
/// BFS. A slot whose record's `stamp` equals `epoch` is visited in the
/// current broadcast, so nothing is cleared between rounds — a fresh
/// epoch invalidates every old stamp in O(1), and the queue keeps its
/// capacity. This is what makes steady-state broadcast rounds
/// allocation-free. Each queued node carries its BFS depth, so no
/// per-node depth array is needed.
#[derive(Clone, Debug, Default)]
struct PropagationScratch {
    epoch: u32,
    queue: std::collections::VecDeque<(NodeId, u32)>,
    reached: Vec<(NodeId, u32)>,
}

/// Reusable buffers for the healers' allocation-free heal path
/// ([`crate::strategy::Healer::heal_into`]). One instance lives inside
/// the [`HealingNetwork`]; healers borrow it for the duration of a heal
/// via [`HealingNetwork::take_heal_scratch`] /
/// [`HealingNetwork::put_heal_scratch`] (a `mem::take` round-trip, so
/// the buffers keep their capacity across rounds and a default-built
/// replacement never allocates).
#[derive(Clone, Debug, Default)]
pub struct HealScratch {
    /// `(comp_id, initial_id, node)` tags for unique-neighbor selection.
    pub tagged: Vec<(u64, u64, NodeId)>,
    /// `(δ, initial_id, node)` keys of the reconstruction-set members,
    /// computed once per member and shared by SDASH's surrogate search
    /// and the δ order.
    pub keyed: Vec<(i64, u64, NodeId)>,
    /// δ-ordered reconstruction-set members for binary-tree wiring.
    pub ordered: Vec<NodeId>,
}

/// The slots a [`HealingNetwork`] mutated since the last
/// [`HealingNetwork::take_touched`]: the log behind
/// `StateSnapshot::update`. It has no room until the first drain sizes
/// it to the initial node count, and it never grows: once full, further
/// touches only mark it incomplete. So a touch never allocates, and an
/// engine-only run, which never drains the log, pays one compare per
/// touch and no memory. (A clone's log may have less room, and so
/// overflows sooner.) Entries repeat freely: replaying a slot is
/// idempotent.
#[derive(Clone, Debug)]
struct TouchLog {
    slots: Vec<NodeId>,
    full: bool,
}

impl TouchLog {
    fn touch(&mut self, v: NodeId) {
        if self.slots.len() < self.slots.capacity() {
            self.slots.push(v);
        } else {
            self.full = true;
        }
    }
}

/// Everything `HealingNetwork` keeps per node beside `G`, in one 64-byte
/// record aligned to 64 bytes: one cache line, so a deletion, a heal or
/// a broadcast that touches a node misses once, not once per field.
///
/// - `comp_id` and `initial_id` are `u32`: both are ranks below
///   [`HealingNetwork::total_created`], and a [`NodeId`] is a `u32` too.
/// - `msgs` holds the message counters `[SENT, RECV]`, and `stamp` the
///   epoch of the last broadcast that visited the node.
/// - `gp` is the node's sorted `G'` neighbor list. Up to three
///   neighbors sit in the record itself; a longer list spills to a chunk
///   of the network's one spill pool (see [`SmallList`]). Binary-tree
///   wiring gives a node at most three edges per reconstruction tree, so
///   almost every live node's list stays inline.
///
/// The records live in [`Slots`], whose storage never moves.
#[derive(Clone, Copy, Debug)]
#[repr(align(64))]
struct Slot {
    weight: u64,
    msgs: [u64; 2],
    comp_id: u32,
    initial_id: u32,
    initial_degree: u32,
    id_changes: u32,
    stamp: u32,
    gp: SmallList,
}

impl Slot {
    /// The record of a node that has just arrived with ID rank `id` and
    /// `degree` neighbors in `G`.
    fn new(id: u32, degree: usize) -> Self {
        Slot {
            weight: 1,
            msgs: [0; 2],
            comp_id: id,
            initial_id: id,
            initial_degree: degree as u32,
            id_changes: 0,
            stamp: 0,
            gp: SmallList::EMPTY,
        }
    }
}

/// Index of the sent count in a node's message counters.
const SENT: usize = 0;
/// Index of the received count in a node's message counters.
const RECV: usize = 1;

/// The slot records, in segments that never move once allocated.
///
/// The first segment is allocated with room for twice the initial node
/// count: the initial nodes, and as many joins again. Joins past that
/// fill later segments, the first of `2^shift` records (the next power of
/// two at or above the first segment's room) and each one after twice
/// the one before. So growth copies no record (a `Vec` of
/// 64-byte-aligned records would: the allocator cannot grow an
/// over-aligned block in place, so every doubling copies the whole
/// vector, and the old and new blocks are both resident at once), a
/// stream of joins allocates O(log) times, not once per fixed-size
/// block, and the room the first segment reserves costs address space,
/// not memory, until a join writes it.
///
/// A run that joins fewer nodes than it started with never leaves the
/// first segment, so every lookup takes the same, predicted branch and
/// costs what indexing one `Vec` costs. Past it, a slot is found with a
/// shift and a leading-zero count.
#[derive(Debug)]
struct Slots {
    first: Vec<Slot>,
    /// The first segment's fixed capacity.
    room: usize,
    rest: Vec<Vec<Slot>>,
    /// `log2` of the second segment's capacity.
    shift: u32,
}

impl Clone for Slots {
    /// Copy every segment at its full capacity, so a clone's joins also
    /// fill segments in place.
    fn clone(&self) -> Self {
        let copy = |seg: &Vec<Slot>| {
            let mut out = Vec::with_capacity(seg.capacity());
            out.extend_from_slice(seg);
            out
        };
        Slots {
            first: copy(&self.first),
            rest: self.rest.iter().map(copy).collect(),
            ..*self
        }
    }
}

impl Slots {
    /// Storage for `n` initial records, to be pushed.
    fn with_initial(n: usize) -> Self {
        let first = Vec::with_capacity(2 * n);
        let room = first.capacity();
        Slots {
            first,
            room,
            rest: Vec::new(),
            shift: room.next_power_of_two().trailing_zeros(),
        }
    }

    fn len(&self) -> usize {
        self.first.len() + self.rest.iter().map(Vec::len).sum::<usize>()
    }

    /// Segment (within `rest`) and offset of slot `i`, which is past the
    /// first segment.
    #[inline]
    fn locate(&self, i: usize) -> (usize, usize) {
        let j = i - self.room + (1 << self.shift);
        let k = (usize::BITS - 1 - j.leading_zeros()) - self.shift;
        (k as usize, j - (1 << (self.shift + k)))
    }

    #[inline]
    fn get(&self, i: usize) -> Option<&Slot> {
        if i < self.room {
            return self.first.get(i);
        }
        let (k, off) = self.locate(i);
        self.rest.get(k)?.get(off)
    }

    fn push(&mut self, slot: Slot) {
        if self.first.len() < self.room {
            self.first.push(slot);
            return;
        }
        let (k, _) = self.locate(self.len());
        if k == self.rest.len() {
            self.rest
                .push(Vec::with_capacity(1 << (self.shift + k as u32)));
        }
        self.rest[k].push(slot);
    }

    fn iter(&self) -> impl Iterator<Item = &Slot> + '_ {
        self.first.iter().chain(self.rest.iter().flatten())
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut Slot> + '_ {
        self.first.iter_mut().chain(self.rest.iter_mut().flatten())
    }
}

impl Index<usize> for Slots {
    type Output = Slot;

    #[inline]
    fn index(&self, i: usize) -> &Slot {
        if i < self.first.len() {
            return &self.first[i];
        }
        let (k, off) = self.locate(i);
        &self.rest[k][off]
    }
}

impl IndexMut<usize> for Slots {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut Slot {
        if i < self.first.len() {
            return &mut self.first[i];
        }
        let (k, off) = self.locate(i);
        &mut self.rest[k][off]
    }
}

/// A read-only view of the healing graph `G'`, borrowed from a
/// [`HealingNetwork`] by [`HealingNetwork::healing_graph`].
///
/// `G'` is not a [`Graph`]: its adjacency lives in the network's slot
/// records. The view offers the same read methods as a `Graph` with the
/// same meaning (`G'` has the node set of `G`), and implements
/// [`GraphRead`], so `is_forest`, `is_tree` and `connected_components`
/// take it as they take a `Graph`.
#[derive(Clone, Copy, Debug)]
pub struct HealingGraph<'a> {
    g: &'a Graph,
    slots: &'a Slots,
    spill: &'a AdjPool,
    edges: usize,
}

impl<'a> HealingGraph<'a> {
    /// Total number of node slots ever allocated (live + dead).
    pub fn node_bound(&self) -> usize {
        self.g.node_bound()
    }

    /// Number of currently live nodes.
    pub fn live_node_count(&self) -> usize {
        self.g.live_node_count()
    }

    /// Number of healing edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Whether node `v` is currently live.
    pub fn is_alive(&self, v: NodeId) -> bool {
        self.g.is_alive(v)
    }

    /// `G'` degree of `v` (0 for dead or out-of-range nodes).
    pub fn degree(&self, v: NodeId) -> usize {
        self.slots.get(v.index()).map_or(0, |s| s.gp.len())
    }

    /// The sorted `G'` neighbor list of `v` (empty for dead or
    /// out-of-range nodes).
    pub fn neighbors(&self, v: NodeId) -> &'a [NodeId] {
        match self.slots.get(v.index()) {
            Some(s) => s.gp.slice(self.spill),
            None => &[],
        }
    }

    /// Whether the healing edge `(u, v)` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all healing edges, each reported once with
    /// `lo < hi`.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + 'a {
        let spill = self.spill;
        self.slots.iter().enumerate().flat_map(move |(i, s)| {
            let u = NodeId::from_index(i);
            s.gp.slice(spill)
                .iter()
                .filter(move |&&w| u < w)
                .map(move |&w| Edge::new(u, w))
        })
    }

    /// Collect the `G'` degree of every slot (dead slots report 0) into
    /// `out`, indexed by [`NodeId::index`] and sized to
    /// [`node_bound`](Self::node_bound), reusing its allocation.
    pub fn degrees_into(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend(self.slots.iter().map(|s| s.gp.len() as u32));
    }
}

impl GraphRead for HealingGraph<'_> {
    fn node_bound(&self) -> usize {
        HealingGraph::node_bound(self)
    }
    fn live_node_count(&self) -> usize {
        HealingGraph::live_node_count(self)
    }
    fn edge_count(&self) -> usize {
        HealingGraph::edge_count(self)
    }
    fn is_alive(&self, v: NodeId) -> bool {
        HealingGraph::is_alive(self, v)
    }
    fn neighbors(&self, v: NodeId) -> &[NodeId] {
        HealingGraph::neighbors(self, v)
    }
}

/// The mutable state of a self-healing simulation.
///
/// Strategies mutate it only through [`HealingNetwork::delete_node`],
/// [`HealingNetwork::add_heal_edge`] and
/// [`HealingNetwork::propagate_min_id`], which keep `G`, `G'` and the
/// bookkeeping consistent.
///
/// Every slot whose liveness, `G'` degree or component ID changes is
/// logged, for [`HealingNetwork::take_touched`] to hand to a delta
/// snapshot. The private fields make five sites the only ones that
/// change those: [`join_node`](Self::join_node) logs the new slot,
/// [`delete_node_into`](Self::delete_node_into) the victim and its `G'`
/// neighbors, [`add_heal_edge`](Self::add_heal_edge) both endpoints of
/// an edge new in `G'`, and [`propagate_min_id`](Self::propagate_min_id)
/// and [`propagate_min_id_uniform`](Self::propagate_min_id_uniform)
/// every node whose ID changes.
#[derive(Clone, Debug)]
pub struct HealingNetwork {
    g: Graph,
    /// The per-node records, `G'` adjacency included, indexed by slot.
    slots: Slots,
    /// Chunks of the `G'` lists too long to sit in their record. Its
    /// arena is reserved at half the initial node count: healing BA(n, 3)
    /// to empty peaked at 0.08 n (churn, n = 2·10⁵) to 0.3 n (rack
    /// partition, n = 4096 and 20 000), so the pool allocates nothing in
    /// such a run and its untouched reserve costs address space only.
    spill: AdjPool,
    /// Number of `G'` edges.
    gp_edges: usize,
    n_initial: usize,
    total_created: usize,
    weight_lost: u64,
    scratch: PropagationScratch,
    heal_scratch: HealScratch,
    touched: TouchLog,
}

impl HealingNetwork {
    /// Wrap an initial network. All nodes must be alive; IDs are assigned
    /// from a random permutation seeded by `seed`.
    ///
    /// # Panics
    /// Panics if `graph` contains tombstoned nodes.
    pub fn new(graph: Graph, seed: u64) -> Self {
        let n = graph.node_bound();
        assert_eq!(
            graph.live_node_count(),
            n,
            "initial graph must have all nodes alive"
        );
        // The records are reserved before the temporary permutation: in a
        // loop that builds and drops networks, this order keeps glibc's
        // heap from being trimmed between builds and faulted in again
        // (see ARCHITECTURE.md, "Memory layout"). Slot indices fit in
        // `u32`, so the permutation is shuffled at half the width of the
        // IDs it yields: the same swaps, the same ranks.
        let mut slots = Slots::with_initial(n);
        let mut ids: Vec<u32> = (0..n as u32).collect();
        SplitMix64::new(seed).shuffle(&mut ids);
        for (i, &id) in ids.iter().enumerate() {
            slots.push(Slot::new(id, graph.degree(NodeId::from_index(i))));
        }
        drop(ids);
        HealingNetwork {
            g: graph,
            slots,
            spill: AdjPool::with_capacity(n / 2),
            gp_edges: 0,
            n_initial: n,
            total_created: n,
            weight_lost: 0,
            scratch: PropagationScratch::default(),
            heal_scratch: HealScratch::default(),
            touched: TouchLog {
                slots: Vec::new(),
                full: false,
            },
        }
    }

    /// Copy the touched-slot log into `out` (replacing its contents) and
    /// clear it. Returns whether the log is complete, that is whether it
    /// holds every slot whose liveness, `G'` degree or component ID
    /// changed since the previous call (or since [`new`](Self::new)).
    ///
    /// The log has no room before the first call, so that call reports
    /// any earlier change as an overflow; it then sizes the log to
    /// [`initial_node_count`](Self::initial_node_count) entries, and an
    /// incomplete log from then on overflowed that many.
    pub fn take_touched(&mut self, out: &mut Vec<NodeId>) -> bool {
        out.clear();
        out.extend_from_slice(&self.touched.slots);
        self.touched.slots.clear();
        self.touched.slots.reserve(self.n_initial);
        !std::mem::take(&mut self.touched.full)
    }

    /// Borrow the network's heal-scratch buffers by value (`mem::take`):
    /// the healer works on them while also mutating the network, then
    /// hands them back via [`HealingNetwork::put_heal_scratch`] so their
    /// capacity is reused next round.
    pub fn take_heal_scratch(&mut self) -> HealScratch {
        std::mem::take(&mut self.heal_scratch)
    }

    /// Return the buffers taken by [`HealingNetwork::take_heal_scratch`].
    pub fn put_heal_scratch(&mut self, scratch: HealScratch) {
        self.heal_scratch = scratch;
    }

    /// The real network `G`.
    pub fn graph(&self) -> &Graph {
        &self.g
    }

    /// The healing graph `G'` (only healing edges).
    pub fn healing_graph(&self) -> HealingGraph<'_> {
        HealingGraph {
            g: &self.g,
            slots: &self.slots,
            spill: &self.spill,
            edges: self.gp_edges,
        }
    }

    /// Number of nodes the network started with.
    pub fn initial_node_count(&self) -> usize {
        self.n_initial
    }

    /// Total nodes ever created (initial plus joined).
    pub fn total_created(&self) -> usize {
        self.total_created
    }

    /// Churn support: a new node joins and connects to the given live
    /// nodes (a reconfigurable network gains members as well as losing
    /// them). The joiner gets a fresh ID *larger* than every existing ID,
    /// so it never becomes a component minimum until it adopts one —
    /// preserving the record-breaking structure of Lemma 8.
    ///
    /// # Errors
    /// Fails (without mutating) if any attachment target is dead or out
    /// of range, or if `neighbors` contains duplicates.
    pub fn join_node(&mut self, neighbors: &[NodeId]) -> Result<NodeId, GraphError> {
        for (i, &u) in neighbors.iter().enumerate() {
            self.g.check_alive(u)?;
            if neighbors[..i].contains(&u) {
                return Err(GraphError::EdgeExists(u, u));
            }
        }
        let v = self.g.add_node();
        for &u in neighbors {
            // panic-ok: every `u` passed the liveness/duplication checks
            // at the top of this function before any mutation began.
            self.g.add_edge(v, u).expect("validated above");
        }
        // The fresh ID is the new slot's index: `total_created` before
        // this join.
        debug_assert_eq!(v.index(), self.total_created);
        self.total_created += 1;
        self.slots.push(Slot::new(v.0, neighbors.len()));
        self.touched.touch(v);
        Ok(v)
    }

    /// Whether `v` is alive.
    pub fn is_alive(&self, v: NodeId) -> bool {
        self.g.is_alive(v)
    }

    /// Initial degree of `v` in the starting network.
    pub fn initial_degree(&self, v: NodeId) -> u32 {
        self.slots[v.index()].initial_degree
    }

    /// Initial (immutable) random ID rank of `v`.
    pub fn initial_id(&self, v: NodeId) -> u64 {
        u64::from(self.slots[v.index()].initial_id)
    }

    /// Current component ID of `v` (minimum initial ID broadcast through
    /// its `G'` component).
    ///
    /// Every component ID is some node's initial ID, and initial IDs are
    /// a permutation of `0..n` extended by one fresh rank per join, so
    /// every ID is below [`total_created`](Self::total_created).
    /// `StateSnapshot::capture` relies on this to count components in a
    /// vector indexed by ID.
    pub fn comp_id(&self, v: NodeId) -> u64 {
        u64::from(self.slots[v.index()].comp_id)
    }

    /// Degree increase `δ(v)` relative to the initial degree. Negative
    /// when `v` has lost more incident edges than healing re-added.
    pub fn delta(&self, v: NodeId) -> i64 {
        self.g.degree(v) as i64 - i64::from(self.slots[v.index()].initial_degree)
    }

    /// Analysis weight `w(v)`.
    pub fn weight(&self, v: NodeId) -> u64 {
        self.slots[v.index()].weight
    }

    /// Total weight lost to deletions of fully isolated nodes (nodes with
    /// no surviving neighbor to inherit their weight).
    pub fn weight_lost(&self) -> u64 {
        self.weight_lost
    }

    /// Number of times `v`'s component ID decreased.
    pub fn id_changes(&self, v: NodeId) -> u32 {
        self.slots[v.index()].id_changes
    }

    /// ID-maintenance messages sent by `v` (Lemma 8 accounting: every ID
    /// change broadcasts to all current `G` neighbors).
    pub fn messages_sent(&self, v: NodeId) -> u64 {
        self.slots[v.index()].msgs[SENT]
    }

    /// ID-maintenance messages received by `v`.
    pub fn messages_received(&self, v: NodeId) -> u64 {
        self.slots[v.index()].msgs[RECV]
    }

    /// Sent + received for `v` — the quantity Theorem 1 bounds by
    /// `2 (d + 2 log n) ln n`.
    pub fn traffic(&self, v: NodeId) -> u64 {
        let [sent, recv] = self.slots[v.index()].msgs;
        sent + recv
    }

    /// Maximum `δ(v)` over live nodes (0 for an empty network).
    pub fn max_delta_alive(&self) -> i64 {
        self.g
            .live_nodes()
            .map(|v| self.delta(v))
            .max()
            .unwrap_or(0)
    }

    /// Delete `v` from both `G` and `G'`, transfer its weight, and report
    /// what the healing strategy needs to know.
    ///
    /// Weight goes to the lowest-id `G'` neighbor if one exists (the
    /// paper's "arbitrarily chosen neighbor in G'"), otherwise to the
    /// lowest-id `G` neighbor, otherwise it is recorded as lost.
    ///
    /// # Errors
    /// Fails if `v` is dead or out of range.
    pub fn delete_node(&mut self, v: NodeId) -> Result<DeletionContext, GraphError> {
        let mut ctx = DeletionContext::default();
        self.delete_node_into(v, &mut ctx)?;
        Ok(ctx)
    }

    /// [`HealingNetwork::delete_node`] writing into a caller-owned
    /// [`DeletionContext`], reusing its neighbor buffers. The scenario
    /// engine keeps one context alive across rounds so steady-state
    /// deletions allocate nothing here.
    ///
    /// # Errors
    /// Fails (leaving the network untouched) if `v` is dead or out of
    /// range.
    pub fn delete_node_into(
        &mut self,
        v: NodeId,
        ctx: &mut DeletionContext,
    ) -> Result<(), GraphError> {
        self.g.check_alive(v)?;
        ctx.deleted = v;
        // G′ ⊆ G, so size the G′ list by the G degree: both lists then
        // reach their high-water mark with the largest G degree deleted,
        // not with whichever victim first had many healing edges.
        ctx.gprime_neighbors.clear();
        ctx.gprime_neighbors.reserve(self.g.degree(v));
        let slot = &mut self.slots[v.index()];
        ctx.deleted_comp_id = u64::from(slot.comp_id);
        let w = std::mem::take(&mut slot.weight);
        let mut list = std::mem::take(&mut slot.gp);
        ctx.gprime_neighbors
            .extend_from_slice(list.slice(&self.spill));
        list.clear(&mut self.spill);
        self.gp_edges -= ctx.gprime_neighbors.len();
        for &u in &ctx.gprime_neighbors {
            let gp = &mut self.slots[u.index()].gp;
            let pos = gp
                .slice(&self.spill)
                .binary_search(&v)
                // panic-ok: G′ adjacency symmetry is a structural
                // invariant every mutation maintains.
                .expect("asymmetric G′ adjacency detected");
            gp.remove_at(&mut self.spill, pos);
            self.touched.touch(u);
        }
        self.g.remove_node_into(v, &mut ctx.g_neighbors)?;
        self.touched.touch(v);
        let heir = ctx
            .gprime_neighbors
            .first()
            .or_else(|| ctx.g_neighbors.first())
            .copied();
        match heir {
            Some(h) => self.slots[h.index()].weight += w,
            None => self.weight_lost += w,
        }
        Ok(())
    }

    /// Add a healing edge: ensure it exists in `G` and record it in `G'`.
    ///
    /// Both endpoints must be alive. Already-present edges (in either
    /// graph) are tolerated — the naive GraphHeal strategy re-adds edges
    /// freely — and reported via the returned flags
    /// `(new_in_g, new_in_gprime)`.
    pub fn add_heal_edge(&mut self, u: NodeId, v: NodeId) -> Result<(bool, bool), GraphError> {
        let new_g = self.g.ensure_edge(u, v)?;
        // `ensure_edge` checked that both endpoints are live and distinct.
        let Err(pos_u) = self.slots[u.index()]
            .gp
            .slice(&self.spill)
            .binary_search(&v)
        else {
            return Ok((new_g, false));
        };
        let pos_v = self.slots[v.index()]
            .gp
            .slice(&self.spill)
            .binary_search(&u)
            // panic-ok: G′ adjacency symmetry is a structural invariant
            // every mutation maintains.
            .expect_err("asymmetric G′ adjacency detected");
        self.slots[u.index()]
            .gp
            .insert_at(&mut self.spill, pos_u, v);
        self.slots[v.index()]
            .gp
            .insert_at(&mut self.spill, pos_v, u);
        self.gp_edges += 1;
        self.touched.touch(u);
        self.touched.touch(v);
        Ok((new_g, true))
    }

    /// Algorithm 1, step 5: broadcast the minimum component ID through the
    /// `G'` component(s) containing `seeds` (the reconstruction-tree
    /// members), updating every reached node whose ID is larger.
    ///
    /// Message accounting follows Lemma 8: each node whose ID changes
    /// sends one message to each of its current `G` neighbors (who each
    /// receive one). Latency is the maximum `G'` BFS depth at which a
    /// change occurred.
    pub fn propagate_min_id(&mut self, seeds: &[NodeId]) -> PropagationReport {
        let mut report = PropagationReport::default();
        // Multi-source BFS over G' from the reconstruction tree, on
        // epoch-stamped records and reused buffers: zero heap allocation
        // at steady state.
        let epoch = self.begin_broadcast();
        let scratch = &mut self.scratch;
        for &s in seeds {
            if self.g.is_alive(s) {
                let slot = &mut self.slots[s.index()];
                if slot.stamp != epoch {
                    slot.stamp = epoch;
                    scratch.queue.push_back((s, 0));
                }
            }
        }
        if scratch.queue.is_empty() {
            return report;
        }
        while let Some((v, depth)) = scratch.queue.pop_front() {
            scratch.reached.push((v, depth));
            let list = self.slots[v.index()].gp;
            for &u in list.slice(&self.spill) {
                let slot = &mut self.slots[u.index()];
                if slot.stamp != epoch {
                    slot.stamp = epoch;
                    scratch.queue.push_back((u, depth + 1));
                }
            }
        }
        let min_id = scratch
            .reached
            .iter()
            .map(|&(v, _)| self.slots[v.index()].comp_id)
            .min()
            // panic-ok: the empty-reach case returned above, so the
            // minimum over a non-empty traversal exists.
            .unwrap();
        for &(v, depth) in &scratch.reached {
            let slot = &mut self.slots[v.index()];
            if slot.comp_id > min_id {
                slot.comp_id = min_id;
                slot.id_changes += 1;
                self.touched.touch(v);
                report.changed += 1;
                report.latency = report.latency.max(u64::from(depth));
                report.messages += count_messages(&self.g, &mut self.slots, v);
            }
        }
        report
    }

    /// [`HealingNetwork::propagate_min_id`] specialized to the state every
    /// healing flow actually maintains: **each `G'` component carries one
    /// uniform component ID when the broadcast starts**.
    ///
    /// That invariant holds after every engine- or `heal_batch_into`-driven
    /// round, because healers only add edges among the reconstruction-set
    /// members they then seed the broadcast from, and each broadcast
    /// re-uniformizes every component it touches. Under it the exact
    /// broadcast simplifies: the minimum over the reached set equals the
    /// minimum over the live seeds' component IDs, and the changed set is
    /// exactly the union of seed components whose ID is above that
    /// minimum — so the BFS can stop at the frontier of already-minimal
    /// nodes instead of flooding whole components. Total work becomes
    /// proportional to the number of *ID changes* (which Lemma 8 bounds by
    /// `O(ln n)` per node for the whole run), not component size — the
    /// difference between O(n²) and Õ(n) for a million-node kill sweep.
    ///
    /// Accounting (changed/messages/latency, per-node counters) is
    /// identical to the exact broadcast whenever the invariant holds;
    /// `tests/equivalence.rs` locks that across healers, adversaries and
    /// seeds. Callers that hand-wire `G'` edges without broadcasting onto
    /// them (leaving a component with mixed IDs) must use the exact
    /// [`HealingNetwork::propagate_min_id`] instead.
    pub fn propagate_min_id_uniform(&mut self, seeds: &[NodeId]) -> PropagationReport {
        let mut report = PropagationReport::default();
        let mut min_id = u32::MAX;
        let mut any_live = false;
        for &s in seeds {
            if self.g.is_alive(s) {
                any_live = true;
                min_id = min_id.min(self.slots[s.index()].comp_id);
            }
        }
        if !any_live {
            return report;
        }
        let epoch = self.begin_broadcast();
        let scratch = &mut self.scratch;
        // Restricted multi-source BFS: only through nodes still above the
        // minimum. Under the uniformity invariant this reaches exactly the
        // nodes the exact broadcast would change, at the same depths.
        for &s in seeds {
            if self.g.is_alive(s) {
                let slot = &mut self.slots[s.index()];
                if slot.comp_id > min_id && slot.stamp != epoch {
                    slot.stamp = epoch;
                    scratch.queue.push_back((s, 0));
                }
            }
        }
        while let Some((v, depth)) = scratch.queue.pop_front() {
            let slot = &mut self.slots[v.index()];
            slot.comp_id = min_id;
            slot.id_changes += 1;
            let list = slot.gp;
            self.touched.touch(v);
            report.changed += 1;
            report.latency = report.latency.max(u64::from(depth));
            report.messages += count_messages(&self.g, &mut self.slots, v);
            for &u in list.slice(&self.spill) {
                let slot = &mut self.slots[u.index()];
                if slot.stamp != epoch && slot.comp_id > min_id {
                    slot.stamp = epoch;
                    scratch.queue.push_back((u, depth + 1));
                }
            }
        }
        report
    }

    /// Start a broadcast: advance the epoch (recycling every record's
    /// stamp on the rare wrap) and empty the scratch queues without
    /// releasing their capacity.
    fn begin_broadcast(&mut self) -> u32 {
        let scratch = &mut self.scratch;
        scratch.epoch = match scratch.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.slots.iter_mut().for_each(|s| s.stamp = 0);
                1
            }
        };
        scratch.queue.clear();
        scratch.reached.clear();
        scratch.epoch
    }
}

/// Lemma 8's accounting for one ID change at `v`: `v` sends one message
/// to each current `G` neighbor, and each of them receives one. Returns
/// the number sent.
fn count_messages(g: &Graph, slots: &mut Slots, v: NodeId) -> u64 {
    let deg = g.degree(v) as u64;
    slots[v.index()].msgs[SENT] += deg;
    for &u in g.neighbors(v) {
        slots[u.index()].msgs[RECV] += 1;
    }
    deg
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal_graph::generators::path_graph;

    fn net_on_path(n: usize) -> HealingNetwork {
        HealingNetwork::new(path_graph(n), 42)
    }

    #[test]
    fn initial_state() {
        let net = net_on_path(5);
        assert_eq!(net.initial_node_count(), 5);
        assert_eq!(net.initial_degree(NodeId(0)), 1);
        assert_eq!(net.initial_degree(NodeId(2)), 2);
        for v in 0..5u32 {
            assert_eq!(net.delta(NodeId(v)), 0);
            assert_eq!(net.weight(NodeId(v)), 1);
            // comp id starts as the node's own initial id
            assert_eq!(net.comp_id(NodeId(v)), net.initial_id(NodeId(v)));
        }
        // ids are a permutation of 0..5
        let mut ids: Vec<u64> = (0..5u32).map(|v| net.initial_id(NodeId(v))).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn ids_differ_across_seeds() {
        let a = HealingNetwork::new(path_graph(20), 1);
        let b = HealingNetwork::new(path_graph(20), 2);
        let ids = |net: &HealingNetwork| -> Vec<u64> {
            (0..20u32).map(|v| net.initial_id(NodeId(v))).collect()
        };
        assert_ne!(ids(&a), ids(&b));
        let c = HealingNetwork::new(path_graph(20), 1);
        assert_eq!(ids(&a), ids(&c));
    }

    #[test]
    fn delete_reports_both_neighbor_sets() {
        let mut net = net_on_path(4);
        net.add_heal_edge(NodeId(0), NodeId(2)).unwrap();
        let ctx = net.delete_node(NodeId(2)).unwrap();
        assert_eq!(ctx.deleted, NodeId(2));
        assert_eq!(ctx.g_neighbors, vec![NodeId(0), NodeId(1), NodeId(3)]);
        assert_eq!(ctx.gprime_neighbors, vec![NodeId(0)]);
        assert!(!net.is_alive(NodeId(2)));
    }

    #[test]
    fn delta_tracks_losses_and_heals() {
        let mut net = net_on_path(4);
        net.delete_node(NodeId(1)).unwrap();
        assert_eq!(net.delta(NodeId(0)), -1);
        assert_eq!(net.delta(NodeId(2)), -1);
        net.add_heal_edge(NodeId(0), NodeId(2)).unwrap();
        assert_eq!(net.delta(NodeId(0)), 0);
        assert_eq!(net.delta(NodeId(2)), 0);
        net.add_heal_edge(NodeId(0), NodeId(3)).unwrap();
        assert_eq!(net.delta(NodeId(0)), 1);
        assert_eq!(net.max_delta_alive(), 1);
    }

    #[test]
    fn weight_transfers_prefer_gprime_heirs() {
        let mut net = net_on_path(4);
        net.add_heal_edge(NodeId(1), NodeId(3)).unwrap();
        // Node 1's G' neighbor is 3; weight goes there, not to G neighbor 0.
        net.delete_node(NodeId(1)).unwrap();
        assert_eq!(net.weight(NodeId(3)), 2);
        assert_eq!(net.weight(NodeId(0)), 1);
        assert_eq!(net.weight_lost(), 0);
    }

    #[test]
    fn weight_lost_only_when_fully_isolated() {
        let mut net = net_on_path(2);
        net.delete_node(NodeId(0)).unwrap();
        assert_eq!(net.weight(NodeId(1)), 2);
        net.delete_node(NodeId(1)).unwrap();
        assert_eq!(net.weight_lost(), 2);
    }

    #[test]
    fn heal_edge_flags_report_novelty() {
        let mut net = net_on_path(3);
        // (0,1) already exists in G, so only G' is new.
        assert_eq!(
            net.add_heal_edge(NodeId(0), NodeId(1)).unwrap(),
            (false, true)
        );
        // (0,2) is new in both.
        assert_eq!(
            net.add_heal_edge(NodeId(0), NodeId(2)).unwrap(),
            (true, true)
        );
        // Re-adding is tolerated and reported.
        assert_eq!(
            net.add_heal_edge(NodeId(0), NodeId(2)).unwrap(),
            (false, false)
        );
    }

    #[test]
    fn propagation_broadcasts_min_over_gprime() {
        let mut net = net_on_path(4);
        net.add_heal_edge(NodeId(0), NodeId(1)).unwrap();
        net.add_heal_edge(NodeId(1), NodeId(2)).unwrap();
        let ids: Vec<u64> = (0..4u32).map(|v| net.initial_id(NodeId(v))).collect();
        let min3 = ids[..3].iter().copied().min().unwrap();
        let report = net.propagate_min_id(&[NodeId(0), NodeId(1), NodeId(2)]);
        for v in 0..3u32 {
            assert_eq!(net.comp_id(NodeId(v)), min3);
        }
        // Node 3 has no healing edge: untouched.
        assert_eq!(net.comp_id(NodeId(3)), ids[3]);
        // Exactly the nodes with a larger id changed.
        let expected_changes = ids[..3].iter().filter(|&&x| x > min3).count() as u64;
        assert_eq!(report.changed, expected_changes);
    }

    #[test]
    fn propagation_counts_messages_by_g_degree() {
        let mut net = net_on_path(3);
        net.add_heal_edge(NodeId(0), NodeId(2)).unwrap();
        let id0 = net.initial_id(NodeId(0));
        let id2 = net.initial_id(NodeId(2));
        let report = net.propagate_min_id(&[NodeId(0), NodeId(2)]);
        let loser = if id0 > id2 { NodeId(0) } else { NodeId(2) };
        assert_eq!(report.changed, 1);
        // The loser's G degree is 2 (path neighbor + healing edge).
        assert_eq!(report.messages, 2);
        assert_eq!(net.messages_sent(loser), 2);
        assert_eq!(net.id_changes(loser), 1);
        assert_eq!(net.traffic(loser), 2 + net.messages_received(loser));
    }

    #[test]
    fn propagation_with_no_live_seeds_is_a_noop() {
        let mut net = net_on_path(3);
        net.delete_node(NodeId(1)).unwrap();
        let report = net.propagate_min_id(&[NodeId(1)]);
        assert_eq!(report, PropagationReport::default());
        assert_eq!(net.propagate_min_id(&[]), PropagationReport::default());
    }

    #[test]
    #[should_panic]
    fn rejects_graph_with_dead_nodes() {
        let mut g = path_graph(3);
        g.remove_node(NodeId(1)).unwrap();
        let _ = HealingNetwork::new(g, 0);
    }

    #[test]
    fn delete_dead_node_errors() {
        let mut net = net_on_path(3);
        net.delete_node(NodeId(0)).unwrap();
        assert!(net.delete_node(NodeId(0)).is_err());
    }

    #[test]
    fn join_node_attaches_and_gets_fresh_id() {
        let mut net = net_on_path(3);
        let v = net.join_node(&[NodeId(0), NodeId(2)]).unwrap();
        assert_eq!(v, NodeId(3));
        assert_eq!(net.total_created(), 4);
        assert_eq!(net.initial_node_count(), 3);
        assert_eq!(net.initial_degree(v), 2);
        assert_eq!(net.delta(v), 0);
        assert_eq!(net.weight(v), 1);
        // Fresh id is larger than every pre-existing id.
        assert_eq!(net.initial_id(v), 3);
        assert_eq!(net.comp_id(v), 3);
        assert!(net.graph().has_edge(v, NodeId(0)));
        assert!(net.graph().has_edge(v, NodeId(2)));
        // Healing graph untouched by a join.
        assert_eq!(net.healing_graph().degree(v), 0);
    }

    #[test]
    fn join_rejects_dead_targets_and_duplicates() {
        let mut net = net_on_path(3);
        net.delete_node(NodeId(1)).unwrap();
        assert!(net.join_node(&[NodeId(1)]).is_err());
        assert!(net.join_node(&[NodeId(0), NodeId(0)]).is_err());
        // Nothing was created by the failed attempts.
        assert_eq!(net.total_created(), 3);
        assert_eq!(net.graph().node_bound(), 3);
    }

    #[test]
    fn joined_node_participates_in_healing() {
        let mut net = net_on_path(3);
        let v = net.join_node(&[NodeId(1)]).unwrap();
        // Deleting node 1 must offer the joiner for reconnection.
        let ctx = net.delete_node(NodeId(1)).unwrap();
        assert!(ctx.g_neighbors.contains(&v));
    }

    #[test]
    fn uniform_propagation_matches_exact_when_components_are_uniform() {
        // Build the same healed state twice and broadcast once with each
        // algorithm: components were uniformized by all-seed broadcasts,
        // so the fast path must produce identical IDs and accounting.
        let build = || {
            let mut net = net_on_path(6);
            net.add_heal_edge(NodeId(0), NodeId(1)).unwrap();
            net.add_heal_edge(NodeId(1), NodeId(2)).unwrap();
            net.propagate_min_id(&[NodeId(0), NodeId(1), NodeId(2)]);
            net.add_heal_edge(NodeId(4), NodeId(5)).unwrap();
            net.propagate_min_id(&[NodeId(4), NodeId(5)]);
            // Merge the two uniform components plus singleton 3.
            net.add_heal_edge(NodeId(2), NodeId(3)).unwrap();
            net.add_heal_edge(NodeId(3), NodeId(4)).unwrap();
            net
        };
        let seeds = [NodeId(2), NodeId(3), NodeId(4)];
        let mut exact = build();
        let mut fast = build();
        let re = exact.propagate_min_id(&seeds);
        let rf = fast.propagate_min_id_uniform(&seeds);
        assert_eq!(re, rf);
        for v in 0..6u32 {
            assert_eq!(exact.comp_id(NodeId(v)), fast.comp_id(NodeId(v)));
            assert_eq!(exact.id_changes(NodeId(v)), fast.id_changes(NodeId(v)));
            assert_eq!(exact.traffic(NodeId(v)), fast.traffic(NodeId(v)));
        }
    }

    #[test]
    fn uniform_propagation_diverges_without_the_invariant() {
        // Hand-wire a G' path whose middle node holds the component
        // minimum without broadcasting: the component is NOT uniform, so
        // the fast path (correctly, per its contract) must not be used —
        // this test documents the divergence that makes the exact
        // algorithm the public default.
        let mut net = net_on_path(3);
        net.add_heal_edge(NodeId(0), NodeId(1)).unwrap();
        net.add_heal_edge(NodeId(1), NodeId(2)).unwrap();
        // Seed only from the endpoint holding the *largest* ID.
        let ids: Vec<u64> = (0..3u32).map(|v| net.initial_id(NodeId(v))).collect();
        let seed = (0..3u32).max_by_key(|&v| ids[v as usize]).unwrap();
        let mut exact = net.clone();
        let re = exact.propagate_min_id(&[NodeId(seed)]);
        let rf = net.propagate_min_id_uniform(&[NodeId(seed)]);
        // Exact floods the whole component and finds the true minimum;
        // the fast path trusts the seed's (stale) component ID.
        assert_eq!(re.changed, 2);
        assert_eq!(rf.changed, 0);
    }

    #[test]
    fn the_slot_record_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<Slot>(), 64);
        assert_eq!(std::mem::align_of::<Slot>(), 64);
    }

    #[test]
    fn forest_algorithms_agree_on_the_view_and_a_graph() {
        use selfheal_graph::components::connected_components;
        use selfheal_graph::forest::{is_forest, is_tree};
        // A star whose centre spills past the inline three, a separate
        // edge, an isolated node and a dead one; then one tree; then a
        // cycle.
        let mut net = net_on_path(9);
        let mut g = Graph::new(9);
        let check = |net: &HealingNetwork, g: &Graph| {
            let gp = net.healing_graph();
            assert_eq!(is_forest(gp), is_forest(g));
            assert_eq!(is_tree(gp), is_tree(g));
            assert_eq!(
                connected_components(gp).labels,
                connected_components(g).labels
            );
        };
        let wire = |net: &mut HealingNetwork, g: &mut Graph, pairs: &[(u32, u32)]| {
            for &(a, b) in pairs {
                net.add_heal_edge(NodeId(a), NodeId(b)).unwrap();
                g.add_edge(NodeId(a), NodeId(b)).unwrap();
            }
        };
        wire(
            &mut net,
            &mut g,
            &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (6, 7)],
        );
        net.delete_node(NodeId(8)).unwrap();
        g.remove_node(NodeId(8)).unwrap();
        check(&net, &g);
        assert!(is_forest(net.healing_graph()) && !is_tree(net.healing_graph()));
        wire(&mut net, &mut g, &[(5, 6)]);
        check(&net, &g);
        assert!(is_tree(net.healing_graph()));
        wire(&mut net, &mut g, &[(1, 7)]);
        check(&net, &g);
        assert!(!is_forest(net.healing_graph()));
    }

    #[test]
    fn slot_segments_never_move_and_locate_every_slot() {
        // 5 initial records in a first segment with room for 10, then
        // joins through three doubling segments (16, 32 and 64 records):
        // every record must stay where it was written, and the index
        // must find each one.
        let mut net = net_on_path(5);
        let places = |net: &HealingNetwork| {
            let rest = net.slots.rest.iter().map(|s| s.as_ptr());
            std::iter::once(net.slots.first.as_ptr())
                .chain(rest)
                .collect::<Vec<_>>()
        };
        for _ in 0..8 {
            net.join_node(&[NodeId(0)]).unwrap();
        }
        let early = places(&net);
        for _ in 0..48 {
            net.join_node(&[]).unwrap();
        }
        let caps = |net: &HealingNetwork| {
            let rest = net.slots.rest.iter().map(Vec::capacity);
            std::iter::once(net.slots.first.capacity())
                .chain(rest)
                .collect::<Vec<_>>()
        };
        assert_eq!(caps(&net), [10, 16, 32, 64]);
        assert_eq!(places(&net)[..early.len()], early[..]);
        assert_eq!(net.total_created(), 61);
        assert_eq!(net.slots.iter().count(), 61);
        for i in 5..61 {
            assert_eq!(net.initial_id(NodeId::from_index(i)), i as u64);
        }
        assert!(net.slots.get(61).is_none());
        assert_eq!(
            caps(&net.clone()),
            [10, 16, 32, 64],
            "a clone keeps full segments"
        );
    }

    #[test]
    fn heal_scratch_round_trips_and_keeps_capacity() {
        let mut net = net_on_path(3);
        let mut s = net.take_heal_scratch();
        s.tagged.push((1, 2, NodeId(0)));
        s.ordered.reserve(64);
        let cap = s.ordered.capacity();
        net.put_heal_scratch(s);
        let s = net.take_heal_scratch();
        assert_eq!(s.tagged.len(), 1);
        assert!(s.ordered.capacity() >= cap);
    }

    #[test]
    fn isolated_join_is_allowed() {
        let mut net = net_on_path(2);
        let v = net.join_node(&[]).unwrap();
        assert_eq!(net.graph().degree(v), 0);
        assert_eq!(net.total_created(), 3);
    }
}

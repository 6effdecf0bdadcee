//! DASH as a real message-passing protocol on `selfheal-sim`.
//!
//! The engine in [`crate::engine`] runs DASH as a centralized graph
//! transformation with *modeled* message accounting. This module runs the
//! same algorithm as an actual distributed protocol: deletions are
//! detected by neighbors, reconnection happens through one-hop
//! coordination, and the minimum-ID broadcast of Algorithm 1 step 5 is
//! carried by real unit-latency messages flooding the healing forest.
//! Integration tests assert the two implementations produce *identical*
//! topologies, component IDs and message counts — the strongest evidence
//! that the modeled accounting in the figures is faithful.
//!
//! Division of knowledge (matching the paper's model):
//! - **NoN oracle**: each node knows its neighbors' neighbors, IDs and
//!   degree counters. The paper assumes this is maintained out-of-band
//!   (refs [14, 18]) and does not charge messages for it; accordingly the
//!   protocol reads fellow RT members' public state directly.
//! - **Reconnection**: for each victim, the first *live* former neighbor
//!   is elected per-victim coordinator, performs the O(1) one-hop
//!   reconnection and applies the RT edges (Lemma 7's constant latency).
//!   The election is real logic, not an assumption about notification
//!   order, so debug and release builds behave identically, and a
//!   per-victim handled set makes repeated or interleaved notifications
//!   idempotent.
//! - **Batches**: under a simultaneous batch kill
//!   ([`Simulator::delete_batch`](selfheal_sim::Simulator::delete_batch))
//!   notifications for different victims interleave, so coordinators
//!   *defer*: each elected coordinator parks its victim and heals it at
//!   the fabric's quiescence barrier
//!   ([`Protocol::on_quiescent`]), one victim per round — each victim's
//!   reconnection and ID broadcast complete before the next victim's
//!   heal reads component IDs, exactly the synchronous-round structure
//!   the centralized batch path (`batch::heal_batch_into`) models.
//! - **Joins**: a joining node extends the columnar state with a fresh
//!   ID larger than every ID handed out so far (the same
//!   `total_created` counter rule as
//!   [`crate::state::HealingNetwork::join_node`]), preserving Lemma 8's
//!   record-breaking structure.
//! - **ID propagation**: charged per Lemma 8 — every node whose component
//!   ID drops sends its new ID to *all* its current neighbors; receivers
//!   adopt (and re-broadcast) only if the sender is a healing-forest
//!   neighbor, which confines adoption to the `G'` tree while the
//!   announcements keep NoN state fresh.

use selfheal_sim::{Ctx, DeletionInfo, Protocol, SplitMix64};
use std::collections::{BTreeSet, VecDeque};

/// Message carried by the distributed protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DashMsg {
    /// "My component ID is now this value."
    IdUpdate(u64),
}

/// Which healing rule the distributed protocol applies per round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealMode {
    /// Algorithm 1: complete binary tree by increasing δ.
    Dash,
    /// Algorithm 3: surrogate star when a member has enough δ slack,
    /// else fall back to the DASH tree.
    Sdash,
    /// [`ForgivingTree`](crate::ftree::ForgivingTree): complete binary
    /// tree rooted at the heir — the member with the lowest
    /// `(current degree, initial ID)` — remaining members in initial-ID
    /// order. Both keys are locally observable (NoN state), so the
    /// distributed order matches the centralized one byte-for-byte.
    ForgivingTree,
}

/// Distributed DASH/SDASH: per-node state stored columnar (indexed by
/// node id).
#[derive(Clone, Debug)]
pub struct DistributedDash {
    mode: HealMode,
    initial_id: Vec<u64>,
    comp_id: Vec<u64>,
    initial_degree: Vec<u32>,
    gprime: Vec<BTreeSet<u32>>,
    id_changes: Vec<u32>,
    /// Victims whose coordination already ran (or was parked): a
    /// per-victim set, so interleaved notifications for victims A, B, A
    /// can never re-elect A's coordinator. The old single-slot
    /// `last_handled: Option<u32>` guard did exactly that — see the
    /// `interleaved_batch_never_rewires_twice` regression test.
    handled: BTreeSet<u32>,
    /// Victims parked by their coordinators during a simultaneous batch,
    /// healed one per quiescence round in coordination order.
    pending: VecDeque<DeletionInfo>,
    /// Total nodes ever created (initial + joined); the next fresh ID.
    total_created: u64,
}

impl DistributedDash {
    /// Build for a topology of `n` nodes whose initial degrees are given;
    /// IDs are the same seeded random permutation that
    /// [`crate::state::HealingNetwork::new`] uses, so a centralized and a
    /// distributed run with equal seeds are directly comparable.
    pub fn new(initial_degrees: Vec<u32>, seed: u64) -> Self {
        Self::with_mode(HealMode::Dash, initial_degrees, seed)
    }

    /// Distributed SDASH (Algorithm 3) with the same state layout.
    pub fn sdash(initial_degrees: Vec<u32>, seed: u64) -> Self {
        Self::with_mode(HealMode::Sdash, initial_degrees, seed)
    }

    /// Build with an explicit healing mode.
    pub fn with_mode(mode: HealMode, initial_degrees: Vec<u32>, seed: u64) -> Self {
        let n = initial_degrees.len();
        let mut ids: Vec<u64> = (0..n as u64).collect();
        SplitMix64::new(seed).shuffle(&mut ids);
        DistributedDash {
            mode,
            comp_id: ids.clone(),
            initial_id: ids,
            initial_degree: initial_degrees,
            gprime: vec![BTreeSet::new(); n],
            id_changes: vec![0; n],
            handled: BTreeSet::new(),
            pending: VecDeque::new(),
            total_created: n as u64,
        }
    }

    /// Current component ID of `v`.
    pub fn comp_id(&self, v: u32) -> u64 {
        self.comp_id[v as usize]
    }

    /// Initial random ID of `v`.
    pub fn initial_id(&self, v: u32) -> u64 {
        self.initial_id[v as usize]
    }

    /// Number of times `v` adopted a smaller component ID.
    pub fn id_changes(&self, v: u32) -> u32 {
        self.id_changes[v as usize]
    }

    /// `v`'s healing-forest neighbors.
    pub fn gprime_neighbors(&self, v: u32) -> &BTreeSet<u32> {
        &self.gprime[v as usize]
    }

    /// Degree increase of `v` measured against its initial degree.
    fn delta(&self, ctx: &Ctx<'_, DashMsg>, v: u32) -> i64 {
        ctx.neighbors(v).len() as i64 - self.initial_degree[v as usize] as i64
    }

    /// Compute the reconstruction set `UN(v,G) ∪ N(v,G')`, removing the
    /// dead node from every member's healing adjacency as a side effect.
    ///
    /// Mirrors `rt::reconstruction_set` *exactly*: `UN` tags every former
    /// neighbor whose component ID differs from the victim's — including
    /// `N(v,G')` members — then keeps one lowest-initial-ID
    /// representative per component and dedups against the `G'` set.
    /// (Under a simultaneous batch an earlier victim's broadcast may have
    /// changed a `G'` neighbor's component ID between the kill and this
    /// heal, making it a `UN` representative; tagging it separately from
    /// the `G'` branch, as an earlier revision did, wires an extra member
    /// and can close a cycle in the healing forest.)
    fn reconstruction_set(&mut self, info: &DeletionInfo) -> Vec<u32> {
        let dead = info.deleted;
        let dead_comp = self.comp_id[dead as usize];
        self.gprime[dead as usize].clear();
        let mut members: Vec<u32> = Vec::new();
        let mut tagged: Vec<(u64, u64, u32)> = Vec::new();
        for &u in &info.former_neighbors {
            // N(v, G'): healing adjacency contained the victim.
            if self.gprime[u as usize].remove(&dead) {
                members.push(u);
            }
            if self.comp_id[u as usize] != dead_comp {
                tagged.push((self.comp_id[u as usize], self.initial_id[u as usize], u));
            }
        }
        // UN(v, G): lowest-initial-id representative per component.
        tagged.sort_unstable();
        let mut last: Option<u64> = None;
        for (comp, _, u) in tagged {
            if last != Some(comp) {
                members.push(u);
                last = Some(comp);
            }
        }
        members.sort_unstable();
        members.dedup();
        members
    }

    /// Adopt `id` at `me` and announce to all current neighbors.
    fn adopt_and_announce(&mut self, ctx: &mut Ctx<'_, DashMsg>, me: u32, id: u64) {
        self.comp_id[me as usize] = id;
        self.id_changes[me as usize] += 1;
        let nbrs: Vec<u32> = ctx.neighbors(me).to_vec();
        for n in nbrs {
            ctx.send(me, n, DashMsg::IdUpdate(id));
        }
    }

    /// Coordinate the healing round for one victim: build the
    /// reconstruction set, wire it (surrogate star or DASH tree), and
    /// seed the minimum-ID broadcast.
    fn heal_victim(&mut self, ctx: &mut Ctx<'_, DashMsg>, info: &DeletionInfo) {
        let members = self.reconstruction_set(info);
        if members.is_empty() {
            return;
        }
        // SDASH surrogation (Algorithm 3): if some member can absorb all
        // reconnection edges without exceeding the set's current max δ,
        // wire a star around it.
        let surrogate = if self.mode == HealMode::Sdash && members.len() >= 2 {
            // panic-ok: `members.len() >= 2` just checked, so the max
            // over a non-empty iterator exists.
            let max_delta = members.iter().map(|&u| self.delta(ctx, u)).max().unwrap();
            let extra = members.len() as i64 - 1;
            members
                .iter()
                .copied()
                .filter(|&w| self.delta(ctx, w) + extra <= max_delta)
                .min_by_key(|&w| (self.delta(ctx, w), self.initial_id[w as usize]))
        } else {
            None
        };
        if let Some(w) = surrogate {
            for &u in &members {
                if u != w {
                    ctx.add_link(w, u);
                    self.gprime[w as usize].insert(u);
                    self.gprime[u as usize].insert(w);
                }
            }
        } else {
            // Order the members and wire the complete binary tree. DASH
            // and SDASH's fallback sort by (δ, initial id); ForgivingTree
            // sorts by initial id and rotates the heir — lowest
            // (current degree, initial id) — to the root, mirroring
            // `ftree::order_heir_first` byte-for-byte.
            let mut ordered = members.clone();
            if self.mode == HealMode::ForgivingTree {
                ordered.sort_by_key(|&u| self.initial_id[u as usize]);
                let heir_pos = (0..ordered.len())
                    .min_by_key(|&i| {
                        let u = ordered[i];
                        (ctx.neighbors(u).len(), self.initial_id[u as usize])
                    })
                    // panic-ok: `members` is non-empty (checked above).
                    .unwrap();
                ordered[..=heir_pos].rotate_right(1);
            } else {
                ordered.sort_by_key(|&u| (self.delta(ctx, u), self.initial_id[u as usize]));
            }
            for i in 1..ordered.len() {
                let (a, b) = (ordered[(i - 1) / 2], ordered[i]);
                ctx.add_link(a, b);
                self.gprime[a as usize].insert(b);
                self.gprime[b as usize].insert(a);
            }
        }
        // Algorithm 1 step 5: every RT member with a larger component ID
        // adopts the minimum and starts the broadcast.
        let min_id = members
            .iter()
            .map(|&u| self.comp_id[u as usize])
            .min()
            // panic-ok: step 5 only runs for non-empty reconstruction
            // sets (the empty case returned earlier).
            .unwrap();
        for &u in &members {
            if self.comp_id[u as usize] > min_id {
                self.adopt_and_announce(ctx, u, min_id);
            }
        }
    }
}

impl Protocol for DistributedDash {
    type Msg = DashMsg;

    fn on_neighbor_deleted(&mut self, ctx: &mut Ctx<'_, DashMsg>, me: u32, info: &DeletionInfo) {
        // Per-victim coordinator election, as real logic in every build
        // profile: the first *live* former neighbor coordinates; every
        // other notified neighbor stands down regardless of the order in
        // which the fabric delivered the notifications.
        let coordinator = info
            .former_neighbors
            .iter()
            .copied()
            .find(|&u| ctx.is_alive(u));
        if coordinator != Some(me) {
            return;
        }
        // Idempotence per victim: interleaved or repeated notifications
        // (A, B, A under a batch kill) coordinate each victim once.
        if !self.handled.insert(info.deleted) {
            return;
        }
        if info.simultaneous {
            // Batch kill: park the round and heal at the quiescence
            // barrier, one victim per round, so this victim's broadcast
            // finishes before the next victim's heal reads component
            // IDs. Coordination order == round-robin notification order
            // == batch victim order.
            self.pending.push_back(info.clone());
        } else {
            self.heal_victim(ctx, info);
        }
    }

    fn on_quiescent(&mut self, ctx: &mut Ctx<'_, DashMsg>) -> bool {
        match self.pending.pop_front() {
            Some(info) => {
                self.heal_victim(ctx, &info);
                true
            }
            None => false,
        }
    }

    fn on_join(&mut self, _ctx: &mut Ctx<'_, DashMsg>, me: u32, neighbors: &[u32]) {
        debug_assert_eq!(me as usize, self.comp_id.len(), "join ids are dense");
        // Fresh ID larger than every ID ever handed out (the
        // `HealingNetwork::join_node` rule), so the joiner is never a
        // component minimum until it adopts one.
        let fresh_id = self.total_created;
        self.total_created += 1;
        self.initial_id.push(fresh_id);
        self.comp_id.push(fresh_id);
        self.initial_degree.push(neighbors.len() as u32);
        self.gprime.push(BTreeSet::new());
        self.id_changes.push(0);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, DashMsg>, me: u32, from: u32, msg: DashMsg) {
        let DashMsg::IdUpdate(id) = msg;
        // Adoption is confined to the healing forest; announcements from
        // non-G' neighbors only refresh NoN state.
        if self.gprime[me as usize].contains(&from) && id < self.comp_id[me as usize] {
            self.adopt_and_announce(ctx, me, id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal_sim::{Simulator, Topology};

    fn star_sim(n: usize) -> Simulator<DistributedDash> {
        let edges: Vec<(u32, u32)> = (1..n as u32).map(|i| (0, i)).collect();
        let topo = Topology::from_edges(n, &edges);
        let degrees: Vec<u32> = (0..n as u32)
            .map(|v| topo.neighbors(v).len() as u32)
            .collect();
        Simulator::new(topo, DistributedDash::new(degrees, 42))
    }

    #[test]
    fn hub_deletion_reconnects_spokes() {
        let mut sim = star_sim(8);
        sim.delete_node(0);
        sim.run_to_quiescence();
        // 7 spokes in a complete binary tree: 6 links, all spokes alive.
        let total_degree: usize = (1..8).map(|v| sim.topology.neighbors(v).len()).sum();
        assert_eq!(total_degree, 12);
        // One component id shared by everyone.
        let id = sim.protocol.comp_id(1);
        assert!((2..8).all(|v| sim.protocol.comp_id(v) == id));
    }

    #[test]
    fn id_broadcast_floods_gprime_only() {
        // Two separate stars; deleting one hub must not touch the other's ids.
        let topo = Topology::from_edges(8, &[(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7)]);
        let degrees: Vec<u32> = (0..8).map(|v| topo.neighbors(v).len() as u32).collect();
        let mut sim = Simulator::new(topo, DistributedDash::new(degrees, 7));
        let before: Vec<u64> = (4..8).map(|v| sim.protocol.comp_id(v)).collect();
        sim.delete_node(0);
        sim.run_to_quiescence();
        let after: Vec<u64> = (4..8).map(|v| sim.protocol.comp_id(v)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn messages_follow_lemma8_model() {
        let mut sim = star_sim(5);
        sim.delete_node(0);
        sim.run_to_quiescence();
        // Each spoke whose id changed sent exactly (current degree) msgs.
        for v in 1..5u32 {
            let changes = sim.protocol.id_changes(v) as u64;
            if changes > 0 {
                assert!(sim.metrics.sent(v) >= changes, "node {v}");
            }
        }
        // Nobody in a 4-node RT changes id more than once in one round.
        assert!((1..5).all(|v| sim.protocol.id_changes(v) <= 1));
    }

    /// Regression for the single-slot `last_handled: Option<u32>` guard.
    ///
    /// A simultaneous batch interleaves notifications round-robin across
    /// victims: with victims A = 1 and B = 5 the callbacks arrive as
    /// A, B, A, B, A — the second "A" is exactly the interleaving that
    /// made the old guard re-elect A's coordinator (`last_handled` was B
    /// by then) and double-wire A's RT edges (in debug builds its
    /// `debug_assert_eq!(me == first)` panicked instead, so release and
    /// debug disagreed). The per-victim handled set plus the first-live
    /// election coordinate each victim exactly once in every profile.
    #[test]
    fn interleaved_batch_never_rewires_twice() {
        // Two independent hubs: 1 (neighbors 0,2,3) and 5 (neighbors 4,6,7).
        let topo =
            Topology::from_edges(8, &[(1, 0), (1, 2), (1, 3), (5, 4), (5, 6), (5, 7), (3, 4)]);
        let degrees: Vec<u32> = (0..8).map(|v| topo.neighbors(v).len() as u32).collect();
        let mut sim = Simulator::new(topo, DistributedDash::new(degrees, 11));
        sim.delete_batch(&[1, 5]);
        sim.run_to_quiescence();
        // Each victim's RT was wired exactly once: RT(1) = {0,2,3} gets 2
        // tree edges, RT(5) = {4,6,7} gets 2 tree edges. Double
        // coordination would re-add edges into G' as parallel wiring of a
        // different tree shape and break the G-degree count below.
        let healing_edges: usize = (0..8u32)
            .map(|v| sim.protocol.gprime_neighbors(v).len())
            .sum::<usize>()
            / 2;
        assert_eq!(healing_edges, 4);
        // G' symmetric, alive, mirrored in G — and every survivor
        // reachable from node 0.
        for v in sim.topology.live_nodes() {
            for &u in sim.protocol.gprime_neighbors(v).clone().iter() {
                assert!(sim.topology.is_alive(u));
                assert!(sim.protocol.gprime_neighbors(u).contains(&v));
                assert!(sim.topology.has_edge(u, v));
            }
        }
        let mut seen = [false; 8];
        let mut stack = vec![0u32];
        seen[0] = true;
        let mut reached = 1;
        while let Some(v) = stack.pop() {
            for &u in sim.topology.neighbors(v) {
                if !seen[u as usize] {
                    seen[u as usize] = true;
                    reached += 1;
                    stack.push(u);
                }
            }
        }
        assert_eq!(reached, sim.topology.live_count(), "batch heal left a cut");
    }

    #[test]
    fn batch_heals_serialize_at_the_quiescence_barrier() {
        // Alternate kills on a cycle: a maximal independent set.
        let edges: Vec<(u32, u32)> = (0..10u32).map(|i| (i, (i + 1) % 10)).collect();
        let topo = Topology::from_edges(10, &edges);
        let degrees: Vec<u32> = (0..10).map(|v| topo.neighbors(v).len() as u32).collect();
        let mut sim = Simulator::new(topo, DistributedDash::new(degrees, 3));
        sim.delete_batch(&[0, 2, 4, 6, 8]);
        let report = sim.run_to_quiescence();
        // All five survivors share one component id.
        let id = sim.protocol.comp_id(1);
        assert!([3u32, 5, 7, 9]
            .iter()
            .all(|&v| sim.protocol.comp_id(v) == id));
        assert_eq!(report.dropped, 0);
    }

    #[test]
    fn ftree_mode_roots_tree_at_heir() {
        let edges: Vec<(u32, u32)> = (1..8u32).map(|i| (0, i)).collect();
        let topo = Topology::from_edges(8, &edges);
        let degrees: Vec<u32> = (0..8).map(|v| topo.neighbors(v).len() as u32).collect();
        let mut sim = Simulator::new(
            topo,
            DistributedDash::with_mode(HealMode::ForgivingTree, degrees, 42),
        );
        sim.delete_node(0);
        sim.run_to_quiescence();
        // 7 spokes wired as a complete binary tree: 6 healing edges.
        let healing_edges: usize = (1..8u32)
            .map(|v| sim.protocol.gprime_neighbors(v).len())
            .sum::<usize>()
            / 2;
        assert_eq!(healing_edges, 6);
        // All spokes had degree 0 at heal time, so the heir is the spoke
        // with the lowest initial ID; as the root it takes exactly its
        // two children and no parent edge.
        let heir = (1..8u32)
            .min_by_key(|&v| sim.protocol.initial_id(v))
            .unwrap();
        assert_eq!(sim.protocol.gprime_neighbors(heir).len(), 2);
        // Per-member gain stays within the family's ≤ 3 bound.
        for v in 1..8u32 {
            assert!(sim.topology.neighbors(v).len() <= 3, "node {v}");
        }
    }

    #[test]
    fn join_extends_columnar_state_with_fresh_ids() {
        let mut sim = star_sim(4);
        let v = sim.join_node(&[1, 2]);
        assert_eq!(v, 4);
        // Fresh id = total created so far, larger than all initial ids.
        assert_eq!(sim.protocol.initial_id(v), 4);
        assert_eq!(sim.protocol.comp_id(v), 4);
        assert_eq!(sim.protocol.id_changes(v), 0);
        assert!(sim.protocol.gprime_neighbors(v).is_empty());
        // The joiner participates in later healing rounds: killing hub 0
        // must reconnect the spokes and flood ids; the joiner's δ
        // baseline is its attachment degree.
        sim.delete_node(0);
        sim.run_to_quiescence();
        // The spokes were wired into one G' tree and share its minimum;
        // the joiner has no G' edge, so the flood (correctly) never
        // adopts it into the component.
        let id = sim.protocol.comp_id(1);
        assert!([2u32, 3].iter().all(|&u| sim.protocol.comp_id(u) == id));
        assert_eq!(sim.protocol.comp_id(v), 4);
    }

    #[test]
    fn repeated_deletions_keep_gprime_consistent() {
        let mut sim = star_sim(10);
        sim.delete_node(0);
        sim.run_to_quiescence();
        for victim in [1u32, 2, 3] {
            sim.delete_node(victim);
            sim.run_to_quiescence();
            // G' adjacency must be symmetric and reference live nodes.
            for v in sim.topology.live_nodes() {
                for &u in sim.protocol.gprime_neighbors(v).clone().iter() {
                    assert!(sim.topology.is_alive(u), "dead G' neighbor {u} of {v}");
                    assert!(sim.protocol.gprime_neighbors(u).contains(&v));
                    assert!(sim.topology.has_edge(u, v), "G' edge missing from G");
                }
            }
        }
    }
}

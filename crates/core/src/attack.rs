//! Adversarial attack strategies (Section 4.2 of the paper).
//!
//! The adversary is omniscient: it sees the whole current topology
//! (including healing edges) when choosing the next victim. The paper
//! evaluates two main strategies — [`MaxNode`] and [`NeighborOfMax`]
//! (which it finds the most damaging for degree increase) — and this
//! module adds [`RandomAttack`], [`MinDegree`] and [`Scripted`] for
//! tests and extra experiments.
//!
//! ## The structural adversary library
//!
//! Trehan's dissertation stresses *adaptive* adversaries that target
//! structure rather than pick uniformly, so beyond the single-victim
//! [`Adversary`] trait (whose implementors drive the engine through the
//! blanket `EventSource` adapter) this module carries event-level
//! adversaries that exercise the full reconfiguration vocabulary:
//!
//! - [`CutVertex`] — delete the highest-degree articulation point
//!   (single victims, maximally disconnective);
//! - [`EpidemicChurn`] — failures spread along edges like an infection;
//! - [`FlashCrowd`] — bursts of joins piling onto the current hub,
//!   punctuated by the overwhelmed hub failing;
//! - [`RackPartition`] — coordinated batch kills of random "racks",
//!   modeling correlated datacenter failures (paper footnote 1).
//!
//! Every stochastic source derives its private RNG stream from
//! `(seed, per-source tag)` so schedules replay from the seed alone and
//! two sources sharing one seed never walk correlated streams.

use crate::scenario::{source_stream, EventRef, EventSource};
use crate::state::HealingNetwork;
use selfheal_graph::NodeId;
use selfheal_sim::SplitMix64;
use std::collections::VecDeque;

/// An adversary that chooses one victim per round.
///
/// `Send` is a supertrait so boxed adversaries (and the engines holding
/// them) can migrate across the serving layer's worker threads; every
/// adversary is plain owned data, so the bound costs nothing.
pub trait Adversary: Send {
    /// Short stable name used in tables and benchmarks.
    fn name(&self) -> &'static str;

    /// The next node to delete, or `None` to stop (e.g. network empty).
    fn pick(&mut self, net: &HealingNetwork) -> Option<NodeId>;
}

impl<A: Adversary + ?Sized> Adversary for Box<A> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn pick(&mut self, net: &HealingNetwork) -> Option<NodeId> {
        (**self).pick(net)
    }
}

/// Delete the current maximum-degree node (ties → lowest id).
#[derive(Clone, Copy, Debug, Default)]
pub struct MaxNode;

impl Adversary for MaxNode {
    fn name(&self) -> &'static str {
        "max-node"
    }

    fn pick(&mut self, net: &HealingNetwork) -> Option<NodeId> {
        net.graph().max_degree_node()
    }
}

/// Delete a uniformly random neighbor of the current maximum-degree node;
/// if the max node is isolated, delete it instead.
///
/// This is the paper's `NeighborOfMaxStrategy` (NMS) — its rationale:
/// hubs are well protected in real networks, but their neighbors are
/// soft targets whose deletion keeps piling degree onto the hub.
#[derive(Clone, Debug)]
pub struct NeighborOfMax {
    rng: SplitMix64,
}

impl NeighborOfMax {
    /// Seeded adversary (deterministic victim sequence per seed).
    pub fn new(seed: u64) -> Self {
        NeighborOfMax {
            rng: SplitMix64::new(seed),
        }
    }
}

impl Adversary for NeighborOfMax {
    fn name(&self) -> &'static str {
        "neighbor-of-max"
    }

    fn pick(&mut self, net: &HealingNetwork) -> Option<NodeId> {
        let hub = net.graph().max_degree_node()?;
        let nbrs = net.graph().neighbors(hub);
        if nbrs.is_empty() {
            Some(hub)
        } else {
            Some(*self.rng.choose(nbrs))
        }
    }
}

/// Delete a uniformly random live node.
#[derive(Clone, Debug)]
pub struct RandomAttack {
    rng: SplitMix64,
}

impl RandomAttack {
    /// Seeded adversary.
    pub fn new(seed: u64) -> Self {
        RandomAttack {
            rng: SplitMix64::new(seed),
        }
    }
}

impl Adversary for RandomAttack {
    fn name(&self) -> &'static str {
        "random"
    }

    fn pick(&mut self, net: &HealingNetwork) -> Option<NodeId> {
        // Rank-select on the graph's live bitmap index: identical draws
        // to choosing from the collected (ascending) live list.
        let live = net.graph().live_node_count();
        if live == 0 {
            None
        } else {
            net.graph()
                .nth_live(self.rng.gen_range(live as u64) as usize)
        }
    }
}

/// Delete the current minimum-degree node (ties → lowest id). Mostly
/// deletes leaves — a gentle adversary useful as a contrast in ablations.
#[derive(Clone, Copy, Debug, Default)]
pub struct MinDegree;

impl Adversary for MinDegree {
    fn name(&self) -> &'static str {
        "min-degree"
    }

    fn pick(&mut self, net: &HealingNetwork) -> Option<NodeId> {
        net.graph().min_degree_node()
    }
}

/// Delete the highest-degree *articulation point* of the current graph,
/// falling back to the overall max-degree node when the graph is
/// biconnected.
///
/// Articulation points are the structurally most damaging victims: every
/// such deletion would disconnect the network if healing did not respond,
/// so this adversary forces real healing work every single round. Not in
/// the paper — added as a stronger stress test of the connectivity
/// guarantee.
#[derive(Clone, Copy, Debug, Default)]
pub struct CutVertex;

impl Adversary for CutVertex {
    fn name(&self) -> &'static str {
        "cut-vertex"
    }

    fn pick(&mut self, net: &HealingNetwork) -> Option<NodeId> {
        let g = net.graph();
        let aps = selfheal_graph::cuts::articulation_points(g);
        aps.into_iter()
            .max_by_key(|&v| (g.degree(v), std::cmp::Reverse(v)))
            .or_else(|| g.max_degree_node())
    }
}

/// Epidemic churn: node failures spread along edges like an infection.
///
/// Each event first spreads the infection — every live neighbor of an
/// infected node catches it independently with probability `p` — and
/// then the *oldest* infected node fails (a `Delete` event). When the
/// infection dies out (or has not started) a random live node becomes
/// patient zero, so the epidemic always progresses and a run-to-empty
/// sweep terminates.
///
/// This is the locality-correlated failure model the uniform
/// [`RandomAttack`] cannot express: victims cluster in neighborhoods, so
/// reconstruction trees repeatedly form in already-damaged regions.
#[derive(Clone, Debug)]
pub struct EpidemicChurn {
    rng: SplitMix64,
    /// Per-edge spread probability per event.
    p: f64,
    /// Infected, in infection order (front = oldest = next victim).
    infected: VecDeque<NodeId>,
    /// Epoch-stamped membership mirror of `infected` (`mark[i] == epoch`
    /// ⇔ infected this event), restamped each event so spread-step
    /// membership tests are O(1) instead of scanning the queue.
    mark: Vec<u32>,
    epoch: u32,
}

impl EpidemicChurn {
    /// Tag for the private RNG stream: `b"epidemic"` truncated.
    pub const STREAM_TAG: u64 = 0x6570_6964_656d_6963;

    /// Seeded epidemic with per-edge spread probability `p` (clamped to
    /// `[0, 1]`).
    pub fn new(seed: u64, p: f64) -> Self {
        EpidemicChurn {
            rng: source_stream(seed, Self::STREAM_TAG),
            p: p.clamp(0.0, 1.0),
            infected: VecDeque::new(),
            mark: Vec::new(),
            epoch: 0,
        }
    }
}

impl EventSource for EpidemicChurn {
    fn name(&self) -> &'static str {
        "epidemic-churn"
    }

    fn next_event_into<'a>(
        &mut self,
        net: &HealingNetwork,
        _ids: &'a mut Vec<NodeId>,
    ) -> Option<EventRef<'a>> {
        if net.graph().live_node_count() == 0 {
            return None;
        }
        // Drop victims that died by other means (mixed sources, stale
        // state), then restamp the membership mirror for this event
        // (fresh epoch = O(1) reset; the buffer only grows with the
        // network).
        self.infected.retain(|&v| net.is_alive(v));
        if self.infected.is_empty() {
            let live = net.graph().live_node_count();
            let zero = net
                .graph()
                .nth_live(self.rng.gen_range(live as u64) as usize)
                // panic-ok: `gen_range(live)` yields a rank strictly
                // below the live count, so select cannot miss.
                .expect("rank < live count");
            self.infected.push_back(zero);
        }
        if self.mark.len() < net.graph().node_bound() {
            self.mark.resize(net.graph().node_bound(), 0);
        }
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.mark.fill(0);
                1
            }
        };
        for &v in &self.infected {
            self.mark[v.index()] = self.epoch;
        }
        // One spread step: iterate this event's carriers in infection
        // order, their neighbors in adjacency order — fully deterministic
        // given the seed and the evolving network. (The RNG draw comes
        // before the membership test on purpose: one draw per examined
        // edge, so the stream does not depend on infection state.)
        let carriers = self.infected.len();
        for i in 0..carriers {
            let v = self.infected[i];
            for &u in net.graph().neighbors(v) {
                if self.rng.gen_f64() < self.p && self.mark[u.index()] != self.epoch {
                    self.mark[u.index()] = self.epoch;
                    self.infected.push_back(u);
                }
            }
        }
        // panic-ok: the empty case re-seeds the queue a few lines up, so
        // the pop always has an element.
        let victim = self.infected.pop_front().expect("seeded above");
        Some(EventRef::Delete(victim))
    }
}

/// Flash crowd: bursts of joins all attaching to the current hub, each
/// burst punctuated by the overwhelmed hub failing.
///
/// Every join attaches to the maximum-degree node plus up to two random
/// live nodes, so degree (and healing pressure, once the hub dies)
/// concentrates on one hotspot — the join-side analogue of
/// [`NeighborOfMax`]'s "keep piling degree onto the hub". After the join
/// budget is spent the source drains the network by deleting hubs, so
/// run-to-empty terminates.
#[derive(Clone, Debug)]
pub struct FlashCrowd {
    rng: SplitMix64,
    joins_left: usize,
    burst: usize,
    burst_pos: usize,
}

impl FlashCrowd {
    /// Tag for the private RNG stream: `b"flash"` packed.
    pub const STREAM_TAG: u64 = 0x66_6c_61_73_68;

    /// Seeded flash crowd issuing `joins` total joins in bursts of
    /// `burst` (at least 1) before each hub failure.
    pub fn new(seed: u64, joins: usize, burst: usize) -> Self {
        FlashCrowd {
            rng: source_stream(seed, Self::STREAM_TAG),
            joins_left: joins,
            burst: burst.max(1),
            burst_pos: 0,
        }
    }
}

impl EventSource for FlashCrowd {
    fn name(&self) -> &'static str {
        "flash-crowd"
    }

    fn next_event_into<'a>(
        &mut self,
        net: &HealingNetwork,
        ids: &'a mut Vec<NodeId>,
    ) -> Option<EventRef<'a>> {
        let hub = net.graph().max_degree_node()?;
        if self.joins_left == 0 {
            // Budget spent: drain by killing the current hub.
            return Some(EventRef::Delete(hub));
        }
        if self.burst_pos < self.burst {
            self.burst_pos += 1;
            self.joins_left -= 1;
            ids.clear();
            ids.push(hub);
            let live = net.graph().live_node_count();
            for _ in 0..self.rng.gen_range(3) {
                let cand = net
                    .graph()
                    .nth_live(self.rng.gen_range(live as u64) as usize)
                    // panic-ok: rank drawn strictly below the live count.
                    .expect("rank < live count");
                if !ids.contains(&cand) {
                    ids.push(cand);
                }
            }
            Some(EventRef::Join(ids))
        } else {
            self.burst_pos = 0;
            Some(EventRef::Delete(hub))
        }
    }
}

/// Coordinated rack failures: the live nodes are shuffled into "racks"
/// of `rack_size` (consecutive chunks of one shuffled order) and each
/// event kills one whole rack as a `DeleteBatch`.
///
/// The engine thins each batch to an independent set (paper footnote 1's
/// NoN-knowledge condition), so adjacent rack-mates survive the first
/// attempt; once every rack has been tried the survivors are re-shuffled
/// into new racks, and the process repeats until the network is empty.
/// Each emitted batch contains at least one live node, so progress is
/// guaranteed.
#[derive(Clone, Debug)]
pub struct RackPartition {
    rng: SplitMix64,
    rack_size: usize,
    /// The current shuffle of the live nodes, reused across reshuffles.
    order: Vec<NodeId>,
    /// Where in `order` the next rack starts.
    next: usize,
}

impl RackPartition {
    /// Tag for the private RNG stream: `b"racks"` packed.
    pub const STREAM_TAG: u64 = 0x72_61_63_6b_73;

    /// Seeded rack partitioner with racks of `rack_size` (at least 1).
    pub fn new(seed: u64, rack_size: usize) -> Self {
        RackPartition {
            rng: source_stream(seed, Self::STREAM_TAG),
            rack_size: rack_size.max(1),
            order: Vec::new(),
            next: 0,
        }
    }
}

impl EventSource for RackPartition {
    fn name(&self) -> &'static str {
        "rack-partition"
    }

    fn next_event_into<'a>(
        &mut self,
        net: &HealingNetwork,
        ids: &'a mut Vec<NodeId>,
    ) -> Option<EventRef<'a>> {
        loop {
            if self.next < self.order.len() {
                let end = (self.next + self.rack_size).min(self.order.len());
                let rack = &self.order[self.next..end];
                self.next = end;
                // Racks are disjoint, but earlier racks' adjacency
                // thinning leaves survivors that only a re-shuffle will
                // cover; skip racks that died entirely in the meantime
                // (cannot happen within one shuffle, but cheap to guard).
                if rack.iter().any(|&v| net.is_alive(v)) {
                    ids.clear();
                    ids.extend_from_slice(rack);
                    return Some(EventRef::DeleteBatch(ids));
                }
                continue;
            }
            self.order.clear();
            self.order.extend(net.graph().live_nodes());
            if self.order.is_empty() {
                return None;
            }
            self.rng.shuffle(&mut self.order);
            self.next = 0;
        }
    }
}

/// Replay a fixed victim sequence (dead or unknown ids are skipped).
/// Used by the LEVELATTACK driver and by regression tests.
#[derive(Clone, Debug, Default)]
pub struct Scripted {
    queue: VecDeque<NodeId>,
}

impl Scripted {
    /// Script the given victim order.
    pub fn new<I: IntoIterator<Item = NodeId>>(victims: I) -> Self {
        Scripted {
            queue: victims.into_iter().collect(),
        }
    }

    /// Append another victim.
    pub fn push(&mut self, v: NodeId) {
        self.queue.push_back(v);
    }

    /// Victims not yet replayed.
    pub fn remaining(&self) -> usize {
        self.queue.len()
    }
}

impl Adversary for Scripted {
    fn name(&self) -> &'static str {
        "scripted"
    }

    fn pick(&mut self, net: &HealingNetwork) -> Option<NodeId> {
        while let Some(v) = self.queue.pop_front() {
            if net.is_alive(v) {
                return Some(v);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::NetworkEvent;
    use selfheal_graph::generators::star_graph;

    fn star_net() -> HealingNetwork {
        HealingNetwork::new(star_graph(6), 1)
    }

    #[test]
    fn max_node_picks_the_hub() {
        let net = star_net();
        assert_eq!(MaxNode.pick(&net), Some(NodeId(0)));
    }

    #[test]
    fn neighbor_of_max_picks_a_spoke() {
        let net = star_net();
        let mut a = NeighborOfMax::new(5);
        for _ in 0..10 {
            let v = a.pick(&net).unwrap();
            assert_ne!(
                v,
                NodeId(0),
                "NMS must not pick the hub while it has neighbors"
            );
        }
    }

    #[test]
    fn neighbor_of_max_falls_back_to_isolated_hub() {
        let g = selfheal_graph::Graph::new(1);
        let net = HealingNetwork::new(g, 0);
        let mut a = NeighborOfMax::new(1);
        assert_eq!(a.pick(&net), Some(NodeId(0)));
    }

    #[test]
    fn random_attack_is_deterministic_per_seed() {
        let net = star_net();
        let picks = |seed: u64| {
            let mut a = RandomAttack::new(seed);
            (0..5).map(|_| a.pick(&net).unwrap()).collect::<Vec<_>>()
        };
        assert_eq!(picks(9), picks(9));
    }

    #[test]
    fn min_degree_picks_a_spoke() {
        let net = star_net();
        let v = MinDegree.pick(&net).unwrap();
        assert_ne!(v, NodeId(0));
    }

    #[test]
    fn adversaries_return_none_on_empty_network() {
        let mut net = HealingNetwork::new(selfheal_graph::Graph::new(1), 0);
        net.delete_node(NodeId(0)).unwrap();
        assert_eq!(MaxNode.pick(&net), None);
        assert_eq!(MinDegree.pick(&net), None);
        assert_eq!(NeighborOfMax::new(0).pick(&net), None);
        assert_eq!(RandomAttack::new(0).pick(&net), None);
    }

    #[test]
    fn cut_vertex_prefers_articulation_points() {
        // Barbell: two triangles joined by edge (2,3); APs are 2 and 3.
        let mut g = selfheal_graph::Graph::new(6);
        for (a, b) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)] {
            g.add_edge(NodeId(a), NodeId(b)).unwrap();
        }
        let net = HealingNetwork::new(g, 0);
        let v = CutVertex.pick(&net).unwrap();
        assert!(v == NodeId(2) || v == NodeId(3));
    }

    #[test]
    fn cut_vertex_falls_back_on_biconnected_graphs() {
        let g = selfheal_graph::generators::complete_graph(5);
        let net = HealingNetwork::new(g, 0);
        assert_eq!(CutVertex.pick(&net), Some(NodeId(0)));
    }

    #[test]
    fn epidemic_always_progresses_and_clusters() {
        let mut net = star_net();
        let mut e = EpidemicChurn::new(7, 0.5);
        // Every event deletes exactly one live node, so a manual drive
        // terminates in exactly live_node_count steps.
        let mut kills = 0;
        while let Some(ev) = e.next_event(&net) {
            let NetworkEvent::Delete(v) = ev else {
                panic!("epidemic only emits single deletions");
            };
            assert!(net.is_alive(v));
            net.delete_node(v).unwrap();
            kills += 1;
        }
        assert_eq!(kills, 6);
    }

    #[test]
    fn epidemic_streams_are_seed_deterministic() {
        let run = |seed: u64| {
            let mut net = star_net();
            let mut e = EpidemicChurn::new(seed, 0.3);
            let mut order = Vec::new();
            while let Some(NetworkEvent::Delete(v)) = e.next_event(&net) {
                net.delete_node(v).unwrap();
                order.push(v);
            }
            order
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn flash_crowd_bursts_then_kills_the_hub() {
        let net = star_net();
        let mut f = FlashCrowd::new(5, 2, 2);
        let hub = NodeId(0);
        for _ in 0..2 {
            match f.next_event(&net).unwrap() {
                NetworkEvent::Join { neighbors } => {
                    assert_eq!(neighbors[0], hub, "joins target the hub first")
                }
                other => panic!("expected a join, got {other:?}"),
            }
        }
        // Burst over: the overwhelmed hub fails, then (budget spent) the
        // source keeps draining hubs.
        assert_eq!(f.next_event(&net).unwrap(), NetworkEvent::Delete(hub));
        assert_eq!(f.next_event(&net).unwrap(), NetworkEvent::Delete(hub));
    }

    #[test]
    fn flash_crowd_ends_on_empty_network() {
        let mut net = HealingNetwork::new(selfheal_graph::Graph::new(1), 0);
        net.delete_node(NodeId(0)).unwrap();
        assert_eq!(FlashCrowd::new(1, 5, 2).next_event(&net), None);
    }

    #[test]
    fn rack_partition_covers_every_node() {
        let net = star_net();
        let mut r = RackPartition::new(9, 3);
        let mut seen = Vec::new();
        // One shuffle of 6 nodes into racks of 3: two batches, disjoint,
        // covering everything (nothing is deleted between calls here).
        for _ in 0..2 {
            match r.next_event(&net).unwrap() {
                NetworkEvent::DeleteBatch(rack) => {
                    assert_eq!(rack.len(), 3);
                    seen.extend(rack);
                }
                other => panic!("expected a batch, got {other:?}"),
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..6u32).map(NodeId).collect::<Vec<_>>());
    }

    #[test]
    fn rack_partition_ends_on_empty_network() {
        let mut net = HealingNetwork::new(selfheal_graph::Graph::new(1), 0);
        net.delete_node(NodeId(0)).unwrap();
        assert_eq!(RackPartition::new(2, 4).next_event(&net), None);
    }

    #[test]
    fn same_seed_different_sources_use_uncorrelated_streams() {
        // All tagged streams must diverge even when built from one seed.
        use crate::scenario::source_stream;
        let tags = [
            EpidemicChurn::STREAM_TAG,
            FlashCrowd::STREAM_TAG,
            RackPartition::STREAM_TAG,
            crate::scenario::RandomChurn::STREAM_TAG,
        ];
        for (i, &a) in tags.iter().enumerate() {
            for &b in &tags[i + 1..] {
                let mut sa = source_stream(77, a);
                let mut sb = source_stream(77, b);
                let same = (0..32).filter(|_| sa.next_u64() == sb.next_u64()).count();
                assert_eq!(same, 0, "tags {a:#x} and {b:#x} collide");
            }
        }
    }

    #[test]
    fn scripted_skips_dead_victims() {
        let mut net = star_net();
        net.delete_node(NodeId(2)).unwrap();
        let mut s = Scripted::new(vec![NodeId(2), NodeId(3), NodeId(1)]);
        assert_eq!(s.pick(&net), Some(NodeId(3)));
        assert_eq!(s.remaining(), 1);
        assert_eq!(s.pick(&net), Some(NodeId(1)));
        assert_eq!(s.pick(&net), None);
    }
}

//! Cheap, reusable extraction of queryable engine state.
//!
//! The serving layer ([`selfheal-serve`]) answers read-mostly topology
//! queries (`components`, `degree`, `gprime-edges`, `stats`) without
//! blocking heals, by republishing a [`StateSnapshot`] of each shard's
//! [`HealingNetwork`] every epoch into a reused snapshot slot.
//!
//! Publishing is not a linear-time hot path. A tick changes only the
//! slots its heals touched (DASH rewires the victim's neighborhood, and
//! Theorem 1 bounds each node's ID changes by O(log n)), and the
//! network logs exactly those ([`HealingNetwork::take_touched`]). So a
//! publish brings an older snapshot up to date with
//! [`StateSnapshot::update`], in time proportional to the logged slots.
//! [`StateSnapshot::capture`] rebuilds everything in O(`total_created()`)
//! with no sort; it is the reference `update` must match and the
//! fallback when a log overflowed. Both reuse every internal
//! allocation, so steady-state republishing is allocation-free once the
//! vectors have grown to the network's size.
//!
//! The snapshot is plain owned data — no references into the network —
//! so a reader thread can hold it while the shard mutates freely.
//!
//! [`selfheal-serve`]: ../../selfheal_serve/index.html

use crate::state::HealingNetwork;
use selfheal_graph::NodeId;

/// Component id of a dead slot in [`StateSnapshot`]'s per-slot shadow.
const DEAD: u64 = u64::MAX;

/// Member counts per component id, kept dense (indexed by id) so a
/// delta update adjusts two counters per changed slot. The sorted
/// `(id, count)` list is produced only on query, by [`iter`](Self::iter).
///
/// The component id is the *believed* one — the minimum initial ID each
/// node has learned so far (`HealingNetwork::comp_id`), which starts as
/// the node's own shuffled ID and converges downward as heal-triggered
/// `propagate_min_id` broadcasts flood. The entry count therefore
/// tracks broadcast convergence, not graph connectivity: it *shrinks
/// toward* one entry per connected component as healing rounds
/// accumulate.
#[derive(Clone, Debug, Default)]
pub struct Components {
    /// Member count per component id. Ids are ranks below
    /// `total_created()` (see `HealingNetwork::comp_id`).
    counts: Vec<u32>,
    /// Number of nonzero entries of `counts`.
    distinct: usize,
}

impl Components {
    /// Number of distinct component ids among live nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.distinct
    }

    /// Whether no node is live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.distinct == 0
    }

    /// `(component id, member count)` pairs in increasing id order.
    /// O(ids): a scan of the dense counts.
    pub fn iter(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n != 0)
            .map(|(id, &n)| (id as u64, n as usize))
    }

    fn add(&mut self, id: u64) {
        let count = &mut self.counts[id as usize];
        self.distinct += usize::from(*count == 0);
        *count += 1;
    }

    fn remove(&mut self, id: u64) {
        let count = &mut self.counts[id as usize];
        *count -= 1;
        self.distinct -= usize::from(*count == 0);
    }
}

/// Equal when the `(id, count)` lists are, whatever the length of the
/// dense buffers.
impl PartialEq for Components {
    fn eq(&self, other: &Self) -> bool {
        self.distinct == other.distinct && self.iter().eq(other.iter())
    }
}

impl Eq for Components {}

/// A point-in-time summary of one healing network: the live node set,
/// the broadcast component IDs (aggregated), per-slot `G'` degrees and
/// the `G'` edge count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StateSnapshot {
    /// Member count per component id.
    pub components: Components,
    /// Degree in the healed graph `G'`, indexed by slot
    /// ([`NodeId::index`]); dead slots report 0.
    pub degrees: Vec<u32>,
    /// Edge count of the healed graph `G'`.
    pub gprime_edges: usize,
    /// Component id per slot, [`DEAD`] for dead slots: the previous
    /// value an [`update`](Self::update) moves a slot's count away from.
    comp: Vec<u64>,
    /// Number of live nodes.
    live: usize,
}

impl StateSnapshot {
    /// Refill this snapshot from `net`, reusing all internal
    /// allocations. O(`total_created()`) with no sort and no allocation
    /// at steady state.
    pub fn capture(&mut self, net: &HealingNetwork) {
        let (g, gp) = (net.graph(), net.healing_graph());
        gp.degrees_into(&mut self.degrees);
        self.gprime_edges = gp.edge_count();
        self.live = g.live_node_count();
        self.comp.clear();
        self.comp.extend((0..g.node_bound()).map(|i| {
            let v = NodeId::from_index(i);
            if g.is_alive(v) {
                net.comp_id(v)
            } else {
                DEAD
            }
        }));
        let components = &mut self.components;
        components.counts.clear();
        components.counts.resize(net.total_created(), 0);
        components.distinct = 0;
        for &id in &self.comp {
            if id != DEAD {
                components.add(id);
            }
        }
    }

    /// Bring this snapshot up to date with `net`, given every slot whose
    /// liveness, `G'` degree or component ID changed since the state
    /// this snapshot holds (spread over two logs from
    /// [`HealingNetwork::take_touched`], repeats allowed). O(logged
    /// slots), plus growth of the per-slot buffers when joins added
    /// slots. Matches a fresh [`capture`](Self::capture) whenever the
    /// logs are complete.
    pub fn update(&mut self, net: &HealingNetwork, touched: [&[NodeId]; 2]) {
        let (g, gp) = (net.graph(), net.healing_graph());
        self.degrees.resize(gp.node_bound(), 0);
        self.comp.resize(g.node_bound(), DEAD);
        self.components.counts.resize(net.total_created(), 0);
        for &v in touched.into_iter().flatten() {
            self.degrees[v.index()] = u32::try_from(gp.degree(v)).unwrap_or(u32::MAX);
            let id = if g.is_alive(v) { net.comp_id(v) } else { DEAD };
            let old = std::mem::replace(&mut self.comp[v.index()], id);
            if old != id {
                if old != DEAD {
                    self.components.remove(old);
                }
                if id != DEAD {
                    self.components.add(id);
                }
            }
        }
        self.gprime_edges = gp.edge_count();
        self.live = g.live_node_count();
    }

    /// Number of live nodes.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// Live node ids, in increasing order. O(slots).
    pub fn live_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.comp
            .iter()
            .enumerate()
            .filter(|&(_, &id)| id != DEAD)
            .map(|(i, _)| NodeId::from_index(i))
    }

    /// `G'` degree of `v`, or `None` for ids outside the slot range
    /// (dead-but-allocated slots report `Some(0)`, matching
    /// `Graph::degree`).
    #[must_use]
    pub fn degree_of(&self, v: NodeId) -> Option<u32> {
        self.degrees.get(v.index()).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::MaxNode;
    use crate::dash::Dash;
    use crate::scenario::{NetworkEvent, ScenarioEngine};
    use crate::sdash::Sdash;
    use crate::strategy::Healer;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use selfheal_graph::generators::barabasi_albert;

    #[test]
    fn snapshot_matches_direct_network_queries() {
        let g = barabasi_albert(40, 3, &mut StdRng::seed_from_u64(9));
        let net = HealingNetwork::new(g, 9);
        let mut engine = ScenarioEngine::new(net, Sdash, MaxNode);
        for _ in 0..15 {
            engine.step();
        }

        let mut snap = StateSnapshot::default();
        snap.capture(&engine.net);

        let live: Vec<NodeId> = snap.live_nodes().collect();
        assert_eq!(live, engine.net.graph().live_nodes().collect::<Vec<_>>());
        assert_eq!(snap.live_count(), engine.net.graph().live_node_count());
        assert_eq!(snap.gprime_edges, engine.net.healing_graph().edge_count());
        for &v in &live {
            assert_eq!(
                snap.degree_of(v),
                Some(engine.net.healing_graph().degree(v) as u32)
            );
        }
        let total: usize = snap.components.iter().map(|(_, n)| n).sum();
        assert_eq!(total, snap.live_count());
        assert_eq!(snap.components.iter().count(), snap.components.len());
    }

    #[test]
    fn capture_reuses_allocations_at_steady_state() {
        let g = barabasi_albert(32, 3, &mut StdRng::seed_from_u64(4));
        let net = HealingNetwork::new(g, 4);
        let mut engine = ScenarioEngine::new(net, Sdash, MaxNode);
        let mut snap = StateSnapshot::default();
        snap.capture(&engine.net);
        let caps = (
            snap.comp.capacity(),
            snap.degrees.capacity(),
            snap.components.counts.capacity(),
        );
        for _ in 0..10 {
            engine.step();
            snap.capture(&engine.net);
        }
        // The network only shrinks under pure deletions, so every
        // buffer's first-capture capacity suffices from then on.
        assert_eq!(
            caps,
            (
                snap.comp.capacity(),
                snap.degrees.capacity(),
                snap.components.counts.capacity(),
            )
        );
    }

    /// The sort + run-length-encoding aggregation the counting pass
    /// replaced, kept as the reference it must match.
    fn sorted_components(net: &HealingNetwork) -> Vec<(u64, usize)> {
        let mut ids: Vec<u64> = net.graph().live_nodes().map(|v| net.comp_id(v)).collect();
        ids.sort_unstable();
        let mut out: Vec<(u64, usize)> = Vec::new();
        for id in ids {
            match out.last_mut() {
                Some((last, n)) if *last == id => *n += 1,
                _ => out.push((id, 1)),
            }
        }
        out
    }

    /// Up to `k` distinct live nodes, drawn uniformly.
    fn pick_live(net: &HealingNetwork, k: usize, rng: &mut StdRng) -> Vec<NodeId> {
        let live: Vec<NodeId> = net.graph().live_nodes().collect();
        let mut picked: Vec<NodeId> = Vec::new();
        for _ in 0..k.min(live.len()) {
            let v = live[rng.gen_range(0..live.len())];
            if !picked.contains(&v) {
                picked.push(v);
            }
        }
        picked
    }

    /// One seeded event of a delete / batch / join / bare-join mix
    /// (joins grow the slot and id ranges past the initial n).
    fn mixed_event(net: &HealingNetwork, rng: &mut StdRng) -> NetworkEvent {
        match rng.gen_range(0u32..10) {
            _ if net.graph().live_node_count() == 0 => NetworkEvent::Join { neighbors: vec![] },
            0..=3 => NetworkEvent::Delete(pick_live(net, 1, rng)[0]),
            4..=5 => NetworkEvent::DeleteBatch(pick_live(net, 4, rng)),
            6 => NetworkEvent::Join { neighbors: vec![] },
            _ => NetworkEvent::Join {
                neighbors: pick_live(net, 3, rng),
            },
        }
    }

    /// Drive the mixed stream and check the counting capture against
    /// the sort + RLE reference after every event.
    fn check_capture_matches_reference<H: Healer>(healer: H, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(8usize..48);
        let g = barabasi_albert(n, 2, &mut rng);
        let mut engine = ScenarioEngine::new(HealingNetwork::new(g, seed), healer, MaxNode);
        let mut snap = StateSnapshot::default();
        for step in 0..3 * n {
            let event = mixed_event(&engine.net, &mut rng);
            engine.apply(event);
            snap.capture(&engine.net);
            assert_eq!(
                snap.components.iter().collect::<Vec<_>>(),
                sorted_components(&engine.net),
                "seed {seed}, event {step}"
            );
            assert_eq!(
                snap.components.len(),
                sorted_components(&engine.net).len(),
                "seed {seed}, event {step}"
            );
        }
        assert!(engine.net.total_created() > n, "seed {seed}: no join ran");
    }

    #[test]
    fn counting_capture_matches_sort_reference_under_mixed_events() {
        for seed in 0..24 {
            check_capture_matches_reference(Dash, seed);
            check_capture_matches_reference(Sdash, seed);
        }
    }

    /// Publish after every event of the mixed stream the way a serving
    /// shard does: two snapshots alternate, and each is brought up to
    /// date from the state of two publishes ago by replaying the last
    /// two touched-slot logs. Every result must equal a fresh capture.
    /// Returns how many publishes took the delta path, and whether some
    /// log held a slot twice.
    fn check_update_matches_capture<H: Healer>(healer: H, seed: u64) -> (usize, bool) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(16usize..64);
        let g = barabasi_albert(n, 2, &mut rng);
        let mut engine = ScenarioEngine::new(HealingNetwork::new(g, seed), healer, MaxNode);
        let mut snaps = [StateSnapshot::default(), StateSnapshot::default()];
        snaps[0].capture(&engine.net);
        snaps[1].capture(&engine.net);
        let mut logs = [Vec::new(), Vec::new()];
        let mut complete = [true, engine.net.take_touched(&mut logs[1])];
        let (mut updates, mut repeats) = (0, false);
        let mut fresh = StateSnapshot::default();
        for step in 0..4 * n {
            let event = mixed_event(&engine.net, &mut rng);
            engine.apply(event);
            logs.swap(0, 1);
            complete.swap(0, 1);
            complete[1] = engine.net.take_touched(&mut logs[1]);
            repeats |= (1..logs[1].len()).any(|i| logs[1][..i].contains(&logs[1][i]));
            let snap = &mut snaps[step % 2];
            if complete == [true, true] {
                snap.update(&engine.net, [&logs[0], &logs[1]]);
                updates += 1;
            } else {
                snap.capture(&engine.net);
            }
            fresh.capture(&engine.net);
            assert_eq!(*snap, fresh, "seed {seed}, event {step}");
            assert!(
                snap.live_nodes().eq(engine.net.graph().live_nodes()),
                "seed {seed}, event {step}"
            );
        }
        assert!(engine.net.total_created() > n, "seed {seed}: no join ran");
        (updates, repeats)
    }

    #[test]
    fn delta_update_matches_capture_under_mixed_events() {
        let (mut updates, mut repeats) = (0, false);
        for seed in 0..24 {
            for (u, r) in [
                check_update_matches_capture(Dash, seed),
                check_update_matches_capture(Sdash, seed),
            ] {
                updates += u;
                repeats |= r;
            }
        }
        assert!(
            updates > 1000,
            "only {updates} publishes took the delta path"
        );
        assert!(repeats, "no log ever repeated a slot");
    }

    /// The exact broadcast, which the engine's heal loop never calls,
    /// logs its ID changes too: hand-driven DASH rounds with
    /// `propagate_min_id`, one log per round.
    #[test]
    fn delta_update_matches_capture_under_exact_broadcasts() {
        let (mut log, mut fresh) = (Vec::new(), StateSnapshot::default());
        for seed in 0..8 {
            let g = barabasi_albert(40, 3, &mut StdRng::seed_from_u64(seed));
            let mut net = HealingNetwork::new(g, seed);
            let mut snap = StateSnapshot::default();
            snap.capture(&net);
            assert!(net.take_touched(&mut log));
            while let Some(v) = net.graph().max_degree_node() {
                let ctx = net.delete_node(v).expect("live victim");
                let outcome = Dash.heal(&mut net, &ctx);
                net.propagate_min_id(&outcome.rt_members);
                if net.take_touched(&mut log) {
                    snap.update(&net, [&log, &[]]);
                } else {
                    snap.capture(&net);
                }
                fresh.capture(&net);
                assert_eq!(snap, fresh, "seed {seed}, victim {v:?}");
            }
        }
    }

    #[test]
    fn take_touched_reports_overflow_and_resets() {
        let g = barabasi_albert(12, 2, &mut StdRng::seed_from_u64(3));
        let mut engine = ScenarioEngine::new(HealingNetwork::new(g, 3), Dash, MaxNode);
        let mut log = Vec::new();
        assert!(engine.net.take_touched(&mut log), "a fresh log is complete");
        assert!(log.is_empty());
        // Twelve slots of log: deleting hubs until the network is empty
        // logs far more than that.
        while engine.step().is_some() {}
        assert!(!engine.net.take_touched(&mut log), "the log overflowed");
        assert!(log.len() >= 12, "an overflowed log holds its capacity");
        assert!(engine.net.take_touched(&mut log), "draining reset the flag");
        assert!(log.is_empty());

        // Before its first drain the log has no room: any change counts
        // as an overflow, and the drain sizes it.
        let g = barabasi_albert(12, 2, &mut StdRng::seed_from_u64(3));
        let mut engine = ScenarioEngine::new(HealingNetwork::new(g, 3), Dash, MaxNode);
        engine.step();
        assert!(
            !engine.net.take_touched(&mut log),
            "an undrained log overflowed"
        );
        assert!(log.is_empty());
        engine.step();
        assert!(
            engine.net.take_touched(&mut log),
            "the first drain sized it"
        );
        assert!(!log.is_empty());
    }

    #[test]
    fn equality_ignores_counting_buffer_size() {
        let small = HealingNetwork::new(barabasi_albert(12, 2, &mut StdRng::seed_from_u64(1)), 1);
        let large = HealingNetwork::new(barabasi_albert(64, 3, &mut StdRng::seed_from_u64(2)), 2);
        let mut fresh = StateSnapshot::default();
        fresh.capture(&small);
        let mut reused = StateSnapshot::default();
        reused.capture(&large);
        reused.capture(&small);
        assert_eq!(fresh, reused);
        assert_ne!(fresh, {
            let mut other = StateSnapshot::default();
            other.capture(&large);
            other
        });
        // Trailing zero counts do not make two component lists differ.
        let mut padded = fresh.components.clone();
        padded.counts.resize(100, 0);
        assert_eq!(padded, fresh.components);
    }
}

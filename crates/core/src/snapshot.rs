//! Cheap, reusable extraction of queryable engine state.
//!
//! The serving layer ([`selfheal-serve`]) answers read-mostly topology
//! queries (`components`, `degree`, `gprime-edges`, `stats`) without
//! blocking heals, by republishing a [`StateSnapshot`] of each shard's
//! [`HealingNetwork`] every epoch into a reused snapshot slot. That
//! makes capture a hot path: [`StateSnapshot::capture`] therefore runs
//! in linear time with no sort and reuses every internal allocation, so
//! steady-state republishing is allocation-free once the vectors have
//! grown to the network's size (mirroring the engine's own
//! `DeletionContext` reuse).
//!
//! The snapshot is plain owned data — no references into the network —
//! so a reader thread can hold it while the shard mutates freely.
//!
//! [`selfheal-serve`]: ../../selfheal_serve/index.html

use crate::state::HealingNetwork;
use selfheal_graph::NodeId;

/// A point-in-time summary of one healing network: the live node set,
/// the broadcast component IDs (aggregated), per-slot `G'` degrees and
/// the `G'` edge count.
///
/// Equality compares only these published fields, never the internal
/// counting buffer.
#[derive(Clone, Debug, Default)]
pub struct StateSnapshot {
    /// Live node ids, in increasing order.
    pub live: Vec<NodeId>,
    /// `(component id, member count)` pairs, sorted by component id.
    /// The component id is the *believed* one — the minimum initial ID
    /// each node has learned so far (`HealingNetwork::comp_id`), which
    /// starts as the node's own shuffled ID and converges downward as
    /// heal-triggered `propagate_min_id` broadcasts flood. The entry
    /// count therefore tracks broadcast convergence, not graph
    /// connectivity: it *shrinks toward* one entry per connected
    /// component as healing rounds accumulate.
    pub components: Vec<(u64, usize)>,
    /// Degree in the healed graph `G'`, indexed by slot
    /// ([`NodeId::index`]); dead slots report 0.
    pub degrees: Vec<u32>,
    /// Edge count of the healed graph `G'`.
    pub gprime_edges: usize,
    /// Member count per component id, indexed by id. All zero between
    /// captures; kept only to reuse its allocation.
    counts: Vec<u32>,
}

impl PartialEq for StateSnapshot {
    fn eq(&self, other: &Self) -> bool {
        self.live == other.live
            && self.components == other.components
            && self.degrees == other.degrees
            && self.gprime_edges == other.gprime_edges
    }
}

impl Eq for StateSnapshot {}

impl StateSnapshot {
    /// Refill this snapshot from `net`, reusing all internal
    /// allocations. O(`total_created()`) with no sort and no allocation
    /// at steady state.
    pub fn capture(&mut self, net: &HealingNetwork) {
        let g = net.healing_graph();
        g.live_nodes_into(&mut self.live);
        g.degrees_into(&mut self.degrees);
        self.gprime_edges = g.edge_count();

        // Component ids are ranks below `total_created()` (see
        // `HealingNetwork::comp_id`), so a counting pass yields the
        // `(id, count)` list in ascending id order without sorting.
        self.counts.resize(net.total_created(), 0);
        let mut distinct = 0;
        for &v in &self.live {
            let count = &mut self.counts[net.comp_id(v) as usize];
            distinct += usize::from(*count == 0);
            *count += 1;
        }
        // Branchless emit: write every slot, advance only past nonzero
        // counts, and zero the buffer for the next capture. The spare
        // last entry absorbs writes after the final component.
        self.components.clear();
        self.components.resize(distinct + 1, (0, 0));
        let mut k = 0;
        for (id, count) in self.counts.iter_mut().enumerate() {
            self.components[k] = (id as u64, *count as usize);
            k += usize::from(*count != 0);
            *count = 0;
        }
        self.components.truncate(distinct);
    }

    /// Number of live nodes.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.live.len()
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

        assert_eq!(
            snap.live,
            engine.net.graph().live_nodes().collect::<Vec<_>>()
        );
        assert_eq!(snap.live_count(), engine.net.graph().live_node_count());
        assert_eq!(snap.gprime_edges, engine.net.healing_graph().edge_count());
        for &v in &snap.live {
            assert_eq!(
                snap.degree_of(v),
                Some(engine.net.healing_graph().degree(v) as u32)
            );
        }
        let total: usize = snap.components.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, snap.live_count());
        assert!(snap.components.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn capture_reuses_allocations_at_steady_state() {
        let g = barabasi_albert(32, 3, &mut StdRng::seed_from_u64(4));
        let net = HealingNetwork::new(g, 4);
        let mut engine = ScenarioEngine::new(net, Sdash, MaxNode);
        let mut snap = StateSnapshot::default();
        snap.capture(&engine.net);
        let caps = (
            snap.live.capacity(),
            snap.degrees.capacity(),
            snap.components.capacity(),
            snap.counts.capacity(),
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
                snap.live.capacity(),
                snap.degrees.capacity(),
                snap.components.capacity(),
                snap.counts.capacity(),
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

    /// Drive a seeded mix of deletes, batches and joins (joins grow the
    /// slot and id ranges past the initial n) and check the counting
    /// capture against the sort + RLE reference after every event.
    fn check_capture_matches_reference<H: Healer>(healer: H, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(8usize..48);
        let g = barabasi_albert(n, 2, &mut rng);
        let mut engine = ScenarioEngine::new(HealingNetwork::new(g, seed), healer, MaxNode);
        let mut snap = StateSnapshot::default();
        for step in 0..3 * n {
            let live = engine.net.graph().live_node_count();
            let event = match rng.gen_range(0u32..10) {
                _ if live == 0 => NetworkEvent::Join { neighbors: vec![] },
                0..=3 => NetworkEvent::Delete(pick_live(&engine.net, 1, &mut rng)[0]),
                4..=5 => NetworkEvent::DeleteBatch(pick_live(&engine.net, 4, &mut rng)),
                _ => NetworkEvent::Join {
                    neighbors: pick_live(&engine.net, 3, &mut rng),
                },
            };
            engine.apply(event);
            snap.capture(&engine.net);
            assert_eq!(
                snap.components,
                sorted_components(&engine.net),
                "seed {seed}, event {step}"
            );
            let total: usize = snap.components.iter().map(|&(_, n)| n).sum();
            assert_eq!(total, snap.live_count(), "seed {seed}, event {step}");
            assert!(
                snap.components.windows(2).all(|w| w[0].0 < w[1].0),
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
    }
}

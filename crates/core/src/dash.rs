//! DASH — Degree-Based Self-Healing (Algorithm 1 of the paper).
//!
//! On each deletion, DASH:
//!
//! 1. forms the reconstruction set `UN(v, G) ∪ N(v, G')` (one
//!    representative per `G'` component among the deleted node's
//!    neighbors, plus all its healing-forest neighbors),
//! 2. wires it into a complete binary tree in increasing `δ` order, so
//!    nodes that already absorbed degree increase become leaves and gain
//!    at most one edge,
//! 3. broadcasts the minimum component ID through the merged `G'` tree.
//!
//! Theorem 1 guarantees: connectivity is preserved, `δ(v) ≤ 2 log₂ n`
//! for every node, O(1) reconnection latency, and w.h.p. at most
//! `2 (d + 2 log n) ln n` ID-maintenance messages per node. All four are
//! validated empirically by `crate::invariants` and the experiment
//! harness.

use crate::rt;
use crate::state::{DeletionContext, HealingNetwork};
use crate::strategy::{HealOutcome, Healer};

/// The DASH healing strategy. Stateless: all state lives in the
/// [`HealingNetwork`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Dash;

impl Healer for Dash {
    fn name(&self) -> &'static str {
        "dash"
    }

    /// The allocation-free hot path: every buffer (tag scratch, δ order,
    /// and the outcome's own vectors) is reused across rounds, so a
    /// steady-state heal performs zero heap allocations.
    fn heal_into(
        &mut self,
        net: &mut HealingNetwork,
        ctx: &DeletionContext,
        out: &mut HealOutcome,
    ) {
        out.clear();
        let mut scratch = net.take_heal_scratch();
        rt::reconstruction_set_into(net, ctx, &mut scratch.tagged, &mut out.rt_members);
        rt::delta_keys_into(net, &out.rt_members, &mut scratch.keyed);
        rt::order_keys_into(&mut scratch.keyed, &mut scratch.ordered);
        rt::connect_binary_tree_into(net, &scratch.ordered, &mut out.edges_added);
        net.put_heal_scratch(scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use selfheal_graph::components::is_connected;
    use selfheal_graph::forest::is_forest;
    use selfheal_graph::generators::{barabasi_albert, star_graph};
    use selfheal_graph::NodeId;

    /// Drive one DASH round: delete, heal, propagate.
    fn round(net: &mut HealingNetwork, v: NodeId) {
        let ctx = net.delete_node(v).unwrap();
        let outcome = Dash.heal(net, &ctx);
        net.propagate_min_id(&outcome.rt_members);
    }

    #[test]
    fn star_hub_deletion_builds_binary_tree() {
        let mut net = HealingNetwork::new(star_graph(8), 5);
        round(&mut net, NodeId(0));
        assert!(is_connected(net.graph()));
        assert!(is_forest(net.healing_graph()));
        // 7 spokes wired as a complete binary tree: 6 healing edges.
        assert_eq!(net.healing_graph().edge_count(), 6);
        // All spokes now share the minimum id.
        let min_id = (1..8).map(|v| net.initial_id(NodeId(v))).min().unwrap();
        for v in 1..8u32 {
            assert_eq!(net.comp_id(NodeId(v)), min_id);
        }
    }

    #[test]
    fn deleting_everything_keeps_remainder_connected() {
        let mut rng = StdRng::seed_from_u64(17);
        let g = barabasi_albert(60, 3, &mut rng);
        let mut net = HealingNetwork::new(g, 17);
        // Delete nodes in a fixed arbitrary order; the survivors must stay
        // connected after every single round.
        for v in 0..60u32 {
            round(&mut net, NodeId(v));
            assert!(is_connected(net.graph()), "disconnected after deleting {v}");
            assert!(is_forest(net.healing_graph()), "G' not a forest after {v}");
        }
        assert_eq!(net.graph().live_node_count(), 0);
    }

    #[test]
    fn degree_increase_is_bounded() {
        let mut rng = StdRng::seed_from_u64(23);
        let n = 128;
        let g = barabasi_albert(n, 3, &mut rng);
        let mut net = HealingNetwork::new(g, 23);
        let bound = 2.0 * (n as f64).log2();
        for v in 0..n as u32 {
            round(&mut net, NodeId(v));
            let max_delta = net.max_delta_alive();
            assert!(
                (max_delta as f64) <= bound,
                "delta {max_delta} exceeds 2 log2 n = {bound}"
            );
        }
    }

    #[test]
    fn deletion_of_leaf_adds_no_edges() {
        // Deleting a degree-1 node leaves a single neighbor: RT has one
        // member and no edges are added.
        let mut net = HealingNetwork::new(selfheal_graph::generators::path_graph(3), 2);
        let ctx = net.delete_node(NodeId(0)).unwrap();
        let outcome = Dash.heal(&mut net, &ctx);
        assert_eq!(outcome.rt_members, vec![NodeId(1)]);
        assert!(outcome.edges_added.is_empty());
        assert!(is_connected(net.graph()));
    }

    #[test]
    fn deletion_in_empty_neighborhood_is_noop() {
        // A node that is already isolated heals to nothing.
        let mut net = HealingNetwork::new(selfheal_graph::Graph::new(2), 3);
        let ctx = net.delete_node(NodeId(0)).unwrap();
        let outcome = Dash.heal(&mut net, &ctx);
        assert!(outcome.rt_members.is_empty());
        assert!(outcome.edges_added.is_empty());
    }

    #[test]
    fn low_delta_node_becomes_root() {
        let mut net = HealingNetwork::new(star_graph(6), 13);
        // Raise δ of nodes 1..4 via healing edges; node 5 keeps δ = 0...
        net.add_heal_edge(NodeId(1), NodeId(2)).unwrap();
        net.add_heal_edge(NodeId(3), NodeId(4)).unwrap();
        net.propagate_min_id(&[NodeId(1), NodeId(2)]);
        net.propagate_min_id(&[NodeId(3), NodeId(4)]);
        let ctx = net.delete_node(NodeId(0)).unwrap();
        let outcome = Dash.heal(&mut net, &ctx);
        // RT = {rep(1,2), rep(3,4), 5}; node 5 has the lowest δ after the
        // hub deletion (-1) ties with the two reps... all lost one edge to
        // the hub, so reps have δ = 0, node 5 has δ = -1: node 5 is root.
        assert_eq!(outcome.rt_members.len(), 3);
        let root = NodeId(5);
        assert_eq!(
            net.healing_graph().degree(root),
            2,
            "node 5 should parent both reps"
        );
    }
}

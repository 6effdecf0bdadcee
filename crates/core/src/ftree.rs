//! ForgivingTree — heir-rooted reconnection trees (Trehan's
//! dissertation, *Algorithms for Self-Healing Networks*, Chapter 4,
//! adapted to this workspace's reconstruction-set model).
//!
//! The dissertation's ForgivingTree replaces each deleted node with a
//! *will*: a balanced "half-full" tree over its children, rooted at a
//! designated **heir** so every survivor's degree grows by O(1) and
//! distances stretch by at most O(log n). This implementation keeps both
//! promises inside the paper's locality contract (edges only among the
//! victim's former neighbors):
//!
//! 1. form the reconstruction set `UN(v, G) ∪ N(v, G')` exactly like
//!    DASH (one representative per `G'` component, so `G'` stays a
//!    forest and connectivity is preserved — Lemma 2's argument carries
//!    over unchanged),
//! 2. elect the **heir**: the member with the lowest current `G` degree
//!    (ties by initial ID) — the survivor best able to absorb the
//!    root's extra edges,
//! 3. wire the members into a complete binary tree rooted at the heir,
//!    remaining members in initial-ID order.
//!
//! Per heal, a member takes at most one parent edge and two child edges,
//! so **each survivor gains ≤ 3 edges per adjacent deletion** (the O(1)
//! degree-increase claim, per event), and any two members end up within
//! `2 ⌊log₂ m⌋` hops of each other through the new tree (the O(log n)
//! stretch claim). Both bounds are enforced per event by
//! [`FamilyAuditor`](crate::invariants::FamilyAuditor) and proved
//! exhaustively on every connected graph `n ≤ 6` under every deletion
//! order by `run-experiments verify`.
//!
//! Unlike DASH's `δ`-ordering, the heir election reads only *current*
//! degrees and initial IDs — quantities a distributed node learns from
//! its direct neighborhood — so ForgivingTree runs byte-identically on
//! the distributed fabric
//! ([`HealMode::ForgivingTree`](crate::distributed::HealMode)).

use crate::rt;
use crate::state::{DeletionContext, HealingNetwork};
use crate::strategy::{HealOutcome, Healer};
use selfheal_graph::NodeId;

/// The ForgivingTree healing strategy. Stateless: all state lives in the
/// [`HealingNetwork`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ForgivingTree;

/// Order RT members heir-first: the member with the lowest
/// `(current G degree, initial ID)` key becomes the tree root; the rest
/// follow in initial-ID order. Keys are distinct per node (initial IDs
/// are unique), so the order is deterministic — and because it reads
/// only current degrees, the distributed protocol computes the identical
/// order from each coordinator's neighborhood view.
pub fn order_heir_first(net: &HealingNetwork, members: &[NodeId], out: &mut Vec<NodeId>) {
    out.clear();
    out.extend_from_slice(members);
    out.sort_unstable_by_key(|&v| net.initial_id(v));
    let Some(heir_pos) = (0..out.len()).min_by_key(|&i| {
        let v = out[i];
        (net.graph().degree(v), net.initial_id(v))
    }) else {
        return;
    };
    // Rotate the heir to the front, preserving the others' ID order.
    out[..=heir_pos].rotate_right(1);
}

impl Healer for ForgivingTree {
    fn name(&self) -> &'static str {
        "ftree"
    }

    /// Allocation-free hot path, mirroring [`Dash`](crate::dash::Dash):
    /// scratch buffers and the outcome's vectors are reused across
    /// rounds.
    fn heal_into(
        &mut self,
        net: &mut HealingNetwork,
        ctx: &DeletionContext,
        out: &mut HealOutcome,
    ) {
        out.clear();
        let mut scratch = net.take_heal_scratch();
        rt::reconstruction_set_into(net, ctx, &mut scratch.tagged, &mut out.rt_members);
        order_heir_first(net, &out.rt_members, &mut scratch.ordered);
        rt::connect_binary_tree_into(net, &scratch.ordered, &mut out.edges_added);
        net.put_heal_scratch(scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal_graph::components::is_connected;
    use selfheal_graph::forest::is_forest;
    use selfheal_graph::generators::{path_graph, star_graph};

    fn round(net: &mut HealingNetwork, v: NodeId) {
        let ctx = net.delete_node(v).unwrap();
        let outcome = ForgivingTree.heal(net, &ctx);
        net.propagate_min_id(&outcome.rt_members);
    }

    #[test]
    fn star_hub_deletion_roots_tree_at_heir() {
        let mut net = HealingNetwork::new(star_graph(8), 5);
        round(&mut net, NodeId(0));
        assert!(is_connected(net.graph()));
        assert!(is_forest(net.healing_graph()));
        // 7 spokes wired as a complete binary tree: 6 healing edges.
        assert_eq!(net.healing_graph().edge_count(), 6);
    }

    #[test]
    fn per_heal_degree_gain_is_at_most_three() {
        let mut net = HealingNetwork::new(star_graph(10), 11);
        let before: Vec<usize> = (0..10).map(|v| net.graph().degree(NodeId(v))).collect();
        let ctx = net.delete_node(NodeId(0)).unwrap();
        let outcome = ForgivingTree.heal(&mut net, &ctx);
        for &m in &outcome.rt_members {
            let gained = net.graph().degree(m) + 1 - before[m.index()]; // +1: lost hub edge
            assert!(gained <= 3, "member {m} gained {gained} edges");
        }
    }

    #[test]
    fn heir_is_the_lowest_degree_member() {
        // Path 0-1-2-3-4: delete 2. RT = {1, 3}; both have degree 1
        // after the deletion, so the lower initial ID roots the tree.
        let mut net = HealingNetwork::new(path_graph(5), 3);
        let ctx = net.delete_node(NodeId(2)).unwrap();
        let mut ordered = Vec::new();
        rt::reconstruction_set_into(&net, &ctx, &mut Vec::new(), &mut ordered);
        let mut heir_first = Vec::new();
        order_heir_first(&net, &ordered, &mut heir_first);
        let expect_heir = if net.initial_id(NodeId(1)) < net.initial_id(NodeId(3)) {
            NodeId(1)
        } else {
            NodeId(3)
        };
        assert_eq!(heir_first[0], expect_heir);
        assert_eq!(heir_first.len(), 2);
    }

    #[test]
    fn full_kill_sweep_stays_connected_and_forested() {
        let mut net = HealingNetwork::new(star_graph(9), 7);
        for v in 0..9u32 {
            round(&mut net, NodeId(v));
            assert!(is_connected(net.graph()), "disconnected after {v}");
            assert!(is_forest(net.healing_graph()), "G' cycled after {v}");
        }
        assert_eq!(net.graph().live_node_count(), 0);
    }

    #[test]
    fn empty_and_singleton_reconstruction_sets_are_noops() {
        let mut net = HealingNetwork::new(path_graph(3), 2);
        let ctx = net.delete_node(NodeId(0)).unwrap();
        let outcome = ForgivingTree.heal(&mut net, &ctx);
        assert_eq!(outcome.rt_members, vec![NodeId(1)]);
        assert!(outcome.edges_added.is_empty());
    }
}

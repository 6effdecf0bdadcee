//! The naive baseline healers from Section 4.3 of the paper.
//!
//! - [`GraphHeal`] — reconnect **all** neighbors of the deleted node in a
//!   binary tree, ignoring `G'` components entirely ("regardless of
//!   whether we introduced any cycles"). Simple, but adds far more edges
//!   than necessary.
//! - [`BinaryTreeHeal`] — component-aware like DASH (reconnects
//!   `UN(v,G) ∪ N(v,G')`, keeping `G'` a forest) but *degree-oblivious*:
//!   the binary tree is ordered by initial ID, not by `δ`.
//! - [`LineHeal`] — the earlier Boman et al. baseline (refs [5, 6]):
//!   component-aware, but wires the reconstruction set into a line.
//! - [`NoHeal`] — does nothing; the control that shows connectivity
//!   actually breaks without healing.

use crate::rt;
use crate::state::{DeletionContext, HealingNetwork};
use crate::strategy::{HealOutcome, Healer};
use selfheal_graph::forest::{complete_binary_tree_edges, line_edges};
use selfheal_graph::NodeId;

/// Order nodes by initial ID (the deterministic stand-in for the paper's
/// unspecified, δ-oblivious orderings).
fn order_by_initial_id(net: &HealingNetwork, members: &[NodeId]) -> Vec<NodeId> {
    let mut ordered = members.to_vec();
    ordered.sort_by_key(|&v| net.initial_id(v));
    ordered
}

/// Naive heal: binary tree over *all* former neighbors, cycles allowed.
#[derive(Clone, Copy, Debug, Default)]
pub struct GraphHeal;

impl Healer for GraphHeal {
    fn name(&self) -> &'static str {
        "graph-heal"
    }

    fn heal_into(
        &mut self,
        net: &mut HealingNetwork,
        ctx: &DeletionContext,
        out: &mut HealOutcome,
    ) {
        out.clear();
        let ordered = order_by_initial_id(net, &ctx.g_neighbors);
        for (a, b) in complete_binary_tree_edges(&ordered) {
            // panic-ok: the deletion context's surviving neighbors are
            // alive by construction when heal runs.
            let (_, new_gp) = net.add_heal_edge(a, b).expect("neighbors must be alive");
            if new_gp {
                out.edges_added.push((a, b));
            }
        }
        out.rt_members.extend_from_slice(&ctx.g_neighbors);
    }

    fn preserves_forest(&self) -> bool {
        false
    }
}

/// Component-aware but degree-oblivious binary-tree heal.
#[derive(Clone, Copy, Debug, Default)]
pub struct BinaryTreeHeal;

impl Healer for BinaryTreeHeal {
    fn name(&self) -> &'static str {
        "bintree-heal"
    }

    fn heal_into(
        &mut self,
        net: &mut HealingNetwork,
        ctx: &DeletionContext,
        out: &mut HealOutcome,
    ) {
        out.clear();
        out.rt_members = rt::reconstruction_set(net, ctx);
        let ordered = order_by_initial_id(net, &out.rt_members);
        rt::connect_binary_tree_into(net, &ordered, &mut out.edges_added);
    }
}

/// Component-aware line heal (the predecessor algorithm of refs [5, 6]).
#[derive(Clone, Copy, Debug, Default)]
pub struct LineHeal;

impl Healer for LineHeal {
    fn name(&self) -> &'static str {
        "line-heal"
    }

    fn heal_into(
        &mut self,
        net: &mut HealingNetwork,
        ctx: &DeletionContext,
        out: &mut HealOutcome,
    ) {
        out.clear();
        out.rt_members = rt::reconstruction_set(net, ctx);
        let ordered = order_by_initial_id(net, &out.rt_members);
        for (a, b) in line_edges(&ordered) {
            // panic-ok: reconstruction-set members are surviving nodes
            // by definition of the RT.
            let (_, new_gp) = net.add_heal_edge(a, b).expect("RT endpoints must be alive");
            if new_gp {
                out.edges_added.push((a, b));
            }
        }
    }
}

/// Control strategy: never adds an edge.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoHeal;

impl Healer for NoHeal {
    fn name(&self) -> &'static str {
        "no-heal"
    }

    fn heal_into(&mut self, _: &mut HealingNetwork, _: &DeletionContext, out: &mut HealOutcome) {
        out.clear();
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

    fn round<H: Healer>(healer: &mut H, net: &mut HealingNetwork, v: NodeId) -> HealOutcome {
        let ctx = net.delete_node(v).unwrap();
        let outcome = healer.heal(net, &ctx);
        net.propagate_min_id(&outcome.rt_members);
        outcome
    }

    /// Kill-sweep checking invariants; returns total healing edges added.
    fn full_sweep<H: Healer>(mut healer: H, n: usize, seed: u64) -> usize {
        let g = barabasi_albert(n, 3, &mut StdRng::seed_from_u64(seed));
        let mut net = HealingNetwork::new(g, seed);
        let mut total_edges = 0;
        for v in 0..n as u32 {
            total_edges += round(&mut healer, &mut net, NodeId(v)).edges_added.len();
            if healer.preserves_forest() {
                assert!(
                    is_forest(net.healing_graph()),
                    "{} broke forest at {v}",
                    healer.name()
                );
            }
            assert!(
                is_connected(net.graph()),
                "{} broke connectivity at {v}",
                healer.name()
            );
        }
        total_edges
    }

    #[test]
    fn graph_heal_keeps_connectivity_but_may_cycle() {
        let mut net = HealingNetwork::new(star_graph(8), 3);
        let mut h = GraphHeal;
        round(&mut h, &mut net, NodeId(0));
        assert!(is_connected(net.graph()));
        // Delete another node whose neighbors are already G'-connected:
        // GraphHeal will add redundant edges and eventually form cycles.
        let hub = net.graph().max_degree_node().unwrap();
        round(&mut h, &mut net, hub);
        assert!(is_connected(net.graph()));
        assert!(!h.preserves_forest());
    }

    #[test]
    fn graph_heal_uses_more_edges_than_bintree() {
        let seed = 11;
        let n = 80;
        let graph_heal_edges = full_sweep(GraphHeal, n, seed);
        let bintree_edges = full_sweep(BinaryTreeHeal, n, seed);
        // GraphHeal doesn't dedup components, so it adds strictly more
        // healing edges over a full sweep.
        assert!(
            graph_heal_edges > bintree_edges,
            "graph-heal {graph_heal_edges} should exceed bintree {bintree_edges}"
        );
    }

    #[test]
    fn bintree_and_line_sweeps_hold_invariants() {
        full_sweep(BinaryTreeHeal, 60, 7);
        full_sweep(LineHeal, 60, 9);
    }

    #[test]
    fn line_heal_degree_increase_per_round_is_two() {
        // A line adds at most 2 to any member's degree in one round.
        let mut net = HealingNetwork::new(star_graph(10), 1);
        let mut h = LineHeal;
        let outcome = round(&mut h, &mut net, NodeId(0));
        assert_eq!(outcome.edges_added.len(), 8); // 9 spokes in a line
        for v in 1..10u32 {
            assert!(net.graph().degree(NodeId(v)) <= 2);
        }
    }

    #[test]
    fn no_heal_breaks_connectivity() {
        let mut net = HealingNetwork::new(star_graph(5), 1);
        let mut h = NoHeal;
        let outcome = round(&mut h, &mut net, NodeId(0));
        assert!(outcome.edges_added.is_empty());
        assert!(!is_connected(net.graph()), "star without hub must shatter");
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            GraphHeal.name(),
            BinaryTreeHeal.name(),
            LineHeal.name(),
            NoHeal.name(),
            crate::dash::Dash.name(),
            crate::sdash::Sdash.name(),
            crate::ftree::ForgivingTree.name(),
            crate::ring::RingForgiving::default().name(),
        ];
        let mut uniq = names.to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), names.len());
    }
}

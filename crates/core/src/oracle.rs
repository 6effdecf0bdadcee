//! Oracle-DASH: component tracking without ID propagation — an ablation
//! for the paper's open question.
//!
//! The conclusions ask: *"Can we remove the need for propagating IDs in
//! order to maintain connected component information, or is such
//! information strictly necessary to keep the degree increase small?"*
//!
//! This module separates the two ingredients experimentally. Component
//! information itself **is** necessary (Section 3.1 / the GraphHeal
//! baseline shows what happens without it), but the *broadcast mechanism*
//! is not: [`OracleDash`] consults a union-find oracle over the healing
//! graph instead of gossiped minimum IDs. It produces **bit-identical
//! topologies** to DASH (verified by tests) while sending **zero**
//! messages — at the price of centralized state that a real distributed
//! system does not have. The Θ(n log n) message cost of DASH is therefore
//! exactly the price of *distributing* the component oracle.

use crate::rt;
use crate::state::{DeletionContext, HealingNetwork};
use crate::strategy::{HealOutcome, Healer};
use selfheal_graph::components::UnionFind;
use selfheal_graph::NodeId;

/// DASH with union-find component tracking instead of ID broadcast.
#[derive(Clone, Debug)]
pub struct OracleDash {
    uf: UnionFind,
}

impl OracleDash {
    /// Build for a network of `n` node slots (all singleton components,
    /// matching the empty initial healing graph).
    pub fn new(n: usize) -> Self {
        OracleDash {
            uf: UnionFind::new(n),
        }
    }

    /// Current component representative of `v` in the healing graph.
    ///
    /// Deleted nodes keep their (stale) entry; this is sound because
    /// healing re-merges every fragment of a deleted node's tree in the
    /// same round, so distinct live components never share a root.
    pub fn component_of(&mut self, v: NodeId) -> usize {
        self.uf.find(v.index())
    }

    /// The reconstruction set computed from the oracle: one lowest-
    /// initial-ID representative per union-find component among the
    /// victim's `G` neighbors (excluding the victim's own component),
    /// plus all `G'` neighbors — the exact partition DASH derives from
    /// broadcast IDs.
    fn reconstruction_set(&mut self, net: &HealingNetwork, ctx: &DeletionContext) -> Vec<NodeId> {
        let dead_root = self.uf.find(ctx.deleted.index());
        let mut tagged: Vec<(usize, u64, NodeId)> = Vec::with_capacity(ctx.g_neighbors.len());
        for &u in &ctx.g_neighbors {
            let root = self.uf.find(u.index());
            if root != dead_root {
                tagged.push((root, net.initial_id(u), u));
            }
        }
        tagged.sort_unstable();
        let mut members: Vec<NodeId> = Vec::new();
        let mut last: Option<usize> = None;
        for (root, _, u) in tagged {
            if last != Some(root) {
                members.push(u);
                last = Some(root);
            }
        }
        members.extend_from_slice(&ctx.gprime_neighbors);
        members.sort_unstable();
        members.dedup();
        members
    }
}

impl Healer for OracleDash {
    fn name(&self) -> &'static str {
        "oracle-dash"
    }

    fn heal_into(
        &mut self,
        net: &mut HealingNetwork,
        ctx: &DeletionContext,
        out: &mut HealOutcome,
    ) {
        out.clear();
        out.rt_members = self.reconstruction_set(net, ctx);
        let ordered = rt::order_by_delta(net, &out.rt_members);
        rt::connect_binary_tree_into(net, &ordered, &mut out.edges_added);
        for &(a, b) in &out.edges_added {
            self.uf.union(a.index(), b.index());
        }
    }

    fn needs_id_propagation(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::{MaxNode, NeighborOfMax};
    use crate::dash::Dash;
    use crate::scenario::ScenarioEngine;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use selfheal_graph::generators::barabasi_albert;

    /// The headline property: oracle components and broadcast IDs induce
    /// identical healing decisions.
    #[test]
    fn oracle_dash_matches_dash_topology_exactly() {
        let n = 64;
        for seed in [1u64, 5, 9] {
            let g = barabasi_albert(n, 3, &mut StdRng::seed_from_u64(seed));
            let mut dash_net = HealingNetwork::new(g.clone(), seed);
            let mut oracle_net = HealingNetwork::new(g, seed);
            let mut dash = Dash;
            let mut oracle = OracleDash::new(n);
            // Same deterministic victim sequence on both.
            while let Some(v) = dash_net.graph().max_degree_node() {
                assert_eq!(oracle_net.graph().max_degree_node(), Some(v));
                let dctx = dash_net.delete_node(v).unwrap();
                let octx = oracle_net.delete_node(v).unwrap();
                let d_out = dash.heal(&mut dash_net, &dctx);
                let o_out = oracle.heal(&mut oracle_net, &octx);
                dash_net.propagate_min_id(&d_out.rt_members);
                // No propagation on the oracle side — that's the point.
                assert_eq!(
                    d_out.rt_members, o_out.rt_members,
                    "seed {seed}, victim {v}"
                );
                assert_eq!(
                    d_out.edges_added, o_out.edges_added,
                    "seed {seed}, victim {v}"
                );
            }
            assert_eq!(oracle_net.graph().live_node_count(), 0);
        }
    }

    #[test]
    fn oracle_dash_sends_zero_messages_via_engine() {
        let n = 48;
        let g = barabasi_albert(n, 3, &mut StdRng::seed_from_u64(2));
        let net = HealingNetwork::new(g, 2);
        let mut engine = ScenarioEngine::new(net, OracleDash::new(n), NeighborOfMax::new(2));
        let report = engine.run_to_empty();
        assert_eq!(report.total_messages, 0, "oracle must not broadcast");
        assert_eq!(report.max_traffic, 0);
        assert!(report.rounds == n as u64);
    }

    /// The opt-out must hold for every event kind: batch deletions route
    /// through `heal_batch_into`, which gates broadcasting on the same
    /// `needs_id_propagation` flag as the single-deletion arm.
    #[test]
    fn oracle_dash_sends_zero_messages_under_batches() {
        let n = 48;
        let g = barabasi_albert(n, 3, &mut StdRng::seed_from_u64(2));
        let net = HealingNetwork::new(g, 2);
        let mut engine = ScenarioEngine::new(
            net,
            OracleDash::new(n),
            crate::scenario::DegreeBatches::new(4),
        );
        let report = engine.run_to_empty();
        assert_eq!(report.total_messages, 0, "oracle must not broadcast");
        assert_eq!(report.max_traffic, 0);
        assert_eq!(report.deletions, n as u64);
    }

    #[test]
    fn dash_engine_does_send_messages_for_contrast() {
        let n = 48;
        let g = barabasi_albert(n, 3, &mut StdRng::seed_from_u64(2));
        let net = HealingNetwork::new(g, 2);
        let mut engine = ScenarioEngine::new(net, Dash, NeighborOfMax::new(2));
        let report = engine.run_to_empty();
        assert!(report.total_messages > 0);
    }

    #[test]
    fn oracle_dash_keeps_all_dash_guarantees() {
        let n = 96;
        let g = barabasi_albert(n, 3, &mut StdRng::seed_from_u64(4));
        let net = HealingNetwork::new(g, 4);
        let mut engine = ScenarioEngine::new(net, OracleDash::new(n), MaxNode)
            .with_audit(crate::scenario::AuditLevel::Cheap);
        let report = engine.run_to_empty();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!((report.max_delta_ever as f64) <= 2.0 * (n as f64).log2());
    }
}

//! RingForgiving — cycle-plus-chords healing under a per-node budget
//! (after the ring-enhancement line of Hayashi et al., *Resource
//! Allocation for Self-Healing Networks*, adapted to this workspace's
//! reconstruction-set model).
//!
//! Where DASH rebuilds a binary *tree* over the reconstruction set,
//! RingForgiving rebuilds a **ring**: the victim's representatives are
//! wired into a single cycle (in initial-ID order), then `budget` rounds
//! of halving-stride chords are laid across it, shortening the ring the
//! way the resource-allocation papers add redundancy under a per-node
//! budget:
//!
//! - round `r` uses stride `s = ⌊m / 2^r⌋` and pairs members `j` and
//!   `j + s` for `j = 0, 2s, 4s, …` — the pairs are disjoint, so **each
//!   member takes at most one chord per round**;
//! - rounds stop when the stride falls below 2 (a chord of stride 1
//!   would duplicate a cycle edge).
//!
//! Each survivor therefore gains at most `2 + budget` edges per adjacent
//! deletion (two cycle edges plus one chord per round) — the family's
//! budget bound, enforced per event by
//! [`FamilyAuditor`](crate::invariants::FamilyAuditor) and proved
//! exhaustively for `n ≤ 6` by `run-experiments verify`. The cycle keeps
//! every fragment of the victim's neighborhood connected (the same
//! one-representative-per-component argument as DASH), but `G'`
//! deliberately stops being a forest — like
//! [`GraphHeal`](crate::naive::GraphHeal), the strategy trades Lemma 1
//! for redundancy, so [`Healer::preserves_forest`] is `false` and the
//! Theorem 1 weight/δ bounds are waived in its audit profile.
//!
//! RingForgiving is centralized-only: there is no message-passing
//! protocol for it, and
//! [`HealerSpec::heal_mode`](crate::spec::HealerSpec::heal_mode) reports
//! a documented [`FabricUnsupported`](crate::spec::SpecError) for every
//! sim backend.

use crate::rt;
use crate::state::{DeletionContext, HealingNetwork};
use crate::strategy::{HealOutcome, Healer};

/// The RingForgiving healing strategy: a cycle over the reconstruction
/// set plus up to `budget` halving-stride chords per member.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RingForgiving {
    /// Chord rounds per heal — the per-node resource budget: each member
    /// gains at most `2 + budget` edges per adjacent deletion.
    pub budget: usize,
}

impl RingForgiving {
    /// The registry's canonical budget.
    pub const DEFAULT_BUDGET: usize = 2;
}

impl Default for RingForgiving {
    fn default() -> Self {
        RingForgiving {
            budget: Self::DEFAULT_BUDGET,
        }
    }
}

/// The index pairs a heal over `m` members wires: the cycle (single edge
/// for `m = 2`, nothing for `m < 2`) followed by each chord round's
/// disjoint pairs. Exposed so tests can cross-check a heal against this
/// naive reference plan.
pub fn ring_plan(m: usize, budget: usize) -> Vec<(usize, usize)> {
    let mut plan = Vec::new();
    if m == 2 {
        plan.push((0, 1));
        return plan;
    }
    if m < 2 {
        return plan;
    }
    for i in 0..m {
        plan.push((i, (i + 1) % m));
    }
    for r in 1..=budget {
        let s = m >> r;
        if s < 2 {
            break;
        }
        let mut j = 0;
        while j + s < m {
            plan.push((j, j + s));
            j += 2 * s;
        }
    }
    plan
}

impl Healer for RingForgiving {
    fn name(&self) -> &'static str {
        "ring"
    }

    fn heal_into(
        &mut self,
        net: &mut HealingNetwork,
        ctx: &DeletionContext,
        out: &mut HealOutcome,
    ) {
        out.clear();
        let mut scratch = net.take_heal_scratch();
        rt::reconstruction_set_into(net, ctx, &mut scratch.tagged, &mut out.rt_members);
        scratch.ordered.clear();
        scratch.ordered.extend_from_slice(&out.rt_members);
        scratch.ordered.sort_unstable_by_key(|&v| net.initial_id(v));
        for (i, j) in ring_plan(scratch.ordered.len(), self.budget) {
            let (a, b) = (scratch.ordered[i], scratch.ordered[j]);
            let (_, new_gp) = net
                .add_heal_edge(a, b)
                // panic-ok: the plan only pairs reconstruction-set
                // members, all of which survived the deletion.
                .expect("ring endpoints must be alive");
            if new_gp {
                out.edges_added.push((a, b));
            }
        }
        net.put_heal_scratch(scratch);
    }

    /// The cycle is a cycle: `G'` is deliberately not a forest.
    fn preserves_forest(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal_graph::components::is_connected;
    use selfheal_graph::generators::{path_graph, star_graph};
    use selfheal_graph::NodeId;

    #[test]
    fn ring_plan_is_cycle_plus_disjoint_chord_rounds() {
        assert!(ring_plan(0, 3).is_empty());
        assert!(ring_plan(1, 3).is_empty());
        assert_eq!(ring_plan(2, 3), vec![(0, 1)]);
        // m = 8, budget = 2: cycle of 8, stride-4 pairs (0,4), stride-2
        // pairs (0,2), (4,6).
        let plan = ring_plan(8, 2);
        assert_eq!(plan.len(), 8 + 1 + 2);
        assert!(plan.contains(&(0, 4)));
        assert!(plan.contains(&(0, 2)) && plan.contains(&(4, 6)));
        // Per-member incidence per chord round is at most 1.
        for r in 1..=2usize {
            let s = 8 >> r;
            let mut seen = [0u32; 8];
            for &(i, j) in plan.iter().filter(|&&(i, j)| j > i && j - i == s) {
                seen[i] += 1;
                seen[j] += 1;
            }
            assert!(seen.iter().all(|&c| c <= 1), "round {r} doubles a member");
        }
    }

    #[test]
    fn budget_caps_per_member_degree_gain() {
        for budget in 0..4usize {
            let mut net = HealingNetwork::new(star_graph(12), 9);
            let before: Vec<usize> = (0..12).map(|v| net.graph().degree(NodeId(v))).collect();
            let ctx = net.delete_node(NodeId(0)).unwrap();
            let outcome = RingForgiving { budget }.heal(&mut net, &ctx);
            for &m in &outcome.rt_members {
                let gained = net.graph().degree(m) + 1 - before[m.index()];
                assert!(
                    gained <= 2 + budget,
                    "budget {budget}: member {m} gained {gained}"
                );
            }
            assert!(is_connected(net.graph()));
        }
    }

    #[test]
    fn two_member_heal_adds_a_single_edge() {
        let mut net = HealingNetwork::new(path_graph(3), 4);
        let ctx = net.delete_node(NodeId(1)).unwrap();
        let outcome = RingForgiving::default().heal(&mut net, &ctx);
        assert_eq!(outcome.rt_members.len(), 2);
        assert_eq!(outcome.edges_added.len(), 1);
        assert!(is_connected(net.graph()));
    }

    #[test]
    fn full_kill_sweep_stays_connected() {
        let mut net = HealingNetwork::new(star_graph(10), 6);
        let mut healer = RingForgiving::default();
        for v in 0..10u32 {
            let ctx = net.delete_node(NodeId(v)).unwrap();
            let outcome = healer.heal(&mut net, &ctx);
            net.propagate_min_id(&outcome.rt_members);
            assert!(is_connected(net.graph()), "disconnected after {v}");
        }
    }
}

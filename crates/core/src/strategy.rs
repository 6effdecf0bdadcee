//! The healing-strategy interface.

use crate::state::{DeletionContext, HealingNetwork};
use selfheal_graph::NodeId;

/// What a healing strategy did in one round.
#[derive(Clone, Debug, Default)]
pub struct HealOutcome {
    /// The nodes the strategy chose to reconnect (the reconstruction set).
    /// ID propagation is seeded from these.
    pub rt_members: Vec<NodeId>,
    /// Edges newly added to the healing graph `G'` this round.
    pub edges_added: Vec<(NodeId, NodeId)>,
    /// The surrogate node, when the strategy surrogated (SDASH only).
    pub surrogate: Option<NodeId>,
}

impl HealOutcome {
    /// Reset to the empty outcome, keeping the vectors' capacity — the
    /// engine reuses one outcome across rounds via
    /// [`Healer::heal_into`].
    pub fn clear(&mut self) {
        self.rt_members.clear();
        self.edges_added.clear();
        self.surrogate = None;
    }
}

/// A locality-aware healing strategy.
///
/// The engine calls [`Healer::heal_into`] immediately after each deletion
/// with the [`DeletionContext`]; the strategy may add edges **only among
/// the former neighbors of the deleted node** (the locality contract of
/// the paper's model — verified by the engine's audit mode).
///
/// `Send` is a supertrait so boxed healers (and the engines holding
/// them) can migrate across the serving layer's worker threads; every
/// strategy is plain owned data, so the bound costs nothing.
pub trait Healer: Send {
    /// Short stable name used in tables and benchmarks.
    fn name(&self) -> &'static str;

    /// React to a deletion by adding edges via
    /// [`HealingNetwork::add_heal_edge`], writing what was done into a
    /// caller-owned outcome (cleared first). Steady-state heal loops
    /// reuse the outcome's buffers; the allocation-free strategies
    /// (DASH, SDASH, ForgivingTree, RingForgiving) work entirely on
    /// reused buffers.
    fn heal_into(&mut self, net: &mut HealingNetwork, ctx: &DeletionContext, out: &mut HealOutcome);

    /// [`Healer::heal_into`] into a fresh outcome.
    fn heal(&mut self, net: &mut HealingNetwork, ctx: &DeletionContext) -> HealOutcome {
        let mut out = HealOutcome::default();
        self.heal_into(net, ctx, &mut out);
        out
    }

    /// Whether this strategy guarantees the healing graph `G'` remains a
    /// forest (Lemma 1 holds for DASH/SDASH and the component-aware
    /// naive strategies, but not for GraphHeal).
    fn preserves_forest(&self) -> bool {
        true
    }

    /// Whether the engine should broadcast minimum component IDs after
    /// each heal (Algorithm 1, step 5). Strategies with their own
    /// component oracle (see `crate::oracle`) opt out.
    fn needs_id_propagation(&self) -> bool {
        true
    }
}

impl<H: Healer + ?Sized> Healer for Box<H> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn heal_into(
        &mut self,
        net: &mut HealingNetwork,
        ctx: &DeletionContext,
        out: &mut HealOutcome,
    ) {
        (**self).heal_into(net, ctx, out)
    }

    fn preserves_forest(&self) -> bool {
        (**self).preserves_forest()
    }

    fn needs_id_propagation(&self) -> bool {
        (**self).needs_id_propagation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nop;
    impl Healer for Nop {
        fn name(&self) -> &'static str {
            "nop"
        }
        fn heal_into(
            &mut self,
            _: &mut HealingNetwork,
            _: &DeletionContext,
            out: &mut HealOutcome,
        ) {
            out.clear();
        }
    }

    #[test]
    fn default_outcome_is_empty() {
        let o = HealOutcome::default();
        assert!(o.rt_members.is_empty());
        assert!(o.edges_added.is_empty());
        assert!(o.surrogate.is_none());
        assert!(Nop.preserves_forest());
        assert_eq!(Nop.name(), "nop");
    }
}

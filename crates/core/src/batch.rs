//! Simultaneous (batch) deletions — footnote 1 of the paper.
//!
//! The paper's exposition assumes one deletion per round but notes that
//! "DASH can easily handle the situation where any number of nodes are
//! removed, so long as the neighbor-of-neighbor graph remains connected".
//! The operational meaning of that condition: no two *adjacent* nodes die
//! at once (an **independent** victim set). Then every survivor adjacent
//! to a victim still knows, via NoN information, all of that victim's
//! other neighbors, and the per-victim reconstruction trees can be built
//! exactly as in the sequential algorithm.
//!
//! [`delete_independent_batch`] performs the simultaneous deletion
//! (rejecting dependent sets), and [`heal_batch_into`] runs the healer on
//! each victim's context in deterministic order. Because the victims are
//! pairwise non-adjacent, the contexts captured at deletion time are
//! exactly what each victim's neighbors would have observed under
//! simultaneous failure.

use crate::state::{DeletionContext, HealingNetwork, PropagationReport};
use crate::strategy::{HealOutcome, Healer};
use selfheal_graph::{GraphError, NodeId};
use std::fmt;

/// Errors from batch deletion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchError {
    /// Two victims are adjacent: NoN knowledge would be insufficient.
    NotIndependent(NodeId, NodeId),
    /// A victim id is repeated in the batch.
    Duplicate(NodeId),
    /// Underlying graph error (dead or out-of-range victim).
    Graph(GraphError),
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::NotIndependent(u, v) => {
                write!(
                    f,
                    "victims {u} and {v} are adjacent; batch must be independent"
                )
            }
            BatchError::Duplicate(v) => write!(f, "victim {v} appears twice in the batch"),
            BatchError::Graph(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BatchError {}

impl From<GraphError> for BatchError {
    fn from(e: GraphError) -> Self {
        BatchError::Graph(e)
    }
}

/// Delete an independent set of victims simultaneously.
///
/// Returns one [`DeletionContext`] per victim (in input order). Because
/// the set is independent, the neighbor lists captured per victim are
/// identical whether the deletions are applied one by one or atomically.
///
/// # Errors
/// Rejects batches with dead, duplicate or pairwise-adjacent victims
/// (checked *before* any mutation — the batch is all-or-nothing).
pub fn delete_independent_batch(
    net: &mut HealingNetwork,
    victims: &[NodeId],
) -> Result<Vec<DeletionContext>, BatchError> {
    // Validate first: all alive, pairwise distinct and non-adjacent.
    for (i, &v) in victims.iter().enumerate() {
        net.graph().check_alive(v)?;
        for &u in &victims[..i] {
            if u == v {
                return Err(BatchError::Duplicate(v));
            }
            if net.graph().has_edge(u, v) {
                return Err(BatchError::NotIndependent(u, v));
            }
        }
    }
    let mut contexts = Vec::new();
    delete_validated_batch_into(net, victims, &mut contexts);
    Ok(contexts)
}

/// Delete a batch the caller has already proven alive, distinct and
/// pairwise non-adjacent — [`delete_independent_batch`] after its
/// validation pass, and the scenario engine after sanitizing (which
/// establishes exactly the same property without a second O(k²) check).
///
/// Fills `contexts[..victims.len()]` through
/// [`HealingNetwork::delete_node_into`], growing `contexts` only when it
/// is shorter than the batch; entries past the batch are left as they
/// were, so a reused vector keeps every context's neighbor buffers.
pub(crate) fn delete_validated_batch_into(
    net: &mut HealingNetwork,
    victims: &[NodeId],
    contexts: &mut Vec<DeletionContext>,
) {
    if contexts.len() < victims.len() {
        contexts.resize_with(victims.len(), DeletionContext::default);
    }
    for (&v, ctx) in victims.iter().zip(contexts.iter_mut()) {
        net.delete_node_into(v, ctx)
            // panic-ok: crate-internal helper whose one contract (documented
            // above) is that every victim is live and distinct.
            .expect("caller guarantees live victims");
    }
}

/// Heal after a batch deletion: run the healer on each context in victim
/// order, then broadcast IDs once per reconstruction set — unless the
/// healer opts out of ID propagation (oracle strategies), exactly as the
/// single-deletion path does. Returns the batch's combined broadcast
/// accounting.
///
/// Victim `i`'s outcome is written to `outcomes[i]` through
/// [`Healer::heal_into`]; `outcomes` grows only when it is shorter than
/// `contexts`, and entries past `contexts.len()` are left as they were.
/// The scenario engine calls this with outcomes it keeps across events,
/// so a steady-state batch allocates nothing.
///
/// Per-victim broadcasts belong to one healing round, so their accounting
/// folds via [`PropagationReport::merge`] (changed/messages add, latency
/// takes the max).
///
/// Broadcasts take the restricted fast path
/// ([`HealingNetwork::propagate_min_id_uniform`]): each heal connects its
/// reconstruction set before its broadcast seeds from exactly those
/// members, so every `G'` component is ID-uniform when each broadcast
/// starts and the fast path is exact.
pub fn heal_batch_into<H: Healer + ?Sized>(
    net: &mut HealingNetwork,
    healer: &mut H,
    contexts: &[DeletionContext],
    outcomes: &mut Vec<HealOutcome>,
) -> PropagationReport {
    if outcomes.len() < contexts.len() {
        outcomes.resize_with(contexts.len(), HealOutcome::default);
    }
    let mut propagation = PropagationReport::default();
    let broadcast = healer.needs_id_propagation();
    for (ctx, outcome) in contexts.iter().zip(outcomes.iter_mut()) {
        healer.heal_into(net, ctx, outcome);
        if broadcast {
            propagation.merge(net.propagate_min_id_uniform(&outcome.rt_members));
        }
    }
    propagation
}

/// Greedily pick up to `k` independent victims from the live graph using
/// the given ranking (highest first). Utility for batch adversaries.
pub fn independent_victims<F: FnMut(NodeId) -> i64>(
    net: &HealingNetwork,
    k: usize,
    mut rank: F,
) -> Vec<NodeId> {
    let g = net.graph();
    let mut candidates: Vec<NodeId> = g.live_nodes().collect();
    candidates.sort_by_key(|&v| (std::cmp::Reverse(rank(v)), v));
    let mut picked: Vec<NodeId> = Vec::with_capacity(k);
    for v in candidates {
        if picked.len() == k {
            break;
        }
        if picked.iter().all(|&u| !g.has_edge(u, v)) {
            picked.push(v);
        }
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dash::Dash;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use selfheal_graph::components::is_connected;
    use selfheal_graph::forest::is_forest;
    use selfheal_graph::generators::{barabasi_albert, cycle_graph, path_graph};

    #[test]
    fn rejects_adjacent_victims() {
        let mut net = HealingNetwork::new(path_graph(4), 1);
        let err = delete_independent_batch(&mut net, &[NodeId(1), NodeId(2)]).unwrap_err();
        assert_eq!(err, BatchError::NotIndependent(NodeId(1), NodeId(2)));
        // All-or-nothing: nothing was deleted.
        assert_eq!(net.graph().live_node_count(), 4);
    }

    #[test]
    fn rejects_duplicates_and_dead() {
        let mut net = HealingNetwork::new(path_graph(5), 1);
        assert_eq!(
            delete_independent_batch(&mut net, &[NodeId(0), NodeId(0)]).unwrap_err(),
            BatchError::Duplicate(NodeId(0))
        );
        net.delete_node(NodeId(4)).unwrap();
        assert!(matches!(
            delete_independent_batch(&mut net, &[NodeId(4)]).unwrap_err(),
            BatchError::Graph(_)
        ));
    }

    #[test]
    fn batch_deletion_preserves_connectivity_with_dash() {
        // Delete alternating nodes of a cycle: a maximal independent set.
        let mut net = HealingNetwork::new(cycle_graph(10), 2);
        let victims: Vec<NodeId> = (0..10).step_by(2).map(NodeId).collect();
        let contexts = delete_independent_batch(&mut net, &victims).unwrap();
        assert_eq!(contexts.len(), 5);
        let mut dash = Dash;
        heal_batch_into(&mut net, &mut dash, &contexts, &mut Vec::new());
        assert!(is_connected(net.graph()));
        assert!(is_forest(net.healing_graph()));
        assert_eq!(net.graph().live_node_count(), 5);
    }

    #[test]
    fn repeated_batches_on_ba_graph_hold_invariants() {
        let n = 60;
        let g = barabasi_albert(n, 3, &mut StdRng::seed_from_u64(7));
        let mut net = HealingNetwork::new(g, 7);
        let mut dash = Dash;
        while net.graph().live_node_count() > 0 {
            let victims = independent_victims(&net, 4, |v| net.graph().degree(v) as i64);
            if victims.is_empty() {
                break;
            }
            let contexts = delete_independent_batch(&mut net, &victims).unwrap();
            heal_batch_into(&mut net, &mut dash, &contexts, &mut Vec::new());
            assert!(is_connected(net.graph()), "disconnected mid-batch-sweep");
            assert!(is_forest(net.healing_graph()));
        }
        assert_eq!(net.graph().live_node_count(), 0);
        // Degree bound still holds empirically under batching.
        // (max_delta_alive is 0 on the empty graph; checked during sweep
        // by the connectivity asserts plus the bound below on a fresh run.)
    }

    #[test]
    fn batch_degree_increase_stays_bounded() {
        let n = 96;
        let g = barabasi_albert(n, 3, &mut StdRng::seed_from_u64(9));
        let mut net = HealingNetwork::new(g, 9);
        let mut dash = Dash;
        let bound = 2.0 * (n as f64).log2();
        loop {
            let victims = independent_victims(&net, 3, |v| net.graph().degree(v) as i64);
            if victims.is_empty() {
                break;
            }
            let contexts = delete_independent_batch(&mut net, &victims).unwrap();
            heal_batch_into(&mut net, &mut dash, &contexts, &mut Vec::new());
            let max = net.max_delta_alive();
            assert!((max as f64) <= bound, "batch sweep: {max} > {bound}");
        }
    }

    #[test]
    fn independent_victims_respect_k_and_independence() {
        let net = HealingNetwork::new(cycle_graph(8), 3);
        let picked = independent_victims(&net, 3, |v| v.0 as i64);
        assert_eq!(picked.len(), 3);
        for (i, &u) in picked.iter().enumerate() {
            for &w in &picked[..i] {
                assert!(!net.graph().has_edge(u, w));
            }
        }
        // Ranking by id prefers high ids first: 7, then 5, then 3.
        assert_eq!(picked, vec![NodeId(7), NodeId(5), NodeId(3)]);
    }

    #[test]
    fn empty_batch_is_fine() {
        let mut net = HealingNetwork::new(path_graph(3), 1);
        let contexts = delete_independent_batch(&mut net, &[]).unwrap();
        assert!(contexts.is_empty());
        let mut outcomes = Vec::new();
        let propagation = heal_batch_into(&mut net, &mut Dash, &contexts, &mut outcomes);
        assert!(outcomes.is_empty());
        assert_eq!(propagation, PropagationReport::default());
    }
}

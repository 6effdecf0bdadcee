//! Shared trial machinery: run one (graph, healer, attack) kill-sweep and
//! collect the statistics every figure draws from; fan trials out over
//! threads.

use crate::config::{trial_seed, BA_ATTACHMENT};
use rand::rngs::StdRng;
use rand::SeedableRng;
use selfheal_core::scenario::ScenarioEngine;
use selfheal_core::spec::{AdversarySpec, HealerSpec};
use selfheal_core::state::HealingNetwork;
use selfheal_graph::generators::barabasi_albert;
use selfheal_graph::NodeId;

/// Statistics extracted from one full kill-sweep.
#[derive(Clone, Copy, Debug, Default)]
pub struct TrialStats {
    /// Initial graph size.
    pub n: usize,
    /// Rounds executed (== n for run-to-empty).
    pub rounds: u64,
    /// Maximum degree increase ever observed on any node.
    pub max_delta: i64,
    /// Maximum ID changes suffered by one node.
    pub max_id_changes: u32,
    /// Maximum ID-maintenance messages *sent* by one node (Fig. 9b).
    pub max_msgs_sent: u64,
    /// Maximum per-node traffic (sent + received; Theorem 1's bound).
    pub max_traffic: u64,
    /// Total ID-maintenance messages.
    pub total_messages: u64,
    /// Total healing edges added.
    pub total_edges: u64,
    /// Mean per-round ID-broadcast latency (Lemma 9's amortized figure).
    pub amortized_latency: f64,
    /// Maximum single-round broadcast latency.
    pub max_latency: u64,
    /// Maximum initial degree of the graph (enters the message bound).
    pub max_initial_degree: usize,
}

/// Run one complete kill-sweep on a fresh BA graph.
pub fn run_trial(n: usize, healer: HealerSpec, attack: AdversarySpec, seed: u64) -> TrialStats {
    let g = barabasi_albert(n, BA_ATTACHMENT, &mut StdRng::seed_from_u64(seed));
    let max_initial_degree = selfheal_graph::properties::degree_stats(&g)
        .map(|s| s.max)
        .unwrap_or(0);
    let net = HealingNetwork::new(g, seed);
    let mut engine = ScenarioEngine::new(net, healer.build(), attack.build(seed ^ 0xA5A5));
    let report = engine.run_to_empty();
    let net = &engine.net;
    let mut max_msgs_sent = 0u64;
    for i in 0..net.graph().node_bound() {
        max_msgs_sent = max_msgs_sent.max(net.messages_sent(NodeId::from_index(i)));
    }
    TrialStats {
        n,
        rounds: report.rounds,
        max_delta: report.max_delta_ever,
        max_id_changes: report.max_id_changes,
        max_msgs_sent,
        max_traffic: report.max_traffic,
        total_messages: report.total_messages,
        total_edges: report.total_edges_added,
        amortized_latency: report.amortized_latency(),
        max_latency: report.max_propagation_latency,
        max_initial_degree,
    }
}

/// Run `trials` independent kill-sweeps of the same configuration in
/// parallel and return the per-trial stats in trial order.
pub fn run_trials(
    n: usize,
    healer: HealerSpec,
    attack: AdversarySpec,
    base_seed: u64,
    trials: usize,
    threads: usize,
) -> Vec<TrialStats> {
    let threads = threads.max(1).min(trials.max(1));
    let mut pairs = selfheal_graph::parallel::parallel_fold(
        trials,
        threads,
        Vec::new,
        |mut acc, t| {
            acc.push((t, run_trial(n, healer, attack, trial_seed(base_seed, n, t))));
            acc
        },
        |mut a, mut b| {
            a.append(&mut b);
            a
        },
    );
    pairs.sort_by_key(|&(t, _)| t);
    pairs.into_iter().map(|(_, s)| s).collect()
}

/// Extract one field of a trial batch as `f64`s (for aggregation).
pub fn extract<F: Fn(&TrialStats) -> f64>(stats: &[TrialStats], f: F) -> Vec<f64> {
    stats.iter().map(f).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_runs_to_empty() {
        let s = run_trial(48, HealerSpec::Dash, AdversarySpec::NeighborOfMax, 7);
        assert_eq!(s.rounds, 48);
        assert!(s.max_delta >= 1);
        assert!(s.total_edges > 0);
        assert!(s.max_traffic >= s.max_msgs_sent);
        assert!(s.max_initial_degree >= BA_ATTACHMENT);
    }

    #[test]
    fn trials_are_reproducible() {
        let a = run_trial(32, HealerSpec::Sdash, AdversarySpec::MaxNode, 3);
        let b = run_trial(32, HealerSpec::Sdash, AdversarySpec::MaxNode, 3);
        assert_eq!(a.max_delta, b.max_delta);
        assert_eq!(a.total_messages, b.total_messages);
    }

    #[test]
    fn parallel_trials_match_serial() {
        let par = run_trials(32, HealerSpec::Dash, AdversarySpec::NeighborOfMax, 1, 4, 4);
        let ser = run_trials(32, HealerSpec::Dash, AdversarySpec::NeighborOfMax, 1, 4, 1);
        assert_eq!(par.len(), 4);
        for (p, s) in par.iter().zip(&ser) {
            assert_eq!(p.max_delta, s.max_delta);
            assert_eq!(p.total_messages, s.total_messages);
        }
    }

    #[test]
    fn extract_pulls_fields() {
        let stats = run_trials(24, HealerSpec::Dash, AdversarySpec::MaxNode, 5, 2, 2);
        let deltas = extract(&stats, |s| s.max_delta as f64);
        assert_eq!(deltas.len(), 2);
        assert!(deltas.iter().all(|&d| d >= 0.0));
    }
}

//! Fig. 10 — stretch vs. graph size.
//!
//! Paper setup: MaxNode attack (the paper found it most effective at
//! inflating stretch), BA graphs, healing with each strategy; stretch is
//! the max over surviving pairs of healed/original distance ratio.
//!
//! Expected shape: the naive degree-greedy strategies (GraphHeal,
//! BinaryTreeHeal) keep stretch low *by paying huge degrees*; DASH's
//! stretch is noticeably higher; SDASH keeps stretch close to the naive
//! strategies while retaining DASH-like degrees.
//!
//! Deviation from the paper: stretch is sampled every `n/16` deletions
//! (plus the final state) instead of after every deletion — an APSP per
//! deletion would be `O(n² m)` per trial. Sampling only *underestimates*
//! the max, uniformly across strategies, so the ordinal comparison the
//! figure makes is preserved.

use crate::config::{trial_seed, Scale, BA_ATTACHMENT};
use rand::rngs::StdRng;
use rand::SeedableRng;
use selfheal_core::scenario::ScenarioEngine;
use selfheal_core::spec::{AdversarySpec, HealerSpec};
use selfheal_core::state::HealingNetwork;
use selfheal_graph::generators::barabasi_albert;
use selfheal_metrics::{Figure, Series, SeriesPoint, StretchBaseline};

/// Max stretch observed over one sampled kill-sweep.
pub fn run_stretch_trial(n: usize, healer: HealerSpec, seed: u64) -> f64 {
    let g = barabasi_albert(n, BA_ATTACHMENT, &mut StdRng::seed_from_u64(seed));
    let baseline = StretchBaseline::new(&g, 1);
    let net = HealingNetwork::new(g, seed);
    let mut engine = ScenarioEngine::new(net, healer.build(), AdversarySpec::MaxNode.build(seed));
    let sample_every = (n / 16).max(1) as u64;
    let mut max_stretch = 1.0f64;
    let mut rounds = 0u64;
    while let Some(_rec) = engine.step() {
        rounds += 1;
        if rounds.is_multiple_of(sample_every) && engine.net.graph().live_node_count() >= 2 {
            if let Some(r) = baseline.stretch_of(engine.net.graph(), 1) {
                max_stretch = max_stretch.max(r.stretch);
            }
        }
    }
    max_stretch
}

/// Run the Fig. 10 experiment.
pub fn run(scale: Scale, base_seed: u64, threads: usize) -> Figure {
    let mut fig = Figure::new(
        "Fig 10: stretch (MaxNode attack, BA graphs, sampled every n/16 deletions)",
        "n",
        "max stretch",
    );
    let trials = scale.trials();
    for healer in HealerSpec::figure_set() {
        let mut series = Series::new(healer.name());
        for &n in &scale.stretch_sizes() {
            let workers = threads.max(1).min(trials.max(1));
            let mut pairs = selfheal_graph::parallel::parallel_fold(
                trials,
                workers,
                Vec::new,
                |mut acc, t| {
                    acc.push((t, run_stretch_trial(n, healer, trial_seed(base_seed, n, t))));
                    acc
                },
                |mut a, mut b| {
                    a.append(&mut b);
                    a
                },
            );
            pairs.sort_by_key(|&(t, _)| t);
            let values: Vec<f64> = pairs.into_iter().map(|(_, s)| s).collect();
            series.push(SeriesPoint::from_trials(n as f64, &values));
        }
        fig.push(series);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stretch_trial_is_finite_and_at_least_one() {
        let s = run_stretch_trial(48, HealerSpec::Dash, 3);
        assert!(s.is_finite());
        assert!(s >= 1.0);
    }

    #[test]
    fn quick_figure_shape() {
        let fig = run(Scale::Quick, 5, 4);
        assert_eq!(fig.series.len(), 5);
        for s in &fig.series {
            assert_eq!(s.points.len(), Scale::Quick.stretch_sizes().len());
            for p in &s.points {
                assert!(p.mean >= 1.0, "{}: stretch below 1", s.name);
                assert!(p.mean.is_finite(), "{}: infinite stretch", s.name);
            }
        }
    }
}

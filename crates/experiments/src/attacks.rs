//! E7 — attack-strategy comparison (Section 4.2's narrative).
//!
//! The paper asserts two things about its adversaries without showing a
//! figure: that `NeighborOfMax` "consistently resulted in higher degree
//! increase" than `MaxNode` (so Fig. 8 only reports NMS), and that
//! `MaxNode` "is most effective for the adversary when trying to maximize
//! stretch" (so Fig. 10 uses it). This experiment regenerates the
//! evidence behind both choices, and adds this reproduction's extension
//! adversaries (`Random`, `MinDegree`, `CutVertex`) for context.

use crate::config::{Scale, ATTACKS};
use crate::runner::{extract, run_trials};
use selfheal_core::spec::HealerSpec;
use selfheal_metrics::{Figure, Series, SeriesPoint};

/// Degree-increase comparison across all attacks, for a fixed healer.
pub fn run_degree(scale: Scale, healer: HealerSpec, base_seed: u64, threads: usize) -> Figure {
    let mut fig = Figure::new(
        format!(
            "E7: max degree increase per attack strategy (healer: {})",
            healer.name()
        ),
        "n",
        "max degree increase",
    );
    for attack in ATTACKS {
        let mut series = Series::new(attack.name());
        for &n in &scale.degree_sizes() {
            let stats = run_trials(n, healer, attack, base_seed, scale.trials(), threads);
            series.push(SeriesPoint::from_trials(
                n as f64,
                &extract(&stats, |s| s.max_delta as f64),
            ));
        }
        fig.push(series);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The justification for Fig. 8's attack choice: NMS hurts the naive
    /// strategies at least as much as MaxNode does (at the largest size,
    /// averaged over trials).
    #[test]
    fn nms_dominates_maxnode_for_naive_healers() {
        let fig = run_degree(Scale::Quick, HealerSpec::GraphHeal, 31, 4);
        let nms = fig.series_named("neighbor-of-max").unwrap();
        let max_node = fig.series_named("max-node").unwrap();
        let last = *Scale::Quick.degree_sizes().last().unwrap() as f64;
        assert!(
            nms.mean_at(last).unwrap() >= max_node.mean_at(last).unwrap(),
            "NMS {} should be >= MaxNode {}",
            nms.mean_at(last).unwrap(),
            max_node.mean_at(last).unwrap()
        );
    }

    #[test]
    fn all_attacks_produce_points() {
        let fig = run_degree(Scale::Quick, HealerSpec::Dash, 5, 4);
        assert_eq!(fig.series.len(), ATTACKS.len());
        for s in &fig.series {
            assert_eq!(s.points.len(), Scale::Quick.degree_sizes().len());
        }
    }

    /// DASH's bound is attack-independent.
    #[test]
    fn dash_bounded_under_every_attack() {
        let fig = run_degree(Scale::Quick, HealerSpec::Dash, 9, 4);
        for s in &fig.series {
            for p in &s.points {
                assert!(
                    p.max <= 2.0 * p.x.log2(),
                    "{} at n={}: {} exceeds bound",
                    s.name,
                    p.x,
                    p.max
                );
            }
        }
    }
}

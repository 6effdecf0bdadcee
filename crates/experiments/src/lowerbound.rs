//! Theorem 2 lower-bound experiment: LEVELATTACK on `(M+2)`-ary trees.
//!
//! For each M-degree-bounded healer, the adversary of Algorithm 2 must
//! force a degree increase of at least the tree depth `D = Θ(log n)` on
//! some node. The table reports observed maxima next to the floor `D` and
//! DASH's upper bound `2 log₂ n` — squeezing the implementation between
//! the paper's lower and upper bounds.

use crate::config::Scale;
use selfheal_core::levelattack::{run_level_attack, LevelAttackResult};
use selfheal_core::spec::HealerSpec;
use selfheal_metrics::Table;

/// Per-round degree bound `M` of each healer (net degree added to any
/// single node in one heal): used to size the `(M+2)`-ary tree.
/// SDASH is *not* M-bounded (surrogation is unbounded per round), which is
/// exactly why it evades the lower bound — it is included for contrast
/// with `m = 2`.
pub fn degree_bound_m(healer: HealerSpec) -> usize {
    match healer {
        // Binary-tree internal node: +3 edges, -1 lost to the victim.
        HealerSpec::Dash | HealerSpec::BinaryTreeHeal | HealerSpec::GraphHeal => 2,
        // Line interior node: +2 edges, -1 lost.
        HealerSpec::LineHeal => 1,
        // Not M-bounded; attacked with the DASH tree for comparison.
        HealerSpec::Sdash => 2,
        // Heir-rooted binary tree: same internal-node shape as DASH.
        HealerSpec::ForgivingTree => 2,
        // Two cycle edges plus one chord per budget round.
        HealerSpec::RingForgiving { budget } => 1 + budget,
        HealerSpec::NoHeal => 0,
    }
}

/// Run LEVELATTACK for every bounded healer at every depth.
pub fn run(scale: Scale, base_seed: u64) -> Vec<LevelAttackResult> {
    let healers = [
        HealerSpec::Dash,
        HealerSpec::Sdash,
        HealerSpec::BinaryTreeHeal,
        HealerSpec::LineHeal,
    ];
    let mut results = Vec::new();
    for healer in healers {
        let m = degree_bound_m(healer);
        for &depth in &scale.lowerbound_depths() {
            // Keep the biggest trees manageable: (M+2)^depth nodes.
            let n = selfheal_graph::generators::KaryTree::size_for(m + 2, depth);
            if n > 100_000 {
                continue;
            }
            results.push(run_level_attack(healer.build(), m, depth, base_seed));
        }
    }
    results
}

/// Render the results table.
pub fn render(results: &[LevelAttackResult]) -> String {
    let mut t = Table::new([
        "healer",
        "M",
        "depth D",
        "n",
        "rounds",
        "max dδ",
        "leaf dδ",
        "floor D",
        "2log2 n",
        "floor met",
    ]);
    for r in results {
        t.row([
            r.healer.to_string(),
            r.m.to_string(),
            r.depth.to_string(),
            r.n.to_string(),
            r.rounds.to_string(),
            r.max_delta_ever.to_string(),
            r.max_leaf_delta_ever.to_string(),
            r.depth.to_string(),
            format!("{:.1}", 2.0 * (r.n as f64).log2()),
            if r.meets_lower_bound() {
                "yes".into()
            } else {
                "no".into()
            },
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_healers_meet_the_floor() {
        let results = run(Scale::Quick, 77);
        assert!(!results.is_empty());
        for r in results.iter().filter(|r| r.healer != "sdash") {
            assert!(
                r.meets_lower_bound(),
                "{} at depth {} only reached {}",
                r.healer,
                r.depth,
                r.max_delta_ever
            );
        }
        let rendered = render(&results);
        assert!(rendered.contains("dash"));
    }

    #[test]
    fn dash_stays_within_its_upper_bound_under_levelattack() {
        let results = run(Scale::Quick, 3);
        for r in results.iter().filter(|r| r.healer == "dash") {
            let upper = 2.0 * (r.n as f64).log2();
            assert!(
                (r.max_delta_ever as f64) <= upper,
                "dash exceeded its bound: {} > {upper}",
                r.max_delta_ever
            );
        }
    }
}

//! Fig. 8 — maximum degree increase vs. graph size.
//!
//! Paper setup: Barabási–Albert graphs, NeighborOfMax attack (the paper
//! found it "consistently resulted in higher degree increase" than
//! MaxNode), delete until the graph is empty, average the maximum degree
//! increase over 30 random instances per size.
//!
//! Expected shape (from the paper's Fig. 8): DASH and SDASH grow like
//! `log n` and stay below `2 log₂ n`; GraphHeal and BinaryTreeHeal grow
//! much faster (polynomially), with GraphHeal worst.

use crate::config::Scale;
use crate::runner::{extract, run_trials};
use selfheal_core::spec::{AdversarySpec, HealerSpec};
use selfheal_metrics::{Figure, Series, SeriesPoint};

/// Run the Fig. 8 experiment.
pub fn run(scale: Scale, base_seed: u64, threads: usize) -> Figure {
    let mut fig = Figure::new(
        "Fig 8: maximum degree increase (NeighborOfMax attack, BA graphs)",
        "n",
        "max degree increase",
    );
    for healer in HealerSpec::figure_set() {
        let mut series = Series::new(healer.name());
        for &n in &scale.degree_sizes() {
            let stats = run_trials(
                n,
                healer,
                AdversarySpec::NeighborOfMax,
                base_seed,
                scale.trials(),
                threads,
            );
            series.push(SeriesPoint::from_trials(
                n as f64,
                &extract(&stats, |s| s.max_delta as f64),
            ));
        }
        fig.push(series);
    }
    // Reference curve: the proven DASH bound.
    let mut bound = Series::new("2*log2(n) bound");
    for &n in &scale.degree_sizes() {
        bound.push(SeriesPoint::from_trials(
            n as f64,
            &[2.0 * (n as f64).log2()],
        ));
    }
    fig.push(bound);
    fig
}

/// Render the figure as an ASCII table (rows = sizes, columns = healers).
pub fn render(fig: &Figure) -> String {
    crate::render::figure_table(fig)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_has_expected_shape() {
        let fig = run(Scale::Quick, 42, 4);
        assert_eq!(fig.series.len(), 6); // 5 healers + bound
        let dash = fig.series_named("dash").unwrap();
        let graph_heal = fig.series_named("graph-heal").unwrap();
        assert_eq!(dash.points.len(), Scale::Quick.degree_sizes().len());
        // The paper's headline: DASH beats the naive strategies.
        assert!(dash.dominated_by(graph_heal));
        // DASH respects its proven bound.
        let bound = fig.series_named("2*log2(n) bound").unwrap();
        assert!(dash.dominated_by(bound));
    }
}

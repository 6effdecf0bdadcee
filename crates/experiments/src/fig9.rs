//! Fig. 9 — component-ID maintenance costs vs. graph size.
//!
//! - **Fig. 9(a)**: maximum number of ID changes any node suffers. The
//!   record-breaking argument (Lemma 8) predicts < `2 ln n` w.h.p. for
//!   every healing strategy.
//! - **Fig. 9(b)**: maximum number of ID-maintenance messages any node
//!   sends. A node sends `deg(v)` messages per ID change, so strategies
//!   with higher degree increase pay proportionally more — DASH/SDASH
//!   should win, GraphHeal lose.

use crate::config::Scale;
use crate::runner::{extract, run_trials, TrialStats};
use selfheal_core::spec::{AdversarySpec, HealerSpec};
use selfheal_metrics::{Figure, Series, SeriesPoint};

fn run_metric(
    title: &str,
    y_label: &str,
    scale: Scale,
    base_seed: u64,
    threads: usize,
    metric: impl Fn(&TrialStats) -> f64,
) -> Figure {
    let mut fig = Figure::new(title, "n", y_label);
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
                &extract(&stats, &metric),
            ));
        }
        fig.push(series);
    }
    fig
}

/// Fig. 9(a): max ID changes per node.
pub fn run_id_changes(scale: Scale, base_seed: u64, threads: usize) -> Figure {
    let mut fig = run_metric(
        "Fig 9a: maximum ID changes per node (NeighborOfMax attack)",
        "max ID changes",
        scale,
        base_seed,
        threads,
        |s| s.max_id_changes as f64,
    );
    let mut bound = Series::new("2*ln(n) bound");
    for &n in &scale.degree_sizes() {
        bound.push(SeriesPoint::from_trials(n as f64, &[2.0 * (n as f64).ln()]));
    }
    fig.push(bound);
    fig
}

/// Fig. 9(b): max ID-maintenance messages sent per node.
pub fn run_messages(scale: Scale, base_seed: u64, threads: usize) -> Figure {
    run_metric(
        "Fig 9b: maximum messages sent per node for ID maintenance",
        "max messages sent",
        scale,
        base_seed,
        threads,
        |s| s.max_msgs_sent as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_changes_below_record_breaking_bound() {
        let fig = run_id_changes(Scale::Quick, 7, 4);
        let bound = fig.series_named("2*ln(n) bound").unwrap();
        for healer in HealerSpec::figure_set() {
            let s = fig.series_named(healer.name()).unwrap();
            assert!(
                s.dominated_by(bound),
                "{} exceeds 2 ln n: {:?}",
                healer.name(),
                s.points
            );
        }
    }

    #[test]
    fn dash_sends_fewer_messages_than_graph_heal() {
        let fig = run_messages(Scale::Quick, 11, 4);
        let dash = fig.series_named("dash").unwrap();
        let graph_heal = fig.series_named("graph-heal").unwrap();
        // High-degree strategies pay more per ID change (Fig. 9b's story).
        let last = *Scale::Quick.degree_sizes().last().unwrap() as f64;
        assert!(dash.mean_at(last).unwrap() <= graph_heal.mean_at(last).unwrap());
    }
}

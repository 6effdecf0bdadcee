//! `run-experiments verify` (E10): the exhaustive small-world prover and
//! the interleaving schedule explorer as one CI gate.
//!
//! Two halves, mirroring the two ways a distributed self-healing claim
//! can fail:
//!
//! 1. **Universe** — [`run_universe`] enumerates every connected graph
//!    up to isomorphism (n ≤ 6 by default, n ≤ 7 under `--full`), every
//!    deletion order, and representative batch partitions, for every
//!    registered healer, auditing each run against its theorem profile.
//!    Zero violations *proves* the audited bounds outright on that
//!    universe — no sampling, no seeds to get lucky with.
//! 2. **Schedules** — [`explore_events`] replays fixed batch scenarios
//!    under every DPOR equivalence class of notification delivery
//!    orders, asserting the distributed fabric reproduces the
//!    centralized engine byte for byte under each one.

use selfheal_core::exhaustive::{run_universe, UniverseConfig, UniverseReport, MAX_NODES};
use selfheal_core::explore::{explore_events, ExplorerConfig, ExplorerReport};
use selfheal_core::scenario::NetworkEvent;
use selfheal_core::spec::HealerSpec;
use selfheal_graph::generators::cycle_graph;
use selfheal_graph::NodeId;
use std::fmt::Write as _;

/// One explored schedule scenario, labeled for the report.
#[derive(Debug)]
pub struct Exploration {
    /// Human-readable scenario name.
    pub label: String,
    /// Explorer outcome (absent when the exploration itself errored).
    pub report: Result<ExplorerReport, String>,
}

/// Everything `verify` produced.
#[derive(Debug)]
pub struct VerifySummary {
    /// The universe ceiling that ran (6 quick, 7 full).
    pub max_n: usize,
    /// Universe outcome (absent when enumeration itself errored).
    pub universe: Result<UniverseReport, String>,
    /// Schedule explorations, one per scenario × healer.
    pub explorations: Vec<Exploration>,
}

impl VerifySummary {
    /// Every half ran and reported zero violations.
    pub fn clean(&self) -> bool {
        matches!(&self.universe, Ok(u) if u.is_clean())
            && self
                .explorations
                .iter()
                .all(|e| matches!(&e.report, Ok(r) if r.is_clean()))
    }
}

/// The explorer's fixture: a cycle with one three-victim batch, a single
/// deletion, a two-victim batch far enough away to stay independent, and
/// a join — every event kind, two reordering points, 12 schedule
/// classes.
fn two_batch_scenario() -> (selfheal_graph::Graph, Vec<NetworkEvent>) {
    let g = cycle_graph(16);
    let events = vec![
        NetworkEvent::DeleteBatch(vec![NodeId(0), NodeId(2), NodeId(4)]),
        NetworkEvent::Delete(NodeId(8)),
        NetworkEvent::DeleteBatch(vec![NodeId(11), NodeId(13)]),
        NetworkEvent::Join {
            neighbors: vec![NodeId(5), NodeId(6)],
        },
    ];
    (g, events)
}

/// Run both halves. `full` raises the universe ceiling from 6 to
/// [`MAX_NODES`]; `threads` fans the universe out (0 = auto).
pub fn run(full: bool, threads: usize, seed: u64) -> VerifySummary {
    let max_n = if full { MAX_NODES } else { 6 };
    let cfg = UniverseConfig {
        max_n,
        threads,
        seed,
        ..UniverseConfig::default()
    };
    let universe = run_universe(&cfg).map_err(|e| e.to_string());

    let (g, events) = two_batch_scenario();
    let explorations = [
        HealerSpec::Dash,
        HealerSpec::Sdash,
        HealerSpec::ForgivingTree,
    ]
    .into_iter()
    .map(|healer| Exploration {
        label: format!("cycle(16) two-batch / {}", healer.name()),
        report: explore_events(&g, healer, seed, &events, &ExplorerConfig::default())
            .map_err(|e| e.to_string()),
    })
    .collect();

    VerifySummary {
        max_n,
        universe,
        explorations,
    }
}

/// Render the verification block the CLI prints.
pub fn render(summary: &VerifySummary) -> String {
    let mut out = String::new();
    match &summary.universe {
        Ok(u) => {
            let _ = writeln!(
                out,
                "universe n <= {}: {} graphs x {} healers — {} order runs, {} batch runs",
                summary.max_n, u.graphs, u.healers, u.order_runs, u.batch_runs
            );
            let _ = writeln!(out, "  theorem violations: {}", u.findings.count());
            for v in u.findings.kept() {
                let _ = writeln!(out, "  VIOLATION: {v}");
            }
            if u.findings.truncated() {
                let _ = writeln!(out, "  (further findings truncated)");
            }
        }
        Err(e) => {
            let _ = writeln!(out, "universe: ERROR {e}");
        }
    }
    for exp in &summary.explorations {
        match &exp.report {
            Ok(r) => {
                let _ = writeln!(
                    out,
                    "explorer {}: {} interleavings -> {} classes ({} pruned, {:.2}%), {} checked",
                    exp.label,
                    r.interleavings,
                    r.classes,
                    r.pruned(),
                    100.0 * r.prune_ratio(),
                    r.checked
                );
                let _ = writeln!(out, "  parity violations: {}", r.findings.count());
                for v in r.findings.kept() {
                    let _ = writeln!(out, "  VIOLATION: {v}");
                }
            }
            Err(e) => {
                let _ = writeln!(out, "explorer {}: ERROR {e}", exp.label);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_tier_is_clean_and_renders() {
        // n <= 5 keeps the debug-profile unit test affordable; the CLI's
        // quick tier (n <= 6) runs release-built in `make
        // verify-exhaustive`.
        let cfg = UniverseConfig {
            max_n: 5,
            ..UniverseConfig::default()
        };
        let universe = run_universe(&cfg).map_err(|e| e.to_string());
        let (g, events) = two_batch_scenario();
        let summary = VerifySummary {
            max_n: 5,
            universe,
            explorations: vec![Exploration {
                label: "cycle(16) two-batch / dash".to_string(),
                report: explore_events(
                    &g,
                    HealerSpec::Dash,
                    2008,
                    &events,
                    &ExplorerConfig::default(),
                )
                .map_err(|e| e.to_string()),
            }],
        };
        assert!(summary.clean(), "{summary:#?}");
        let text = render(&summary);
        assert!(text.contains("universe n <= 5"), "{text}");
        assert!(text.contains("classes"), "{text}");
        assert!(text.contains("violations: 0"), "{text}");
    }
}

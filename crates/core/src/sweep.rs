//! The parallel sweep fleet: thousands of deterministically-seeded
//! scenarios fanned across worker threads, every run audited against
//! Theorem 1, aggregated into an order-independent report.
//!
//! The paper's guarantees are worst-case claims over *adversarial*
//! reconfiguration sequences; a handful of curated schedules cannot
//! probe that space. The fleet does: a [`SweepConfig`] wraps one
//! declarative [`ScenarioSpec`] template plus a seed range, and
//! [`run_sweep`] executes one independent scenario per seed — the
//! template re-seeded with [`run_seed`]`(base, index)` and executed by
//! [`ScenarioSpec::run_with`] (fresh generated graph, freshly
//! tagged-seeded event source, watched by a
//! [`TheoremAuditor`](crate::invariants::TheoremAuditor)) — distributing
//! runs over threads with [`parallel_fold`]'s worker-local accumulators
//! (no shared mutable state, results fan in over a channel).
//!
//! Determinism is load-bearing: every run derives everything from
//! `run_seed(base, index)`, and [`SweepAggregate`] is built from
//! commutative-associative pieces ([`Histogram`] bucket addition,
//! [`Extreme`] max-with-min-seed-tie-break, violation lists sorted at
//! finalization), so the aggregate is **byte-identical for any worker
//! count** — `tests/sweep.rs` pins that, and the worst seed of any
//! statistic can be replayed exactly with [`replay`].

use crate::scenario::{RecordLog, ScenarioReport};
use crate::spec::{
    AdversarySpec, AuditSpec, GraphSpec, HealerSpec, RunOptions, ScenarioSpec, SpecOutcome,
};
use selfheal_graph::parallel::parallel_fold;
use selfheal_graph::Graph;
use selfheal_metrics::{Extreme, Histogram};
use std::fmt::Write as _;

// The one definition of centralized-vs-fabric byte identity lives in the
// spec layer now; re-exported here because the parity test-suites and
// older callers address it as `sweep::parity_event` / `parity_final`.
pub use crate::spec::{parity_event, parity_final};

/// The structural adversary library the fleet sweeps by default (the
/// five event-level adversaries beyond the paper's originals). Each is a
/// curated instantiation of an [`AdversarySpec`] — see
/// [`SweepAdversary::spec`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepAdversary {
    /// Highest-degree articulation point each round.
    CutVertex,
    /// Current maximum-degree node each round.
    HighestDegree,
    /// Failures spreading along edges.
    Epidemic,
    /// Join bursts onto the hub, then hub kills.
    FlashCrowd,
    /// Coordinated rack-batch kills.
    RackPartition,
}

impl SweepAdversary {
    /// Every adversary, in sweep order.
    pub const ALL: [SweepAdversary; 5] = [
        SweepAdversary::CutVertex,
        SweepAdversary::HighestDegree,
        SweepAdversary::Epidemic,
        SweepAdversary::FlashCrowd,
        SweepAdversary::RackPartition,
    ];

    /// Stable display name (matches the underlying source's name).
    pub fn name(self) -> &'static str {
        self.spec(48).name()
    }

    /// Parse a display name (for the CLI).
    pub fn parse(name: &str) -> Option<SweepAdversary> {
        SweepAdversary::ALL.into_iter().find(|a| a.name() == name)
    }

    /// The declarative adversary this library entry curates, tuned for
    /// an `n`-node starting graph.
    pub fn spec(self, n: usize) -> AdversarySpec {
        match self {
            SweepAdversary::CutVertex => AdversarySpec::CutVertex,
            SweepAdversary::HighestDegree => AdversarySpec::MaxNode,
            SweepAdversary::Epidemic => AdversarySpec::EpidemicChurn { p: 0.25 },
            // A third of the network joins in bursts of 3 before the
            // drain starts — enough churn to matter, still terminating.
            SweepAdversary::FlashCrowd => AdversarySpec::FlashCrowd {
                joins: n / 3,
                burst: 3,
            },
            SweepAdversary::RackPartition => AdversarySpec::RackPartition { rack_size: 4 },
        }
    }
}

/// One sweep: `runs` seeded executions of one [`ScenarioSpec`] template.
///
/// `spec.seed` is the *base* seed; run `i` re-seeds the template with
/// [`run_seed`]`(spec.seed, i)`. The template's `audit` and `backend`
/// fields select theorem auditing and the fabric parity twin exactly as
/// they do for a single spec run.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// The scenario template every run instantiates.
    pub spec: ScenarioSpec,
    /// Number of independent seeded runs.
    pub runs: u64,
    /// Worker threads for the fleet.
    pub threads: usize,
}

impl SweepConfig {
    /// A sensible small configuration on BA(48, 3) (used by tests and
    /// `--quick`).
    pub fn new(adversary: SweepAdversary, healer: HealerSpec) -> Self {
        Self::sized(adversary, healer, 48)
    }

    /// The standard fleet template at an explicit graph size: BA(n, 3),
    /// theorem auditing on, centralized backend, run to exhaustion.
    pub fn sized(adversary: SweepAdversary, healer: HealerSpec, n: usize) -> Self {
        let mut spec = ScenarioSpec::new(
            GraphSpec::BarabasiAlbert { n, m: 3 },
            healer,
            adversary.spec(n),
            0x5EED,
        );
        spec.audit = AuditSpec::Theorems;
        SweepConfig::from_spec(spec)
    }

    /// Fan an arbitrary spec template out (32 runs, 1 thread; adjust the
    /// public fields).
    pub fn from_spec(spec: ScenarioSpec) -> Self {
        SweepConfig {
            spec,
            runs: 32,
            threads: 1,
        }
    }
}

/// Derive the seed of run `index` from the sweep's base seed
/// (SplitMix64-style golden-ratio mixing, matching the experiment
/// harness's per-trial derivation).
pub fn run_seed(base: u64, index: u64) -> u64 {
    base.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        ^ (index >> 7)
}

/// Everything one seeded run reports back to the fleet.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The run's derived seed (replays the run exactly).
    pub seed: u64,
    /// Final engine report.
    pub report: ScenarioReport,
    /// Half-life stretch vs the initial graph (×10, rounded up), `None`
    /// when fewer than two baseline nodes survived to the measurement.
    pub stretch_tenths: Option<u64>,
    /// Theorem/parity violations (empty on a clean run).
    pub violations: Vec<String>,
}

/// Execute run `index` of a sweep configuration.
pub fn run_one(cfg: &SweepConfig, index: u64) -> RunOutcome {
    let seed = run_seed(cfg.spec.seed, index);
    let (report, _log, stretch_tenths, violations) = execute(cfg, seed, false);
    RunOutcome {
        seed,
        report,
        stretch_tenths,
        violations,
    }
}

/// Replay one run by its derived seed (e.g. a worst-seed capture from a
/// [`SweepAggregate`]), returning the full per-event record log alongside
/// the report and violations — everything needed to debug a violation or
/// an outlier offline.
pub fn replay(cfg: &SweepConfig, seed: u64) -> (ScenarioReport, RecordLog, Vec<String>) {
    let (report, log, _stretch, violations) = execute(cfg, seed, true);
    (report, log, violations)
}

/// Shared body of [`run_one`] and [`replay`]: instantiate the template
/// for `seed` and hand it to the spec layer's executor. A spec that
/// fails validation degrades into a run whose violation list carries the
/// readable error (so a bad template surfaces in the aggregate instead
/// of panicking a worker thread).
fn execute(
    cfg: &SweepConfig,
    seed: u64,
    keep_log: bool,
) -> (ScenarioReport, RecordLog, Option<u64>, Vec<String>) {
    let opts = RunOptions {
        keep_log,
        measure_stretch: true,
    };
    match cfg.spec.clone().with_seed(seed).run_with(&opts) {
        Ok(SpecOutcome {
            mut report,
            log,
            stretch_tenths,
            mut violations,
            ..
        }) => {
            // The engine's audit findings join the parity findings so the
            // aggregate sees one stream.
            violations.append(&mut report.violations);
            (report, log.unwrap_or_default(), stretch_tenths, violations)
        }
        Err(e) => (
            ScenarioReport::default(),
            RecordLog::default(),
            None,
            vec![format!("spec: {e}")],
        ),
    }
}

/// Order-independent aggregate of a whole sweep.
///
/// Built exclusively from commutative-associative pieces, so merging
/// per-worker aggregates yields the same bytes for every worker count
/// and item partition (after [`SweepAggregate::finalize`] sorts the
/// violation list).
#[derive(Clone, Debug, Default)]
pub struct SweepAggregate {
    /// Runs folded in.
    pub runs: u64,
    /// Total events across runs.
    pub events: u64,
    /// Healing rounds across runs.
    pub rounds: u64,
    /// Individual deletions across runs.
    pub deletions: u64,
    /// Joins across runs.
    pub joins: u64,
    /// Per-run total ID-maintenance messages.
    pub messages: Histogram,
    /// Per-run maximum per-node ID changes.
    pub id_changes: Histogram,
    /// Per-run maximum degree increase (clamped at 0).
    pub degree_delta: Histogram,
    /// Per-run half-life stretch ×10 (rounded up).
    pub stretch_tenths: Histogram,
    /// Runs whose stretch could not be measured (too few survivors).
    pub stretch_skipped: u64,
    /// Worst per-run message total and its seed.
    pub worst_messages: Extreme,
    /// Worst per-run max ID-change count and its seed.
    pub worst_id_changes: Extreme,
    /// Worst per-run degree increase and its seed.
    pub worst_delta: Extreme,
    /// Worst per-run stretch (×10) and its seed.
    pub worst_stretch: Extreme,
    /// Worst single-round broadcast latency and its seed.
    pub worst_latency: Extreme,
    /// `(seed, finding)` for every violation (sorted by
    /// [`SweepAggregate::finalize`]).
    pub violations: Vec<(u64, String)>,
}

impl SweepAggregate {
    /// Fold one run into the aggregate.
    pub fn observe(&mut self, run: &RunOutcome) {
        self.runs += 1;
        self.events += run.report.events;
        self.rounds += run.report.rounds;
        self.deletions += run.report.deletions;
        self.joins += run.report.joins;
        self.messages.push(run.report.total_messages as usize);
        self.id_changes.push(run.report.max_id_changes as usize);
        self.degree_delta
            .push(run.report.max_delta_ever.max(0) as usize);
        match run.stretch_tenths {
            Some(s) => {
                self.stretch_tenths.push(s as usize);
                self.worst_stretch.observe(s, run.seed);
            }
            None => self.stretch_skipped += 1,
        }
        self.worst_messages
            .observe(run.report.total_messages, run.seed);
        self.worst_id_changes
            .observe(run.report.max_id_changes as u64, run.seed);
        self.worst_delta
            .observe(run.report.max_delta_ever.max(0) as u64, run.seed);
        self.worst_latency
            .observe(run.report.max_propagation_latency, run.seed);
        for v in &run.violations {
            self.violations.push((run.seed, v.clone()));
        }
    }

    /// Fold another worker's aggregate into this one.
    pub fn merge(&mut self, other: SweepAggregate) {
        self.runs += other.runs;
        self.events += other.events;
        self.rounds += other.rounds;
        self.deletions += other.deletions;
        self.joins += other.joins;
        self.messages.merge(&other.messages);
        self.id_changes.merge(&other.id_changes);
        self.degree_delta.merge(&other.degree_delta);
        self.stretch_tenths.merge(&other.stretch_tenths);
        self.stretch_skipped += other.stretch_skipped;
        self.worst_messages.merge(&other.worst_messages);
        self.worst_id_changes.merge(&other.worst_id_changes);
        self.worst_delta.merge(&other.worst_delta);
        self.worst_stretch.merge(&other.worst_stretch);
        self.worst_latency.merge(&other.worst_latency);
        self.violations.extend(other.violations);
    }

    /// Canonicalize: sort the violation list so the aggregate's bytes do
    /// not depend on which worker saw which run first.
    pub fn finalize(&mut self) {
        self.violations.sort();
    }

    /// Complete canonical dump: every counter, every sparse histogram
    /// bucket, every worst seed, every violation — the byte-for-byte
    /// identity the determinism and golden tests compare.
    pub fn render_canonical(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "runs={} events={} rounds={} deletions={} joins={}",
            self.runs, self.events, self.rounds, self.deletions, self.joins
        );
        for (name, h) in [
            ("messages", &self.messages),
            ("id_changes", &self.id_changes),
            ("degree_delta", &self.degree_delta),
            ("stretch_tenths", &self.stretch_tenths),
        ] {
            let _ = write!(out, "{name}:");
            for (value, count) in h.buckets() {
                let _ = write!(out, " {value}x{count}");
            }
            out.push('\n');
        }
        let _ = writeln!(out, "stretch_skipped={}", self.stretch_skipped);
        let _ = writeln!(
            out,
            "worst: messages={} id_changes={} delta={} stretch={} latency={}",
            self.worst_messages,
            self.worst_id_changes,
            self.worst_delta,
            self.worst_stretch,
            self.worst_latency
        );
        let _ = writeln!(out, "violations={}", self.violations.len());
        for (seed, v) in &self.violations {
            let _ = writeln!(out, "  seed {seed}: {v}");
        }
        out
    }

    /// One human-oriented summary line per statistic (for the CLI).
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "runs {}  events {}  rounds {}  deletions {}  joins {}  violations {}",
            self.runs,
            self.events,
            self.rounds,
            self.deletions,
            self.joins,
            self.violations.len()
        );
        let _ = writeln!(
            out,
            "  messages     {}  worst {}",
            self.messages.percentile_line(),
            self.worst_messages
        );
        let _ = writeln!(
            out,
            "  id-changes   {}  worst {}",
            self.id_changes.percentile_line(),
            self.worst_id_changes
        );
        let _ = writeln!(
            out,
            "  degree-delta {}  worst {}",
            self.degree_delta.percentile_line(),
            self.worst_delta
        );
        let _ = writeln!(
            out,
            "  stretch/10   {}  worst {}  (unmeasured {})",
            self.stretch_tenths.percentile_line(),
            self.worst_stretch,
            self.stretch_skipped
        );
        let _ = writeln!(out, "  round-latency worst {}", self.worst_latency);
        for (seed, v) in self.violations.iter().take(8) {
            let _ = writeln!(out, "  VIOLATION seed {seed}: {v}");
        }
        if self.violations.len() > 8 {
            let _ = writeln!(out, "  ... {} more", self.violations.len() - 8);
        }
        out
    }
}

/// Run the whole sweep: fan `cfg.runs` seeded scenarios over
/// `cfg.threads` workers and return the finalized aggregate.
pub fn run_sweep(cfg: &SweepConfig) -> SweepAggregate {
    let mut agg = parallel_fold(
        cfg.runs as usize,
        cfg.threads,
        SweepAggregate::default,
        |mut acc: SweepAggregate, i| {
            acc.observe(&run_one(cfg, i as u64));
            acc
        },
        |mut a, b| {
            a.merge(b);
            a
        },
    );
    agg.finalize();
    agg
}

/// Convenience for tests and examples: rebuild the initial graph of a
/// given run seed from the sweep's graph template.
pub fn initial_graph(cfg: &SweepConfig, seed: u64) -> Graph {
    cfg.spec.graph.build(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::BackendSpec;

    #[test]
    fn run_seeds_are_distinct_and_stable() {
        let a = run_seed(1, 0);
        assert_eq!(a, run_seed(1, 0));
        assert_ne!(a, run_seed(1, 1));
        assert_ne!(a, run_seed(2, 0));
        let seeds: std::collections::BTreeSet<u64> = (0..1000).map(|i| run_seed(7, i)).collect();
        assert_eq!(seeds.len(), 1000, "per-run seeds must not collide");
    }

    #[test]
    fn one_run_is_reproducible() {
        let cfg = SweepConfig::new(SweepAdversary::Epidemic, HealerSpec::Dash);
        let a = run_one(&cfg, 3);
        let b = run_one(&cfg, 3);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.report.total_messages, b.report.total_messages);
        assert_eq!(a.report.events, b.report.events);
        assert_eq!(a.stretch_tenths, b.stretch_tenths);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
    }

    #[test]
    fn every_adversary_terminates_and_audits_clean() {
        for adversary in SweepAdversary::ALL {
            let mut cfg = SweepConfig::sized(adversary, HealerSpec::Dash, 32);
            cfg.runs = 4;
            let agg = run_sweep(&cfg);
            assert_eq!(agg.runs, 4);
            assert!(
                agg.violations.is_empty(),
                "{}: {:?}",
                adversary.name(),
                agg.violations
            );
            assert!(agg.deletions > 0, "{} deleted nothing", adversary.name());
            if adversary == SweepAdversary::FlashCrowd {
                assert!(agg.joins > 0, "flash crowd must join");
            }
        }
    }

    #[test]
    fn sdash_sweeps_audit_clean() {
        let mut cfg = SweepConfig::sized(SweepAdversary::RackPartition, HealerSpec::Sdash, 32);
        cfg.runs = 4;
        let agg = run_sweep(&cfg);
        assert!(agg.violations.is_empty(), "{:?}", agg.violations);
    }

    #[test]
    fn aggregate_is_thread_count_invariant() {
        let mut cfg = SweepConfig::sized(SweepAdversary::Epidemic, HealerSpec::Dash, 24);
        cfg.runs = 12;
        cfg.threads = 1;
        let one = run_sweep(&cfg).render_canonical();
        for threads in [2, 4] {
            cfg.threads = threads;
            assert_eq!(
                run_sweep(&cfg).render_canonical(),
                one,
                "aggregate diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn parity_twin_agrees_on_delete_only_adversaries() {
        let mut cfg = SweepConfig::sized(SweepAdversary::CutVertex, HealerSpec::Dash, 16);
        cfg.spec.backend = BackendSpec::Parity;
        cfg.runs = 3;
        let agg = run_sweep(&cfg);
        assert!(agg.violations.is_empty(), "{:?}", agg.violations);
    }

    #[test]
    fn replay_reproduces_the_worst_seed() {
        let mut cfg = SweepConfig::sized(SweepAdversary::HighestDegree, HealerSpec::Dash, 24);
        cfg.runs = 8;
        let agg = run_sweep(&cfg);
        let worst = agg.worst_messages;
        let (report, log, violations) = replay(&cfg, worst.seed);
        assert_eq!(report.total_messages, worst.value);
        assert_eq!(log.records.len(), report.events as usize);
        assert!(violations.is_empty());
    }

    #[test]
    fn max_events_caps_a_run() {
        let mut cfg = SweepConfig::sized(SweepAdversary::HighestDegree, HealerSpec::Dash, 32);
        cfg.spec.max_events = 5;
        let run = run_one(&cfg, 0);
        assert_eq!(run.report.events, 5);
    }

    #[test]
    fn a_broken_template_degrades_into_violations() {
        let mut cfg = SweepConfig::new(SweepAdversary::RackPartition, HealerSpec::GraphHeal);
        cfg.spec.backend = BackendSpec::Parity; // graph-heal has no fabric
        cfg.runs = 2;
        let agg = run_sweep(&cfg);
        assert_eq!(agg.violations.len(), 2);
        assert!(
            agg.violations[0].1.contains("no distributed-fabric"),
            "{:?}",
            agg.violations
        );
    }
}

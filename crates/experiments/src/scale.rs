//! E11 — million-node healing throughput (`run-experiments scale`).
//!
//! The scalability demonstration behind the pooled-adjacency refactor:
//! build a BA(10⁶, 3) network and heal it to empty with both paper
//! algorithms under two large-scale failure models —
//!
//! - `random-churn`: mixed joins and targeted hub-neighbor deletions
//!   (the live count is a downward-biased random walk, so the run
//!   terminates after ≈ 3n events);
//! - `rack-partition(8)`: coordinated batch kills of shuffled racks.
//!
//! Each configuration runs three times and reports its median run (by
//! events/sec): the build time (BA generation plus
//! `HealingNetwork::new`), wall-clock events/sec, the process's peak RSS
//! (`VmHWM` from `/proc/self/status`; cumulative, hence monotone across
//! rows), and the heap-allocation count during the run (non-zero only
//! when the binary installs `selfheal_bench::alloc::CountingAlloc`,
//! which `run-experiments` does).
//!
//! A per-event cost ladder follows the rows: DASH under `random-churn`
//! at n = 10⁴, 2·10⁵ and 10⁶, as ns/event, and the 10⁶:10⁴ ratio. The
//! ladder is measured in three rounds, each measuring every size once,
//! smallest first in even rounds and largest first in odd ones, so a
//! drift in the host's speed over the ladder's minutes lands on every
//! size alike. A step is the median of its three measurements, printed
//! with their min–max, and the ratio is the median of the per-round
//! ratios. Each measurement repeats the seeded episode until at least
//! [`LADDER_MIN_STEPPING`] of stepping has been timed (one 10⁴ episode
//! takes milliseconds, too short to time alone). DASH's work per event
//! does not grow with n (it rewires only the victim's neighbours, and
//! Theorem 1 bounds each node's ID changes by O(log n)), so the ratio
//! measures what memory costs as the network outgrows the caches.
//! Unlike E1–E9 this experiment is *not* part of `run-experiments all`
//! — a million-node sweep has no place in `make figures` — it is
//! dispatched explicitly, like `verify`.

use crate::config::Scale;
use rand::rngs::StdRng;
use rand::SeedableRng;
use selfheal_bench::alloc::total_allocations;
use selfheal_core::attack::RackPartition;
use selfheal_core::scenario::{RandomChurn, ScenarioEngine};
use selfheal_core::state::HealingNetwork;
use selfheal_core::strategy::Healer;
use selfheal_graph::generators::barabasi_albert;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// BA attachment parameter (the paper's experiments use m = 3).
const M: usize = 3;
/// Rack size for the partition adversary.
const RACK: usize = 8;
/// Runs per configuration; each reports its median run.
const RUNS: usize = 3;
/// Initial sizes of the per-event cost ladder.
pub const LADDER: [usize; 3] = [10_000, 200_000, 1_000_000];
/// Stepping time one ladder measurement collects, at least.
pub const LADDER_MIN_STEPPING: Duration = Duration::from_secs(1);

/// One (healer, adversary) configuration's measurements.
#[derive(Clone, Debug)]
pub struct ScaleRow {
    /// Healer name (`dash` / `sdash`).
    pub healer: &'static str,
    /// Adversary name (`random-churn` / `rack-partition`).
    pub adversary: &'static str,
    /// Initial node count.
    pub n: usize,
    /// Events consumed healing to empty (deletes, batches, joins).
    pub events: u64,
    /// Nodes joined mid-run (random-churn only).
    pub joins: u64,
    /// Wall-clock time to build the network: BA generation plus
    /// `HealingNetwork::new`.
    pub build: Duration,
    /// Wall-clock time for the run (graph build excluded).
    pub elapsed: Duration,
    /// Events per second of wall-clock.
    pub events_per_sec: f64,
    /// Peak RSS in kB after the run (`VmHWM`; process-wide, monotone).
    pub peak_rss_kb: Option<u64>,
    /// Heap allocations performed during the run (0 without the
    /// counting allocator installed).
    pub allocations: u64,
    /// Maximum degree increase ever observed (Theorem 1's quantity).
    pub max_delta: i64,
    /// Whether the network really reached zero live nodes.
    pub healed_to_empty: bool,
}

/// Peak resident set size in kB (`VmHWM`), when the platform exposes it.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest.trim().trim_end_matches("kB").trim().parse().ok();
        }
    }
    None
}

fn run_one<H: Healer>(
    label: &'static str,
    healer: H,
    n: usize,
    seed: u64,
    churn: bool,
) -> ScaleRow {
    let t_build = Instant::now();
    let g = barabasi_albert(n, M, &mut StdRng::seed_from_u64(seed));
    let net = HealingNetwork::new(g, seed);
    let build = t_build.elapsed();
    let allocs_before = total_allocations();
    let t0 = Instant::now();
    let (report, live, adversary) = if churn {
        let mut engine = ScenarioEngine::new(net, healer, RandomChurn::new(seed));
        let report = engine.run_to_empty();
        (report, engine.net.graph().live_node_count(), "random-churn")
    } else {
        let mut engine = ScenarioEngine::new(net, healer, RackPartition::new(seed, RACK));
        let report = engine.run_to_empty();
        (
            report,
            engine.net.graph().live_node_count(),
            "rack-partition",
        )
    };
    let elapsed = t0.elapsed();
    let allocations = total_allocations() - allocs_before;
    ScaleRow {
        healer: label,
        adversary,
        n,
        events: report.events,
        joins: report.joins,
        build,
        elapsed,
        events_per_sec: report.events as f64 / elapsed.as_secs_f64().max(1e-9),
        peak_rss_kb: peak_rss_kb(),
        allocations,
        max_delta: report.max_delta_ever,
        healed_to_empty: live == 0,
    }
}

/// The median of [`RUNS`] runs of `run`, by events/sec.
fn median_run(run: impl Fn() -> ScaleRow) -> ScaleRow {
    let mut runs: Vec<ScaleRow> = (0..RUNS).map(|_| run()).collect();
    runs.sort_by(|a, b| a.events_per_sec.total_cmp(&b.events_per_sec));
    runs.swap_remove(RUNS / 2)
}

/// Run E11 at `n` nodes: {dash, sdash} × {random-churn, rack-partition},
/// each the median of three runs.
pub fn run_with_size(n: usize, seed: u64) -> Vec<ScaleRow> {
    let mut rows = Vec::with_capacity(4);
    for churn in [true, false] {
        rows.push(median_run(|| {
            run_one("dash", selfheal_core::dash::Dash, n, seed, churn)
        }));
        rows.push(median_run(|| {
            run_one("sdash", selfheal_core::sdash::Sdash, n, seed, churn)
        }));
    }
    rows
}

/// One step of the per-event cost ladder.
#[derive(Clone, Copy, Debug)]
pub struct LadderStep {
    /// Initial node count.
    pub n: usize,
    /// Wall-clock ns per event, DASH under `random-churn`: the median of
    /// the step's measurements, one per round.
    pub ns_per_event: f64,
    /// The smallest and largest of the step's measurements.
    pub range: (f64, f64),
}

/// The per-event cost ladder.
#[derive(Clone, Debug)]
pub struct Ladder {
    /// One step per size, smallest first.
    pub steps: Vec<LadderStep>,
    /// The median over rounds of the largest size's ns/event over the
    /// smallest's, both measured in that round.
    pub ratio: f64,
}

/// ns/event of DASH under `random-churn` at `n`, over as many runs of
/// the seeded episode as it takes to time `min_stepping` (at least one).
fn repeated_episodes(n: usize, seed: u64, min_stepping: Duration) -> f64 {
    let (mut elapsed, mut events) = (Duration::ZERO, 0u64);
    loop {
        let row = run_one("dash", selfheal_core::dash::Dash, n, seed, true);
        elapsed += row.elapsed;
        events += row.events;
        if elapsed >= min_stepping {
            return elapsed.as_nanos() as f64 / events.max(1) as f64;
        }
    }
}

/// The median of `xs` and its min–max.
fn median_and_range(mut xs: [f64; RUNS]) -> (f64, (f64, f64)) {
    xs.sort_by(f64::total_cmp);
    (xs[RUNS / 2], (xs[0], xs[RUNS - 1]))
}

/// The per-event cost ladder at `sizes`, smallest first, over three
/// rounds. Each round measures every size once, in increasing order in
/// even rounds and decreasing order in odd ones; each measurement
/// repeats the seeded episode until it has timed `min_stepping`.
pub fn ladder(sizes: &[usize], seed: u64, min_stepping: Duration) -> Ladder {
    let rounds: Vec<Vec<f64>> = (0..RUNS)
        .map(|round| {
            let mut order: Vec<usize> = (0..sizes.len()).collect();
            if round % 2 == 1 {
                order.reverse();
            }
            let mut ns = vec![0.0; sizes.len()];
            for i in order {
                ns[i] = repeated_episodes(sizes[i], seed, min_stepping);
            }
            ns
        })
        .collect();
    let steps = sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let (ns_per_event, range) = median_and_range(std::array::from_fn(|r| rounds[r][i]));
            LadderStep {
                n,
                ns_per_event,
                range,
            }
        })
        .collect();
    let ratio = match sizes.len() {
        0 => f64::NAN,
        k => median_and_range(std::array::from_fn(|r| rounds[r][k - 1] / rounds[r][0])).0,
    };
    Ladder { steps, ratio }
}

/// E11's measurements: the configuration rows and the cost ladder.
#[derive(Clone, Debug)]
pub struct ScaleReport {
    /// {dash, sdash} × {random-churn, rack-partition} at the run's n.
    pub rows: Vec<ScaleRow>,
    /// DASH `random-churn` ns/event at [`LADDER`]'s sizes.
    pub ladder: Ladder,
}

/// Run E11 at full scale: BA(10⁶, 3), or 2·10⁶ with `--full`, then the
/// ladder.
pub fn run(scale: Scale, seed: u64) -> ScaleReport {
    let n = match scale {
        Scale::Quick => 1_000_000,
        Scale::Full => 2_000_000,
    };
    let rows = run_with_size(n, seed);
    let ladder = ladder(&LADDER, seed, LADDER_MIN_STEPPING);
    ScaleReport { rows, ladder }
}

/// The ladder as a table, then the largest-to-smallest ns/event ratio.
pub fn render_ladder(ladder: &Ladder) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "dash random-churn cost per event ({RUNS} rounds, each size once per round; median, min–max)"
    );
    let _ = writeln!(out, "{:>9} {:>10} {:>13}", "n", "ns/event", "min–max");
    for s in &ladder.steps {
        let (lo, hi) = s.range;
        let range = format!("{lo:.0}–{hi:.0}");
        let _ = writeln!(out, "{:>9} {:>10.0} {:>13}", s.n, s.ns_per_event, range);
    }
    if let (Some(lo), Some(hi)) = (ladder.steps.first(), ladder.steps.last()) {
        let _ = writeln!(
            out,
            "ratio n={}:n={} {:.2} (median of per-round ratios)",
            hi.n, lo.n, ladder.ratio
        );
    }
    out
}

/// Fixed-width table over the measured rows.
pub fn render(rows: &[ScaleRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<7} {:<15} {:>9} {:>10} {:>8} {:>8} {:>9} {:>12} {:>12} {:>12} {:>6}",
        "healer",
        "adversary",
        "n",
        "events",
        "joins",
        "build_s",
        "time_s",
        "events/sec",
        "peak_rss_kb",
        "allocations",
        "maxδ"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<7} {:<15} {:>9} {:>10} {:>8} {:>8.3} {:>9.2} {:>12.0} {:>12} {:>12} {:>6}{}",
            r.healer,
            r.adversary,
            r.n,
            r.events,
            r.joins,
            r.build.as_secs_f64(),
            r.elapsed.as_secs_f64(),
            r.events_per_sec,
            r.peak_rss_kb
                .map(|kb| kb.to_string())
                .unwrap_or_else(|| "n/a".into()),
            r.allocations,
            r.max_delta,
            if r.healed_to_empty { "" } else { "  NOT EMPTY" }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_heals_to_empty_on_all_four_configs() {
        let rows = run_with_size(600, 7);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(
                r.healed_to_empty,
                "{}/{} left survivors",
                r.healer, r.adversary
            );
            assert!(
                r.events >= 600 / 8,
                "{}/{}: too few events",
                r.healer,
                r.adversary
            );
            assert!(r.events_per_sec > 0.0);
            assert!(r.build > Duration::ZERO);
        }
        // Both adversaries and both healers appear.
        assert!(rows
            .iter()
            .any(|r| r.adversary == "random-churn" && r.healer == "dash"));
        assert!(rows
            .iter()
            .any(|r| r.adversary == "rack-partition" && r.healer == "sdash"));
    }

    #[test]
    fn vmhwm_is_readable_on_linux() {
        if cfg!(target_os = "linux") {
            let kb = peak_rss_kb().expect("VmHWM present in /proc/self/status");
            assert!(kb > 0);
        }
    }

    #[test]
    fn ladder_measures_every_size_in_every_round() {
        let ladder = ladder(&[100, 300], 5, Duration::ZERO);
        let steps = &ladder.steps;
        assert_eq!(steps.iter().map(|s| s.n).collect::<Vec<_>>(), [100, 300]);
        for s in steps {
            let (lo, hi) = s.range;
            assert!(0.0 < lo && lo <= s.ns_per_event && s.ns_per_event <= hi);
        }
        // Each round's ratio lies between the extremes of the two steps'
        // measurements, and so does their median.
        let (lo, hi) = (steps[0].range, steps[1].range);
        assert!(hi.0 / lo.1 <= ladder.ratio && ladder.ratio <= hi.1 / lo.0);
        let table = render_ladder(&ladder);
        assert_eq!(table.lines().count(), 5);
        assert!(table.ends_with(&format!(
            "ratio n=300:n=100 {:.2} (median of per-round ratios)\n",
            ladder.ratio
        )));
    }

    #[test]
    fn render_includes_throughput_column() {
        let rows = run_with_size(200, 3);
        let table = render(&rows);
        assert!(table.contains("events/sec"));
        assert!(table.contains("build_s"));
        assert_eq!(table.lines().count(), 5);
    }
}

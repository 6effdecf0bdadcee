//! # healbench
//!
//! The end-to-end benchmark of the DASH healing engine and the
//! `selfheal-serve` daemon, with a traced per-layer ledger.
//!
//! ```text
//! cargo run --release --manifest-path healbench/Cargo.toml -- \
//!     --workload engine-churn --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Four workloads, each generated from `--seed`:
//!
//! - `engine-churn` — DASH heals BA(n, 3) to empty under `RandomChurn`
//!   (closed loop, one client thread): the single-delete + join hot path.
//! - `engine-racks` — DASH heals a cache-resident BA(20000, 3) under
//!   `RackPartition(8)`: the batch path.
//! - `serve-ingest` — one client replays a generated line stream through
//!   `Cluster::handle_line` on four tenants and two workers (closed
//!   loop): parse, queue, tick dispatch, engine, snapshot publish.
//! - `serve-read` — one small tenant on one worker; an open-loop writer
//!   sends events and ticks on a fixed schedule while one closed-loop
//!   reader issues `Cluster::query`: reads overlapping publishes.
//!
//! With `--trace 0` the run prints the end-to-end metrics
//! ([`END_TO_END`]); with `--trace 1` it runs the same inputs untraced
//! and then traced, and prints the per-layer ledger
//! ([`per_layer_metrics`]). The last stdout line is one JSON object;
//! every failed correctness check is named on stderr and makes the
//! process exit nonzero.

pub mod calib;
pub mod engine;
pub mod hist;
pub mod ledger;
pub mod serve;
pub mod slices;

use ledger::{Boundary, Ledger};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// DASH under `RandomChurn` on a large BA graph.
    EngineChurn,
    /// DASH under `RackPartition(8)` on a large BA graph.
    EngineRacks,
    /// Closed-loop line ingest through the cluster.
    ServeIngest,
    /// Open-loop writer plus a concurrent query reader.
    ServeRead,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::EngineChurn,
        Workload::EngineRacks,
        Workload::ServeIngest,
        Workload::ServeRead,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EngineChurn => "engine-churn",
            Workload::EngineRacks => "engine-racks",
            Workload::ServeIngest => "serve-ingest",
            Workload::ServeRead => "serve-read",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: `Full` is the benchmark, `Tiny` drives the same code
/// paths in milliseconds (the package's own tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured sizes.
    Full,
    /// Smoke-test sizes.
    Tiny,
}

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("events_per_s", "1/s"),
    ("victims_per_s", "1/s"),
    ("allocs_per_event", "allocs/event"),
    ("tick_p50_us", "us"),
    ("visible_p50_us", "us"),
];

/// Per-layer metrics beyond the five per boundary. The two p99s are
/// end-to-end quantities whose run-to-run spread on a shared 2-core
/// host exceeds a tenth, so they are reported here, from the traced
/// run's untraced pass, rather than gated.
const LAYER_EXTRAS: [(&str, &str); 12] = [
    ("tick_p99_us", "us"),
    ("visible_p99_us", "us"),
    ("healer.rt_size", "nodes/round"),
    ("state.propagate.messages", "msgs/round"),
    ("cluster.dispatch_share", "ratio"),
    ("serve.engine_cost_ratio", "ratio"),
    ("gen.lag_p50_us", "us"),
    ("gen.lag_p99_us", "us"),
    ("reads_per_s", "1/s"),
    ("ops_failed_ratio", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
];

/// The five metrics kept per boundary: `(suffix, unit)`.
const PER_BOUNDARY: [(&str, &str); 5] = [
    ("share", "ratio"),
    ("p50_ns", "ns"),
    ("p99_ns", "ns"),
    ("allocs", "allocs/call"),
    ("calls", "count"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for b in Boundary::ALL {
        for (suffix, unit) in PER_BOUNDARY {
            out.push((format!("{}.{suffix}", b.name()), unit));
        }
    }
    out.extend(LAYER_EXTRAS.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// Measured values by name, each with its sample count when it is a
/// statistic over samples.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, Option<u64>)>,
}

impl Metrics {
    /// Set a plain value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), (value, None));
    }

    /// Set a statistic taken over `samples` samples.
    pub fn set_n(&mut self, name: &str, value: f64, samples: u64) {
        self.values.insert(name.to_string(), (value, Some(samples)));
    }

    /// A value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    /// The per-layer metrics of `ledger` over a traced wall of `wall`:
    /// per boundary its share of the wall, p50/p99 per call, allocations
    /// per call and call count. Boundaries a workload never calls read 0.
    pub fn set_layers(&mut self, ledger: &Ledger, wall: Duration) {
        let wall_ns = wall.as_nanos().max(1) as f64;
        for b in Boundary::ALL {
            let span = ledger.span(b);
            let calls = span.hist.count();
            let name = b.name();
            self.set(
                &format!("{name}.share"),
                span.total.as_nanos() as f64 / wall_ns,
            );
            self.set_n(&format!("{name}.p50_ns"), span.hist.quantile(0.5), calls);
            self.set_n(&format!("{name}.p99_ns"), span.hist.quantile(0.99), calls);
            self.set(
                &format!("{name}.allocs"),
                span.allocs as f64 / calls.max(1) as f64,
            );
            self.set(&format!("{name}.calls"), calls as f64);
        }
    }
}

/// One run's result.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations submitted (events; plus queries on `serve-read`).
    pub attempted: u64,
    /// Operations rejected, skipped or no-ops.
    pub failed: u64,
    /// Named correctness checks that failed, with detail.
    pub failures: Vec<String>,
    /// Lines for the human-readable report.
    pub notes: Vec<String>,
    /// Every metric the run measured.
    pub metrics: Metrics,
}

impl Outcome {
    /// Record a named check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(format!("{name}: {}", detail()));
        }
    }

    /// Set the median set-up time and the slice-median end-to-end
    /// metrics (rates count slices, latencies their samples), all scaled
    /// to reference host speed, and note the slowdown they were scaled
    /// by and the same medians as measured. `setups` holds each set-up's
    /// wall time with the host slowdown read right after it.
    pub fn set_medians(&mut self, setups: &[(Duration, f64)], s: &slices::SliceMedians) {
        let setup = |scale: bool| {
            median(
                setups
                    .iter()
                    .map(|&(t, k)| t.as_secs_f64() / if scale { k } else { 1.0 })
                    .collect(),
            )
        };
        let (f, raw) = (&s.scaled, &s.raw);
        let m = &mut self.metrics;
        m.set_n("setup_s", setup(true), setups.len() as u64);
        m.set_n("events_per_s", f.events_per_s, s.slices);
        m.set_n("victims_per_s", f.victims_per_s, s.slices);
        m.set_n("tick_p50_us", f.tick_p50_us, s.samples);
        m.set_n("tick_p99_us", f.tick_p99_us, s.samples);
        m.set_n("visible_p50_us", f.visible_p50_us, s.samples);
        m.set_n("visible_p99_us", f.visible_p99_us, s.samples);
        self.notes.push(format!(
            "median host slowdown vs reference over {} slices: {:.3}",
            s.slices, s.slowdown
        ));
        self.notes.push(format!(
            "unscaled medians: setup_s {:.4}  events_per_s {:.1}  victims_per_s {:.1}  \
             tick_p50_us {:.2}  tick_p99_us {:.2}  visible_p50_us {:.2}  visible_p99_us {:.2}",
            setup(false),
            raw.events_per_s,
            raw.victims_per_s,
            raw.tick_p50_us,
            raw.tick_p99_us,
            raw.visible_p50_us,
            raw.visible_p99_us
        ));
    }

    /// Whether every check passed and nothing failed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    /// The metric set the run reports: the end-to-end metrics when
    /// untraced, the per-layer metrics when traced.
    pub fn declared(trace: bool) -> Vec<(String, &'static str)> {
        if trace {
            per_layer_metrics()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        }
    }

    /// Human-readable lines: every reported metric with its unit and
    /// sample count.
    pub fn report(&self, trace: bool) -> String {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
        for (name, unit) in Self::declared(trace) {
            let (value, samples) = self
                .metrics
                .values
                .get(&name)
                .copied()
                .unwrap_or((0.0, None));
            let _ = write!(out, "{name:<44} {value:>16.4} {unit}");
            if let Some(n) = samples {
                let _ = write!(out, "  (n={n})");
            }
            out.push('\n');
        }
        out
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and the reported `metrics`.
    pub fn json(&self, trace: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in Self::declared(trace).into_iter().enumerate() {
            let value = self
                .metrics
                .get(&name)
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Run one workload for about `budget` of measured time.
pub fn run(workload: Workload, seed: u64, budget: Duration, trace: bool, size: Size) -> Outcome {
    let mut out = match workload {
        Workload::EngineChurn | Workload::EngineRacks => {
            engine::run(workload, seed, budget, trace, size)
        }
        Workload::ServeIngest | Workload::ServeRead => {
            serve::run(workload, seed, budget, trace, size)
        }
    };
    let failed_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    out.metrics.set("ops_failed_ratio", failed_ratio);
    if !trace {
        if let Some(kb) = peak_rss_kb() {
            out.metrics.set("peak_rss_mb", kb as f64 / 1024.0);
        }
    }
    out
}

/// Peak resident set size in kB (`VmHWM`), where the platform has it.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}

/// The median of `v` (0 when empty).
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The seed of every initial graph. The graphs are part of a
/// workload's definition, like its size: the run seed drives the
/// adversaries, the line streams and the reader, so runs on different
/// seeds measure the same graphs under different event sequences
/// (BA hubs vary widely between graph seeds, and with them the cost of
/// healing around them).
pub const GRAPH_SEED: u64 = 0x5A1A_7E4A_2008;

/// A seed for stream `tag` of a run seeded with `seed`.
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    selfheal_sim::SplitMix64::new(seed).derive(tag).next_u64()
}

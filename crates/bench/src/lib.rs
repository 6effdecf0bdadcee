//! Support library for the benchmark suite.
//!
//! Three std-only modules back the perf tooling:
//!
//! - [`alloc`]: a counting [`GlobalAlloc`](std::alloc::GlobalAlloc)
//!   wrapper used by the zero-allocation steady-state test and by the
//!   million-node scale experiment's allocation accounting.
//! - [`baseline`]: parse/merge/compare logic for the `BENCH_<pr>.json`
//!   perf baselines recorded at the repo root (see the `baseline` binary
//!   and the `bench-baseline` / `bench-regress` make targets).
//! - [`pair`]: the statistics and JSON reading behind `make bench-pair`,
//!   which compares a base revision with the working tree on the
//!   end-to-end benchmark `BENCHMARK.json` declares (see the
//!   `bench_pair` binary).
//!
//! The benchmarks themselves live in `benches/`.

pub mod pair;

pub mod alloc {
    //! Allocation counting via a wrapping global allocator.
    //!
    //! Install [`CountingAlloc`] with `#[global_allocator]` in a test or
    //! binary, then read [`thread_allocations`] deltas around the region
    //! of interest. Counters are kept twice: a per-thread cell (exact
    //! attribution for single-threaded hot loops, immune to other
    //! threads' noise) and a process-wide atomic (whole-run totals for
    //! experiment reports).

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    // Under `--cfg loom` the totals become the model checker's mock
    // atomics so `crates/bench/tests/loom.rs` can explore the counter
    // protocol; CountingAlloc must NOT be installed as the global
    // allocator in such a build (mock ops inside `alloc` would recurse).
    #[cfg(loom)]
    use loom::sync::atomic::{AtomicU64, Ordering};
    #[cfg(not(loom))]
    use std::sync::atomic::{AtomicU64, Ordering};

    static TOTAL_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
    static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);

    thread_local! {
        // const-initialized so reading the counter never itself allocates
        // (a lazily-initialized TLS slot could recurse into the allocator).
        static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    }

    /// System allocator wrapper that counts every allocation.
    pub struct CountingAlloc;

    // SAFETY: defers entirely to `System`; the wrapper only bumps counters.
    unsafe impl GlobalAlloc for CountingAlloc {
        // SAFETY: same contract as `System::alloc` — the caller's layout
        // obligations pass through unchanged; counting never allocates.
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            record(layout.size());
            System.alloc(layout)
        }

        // SAFETY: delegation only — `ptr`/`layout` obligations are
        // exactly `System::dealloc`'s.
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        // SAFETY: same contract as `System::realloc`; the counter bump
        // touches no memory the contract governs.
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            record(new_size);
            System.realloc(ptr, layout, new_size)
        }

        // SAFETY: same contract as `System::alloc_zeroed`.
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            record(layout.size());
            System.alloc_zeroed(layout)
        }
    }

    fn record(bytes: usize) {
        // dispatch-ok: commutative statistics counters, not a work queue
        // — no claimed index feeds back into control flow.
        // relaxed-ok: counter bumps commute and nothing is ordered after
        // them; totals are read after the threads of interest join.
        // Exactness under contention is proven by
        // `crates/bench/tests/loom.rs` (`make loom-check`).
        TOTAL_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // dispatch-ok: as above — a byte-total accumulator.
        // relaxed-ok: as above; fetch_add never loses updates.
        TOTAL_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
        THREAD_ALLOCATIONS.with(|c| c.set(c.get() + 1));
    }

    /// Model-checker entry to the exact counter path `GlobalAlloc`
    /// takes, minus the real allocation: lets the loom test drive
    /// `record` from competing threads without installing the
    /// allocator.
    #[cfg(loom)]
    pub fn record_event(bytes: usize) {
        record(bytes);
    }

    /// Allocations made by the calling thread since it started.
    ///
    /// Take a reading before and after a region; the difference is the
    /// region's allocation count (0 when [`CountingAlloc`] is not the
    /// global allocator).
    pub fn thread_allocations() -> u64 {
        THREAD_ALLOCATIONS.with(Cell::get)
    }

    /// Process-wide allocation count across all threads.
    pub fn total_allocations() -> u64 {
        // relaxed-ok: monotonic counter read for reporting; readers
        // tolerate a stale value and exactness-after-join is covered by
        // the loom test.
        TOTAL_ALLOCATIONS.load(Ordering::Relaxed)
    }

    /// Process-wide allocated-byte total (sum of requested sizes; frees
    /// are not subtracted — this measures allocator traffic, not live
    /// heap).
    pub fn total_bytes_allocated() -> u64 {
        // relaxed-ok: same reporting-read contract as
        // [`total_allocations`].
        TOTAL_BYTES.load(Ordering::Relaxed)
    }
}

pub mod baseline {
    //! Benchmark baseline records and the regression gate.
    //!
    //! The vendored criterion stand-in appends one JSONL record per
    //! benchmark when `CRITERION_EXPORT` is set. This module parses those
    //! exports, merges them (bench targets are separate processes, last
    //! record wins), serializes the merged set as the checked-in
    //! `BENCH_<pr>.json` baseline, and compares a fresh export against a
    //! baseline with a median + MAD tolerance. Records are read with
    //! [`Json`], keeping the bench crate dependency-free.

    use crate::pair::Json;
    use std::collections::BTreeMap;
    use std::fmt::Write as _;

    /// One benchmark's summarized timing.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct BenchRecord {
        /// Criterion group name ("" for ungrouped benches).
        pub group: String,
        /// Benchmark id within the group.
        pub bench: String,
        /// Median per-iteration wall time, nanoseconds.
        pub median_ns: u64,
        /// Median absolute deviation of the samples, nanoseconds.
        pub mad_ns: u64,
        /// Number of timed samples behind the summary.
        pub samples: u64,
    }

    impl BenchRecord {
        /// `group/bench` — the key records are merged and compared under.
        pub fn key(&self) -> String {
            format!("{}/{}", self.group, self.bench)
        }
    }

    /// Outcome of comparing one benchmark against its baseline.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum Verdict {
        /// Within tolerance.
        Ok,
        /// Median improved by more than the tolerance (informational).
        Improved,
        /// Median regressed beyond 10% plus the MAD slack.
        Regressed,
        /// Present in the baseline but missing from the current run
        /// (warn: a renamed or removed bench, not a perf failure).
        Missing,
        /// Present in the current run but not in the baseline.
        New,
    }

    /// Result row of [`compare`].
    #[derive(Clone, Debug)]
    pub struct Comparison {
        /// `group/bench` key.
        pub key: String,
        /// Baseline median (0 when [`Verdict::New`]).
        pub baseline_ns: u64,
        /// Current median (0 when [`Verdict::Missing`]).
        pub current_ns: u64,
        /// Classification under the regression gate.
        pub verdict: Verdict,
    }

    /// Parse a whole export (JSONL or the checked-in JSON array — the
    /// array form is one record per line plus brackets, so line-wise
    /// parsing covers both). A line is a record when it is a JSON object
    /// with string `group` and `bench` and unsigned integer `median_ns`,
    /// `mad_ns` and `samples`; other lines are skipped. Duplicate keys
    /// keep the *last* record: a re-run bench within one `cargo bench`
    /// invocation supersedes its earlier appearance.
    pub fn parse_export(text: &str) -> Vec<BenchRecord> {
        let mut merged: BTreeMap<String, BenchRecord> = BTreeMap::new();
        for line in text.lines() {
            let Some(doc) = Json::parse(line.trim().trim_end_matches(',')) else {
                continue;
            };
            let string = |key| doc.get(key)?.as_str().map(str::to_string);
            let count = |key| {
                let n = doc.get(key)?.as_f64()?;
                (n >= 0.0 && n.fract() == 0.0 && n < 2f64.powi(53)).then_some(n as u64)
            };
            let record = || {
                Some(BenchRecord {
                    group: string("group")?,
                    bench: string("bench")?,
                    median_ns: count("median_ns")?,
                    mad_ns: count("mad_ns")?,
                    samples: count("samples")?,
                })
            };
            if let Some(rec) = record() {
                merged.insert(rec.key(), rec);
            }
        }
        merged.into_values().collect()
    }

    /// Serialize records as the checked-in baseline: a JSON array, one
    /// record per line, sorted by key, trailing newline — so diffs are
    /// line-per-bench and re-emits are byte-stable.
    pub fn to_json(records: &[BenchRecord]) -> String {
        let mut sorted: Vec<&BenchRecord> = records.iter().collect();
        sorted.sort_by_key(|r| r.key());
        let mut out = String::from("[\n");
        for (i, r) in sorted.iter().enumerate() {
            let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
            let _ = write!(
                out,
                "{{\"group\":\"{}\",\"bench\":\"{}\",\"median_ns\":{},\"mad_ns\":{},\"samples\":{}}}",
                esc(&r.group),
                esc(&r.bench),
                r.median_ns,
                r.mad_ns,
                r.samples
            );
            out.push_str(if i + 1 < sorted.len() { ",\n" } else { "\n" });
        }
        out.push_str("]\n");
        out
    }

    /// Regression gate: a bench regresses when its current median exceeds
    /// the baseline median by more than 10% *and* by more than a noise
    /// slack of three combined MADs. The MAD term keeps sub-microsecond
    /// benches (where 10% is a handful of nanoseconds) from flaking;
    /// the 10% term keeps slow benches honest even when their MAD is
    /// large.
    pub fn compare(baseline: &[BenchRecord], current: &[BenchRecord]) -> Vec<Comparison> {
        let cur: BTreeMap<String, &BenchRecord> = current.iter().map(|r| (r.key(), r)).collect();
        let base: BTreeMap<String, &BenchRecord> = baseline.iter().map(|r| (r.key(), r)).collect();
        let mut out = Vec::new();
        for (key, b) in &base {
            let Some(c) = cur.get(key) else {
                out.push(Comparison {
                    key: key.clone(),
                    baseline_ns: b.median_ns,
                    current_ns: 0,
                    verdict: Verdict::Missing,
                });
                continue;
            };
            let slack = 3 * (b.mad_ns + c.mad_ns);
            let threshold = b.median_ns + b.median_ns / 10 + slack;
            let floor = b.median_ns.saturating_sub(b.median_ns / 10 + slack);
            let verdict = if c.median_ns > threshold {
                Verdict::Regressed
            } else if c.median_ns < floor {
                Verdict::Improved
            } else {
                Verdict::Ok
            };
            out.push(Comparison {
                key: key.clone(),
                baseline_ns: b.median_ns,
                current_ns: c.median_ns,
                verdict,
            });
        }
        for (key, c) in &cur {
            if !base.contains_key(key) {
                out.push(Comparison {
                    key: key.clone(),
                    baseline_ns: 0,
                    current_ns: c.median_ns,
                    verdict: Verdict::New,
                });
            }
        }
        out
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn rec(group: &str, bench: &str, median: u64, mad: u64) -> BenchRecord {
            BenchRecord {
                group: group.into(),
                bench: bench.into(),
                median_ns: median,
                mad_ns: mad,
                samples: 10,
            }
        }

        #[test]
        fn record_round_trips_through_json() {
            let records = vec![rec("heal", "dash/4096", 1234, 56), rec("", "solo", 7, 1)];
            let json = to_json(&records);
            let back = parse_export(&json);
            let mut expect = records.clone();
            expect.sort_by_key(|r| r.key());
            assert_eq!(back, expect);
            // Byte-stable re-emit.
            assert_eq!(to_json(&back), json);
        }

        #[test]
        fn parse_handles_escapes_and_rejects_garbage() {
            let r = parse_export(
                "{\"group\":\"a\\\"b\",\"bench\":\"x\\\\y\",\"median_ns\":5,\"mad_ns\":0,\"samples\":3}",
            );
            assert_eq!(r.len(), 1);
            assert_eq!(r[0].group, "a\"b");
            assert_eq!(r[0].bench, "x\\y");
            assert!(parse_export("not json").is_empty());
            assert!(parse_export("{\"group\":\"g\"}").is_empty());
            assert!(parse_export(
                "{\"group\":\"g\",\"bench\":\"b\",\"median_ns\":-5,\"mad_ns\":0,\"samples\":3}"
            )
            .is_empty());
        }

        #[test]
        fn checked_in_baselines_parse_and_re_emit_byte_for_byte() {
            for (text, count) in [
                (include_str!("../../../BENCH_7.json"), 56),
                (include_str!("../../../BENCH_8.json"), 56),
                (include_str!("../../../BENCH_10.json"), 59),
            ] {
                let records = parse_export(text);
                assert_eq!(records.len(), count);
                assert_eq!(records[0].key(), "ablation_apsp_1024/threads/1");
                assert_eq!(records[count - 1].key(), "sweep/epidemic_64_runs_audited/2");
                assert_eq!(to_json(&records), text);
            }
        }

        #[test]
        fn duplicate_keys_keep_the_last_record() {
            let text = format!(
                "{}\n{}\n",
                "{\"group\":\"g\",\"bench\":\"b\",\"median_ns\":1,\"mad_ns\":0,\"samples\":3}",
                "{\"group\":\"g\",\"bench\":\"b\",\"median_ns\":2,\"mad_ns\":0,\"samples\":3}"
            );
            let merged = parse_export(&text);
            assert_eq!(merged.len(), 1);
            assert_eq!(merged[0].median_ns, 2);
        }

        #[test]
        fn regression_gate_needs_both_percent_and_mad_excess() {
            let base = vec![rec("g", "fast", 100, 40), rec("g", "slow", 1_000_000, 10)];
            // fast: +50% but within 3*(40+40) MAD slack -> Ok.
            // slow: +20% and far past slack -> Regressed.
            let current = vec![rec("g", "fast", 150, 40), rec("g", "slow", 1_200_000, 10)];
            let cmp = compare(&base, &current);
            let by_key = |k: &str| cmp.iter().find(|c| c.key == k).unwrap().verdict.clone();
            assert_eq!(by_key("g/fast"), Verdict::Ok);
            assert_eq!(by_key("g/slow"), Verdict::Regressed);
        }

        #[test]
        fn missing_and_new_benches_are_flagged_not_failed() {
            let base = vec![rec("g", "gone", 10, 1)];
            let current = vec![rec("g", "fresh", 10, 1)];
            let cmp = compare(&base, &current);
            assert!(cmp
                .iter()
                .any(|c| c.key == "g/gone" && c.verdict == Verdict::Missing));
            assert!(cmp
                .iter()
                .any(|c| c.key == "g/fresh" && c.verdict == Verdict::New));
        }

        #[test]
        fn improvement_is_reported() {
            let base = vec![rec("g", "b", 1_000_000, 100)];
            let current = vec![rec("g", "b", 500_000, 100)];
            assert_eq!(compare(&base, &current)[0].verdict, Verdict::Improved);
        }
    }
}

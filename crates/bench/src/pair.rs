//! Paired end-to-end benchmark comparison (the `bench_pair` binary,
//! `make bench-pair`).
//!
//! The repo's end-to-end benchmark is declared in `BENCHMARK.json`: a
//! command, its workloads, and the end-to-end metrics with a direction
//! and a relative bound each. A comparison runs that command for a base
//! revision and for the working tree, alternating which goes first,
//! once per seed, and judges each metric from the paired runs:
//!
//! - **regressed**: the head median is worse than the base median by
//!   more than the metric's bound;
//! - **gain**: the head won at least nine pairs in ten, and its median
//!   is better by more than the base runs' interquartile range;
//! - **within bound** otherwise.
//!
//! This module holds the pure parts (a small JSON reader, the run
//! output's metrics, and the statistics); the binary owns the
//! processes. No dependency: the JSON reader covers exactly what the
//! benchmark files and the run output use.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, as `f64`.
    Num(f64),
    /// A string (escapes `\"`, `\\`, `\/`, `\n`, `\t` decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one JSON document; `None` on any syntax error or trailing
    /// garbage.
    pub fn parse(text: &str) -> Option<Json> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        (p.i == p.s.len()).then_some(v)
    }

    /// Field `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Option<()> {
        self.ws();
        (self.s.get(self.i) == Some(&c)).then(|| self.i += 1)
    }

    fn literal(&mut self, word: &str, v: Json) -> Option<Json> {
        self.s[self.i..]
            .starts_with(word.as_bytes())
            .then(|| self.i += word.len())
            .map(|()| v)
    }

    fn value(&mut self) -> Option<Json> {
        self.ws();
        match *self.s.get(self.i)? {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                if self.eat(b'}').is_some() {
                    return Some(Json::Obj(fields));
                }
                loop {
                    self.eat(b'"')?;
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    if self.eat(b',').is_none() {
                        self.eat(b'}')?;
                        return Some(Json::Obj(fields));
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                if self.eat(b']').is_some() {
                    return Some(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    if self.eat(b',').is_none() {
                        self.eat(b']')?;
                        return Some(Json::Arr(items));
                    }
                }
            }
            b'"' => {
                self.i += 1;
                self.string().map(Json::Str)
            }
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).ok()?;
                text.parse().ok().map(Json::Num)
            }
        }
    }

    /// The rest of a string whose opening quote was consumed.
    fn string(&mut self) -> Option<String> {
        let mut out = Vec::new();
        loop {
            let c = *self.s.get(self.i)?;
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).ok(),
                b'\\' => {
                    let e = *self.s.get(self.i)?;
                    self.i += 1;
                    out.push(match e {
                        b'n' => b'\n',
                        b't' => b'\t',
                        b'"' | b'\\' | b'/' => e,
                        _ => return None,
                    });
                }
                _ => out.push(c),
            }
        }
    }
}

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as the run output keys it.
    pub name: String,
    /// Whether a lower value is better.
    pub lower_is_better: bool,
    /// Largest relative worsening of the median still accepted.
    pub bound: f64,
}

/// What `BENCHMARK.json` declares.
#[derive(Clone, Debug, PartialEq)]
pub struct Benchmark {
    /// The command: a `cargo run` whose program arguments follow `--`.
    pub command: Vec<String>,
    /// Seconds per run.
    pub run_seconds: u64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub metrics: Vec<Metric>,
}

impl Benchmark {
    /// Read a `BENCHMARK.json` document.
    pub fn parse(text: &str) -> Option<Benchmark> {
        let doc = Json::parse(text)?;
        let strings = |v: &Json| -> Option<Vec<String>> {
            v.as_array()?
                .iter()
                .map(|s| s.as_str().map(str::to_string))
                .collect()
        };
        let named = |v: &Json| v.get("name")?.as_str().map(str::to_string);
        Some(Benchmark {
            command: strings(doc.get("command")?)?,
            run_seconds: doc.get("run_seconds")?.as_f64()? as u64,
            workloads: doc
                .get("workloads")?
                .as_array()?
                .iter()
                .map(named)
                .collect::<Option<_>>()?,
            metrics: doc
                .get("end_to_end")?
                .as_array()?
                .iter()
                .map(|m| {
                    Some(Metric {
                        name: named(m)?,
                        lower_is_better: m.get("better")?.as_str()? == "lower",
                        bound: m.get("bound")?.as_f64()?,
                    })
                })
                .collect::<Option<_>>()?,
        })
    }

    /// The argv of one run of `binary`, the executable a build of the
    /// command produced: the program arguments that follow `--` in the
    /// command, then `--workload W --seed S --seconds T --trace 0`.
    pub fn run_argv(&self, binary: &str, workload: &str, seed: u64) -> Vec<String> {
        let program_args = self.command.iter().skip_while(|a| *a != "--").skip(1);
        let run = [
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &self.run_seconds.to_string(),
            "--trace",
            "0",
        ]
        .map(str::to_string);
        std::iter::once(binary.to_string())
            .chain(program_args.cloned())
            .chain(run)
            .collect()
    }
}

/// The executable of a `bin` target that a `cargo build
/// --message-format=json` run reports on its standard output (the last
/// one, if several).
pub fn built_executable(stdout: &str) -> Option<String> {
    stdout.lines().rev().find_map(|line| {
        let msg = Json::parse(line)?;
        let kinds = msg.get("target")?.get("kind")?.as_array()?;
        if !kinds.contains(&Json::Str("bin".into())) {
            return None;
        }
        msg.get("executable")?.as_str().map(str::to_string)
    })
}

/// The result line one benchmark run prints last:
/// `{"correct": .., "attempted": .., "failed": .., "metrics": {"<name>":
/// {"value": .., "unit": ..}, ..}}`.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: f64,
    /// Operations that failed.
    pub failed: f64,
    /// Metric values by name.
    pub metrics: Vec<(String, f64)>,
}

impl RunResult {
    /// Find and parse the result line in a run's standard output (the
    /// last line that parses as a result).
    pub fn from_output(stdout: &str) -> Option<RunResult> {
        stdout.lines().rev().find_map(|line| {
            let doc = Json::parse(line.trim())?;
            let Some(Json::Obj(fields)) = doc.get("metrics") else {
                return None;
            };
            Some(RunResult {
                correct: doc.get("correct")? == &Json::Bool(true),
                attempted: doc.get("attempted")?.as_f64()?,
                failed: doc.get("failed")?.as_f64()?,
                metrics: fields
                    .iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                    .collect(),
            })
        })
    }

    /// The value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }
}

/// Quantile `q` in `[0, 1]` of `values`, interpolating linearly between
/// order statistics. `NaN` for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n => {
            let pos = q * (n - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// How one metric compared over the pairs of one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Head median worse than base median by more than the bound.
    Regressed,
    /// Head won at least nine pairs in ten and its median beats the
    /// base median by more than the base interquartile range.
    Gain,
    /// Neither.
    WithinBound,
}

/// One metric's comparison over paired runs.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Base `[q1, median, q3]`.
    pub base: [f64; 3],
    /// Head `[q1, median, q3]`.
    pub head: [f64; 3],
    /// Pairs in which the head value was strictly better.
    pub wins: usize,
    /// Number of pairs.
    pub pairs: usize,
    /// The judgement.
    pub verdict: Verdict,
}

impl Row {
    /// Compare paired values (`base[i]` and `head[i]` ran on the same
    /// seed) under `metric`'s direction and bound.
    pub fn compare(metric: &Metric, base: &[f64], head: &[f64]) -> Row {
        let quartiles = |v: &[f64]| [quantile(v, 0.25), quantile(v, 0.5), quantile(v, 0.75)];
        let (b, h) = (quartiles(base), quartiles(head));
        // Positive when the head is better, in the metric's units.
        let better = |base: f64, head: f64| {
            if metric.lower_is_better {
                base - head
            } else {
                head - base
            }
        };
        let wins = base
            .iter()
            .zip(head)
            .filter(|&(&b, &h)| better(b, h) > 0.0)
            .count();
        let pairs = base.len().min(head.len());
        let gain = better(b[1], h[1]);
        let verdict = if -gain > metric.bound * b[1].abs() {
            Verdict::Regressed
        } else if pairs > 0 && wins * 10 >= pairs * 9 && gain > b[2] - b[0] {
            Verdict::Gain
        } else {
            Verdict::WithinBound
        };
        Row {
            base: b,
            head: h,
            wins,
            pairs,
            verdict,
        }
    }
}

/// Render one workload's rows as a Markdown table.
pub fn table(workload: &str, rows: &[(&Metric, Row)]) -> String {
    let mut out = format!(
        "### {workload}\n\n| metric | base median [q1, q3] | head median [q1, q3] | change | head wins | verdict |\n|---|---|---|---|---|---|\n"
    );
    let num = |x: f64| {
        if x.abs() >= 1000.0 {
            format!("{x:.0}")
        } else if x.abs() >= 1.0 {
            format!("{x:.2}")
        } else {
            format!("{x:.4}")
        }
    };
    for (metric, row) in rows {
        let change = (row.head[1] - row.base[1]) / row.base[1] * 100.0;
        let verdict = match row.verdict {
            Verdict::Regressed => format!("REGRESSED (bound {:.0}%)", metric.bound * 100.0),
            Verdict::Gain => "gain".to_string(),
            Verdict::WithinBound => "within bound".to_string(),
        };
        let _ = writeln!(
            out,
            "| {} | {} [{}, {}] | {} [{}, {}] | {change:+.1}% | {}/{} | {verdict} |",
            metric.name,
            num(row.base[1]),
            num(row.base[0]),
            num(row.base[2]),
            num(row.head[1]),
            num(row.head[0]),
            num(row.head[2]),
            row.wins,
            row.pairs,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_reads_nested_documents_and_rejects_garbage() {
        let doc = Json::parse(r#" {"a": [1, -2.5e1, "x\"y"], "b": {"c": true, "d": null}} "#)
            .expect("valid document");
        let a = doc.get("a").and_then(Json::as_array).expect("array");
        assert_eq!(a[0], Json::Num(1.0));
        assert_eq!(a[1], Json::Num(-25.0));
        assert_eq!(a[2].as_str(), Some("x\"y"));
        assert_eq!(
            doc.get("b").and_then(|b| b.get("c")),
            Some(&Json::Bool(true))
        );
        assert_eq!(doc.get("b").and_then(|b| b.get("d")), Some(&Json::Null));
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "[1] x", "\"open"] {
            assert_eq!(Json::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn reads_the_checked_in_benchmark_declaration() {
        let text = include_str!("../../../BENCHMARK.json");
        let bench = Benchmark::parse(text).expect("BENCHMARK.json parses");
        assert_eq!(bench.command[0], "cargo");
        assert!(bench.run_seconds > 0);
        assert!(bench.workloads.iter().any(|w| w == "serve-ingest"));
        let tick = bench
            .metrics
            .iter()
            .find(|m| m.name == "tick_p50_us")
            .expect("tick_p50_us is end to end");
        assert!(tick.lower_is_better);
        assert!(tick.bound > 0.0);
    }

    #[test]
    fn runs_start_the_pinned_executable_not_cargo() {
        let bench = Benchmark::parse(include_str!("../../../BENCHMARK.json")).expect("parses");
        let pinned = "/work/target/bench-pair/head/healbench";
        let argv = bench.run_argv(pinned, "serve-read", 12);
        assert_eq!(argv[0], pinned);
        assert!(!argv.iter().any(|a| a == "cargo" || a == "--"), "{argv:?}");
        let tail: Vec<&str> = argv[argv.len() - 8..].iter().map(String::as_str).collect();
        let seconds = bench.run_seconds.to_string();
        assert_eq!(
            tail,
            [
                "--workload",
                "serve-read",
                "--seed",
                "12",
                "--seconds",
                &seconds,
                "--trace",
                "0"
            ]
        );
    }

    #[test]
    fn finds_the_built_executable_in_cargo_messages() {
        let out = concat!(
            r#"{"reason":"compiler-artifact","target":{"kind":["lib"],"name":"dep"},"executable":null}"#,
            "\n",
            r#"{"reason":"compiler-artifact","target":{"kind":["bin"],"name":"healbench"},"executable":"/w/target/release/healbench"}"#,
            "\n",
            r#"{"reason":"build-finished","success":true}"#,
            "\n"
        );
        assert_eq!(
            built_executable(out).as_deref(),
            Some("/w/target/release/healbench")
        );
        assert_eq!(built_executable("Compiling healbench\n"), None);
    }

    #[test]
    fn finds_the_result_line_in_run_output() {
        let out = "setup_s  0.01 s\n{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
                   \"metrics\": {\"events_per_s\": {\"value\": 2.5e5, \"unit\": \"1/s\"}}}\n";
        let run = RunResult::from_output(out).expect("result line");
        assert!(run.correct);
        assert_eq!((run.attempted, run.failed), (10.0, 0.0));
        assert_eq!(run.metric("events_per_s"), Some(250_000.0));
        assert_eq!(run.metric("missing"), None);
        assert_eq!(RunResult::from_output("no json here\n"), None);
    }

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let tick = Metric {
            name: "tick_p50_us".into(),
            lower_is_better: true,
            bound: 0.2,
        };
        let base = [
            100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 100.0,
        ];
        // Lower tick everywhere, by far more than the base IQR: a gain.
        let faster: Vec<f64> = base.iter().map(|b| b * 0.5).collect();
        let row = Row::compare(&tick, &base, &faster);
        assert_eq!((row.wins, row.pairs, row.verdict), (10, 10, Verdict::Gain));
        // 30% slower: past the 20% bound.
        let slower: Vec<f64> = base.iter().map(|b| b * 1.3).collect();
        assert_eq!(
            Row::compare(&tick, &base, &slower).verdict,
            Verdict::Regressed
        );
        // 10% slower: inside the bound.
        let slightly: Vec<f64> = base.iter().map(|b| b * 1.1).collect();
        assert_eq!(
            Row::compare(&tick, &base, &slightly).verdict,
            Verdict::WithinBound
        );
        // Higher-is-better flips the direction.
        let rate = Metric {
            lower_is_better: false,
            ..tick
        };
        assert_eq!(
            Row::compare(&rate, &base, &faster).verdict,
            Verdict::Regressed
        );
        assert!(table("w", &[(&rate, Row::compare(&rate, &base, &base))]).contains("| 0/10 |"));
    }
}

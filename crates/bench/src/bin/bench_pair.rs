//! Paired end-to-end comparison of a base revision against the working
//! tree, on the benchmark `BENCHMARK.json` declares.
//!
//! ```text
//! bench_pair --base <rev> [--pairs <k>] [--workloads <a,b,..>]
//! ```
//!
//! Run from the repository root (`make bench-pair BASE=<rev> PAIRS=<k>
//! [WORKLOADS=..]` does). It exports `<rev>` with `git archive` into
//! `target/bench-pair/base-src`, builds the benchmark there and in the
//! working tree, and copies each build's executable to
//! `target/bench-pair/{base,head}/`. Every run starts that copy, so an
//! edit made while the pairs run changes neither side. For each workload
//! it runs `k` pairs: seeds 11, 12, .. and, as the last pair, the
//! held-out seed from `healbench/meta.json`.
//! Within a pair the two sides alternate which runs first. It prints
//! one table per workload (see `selfheal_bench::pair` for the
//! verdicts) and exits 1 if any metric regressed past its bound or any
//! run failed a check or an operation.
//!
//! Building the benchmark rewrites its `Cargo.lock` when the lock lists
//! stale entries; the working tree's copy is restored when the tool
//! exits (after an interrupt, `git checkout healbench/Cargo.lock`).

use selfheal_bench::pair::{built_executable, table, Benchmark, Json, Row, RunResult, Verdict};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const BASE_SRC: &str = "target/bench-pair/base-src";
const PIN_DIR: &str = "target/bench-pair";
const FIRST_SEED: u64 = 11;
const LOCK: &str = "healbench/Cargo.lock";

struct Args {
    base: String,
    pairs: usize,
    workloads: Option<Vec<String>>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        base: String::new(),
        pairs: 10,
        workloads: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--base" => args.base = value.clone(),
            "--pairs" => {
                args.pairs = value
                    .parse()
                    .map_err(|_| format!("--pairs: bad number '{value}'"))?
            }
            "--workloads" if !value.is_empty() => {
                args.workloads = Some(value.split(',').map(str::to_string).collect())
            }
            "--workloads" => {}
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.base.is_empty() {
        return Err("--base is required".into());
    }
    if args.pairs == 0 {
        return Err("--pairs must be at least 1".into());
    }
    Ok(args)
}

/// Put the working tree's benchmark lock file back as it was.
struct RestoreLock(Option<Vec<u8>>);

impl Drop for RestoreLock {
    fn drop(&mut self) {
        if let Some(bytes) = &self.0 {
            if let Err(e) = std::fs::write(LOCK, bytes) {
                eprintln!("bench-pair: cannot restore {LOCK}: {e}");
            }
        }
    }
}

/// Export `rev` into `dir` (replacing it) with `git archive | tar -x`.
fn export(rev: &str, dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut git = Command::new("git")
        .args(["archive", "--format=tar", rev])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot run git: {e}"))?;
    let tar = Command::new("tar")
        .arg("-x")
        .arg("-C")
        .arg(dir)
        .stdin(git.stdout.take().ok_or("git archive has no stdout")?)
        .status()
        .map_err(|e| format!("cannot run tar: {e}"))?;
    let git = git.wait().map_err(|e| format!("git archive: {e}"))?;
    if git.success() && tar.success() {
        Ok(())
    } else {
        Err(format!("could not export revision '{rev}'"))
    }
}

/// The benchmark command with `run` swapped for `build`, its program
/// arguments dropped, and cargo's messages asked for as JSON.
fn build_command(command: &[String]) -> Vec<String> {
    command
        .iter()
        .take_while(|a| *a != "--")
        .map(|a| {
            if a == "run" {
                "build".into()
            } else {
                a.clone()
            }
        })
        .chain(["--message-format=json".into()])
        .collect()
}

/// Build the benchmark in `dir` and copy its executable to
/// `target/bench-pair/<side>/` (replacing that directory); returns the
/// copy's absolute path.
fn build_and_pin(dir: &Path, command: &[String], side: &str) -> Result<String, String> {
    eprintln!("bench-pair: building in {}", dir.display());
    let built = built_executable(&run_in(dir, &build_command(command))?).ok_or(format!(
        "the build in {} reported no executable",
        dir.display()
    ))?;
    let built = Path::new(&built);
    let pin_dir = Path::new(PIN_DIR).join(side);
    if pin_dir.exists() {
        std::fs::remove_dir_all(&pin_dir)
            .map_err(|e| format!("cannot clear {}: {e}", pin_dir.display()))?;
    }
    std::fs::create_dir_all(&pin_dir)
        .map_err(|e| format!("cannot create {}: {e}", pin_dir.display()))?;
    let pinned = pin_dir.join(built.file_name().ok_or("executable has no file name")?);
    std::fs::copy(built, &pinned)
        .and_then(|_| std::fs::canonicalize(&pinned))
        .map(|p| p.to_string_lossy().into_owned())
        .map_err(|e| format!("cannot pin {}: {e}", built.display()))
}

fn run_in(dir: &Path, argv: &[String]) -> Result<String, String> {
    let (program, rest) = argv.split_first().ok_or("empty command")?;
    let out = Command::new(program)
        .args(rest)
        .current_dir(dir)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {program}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    // A run that fails a check exits 1 but still prints its result.
    if out.status.success() || RunResult::from_output(&stdout).is_some() {
        Ok(stdout)
    } else {
        Err(format!(
            "`{}` failed in {}: {}",
            argv.join(" "),
            dir.display(),
            out.status
        ))
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench-pair: {e}");
            eprintln!("usage: bench_pair --base <rev> [--pairs <k>] [--workloads <a,b,..>]");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let bench = Benchmark::parse(&read("BENCHMARK.json")?).ok_or("cannot parse BENCHMARK.json")?;
    let held_out = Json::parse(&read("healbench/meta.json")?)
        .and_then(|m| m.get("held_out_seed")?.as_f64())
        .ok_or("healbench/meta.json has no held_out_seed")? as u64;
    let workloads = args.workloads.unwrap_or_else(|| bench.workloads.clone());
    if let Some(w) = workloads.iter().find(|w| !bench.workloads.contains(w)) {
        return Err(format!("unknown workload '{w}'"));
    }
    let seconds = bench.run_seconds;
    let seeds: Vec<u64> = (FIRST_SEED..)
        .take(args.pairs - 1)
        .chain([held_out])
        .collect();

    let _restore = RestoreLock(std::fs::read(LOCK).ok());
    let base_dir = PathBuf::from(BASE_SRC);
    let head_dir = PathBuf::from(".");
    export(&args.base, &base_dir)?;
    let binaries = [
        build_and_pin(&base_dir, &bench.command, "base")?,
        build_and_pin(&head_dir, &bench.command, "head")?,
    ];

    println!(
        "bench-pair: base {} vs working tree, {} pairs per workload (seeds {:?}), {seconds} s per run\n",
        args.base, args.pairs, seeds
    );
    let mut clean = true;
    for workload in &workloads {
        // values[side][metric][pair]; side 0 is the base.
        let mut values = vec![vec![Vec::new(); bench.metrics.len()]; 2];
        for (i, seed) in seeds.iter().enumerate() {
            let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
            for side in order {
                let dir = [&base_dir, &head_dir][side];
                let argv = bench.run_argv(&binaries[side], workload, *seed);
                let name = ["base", "head"][side];
                let run = RunResult::from_output(&run_in(dir, &argv)?)
                    .ok_or(format!("{workload} seed {seed} ({name}): no result line"))?;
                if !run.correct || run.failed > 0.0 {
                    clean = false;
                    println!(
                        "FAILED: {workload} seed {seed} ({name}): correct {}, {} of {} operations failed",
                        run.correct, run.failed, run.attempted
                    );
                }
                for (m, metric) in bench.metrics.iter().enumerate() {
                    let v = run
                        .metric(&metric.name)
                        .ok_or(format!("{workload} ({name}): no metric {}", metric.name))?;
                    values[side][m].push(v);
                }
                eprintln!("bench-pair: {workload} seed {seed} {name} done");
            }
        }
        let rows: Vec<_> = bench
            .metrics
            .iter()
            .enumerate()
            .map(|(m, metric)| (metric, Row::compare(metric, &values[0][m], &values[1][m])))
            .collect();
        clean &= rows.iter().all(|(_, r)| r.verdict != Verdict::Regressed);
        println!("{}", table(workload, &rows));
    }
    Ok(clean)
}

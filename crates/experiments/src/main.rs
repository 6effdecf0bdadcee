//! `run-experiments` — regenerate the paper's tables and figures, and
//! execute declarative scenario specs.
//!
//! ```text
//! run-experiments <fig8|fig9a|fig9b|fig10|theorem1|lowerbound|sweep|all>
//!                 [--quick|--full] [--seed N] [--threads N] [--csv DIR]
//!                 [--healer dash|sdash|both] [--parity]
//! run-experiments run --spec specs/rack_partition.scn [--events N]
//! ```

use selfheal_bench::alloc::CountingAlloc;
use selfheal_core::spec::HealerSpec;
use selfheal_experiments::{
    attacks, batchexp, config::Scale, familyrank, fig10, fig8, fig9, lowerbound, render, scale,
    servebench, specrun, sweep, theorem1, verify,
};
use selfheal_metrics::csv::write_figure_csv;
use selfheal_metrics::Figure;
use std::path::PathBuf;
use std::time::Instant;

/// Count heap allocations so the `scale` experiment can report total
/// allocator traffic; two relaxed atomics per allocation, negligible for
/// every other subcommand.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Options {
    command: String,
    scale: Scale,
    seed: u64,
    threads: usize,
    csv_dir: Option<PathBuf>,
    chart: bool,
    healers: Vec<HealerSpec>,
    parity: bool,
    spec: Option<PathBuf>,
    events: Option<u64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: run-experiments <fig8|fig9a|fig9b|fig10|theorem1|lowerbound|attacks|batch|sweep|all> \
         [--quick|--full] [--seed N] [--threads N] [--csv DIR] [--chart] \
         [--healer dash|sdash|both] [--parity]\n\
         \x20      run-experiments run --spec FILE.scn [--events N]\n\
         \x20      run-experiments verify [--full] [--threads N] [--seed N]\n\
         \x20      run-experiments scale [--full] [--seed N]\n\
         \x20      run-experiments family-rank [--full] [--seed N] [--threads N]\n\
         \x20      run-experiments serve-bench [--full] [--seed N] [--threads N]"
    );
    std::process::exit(2)
}

fn parse_args() -> Options {
    let mut args = std::env::args().skip(1);
    let mut opts = Options {
        command: String::new(),
        scale: Scale::Quick,
        seed: 20080124, // the paper's arXiv date
        threads: selfheal_graph::parallel::default_threads(),
        csv_dir: None,
        chart: false,
        healers: vec![HealerSpec::Dash],
        parity: false,
        spec: None,
        events: None,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.scale = Scale::Quick,
            "--full" => opts.scale = Scale::Full,
            "--chart" => opts.chart = true,
            "--parity" => opts.parity = true,
            "--healer" => {
                opts.healers = match args.next().as_deref() {
                    Some("both") => vec![HealerSpec::Dash, HealerSpec::Sdash],
                    // The sweep enforces Theorem 1 bounds, which only the
                    // paper's two algorithms satisfy — reject the naive
                    // baselines and the new families here (as the
                    // pre-spec CLI did) instead of burning a fleet run on
                    // a guaranteed failure. `family-rank` is the
                    // experiment that sweeps the full registry.
                    Some(name) => vec![HealerSpec::parse(name)
                        .filter(|h| matches!(h, HealerSpec::Dash | HealerSpec::Sdash))
                        .unwrap_or_else(|| usage())],
                    None => usage(),
                }
            }
            "--seed" => {
                opts.seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--threads" => {
                opts.threads = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--events" => {
                opts.events = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--spec" => opts.spec = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            "--csv" => opts.csv_dir = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            "--help" | "-h" => usage(),
            cmd if opts.command.is_empty() && !cmd.starts_with('-') => {
                opts.command = cmd.to_string()
            }
            _ => usage(),
        }
    }
    if opts.command.is_empty() {
        opts.command = "all".to_string();
    }
    let known = [
        "fig8",
        "fig9a",
        "fig9b",
        "fig10",
        "theorem1",
        "lowerbound",
        "attacks",
        "batch",
        "sweep",
        "run",
        "verify",
        "scale",
        "family-rank",
        "serve-bench",
        "all",
    ];
    if !known.contains(&opts.command.as_str()) {
        usage();
    }
    opts
}

fn emit_figure(fig: &Figure, slug: &str, opts: &Options) {
    println!("{}", render::figure_table(fig));
    if opts.chart {
        println!(
            "{}",
            selfheal_metrics::plot::render(fig, selfheal_metrics::plot::PlotConfig::default())
        );
    }
    if let Some(dir) = &opts.csv_dir {
        std::fs::create_dir_all(dir).expect("create csv dir");
        let path = dir.join(format!("{slug}.csv"));
        write_figure_csv(fig, &path).expect("write csv");
        println!("wrote {}", path.display());
    }
}

/// The `run` subcommand: execute one declarative spec. Any invalid or
/// unparseable spec exits nonzero with a readable message (never a
/// panic); a valid run with violations also fails the process so specs
/// double as CI gates (`make spec-check`).
fn run_spec_command(opts: &Options) -> ! {
    let Some(path) = &opts.spec else {
        eprintln!("run-experiments run: missing --spec FILE.scn");
        std::process::exit(2);
    };
    match specrun::run_spec_file(path, opts.events) {
        Ok(summary) => {
            println!("# {}", path.display());
            print!("{}", summary.render());
            if summary.clean() {
                std::process::exit(0);
            }
            eprintln!("FAILED: spec run reported violations");
            std::process::exit(1);
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
    }
}

/// The `verify` subcommand (E10): the exhaustive small-world prover and
/// the interleaving schedule explorer as a CI gate. Quick runs the
/// universe to n <= 6; `--full` raises it to n <= 7. Any theorem or
/// parity violation fails the process.
fn verify_command(opts: &Options) -> ! {
    let t0 = Instant::now();
    let full = matches!(opts.scale, Scale::Full);
    println!(
        "# E10: exhaustive prover + schedule explorer — {}, seed {}, {} threads\n",
        if full {
            "full (n <= 7)"
        } else {
            "quick (n <= 6)"
        },
        opts.seed,
        opts.threads
    );
    let summary = verify::run(full, opts.threads, opts.seed);
    print!("{}", verify::render(&summary));
    println!("done in {:.1?}", t0.elapsed());
    if summary.clean() {
        std::process::exit(0);
    }
    eprintln!("FAILED: exhaustive verification reported violations");
    std::process::exit(1);
}

/// The `scale` subcommand (E11): million-node healing throughput.
/// Deliberately *not* part of `all` — `make figures` runs `all --quick`
/// and has no business healing 10⁶ nodes — so, like `run` and `verify`,
/// it dispatches before the figure cascade.
fn scale_command(opts: &Options) -> ! {
    let t0 = Instant::now();
    println!(
        "# E11: million-node healing throughput — {:?}, seed {}\n",
        opts.scale, opts.seed
    );
    let report = scale::run(opts.scale, opts.seed);
    print!("{}", scale::render(&report.rows));
    print!("\n{}", scale::render_ladder(&report.ladder));
    println!("\ndone in {:.1?}", t0.elapsed());
    if report.rows.iter().all(|r| r.healed_to_empty) {
        std::process::exit(0);
    }
    eprintln!("FAILED: a configuration left live nodes behind");
    std::process::exit(1);
}

/// The `family-rank` subcommand (E12): every registered healer family ×
/// the full adversary library at equal budgets, folded into one
/// deterministic ranking table. The table goes to stdout byte-identically
/// for any `--threads` value (`make family-rank-check` pins this against
/// a golden); timing goes to stderr to keep the golden stable. Not part
/// of `all` — like `verify`, it sweeps healers the figure experiments
/// deliberately exclude.
fn family_rank_command(opts: &Options) -> ! {
    let t0 = Instant::now();
    println!(
        "# E12: healer family ranking — {:?}, seed {}\n",
        opts.scale, opts.seed
    );
    let rows = familyrank::run(opts.scale, opts.seed, opts.threads);
    print!("{}", familyrank::render(&rows));
    eprintln!("done in {:.1?}", t0.elapsed());
    std::process::exit(0);
}

/// The `serve-bench` subcommand (E13): the healing-as-a-service soak —
/// four tenant shards under deterministic churn streams with snapshot
/// readers hammering the snapshot slots throughout. The summary table
/// goes to stdout byte-identically for any `--threads` value (`make
/// serve-check` pins the quick tier against a golden at 1/2/8 workers);
/// throughput goes to stderr to keep the golden stable. Not part of
/// `all` — like `scale`, it measures a serving workload, not a paper
/// figure.
fn serve_bench_command(opts: &Options) -> ! {
    let t0 = Instant::now();
    println!(
        "# E13: healing-as-a-service soak — {:?}, seed {}\n",
        opts.scale, opts.seed
    );
    let soak = servebench::run(opts.scale, opts.seed, opts.threads);
    print!("{}", servebench::render(&soak.rows));
    let secs = t0.elapsed().as_secs_f64();
    for row in &soak.rows {
        eprintln!(
            "shard {}: {:.0} events/s",
            row.tenant,
            (row.stats.events + row.stats.skipped) as f64 / secs
        );
    }
    eprintln!(
        "snapshot reads under churn: {} ({:.0}/s)",
        soak.snapshot_reads,
        soak.snapshot_reads as f64 / secs
    );
    eprintln!("done in {:.1?}", t0.elapsed());
    let findings: usize = soak.rows.iter().map(|r| r.findings).sum();
    if findings == 0 {
        std::process::exit(0);
    }
    eprintln!("FAILED: the soak reported audit findings");
    std::process::exit(1);
}

fn main() {
    let opts = parse_args();
    if opts.command == "run" {
        run_spec_command(&opts);
    }
    if opts.command == "verify" {
        verify_command(&opts);
    }
    if opts.command == "scale" {
        scale_command(&opts);
    }
    if opts.command == "family-rank" {
        family_rank_command(&opts);
    }
    if opts.command == "serve-bench" {
        serve_bench_command(&opts);
    }
    let t0 = Instant::now();
    let run = |name: &str| opts.command == name || opts.command == "all";

    println!(
        "# self-healing experiment harness — scale {:?}, seed {}, {} threads\n",
        opts.scale, opts.seed, opts.threads
    );

    if run("fig8") {
        let fig = fig8::run(opts.scale, opts.seed, opts.threads);
        emit_figure(&fig, "fig8_degree_increase", &opts);
    }
    if run("fig9a") {
        let fig = fig9::run_id_changes(opts.scale, opts.seed, opts.threads);
        emit_figure(&fig, "fig9a_id_changes", &opts);
    }
    if run("fig9b") {
        let fig = fig9::run_messages(opts.scale, opts.seed, opts.threads);
        emit_figure(&fig, "fig9b_messages", &opts);
    }
    if run("fig10") {
        let fig = fig10::run(opts.scale, opts.seed, opts.threads);
        emit_figure(&fig, "fig10_stretch", &opts);
    }
    if run("theorem1") {
        let rows = theorem1::run(opts.scale, opts.seed, opts.threads);
        println!(
            "Theorem 1 validation (DASH, all attacks)\n{}",
            theorem1::render(&rows)
        );
        let violations = rows.iter().filter(|r| !r.all_ok).count();
        println!("bound violations: {violations}\n");
    }
    if run("lowerbound") {
        let results = lowerbound::run(opts.scale, opts.seed);
        println!(
            "Theorem 2 LEVELATTACK lower bound\n{}",
            lowerbound::render(&results)
        );
    }
    if run("attacks") {
        for healer in [HealerSpec::Dash, HealerSpec::GraphHeal] {
            let fig = attacks::run_degree(opts.scale, healer, opts.seed, opts.threads);
            emit_figure(&fig, &format!("e7_attacks_{}", healer.name()), &opts);
        }
    }
    if run("batch") {
        let rows = batchexp::run(opts.scale, opts.seed);
        println!(
            "E8: simultaneous (batch) deletions with DASH\n{}",
            batchexp::render(&rows)
        );
    }
    let mut sweep_violations = 0usize;
    if run("sweep") {
        let rows = sweep::run(
            opts.scale,
            opts.seed,
            opts.threads,
            &opts.healers,
            opts.parity,
        );
        println!(
            "E9: parallel sweep fleet (theorem auditors on)\n{}",
            sweep::render(&rows)
        );
        sweep_violations = rows.iter().map(|r| r.aggregate.violations.len()).sum();
    }

    println!("done in {:.1?}", t0.elapsed());
    if sweep_violations > 0 {
        // The sweep is a gate (`make sweep-check`): bound violations must
        // fail the process, not just print.
        eprintln!("FAILED: {sweep_violations} theorem-bound violations in the sweep fleet");
        std::process::exit(1);
    }
}

//! `selfheal-serve` — serve a directory of `.scn` specs as healing
//! shards and drive them from stdin or a replay file.
//!
//! ```text
//! selfheal-serve --specs <dir> [--tenants a,b] [--threads N] [--replay <file>]
//! ```
//!
//! Protocol lines arrive one per line (see `proto`); responses and the
//! final per-tenant reports go to stdout. Everything printed is
//! deterministic in (specs, input stream) — worker count changes
//! nothing — so a replay's output can be pinned as a golden file.

use selfheal_serve::Cluster;
use std::io::BufRead;
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    specs: PathBuf,
    tenants: Vec<String>,
    threads: usize,
    replay: Option<PathBuf>,
}

const USAGE: &str =
    "usage: selfheal-serve --specs <dir> [--tenants a,b] [--threads N] [--replay <file>]";

fn parse_args() -> Result<Options, String> {
    let mut specs: Option<PathBuf> = None;
    let mut tenants = Vec::new();
    let mut threads = selfheal_graph::parallel::default_threads();
    let mut replay = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--specs" => specs = Some(PathBuf::from(value("--specs")?)),
            "--tenants" => {
                tenants = value("--tenants")?
                    .split(',')
                    .map(|t| t.trim().to_string())
                    .filter(|t| !t.is_empty())
                    .collect();
            }
            "--threads" => {
                let v = value("--threads")?;
                threads = v
                    .parse()
                    .map_err(|_| format!("invalid --threads '{v}'\n{USAGE}"))?;
            }
            "--replay" => replay = Some(PathBuf::from(value("--replay")?)),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(Options {
        specs: specs.ok_or_else(|| format!("--specs is required\n{USAGE}"))?,
        tenants,
        threads,
        replay,
    })
}

fn run(opts: &Options) -> Result<(), String> {
    let mut cluster = Cluster::new(opts.threads);
    let filter: Vec<&str> = opts.tenants.iter().map(String::as_str).collect();
    let notices = cluster.load_dir(
        &opts.specs,
        if filter.is_empty() {
            None
        } else {
            Some(&filter)
        },
    )?;
    if cluster.tenants().is_empty() {
        return Err(format!(
            "no servable specs in '{}'{}",
            opts.specs.display(),
            if notices.is_empty() {
                String::new()
            } else {
                format!("\n{}", notices.join("\n"))
            }
        ));
    }
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let emit = |out: &mut dyn std::io::Write, line: &str| {
        // A broken pipe downstream is not our error; stop quietly.
        writeln!(out, "{line}").map_err(|_| "stdout closed".to_string())
    };
    for notice in &notices {
        emit(&mut out, &format!("notice: {notice}"))?;
    }
    emit(
        &mut out,
        &format!("serving {}", cluster.tenants().join(" ")),
    )?;

    // One line buffer for the whole input, so reading a line allocates
    // only while the buffer grows to the longest line.
    let drive = |cluster: &Cluster,
                 out: &mut dyn std::io::Write,
                 input: &mut dyn BufRead|
     -> Result<(), String> {
        let mut buf = String::new();
        loop {
            buf.clear();
            match input.read_line(&mut buf) {
                Ok(0) => return Ok(()),
                Ok(_) => {}
                Err(e) => return Err(format!("input error: {e}")),
            }
            // The line without its `\n` or `\r\n`, as `BufRead::lines`
            // yields it.
            let line = match buf.strip_suffix('\n') {
                Some(line) => line.strip_suffix('\r').unwrap_or(line),
                None => &buf,
            };
            if let Some(response) = cluster.handle_line(line) {
                emit(out, &response)?;
            }
        }
    };
    match &opts.replay {
        Some(path) => {
            let file = std::fs::File::open(path)
                .map_err(|e| format!("cannot open replay '{}': {e}", path.display()))?;
            drive(&cluster, &mut out, &mut std::io::BufReader::new(file))?;
        }
        None => drive(&cluster, &mut out, &mut std::io::stdin().lock())?,
    }

    let (applied, skipped) = cluster.run_to_quiescence();
    emit(
        &mut out,
        &format!("quiescent applied {applied} skipped {skipped}"),
    )?;
    let report = cluster.finish();
    emit(&mut out, report.trim_end())?;
    Ok(())
}

fn main() -> ExitCode {
    match parse_args().and_then(|opts| run(&opts)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

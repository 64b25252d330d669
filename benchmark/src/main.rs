//! `ledger` — the repo's one perf ledger.  See `benchmark/README.md`.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (what BENCHMARK.json's command drives)
//! ledger all   [--seed <n>] [--seconds <s>]   every workload in its own process, then every traced run
//! ledger trace <workload> [--seed <n>] [--seconds <s>]             one traced run
//! ledger check                                 smoke test against BENCHMARK.json, under ten seconds
//! ledger aa    [--seed <n>] [--seconds <s>]   the whole set twice, differences next to their bounds
//! ledger spread [--seed <n>] [--seconds <s>]  ten seeds per workload, quartile spread next to a third of the bound
//! ```

mod api;
mod inputs;
mod json;
mod layers;
mod oracle;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

/// The default `--seed` (the paper's conference opened on 2008-04-07).
const DEFAULT_SEED: u64 = 20080407;

struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: run::DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => flags.workload = Some(value()?.clone()),
            "--seed" => flags.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                flags.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(flags.seconds >= 0.0 && flags.seconds <= 600.0) {
                    return Err("--seconds must lie between 0 and 600".into());
                }
            }
            "--trace" => {
                flags.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(flags)
}

const USAGE: &str =
    "usage: ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
                     ledger all|aa|spread [--seed <n>] [--seconds <s>]\n       \
                     ledger trace <workload> [--seed <n>] [--seconds <s>]\n       \
                     ledger check";

fn dispatch(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some(flag) if flag.starts_with("--") => {
            let flags = parse_flags(args)?;
            let workload = flags.workload.ok_or("--workload is required")?;
            report::single(&workload, flags.seed, flags.seconds, flags.trace)
        }
        Some("trace") => {
            let workload = args.get(1).ok_or(USAGE)?;
            let flags = parse_flags(&args[2..])?;
            report::single(workload, flags.seed, flags.seconds, true)
        }
        Some("all") => {
            let flags = parse_flags(&args[1..])?;
            report::all(flags.seed, flags.seconds)
        }
        Some("aa") => {
            let flags = parse_flags(&args[1..])?;
            report::aa(flags.seed, flags.seconds)
        }
        Some("spread") => {
            let flags = parse_flags(&args[1..])?;
            report::spread(flags.seed, flags.seconds, 10)
        }
        Some("check") => report::check(DEFAULT_SEED),
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("ledger: {message}");
            ExitCode::FAILURE
        }
    }
}

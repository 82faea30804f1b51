//! The SeqFM benchmark binary: runs one workload for a fixed time, checks
//! its outputs, and prints its metrics as one JSON object on the last line
//! of standard output. `run.py` builds it and is the command to run; see
//! README.md for the workloads and metrics.
//!
//! ```text
//! seqfm-perfbench --workload <rank_stored|catalog_topk|online_loop>
//!                 --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//! ```

mod catalog_topk;
mod common;
mod online_loop;
mod rank_stored;
mod stats;
mod trace;

use common::{Opts, Report};
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["rank_stored", "catalog_topk", "online_loop"];

fn parse(args: &[String]) -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut opts = Opts { seed: 1, seconds: 10.0, trace: false, spans: None };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(bad(&format!("expected one of {WORKLOADS:?}"))),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| bad("expected seconds in (0, 600]"))?
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--spans" => opts.spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, opts))
}

/// Writes a traced run's spans where `--spans` points.
pub fn write_spans(opts: &Opts, tracer: &trace::Tracer, rep: &mut Report) {
    if let Some(path) = &opts.spans {
        match tracer.write_jsonl(path) {
            Ok(()) => rep.note(format!("spans: {}", path.display())),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = match workload.as_str() {
        "rank_stored" => rank_stored::run(&opts),
        "catalog_topk" => catalog_topk::run(&opts),
        _ => online_loop::run(&opts),
    };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.notes.insert(0, format!("host_cpus: {cpus}"));
    report.notes.insert(1, format!("avx2 build: {}", cfg!(target_feature = "avx2")));
    report.print();
    ExitCode::SUCCESS
}

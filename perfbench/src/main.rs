//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! perfbench --workload reorder|query|serve [--seed N] [--seconds N]
//!           [--trace 0|1] [--repeat N]
//! ```
//!
//! One run builds its inputs from `--seed`, sets the system up, drives it
//! for `--seconds`, checks every output, and prints one JSON line: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of a traced
//! run with `--trace 1`. `--repeat N` is the steadiness report: it runs
//! the workload N times, on seeds `--seed`, `--seed`+1, …, in child
//! processes and prints each metric's median, quartiles and range.
//! README.md describes the workloads and metrics.

mod common;
mod query_wl;
mod reorder_wl;
mod serve_wl;
mod steady;

use common::Args;

const USAGE: &str = "usage: perfbench --workload reorder|query|serve [--seed N] [--seconds N] \
                     [--trace 0|1] [--repeat N]";

/// The seed a run uses when none is given.
const DEFAULT_SEED: u64 = 1;

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30,
        trace: false,
        repeat: 0,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            "--repeat" => args.repeat = number()? as usize,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !["reorder", "query", "serve"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("daemon") => std::process::exit(serve_wl::daemon_main(&argv[1..])),
        Some("rss-reorder") => std::process::exit(reorder_wl::rss_probe_main()),
        Some("rss-query") => std::process::exit(query_wl::rss_probe_main()),
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.repeat > 0 {
        std::process::exit(steady::report(&args));
    }
    let outcome = match args.workload.as_str() {
        "reorder" => reorder_wl::run(&args),
        "query" => query_wl::run(&args),
        _ => serve_wl::run(&args),
    };
    for error in &outcome.errors {
        eprintln!("perfbench: check failed: {error}");
    }
    println!("{}", outcome.to_json(args.trace));
    std::process::exit(if outcome.correct() { 0 } else { 1 });
}

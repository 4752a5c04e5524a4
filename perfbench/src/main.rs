//! `perfbench`, the repository benchmark.
//!
//! One run executes one workload end to end through the harness's
//! public API — cold campaign, memoized rerun, daemon set-up, open-loop
//! serve traffic with submitted jobs — verifies every output, prints
//! each metric by name and unit, and ends with one JSON result line.
//! `--trace 1` runs the same workload with span-recording scenario
//! wrappers and reports the per-layer metrics instead. See README.md
//! beside this crate.

mod layers;
mod loadgen;
mod report;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload campaign-cold|gen-sweep --seed N --seconds S --trace 0|1";

/// The largest seed whose successor (the submitted job's seed) still
/// travels exactly as a JSON number.
const MAX_SEED: u64 = (1 << 53) - 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 42,
        seconds: 50.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => parsed.workload = value,
            "--seed" => {
                parsed.seed = value
                    .parse()
                    .ok()
                    .filter(|seed| *seed <= MAX_SEED)
                    .ok_or_else(|| {
                        format!("--seed {value}: expected an integer up to {MAX_SEED}")
                    })?;
            }
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 120.0)
                    .ok_or_else(|| format!("--seconds {value}: expected a number in (0, 120]"))?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(parsed)
}

/// A run's scratch directory, removed however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(plan) = workload::Plan::named(&args.workload) else {
        eprintln!("perfbench: unknown workload `{}`\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    // Everything a run writes stays under the directory it is started
    // from (the repository root): scratch stores in a per-run directory,
    // and the traced run's trace file, kept for inspection.
    let root = PathBuf::from(".bench_work");
    let work = WorkDir(root.join(format!("{}-{}", plan.name, std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&work.0) {
        eprintln!("perfbench: mkdir {}: {e}", work.0.display());
        return ExitCode::FAILURE;
    }
    let trace = root.join(format!("{}.trace.json", plan.name));
    let outcome = match workload::run(&plan, args.seed, args.seconds, args.trace, &work.0, &trace) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", outcome.report.table());
    for problem in &outcome.mismatches {
        eprintln!("perfbench: verification failed: {problem}");
    }
    let correct = outcome.mismatches.is_empty() && outcome.failed == 0;
    let names = if args.trace {
        layers::per_layer()
    } else {
        workload::end_to_end()
    };
    match outcome
        .report
        .result_line(&names, correct, outcome.attempted, outcome.failed)
    {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

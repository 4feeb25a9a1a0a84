//! Benchmark of the agent grid: one command runs a named workload at a
//! seed, checks its outputs, and prints every end-to-end metric
//! (`--trace 0`) or every per-layer metric (`--trace 1`) as the last
//! line of standard output. See `NOTES.md` for the metrics and
//! workloads.

use std::process::ExitCode;
use std::time::Duration;

mod alloc;
mod measure;
mod output;
mod stats;
mod trace;
mod workload;

use workload::{Kind, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<String>,
}

const USAGE: &str =
    "usage: gridbench --workload <fleet|history|federated> --seed <n> --seconds <n> --trace <0|1> \
     [--spans <path>]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace, mut spans) = (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(55),
        trace: trace.unwrap_or(false),
        spans,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("gridbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workload = Workload::new(args.kind, args.seed);
    let budget = Duration::from_secs(args.seconds);
    let result = if args.trace {
        trace::run(&workload, budget, args.spans.as_deref())
    } else {
        measure::run(&workload, budget)
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("gridbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for problem in &outcome.problems {
        eprintln!("gridbench: check failed: {problem}");
    }
    let correct = outcome.problems.is_empty();
    println!(
        "{}",
        output::render(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

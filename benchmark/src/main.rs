//! The repository benchmark. See `benchmark/README.md`.
//!
//! ```text
//! dsm-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!               [--sets 2] [--quick]
//! ```
//!
//! Without `--workload` every workload runs in turn. Each run prints a
//! table and, as the last line of standard output, one JSON result object.

#![forbid(unsafe_code)]

mod json;
mod kv;
mod kvtrace;
mod layers;
mod metrics;
mod proc;
mod record;
mod rep;
mod runner;
mod sor;
mod spans;
mod stats;

use json::Json;
use runner::{RunConfig, RunOutcome, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The seed of a run nobody chose one for: the paper's year.
const DEFAULT_SEED: u64 = 2004;
const DEFAULT_SECONDS: f64 = 25.0;

#[derive(Debug)]
struct Args {
    child: Option<String>,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: usize,
    quick: bool,
    reduced: bool,
    spans: Option<PathBuf>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        child: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        sets: 1,
        quick: false,
        reduced: false,
        spans: None,
    };
    while let Some(flag) = argv.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--child" => args.child = Some(value),
            "--workload" => args.workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--sets" => {
                args.sets = value
                    .parse()
                    .ok()
                    .filter(|n| (1..=2).contains(n))
                    .ok_or_else(bad)?
            }
            "--size" => {
                args.reduced = match value.as_str() {
                    "full" => false,
                    "reduced" => true,
                    _ => return Err(bad()),
                }
            }
            "--spans" => args.spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.trace && args.sets == 2 {
        return Err("--sets 2 compares end-to-end medians: use it with --trace 0".into());
    }
    Ok(args)
}

/// The child side of a rep or of the layer microbenches: do the work in
/// this process and print one JSON line for the parent.
fn child(args: &Args, mode: &str, base: Instant) -> Result<(), String> {
    match mode {
        "rep" => {
            let workload = args.workload.ok_or("--child rep needs --workload")?;
            // A node thread that panics leaves its peers parked on a barrier
            // for good (README.md, Known failures). The rep is lost either
            // way; dying at once spares the run the watchdog's wait. The
            // default hook has printed the message by then.
            let default_hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                default_hook(info);
                std::process::exit(101);
            }));
            let result = workload.run_rep(args.seed, args.reduced, base, args.spans.as_deref());
            println!("{}", result.to_json().emit());
        }
        "layers" => {
            let rows = layers::run_all();
            for (name, value, iterations) in &rows.0 {
                eprintln!("layer {name:<40} {value:>14.3}  n={iterations}");
            }
            let values = rows.0.iter().map(|(name, value, iterations)| {
                (
                    *name,
                    Json::Arr(vec![Json::Num(*value), Json::Num(*iterations as f64)]),
                )
            });
            println!("{}", Json::obj(values).emit());
        }
        other => return Err(format!("unknown child mode {other}")),
    }
    Ok(())
}

/// Every selected workload in turn; per workload one outcome, or with
/// `--sets 2` the outcomes of its two interleaved sets. A traced run
/// measures the layer microbenches once, inside the first workload's
/// seconds.
fn run_workloads(args: &Args, workloads: &[Workload]) -> Vec<Vec<RunOutcome>> {
    let mut started = Instant::now();
    let layers = args.trace.then(runner::run_layers);
    workloads
        .iter()
        .map(|&workload| {
            let config = RunConfig {
                workload,
                seed: args.seed,
                seconds: args.seconds,
                quick: args.quick,
            };
            let outcomes = match &layers {
                Some(layers) => vec![runner::run_traced(config, layers, started)],
                None => runner::run_end_to_end(config, args.sets),
            };
            started = Instant::now();
            for (outcome, set) in outcomes.iter().zip(["A", "B"]) {
                if outcomes.len() > 1 {
                    println!("-- set {set} --");
                }
                print!("{}", outcome.report());
            }
            outcomes
        })
        .collect()
}

fn main() -> ExitCode {
    let base = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dsm-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(mode) = &args.child {
        return match child(&args, mode, base) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("dsm-benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }

    let workloads: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    println!(
        "seed {}  seconds {}  trace {}  sets {}  cpus {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.sets,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let outcomes = run_workloads(&args, &workloads);
    let mut agree = true;
    if args.sets == 2 {
        let (mut within, mut unresolved) = (0, 0);
        for sets in &outcomes {
            let verdict = runner::compare_sets(&sets[0], &sets[1]);
            for line in &verdict.disagree {
                println!("SETS DISAGREE: {line}");
            }
            for line in &verdict.unresolved {
                println!("UNRESOLVED: {line}");
            }
            agree &= verdict.disagree.is_empty();
            unresolved += verdict.unresolved.len();
            within += sets[0].metrics.len() - verdict.disagree.len() - verdict.unresolved.len();
        }
        if agree {
            println!(
                "sets agree: {within} end-to-end medians within their bounds, {unresolved} unresolved"
            );
        }
    }
    for sets in &outcomes {
        println!("{}", sets[0].result_line());
    }
    // A measuring run has said what it found in its result line and exits
    // 0; the self-checks (`--sets 2`, `--quick`) answer with the exit code.
    let checking = args.sets == 2 || args.quick;
    if checking && !(agree && outcomes.iter().flatten().all(|o| o.correct)) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

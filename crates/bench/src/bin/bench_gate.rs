//! The benchmark-regression gate binary.
//!
//! Runs the deterministic gate workloads (Figure 2 / Figure 3 SOR and ASP
//! plus the ablation's synthetic pattern) in both flush-batching modes,
//! writes the results as JSON, verifies the batching acceptance claims, and
//! fails if modeled message counts or modeled time regress more than 5 %
//! against the committed `bench/baseline.json`.
//!
//! Usage:
//!
//! ```text
//! cargo run -p dsm-bench --release --bin bench_gate [options]
//!   --output PATH           where to write the fresh results
//!                           (default: BENCH_PR.json)
//!   --baseline PATH         baseline to compare against
//!                           (default: bench/baseline.json)
//!   --write-baseline        overwrite the baseline with this run and exit
//!   --tolerance PCT         allowed regression in percent (default: 5)
//!   --full                  paper-scale workloads instead of small ones
//! ```
//!
//! The same entry point runs locally through `scripts/bench_gate.sh`.

use dsm_bench::gate;
use dsm_bench::Scale;
use std::process::ExitCode;

struct Options {
    output: String,
    baseline: String,
    write_baseline: bool,
    tolerance: f64,
}

fn parse_args() -> Options {
    let mut options = Options {
        output: "BENCH_PR.json".to_string(),
        baseline: "bench/baseline.json".to_string(),
        write_baseline: false,
        tolerance: gate::DEFAULT_TOLERANCE,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--output" => options.output = args.next().expect("--output needs a path"),
            "--baseline" => options.baseline = args.next().expect("--baseline needs a path"),
            "--write-baseline" => options.write_baseline = true,
            "--tolerance" => {
                let pct: f64 = args
                    .next()
                    .expect("--tolerance needs a percentage")
                    .parse()
                    .expect("--tolerance must be a number");
                options.tolerance = pct / 100.0;
            }
            // Scale flags are consumed by Scale::from_args.
            "--full" | "--paper" => {}
            other => panic!("unknown argument {other:?}"),
        }
    }
    options
}

fn main() -> ExitCode {
    let options = parse_args();
    let scale = Scale::from_args();
    eprintln!("collecting gate workloads at {scale:?} scale (both flush-batching modes) ...");
    let rows = gate::collect(scale);

    println!("Benchmark gate — modeled workloads, batched vs. unbatched\n");
    println!("{}", gate::render(&rows).render());

    if options.write_baseline {
        std::fs::write(&options.baseline, gate::to_json(&rows))
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", options.baseline));
        println!("baseline written to {}", options.baseline);
        return ExitCode::SUCCESS;
    }

    // The throughput harness shares the output document; keep its section
    // if the file already has one, so the two gates can run in either
    // order — and salvage whatever a truncated or corrupt file still
    // carries rather than silently dropping the other gate's results.
    let existing = dsm_bench::throughput::read_for_merge(&options.output);
    for warning in &existing.warnings {
        eprintln!("warning: {warning} — keeping the rows that survived");
    }
    let document = if existing.throughput.is_empty() {
        gate::to_json(&rows)
    } else {
        dsm_bench::throughput::document_json(&rows, &existing.throughput)
    };
    std::fs::write(&options.output, document)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", options.output));
    println!("results written to {}", options.output);

    let mut failures = gate::check_internal(&rows);
    match std::fs::read_to_string(&options.baseline) {
        Ok(text) => {
            let baseline = gate::parse_json(&text)
                .unwrap_or_else(|e| panic!("cannot parse {}: {e}", options.baseline));
            failures.extend(gate::compare(&rows, &baseline, options.tolerance));
        }
        Err(e) => {
            // A missing baseline is a hard failure in CI: the gate would
            // otherwise silently pass on a branch that deleted it.
            failures.push(format!("cannot read baseline {}: {e}", options.baseline));
        }
    }

    if failures.is_empty() {
        println!("\ngate PASS (tolerance {:.0}%)", options.tolerance * 100.0);
        ExitCode::SUCCESS
    } else {
        eprintln!("\ngate FAIL:");
        for failure in &failures {
            eprintln!("  - {failure}");
        }
        ExitCode::FAILURE
    }
}

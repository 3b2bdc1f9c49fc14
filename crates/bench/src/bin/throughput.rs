//! The wall-clock throughput harness binary.
//!
//! Runs the Zipfian KV serving workload (`dsm_apps::kv`) under every
//! built-in home-migration policy on a real fabric and reports wall-clock
//! ops/sec, p50/p95/p99 per-operation latency, and per-policy migration
//! behaviour (migrations, migrate-backs, redirects per 1k ops). Results are
//! merged into the `throughput` section of `BENCH_PR.json`, next to the
//! modeled gate's `workloads` section.
//!
//! Usage:
//!
//! ```text
//! cargo run -p dsm-bench --release --bin throughput [options]
//!   --gate                  gate mode: the smaller CI op count, plus a
//!                           regression comparison against the committed
//!                           baseline (default mode only checks the
//!                           per-policy sanity invariants)
//!   --output PATH           where to merge the results
//!                           (default: BENCH_PR.json)
//!   --baseline PATH         baseline for --gate comparisons
//!                           (default: bench/throughput_baseline.json)
//!   --write-baseline        overwrite the baseline with this run and exit
//!   --ops N                 override operations per node
//!   --nodes N               cluster size (default: 4)
//!   --seed N                cluster seed (default: 2004; decimal or 0x hex)
//!   --fabric threaded|tcp   fabric to measure on (default: threaded; the
//!                           sim fabric is rejected — it runs on a virtual
//!                           clock, so wall-clock ops/sec is meaningless)
//!   --band FACTOR           allowed ops/sec slowdown factor vs the
//!                           baseline (default: 5)
//!   --tolerance PCT         allowed message growth in percent (default: 25)
//! ```
//!
//! `scripts/bench_gate.sh` runs this in `--gate` mode after the modeled
//! gate, so both sections of `BENCH_PR.json` are produced locally by one
//! command.

use dsm_apps::kv::KvParams;
use dsm_bench::{fabric_from_args, throughput};
use dsm_runtime::FabricMode;
use std::process::ExitCode;

struct Options {
    output: String,
    baseline: String,
    write_baseline: bool,
    gate: bool,
    nodes: usize,
    ops: Option<u64>,
    seed: u64,
    band: f64,
    tolerance: f64,
}

fn parse_args() -> Options {
    let mut options = Options {
        output: "BENCH_PR.json".to_string(),
        baseline: "bench/throughput_baseline.json".to_string(),
        write_baseline: false,
        gate: false,
        nodes: 4,
        ops: None,
        seed: 2004,
        band: throughput::DEFAULT_WALL_BAND,
        tolerance: throughput::DEFAULT_MESSAGE_TOLERANCE,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--output" => options.output = args.next().expect("--output needs a path"),
            "--baseline" => options.baseline = args.next().expect("--baseline needs a path"),
            "--write-baseline" => options.write_baseline = true,
            "--gate" => options.gate = true,
            "--nodes" => {
                options.nodes = args
                    .next()
                    .expect("--nodes needs a count")
                    .parse()
                    .expect("--nodes must be a number");
            }
            "--ops" => {
                options.ops = Some(
                    args.next()
                        .expect("--ops needs a count")
                        .parse()
                        .expect("--ops must be a number"),
                );
            }
            "--seed" => {
                let s = args.next().expect("--seed needs a value");
                options.seed = dsm_util::parse_seed(&s)
                    .unwrap_or_else(|e| panic!("--seed {s:?} is invalid: {e}"));
            }
            "--band" => {
                options.band = args
                    .next()
                    .expect("--band needs a factor")
                    .parse()
                    .expect("--band must be a number");
            }
            "--tolerance" => {
                let pct: f64 = args
                    .next()
                    .expect("--tolerance needs a percentage")
                    .parse()
                    .expect("--tolerance must be a number");
                options.tolerance = pct / 100.0;
            }
            // Consumed by fabric_from_args.
            "--fabric" => {
                args.next();
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    options
}

fn main() -> ExitCode {
    let options = parse_args();
    let fabric = fabric_from_args();
    if matches!(fabric, FabricMode::Sim(_)) {
        panic!(
            "--fabric sim runs on a virtual clock; wall-clock ops/sec is meaningless there — \
             use threaded or tcp"
        );
    }
    let mut params = if options.gate {
        KvParams::gate()
    } else {
        KvParams::serving()
    };
    if let Some(ops) = options.ops {
        params.ops_per_node = ops;
    }
    eprintln!(
        "measuring KV serving throughput: {} nodes, {} ops/node, zipf s={}, {}% writes, \
         {} phases x {} windows, {:?} fabric ...",
        options.nodes,
        params.ops_per_node,
        params.zipf_s,
        params.write_percent,
        params.phases,
        params.windows_per_phase,
        fabric
    );
    let rows = throughput::collect(&params, options.nodes, &fabric, options.seed);

    println!("Throughput serving mode — wall-clock, Zipfian KV workload\n");
    println!("{}", throughput::render(&rows).render());

    let mut failures = throughput::check_rows(&rows, &params);

    if options.write_baseline {
        // Never commit a baseline that violates its own invariants.
        if !failures.is_empty() {
            eprintln!("refusing to write a baseline from an unhealthy run:");
            for failure in &failures {
                eprintln!("  - {failure}");
            }
            return ExitCode::FAILURE;
        }
        std::fs::write(&options.baseline, throughput::document_json(&[], &rows))
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", options.baseline));
        println!("baseline written to {}", options.baseline);
        return ExitCode::SUCCESS;
    }

    // Merge into the shared document: keep the modeled gate's workloads
    // section if the output file already has one, salvaging whatever a
    // truncated or corrupt file still carries rather than silently
    // dropping the other gate's results.
    let existing = throughput::read_for_merge(&options.output);
    for warning in &existing.warnings {
        eprintln!("warning: {warning} — keeping the rows that survived");
    }
    std::fs::write(
        &options.output,
        throughput::document_json(&existing.workloads, &rows),
    )
    .unwrap_or_else(|e| panic!("cannot write {}: {e}", options.output));
    println!("results merged into {}", options.output);

    if options.gate {
        match std::fs::read_to_string(&options.baseline) {
            Ok(text) => match throughput::parse_document(&text) {
                Ok((_, baseline)) => failures.extend(throughput::compare(
                    &rows,
                    &baseline,
                    options.band,
                    options.tolerance,
                )),
                Err(e) => failures.push(format!("cannot parse {}: {e}", options.baseline)),
            },
            Err(e) => {
                // A missing baseline is a hard failure in CI: the gate would
                // otherwise silently pass on a branch that deleted it.
                failures.push(format!("cannot read baseline {}: {e}", options.baseline));
            }
        }
    } else {
        println!("(invariants only — run with --gate to compare against the committed baseline)");
    }

    if failures.is_empty() {
        println!("\nthroughput gate PASS");
        ExitCode::SUCCESS
    } else {
        eprintln!("\nthroughput gate FAIL:");
        for failure in &failures {
            eprintln!("  - {failure}");
        }
        ExitCode::FAILURE
    }
}

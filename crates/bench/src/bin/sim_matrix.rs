//! The policy × workload conformance matrix on the deterministic sim
//! fabric: every workload (SOR, ASP, TSP, N-body, synthetic, KV) × every
//! built-in policy (NM, FT2, AT, JUMP, LAZY, HYST, EWMA), swept under
//! perturbation seeds and checked against the threaded-fabric reference
//! (fingerprint conformance, bit-identical seed replay, protocol
//! invariants). With no flags it prints the committed
//! `bench/figures/small/sim_matrix.txt` (`figures sim_matrix` prints the
//! same); the flags are for soaks and replays.
//!
//! Usage: `cargo run -p dsm-bench --release --bin sim_matrix [--sweep N]
//! [--seeds a,b,c] [--lossy] [--output FILE]`
//!
//! * `--sweep N` — derive `N` seeds from the base corpus (the weekly
//!   extended sweep uses this; default 2, the committed sweep).
//! * `--seeds a,b,c` — sweep exactly these seeds (replay a failure).
//! * `--lossy` — inject faults into every sim run (1% seeded per-link
//!   drops plus a partition/heal cycle, `SimConfig::lossy`); cells must
//!   conform anyway via timeouts, idempotent retries and home re-election.
//! * `--output FILE` — write the failing-seed list (one
//!   `workload,policy,seed,reason` line each; empty file = all green), for
//!   CI artifact upload.
//!
//! Exits non-zero if any cell fails, after printing every failure.

use dsm_bench::matrix;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let value_of = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };

    let seeds: Vec<u64> = match value_of("--seeds") {
        Some(list) => list
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(|s| {
                dsm_util::parse_seed(s)
                    .unwrap_or_else(|e| panic!("--seeds entry {s:?} is invalid: {e}"))
            })
            .collect(),
        None => matrix::sweep_seeds(value_of("--sweep").map_or(2, |s| {
            s.parse()
                .unwrap_or_else(|e| panic!("--sweep {s:?} is invalid: {e}"))
        })),
    };
    assert!(!seeds.is_empty(), "need at least one seed");
    let lossy = args.iter().any(|a| a == "--lossy");

    eprintln!(
        "sweeping the policy x workload conformance matrix over {} seed(s){} ...",
        seeds.len(),
        if lossy { " under injected faults" } else { "" },
    );
    let output = matrix::report(&seeds, lossy);
    print!("{}", output.text);
    for line in &output.failures {
        eprintln!("FAIL: {line}");
    }

    if let Some(path) = value_of("--output") {
        let mut contents = output.failures.join("\n");
        if !contents.is_empty() {
            contents.push('\n');
        }
        std::fs::write(path, contents).unwrap_or_else(|e| panic!("cannot write {path:?}: {e}"));
        eprintln!("failing-seed list written to {path}");
    }
    if !output.ok() {
        std::process::exit(1);
    }
}

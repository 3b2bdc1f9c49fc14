//! The policy × workload conformance matrix on the deterministic sim
//! fabric: every workload (SOR, ASP, TSP, N-body, synthetic) × every
//! built-in policy (NM, FT2, AT, JUMP, LAZY, HYST, EWMA), swept under
//! perturbation seeds and checked against the threaded-fabric reference
//! (fingerprint conformance, bit-identical seed replay, protocol
//! invariants).
//!
//! Usage: `cargo run -p dsm-bench --release --bin sim_matrix [--sweep N]
//! [--seeds a,b,c] [--lossy] [--output FILE]`
//!
//! * `--sweep N` — derive `N` seeds from the base corpus (the weekly
//!   extended sweep uses this; default 2, the reduced CI sweep).
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
        None => {
            let count: usize = value_of("--sweep").map_or(2, |s| {
                s.parse()
                    .unwrap_or_else(|e| panic!("--sweep {s:?} is invalid: {e}"))
            });
            // SplitMix-style derivation from a fixed base, so `--sweep N`
            // always names the same N schedules.
            (0..count as u64)
                .map(|i| 0x51E5_ED00u64.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
                .collect()
        }
    };
    assert!(!seeds.is_empty(), "need at least one seed");
    let lossy = args.iter().any(|a| a == "--lossy");

    eprintln!(
        "sweeping the policy x workload conformance matrix over {} seed(s){} ...",
        seeds.len(),
        if lossy { " under injected faults" } else { "" },
    );
    let sim_config = if lossy {
        dsm_runtime::SimConfig::lossy
    } else {
        dsm_runtime::SimConfig::perturbed
    };
    let rows = matrix::conformance_with(&seeds, sim_config);
    println!(
        "Conformance matrix — sim fabric{} vs. threaded reference, seeds {seeds:?}\n",
        if lossy {
            " (lossy: 1% drops + partition/heal)"
        } else {
            ""
        },
    );
    println!("{}", matrix::render(&rows).render());

    let mut failing_lines = Vec::new();
    for row in &rows {
        for (seed, reason) in &row.failures {
            let line = format!("{},{},{seed:#x},{reason}", row.workload, row.policy);
            eprintln!("FAIL: {line}");
            failing_lines.push(line);
        }
    }

    if let Some(path) = value_of("--output") {
        let mut contents = failing_lines.join("\n");
        if !contents.is_empty() {
            contents.push('\n');
        }
        std::fs::write(path, contents).unwrap_or_else(|e| panic!("cannot write {path:?}: {e}"));
        eprintln!("failing-seed list written to {path}");
    }

    let cells = rows.len();
    if failing_lines.is_empty() {
        println!("all {cells} cells conform ({} seed(s) each)", seeds.len());
    } else {
        println!(
            "{} failure(s) across {cells} cells — failing seeds listed above",
            failing_lines.len()
        );
        std::process::exit(1);
    }
}

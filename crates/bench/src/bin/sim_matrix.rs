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
//! * `--sweep N` — sweep the first `N` seeds of the corpus derivation
//!   (`dsm_util::derived_seeds`). The default, 2, is the committed sweep;
//!   the weekly extended sweep takes 16, whose first two are the
//!   committed ones.
//! * `--seeds a,b,c` — sweep exactly these seeds, to replay a failing cell
//!   (the seed column of a failure line). The list is read strictly
//!   (`dsm_util::parse_seed_list`): an empty field or a bad token is an
//!   error naming it, never a shorter sweep.
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
    // An unknown argument or a flag without its value is an error, never
    // the default sweep: a mistyped replay must not check other schedules.
    let (mut seed_list, mut sweep, mut failures_file, mut lossy) = (None, None, None, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--seeds" => seed_list = Some(value()),
            "--sweep" => sweep = Some(value()),
            "--output" => failures_file = Some(value()),
            "--lossy" => lossy = true,
            _ => panic!(
                "unknown argument {flag:?}: [--sweep N] [--seeds a,b,c] [--lossy] [--output FILE]"
            ),
        }
    }

    let seeds: Vec<u64> = match seed_list {
        Some(list) => dsm_util::parse_seed_list(&list)
            .unwrap_or_else(|e| panic!("--seeds {list:?} is invalid: {e}")),
        None => dsm_util::derived_seeds(sweep.map_or(2, |s| {
            s.parse()
                .unwrap_or_else(|e| panic!("--sweep {s:?} is invalid: {e}"))
        })),
    };
    assert!(!seeds.is_empty(), "need at least one seed");

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

    if let Some(path) = &failures_file {
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

//! The regression gate binary — the same check as the tier-1 test
//! `committed_baseline_is_current` (`tests/gate.rs`), runnable on its own.
//!
//! Runs every gate cell on the deterministic sim fabric (the fig2 / fig3 /
//! ablation / policy-matrix workloads in both flush-batching modes, and the
//! KV sweep over every built-in policy), prints the rendered document on
//! stdout, verifies the internal claims, and fails unless the document is
//! byte-identical to the committed `bench/baseline.json`.
//!
//! ```text
//! cargo run -p dsm-bench --release --bin bench_gate                       # check
//! cargo run -p dsm-bench --release --bin bench_gate -- --write-baseline   # refresh
//! ```

use dsm_bench::{gate, Scale};
use std::process::ExitCode;

/// The committed baseline, located from this crate's manifest so the
/// binary works from any working directory inside the checkout.
const BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench/baseline.json");

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let write_baseline = match args.as_slice() {
        [] => false,
        [flag] if flag == "--write-baseline" => true,
        other => {
            eprintln!("unknown arguments {other:?} (usage: bench_gate [--write-baseline])");
            return ExitCode::from(2);
        }
    };

    let (rows, kv) = (gate::collect(Scale::Small), gate::collect_kv());
    let document = gate::to_json(&rows, &kv);
    print!("{document}");
    eprintln!("\n{}", gate::render(&rows).render());
    eprintln!("{}", gate::render_kv(&kv).render());

    let mut failures = gate::check_internal(&rows, &kv);
    if write_baseline {
        // Never commit a baseline that violates its own claims.
        if failures.is_empty() {
            std::fs::write(BASELINE, &document)
                .unwrap_or_else(|e| panic!("cannot write {BASELINE}: {e}"));
            eprintln!("bench/baseline.json written");
        }
    } else {
        match std::fs::read_to_string(BASELINE) {
            Ok(committed) => failures.extend(gate::diff(&document, &committed)),
            Err(e) => failures.push(format!("cannot read baseline {BASELINE}: {e}")),
        }
    }

    if failures.is_empty() {
        eprintln!("gate PASS");
        ExitCode::SUCCESS
    } else {
        eprintln!("gate FAIL:");
        for failure in &failures {
            eprintln!("  - {failure}");
        }
        ExitCode::FAILURE
    }
}

//! Prints one committed modeled output (`dsm_bench::figures::REGISTRY`):
//! the paper's Figures 2, 3 and 5, the three ablations, the regression gate
//! or a conformance matrix, exactly as committed under
//! `bench/figures/small/NAME.txt`.
//!
//! Usage: `cargo run -q -p dsm-bench --release --bin figures -- NAME [--full]`
//! — runs on the calm sim fabric at the gate seed, so the output is
//! byte-identical run to run; `--full` selects the paper's sizes for the
//! figures and ablations. Exits 1, naming each failure on stderr, when a
//! claim the output carries does not hold (a shape check, a gate claim, a
//! matrix cell).

use dsm_bench::{figures, Scale};
use std::process::ExitCode;

fn main() -> ExitCode {
    let name = std::env::args().nth(1).unwrap_or_default();
    let Some(output) = figures::render(&name, Scale::from_args()) else {
        let names: Vec<&str> = figures::REGISTRY.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "usage: figures NAME [--full], NAME one of {}",
            names.join(" ")
        );
        return ExitCode::from(2);
    };
    print!("{}", output.text);
    for failure in &output.failures {
        eprintln!("FAIL: {failure}");
    }
    if output.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

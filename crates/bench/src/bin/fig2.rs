//! Regenerates Figure 2 of the paper: execution time vs. number of
//! processors for ASP, SOR, Nbody and TSP, with and without home migration.
//!
//! Usage: `cargo run -p dsm-bench --release --bin fig2 [--full]` — runs on
//! the calm sim fabric at the gate seed, so the output is byte-identical run
//! to run; exits 1 when the shape check fails.

use dsm_bench::{fig2, gate::GATE_SEED, Scale};
use dsm_runtime::SimConfig;
use std::process::ExitCode;

fn main() -> ExitCode {
    let scale = Scale::from_args();
    eprintln!("collecting Figure 2 data at {scale:?} scale ...");
    let points = fig2::collect(scale, &SimConfig::calm(GATE_SEED));
    let table = fig2::render(&points);
    println!("Figure 2 — execution time vs. number of processors (HM = adaptive migration, NoHM = disabled)\n");
    println!("{}", table.render());
    let holds = fig2::shape_holds(&points);
    println!("shape check (HM wins on ASP/SOR, neutral on Nbody/TSP): {holds}");
    println!("\nCSV:\n{}", table.to_csv());
    if holds {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

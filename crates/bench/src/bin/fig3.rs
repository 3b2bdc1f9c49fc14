//! Regenerates Figure 3 of the paper: improvement of the adaptive-threshold
//! protocol (AT) over the fixed threshold FT2 against problem size, for ASP
//! and SOR on eight nodes.
//!
//! Usage: `cargo run -p dsm-bench --release --bin fig3 [--full]` — runs on
//! the calm sim fabric at the gate seed, so the output is byte-identical run
//! to run; exits 1 when the shape check fails.

use dsm_bench::{fig3, gate::GATE_SEED, Scale};
use dsm_runtime::SimConfig;
use std::process::ExitCode;

fn main() -> ExitCode {
    let scale = Scale::from_args();
    eprintln!("collecting Figure 3 data at {scale:?} scale ...");
    let points = fig3::collect(scale, &SimConfig::calm(GATE_SEED));
    let table = fig3::render(&points);
    println!("Figure 3 — improvement of AT over FT2 against problem size (8 nodes)\n");
    println!("{}", table.render());
    let holds = fig3::shape_holds(&points);
    println!("shape check (AT never worse than FT2): {holds}");
    println!("\nCSV:\n{}", table.to_csv());
    if holds {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! Regenerates Figure 5 of the paper: the synthetic single-writer benchmark.
//! Panel (a) normalized execution time and panel (b) normalized message
//! breakdown for NM, FT1, FT2 and AT against the repetition of the
//! single-writer pattern.
//!
//! Usage: `cargo run -p dsm-bench --release --bin fig5 [--full]` — runs on
//! the calm sim fabric at the gate seed, so the output is byte-identical run
//! to run; exits 1 when a shape check fails.

use dsm_bench::{fig5, gate::GATE_SEED, Scale};
use dsm_runtime::SimConfig;
use std::process::ExitCode;

fn main() -> ExitCode {
    let scale = Scale::from_args();
    eprintln!("collecting Figure 5 data at {scale:?} scale ...");
    let points = fig5::collect(scale, &SimConfig::calm(GATE_SEED));
    println!(
        "Figure 5(a) — normalized execution time vs. repetition of the single-writer pattern\n"
    );
    println!("{}", fig5::render_times(&points).render());
    println!("Figure 5(b) — normalized message breakdown (obj / mig / diff / redir)\n");
    println!("{}", fig5::render_messages(&points).render());
    println!("shape checks (paper §5.2 observations):");
    let checks = fig5::shape_holds(&points);
    for (name, ok) in &checks {
        println!("  [{}] {}", if *ok { "ok" } else { "FAIL" }, name);
    }
    println!(
        "\nCSV (messages):\n{}",
        fig5::render_messages(&points).to_csv()
    );
    if checks.iter().all(|(_, ok)| *ok) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

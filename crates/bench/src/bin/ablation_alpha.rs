//! Ablation A2: sensitivity of the adaptive protocol to the home access
//! coefficient α and the feedback coefficient λ under the transient
//! single-writer pattern (r = 2).
//!
//! Usage: `cargo run -p dsm-bench --release --bin ablation_alpha [--full]`
//! (calm sim fabric at the gate seed).

use dsm_bench::{ablation, gate::GATE_SEED, Scale};
use dsm_runtime::SimConfig;

fn main() {
    let points = ablation::coefficient_sensitivity(Scale::from_args(), &SimConfig::calm(GATE_SEED));
    println!("Ablation A2 — home access coefficient / feedback coefficient sensitivity (synthetic, r = 2)\n");
    println!("{}", ablation::render(&points).render());
}

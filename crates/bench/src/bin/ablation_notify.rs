//! Ablation A1: new-home notification mechanisms (forwarding pointer vs.
//! home manager vs. broadcast) under the synthetic workload.
//!
//! Usage: `cargo run -p dsm-bench --release --bin ablation_notify [--full]`
//! (calm sim fabric at the gate seed).

use dsm_bench::{ablation, gate::GATE_SEED, Scale};
use dsm_runtime::SimConfig;

fn main() {
    let points = ablation::notification_comparison(Scale::from_args(), &SimConfig::calm(GATE_SEED));
    println!("Ablation A1 — notification mechanism comparison (synthetic, r = 8)\n");
    println!("{}", ablation::render(&points).render());
}

//! Ablation A3: the paper's adaptive policy against related-work policies
//! (JUMP migrating-home, Jackal lazy flushing, fixed threshold, none) on the
//! SOR workload.
//!
//! Usage: `cargo run -p dsm-bench --release --bin ablation_related [--full]`
//! (calm sim fabric at the gate seed).

use dsm_bench::{ablation, gate::GATE_SEED, Scale};
use dsm_runtime::SimConfig;

fn main() {
    let points = ablation::related_work_comparison(Scale::from_args(), &SimConfig::calm(GATE_SEED));
    println!("Ablation A3 — migration policy comparison on SOR (8 nodes)\n");
    println!("{}", ablation::render(&points).render());
}

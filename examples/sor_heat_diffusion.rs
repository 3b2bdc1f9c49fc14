//! Domain example: red-black SOR heat diffusion on a shared matrix whose
//! rows start on the "wrong" nodes (round-robin homes), demonstrating how
//! the adaptive protocol relocates each row to its writer.
//!
//! Run with: `cargo run --release --example sor_heat_diffusion`

use adaptive_dsm::apps::sor::{self, SorParams};
use adaptive_dsm::prelude::*;

fn main() {
    let params = SorParams::small(128, 8);
    println!(
        "SOR {}x{} for {} iterations on 8 nodes\n",
        params.size, params.size, params.iterations
    );
    for (name, protocol) in [
        ("NoHM", ProtocolConfig::no_migration()),
        ("FT2", ProtocolConfig::fixed_threshold(2)),
        ("AT", ProtocolConfig::adaptive()),
    ] {
        let run = sor::run(Cluster::builder().nodes(8).protocol(protocol), &params);
        println!(
            "{name:>5}: time {:>10}  coherence msgs {:>7}  traffic {:>9} B  migrations {:>5}  checksum {:.6}",
            format!("{}", run.report.execution_time),
            run.report.breakdown_messages(),
            run.report.total_traffic_bytes(),
            run.report.migrations(),
            sor::checksum(&run.result),
        );
    }
    println!("\nThe checksums are identical: home migration never changes results, only costs.");
}

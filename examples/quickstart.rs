//! Quick start: a lock-protected shared counter on a simulated 8-node
//! cluster, comparing the adaptive home migration protocol with migration
//! disabled — on the zero-copy view API.
//!
//! Run with: `cargo run --release --example quickstart`

use adaptive_dsm::prelude::*;

fn run_once(policy_name: &str, policy: impl IntoMigrationPolicy) -> ExecutionReport {
    // The seeded builder owns the registry: declare the cluster shape and
    // its shared objects in one chain.
    let mut builder = Cluster::builder()
        .nodes(8)
        .migration(policy)
        .seed(2004)
        .default_home(HomeAssignment::Master);
    let counter = builder.register_array::<u64>("counter", 1);
    let lock = LockId::derive("counter.lock");

    let report = builder.build().run(move |ctx| {
        // Only the non-master nodes work, like the paper's synthetic
        // benchmark: the counter starts homed on the master, so every update
        // is remote until the home migrates.
        if !ctx.is_master() {
            for _ in 0..40 {
                ctx.acquire(lock);
                // Zero-copy write view: `&mut [u64]` borrowed directly from
                // the engine's storage. Once the home migrates here, this
                // touches the home copy in place — no messages, no copies.
                ctx.view_mut(&counter)[0] += 1;
                ctx.release(lock);
                ctx.compute(5_000);
            }
        }
        ctx.barrier(BarrierId(1));
        let total = ctx.view(&counter)[0];
        assert_eq!(total, 7 * 40, "no update may be lost");
    });

    println!(
        "{policy_name:>6}: virtual time {:>10}, messages {:>6}, traffic {:>8} B, migrations {:>3}",
        format!("{}", report.execution_time),
        report.total_messages(),
        report.total_traffic_bytes(),
        report.migrations()
    );
    report
}

fn main() {
    println!("shared counter, 8 nodes, 7 workers x 40 lock-protected increments\n");
    let adaptive = run_once("AT", AdaptiveThresholdPolicy::paper());
    let none = run_once("NoHM", NoMigrationPolicy);
    println!(
        "\nadaptive home migration removed {:.1}% of the coherence messages",
        100.0 * (1.0 - adaptive.breakdown_messages() as f64 / none.breakdown_messages() as f64)
    );
}

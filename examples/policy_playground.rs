//! Domain example: sweep the whole home-migration policy layer — the
//! paper's set, the related-work baselines (JUMP migrating-home, Jackal
//! lazy flushing) and the beyond-the-paper trait policies (hysteresis,
//! EWMA write-ratio) — on the ASP workload with full decision telemetry,
//! run a **mixed cluster** where per-object overrides give different
//! objects different policies, show the effect of the new-home notification
//! mechanism, and demonstrate what release-time flush batching saves per
//! interval under the paper's start-up-dominated cost model.
//!
//! Run with: `cargo run --release --example policy_playground`

use adaptive_dsm::apps::asp::{self, AspParams};
use adaptive_dsm::apps::sor::{self, SorParams};
use adaptive_dsm::prelude::*;
use std::sync::Arc;

fn main() {
    let params = AspParams::small(96);
    println!("ASP on a {}-vertex graph, 8 nodes\n", params.vertices);

    println!("-- migration policies (forwarding-pointer notification) --");
    let policies: Vec<(&str, Arc<dyn HomeMigrationPolicy>)> = vec![
        ("NoMigration", Arc::new(NoMigrationPolicy)),
        ("FixedThreshold(1)", Arc::new(FixedThresholdPolicy::new(1))),
        ("FixedThreshold(2)", Arc::new(FixedThresholdPolicy::new(2))),
        (
            "AdaptiveThreshold",
            Arc::new(AdaptiveThresholdPolicy::paper()),
        ),
        ("JUMP MigrateOnRequest", Arc::new(MigrateOnRequestPolicy)),
        (
            "Jackal LazyFlushing",
            Arc::new(LazyFlushingPolicy::default()),
        ),
        ("Hysteresis(1,+2)", Arc::new(HysteresisPolicy::default())),
        (
            "EwmaWriteRatio(.5,.8)",
            Arc::new(EwmaWriteRatioPolicy::default()),
        ),
    ];
    for (name, policy) in policies {
        let protocol = ProtocolConfig::no_migration().with_migration(policy);
        let run = asp::run(Cluster::builder().nodes(8).protocol(protocol), &params);
        let telemetry = run.report.policy_telemetry();
        println!(
            "{name:>22} [{:>7}]: time {:>10}  msgs {:>7}  migrations {:>5}  \
             migrate-backs {:>3}  decisions {:>5}/{:<5}  redirections {:>5}",
            run.report.policy_label,
            format!("{}", run.report.execution_time),
            run.report.breakdown_messages(),
            run.report.migrations(),
            telemetry.migrate_backs,
            telemetry.decisions_migrate,
            telemetry.decisions_considered,
            run.report.messages(MsgCategory::Redirect),
        );
    }

    // SOR's rows are written by one fixed band owner forever — the lasting
    // single-writer pattern. Every migrating policy relocates the
    // round-robin row homes to their writers here, including the EWMA
    // write-ratio policy (three unbroken remote writes arm it), which the
    // ASP sweep above never triggers because ASP pivots write at home.
    println!("\n-- lasting single-writer pattern (SOR, 4 nodes) --");
    let sweep_params = SorParams::small(64, 4);
    let sweep: Vec<(&str, Arc<dyn HomeMigrationPolicy>)> = vec![
        (
            "AdaptiveThreshold",
            Arc::new(AdaptiveThresholdPolicy::paper()),
        ),
        ("Hysteresis(1,+2)", Arc::new(HysteresisPolicy::default())),
        (
            "EwmaWriteRatio(.5,.8)",
            Arc::new(EwmaWriteRatioPolicy::default()),
        ),
    ];
    for (name, policy) in sweep {
        let protocol = ProtocolConfig::no_migration().with_migration(policy);
        let run = sor::run(
            Cluster::builder().nodes(4).protocol(protocol),
            &sweep_params,
        );
        let telemetry = run.report.policy_telemetry();
        println!(
            "{name:>22} [{:>7}]: time {:>10}  msgs {:>7}  migrations {:>5}  \
             decisions {:>4}/{:<4}",
            run.report.policy_label,
            format!("{}", run.report.execution_time),
            run.report.breakdown_messages(),
            run.report.migrations(),
            telemetry.decisions_migrate,
            telemetry.decisions_considered,
        );
    }

    // A mixed cluster: the default policy is NoMigration, but the "hot"
    // array — repeatedly written by one worker — is overridden per object
    // to the adaptive policy. Only the override migrates: the cold array
    // stays pinned to its initial home, while the hot array's home moves to
    // its single writer and its fault-in/diff traffic disappears.
    println!("\n-- mixed cluster: per-object policy overrides (3 nodes) --");
    let mut builder = Cluster::builder().nodes(3).seed(2004);
    let hot = builder.register_array::<u64>("playground.hot", 32);
    let cold = builder.register_array::<u64>("playground.cold", 32);
    let protocol =
        ProtocolConfig::no_migration().with_object_policy(hot.id, AdaptiveThresholdPolicy::paper());
    let report = builder.protocol(protocol).build().run(move |ctx| {
        let lock = LockId::derive("playground.lock");
        for round in 0..24u64 {
            ctx.acquire(lock);
            if ctx.node_id().index() == 1 {
                // One worker hammers both arrays; only `hot` may migrate.
                ctx.view_mut(&hot)[0] += round + 1;
                ctx.view_mut(&cold)[0] += round + 1;
            }
            ctx.release(lock);
        }
    });
    let telemetry = report.policy_telemetry();
    println!(
        "default {:>4}, override AT on `hot`: migrations {:>2} (all from the override)  \
         decisions {}/{}  mean threshold {:.2}",
        report.policy_label,
        report.migrations(),
        telemetry.decisions_migrate,
        telemetry.decisions_considered,
        telemetry.mean_threshold(),
    );

    println!("\n-- notification mechanisms (adaptive threshold) --");
    for (name, mechanism) in [
        (
            "ForwardingPointer",
            NotificationMechanism::ForwardingPointer,
        ),
        ("HomeManager", NotificationMechanism::HomeManager),
        ("Broadcast", NotificationMechanism::Broadcast),
    ] {
        let protocol = ProtocolConfig::adaptive().with_notification(mechanism);
        let run = asp::run(Cluster::builder().nodes(8).protocol(protocol), &params);
        println!(
            "{name:>22}: time {:>10}  msgs {:>7}  redirections {:>5}  notifications {:>5}",
            format!("{}", run.report.execution_time),
            run.report.breakdown_messages(),
            run.report.messages(MsgCategory::Redirect),
            run.report.messages(MsgCategory::HomeNotify)
                + run.report.messages(MsgCategory::HomeLookup),
        );
    }

    // SOR writes a whole band of rows per interval, so each release flushes
    // many diffs at once — the workload the flush batcher exists for. Under
    // the Hockney model every message beyond the first to the same home
    // costs a full start-up time t0 (100 µs on the paper's Fast Ethernet),
    // which is exactly what the per-interval message counts below show
    // batching paying back. NoHM keeps the remote homes (rows stay on their
    // round-robin nodes), so flushes never stop and the saving persists.
    println!("\n-- release-time flush batching (SOR, NoHM, 4 nodes) --");
    let sor_params = SorParams::small(64, 4);
    for (name, batching) in [("unbatched (paper wire)", false), ("batched", true)] {
        let cluster = Cluster::builder()
            .nodes(4)
            .protocol(ProtocolConfig::no_migration())
            .flush_batching(batching);
        let run = sor::run(cluster, &sor_params);
        // One interval per barrier crossing per node.
        let intervals = run.report.protocol.barriers.max(1);
        let diff_msgs =
            run.report.messages(MsgCategory::Diff) + run.report.messages(MsgCategory::DiffBatch);
        println!(
            "{name:>22}: time {:>10}  diff msgs {:>5} ({:.2}/interval)  \
             batches {:>4}  entries/batch {:.1}",
            format!("{}", run.report.execution_time),
            diff_msgs,
            diff_msgs as f64 / intervals as f64,
            run.report.protocol.batched_flushes,
            if run.report.protocol.batched_flushes > 0 {
                run.report.protocol.batch_entries as f64
                    / run.report.protocol.batched_flushes as f64
            } else {
                0.0
            },
        );
    }
}

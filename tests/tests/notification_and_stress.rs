//! End-to-end tests of the new-home notification mechanisms and a
//! multi-object stress test mixing access patterns. Contents are checked on
//! the threaded runtime and the sim; message and migration counts only on
//! the sim, under each of [`SimConfig::modeled_sims`].

use dsm_core::{NotificationMechanism, ProtocolConfig};
use dsm_integration_tests::{sim_test_cluster, test_cluster};
use dsm_net::MsgCategory;
use dsm_objspace::{BarrierId, HomeAssignment, LockId, NodeId};
use dsm_runtime::{ArrayHandle, ClusterBuilder, ExecutionReport, SimConfig};

/// Run a single-writer workload on a four-node cluster (`config` picks the
/// fabric and the notification mechanism); the readers check the final
/// value inside the run. Returns (redirect messages, notification messages,
/// migrations).
fn single_writer_run(mut cluster: ClusterBuilder) -> (u64, u64, u64) {
    let intervals = 12u64;
    let data: ArrayHandle<u64> = ArrayHandle::register(
        cluster.registry(),
        "notify.obj",
        0,
        32,
        NodeId::MASTER,
        HomeAssignment::Master,
    );
    let lock = LockId::derive("notify.lock");
    let barrier = BarrierId(77);
    let report = cluster.build().run(move |ctx| {
        // Node 1 is the single writer; node 2 and 3 are occasional readers
        // whose stale home hints exercise the notification mechanism.
        if ctx.node_id() == NodeId(1) {
            for i in 0..intervals {
                ctx.acquire(lock);
                ctx.view_mut(&data)[0] = i + 1;
                ctx.release(lock);
            }
        }
        ctx.barrier(barrier);
        if ctx.node_id().index() >= 2 {
            ctx.acquire(lock);
            let seen = ctx.view(&data)[0];
            assert_eq!(seen, intervals, "readers must observe the final value");
            ctx.release(lock);
        }
        ctx.barrier(barrier);
    });
    (
        report.messages(MsgCategory::Redirect),
        report.messages(MsgCategory::HomeNotify) + report.messages(MsgCategory::HomeLookup),
        report.migrations(),
    )
}

/// [`single_writer_run`] under `mechanism` on each of [`SimConfig::modeled_sims`], as
/// (seed, redirects, notifications, migrations).
fn single_writer_counts(mechanism: NotificationMechanism) -> Vec<(u64, u64, u64, u64)> {
    let protocol = ProtocolConfig::adaptive().with_notification(mechanism);
    SimConfig::modeled_sims()
        .into_iter()
        .map(|sim| {
            let (redirects, notifications, migrations) =
                single_writer_run(sim_test_cluster(4, protocol.clone(), sim));
            (sim.seed, redirects, notifications, migrations)
        })
        .collect()
}

#[test]
fn forwarding_pointer_pays_redirections_but_no_notifications() {
    let counts = single_writer_counts(NotificationMechanism::ForwardingPointer);
    for (seed, redirects, notifications, migrations) in counts {
        assert!(migrations >= 1, "seed {seed:#x}");
        assert_eq!(
            notifications, 0,
            "seed {seed:#x}: forwarding pointers never notify eagerly"
        );
        assert!(
            redirects >= 1,
            "seed {seed:#x}: stale readers must be redirected at least once"
        );
    }
}

#[test]
fn broadcast_notification_informs_other_nodes_eagerly() {
    for (seed, _, notifications, migrations) in
        single_writer_counts(NotificationMechanism::Broadcast)
    {
        assert!(migrations >= 1, "seed {seed:#x}");
        assert!(
            notifications >= migrations,
            "seed {seed:#x}: each migration must broadcast to the remaining nodes"
        );
    }
}

#[test]
fn home_manager_posts_updates_to_the_manager() {
    for (seed, _, notifications, migrations) in
        single_writer_counts(NotificationMechanism::HomeManager)
    {
        assert!(migrations >= 1, "seed {seed:#x}");
        // The manager of the object is its initial home (the master).
        // Migrations away from the master need no post (the master already
        // knows), but subsequent migrations between workers do; with a
        // single writer there is typically exactly one migration, so
        // notifications may be zero — what matters is that readers still
        // find the object (asserted inside the workload) and the mechanism
        // stays consistent.
        assert!(notifications <= migrations * 2, "seed {seed:#x}");
    }
}

#[test]
fn notification_mechanisms_keep_readers_current_on_threads() {
    for mechanism in [
        NotificationMechanism::ForwardingPointer,
        NotificationMechanism::Broadcast,
        NotificationMechanism::HomeManager,
    ] {
        single_writer_run(test_cluster(
            4,
            ProtocolConfig::adaptive().with_notification(mechanism),
        ));
    }
}

#[test]
fn mixed_pattern_stress_run_preserves_every_object() {
    mixed_pattern_run(test_cluster(4, ProtocolConfig::adaptive()));
    for sim in SimConfig::modeled_sims() {
        let report = mixed_pattern_run(sim_test_cluster(4, ProtocolConfig::adaptive(), sim));
        // The lasting single-writer objects should have migrated to their
        // writers; the exact count for the rotating ones depends on feedback.
        assert!(report.migrations() >= 2, "seed {:#x}", sim.seed);
        assert!(report.protocol.diffs_applied > 0, "seed {:#x}", sim.seed);
    }
}

/// 24 objects with three different access patterns on the adaptive policy
/// (`config` picks the fabric; four nodes): single-writer objects (one per
/// node), rotating-writer objects and a lock-protected accumulator. After
/// the run every object must hold exactly the expected value on every node.
fn mixed_pattern_run(mut cluster: ClusterBuilder) -> ExecutionReport {
    let nodes = cluster.num_nodes();
    let rounds = 8u64;
    let single: Vec<ArrayHandle<u64>> = (0..nodes)
        .map(|i| {
            ArrayHandle::register(
                cluster.registry(),
                "stress.single",
                i as u64,
                8,
                NodeId::MASTER,
                HomeAssignment::RoundRobin,
            )
        })
        .collect();
    let rotating: Vec<ArrayHandle<u64>> = (0..8)
        .map(|i| {
            ArrayHandle::register(
                cluster.registry(),
                "stress.rotating",
                i as u64,
                4,
                NodeId::MASTER,
                HomeAssignment::Hash,
            )
        })
        .collect();
    let accumulator: ArrayHandle<u64> = ArrayHandle::register(
        cluster.registry(),
        "stress.accumulator",
        0,
        1,
        NodeId::MASTER,
        HomeAssignment::Master,
    );
    let lock = LockId::derive("stress.lock");
    let barrier = BarrierId(88);

    cluster.build().run(move |ctx| {
        let me = ctx.node_id().index();
        for round in 0..rounds {
            // Pattern 1: a lasting single writer per object, through a
            // zero-copy write view.
            {
                let mut view = ctx.view_mut(&single[me]);
                for slot in view.iter_mut() {
                    *slot = round + 1;
                }
            }
            // Pattern 2: the writer of each rotating object changes every
            // round (transient single-writer pattern).
            for (i, handle) in rotating.iter().enumerate() {
                if (round as usize + i) % nodes == me {
                    ctx.view_mut(handle)[0] = round + 1;
                }
            }
            // Pattern 3: a lock-protected shared accumulator.
            ctx.synchronized(lock, || ctx.view_mut(&accumulator)[0] += 1);
            ctx.barrier(barrier);
        }
        // Verification on every node.
        assert_eq!(ctx.view(&accumulator)[0], rounds * nodes as u64);
        for handle in &single {
            assert_eq!(ctx.view(handle)[0], rounds);
        }
        for handle in &rotating {
            assert_eq!(ctx.view(handle)[0], rounds);
        }
        ctx.barrier(barrier);
    })
}

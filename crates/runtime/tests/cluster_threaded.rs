//! End-to-end tests of the threaded cluster runtime: real node threads, the
//! full protocol stack, locks, barriers and home migration.
//!
//! The threaded runs assert contents only. Where a test also claims message
//! or migration counts, it runs the same workload on the sim fabric under
//! each of [`sims`] and asserts the counts there, where they are a pure
//! function of the seed rather than of the OS scheduler.

use dsm_core::{MigrateOnRequestPolicy, ProtocolConfig};
use dsm_model::ComputeModel;
use dsm_net::MsgCategory;
use dsm_objspace::{BarrierId, HomeAssignment, LockId, NodeId, ObjectRegistry};
use dsm_runtime::{ArrayHandle, Cluster, ClusterConfig, FabricMode, Matrix2dHandle, SimConfig};

fn config(nodes: usize, protocol: ProtocolConfig) -> ClusterConfig {
    ClusterConfig::new(nodes, protocol).with_compute(ComputeModel::free())
}

fn sim_config(nodes: usize, protocol: ProtocolConfig, sim: SimConfig) -> ClusterConfig {
    config(nodes, protocol).with_fabric(FabricMode::Sim(sim))
}

/// The calm schedule at the gate seed plus the integration suite's
/// perturbed seed corpus.
fn sims() -> Vec<SimConfig> {
    let mut sims = vec![SimConfig::calm(2004)];
    sims.extend([0x51E5_ED01, 0x51E5_ED02, 0x51E5_ED03].map(SimConfig::perturbed));
    sims
}

#[test]
fn lock_protected_counter_is_consistent() {
    // Every node increments a shared counter 25 times under a lock; the
    // final value must be exactly nodes * 25 regardless of protocol
    // interleaving. This is the fundamental no-lost-updates guarantee.
    let nodes = 4;
    let increments = 25u64;
    let mut registry = ObjectRegistry::new();
    let counter: ArrayHandle<u64> = ArrayHandle::register(
        &mut registry,
        "counter",
        0,
        1,
        NodeId::MASTER,
        HomeAssignment::Master,
    );
    let lock = LockId::derive("counter.lock");
    let done = BarrierId(1);

    let report =
        Cluster::new(config(nodes, ProtocolConfig::adaptive()), registry).run(move |ctx| {
            for _ in 0..increments {
                ctx.acquire(lock);
                ctx.update(&counter, |v| v[0] += 1);
                ctx.release(lock);
            }
            ctx.barrier(done);
            // After the final barrier every node must observe the same total.
            let total = ctx.read(&counter)[0];
            assert_eq!(total, nodes as u64 * increments);
        });
    // Acquire counts and modeled time of this workload are asserted on the
    // sim in `cluster_sim.rs` (`sim_fabric_runs_the_full_protocol`).
    assert_eq!(report.num_nodes, nodes);
}

#[test]
fn single_writer_pattern_migrates_home_and_cuts_messages() {
    // Node 1 is the only writer of an object initially homed on node 0.
    // With the adaptive policy the home must migrate to node 1 and the
    // per-interval fault-in + diff pair must disappear; without migration it
    // persists.
    let nodes = 2;
    let intervals = 30u64;

    let run = |config: ClusterConfig| {
        let mut registry = ObjectRegistry::new();
        let data: ArrayHandle<u64> = ArrayHandle::register(
            &mut registry,
            "single_writer",
            0,
            64,
            NodeId::MASTER,
            HomeAssignment::Master,
        );
        let lock = LockId::derive("sw.lock");
        Cluster::new(config, registry).run(move |ctx| {
            if ctx.node_id() == NodeId(1) {
                for i in 0..intervals {
                    ctx.acquire(lock);
                    ctx.update(&data, |v| {
                        for (k, slot) in v.iter_mut().enumerate() {
                            *slot = i + k as u64 + 1;
                        }
                    });
                    ctx.release(lock);
                }
            }
            ctx.barrier(BarrierId(9));
            if ctx.node_id() == NodeId(1) {
                let last = ctx.read(&data);
                assert!((0..64).all(|k| last[k] == intervals + k as u64));
            }
        })
    };

    run(config(nodes, ProtocolConfig::adaptive()));
    run(config(nodes, ProtocolConfig::no_migration()));
    for sim in sims() {
        let seed = sim.seed;
        let adaptive = run(sim_config(nodes, ProtocolConfig::adaptive(), sim));
        let no_migration = run(sim_config(nodes, ProtocolConfig::no_migration(), sim));

        assert_eq!(no_migration.migrations(), 0);
        assert!(
            adaptive.migrations() >= 1,
            "seed {seed:#x}: adaptive policy must migrate the home"
        );
        // Fault-ins and diffs: NoHM pays one of each per interval; AT pays
        // a handful before the migration and nothing afterwards.
        assert!(no_migration.messages(MsgCategory::Diff) >= intervals - 1);
        assert!(adaptive.messages(MsgCategory::Diff) <= 3, "seed {seed:#x}");
        assert!(
            adaptive.messages(MsgCategory::ObjReply)
                + adaptive.messages(MsgCategory::ObjReplyMigrate)
                <= 3,
            "seed {seed:#x}"
        );
        assert!(
            adaptive.breakdown_messages() * 4 < no_migration.breakdown_messages(),
            "seed {seed:#x}: home migration should eliminate most coherence messages \
             ({} vs {})",
            adaptive.breakdown_messages(),
            no_migration.breakdown_messages()
        );
        // And modeled execution time improves accordingly.
        assert!(adaptive.execution_time < no_migration.execution_time);
    }
}

#[test]
fn barrier_based_producer_consumer_sees_fresh_data() {
    // Node 0 produces a vector in even phases, node 1 checks it in odd
    // phases; barriers separate the phases. Verifies diff propagation,
    // invalidation at barriers and fault-in of fresh copies.
    let nodes = 2;
    let phases = 10u64;
    let mut registry = ObjectRegistry::new();
    let buf: ArrayHandle<u64> = ArrayHandle::register(
        &mut registry,
        "pc.buffer",
        0,
        32,
        NodeId(1),
        HomeAssignment::CreationNode,
    );
    let barrier = BarrierId(2);

    Cluster::new(config(nodes, ProtocolConfig::adaptive()), registry).run(move |ctx| {
        for phase in 0..phases {
            if ctx.node_id() == NodeId(0) {
                ctx.update(&buf, |v| {
                    for (i, slot) in v.iter_mut().enumerate() {
                        *slot = phase * 1000 + i as u64;
                    }
                });
            }
            ctx.barrier(barrier);
            if ctx.node_id() == NodeId(1) {
                let seen = ctx.read(&buf);
                for (i, value) in seen.iter().enumerate() {
                    assert_eq!(
                        *value,
                        phase * 1000 + i as u64,
                        "stale read in phase {phase}"
                    );
                }
            }
            ctx.barrier(barrier);
        }
    });
}

#[test]
fn round_robin_rows_relocate_to_their_writers() {
    // A miniature SOR-like pattern: each node owns a band of rows that are
    // initially homed round-robin (so most rows start with the wrong home).
    // After a few iterations with the adaptive policy, every row's home must
    // have migrated to its writer, eliminating almost all coherence traffic
    // in later iterations.
    let nodes = 4;
    let rows_per_node = 4usize;
    let total_rows = nodes * rows_per_node;
    let iterations = 6u64;

    let run = |config: ClusterConfig| {
        let mut registry = ObjectRegistry::new();
        let rows = Matrix2dHandle::<u64>::register(
            &mut registry,
            "rows",
            total_rows,
            16,
            NodeId::MASTER,
            HomeAssignment::RoundRobin,
        );
        let barrier = BarrierId(3);
        Cluster::new(config, registry).run(move |ctx| {
            let me = ctx.node_id().index();
            let my_rows: Vec<_> = (0..total_rows)
                .filter(|r| r / rows_per_node == me)
                .collect();
            for iter in 0..iterations {
                for &r in &my_rows {
                    // Zero-copy write view: fills the row in place.
                    let mut row = ctx.view_mut(rows.row(r));
                    for slot in row.iter_mut() {
                        *slot = iter * 100 + r as u64 + 1;
                    }
                    drop(row);
                }
                ctx.barrier(barrier);
            }
            for &r in &my_rows {
                assert_eq!(
                    ctx.read(rows.row(r))[0],
                    (iterations - 1) * 100 + r as u64 + 1
                );
            }
        })
    };

    run(config(nodes, ProtocolConfig::adaptive()));
    for sim in sims() {
        let seed = sim.seed;
        let report = run(sim_config(nodes, ProtocolConfig::adaptive(), sim));
        // Each row is written by exactly one node, so each should migrate
        // exactly once (to its writer); rows that already start at their
        // writer by luck of the round-robin need no migration.
        assert!(
            report.migrations() >= (total_rows - total_rows / nodes) as u64,
            "seed {seed:#x}"
        );
        assert!(report.migrations() <= total_rows as u64, "seed {seed:#x}");
        // After migration the steady-state iterations are message-free for
        // row updates: total diffs are bounded by roughly one per row per
        // pre-migration iteration, far below rows × iterations.
        assert!(
            report.messages(MsgCategory::Diff) < (total_rows as u64) * iterations / 2,
            "seed {seed:#x}: diff traffic should collapse after homes migrate (got {})",
            report.messages(MsgCategory::Diff)
        );
    }
}

#[test]
fn immutable_objects_are_fetched_at_most_once_per_node() {
    let nodes = 4;
    let run = |config: ClusterConfig| {
        let mut registry = ObjectRegistry::new();
        let table: ArrayHandle<u64> = ArrayHandle::register_immutable(
            &mut registry,
            "lookup.table",
            0,
            64,
            NodeId::MASTER,
            HomeAssignment::Master,
        );
        let lock = LockId::derive("work.lock");
        let barrier = BarrierId(4);
        Cluster::new(config, registry).run(move |ctx| {
            ctx.bootstrap(&table, &(0..64).map(|i| i * 7).collect::<Vec<u64>>());
            ctx.barrier(barrier);
            // Many critical sections, each reading the immutable table:
            // without the read-only optimization every acquire would force
            // a re-fetch.
            for _ in 0..10 {
                ctx.acquire(lock);
                let t = ctx.read(&table);
                assert_eq!(t[3], 21);
                ctx.release(lock);
            }
            ctx.barrier(barrier);
        })
    };

    run(config(nodes, ProtocolConfig::adaptive()));
    for sim in sims() {
        let report = run(sim_config(nodes, ProtocolConfig::adaptive(), sim));
        // Three non-home nodes fetch the table once each; the master reads
        // it locally. A few extra fetches may occur due to bootstrap
        // ordering, but nothing close to 10 per node.
        assert!(
            report.messages(MsgCategory::ObjReply) <= (nodes as u64 - 1) + 2,
            "seed {:#x}: immutable object was re-fetched: {} replies",
            sim.seed,
            report.messages(MsgCategory::ObjReply)
        );
    }
}

#[test]
fn jump_policy_bounces_home_between_alternating_writers() {
    let nodes = 3;
    let mut registry = ObjectRegistry::new();
    let obj: ArrayHandle<u64> = ArrayHandle::register(
        &mut registry,
        "bounce",
        0,
        8,
        NodeId::MASTER,
        HomeAssignment::Master,
    );
    let lock = LockId::derive("bounce.lock");
    let protocol = ProtocolConfig::no_migration().with_migration(MigrateOnRequestPolicy);
    Cluster::new(config(nodes, protocol), registry).run(move |ctx| {
        if ctx.node_id().index() > 0 {
            for i in 0..10u64 {
                ctx.acquire(lock);
                ctx.update(&obj, |v| v[0] = v[0].wrapping_add(i + 1));
                ctx.release(lock);
            }
        }
        ctx.barrier(BarrierId(5));
        // However the OS interleaves the two writers, no update is lost
        // while the home bounces between them. (How often it bounces is a
        // modeled claim, asserted on the sim fabric in `cluster_sim.rs`.)
        assert_eq!(ctx.read(&obj)[0], 2 * 55);
    });
}

#[test]
fn single_node_cluster_degenerates_to_local_execution() {
    let run = |config: ClusterConfig| {
        let mut registry = ObjectRegistry::new();
        let data: ArrayHandle<u64> = ArrayHandle::register(
            &mut registry,
            "solo",
            0,
            16,
            NodeId::MASTER,
            HomeAssignment::CreationNode,
        );
        let lock = LockId::derive("solo.lock");
        Cluster::new(config, registry).run(move |ctx| {
            for i in 0..20u64 {
                ctx.acquire(lock);
                ctx.update(&data, |v| v[0] += i);
                ctx.release(lock);
            }
            ctx.barrier(BarrierId(6));
            assert_eq!(ctx.read(&data)[0], (0..20u64).sum());
        })
    };

    run(config(1, ProtocolConfig::adaptive()));
    for sim in sims() {
        let report = run(sim_config(1, ProtocolConfig::adaptive(), sim));
        assert_eq!(
            report.breakdown_messages(),
            0,
            "no coherence traffic on one node"
        );
        assert_eq!(report.migrations(), 0);
    }
}

//! End-to-end tests of the deterministic sim-fabric runtime: event-driven
//! scheduling, seeded perturbations, replayable delivery traces.

use dsm_core::{AdaptiveThresholdPolicy, MigrateOnRequestPolicy, ProtocolConfig};
use dsm_model::ComputeModel;
use dsm_objspace::{BarrierId, HomeAssignment, LockId, NodeId, ObjectRegistry};
use dsm_runtime::{
    ArrayHandle, Cluster, ClusterConfig, DeliveryTrace, ExecutionReport, FabricMode, SimConfig,
};

fn sim_config(nodes: usize, protocol: ProtocolConfig, sim: SimConfig) -> ClusterConfig {
    ClusterConfig::new(nodes, protocol)
        .with_compute(ComputeModel::free())
        .with_fabric(FabricMode::Sim(sim))
}

/// Lock-protected counter increments on the sim fabric; returns the final
/// counter value and the report.
fn counter_run(sim: SimConfig) -> (u64, ExecutionReport) {
    let nodes = 4;
    let increments = 10u64;
    let mut registry = ObjectRegistry::new();
    let counter: ArrayHandle<u64> = ArrayHandle::register(
        &mut registry,
        "sim.counter",
        0,
        1,
        NodeId::MASTER,
        HomeAssignment::Master,
    );
    let lock = LockId::derive("sim.counter.lock");
    let done = BarrierId(1);
    let total = std::sync::Arc::new(std::sync::Mutex::new(0u64));
    let total_in_run = std::sync::Arc::clone(&total);

    let report = Cluster::new(sim_config(nodes, ProtocolConfig::adaptive(), sim), registry).run(
        move |ctx| {
            for _ in 0..increments {
                ctx.acquire(lock);
                ctx.update(&counter, |v| v[0] += 1);
                ctx.release(lock);
            }
            ctx.barrier(done);
            let seen = ctx.read(&counter)[0];
            assert_eq!(seen, 4 * increments, "lost update on the sim fabric");
            if ctx.is_master() {
                *total_in_run.lock().unwrap() = seen;
            }
        },
    );
    let total = *total.lock().unwrap();
    (total, report)
}

fn trace(report: &ExecutionReport) -> &DeliveryTrace {
    report
        .delivery_trace
        .as_ref()
        .expect("sim runs carry a delivery trace")
}

#[test]
fn sim_fabric_runs_the_full_protocol() {
    let (total, report) = counter_run(SimConfig::perturbed(2004));
    assert_eq!(total, 40);
    assert_eq!(report.protocol.lock_acquires, 40);
    assert!(report.execution_time.as_micros() > 0.0);
    let trace = trace(&report);
    assert!(!trace.is_empty());
    // Message-count reconciliation: every recorded send was delivered.
    assert_eq!(trace.len() as u64, report.total_messages());
    // Per-link FIFO survived the perturbations.
    assert_eq!(trace.per_link_fifo_violation(), None);
}

#[test]
fn same_seed_replays_a_bit_identical_trace() {
    let (total_a, report_a) = counter_run(SimConfig::perturbed(7));
    let (total_b, report_b) = counter_run(SimConfig::perturbed(7));
    assert_eq!(total_a, total_b);
    assert_eq!(trace(&report_a), trace(&report_b), "seed 7 must replay");
    assert_eq!(trace(&report_a).checksum(), trace(&report_b).checksum());
    assert_eq!(report_a.execution_time, report_b.execution_time);
    assert_eq!(report_a.node_times, report_b.node_times);
}

#[test]
fn distinct_seeds_reorder_deliveries_but_agree_on_results() {
    let (total_a, report_a) = counter_run(SimConfig::perturbed(1));
    let (total_b, report_b) = counter_run(SimConfig::perturbed(2));
    assert_eq!(total_a, total_b, "results are schedule-independent");
    assert_ne!(
        trace(&report_a).order_signature(),
        trace(&report_b).order_signature(),
        "seeds 1 and 2 should explore different delivery orders"
    );
}

#[test]
fn calm_sim_matches_threaded_results() {
    let (sim_total, sim_report) = counter_run(SimConfig::calm(0));
    assert_eq!(sim_total, 40);
    assert_eq!(trace(&sim_report).per_link_fifo_violation(), None);
    // The threaded fabric computes the same application result.
    let mut registry = ObjectRegistry::new();
    let counter: ArrayHandle<u64> = ArrayHandle::register(
        &mut registry,
        "sim.counter",
        0,
        1,
        NodeId::MASTER,
        HomeAssignment::Master,
    );
    let lock = LockId::derive("sim.counter.lock");
    let config =
        ClusterConfig::new(4, ProtocolConfig::adaptive()).with_compute(ComputeModel::free());
    Cluster::new(config, registry).run(move |ctx| {
        for _ in 0..10 {
            ctx.synchronized(lock, || ctx.update(&counter, |v| v[0] += 1));
        }
        ctx.barrier(BarrierId(1));
        assert_eq!(ctx.read(&counter)[0], 40);
    });
}

#[test]
fn migration_happens_deterministically_on_the_sim_fabric() {
    // Single-writer pattern from node 1: the adaptive policy must migrate
    // the home, identically on every replay.
    let run = |seed: u64| {
        let mut registry = ObjectRegistry::new();
        let obj: ArrayHandle<u64> = ArrayHandle::register(
            &mut registry,
            "sim.mig",
            0,
            4,
            NodeId::MASTER,
            HomeAssignment::Master,
        );
        let lock = LockId::derive("sim.mig.lock");
        let done = BarrierId(9);
        let config = sim_config(
            4,
            ProtocolConfig::no_migration().with_migration(AdaptiveThresholdPolicy::paper()),
            SimConfig::perturbed(seed),
        );
        Cluster::new(config, registry).run(move |ctx| {
            if ctx.node_id() == NodeId(1) {
                for i in 0..6u64 {
                    ctx.synchronized(lock, || ctx.update(&obj, |v| v[0] = i + 1));
                }
            }
            ctx.barrier(done);
            if ctx.node_id() == NodeId(1) {
                assert!(ctx.is_home(&obj), "home must have migrated to the writer");
            }
        })
    };
    let a = run(5);
    let b = run(5);
    assert!(a.migrations() >= 1);
    assert_eq!(a.migrations(), b.migrations());
    assert_eq!(
        a.delivery_trace.as_ref().unwrap(),
        b.delivery_trace.as_ref().unwrap()
    );
}

#[test]
fn jump_policy_bounces_home_between_alternating_writers() {
    // Two writers take turns on one object under the JUMP-style policy,
    // which migrates on every write fault by a non-home node. On the sim
    // fabric the number of bounces is a function of the seed alone: the
    // calm schedule and the integration suite's perturbed seed corpus.
    let mut sims = vec![SimConfig::calm(2004)];
    sims.extend([0x51E5_ED01, 0x51E5_ED02, 0x51E5_ED03].map(SimConfig::perturbed));
    for sim in sims {
        let seed = sim.seed;
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
        let report = Cluster::new(sim_config(3, protocol, sim), registry).run(move |ctx| {
            if ctx.node_id().index() > 0 {
                for i in 0..10u64 {
                    ctx.synchronized(lock, || ctx.update(&obj, |v| v[0] += i + 1));
                }
            }
            ctx.barrier(BarrierId(5));
            assert_eq!(ctx.read(&obj)[0], 2 * 55);
        });
        assert!(
            report.migrations() >= 10,
            "JUMP should migrate frequently (seed {seed:#x}), got {}",
            report.migrations()
        );
    }
}

#[test]
fn protocol_deadlock_panics_with_diagnostics_instead_of_hanging() {
    // Two nodes wait at *different* barriers: a genuine application
    // deadlock. The threaded runtime would hang forever; the sim scheduler
    // must detect the stall, wake the parked threads and panic with replay
    // diagnostics.
    let result = std::panic::catch_unwind(|| {
        let config = ClusterConfig::new(2, ProtocolConfig::adaptive())
            .with_compute(ComputeModel::free())
            .with_fabric(FabricMode::Sim(SimConfig::perturbed(0)));
        Cluster::new(config, ObjectRegistry::new()).run(|ctx| {
            if ctx.node_id() == NodeId(0) {
                ctx.barrier(BarrierId(1));
            } else {
                ctx.barrier(BarrierId(2));
            }
        });
    });
    let err = result.expect_err("a deadlocked sim cluster must panic, not hang");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("no progress possible"),
        "diagnostic panic expected, got: {msg}"
    );
}

#[test]
fn original_application_panic_is_preserved_through_teardown() {
    // Node 2 fails while nodes 0 and 1 park at a barrier; teardown wakes
    // them into secondary "cluster shut down" panics, but the payload that
    // reaches the caller must be node 2's original message.
    let result = std::panic::catch_unwind(|| {
        let config = sim_config(3, ProtocolConfig::adaptive(), SimConfig::perturbed(0));
        Cluster::new(config, ObjectRegistry::new()).run(|ctx| {
            if ctx.node_id() == NodeId(2) {
                panic!("ORIGINAL application failure");
            }
            ctx.barrier(BarrierId(3));
        });
    });
    let err = result.expect_err("the application panic must propagate");
    let msg = err
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| err.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(
        msg.contains("ORIGINAL application failure"),
        "teardown fallout must not mask the original panic, got: {msg}"
    );
}

#[test]
fn application_panic_tears_the_sim_cluster_down() {
    let result = std::panic::catch_unwind(|| {
        let mut registry = ObjectRegistry::new();
        let _obj: ArrayHandle<u64> = ArrayHandle::register(
            &mut registry,
            "sim.panic",
            0,
            1,
            NodeId::MASTER,
            HomeAssignment::Master,
        );
        let done = BarrierId(3);
        let config = sim_config(3, ProtocolConfig::adaptive(), SimConfig::perturbed(0));
        Cluster::new(config, registry).run(move |ctx| {
            if ctx.node_id() == NodeId(2) {
                panic!("deliberate application failure");
            }
            // The other nodes park at a barrier node 2 never reaches; the
            // scheduler must tear them down instead of hanging.
            ctx.barrier(done);
        });
    });
    assert!(result.is_err(), "the application panic must propagate");
}

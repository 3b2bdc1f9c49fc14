//! Policy-state carry-over across a migration grant.
//!
//! The engine ships the object's [`MigrationState`] — including the
//! policy-owned [`PolicyScratch`] and the `prev_home` marker — to the new
//! home inside the grant. These tests pin the handoff down:
//!
//! * **byte-for-byte transport** — the state the old home ships (after the
//!   policy's `on_migrate` hook) is exactly the state the new home
//!   installs, scratch `f64`s compared bit-for-bit;
//! * **scratch carried verbatim** — a policy using the default `on_migrate`
//!   sees its accumulated scratch at the new home unchanged;
//! * **EWMA's deliberate reset** — its `on_migrate` clears the scratch at
//!   the grant point, and exactly the cleared value arrives;
//! * **hysteresis across the handoff** — `prev_home` survives, so
//!   migrating *back* costs `threshold + penalty` consecutive writes at
//!   the new home;
//! * **both fabrics** — a cluster run on the threaded and on the sim
//!   fabric ends with bit-identical policy state at the migrated home.
//!
//! Two cluster-level checks of the same plumbing ride along: per-object
//! overrides reach the decision point, and decision telemetry reaches the
//! execution report.

use dsm_apps::sor;
use dsm_core::policy::{Decision, HomeMigrationPolicy, PolicyInputs};
use dsm_core::step::ClientOp;
use dsm_core::world::World;
use dsm_core::{
    AccessPlan, AdaptiveThresholdPolicy, EwmaWriteRatioPolicy, HysteresisPolicy, MigrationState,
    ProtocolConfig, ProtocolMsg,
};
use dsm_integration_tests::{corpus_seed, sim_test_cluster, test_cluster};
use dsm_objspace::{BarrierId, HomeAssignment, LockId, NodeId, ObjectRegistry};
use dsm_runtime::{ArrayHandle, ClusterBuilder, SimConfig};
use dsm_util::Mutex;
use std::sync::Arc;

const NODES: usize = 3;
const OBJ_BYTES: usize = 64;

/// A probe policy: migrates like FT1 but stamps both scratch fields on
/// every remote write and keeps the default `on_migrate` (scratch travels
/// untouched) — so the tests can verify the *engine's* carry-over with a
/// scratch the built-in policies would not produce.
#[derive(Debug)]
struct ScratchStampPolicy;

impl HomeMigrationPolicy for ScratchStampPolicy {
    fn label(&self) -> &str {
        "STAMP"
    }

    fn decide(&self, inputs: &PolicyInputs<'_>) -> Decision {
        if inputs.state.last_remote_writer == Some(inputs.requester)
            && inputs.state.consecutive_remote_writes >= 1
        {
            Decision::Migrate
        } else {
            Decision::Stay
        }
    }

    fn current_threshold(&self, _inputs: &PolicyInputs<'_>) -> f64 {
        1.0
    }

    fn on_remote_write(&self, state: &mut MigrationState, from: NodeId, diff_bytes: u64) {
        // Values with plenty of mantissa bits, so a carry-over that decodes
        // or re-derives the scratch (instead of copying it) would be caught.
        state.scratch.a += diff_bytes as f64 * 0.333_333_333_333_3;
        state.scratch.b = state.scratch.b * 0.5 + f64::from(from.0) + 0.062_5;
    }
}

/// `NODES` engines sharing the one object, homed at the master. A chase
/// may take `NODES + 2` redirections.
fn world(config: ProtocolConfig) -> World {
    let mut r = ObjectRegistry::new();
    r.register_named(
        "carry.obj",
        0,
        OBJ_BYTES,
        NodeId::MASTER,
        HomeAssignment::Master,
    );
    let mut world = World::new(NODES, config, Arc::new(r));
    world.chase_limit = NODES as u32 + 2;
    world
}

fn obj() -> dsm_objspace::ObjectId {
    dsm_objspace::ObjectId::derive("carry.obj", 0)
}

/// Open an interval at `writer` and fault the object in for writing
/// (chasing redirects). Returns the migration grant state if this fault-in
/// migrated the home to the writer; the caller continues with
/// [`write_and_release`] — the split exists so tests can inspect the
/// freshly installed state *before* the writer's own write mutates it.
fn fault_for_write(world: &mut World, writer: usize) -> Option<MigrationState> {
    world[writer].begin_interval();
    let AccessPlan::Fetch { target } = world[writer].plan_write(obj()) else {
        return None;
    };
    let sent = world.log.len();
    world.complete(writer, ClientOp::fault_in(obj(), true, target));
    world.log[sent..]
        .iter()
        .find_map(|(_, dst, msg)| match msg {
            ProtocolMsg::ObjectReply {
                migration: Some(grant),
                ..
            } if *dst == writer => Some(grant.state.clone()),
            _ => None,
        })
}

/// Write one byte and release the interval opened by [`fault_for_write`].
fn write_and_release(world: &mut World, writer: usize, value: u8) {
    let engine = &world[writer];
    // (Re-)plan now that the copy is present: arms the write permission
    // (and the twin, when the copy is cached rather than homed).
    assert_eq!(engine.plan_write(obj()), AccessPlan::LocalHit);
    engine.with_object_mut(obj(), |d| d.bytes_mut()[0] = value);
    world.release(writer);
}

/// One complete write interval of `writer`. Returns the migration grant
/// state if the fault-in migrated the home to the writer.
fn write_interval(world: &mut World, writer: usize, value: u8) -> Option<MigrationState> {
    let granted = fault_for_write(world, writer);
    write_and_release(world, writer, value);
    granted
}

/// Bit-exact equality of two states, including the scratch `f64`s (plain
/// `==` would already fail on any difference, but NaN-safe bit comparison
/// states the intent: the handoff must *copy*, not recompute).
fn assert_state_bits_equal(shipped: &MigrationState, installed: &MigrationState, context: &str) {
    assert_eq!(shipped, installed, "{context}: state diverged");
    assert_eq!(
        shipped.scratch.a.to_bits(),
        installed.scratch.a.to_bits(),
        "{context}: scratch.a bits diverged"
    );
    assert_eq!(
        shipped.scratch.b.to_bits(),
        installed.scratch.b.to_bits(),
        "{context}: scratch.b bits diverged"
    );
    assert_eq!(
        shipped.prev_home, installed.prev_home,
        "{context}: prev_home"
    );
}

#[test]
fn grant_carries_scratch_and_prev_home_byte_for_byte() {
    let config = ProtocolConfig::no_migration().with_migration(ScratchStampPolicy);
    let mut e = world(config);
    // Interval 1: remote write from node 1 stamps the scratch (C = 1).
    assert!(write_interval(&mut e, 1, 1).is_none(), "no migration yet");
    let before = e[0].migration_state(obj()).expect("node 0 is home");
    assert!(before.scratch.a != 0.0 && before.scratch.b != 0.0);
    assert_eq!(before.prev_home, None);
    // Interval 2: node 1 faults again — FT1-style decision migrates, and
    // the grant must ship the stamped scratch untouched plus the old home.
    let shipped = fault_for_write(&mut e, 1).expect("second fault migrates");
    assert_eq!(
        shipped.scratch.a.to_bits(),
        before.scratch.a.to_bits(),
        "default on_migrate must carry the scratch verbatim"
    );
    assert_eq!(shipped.scratch.b.to_bits(), before.scratch.b.to_bits());
    assert_eq!(shipped.prev_home, Some(NodeId(0)));
    assert_eq!(shipped.migrations, before.migrations + 1);
    // The new home installed exactly what was shipped (inspected before the
    // writer's own — now home-local — write mutates the bookkeeping).
    let installed = e[1].migration_state(obj()).expect("node 1 is now home");
    assert_state_bits_equal(&shipped, &installed, "stamp policy handoff");
    assert!(e[1].is_home(obj()) && !e[0].is_home(obj()));
    write_and_release(&mut e, 1, 2);
}

#[test]
fn ewma_reset_on_migrate_arrives_exactly() {
    let config = ProtocolConfig::no_migration().with_migration(EwmaWriteRatioPolicy::default());
    let mut e = world(config);
    // Three unbroken remote writes push the share to 0.875 ≥ 0.8.
    for i in 0..3 {
        assert!(write_interval(&mut e, 1, i + 1).is_none());
    }
    let before = e[0].migration_state(obj()).expect("node 0 is home");
    assert!(
        EwmaWriteRatioPolicy::share(&before) >= 0.8,
        "share {} must have armed migration",
        EwmaWriteRatioPolicy::share(&before)
    );
    // The next fault migrates; EWMA's on_migrate clears the scratch at the
    // grant point, and exactly the cleared state must arrive.
    let shipped = fault_for_write(&mut e, 1).expect("armed fault migrates");
    assert_eq!(
        shipped.scratch.a.to_bits(),
        0f64.to_bits(),
        "EWMA resets its share for the new epoch"
    );
    assert_eq!(shipped.prev_home, Some(NodeId(0)));
    let installed = e[1].migration_state(obj()).expect("node 1 is now home");
    assert_state_bits_equal(&shipped, &installed, "EWMA handoff");
    write_and_release(&mut e, 1, 9);
    // Diff-size history survives the reset (engine-owned, not scratch).
    assert_eq!(installed.diff_samples, before.diff_samples);
    assert_eq!(
        installed.mean_diff_bytes.to_bits(),
        before.mean_diff_bytes.to_bits()
    );
}

#[test]
fn hysteresis_prev_home_survives_and_penalizes_migrate_back() {
    let config = ProtocolConfig::no_migration().with_migration(HysteresisPolicy::new(1, 2));
    let mut e = world(config);
    // Node 1 takes the home with one remote write + fault.
    assert!(write_interval(&mut e, 1, 1).is_none());
    let shipped = fault_for_write(&mut e, 1).expect("threshold 1 migrates");
    assert_eq!(shipped.prev_home, Some(NodeId(0)));
    let installed = e[1].migration_state(obj()).expect("node 1 is home");
    assert_state_bits_equal(&shipped, &installed, "hysteresis handoff");
    write_and_release(&mut e, 1, 2);
    // Node 0 now writes remotely: migrating *back* to the previous home
    // needs threshold + penalty = 3 consecutive writes, so the first two
    // post-write faults must NOT migrate…
    assert!(write_interval(&mut e, 0, 3).is_none(), "C=1 < 3: stay");
    assert!(write_interval(&mut e, 0, 4).is_none(), "C=2 < 3: stay");
    assert!(e[1].is_home(obj()), "penalty must hold the home at node 1");
    // …while a third consecutive write arms the migrate-back.
    assert!(
        write_interval(&mut e, 0, 5).is_none(),
        "C=3 armed, next fault moves"
    );
    let back = write_interval(&mut e, 0, 6).expect("penalty met: migrate back");
    assert_eq!(back.prev_home, Some(NodeId(1)));
    assert!(e[0].is_home(obj()));
    // A non-previous home still migrates at the base threshold of 1: node 2
    // needs only one recorded write before its next fault.
    assert!(write_interval(&mut e, 2, 7).is_none(), "C=1 recorded");
    assert!(
        write_interval(&mut e, 2, 8).is_some(),
        "base threshold applies to a fresh requester"
    );
}

/// The cluster-level handoff, identical on both fabrics: node 1's repeated
/// writes migrate the object under the stamp policy; after a barrier the
/// new home publishes its installed state, and the threaded and sim runs
/// must agree bit-for-bit.
#[test]
fn policy_state_survives_handoff_on_both_fabrics() {
    let run = |mut cluster: ClusterBuilder| -> (u64, u64, Option<NodeId>, u32) {
        let handle: ArrayHandle<u64> = ArrayHandle::register(
            cluster.registry(),
            "carry.cluster",
            0,
            4,
            NodeId::MASTER,
            HomeAssignment::Master,
        );
        let lock = LockId::derive("carry.cluster.lock");
        let done = BarrierId(0xCA11);
        let observed = Arc::new(Mutex::new(None));
        let observed_in_run = Arc::clone(&observed);
        cluster.build().run(move |ctx| {
            if ctx.node_id() == NodeId(1) {
                for i in 0..4u64 {
                    ctx.synchronized(lock, || ctx.view_mut(&handle)[1] = i + 1);
                }
            }
            ctx.barrier(done);
            if ctx.node_id() == NodeId(1) {
                assert!(ctx.is_home(&handle), "home must have migrated to node 1");
                let state = ctx.migration_state(&handle).expect("home has state");
                *observed_in_run.lock() = Some((
                    state.scratch.a.to_bits(),
                    state.scratch.b.to_bits(),
                    state.prev_home,
                    state.migrations,
                ));
            }
            ctx.barrier(done);
        });
        let result = observed.lock().take().expect("node 1 published its state");
        result
    };

    let policy = || ProtocolConfig::no_migration().with_migration(ScratchStampPolicy);
    let threaded = run(test_cluster(4, policy()));
    let sim = run(sim_test_cluster(
        4,
        policy(),
        SimConfig::perturbed(corpus_seed(0)),
    ));

    let (a_bits, _b_bits, prev_home, migrations) = threaded;
    assert!(
        f64::from_bits(a_bits) != 0.0,
        "stamped scratch must be live"
    );
    assert_eq!(prev_home, Some(NodeId::MASTER), "previous home recorded");
    assert_eq!(migrations, 1, "exactly one handoff in this pattern");
    assert_eq!(
        threaded,
        sim,
        "the handed-off policy state must be bit-identical on the threaded \
         and sim fabrics (seed {:#x})",
        corpus_seed(0)
    );
}

/// Per-object policy overrides: one cluster, two objects, two policies. The
/// object overridden to the adaptive policy migrates to its single writer;
/// the object left on the NoMigration default never moves.
#[test]
fn mixed_cluster_runs_different_policies_per_object() {
    let mut cluster = sim_test_cluster(4, ProtocolConfig::no_migration(), SimConfig::calm(2004));
    let [pinned, overridden]: [ArrayHandle<u64>; 2] = [0, 1].map(|i| {
        ArrayHandle::register(
            cluster.registry(),
            "carry.mixed",
            i,
            4,
            NodeId::MASTER,
            HomeAssignment::Master,
        )
    });
    let protocol = ProtocolConfig::no_migration()
        .with_object_policy(overridden.id, AdaptiveThresholdPolicy::paper());
    let lock = LockId::derive("carry.mixed.lock");
    let done = BarrierId(0xC0DE);
    let report = cluster.protocol(protocol).build().run(move |ctx| {
        if ctx.node_id() == NodeId(2) {
            for i in 0..6u64 {
                ctx.synchronized(lock, || {
                    ctx.view_mut(&pinned)[0] = i + 1;
                    ctx.view_mut(&overridden)[0] = i + 1;
                });
            }
        }
        ctx.barrier(done);
        if ctx.node_id() == NodeId(2) {
            assert!(
                !ctx.is_home(&pinned),
                "the NoMigration default must pin the un-overridden object"
            );
            assert!(
                ctx.is_home(&overridden),
                "the adaptive override must migrate its object to the writer"
            );
        }
        ctx.barrier(done);
    });
    assert_eq!(report.migrations(), 1);
    let telemetry = report.policy_telemetry();
    assert_eq!(telemetry.decisions_migrate, 1);
    assert!(telemetry.decisions_considered > 1);
}

/// Policy telemetry flows through the runtime into the report.
#[test]
fn decision_telemetry_reaches_the_execution_report() {
    let params = sor::SorParams::small(24, 4);
    let config = sim_test_cluster(4, ProtocolConfig::adaptive(), SimConfig::calm(2004));
    let run = sor::run(config, &params);
    let telemetry = run.report.policy_telemetry();
    assert!(
        telemetry.decisions_considered > 0,
        "decisions were considered"
    );
    assert_eq!(
        telemetry.decisions_migrate,
        run.report.migrations(),
        "taken decisions are the migrations the report counts"
    );
    assert!(run.report.migration_rate() > 0.0);
    assert!(
        telemetry.threshold_samples > 0 && telemetry.mean_threshold() >= 1.0,
        "the adaptive threshold trajectory is sampled (mean {})",
        telemetry.mean_threshold()
    );
    assert_eq!(run.report.policy_label, "AT");
}

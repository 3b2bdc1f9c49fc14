//! Randomized integration tests of the protocol engine driven at the
//! message level (no threads) by `dsm_core::world::World`, which runs the
//! runtime's own steps (`dsm_core::step`: the client chases, and `serve` at
//! every target): random schedules of single-writer and
//! multi-writer intervals across a small cluster must never violate the
//! protocol's core invariants:
//!
//! * exactly one node is the home of an object at any time;
//! * forwarding-pointer chains always resolve to the current home within
//!   `num_nodes` hops;
//! * no write is ever lost: after every interval the home copy equals the
//!   writer's view;
//! * the adaptive threshold never drops below its initial value.
//!
//! Schedules are generated from fixed seeds with the workspace's
//! [`SmallRng`], so every failure is reproducible from the case index.

use dsm_core::step::{self, ClientOp};
use dsm_core::world::World;
use dsm_core::{DiffEntryStatus, PolicyInputs, ProtocolConfig, ProtocolMsg};
use dsm_objspace::{HomeAssignment, NodeId, ObjectId, ObjectRegistry};
use dsm_util::SmallRng;
use std::sync::Arc;

const OBJ_BYTES: usize = 64;
const NODES: usize = 4;

fn obj() -> ObjectId {
    ObjectId::derive("prop.obj", 0)
}

/// `NODES` engines sharing the `count` objects `name`, all homed at the
/// master. A chase may take `NODES + 1` redirections.
fn world(config: ProtocolConfig, name: &str, count: u64) -> World {
    let mut registry = ObjectRegistry::new();
    for i in 0..count {
        registry.register_named(name, i, OBJ_BYTES, NodeId::MASTER, HomeAssignment::Master);
    }
    let mut world = World::new(NODES, config, Arc::new(registry));
    world.chase_limit = NODES as u32 + 1;
    world
}

/// A random writer schedule of `1..=max_len` steps.
fn schedule(rng: &mut SmallRng, max_len: usize) -> Vec<usize> {
    let len = 1 + rng.gen_index(max_len);
    (0..len).map(|_| rng.gen_index(NODES)).collect()
}

/// Run one write interval of `writer` through the [`World`], following
/// redirects; a redirect back to the writer itself fails.
fn write_interval(world: &mut World, writer: usize, value: u8) {
    let sent = world.log.len();
    world.write_interval(writer, obj(), value);
    for (_, dst, msg) in &world.log[sent..] {
        if let ProtocolMsg::ObjectRedirect { new_home, .. }
        | ProtocolMsg::DiffRedirect { new_home, .. } = msg
        {
            assert_ne!(
                new_home.index(),
                *dst,
                "engine redirected a request to itself"
            );
        }
    }
}

fn home_count(world: &World) -> usize {
    world.homes(obj()).len()
}

fn home_value(world: &World) -> u8 {
    world
        .engines
        .iter()
        .find_map(|e| e.home_bytes(obj()))
        .expect("some node must be home")[0]
}

/// Under an arbitrary schedule of writers, with every migration policy,
/// there is always exactly one home, redirection chains converge and the
/// last write is never lost.
#[test]
fn random_schedules_preserve_protocol_invariants() {
    let mut rng = SmallRng::seed_from_u64(0x1AB5);
    for case in 0..64 {
        let config = match rng.gen_index(4) {
            0 => ProtocolConfig::no_migration(),
            1 => ProtocolConfig::fixed_threshold(1),
            2 => ProtocolConfig::fixed_threshold(2),
            _ => ProtocolConfig::adaptive(),
        };
        let steps = schedule(&mut rng, 60);
        let mut cluster = world(config, "prop.obj", 1);
        for (step, &writer) in steps.iter().enumerate() {
            let value = (step % 250) as u8 + 1;
            write_interval(&mut cluster, writer, value);
            assert_eq!(home_count(&cluster), 1, "case {case}: exactly one home");
            assert_eq!(
                home_value(&cluster),
                value,
                "case {case}: the home copy holds the last write"
            );
        }
    }
}

/// The adaptive threshold of the object's current home never drops below the
/// initial threshold, whatever the access history.
#[test]
fn adaptive_threshold_never_below_initial() {
    let mut rng = SmallRng::seed_from_u64(0xADA9);
    let half_peak = ProtocolConfig::adaptive().half_peak_length();
    for case in 0..64 {
        let steps = schedule(&mut rng, 40);
        let mut cluster = world(ProtocolConfig::adaptive(), "prop.obj", 1);
        for (step, &writer) in steps.iter().enumerate() {
            write_interval(&mut cluster, writer, (step % 250) as u8 + 1);
            for engine in &cluster.engines {
                if let Some(state) = engine.migration_state(obj()) {
                    // The threshold the engine's policy reports through the
                    // trait surface (the requester does not enter the
                    // adaptive threshold formula).
                    let t = engine.config().migration.current_threshold(&PolicyInputs {
                        state: &state,
                        requester: engine.node(),
                        for_write: true,
                        object_bytes: OBJ_BYTES as u64,
                        half_peak_len: half_peak,
                    });
                    assert!(
                        t >= 1.0 - 1e-12,
                        "case {case}: threshold dropped below T_init: {t}"
                    );
                }
            }
        }
    }
}

/// Release-time flush batching with a home that migrated mid-flight: a
/// writer releases an interval whose flush plans all (staleley) target the
/// initial home, one of the objects having migrated away in between. The
/// batch must resolve per entry — one applied, one redirected — the
/// redirected entry must be re-planned individually under the epoch-guarded
/// redirect rules, and no `complete_flush` ack may be lost
/// (`finish_release` panics on any unacknowledged flush).
#[test]
fn batch_to_migrated_home_replans_redirected_entries_individually() {
    let mut world = world(ProtocolConfig::adaptive(), "batch.obj", 2);
    let stays = ObjectId::derive("batch.obj", 0);
    let moves = ObjectId::derive("batch.obj", 1);

    // Node 1 opens an interval and faults both objects in from node 0, then
    // writes them — but does not release yet.
    world[1].begin_interval();
    world.fault_in(1, stays, true);
    world.fault_in(1, moves, true);
    world[1].with_object_mut(stays, |d| d.bytes_mut()[0] = 11);
    world[1].with_object_mut(moves, |d| d.bytes_mut()[0] = 22);

    // Mid-flight: node 2 faults `moves` twice, so the adaptive policy
    // migrates its home 0 -> 2 while node 1's release is still pending.
    for _ in 0..2 {
        world[2].begin_interval();
        world.fault_in(2, moves, true);
        world[2].with_object_mut(moves, |d| d.bytes_mut()[1] = 9);
        world.release(2);
    }
    let engines = &world.engines;
    assert!(
        engines[2].is_home(moves),
        "home must have migrated to node 2"
    );
    assert!(engines[0].is_home(stays));

    // Node 1 releases: both plans still target node 0 (its belief is
    // stale), so they group into ONE batch aimed at the old home.
    let mut ops = step::release_ops(&engines[1], true);
    assert_eq!(ops.len(), 1, "stale beliefs share one (old) home");
    let mut op = ops.pop().unwrap();
    assert!(
        matches!(&op, ClientOp::Batch(_)),
        "two plans travel as one batch: {op:?}"
    );
    assert_eq!(engines[1].stats().batch_entries, 2, "both plans are in it");

    // Serve the batch with the production steps: the server resolves it
    // per entry at the addressed node and acks every entry at once.
    let target = world.send_next(1, &mut op);
    assert_eq!(target, 0);
    world.deliver(1, 0);
    let Some(ProtocolMsg::DiffBatchAck { results, .. }) = world.peek(0, 1) else {
        panic!("a batch is answered by its ack: {:?}", world.peek(0, 1));
    };
    let redirected: Vec<_> = results
        .iter()
        .filter_map(|result| match result.status {
            DiffEntryStatus::Applied { .. } => None,
            DiffEntryStatus::Redirect { new_home, epoch } => Some((result.obj, new_home, epoch)),
        })
        .collect();
    assert_eq!(redirected.len(), 1, "exactly the migrated entry re-plans");
    let (redirected, hint, epoch) = redirected[0];
    assert_eq!(redirected, moves, "only the migrated object redirects");
    assert_eq!(hint, NodeId(2));
    assert!(epoch > 0, "redirect hints carry the home epoch");
    world.deliver(0, 1);
    assert!(
        !world.resume(1, &mut op),
        "the redirected entry is re-planned"
    );
    // The re-plan adopted the hint: it is one individual flush at the new
    // home, counting the batch-level redirect as its first hop.
    let request = world.peek(1, 2);
    assert!(request.is_some(), "the redirect hint was adopted");
    assert!(
        matches!(request, Some(ProtocolMsg::DiffFlush { obj, redirections: 1, .. }) if *obj == moves),
        "re-plan: {request:?}"
    );
    world.deliver(1, 2);
    world.deliver(2, 1);
    assert!(world.resume(1, &mut op), "the re-plan is applied");
    // All acks accounted for: finish_release must not find unflushed dirt.
    world[1].finish_release();

    // Both writes landed at the *current* homes.
    let engines = &world.engines;
    assert_eq!(engines[0].home_bytes(stays).unwrap()[0], 11);
    assert_eq!(engines[2].home_bytes(moves).unwrap()[0], 22);
    // The stale hint was replaced by the epoch-guarded forward pointer.
    assert_eq!(engines[1].home_hint(moves), NodeId(2));
}

/// The no-migration baseline never moves the home, no matter the schedule.
#[test]
fn no_migration_home_is_stable() {
    let mut rng = SmallRng::seed_from_u64(0x5AFE);
    for case in 0..64 {
        let steps = schedule(&mut rng, 40);
        let mut cluster = world(ProtocolConfig::no_migration(), "prop.obj", 1);
        for (step, &writer) in steps.iter().enumerate() {
            write_interval(&mut cluster, writer, (step % 250) as u8 + 1);
        }
        assert!(
            cluster[0].is_home(obj()),
            "case {case}: NoHM must keep the home on the master"
        );
    }
}

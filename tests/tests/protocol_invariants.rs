//! Randomized integration tests of the protocol engine driven at the
//! message level (no threads) through the runtime's own steps
//! (`dsm_core::step`: the client chases, and `serve` at every target):
//! random schedules of single-writer and
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

use dsm_core::step::{self, ClientOp, ServeState};
use dsm_core::{
    group_flush_plans, AccessPlan, DiffEntryStatus, FlushPlan, PolicyInputs, ProtocolConfig,
    ProtocolEngine, ProtocolMsg, ReqId,
};
use dsm_objspace::{HomeAssignment, NodeId, ObjectId, ObjectRegistry};
use dsm_util::SmallRng;
use std::sync::Arc;

const OBJ_BYTES: usize = 64;
const NODES: usize = 4;

fn registry() -> Arc<ObjectRegistry> {
    let mut r = ObjectRegistry::new();
    r.register_named(
        "prop.obj",
        0,
        OBJ_BYTES,
        NodeId::MASTER,
        HomeAssignment::Master,
    );
    Arc::new(r)
}

fn obj() -> ObjectId {
    ObjectId::derive("prop.obj", 0)
}

fn engines(nodes: usize, config: ProtocolConfig) -> Vec<ProtocolEngine> {
    let reg = registry();
    (0..nodes)
        .map(|i| ProtocolEngine::new(NodeId::from(i), nodes, config.clone(), Arc::clone(&reg)))
        .collect()
}

/// A random writer schedule of `1..=max_len` steps.
fn schedule(rng: &mut SmallRng, max_len: usize) -> Vec<usize> {
    let len = 1 + rng.gen_index(max_len);
    (0..len).map(|_| rng.gen_index(NODES)).collect()
}

/// Serve `request` from `from` at node `at` with the production step and
/// return its reply, completed at the requester as the runtime completes it
/// (a fault-in reply installs its copy and any grant).
fn serve_at(
    engines: &[ProtocolEngine],
    at: usize,
    from: NodeId,
    request: ProtocolMsg,
) -> ProtocolMsg {
    let mut sent = Vec::new();
    let mut serve = ServeState::default();
    step::serve(&engines[at], &mut serve, from, request, &mut |_, msg| {
        sent.push(msg)
    });
    assert_eq!(
        serve.deferred(),
        0,
        "single-threaded request cannot be deferred"
    );
    let mut reply = sent
        .into_iter()
        .find(ProtocolMsg::is_reply)
        .expect("a served request is answered");
    step::install_reply(&engines[from.index()], &mut reply);
    reply
}

/// A write fault-in first aimed at `target`.
fn fault_in(obj: ObjectId, target: NodeId) -> ClientOp {
    ClientOp::FaultIn {
        obj,
        for_write: true,
        target,
        redirections: 0,
        redirect: None,
    }
}

/// A flush of `plan` starting at `redirections` hops.
fn flush(plan: FlushPlan, redirections: u32) -> ClientOp {
    ClientOp::Flush {
        plan,
        redirections,
        redirect: None,
    }
}

/// Run `op` of `writer` to completion, serving every request at its target,
/// and return the redirection hops it took; a redirect back to the writer
/// itself, or a chase longer than `limit` hops, fails.
fn drive(engines: &[ProtocolEngine], writer: usize, mut op: ClientOp, limit: u32) -> u32 {
    let requester = engines[writer].node();
    for req in 1.. {
        let (target, request) = op.request(&engines[writer], ReqId(req));
        assert_ne!(target, requester, "engine redirected a request to itself");
        let reply = serve_at(engines, target.index(), requester, request);
        if let ProtocolMsg::ObjectRedirect { new_home, .. }
        | ProtocolMsg::DiffRedirect { new_home, .. } = &reply
        {
            assert_ne!(
                *new_home, requester,
                "engine redirected a request to itself"
            );
        }
        if op.on_reply(&engines[writer], reply) {
            return op.redirections();
        }
        assert!(
            op.redirections() <= limit,
            "forwarding chain did not converge"
        );
    }
    unreachable!("request ids ran out")
}

/// Run one write interval of `writer`, following redirects, and return the
/// number of redirection hops of its fault-in.
fn write_interval(engines: &[ProtocolEngine], writer: usize, value: u8) -> u32 {
    let id = obj();
    let limit = engines.len() as u32 + 1;
    engines[writer].begin_interval();
    let mut hops = 0;
    if let AccessPlan::Fetch { target } = engines[writer].plan_write(id) {
        hops = drive(engines, writer, fault_in(id, target), limit);
        assert_eq!(engines[writer].plan_write(id), AccessPlan::LocalHit);
    }
    engines[writer].with_object_mut(id, |d| d.bytes_mut()[0] = value);
    for plan in engines[writer].prepare_release() {
        drive(engines, writer, flush(plan, 0), limit);
    }
    engines[writer].finish_release();
    hops
}

fn home_count(engines: &[ProtocolEngine]) -> usize {
    engines.iter().filter(|e| e.is_home(obj())).count()
}

fn home_value(engines: &[ProtocolEngine]) -> u8 {
    engines
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
        let cluster = engines(NODES, config);
        for (step, &writer) in steps.iter().enumerate() {
            let value = (step % 250) as u8 + 1;
            write_interval(&cluster, writer, value);
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
        let cluster = engines(NODES, ProtocolConfig::adaptive());
        for (step, &writer) in steps.iter().enumerate() {
            write_interval(&cluster, writer, (step % 250) as u8 + 1);
            for engine in &cluster {
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

/// Fault `obj` in at `writer` for writing, following redirects.
fn fault_in_for_write(engines: &[ProtocolEngine], writer: usize, obj: ObjectId) {
    if let AccessPlan::Fetch { target } = engines[writer].plan_write(obj) {
        drive(
            engines,
            writer,
            fault_in(obj, target),
            engines.len() as u32 + 1,
        );
        assert_eq!(engines[writer].plan_write(obj), AccessPlan::LocalHit);
    }
}

/// Flush one plan individually, following forwarding pointers until
/// applied. `hops` seeds the redirection count (0 for a fresh flush, 1 for
/// the re-plan of a batch entry whose batch-level redirect already counted).
fn flush_individually(engines: &[ProtocolEngine], writer: usize, plan: &FlushPlan, hops: u32) {
    drive(
        engines,
        writer,
        flush(plan.clone(), hops),
        engines.len() as u32 + 2,
    );
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
    let mut registry = ObjectRegistry::new();
    for i in 0..2u64 {
        registry.register_named(
            "batch.obj",
            i,
            OBJ_BYTES,
            NodeId::MASTER,
            HomeAssignment::Master,
        );
    }
    let registry = Arc::new(registry);
    let engines: Vec<ProtocolEngine> = (0..NODES)
        .map(|i| {
            ProtocolEngine::new(
                NodeId::from(i),
                NODES,
                ProtocolConfig::adaptive(),
                Arc::clone(&registry),
            )
        })
        .collect();
    let stays = ObjectId::derive("batch.obj", 0);
    let moves = ObjectId::derive("batch.obj", 1);

    // Node 1 opens an interval and faults both objects in from node 0, then
    // writes them — but does not release yet.
    engines[1].begin_interval();
    fault_in_for_write(&engines, 1, stays);
    fault_in_for_write(&engines, 1, moves);
    engines[1].with_object_mut(stays, |d| d.bytes_mut()[0] = 11);
    engines[1].with_object_mut(moves, |d| d.bytes_mut()[0] = 22);

    // Mid-flight: node 2 faults `moves` twice, so the adaptive policy
    // migrates its home 0 -> 2 while node 1's release is still pending.
    for _ in 0..2 {
        engines[2].begin_interval();
        fault_in_for_write(&engines, 2, moves);
        engines[2].with_object_mut(moves, |d| d.bytes_mut()[1] = 9);
        for plan in engines[2].prepare_release() {
            flush_individually(&engines, 2, &plan, 0);
        }
        engines[2].finish_release();
    }
    assert!(
        engines[2].is_home(moves),
        "home must have migrated to node 2"
    );
    assert!(engines[0].is_home(stays));

    // Node 1 releases: both plans still target node 0 (its belief is
    // stale), so they group into ONE batch aimed at the old home.
    let plans = engines[1].prepare_release();
    assert_eq!(plans.len(), 2);
    let mut batches = group_flush_plans(plans);
    assert_eq!(batches.len(), 1, "stale beliefs share one (old) home");
    let batch = batches.pop().unwrap();
    assert_eq!(batch.target, NodeId(0));

    // Serve the batch with the production steps: the server resolves it
    // per entry at the addressed node and acks every entry at once.
    let mut op = ClientOp::batch(&engines[1], batch);
    let (target, request) = op.request(&engines[1], ReqId(1));
    assert_eq!(target, NodeId(0));
    let ack = serve_at(&engines, 0, NodeId(1), request);
    let ProtocolMsg::DiffBatchAck { results, .. } = &ack else {
        panic!("a batch is answered by its ack: {ack:?}");
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
    assert!(
        !op.on_reply(&engines[1], ack),
        "the redirected entry is re-planned"
    );
    // The re-plan adopted the hint: it is one individual flush at the new
    // home, counting the batch-level redirect as its first hop.
    let (target, request) = op.request(&engines[1], ReqId(2));
    assert_eq!(target, NodeId(2), "the redirect hint was adopted");
    assert!(
        matches!(request, ProtocolMsg::DiffFlush { obj, redirections: 1, .. } if obj == moves),
        "re-plan: {request:?}"
    );
    let applied = serve_at(&engines, 2, NodeId(1), request);
    assert!(op.on_reply(&engines[1], applied), "the re-plan is applied");
    // All acks accounted for: finish_release must not find unflushed dirt.
    engines[1].finish_release();

    // Both writes landed at the *current* homes.
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
        let cluster = engines(NODES, ProtocolConfig::no_migration());
        for (step, &writer) in steps.iter().enumerate() {
            write_interval(&cluster, writer, (step % 250) as u8 + 1);
        }
        assert!(
            cluster[0].is_home(obj()),
            "case {case}: NoHM must keep the home on the master"
        );
    }
}

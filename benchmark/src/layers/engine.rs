//! `dsm_core`: the protocol engine's hot calls, driven at the message level
//! on a two-engine pair (no threads, no fabric) the way
//! `tests/tests/migration_props.rs` drives it: node 1 writes objects homed
//! at node 0, interval after interval.

use super::{Rows, ITERS};
use dsm_core::{
    AccessPlan, DiffOutcome, MigrationState, ObjectRequestOutcome, PolicyInputs, ProtocolConfig,
    ProtocolEngine,
};
use dsm_objspace::{HomeAssignment, NodeId, ObjectId, ObjectRegistry};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Objects written per interval, all homed at node 0.
const OBJECTS: usize = 8;
const OBJECT_BYTES: usize = 512;

fn object(i: usize) -> ObjectId {
    ObjectId::derive("bench.engine", i as u64)
}

pub fn run(rows: &mut Rows) {
    let mut registry = ObjectRegistry::new();
    for i in 0..OBJECTS {
        registry.register_named(
            "bench.engine",
            i as u64,
            OBJECT_BYTES,
            NodeId::MASTER,
            HomeAssignment::Master,
        );
    }
    let registry = Arc::new(registry);
    // No migration: the homes must stay put for every iteration to measure
    // the same call on the same state.
    let config = ProtocolConfig::no_migration();
    let home = ProtocolEngine::new(NodeId(0), 2, config.clone(), Arc::clone(&registry));
    let writer = ProtocolEngine::new(NodeId(1), 2, config.clone(), Arc::clone(&registry));

    home.begin_interval();
    assert_eq!(home.plan_read(object(0)), AccessPlan::LocalHit);
    rows.batched_ns("core.plan_read_hit_ns", || {
        black_box(home.plan_read(black_box(object(0))));
    });

    let intervals = ITERS / OBJECTS;
    let mut request_ns = Vec::with_capacity(ITERS);
    let mut diff_ns = Vec::with_capacity(ITERS);
    let mut release_ns = Vec::with_capacity(intervals);
    for round in 0..intervals + intervals / 10 {
        let warm = round >= intervals / 10;
        writer.begin_interval();
        for i in 0..OBJECTS {
            let obj = object(i);
            assert!(matches!(writer.plan_write(obj), AccessPlan::Fetch { .. }));
            let start = Instant::now();
            let outcome = home.handle_object_request(obj, NodeId(1), true, 0);
            if warm {
                request_ns.push(start.elapsed().as_nanos() as f64);
            }
            let ObjectRequestOutcome::Reply {
                data,
                version,
                migration,
                ..
            } = outcome
            else {
                panic!("home must reply: {outcome:?}");
            };
            writer.install_object(obj, data, version, migration);
            assert_eq!(writer.plan_write(obj), AccessPlan::LocalHit);
            writer.with_object_mut(obj, |d| d.set::<u64>(round % 64, round as u64 + 1));
        }
        let start = Instant::now();
        let plans = writer.prepare_release();
        if warm {
            release_ns.push(start.elapsed().as_nanos() as f64 / OBJECTS as f64);
        }
        assert_eq!(plans.len(), OBJECTS);
        for plan in plans {
            let start = Instant::now();
            let outcome = home.handle_diff(plan.obj, &plan.diff, NodeId(1), 0);
            if warm {
                diff_ns.push(start.elapsed().as_nanos() as f64);
            }
            let DiffOutcome::Applied { new_version } = outcome else {
                panic!("home must apply: {outcome:?}");
            };
            writer.complete_flush(plan.obj, new_version);
        }
        writer.finish_release();
    }
    rows.samples("core.handle_object_request_ns", &request_ns, 1.0);
    rows.samples("core.handle_diff_ns", &diff_ns, 1.0);
    rows.samples("core.prepare_release_ns_per_obj", &release_ns, 1.0);

    // The adaptive policy's decision on the state of an object that has
    // seen a run of remote writes: what a home evaluates per fault-in.
    let adaptive = ProtocolConfig::adaptive();
    let policy = Arc::clone(adaptive.policy_for(object(0)));
    let mut state = MigrationState::new();
    for _ in 0..3 {
        state.record_remote_write(NodeId(1), 40);
    }
    let inputs = PolicyInputs {
        state: &state,
        requester: NodeId(1),
        for_write: true,
        object_bytes: OBJECT_BYTES as u64,
        half_peak_len: adaptive.half_peak_length(),
    };
    rows.batched_ns("core.policy_decide_ns", || {
        black_box(policy.decide(black_box(&inputs)));
    });
}

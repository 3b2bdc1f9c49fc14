//! Conformance scenarios on the deterministic sim fabric that the
//! policy × workload grid does not reach. The grid itself (defined once in
//! `dsm_bench::matrix`) runs in tier-1 as the golden `sim_matrix` and
//! `sim_matrix_lossy` tests of `dsm-bench`, on the first two
//! `dsm_util::derived_seeds` (the first two of the default corpus);
//! `sim_matrix --seeds` replays a failing cell and `sim_matrix --sweep N`
//! widens it. Here:
//!
//! * a home node **going dark mid-run** triggers a deterministic home
//!   re-election and the workload still completes with the right answer,
//!   replaying bit-identically from one pinned seed;
//! * a diff flush meeting a live read lease is **deferred** (`Busy`) on
//!   every corpus seed (`DSM_SEEDS` overridable), without changing the
//!   result;
//! * the single-home-per-epoch invariant holds at every synchronization
//!   point of a migration-churn run.
//!
//! Every assertion message names the seed, so a failure is a replay recipe.

use dsm_bench::matrix;
use dsm_core::{MigrateOnRequestPolicy, ProtocolConfig};
use dsm_integration_tests::{seed_pair, sim_test_cluster};
use dsm_model::{ComputeModel, NetworkParams, SimDuration, SimTime};
use dsm_net::PauseSpec;
use dsm_objspace::{BarrierId, HomeAssignment, LockId, NodeId};
use dsm_runtime::{ArrayHandle, Cluster, ExecutionReport, FabricMode, SimConfig};
use dsm_util::{fnv, FNV_BASIS};

/// A home node goes dark mid-run (seeded node-pause injection) while
/// another node needs its object: the stalled request times out, fails
/// over to a deterministic home re-election at the object's arbiter, the
/// election winner serves the access from its cached copy, the deposed
/// home is fenced when it heals — and the workload completes with the
/// right answer, bit-identically replayable from the seed.
#[test]
fn matrix_home_crash_triggers_reelection_and_workload_completes() {
    const NODES: usize = 4;
    // Node 1 (the object's creation home AND manager, so the arbiter
    // falls over to node 2) goes dark for a 4 ms virtual-time window.
    let pause = PauseSpec {
        node: 1,
        from: SimTime::from_micros(10_000.0),
        until: SimTime::from_micros(14_000.0),
    };
    let run = |seed: u64| -> ExecutionReport {
        let mut cluster = Cluster::builder()
            .nodes(NODES)
            .protocol(ProtocolConfig::no_migration().with_network(NetworkParams::ideal()))
            .compute(ComputeModel::free())
            .fabric(FabricMode::Sim(
                SimConfig::perturbed(seed).with_pause(pause),
            ));
        let x: ArrayHandle<u64> = ArrayHandle::register(
            cluster.registry(),
            "matrix.crash",
            0,
            NODES,
            NodeId(1),
            HomeAssignment::CreationNode,
        );
        let lock = LockId::derive("matrix.crash.lock");
        let gate = BarrierId(0x52);
        // The ideal (1 µs start-up) network keeps the bootstrap phases in
        // the tens of microseconds of virtual time, so the explicit
        // `charge` below places the write phase inside the pause window
        // with plenty of margin on both sides.
        cluster.build().run(move |ctx| {
            let me = ctx.node_id().index();
            // Bootstrap: the home seeds the value; node 3 caches a copy
            // (it will be the only live node able to win the election).
            if me == 1 {
                ctx.synchronized(lock, || ctx.view_mut(&x)[0] = 42);
            }
            ctx.barrier(gate);
            if me == 3 {
                assert_eq!(ctx.view(&x)[0], 42);
            }
            ctx.barrier(gate);
            // March every node except the victim into the pause window;
            // node 1 parks at the next barrier *before* the window opens
            // and goes dark for its duration.
            if me != 1 {
                ctx.charge(SimDuration::from_micros(10_500.0));
            }
            if me == 3 {
                // The write faults in X from home node 1 — which is dark.
                // The request times out, fails over to the arbiter (node
                // 2), node 3 wins the election with its cached copy and
                // serves its own access as the new home.
                ctx.synchronized(lock, || ctx.view_mut(&x)[0] = 43);
            }
            ctx.barrier(gate);
            // Everyone — including the healed, fenced node 1 — reads the
            // post-crash value through the re-elected home.
            assert_eq!(
                ctx.view(&x)[0],
                43,
                "node {me} read a stale value after the home went dark"
            );
            ctx.barrier(gate);
        })
    };

    // A literal seed, not the corpus: `DSM_SEEDS` overrides the corpus,
    // and the golden values below belong to this one schedule.
    let seed = 0x51E5_ED01;
    let report = run(seed);
    let p = &report.protocol;
    assert!(
        p.elections >= 1,
        "seed {seed:#x}: the dark home never triggered an election ({p:?})"
    );
    assert!(
        p.homes_fenced >= 1,
        "seed {seed:#x}: the deposed home was never fenced ({p:?})"
    );
    let trace = report.delivery_trace.as_ref().unwrap();
    assert!(
        !trace.drops.is_empty(),
        "seed {seed:#x}: the pause window never dropped a message"
    );
    let violations = matrix::check_invariants(&report);
    assert!(violations.is_empty(), "seed {seed:#x}: {violations:?}");
    // Golden values: this is the one run that elects and fences, so it pins
    // every retransmission, election, notify and fence of the recovery
    // path. A change to that traffic moves these numbers.
    assert_eq!(
        (trace.checksum(), p.elections, p.homes_fenced),
        (0xd54e_bf22_b8d6_aa0f, 1, 1),
        "seed {seed:#x}: the recovery traffic moved"
    );

    // The whole recovery story — timeout, election, fence, completion —
    // replays bit-identically from the seed.
    let replay = run(seed);
    assert_eq!(
        report.delivery_trace, replay.delivery_trace,
        "seed {seed:#x}: the crash/re-election run did not replay bit-identically"
    );
    assert_eq!(p.elections, replay.protocol.elections);
    assert_eq!(p.homes_fenced, replay.protocol.homes_fenced);
}

/// The `contention_errors.rs` Busy-deferral scenario, ported from its
/// threaded-only real-time form (std `Barrier` rendezvous + sleeps) to a
/// seeded sim sweep: node 1 takes a read lease on its locally-homed object
/// and *keeps it live across a long fault-in sequence* — in sim mode an
/// application parked in `wait_reply` still holds its leases, so the
/// window is deterministic instead of sleep-timed. Node 0 meanwhile writes
/// that object under a lock and releases; the diff flush arrives at node 1
/// squarely inside the lease window, is deferred (`Busy`, observable via
/// `busy_responses`), and applies once the lease drops.
///
/// Every corpus seed must (a) defer at least once, (b) produce the
/// threaded reference fingerprint — deferral is a performance event, never
/// a semantic one — and (c) replay a bit-identical delivery trace.
///
/// Node 1 reads its lease before node 0 writes, on every fabric. A live view
/// cannot cross `ctx.barrier`, so on the threaded reference the two
/// application threads also meet at a real-time rendezvous after the gate:
/// node 1 arrives holding the lease, node 0 writes only after it. The sim
/// needs no rendezvous (its order is a function of the seed, and (a) checks
/// it), and an agent blocked outside the scheduler would stall it.
#[test]
fn matrix_busy_deferral_is_deterministic_and_conforms_across_seeds() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Remote objects node 1 faults in while holding its read lease: the
    /// lease window spans ~K round trips of virtual time, while node 0's
    /// diff lands after ~3 — deep inside the window under any corpus
    /// perturbation.
    const FILLERS: usize = 16;

    let run = |fabric: FabricMode, seed: u64| -> (u64, ExecutionReport) {
        let leased =
            matches!(fabric, FabricMode::Threaded).then(|| Arc::new(std::sync::Barrier::new(2)));
        let mut cluster = Cluster::builder()
            .nodes(2)
            .protocol(ProtocolConfig::no_migration())
            .compute(ComputeModel::free())
            .seed(seed)
            .fabric(fabric);
        let target: ArrayHandle<u64> = ArrayHandle::register(
            cluster.registry(),
            "busy.port.target",
            0,
            4,
            NodeId(1),
            HomeAssignment::CreationNode,
        );
        let fillers: Vec<ArrayHandle<u64>> = (0..FILLERS)
            .map(|k| {
                ArrayHandle::register(
                    cluster.registry(),
                    "busy.port.filler",
                    k as u64,
                    1,
                    NodeId::MASTER,
                    HomeAssignment::CreationNode,
                )
            })
            .collect();
        let lock = LockId::derive("busy.port.lock");
        let gate = BarrierId(0x60);
        let done = BarrierId(0x61);
        let fingerprint = Arc::new(AtomicU64::new(0));
        let result = Arc::clone(&fingerprint);
        let report = cluster.build().run(move |ctx| {
            if ctx.is_master() {
                // Seed the fillers in place (home writes, no traffic), then
                // write the remote-homed target under the lock: the release
                // flushes the diff straight into node 1's live read lease.
                for (k, filler) in fillers.iter().enumerate() {
                    ctx.view_mut(filler)[0] = (k * k + 1) as u64;
                }
                ctx.barrier(gate);
                if let Some(leased) = &leased {
                    leased.wait();
                }
                ctx.synchronized(lock, || {
                    ctx.view_mut(&target)[0] = 41;
                });
                ctx.barrier(done);
            } else {
                ctx.barrier(gate);
                let mut hash = FNV_BASIS;
                {
                    // The lease window: held across FILLERS remote
                    // fault-ins, each of which parks this application with
                    // the lease still live.
                    let held = ctx.view(&target);
                    assert_eq!(held[0], 0, "the diff must not land mid-lease");
                    if let Some(leased) = &leased {
                        leased.wait();
                    }
                    for filler in &fillers {
                        hash = fnv(hash, ctx.view(filler)[0]);
                    }
                }
                ctx.barrier(done);
                // The deferred diff applied once the lease dropped; node
                // 0's release (and thus the `done` barrier) waited for it.
                let settled = ctx.view(&target)[0];
                assert_eq!(settled, 41, "the deferred diff was lost");
                result.store(fnv(hash, settled), Ordering::SeqCst);
            }
        });
        (fingerprint.load(Ordering::SeqCst), report)
    };

    let (reference, _) = run(FabricMode::Threaded, seed_pair().0);
    assert_ne!(reference, 0, "node 1 never published a fingerprint");
    for seed in dsm_util::seed_corpus() {
        let (fp, report) = run(FabricMode::Sim(SimConfig::perturbed(seed)), seed);
        assert_eq!(
            fp, reference,
            "seed {seed:#x}: Busy deferral changed the application result on sim"
        );
        assert!(
            report.protocol.busy_responses >= 1,
            "seed {seed:#x}: the diff never found the lease live \
             (busy_responses = {})",
            report.protocol.busy_responses
        );
        let (replay_fp, replay) = run(FabricMode::Sim(SimConfig::perturbed(seed)), seed);
        assert_eq!(replay_fp, fp);
        assert_eq!(
            report.delivery_trace, replay.delivery_trace,
            "seed {seed:#x}: the deferral schedule did not replay bit-identically"
        );
    }
}

/// Single home per epoch, checked in-run under maximum migration churn:
/// rotating writers under JUMP migrate the watched objects continuously,
/// and at every verification point exactly one node considers itself the
/// home of each object.
#[test]
fn matrix_single_home_per_epoch_under_churn() {
    const OBJECTS: usize = 3;
    const ROUNDS: usize = 8;
    let nodes = 4;
    for seed in [seed_pair().0, seed_pair().1] {
        let protocol = ProtocolConfig::no_migration().with_migration(MigrateOnRequestPolicy);
        let mut cluster = sim_test_cluster(nodes, protocol, SimConfig::perturbed(seed));
        let handles: Vec<ArrayHandle<u64>> = (0..OBJECTS)
            .map(|i| {
                ArrayHandle::register(
                    cluster.registry(),
                    "matrix.home",
                    i as u64,
                    nodes,
                    NodeId::MASTER,
                    HomeAssignment::RoundRobin,
                )
            })
            .collect();
        let home_bits: Vec<ArrayHandle<u64>> = (0..OBJECTS)
            .map(|i| {
                ArrayHandle::register(
                    cluster.registry(),
                    "matrix.homebits",
                    i as u64,
                    nodes,
                    NodeId::MASTER,
                    HomeAssignment::Master,
                )
            })
            .collect();
        let lock = LockId::derive("matrix.home.lock");
        let check = BarrierId(0x51);
        cluster.build().run(move |ctx| {
            let me = ctx.node_id().index();
            for round in 0..ROUNDS {
                let obj = (round + me) % OBJECTS;
                ctx.synchronized(lock, || {
                    ctx.view_mut(&handles[obj])[me] += 1;
                });
                ctx.barrier(check);
                // Publish this node's is-home observation for every object,
                // then verify the cluster-wide sum is exactly one. No
                // traffic touches the watched objects between the two
                // barriers, so the homes cannot move mid-check.
                for (i, handle) in handles.iter().enumerate() {
                    let is_home = u64::from(ctx.is_home(handle));
                    ctx.synchronized(lock, || {
                        ctx.view_mut(&home_bits[i])[me] = is_home;
                    });
                }
                ctx.barrier(check);
                for (i, bits) in home_bits.iter().enumerate() {
                    let view = ctx.view(bits);
                    let homes: u64 = view.iter().sum();
                    assert_eq!(
                        homes, 1,
                        "seed {seed:#x}, round {round}: object {i} has {homes} homes \
                         (want exactly one)"
                    );
                }
                ctx.barrier(check);
            }
        });
    }
}

//! Seeded multi-threaded stress suite for the protocol engine under
//! concurrent application and server calls.
//!
//! Every test drives the *real* threaded runtime (application threads and
//! executor workers stepping each node's protocol server, all calling the
//! node's engine through `&self`, each call under its one lock) with
//! schedules derived from fixed seeds, and checks the concurrency claims
//! the engine makes:
//!
//! * **no deadlock** — the runs complete (busy payloads are deferred, never
//!   blocked on; fetch-with-live-writes is refused at the source);
//! * **no lost updates** — every lock-protected increment is visible in the
//!   final contents, which equal a pure-function expectation computed by
//!   replaying the per-node seeds outside the cluster;
//! * **stable final contents** — every node observes the same bytes, on
//!   every run of the same seed (re-run a failing seed to shrink/replay).
//!
//! The per-(node, round) operation sequences are pure functions of the
//! seed, so the expected counters can be computed without running the
//! cluster; thread interleaving may vary between runs, but the final
//! contents may not. Claims about traffic, migration and batch counts are
//! checked on the same workloads on the sim fabric, under each of
//! [`SimConfig::modeled_sims`], never on the threaded runs.

use dsm_core::{MigrateOnRequestPolicy, ProtocolConfig};
use dsm_integration_tests::{corpus_seed, sim_test_cluster, test_cluster};
use dsm_objspace::{BarrierId, HomeAssignment, LockId, NodeId};
use dsm_runtime::{ArrayHandle, ClusterBuilder, ExecutionReport, SimConfig};
use dsm_util::SmallRng;

const NODES: usize = 4;
const OBJECTS: usize = 16;
const ROUNDS: usize = 30;
const PICKS_PER_ROUND: usize = 3;

/// The deterministic per-node schedule stream for `seed`.
fn node_rng(seed: u64, node: usize) -> SmallRng {
    SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (0xD15C_0000 + node as u64))
}

/// Replay the schedule outside the cluster: how many times does each node
/// increment each object?
fn expected_counts(seed: u64) -> Vec<[u64; NODES]> {
    let mut counts = vec![[0u64; NODES]; OBJECTS];
    for (node, mut rng) in (0..NODES).map(|n| node_rng(seed, n)).enumerate() {
        for _ in 0..ROUNDS * PICKS_PER_ROUND {
            counts[rng.gen_index(OBJECTS)][node] += 1;
        }
    }
    counts
}

/// Register the stress objects: one `[u64; 1 + NODES]` counter block per
/// object (slot 0 totals, slot 1+n is node n's private tally), homes spread
/// round-robin so every node starts as home of some objects.
fn register(cluster: &mut ClusterBuilder) -> (Vec<ArrayHandle<u64>>, Vec<LockId>) {
    let handles: Vec<ArrayHandle<u64>> = (0..OBJECTS)
        .map(|i| {
            ArrayHandle::register(
                cluster.registry(),
                "stress.shard",
                i as u64,
                1 + NODES,
                NodeId::MASTER,
                HomeAssignment::RoundRobin,
            )
        })
        .collect();
    let locks: Vec<LockId> = (0..OBJECTS)
        .map(|i| LockId::derive(&format!("stress.shard.lock.{i}")))
        .collect();
    (handles, locks)
}

/// Run the seeded soak on an adaptive `NODES`-node cluster (`cluster` picks
/// the fabric): every node performs its schedule of lock-protected
/// increments across many objects while homes migrate underneath, then all
/// nodes verify the final contents against the replayed expectation.
fn soak(seed: u64, mut cluster: ClusterBuilder) -> ExecutionReport {
    let (handles, locks) = register(&mut cluster);
    let barrier = BarrierId(0x57E5);
    let expected = expected_counts(seed);
    let expected_in_run = expected.clone();

    let report = cluster.build().run(move |ctx| {
        let me = ctx.node_id().index();
        let mut rng = node_rng(seed, me);
        for _ in 0..ROUNDS {
            for _ in 0..PICKS_PER_ROUND {
                let pick = rng.gen_index(OBJECTS);
                ctx.synchronized(locks[pick], || {
                    let mut view = ctx.view_mut(&handles[pick]);
                    view[0] += 1;
                    view[1 + me] += 1;
                    // Linearizability-style mid-run invariant: inside the
                    // critical section the total must equal the sum of the
                    // per-node tallies — a lost update breaks this long
                    // before the final check.
                    let total: u64 = view[1..].iter().sum();
                    assert_eq!(
                        view[0], total,
                        "seed {seed:#x}: lost update on object {pick} (node {me})"
                    );
                });
            }
        }
        ctx.barrier(barrier);
        // Every node verifies every object against the pure replay.
        for (i, handle) in handles.iter().enumerate() {
            ctx.synchronized(locks[i], || {
                let view = ctx.view(handle);
                let total: u64 = expected_in_run[i].iter().sum();
                assert_eq!(
                    view[0], total,
                    "seed {seed:#x}: object {i} total diverged on node {me}"
                );
                for (n, &count) in expected_in_run[i].iter().enumerate() {
                    assert_eq!(
                        view[1 + n],
                        count,
                        "seed {seed:#x}: object {i} tally of node {n} diverged on node {me}"
                    );
                }
            });
        }
        ctx.barrier(barrier);
    });

    // Global conservation: every scheduled increment happened exactly once.
    let scheduled = (NODES * ROUNDS * PICKS_PER_ROUND) as u64;
    let landed: u64 = expected.iter().map(|c| c.iter().sum::<u64>()).sum();
    assert_eq!(
        landed, scheduled,
        "seed {seed:#x}: schedule replay is self-consistent"
    );
    report
}

fn threaded_soak(seed: u64) {
    soak(seed, test_cluster(NODES, ProtocolConfig::adaptive()));
}

// The soak seeds come from the shared corpus helper (tests/src/lib.rs):
// override with DSM_SEEDS=... to sweep new schedules; indices wrap, so the
// three named tests cover any corpus size. A failure names the seed.

#[test]
fn stress_soak_seed_1_no_lost_updates() {
    threaded_soak(corpus_seed(0));
}

#[test]
fn stress_soak_seed_2_no_lost_updates() {
    threaded_soak(corpus_seed(1));
}

#[test]
fn stress_soak_seed_3_no_lost_updates() {
    threaded_soak(corpus_seed(2));
}

/// The soak exercises real cross-node traffic: counted on the sim, where
/// the counts do not depend on how the OS interleaves the nodes.
#[test]
fn stress_soak_faults_in_and_flushes_on_the_sim() {
    let seed = corpus_seed(0);
    for sim in SimConfig::modeled_sims() {
        let report = soak(
            seed,
            sim_test_cluster(NODES, ProtocolConfig::adaptive(), sim),
        );
        assert!(
            report.protocol.fault_ins > 0,
            "sim seed {:#x}: soak must fault objects in",
            sim.seed
        );
        assert!(
            report.protocol.diffs_applied > 0,
            "sim seed {:#x}: soak must flush diffs",
            sim.seed
        );
    }
}

/// Maximum migration churn: under the JUMP policy every remote write fault
/// migrates the home, and the writer of every object rotates every round,
/// so homes chase writers continuously while readers chase stale forwarding
/// pointers. The counters must still come out exact on every node, on the
/// threaded fabric and the sim; the churn itself is counted on the sim.
#[test]
fn stress_migration_hammer_rotating_writers() {
    hammer(test_cluster(NODES, jump()));
    for sim in SimConfig::modeled_sims() {
        let report = hammer(sim_test_cluster(NODES, jump(), sim));
        // Rotating writers under JUMP must keep the homes moving; at least
        // the first full rotation migrates every object away from a foreign
        // writer.
        assert!(
            report.migrations() >= (NODES - 1) as u64,
            "sim seed {:#x}: JUMP with rotating writers barely migrated: {}",
            sim.seed,
            report.migrations()
        );
        assert!(
            report.protocol.redirections_suffered > 0,
            "sim seed {:#x}: migration churn must produce redirection chases",
            sim.seed
        );
    }
}

fn jump() -> ProtocolConfig {
    ProtocolConfig::no_migration().with_migration(MigrateOnRequestPolicy)
}

fn hammer(mut cluster: ClusterBuilder) -> ExecutionReport {
    const HAMMER_OBJECTS: usize = 4;
    const HAMMER_ROUNDS: usize = 16;
    let handles: Vec<ArrayHandle<u64>> = (0..HAMMER_OBJECTS)
        .map(|i| {
            ArrayHandle::register(
                cluster.registry(),
                "stress.hammer",
                i as u64,
                1 + NODES,
                NodeId::MASTER,
                HomeAssignment::RoundRobin,
            )
        })
        .collect();
    let locks: Vec<LockId> = (0..HAMMER_OBJECTS)
        .map(|i| LockId::derive(&format!("stress.hammer.lock.{i}")))
        .collect();
    let barrier = BarrierId(0x57E6);

    cluster.build().run(move |ctx| {
        let me = ctx.node_id().index();
        for round in 0..HAMMER_ROUNDS {
            // Writer of each object rotates every round: all four objects
            // are written each round, each by a different node.
            let write_obj = (round + me) % HAMMER_OBJECTS;
            ctx.synchronized(locks[write_obj], || {
                let mut view = ctx.view_mut(&handles[write_obj]);
                view[0] += 1;
                view[1 + me] += 1;
            });
            // And a racing reader on a different object, chasing whatever
            // forwarding pointers the migrations left behind.
            let read_obj = (round + me + 2) % HAMMER_OBJECTS;
            ctx.synchronized(locks[read_obj], || {
                let view = ctx.view(&handles[read_obj]);
                let total: u64 = view[1..].iter().sum();
                assert_eq!(view[0], total, "reader saw a torn object {read_obj}");
            });
        }
        ctx.barrier(barrier);
        // Each object was written once per round, once by each node every
        // HAMMER_OBJECTS rounds.
        for (i, handle) in handles.iter().enumerate() {
            ctx.synchronized(locks[i], || {
                let view = ctx.view(handle);
                assert_eq!(view[0], HAMMER_ROUNDS as u64, "object {i} total");
                for n in 0..NODES {
                    assert_eq!(
                        view[1 + n],
                        (HAMMER_ROUNDS / HAMMER_OBJECTS) as u64,
                        "object {i} tally of node {n}"
                    );
                }
            });
        }
        ctx.barrier(barrier);
    })
}

/// The same seed run twice produces byte-identical final contents even
/// though thread interleavings differ — the "stable final contents" claim,
/// demonstrated end to end: both runs are checked against the same replayed
/// expectation.
#[test]
fn stress_repeat_seed_is_deterministic() {
    threaded_soak(corpus_seed(0));
    threaded_soak(corpus_seed(0));
}

/// Multi-object intervals under release-time flush batching: every node
/// writes a handful of objects inside ONE critical section per round, so a
/// release flushes several diffs at once and the per-home groups travel as
/// `DiffBatch` messages. Run the identical seeded schedule with batching on
/// and off; both runs must produce the final contents the pure seed replay
/// predicts (batching is a wire optimization, never a semantic change), and
/// on the sim the batched run must actually have batched.
#[test]
fn stress_batched_mode_contents_match_unbatched() {
    const BATCH_OBJECTS: usize = 12;
    const BATCH_ROUNDS: usize = 20;
    const WRITES_PER_ROUND: usize = 5;
    // Corpus-derived (DSM_SEEDS-overridable), offset so the schedule is not
    // the soak schedule.
    let seed = corpus_seed(0) ^ 0x5BA7_C4ED;

    let schedule_rng = |node: usize| {
        SmallRng::seed_from_u64(
            seed ^ (0xBA7C_0000 + node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        )
    };
    // Pure replay of the schedule: per-object, per-node increment counts.
    let mut expected = vec![[0u64; NODES]; BATCH_OBJECTS];
    for (node, mut rng) in (0..NODES).map(|n| (n, schedule_rng(n))) {
        for _ in 0..BATCH_ROUNDS * WRITES_PER_ROUND {
            expected[rng.gen_index(BATCH_OBJECTS)][node] += 1;
        }
    }

    let run = |cluster: ClusterBuilder, flush_batching: bool| {
        let mut cluster = cluster.flush_batching(flush_batching);
        let handles: Vec<ArrayHandle<u64>> = (0..BATCH_OBJECTS)
            .map(|i| {
                ArrayHandle::register(
                    cluster.registry(),
                    "stress.batch",
                    i as u64,
                    NODES,
                    NodeId::MASTER,
                    HomeAssignment::RoundRobin,
                )
            })
            .collect();
        let lock = LockId::derive("stress.batch.lock");
        let barrier = BarrierId(0x57E7);
        let expected_in_run = expected.clone();
        cluster.build().run(move |ctx| {
            let me = ctx.node_id().index();
            let mut rng = schedule_rng(me);
            for _ in 0..BATCH_ROUNDS {
                // All of a round's writes happen inside one critical
                // section, so its release flushes them together — dirty
                // objects homed on the same node form one DiffBatch.
                ctx.synchronized(lock, || {
                    for _ in 0..WRITES_PER_ROUND {
                        let pick = rng.gen_index(BATCH_OBJECTS);
                        ctx.view_mut(&handles[pick])[me] += 1;
                    }
                });
            }
            ctx.barrier(barrier);
            for (i, handle) in handles.iter().enumerate() {
                ctx.synchronized(lock, || {
                    let view = ctx.view(handle);
                    for (n, &count) in expected_in_run[i].iter().enumerate() {
                        assert_eq!(
                            view[n], count,
                            "seed {seed:#x}, batching={flush_batching}: object {i} tally \
                             of node {n} diverged on node {me}"
                        );
                    }
                });
            }
            ctx.barrier(barrier);
        })
    };

    let threaded = test_cluster(NODES, ProtocolConfig::adaptive());
    run(threaded.clone(), true);
    run(threaded, false);
    for sim in SimConfig::modeled_sims() {
        let cluster = sim_test_cluster(NODES, ProtocolConfig::adaptive(), sim);
        let batched = run(cluster.clone(), true);
        let unbatched = run(cluster, false);

        // Both runs already verified the same replayed contents on every
        // node; check the wire-level claims on top.
        let sim_seed = sim.seed;
        assert!(
            batched.protocol.batched_flushes > 0,
            "sim seed {sim_seed:#x}: multi-object intervals must form batches"
        );
        assert!(
            batched.protocol.batch_entries >= 2 * batched.protocol.batched_flushes,
            "sim seed {sim_seed:#x}: every batch carries at least two entries"
        );
        assert_eq!(
            unbatched.protocol.batched_flushes, 0,
            "flush_batching(false) must stay on the one-DiffFlush-per-object path"
        );
        // A batch of k entries replaces k Diff messages with one DiffBatch,
        // so the diff-propagation message count must come out strictly
        // lower.
        assert!(
            batched.network.diff_propagation_messages()
                < unbatched.network.diff_propagation_messages(),
            "sim seed {sim_seed:#x}: batching must reduce diff-propagation messages \
             ({} vs {})",
            batched.network.diff_propagation_messages(),
            unbatched.network.diff_propagation_messages()
        );
    }
}

//! 256-node scale soak on the threaded fabric.
//!
//! The event-driven executor exists to lift the threaded fabric past the
//! one-server-thread-per-node ceiling; this suite actually runs a cluster
//! at that scale. Every node repeatedly locks, faults in and increments a
//! rotating remote-homed counter, so each round drives cross-node lock
//! traffic, fault-ins and diff flushes through all 256 protocol servers
//! multiplexed onto the bounded worker pool — then the final state is
//! read back and folded into a fingerprint that must match both the
//! closed-form expectation and the single-worker pool's on the same seed.
//! One worker is a differently scheduled run, not a serialized one: the
//! application threads waiting for replies step nodes beside it.
//!
//! The debug-friendly soak below runs on every `cargo test`; the seeded
//! release-mode soak (more rounds, every corpus seed, the auto-sized pool
//! *and* a single worker) is `#[ignore]`d and run by the `scale-stress` CI
//! job with `--include-ignored`. On failure the offending seed is appended
//! to `SCALE_STRESS_FAILURES.txt` (override with `DSM_SCALE_FAILURES`),
//! which CI uploads as an artifact exactly like the sim-matrix
//! failing-seed list.

use dsm_core::ProtocolConfig;
use dsm_integration_tests::test_cluster;
use dsm_objspace::{BarrierId, HomeAssignment, LockId, NodeId};
use dsm_runtime::{ArrayHandle, ExecutionReport};
use dsm_util::{fnv, FNV_BASIS};
use std::io::Write;

/// Cluster size of the soak. The executor multiplexes all 256 protocol
/// servers onto `min(available_parallelism, 256)` pool workers.
const NODES: usize = 256;

/// One soak run on an executor pool of `workers` threads (`0` = auto):
/// `rounds` rotating lock/fault-in/increment rounds over `NODES` nodes and
/// counters, then a full read-back on the master.
///
/// Counter `c` is homed on node `c % NODES` (round-robin registration
/// order); in round `r`, node `m` increments counter `(m + r) % NODES` by
/// `m + 1` under that counter's lock — every counter gets exactly one
/// writer per round, and after `rounds` rounds holds a closed-form value
/// the read-back verifies before fingerprinting.
fn soak(workers: usize, seed: u64, rounds: usize) -> (u64, ExecutionReport) {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    let mut cluster = test_cluster(NODES, ProtocolConfig::no_migration())
        .seed(seed)
        .executor_workers(workers);
    let counters: Vec<ArrayHandle<u64>> = (0..NODES)
        .map(|c| {
            ArrayHandle::register(
                cluster.registry(),
                "scale.cnt",
                c as u64,
                1,
                NodeId::MASTER,
                HomeAssignment::RoundRobin,
            )
        })
        .collect();
    let locks: Vec<LockId> = (0..NODES)
        .map(|c| LockId::derive(&format!("scale.lock.{c}")))
        .collect();
    let gate = BarrierId(0x5C);
    let fingerprint = Arc::new(AtomicU64::new(0));
    let result = Arc::clone(&fingerprint);

    let report = cluster.build().run(move |ctx| {
        let me = ctx.node_id().index();
        for round in 0..rounds {
            let c = (me + round) % NODES;
            ctx.synchronized(locks[c], || {
                ctx.view_mut(&counters[c])[0] += me as u64 + 1;
            });
            ctx.barrier(gate);
        }
        if ctx.is_master() {
            // Read back all 256 counters (255 remote fault-ins), verify the
            // closed form and fold the values into the run fingerprint.
            let mut hash = FNV_BASIS;
            for (c, counter) in counters.iter().enumerate() {
                let value = ctx.view(counter)[0];
                let expect: u64 = (0..rounds)
                    .map(|r| ((c + NODES - r % NODES) % NODES) as u64 + 1)
                    .sum();
                assert_eq!(
                    value, expect,
                    "seed {seed:#x}: counter {c} ended at {value}, expected {expect}"
                );
                hash = fnv(hash, value);
            }
            result.store(hash, Ordering::SeqCst);
        }
        ctx.barrier(gate);
    });
    (
        fingerprint.load(std::sync::atomic::Ordering::SeqCst),
        report,
    )
}

/// Append a failing seed to the artifact file the `scale-stress` CI job
/// uploads, then return the message for the panic.
fn record_failure(seed: u64, message: String) -> String {
    let path = std::env::var("DSM_SCALE_FAILURES")
        .unwrap_or_else(|_| "SCALE_STRESS_FAILURES.txt".to_string());
    if let Ok(mut file) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        let _ = writeln!(file, "{seed:#x}: {message}");
    }
    message
}

/// The every-`cargo test` soak: one seed, few rounds, the auto pool. The
/// run completing at all proves 256 nodes' servers multiplex onto the
/// bounded pool without deadlock; the in-run closed-form check proves they
/// computed the right thing.
#[test]
fn stress_256_nodes_complete_a_soak_under_the_executor() {
    let seed = dsm_util::seed_corpus()[0];
    let (fingerprint, report) = soak(0, seed, 2);
    assert_ne!(fingerprint, 0, "the master never published a fingerprint");
    assert_eq!(report.num_nodes, NODES);
    let sched = report.scheduler.expect("threaded runs report scheduling");
    assert!(
        sched.workers <= NODES,
        "the pool must stay bounded ({} workers)",
        sched.workers
    );
    assert!(sched.runnable_high_watermark <= NODES);
    assert!(sched.steps > 0);
}

/// The seeded release-mode soak the `scale-stress` CI job runs: every
/// corpus seed, more rounds, and the auto-sized pool's fingerprint must
/// equal both the in-run closed form (asserted inside [`soak`]) and the
/// single-worker pool's on the same seed (one worker plus the helping
/// application threads: another schedule, not a serialized one).
#[test]
#[ignore = "release-mode 256-node soak; run via `cargo test --release -- --include-ignored scale`"]
fn stress_256_nodes_single_worker_matches_auto_pool_across_the_corpus() {
    for seed in dsm_util::seed_corpus() {
        let rounds = 4;
        let (pool_fp, pool_report) = soak(0, seed, rounds);
        let (single_fp, single_report) = soak(1, seed, rounds);
        if pool_fp != single_fp {
            panic!(
                "{}",
                record_failure(
                    seed,
                    format!(
                        "auto-pool fingerprint {pool_fp:#018x} != single-worker \
                         {single_fp:#018x} at {NODES} nodes"
                    ),
                )
            );
        }
        let single = single_report
            .scheduler
            .expect("threaded runs report scheduling");
        assert_eq!(single.workers, 1);
        let sched = pool_report
            .scheduler
            .expect("threaded runs report scheduling");
        if sched.workers >= NODES {
            panic!(
                "{}",
                record_failure(
                    seed,
                    format!(
                        "executor used {} workers for {NODES} nodes — the pool is not \
                         actually multiplexing",
                        sched.workers
                    ),
                )
            );
        }
    }
}

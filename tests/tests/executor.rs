//! Integration suite for the event-driven executor: the wake-on-send
//! worker pool that multiplexes every node's protocol server onto a
//! bounded pool (`crates/runtime/src/exec`) — the only way a threaded or
//! TCP node is served.
//!
//! What is certified here, per the executor's acceptance claims:
//!
//! * **Quiet clusters are silent** — on a cluster that exchanges almost no
//!   messages, every wakeup of the pool is attributable to a message, the
//!   prime pass or shutdown, however long the quiet lasts: a parked pool
//!   performs zero timer wakeups (asserted on the [`SchedulerReport`]
//!   counters).
//! * **Scheduling is semantics-free** — a single-worker (N=1) executor
//!   produces the same workload fingerprints as the default pool and as the
//!   sequential sim loop across the shared seed corpus, on the matrix
//!   workloads. One worker does not serialize server-side handling
//!   (waiting application threads step nodes beside it); the sim is the
//!   reference.
//! * **Teardown wakes parked waiters** — a pool deliberately larger than
//!   the cluster keeps its surplus workers parked on the idle condvar the
//!   whole run; shutdown must wake and retire them (the run completing at
//!   all is the assertion; the parked high-watermark proves they parked).
//! * **Observability** — queue-depth high-watermarks and runnable/parked
//!   counts surface in [`ExecutionReport::scheduler`] on both real
//!   fabrics (threaded and TCP), and stay `None` on the sim fabric, whose
//!   virtual-time scheduler has neither a server pool nor inbound queues.
//! * **Waiting application threads help** — a thread waiting for its
//!   reply steps queued nodes itself (`helped_steps`), and the results stay
//!   those of the sim; a stress run of lock, fault-in and flush rounds ends
//!   with no node claimed or queued and nothing active, which the executor
//!   asserts as it reports in builds with debug assertions.

use dsm_bench::matrix;
use dsm_core::{MigrateOnRequestPolicy, ProtocolConfig};
use dsm_integration_tests::{sim_test_cluster, tcp_test_cluster, test_cluster};
use dsm_net::TcpConfig;
use dsm_objspace::{BarrierId, HomeAssignment, LockId, NodeId};
use dsm_runtime::{
    ArrayHandle, ClusterBuilder, ExecutionReport, FabricMode, SchedulerReport, SimConfig,
};
use dsm_util::{fnv, FNV_BASIS};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Cluster size of the quiet runs.
const QUIET_NODES: usize = 4;

/// Run a four-node cluster that does one barrier, sleeps quietly for
/// `quiet`, does another barrier, and return its report.
fn quiet_run(quiet: Duration) -> ExecutionReport {
    let config = test_cluster(QUIET_NODES, ProtocolConfig::no_migration());
    config.build().run(move |ctx| {
        ctx.barrier(BarrierId(1));
        // The quiet phase: no messages flow, so the event-driven pool has
        // nothing to wake up for.
        std::thread::sleep(quiet);
        ctx.barrier(BarrierId(2));
    })
}

fn scheduler(report: &ExecutionReport) -> &SchedulerReport {
    report
        .scheduler
        .as_ref()
        .expect("threaded/tcp runs surface a scheduler report")
}

/// The headline claim: a parked pool performs zero timer wakeups. Every
/// `IDLE → QUEUED` transition is caused by the prime pass (one per node),
/// the shutdown sweep (one per node) or a fabric send (one per message), so
/// the run's wakeups — and with them its handler steps and its idle steps,
/// the ones that lost a wake/drain race and found nothing — are bounded by
/// `2 × nodes + messages`. Two barriers are a dozen messages: a small
/// constant per node. The bound does not mention time, and it must hold
/// unchanged when the quiet phase is eight times longer.
///
/// The absolute bound alone would let a slow timer hide in the slack between
/// the actual and the bounding count, so the two runs are also compared with
/// each other: the long quiet may not add a wakeup, a step or an idle step
/// beyond the one run-to-run noise source — which sends coalesce into an
/// already queued node, and which wakes race a drain, differs by at most the
/// message count.
#[test]
fn quiet_cluster_wakeups_are_message_bounded_however_long_the_quiet_lasts() {
    let reports = [50, 400].map(|ms| (ms, quiet_run(Duration::from_millis(ms))));
    for (quiet_ms, report) in &reports {
        let quiet = Duration::from_millis(*quiet_ms);
        let sched = scheduler(report);
        let bound = 2 * QUIET_NODES as u64 + report.total_messages();
        assert!(
            bound <= 8 * QUIET_NODES as u64,
            "two barriers must stay a small constant per node ({bound})"
        );
        assert!(
            sched.wakeups <= bound,
            "{quiet:?} of quiet: {} wakeups exceed the {bound} the prime pass, shutdown and \
             {} messages account for — something woke the pool on a timer",
            sched.wakeups,
            report.total_messages()
        );
        assert!(
            sched.steps <= sched.wakeups && sched.idle_wakeups <= sched.steps,
            "{quiet:?} of quiet: {} steps ({} idle) for {} wakeups — a worker stepped a node \
             nothing had marked runnable",
            sched.steps,
            sched.idle_wakeups,
            sched.wakeups
        );
        // The executor did real, wake-driven work: the barriers produced
        // notifications and handler steps.
        assert!(sched.wakeups > 0, "barrier traffic must produce wakeups");
        assert!(sched.steps > 0, "the pool stepped the barrier traffic");
        assert!(
            sched.runnable_high_watermark >= 1,
            "at least one node was queued runnable at some point"
        );
    }
    let [(_, short), (_, long)] = &reports;
    assert_eq!(
        long.total_messages(),
        short.total_messages(),
        "two barriers cost the same messages however long the quiet lasts"
    );
    let slack = short.total_messages();
    let (short, long) = (scheduler(short), scheduler(long));
    for (counter, after_50ms, after_400ms) in [
        ("wakeups", short.wakeups, long.wakeups),
        ("steps", short.steps, long.steps),
        ("idle wakeups", short.idle_wakeups, long.idle_wakeups),
    ] {
        assert!(
            after_400ms <= after_50ms + slack,
            "{after_400ms} {counter} after 400 ms of quiet vs {after_50ms} after 50 ms (race \
             slack {slack}) — the count grows with the quiet, so something ticks on a timer"
        );
    }
}

/// A single-worker executor — whose server-side handling still runs on the
/// worker and on every application thread waiting for a reply — must
/// produce exactly the fingerprints of the default (machine-sized) pool and
/// of the sequential sim loop, the reference, on the matrix workloads, for
/// every corpus seed.
#[test]
fn single_worker_executor_matches_default_pool_and_sim_fingerprints_on_corpus_seeds() {
    let workloads = matrix::workloads();
    for (i, seed) in dsm_util::seed_corpus().into_iter().enumerate() {
        // Rotate through the matrix so an overridden corpus sweeps cells.
        for workload in [&workloads[i % workloads.len()], &workloads[4]] {
            let cell = |fabric: FabricMode| {
                matrix::matrix_cluster(ProtocolConfig::adaptive(), fabric).seed(seed)
            };
            let single = workload.run(cell(FabricMode::Threaded).executor_workers(1));
            let pool = workload.run(cell(FabricMode::Threaded));
            let sim = workload.run(cell(FabricMode::Sim(SimConfig::perturbed(seed))));
            assert_eq!(
                single.fingerprint, pool.fingerprint,
                "seed {seed:#x}: a single-worker executor changed the {} result",
                workload.name
            );
            assert_eq!(
                single.fingerprint, sim.fingerprint,
                "seed {seed:#x}: the executor and the sequential sim loop disagree on {}",
                workload.name
            );
            assert_eq!(scheduler(&single.report).workers, 1);
            assert!(sim.report.scheduler.is_none());
        }
    }
}

/// A pool larger than the cluster parks its surplus workers for the whole
/// run; `begin_shutdown` must wake every one of them or the run would hang
/// in `thread::scope` — completing cleanly *is* the teardown assertion.
#[test]
fn teardown_wakes_parked_workers_and_reports_the_parked_high_watermark() {
    let config = test_cluster(2, ProtocolConfig::no_migration()).executor_workers(8);
    let report = config.build().run(|ctx| {
        ctx.barrier(BarrierId(7));
    });
    let sched = scheduler(&report);
    assert_eq!(sched.workers, 8);
    assert!(
        sched.parked_high_watermark > 0,
        "an 8-worker pool serving 2 nodes must have parked workers \
         (parked high-watermark {})",
        sched.parked_high_watermark
    );
    // Two nodes bound the runnable queue depth.
    assert!(sched.runnable_high_watermark <= 2);
}

/// The channel queue-depth high-watermark surfaces real cross-node traffic
/// in the report: any delivered message makes it at least one.
#[test]
fn queue_depth_high_watermark_surfaces_in_the_report() {
    let mut cluster = test_cluster(2, ProtocolConfig::no_migration());
    let data: ArrayHandle<u64> = ArrayHandle::register(
        cluster.registry(),
        "exec.depth",
        0,
        4,
        NodeId::MASTER,
        HomeAssignment::Master,
    );
    let report = cluster.build().run(move |ctx| {
        if !ctx.is_master() {
            // A remote fault-in: at least one message crosses a channel.
            assert_eq!(ctx.view(&data)[0], 0);
        }
        ctx.barrier(BarrierId(3));
    });
    assert!(
        scheduler(&report).queue_depth_high_watermark >= 1,
        "a run with cross-node traffic must record a nonzero queue depth"
    );
}

/// The executor also drives the TCP fabric: wake-on-receive from whichever
/// thread reads a socket, same report surface.
#[test]
fn tcp_runs_are_driven_by_the_executor_and_report_scheduling() {
    let mut cluster = tcp_test_cluster(2, ProtocolConfig::no_migration(), TcpConfig::default());
    let data: ArrayHandle<u64> = ArrayHandle::register(
        cluster.registry(),
        "exec.tcp",
        0,
        4,
        NodeId::MASTER,
        HomeAssignment::Master,
    );
    let report = cluster.build().run(move |ctx| {
        if !ctx.is_master() {
            assert_eq!(ctx.view(&data)[0], 0);
        }
        ctx.barrier(BarrierId(4));
    });
    let sched = scheduler(&report);
    assert!(sched.wakeups > 0, "socket arrivals must produce wakeups");
    assert!(sched.queue_depth_high_watermark >= 1);
}

/// The sim fabric keeps its own virtual-time scheduler: no server threads,
/// no inbound queues, no scheduler report.
#[test]
fn sim_runs_report_no_scheduler() {
    let config = sim_test_cluster(
        2,
        ProtocolConfig::no_migration(),
        SimConfig::perturbed(dsm_util::seed_corpus()[0]),
    );
    let report = config.build().run(|ctx| {
        ctx.barrier(BarrierId(5));
    });
    assert!(report.scheduler.is_none());
}

/// Run `app` on `cluster` and return the fingerprint the master published
/// through the second argument, with the report.
fn fingerprinted(
    cluster: ClusterBuilder,
    app: impl Fn(&dsm_runtime::NodeCtx, &AtomicU64) + Send + Sync,
) -> (u64, ExecutionReport) {
    let fingerprint = Arc::new(AtomicU64::new(0));
    let published = Arc::clone(&fingerprint);
    let report = cluster.build().run(move |ctx| app(ctx, &published));
    (fingerprint.load(Ordering::SeqCst), report)
}

/// Node 1 writes 16 objects it is home of; node 0 then faults each one in
/// and folds the values into the fingerprint.
fn remote_fault_ins(mut cluster: ClusterBuilder) -> (u64, ExecutionReport) {
    let objects: Vec<ArrayHandle<u64>> = (0..16)
        .map(|i| {
            let creator = NodeId(1);
            ArrayHandle::register(
                cluster.registry(),
                "exec.help",
                i,
                4,
                creator,
                HomeAssignment::CreationNode,
            )
        })
        .collect();
    fingerprinted(cluster, move |ctx, fingerprint| {
        if !ctx.is_master() {
            for (i, object) in objects.iter().enumerate() {
                ctx.view_mut(object).fill(7 * i as u64 + 1);
            }
        }
        ctx.barrier(BarrierId(8));
        if ctx.is_master() {
            let hash = objects
                .iter()
                .flat_map(|object| ctx.view(object).to_vec())
                .fold(FNV_BASIS, fnv);
            fingerprint.store(hash, Ordering::SeqCst);
        }
    })
}

/// A one-worker pool serving two nodes: node 0's fault-ins land on node
/// 1's queue while node 0 waits, so node 0's thread steps node 1 itself
/// instead of waking the worker. The result is the sim's.
#[test]
fn a_waiting_application_thread_steps_the_home_of_its_fault_in() {
    let cluster = |fabric| test_cluster(2, ProtocolConfig::no_migration()).fabric(fabric);
    let (threaded, report) = remote_fault_ins(cluster(FabricMode::Threaded).executor_workers(1));
    let (sim, _) = remote_fault_ins(cluster(FabricMode::Sim(SimConfig::calm(2004))));
    assert_eq!(threaded, sim, "helping changed the fault-in result");
    let sched = scheduler(&report);
    assert!(
        sched.helped_steps > 0 && sched.helped_steps <= sched.steps,
        "no handler step ran on a waiting application thread ({} of {} steps)",
        sched.helped_steps,
        sched.steps
    );
}

/// On TCP a waiting application thread reads the frames of its fault-ins
/// from the sockets itself, so with one worker serving both nodes every
/// fault-in's home step and requester step run on node 0's thread: at
/// least 32 helped steps for the 16 fault-ins. The result is the sim's. A
/// frame the kernel delivers late (loopback delivery can be deferred under
/// load) falls back to the worker, so one of three runs must show it.
#[test]
fn a_waiting_application_thread_reads_its_fault_ins_from_the_tcp_links() {
    let tcp = tcp_test_cluster(2, ProtocolConfig::no_migration(), TcpConfig::default());
    let sim = test_cluster(2, ProtocolConfig::no_migration());
    let (expected, _) = remote_fault_ins(sim.fabric(FabricMode::Sim(SimConfig::calm(2004))));
    let helped = (0..3).find_map(|_| {
        let (fingerprint, report) = remote_fault_ins(tcp.clone().executor_workers(1));
        assert_eq!(
            fingerprint, expected,
            "reading the links changed the result"
        );
        let helped = scheduler(&report).helped_steps;
        (helped >= 32).then_some(helped)
    });
    assert!(
        helped.is_some(),
        "fault-in steps ran on the worker in every run"
    );
}

/// `rounds` rounds on four nodes: in round `r` node `m` locks counter
/// `(m + r) % 4`, faults it in and adds `m + 1`, and the release flushes
/// the diff to the counter's home; a barrier closes each round. The master
/// then reads every counter back into the fingerprint.
fn helper_stress(cluster: ClusterBuilder, rounds: usize) -> (u64, ExecutionReport) {
    const NODES: usize = 4;
    let mut cluster = cluster.nodes(NODES);
    let counters: Vec<ArrayHandle<u64>> = (0..NODES as u64)
        .map(|c| {
            let (master, homes) = (NodeId::MASTER, HomeAssignment::RoundRobin);
            ArrayHandle::register(cluster.registry(), "exec.stress", c, 1, master, homes)
        })
        .collect();
    fingerprinted(cluster, move |ctx, fingerprint| {
        let me = ctx.node_id().index();
        for round in 0..rounds {
            let c = (me + round) % NODES;
            ctx.synchronized(LockId(c as u32), || {
                ctx.view_mut(&counters[c])[0] += me as u64 + 1;
            });
            ctx.barrier(BarrierId(9));
        }
        if ctx.is_master() {
            let hash = counters
                .iter()
                .map(|counter| ctx.view(counter)[0])
                .fold(FNV_BASIS, fnv);
            fingerprint.store(hash, Ordering::SeqCst);
        }
        ctx.barrier(BarrierId(9));
    })
}

/// Many lock, fault-in and flush rounds with the helpers racing one and
/// two workers, without migration and under a policy that moves a counter's
/// home to each writer, so grants installed by the step that sends them
/// race the helpers too. Every run must reproduce the sim's fingerprint,
/// and with debug assertions on, the executor's report asserts that the
/// pool ended with no node claimed or queued and nothing active: every
/// node `IDLE`.
#[test]
fn stress_helping_application_threads_keep_the_sim_result() {
    let rounds = 200;
    let sim = FabricMode::Sim(SimConfig::calm(2004));
    let jump = ProtocolConfig::no_migration().with_migration(MigrateOnRequestPolicy);
    for (name, protocol) in [("NM", ProtocolConfig::no_migration()), ("JUMP", jump)] {
        let base = test_cluster(4, protocol);
        let (expected, reference) = helper_stress(base.clone().fabric(sim.clone()), rounds);
        assert_eq!(
            reference.migrations() > 0,
            name == "JUMP",
            "{name}: migrations on the sim"
        );
        for workers in [1, 2] {
            let (fingerprint, report) =
                helper_stress(base.clone().executor_workers(workers), rounds);
            assert_eq!(
                fingerprint, expected,
                "{name}, {workers} workers: helping changed the result"
            );
            assert!(
                scheduler(&report).helped_steps > 0,
                "{name}, {workers} workers: nothing was helped"
            );
        }
    }
}

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
//! * **Scheduling is semantics-free** — a single-worker (N=1) executor,
//!   which fully serializes all server-side protocol handling, produces
//!   the same workload fingerprints as the default pool and as the
//!   sequential sim loop across the shared seed corpus, on the matrix
//!   workloads.
//! * **Teardown wakes parked waiters** — a pool deliberately larger than
//!   the cluster keeps its surplus workers parked on the idle condvar the
//!   whole run; shutdown must wake and retire them (the run completing at
//!   all is the assertion; the parked high-watermark proves they parked).
//! * **Observability** — queue-depth high-watermarks and runnable/parked
//!   counts surface in [`ExecutionReport::scheduler`] on both real
//!   fabrics (threaded and TCP), and stay `None` on the sim fabric, whose
//!   virtual-time scheduler has neither a server pool nor inbound queues.

use dsm_bench::matrix;
use dsm_core::ProtocolConfig;
use dsm_integration_tests::{seed_corpus, sim_test_cluster, tcp_test_cluster, test_cluster};
use dsm_net::TcpConfig;
use dsm_objspace::{BarrierId, HomeAssignment, NodeId, ObjectRegistry};
use dsm_runtime::{ArrayHandle, Cluster, ExecutionReport, FabricMode, SchedulerReport, SimConfig};
use std::time::Duration;

/// Cluster size of the quiet runs.
const QUIET_NODES: usize = 4;

/// Run a four-node cluster that does one barrier, sleeps quietly for
/// `quiet`, does another barrier, and return its report.
fn quiet_run(quiet: Duration) -> ExecutionReport {
    let registry = ObjectRegistry::new();
    let config = test_cluster(QUIET_NODES, ProtocolConfig::no_migration());
    Cluster::new(config, registry).run(move |ctx| {
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

/// A single-worker executor fully serializes all server-side handling —
/// and must still produce exactly the fingerprints of the default
/// (machine-sized) pool and of the sequential sim loop on the matrix
/// workloads, for every corpus seed.
#[test]
fn single_worker_executor_matches_default_pool_and_sim_fingerprints_on_corpus_seeds() {
    let workloads = matrix::workloads();
    for (i, seed) in seed_corpus().into_iter().enumerate() {
        // Rotate through the matrix so an overridden corpus sweeps cells.
        for workload in [&workloads[i % workloads.len()], &workloads[4]] {
            let cell = |fabric: FabricMode| {
                matrix::matrix_cluster(ProtocolConfig::adaptive(), fabric).with_seed(seed)
            };
            let single = workload.run(cell(FabricMode::Threaded).with_executor_workers(1));
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
    let registry = ObjectRegistry::new();
    let config = test_cluster(2, ProtocolConfig::no_migration()).with_executor_workers(8);
    let report = Cluster::new(config, registry).run(|ctx| {
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
    let mut registry = ObjectRegistry::new();
    let data: ArrayHandle<u64> = ArrayHandle::register(
        &mut registry,
        "exec.depth",
        0,
        4,
        NodeId::MASTER,
        HomeAssignment::Master,
    );
    let config = test_cluster(2, ProtocolConfig::no_migration());
    let report = Cluster::new(config, registry).run(move |ctx| {
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

/// The executor also drives the TCP fabric: wake-on-receive from the
/// socket reader threads, same report surface.
#[test]
fn tcp_runs_are_driven_by_the_executor_and_report_scheduling() {
    let mut registry = ObjectRegistry::new();
    let data: ArrayHandle<u64> = ArrayHandle::register(
        &mut registry,
        "exec.tcp",
        0,
        4,
        NodeId::MASTER,
        HomeAssignment::Master,
    );
    let config = tcp_test_cluster(2, ProtocolConfig::no_migration(), TcpConfig::default());
    let report = Cluster::new(config, registry).run(move |ctx| {
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
    let registry = ObjectRegistry::new();
    let config = sim_test_cluster(
        2,
        ProtocolConfig::no_migration(),
        SimConfig::perturbed(seed_corpus()[0]),
    );
    let report = Cluster::new(config, registry).run(|ctx| {
        ctx.barrier(BarrierId(5));
    });
    assert!(report.scheduler.is_none());
}

//! The cluster builder is the one place a run is configured: each of its
//! eight setters reaches the run, and an unconfigured builder runs the
//! documented defaults.

use dsm_core::ProtocolConfig;
use dsm_model::ComputeModel;
use dsm_net::MsgCategory;
use dsm_objspace::{BarrierId, HomeAssignment, LockId};
use dsm_runtime::{Cluster, ClusterBuilder, ExecutionReport, FabricMode, SimConfig};
use dsm_util::Mutex;

/// What one node saw of the cluster's settings.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Seen {
    node: usize,
    num_nodes: usize,
    seed: u64,
    /// Whether the node was home of both probe rows before any access.
    home_of_rows: bool,
}

/// Register a two-row matrix under the builder's default home. Every node
/// records what it sees, then charges the same computation; node 1 writes
/// both rows in one critical section, so its release flushes two diffs to
/// the rows' common home.
fn probe(mut cluster: ClusterBuilder) -> (ExecutionReport, Vec<Seen>) {
    let rows = cluster.register_matrix::<u64>("builder.rows", 2, 4);
    let lock = LockId::derive("builder.lock");
    let seen = Mutex::new(Vec::new());
    let report = cluster.build().run(|ctx| {
        let home_of_rows = (0..2).all(|r| ctx.is_home(rows.row(r)));
        seen.lock().push(Seen {
            node: ctx.node_id().index(),
            num_nodes: ctx.num_nodes(),
            seed: ctx.seed(),
            home_of_rows,
        });
        ctx.barrier(BarrierId(1));
        ctx.compute(1_000_000);
        if ctx.node_id().index() == 1 {
            ctx.synchronized(lock, || {
                for r in 0..2 {
                    ctx.view_mut(rows.row(r))[0] += 1;
                }
            });
        }
        ctx.barrier(BarrierId(2));
    });
    let mut seen = std::mem::take(&mut *seen.lock());
    seen.sort_by_key(|s| s.node);
    (report, seen)
}

/// Every setting at a non-default value, on the calm sim.
fn configured() -> ClusterBuilder {
    Cluster::builder()
        .nodes(3)
        .protocol(ProtocolConfig::fixed_threshold(2))
        .compute(ComputeModel::free())
        .seed(77)
        .default_home(HomeAssignment::Master)
        .flush_batching(false)
        .fabric(FabricMode::Sim(SimConfig::calm(2004)))
}

#[test]
fn every_builder_setting_reaches_the_run() {
    let (report, seen) = probe(configured());
    for s in &seen {
        assert_eq!((s.num_nodes, s.seed), (3, 77), "{s:?}");
        assert_eq!(s.home_of_rows, s.node == 0, "Master homes: {s:?}");
    }
    assert_eq!(seen.len(), 3);
    assert_eq!(report.policy_label, "FT2");
    assert!(
        report.delivery_trace.is_some(),
        "only the sim records a trace"
    );
    assert_eq!(report.messages(MsgCategory::DiffBatch), 0);

    // The counterparts that isolate one setting each.
    let (batched, _) = probe(configured().flush_batching(true));
    assert_eq!(batched.messages(MsgCategory::DiffBatch), 1);
    let (priced, _) = probe(configured().compute(ComputeModel::default()));
    assert!(
        report.execution_time < priced.execution_time,
        "free compute {} vs default {}",
        report.execution_time,
        priced.execution_time
    );
    let (_, seen) = probe(configured().default_home(HomeAssignment::RoundRobin));
    assert!(
        seen.iter().all(|s| !s.home_of_rows),
        "round-robin splits the two rows over nodes 0 and 1: {seen:?}"
    );
    let (threaded, _) = probe(
        configured()
            .fabric(FabricMode::Threaded)
            .executor_workers(1),
    );
    let scheduler = threaded
        .scheduler
        .expect("threaded runs report a scheduler");
    assert_eq!(scheduler.workers, 1);
}

#[test]
fn an_unconfigured_builder_runs_the_documented_defaults() {
    let (report, seen) = probe(Cluster::builder());
    assert_eq!(seen.len(), 2);
    for s in &seen {
        assert_eq!((s.num_nodes, s.seed), (2, 0), "{s:?}");
    }
    assert_eq!(report.num_nodes, 2);
    assert_eq!(report.policy_label, "AT");
    assert!(report.scheduler.is_some(), "threaded by default");
    assert!(report.delivery_trace.is_none());
}

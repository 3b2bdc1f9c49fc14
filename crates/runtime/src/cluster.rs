//! Cluster construction and execution.
//!
//! A cluster is configured and built one way: the chainable, seeded
//! [`ClusterBuilder`] (see [`Cluster::builder`]). It holds every setting of
//! a run, one setter each, and owns the object registry, with a default
//! home assignment for the objects it registers. Workload entry points take
//! a builder, register their objects through it and build the cluster.

use crate::ctx::NodeCtx;
use crate::exec::Executor;
use crate::handle::{ArrayHandle, Matrix2dHandle};
use crate::node::{NodeLink, NodeShared};
use crate::report::{ExecutionReport, SchedulerReport};
use crate::sim::{abort_all_pending, sim_server_loop};
use dsm_core::{ProtocolConfig, ProtocolEngine, ProtocolMsg, ProtocolStats};
use dsm_model::ComputeModel;
use dsm_net::{Fabric, SimConfig, SimFabric, StatsCollector, TcpConfig, TcpEndpoint, TcpFabric};
use dsm_objspace::{Element, HomeAssignment, NodeId, ObjectRegistry};
use dsm_util::Mutex;
use dsm_wire::ProtocolCodec;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;

/// Which fabric a cluster runs its protocol traffic over.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum FabricMode {
    /// The channel-based threaded fabric: in-process channels, all nodes'
    /// protocol servers stepped by the wake-on-send executor pool, message
    /// interleaving decided by the OS scheduler (the default, and the
    /// fastest wall-clock option on many cores).
    #[default]
    Threaded,
    /// The deterministic simulation fabric: a seeded virtual-time scheduler
    /// owns delivery, applies the configured perturbations, and records a
    /// replayable [`dsm_net::DeliveryTrace`] into the execution report.
    Sim(SimConfig),
    /// The real TCP fabric: every node binds a `127.0.0.1` listener and the
    /// full mesh of ordered socket connections carries the protocol in the
    /// `dsm-wire` binary format, joined by a hello handshake and torn down
    /// by a leave handshake. Message interleaving is OS-scheduled, as in
    /// threaded mode; results are fingerprint-identical to the other
    /// fabrics.
    Tcp(TcpConfig),
}

/// Chainable, seeded cluster construction — the one way to configure and
/// build a [`Cluster`]. It holds every setting of a run (one setter each)
/// and the [`ObjectRegistry`] of the shared objects the run uses.
///
/// ```no_run
/// use dsm_runtime::Cluster;
/// use dsm_core::ProtocolConfig;
/// use dsm_objspace::HomeAssignment;
///
/// let mut cluster = Cluster::builder()
///     .nodes(8)
///     .protocol(ProtocolConfig::adaptive())
///     .seed(2004)
///     .default_home(HomeAssignment::RoundRobin);
/// let counter = cluster.register_array::<u64>("counter", 1);
/// let report = cluster.build().run(move |ctx| {
///     // ... use `counter` through ctx views ...
/// });
/// ```
#[derive(Debug, Clone)]
#[must_use = "a ClusterBuilder does nothing until .build() — \
              every chainable setter returns the (moved) builder"]
pub struct ClusterBuilder {
    nodes: usize,
    protocol: ProtocolConfig,
    compute: ComputeModel,
    seed: u64,
    default_home: HomeAssignment,
    flush_batching: bool,
    fabric: FabricMode,
    executor_workers: usize,
    registry: ObjectRegistry,
}

impl Default for ClusterBuilder {
    /// 2 nodes, the adaptive protocol, the Pentium-4-class compute model,
    /// seed 0, creation-node homes, batched flushes, the threaded fabric and
    /// an auto-sized executor pool.
    fn default() -> Self {
        ClusterBuilder {
            nodes: 2,
            protocol: ProtocolConfig::adaptive(),
            compute: ComputeModel::default(),
            seed: 0,
            default_home: HomeAssignment::CreationNode,
            flush_batching: true,
            fabric: FabricMode::Threaded,
            executor_workers: 0,
            registry: ObjectRegistry::new(),
        }
    }
}

impl ClusterBuilder {
    /// Set the number of simulated nodes (the paper evaluates 2–16).
    ///
    /// # Panics
    /// Panics if `nodes` is zero.
    pub fn nodes(mut self, nodes: usize) -> Self {
        assert!(nodes > 0, "cluster must have at least one node");
        self.nodes = nodes;
        self
    }

    /// Replace the coherence protocol configuration: the migration policy
    /// and per-object overrides, the notification mechanism and the network
    /// model, each set through `ProtocolConfig::with_*`.
    pub fn protocol(mut self, protocol: ProtocolConfig) -> Self {
        self.protocol = protocol;
        self
    }

    /// Replace the computation cost model used by `NodeCtx::compute`.
    pub fn compute(mut self, compute: ComputeModel) -> Self {
        self.compute = compute;
        self
    }

    /// Set the cluster seed, exposed to applications through
    /// `NodeCtx::seed` / `NodeCtx::node_rng` for deterministic workload
    /// generation.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the default home assignment used by [`Self::register_array`] and
    /// [`Self::register_matrix`].
    pub fn default_home(mut self, assignment: HomeAssignment) -> Self {
        self.default_home = assignment;
        self
    }

    /// Enable or disable **release-time flush batching** (on by default):
    /// when an interval releases, the diffs of all dirty objects that share
    /// the same (believed) home travel as one `DiffBatch` message — one
    /// per-message start-up time instead of one per object — and entries
    /// whose home migrated mid-flight are re-planned individually from the
    /// per-entry redirect hints in the ack. Disabling it restores the
    /// paper-faithful wire behaviour of one `DiffFlush` (and one ack) per
    /// dirty object, which the unbatched benchmark baselines measure.
    pub fn flush_batching(mut self, enabled: bool) -> Self {
        self.flush_batching = enabled;
        self
    }

    /// Replace the fabric mode: threaded (the default), the deterministic
    /// sim with an explicit [`SimConfig`] (e.g. [`SimConfig::calm`] /
    /// [`SimConfig::perturbed`]), or real TCP sockets with a [`TcpConfig`].
    pub fn fabric(mut self, fabric: FabricMode) -> Self {
        self.fabric = fabric;
        self
    }

    /// Set the executor worker-pool size of a threaded or TCP run; `0` (the
    /// default) picks `min(available cores, nodes)`. Ignored on the sim
    /// fabric. With `1` worker, server-side handling still runs on more than
    /// one thread — an application thread waiting for a reply steps queued
    /// nodes beside the worker — so the fingerprint reference is the sim,
    /// not a single worker.
    pub fn executor_workers(mut self, workers: usize) -> Self {
        self.executor_workers = workers;
        self
    }

    /// The number of nodes set so far, for sizing per-node state before
    /// the run.
    pub fn num_nodes(&self) -> usize {
        self.nodes
    }

    /// The registry the run will use, for objects with an explicit creator
    /// or home (`ArrayHandle::register`, `Matrix2dHandle::register_immutable`,
    /// `ScalarHandle::register`, ...).
    pub fn registry(&mut self) -> &mut ObjectRegistry {
        &mut self.registry
    }

    /// Register an array object under the default home assignment, created
    /// by the master node.
    pub fn register_array<T: Element>(&mut self, name: &str, len: usize) -> ArrayHandle<T> {
        ArrayHandle::register(
            &mut self.registry,
            name,
            0,
            len,
            NodeId::MASTER,
            self.default_home,
        )
    }

    /// Register a `rows × cols` matrix (one object per row) under the
    /// default home assignment.
    pub fn register_matrix<T: Element>(
        &mut self,
        name: &str,
        rows: usize,
        cols: usize,
    ) -> Matrix2dHandle<T> {
        Matrix2dHandle::register(
            &mut self.registry,
            name,
            rows,
            cols,
            NodeId::MASTER,
            self.default_home,
        )
    }

    /// Build the cluster with the builder's settings and registry.
    pub fn build(mut self) -> Cluster {
        let registry = Arc::new(std::mem::take(&mut self.registry));
        Cluster {
            settings: self,
            registry,
        }
    }
}

/// A simulated cluster ready to run one application, built by
/// [`ClusterBuilder::build`].
pub struct Cluster {
    /// The builder's settings; its registry was moved into `registry`.
    settings: ClusterBuilder,
    registry: Arc<ObjectRegistry>,
}

impl Cluster {
    /// Start a [`ClusterBuilder`] from its defaults (see
    /// [`ClusterBuilder::default`]).
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::default()
    }

    /// Run `app` on every node (one application thread per node, exactly as
    /// the paper's distributed JVM dispatches one Java thread per cluster
    /// node) and return the merged execution report.
    ///
    /// With [`FabricMode::Threaded`] (the default) and [`FabricMode::Tcp`]
    /// the nodes' protocol servers are stepped by the wake-on-send executor
    /// pool and message interleaving is whatever the OS scheduler produces;
    /// with [`FabricMode::Sim`] the calling thread runs a deterministic,
    /// event-driven virtual-time scheduler instead and the report carries a
    /// replayable delivery trace.
    ///
    /// # Panics
    /// Propagates the first application panic, with its original payload,
    /// after shutting the cluster down: on every fabric the peers parked on
    /// replies the dead node will never send are woken and unwound.
    pub fn run<F>(self, app: F) -> ExecutionReport
    where
        F: Fn(&NodeCtx) + Send + Sync,
    {
        match self.settings.fabric.clone() {
            FabricMode::Threaded => self.run_threaded(app),
            FabricMode::Sim(sim) => self.run_sim(app, sim),
            FabricMode::Tcp(tcp) => self.run_tcp(app, tcp),
        }
    }

    /// The threaded runner: OS-scheduled delivery over in-process channels,
    /// served by the event-driven executor pool.
    fn run_threaded<F>(self, app: F) -> ExecutionReport
    where
        F: Fn(&NodeCtx) + Send + Sync,
    {
        let stats = StatsCollector::new();
        let fabric: Fabric<ProtocolMsg> = Fabric::new(
            self.settings.nodes,
            self.settings.protocol.network,
            stats.clone(),
        );
        let shareds: Vec<Arc<NodeShared>> = fabric
            .into_endpoints()
            .into_iter()
            .map(|endpoint| {
                self.node_shared(self.engine(endpoint.node()), NodeLink::Threaded(endpoint))
            })
            .collect();
        let scheduler = self.run_apps_with_executor(&shareds, &app);
        self.assemble_report(&shareds, &stats, None, Some(scheduler))
    }

    /// The TCP runner: every node binds a `127.0.0.1` listener, the mesh is
    /// connected through the join handshake, and the executor pool serves
    /// what is read from the sockets (by waiting application threads and
    /// each endpoint's I/O thread). Teardown is the leave handshake (see
    /// `crate::exec`), after which the wire counters are reconciled against
    /// the modeled network statistics.
    fn run_tcp<F>(self, app: F, tcp: TcpConfig) -> ExecutionReport
    where
        F: Fn(&NodeCtx) + Send + Sync,
    {
        let stats = StatsCollector::new();
        let fabric: TcpFabric<ProtocolMsg> = TcpFabric::bind_local::<ProtocolCodec>(
            self.settings.nodes,
            self.settings.protocol.network,
            stats.clone(),
            tcp,
        )
        .expect("failed to bind the TCP fabric on 127.0.0.1");
        let shareds: Vec<Arc<NodeShared>> = fabric
            .into_endpoints()
            .into_iter()
            .map(|endpoint| self.node_shared(self.engine(endpoint.node()), NodeLink::Tcp(endpoint)))
            .collect();
        let scheduler = self.run_apps_with_executor(&shareds, &app);

        let endpoints: Vec<&TcpEndpoint<ProtocolMsg>> = shareds
            .iter()
            .map(|shared| match &shared.link {
                NodeLink::Tcp(ep) => ep,
                _ => unreachable!("TCP runner built a non-TCP link"),
            })
            .collect();
        for ep in &endpoints {
            ep.finish();
        }

        // Wire-level reconciliation: after the leave handshake every payload
        // frame that was sent was delivered (per-link FIFO puts all payloads
        // before the leave), and the socket-side accounting of modeled bytes
        // matches the network statistics recorded at send time.
        let mut frames_sent = 0u64;
        let mut frames_delivered = 0u64;
        let mut modeled_sent = 0u64;
        for ep in &endpoints {
            let counters = ep.wire_counters();
            frames_sent += counters.payload_frames_sent;
            frames_delivered += counters.payload_frames_delivered;
            modeled_sent += counters.modeled_bytes_sent;
        }
        let network = stats.snapshot();
        assert_eq!(
            frames_sent, frames_delivered,
            "TCP fabric lost payload frames: {frames_sent} sent, {frames_delivered} delivered"
        );
        assert_eq!(
            frames_sent,
            network.total_messages(),
            "wire frame count and network statistics disagree"
        );
        assert_eq!(
            modeled_sent,
            network.total_bytes(),
            "wire-level modeled bytes and network statistics disagree"
        );

        self.assemble_report(&shareds, &stats, None, Some(scheduler))
    }

    /// Run one node of a **multi-process** TCP cluster and return this
    /// node's (single-node) execution report.
    ///
    /// The in-process runners own all N endpoints; a worker owns exactly
    /// one, created by `dsm_net::TcpNodeBinding::bind` in its own process
    /// and connected after the processes exchanged listener addresses
    /// (see the `tcp_cluster` binary in `dsm-bench` for the launcher side).
    /// `stats` must be the collector the binding was created with. The
    /// returned report covers this node only — node 0's report is the
    /// conventional place to read workload results from, and cluster-wide
    /// statistics are the sum of the workers' reports.
    ///
    /// # Panics
    /// Panics if the endpoint's cluster size disagrees with the
    /// configuration, or if the application thread panics.
    pub fn run_tcp_worker<F>(
        self,
        endpoint: TcpEndpoint<ProtocolMsg>,
        stats: StatsCollector,
        app: F,
    ) -> ExecutionReport
    where
        F: Fn(&NodeCtx) + Send + Sync,
    {
        assert_eq!(
            endpoint.num_nodes(),
            self.settings.nodes,
            "endpoint cluster size disagrees with the cluster configuration"
        );
        // One hosted node: the pool defaults to a single worker, woken by
        // this process's TCP I/O thread (and self-sends).
        let shareds = [self.node_shared(self.engine(endpoint.node()), NodeLink::Tcp(endpoint))];
        let scheduler = self.run_apps_with_executor(&shareds, &app);

        let NodeLink::Tcp(ep) = &shareds[0].link else {
            unreachable!("TCP worker built a non-TCP link");
        };
        ep.finish();
        self.assemble_report(&shareds, &stats, None, Some(scheduler))
    }

    /// The sim runner: no server pool, no timers — the calling thread
    /// schedules every delivery deterministically (see `crate::sim`).
    fn run_sim<F>(self, app: F, sim: SimConfig) -> ExecutionReport
    where
        F: Fn(&NodeCtx) + Send + Sync,
    {
        let stats = StatsCollector::new();
        let fabric: SimFabric<ProtocolMsg> = SimFabric::new(
            self.settings.nodes,
            self.settings.protocol.network,
            stats.clone(),
            sim,
        );

        let shareds: Vec<Arc<NodeShared>> = fabric
            .endpoints()
            .into_iter()
            .map(|endpoint| {
                // Lossy fabrics need recovery (retransmission, at-most-once
                // serving, re-election); lossless ones must not have it, so
                // genuine deadlocks still panic loudly.
                let mut engine = self.engine(endpoint.node());
                if sim.is_lossy() {
                    engine = engine.with_recovery();
                }
                self.node_shared(engine, NodeLink::Sim(endpoint))
            })
            .collect();

        let first_panic = FirstPanic::new();
        thread::scope(|scope| {
            // An agent counts as finished on unwind too, so a panicking
            // application cannot wedge the scheduler.
            let apps = first_panic.spawn_apps(scope, &shareds, &app, |_| fabric.agent_finished());
            // The calling thread is the deterministic scheduler.
            sim_server_loop(&shareds, &fabric, &first_panic);
            if first_panic.is_set() {
                // Unblock application threads parked on replies that will
                // never come (their peer died); they unwind with a secondary
                // "cluster shut down" panic.
                abort_all_pending(&shareds, &fabric);
            }
            first_panic.join(apps);
        });
        first_panic.resume();

        // Message-count reconciliation between the engines' view (network
        // statistics recorded at send time) and the fabric's delivery
        // bookkeeping: every sent message was either delivered exactly once
        // or recorded as an injected drop (lossy configs), and nothing is
        // still queued. Retransmissions are ordinary sends, so they
        // reconcile like any other message.
        let (sent, delivered, dropped, queued) = fabric.counters();
        assert_eq!(
            sent,
            delivered + dropped,
            "sim fabric lost messages: {sent} sent, {delivered} delivered, {dropped} dropped"
        );
        assert_eq!(
            queued, 0,
            "sim fabric finished with {queued} queued messages"
        );
        let trace = fabric.take_trace();
        assert_eq!(
            trace.len() as u64 + trace.drops.len() as u64,
            stats.snapshot().total_messages(),
            "delivery trace (deliveries + drops) and network statistics disagree on \
             message count"
        );
        // The virtual-time scheduler has neither a server pool nor inbound
        // queues, so sim runs report no scheduler.
        self.assemble_report(&shareds, &stats, Some(trace), None)
    }

    /// Build one node's engine.
    fn engine(&self, node: NodeId) -> ProtocolEngine {
        ProtocolEngine::new(
            node,
            self.settings.nodes,
            self.settings.protocol.clone(),
            Arc::clone(&self.registry),
        )
    }

    /// Build one node's shared state around `engine` on the given link.
    fn node_shared(&self, engine: ProtocolEngine, link: NodeLink) -> Arc<NodeShared> {
        NodeShared::new(
            engine,
            link,
            self.settings.compute,
            self.settings.protocol.network.handling_cost(),
            self.settings.seed,
            self.settings.flush_batching,
        )
    }

    /// Serve `shareds` (all nodes of an in-process cluster, or the one node
    /// of a multi-process TCP worker) with the wake-on-send executor: build
    /// the pool wired to the nodes' links, run the per-node application
    /// threads next to the workers in one scope, join the applications,
    /// drive the pool through teardown and return its counters.
    fn run_apps_with_executor<F>(&self, shareds: &[Arc<NodeShared>], app: &F) -> SchedulerReport
    where
        F: Fn(&NodeCtx) + Send + Sync,
    {
        let workers = effective_workers(self.settings.executor_workers, shareds.len());
        let executor = Executor::new(shareds, workers);
        // Sweep every inbound queue once: wakes that fired before the
        // notifier was installed were dropped (a TCP peer may already have
        // sent).
        executor.prime();
        let first_panic = FirstPanic::new();
        // A panic in an application or a handler step aborts every node's
        // reply slot, so peers waiting on replies that will never come wake
        // up instead of hanging.
        let on_exit = |panicked| {
            if panicked {
                shareds
                    .iter()
                    .for_each(|shared| shared.abort_pending(|| {}));
            }
        };
        thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| on_exit(first_panic.catch(|| executor.run_worker())));
            }
            let apps = first_panic.spawn_apps(scope, shareds, app, on_exit);
            // Join application threads first; then release the pool into
            // its drain/termination protocol even if an application panicked
            // — the workers must exit before the scope can close.
            first_panic.join(apps);
            for shared in shareds {
                shared.request_shutdown();
            }
            executor.begin_shutdown();
        });
        first_panic.resume();
        executor.report()
    }

    /// Merge per-node clocks and statistics into the final report.
    fn assemble_report(
        &self,
        shareds: &[Arc<NodeShared>],
        stats: &StatsCollector,
        delivery_trace: Option<dsm_net::DeliveryTrace>,
        scheduler: Option<SchedulerReport>,
    ) -> ExecutionReport {
        let node_times: Vec<_> = shareds.iter().map(|s| s.clock.now()).collect();
        let execution_time = node_times
            .iter()
            .copied()
            .max()
            .unwrap_or_default()
            .saturating_since(dsm_model::SimTime::ZERO);
        let mut protocol = ProtocolStats::default();
        for shared in shareds {
            protocol.merge(&shared.engine.stats());
        }
        ExecutionReport {
            execution_time,
            node_times,
            network: stats.snapshot(),
            protocol,
            num_nodes: self.settings.nodes,
            policy_label: self.settings.protocol.migration.label().to_string(),
            delivery_trace,
            scheduler,
        }
    }
}

/// The executor pool size for a run: an explicit request wins; `0` (auto)
/// sizes the pool to `min(available cores, num_nodes)`.
fn effective_workers(requested: usize, num_nodes: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(num_nodes)
        .max(1)
}

/// The run's first panic payload, from an application thread or an
/// executor worker. The teardown it triggers wakes the other nodes into
/// secondary "cluster shut down" panics; the runners re-raise this payload
/// instead.
pub(crate) struct FirstPanic(Mutex<Option<Box<dyn Any + Send>>>);

impl FirstPanic {
    fn new() -> Self {
        FirstPanic(Mutex::new(None))
    }

    /// Run `body` and return whether it panicked. The payload is kept if
    /// it is the run's first, before the caller starts any teardown, so a
    /// secondary panic the teardown provokes never wins the slot.
    fn catch(&self, body: impl FnOnce()) -> bool {
        let Err(payload) = catch_unwind(AssertUnwindSafe(body)) else {
            return false;
        };
        self.0.lock().get_or_insert(payload);
        true
    }

    /// Spawn one application thread per node into `scope`. As a thread
    /// leaves, `on_exit(panicked)` runs.
    fn spawn_apps<'scope, F, E>(
        &'scope self,
        scope: &'scope thread::Scope<'scope, '_>,
        shareds: &'scope [Arc<NodeShared>],
        app: &'scope F,
        on_exit: E,
    ) -> Vec<thread::ScopedJoinHandle<'scope, ()>>
    where
        F: Fn(&NodeCtx) + Sync,
        E: Fn(bool) + Copy + Send + 'scope,
    {
        let spawn = |shared: &'scope Arc<NodeShared>| {
            scope.spawn(move || on_exit(self.catch(|| app(&NodeCtx::new(Arc::clone(shared))))))
        };
        shareds.iter().map(spawn).collect()
    }

    /// Join the application threads, keeping a panic that escaped one.
    fn join(&self, apps: Vec<thread::ScopedJoinHandle<'_, ()>>) {
        for app in apps {
            self.catch(|| app.join().unwrap_or_else(|payload| resume_unwind(payload)));
        }
    }

    /// Whether some thread panicked.
    pub(crate) fn is_set(&self) -> bool {
        self.0.lock().is_some()
    }

    /// Re-raise the first panic, if any.
    fn resume(&self) {
        if let Some(payload) = self.0.lock().take() {
            resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_core::ReqId;
    use dsm_objspace::{BarrierId, LockId};
    use std::sync::mpsc;
    use std::time::Duration;

    /// A handler step that panics, on a waiting application thread or on a
    /// worker, ends the run with its payload instead of hanging it. Node 1
    /// puts a reply for a request nobody made into node 0's inbox while
    /// node 0 waits at a barrier; the step serving it panics.
    #[test]
    fn a_panicking_handler_step_ends_the_run_with_its_payload() {
        let (finished, outcome) = mpsc::channel();
        thread::spawn(move || {
            let cluster = Cluster::builder()
                .protocol(ProtocolConfig::no_migration())
                .compute(ComputeModel::free())
                .executor_workers(1)
                .build();
            let run = catch_unwind(AssertUnwindSafe(|| {
                cluster.run(|ctx| {
                    if !ctx.is_master() {
                        let stray = ProtocolMsg::LockGrant {
                            req: ReqId(u64::MAX),
                            lock: LockId(1),
                        };
                        ctx.shared().send(NodeId::MASTER, stray);
                    }
                    ctx.barrier(BarrierId(1));
                })
            }));
            let payload = run.err().and_then(|p| p.downcast_ref::<String>().cloned());
            let _ = finished.send(payload);
        });
        let payload = outcome
            .recv_timeout(Duration::from_secs(30))
            .expect("the run hung after a handler step panicked");
        let message = payload.expect("the run must re-raise the step's String payload");
        assert!(
            message.contains("reply for unknown request"),
            "got: {message}"
        );
    }
}

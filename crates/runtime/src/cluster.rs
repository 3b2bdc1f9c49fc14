//! Cluster construction and execution.
//!
//! The preferred construction path is the chainable, seeded
//! [`ClusterBuilder`] (see [`Cluster::builder`]): it owns the object
//! registry, carries a default home-assignment policy for the objects it
//! registers, and replaces the positional `ClusterConfig::new` + `with_*`
//! sprawl. [`ClusterConfig`] remains as the plain value the builder
//! produces, which workload entry points accept directly.

use crate::ctx::NodeCtx;
use crate::exec::Executor;
use crate::fault::{FaultConfig, FaultState};
use crate::handle::{ArrayHandle, Matrix2dHandle, ScalarHandle};
use crate::node::{NodeLink, NodeShared};
use crate::report::{ExecutionReport, SchedulerReport};
use crate::sim::{abort_all_pending, sim_server_loop, AppAgent};
use dsm_core::{
    IntoMigrationPolicy, NotificationMechanism, ProtocolConfig, ProtocolEngine, ProtocolMsg,
    ProtocolStats,
};
use dsm_model::{ComputeModel, NetworkParams};
use dsm_net::{
    Fabric, MembershipReport, SimConfig, SimFabric, StatsCollector, TcpConfig, TcpEndpoint,
    TcpFabric,
};
use dsm_objspace::{Element, HomeAssignment, NodeId, ObjectId, ObjectRegistry};
use dsm_wire::ProtocolCodec;
use std::sync::atomic::{AtomicBool, Ordering};
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
    /// `dsm-wire` binary format, with join-time membership exchange and
    /// heartbeat liveness (surfaced in [`ExecutionReport::membership`]).
    /// Message interleaving is OS-scheduled, as in threaded mode; results
    /// are fingerprint-identical to the other fabrics.
    Tcp(TcpConfig),
}

/// Configuration of one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of simulated cluster nodes (the paper evaluates 2–16).
    pub num_nodes: usize,
    /// Coherence protocol configuration (migration policy, notification
    /// mechanism, network model).
    pub protocol: ProtocolConfig,
    /// Computation cost model used by `NodeCtx::compute`.
    pub compute: ComputeModel,
    /// Cluster seed, exposed to applications through `NodeCtx::seed` /
    /// `NodeCtx::node_rng` for deterministic workload generation.
    pub seed: u64,
    /// Whether release-time diff flushes to the same home are batched into
    /// one `DiffBatch` message (on by default). Disable to reproduce the
    /// paper-faithful wire behaviour of one `DiffFlush` per dirty object.
    pub flush_batching: bool,
    /// The fabric the cluster runs on (threaded by default; see
    /// [`ClusterBuilder::sim_fabric`] for the deterministic sim mode).
    pub fabric: FabricMode,
    /// Executor worker-pool size; `0` (the default) sizes the pool to
    /// `min(available cores, num_nodes)`. Ignored on the sim fabric.
    pub executor_workers: usize,
}

impl ClusterConfig {
    /// Create a configuration with the default computation model
    /// (≈ 2 GHz Pentium 4) and seed 0. Prefer [`Cluster::builder`].
    pub fn new(num_nodes: usize, protocol: ProtocolConfig) -> Self {
        assert!(num_nodes > 0, "cluster must have at least one node");
        ClusterConfig {
            num_nodes,
            protocol,
            compute: ComputeModel::default(),
            seed: 0,
            flush_batching: true,
            fabric: FabricMode::Threaded,
            executor_workers: 0,
        }
    }

    /// Replace the executor worker-pool size (`0` = auto; see
    /// [`ClusterBuilder::executor_workers`]).
    #[must_use]
    pub fn with_executor_workers(mut self, workers: usize) -> Self {
        self.executor_workers = workers;
        self
    }

    /// Replace the computation cost model.
    #[must_use]
    pub fn with_compute(mut self, compute: ComputeModel) -> Self {
        self.compute = compute;
        self
    }

    /// Replace the cluster seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enable or disable release-time flush batching (see
    /// [`ClusterBuilder::flush_batching`]).
    #[must_use]
    pub fn with_flush_batching(mut self, enabled: bool) -> Self {
        self.flush_batching = enabled;
        self
    }

    /// Replace the fabric mode (see [`ClusterBuilder::sim_fabric`]).
    #[must_use]
    pub fn with_fabric(mut self, fabric: FabricMode) -> Self {
        self.fabric = fabric;
        self
    }

    /// Run on the deterministic sim fabric with the default seeded
    /// perturbations — the config-value form of
    /// [`ClusterBuilder::sim_fabric`].
    #[must_use]
    pub fn with_sim_fabric(self, seed: u64) -> Self {
        self.with_fabric(FabricMode::Sim(SimConfig::perturbed(seed)))
    }

    /// Run on the real TCP fabric with default timeouts — the config-value
    /// form of [`ClusterBuilder::tcp_fabric`].
    #[must_use]
    pub fn with_tcp_fabric(self) -> Self {
        self.with_fabric(FabricMode::Tcp(TcpConfig::default()))
    }
}

/// Chainable, seeded cluster construction: nodes, protocol pieces, compute
/// model, network parameters and the default home assignment for objects
/// registered through the builder.
///
/// ```no_run
/// use dsm_runtime::Cluster;
/// use dsm_core::AdaptiveThresholdPolicy;
/// use dsm_objspace::HomeAssignment;
///
/// let mut cluster = Cluster::builder()
///     .nodes(8)
///     .migration(AdaptiveThresholdPolicy::paper())
///     .seed(2004)
///     .default_home(HomeAssignment::RoundRobin);
/// let counter = cluster.register_scalar::<u64>("counter");
/// let report = cluster.build().run(move |ctx| {
///     // ... use `counter` through ctx views ...
/// });
/// ```
#[derive(Debug, Clone)]
#[must_use = "a ClusterBuilder does nothing until .build() or .config() — \
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
    /// Start from the defaults: 2 nodes, adaptive protocol, Pentium-4-class
    /// compute model, creation-node home assignment, seed 0.
    pub fn new() -> Self {
        ClusterBuilder::default()
    }

    /// Set the number of simulated nodes.
    ///
    /// # Panics
    /// Panics if `nodes` is zero.
    pub fn nodes(mut self, nodes: usize) -> Self {
        assert!(nodes > 0, "cluster must have at least one node");
        self.nodes = nodes;
        self
    }

    /// Replace the whole protocol configuration.
    pub fn protocol(mut self, protocol: ProtocolConfig) -> Self {
        self.protocol = protocol;
        self
    }

    /// Replace the cluster-wide default home-migration policy. Accepts any
    /// policy value (`AdaptiveThresholdPolicy::paper()`,
    /// `HysteresisPolicy::default()`, a user-defined `HomeMigrationPolicy`)
    /// or an `Arc` of one — see `dsm_core::policy` for the trait contract.
    pub fn migration(mut self, migration: impl IntoMigrationPolicy) -> Self {
        self.protocol = self.protocol.with_migration(migration);
        self
    }

    /// Override the home-migration policy for a single object, so one
    /// cluster runs different policies on different objects (handles expose
    /// their [`ObjectId`] via `handle.id` / `handle.id()`). Objects without
    /// an override use the cluster-wide [`Self::migration`] policy.
    pub fn object_policy(mut self, obj: ObjectId, policy: impl IntoMigrationPolicy) -> Self {
        self.protocol = self.protocol.with_object_policy(obj, policy);
        self
    }

    /// Replace the new-home notification mechanism.
    pub fn notification(mut self, notification: NotificationMechanism) -> Self {
        self.protocol = self.protocol.with_notification(notification);
        self
    }

    /// Replace the network parameters (affects virtual time and α).
    pub fn network(mut self, network: NetworkParams) -> Self {
        self.protocol = self.protocol.with_network(network);
        self
    }

    /// Replace the computation cost model.
    pub fn compute(mut self, compute: ComputeModel) -> Self {
        self.compute = compute;
        self
    }

    /// Set the cluster seed (exposed as `NodeCtx::seed`).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the default home assignment used by the builder's `register_*`
    /// helpers.
    pub fn default_home(mut self, assignment: HomeAssignment) -> Self {
        self.default_home = assignment;
        self
    }

    /// Size the executor's worker pool explicitly. `0` (the default) picks
    /// `min(available cores, num_nodes)`; `1` serializes all server-side
    /// protocol handling onto a single worker (the serialization reference
    /// for equivalence testing). Ignored on the sim fabric.
    pub fn executor_workers(mut self, workers: usize) -> Self {
        self.executor_workers = workers;
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

    /// Run on the **deterministic simulation fabric** with the default
    /// seeded perturbations ([`SimConfig::perturbed`]): message delivery is
    /// owned by a seeded virtual-time scheduler with event-driven wakeups,
    /// per-link latency jitter, bounded
    /// reordering and bursty delay spikes reshape the schedule, and the
    /// execution report carries a replayable
    /// [`delivery trace`](ExecutionReport::delivery_trace) — the same seed
    /// reproduces it bit-identically, a different seed explores a different
    /// interleaving. Use [`ClusterBuilder::fabric`] with an explicit
    /// [`SimConfig`] (e.g. [`SimConfig::calm`] / [`SimConfig::stormy`]) to
    /// tune the perturbations.
    pub fn sim_fabric(self, seed: u64) -> Self {
        self.fabric(FabricMode::Sim(SimConfig::perturbed(seed)))
    }

    /// Run on the **real TCP fabric** with default timeouts: every node
    /// binds a listener on an ephemeral `127.0.0.1` port, the nodes
    /// exchange a join handshake and connect a full mesh of ordered socket
    /// connections, and all protocol traffic crosses real sockets in the
    /// `dsm-wire` binary format. Modeled virtual time still travels inside
    /// every message, so execution-time and traffic figures are identical
    /// to the in-process fabrics; the execution report additionally carries
    /// each node's heartbeat-driven [`membership view`](MembershipReport).
    /// Use [`ClusterBuilder::fabric`] with an explicit [`TcpConfig`] to
    /// tune heartbeat cadence and liveness thresholds.
    pub fn tcp_fabric(self) -> Self {
        self.fabric(FabricMode::Tcp(TcpConfig::default()))
    }

    /// Replace the fabric mode (threaded, or sim with an explicit
    /// perturbation configuration).
    pub fn fabric(mut self, fabric: FabricMode) -> Self {
        self.fabric = fabric;
        self
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

    /// Register a scalar object under the default home assignment.
    pub fn register_scalar<T: Element>(&mut self, name: &str) -> ScalarHandle<T> {
        ScalarHandle::register(&mut self.registry, name, NodeId::MASTER, self.default_home)
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

    /// Direct access to the builder's registry, for registrations the
    /// helpers do not cover (immutable objects, per-node creators).
    pub fn registry_mut(&mut self) -> &mut ObjectRegistry {
        &mut self.registry
    }

    /// The [`ClusterConfig`] this builder currently describes.
    pub fn config(&self) -> ClusterConfig {
        ClusterConfig {
            num_nodes: self.nodes,
            protocol: self.protocol.clone(),
            compute: self.compute,
            seed: self.seed,
            flush_batching: self.flush_batching,
            fabric: self.fabric.clone(),
            executor_workers: self.executor_workers,
        }
    }

    /// Build the cluster with the builder's own registry.
    pub fn build(self) -> Cluster {
        let config = self.config();
        Cluster::new(config, self.registry)
    }

    /// Build the cluster with an externally assembled registry (the
    /// builder's own registrations are discarded).
    pub fn build_with(self, registry: ObjectRegistry) -> Cluster {
        Cluster::new(self.config(), registry)
    }
}

/// A simulated cluster ready to run one application.
pub struct Cluster {
    config: ClusterConfig,
    registry: ObjectRegistry,
}

impl Cluster {
    /// Start a chainable [`ClusterBuilder`].
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::new()
    }

    /// Build a cluster from a configuration and the registry of shared
    /// objects the application will use.
    pub fn new(config: ClusterConfig, registry: ObjectRegistry) -> Self {
        Cluster { config, registry }
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
    /// Propagates a panic from any application thread after shutting the
    /// cluster down.
    pub fn run<F>(self, app: F) -> ExecutionReport
    where
        F: Fn(&NodeCtx) + Send + Sync,
    {
        match self.config.fabric.clone() {
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
        let Cluster { config, registry } = self;
        let registry = Arc::new(registry);
        let stats = StatsCollector::new();
        let fabric: Fabric<ProtocolMsg> =
            Fabric::new(config.num_nodes, config.protocol.network, stats.clone());
        let shareds: Vec<Arc<NodeShared>> = fabric
            .into_endpoints()
            .into_iter()
            .map(|endpoint| {
                let node = endpoint.node();
                node_shared(&config, &registry, node, NodeLink::Threaded(endpoint), None)
            })
            .collect();
        let scheduler = run_apps_with_executor(&config, &shareds, &app);
        assemble_report(&config, &shareds, &stats, None, None, Some(scheduler))
    }

    /// The TCP runner: every node binds a `127.0.0.1` listener, the mesh is
    /// connected through the join handshake, and the executor pool serves
    /// what the socket reader threads enqueue. Teardown is the leave
    /// handshake (see `crate::exec`), after which the wire counters are
    /// reconciled against the modeled network statistics.
    fn run_tcp<F>(self, app: F, tcp: TcpConfig) -> ExecutionReport
    where
        F: Fn(&NodeCtx) + Send + Sync,
    {
        let Cluster { config, registry } = self;
        let registry = Arc::new(registry);
        let stats = StatsCollector::new();
        let fabric: TcpFabric<ProtocolMsg> = TcpFabric::bind_local::<ProtocolCodec>(
            config.num_nodes,
            config.protocol.network,
            stats.clone(),
            tcp,
        )
        .expect("failed to bind the TCP fabric on 127.0.0.1");
        let shareds: Vec<Arc<NodeShared>> = fabric
            .into_endpoints()
            .into_iter()
            .map(|endpoint| {
                let node = endpoint.node();
                node_shared(&config, &registry, node, NodeLink::Tcp(endpoint), None)
            })
            .collect();
        let scheduler = run_apps_with_executor(&config, &shareds, &app);

        // Capture each node's liveness view before teardown stops the
        // heartbeat threads, then close the sockets.
        let endpoints: Vec<&TcpEndpoint<ProtocolMsg>> = shareds
            .iter()
            .map(|shared| match &shared.link {
                NodeLink::Tcp(ep) => ep,
                _ => unreachable!("TCP runner built a non-TCP link"),
            })
            .collect();
        let membership = MembershipReport {
            views: endpoints.iter().map(|ep| ep.membership()).collect(),
        };
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

        assemble_report(
            &config,
            &shareds,
            &stats,
            None,
            Some(membership),
            Some(scheduler),
        )
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
        let Cluster { config, registry } = self;
        let num_nodes = config.num_nodes;
        assert_eq!(
            endpoint.num_nodes(),
            num_nodes,
            "endpoint cluster size disagrees with the cluster configuration"
        );
        let registry = Arc::new(registry);
        let node = endpoint.node();
        // One hosted node: the pool defaults to a single worker, woken by
        // this process's TCP readers (and self-sends).
        let shareds = [node_shared(
            &config,
            &registry,
            node,
            NodeLink::Tcp(endpoint),
            None,
        )];
        let scheduler = run_apps_with_executor(&config, &shareds, &app);

        let NodeLink::Tcp(ep) = &shareds[0].link else {
            unreachable!("TCP worker built a non-TCP link");
        };
        let membership = MembershipReport {
            views: vec![ep.membership()],
        };
        ep.finish();
        assemble_report(
            &config,
            &shareds,
            &stats,
            None,
            Some(membership),
            Some(scheduler),
        )
    }

    /// The sim runner: no server pool, no timers — the calling thread
    /// schedules every delivery deterministically (see `crate::sim`).
    fn run_sim<F>(self, app: F, sim: SimConfig) -> ExecutionReport
    where
        F: Fn(&NodeCtx) + Send + Sync,
    {
        let Cluster { config, registry } = self;
        let num_nodes = config.num_nodes;
        let registry = Arc::new(registry);
        let stats = StatsCollector::new();
        let fabric: SimFabric<ProtocolMsg> =
            SimFabric::new(num_nodes, config.protocol.network, stats.clone(), sim);

        let shareds: Vec<Arc<NodeShared>> = fabric
            .endpoints()
            .into_iter()
            .map(|endpoint| {
                // Lossy fabrics need the recovery machinery (timeouts,
                // retransmission, dedup, re-election); lossless ones must
                // not have it, so genuine deadlocks still panic loudly.
                let fault = sim
                    .is_lossy()
                    .then(|| FaultState::new(FaultConfig::sim_default()));
                let node = endpoint.node();
                node_shared(&config, &registry, node, NodeLink::Sim(endpoint), fault)
            })
            .collect();

        let panicked = AtomicBool::new(false);
        let first_panic = std::sync::atomic::AtomicUsize::new(crate::sim::NO_PANIC);
        thread::scope(|scope| {
            let app = &app;
            let fabric = &fabric;
            let panicked = &panicked;
            let first_panic = &first_panic;
            let mut handles = Vec::with_capacity(num_nodes);
            for (node, shared) in shareds.iter().enumerate() {
                let shared = Arc::clone(shared);
                handles.push(scope.spawn(move || {
                    // Marks the agent finished on unwind too, so a panicking
                    // application cannot wedge the scheduler.
                    let _agent = AppAgent::new(fabric, panicked, first_panic, node);
                    let ctx = NodeCtx::new(shared);
                    app(&ctx);
                }));
            }
            // The calling thread is the deterministic scheduler.
            sim_server_loop(&shareds, fabric, panicked);
            if panicked.load(Ordering::SeqCst) {
                // Unblock application threads parked on replies that will
                // never come (their peer died); they observe a disconnect
                // and unwind with a secondary "cluster shut down" panic.
                abort_all_pending(&shareds, fabric);
            }
            let mut results: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            // Re-raise the panic of the node that failed *first* — the
            // other Errs are teardown fallout, and resuming one of those
            // would hide the real failure message.
            let original = first_panic.load(Ordering::SeqCst);
            if original != crate::sim::NO_PANIC {
                if let Err(payload) = std::mem::replace(&mut results[original], Ok(())) {
                    std::panic::resume_unwind(payload);
                }
            }
            for result in results {
                if let Err(payload) = result {
                    std::panic::resume_unwind(payload);
                }
            }
        });

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
        assemble_report(&config, &shareds, &stats, Some(trace), None, None)
    }
}

/// Build one node's engine and shared state on the given link.
fn node_shared(
    config: &ClusterConfig,
    registry: &Arc<ObjectRegistry>,
    node: NodeId,
    link: NodeLink,
    fault: Option<FaultState>,
) -> Arc<NodeShared> {
    let engine = ProtocolEngine::new(
        node,
        config.num_nodes,
        config.protocol.clone(),
        Arc::clone(registry),
    );
    NodeShared::new(
        engine,
        link,
        config.compute,
        config.protocol.handling_cost,
        config.seed,
        config.flush_batching,
        fault,
    )
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

/// Serve `shareds` (all nodes of an in-process cluster, or the one node of
/// a multi-process TCP worker) with the wake-on-send executor: build the
/// pool, wire it to the nodes' links, run the per-node application threads
/// next to the workers in one scope, join the applications, drive the pool
/// through teardown and return its counters.
fn run_apps_with_executor<F>(
    config: &ClusterConfig,
    shareds: &[Arc<NodeShared>],
    app: &F,
) -> SchedulerReport
where
    F: Fn(&NodeCtx) + Send + Sync,
{
    let workers = effective_workers(config.executor_workers, shareds.len());
    let executor = Executor::new(shareds.iter().map(|s| s.node).collect(), workers);
    for (slot, shared) in shareds.iter().enumerate() {
        shared.link_install_notifier(executor.notifier());
        shared.attach_rearm(executor.hook(slot));
    }
    // Sweep every inbound queue once: wakes that fired before the notifier
    // was installed were dropped (a TCP peer may already have sent).
    executor.prime();
    thread::scope(|scope| {
        for _ in 0..executor.workers() {
            scope.spawn(|| executor.run_worker(shareds));
        }
        let mut handles = Vec::with_capacity(shareds.len());
        for shared in shareds {
            let shared = Arc::clone(shared);
            handles.push(scope.spawn(move || {
                let ctx = NodeCtx::new(shared);
                app(&ctx);
            }));
        }
        // Join application threads first; then release the pool into its
        // drain/termination protocol even if an application panicked — the
        // workers must exit before the scope can close.
        let results: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        for shared in shareds {
            shared.request_shutdown();
        }
        executor.begin_shutdown();
        for result in results {
            if let Err(payload) = result {
                std::panic::resume_unwind(payload);
            }
        }
    });
    executor.report(queue_depth_high_watermark(shareds))
}

/// The deepest any node's inbound queue ever got across the run.
fn queue_depth_high_watermark(shareds: &[Arc<NodeShared>]) -> usize {
    shareds
        .iter()
        .filter_map(|shared| shared.link_queue_high_watermark())
        .max()
        .unwrap_or(0)
}

/// Merge per-node clocks and statistics into the final report.
fn assemble_report(
    config: &ClusterConfig,
    shareds: &[Arc<NodeShared>],
    stats: &StatsCollector,
    delivery_trace: Option<dsm_net::DeliveryTrace>,
    membership: Option<MembershipReport>,
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
        num_nodes: config.num_nodes,
        policy_label: config.protocol.migration.label().to_string(),
        delivery_trace,
        membership,
        scheduler,
    }
}

//! The per-node protocol engine.
//!
//! One [`ProtocolEngine`] instance lives on every simulated cluster node. It
//! owns that node's home copies, cached copies, migration bookkeeping and
//! synchronization-manager state, and it is driven from two sides:
//!
//! * the **application side** (the node's application thread, through the
//!   runtime's `NodeCtx`): planning reads and writes, leasing object stores
//!   for zero-copy views, installing fetched objects, preparing and
//!   finishing releases, opening intervals;
//! * the **server side** (the node's protocol server thread): handling
//!   object requests, diffs, notifications and synchronization messages
//!   arriving from other nodes.
//!
//! The engine is deliberately transport-agnostic: methods return *plans* and
//! *outcomes* describing what must be sent, and accept the results of those
//! exchanges. The runtime owns blocking, retries and virtual-time
//! accounting. This keeps every protocol rule in one place and unit-testable
//! without threads.
//!
//! ## Sharded locking
//!
//! The engine is internally **lock-striped** so the two sides never
//! serialize on a node-global lock. Per-object state (home copies, cached
//! copies, home beliefs, interval write sets) lives in `N` independent
//! [`EngineShard`]s, each behind its own mutex, keyed by `ObjectId`;
//! node-global state (the distributed lock and barrier managers and the
//! synchronization counters) sits behind a separate small lock
//! ([`NodeGlobals`]). Every public method takes `&self` and acquires exactly
//! one internal lock — shard locks and the global lock are all *leaf* locks,
//! never nested — so requests for objects in different shards proceed fully
//! in parallel and the engine's internal locking cannot deadlock.
//! Interval-wide operations (`begin_interval`, `prepare_release`,
//! `finish_release`) walk the shards one at a time; they are issued by the
//! node's single application thread, which the protocol permits to observe
//! shards at slightly different instants (the server side only performs
//! per-object transitions).
//!
//! ## Payload leases
//!
//! Object payloads live behind [`ObjectStore`] handles (shared read/write
//! cells). The application side *leases* a store after a successful access
//! plan and holds its read or write guard across application code — that is
//! how `ReadView`/`WriteView` expose `&[T]`/`&mut [T]` over engine storage
//! without copying and without pinning any engine lock. Because the home of
//! an object can migrate away *between* the access plan and the lease (the
//! server thread serves requests concurrently), the runtime uses the checked
//! [`ProtocolEngine::try_lease_read`]/[`ProtocolEngine::try_lease_write`]
//! forms, which validate
//! the access state and take the payload guard atomically under the shard
//! lock, and re-plan when the state moved underneath them. The server side
//! only ever takes `try_` locks on payloads and reports [`Busy`] outcomes
//! when an application view is live, so the protocol server can defer a
//! message instead of blocking — the property that makes lease-holding
//! deadlock-free (a node waiting for a reply always has a responsive
//! server).
//!
//! [`Busy`]: ObjectRequestOutcome::Busy
//! [`EngineShard`]: crate::engine#sharded-locking
//! [`NodeGlobals`]: crate::engine#sharded-locking
//!
//! ## Home epochs
//!
//! Every migration bumps the object's *home epoch* (the migration counter
//! shipped with the grant). Redirects and new-home notifications carry the
//! sender's believed epoch, and a node only adopts a hint that is strictly
//! newer than its own belief — never a hint pointing at itself. This keeps
//! every forwarding pointer pointing forward in migration time, so chains
//! cannot form cycles even under racy cross-node interleavings (a stale
//! backward hint could otherwise overwrite a correct forward pointer and
//! strand the requester in a redirect loop).
//!
//! ## Ordering assumptions
//!
//! The protocol's delivery-order requirements, stated explicitly because
//! the fabrics (threaded channels, and the perturbing sim fabric with its
//! per-link FIFO clamp) are built to honour exactly these and no more:
//!
//! * **Per-link FIFO.** Messages from one node to another must arrive in
//!   send order. The load-bearing case is the *one-way* synchronization
//!   traffic: a node's `LockRelease` is fire-and-forget, and its next
//!   `LockAcquire` of the same lock is a fresh message on the same link —
//!   if the acquire overtook the release, the manager would queue the
//!   requester behind itself and deadlock (barrier arrivals of successive
//!   epochs are analogous). Request/reply pairs are immune (the requester
//!   blocks), and home beliefs are epoch-guarded, so overtaking *across*
//!   links — which the sim fabric's seeded perturbations explore
//!   aggressively — is always safe: hints and notifications are adopted
//!   only when strictly newer.
//! * **At-most-once delivery.** A message is delivered at most once per
//!   send. Lossless fabrics (threaded channels, calm/perturbed sim
//!   configurations, TCP) deliver exactly once and need nothing else; the
//!   lossy sim configurations may *drop* messages, which the runtime
//!   papers over with timeouts, retransmissions and a server-side
//!   request-id dedup table — see *Fault model & recovery* below. The sim
//!   fabric asserts send = delivery + drop conservation at teardown.
//! * **No global order.** Nothing assumes cluster-wide delivery order or
//!   a shared clock; any interleaving consistent with the two points above
//!   must produce the same application results (the conformance matrix's
//!   seed sweep checks precisely this).
//! * **Deterministic iteration for reproducibility.** Where the engine
//!   *emits* ordered work derived from unordered containers, it orders it
//!   explicitly — [`ProtocolEngine::prepare_release`] sorts flush plans by
//!   object id and [`group_flush_plans`] orders batches by target node —
//!   so a fixed schedule (e.g. a sim-fabric seed) replays bit-identically
//!   regardless of hash-map iteration order.
//!
//! ## Fault model & recovery
//!
//! Under a *lossy* fabric the engine's job splits in two: the runtime owns
//! detection and retransmission (per-request timeouts that fire only when
//! the cluster is otherwise quiescent, so lossless schedules are
//! untouched), while the engine owns the state rules that make those
//! retransmissions *safe*:
//!
//! * **What can be lost.** Any message. Requests and one-way notifications
//!   are retransmitted by the sender's retry table; replies and acks are
//!   re-sent from the server's per-`ReqId` reply cache when the retried
//!   request arrives again. `LockRelease` — historically fire-and-forget —
//!   carries a real request id on lossy runs so a lost release cannot
//!   deadlock the lock manager.
//! * **Why duplicates are safe.** Every retriable request with side
//!   effects ([`crate::messages::ProtocolMsg::dedup_req`]) is deduplicated
//!   at the server's network ingress: the first delivery executes and its
//!   reply is cached; later deliveries of the same `ReqId` either re-send
//!   the cached reply or (while the original is still deferred) are
//!   silently absorbed. The handlers themselves therefore never observe a
//!   duplicate, and the non-dedup'd fault-recovery messages
//!   (`HomeElect`/`HomeFence` and their answers) are idempotent by
//!   construction — elections are sticky, fencing compares epochs.
//! * **Home re-election.** When a node cannot reach an object's believed
//!   home past the runtime's failover threshold, it asks the object's
//!   *arbiter* — its well-known manager node, or the next node when the
//!   manager itself is the suspect — to elect a new home
//!   ([`ProtocolEngine::handle_home_elect`]). The arbiter elects a node
//!   that still holds a copy (preferring the live candidate), records the
//!   decision so concurrent candidates converge on one winner, and the
//!   winner promotes its local copy ([`ProtocolEngine::install_elected_home`]).
//!   A crashed home's unflushed interval is lost: recovery restores the
//!   best surviving copy, which is exactly the guarantee a home-based LRC
//!   protocol can give without replication.
//! * **The epoch-fencing argument.** An elected home's epoch is the
//!   highest epoch any elector has observed plus [`ELECTION_EPOCH_STRIDE`]
//!   (2^16). A dark home can keep granting ordinary migrations while
//!   unreachable, but each grant bumps its epoch by exactly one — it would
//!   need 2^16 unobserved grants to catch up to the fence, which bounded
//!   workloads never approach. Every belief, redirect and notification
//!   comparison is strictly-greater-than on epochs, so anything the
//!   deposed home says after the election loses, and the deposed home
//!   itself is demoted the moment a fenced epoch reaches it
//!   ([`ProtocolEngine::handle_home_notify`] — the `HomeFence` path, which
//!   the winner retries until acknowledged).

use crate::config::ProtocolConfig;
use crate::global::NodeGlobals;
use crate::messages::ReqId;
use crate::migration::MigrationState;
use crate::shard::EngineShard;
use crate::stats::ProtocolStats;
use crate::sync::{BarrierOutcome, LockAcquireOutcome, LockReleaseOutcome};
use dsm_objspace::{
    BarrierId, Diff, Element, LockId, NodeId, ObjectData, ObjectId, ObjectRegistry, ObjectStore,
    Version,
};
use dsm_util::{Mutex, MutexGuard, RwReadGuard, RwWriteGuard};
use std::collections::HashMap;
use std::sync::Arc;

/// Default number of lock stripes per engine. Sixteen shards keep the
/// per-shard mutexes essentially uncontended for the paper's workloads
/// (hundreds of objects, a handful of cores) while costing next to nothing
/// for single-object tests.
pub(crate) const DEFAULT_ENGINE_SHARDS: usize = 16;

/// The home-epoch stride of a re-election fence: an elected home's epoch
/// is the highest observed epoch plus this stride, so it strictly exceeds
/// any epoch the deposed home could have issued through ordinary
/// migrations while unreachable (each of those bumps the epoch by one).
/// See the *Fault model & recovery* section of the module docs.
pub(crate) const ELECTION_EPOCH_STRIDE: u32 = 1 << 16;

/// Migration state shipped from the old home to the new home inside the
/// object reply that performs the migration.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationGrant {
    /// The per-object migration bookkeeping to install at the new home
    /// (threshold carried over, per-epoch counters reset).
    pub state: MigrationState,
}

impl MigrationGrant {
    /// The home epoch the grantee becomes home at.
    pub fn epoch(&self) -> u32 {
        self.state.migrations
    }
}

/// What the application side must do to complete an access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessPlan {
    /// The access can be served from a valid local copy.
    LocalHit,
    /// The object must be faulted in from (what this node believes is) its
    /// home before the access can proceed.
    Fetch {
        /// The believed home node.
        target: NodeId,
    },
}

/// One diff that must be propagated to a home at release time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlushPlan {
    /// The object.
    pub obj: ObjectId,
    /// The believed home node.
    pub target: NodeId,
    /// The diff to send.
    pub diff: Diff,
}

/// All of one interval's flush plans aimed at the same (believed) home,
/// ready to travel as a single `DiffBatch` message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlushBatch {
    /// The believed home node all entries share.
    pub target: NodeId,
    /// The grouped plans, ordered by object id.
    pub entries: Vec<FlushPlan>,
}

/// Group release-time flush plans by their (believed) home node, so each
/// group can be shipped as one `DiffBatch` instead of one `DiffFlush` per
/// object — an interval that wrote k objects homed on the same node then
/// pays one per-message start-up time instead of k.
///
/// The grouping is deterministic: batches are ordered by target node and the
/// entries within a batch by object id, so experiments are reproducible
/// regardless of hash-map iteration order upstream.
pub fn group_flush_plans(plans: Vec<FlushPlan>) -> Vec<FlushBatch> {
    let mut by_target: std::collections::BTreeMap<NodeId, Vec<FlushPlan>> =
        std::collections::BTreeMap::new();
    for plan in plans {
        by_target.entry(plan.target).or_default().push(plan);
    }
    by_target
        .into_iter()
        .map(|(target, mut entries)| {
            entries.sort_by_key(|p| p.obj);
            FlushBatch { target, entries }
        })
        .collect()
}

/// Home-side outcome of an object fault-in request.
#[derive(Debug, Clone, PartialEq)]
pub enum ObjectRequestOutcome {
    /// This node is the home: reply with the data (and possibly migrate).
    Reply {
        /// Object payload.
        data: Vec<u8>,
        /// Version of the home copy.
        version: Version,
        /// Present when the home migrates to the requester with this reply.
        migration: Option<MigrationGrant>,
        /// Nodes that must be sent a `HomeNotify` (broadcast / home-manager
        /// notification mechanisms; empty for forwarding pointers).
        notify: Vec<NodeId>,
    },
    /// This node is not (any longer) the home: redirect the requester.
    Redirect {
        /// Where the requester should try next.
        hint: NodeId,
        /// The home epoch this node believes `hint` became home at (0 when
        /// the hint is only a routing pointer, e.g. to the manager).
        epoch: u32,
    },
    /// The home copy is currently leased to an application view; the caller
    /// must retry the request later (server-side deferral, never blocking).
    Busy,
}

/// Home-side outcome of a diff propagation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffOutcome {
    /// The diff was applied to the home copy.
    Applied {
        /// The home copy's version after application.
        new_version: Version,
    },
    /// This node is not (any longer) the home: the writer must retry at the
    /// hinted node.
    Redirect {
        /// Where the writer should try next.
        hint: NodeId,
        /// The believed home epoch of `hint` (0 for routing-only hints).
        epoch: u32,
    },
    /// The home copy is currently leased to an application view; the caller
    /// must retry later.
    Busy,
}

/// The per-node protocol engine: a facade over `N` lock-striped object
/// shards plus one node-global lock. See the module documentation.
#[derive(Debug)]
pub struct ProtocolEngine {
    node: NodeId,
    num_nodes: usize,
    config: ProtocolConfig,
    registry: Arc<ObjectRegistry>,
    shards: Box<[Mutex<EngineShard>]>,
    globals: Mutex<NodeGlobals>,
    /// Arbiter-side election book: the elected `(home, epoch)` per object.
    /// Sticky so concurrent candidates converge on one winner; re-election
    /// is allowed only when the previously elected home is itself the new
    /// suspect. A leaf lock like the shards, never nested with them.
    elections: Mutex<HashMap<ObjectId, (NodeId, u32)>>,
}

impl ProtocolEngine {
    /// Create the engine for `node` in a cluster of `num_nodes` nodes, with
    /// the default shard count (`DEFAULT_ENGINE_SHARDS`).
    ///
    /// Home copies (zero-filled) are created for every registered object
    /// whose initial home is this node.
    pub fn new(
        node: NodeId,
        num_nodes: usize,
        config: ProtocolConfig,
        registry: Arc<ObjectRegistry>,
    ) -> Self {
        Self::with_shards(node, num_nodes, config, registry, DEFAULT_ENGINE_SHARDS)
    }

    /// Create the engine with an explicit shard count (rounded up to the
    /// next power of two; at least one).
    pub(crate) fn with_shards(
        node: NodeId,
        num_nodes: usize,
        config: ProtocolConfig,
        registry: Arc<ObjectRegistry>,
        shards: usize,
    ) -> Self {
        assert!(num_nodes > 0, "cluster must have at least one node");
        assert!(
            node.index() < num_nodes,
            "node {node} outside cluster of {num_nodes}"
        );
        let count = shards.max(1).next_power_of_two();
        let shards: Box<[Mutex<EngineShard>]> = (0..count)
            .map(|index| {
                Mutex::new(EngineShard::new(
                    node,
                    num_nodes,
                    config.clone(),
                    Arc::clone(&registry),
                    |obj| shard_index(obj, count) == index,
                ))
            })
            .collect();
        ProtocolEngine {
            node,
            num_nodes,
            config,
            registry,
            shards,
            globals: Mutex::new(NodeGlobals::new(num_nodes)),
            elections: Mutex::new(HashMap::new()),
        }
    }

    /// The shard guarding `obj`'s per-object state.
    fn shard(&self, obj: ObjectId) -> MutexGuard<'_, EngineShard> {
        self.shards[shard_index(obj, self.shards.len())].lock()
    }

    /// The node this engine belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Number of nodes in the cluster.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The protocol configuration.
    pub fn config(&self) -> &ProtocolConfig {
        &self.config
    }

    /// The shared object registry.
    pub fn registry(&self) -> &Arc<ObjectRegistry> {
        &self.registry
    }

    /// Number of lock stripes in this engine.
    #[cfg(test)]
    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `obj`'s state lives in (stable for the lifetime of
    /// the engine; exposed for tests that reason about stripe contention).
    #[cfg(test)]
    fn shard_of(&self, obj: ObjectId) -> usize {
        shard_index(obj, self.shards.len())
    }

    /// Protocol statistics accumulated so far, aggregated across shards and
    /// the node-global state.
    pub fn stats(&self) -> ProtocolStats {
        let mut total = ProtocolStats::default();
        for shard in self.shards.iter() {
            total.merge(&shard.lock().stats);
        }
        let globals = self.globals.lock();
        total.lock_acquires += globals.lock_acquires;
        total.barriers += globals.barriers_crossed;
        total.batched_flushes += globals.batched_flushes;
        total.batch_entries += globals.batch_entries;
        total
    }

    /// Whether this node currently is the home of `obj`.
    pub fn is_home(&self, obj: ObjectId) -> bool {
        self.shard(obj).is_home(obj)
    }

    /// The node this engine currently believes to be the home of `obj`.
    pub fn home_hint(&self, obj: ObjectId) -> NodeId {
        self.shard(obj).home_hint(obj)
    }

    /// The home epoch this node believes `obj`'s current home is at (its
    /// own epoch when it is the home, 0 when it only knows the initial
    /// assignment).
    pub fn home_epoch(&self, obj: ObjectId) -> u32 {
        self.shard(obj).home_epoch(obj)
    }

    /// The manager node of `obj` under the home-manager notification
    /// mechanism: its well-known initial home.
    pub fn manager_of(&self, obj: ObjectId) -> NodeId {
        self.registry.expect(obj).initial_home(self.num_nodes)
    }

    /// Seed the home copy of `obj` with deterministic initial contents.
    /// Called on every node for every object during application start-up;
    /// only the object's initial home stores the data (no messages — every
    /// node can compute the same initial contents, exactly like every JVM
    /// node executing the same allocation code), so the size is checked
    /// everywhere but the payload is built only at the home.
    ///
    /// # Panics
    /// Panics if the payload size does not match the registered descriptor,
    /// or if the object has already been written through the protocol.
    pub fn bootstrap_object<T: Element>(&self, obj: ObjectId, values: &[T]) {
        self.shard(obj).bootstrap_object(obj, values);
    }

    // ------------------------------------------------------------------
    // Application side
    // ------------------------------------------------------------------

    /// Open a new interval: called when the application thread's lock
    /// acquire is granted or its barrier releases.
    ///
    /// Under the Java-consistency flavour of LRC used by the paper's GOS,
    /// the node conservatively invalidates its cached non-home copies (its
    /// own unflushed writes are preserved) and re-arms the home-access traps
    /// so the first home read/write of the interval is observable. Walks the
    /// shards one at a time (one leaf lock held at any instant).
    pub fn begin_interval(&self) {
        for shard in self.shards.iter() {
            shard.lock().begin_interval();
        }
    }

    /// Plan a read of `obj` by the local application thread.
    pub fn plan_read(&self, obj: ObjectId) -> AccessPlan {
        self.shard(obj).plan_read(obj)
    }

    /// Plan a write of `obj` by the local application thread.
    pub fn plan_write(&self, obj: ObjectId) -> AccessPlan {
        self.shard(obj).plan_write(obj)
    }

    /// Lease the payload store of a locally *readable* copy of `obj` — the
    /// zero-copy read path. Callers must first obtain
    /// [`AccessPlan::LocalHit`] from [`Self::plan_read`]; the returned store
    /// is then read-locked by the runtime's `ReadView` without holding any
    /// engine lock. Single-threaded callers only — concurrent runtimes must
    /// use [`Self::try_lease_read`], which cannot race a migration.
    ///
    /// # Panics
    /// Panics if the object is not locally readable.
    #[cfg(test)]
    fn lease_read(&self, obj: ObjectId) -> ObjectStore {
        self.shard(obj).lease_read(obj)
    }

    /// Lease the payload store of a locally *writable* copy of `obj` — the
    /// zero-copy write path. Callers must first obtain
    /// [`AccessPlan::LocalHit`] from [`Self::plan_write`]; the twin (for
    /// cached copies) was captured by that plan, so the diff bookkeeping is
    /// already armed and the store can be write-locked directly.
    /// Single-threaded callers only — concurrent runtimes must use
    /// [`Self::try_lease_write`].
    ///
    /// # Panics
    /// Panics if the object is not locally writable.
    pub(crate) fn lease_write(&self, obj: ObjectId) -> ObjectStore {
        self.shard(obj).lease_write(obj)
    }

    /// Atomically re-validate readability and take the payload *read guard*
    /// under the shard lock. Returns `None` when the local copy is no longer
    /// readable — e.g. the server thread migrated the home away between the
    /// caller's [`Self::plan_read`] and this lease — in which case the
    /// caller must re-plan (and possibly fault the object back in).
    pub fn try_lease_read(&self, obj: ObjectId) -> Option<RwReadGuard<ObjectData>> {
        self.shard(obj).try_lease_read(obj)
    }

    /// Atomically re-validate writability and take the payload *write
    /// guard* under the shard lock. Returns `None` when the local copy is no
    /// longer writable — the caller must re-plan, which re-arms the
    /// twin/diff bookkeeping before the next attempt.
    pub fn try_lease_write(&self, obj: ObjectId) -> Option<RwWriteGuard<ObjectData>> {
        self.shard(obj).try_lease_write(obj)
    }

    /// Read access to a locally valid copy of `obj` through a closure
    /// (convenience over [`Self::lease_read`] for tests).
    ///
    /// # Panics
    /// As [`Self::lease_read`].
    #[cfg(test)]
    fn with_object<R>(&self, obj: ObjectId, f: impl FnOnce(&ObjectData) -> R) -> R {
        let store = self.lease_read(obj);
        let guard = store.read();
        f(&guard)
    }

    /// Write access to a locally writable copy of `obj` through a closure.
    ///
    /// # Panics
    /// Panics if the object is not locally writable.
    pub fn with_object_mut<R>(&self, obj: ObjectId, f: impl FnOnce(&mut ObjectData) -> R) -> R {
        let store = self.lease_write(obj);
        let mut guard = store.write();
        f(&mut guard)
    }

    /// Install the payload of a completed fault-in. If `migration` is
    /// present the home has migrated to this node and the payload becomes
    /// the home copy.
    pub fn install_object(
        &self,
        obj: ObjectId,
        data: Vec<u8>,
        version: Version,
        migration: Option<MigrationGrant>,
    ) {
        self.shard(obj)
            .install_object(obj, data, version, migration);
    }

    /// Record that a fault-in or flush issued by this node was redirected,
    /// with the redirector claiming `new_home` became home at `epoch`.
    ///
    /// The hint is only adopted when it is strictly newer than this node's
    /// own belief and does not point at this node itself — stale backward
    /// hints must never overwrite a correct forward pointer (they would
    /// create redirect cycles). Returns whether the hint was adopted.
    pub fn note_redirect(&self, obj: ObjectId, new_home: NodeId, epoch: u32) -> bool {
        self.shard(obj).note_redirect(obj, new_home, epoch)
    }

    /// Compute the diffs that must be propagated to remote homes before the
    /// current interval can release. Objects whose writes turn out to be
    /// no-ops are cleaned up immediately and produce no flush.
    pub fn prepare_release(&self) -> Vec<FlushPlan> {
        let mut plans = Vec::new();
        for shard in self.shards.iter() {
            shard.lock().prepare_release(&mut plans);
        }
        // Deterministic flush order (object id) so experiments are
        // reproducible regardless of hash-map iteration order.
        plans.sort_by_key(|p| p.obj);
        plans
    }

    /// Record the acknowledgement of one flushed diff.
    pub fn complete_flush(&self, obj: ObjectId, new_version: Version) {
        self.shard(obj).complete_flush(obj, new_version);
    }

    /// Close the current interval after all flushes are acknowledged:
    /// home-copy versions advance for locally written objects and write
    /// permission is dropped everywhere so the next interval's first write
    /// is trapped again.
    ///
    /// # Panics
    /// Panics if some flushed diff was never acknowledged (runtime bug).
    pub fn finish_release(&self) {
        for shard in self.shards.iter() {
            shard.lock().finish_release();
        }
    }

    // ------------------------------------------------------------------
    // Server side
    // ------------------------------------------------------------------

    /// Handle an object fault-in request arriving from `requester`.
    ///
    /// Returns [`ObjectRequestOutcome::Busy`] — without consuming the
    /// request — when the home copy is leased to a live application view;
    /// the server defers and retries.
    pub fn handle_object_request(
        &self,
        obj: ObjectId,
        requester: NodeId,
        for_write: bool,
        redirections: u32,
    ) -> ObjectRequestOutcome {
        self.shard(obj)
            .handle_object_request(obj, requester, for_write, redirections)
    }

    /// Handle a diff arriving from `from`.
    ///
    /// Returns [`DiffOutcome::Busy`] — without consuming the diff — when the
    /// home copy is leased to a live application view.
    pub fn handle_diff(
        &self,
        obj: ObjectId,
        diff: &Diff,
        from: NodeId,
        redirections: u32,
    ) -> DiffOutcome {
        self.shard(obj).handle_diff(obj, diff, from, redirections)
    }

    /// Handle a new-home notification (broadcast or home-manager
    /// mechanisms): adopt the announced home if it is newer than the local
    /// belief.
    pub fn handle_home_notify(&self, obj: ObjectId, new_home: NodeId, epoch: u32) {
        self.shard(obj).handle_home_notify(obj, new_home, epoch);
    }

    /// Answer a home-manager lookup: where does this node believe the home
    /// of `obj` is?
    pub fn handle_home_lookup(&self, obj: ObjectId) -> NodeId {
        self.home_hint(obj)
    }

    /// Whether this node holds *any* local copy of `obj` (home or cached) —
    /// what makes it a promotable election candidate.
    pub fn has_copy(&self, obj: ObjectId) -> bool {
        self.shard(obj).has_copy(obj)
    }

    /// Arbiter side of a home re-election: `candidate` reports that
    /// `suspect` (its believed home of `obj`, at `candidate_epoch`) is
    /// unreachable. Returns the elected `(home, epoch)`, or
    /// `(suspect, 0)` as the refusal encoding when no reachable node holds
    /// a copy to promote.
    ///
    /// The decision is *sticky*: once an election for `obj` picked a
    /// winner, every later request returns the same answer, unless the
    /// previously elected home is itself the new suspect (cascaded
    /// failure), in which case a fresh election runs at a higher epoch.
    /// Stickiness is what makes the unreliable, undeduplicated
    /// `HomeElect` exchange idempotent.
    pub fn handle_home_elect(
        &self,
        obj: ObjectId,
        suspect: NodeId,
        candidate: NodeId,
        candidate_epoch: u32,
        candidate_has_copy: bool,
    ) -> (NodeId, u32) {
        // Leaf-lock discipline: observe the shard, release, then decide
        // under the election lock — never both at once.
        let (is_home, own_epoch, own_copy) = {
            let shard = self.shard(obj);
            (
                shard.is_home(obj),
                shard.home_epoch(obj),
                shard.has_copy(obj),
            )
        };
        if is_home {
            // The candidate's belief is simply stale: this node already is
            // a live home — point the candidate here, no election needed.
            return (self.node, own_epoch);
        }
        let elected = {
            let mut elections = self.elections.lock();
            let prior = elections.get(&obj).copied();
            if let Some((winner, epoch)) = prior {
                if winner != suspect {
                    return (winner, epoch);
                }
            }
            let winner = if candidate_has_copy && candidate != suspect {
                Some(candidate)
            } else if own_copy && self.node != suspect {
                Some(self.node)
            } else {
                None
            };
            winner.map(|winner| {
                let base = candidate_epoch
                    .max(own_epoch)
                    .max(prior.map_or(0, |(_, e)| e));
                let epoch = base.saturating_add(ELECTION_EPOCH_STRIDE);
                elections.insert(obj, (winner, epoch));
                (winner, epoch)
            })
        };
        let Some((winner, epoch)) = elected else {
            return (suspect, 0);
        };
        self.shard(obj).stats.elections += 1;
        // Adopt (or, if this node won, promote to) the elected home so the
        // arbiter's own redirects point at the winner immediately.
        self.install_elected_home(obj, winner, epoch);
        (winner, epoch)
    }

    /// Install the outcome of a home re-election on this node: promote the
    /// local copy when this node is the winner, otherwise adopt the fenced
    /// belief. Returns false only when this node won but holds no copy to
    /// promote (an arbiter bug — elections only pick copy holders).
    pub fn install_elected_home(&self, obj: ObjectId, home: NodeId, epoch: u32) -> bool {
        if home == self.node {
            self.shard(obj).promote_to_home(obj, epoch)
        } else {
            self.handle_home_notify(obj, home, epoch);
            true
        }
    }

    // ------------------------------------------------------------------
    // Synchronization managers (only meaningful on the manager node)
    // ------------------------------------------------------------------

    /// Manager-side lock acquire.
    pub fn lock_acquire(&self, lock: LockId, requester: NodeId, req: ReqId) -> LockAcquireOutcome {
        self.globals.lock().lock_acquire(lock, requester, req)
    }

    /// Manager-side lock release.
    pub fn lock_release(&self, lock: LockId, holder: NodeId) -> LockReleaseOutcome {
        self.globals.lock().lock_release(lock, holder)
    }

    /// Manager-side barrier arrival.
    pub fn barrier_arrive(&self, barrier: BarrierId, node: NodeId, req: ReqId) -> BarrierOutcome {
        self.globals.lock().barrier_arrive(barrier, node, req)
    }

    /// Record one application-level lock acquisition (for reporting).
    pub fn note_lock_acquire(&self) {
        self.globals.lock().lock_acquires += 1;
    }

    /// Record one application-level barrier crossing (for reporting).
    pub fn note_barrier(&self) {
        self.globals.lock().barriers_crossed += 1;
    }

    /// Record that `entries` release-time flushes were shipped as one
    /// `DiffBatch` message (for the `batched_flushes` / `batch_entries`
    /// statistics).
    pub fn note_diff_batch(&self, entries: usize) {
        let mut globals = self.globals.lock();
        globals.batched_flushes += 1;
        globals.batch_entries += entries as u64;
    }

    // ------------------------------------------------------------------
    // Introspection for tests and invariant checks
    // ------------------------------------------------------------------

    /// Objects currently homed at this node (sorted, for deterministic
    /// tests).
    #[cfg(test)]
    fn homed_objects(&self) -> Vec<ObjectId> {
        let mut v = Vec::new();
        for shard in self.shards.iter() {
            shard.lock().homed_objects(&mut v);
        }
        v.sort();
        v
    }

    /// A snapshot of the migration bookkeeping of an object homed here, if
    /// any.
    pub fn migration_state(&self, obj: ObjectId) -> Option<MigrationState> {
        self.shard(obj).migration_state(obj)
    }

    /// The current version of the home copy of `obj`, if homed here.
    #[cfg(test)]
    fn home_version(&self, obj: ObjectId) -> Option<Version> {
        self.shard(obj).home_version(obj)
    }

    /// Snapshot of a home copy's bytes (tests and invariant checks).
    pub fn home_bytes(&self, obj: ObjectId) -> Option<Vec<u8>> {
        self.shard(obj).home_bytes(obj)
    }
}

/// The lock stripe an object maps to: fold the high half of the (already
/// FNV-mixed) id into the low half and mask. `count` must be a power of two.
fn shard_index(obj: ObjectId, count: usize) -> usize {
    debug_assert!(count.is_power_of_two());
    let h = obj.raw();
    ((h ^ (h >> 32)) as usize) & (count - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NotificationMechanism;
    use crate::policy::MigrateOnRequestPolicy;
    use dsm_objspace::HomeAssignment;

    const N: usize = 3;

    /// Build a registry with a single 64-byte object "x" homed (initially)
    /// on node 0, plus a second object "y" homed on node 1.
    fn registry() -> Arc<ObjectRegistry> {
        let mut r = ObjectRegistry::new();
        r.register_named("x", 0, 64, NodeId(0), HomeAssignment::CreationNode);
        r.register_named("y", 0, 64, NodeId(1), HomeAssignment::CreationNode);
        Arc::new(r)
    }

    fn engines(config: ProtocolConfig) -> Vec<ProtocolEngine> {
        let reg = registry();
        (0..N)
            .map(|i| ProtocolEngine::new(NodeId::from(i), N, config.clone(), Arc::clone(&reg)))
            .collect()
    }

    fn obj_x() -> ObjectId {
        ObjectId::derive("x", 0)
    }

    /// Drive one "remote write interval" of `writer` against the cluster:
    /// fault-in from whoever is home, write a byte, flush the diff. Returns
    /// the number of redirection hops experienced.
    fn remote_write_interval(engines: &[ProtocolEngine], writer: usize, value: u8) -> u32 {
        let obj = obj_x();
        engines[writer].begin_interval();
        let mut hops = 0;
        // Fault-in (write fault).
        if let AccessPlan::Fetch { mut target } = engines[writer].plan_write(obj) {
            loop {
                let requester = engines[writer].node();
                match engines[target.index()].handle_object_request(obj, requester, true, hops) {
                    ObjectRequestOutcome::Reply {
                        data,
                        version,
                        migration,
                        ..
                    } => {
                        engines[writer].install_object(obj, data, version, migration);
                        break;
                    }
                    ObjectRequestOutcome::Redirect { hint, epoch } => {
                        engines[writer].note_redirect(obj, hint, epoch);
                        hops += 1;
                        assert!(
                            hops <= engines.len() as u32 + 2,
                            "redirection chain for {obj} did not converge"
                        );
                        target = hint;
                    }
                    ObjectRequestOutcome::Busy => {
                        unreachable!("no views are live in single-threaded tests")
                    }
                }
            }
            // Retry the write plan now that the copy is present.
            assert_eq!(engines[writer].plan_write(obj), AccessPlan::LocalHit);
        }
        engines[writer].with_object_mut(obj, |d| d.bytes_mut()[0] = value);
        // Release: flush diffs (if the writer is now home there are none).
        let plans = engines[writer].prepare_release();
        for plan in plans {
            let mut target = plan.target;
            let mut flush_hops = 0;
            loop {
                let from = engines[writer].node();
                match engines[target.index()].handle_diff(plan.obj, &plan.diff, from, flush_hops) {
                    DiffOutcome::Applied { new_version } => {
                        engines[writer].complete_flush(plan.obj, new_version);
                        break;
                    }
                    DiffOutcome::Redirect { hint, epoch } => {
                        engines[writer].note_redirect(plan.obj, hint, epoch);
                        flush_hops += 1;
                        hops += 1;
                        assert!(
                            flush_hops <= engines.len() as u32 + 2,
                            "diff redirection chain for {} did not converge",
                            plan.obj
                        );
                        target = hint;
                    }
                    DiffOutcome::Busy => {
                        unreachable!("no views are live in single-threaded tests")
                    }
                }
            }
        }
        engines[writer].finish_release();
        hops
    }

    #[test]
    fn initial_homes_follow_registry() {
        let engines = engines(ProtocolConfig::no_migration());
        assert!(engines[0].is_home(obj_x()));
        assert!(!engines[1].is_home(obj_x()));
        assert_eq!(engines[1].home_hint(obj_x()), NodeId(0));
        assert_eq!(engines[0].homed_objects(), vec![obj_x()]);
        assert_eq!(engines[1].home_epoch(obj_x()), 0);
    }

    #[test]
    fn local_home_access_never_needs_fetch() {
        let engines = engines(ProtocolConfig::no_migration());
        let obj = obj_x();
        engines[0].begin_interval();
        assert_eq!(engines[0].plan_read(obj), AccessPlan::LocalHit);
        assert_eq!(engines[0].plan_write(obj), AccessPlan::LocalHit);
        engines[0].with_object_mut(obj, |d| d.bytes_mut()[0] = 7);
        assert!(engines[0].prepare_release().is_empty());
        engines[0].finish_release();
        assert_eq!(engines[0].stats().home_reads, 1);
        assert_eq!(engines[0].stats().home_writes, 1);
        assert_eq!(engines[0].stats().fault_ins, 0);
        assert_eq!(engines[0].home_version(obj), Some(Version(1)));
    }

    #[test]
    fn leases_expose_engine_storage() {
        let engines = engines(ProtocolConfig::no_migration());
        let obj = obj_x();
        engines[0].begin_interval();
        assert_eq!(engines[0].plan_write(obj), AccessPlan::LocalHit);
        {
            let store = engines[0].lease_write(obj);
            store.write().bytes_mut()[0] = 42;
        }
        // The write went straight into the home copy, no copy-back needed.
        assert_eq!(engines[0].home_bytes(obj).unwrap()[0], 42);
        let store = engines[0].lease_read(obj);
        assert_eq!(store.read().bytes()[0], 42);
    }

    #[test]
    fn checked_leases_validate_state_under_the_shard_lock() {
        let engines = engines(ProtocolConfig::no_migration());
        let obj = obj_x();
        engines[0].begin_interval();
        // No write plan yet: the checked write lease refuses.
        assert!(engines[0].try_lease_write(obj).is_none());
        assert_eq!(engines[0].plan_write(obj), AccessPlan::LocalHit);
        {
            let mut guard = engines[0]
                .try_lease_write(obj)
                .expect("writable after plan");
            guard.bytes_mut()[0] = 9;
        }
        // Home copies are always readable through the checked read lease.
        let guard = engines[0].try_lease_read(obj).expect("home copy readable");
        assert_eq!(guard.bytes()[0], 9);
        // A node with no copy at all gets `None`, not a panic.
        assert!(engines[1].try_lease_read(obj).is_none());
        assert!(engines[1].try_lease_write(obj).is_none());
    }

    #[test]
    fn busy_home_copy_defers_requests_and_diffs() {
        let engines = engines(ProtocolConfig::no_migration());
        let obj = obj_x();
        engines[0].begin_interval();
        assert_eq!(engines[0].plan_write(obj), AccessPlan::LocalHit);
        let store = engines[0].lease_write(obj);
        let guard = store.write();
        // A write lease blocks both server-side payload operations ...
        assert_eq!(
            engines[0].handle_object_request(obj, NodeId(1), false, 0),
            ObjectRequestOutcome::Busy
        );
        let diff = Diff::full(&[1u8; 64]);
        assert_eq!(
            engines[0].handle_diff(obj, &diff, NodeId(1), 0),
            DiffOutcome::Busy
        );
        drop(guard);
        // ... and the retries succeed once the view drops.
        assert!(matches!(
            engines[0].handle_object_request(obj, NodeId(1), false, 0),
            ObjectRequestOutcome::Reply { .. }
        ));
        assert!(matches!(
            engines[0].handle_diff(obj, &diff, NodeId(1), 0),
            DiffOutcome::Applied { .. }
        ));
    }

    #[test]
    fn remote_write_faults_in_and_flushes_diff() {
        let e = engines(ProtocolConfig::no_migration());
        let obj = obj_x();
        let hops = remote_write_interval(&e, 1, 42);
        assert_eq!(hops, 0);
        assert_eq!(e[1].stats().fault_ins, 1);
        assert_eq!(e[1].stats().diffs_sent, 1);
        assert_eq!(e[0].stats().requests_served, 1);
        assert_eq!(e[0].stats().diffs_applied, 1);
        // The home copy reflects the remote write.
        assert_eq!(e[0].home_bytes(obj).unwrap()[0], 42);
        assert_eq!(e[0].home_version(obj), Some(Version(1)));
        // No migration under the NoHM policy.
        assert!(e[0].is_home(obj));
        assert_eq!(e[0].stats().migrations_out, 0);
    }

    #[test]
    fn no_migration_policy_keeps_paying_remote_access() {
        let e = engines(ProtocolConfig::no_migration());
        for i in 0..10 {
            // Write values 1..=10 so every interval really changes the object
            // (writing 0 over the zero-initialised object would be a no-op
            // interval with no diff to flush).
            remote_write_interval(&e, 1, i + 1);
        }
        assert!(e[0].is_home(obj_x()));
        assert_eq!(e[1].stats().fault_ins, 10);
        assert_eq!(e[1].stats().diffs_sent, 10);
    }

    #[test]
    fn adaptive_policy_migrates_to_single_writer() {
        let e = engines(ProtocolConfig::adaptive());
        let obj = obj_x();
        // Interval 1: node 1 writes; home still node 0 (C becomes 1).
        remote_write_interval(&e, 1, 1);
        assert!(e[0].is_home(obj));
        // Interval 2: node 1 faults again; with T=1 and C=1 the home migrates
        // together with the reply.
        remote_write_interval(&e, 1, 2);
        assert!(
            e[1].is_home(obj),
            "home should have migrated to the single writer"
        );
        assert!(!e[0].is_home(obj));
        assert_eq!(e[0].stats().migrations_out, 1);
        assert_eq!(e[1].stats().migrations_in, 1);
        // The epoch advanced with the migration, on both ends.
        assert_eq!(e[1].home_epoch(obj), 1);
        assert_eq!(e[0].home_epoch(obj), 1);
        assert_eq!(e[0].home_hint(obj), NodeId(1));
        // Interval 3+: accesses are purely local for node 1.
        let before = e[1].stats().fault_ins;
        remote_write_interval(&e, 1, 3);
        assert_eq!(
            e[1].stats().fault_ins,
            before,
            "no further fault-ins after migration"
        );
        assert_eq!(e[1].home_bytes(obj).unwrap()[0], 3);
    }

    #[test]
    fn fixed_threshold_two_migrates_one_interval_later_than_adaptive() {
        let adaptive = engines(ProtocolConfig::adaptive());
        let ft2 = engines(ProtocolConfig::fixed_threshold(2));
        remote_write_interval(&adaptive, 1, 1);
        remote_write_interval(&ft2, 1, 1);
        remote_write_interval(&adaptive, 1, 2);
        remote_write_interval(&ft2, 1, 2);
        assert!(adaptive[1].is_home(obj_x()), "AT migrates at the 2nd fault");
        assert!(
            !ft2[1].is_home(obj_x()),
            "FT2 needs C=2 before the next fault"
        );
        remote_write_interval(&ft2, 1, 3);
        assert!(ft2[1].is_home(obj_x()), "FT2 migrates once C reaches 2");
    }

    #[test]
    fn redirection_chain_resolves_and_counts() {
        // Move the home from 0 to 1, then have node 2 request it while still
        // believing node 0 is the home: node 0 redirects (1 hop), node 1
        // serves the request and records the redirection as feedback.
        let e = engines(ProtocolConfig::adaptive());
        let obj = obj_x();
        remote_write_interval(&e, 1, 1);
        remote_write_interval(&e, 1, 2);
        assert!(e[1].is_home(obj));

        e[2].begin_interval();
        assert_eq!(
            e[2].plan_read(obj),
            AccessPlan::Fetch { target: NodeId(0) },
            "node 2 still believes the initial home"
        );
        let mut hops = 0;
        let mut target = NodeId(0);
        loop {
            match e[target.index()].handle_object_request(obj, NodeId(2), false, hops) {
                ObjectRequestOutcome::Reply {
                    data,
                    version,
                    migration,
                    ..
                } => {
                    assert!(migration.is_none(), "a reader must not steal the home");
                    e[2].install_object(obj, data, version, migration);
                    break;
                }
                ObjectRequestOutcome::Redirect { hint, epoch } => {
                    e[2].note_redirect(obj, hint, epoch);
                    hops += 1;
                    target = hint;
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert_eq!(hops, 1);
        assert_eq!(e[0].stats().redirections_served, 1);
        assert_eq!(e[2].stats().redirections_suffered, 1);
        assert_eq!(e[2].home_hint(obj), NodeId(1), "the fresh hint was adopted");
        assert_eq!(e[2].plan_read(obj), AccessPlan::LocalHit);
        e[2].with_object(obj, |d| assert_eq!(d.bytes()[0], 2));
        // The redirection became negative feedback at the current home.
        assert_eq!(e[1].migration_state(obj).unwrap().redirected_requests, 1);
    }

    #[test]
    fn stale_hints_are_not_adopted() {
        let e = engines(ProtocolConfig::adaptive());
        let obj = obj_x();
        // Home migrates 0 -> 1 (epoch 1); node 1's belief points at itself.
        remote_write_interval(&e, 1, 1);
        remote_write_interval(&e, 1, 2);
        assert!(e[1].is_home(obj));
        // A stale hint claiming node 0 (epoch 0) must not regress node 2's
        // belief once it has adopted epoch 1, and a self-hint must never be
        // adopted at all.
        assert!(e[2].note_redirect(obj, NodeId(1), 1), "fresh hint adopted");
        assert_eq!(e[2].home_hint(obj), NodeId(1));
        assert!(
            !e[2].note_redirect(obj, NodeId(0), 0),
            "stale hint rejected"
        );
        assert_eq!(e[2].home_hint(obj), NodeId(1));
        assert!(!e[2].note_redirect(obj, NodeId(2), 5), "self hint rejected");
        assert_eq!(e[2].home_hint(obj), NodeId(1));
    }

    #[test]
    fn alternating_writers_with_adaptive_threshold_migrate_less_than_ft1() {
        // Transient single-writer pattern: writers 1 and 2 take turns in
        // bursts of two intervals. FT1 migrates on every burst; AT observes
        // the redirection feedback and is at most as eager, never more.
        let at = engines(ProtocolConfig::adaptive());
        let ft1 = engines(ProtocolConfig::fixed_threshold(1));
        for round in 0..16 {
            let writer = 1 + ((round / 2) % 2);
            remote_write_interval(&at, writer, round as u8);
            remote_write_interval(&ft1, writer, round as u8);
        }
        let at_migrations: u64 = at.iter().map(|e| e.stats().migrations_out).sum();
        let ft1_migrations: u64 = ft1.iter().map(|e| e.stats().migrations_out).sum();
        assert!(
            ft1_migrations >= 4,
            "FT1 should keep migrating under the alternating-burst pattern, got {ft1_migrations}"
        );
        assert!(
            at_migrations <= ft1_migrations,
            "AT ({at_migrations}) must not migrate more than FT1 ({ft1_migrations})"
        );
        // And the redirection traffic follows the same ordering.
        let at_redirs: u64 = at.iter().map(|e| e.stats().redirections_served).sum();
        let ft1_redirs: u64 = ft1.iter().map(|e| e.stats().redirections_served).sum();
        assert!(at_redirs <= ft1_redirs);
    }

    #[test]
    fn jump_policy_migrates_on_every_write_fault() {
        let cfg = ProtocolConfig::no_migration().with_migration(MigrateOnRequestPolicy);
        let e = engines(cfg);
        remote_write_interval(&e, 1, 1);
        assert!(
            e[1].is_home(obj_x()),
            "JUMP migrates on the very first write fault"
        );
        remote_write_interval(&e, 2, 2);
        assert!(
            e[2].is_home(obj_x()),
            "JUMP migrates again to the next writer"
        );
        // Epochs advanced monotonically along the migrations.
        assert_eq!(e[2].home_epoch(obj_x()), 2);
    }

    #[test]
    fn migration_preserves_data_and_versions() {
        let e = engines(ProtocolConfig::adaptive());
        let obj = obj_x();
        remote_write_interval(&e, 1, 11);
        remote_write_interval(&e, 1, 22);
        assert!(e[1].is_home(obj));
        // Version history: one diff applied at the old home (v1); the data
        // with value 22 was written locally at the new home after migration.
        assert_eq!(e[1].home_bytes(obj).unwrap()[0], 22);
        assert!(e[1].home_version(obj).unwrap() >= Version(1));
        // Exactly one node considers itself home.
        let home_count = e.iter().filter(|eng| eng.is_home(obj)).count();
        assert_eq!(home_count, 1);
    }

    #[test]
    fn bootstrap_seeds_only_the_home() {
        let e = engines(ProtocolConfig::no_migration());
        let obj = obj_x();
        for eng in e.iter() {
            eng.bootstrap_object(obj, &[9u8; 64]);
        }
        assert_eq!(e[0].home_bytes(obj).unwrap(), vec![9u8; 64]);
        assert!(e[1].home_bytes(obj).is_none());
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn bootstrap_rejects_wrong_size() {
        let e = engines(ProtocolConfig::no_migration());
        e[0].bootstrap_object(obj_x(), &[0u8; 8]);
    }

    #[test]
    #[should_panic(expected = "without a write plan")]
    fn writing_without_plan_panics() {
        let e = engines(ProtocolConfig::no_migration());
        // plan_read only gives read permission at the home.
        e[0].begin_interval();
        let _ = e[0].plan_read(obj_x());
        e[0].with_object_mut(obj_x(), |d| d.bytes_mut()[0] = 1);
    }

    #[test]
    fn broadcast_notification_lists_all_other_nodes() {
        let cfg = ProtocolConfig::adaptive().with_notification(NotificationMechanism::Broadcast);
        let e = engines(cfg);
        let obj = obj_x();
        remote_write_interval(&e, 1, 1);
        // Second fault triggers migration; inspect the outcome directly.
        e[1].begin_interval();
        assert!(matches!(e[1].plan_write(obj), AccessPlan::Fetch { .. }));
        match e[0].handle_object_request(obj, NodeId(1), true, 0) {
            ObjectRequestOutcome::Reply {
                migration, notify, ..
            } => {
                assert!(migration.is_some());
                assert_eq!(
                    notify,
                    vec![NodeId(2)],
                    "everyone except old home and requester"
                );
            }
            other => panic!("expected reply, got {other:?}"),
        }
    }

    #[test]
    fn home_notify_updates_hint_monotonically() {
        let e = engines(ProtocolConfig::adaptive());
        let obj = obj_x();
        e[2].handle_home_notify(obj, NodeId(1), 1);
        assert_eq!(e[2].home_hint(obj), NodeId(1));
        assert_eq!(e[2].handle_home_lookup(obj), NodeId(1));
        // An older notify does not regress the belief.
        e[2].handle_home_notify(obj, NodeId(0), 0);
        assert_eq!(e[2].home_hint(obj), NodeId(1));
        // A newer one advances it.
        e[2].handle_home_notify(obj, NodeId(0), 2);
        assert_eq!(e[2].home_hint(obj), NodeId(0));
        // A notify at the home's own (or an older) epoch does not confuse
        // the actual home.
        e[0].handle_home_notify(obj, NodeId(1), 0);
        assert_eq!(e[0].home_hint(obj), NodeId(0));
        assert!(e[0].is_home(obj));
        // But a strictly newer epoch naming another node means this home
        // was deposed while unreachable (a re-election ran without it): it
        // demotes its stale copy — the fencing path of crash recovery.
        e[0].handle_home_notify(obj, NodeId(1), 3);
        assert!(!e[0].is_home(obj));
        assert_eq!(e[0].home_hint(obj), NodeId(1));
        assert_eq!(e[0].stats().homes_fenced, 1);
    }

    #[test]
    fn interval_invalidation_forces_refetch_of_cached_copies() {
        let e = engines(ProtocolConfig::no_migration());
        let obj = obj_x();
        // Node 1 reads the object (fault-in, then cached).
        e[1].begin_interval();
        if let AccessPlan::Fetch { target } = e[1].plan_read(obj) {
            match e[target.index()].handle_object_request(obj, NodeId(1), false, 0) {
                ObjectRequestOutcome::Reply {
                    data,
                    version,
                    migration,
                    ..
                } => {
                    e[1].install_object(obj, data, version, migration);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(e[1].plan_read(obj), AccessPlan::LocalHit);
        e[1].finish_release();
        // Next interval: the cached copy is conservatively invalidated.
        e[1].begin_interval();
        assert!(matches!(e[1].plan_read(obj), AccessPlan::Fetch { .. }));
        assert_eq!(e[1].stats().invalidations, 1);
    }

    #[test]
    fn unwritten_dirty_objects_produce_no_flush() {
        let e = engines(ProtocolConfig::no_migration());
        let obj = obj_x();
        e[1].begin_interval();
        if let AccessPlan::Fetch { target } = e[1].plan_write(obj) {
            match e[target.index()].handle_object_request(obj, NodeId(1), true, 0) {
                ObjectRequestOutcome::Reply {
                    data,
                    version,
                    migration,
                    ..
                } => {
                    e[1].install_object(obj, data, version, migration);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(e[1].plan_write(obj), AccessPlan::LocalHit);
        // The application "writes" the same value that was already there, so
        // the diff is empty and nothing is flushed.
        e[1].with_object_mut(obj, |d| d.bytes_mut()[0] = 0);
        assert!(e[1].prepare_release().is_empty());
        e[1].finish_release();
        assert_eq!(e[1].stats().diffs_sent, 0);
    }

    #[test]
    fn flush_plans_group_deterministically_by_home() {
        // Plans for three targets, deliberately interleaved and unsorted.
        let plan = |name: &str, i: u64, node: u16| FlushPlan {
            obj: ObjectId::derive(name, i),
            target: NodeId(node),
            diff: Diff::full(&[i as u8; 8]),
        };
        let plans = vec![
            plan("g", 4, 2),
            plan("g", 0, 1),
            plan("g", 3, 1),
            plan("g", 1, 2),
            plan("g", 2, 0),
        ];
        let batches = group_flush_plans(plans.clone());
        assert_eq!(batches.len(), 3);
        // Batches ordered by target, entries by object id.
        assert_eq!(
            batches.iter().map(|b| b.target).collect::<Vec<_>>(),
            vec![NodeId(0), NodeId(1), NodeId(2)]
        );
        for batch in &batches {
            let mut sorted = batch.entries.clone();
            sorted.sort_by_key(|p| p.obj);
            assert_eq!(batch.entries, sorted);
            assert!(batch.entries.iter().all(|p| p.target == batch.target));
        }
        let total: usize = batches.iter().map(|b| b.entries.len()).sum();
        assert_eq!(total, plans.len(), "no plan lost or duplicated");
        // Same input, same grouping — reproducibility.
        assert_eq!(batches, group_flush_plans(plans));
    }

    #[test]
    fn batch_counters_accumulate_in_stats() {
        let e = engines(ProtocolConfig::no_migration());
        assert_eq!(e[0].stats().batched_flushes, 0);
        e[0].note_diff_batch(3);
        e[0].note_diff_batch(2);
        let stats = e[0].stats();
        assert_eq!(stats.batched_flushes, 2);
        assert_eq!(stats.batch_entries, 5);
    }

    // ------------------------------------------------------------------
    // Sharding-specific tests
    // ------------------------------------------------------------------

    /// A registry with many objects, all initially homed on node 0.
    fn many_object_registry(count: usize) -> Arc<ObjectRegistry> {
        let mut r = ObjectRegistry::new();
        for i in 0..count {
            r.register_named("shard.obj", i as u64, 64, NodeId(0), HomeAssignment::Master);
        }
        Arc::new(r)
    }

    #[test]
    fn shard_count_rounds_to_power_of_two_and_partitions_objects() {
        let reg = many_object_registry(128);
        let engine = ProtocolEngine::with_shards(
            NodeId(0),
            2,
            ProtocolConfig::no_migration(),
            Arc::clone(&reg),
            12,
        );
        assert_eq!(engine.shard_count(), 16, "12 rounds up to 16");
        // Every registered object is homed here exactly once (no shard lost
        // or duplicated an object), and the ids spread over several stripes.
        assert_eq!(engine.homed_objects().len(), 128);
        let mut used = std::collections::HashSet::new();
        for i in 0..128u64 {
            used.insert(engine.shard_of(ObjectId::derive("shard.obj", i)));
        }
        assert!(
            used.len() >= 8,
            "128 FNV-hashed ids should spread over many of 16 stripes, got {}",
            used.len()
        );
    }

    #[test]
    fn single_shard_engine_still_works() {
        let reg = many_object_registry(8);
        let engine =
            ProtocolEngine::with_shards(NodeId(0), 1, ProtocolConfig::no_migration(), reg, 1);
        assert_eq!(engine.shard_count(), 1);
        engine.begin_interval();
        for i in 0..8u64 {
            let obj = ObjectId::derive("shard.obj", i);
            assert_eq!(engine.plan_write(obj), AccessPlan::LocalHit);
            engine.with_object_mut(obj, |d| d.bytes_mut()[0] = i as u8 + 1);
        }
        engine.finish_release();
        for i in 0..8u64 {
            let obj = ObjectId::derive("shard.obj", i);
            assert_eq!(engine.home_bytes(obj).unwrap()[0], i as u8 + 1);
        }
    }

    #[test]
    fn stress_concurrent_server_traffic_on_distinct_objects() {
        // The whole point of the sharded engine: `&self` protocol handling
        // from many threads at once, with no external mutex. Four "remote
        // requester" threads hammer fault-ins and diffs for disjoint object
        // sets against one home engine while its own "application thread"
        // keeps doing local work, all through a shared reference.
        use std::sync::Barrier;
        let objects = 64usize;
        let reg = many_object_registry(objects);
        let home = Arc::new(ProtocolEngine::new(
            NodeId(0),
            5,
            ProtocolConfig::no_migration(),
            reg,
        ));
        let start = Arc::new(Barrier::new(4));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let home = Arc::clone(&home);
            let start = Arc::clone(&start);
            handles.push(std::thread::spawn(move || {
                start.wait();
                let requester = NodeId(t as u16 + 1);
                for round in 0..50u64 {
                    for i in (t..objects as u64).step_by(4) {
                        let obj = ObjectId::derive("shard.obj", i);
                        match home.handle_object_request(obj, requester, true, 0) {
                            ObjectRequestOutcome::Reply { data, .. } => {
                                assert_eq!(data.len(), 64)
                            }
                            other => panic!("unexpected outcome {other:?}"),
                        }
                        let mut bytes = [0u8; 64];
                        bytes[0] = (round % 250) as u8 + 1;
                        let diff = Diff::full(&bytes);
                        assert!(matches!(
                            home.handle_diff(obj, &diff, requester, 0),
                            DiffOutcome::Applied { .. }
                        ));
                    }
                }
            }));
        }
        for h in handles {
            h.join().expect("no requester thread may panic");
        }
        // Every object saw 50 requests and 50 diffs; nothing was lost.
        let stats = home.stats();
        assert_eq!(stats.requests_served, 4 * 50 * (objects as u64 / 4));
        assert_eq!(stats.diffs_applied, 4 * 50 * (objects as u64 / 4));
        for i in 0..objects as u64 {
            let obj = ObjectId::derive("shard.obj", i);
            assert_eq!(home.home_bytes(obj).unwrap()[0], 50);
        }
    }
}

//! The per-node protocol engine.
//!
//! One [`ProtocolEngine`] instance lives on every simulated cluster node. It
//! owns that node's home copies, cached copies, migration bookkeeping and
//! synchronization-manager state, and it is driven from two sides:
//!
//! * the **application side** (the node's application thread, through the
//!   runtime's `NodeCtx` and the client operations of [`crate::step`]):
//!   leasing object payloads for zero-copy views, installing fetched
//!   objects, preparing and finishing releases, opening intervals;
//! * the **server side** ([`crate::step::serve`], run by whichever thread
//!   steps the node's protocol server): handling object requests, diffs,
//!   notifications and synchronization messages arriving from other nodes.
//!
//! The engine is deliberately transport-agnostic: methods return *plans* and
//! *outcomes* describing what must be sent, and accept the results of those
//! exchanges. [`crate::step`] turns outcomes into messages and replies into
//! the next request; the runtime owns blocking, transport, the timing of
//! retry rounds and virtual-time accounting. This keeps every protocol rule
//! in one place and unit-testable without threads.
//!
//! ## Locking
//!
//! All of the engine's mutable state — the per-object maps, the lock and
//! barrier managers, the arbiter's election book and the statistics — sits
//! in one private `EngineState` behind **one** mutex. Every public method
//! takes `&self` and the lock exactly once, for the length of one protocol
//! transition: an interval-wide operation (`begin_interval`,
//! `prepare_release`, `finish_release`) sees the whole node at one instant,
//! and a home re-election observes, decides and installs in one critical
//! section. It is a *leaf* lock: it is never held across application code
//! or a send, and no engine call takes another lock under it except the
//! payload guards below, which never wait on a thread that wants the
//! engine lock, so the engine's locking cannot deadlock. The paper's nodes
//! are single-CPU machines whose application and protocol handler share
//! one processor; one lock per node matches that.
//!
//! ## Payload leases
//!
//! Object payloads live behind `ObjectStore` handles (shared read/write
//! cells). One application access is one engine call:
//! [`ProtocolEngine::lease_read`] and [`ProtocolEngine::lease_write`] plan
//! the access and, on a hit, take the payload's read or write guard in the
//! same critical section (a write's twin capture and write-set entry too),
//! so the node's server side, running on another thread, cannot move the
//! copy away between the plan and the guard. Otherwise the lease names the
//! believed home to fault the object in from, and the caller leases again
//! once the copy is installed. The guard is held across application code —
//! that is how `ReadView`/`WriteView` expose `&[T]`/`&mut [T]` over engine
//! storage without copying and without pinning any engine lock. Every
//! other payload guard is taken and dropped inside one engine call, so the
//! only guards a lease can meet are the caller's own views. The server side
//! only ever takes `try_` locks on payloads and reports [`Busy`] outcomes
//! when an application view is live, so the protocol server can defer a
//! message instead of blocking — the property that makes lease-holding
//! deadlock-free (a node waiting for a reply always has a responsive
//! server).
//!
//! [`Busy`]: ObjectRequestOutcome::Busy
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
//!   lossy sim configurations may *drop* messages, which an armed engine
//!   papers over with retransmissions and a server-side reply cache — see
//!   *Fault model & recovery* below. The sim
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
//! Under a *lossy* fabric the runtime arms each engine
//! ([`ProtocolEngine::with_recovery`]) and the recovery machine runs as
//! plain state under the engine lock (`crate::recovery`). The runtime only
//! decides *when* a retry round runs ([`ProtocolEngine::retry_round`]): the
//! sim scheduler fires one whenever the fabric stalls with agents parked
//! ([`RetryRound::Stalled`]), and one whenever its retry deadline passes
//! while the network is still busy ([`RetryRound::Due`]). Lossless runs
//! never arm an engine, so their schedules are untouched.
//!
//! * **What can be lost.** Any message. Requests and one-way notifications
//!   are retransmitted from the sender's retry table; replies and acks are
//!   re-sent from the server's per-`ReqId` reply cache when the retried
//!   request arrives again. `LockRelease` — historically fire-and-forget —
//!   carries a real request id on lossy runs so a lost release cannot
//!   deadlock the lock manager.
//! * **Why duplicates are safe.** Every retriable request with side
//!   effects ([`crate::messages::ProtocolMsg::dedup_req`]) is admitted once,
//!   at [`crate::step::serve`]'s ingress: the first delivery executes and
//!   its reply is cached; later deliveries of the same `ReqId` either
//!   re-send the cached reply or (while the original is still deferred) are
//!   silently absorbed. The handlers themselves therefore never observe a
//!   duplicate, and the non-dedup'd recovery messages
//!   (`HomeElect`/`HomeFence` and their answers) are idempotent by
//!   construction — elections are sticky, fencing compares epochs.
//! * **Home re-election.** When a node's fault-in or diff flush stays
//!   unanswered for 16 stalled rounds (`Due` rounds never count: on a busy
//!   network silence usually means a slow or deferring home), it asks the
//!   object's *arbiter* — its well-known manager node, or the next node
//!   when the manager itself is the suspect — to elect a new home
//!   ([`ProtocolEngine::handle_home_elect`]). The arbiter elects a node
//!   that still holds a copy (preferring the live candidate), records the
//!   decision so concurrent candidates converge on one winner, and the
//!   winner promotes its local copy when the answer reaches it.
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
use crate::messages::{ProtocolMsg, ReqId};
use crate::migration::MigrationState;
use crate::recovery::{Recovery, RetryRound};
use crate::state::EngineState;
use crate::stats::ProtocolStats;
use crate::sync::{BarrierOutcome, LockAcquireOutcome, LockReleaseOutcome};
use dsm_objspace::{
    BarrierId, Diff, Element, LockId, NodeId, ObjectData, ObjectId, ObjectRegistry, Version,
};
use dsm_util::{Mutex, RwReadGuard, RwWriteGuard};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

impl AccessPlan {
    fn of(lease: Lease<()>) -> Self {
        match lease {
            Lease::Hit(()) => AccessPlan::LocalHit,
            Lease::Fetch { target } => AccessPlan::Fetch { target },
        }
    }
}

/// An application access taken in one engine call: the payload guard of a
/// valid local copy, or the node to fault the object in from.
#[derive(Debug)]
pub enum Lease<G> {
    /// The access is served from the local copy whose payload `G` guards.
    Hit(G),
    /// The object must be faulted in from (what this node believes is) its
    /// home; lease again once it is installed.
    Fetch {
        /// The believed home node.
        target: NodeId,
    },
}

#[cfg(test)]
impl<G> Lease<G> {
    /// The guard of a lease expected to hit.
    pub(crate) fn hit(self) -> G {
        match self {
            Lease::Hit(guard) => guard,
            Lease::Fetch { target } => panic!("expected a hit, not a fetch from {target}"),
        }
    }

    /// The believed home of a lease expected to miss.
    pub(crate) fn miss(self) -> NodeId {
        match self {
            Lease::Fetch { target } => target,
            Lease::Hit(_) => panic!("expected a fetch, not a hit"),
        }
    }
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
    let mut by_target = std::collections::BTreeMap::<NodeId, Vec<FlushPlan>>::new();
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

/// The per-node protocol engine: immutable cluster facts plus one mutex
/// over the node's protocol state. See the module documentation.
#[derive(Debug)]
pub struct ProtocolEngine {
    node: NodeId,
    num_nodes: usize,
    config: ProtocolConfig,
    registry: Arc<ObjectRegistry>,
    /// Whether the state carries the recovery tables; read without the lock.
    recovers: bool,
    next_req: AtomicU64,
    state: Mutex<EngineState>,
}

impl ProtocolEngine {
    /// Create the engine for `node` in a cluster of `num_nodes` nodes.
    ///
    /// Home copies (zero-filled) are created for every registered object
    /// whose initial home is this node.
    pub fn new(
        node: NodeId,
        num_nodes: usize,
        config: ProtocolConfig,
        registry: Arc<ObjectRegistry>,
    ) -> Self {
        assert!(num_nodes > 0, "cluster must have at least one node");
        assert!(
            node.index() < num_nodes,
            "node {node} outside cluster of {num_nodes}"
        );
        let state = EngineState::new(node, num_nodes, config.clone(), Arc::clone(&registry));
        ProtocolEngine {
            node,
            num_nodes,
            config,
            registry,
            recovers: false,
            next_req: AtomicU64::new(1),
            state: Mutex::new(state),
        }
    }

    /// Arm the recovery machine for a fabric that drops messages (see
    /// *Fault model & recovery*): the engine then tracks the requests it
    /// sends for [`Self::retry_round`], and [`crate::step::serve`] admits
    /// each request once and answers its duplicates from a reply cache.
    pub fn with_recovery(mut self) -> Self {
        self.recovers = true;
        self.state.lock().recovery = Some(Recovery::default());
        self
    }

    /// Whether [`Self::with_recovery`] armed this engine.
    pub fn recovers(&self) -> bool {
        self.recovers
    }

    /// Allocate a request id unique within the cluster: the node id sits in
    /// the high bits, which also makes message traces easier to read.
    pub fn new_req(&self) -> ReqId {
        let seq = self.next_req.fetch_add(1, Ordering::Relaxed);
        ReqId((u64::from(self.node.0) << 48) | seq)
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

    /// Protocol statistics accumulated so far.
    pub fn stats(&self) -> ProtocolStats {
        self.state.lock().stats
    }

    /// Whether this node currently is the home of `obj`.
    pub fn is_home(&self, obj: ObjectId) -> bool {
        self.state.lock().is_home(obj)
    }

    /// The node this engine currently believes to be the home of `obj`.
    pub fn home_hint(&self, obj: ObjectId) -> NodeId {
        self.state.lock().home_hint(obj)
    }

    /// The home epoch this node believes `obj`'s current home is at (its
    /// own epoch when it is the home, 0 when it only knows the initial
    /// assignment).
    pub fn home_epoch(&self, obj: ObjectId) -> u32 {
        self.state.lock().home_epoch(obj)
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
        self.state.lock().bootstrap_object(obj, values);
    }

    // ------------------------------------------------------------------
    // Application side
    // ------------------------------------------------------------------

    /// Open a new interval, as a lock acquire's grant or a barrier's release
    /// does inside its [`ClientOp`](crate::step::ClientOp) step (which also
    /// counts the acquire or barrier under the same lock).
    ///
    /// Under the Java-consistency flavour of LRC used by the paper's GOS,
    /// the node conservatively invalidates its cached non-home copies (its
    /// own unflushed writes are preserved) and re-arms the home-access traps
    /// so the first home read/write of the interval is observable.
    pub fn begin_interval(&self) {
        self.state.lock().begin_interval();
    }

    /// Plan a read of `obj` by the local application thread, counted as
    /// [`Self::lease_read`] counts it but without taking the payload.
    pub fn plan_read(&self, obj: ObjectId) -> AccessPlan {
        AccessPlan::of(self.state.lock().lease_read(obj, |_| ()))
    }

    /// Plan a write of `obj` by the local application thread, with the
    /// bookkeeping of [`Self::lease_write`] but without taking the payload.
    pub fn plan_write(&self, obj: ObjectId) -> AccessPlan {
        AccessPlan::of(self.state.lock().lease_write(obj, |_| ()))
    }

    /// Read `obj` on behalf of the local application thread: plan the read
    /// and, on a hit, take the payload's read guard, in one critical
    /// section, so no server step can move the copy away in between. The
    /// guard is then held across application code without any engine lock
    /// (that is how `ReadView` borrows engine storage).
    ///
    /// # Panics
    /// Panics if the caller itself holds the payload's write guard.
    pub fn lease_read(&self, obj: ObjectId) -> Lease<RwReadGuard<ObjectData>> {
        self.state.lock().lease_read(obj, |store| {
            store
                .try_read()
                .expect("a live write guard conflicts with the read lease")
        })
    }

    /// Write `obj` on behalf of the local application thread, as
    /// [`Self::lease_read`]: a cached copy's twin capture and write-set
    /// entry, and the write guard, are taken in the same critical section.
    ///
    /// # Panics
    /// Panics if the caller itself holds a guard on the payload.
    pub fn lease_write(&self, obj: ObjectId) -> Lease<RwWriteGuard<ObjectData>> {
        self.state.lock().lease_write(obj, |store| {
            store
                .try_write()
                .expect("a live guard conflicts with the write lease")
        })
    }

    /// Write access to a locally writable copy of `obj` through a closure.
    ///
    /// # Panics
    /// Panics if the object is not locally writable.
    pub fn with_object_mut<R>(&self, obj: ObjectId, f: impl FnOnce(&mut ObjectData) -> R) -> R {
        let store = self.state.lock().writable_store(obj);
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
        self.state
            .lock()
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
        self.state.lock().note_redirect(obj, new_home, epoch)
    }

    /// Compute the diffs that must be propagated to remote homes before the
    /// current interval can release. Objects whose writes turn out to be
    /// no-ops are cleaned up immediately and produce no flush.
    pub fn prepare_release(&self) -> Vec<FlushPlan> {
        self.state.lock().prepare_release()
    }

    /// Record the acknowledgement of one flushed diff.
    pub fn complete_flush(&self, obj: ObjectId, new_version: Version) {
        self.state.lock().complete_flush(obj, new_version);
    }

    /// Close the current interval after all flushes are acknowledged:
    /// home-copy versions advance for locally written objects and write
    /// permission is dropped everywhere so the next interval's first write
    /// is trapped again.
    ///
    /// # Panics
    /// Panics if some flushed diff was never acknowledged (runtime bug).
    pub fn finish_release(&self) {
        self.state.lock().finish_release();
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
        self.state
            .lock()
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
        self.state.lock().handle_diff(obj, diff, from, redirections)
    }

    /// Handle a new-home notification (broadcast or home-manager
    /// mechanisms): adopt the announced home if it is newer than the local
    /// belief.
    pub fn handle_home_notify(&self, obj: ObjectId, new_home: NodeId, epoch: u32) {
        self.state.lock().handle_home_notify(obj, new_home, epoch);
    }

    /// Whether this node holds *any* local copy of `obj` (home or cached) —
    /// what makes it a promotable election candidate.
    pub fn has_copy(&self, obj: ObjectId) -> bool {
        self.state.lock().has_copy(obj)
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
        self.state.lock().handle_home_elect(
            obj,
            suspect,
            candidate,
            candidate_epoch,
            candidate_has_copy,
        )
    }

    // ------------------------------------------------------------------
    // Synchronization managers (only meaningful on the manager node)
    // ------------------------------------------------------------------

    /// Manager-side lock acquire.
    pub fn lock_acquire(&self, lock: LockId, requester: NodeId, req: ReqId) -> LockAcquireOutcome {
        self.state.lock().locks.acquire(lock, requester, req)
    }

    /// Manager-side lock release.
    pub fn lock_release(&self, lock: LockId, holder: NodeId) -> LockReleaseOutcome {
        self.state.lock().locks.release(lock, holder)
    }

    /// Manager-side barrier arrival.
    pub fn barrier_arrive(&self, barrier: BarrierId, node: NodeId, req: ReqId) -> BarrierOutcome {
        self.state.lock().barriers.arrive(barrier, node, req)
    }

    /// Count a completed lock acquire or barrier in the statistic `counter`
    /// names and open the interval it starts, in one critical section.
    pub(crate) fn begin_sync_interval(&self, counter: fn(&mut ProtocolStats) -> &mut u64) {
        let mut state = self.state.lock();
        *counter(&mut state.stats) += 1;
        state.begin_interval();
    }

    /// Record that `entries` release-time flushes were shipped as one
    /// `DiffBatch` message (for the `batched_flushes` / `batch_entries`
    /// statistics).
    pub fn note_diff_batch(&self, entries: usize) {
        let stats = &mut self.state.lock().stats;
        stats.batched_flushes += 1;
        stats.batch_entries += entries as u64;
    }

    // ------------------------------------------------------------------
    // Recovery (armed engines only; a no-op elsewhere)
    // ------------------------------------------------------------------

    /// Track `msg`, which this node sends to another node `dst`, for
    /// retransmission until its reply or ack arrives. Only requests with a
    /// [`ProtocolMsg::dedup_req`] id are tracked.
    pub fn track(&self, dst: NodeId, msg: &ProtocolMsg) {
        if let Some(req) = msg.dedup_req() {
            self.recovery(|recovery, _| recovery.track(req, dst, msg.clone()));
        }
    }

    /// One retry round over this node's tracked messages: what to send
    /// again, in request-id order (see [`RetryRound`]). Empty when every
    /// entry is exhausted or none exists, and on an unarmed engine.
    pub fn retry_round(&self, round: RetryRound) -> Vec<(NodeId, ProtocolMsg)> {
        self.recovery(|recovery, state| recovery.round(state, round))
            .unwrap_or_default()
    }

    /// Run `f` over the recovery tables and the rest of the state under the
    /// lock; `None`, without taking the lock, on an unarmed engine.
    pub(crate) fn recovery<R>(
        &self,
        f: impl FnOnce(&mut Recovery, &mut EngineState) -> R,
    ) -> Option<R> {
        if !self.recovers {
            return None;
        }
        let mut state = self.state.lock();
        let mut recovery = state
            .recovery
            .take()
            .expect("an armed engine has its tables");
        let result = f(&mut recovery, &mut state);
        state.recovery = Some(recovery);
        Some(result)
    }

    // ------------------------------------------------------------------
    // Introspection for tests and invariant checks
    // ------------------------------------------------------------------

    /// Objects currently homed at this node (sorted, for deterministic
    /// tests).
    #[cfg(test)]
    fn homed_objects(&self) -> Vec<ObjectId> {
        self.state.lock().homed_objects()
    }

    /// A snapshot of the migration bookkeeping of an object homed here, if
    /// any.
    pub fn migration_state(&self, obj: ObjectId) -> Option<MigrationState> {
        self.state.lock().migration_state(obj)
    }

    /// The current version of the home copy of `obj`, if homed here.
    #[cfg(test)]
    pub(crate) fn home_version(&self, obj: ObjectId) -> Option<Version> {
        self.state.lock().home_version(obj)
    }

    /// Snapshot of a home copy's bytes (tests and invariant checks).
    pub fn home_bytes(&self, obj: ObjectId) -> Option<Vec<u8>> {
        self.state.lock().home_bytes(obj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NotificationMechanism;
    use crate::policy::MigrateOnRequestPolicy;
    use crate::step::ClientOp;
    use crate::world::World;
    use dsm_objspace::HomeAssignment;

    const N: usize = 3;

    /// Three engines joined in a [`World`], sharing a single 64-byte object
    /// "x" homed (initially) on node 0, plus a second object "y" homed on
    /// node 1. A chase may take N + 2 redirections.
    fn world(config: ProtocolConfig) -> World {
        let mut r = ObjectRegistry::new();
        r.register_named("x", 0, 64, NodeId(0), HomeAssignment::CreationNode);
        r.register_named("y", 0, 64, NodeId(1), HomeAssignment::CreationNode);
        let mut world = World::new(N, config, Arc::new(r));
        world.chase_limit = N as u32 + 2;
        world
    }

    fn obj_x() -> ObjectId {
        ObjectId::derive("x", 0)
    }

    #[test]
    fn initial_homes_follow_registry() {
        let e = world(ProtocolConfig::no_migration());
        assert!(e[0].is_home(obj_x()));
        assert!(!e[1].is_home(obj_x()));
        assert_eq!(e[1].home_hint(obj_x()), NodeId(0));
        assert_eq!(e[0].homed_objects(), vec![obj_x()]);
        assert_eq!(e[1].home_epoch(obj_x()), 0);
    }

    #[test]
    fn local_home_access_never_needs_fetch() {
        let e = world(ProtocolConfig::no_migration());
        let obj = obj_x();
        e[0].begin_interval();
        assert_eq!(e[0].plan_read(obj), AccessPlan::LocalHit);
        assert_eq!(e[0].plan_write(obj), AccessPlan::LocalHit);
        e[0].with_object_mut(obj, |d| d.bytes_mut()[0] = 7);
        assert!(e[0].prepare_release().is_empty());
        e[0].finish_release();
        assert_eq!(e[0].stats().home_reads, 1);
        assert_eq!(e[0].stats().home_writes, 1);
        assert_eq!(e[0].stats().fault_ins, 0);
        assert_eq!(e[0].home_version(obj), Some(Version(1)));
    }

    #[test]
    fn leases_expose_engine_storage() {
        let e = world(ProtocolConfig::no_migration());
        let obj = obj_x();
        e[0].begin_interval();
        e[0].lease_write(obj).hit().bytes_mut()[0] = 42;
        // The write went straight into the home copy, no copy-back needed.
        assert_eq!(e[0].home_bytes(obj).unwrap()[0], 42);
        assert_eq!(e[0].lease_read(obj).hit().bytes()[0], 42);
    }

    /// Each access is one lease call: a home copy hits, a read-only cached
    /// copy arms its twin once, no copy or an invalid one names the believed
    /// home, and a former home fetches from the node it granted the home to.
    #[test]
    fn a_lease_hits_a_valid_copy_and_fetches_otherwise() {
        let cfg = ProtocolConfig::no_migration().with_migration(MigrateOnRequestPolicy);
        let mut w = world(cfg);
        let obj = obj_x();
        for engine in &w.engines {
            engine.begin_interval();
        }
        assert_eq!(w[0].lease_read(obj).hit().bytes(), [0; 64], "the home hits");

        let home = w[1].home_hint(obj);
        assert!(matches!(w[1].lease_read(obj), Lease::Fetch { target } if target == home));
        w.complete(1, ClientOp::fault_in(obj, false, home));
        for _ in 0..2 {
            w[1].lease_write(obj).hit().bytes_mut()[0] = 1;
        }
        assert_eq!(w[1].stats().twins_created, 1, "one twin per interval");

        w.complete(2, ClientOp::fault_in(obj, false, home));
        w[2].begin_interval();
        assert!(
            matches!(w[2].lease_read(obj), Lease::Fetch { target } if target == home),
            "a new interval invalidated the cached copy"
        );

        w.complete(2, ClientOp::fault_in(obj, true, home));
        assert!(w[2].is_home(obj), "the JUMP write fault took the home");
        // The old home keeps a read-only copy until its next interval.
        w[0].begin_interval();
        assert!(matches!(
            w[0].lease_write(obj),
            Lease::Fetch { target: NodeId(2) }
        ));
    }

    #[test]
    fn busy_home_copy_defers_requests_and_diffs() {
        let e = world(ProtocolConfig::no_migration());
        let obj = obj_x();
        e[0].begin_interval();
        let guard = e[0].lease_write(obj).hit();
        // A write lease blocks both server-side payload operations ...
        assert_eq!(
            e[0].handle_object_request(obj, NodeId(1), false, 0),
            ObjectRequestOutcome::Busy
        );
        let diff = Diff::full(&[1u8; 64]);
        assert_eq!(
            e[0].handle_diff(obj, &diff, NodeId(1), 0),
            DiffOutcome::Busy
        );
        drop(guard);
        // ... and the retries succeed once the view drops.
        assert!(matches!(
            e[0].handle_object_request(obj, NodeId(1), false, 0),
            ObjectRequestOutcome::Reply { .. }
        ));
        assert!(matches!(
            e[0].handle_diff(obj, &diff, NodeId(1), 0),
            DiffOutcome::Applied { .. }
        ));
    }

    #[test]
    fn remote_write_faults_in_and_flushes_diff() {
        let mut e = world(ProtocolConfig::no_migration());
        let obj = obj_x();
        let hops = e.write_interval(1, obj_x(), 42);
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
        let mut e = world(ProtocolConfig::no_migration());
        for i in 0..10 {
            // Write values 1..=10 so every interval really changes the object
            // (writing 0 over the zero-initialised object would be a no-op
            // interval with no diff to flush).
            e.write_interval(1, obj_x(), i + 1);
        }
        assert!(e[0].is_home(obj_x()));
        assert_eq!(e[1].stats().fault_ins, 10);
        assert_eq!(e[1].stats().diffs_sent, 10);
    }

    #[test]
    fn adaptive_policy_migrates_to_single_writer() {
        let mut e = world(ProtocolConfig::adaptive());
        let obj = obj_x();
        // Interval 1: node 1 writes; home still node 0 (C becomes 1).
        e.write_interval(1, obj_x(), 1);
        assert!(e[0].is_home(obj));
        // Interval 2: node 1 faults again; with T=1 and C=1 the home migrates
        // together with the reply.
        e.write_interval(1, obj_x(), 2);
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
        e.write_interval(1, obj_x(), 3);
        assert_eq!(
            e[1].stats().fault_ins,
            before,
            "no further fault-ins after migration"
        );
        assert_eq!(e[1].home_bytes(obj).unwrap()[0], 3);
    }

    #[test]
    fn fixed_threshold_two_migrates_one_interval_later_than_adaptive() {
        let mut adaptive = world(ProtocolConfig::adaptive());
        let mut ft2 = world(ProtocolConfig::fixed_threshold(2));
        adaptive.write_interval(1, obj_x(), 1);
        ft2.write_interval(1, obj_x(), 1);
        adaptive.write_interval(1, obj_x(), 2);
        ft2.write_interval(1, obj_x(), 2);
        assert!(adaptive[1].is_home(obj_x()), "AT migrates at the 2nd fault");
        assert!(
            !ft2[1].is_home(obj_x()),
            "FT2 needs C=2 before the next fault"
        );
        ft2.write_interval(1, obj_x(), 3);
        assert!(ft2[1].is_home(obj_x()), "FT2 migrates once C reaches 2");
    }

    #[test]
    fn redirection_chain_resolves_and_counts() {
        // Move the home from 0 to 1, then have node 2 request it while still
        // believing node 0 is the home: node 0 redirects (1 hop), node 1
        // serves the request and records the redirection as feedback.
        let mut e = world(ProtocolConfig::adaptive());
        let obj = obj_x();
        e.write_interval(1, obj_x(), 1);
        e.write_interval(1, obj_x(), 2);
        assert!(e[1].is_home(obj));

        e[2].begin_interval();
        assert_eq!(
            e[2].plan_read(obj),
            AccessPlan::Fetch { target: NodeId(0) },
            "node 2 still believes the initial home"
        );
        let hops = e.complete(2, ClientOp::fault_in(obj, false, NodeId(0)));
        assert!(
            e[1].is_home(obj) && !e[2].is_home(obj),
            "a reader must not steal the home"
        );
        assert_eq!(hops, 1);
        assert_eq!(e[0].stats().redirections_served, 1);
        assert_eq!(e[2].stats().redirections_suffered, 1);
        assert_eq!(e[2].home_hint(obj), NodeId(1), "the fresh hint was adopted");
        assert_eq!(e[2].lease_read(obj).hit().bytes()[0], 2);
        // The redirection became negative feedback at the current home.
        assert_eq!(e[1].migration_state(obj).unwrap().redirected_requests, 1);
    }

    #[test]
    fn stale_hints_are_not_adopted() {
        let mut e = world(ProtocolConfig::adaptive());
        let obj = obj_x();
        // Home migrates 0 -> 1 (epoch 1); node 1's belief points at itself.
        e.write_interval(1, obj_x(), 1);
        e.write_interval(1, obj_x(), 2);
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
        let mut at = world(ProtocolConfig::adaptive());
        let mut ft1 = world(ProtocolConfig::fixed_threshold(1));
        for round in 0..16 {
            let writer = 1 + ((round / 2) % 2);
            at.write_interval(writer, obj_x(), round as u8);
            ft1.write_interval(writer, obj_x(), round as u8);
        }
        let at_migrations: u64 = at.engines.iter().map(|e| e.stats().migrations_out).sum();
        let ft1_migrations: u64 = ft1.engines.iter().map(|e| e.stats().migrations_out).sum();
        assert!(
            ft1_migrations >= 4,
            "FT1 should keep migrating under the alternating-burst pattern, got {ft1_migrations}"
        );
        assert!(
            at_migrations <= ft1_migrations,
            "AT ({at_migrations}) must not migrate more than FT1 ({ft1_migrations})"
        );
        // And the redirection traffic follows the same ordering.
        let at_redirs: u64 = at
            .engines
            .iter()
            .map(|e| e.stats().redirections_served)
            .sum();
        let ft1_redirs: u64 = ft1
            .engines
            .iter()
            .map(|e| e.stats().redirections_served)
            .sum();
        assert!(at_redirs <= ft1_redirs);
    }

    #[test]
    fn jump_policy_migrates_on_every_write_fault() {
        let cfg = ProtocolConfig::no_migration().with_migration(MigrateOnRequestPolicy);
        let mut e = world(cfg);
        e.write_interval(1, obj_x(), 1);
        assert!(
            e[1].is_home(obj_x()),
            "JUMP migrates on the very first write fault"
        );
        e.write_interval(2, obj_x(), 2);
        assert!(
            e[2].is_home(obj_x()),
            "JUMP migrates again to the next writer"
        );
        // Epochs advanced monotonically along the migrations.
        assert_eq!(e[2].home_epoch(obj_x()), 2);
    }

    #[test]
    fn migration_preserves_data_and_versions() {
        let mut e = world(ProtocolConfig::adaptive());
        let obj = obj_x();
        e.write_interval(1, obj_x(), 11);
        e.write_interval(1, obj_x(), 22);
        assert!(e[1].is_home(obj));
        // Version history: one diff applied at the old home (v1); the data
        // with value 22 was written locally at the new home after migration.
        assert_eq!(e[1].home_bytes(obj).unwrap()[0], 22);
        assert!(e[1].home_version(obj).unwrap() >= Version(1));
        // Exactly one node considers itself home.
        let home_count = e.engines.iter().filter(|eng| eng.is_home(obj)).count();
        assert_eq!(home_count, 1);
    }

    #[test]
    fn bootstrap_seeds_only_the_home() {
        let e = world(ProtocolConfig::no_migration());
        let obj = obj_x();
        for eng in &e.engines {
            eng.bootstrap_object(obj, &[9u8; 64]);
        }
        assert_eq!(e[0].home_bytes(obj).unwrap(), vec![9u8; 64]);
        assert!(e[1].home_bytes(obj).is_none());
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn bootstrap_rejects_wrong_size() {
        let e = world(ProtocolConfig::no_migration());
        e[0].bootstrap_object(obj_x(), &[0u8; 8]);
    }

    #[test]
    #[should_panic(expected = "without a write plan")]
    fn writing_without_plan_panics() {
        let e = world(ProtocolConfig::no_migration());
        // plan_read only gives read permission at the home.
        e[0].begin_interval();
        let _ = e[0].plan_read(obj_x());
        e[0].with_object_mut(obj_x(), |d| d.bytes_mut()[0] = 1);
    }

    #[test]
    fn broadcast_notification_lists_all_other_nodes() {
        let cfg = ProtocolConfig::adaptive().with_notification(NotificationMechanism::Broadcast);
        let mut e = world(cfg);
        let obj = obj_x();
        e.write_interval(1, obj_x(), 1);
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
        let e = world(ProtocolConfig::adaptive());
        let obj = obj_x();
        e[2].handle_home_notify(obj, NodeId(1), 1);
        assert_eq!(e[2].home_hint(obj), NodeId(1));
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
        let mut w = world(ProtocolConfig::no_migration());
        let obj = obj_x();
        // Node 1 reads the object (fault-in, then cached).
        w[1].begin_interval();
        w.fault_in(1, obj, false);
        assert_eq!(w[1].plan_read(obj), AccessPlan::LocalHit);
        w[1].finish_release();
        // Next interval: the cached copy is conservatively invalidated.
        w[1].begin_interval();
        assert!(matches!(w[1].plan_read(obj), AccessPlan::Fetch { .. }));
        assert_eq!(w[1].stats().invalidations, 1);
    }

    #[test]
    fn unwritten_dirty_objects_produce_no_flush() {
        let mut w = world(ProtocolConfig::no_migration());
        let obj = obj_x();
        w[1].begin_interval();
        w.fault_in(1, obj, true);
        assert_eq!(w[1].plan_write(obj), AccessPlan::LocalHit);
        // The application "writes" the same value that was already there, so
        // the diff is empty and nothing is flushed.
        w[1].with_object_mut(obj, |d| d.bytes_mut()[0] = 0);
        assert!(w[1].prepare_release().is_empty());
        w[1].finish_release();
        assert_eq!(w[1].stats().diffs_sent, 0);
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
        let e = world(ProtocolConfig::no_migration());
        assert_eq!(e[0].stats().batched_flushes, 0);
        e[0].note_diff_batch(3);
        e[0].note_diff_batch(2);
        let stats = e[0].stats();
        assert_eq!(stats.batched_flushes, 2);
        assert_eq!(stats.batch_entries, 5);
    }

    // ------------------------------------------------------------------
    // Concurrency
    // ------------------------------------------------------------------

    #[test]
    fn stress_concurrent_server_traffic_on_distinct_objects() {
        // `&self` protocol handling from many threads at once, with no
        // external mutex. Four "remote requester" threads hammer fault-ins
        // and diffs for disjoint object sets against one home engine while
        // its own "application thread" keeps doing local work on objects no
        // requester touches, all through a shared reference. The
        // application thread runs the interval-wide calls (`begin_interval`,
        // `prepare_release`, `finish_release`) against that server traffic.
        use std::sync::Barrier;
        let (objects, local) = (64usize, 16usize);
        let mut reg = ObjectRegistry::new();
        for i in 0..objects {
            reg.register_named("shard.obj", i as u64, 64, NodeId(0), HomeAssignment::Master);
        }
        for i in 0..local {
            reg.register_named("shard.app", i as u64, 64, NodeId(0), HomeAssignment::Master);
        }
        let mut all: Vec<ObjectId> = reg.iter().map(|desc| desc.id).collect();
        all.sort();
        let home = Arc::new(ProtocolEngine::new(
            NodeId(0),
            5,
            ProtocolConfig::no_migration(),
            Arc::new(reg),
        ));
        // Every registered object is homed here exactly once.
        assert_eq!(home.homed_objects(), all);
        let start = Arc::new(Barrier::new(5));
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
        let app = {
            let home = Arc::clone(&home);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                for round in 0..50u8 {
                    home.begin_interval();
                    for i in 0..local as u64 {
                        let obj = ObjectId::derive("shard.app", i);
                        let mut guard = home.lease_write(obj).hit();
                        guard.bytes_mut()[..2].copy_from_slice(&[round + 1, i as u8]);
                    }
                    assert!(home.prepare_release().is_empty(), "home writes never flush");
                    home.finish_release();
                }
            })
        };
        app.join().expect("the application thread may not panic");
        for h in handles {
            h.join().expect("no requester thread may panic");
        }
        // Every object saw 50 requests and 50 diffs, and every local object
        // 50 write intervals; nothing was lost.
        let stats = home.stats();
        assert_eq!(stats.requests_served, 4 * 50 * (objects as u64 / 4));
        assert_eq!(stats.diffs_applied, 4 * 50 * (objects as u64 / 4));
        assert_eq!(stats.home_writes, 50 * local as u64);
        for i in 0..objects as u64 {
            let obj = ObjectId::derive("shard.obj", i);
            assert_eq!(home.home_bytes(obj).unwrap()[0], 50);
            assert_eq!(home.home_version(obj), Some(Version(50)));
        }
        for i in 0..local as u64 {
            let obj = ObjectId::derive("shard.app", i);
            assert_eq!(home.home_bytes(obj).unwrap()[..2], [50, i as u8]);
            assert_eq!(home.home_version(obj), Some(Version(50)));
        }
    }
}

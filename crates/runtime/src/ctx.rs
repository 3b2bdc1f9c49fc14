//! The application-facing node context.
//!
//! A [`NodeCtx`] is handed to the application closure on every node. It is
//! the analogue of the paper's GOS runtime interface as seen by a Java
//! thread: transparent object access (fault-ins, twins and diffs happen
//! behind the scenes), `synchronized`-style locking, barriers, and a hook to
//! charge modelled computation time.
//!
//! ## Access model
//!
//! The primary surface is the **zero-copy view API**: [`NodeCtx::view`]
//! returns a [`ReadView`] and [`NodeCtx::view_mut`] a [`WriteView`], scoped
//! guards that `Deref` to `&[T]` / `&mut [T]` borrowed straight from the
//! engine's object storage. At the home node an access through a view
//! touches the home copy in place — "accesses at the home never
//! communicate", with no whole-object decode/encode round-trip. Dropping a
//! `WriteView` arms the twin/diff bookkeeping so the interval's next
//! release flushes exactly one diff for the object.
//!
//! Every access has a **fallible form** (`try_view`, `try_view_mut`,
//! `try_acquire`, `try_release`, `try_barrier`) returning
//! [`DsmResult`]; protocol misuse — unknown objects, size-mismatched
//! handles, conflicting views, synchronizing with live views — surfaces as
//! a typed [`DsmError`] instead of tearing down the node thread. The
//! panicking short forms (`view`, `acquire`, ...) are thin wrappers kept
//! for application code where misuse is a bug.

use crate::handle::ArrayHandle;
use crate::node::{dispatch_barrier_release, dispatch_lock_grant, NodeShared};
use crate::view::{ReadView, WriteView};
use dsm_core::sync::{BarrierOutcome, LockAcquireOutcome};
use dsm_core::{
    group_flush_plans, AccessPlan, DiffBatchEntry, DiffEntryStatus, FlushBatch, FlushPlan,
    ProtocolMsg,
};
use dsm_model::{SimDuration, SimTime};
use dsm_objspace::{BarrierId, DsmError, DsmResult, Element, LockId, NodeId, ObjectId};
use dsm_util::SmallRng;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

/// Node of the cluster that hosts the distributed lock and barrier managers.
/// The paper's applications start on one node and send all distributed
/// synchronization there.
const SYNC_MANAGER: NodeId = NodeId::MASTER;

/// Live-view bookkeeping: a positive count of shared views, or -1 for the
/// exclusive write view.
const WRITER: isize = -1;

/// The per-node application context.
pub struct NodeCtx {
    shared: Arc<NodeShared>,
    barrier_epochs: RefCell<HashMap<BarrierId, u64>>,
    /// Objects with live views in this context (see [`WRITER`]). Guards
    /// same-thread aliasing so a conflict surfaces as a typed error instead
    /// of a lock-up on the payload lease.
    active_views: RefCell<HashMap<ObjectId, isize>>,
}

impl NodeCtx {
    pub(crate) fn new(shared: Arc<NodeShared>) -> Self {
        NodeCtx {
            shared,
            barrier_epochs: RefCell::new(HashMap::new()),
            active_views: RefCell::new(HashMap::new()),
        }
    }

    /// This node's identity.
    pub fn node_id(&self) -> NodeId {
        self.shared.node
    }

    /// Number of nodes in the cluster.
    pub fn num_nodes(&self) -> usize {
        self.shared.num_nodes
    }

    /// Whether this node is the master (the node the application starts on).
    pub fn is_master(&self) -> bool {
        self.shared.node == NodeId::MASTER
    }

    /// The cluster's configured seed (see `ClusterBuilder::seed`).
    pub fn seed(&self) -> u64 {
        self.shared.seed
    }

    /// A deterministic per-node random generator derived from the cluster
    /// seed: every run of the same configuration sees the same streams.
    pub fn node_rng(&self) -> SmallRng {
        SmallRng::seed_from_u64(self.shared.seed ^ (0x9E37 + self.shared.node.0 as u64 * 0x1_0001))
    }

    /// Current virtual time at this node.
    pub fn now(&self) -> SimTime {
        self.shared.clock.now()
    }

    /// Charge `ops` abstract operations of computation to the virtual clock.
    pub fn compute(&self, ops: u64) {
        let cost = self.shared.compute.ops(ops);
        self.shared.clock.advance(cost);
    }

    /// Charge computation for touching `elements` elements with
    /// `ops_per_element` operations each.
    pub fn compute_elements(&self, elements: u64, ops_per_element: u64) {
        let cost = self.shared.compute.elements(elements, ops_per_element);
        self.shared.clock.advance(cost);
    }

    /// Charge an explicit virtual duration (used by workloads that model
    /// phases not expressed in element counts).
    pub fn charge(&self, duration: SimDuration) {
        self.shared.clock.advance(duration);
    }

    // ------------------------------------------------------------------
    // Shared object access — zero-copy views
    // ------------------------------------------------------------------

    /// Validate a handle against the registry: the object must be known and
    /// the handle's element count must agree with the registered payload
    /// size (a `lookup` with the wrong length would otherwise corrupt
    /// element decoding).
    fn validate_handle<T: Element>(&self, handle: &ArrayHandle<T>) -> DsmResult<()> {
        handle.validate(&self.shared.registry)
    }

    /// Take a zero-copy read view of the object (faulting it in if needed).
    ///
    /// Multiple read views — of the same or different objects — may be live
    /// at once; a read view only conflicts with a live write view of the
    /// same object.
    pub fn try_view<'ctx, T: Element>(
        &'ctx self,
        handle: &ArrayHandle<T>,
    ) -> DsmResult<ReadView<'ctx, T>> {
        self.validate_handle(handle)?;
        let obj = handle.id;
        if self.active_views.borrow().get(&obj).copied().unwrap_or(0) < 0 {
            return Err(DsmError::ViewConflict { obj });
        }
        // Plan, then take the payload guard *atomically* under the shard
        // lock: the server thread may migrate the home away between the two
        // steps, in which case the checked lease refuses and we re-plan
        // (faulting the object back in if needed).
        let guard = loop {
            self.ensure_readable(obj)?;
            if let Some(guard) = self.shared.engine.try_lease_read(obj) {
                break guard;
            }
        };
        *self.active_views.borrow_mut().entry(obj).or_insert(0) += 1;
        Ok(ReadView::new(self, obj, guard))
    }

    /// Take a zero-copy read view, panicking on protocol misuse.
    ///
    /// # Panics
    /// Panics on any [`DsmError`] (unknown object, size mismatch, conflict
    /// with a live write view).
    pub fn view<'ctx, T: Element>(&'ctx self, handle: &ArrayHandle<T>) -> ReadView<'ctx, T> {
        self.try_view(handle)
            .unwrap_or_else(|e| panic!("view failed: {e}"))
    }

    /// Take a zero-copy write view of the object (faulting it in and arming
    /// the twin/diff bookkeeping as needed). Writes through the view become
    /// the interval's diff when the interval releases.
    ///
    /// A write view is exclusive: any live view of the same object in this
    /// context makes this fail with [`DsmError::ViewConflict`].
    pub fn try_view_mut<'ctx, T: Element>(
        &'ctx self,
        handle: &ArrayHandle<T>,
    ) -> DsmResult<WriteView<'ctx, T>> {
        self.validate_handle(handle)?;
        let obj = handle.id;
        if self.active_views.borrow().get(&obj).copied().unwrap_or(0) != 0 {
            return Err(DsmError::ViewConflict { obj });
        }
        // As in `try_view`: re-validate writability and take the write guard
        // under the shard lock, re-planning if a concurrent migration
        // snatched the copy between the plan and the lease (the re-plan
        // re-arms the twin/diff bookkeeping before we write).
        let guard = loop {
            self.ensure_writable(obj)?;
            if let Some(guard) = self.shared.engine.try_lease_write(obj) {
                break guard;
            }
        };
        self.active_views.borrow_mut().insert(obj, WRITER);
        Ok(WriteView::new(self, obj, guard))
    }

    /// Take a zero-copy write view, panicking on protocol misuse.
    ///
    /// # Panics
    /// Panics on any [`DsmError`].
    pub fn view_mut<'ctx, T: Element>(&'ctx self, handle: &ArrayHandle<T>) -> WriteView<'ctx, T> {
        self.try_view_mut(handle)
            .unwrap_or_else(|e| panic!("view_mut failed: {e}"))
    }

    /// Unregister a dropped view (called from the guards' `Drop`).
    pub(crate) fn release_view(&self, obj: ObjectId, writer: bool) {
        let mut views = self.active_views.borrow_mut();
        let count = views.get_mut(&obj).expect("dropping an untracked view");
        if writer {
            debug_assert_eq!(*count, WRITER, "write view tracked as readers");
            views.remove(&obj);
        } else {
            debug_assert!(*count > 0, "read view tracked as writer");
            *count -= 1;
            if *count == 0 {
                views.remove(&obj);
            }
        }
    }

    /// Called from the views' trailing drop signal once a payload lease has
    /// truly been released (strictly after [`Self::release_view`] and after
    /// the guard itself dropped): re-arms the executor's deferred server
    /// work for this node. No-op outside executor mode.
    pub(crate) fn lease_released(&self) {
        self.shared.view_lease_released();
    }

    /// Number of live write views in this context.
    fn live_write_views(&self) -> usize {
        self.active_views
            .borrow()
            .values()
            .filter(|count| **count < 0)
            .count()
    }

    /// Number of live views in this context.
    pub fn live_views(&self) -> usize {
        self.active_views
            .borrow()
            .values()
            .map(|c| c.unsigned_abs())
            .sum()
    }

    /// Fail with [`DsmError::ViewsOutstanding`] if any view is live: a
    /// synchronization operation must see the interval's complete write
    /// set, and a held payload lease would stall the protocol server while
    /// this thread blocks on the network.
    fn ensure_quiescent(&self) -> DsmResult<()> {
        let count = self.live_views();
        if count > 0 {
            return Err(DsmError::ViewsOutstanding { count });
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Shared object access — owning conveniences over views
    // ------------------------------------------------------------------

    /// Seed the initial contents of a shared object (fallible form). Must
    /// be called on every node *before* any node accesses the object
    /// through the protocol (typically followed by a [`Self::barrier`]);
    /// only the object's home actually stores the data, and no messages are
    /// exchanged because every node computes identical contents.
    pub fn try_bootstrap<T: Element>(
        &self,
        handle: &ArrayHandle<T>,
        values: &[T],
    ) -> DsmResult<()> {
        self.validate_handle(handle)?;
        // A live view of the object holds its payload lease; overwriting
        // underneath it would spin forever inside the engine.
        if self
            .active_views
            .borrow()
            .get(&handle.id)
            .copied()
            .unwrap_or(0)
            != 0
        {
            return Err(DsmError::ViewConflict { obj: handle.id });
        }
        assert_eq!(values.len(), handle.len, "bootstrap length mismatch");
        self.shared.engine.bootstrap_object(handle.id, values);
        Ok(())
    }

    /// Seed the initial contents of a shared object, panicking on misuse.
    ///
    /// # Panics
    /// Panics on any [`DsmError`] (unknown object, size mismatch, live view
    /// of the object).
    pub fn bootstrap<T: Element>(&self, handle: &ArrayHandle<T>, values: &[T]) {
        self.try_bootstrap(handle, values)
            .unwrap_or_else(|e| panic!("bootstrap failed: {e}"));
    }

    /// Read the whole object into an owned vector (faulting it in if
    /// needed). Prefer [`Self::view`] on hot paths.
    pub fn read<T: Element>(&self, handle: &ArrayHandle<T>) -> Vec<T> {
        self.view(handle).to_vec()
    }

    /// Read a single element (faulting the object in if needed).
    pub fn read_element<T: Element>(&self, handle: &ArrayHandle<T>, index: usize) -> T {
        self.try_read_element(handle, index)
            .unwrap_or_else(|e| panic!("read_element failed: {e}"))
    }

    /// Fallible [`Self::read_element`].
    pub fn try_read_element<T: Element>(
        &self,
        handle: &ArrayHandle<T>,
        index: usize,
    ) -> DsmResult<T> {
        let view = self.try_view(handle)?;
        view.as_slice()
            .get(index)
            .copied()
            .ok_or(DsmError::IndexOutOfBounds {
                obj: handle.id,
                index,
                len: handle.len,
            })
    }

    /// Read-modify-write the object's elements in place through a closure
    /// (a scoped [`Self::view_mut`]).
    pub fn update<T: Element>(&self, handle: &ArrayHandle<T>, f: impl FnOnce(&mut [T])) {
        let mut view = self.view_mut(handle);
        f(&mut view);
    }

    /// Overwrite the whole object with new contents.
    pub fn write_all<T: Element>(&self, handle: &ArrayHandle<T>, values: &[T]) {
        assert_eq!(values.len(), handle.len, "write length mismatch");
        self.view_mut(handle).copy_from_slice(values);
    }

    /// Overwrite a single element.
    pub fn write_element<T: Element>(&self, handle: &ArrayHandle<T>, index: usize, value: T) {
        assert!(index < handle.len, "element index out of range");
        self.view_mut(handle)[index] = value;
    }

    // ------------------------------------------------------------------
    // Synchronization
    // ------------------------------------------------------------------

    /// Acquire a distributed lock (entering a `synchronized` block). Opens a
    /// new consistency interval: cached copies are conservatively
    /// invalidated, exactly as the paper's Java-consistency GOS does.
    ///
    /// Fails with [`DsmError::ViewsOutstanding`] if object views are live.
    pub fn try_acquire(&self, lock: LockId) -> DsmResult<()> {
        self.ensure_quiescent()?;
        let node = self.shared.node;
        if SYNC_MANAGER == node {
            let req = self.shared.new_req();
            let rx = self.shared.register_pending(req);
            let outcome = self.shared.engine.lock_acquire(lock, node, req);
            match outcome {
                LockAcquireOutcome::Granted => {
                    // Nobody will ever send the grant; complete it ourselves
                    // so the pending table stays clean.
                    self.shared
                        .deliver_local(req, ProtocolMsg::LockGrant { req, lock });
                }
                LockAcquireOutcome::Queued => {}
            }
            let reply = self.shared.wait_reply(&rx);
            self.shared.clock.merge(reply.arrival);
        } else {
            let req = self.shared.new_req();
            let reply = self.shared.request(
                SYNC_MANAGER,
                req,
                ProtocolMsg::LockAcquire {
                    req,
                    lock,
                    requester: node,
                },
            );
            assert!(
                matches!(reply, ProtocolMsg::LockGrant { .. }),
                "unexpected reply to lock acquire: {reply:?}"
            );
        }
        self.shared.engine.note_lock_acquire();
        self.shared.engine.begin_interval();
        Ok(())
    }

    /// Acquire a distributed lock, panicking on misuse.
    ///
    /// # Panics
    /// Panics if object views are live (see [`Self::try_acquire`]).
    pub fn acquire(&self, lock: LockId) {
        self.try_acquire(lock)
            .unwrap_or_else(|e| panic!("acquire failed: {e}"));
    }

    /// Release a distributed lock (leaving a `synchronized` block). All
    /// local writes of the interval are flushed to their homes (diff
    /// propagation) before the lock is handed back.
    ///
    /// Fails with [`DsmError::ViewsOutstanding`] if object views are live.
    pub fn try_release(&self, lock: LockId) -> DsmResult<()> {
        self.ensure_quiescent()?;
        self.flush_interval();
        let node = self.shared.node;
        if SYNC_MANAGER == node {
            let outcome = self.shared.engine.lock_release(lock, node);
            if let Some((next, req)) = outcome.grant_next {
                dispatch_lock_grant(&self.shared, lock, next, req);
            }
        } else if self.shared.fault.is_some() {
            // Under a lossy fabric the release must survive a drop (a lost
            // release wedges every later acquirer of the lock), so it is
            // tracked and retransmitted until the manager acknowledges it.
            let req = self.shared.new_req();
            self.shared.send_tracked(
                SYNC_MANAGER,
                req,
                ProtocolMsg::LockRelease {
                    lock,
                    holder: node,
                    req,
                },
            );
        } else {
            // Lossless fabrics keep the paper-shaped fire-and-forget
            // release; `ReqId(0)` means "no ack expected".
            self.shared.send(
                SYNC_MANAGER,
                ProtocolMsg::LockRelease {
                    lock,
                    holder: node,
                    req: dsm_core::ReqId(0),
                },
            );
        }
        Ok(())
    }

    /// Release a distributed lock, panicking on misuse.
    ///
    /// # Panics
    /// Panics if object views are live (see [`Self::try_release`]).
    pub fn release(&self, lock: LockId) {
        self.try_release(lock)
            .unwrap_or_else(|e| panic!("release failed: {e}"));
    }

    /// Run `f` inside a `synchronized` block on `lock`.
    pub fn synchronized<R>(&self, lock: LockId, f: impl FnOnce() -> R) -> R {
        self.acquire(lock);
        let result = f();
        self.release(lock);
        result
    }

    /// Wait at a global barrier (all nodes participate). Acts as a release
    /// (local writes flushed) followed by an acquire (cached copies
    /// invalidated), exactly like the barriers the paper's iterative
    /// applications are built around.
    ///
    /// Fails with [`DsmError::ViewsOutstanding`] if object views are live.
    pub fn try_barrier(&self, barrier: BarrierId) -> DsmResult<()> {
        self.ensure_quiescent()?;
        self.flush_interval();
        let node = self.shared.node;
        let epoch = {
            let mut epochs = self.barrier_epochs.borrow_mut();
            let e = epochs.entry(barrier).or_insert(0);
            let current = *e;
            *e += 1;
            current
        };
        let req = self.shared.new_req();
        if SYNC_MANAGER == node {
            let rx = self.shared.register_pending(req);
            let outcome = self.shared.engine.barrier_arrive(barrier, node, req);
            if let BarrierOutcome::Complete {
                waiters,
                epoch: done,
            } = outcome
            {
                dispatch_barrier_release(&self.shared, barrier, done, waiters);
            }
            let reply = self.shared.wait_reply(&rx);
            self.shared.clock.merge(reply.arrival);
        } else {
            let reply = self.shared.request(
                SYNC_MANAGER,
                req,
                ProtocolMsg::BarrierArrive {
                    req,
                    barrier,
                    node,
                    epoch,
                },
            );
            assert!(
                matches!(reply, ProtocolMsg::BarrierRelease { .. }),
                "unexpected reply to barrier arrive: {reply:?}"
            );
        }
        self.shared.engine.note_barrier();
        self.shared.engine.begin_interval();
        Ok(())
    }

    /// Wait at a global barrier, panicking on misuse.
    ///
    /// # Panics
    /// Panics if object views are live (see [`Self::try_barrier`]).
    pub fn barrier(&self, barrier: BarrierId) {
        self.try_barrier(barrier)
            .unwrap_or_else(|e| panic!("barrier failed: {e}"));
    }

    // ------------------------------------------------------------------
    // Protocol introspection (tests and invariant checks)
    // ------------------------------------------------------------------

    /// Whether this node is currently the home of the object — protocol
    /// introspection for tests and invariant checks (e.g. "exactly one node
    /// is home at any barrier").
    pub fn is_home<T: Element>(&self, handle: &ArrayHandle<T>) -> bool {
        self.shared.engine.is_home(handle.id)
    }

    /// A snapshot of the object's migration bookkeeping if this node is its
    /// home, `None` otherwise. Exposes the policy-owned scratch and the
    /// previous-home marker, so tests can assert that policy state survives
    /// a home handoff byte-for-byte.
    pub fn migration_state<T: Element>(
        &self,
        handle: &ArrayHandle<T>,
    ) -> Option<dsm_core::MigrationState> {
        self.shared.engine.migration_state(handle.id)
    }

    /// A live snapshot of this node's protocol counters (merged across
    /// engine shards). Counters recorded on the requester side — lock
    /// acquires, barriers, `redirections_suffered` — only advance during
    /// this node's own operations, so sampling them between operations
    /// attributes activity to windows race-free; home-side counters
    /// (`redirections_served`, migrations in/out) can move whenever a peer
    /// makes progress.
    pub fn protocol_stats(&self) -> dsm_core::ProtocolStats {
        self.shared.engine.stats()
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Upper bound on redirection hops before declaring the chain broken.
    /// Epoch-guarded hints make chains monotone (each hop strictly newer),
    /// so the bound only trips on a genuine protocol bug; it is generous
    /// because concurrent migrations can legitimately lengthen a chase.
    fn redirect_limit(&self) -> u32 {
        self.shared.num_nodes as u32 * 2 + 16
    }

    /// Refuse to block on the network while write views are live: the
    /// remote home's server would defer behind our write lease while we
    /// wait for its reply, and two nodes doing this to each other would
    /// deadlock. Read views are safe to hold across a fetch (serving a
    /// fault-in only needs a shared payload lock).
    fn ensure_fetchable(&self, obj: ObjectId) -> DsmResult<()> {
        let writers = self.live_write_views();
        if writers > 0 {
            return Err(DsmError::FetchWithLiveWrites { obj, writers });
        }
        Ok(())
    }

    /// Make sure a valid local copy exists for reading.
    fn ensure_readable(&self, obj: ObjectId) -> DsmResult<()> {
        loop {
            let plan = self.shared.engine.plan_read(obj);
            match plan {
                AccessPlan::LocalHit => return Ok(()),
                AccessPlan::Fetch { target } => {
                    self.ensure_fetchable(obj)?;
                    self.fault_in(obj, false, target);
                }
            }
        }
    }

    /// Make sure a writable local copy exists (twin created as needed).
    fn ensure_writable(&self, obj: ObjectId) -> DsmResult<()> {
        loop {
            let plan = self.shared.engine.plan_write(obj);
            match plan {
                AccessPlan::LocalHit => return Ok(()),
                AccessPlan::Fetch { target } => {
                    self.ensure_fetchable(obj)?;
                    self.fault_in(obj, true, target);
                }
            }
        }
    }

    /// Fault an object in from its (believed) home, following forwarding
    /// pointers until the current home is found.
    fn fault_in(&self, obj: ObjectId, for_write: bool, mut target: NodeId) {
        let node = self.shared.node;
        let mut redirections = 0u32;
        loop {
            debug_assert_ne!(target, node, "fault-in aimed at the requester itself");
            let req = self.shared.new_req();
            let reply = self.shared.request(
                target,
                req,
                ProtocolMsg::ObjectRequest {
                    req,
                    obj,
                    requester: node,
                    for_write,
                    redirections,
                },
            );
            match reply {
                ProtocolMsg::ObjectReply {
                    data,
                    version,
                    migration,
                    ..
                } => {
                    self.shared
                        .engine
                        .install_object(obj, data, version, migration);
                    return;
                }
                ProtocolMsg::ObjectRedirect {
                    new_home, epoch, ..
                } => {
                    redirections += 1;
                    assert!(
                        redirections <= self.redirect_limit(),
                        "redirection chain for {obj} did not converge"
                    );
                    let engine = &self.shared.engine;
                    engine.note_redirect(obj, new_home, epoch);
                    // Chase the hint — but never ourselves: a (stale) hint
                    // pointing back at the requester falls back to our own
                    // forward belief, which the epoch guard kept intact.
                    target = if new_home == node {
                        engine.home_hint(obj)
                    } else {
                        new_home
                    };
                }
                other => panic!("unexpected reply to object request: {other:?}"),
            }
        }
    }

    /// Flush every dirty object of the current interval to its home and
    /// close the interval.
    ///
    /// With flush batching enabled (the default), the plans are grouped by
    /// their believed home and each group of two or more travels as one
    /// `DiffBatch` message — one per-message start-up time instead of one
    /// per object. Singleton groups (and every flush when batching is
    /// disabled) take the paper-faithful one-`DiffFlush`-per-object path.
    fn flush_interval(&self) {
        let plans = self.shared.engine.prepare_release();
        if self.shared.flush_batching {
            for batch in group_flush_plans(plans) {
                if batch.entries.len() == 1 {
                    let mut entries = batch.entries;
                    self.flush_plan(entries.pop().expect("length checked"), 0);
                } else {
                    self.flush_batch(batch);
                }
            }
        } else {
            for plan in plans {
                self.flush_plan(plan, 0);
            }
        }
        self.shared.engine.finish_release();
    }

    /// Adopt a flush-redirect hint (epoch-guarded) and return the node to
    /// retry at: the hinted home — but never ourselves; a (stale) hint
    /// pointing back at the flusher falls back to our own forward belief,
    /// which the epoch guard kept intact. Shared by the individual-flush
    /// chase and the per-entry re-plan of a redirected batch entry, so the
    /// two paths can never drift apart.
    fn retarget_after_redirect(&self, obj: ObjectId, new_home: NodeId, epoch: u32) -> NodeId {
        let engine = &self.shared.engine;
        engine.note_redirect(obj, new_home, epoch);
        if new_home == self.shared.node {
            engine.home_hint(obj)
        } else {
            new_home
        }
    }

    /// Flush one diff to its home, following forwarding pointers until the
    /// current home acknowledges it. `redirections` seeds the hop count (a
    /// batch entry re-planned after a per-entry redirect starts at 1, so
    /// the home that finally applies it sees the same negative feedback
    /// `R_i` as an individually redirected flush).
    fn flush_plan(&self, plan: FlushPlan, redirections: u32) {
        let node = self.shared.node;
        let mut target = plan.target;
        let mut redirections = redirections;
        loop {
            let req = self.shared.new_req();
            let reply = self.shared.request(
                target,
                req,
                ProtocolMsg::DiffFlush {
                    req,
                    obj: plan.obj,
                    // The plan keeps its diff for a redirected re-send; the
                    // copy is two memcpys whatever the run count.
                    diff: plan.diff.clone(),
                    from: node,
                    redirections,
                },
            );
            match reply {
                ProtocolMsg::DiffAck { version, .. } => {
                    self.shared.engine.complete_flush(plan.obj, version);
                    break;
                }
                ProtocolMsg::DiffRedirect {
                    new_home, epoch, ..
                } => {
                    redirections += 1;
                    assert!(
                        redirections <= self.redirect_limit(),
                        "diff redirection chain for {} did not converge",
                        plan.obj
                    );
                    target = self.retarget_after_redirect(plan.obj, new_home, epoch);
                }
                other => panic!("unexpected reply to diff flush: {other:?}"),
            }
        }
    }

    /// Flush a group of same-home diffs as one `DiffBatch` message and
    /// resolve the per-entry results of its ack: applied entries complete
    /// immediately; entries whose home migrated mid-flight come back as
    /// per-entry redirects and are re-planned individually through the
    /// usual epoch-guarded [`Self::flush_plan`] chase.
    fn flush_batch(&self, mut batch: FlushBatch) {
        let node = self.shared.node;
        let engine = &self.shared.engine;
        engine.note_diff_batch(batch.entries.len());
        let req = self.shared.new_req();
        let entries: Vec<DiffBatchEntry> = batch
            .entries
            .iter()
            .map(|plan| DiffBatchEntry {
                obj: plan.obj,
                diff: plan.diff.clone(),
            })
            .collect();
        let reply = self.shared.request(
            batch.target,
            req,
            ProtocolMsg::DiffBatch {
                req,
                entries,
                from: node,
            },
        );
        let ProtocolMsg::DiffBatchAck { results, .. } = reply else {
            panic!("unexpected reply to diff batch: {reply:?}");
        };
        assert_eq!(
            results.len(),
            batch.entries.len(),
            "diff batch ack must resolve every entry"
        );
        for result in results {
            match result.status {
                DiffEntryStatus::Applied { version } => {
                    engine.complete_flush(result.obj, version);
                }
                DiffEntryStatus::Redirect { new_home, epoch } => {
                    let target = self.retarget_after_redirect(result.obj, new_home, epoch);
                    // Each entry resolves once, so the retained plan (and
                    // its diff) moves into the individual chase.
                    let pos = batch
                        .entries
                        .iter()
                        .position(|plan| plan.obj == result.obj)
                        .expect("ack result matches a batch entry");
                    let plan = batch.entries.swap_remove(pos);
                    self.flush_plan(FlushPlan { target, ..plan }, 1);
                }
            }
        }
    }
}

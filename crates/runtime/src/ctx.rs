//! The application-facing node context.
//!
//! A [`NodeCtx`] is handed to the application closure on every node. It is
//! the analogue of the paper's GOS runtime interface as seen by a Java
//! thread: transparent object access (fault-ins, twins and diffs happen
//! behind the scenes), `synchronized`-style locking, barriers, and a hook to
//! charge modelled computation time. Each blocking operation — a fault-in,
//! a diff or batch flush, a lock acquire, a barrier — is a `dsm-core`
//! [`ClientOp`] that [`NodeCtx`] runs request by request; this module holds
//! no protocol messages or chases of its own.
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
//! A view of a valid copy takes the engine lock once: `lease_read` /
//! `lease_write` plan the access, arm a write's twin and take the payload
//! guard in one call. A miss faults the object in and leases again. The
//! synchronization operations follow the same rule: a lock acquire or a
//! barrier counts itself and opens the next interval inside its
//! [`ClientOp`] step, when the grant or the release arrives.
//!
//! Every access has a **fallible form** (`try_view`, `try_view_mut`,
//! `try_acquire`, `try_release`, `try_barrier`) returning
//! [`DsmResult`]; protocol misuse — unknown objects, size-mismatched
//! handles, conflicting views, synchronizing with live views — surfaces as
//! a typed [`DsmError`] instead of tearing down the node thread. The
//! panicking short forms (`view`, `acquire`, ...) are thin wrappers kept
//! for application code where misuse is a bug.

use crate::handle::ArrayHandle;
use crate::node::{NodeLink, NodeShared};
use crate::view::{ReadView, WriteView};
use dsm_core::step::{self, ClientOp};
use dsm_core::Lease;
use dsm_model::{SimDuration, SimTime};
use dsm_objspace::{BarrierId, DsmError, DsmResult, Element, LockId, NodeId, ObjectId};
use dsm_util::{IdMap, SmallRng};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Duration;

/// Live-view bookkeeping: a positive count of shared views, or -1 for the
/// exclusive write view.
const WRITER: isize = -1;

/// The per-node application context.
pub struct NodeCtx {
    shared: Arc<NodeShared>,
    barrier_epochs: RefCell<IdMap<BarrierId, u64>>,
    /// Objects with live views in this context (see [`WRITER`]). Guards
    /// same-thread aliasing so a conflict surfaces as a typed error instead
    /// of a lock-up on the payload lease.
    active_views: RefCell<IdMap<ObjectId, isize>>,
}

impl NodeCtx {
    pub(crate) fn new(shared: Arc<NodeShared>) -> Self {
        NodeCtx {
            shared,
            barrier_epochs: RefCell::new(IdMap::default()),
            active_views: RefCell::new(IdMap::default()),
        }
    }

    #[cfg(test)]
    pub(crate) fn shared(&self) -> &Arc<NodeShared> {
        &self.shared
    }

    /// This node's identity.
    pub fn node_id(&self) -> NodeId {
        self.shared.node
    }

    /// Number of nodes in the cluster.
    pub fn num_nodes(&self) -> usize {
        self.shared.engine.num_nodes()
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
        handle.validate(self.shared.engine.registry())
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
        // One engine call plans the read and takes the payload guard. A miss
        // faults the object in and leases again: a server step may move the
        // copy on before the retry.
        let guard = loop {
            match self.shared.engine.lease_read(obj) {
                Lease::Hit(guard) => break guard,
                Lease::Fetch { target } => self.fault_in(obj, false, target)?,
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
        // As in `try_view`; the hit also arms the twin/diff bookkeeping in
        // the same engine call.
        let guard = loop {
            match self.shared.engine.lease_write(obj) {
                Lease::Hit(guard) => break guard,
                Lease::Fetch { target } => self.fault_in(obj, true, target)?,
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
        self.shared.rearm_deferred();
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
        if values.len() != handle.len {
            // The handle is validated, so its length is the object's size.
            return Err(DsmError::SizeMismatch {
                obj: handle.id,
                registered_bytes: handle.len * T::SIZE,
                handle_bytes: values.len() * T::SIZE,
            });
        }
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

    /// Read-modify-write the object's elements in place through a closure
    /// (a scoped [`Self::view_mut`]).
    pub fn update<T: Element>(&self, handle: &ArrayHandle<T>, f: impl FnOnce(&mut [T])) {
        let mut view = self.view_mut(handle);
        f(&mut view);
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
        self.run(ClientOp::Acquire(lock));
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
        self.shared.release_lock(lock);
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
        let epoch = {
            let mut epochs = self.barrier_epochs.borrow_mut();
            let e = epochs.entry(barrier).or_insert(0);
            let current = *e;
            *e += 1;
            current
        };
        self.run(ClientOp::Arrive(barrier, epoch));
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

    /// A live snapshot of this node's protocol counters. Counters recorded
    /// on the requester side — lock acquires, barriers,
    /// `redirections_suffered` — only advance during this node's own
    /// operations, so sampling them between operations attributes activity
    /// to windows race-free; home-side counters (`redirections_served`,
    /// migrations in/out) can move whenever a peer makes progress.
    pub fn protocol_stats(&self) -> dsm_core::ProtocolStats {
        self.shared.engine.stats()
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Run a blocking client operation to completion: each of its requests
    /// goes out through [`NodeShared::request`] (a request to this node
    /// itself is served inline), and each reply goes back to the operation.
    /// A chase past [`step::redirect_limit`] hops panics, naming the chase;
    /// the op adopts a redirect only after [`Self::pace_chase`]'s pause.
    fn run(&self, mut op: ClientOp) {
        loop {
            let req = self.shared.engine.new_req();
            let (dst, msg) = op.request(&self.shared.engine, req);
            let reply = self.shared.request(dst, req, msg);
            if op.on_reply(&self.shared.engine, reply) {
                return;
            }
            let redirections = op.redirections();
            assert!(
                redirections <= step::redirect_limit(self.num_nodes()),
                "{op} did not converge"
            );
            self.pace_chase(redirections);
        }
    }

    /// Slow a long redirection chase down on TCP. There a migration grant
    /// and the redirect it causes reach the new home on different sockets,
    /// so a chaser can bounce between the old and the new home faster than
    /// the new home's reader delivers the grant; counted in hops alone, the
    /// chase gives the grant about a millisecond to land. Past `num_nodes`
    /// hops each further hop waits 100 µs longer than the last, so the
    /// whole [`step::redirect_limit`] budget spans tens of milliseconds.
    /// The other fabrics never wait: the sim has no real time, and a
    /// node's single in-process inbound queue delivers a grant before any
    /// redirect it caused.
    fn pace_chase(&self, redirections: u32) {
        let excess = redirections.saturating_sub(self.shared.engine.num_nodes() as u32);
        if excess > 0 && matches!(self.shared.link, NodeLink::Tcp(_)) {
            std::thread::sleep(Duration::from_micros(100) * excess);
        }
    }

    /// Fault `obj` in from `target`, its believed home. Refused while
    /// write views are live: the remote home's server would defer behind our
    /// write lease while we wait for its reply, and two nodes doing this to
    /// each other would deadlock. Read views are safe to hold across a
    /// fetch (serving a fault-in only needs a shared payload lock).
    fn fault_in(&self, obj: ObjectId, for_write: bool, target: NodeId) -> DsmResult<()> {
        let writers = self.live_write_views();
        if writers > 0 {
            return Err(DsmError::FetchWithLiveWrites { obj, writers });
        }
        self.run(ClientOp::fault_in(obj, for_write, target));
        Ok(())
    }

    /// Flush every dirty object of the current interval to its home and
    /// close the interval. With flush batching enabled (the default), each
    /// group of two or more plans for one believed home travels as one
    /// `DiffBatch` message — one per-message start-up time instead of one
    /// per object ([`step::release_ops`]).
    fn flush_interval(&self) {
        let engine = &self.shared.engine;
        for op in step::release_ops(engine, self.shared.flush_batching) {
            self.run(op);
        }
        engine.finish_release();
    }
}

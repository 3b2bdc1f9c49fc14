//! The event-driven node executor: wake-on-send server scheduling on a
//! bounded worker pool.
//!
//! A protocol server is a non-blocking message pump, idle whenever no
//! message is in flight, so it does not need a thread of its own. This
//! module multiplexes the server-side protocol handling of *all* nodes of
//! a threaded or TCP cluster onto a small pool of worker threads, driven
//! by **wake-on-send notifications** from the fabric instead of timers:
//!
//! * Every enqueue into a node's inbound queue fires the fabric's
//!   [`dsm_net::WakeNotifier`] hook, which marks the destination node
//!   *runnable* and unparks one worker. A quiet cluster performs **zero**
//!   timer wakeups — parked workers sit on a condvar until a message
//!   actually arrives.
//! * A worker claims a runnable node and runs one **handler step**: it
//!   drains a bounded batch of inbound messages through
//!   [`crate::node::serve_envelope`] (replies complete pending requests,
//!   `Busy` outcomes park on the node's deferral queue) and retries the
//!   deferral queue after each message.
//! * The per-entry Busy-deferral queue **re-arms the node's runnable bit**
//!   instead of re-polling: a `Busy` outcome can only originate from a live
//!   application view holding the payload lease, so the view guard's drop
//!   (see [`crate::view`]) fires [`RearmHook::lease_released`], which
//!   re-schedules the node exactly when the deferred work can make
//!   progress. The handshake below makes this lost-wakeup-free.
//!
//! ## The node state machine
//!
//! Each node carries an atomic scheduling state with four values — `IDLE`,
//! `QUEUED` (in the run queue), `RUNNING` (a worker is stepping it) and
//! `RUNNING_NOTIFIED` (a wake arrived mid-step). [`ExecShared::schedule`]
//! transitions `IDLE → QUEUED` (push + unpark) or `RUNNING →
//! RUNNING_NOTIFIED` (the finishing worker re-queues the node itself), and
//! is a no-op in the other states, so a node is in the run queue **at most
//! once** and never stepped by two workers concurrently — per-node message
//! handling stays serialized.
//!
//! ## The Busy re-arm handshake
//!
//! A worker that ends a step with a non-empty deferral queue publishes
//! `has_deferred = true`, snapshots the node's `rearm_epoch`, and gives the
//! queue one final retry. The view-guard dropper (running on the
//! application thread, strictly *after* the payload lease is released)
//! increments `rearm_epoch` and schedules the node if it observes
//! `has_deferred`. All accesses are `SeqCst`, so either the dropper sees
//! `has_deferred` (and re-schedules), or the worker's final retry ran after
//! the lease release (and drains the entry), or the worker observes the
//! epoch moved and re-queues the node itself — in every interleaving the
//! deferred work is retried after the release, with no polling.
//!
//! ## Why handler steps cannot deadlock
//!
//! Handler steps never block: the engine only ever takes `try_` payload
//! locks and reports `Busy`, workers take the node's serve lock (a leaf
//! lock, uncontended — at most one worker runs a node) and the run-queue
//! mutex, never both while calling into the engine, and the termination
//! check reads only atomics and queue depths. An application thread blocked
//! on the network therefore always has a responsive (schedulable) server.
//!
//! ## TCP teardown: the leave handshake
//!
//! Channels can simply be dropped; sockets cannot, because a peer reading
//! a closed connection mid-protocol would see an error instead of an
//! orderly end of stream. The handshake is single-phase and leans on
//! per-link FIFO. Once shutdown has been requested (the pool's application
//! threads joined), a handler step that leaves its node's inbound and
//! deferral queues empty announces a `Leave` frame on every outgoing link:
//! "this node's application is done". The pool keeps serving (one-way
//! `LockRelease` / `HomeNotify` stragglers may still arrive) until every
//! peer's leave has been read, at which point every peer's application is
//! done too, no further frame can arrive and the termination check lets
//! the workers exit. In an in-process cluster a single phase suffices
//! because shutdown is only requested after every application thread has
//! joined: nothing is blocked on a reply, so the in-flight residue is
//! fire-and-forget messages whose handling sends nothing back, and FIFO
//! makes the leave the last frame each peer reads from us. A
//! multi-process worker hosts one node, so it leaves when its *own*
//! application is done; it keeps serving its peers' requests, and its
//! replies follow its leave on the same link.
//!
//! The sim fabric keeps its own virtual-time scheduler (`crate::sim`) and
//! never touches this module.

use crate::node::{retry_deferred, serve_envelope, NodeShared, ServeState};
use crate::report::SchedulerReport;
use dsm_net::WakeNotifier;
use dsm_objspace::NodeId;
use dsm_util::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Condvar};

/// Node scheduling states (see the module docs).
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const RUNNING_NOTIFIED: u8 = 3;

/// Upper bound on messages drained in one handler step, so one flooded
/// node cannot starve the rest of the pool; a capped step re-queues its
/// node behind the already-runnable ones.
const STEP_BATCH: usize = 64;

/// Per-node scheduling state.
struct NodeSched {
    /// `IDLE` / `QUEUED` / `RUNNING` / `RUNNING_NOTIFIED`.
    state: AtomicU8,
    /// Bumped by the application thread on every view-lease release; the
    /// worker-side epoch comparison closes the re-arm race window.
    rearm_epoch: AtomicU64,
    /// Whether the node's last completed step left deferred work behind
    /// (published so lease releases know to re-schedule).
    has_deferred: AtomicBool,
    /// Length of the deferral queue after the node's last step — read by
    /// the termination check without taking the serve lock.
    deferred_len: AtomicUsize,
    /// The node's serve-side state, behind a leaf mutex that is uncontended
    /// in steady state (the state machine admits one worker per node); the
    /// lock exists so the state survives hand-offs between workers.
    serve: Mutex<ServeState>,
}

impl NodeSched {
    fn new() -> Self {
        NodeSched {
            state: AtomicU8::new(IDLE),
            rearm_epoch: AtomicU64::new(0),
            has_deferred: AtomicBool::new(false),
            deferred_len: AtomicUsize::new(0),
            serve: Mutex::new(ServeState::default()),
        }
    }
}

/// The run queue and pool bookkeeping, behind the executor's one mutex.
struct RunQueue {
    /// Nodes in `QUEUED` state, FIFO.
    runnable: VecDeque<usize>,
    /// Workers currently inside a handler step.
    active: usize,
    /// Workers parked on the condvar.
    parked: usize,
    /// Shutdown has been requested (teardown may still need steps).
    shutdown: bool,
    /// Every queue is drained post-shutdown; workers exit.
    done: bool,
    runnable_hwm: usize,
    parked_hwm: usize,
}

/// State shared by the workers, the fabric's wake hook and the re-arm
/// hooks. Deliberately does **not** hold the `NodeShared`s (they hold
/// `RearmHook`s back into this struct; an `Arc` cycle would leak) — workers
/// borrow the node slice for the duration of the run instead.
pub(crate) struct ExecShared {
    queue: Mutex<RunQueue>,
    idle: Condvar,
    nodes: Box<[NodeSched]>,
    /// Cluster node ids by executor slot (identity for in-process runners;
    /// a single entry for a multi-process TCP worker).
    ids: Box<[NodeId]>,
    steps: AtomicU64,
    idle_steps: AtomicU64,
    wakeups: AtomicU64,
    renotifies: AtomicU64,
    rearm_requeues: AtomicU64,
}

impl WakeNotifier for ExecShared {
    fn wake(&self, node: NodeId) {
        if let Some(slot) = self.slot(node) {
            self.schedule(slot);
        }
    }
}

impl ExecShared {
    /// Map a cluster node id to its executor slot. In-process runners use
    /// the identity mapping; a multi-process TCP worker hosts one node
    /// under slot 0.
    fn slot(&self, node: NodeId) -> Option<usize> {
        let guess = node.0 as usize;
        if self.ids.get(guess) == Some(&node) {
            return Some(guess);
        }
        self.ids.iter().position(|&id| id == node)
    }

    /// Mark a node runnable: `IDLE → QUEUED` enqueues it and unparks one
    /// worker; `RUNNING → RUNNING_NOTIFIED` tells the stepping worker to
    /// re-queue it; `QUEUED`/`RUNNING_NOTIFIED` are no-ops. Callers enqueue
    /// the triggering message *before* scheduling, so a node observed
    /// `IDLE` here either gets queued or is already being (re)stepped —
    /// wakes are never lost.
    pub(crate) fn schedule(&self, node: usize) {
        let state = &self.nodes[node].state;
        loop {
            match state.compare_exchange(IDLE, QUEUED, SeqCst, SeqCst) {
                Ok(_) => {
                    self.wakeups.fetch_add(1, SeqCst);
                    {
                        let mut q = self.queue.lock();
                        q.runnable.push_back(node);
                        q.runnable_hwm = q.runnable_hwm.max(q.runnable.len());
                    }
                    self.idle.notify_one();
                    return;
                }
                Err(RUNNING) => {
                    if state
                        .compare_exchange(RUNNING, RUNNING_NOTIFIED, SeqCst, SeqCst)
                        .is_ok()
                    {
                        self.renotifies.fetch_add(1, SeqCst);
                        return;
                    }
                    // The step finished (or another wake landed) between the
                    // two CASes; re-examine from the top.
                }
                Err(_) => return, // QUEUED or RUNNING_NOTIFIED: already armed
            }
        }
    }

    /// Claim the next runnable node, parking until one appears. Returns
    /// `None` when the pool is done (shutdown requested and every queue
    /// drained).
    fn next_runnable(&self, shareds: &[Arc<NodeShared>]) -> Option<usize> {
        let mut q = self.queue.lock();
        loop {
            if q.done {
                return None;
            }
            if let Some(node) = q.runnable.pop_front() {
                let was = self.nodes[node].state.swap(RUNNING, SeqCst);
                debug_assert_eq!(was, QUEUED, "popped a node that was not queued");
                q.active += 1;
                return Some(node);
            }
            if q.shutdown && q.active == 0 && self.all_drained(shareds) {
                q.done = true;
                self.idle.notify_all();
                return None;
            }
            q.parked += 1;
            q.parked_hwm = q.parked_hwm.max(q.parked);
            q = self
                .idle
                .wait(q)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            q.parked -= 1;
        }
    }

    /// Whether every node's inbound and deferral queues are empty (and, on
    /// the TCP fabric, every peer's leave has been received). Reads only
    /// atomics — never a serve lock — so it cannot invert lock order
    /// against a stepping worker.
    fn all_drained(&self, shareds: &[Arc<NodeShared>]) -> bool {
        shareds.iter().enumerate().all(|(slot, shared)| {
            self.nodes[slot].deferred_len.load(SeqCst) == 0 && shared.link_drained()
        })
    }

    /// Run one handler step of `node`: drain up to [`STEP_BATCH`] inbound
    /// messages through [`serve_envelope`], retry the deferral queue, and
    /// execute the Busy re-arm handshake. Returns whether the node must be
    /// re-queued immediately (batch cap hit, or the re-arm epoch moved
    /// under the final retry).
    fn run_step(&self, node: usize, shared: &Arc<NodeShared>) -> bool {
        self.steps.fetch_add(1, SeqCst);
        let sched = &self.nodes[node];
        let mut serve = sched.serve.lock();
        let entered_empty = serve.deferred.is_empty();
        let mut handled = 0usize;
        while handled < STEP_BATCH {
            let Some(envelope) = shared.link_try_recv() else {
                break;
            };
            handled += 1;
            serve_envelope(shared, envelope, &mut serve);
            retry_deferred(shared, &mut serve);
        }
        let mut requeue = handled == STEP_BATCH && shared.link_pending() > 0;

        // Busy re-arm endgame (see the module docs): publish, snapshot the
        // epoch, retry once more, then compare.
        if serve.deferred.is_empty() {
            sched.has_deferred.store(false, SeqCst);
        } else {
            sched.has_deferred.store(true, SeqCst);
            let epoch = sched.rearm_epoch.load(SeqCst);
            retry_deferred(shared, &mut serve);
            if serve.deferred.is_empty() {
                sched.has_deferred.store(false, SeqCst);
            } else if sched.rearm_epoch.load(SeqCst) != epoch {
                self.rearm_requeues.fetch_add(1, SeqCst);
                requeue = true;
            }
        }
        debug_assert!(
            !serve.deferred.is_empty() || serve.partials.is_empty(),
            "batch partials outlived their deferred entries"
        );
        sched.deferred_len.store(serve.deferred.len(), SeqCst);

        // TCP teardown: a step that leaves the node fully drained after
        // shutdown announces the leave (idempotent; see the module docs).
        if shared.should_shutdown() && serve.deferred.is_empty() && shared.link_pending() == 0 {
            shared.link_announce_leave();
        }

        if handled == 0 && entered_empty {
            self.idle_steps.fetch_add(1, SeqCst);
        }
        requeue
    }

    /// Return a stepped node to `IDLE`, honouring mid-step notifications,
    /// and run the termination check. The re-queue happens *before* the
    /// active count drops, so a concurrent termination check can never
    /// observe "no work" while a hand-off is in flight.
    fn finish_step(&self, node: usize, shareds: &[Arc<NodeShared>], requeue: bool) {
        let was = self.nodes[node].state.swap(IDLE, SeqCst);
        debug_assert!(
            was == RUNNING || was == RUNNING_NOTIFIED,
            "finished a node that was not running"
        );
        if was == RUNNING_NOTIFIED || requeue {
            self.schedule(node);
        }
        let mut q = self.queue.lock();
        q.active -= 1;
        if q.shutdown
            && !q.done
            && q.active == 0
            && q.runnable.is_empty()
            && self.all_drained(shareds)
        {
            q.done = true;
            self.idle.notify_all();
        }
    }
}

/// The bounded worker pool driving one cluster run.
pub(crate) struct Executor {
    shared: Arc<ExecShared>,
    workers: usize,
}

impl Executor {
    /// Create a pool of `workers` threads scheduling the given nodes
    /// (`ids[slot]` is the cluster identity of executor slot `slot`).
    pub(crate) fn new(ids: Vec<NodeId>, workers: usize) -> Self {
        assert!(workers > 0, "executor needs at least one worker");
        let nodes: Box<[NodeSched]> = ids.iter().map(|_| NodeSched::new()).collect();
        Executor {
            shared: Arc::new(ExecShared {
                queue: Mutex::new(RunQueue {
                    runnable: VecDeque::new(),
                    active: 0,
                    parked: 0,
                    shutdown: false,
                    done: false,
                    runnable_hwm: 0,
                    parked_hwm: 0,
                }),
                idle: Condvar::new(),
                nodes,
                ids: ids.into_boxed_slice(),
                steps: AtomicU64::new(0),
                idle_steps: AtomicU64::new(0),
                wakeups: AtomicU64::new(0),
                renotifies: AtomicU64::new(0),
                rearm_requeues: AtomicU64::new(0),
            }),
            workers,
        }
    }

    /// Number of worker threads the pool was sized for.
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    /// The wake hook to install into the fabric (`WakeHub::install` /
    /// `TcpEndpoint::install_notifier`).
    pub(crate) fn notifier(&self) -> Arc<dyn WakeNotifier> {
        Arc::clone(&self.shared) as Arc<dyn WakeNotifier>
    }

    /// The re-arm hook for the node in executor slot `slot` (attached to
    /// its `NodeShared` so view-lease releases re-schedule it).
    pub(crate) fn hook(&self, slot: usize) -> RearmHook {
        RearmHook {
            exec: Arc::clone(&self.shared),
            node: slot,
        }
    }

    /// Schedule every node once. Wakes that fired before the notifier was
    /// installed were dropped (the fabric is created first), so the pool
    /// must sweep every inbound queue once before relying on wake-on-send —
    /// essential for multi-process TCP workers, where remote peers may
    /// have sent before this process finished wiring up.
    pub(crate) fn prime(&self) {
        for slot in 0..self.shared.nodes.len() {
            self.shared.schedule(slot);
        }
    }

    /// Begin teardown: mark shutdown, schedule every node for its drain
    /// step (the TCP leave announcement happens there) and unpark everyone
    /// so the termination check runs.
    pub(crate) fn begin_shutdown(&self) {
        self.shared.queue.lock().shutdown = true;
        for slot in 0..self.shared.nodes.len() {
            self.shared.schedule(slot);
        }
        self.idle_notify_all();
    }

    fn idle_notify_all(&self) {
        // Touch the queue lock so a worker between its empty-check and its
        // park cannot miss the notification.
        drop(self.shared.queue.lock());
        self.shared.idle.notify_all();
    }

    /// One worker's main loop: claim runnable nodes and step them until the
    /// pool is done.
    pub(crate) fn run_worker(&self, shareds: &[Arc<NodeShared>]) {
        while let Some(node) = self.shared.next_runnable(shareds) {
            let requeue = self.shared.run_step(node, &shareds[node]);
            self.shared.finish_step(node, shareds, requeue);
        }
    }

    /// The scheduling counters of the finished run.
    pub(crate) fn report(&self, queue_depth_high_watermark: usize) -> SchedulerReport {
        let shared = &self.shared;
        let q = shared.queue.lock();
        SchedulerReport {
            workers: self.workers,
            steps: shared.steps.load(SeqCst),
            wakeups: shared.wakeups.load(SeqCst),
            idle_wakeups: shared.idle_steps.load(SeqCst),
            renotifies: shared.renotifies.load(SeqCst),
            rearm_requeues: shared.rearm_requeues.load(SeqCst),
            runnable_high_watermark: q.runnable_hwm,
            parked_high_watermark: q.parked_hwm,
            queue_depth_high_watermark,
        }
    }
}

/// The per-node re-arm hook held by a `NodeShared`: view-lease releases
/// re-schedule the node through it.
pub(crate) struct RearmHook {
    exec: Arc<ExecShared>,
    node: usize,
}

impl RearmHook {
    /// Called by the application thread after a view's payload lease is
    /// truly released (the guard has dropped). Bumps the re-arm epoch and
    /// re-schedules the node if its last step left deferred work.
    pub(crate) fn lease_released(&self) {
        let sched = &self.exec.nodes[self.node];
        sched.rearm_epoch.fetch_add(1, SeqCst);
        if sched.has_deferred.load(SeqCst) {
            self.exec.schedule(self.node);
        }
    }
}

impl std::fmt::Debug for RearmHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RearmHook")
            .field("node", &self.node)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exec(nodes: usize) -> Executor {
        Executor::new((0..nodes).map(|n| NodeId(n as u16)).collect(), 2)
    }

    #[test]
    fn schedule_queues_an_idle_node_exactly_once() {
        let e = exec(2);
        e.shared.schedule(1);
        e.shared.schedule(1); // QUEUED: no-op
        let q = e.shared.queue.lock();
        assert_eq!(q.runnable, vec![1]);
        assert_eq!(q.runnable_hwm, 1);
        drop(q);
        assert_eq!(e.shared.wakeups.load(SeqCst), 1);
    }

    #[test]
    fn notification_during_a_step_requeues_via_the_state_machine() {
        let e = exec(1);
        // Simulate a worker mid-step: QUEUED -> RUNNING as next_runnable does.
        e.shared.schedule(0);
        {
            let mut q = e.shared.queue.lock();
            let node = q.runnable.pop_front().unwrap();
            e.shared.nodes[node].state.swap(RUNNING, SeqCst);
            q.active += 1;
        }
        // A wake lands while the step runs: no queue push, just the flag.
        e.shared.schedule(0);
        assert_eq!(e.shared.renotifies.load(SeqCst), 1);
        assert!(e.shared.queue.lock().runnable.is_empty());
        // The finishing worker observes the flag and re-queues the node.
        e.shared.finish_step(0, &[], false);
        let q = e.shared.queue.lock();
        assert_eq!(q.runnable, vec![0]);
        assert_eq!(q.active, 0);
        assert_eq!(e.shared.wakeups.load(SeqCst), 2);
    }

    #[test]
    fn lease_release_reschedules_only_with_deferred_work() {
        let e = exec(1);
        let hook = e.hook(0);
        hook.lease_released();
        assert!(e.shared.queue.lock().runnable.is_empty());
        assert_eq!(e.shared.nodes[0].rearm_epoch.load(SeqCst), 1);
        e.shared.nodes[0].has_deferred.store(true, SeqCst);
        hook.lease_released();
        assert_eq!(e.shared.queue.lock().runnable, vec![0]);
        assert_eq!(e.shared.nodes[0].rearm_epoch.load(SeqCst), 2);
    }

    #[test]
    fn slot_maps_identity_and_single_node_workers() {
        let cluster = exec(4);
        assert_eq!(cluster.shared.slot(NodeId(3)), Some(3));
        assert_eq!(cluster.shared.slot(NodeId(4)), None);
        let worker = Executor::new(vec![NodeId(7)], 1);
        assert_eq!(worker.shared.slot(NodeId(7)), Some(0));
        assert_eq!(worker.shared.slot(NodeId(0)), None);
    }
}

//! The event-driven node executor: wake-on-send server scheduling on a
//! bounded worker pool.
//!
//! A protocol server is a non-blocking message pump, idle whenever no
//! message is in flight, so it does not need a thread of its own. This
//! module multiplexes the server-side protocol handling of *all* nodes of
//! a threaded or TCP cluster onto a small pool of worker threads, driven
//! by **wake-on-send notifications** from the fabric instead of timers:
//!
//! * Every push onto a node's [`dsm_net::Inbox`] fires its
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
//!   (see [`crate::view`]) fires [`ExecHook::lease_released`], which
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
//! ## Helping
//!
//! An application thread waiting for a reply acts as a worker
//! ([`HelpWindow`]): it steps runnable nodes, any node, until its reply is
//! in, and parks only when nothing is left to step. So on one CPU a remote
//! fault-in runs request, home step, reply and requester step on the
//! requester's thread with no OS handoff. A thread that releases a lock
//! helps too, around its one-way `LockRelease` (`NodeShared::release_lock`),
//! until nothing is left to step, so the manager's step runs on it. A
//! helper claims and releases nodes exactly as a worker does, and never
//! claims after shutdown.
//!
//! So another thread is woken only when it sleeps: a completion notifies
//! its waiter only if the waiter parked on its reply slot, and a parked
//! worker wakes only for a node queued while no thread helps, or still
//! queued when the last helper leaves.
//!
//! On TCP a frame reaches the run queue only once some thread reads it
//! from its socket, so a helper that finds the queue empty reads the
//! served nodes' links itself (`TcpEndpoint::drain_ready`), which queues
//! the nodes of the frames it delivers, and steps those. It parks only when
//! no node is queued and no link is readable, or being read by another
//! thread (which may hold a frame it has taken from the socket but not yet
//! queued). Since a reader queues what it reads before it releases the
//! link, a last look at the run queue after that then settles it. In an
//! in-process cluster the fault-in above thus runs request write, read at
//! the home, home step, reply write, read at the requester and requester
//! step on one thread; the endpoints' I/O threads (see `dsm_net`'s TCP
//! module) only read what arrives while no thread helps. A frame can still
//! reach its socket after the helper's last look (the kernel may defer a
//! loopback delivery under load); the I/O thread then reads it and a
//! worker serves it, as without helping.
//!
//! A worker woken meanwhile would only race the helper, so while any
//! thread helps, [`ExecShared::schedule`] queues without unparking one. No
//! wake is lost: a helper increments `helpers` *before* sending its
//! request; leaving, it decrements it, then takes the queue lock and
//! unparks one parked worker per queued node. `schedule` pushes under that
//! lock, then reads the count (all `SeqCst`). A push that took the lock
//! first is seen by the leaving helper; otherwise the decrement happened
//! before the push, so `schedule` reads zero and unparks a worker, or
//! counts helpers that all take the lock after the push and see it.
//!
//! A helper rarely parks, so on the threaded fabric a lock release, after
//! its help, yields its CPU to runnable peers that may want the lock (on
//! TCP it measured no gain). On several CPUs a helper runs steps a second
//! worker could have run beside it: throughput still rises, but so does
//! tail latency.
//!
//! ## Why handler steps cannot deadlock
//!
//! Handler steps never block on the threaded fabric: the engine only ever
//! takes `try_` payload locks and reports `Busy`, steppers take the node's
//! serve lock (a leaf lock, one stepper per node) and the run-queue mutex,
//! never both while calling into the engine, and the termination check
//! reads only atomics and queue depths. On TCP a step may block in a socket
//! write, as on a worker. That write completes: the peer endpoint's I/O
//! thread never writes, so it keeps draining every link, whatever the
//! peer's helpers and workers are blocked on. A helper reading a link holds
//! only that link's read lock, a leaf lock taken neither while stepping nor
//! while writing, and never waits for it. A helper holds no lock while it
//! steps and its live views only make the engine report `Busy`, so every
//! blocked application thread always has a responsive (schedulable)
//! server.
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

use crate::node::{retry_deferred, serve_envelope, NodeLink, NodeShared};
use crate::report::SchedulerReport;
use dsm_core::step::ServeState;
use dsm_net::WakeNotifier;
use dsm_objspace::NodeId;
use dsm_util::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Weak};

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
    /// Workers and helpers currently inside a handler step.
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

/// State shared by the workers, the helpers and the hooks. It holds the
/// served nodes weakly: each holds an [`ExecHook`] back into this struct.
pub(crate) struct ExecShared {
    queue: Mutex<RunQueue>,
    idle: Condvar,
    nodes: Box<[NodeSched]>,
    /// Cluster node ids by executor slot (identity for in-process runners;
    /// a single entry for a multi-process TCP worker).
    ids: Box<[NodeId]>,
    servers: Box<[Weak<NodeShared>]>,
    /// Whether the served nodes are on the TCP fabric, whose links a helper
    /// reads itself.
    tcp: bool,
    /// Application threads inside a [`HelpWindow`].
    helpers: AtomicUsize,
    steps: AtomicU64,
    helped_steps: AtomicU64,
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
    /// worker unless a thread is helping (see "Helping" in the module
    /// docs); `RUNNING → RUNNING_NOTIFIED` tells the stepping thread to
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
                        if q.done {
                            // A TCP leave's wake can trail the pool's end.
                            state.store(IDLE, SeqCst);
                            return;
                        }
                        q.runnable.push_back(node);
                        q.runnable_hwm = q.runnable_hwm.max(q.runnable.len());
                    }
                    if self.helpers.load(SeqCst) == 0 {
                        self.idle.notify_one();
                    }
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

    /// Claim the queue's next node for a step (`QUEUED → RUNNING`).
    fn pop(&self, q: &mut RunQueue) -> Option<usize> {
        let node = q.runnable.pop_front()?;
        let was = self.nodes[node].state.swap(RUNNING, SeqCst);
        debug_assert_eq!(was, QUEUED, "popped a node that was not queued");
        q.active += 1;
        Some(node)
    }

    /// Claim the next runnable node, parking until one appears. Returns
    /// `None` when the pool is done (shutdown requested and every queue
    /// drained).
    fn next_runnable(&self) -> Option<usize> {
        let mut q = self.queue.lock();
        loop {
            if q.done {
                return None;
            }
            if let Some(node) = self.pop(&mut q) {
                return Some(node);
            }
            if q.shutdown && q.active == 0 && self.all_drained() {
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
    fn all_drained(&self) -> bool {
        let mut nodes = self.servers.iter().zip(&*self.nodes);
        nodes.all(|(server, sched)| {
            let drained = server.upgrade().is_none_or(|shared| shared.link_drained());
            drained && sched.deferred_len.load(SeqCst) == 0
        })
    }

    /// Read, on the calling thread, what has arrived on the served nodes'
    /// TCP links (see `TcpEndpoint::drain_ready`); 0 on the threaded fabric.
    fn drain_links(&self) -> usize {
        if !self.tcp {
            return 0;
        }
        let servers = self.servers.iter().filter_map(Weak::upgrade);
        // The first endpoint with frames is enough: the helper steps the
        // node they queued, then looks again.
        servers
            .map(|server| server.drain_link())
            .find(|&n| n > 0)
            .unwrap_or(0)
    }

    /// Run one handler step of a claimed node, then release the claim, on
    /// unwind too: a panicking step leaves no node `RUNNING` behind.
    fn step(&self, node: usize) {
        struct Claim<'a>(&'a ExecShared, usize, bool);
        impl Drop for Claim<'_> {
            fn drop(&mut self) {
                self.0.finish_step(self.1, self.2);
            }
        }
        let mut claim = Claim(self, node, false);
        let shared = self.servers[node].upgrade().expect("node outlives run");
        claim.2 = self.run_step(node, &shared);
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
        let entered_empty = serve.deferred() == 0;
        let mut handled = 0usize;
        while handled < STEP_BATCH {
            let Some(envelope) = shared.inbox().try_recv() else {
                break;
            };
            handled += 1;
            serve_envelope(shared, envelope, &mut serve);
            retry_deferred(shared, &mut serve);
        }
        let mut requeue = handled == STEP_BATCH && !shared.inbox().is_empty();

        // Busy re-arm endgame (see the module docs): publish, snapshot the
        // epoch, retry once more, then compare.
        if serve.deferred() == 0 {
            sched.has_deferred.store(false, SeqCst);
        } else {
            sched.has_deferred.store(true, SeqCst);
            let epoch = sched.rearm_epoch.load(SeqCst);
            retry_deferred(shared, &mut serve);
            if serve.deferred() == 0 {
                sched.has_deferred.store(false, SeqCst);
            } else if sched.rearm_epoch.load(SeqCst) != epoch {
                self.rearm_requeues.fetch_add(1, SeqCst);
                requeue = true;
            }
        }
        sched.deferred_len.store(serve.deferred(), SeqCst);

        // TCP teardown: a step that leaves the node fully drained after
        // shutdown announces the leave (idempotent; see the module docs).
        if shared.should_shutdown() && serve.deferred() == 0 && shared.inbox().is_empty() {
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
    fn finish_step(&self, node: usize, requeue: bool) {
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
        if q.shutdown && !q.done && q.active == 0 && q.runnable.is_empty() && self.all_drained() {
            q.done = true;
            self.idle.notify_all();
        }
    }
}

/// An application thread's turn as a worker while it waits for a reply
/// (see "Helping" in the module docs). Opened before the request is sent;
/// dropping it hands anything still queued to the parked workers.
pub(crate) struct HelpWindow<'a>(&'a ExecShared);

impl HelpWindow<'_> {
    /// Step queued nodes until `done` holds, nothing is queued or (on TCP)
    /// readable, or shutdown has been requested, then close the window.
    pub(crate) fn help(self, done: impl Fn() -> bool) {
        let exec = self.0;
        let claim = || {
            let mut q = exec.queue.lock();
            (!q.shutdown).then(|| exec.pop(&mut q)).flatten()
        };
        while !done() {
            // On TCP, reading the frames that arrived queues their nodes.
            // Once no link is readable or being read, every frame that
            // arrived is queued, so one more look settles it.
            let node = match claim() {
                Some(node) => node,
                None if exec.drain_links() > 0 => continue,
                None if !exec.tcp => break,
                None => match claim() {
                    Some(node) => node,
                    None => break,
                },
            };
            exec.helped_steps.fetch_add(1, SeqCst);
            exec.step(node);
        }
    }
}

impl Drop for HelpWindow<'_> {
    fn drop(&mut self) {
        self.0.helpers.fetch_sub(1, SeqCst);
        let q = self.0.queue.lock();
        for _ in 0..q.runnable.len().min(q.parked) {
            self.0.idle.notify_one();
        }
    }
}

/// The bounded worker pool driving one cluster run.
pub(crate) struct Executor {
    shared: Arc<ExecShared>,
    workers: usize,
}

impl Executor {
    /// Create a pool of `workers` threads serving `shareds` (slot `i` is
    /// `shareds[i]`) and wire each node to it: its inbox wakes the pool, and
    /// its [`ExecHook`] re-arms deferred work and opens help windows.
    pub(crate) fn new(shareds: &[Arc<NodeShared>], workers: usize) -> Self {
        assert!(workers > 0, "executor needs at least one worker");
        let shared = Arc::new(ExecShared {
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
            nodes: shareds.iter().map(|_| NodeSched::new()).collect(),
            ids: shareds.iter().map(|shared| shared.node).collect(),
            servers: shareds.iter().map(Arc::downgrade).collect(),
            tcp: shareds.iter().any(|s| matches!(s.link, NodeLink::Tcp(_))),
            helpers: AtomicUsize::new(0),
            steps: AtomicU64::new(0),
            helped_steps: AtomicU64::new(0),
            idle_steps: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
            renotifies: AtomicU64::new(0),
            rearm_requeues: AtomicU64::new(0),
        });
        for (node, server) in shareds.iter().enumerate() {
            server.inbox().install_notifier(Arc::clone(&shared) as _);
            server.attach_exec(ExecHook {
                exec: Arc::clone(&shared),
                node,
            });
        }
        Executor { shared, workers }
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

    /// Begin teardown: schedule every node for its drain step (the TCP
    /// leave announcement happens there), then mark shutdown and unpark
    /// everyone so the termination check runs, which then cannot pass
    /// before every drain step is queued.
    pub(crate) fn begin_shutdown(&self) {
        for slot in 0..self.shared.nodes.len() {
            self.shared.schedule(slot);
        }
        self.shared.queue.lock().shutdown = true;
        self.shared.idle.notify_all();
    }

    /// One worker's main loop: claim runnable nodes and step them until the
    /// pool is done.
    pub(crate) fn run_worker(&self) {
        while let Some(node) = self.shared.next_runnable() {
            self.shared.step(node);
        }
    }

    /// The finished run's counters. Debug builds check that it left nothing
    /// active and no node claimed or queued (bar a trailing TCP wake).
    pub(crate) fn report(&self) -> SchedulerReport {
        let shared = &self.shared;
        let q = shared.queue.lock();
        let claimed = shared.nodes.iter().any(|n| n.state.load(SeqCst) >= RUNNING);
        debug_assert!(
            q.active == 0 && q.runnable.is_empty() && !claimed,
            "the pool finished with a node claimed or queued"
        );
        let servers = shared.servers.iter().filter_map(Weak::upgrade);
        let inbox_hwm = servers.map(|s| s.inbox().high_watermark()).max();
        SchedulerReport {
            workers: self.workers,
            steps: shared.steps.load(SeqCst),
            helped_steps: shared.helped_steps.load(SeqCst),
            wakeups: shared.wakeups.load(SeqCst),
            idle_wakeups: shared.idle_steps.load(SeqCst),
            renotifies: shared.renotifies.load(SeqCst),
            rearm_requeues: shared.rearm_requeues.load(SeqCst),
            runnable_high_watermark: q.runnable_hwm,
            parked_high_watermark: q.parked_hwm,
            queue_depth_high_watermark: inbox_hwm.unwrap_or(0),
        }
    }
}

/// A served node's handle on the executor, held by its `NodeShared`:
/// view-lease releases re-schedule the node through it, and its
/// application thread helps through it while waiting for a reply.
pub(crate) struct ExecHook {
    exec: Arc<ExecShared>,
    node: usize,
}

impl ExecHook {
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

    /// Count the calling application thread as helping; call it before
    /// sending the request whose reply it will wait for.
    pub(crate) fn open_window(&self) -> HelpWindow<'_> {
        self.exec.helpers.fetch_add(1, SeqCst);
        HelpWindow(&self.exec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_core::step::SYNC_MANAGER;
    use dsm_core::{ProtocolConfig, ProtocolEngine, ProtocolMsg, ReqId};
    use dsm_model::{ComputeModel, NetworkParams, SimDuration};
    use dsm_net::{Fabric, StatsCollector, TcpConfig, TcpFabric};
    use dsm_objspace::LockId;
    use dsm_wire::ProtocolCodec;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::thread;
    use std::time::{Duration, Instant};

    /// One unserved node per link, in node order.
    fn nodes_on(links: Vec<NodeLink>) -> Vec<Arc<NodeShared>> {
        let nodes = links.len();
        let shared = |(node, link)| {
            let config = ProtocolConfig::no_migration();
            let engine = ProtocolEngine::new(NodeId::from(node), nodes, config, Arc::default());
            let compute = ComputeModel::free();
            NodeShared::new(engine, link, compute, SimDuration::ZERO, 0, true, None)
        };
        links.into_iter().enumerate().map(shared).collect()
    }

    /// Every node of a `nodes`-node threaded fabric, unserved.
    fn served(nodes: usize) -> Vec<Arc<NodeShared>> {
        let fabric = Fabric::new(nodes, NetworkParams::ideal(), StatsCollector::new());
        nodes_on(
            fabric
                .into_endpoints()
                .into_iter()
                .map(NodeLink::Threaded)
                .collect(),
        )
    }

    /// Every node of a `nodes`-node TCP fabric on 127.0.0.1, unserved.
    fn served_tcp(nodes: usize) -> Vec<Arc<NodeShared>> {
        let (params, stats) = (NetworkParams::ideal(), StatsCollector::new());
        let tcp = TcpConfig::default();
        let fabric = TcpFabric::bind_local::<ProtocolCodec>(nodes, params, stats, tcp);
        let endpoints = fabric.expect("bind 127.0.0.1").into_endpoints();
        nodes_on(endpoints.into_iter().map(NodeLink::Tcp).collect())
    }

    fn wait_until(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// A hook into `e` for opening help windows.
    fn hook(e: &Executor) -> ExecHook {
        ExecHook {
            exec: Arc::clone(&e.shared),
            node: 0,
        }
    }

    fn parked(e: &Executor) -> usize {
        e.shared.queue.lock().parked
    }

    /// Run `body` beside `workers` pool workers, then shut the pool down,
    /// also when `body` panics, so a failed check does not hang the test.
    fn with_workers(e: &Executor, workers: usize, body: impl FnOnce()) {
        struct Shutdown<'a>(&'a Executor);
        impl Drop for Shutdown<'_> {
            fn drop(&mut self) {
                self.0.begin_shutdown();
            }
        }
        thread::scope(|scope| {
            (0..workers).for_each(|_| drop(scope.spawn(|| e.run_worker())));
            let _shutdown = Shutdown(e);
            wait_until("the workers park", || parked(e) == workers);
            body();
        });
    }

    #[test]
    fn schedule_queues_an_idle_node_exactly_once() {
        let nodes = served(2);
        let e = Executor::new(&nodes, 2);
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
        let nodes = served(1);
        let e = Executor::new(&nodes, 2);
        // Simulate a worker mid-step: QUEUED -> RUNNING as next_runnable does.
        e.shared.schedule(0);
        assert_eq!(e.shared.pop(&mut e.shared.queue.lock()), Some(0));
        // A wake lands while the step runs: no queue push, just the flag.
        e.shared.schedule(0);
        assert_eq!(e.shared.renotifies.load(SeqCst), 1);
        assert!(e.shared.queue.lock().runnable.is_empty());
        // The finishing worker observes the flag and re-queues the node.
        e.shared.finish_step(0, false);
        let q = e.shared.queue.lock();
        assert_eq!(q.runnable, vec![0]);
        assert_eq!(q.active, 0);
        assert_eq!(e.shared.wakeups.load(SeqCst), 2);
    }

    #[test]
    fn lease_release_reschedules_only_with_deferred_work() {
        let nodes = served(1);
        let e = Executor::new(&nodes, 2);
        nodes[0].view_lease_released();
        assert!(e.shared.queue.lock().runnable.is_empty());
        assert_eq!(e.shared.nodes[0].rearm_epoch.load(SeqCst), 1);
        e.shared.nodes[0].has_deferred.store(true, SeqCst);
        nodes[0].view_lease_released();
        assert_eq!(e.shared.queue.lock().runnable, vec![0]);
        assert_eq!(e.shared.nodes[0].rearm_epoch.load(SeqCst), 2);
    }

    #[test]
    fn slot_maps_identity_and_single_node_workers() {
        let nodes = served(8);
        let cluster = Executor::new(&nodes[..4], 2);
        assert_eq!(cluster.shared.slot(NodeId(3)), Some(3));
        assert_eq!(cluster.shared.slot(NodeId(4)), None);
        let worker = Executor::new(&nodes[7..], 1);
        assert_eq!(worker.shared.slot(NodeId(7)), Some(0));
        assert_eq!(worker.shared.slot(NodeId(0)), None);
    }

    /// While a thread helps, a wake queues the node and leaves the parked
    /// worker alone; the helper steps the node itself.
    #[test]
    fn schedule_in_a_help_window_queues_without_waking_a_worker() {
        let nodes = served(1);
        let e = Executor::new(&nodes, 1);
        with_workers(&e, 1, || {
            let hook = hook(&e);
            let window = hook.open_window();
            e.shared.schedule(0);
            thread::sleep(Duration::from_millis(20));
            assert_eq!(e.shared.queue.lock().runnable, vec![0]);
            assert_eq!(parked(&e), 1, "a wake in a help window unparked the worker");
            window.help(|| false);
            assert_eq!(e.shared.helped_steps.load(SeqCst), 1);
            assert_eq!(e.shared.steps.load(SeqCst), 1);
        });
    }

    /// A helper leaving with work still queued hands it to one parked
    /// worker per queued node: one node wakes exactly one of two workers,
    /// two nodes wake both.
    #[test]
    fn a_helper_leaving_with_queued_work_wakes_one_worker_per_node() {
        for queued in [1, 2] {
            let nodes = served(2);
            let e = Executor::new(&nodes, 2);
            with_workers(&e, 2, || {
                let hook = hook(&e);
                let window = hook.open_window();
                (0..queued).for_each(|node| e.shared.schedule(node));
                // The woken workers block inside their steps until these drop.
                let serves: Vec<_> = e.shared.nodes.iter().map(|n| n.serve.lock()).collect();
                drop(window);
                wait_until("the workers claim the nodes", || {
                    e.shared.queue.lock().active == queued
                });
                thread::sleep(Duration::from_millis(20));
                assert_eq!(parked(&e), 2 - queued, "{queued} queued: wrong wakes");
                drop(serves);
                wait_until("the steps end", || parked(&e) == 2);
                assert_eq!(e.shared.steps.load(SeqCst), queued as u64);
                assert_eq!(e.shared.helped_steps.load(SeqCst), 0);
            });
        }
    }

    /// Ten lock acquires and releases from node 1 to the manager of the
    /// two-node cluster `nodes` beside one parked worker: the helped steps,
    /// all steps, and the parked workers at the end.
    fn lock_round_trips(nodes: &[Arc<NodeShared>]) -> (u64, u64, usize) {
        let e = Executor::new(nodes, 1);
        let client = &nodes[1];
        let mut counts = (0, 0, 0);
        with_workers(&e, 1, || {
            for _ in 0..10 {
                let (lock, req) = (LockId(3), client.new_req());
                let requester = client.node;
                let acquire = ProtocolMsg::LockAcquire {
                    req,
                    lock,
                    requester,
                };
                let grant = client.request(SYNC_MANAGER, req, acquire);
                assert!(matches!(grant, ProtocolMsg::LockGrant { .. }), "{grant:?}");
                client.release_lock(lock);
            }
            let (helped, steps) = (&e.shared.helped_steps, &e.shared.steps);
            counts = (helped.load(SeqCst), steps.load(SeqCst), parked(&e));
            // The pool's shutdown then runs the TCP leave handshake.
            nodes.iter().for_each(|node| node.request_shutdown());
        });
        counts
    }

    /// A waiting thread steps the manager and itself, and a releasing
    /// thread steps the manager's release: every handler step of lock round
    /// trips runs on the client's thread, and the parked worker takes none.
    #[test]
    fn threaded_lock_round_trips_run_on_the_waiting_thread_alone() {
        let (helped, steps, parked) = lock_round_trips(&served(2));
        assert_eq!(steps, 30, "two steps per acquire, one per release");
        assert_eq!(helped, steps, "a worker stepped");
        assert_eq!(parked, 1, "the worker woke");
    }

    /// On TCP a waiting thread reads what arrived on the links itself: lock
    /// round trips to the manager run every handler step on the client's
    /// thread, and the parked worker takes none. Under CPU contention the
    /// kernel may hand loopback delivery to its softirq thread, so a frame
    /// can reach its socket after the helper's last look; the helper then
    /// parks and the worker serves the frame, which is correct but not this
    /// path. So one of up to five attempts must be clean.
    #[test]
    fn tcp_lock_round_trips_run_on_the_waiting_thread_alone() {
        let clean = (0..5)
            .map(|_| lock_round_trips(&served_tcp(2)))
            .find(|&(helped, steps, parked)| helped == steps && parked == 1);
        let (_, steps, _) = clean.expect("a worker stepped in every attempt");
        assert_eq!(steps, 30, "two steps per acquire, one per release");
    }

    #[test]
    fn no_helper_claims_a_node_after_begin_shutdown() {
        let nodes = served(2);
        let e = Executor::new(&nodes, 1);
        e.begin_shutdown();
        hook(&e).open_window().help(|| false);
        assert_eq!(e.shared.steps.load(SeqCst), 0);
        assert_eq!(e.shared.queue.lock().runnable, vec![0, 1]);
        assert_eq!(e.shared.helpers.load(SeqCst), 0);
    }

    /// A handler step that panics on a helping thread returns its claim
    /// before the panic leaves the window: the node is `IDLE` again and
    /// nothing counts as active, so teardown does not wait on it.
    #[test]
    fn a_panicking_helped_step_returns_its_claim() {
        let nodes = served(1);
        let e = Executor::new(&nodes, 1);
        let stray = ReqId(99);
        nodes[0].send(
            NodeId(0),
            ProtocolMsg::LockGrant {
                req: stray,
                lock: LockId(1),
            },
        );
        let panic = catch_unwind(AssertUnwindSafe(|| {
            hook(&e).open_window().help(|| false);
        }))
        .expect_err("a reply for an unknown request panics its step");
        let message = panic.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            message.contains("reply for unknown request"),
            "got: {message}"
        );
        assert_eq!(e.shared.nodes[0].state.load(SeqCst), IDLE);
        assert_eq!(e.shared.queue.lock().active, 0);
        assert_eq!(e.shared.helpers.load(SeqCst), 0);
        assert_eq!(e.shared.helped_steps.load(SeqCst), 1);
    }
}

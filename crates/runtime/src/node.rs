//! Per-node shared state and the protocol server.
//!
//! Every simulated node pairs an **application thread** — it runs the user
//! closure through [`crate::NodeCtx`], issues blocking requests
//! (fault-ins, diff flushes, lock acquires, barrier arrivals) and parks on
//! a reply channel — with a **protocol server**: the message pump that
//! takes the node's inbound envelopes, dispatches requests to the protocol
//! engine, sends the produced replies and wakes local waiters. A server is
//! not a thread: its per-envelope step is `serve_envelope` below, and it is
//! driven by exactly one of two callers (see the "Execution model" section
//! of the crate docs) — the wake-on-send worker pool in `crate::exec` on
//! the threaded and TCP fabrics, or the virtual-time loop in `crate::sim`
//! on the sim fabric.
//!
//! Application and server drive the engine directly through `&self` —
//! there is **no node-global engine mutex**. The [`ProtocolEngine`] is
//! internally lock-striped by `ObjectId`, so an object request being
//! served here never contends with the application thread touching a
//! different object, and the pending-reply table is striped by request id
//! the same way (see the "Locking architecture" section of the crate
//! docs).
//!
//! The server **never blocks on object payloads**: when the engine reports
//! a `Busy` outcome (the application holds a zero-copy view of the copy a
//! request needs), the message is parked on the node's deferral queue and
//! retried after subsequent messages — plus, under the executor, whenever
//! the deferral re-arm wakes the node (the application dropping a view
//! re-notifies it). Replies to the local application are always processed
//! immediately, which is what makes it safe for the application to block
//! on the network while holding *read* views of other objects. Blocking
//! with a live *write* view could still deadlock two nodes through mutual
//! deferral, so the context refuses remote fault-ins in that state
//! (`DsmError::FetchWithLiveWrites`).

use crate::fault::{self, FaultState};
use crate::vclock::VirtualClock;
use dsm_core::sync::{BarrierOutcome, LockAcquireOutcome};
use dsm_core::{
    DiffBatchResult, DiffEntryStatus, DiffOutcome, ObjectRequestOutcome, ProtocolEngine,
    ProtocolMsg, ReqId,
};
use dsm_model::{ComputeModel, SimDuration, SimTime};
use dsm_net::{Endpoint, Envelope, MsgCategory, SimEndpoint, TcpEndpoint};
use dsm_objspace::{NodeId, ObjectRegistry};
use dsm_util::channel::{bounded, Receiver, Sender};
use dsm_util::Mutex;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Whether protocol tracing (`DSM_TRACE=1`) is enabled; resolved once.
/// Unset, empty and `0` all mean disabled.
pub(crate) fn trace_enabled() -> bool {
    static TRACE: OnceLock<bool> = OnceLock::new();
    *TRACE.get_or_init(|| std::env::var("DSM_TRACE").is_ok_and(|v| !v.is_empty() && v != "0"))
}

/// A node's attachment to whichever fabric the cluster runs on.
///
/// The threaded fabric gives every node a channel endpoint drained by the
/// executor's handler steps; the sim fabric gives it a handle into the
/// central virtual-time scheduler (and carries the agent park/wake
/// notifications of the quiescence protocol — see `crate::sim`).
pub(crate) enum NodeLink {
    /// Channel endpoint of the threaded [`dsm_net::Fabric`].
    Threaded(Endpoint<ProtocolMsg>),
    /// Handle into the deterministic [`dsm_net::SimFabric`].
    Sim(SimEndpoint<ProtocolMsg>),
    /// Socket endpoint of the real [`dsm_net::TcpFabric`] (messages travel
    /// over `127.0.0.1` TCP connections in the `dsm-wire` binary format).
    Tcp(TcpEndpoint<ProtocolMsg>),
}

impl NodeLink {
    fn send(
        &self,
        dst: NodeId,
        category: MsgCategory,
        bytes: u64,
        now: SimTime,
        msg: ProtocolMsg,
    ) -> SimTime {
        match self {
            NodeLink::Threaded(ep) => ep.send(dst, category, bytes, now, msg),
            NodeLink::Sim(ep) => ep.send(dst, category, bytes, now, msg),
            NodeLink::Tcp(ep) => ep.send(dst, category, bytes, now, msg),
        }
    }
}

/// A reply hand-off that has been matched to its waiting request but not
/// yet sent to the application thread.
pub(crate) struct SimWake {
    tx: Sender<Reply>,
    reply: Reply,
}

thread_local! {
    /// The sim scheduler's wake buffer. While `Some`, replies completed on
    /// this thread are parked here instead of waking the application thread
    /// immediately; the scheduler flushes them *after* the current handler
    /// step, so a woken application never runs concurrently with server
    /// logic (which would let two threads race on one link's send order and
    /// break trace determinism).
    static SIM_WAKES: RefCell<Option<Vec<SimWake>>> = const { RefCell::new(None) };
}

/// Park a wake in the thread's buffer; returns it back when buffering is
/// not enabled on this thread (the caller then delivers inline).
fn try_buffer_wake(wake: SimWake) -> Option<SimWake> {
    SIM_WAKES.with(|buffer| match &mut *buffer.borrow_mut() {
        Some(wakes) => {
            wakes.push(wake);
            None
        }
        None => Some(wake),
    })
}

/// Enable wake buffering on the calling (scheduler) thread.
pub(crate) fn enable_wake_buffering() {
    SIM_WAKES.with(|buffer| *buffer.borrow_mut() = Some(Vec::new()));
}

/// Disable wake buffering on the calling thread.
///
/// # Panics
/// Panics if un-flushed wakes would be dropped (scheduler bug).
pub(crate) fn disable_wake_buffering() {
    SIM_WAKES.with(|buffer| {
        let left = buffer.borrow_mut().take();
        assert!(
            left.is_none_or(|wakes| wakes.is_empty()),
            "sim scheduler dropped buffered wakes"
        );
    });
}

/// Drain the calling thread's buffered wakes.
pub(crate) fn take_buffered_wakes() -> Vec<SimWake> {
    SIM_WAKES.with(|buffer| match &mut *buffer.borrow_mut() {
        Some(wakes) => std::mem::take(wakes),
        None => Vec::new(),
    })
}

impl SimWake {
    /// Deliver the buffered reply, waking the application thread.
    pub(crate) fn deliver(self) {
        // The application thread may have already given up only if the
        // whole run is being torn down; losing the reply is then fine.
        let _ = self.tx.send(self.reply);
    }
}

/// A reply delivered to a blocked application-thread request.
#[derive(Debug)]
pub(crate) struct Reply {
    /// The reply message.
    pub msg: ProtocolMsg,
    /// Virtual arrival time of the reply at this node.
    pub arrival: SimTime,
}

/// Number of stripes of the pending-reply table. Request ids are allocated
/// sequentially per node, so consecutive in-flight requests land on
/// different stripes; a power of two keeps the index a mask.
const PENDING_STRIPES: usize = 8;

/// One stripe of the pending-reply table.
type PendingStripe = Mutex<HashMap<ReqId, Sender<Reply>>>;

/// State shared between one node's application thread and its protocol
/// server.
pub(crate) struct NodeShared {
    pub node: NodeId,
    pub num_nodes: usize,
    /// The internally lock-striped engine; both threads call it directly.
    pub engine: ProtocolEngine,
    pub registry: Arc<ObjectRegistry>,
    pub link: NodeLink,
    pub clock: VirtualClock,
    pub compute: ComputeModel,
    pub handling_cost: SimDuration,
    pub seed: u64,
    /// Whether the release path groups same-home diff flushes into
    /// `DiffBatch` messages (see `ClusterBuilder::flush_batching`).
    pub flush_batching: bool,
    /// Timeout/retry, dedup and home re-election state — `Some` only on
    /// lossy sim fabrics, where messages can be dropped (see `crate::fault`).
    pub fault: Option<FaultState>,
    /// Pending-reply senders, striped by request id so completing a reply
    /// for one request never contends with registering another.
    pending: Box<[PendingStripe]>,
    next_req: AtomicU64,
    shutdown: AtomicBool,
    /// The executor's re-arm hook (unset on the sim fabric): view-lease
    /// releases re-schedule this node's server steps through it.
    rearm: OnceLock<crate::exec::RearmHook>,
}

impl NodeShared {
    pub fn new(
        engine: ProtocolEngine,
        link: NodeLink,
        compute: ComputeModel,
        handling_cost: SimDuration,
        seed: u64,
        flush_batching: bool,
        fault: Option<FaultState>,
    ) -> Arc<Self> {
        Arc::new(NodeShared {
            node: engine.node(),
            num_nodes: engine.num_nodes(),
            registry: Arc::clone(engine.registry()),
            engine,
            link,
            clock: VirtualClock::new(),
            compute,
            handling_cost,
            seed,
            flush_batching,
            fault,
            pending: (0..PENDING_STRIPES)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            next_req: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            rearm: OnceLock::new(),
        })
    }

    /// Attach the executor's re-arm hook (first attach wins; sim runs never
    /// attach one).
    pub(crate) fn attach_rearm(&self, hook: crate::exec::RearmHook) {
        let _ = self.rearm.set(hook);
    }

    /// Called (indirectly, from the view guards' trailing drop signal)
    /// after a view's payload lease has truly been released: re-arms the
    /// executor's deferred work for this node. No-op on the sim fabric.
    pub(crate) fn view_lease_released(&self) {
        if let Some(hook) = self.rearm.get() {
            hook.lease_released();
        }
    }

    /// Route this node's arrival notifications to the executor's wake hook.
    /// (All endpoints of a threaded fabric share one hub; the first install
    /// wins.)
    pub(crate) fn link_install_notifier(&self, notifier: Arc<dyn dsm_net::WakeNotifier>) {
        match &self.link {
            NodeLink::Threaded(ep) => ep.wake_hub().install(notifier),
            NodeLink::Tcp(ep) => ep.install_notifier(notifier),
            NodeLink::Sim(_) => unreachable!("executor asked to serve a sim-fabric node"),
        }
    }

    /// Non-blocking receive from this node's fabric endpoint (executor
    /// steps; the sim fabric owns delivery itself and never lands here).
    pub(crate) fn link_try_recv(&self) -> Option<Envelope<ProtocolMsg>> {
        match &self.link {
            NodeLink::Threaded(ep) => ep.try_recv(),
            NodeLink::Tcp(ep) => ep.try_recv(),
            NodeLink::Sim(_) => unreachable!("executor stepped a sim-fabric node"),
        }
    }

    /// Messages currently queued on this node's inbound endpoint.
    pub(crate) fn link_pending(&self) -> usize {
        match &self.link {
            NodeLink::Threaded(ep) => ep.pending(),
            NodeLink::Tcp(ep) => ep.pending(),
            NodeLink::Sim(_) => unreachable!("executor stepped a sim-fabric node"),
        }
    }

    /// Whether the fabric side of this node is fully drained for teardown:
    /// nothing queued, and (on TCP) every peer's leave received.
    pub(crate) fn link_drained(&self) -> bool {
        match &self.link {
            NodeLink::Threaded(ep) => ep.pending() == 0,
            NodeLink::Tcp(ep) => ep.pending() == 0 && ep.all_peers_left(),
            NodeLink::Sim(_) => unreachable!("executor stepped a sim-fabric node"),
        }
    }

    /// Announce the TCP leave frame (idempotent); no-op on other fabrics.
    pub(crate) fn link_announce_leave(&self) {
        if let NodeLink::Tcp(ep) = &self.link {
            ep.announce_leave();
        }
    }

    /// This node's inbound queue-depth high-watermark (`None` on the sim
    /// fabric, which has no per-node inbound queue).
    pub(crate) fn link_queue_high_watermark(&self) -> Option<usize> {
        match &self.link {
            NodeLink::Threaded(ep) => Some(ep.queue_high_watermark()),
            NodeLink::Tcp(ep) => Some(ep.queue_high_watermark()),
            NodeLink::Sim(_) => None,
        }
    }

    /// The pending-table stripe for `req`.
    fn pending_stripe(&self, req: ReqId) -> &PendingStripe {
        &self.pending[(req.0 as usize) & (PENDING_STRIPES - 1)]
    }

    /// Allocate a request id unique within this node.
    pub fn new_req(&self) -> ReqId {
        // The node id is folded into the high bits so request ids are unique
        // cluster-wide, which makes debugging message traces easier.
        let seq = self.next_req.fetch_add(1, Ordering::Relaxed);
        ReqId((u64::from(self.node.0) << 48) | seq)
    }

    /// Register interest in the reply to `req` and return the channel to
    /// wait on.
    pub fn register_pending(&self, req: ReqId) -> Receiver<Reply> {
        let (tx, rx) = bounded(1);
        let previous = self.pending_stripe(req).lock().insert(req, tx);
        assert!(previous.is_none(), "duplicate pending request id {req:?}");
        rx
    }

    /// Deliver a reply to a locally blocked request (no network involved,
    /// e.g. the manager node granting its own lock request).
    pub fn deliver_local(&self, req: ReqId, msg: ProtocolMsg) {
        let arrival = self.clock.now();
        self.complete(req, msg, arrival);
    }

    /// Complete a pending request with a reply that arrived at `arrival`.
    pub fn complete(&self, req: ReqId, msg: ProtocolMsg, arrival: SimTime) {
        if let Some(fault) = &self.fault {
            fault.clear(req);
        }
        let slot = self.pending_stripe(req).lock().remove(&req);
        match slot {
            Some(tx) => {
                let wake = SimWake {
                    tx,
                    reply: Reply { msg, arrival },
                };
                match &self.link {
                    NodeLink::Sim(ep) => {
                        // Scheduler-side completions are buffered so the
                        // woken application resumes only after the handler
                        // step finished (`crate::sim` flushes them, pairing
                        // each with an `agent_unblocked`). App-stack local
                        // deliveries wake inline; the +1 here cancels
                        // against the -1 of the `wait_reply` that follows.
                        if let Some(wake) = try_buffer_wake(wake) {
                            ep.agent_unblocked();
                            wake.deliver();
                        }
                    }
                    NodeLink::Threaded(_) | NodeLink::Tcp(_) => wake.deliver(),
                }
            }
            None => {
                // Under a lossy fabric a request can be answered twice: its
                // reply was re-sent from the server's dedup cache because a
                // retransmission raced the original reply. The duplicate is
                // dropped on the floor.
                assert!(
                    self.fault.is_some(),
                    "reply for unknown request {req:?} delivered to {} ({msg:?})",
                    self.node
                );
            }
        }
    }

    /// Send a one-way protocol message; virtual send time is the node's
    /// current clock. Under a lossy fabric, replies and acknowledgements
    /// are remembered by the request id they answer so duplicates of the
    /// answered request can be served from cache.
    pub fn send(&self, dst: NodeId, msg: ProtocolMsg) {
        fault::note_sent(self, dst, &msg);
        let category = msg.category();
        let bytes = msg.payload_bytes();
        let now = self.clock.now();
        self.link.send(dst, category, bytes, now, msg);
    }

    /// Send a one-way message that must survive loss: tracked for
    /// retransmission until the matching acknowledgement clears it. Falls
    /// back to a plain send on lossless fabrics.
    pub fn send_tracked(&self, dst: NodeId, req: ReqId, msg: ProtocolMsg) {
        if let Some(fault) = &self.fault {
            fault.track(req, dst, msg.clone());
        }
        self.send(dst, msg);
    }

    /// Park until the reply to an already-registered request arrives, and
    /// return it. In sim mode this is the agent-park notification point of
    /// the quiescence protocol: the fabric learns the application thread is
    /// about to block *after* every message it was going to send has been
    /// sent.
    pub fn wait_reply(&self, rx: &Receiver<Reply>) -> Reply {
        if let NodeLink::Sim(ep) = &self.link {
            ep.agent_blocked();
        }
        rx.recv()
            .expect("cluster shut down while a request was outstanding")
    }

    /// Issue a blocking request: send `msg` to `dst`, park until the reply
    /// arrives, merge the reply's arrival time into the local clock and
    /// return the reply message.
    pub fn request(&self, dst: NodeId, req: ReqId, msg: ProtocolMsg) -> ProtocolMsg {
        if trace_enabled() {
            eprintln!("[{}] request -> {} {:?}", self.node, dst, msg);
        }
        let rx = self.register_pending(req);
        if let Some(fault) = &self.fault {
            fault.track(req, dst, msg.clone());
        }
        self.send(dst, msg);
        let reply = self.wait_reply(&rx);
        self.clock.merge(reply.arrival);
        reply.msg
    }

    /// Drop every pending-reply sender, waking parked application threads
    /// with a disconnect. Used by the sim runner to tear the cluster down
    /// after an application panic or a terminal stall (the executor keeps
    /// serving until every application thread joined; the sim scheduler has
    /// no one left to serve for).
    ///
    /// `before_wake` runs once per waiter, under the stripe lock and
    /// **before** the waiter's sender is dropped: each parked waiter was
    /// counted out of the sim fabric's agent tally, and a woken thread
    /// unwinds straight into `agent_finished`, so the caller must re-count
    /// it (`agent_unblocked`) while it is still provably parked — exactly
    /// the order `crate::sim`'s wake flush uses for ordinary replies.
    pub fn abort_pending(&self, mut before_wake: impl FnMut()) {
        if let Some(fault) = &self.fault {
            fault.abort();
        }
        for stripe in self.pending.iter() {
            let mut stripe = stripe.lock();
            for _ in 0..stripe.len() {
                before_wake();
            }
            stripe.clear();
        }
    }

    /// Request the protocol server to stop once its queues are drained.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    pub(crate) fn should_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// Server-local bookkeeping for partially processed diff batches: results
/// of the entries already resolved, keyed by the batch's request id, while
/// the still-busy entries wait on the deferral queue. Purely receiver-side
/// state — it never crosses the wire.
pub(crate) type BatchPartials = HashMap<ReqId, Vec<DiffBatchResult>>;

/// One node's serve-side state: the Busy-deferral queue (messages whose
/// payload store was leased to an application view when they arrived) and
/// the partially resolved diff batches. Owned by whoever drives the node's
/// protocol server — an executor slot or the sim loop.
#[derive(Default)]
pub(crate) struct ServeState {
    pub deferred: VecDeque<(NodeId, ProtocolMsg)>,
    pub partials: BatchPartials,
}

/// Serve one inbound envelope — the single per-envelope step of a protocol
/// server, shared by the executor's handler steps and the sim loop. Replies
/// complete the pending request they answer; requests pass the lossy-run
/// dedup admission and are handed to [`handle_request`], landing on the
/// deferral queue when the engine reports `Busy`. Retrying the deferral
/// queue is the caller's job ([`retry_deferred`]).
pub(crate) fn serve_envelope(
    shared: &Arc<NodeShared>,
    envelope: Envelope<ProtocolMsg>,
    serve: &mut ServeState,
) {
    if trace_enabled() {
        eprintln!(
            "[{}] serve from {} {:?}",
            shared.node, envelope.src, envelope.payload
        );
    }
    // Protocol handling shares the node's (virtual) CPU.
    shared
        .clock
        .merge_and_advance(envelope.arrival, shared.handling_cost);
    let Envelope {
        src,
        arrival,
        payload: msg,
        ..
    } = envelope;
    if msg.is_reply() {
        let req = msg.reply_req().expect("reply carries request id");
        shared.complete(req, msg, arrival);
    } else if !fault::admit_request(shared, &msg) {
        // Duplicate of an already-seen request: absorbed, or answered from
        // the reply cache by `admit_request`.
    } else if let Some(busy) = handle_request(shared, src, msg, &mut serve.partials) {
        serve.deferred.push_back((src, busy));
    }
}

/// Give every deferred message one more chance, preserving arrival order
/// among the still-busy ones.
pub(crate) fn retry_deferred(shared: &Arc<NodeShared>, serve: &mut ServeState) {
    for _ in 0..serve.deferred.len() {
        let (src, msg) = serve.deferred.pop_front().expect("length checked by loop");
        if let Some(busy) = handle_request(shared, src, msg, &mut serve.partials) {
            serve.deferred.push_back((src, busy));
        }
    }
}

/// Dispatch one incoming (non-reply) protocol message. Returns the message
/// back when the engine reported a busy payload store — for a `DiffBatch`,
/// a residual batch holding only the still-busy entries — so the caller can
/// defer and retry it.
fn handle_request(
    shared: &Arc<NodeShared>,
    src: NodeId,
    msg: ProtocolMsg,
    partials: &mut BatchPartials,
) -> Option<ProtocolMsg> {
    // Batches are taken by value: their entries are consumed one at a time
    // and only the busy remainder is re-queued.
    let msg = match msg {
        ProtocolMsg::DiffBatch { req, entries, from } => {
            return handle_diff_batch(shared, req, entries, from, partials)
        }
        other => other,
    };
    match &msg {
        ProtocolMsg::ObjectRequest {
            req,
            obj,
            requester,
            for_write,
            redirections,
        } => {
            let (req, obj, requester) = (*req, *obj, *requester);
            let outcome =
                shared
                    .engine
                    .handle_object_request(obj, requester, *for_write, *redirections);
            match outcome {
                ObjectRequestOutcome::Busy => return Some(msg),
                ObjectRequestOutcome::Reply {
                    data,
                    version,
                    migration,
                    notify,
                } => {
                    // New-home notifications (broadcast / manager mechanisms)
                    // are sent before the reply so their virtual send time is
                    // the migration instant.
                    let epoch = migration.as_ref().map_or(0, |grant| grant.epoch());
                    for target in notify {
                        shared.send(
                            target,
                            ProtocolMsg::HomeNotify {
                                obj,
                                new_home: requester,
                                epoch,
                            },
                        );
                    }
                    shared.send(
                        requester,
                        ProtocolMsg::ObjectReply {
                            req,
                            obj,
                            data,
                            version,
                            migration,
                        },
                    );
                }
                ObjectRequestOutcome::Redirect { hint, epoch } => {
                    shared.send(
                        requester,
                        ProtocolMsg::ObjectRedirect {
                            req,
                            obj,
                            new_home: hint,
                            epoch,
                        },
                    );
                }
            }
        }
        ProtocolMsg::DiffFlush {
            req,
            obj,
            diff,
            from,
            redirections,
        } => {
            let (req, obj, from) = (*req, *obj, *from);
            let outcome = shared.engine.handle_diff(obj, diff, from, *redirections);
            match outcome {
                DiffOutcome::Busy => return Some(msg),
                DiffOutcome::Applied { new_version } => {
                    shared.send(
                        from,
                        ProtocolMsg::DiffAck {
                            req,
                            obj,
                            version: new_version,
                        },
                    );
                }
                DiffOutcome::Redirect { hint, epoch } => {
                    shared.send(
                        from,
                        ProtocolMsg::DiffRedirect {
                            req,
                            obj,
                            new_home: hint,
                            epoch,
                        },
                    );
                }
            }
        }
        ProtocolMsg::LockAcquire {
            req,
            lock,
            requester,
        } => {
            let outcome = shared.engine.lock_acquire(*lock, *requester, *req);
            if outcome == LockAcquireOutcome::Granted {
                shared.send(
                    *requester,
                    ProtocolMsg::LockGrant {
                        req: *req,
                        lock: *lock,
                    },
                );
            }
            // Queued: the grant is sent when the current holder releases.
        }
        ProtocolMsg::LockRelease { lock, holder, req } => {
            let outcome = shared.engine.lock_release(*lock, *holder);
            if let Some((next, grant_req)) = outcome.grant_next {
                dispatch_lock_grant(shared, *lock, next, grant_req);
            }
            // `ReqId(0)` marks the legacy fire-and-forget release of
            // lossless fabrics; a tracked release wants its ack.
            if req.0 != 0 {
                shared.send(
                    *holder,
                    ProtocolMsg::LockReleaseAck {
                        req: *req,
                        lock: *lock,
                    },
                );
            }
        }
        ProtocolMsg::LockReleaseAck { req, .. } => {
            fault::handle_ack(shared, *req);
        }
        ProtocolMsg::BarrierArrive {
            req,
            barrier,
            node,
            epoch,
        } => {
            let outcome = shared.engine.barrier_arrive(*barrier, *node, *req);
            if let BarrierOutcome::Complete {
                waiters,
                epoch: done,
            } = outcome
            {
                debug_assert_eq!(done, *epoch, "barrier epoch mismatch");
                dispatch_barrier_release(shared, *barrier, done, waiters);
            }
        }
        ProtocolMsg::HomeNotify {
            obj,
            new_home,
            epoch,
        } => {
            shared.engine.handle_home_notify(*obj, *new_home, *epoch);
        }
        ProtocolMsg::HomeLookup { req, obj } => {
            let home = shared.engine.handle_home_lookup(*obj);
            shared.send(
                src,
                ProtocolMsg::HomeLookupReply {
                    req: *req,
                    obj: *obj,
                    home,
                },
            );
        }
        ProtocolMsg::HomeElect {
            req,
            obj,
            suspect,
            candidate,
            epoch,
            has_copy,
        } => {
            let (home, epoch) = shared
                .engine
                .handle_home_elect(*obj, *suspect, *candidate, *epoch, *has_copy);
            shared.send(
                src,
                ProtocolMsg::HomeElectReply {
                    req: *req,
                    obj: *obj,
                    home,
                    epoch,
                },
            );
        }
        ProtocolMsg::HomeElectReply {
            req,
            obj,
            home,
            epoch,
        } => {
            fault::handle_elect_reply(shared, *req, *obj, *home, *epoch);
        }
        ProtocolMsg::HomeFence {
            req,
            obj,
            new_home,
            epoch,
        } => {
            shared.engine.handle_home_notify(*obj, *new_home, *epoch);
            shared.send(
                src,
                ProtocolMsg::HomeFenceAck {
                    req: *req,
                    obj: *obj,
                },
            );
        }
        ProtocolMsg::HomeFenceAck { req, .. } => {
            fault::handle_ack(shared, *req);
        }
        ProtocolMsg::Shutdown => {
            shared.request_shutdown();
        }
        other => panic!("server received unexpected message {other:?}"),
    }
    None
}

/// Serve one `DiffBatch`: resolve every entry independently under the
/// engine's shard locks (exactly as k individual `DiffFlush` messages
/// would, preserving the deferral scheme's deadlock-freedom argument), and
/// answer with a single `DiffBatchAck` once no entry is pending.
///
/// * `Applied` / `Redirect` outcomes become per-entry results in the ack —
///   a redirect means the entry's home migrated mid-flight and the flusher
///   re-plans that entry individually.
/// * `Busy` entries (payload leased to a live application view) are
///   returned as a residual batch for the caller's deferral queue, with the
///   already-resolved results parked in `partials`; the server never blocks.
fn handle_diff_batch(
    shared: &Arc<NodeShared>,
    req: ReqId,
    entries: Vec<dsm_core::DiffBatchEntry>,
    from: NodeId,
    partials: &mut BatchPartials,
) -> Option<ProtocolMsg> {
    let mut results = partials.remove(&req).unwrap_or_default();
    let mut still_busy = Vec::new();
    for entry in entries {
        // Entries arrive with zero redirection hops of their own: the batch
        // was addressed directly to the believed home.
        match shared.engine.handle_diff(entry.obj, &entry.diff, from, 0) {
            DiffOutcome::Applied { new_version } => results.push(DiffBatchResult {
                obj: entry.obj,
                status: DiffEntryStatus::Applied {
                    version: new_version,
                },
            }),
            DiffOutcome::Redirect { hint, epoch } => results.push(DiffBatchResult {
                obj: entry.obj,
                status: DiffEntryStatus::Redirect {
                    new_home: hint,
                    epoch,
                },
            }),
            DiffOutcome::Busy => still_busy.push(entry),
        }
    }
    if still_busy.is_empty() {
        shared.send(from, ProtocolMsg::DiffBatchAck { req, results });
        None
    } else {
        partials.insert(req, results);
        Some(ProtocolMsg::DiffBatch {
            req,
            entries: still_busy,
            from,
        })
    }
}

/// Send (or locally deliver) a lock grant to the next holder.
pub(crate) fn dispatch_lock_grant(
    shared: &Arc<NodeShared>,
    lock: dsm_objspace::LockId,
    next: NodeId,
    req: ReqId,
) {
    let grant = ProtocolMsg::LockGrant { req, lock };
    if next == shared.node {
        shared.deliver_local(req, grant);
    } else {
        shared.send(next, grant);
    }
}

/// Send (or locally deliver) barrier releases to every waiter of a completed
/// phase.
pub(crate) fn dispatch_barrier_release(
    shared: &Arc<NodeShared>,
    barrier: dsm_objspace::BarrierId,
    epoch: u64,
    waiters: Vec<(NodeId, ReqId)>,
) {
    for (node, req) in waiters {
        let release = ProtocolMsg::BarrierRelease {
            req,
            barrier,
            epoch,
        };
        if node == shared.node {
            shared.deliver_local(req, release);
        } else {
            shared.send(node, release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_core::ProtocolConfig;
    use dsm_model::NetworkParams;
    use dsm_net::{Fabric, StatsCollector};
    use dsm_util::channel::RecvTimeoutError;
    use std::time::Duration;

    fn lone_node() -> Arc<NodeShared> {
        let endpoint = Fabric::new(1, NetworkParams::ideal(), StatsCollector::new())
            .into_endpoints()
            .pop()
            .expect("one endpoint");
        let engine = ProtocolEngine::new(
            NodeId(0),
            1,
            ProtocolConfig::no_migration(),
            Arc::new(ObjectRegistry::new()),
        );
        NodeShared::new(
            engine,
            NodeLink::Threaded(endpoint),
            ComputeModel::free(),
            SimDuration::ZERO,
            0,
            true,
            None,
        )
    }

    fn woken(rx: &Receiver<Reply>) -> bool {
        match rx.recv_timeout(Duration::ZERO) {
            Err(RecvTimeoutError::Timeout) => false,
            Err(RecvTimeoutError::Disconnected) => true,
            Ok(reply) => panic!("an aborted waiter received {reply:?}"),
        }
    }

    /// The sim teardown re-counts one parked waiter per callback, and a
    /// woken waiter unwinds straight into `agent_finished` — which aborts
    /// the process if it finds the count at 0. So a waiter's callback must
    /// run while its sender is still alive (the receiver reads empty, not
    /// disconnected): at every callback, fewer waiters have been woken than
    /// re-counted.
    #[test]
    fn abort_pending_calls_back_before_each_waiter_is_woken() {
        let shared = lone_node();
        // Consecutive request ids land on distinct stripes.
        let waiters: Vec<Receiver<Reply>> = (0..PENDING_STRIPES + 3)
            .map(|_| shared.register_pending(shared.new_req()))
            .collect();
        let mut calls = 0;
        shared.abort_pending(|| {
            let already_woken = waiters.iter().filter(|rx| woken(rx)).count();
            assert!(
                already_woken <= calls,
                "{already_woken} waiters woken after only {calls} re-counts"
            );
            calls += 1;
        });
        assert_eq!(calls, waiters.len(), "one callback per parked waiter");
        assert!(waiters.iter().all(woken));
    }
}

//! Per-node shared state and the protocol server's per-envelope step.
//!
//! Every simulated node pairs an **application thread** — it runs the user
//! closure through [`crate::NodeCtx`], runs each blocking operation as a
//! [`dsm_core::step::ClientOp`] through [`NodeShared::request`] and waits
//! on the node's reply slot — with a **protocol server**. A server is not
//! a thread: its step is [`serve_envelope`], driven either by the
//! wake-on-send executor in `crate::exec` (threaded and TCP fabrics) or by
//! the virtual-time loop in `crate::sim` (see "Execution model" in the
//! crate docs). The protocol itself is `dsm-core`'s [`dsm_core::step`];
//! this module adds the clock merge, the lossy-run dedup admission, reply
//! completion (with the migration-grant install on arrival), the fault
//! layer's own messages, `Shutdown` and the actual sends. A message a node
//! addresses to itself — the sync manager's own lock and barrier traffic —
//! is served inline on the calling thread ([`NodeShared::post`]).
//!
//! Application and server drive the engine directly through `&self` —
//! there is **no node-global engine mutex**. The [`ProtocolEngine`] is
//! internally lock-striped by `ObjectId`, so an object request being
//! served here never contends with the application thread touching a
//! different object. Replies meet their waiter in one slot per node, keyed
//! by request id: the application thread has at most one request
//! outstanding, so no table is needed (see the "Locking architecture"
//! section of the crate docs).
//!
//! The server **never blocks on object payloads**: when the engine reports
//! a `Busy` outcome (the application holds a zero-copy view of the copy a
//! request needs), the message is parked in the node's [`ServeState`] and
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
use dsm_core::step::{self, ServeState, SYNC_MANAGER};
use dsm_core::{ProtocolEngine, ProtocolMsg, ReqId};
use dsm_model::{ComputeModel, SimDuration, SimTime};
use dsm_net::{Endpoint, Envelope, Inbox, MsgCategory, SimEndpoint, TcpEndpoint};
use dsm_objspace::{LockId, NodeId, ObjectRegistry};
use dsm_util::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, OnceLock, PoisonError};

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

/// The panic message of an application thread woken by, or requesting
/// after, the teardown abort.
const SHUT_DOWN: &str = "cluster shut down while a request was outstanding";

/// A reply delivered to a blocked application-thread request.
#[derive(Debug)]
pub(crate) struct Reply {
    /// The reply message.
    pub msg: ProtocolMsg,
    /// Virtual arrival time of the reply at this node.
    pub arrival: SimTime,
}

/// What a node's [`ReplySlot`] holds.
#[derive(Debug)]
enum SlotState {
    /// No request outstanding.
    Idle,
    /// The application thread waits (or is about to wait) on this request;
    /// `parked` is whether it sleeps on the condvar right now.
    Waiting { req: ReqId, parked: bool },
    /// The reply arrived. `released` is whether the waiter may take it: at
    /// once on the threaded and TCP fabrics; on the sim, only after the
    /// scheduler's wake pass re-counted the parked agent (see
    /// [`NodeShared::release_reply`]).
    Ready { reply: Reply, released: bool },
    /// The run is being torn down; sticky, so late replies are dropped and
    /// later requests fail instead of parking.
    Aborted,
}

/// The one place a node's application thread waits for a reply. The paper's
/// runtime runs one application thread per node, and it blocks on at most
/// one remote request at a time, so one slot keyed by [`ReqId`] matches
/// every reply to its waiter. The mutex is a leaf lock; only the sim's
/// re-count callbacks ([`NodeShared::release_reply`],
/// [`NodeShared::abort_pending`]) take the fabric's agent-count lock under
/// it, and the fabric never calls back. On the executor fabrics a waiter
/// parks only once its help window found nothing left to step, and a
/// completion notifies the condvar only if the waiter is parked: a reply
/// that lands while its waiter still helps (often on the waiter's own
/// thread) is taken with no system call. The sim's wake pass and the
/// teardown abort always notify. The condvar is notified after the lock is
/// released: a waiter woken under it would only block on it again, two
/// more context switches per reply on a busy core (about a sixth of
/// `kv-fixedhome-threaded`'s throughput with benchmark reps pinned to one
/// CPU of a 2-vCPU guest).
struct ReplySlot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

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
    reply: ReplySlot,
    next_req: AtomicU64,
    shutdown: AtomicBool,
    /// The executor's hook, for lease re-arms and help windows (not on sim).
    exec: OnceLock<crate::exec::ExecHook>,
}

impl NodeShared {
    pub(crate) fn new(
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
            reply: ReplySlot {
                state: Mutex::new(SlotState::Idle),
                ready: Condvar::new(),
            },
            next_req: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            exec: OnceLock::new(),
        })
    }

    /// Attach the executor's hook (first attach wins; never on the sim).
    pub(crate) fn attach_exec(&self, hook: crate::exec::ExecHook) {
        let _ = self.exec.set(hook);
    }

    /// Hand `lock` back to the [`SYNC_MANAGER`]. Under a lossy fabric a
    /// release to a remote manager must survive a drop (a lost release
    /// wedges every later acquirer of the lock), so it carries a fresh id
    /// and is retransmitted until acknowledged. Elsewhere it is the paper's
    /// fire-and-forget message (`ReqId(0)`: no ack expected); the manager's
    /// own is served inline. On the executor fabrics the caller helps
    /// around the post until nothing is queued (see "Helping" in
    /// `crate::exec`), so the manager's step runs on this thread and no
    /// parked worker is woken for it. On the threaded fabric, where a
    /// helping thread rarely parks, the caller then yields the CPU so its
    /// runnable peers can ask for the lock.
    pub(crate) fn release_lock(&self, lock: LockId) {
        let tracked = self.fault.is_some() && SYNC_MANAGER != self.node;
        let req = if tracked { self.new_req() } else { ReqId(0) };
        let holder = self.node;
        let window = self.exec.get().map(crate::exec::ExecHook::open_window);
        self.post(SYNC_MANAGER, ProtocolMsg::LockRelease { lock, holder, req });
        if let Some(window) = window {
            window.help(|| false);
        }
        if matches!(self.link, NodeLink::Threaded(_)) {
            std::thread::yield_now();
        }
    }

    /// Called (indirectly, from the view guards' trailing drop signal)
    /// after a view's payload lease has truly been released: re-arms the
    /// executor's deferred work for this node. No-op on the sim fabric.
    pub(crate) fn view_lease_released(&self) {
        if let Some(hook) = self.exec.get() {
            hook.lease_released();
        }
    }

    /// This node's inbox on the threaded or TCP fabric, where the executor
    /// installs its wake hook and drains arrivals (the sim fabric owns
    /// delivery itself and never lands here).
    pub(crate) fn inbox(&self) -> &Inbox<ProtocolMsg> {
        match &self.link {
            NodeLink::Threaded(ep) => ep.inbox(),
            NodeLink::Tcp(ep) => ep.inbox(),
            NodeLink::Sim(_) => unreachable!("executor served a sim-fabric node"),
        }
    }

    /// Whether the fabric side of this node is fully drained for teardown:
    /// nothing queued, and (on TCP) every peer's leave received.
    pub(crate) fn link_drained(&self) -> bool {
        self.inbox().is_empty()
            && match &self.link {
                NodeLink::Tcp(ep) => ep.all_peers_left(),
                _ => true,
            }
    }

    /// Deliver the frames that have already arrived on this node's TCP
    /// links (`TcpEndpoint::drain_ready`); 0 on other fabrics.
    pub(crate) fn drain_link(&self) -> usize {
        match &self.link {
            NodeLink::Tcp(ep) => ep.drain_ready(),
            _ => 0,
        }
    }

    /// Announce the TCP leave frame (idempotent); no-op on other fabrics.
    pub(crate) fn link_announce_leave(&self) {
        if let NodeLink::Tcp(ep) = &self.link {
            ep.announce_leave();
        }
    }

    /// Allocate a request id unique within this node.
    pub(crate) fn new_req(&self) -> ReqId {
        // The node id is folded into the high bits so request ids are unique
        // cluster-wide, which makes debugging message traces easier.
        let seq = self.next_req.fetch_add(1, Ordering::Relaxed);
        ReqId((u64::from(self.node.0) << 48) | seq)
    }

    /// Register the application thread's interest in the reply to `req`,
    /// its one outstanding request.
    ///
    /// # Panics
    /// Panics once the run is torn down (see [`Self::abort_pending`]), so a
    /// request issued after the abort fails instead of parking.
    pub(crate) fn register_pending(&self, req: ReqId) {
        let mut slot = self.reply.state.lock();
        match *slot {
            SlotState::Idle => *slot = SlotState::Waiting { req, parked: false },
            SlotState::Aborted => panic!("{SHUT_DOWN}"),
            ref other => panic!(
                "{} registered {req:?} with {other:?} still outstanding",
                self.node
            ),
        }
    }

    /// Complete the outstanding request with a reply that arrived at
    /// `arrival`. A reply to any other request lands on the floor: under a
    /// lossy fabric a request can be answered twice (a retransmission raced
    /// the original reply and was answered from the server's dedup cache),
    /// and after [`Self::abort_pending`] no one is left to wake. Anywhere
    /// else such a reply is a protocol bug, and panics.
    ///
    /// A fault-in reply is installed here, by the server, so a migration
    /// grant takes effect on arrival. Left to the woken application thread,
    /// the install waited on the OS scheduler, and meanwhile this node sent
    /// requests for the object back to the old home, which forwarded them
    /// here again until the chase overran `redirect_limit`.
    pub(crate) fn complete(&self, req: ReqId, mut msg: ProtocolMsg, arrival: SimTime) {
        if let Some(fault) = &self.fault {
            fault.clear(req);
        }
        match *self.reply.state.lock() {
            SlotState::Waiting { req: waiting, .. } if waiting == req => {}
            SlotState::Aborted => return,
            _ => {
                assert!(
                    self.fault.is_some(),
                    "reply for unknown request {req:?} delivered to {} ({msg:?})",
                    self.node
                );
                return;
            }
        }
        step::install_reply(&self.engine, &mut msg);
        // The install ran outside the leaf slot lock. Only an abort can have
        // moved the slot meanwhile: a second reply to `req` exists only under
        // the fault layer, whose completions all run on the sim scheduler.
        let mut slot = self.reply.state.lock();
        let parked = match *slot {
            SlotState::Waiting { req: id, parked } if id == req => parked,
            _ => return,
        };
        // The sim scheduler's wake pass releases the waiter after the
        // handler step (see `crate::sim`); a reply the application
        // delivered on its own stack is taken without parking.
        let released = !matches!(self.link, NodeLink::Sim(_));
        *slot = SlotState::Ready {
            reply: Reply { msg, arrival },
            released,
        };
        drop(slot);
        if released && parked {
            self.reply.ready.notify_one();
        }
    }

    /// Send a one-way protocol message; virtual send time is the node's
    /// current clock. Under a lossy fabric, replies and acknowledgements
    /// are remembered by the request id they answer so duplicates of the
    /// answered request can be served from cache.
    pub(crate) fn send(&self, dst: NodeId, msg: ProtocolMsg) {
        fault::note_sent(self, dst, &msg);
        let category = msg.category();
        let bytes = msg.payload_bytes();
        let now = self.clock.now();
        self.link.send(dst, category, bytes, now, msg);
    }

    /// Send one message a served request produced. A lock grant or barrier
    /// release for this node's own application never travels: the sync
    /// manager answering its own node completes the waiting request here,
    /// at the node's current time.
    fn emit(&self, dst: NodeId, msg: ProtocolMsg) {
        match msg {
            ProtocolMsg::LockGrant { req, .. } | ProtocolMsg::BarrierRelease { req, .. }
                if dst == self.node =>
            {
                self.complete(req, msg, self.clock.now());
            }
            msg => self.send(dst, msg),
        }
    }

    /// Send a message this node originates. Under a lossy fabric a request
    /// (anything with a [`ProtocolMsg::dedup_req`] id) is tracked for
    /// retransmission until its reply or ack clears it. A message to this
    /// node itself is served inline, on the calling thread: it touches no
    /// fabric, no fault-layer tracking or dedup, and charges no handling
    /// cost. Only the sync manager's own lock and barrier traffic takes
    /// that path, and it never defers.
    pub(crate) fn post(&self, dst: NodeId, msg: ProtocolMsg) {
        if dst != self.node {
            if let (Some(fault), Some(req)) = (&self.fault, msg.dedup_req()) {
                fault.track(req, dst, msg.clone());
            }
            return self.send(dst, msg);
        }
        let mut serve = ServeState::default();
        step::serve(&self.engine, &mut serve, self.node, msg, &mut |dst, msg| {
            self.emit(dst, msg)
        });
        debug_assert_eq!(serve.deferred(), 0, "a request to the node itself deferred");
    }

    /// Send the registered request through `issue` (which may answer it on
    /// this thread), then wait for the reply and return it; on the executor
    /// fabrics the thread helps meanwhile (see "Helping" in `crate::exec`).
    ///
    /// A reply already in the slot is taken without parking. On the sim it
    /// can only be one the application delivered on its own stack (the
    /// sync manager answering itself): a scheduler completion cannot run
    /// while this agent is still counted active. Otherwise, in sim mode,
    /// this is the agent-park notification point of the quiescence
    /// protocol — the fabric learns the application thread is about to
    /// block *after* every message it was going to send has been sent — and
    /// the thread resumes once the scheduler's wake pass released the reply
    /// ([`Self::release_reply`]).
    ///
    /// # Panics
    /// Panics if the run is torn down while the request is outstanding.
    pub(crate) fn wait_reply(&self, issue: impl FnOnce()) -> Reply {
        let window = self.exec.get().map(crate::exec::ExecHook::open_window);
        issue();
        if let Some(window) = window {
            window.help(|| !matches!(*self.reply.state.lock(), SlotState::Waiting { .. }));
        }
        let mut slot = self.reply.state.lock();
        if !matches!(*slot, SlotState::Ready { .. }) {
            if let NodeLink::Sim(ep) = &self.link {
                drop(slot);
                ep.agent_blocked();
                slot = self.reply.state.lock();
            }
            while !matches!(
                *slot,
                SlotState::Ready { released: true, .. } | SlotState::Aborted
            ) {
                // The flag needs no clearing: the waiter holds the lock from
                // its wake until it parks again or the slot left `Waiting`.
                if let SlotState::Waiting { parked, .. } = &mut *slot {
                    *parked = true;
                }
                slot = self
                    .reply
                    .ready
                    .wait(slot)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        match std::mem::replace(&mut *slot, SlotState::Idle) {
            SlotState::Ready { reply, .. } => reply,
            aborted => {
                *slot = aborted;
                panic!("{SHUT_DOWN}")
            }
        }
    }

    /// Issue a blocking request: post `msg` to `dst` ([`Self::post`]: a
    /// request to this node itself is served inline), wait until the reply
    /// arrives ([`Self::wait_reply`]), merge the reply's arrival time into
    /// the local clock and return the reply message.
    pub(crate) fn request(&self, dst: NodeId, req: ReqId, msg: ProtocolMsg) -> ProtocolMsg {
        if trace_enabled() {
            eprintln!("[{}] request -> {} {:?}", self.node, dst, msg);
        }
        self.register_pending(req);
        let reply = self.wait_reply(|| self.post(dst, msg));
        self.clock.merge(reply.arrival);
        reply.msg
    }

    /// The sim scheduler's wake pass for this node: hand a reply the last
    /// step completed to its parked waiter, and return whether there was
    /// one. `before_wake` runs first, under the slot lock: the waiter was
    /// counted out of the sim fabric's agent tally when it parked, so the
    /// scheduler re-counts it (`agent_unblocked`) while it provably still
    /// waits, and the quiescence count never under-reports.
    pub(crate) fn release_reply(&self, before_wake: impl FnOnce()) -> bool {
        let mut slot = self.reply.state.lock();
        let SlotState::Ready { released, .. } = &mut *slot else {
            return false;
        };
        if *released {
            return false;
        }
        before_wake();
        *released = true;
        drop(slot);
        self.reply.ready.notify_one();
        true
    }

    /// Tear this node's rendezvous down for good: a parked application
    /// thread wakes and unwinds with a "cluster shut down" panic, a late
    /// reply is dropped, and a request registered afterwards fails instead
    /// of parking. Both runners call it on every node once an application
    /// panicked, and the sim scheduler on a terminal stall.
    ///
    /// `before_wake` runs once if a waiter is parked, under the slot lock
    /// and **before** the waiter can wake: a parked sim waiter was counted
    /// out of the agent tally, and a woken thread unwinds straight into
    /// `agent_finished`, so the sim caller must re-count it
    /// (`agent_unblocked`) first — the order [`Self::release_reply`] uses
    /// for ordinary replies.
    pub(crate) fn abort_pending(&self, before_wake: impl FnOnce()) {
        if let Some(fault) = &self.fault {
            fault.abort();
        }
        let mut slot = self.reply.state.lock();
        if matches!(
            *slot,
            SlotState::Waiting { .. }
                | SlotState::Ready {
                    released: false,
                    ..
                }
        ) {
            before_wake();
        }
        *slot = SlotState::Aborted;
        drop(slot);
        self.reply.ready.notify_one();
    }

    /// Request the protocol server to stop once its queues are drained.
    pub(crate) fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    pub(crate) fn should_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// Serve one inbound envelope — the single per-envelope step of a protocol
/// server, shared by the executor's handler steps and the sim loop. It
/// charges the handling cost to the node's clock, completes the pending
/// request a reply answers, hands the fault layer its acknowledgements and
/// election answers, and passes every other request through the lossy-run
/// dedup admission to [`step::serve`], whose sends go out through
/// [`NodeShared::emit`]. Retrying the deferral queue is the caller's job
/// ([`retry_deferred`]).
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
    if let Some(req) = msg.reply_req() {
        return shared.complete(req, msg, arrival);
    }
    match msg {
        ProtocolMsg::LockReleaseAck { req, .. } | ProtocolMsg::HomeFenceAck { req, .. } => {
            fault::handle_ack(shared, req);
        }
        ProtocolMsg::HomeElectReply {
            req,
            obj,
            home,
            epoch,
        } => fault::handle_elect_reply(shared, req, obj, home, epoch),
        ProtocolMsg::Shutdown => shared.request_shutdown(),
        // A duplicate of an already-seen request is absorbed, or answered
        // from the reply cache, by `admit_request`.
        msg => {
            if fault::admit_request(shared, &msg) {
                step::serve(&shared.engine, serve, src, msg, &mut |dst, msg| {
                    shared.emit(dst, msg)
                });
            }
        }
    }
}

/// Give every deferred request one more chance (see [`ServeState::retry`]).
pub(crate) fn retry_deferred(shared: &Arc<NodeShared>, serve: &mut ServeState) {
    serve.retry(&shared.engine, &mut |dst, msg| shared.emit(dst, msg));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultConfig;
    use dsm_core::{ObjectRequestOutcome, ProtocolConfig};
    use dsm_model::NetworkParams;
    use dsm_net::{Fabric, SimConfig, SimFabric, SimStep, StatsCollector};
    use dsm_objspace::{LockId, ObjectId};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::thread;
    use std::time::Duration;

    fn shared_on(
        link: NodeLink,
        engine: ProtocolEngine,
        fault: Option<FaultState>,
    ) -> Arc<NodeShared> {
        NodeShared::new(
            engine,
            link,
            ComputeModel::free(),
            SimDuration::ZERO,
            0,
            true,
            fault,
        )
    }

    /// Node 0 of a `nodes`-node threaded fabric.
    fn node_zero(
        nodes: usize,
        protocol: ProtocolConfig,
        registry: Arc<ObjectRegistry>,
        fault: Option<FaultState>,
    ) -> Arc<NodeShared> {
        let endpoint = Fabric::new(nodes, NetworkParams::ideal(), StatsCollector::new())
            .into_endpoints()
            .swap_remove(0);
        let engine = ProtocolEngine::new(NodeId(0), nodes, protocol, registry);
        shared_on(NodeLink::Threaded(endpoint), engine, fault)
    }

    fn lone_node() -> Arc<NodeShared> {
        node_zero(1, ProtocolConfig::no_migration(), Arc::default(), None)
    }

    /// The fabric and every node of a `nodes`-node sim fabric.
    fn sim_nodes(nodes: usize) -> (SimFabric<ProtocolMsg>, Vec<Arc<NodeShared>>) {
        let fabric = SimFabric::new(
            nodes,
            NetworkParams::ideal(),
            StatsCollector::new(),
            SimConfig::calm(0),
        );
        let shareds = fabric
            .endpoints()
            .into_iter()
            .map(|endpoint| {
                let engine = ProtocolEngine::new(
                    endpoint.node(),
                    nodes,
                    ProtocolConfig::no_migration(),
                    Arc::default(),
                );
                shared_on(NodeLink::Sim(endpoint), engine, None)
            })
            .collect();
        (fabric, shareds)
    }

    fn grant(req: ReqId) -> ProtocolMsg {
        ProtocolMsg::LockGrant {
            req,
            lock: LockId(7),
        }
    }

    /// An object homed at node 1 of a two-node JUMP cluster, the
    /// registry, and node 1's reply to node 0's write fault-in for it,
    /// which carries a migration grant.
    fn granted_fault_in(req: ReqId) -> (ObjectId, Arc<ObjectRegistry>, ProtocolMsg) {
        let mut registry = ObjectRegistry::new();
        let obj = registry.register_named(
            "grant.window",
            0,
            8,
            NodeId(1),
            dsm_objspace::HomeAssignment::CreationNode,
        );
        let registry = Arc::new(registry);
        let old_home = ProtocolEngine::new(NodeId(1), 2, jump(), Arc::clone(&registry));
        let ObjectRequestOutcome::Reply {
            data,
            version,
            migration: migration @ Some(_),
            ..
        } = old_home.handle_object_request(obj, NodeId(0), true, 0)
        else {
            panic!("JUMP grants the home to a write faulter");
        };
        let reply = ProtocolMsg::ObjectReply {
            req,
            obj,
            data,
            version,
            migration,
        };
        (obj, registry, reply)
    }

    fn jump() -> ProtocolConfig {
        ProtocolConfig::no_migration().with_migration(dsm_core::MigrateOnRequestPolicy)
    }

    /// The grantee serves the object as soon as its server completes the
    /// reply carrying the grant, before the application thread wakes.
    #[test]
    fn a_migration_grant_takes_effect_before_the_application_wakes() {
        let req = ReqId(1);
        let (obj, registry, reply) = granted_fault_in(req);
        let grantee = node_zero(2, jump(), registry, None);
        grantee.register_pending(req);
        grantee.complete(req, reply, SimTime::ZERO);
        assert!(
            grantee.engine.is_home(obj),
            "the server installed the grant"
        );
    }

    /// Under the fault layer a request can be answered twice, and a
    /// retransmitted older request can be answered late. Both replies land
    /// on the floor by id — a stale fault-in reply installs nothing — and
    /// the live request still receives its own reply.
    #[test]
    fn duplicate_and_stale_replies_land_on_the_floor_under_the_fault_layer() {
        let older = ReqId(1);
        let (obj, registry, stale) = granted_fault_in(older);
        let fault = FaultState::new(FaultConfig::sim_default());
        let shared = node_zero(2, jump(), registry, Some(fault));
        assert_eq!(shared.new_req(), older, "node 0's first request id");
        let done = shared.new_req();
        shared.register_pending(done);
        shared.complete(done, grant(done), SimTime::ZERO);
        assert_eq!(shared.wait_reply(|| {}).msg.reply_req(), Some(done));

        let live = shared.new_req();
        shared.register_pending(live);
        shared.complete(done, grant(done), SimTime::ZERO);
        shared.complete(older, stale, SimTime::ZERO);
        assert!(
            !shared.engine.has_copy(obj),
            "a stale fault-in reply installed its object"
        );
        shared.complete(live, grant(live), SimTime::from_nanos(5));
        let reply = shared.wait_reply(|| {});
        assert_eq!(reply.msg.reply_req(), Some(live));
        assert_eq!(reply.arrival, SimTime::from_nanos(5));
    }

    /// Without the fault layer every request is answered exactly once, so a
    /// stray reply is a protocol bug and fails loudly, naming the node.
    #[test]
    #[should_panic(expected = "delivered to P0")]
    fn a_reply_for_an_unknown_request_panics_naming_the_node() {
        let shared = lone_node();
        let req = shared.new_req();
        shared.complete(req, grant(req), SimTime::ZERO);
    }

    /// After the teardown abort a late reply is dropped instead of panicking
    /// the thread that serves it, and a new request fails fast instead of
    /// parking.
    #[test]
    fn after_the_abort_late_replies_are_dropped_and_requests_fail_fast() {
        let shared = lone_node();
        let req = shared.new_req();
        shared.register_pending(req);
        shared.abort_pending(|| {});
        shared.complete(req, grant(req), SimTime::ZERO);
        let unknown = shared.new_req();
        shared.complete(unknown, grant(unknown), SimTime::ZERO);
        let refused = catch_unwind(AssertUnwindSafe(|| {
            shared.register_pending(shared.new_req());
        }))
        .expect_err("a request after the abort must fail");
        let message = refused
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(message.contains("cluster shut down"), "got: {message}");
    }

    /// Whether `shared`'s waiter sleeps on the reply slot's condvar.
    fn parked(shared: &NodeShared) -> bool {
        matches!(
            *shared.reply.state.lock(),
            SlotState::Waiting { parked: true, .. }
        )
    }

    /// Run `body` on a thread of its own and fail if it takes over 20 s: a
    /// waiter that parks and is never woken would otherwise hang the test.
    fn within_deadline(body: impl FnOnce() + Send + 'static) {
        let (done, finished) = mpsc::channel::<()>();
        let runner = thread::spawn(move || {
            let _done = done;
            body();
        });
        let timeout = finished.recv_timeout(Duration::from_secs(20));
        assert_ne!(timeout, Err(RecvTimeoutError::Timeout), "a waiter hung");
        if let Err(panic) = runner.join() {
            std::panic::resume_unwind(panic);
        }
    }

    /// A completion that lands while its waiter is still busy (here inside
    /// `issue`, where a helper would be stepping) finds the waiter not
    /// parked, so it fills the slot without a wake, and the waiter takes
    /// the reply without parking: had it parked, nothing would wake it. A
    /// handshake puts each of 1000 completions before the wait.
    #[test]
    fn a_completion_before_the_waiter_parks_is_taken_without_parking() {
        within_deadline(|| {
            let shared = lone_node();
            let (go, requests) = mpsc::channel();
            let (done, completions) = mpsc::channel();
            let completer = Arc::clone(&shared);
            let completer = thread::spawn(move || {
                for req in requests {
                    assert!(!parked(&completer), "the waiter parked inside `issue`");
                    completer.complete(req, grant(req), SimTime::ZERO);
                    done.send(()).expect("the waiter is alive");
                }
            });
            for _ in 0..1000 {
                let req = shared.new_req();
                shared.register_pending(req);
                let reply = shared.wait_reply(|| {
                    go.send(req).expect("the completer is alive");
                    completions.recv().expect("the completer completed");
                });
                assert_eq!(reply.msg.reply_req(), Some(req));
            }
            drop(go);
            completer.join().expect("the completer finished");
        });
    }

    /// 1000 rounds, each on a fresh node: a waiter thread parks on a
    /// registered request, and once it sleeps on the slot's condvar this
    /// thread runs `wake`. Each waiter must wake, with a reply if `replied`
    /// and unwinding from the teardown abort otherwise.
    fn wake_parked_waiters(wake: fn(&NodeShared, ReqId), replied: bool) {
        within_deadline(move || {
            for _ in 0..1000 {
                let shared = lone_node();
                let req = shared.new_req();
                shared.register_pending(req);
                let waiter = Arc::clone(&shared);
                let waiter = thread::spawn(move || {
                    catch_unwind(AssertUnwindSafe(|| waiter.wait_reply(|| {}))).is_ok()
                });
                while !parked(&shared) {
                    thread::yield_now();
                }
                wake(&shared, req);
                assert_eq!(waiter.join().expect("the waiter returned"), replied);
            }
        });
    }

    /// A completion from another thread after the waiter parked wakes it.
    #[test]
    fn a_completion_after_the_waiter_parked_wakes_it() {
        wake_parked_waiters(
            |shared, req| shared.complete(req, grant(req), SimTime::ZERO),
            true,
        );
    }

    /// The teardown abort wakes a parked waiter, which then unwinds.
    #[test]
    fn abort_pending_wakes_a_parked_waiter() {
        wake_parked_waiters(|shared, _| shared.abort_pending(|| {}), false);
    }

    /// Park one application thread per sim node on a request and run
    /// `teardown` once every agent is parked, with a count of the waiters
    /// woken so far. Each waiter finishes its agent after it wakes, as an
    /// application thread's exit guard does; the agent tally must balance.
    fn park_and_tear_down(
        nodes: usize,
        teardown: impl FnOnce(&SimFabric<ProtocolMsg>, &[Arc<NodeShared>], &AtomicUsize),
    ) {
        let (fabric, shareds) = sim_nodes(nodes);
        let woken = AtomicUsize::new(0);
        thread::scope(|scope| {
            for shared in &shareds {
                let (fabric, woken) = (&fabric, &woken);
                scope.spawn(move || {
                    shared.register_pending(shared.new_req());
                    let _ = catch_unwind(AssertUnwindSafe(|| shared.wait_reply(|| {})));
                    woken.fetch_add(1, Ordering::SeqCst);
                    fabric.agent_finished();
                });
            }
            assert!(
                matches!(fabric.next_step(), SimStep::Stalled),
                "every agent parks"
            );
            teardown(&fabric, &shareds, &woken);
        });
        // Every waiter was re-counted before it finished, so the tally
        // balances: nothing active, every agent finished.
        assert!(matches!(fabric.next_step(), SimStep::Drained));
    }

    /// The re-count callback: re-count the agent, then give a waiter that
    /// is already free to run ample time to wake. Returns whether more
    /// waiters woke than were re-counted before this one.
    fn recount(fabric: &SimFabric<ProtocolMsg>, woken: &AtomicUsize, recounted: usize) -> bool {
        fabric.agent_unblocked();
        thread::sleep(Duration::from_millis(20));
        woken.load(Ordering::SeqCst) > recounted
    }

    /// The sim teardown re-counts each parked waiter, and a woken waiter
    /// unwinds straight into `agent_finished` — which panics if it finds
    /// the count at 0. So a waiter's callback must run while it provably
    /// still waits: at every callback, no more waiters have woken than were
    /// re-counted before it.
    #[test]
    fn abort_pending_calls_back_before_each_waiter_is_woken() {
        park_and_tear_down(3, |fabric, shareds, woken| {
            let mut calls = 0;
            let mut early = 0;
            for shared in shareds {
                shared.abort_pending(|| {
                    early += usize::from(recount(fabric, woken, calls));
                    calls += 1;
                });
            }
            assert_eq!(calls, shareds.len(), "one callback per parked waiter");
            assert_eq!(early, 0, "a waiter woke before its re-count");
        });
    }

    /// On the sim a completion fills the slot without waking the waiter;
    /// the scheduler's wake pass releases it, re-counting the agent first,
    /// and releases each reply once.
    #[test]
    fn a_sim_reply_waits_for_the_wake_pass_which_recounts_first() {
        park_and_tear_down(2, |fabric, shareds, woken| {
            for shared in shareds {
                let SlotState::Waiting { req, .. } = *shared.reply.state.lock() else {
                    panic!("a parked waiter's slot is Waiting");
                };
                shared.complete(req, grant(req), SimTime::ZERO);
            }
            thread::sleep(Duration::from_millis(20));
            assert_eq!(woken.load(Ordering::SeqCst), 0, "a completion woke");
            let mut early = 0;
            for (released, shared) in shareds.iter().enumerate() {
                assert!(shared.release_reply(|| {
                    early += usize::from(recount(fabric, woken, released));
                }));
                assert!(!shared.release_reply(|| unreachable!("released twice")));
            }
            assert_eq!(early, 0, "a waiter woke before its re-count");
        });
    }
}

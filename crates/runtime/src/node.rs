//! Per-node shared state and the protocol server's per-envelope step.
//!
//! Every simulated node pairs an **application thread** — it runs the user
//! closure through [`crate::NodeCtx`], runs each blocking operation as a
//! [`dsm_core::step::ClientOp`] through [`NodeShared::request`] and waits
//! on the node's reply slot — with a **protocol server**. A server is not
//! a thread: its step is [`serve_envelope`], driven either by the
//! wake-on-send executor in `crate::exec` (threaded and TCP fabrics) or by
//! the virtual-time loop in `crate::sim` (see "Execution model" in the
//! crate docs). The protocol itself, lossy-run recovery included, is
//! `dsm-core`'s [`dsm_core::step`]; this module adds the clock merge, reply
//! completion (with the migration-grant install), `Shutdown` and the actual
//! sends. A message a node addresses to itself — the sync manager's own
//! lock and barrier traffic — is served inline on the calling thread
//! ([`NodeShared::post`]).
//!
//! ## A reply completes in the step that sends it
//!
//! On the threaded fabric a reply skips its destination's inbox: the step
//! that produces it stamps it like any send (statistics, wire bytes,
//! Hockney arrival: `dsm_net::Endpoint::stamp`), merges the arrival into
//! the destination's clock with the handling cost, as [`serve_envelope`]
//! does, and completes the destination's request there
//! ([`NodeShared::complete`]). The destination is found through the
//! executor that serves both nodes. A remote fault-in, flush, acquire or
//! barrier then costs the executor one step, the home's, not two. The sim
//! keeps delivering replies as events, since their order is the run's
//! deterministic event order, and TCP keeps them on the socket. A reply
//! thus no longer waits behind what its destination's inbox holds, and
//! that is safe for these reasons:
//!
//! * A node has at most one request outstanding, and registers it
//!   ([`NodeShared::register_pending`]) before sending it. So its slot sees
//!   at most one reply, and never before it waits for it.
//! * On lossless runs, messages on different links are ordered by acks,
//!   not by inbox order. A release or barrier arrival goes out only after
//!   the releaser's flush ran every `DiffFlush` / `DiffBatch` to its ack,
//!   so a lock grant or barrier release cannot overtake a diff it depends
//!   on. A diff still in flight was sent by a node that has not released,
//!   and lazy release consistency owes no reader its writes yet.
//! * A migration grant only takes effect earlier than it did through the
//!   inbox: when the grantor's step returns, the grantee is home. The old
//!   home redirects later requests in later steps, so a grant still lands
//!   before any redirect it caused.
//! * The install is engine calls under the destination engine's leaf
//!   lock. They race the destination's own server steps just as its
//!   application thread's calls already do. The sending step holds its own
//!   node's serve lock, then takes the destination's slot, engine and clock
//!   locks, each of them a leaf.
//! * Retrying the deferral queue after every served message used to
//!   follow a grant's install. A grant installed from another node's step
//!   re-arms the destination's deferral queue instead
//!   ([`NodeShared::rearm_deferred`]), as a released view lease does.
//!
//! One order the inbox gave is still needed: a node takes no reply while
//! one of its own steps is half done. A step that grants a home away
//! changes the grantor's belief in its engine call and installs the grant
//! only when it sends the reply. If that step is preempted in between,
//! the grantor's application can fault the object in from the grantee,
//! which is not home yet and redirects back; the grantor's own belief
//! then points at the grantee again. Through the inbox, each such
//! redirect waited for the grantor's half-done step to finish, so the
//! chase took one more hop. Completed directly, it ran on the
//! application's thread until it overran `redirect_limit` (3 of 200 runs
//! of `dsm-apps`' KV tests on a 2-CPU guest). So a reply to a node that a
//! thread is stepping right now goes through its inbox, and the node's
//! next step completes it (`ExecHook::reply_target`). A step claimed after
//! that check can let at most one such redirect through: the node stays
//! claimed until its step sends the grant.
//!
//! Application and server drive the engine directly through `&self`. The
//! [`ProtocolEngine`] keeps its state behind one internal leaf lock that
//! each call takes once and never holds across application code or a
//! send, so neither side waits on the other for longer than one protocol
//! transition. Replies meet their waiter in one slot per node, keyed
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

use crate::vclock::VirtualClock;
use dsm_core::step::{self, ServeState, SYNC_MANAGER};
use dsm_core::{ProtocolEngine, ProtocolMsg, ReqId};
use dsm_model::{ComputeModel, SimDuration, SimTime};
use dsm_net::{Endpoint, Envelope, Inbox, MsgCategory, SimEndpoint, TcpEndpoint};
use dsm_objspace::{LockId, NodeId};
use dsm_util::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
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
    Ready { reply: ProtocolMsg, released: bool },
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
    /// The engine; both threads call it directly (see the crate's
    /// "Locking architecture").
    pub engine: ProtocolEngine,
    pub link: NodeLink,
    pub clock: VirtualClock,
    pub compute: ComputeModel,
    pub handling_cost: SimDuration,
    pub seed: u64,
    /// Whether the release path groups same-home diff flushes into
    /// `DiffBatch` messages (see `ClusterBuilder::flush_batching`).
    pub flush_batching: bool,
    reply: ReplySlot,
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
    ) -> Arc<Self> {
        Arc::new(NodeShared {
            node: engine.node(),
            engine,
            link,
            clock: VirtualClock::new(),
            compute,
            handling_cost,
            seed,
            flush_batching,
            reply: ReplySlot {
                state: Mutex::new(SlotState::Idle),
                ready: Condvar::new(),
            },
            shutdown: AtomicBool::new(false),
            exec: OnceLock::new(),
        })
    }

    /// Attach the executor's hook (first attach wins; never on the sim).
    pub(crate) fn attach_exec(&self, hook: crate::exec::ExecHook) {
        let _ = self.exec.set(hook);
    }

    /// Hand `lock` back to the [`SYNC_MANAGER`]. On an engine armed for
    /// recovery a release to a remote manager must survive a drop (a lost
    /// release wedges every later acquirer of the lock), so it carries a
    /// fresh id and is retransmitted until acknowledged. Elsewhere it is the paper's
    /// fire-and-forget message (`ReqId(0)`: no ack expected); the manager's
    /// own is served inline. On the executor fabrics the caller helps
    /// around the post until nothing is queued (see "Helping" in
    /// `crate::exec`), so the manager's step runs on this thread and no
    /// parked worker is woken for it. On the threaded fabric, where a
    /// helping thread rarely parks, the caller then yields the CPU so its
    /// runnable peers can ask for the lock.
    pub(crate) fn release_lock(&self, lock: LockId) {
        let tracked = self.engine.recovers() && SYNC_MANAGER != self.node;
        let req = if tracked {
            self.engine.new_req()
        } else {
            ReqId(0)
        };
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

    /// Re-arm the executor's deferred work for this node: called after a
    /// view's payload lease has truly been released (indirectly, from the
    /// view guards' trailing drop signal) and after another node's step
    /// installed a migration grant here. No-op on the sim fabric.
    pub(crate) fn rearm_deferred(&self) {
        if let Some(hook) = self.exec.get() {
            hook.rearm();
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

    /// This node's TCP endpoint, whose links a helper reads itself; `None`
    /// on other fabrics.
    pub(crate) fn tcp_endpoint(&self) -> Option<&TcpEndpoint<ProtocolMsg>> {
        match &self.link {
            NodeLink::Tcp(ep) => Some(ep),
            _ => None,
        }
    }

    /// Announce the TCP leave frame (idempotent); no-op on other fabrics.
    pub(crate) fn link_announce_leave(&self) {
        if let NodeLink::Tcp(ep) = &self.link {
            ep.announce_leave();
        }
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

    /// Complete the outstanding request with `msg`; the caller has already
    /// moved this node's clock past the reply's arrival. A reply to any
    /// other request lands on the floor: under recovery a request can be
    /// answered twice (a retransmission raced the original reply and was
    /// answered from the server's reply cache), and after
    /// [`Self::abort_pending`] no one is left to wake. Anywhere else such a
    /// reply is a protocol bug, and panics.
    ///
    /// A fault-in reply is installed here, so a migration grant takes
    /// effect on arrival: on the threaded fabric that is inside the step
    /// that sends the reply (see the module docs), elsewhere in the step
    /// that serves it. Left to the woken application thread, the install
    /// waited on the OS scheduler, and meanwhile this node sent requests
    /// for the object back to the old home, which forwarded them here again
    /// until the chase overran `redirect_limit`.
    pub(crate) fn complete(&self, req: ReqId, mut msg: ProtocolMsg) {
        match *self.reply.state.lock() {
            SlotState::Waiting { req: waiting, .. } if waiting == req => {}
            SlotState::Aborted => return,
            _ => {
                assert!(
                    self.engine.recovers(),
                    "reply for unknown request {req:?} delivered to {} ({msg:?})",
                    self.node
                );
                return;
            }
        }
        step::install_reply(&self.engine, &mut msg);
        // The install ran outside the leaf slot lock. Only an abort can have
        // moved the slot meanwhile: a second reply to `req` exists only under
        // recovery, whose completions all run on the sim scheduler.
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
            reply: msg,
            released,
        };
        drop(slot);
        if released && parked {
            self.reply.ready.notify_one();
        }
    }

    /// Send a one-way protocol message; virtual send time is the node's
    /// current clock.
    pub(crate) fn send(&self, dst: NodeId, msg: ProtocolMsg) {
        let category = msg.category();
        let bytes = msg.payload_bytes();
        let now = self.clock.now();
        self.link.send(dst, category, bytes, now, msg);
    }

    /// Send one message a served request produced. A lock grant or barrier
    /// release for this node's own application never travels: the sync
    /// manager answering its own node completes the waiting request here,
    /// at the node's current time. On the threaded fabric a reply to
    /// another node completes at its destination in this step, unless a
    /// thread is stepping the destination (see the module docs).
    fn emit(&self, dst: NodeId, msg: ProtocolMsg) {
        if let ProtocolMsg::LockGrant { req, .. } | ProtocolMsg::BarrierRelease { req, .. } = msg {
            if dst == self.node {
                return self.complete(req, msg);
            }
        }
        let direct = match (&self.link, self.exec.get(), msg.reply_req()) {
            (NodeLink::Threaded(ep), Some(exec), Some(req)) => {
                exec.reply_target(dst).map(|target| (ep, target, req))
            }
            _ => None,
        };
        let Some((ep, target, req)) = direct else {
            return self.send(dst, msg);
        };
        let grant = matches!(
            msg,
            ProtocolMsg::ObjectReply {
                migration: Some(_),
                ..
            }
        );
        let (category, bytes) = (msg.category(), msg.payload_bytes());
        let envelope = ep.stamp(dst, category, bytes, self.clock.now(), msg);
        trace_serve(&envelope);
        target
            .clock
            .merge_and_advance(envelope.arrival, target.handling_cost);
        target.complete(req, envelope.payload);
        if grant {
            target.rearm_deferred();
        }
    }

    /// Send a message this node originates. An armed engine tracks a
    /// request for retransmission until its reply or ack settles it
    /// ([`ProtocolEngine::track`]). A message to this node itself is served
    /// inline, on the calling thread: it touches no fabric, is never
    /// retransmitted, and charges no handling cost. Only the sync manager's
    /// own lock and barrier traffic takes that path, and it never defers.
    pub(crate) fn post(&self, dst: NodeId, msg: ProtocolMsg) {
        if dst != self.node {
            self.engine.track(dst, &msg);
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
    pub(crate) fn wait_reply(&self, issue: impl FnOnce()) -> ProtocolMsg {
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
    /// arrives ([`Self::wait_reply`]) and return it. Whoever completed the
    /// reply already merged its arrival into this node's clock.
    pub(crate) fn request(&self, dst: NodeId, req: ReqId, msg: ProtocolMsg) -> ProtocolMsg {
        if trace_enabled() {
            eprintln!("[{}] request -> {} {:?}", self.node, dst, msg);
        }
        self.register_pending(req);
        self.wait_reply(|| self.post(dst, msg))
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
/// request a reply answers, stops on `Shutdown`, and hands every other
/// message to [`step::serve`], whose sends go out through
/// [`NodeShared::emit`]. Retrying the deferral queue is the caller's job
/// ([`retry_deferred`]).
pub(crate) fn serve_envelope(
    shared: &Arc<NodeShared>,
    envelope: Envelope<ProtocolMsg>,
    serve: &mut ServeState,
) {
    trace_serve(&envelope);
    // Protocol handling shares the node's (virtual) CPU.
    shared
        .clock
        .merge_and_advance(envelope.arrival, shared.handling_cost);
    let Envelope {
        src, payload: msg, ..
    } = envelope;
    if let Some(req) = msg.reply_req() {
        return shared.complete(req, msg);
    }
    match msg {
        ProtocolMsg::Shutdown => shared.request_shutdown(),
        msg => step::serve(&shared.engine, serve, src, msg, &mut |dst, msg| {
            shared.emit(dst, msg)
        }),
    }
}

/// The `DSM_TRACE` line of a message arriving at its destination.
fn trace_serve(envelope: &Envelope<ProtocolMsg>) {
    if trace_enabled() {
        let Envelope { src, dst, .. } = envelope;
        eprintln!("[{dst}] serve from {src} {:?}", envelope.payload);
    }
}

/// Give every deferred request one more chance (see [`ServeState::retry`]).
pub(crate) fn retry_deferred(shared: &Arc<NodeShared>, serve: &mut ServeState) {
    serve.retry(&shared.engine, &mut |dst, msg| shared.emit(dst, msg));
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_core::step::ClientOp;
    use dsm_core::world::World;
    use dsm_core::ProtocolConfig;
    use dsm_model::NetworkParams;
    use dsm_net::{Fabric, SimConfig, SimFabric, SimStep, StatsCollector};
    use dsm_objspace::{LockId, ObjectId, ObjectRegistry};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::thread;
    use std::time::Duration;

    fn shared_on(link: NodeLink, engine: ProtocolEngine) -> Arc<NodeShared> {
        NodeShared::new(
            engine,
            link,
            ComputeModel::free(),
            SimDuration::ZERO,
            0,
            true,
        )
    }

    /// Node 0 of a `nodes`-node threaded fabric, its engine armed for
    /// recovery if `recovers`.
    fn node_zero(
        nodes: usize,
        protocol: ProtocolConfig,
        registry: Arc<ObjectRegistry>,
        recovers: bool,
    ) -> Arc<NodeShared> {
        let endpoint = Fabric::new(nodes, NetworkParams::ideal(), StatsCollector::new())
            .into_endpoints()
            .swap_remove(0);
        let mut engine = ProtocolEngine::new(NodeId(0), nodes, protocol, registry);
        if recovers {
            engine = engine.with_recovery();
        }
        shared_on(NodeLink::Threaded(endpoint), engine)
    }

    fn lone_node() -> Arc<NodeShared> {
        node_zero(1, ProtocolConfig::no_migration(), Arc::default(), false)
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
                shared_on(NodeLink::Sim(endpoint), engine)
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
        let mut world = World::new(2, jump(), Arc::clone(&registry));
        world.send_next(0, &mut ClientOp::fault_in(obj, true, NodeId(1)));
        world.deliver(0, 1);
        let mut reply = world.drop_next(1, 0);
        let ProtocolMsg::ObjectReply {
            req: id,
            migration: Some(_),
            ..
        } = &mut reply
        else {
            panic!("JUMP grants the home to a write faulter");
        };
        *id = req;
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
        let grantee = node_zero(2, jump(), registry, false);
        grantee.register_pending(req);
        grantee.complete(req, reply);
        assert!(
            grantee.engine.is_home(obj),
            "the server installed the grant"
        );
    }

    /// Under recovery a request can be answered twice, and a
    /// retransmitted older request can be answered late. Both replies land
    /// on the floor by id — a stale fault-in reply installs nothing — and
    /// the live request still receives its own reply.
    #[test]
    fn duplicate_and_stale_replies_land_on_the_floor_under_the_fault_layer() {
        let older = ReqId(1);
        let (obj, registry, stale) = granted_fault_in(older);
        let shared = node_zero(2, jump(), registry, true);
        assert_eq!(shared.engine.new_req(), older, "node 0's first request id");
        let done = shared.engine.new_req();
        shared.register_pending(done);
        shared.complete(done, grant(done));
        assert_eq!(shared.wait_reply(|| {}).reply_req(), Some(done));

        let live = shared.engine.new_req();
        shared.register_pending(live);
        shared.complete(done, grant(done));
        shared.complete(older, stale);
        assert!(
            !shared.engine.has_copy(obj),
            "a stale fault-in reply installed its object"
        );
        shared.complete(live, grant(live));
        let reply = shared.wait_reply(|| {});
        assert_eq!(reply.reply_req(), Some(live));
    }

    /// Without recovery every request is answered exactly once, so a
    /// stray reply is a protocol bug and fails loudly, naming the node.
    #[test]
    #[should_panic(expected = "delivered to P0")]
    fn a_reply_for_an_unknown_request_panics_naming_the_node() {
        let shared = lone_node();
        let req = shared.engine.new_req();
        shared.complete(req, grant(req));
    }

    /// After the teardown abort a late reply is dropped instead of panicking
    /// the thread that serves it, and a new request fails fast instead of
    /// parking.
    #[test]
    fn after_the_abort_late_replies_are_dropped_and_requests_fail_fast() {
        let shared = lone_node();
        let req = shared.engine.new_req();
        shared.register_pending(req);
        shared.abort_pending(|| {});
        shared.complete(req, grant(req));
        let unknown = shared.engine.new_req();
        shared.complete(unknown, grant(unknown));
        let refused = catch_unwind(AssertUnwindSafe(|| {
            shared.register_pending(shared.engine.new_req());
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
                    completer.complete(req, grant(req));
                    done.send(()).expect("the waiter is alive");
                }
            });
            for _ in 0..1000 {
                let req = shared.engine.new_req();
                shared.register_pending(req);
                let reply = shared.wait_reply(|| {
                    go.send(req).expect("the completer is alive");
                    completions.recv().expect("the completer completed");
                });
                assert_eq!(reply.reply_req(), Some(req));
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
                let req = shared.engine.new_req();
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
        wake_parked_waiters(|shared, req| shared.complete(req, grant(req)), true);
    }

    /// The teardown abort wakes a parked waiter, which then unwinds.
    #[test]
    fn abort_pending_wakes_a_parked_waiter() {
        wake_parked_waiters(|shared, _| shared.abort_pending(|| {}), false);
    }

    /// A worker's step that completes a reply in the step sending it wakes
    /// the waiter parked on it. For 1000 rounds, node 1's waiter parks on a
    /// lock acquire; then its request reaches the manager's inbox, and the
    /// one worker steps the manager, completing the grant in node 1's slot.
    /// No reply ever enters node 1's inbox, and no thread but the worker
    /// steps.
    #[test]
    fn a_workers_direct_completion_wakes_a_parked_waiter() {
        const ROUNDS: u32 = 1000;
        within_deadline(|| {
            let fabric = Fabric::new(2, NetworkParams::ideal(), StatsCollector::new());
            let nodes: Vec<_> = (fabric.into_endpoints().into_iter().enumerate())
                .map(|(node, endpoint)| {
                    let config = ProtocolConfig::no_migration();
                    let engine = ProtocolEngine::new(NodeId::from(node), 2, config, Arc::default());
                    shared_on(NodeLink::Threaded(endpoint), engine)
                })
                .collect();
            let executor = crate::exec::Executor::new(&nodes, 1);
            let client = Arc::clone(&nodes[1]);
            thread::scope(|scope| {
                let worker = scope.spawn(|| executor.run_worker());
                for round in 0..ROUNDS {
                    let (req, lock) = (client.engine.new_req(), LockId(round));
                    client.register_pending(req);
                    let waiter = Arc::clone(&client);
                    let waiter = thread::spawn(move || waiter.wait_reply(|| {}));
                    while !parked(&client) {
                        thread::yield_now();
                    }
                    let requester = client.node;
                    let acquire = ProtocolMsg::LockAcquire {
                        req,
                        lock,
                        requester,
                    };
                    client.send(SYNC_MANAGER, acquire);
                    let reply = waiter.join().expect("the waiter returned");
                    assert_eq!(reply.reply_req(), Some(req));
                }
                nodes.iter().for_each(|node| node.request_shutdown());
                executor.begin_shutdown();
                worker.join().expect("the worker finished");
            });
            // Beside one step per round, the shutdown drains both nodes.
            let report = executor.report();
            assert_eq!(report.steps, u64::from(ROUNDS) + 2, "one step per round");
            assert_eq!(report.helped_steps, 0, "a waiter stepped");
            assert_eq!(client.inbox().high_watermark(), 0, "a reply was queued");
        });
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
                    shared.register_pending(shared.engine.new_req());
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
                shared.complete(req, grant(req));
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

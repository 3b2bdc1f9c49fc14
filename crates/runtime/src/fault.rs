//! Timeout/retry, duplicate suppression and home re-election: the recovery
//! machinery that keeps a run live when the fabric drops messages.
//!
//! Lossless fabrics (threaded, TCP, calm/perturbed sim) never instantiate
//! this state — every request is sent exactly once and answered exactly
//! once, and any stall is a genuine deadlock. Under a *lossy* sim config
//! ([`dsm_net::SimConfig::is_lossy`]) each node carries a [`FaultState`]:
//!
//! * **Client side** — every blocking request (and every tracked one-way
//!   message, e.g. an acknowledged `LockRelease` or a `HomeFence`) leaves a
//!   [`RetryEntry`]. When the scheduler observes a stall with agents still
//!   parked, [`fire_retries`] advances each waiting node's clock by the
//!   retry timeout and retransmits every outstanding message — the sim
//!   analogue of a per-request timeout timer.
//! * **Server side** — requests are admitted through a dedup table keyed by
//!   [`ReqId`] ([`admit_request`]): a re-delivered request whose original is
//!   still in flight is absorbed, and one whose reply was already sent gets
//!   the cached reply retransmitted instead of re-executing the handler.
//!   This is what makes retransmission safe for non-idempotent operations
//!   (lock acquires, barrier arrivals, diff applications).
//! * **Home re-election** — a fault-in or flush that stays unanswered for
//!   [`FaultConfig::failover_after`] retry rounds treats its destination as
//!   a dark home and asks the object's *arbiter* (its registered manager,
//!   or the next node when the manager is the suspect) to elect a reachable
//!   replacement; see `dsm_core::engine`'s "Fault model & recovery" docs
//!   for the election and epoch-fencing rules. The election exchange itself
//!   is idempotent by construction (sticky arbiter decisions) and is
//!   deliberately *not* deduplicated.
//!
//! Everything here is driven by the deterministic scheduler thread between
//! quiescence points, so retransmissions, elections and fences replay
//! bit-identically for a given seed.

use crate::node::NodeShared;
use dsm_core::{ProtocolMsg, ReqId};
use dsm_model::SimDuration;
use dsm_objspace::{NodeId, ObjectId};
use dsm_util::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Tuning of the lossy-run recovery machinery.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FaultConfig {
    /// Virtual time a retrying node's clock advances per retry round.
    pub retry_timeout: SimDuration,
    /// Total sends (original + retransmissions) per entry before it is
    /// declared exhausted; when every outstanding entry is exhausted the
    /// scheduler gives up and panics with diagnostics.
    pub max_attempts: u32,
    /// Retry rounds an electable request (fault-in or diff flush) waits on
    /// one destination before suspecting a dead home and asking the
    /// arbiter for a re-election. Must comfortably exceed the retry rounds
    /// a partition window spans, so a healable partition never triggers a
    /// spurious election.
    pub failover_after: u32,
}

impl FaultConfig {
    /// The defaults used by lossy sim runs: 50 µs retry timeout (a few
    /// round trips under the default network model), effectively-unbounded
    /// retries (1000 — a partition crossing needs a few hundred), and
    /// failover after 16 silent rounds.
    pub(crate) fn sim_default() -> Self {
        FaultConfig {
            retry_timeout: SimDuration::from_micros(50.0),
            max_attempts: 1000,
            failover_after: 16,
        }
    }
}

/// Which stage of recovery a tracked message is in.
#[derive(Debug, Clone)]
enum RetryPhase {
    /// Retransmitting the original message to its believed destination.
    Normal,
    /// The destination went dark: retransmitting a `HomeElect` to the
    /// arbiter, original aim parked for the revert/re-aim on reply.
    Electing {
        original_dst: NodeId,
        original_msg: ProtocolMsg,
    },
    /// A `HomeFence` to the deposed home: retried until acked, never
    /// re-elected (the fence *is* the recovery).
    Fence,
}

/// One outstanding tracked message.
#[derive(Debug, Clone)]
struct RetryEntry {
    dst: NodeId,
    msg: ProtocolMsg,
    /// Retry rounds in the current phase/aim (reset on re-aim).
    attempts: u32,
    /// Lifetime sends, bounded by [`FaultConfig::max_attempts`].
    total: u32,
    phase: RetryPhase,
}

/// Per-node fault-recovery state; `None` on lossless fabrics.
pub(crate) struct FaultState {
    pub config: FaultConfig,
    /// Outstanding tracked messages, keyed by request id. A `BTreeMap` so
    /// the retry pass iterates in a deterministic order.
    retries: Mutex<BTreeMap<ReqId, RetryEntry>>,
    /// Server-side at-most-once table: requests seen (`None` — original
    /// still being processed or absorbed) and requests answered (`Some` —
    /// the cached reply to retransmit on a duplicate).
    dedup: Mutex<HashMap<ReqId, Option<(NodeId, ProtocolMsg)>>>,
}

impl FaultState {
    pub(crate) fn new(config: FaultConfig) -> Self {
        FaultState {
            config,
            retries: Mutex::new(BTreeMap::new()),
            dedup: Mutex::new(HashMap::new()),
        }
    }

    /// Track an outstanding message for retransmission. Called with the
    /// original send, which counts as the first attempt.
    pub(crate) fn track(&self, req: ReqId, dst: NodeId, msg: ProtocolMsg) {
        self.track_phase(req, dst, msg, RetryPhase::Normal);
    }

    fn track_phase(&self, req: ReqId, dst: NodeId, msg: ProtocolMsg, phase: RetryPhase) {
        let previous = self.retries.lock().insert(
            req,
            RetryEntry {
                dst,
                msg,
                attempts: 0,
                total: 1,
                phase,
            },
        );
        debug_assert!(previous.is_none(), "duplicate tracked request {req:?}");
    }

    /// Stop retransmitting `req` (its reply or ack arrived).
    pub(crate) fn clear(&self, req: ReqId) {
        self.retries.lock().remove(&req);
    }

    /// Drop every tracked message (teardown after a panic).
    pub(crate) fn abort(&self) {
        self.retries.lock().clear();
    }

    /// Record the reply/ack the server produced for request `req`, so a
    /// retransmitted duplicate of that request can be answered from cache.
    fn cache_reply(&self, req: ReqId, dst: NodeId, msg: ProtocolMsg) {
        self.dedup.lock().insert(req, Some((dst, msg)));
    }
}

/// Hook for [`NodeShared::send`]: under a lossy fabric, remember every
/// reply and acknowledgement by the request id it answers.
pub(crate) fn note_sent(shared: &NodeShared, dst: NodeId, msg: &ProtocolMsg) {
    let Some(fault) = &shared.fault else { return };
    // `HomeElectReply` deliberately reuses the suspended request's id and
    // is excluded here (its request is not deduplicated either): caching it
    // would let a retransmitted fault-in be "answered" with an election
    // reply it cannot use.
    if let Some(req) = msg.reply_req().or_else(|| msg.ack_req()) {
        fault.cache_reply(req, dst, msg.clone());
    }
}

/// Server-ingress admission: returns `true` when the message should be
/// processed, `false` when it was absorbed as a duplicate (re-sending the
/// cached reply if one exists). Only messages with a
/// [`ProtocolMsg::dedup_req`] id participate; replies, notifications and
/// the election/fence exchange pass straight through.
pub(crate) fn admit_request(shared: &Arc<NodeShared>, msg: &ProtocolMsg) -> bool {
    let Some(fault) = &shared.fault else {
        return true;
    };
    let Some(req) = msg.dedup_req() else {
        return true;
    };
    let cached = {
        let mut dedup = fault.dedup.lock();
        match dedup.get(&req) {
            None => {
                dedup.insert(req, None);
                return true;
            }
            Some(None) => None,
            Some(Some((dst, reply))) => Some((*dst, reply.clone())),
        }
    };
    if let Some((dst, reply)) = cached {
        shared.send(dst, reply);
    }
    false
}

/// The object a message would re-elect a home for: only fault-ins and
/// individual diff flushes fail over. Lock/barrier traffic aims at the
/// fixed sync manager and diff batches are re-planned by their sender, so
/// those retry until the network heals instead.
fn electable_obj(msg: &ProtocolMsg) -> Option<ObjectId> {
    match msg {
        ProtocolMsg::ObjectRequest { obj, .. } | ProtocolMsg::DiffFlush { obj, .. } => Some(*obj),
        _ => None,
    }
}

/// The arbiter for re-electing `obj`'s home: its registered manager
/// (initial home), or the next node around the ring when the manager is
/// the suspect itself.
fn arbiter_for(shared: &NodeShared, obj: ObjectId, suspect: NodeId) -> NodeId {
    let manager = shared.engine.manager_of(obj);
    if manager == suspect {
        NodeId((manager.0 + 1) % shared.num_nodes as u16)
    } else {
        manager
    }
}

/// Swing a silent entry to the election phase: its next transmissions carry
/// a `HomeElect` to the arbiter instead of the original message.
fn begin_election(shared: &NodeShared, req: ReqId, entry: &mut RetryEntry, obj: ObjectId) {
    let suspect = entry.dst;
    let elect = ProtocolMsg::HomeElect {
        req,
        obj,
        suspect,
        candidate: shared.node,
        epoch: shared.engine.home_epoch(obj),
        has_copy: shared.engine.has_copy(obj),
    };
    entry.phase = RetryPhase::Electing {
        original_dst: suspect,
        original_msg: std::mem::replace(&mut entry.msg, elect),
    };
    entry.dst = arbiter_for(shared, obj, suspect);
    entry.attempts = 0;
}

/// What provoked a retransmission round — it decides how the retrying
/// nodes' clocks move.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RetryRound {
    /// The fabric stalled with agents parked: nothing else can advance
    /// virtual time, so each retrying node's clock advances by one retry
    /// timeout (healable partitions eventually heal in virtual time).
    Stalled,
    /// A timed round: the scheduler's retry deadline came due while the
    /// network was still busy. Clocks are left alone — retransmissions are
    /// stamped at each owner's current clock, exactly as if that node had
    /// re-sent on its own. Dragging a parked node's clock up to the busy
    /// traffic's time would change which of its sends fall inside seeded
    /// loss windows ([`dsm_net::PauseSpec`] decides drops by the *sender's*
    /// `sent_at`), and with it the recovery ordering the windows were
    /// placed to exercise — e.g. a deposed home's `HomeFence` must clear a
    /// heal boundary before the barrier release that wakes the deposed
    /// node's application can.
    Due,
}

/// One retransmission round across every node, in node order then request
/// id order — fired by the scheduler either when the fabric stalled with
/// agents parked ([`RetryRound::Stalled`]) or when the retry deadline
/// passed on a busy network ([`RetryRound::Due`]). The timed flavor is
/// what makes the retry machinery a true timer: a lost reply must be
/// retransmitted even while *other* nodes keep the event queue busy (a
/// redirect chase chattering over a stale hint can otherwise starve the
/// very retransmission that would resolve it). Each node with live
/// entries moves its clock per the round flavor (stall rounds advance by
/// one timeout, timed rounds not at all), then retransmits every
/// non-exhausted entry. Returns whether anything was sent; `false` means
/// every entry is exhausted (or none exists).
///
/// Only **stall** rounds count toward [`FaultConfig::failover_after`] and
/// can escalate to a home re-election. A stalled fabric is true silence —
/// an unanswered electable request really is aimed at something
/// unreachable. On a busy network an unanswered request usually means a
/// live home that is slow or `Busy`-deferring; electing it away would
/// depose a healthy home mid-operation (its already-applied diffs then
/// get re-applied at the new home — double-applied writes and wrong
/// results). Timed rounds therefore retransmit without aging entries: a
/// genuinely dark destination keeps dropping traffic until the run drains
/// into a stall, and failover proceeds from there.
pub(crate) fn fire_retries(shareds: &[Arc<NodeShared>], round: RetryRound) -> bool {
    let mut progressed = false;
    for shared in shareds {
        let Some(fault) = &shared.fault else { continue };
        let mut retries = fault.retries.lock();
        if !retries
            .values()
            .any(|entry| entry.total < fault.config.max_attempts)
        {
            continue;
        }
        // One timeout per round per node, not per entry: all of the node's
        // outstanding timers burn down concurrently. Timed rounds leave
        // clocks alone — see [`RetryRound::Due`].
        if matches!(round, RetryRound::Stalled) {
            shared.clock.advance(fault.config.retry_timeout);
        }
        for (req, entry) in retries.iter_mut() {
            if entry.total >= fault.config.max_attempts {
                continue;
            }
            entry.total += 1;
            if matches!(round, RetryRound::Stalled) {
                entry.attempts += 1;
                if matches!(entry.phase, RetryPhase::Normal)
                    && entry.attempts >= fault.config.failover_after
                    && entry.dst != shared.node
                {
                    if let Some(obj) = electable_obj(&entry.msg) {
                        begin_election(shared, *req, entry, obj);
                    }
                }
            }
            shared.send(entry.dst, entry.msg.clone());
            progressed = true;
        }
    }
    progressed
}

/// Candidate-side handling of a `HomeElectReply` (delivered through the
/// normal request path — it is not a blocking reply). A refusal reverts
/// the entry to retrying its original destination; an acceptance installs
/// the elected home, notifies the rest of the cluster, arms an
/// acknowledged `HomeFence` at the deposed home and re-aims the suspended
/// request at the winner.
pub(crate) fn handle_elect_reply(
    shared: &Arc<NodeShared>,
    req: ReqId,
    obj: ObjectId,
    home: NodeId,
    epoch: u32,
) {
    let Some(fault) = &shared.fault else { return };
    // Re-aim the suspended request if its election entry is still live.
    // The entry may instead be gone (the request completed through another
    // path — e.g. a late reply from the deposed home crossed the election)
    // or back in a non-electing phase (duplicate of an older reply). A
    // *refusal* is then simply stale. An **acceptance is not**: the
    // arbiter's decision is sticky — it answers every later election for
    // this object with the same `(home, epoch)` and already redirects
    // traffic there — so the candidate must adopt it with or without the
    // entry. A candidate that shrugs off its own acceptance becomes the
    // cluster's lone dissenter: every other node can learn the new home
    // from epoch-guarded hints, but the elected node itself rejects
    // "the home is you" hints, keeps aiming traffic at the deposed home,
    // and the two redirect at each other until the convergence bound
    // trips.
    let entry_aim = {
        let mut retries = fault.retries.lock();
        if let Some(entry) = retries.get_mut(&req) {
            if let RetryPhase::Electing {
                original_dst,
                original_msg,
            } = entry.phase.clone()
            {
                if home == original_dst || epoch == 0 {
                    // Refusal: no reachable copy holder (or the arbiter
                    // thinks the suspect is fine). Fall back to retrying
                    // the original aim — if the silence was a partition,
                    // healing resolves it.
                    entry.dst = original_dst;
                    entry.msg = original_msg;
                    entry.phase = RetryPhase::Normal;
                    entry.attempts = 0;
                    return;
                }
                entry.dst = home;
                entry.msg = original_msg.clone();
                entry.phase = RetryPhase::Normal;
                entry.attempts = 0;
                entry.total += 1;
                Some((original_dst, original_msg))
            } else {
                None
            }
        } else {
            None
        }
    };
    if epoch == 0 || (entry_aim.is_none() && shared.engine.home_epoch(obj) >= epoch) {
        // A refusal with no live election, or an acceptance this node
        // already adopted (duplicate reply): nothing new was decided.
        return;
    }
    // The deposed home: the suspended request's original aim, or — entry
    // gone — this node's own pre-install belief of the object's home.
    let deposed = entry_aim
        .as_ref()
        .map(|(dst, _)| *dst)
        .unwrap_or_else(|| shared.engine.home_hint(obj));
    // Adopt (or promote to) the elected home before resending, so our own
    // redirect handling and flush planning agree with the new aim.
    shared.engine.install_elected_home(obj, home, epoch);
    if entry_aim.is_none() && (home != shared.node || deposed == shared.node || deposed == home) {
        // Someone else's sticky decision (its candidate fenced and
        // notified on install), or no distinct deposed home left to
        // fence: adopting the hint was all there was to do.
        return;
    }
    // Spread the news. These are fire-and-forget and may themselves be
    // dropped; a node that misses one re-discovers the home through the
    // sticky arbiter when its own traffic to the dead home times out.
    for n in 0..shared.num_nodes as u16 {
        let n = NodeId(n);
        if n != shared.node && n != deposed && n != home {
            shared.send(
                n,
                ProtocolMsg::HomeNotify {
                    obj,
                    new_home: home,
                    epoch,
                },
            );
        }
    }
    // Fence the deposed home: retried until acknowledged, so the moment it
    // becomes reachable again it demotes its stale copy instead of serving
    // split-brain grants.
    let fence_req = shared.new_req();
    let fence = ProtocolMsg::HomeFence {
        req: fence_req,
        obj,
        new_home: home,
        epoch,
    };
    fault.track_phase(fence_req, deposed, fence.clone(), RetryPhase::Fence);
    shared.send(deposed, fence);
    // Resend the suspended request at its new home immediately (the entry
    // was already re-aimed above, so later retry rounds agree).
    if let Some((_, original_msg)) = entry_aim {
        shared.send(home, original_msg);
    }
}

/// Clear the retry entry an acknowledgement answers (`LockReleaseAck`,
/// `HomeFenceAck`). Duplicate acks are ignored.
pub(crate) fn handle_ack(shared: &NodeShared, req: ReqId) {
    if let Some(fault) = &shared.fault {
        fault.clear(req);
    }
}

//! Recovery for fabrics that drop messages: retransmission, at-most-once
//! serving and home re-election, as plain state under the engine's lock.
//!
//! Only an engine armed with
//! [`ProtocolEngine::with_recovery`](crate::ProtocolEngine::with_recovery)
//! has a [`Recovery`]; the runtime arms the engines of lossy sim runs. On
//! every other run each request is sent once and answered once, and a
//! stall is a genuine deadlock. An armed engine keeps two tables:
//!
//! * **Client side**, the retry table: every request the node sends to
//!   another node (and every acknowledged one-way message: a tracked
//!   `LockRelease`, a `HomeFence`) stays in it until its reply or ack
//!   arrives, and each retry round retransmits it.
//! * **Server side**, the reply cache keyed by [`ReqId`]: a re-delivered
//!   request whose original is still being served is absorbed, and one that
//!   was answered gets the cached reply again instead of a second run of its
//!   handler. This is what makes a retransmitted lock acquire, barrier
//!   arrival or diff safe. Only other nodes' requests and answers to other
//!   nodes enter it: a node's messages to itself never travel, so nothing
//!   retransmits them.
//!
//! A fault-in or diff flush that stays unanswered for [`FAILOVER_AFTER`]
//! stalled rounds treats its destination as a dark home and asks the
//! object's *arbiter* (its manager, or the next node when the manager is
//! the suspect) to elect a reachable replacement; see the engine's
//! "Fault model & recovery" docs for the election and fencing rules.

use crate::messages::{ProtocolMsg, ReqId};
use crate::state::EngineState;
use dsm_objspace::{NodeId, ObjectId};
use dsm_util::IdMap;
use std::collections::BTreeMap;

/// Total sends (original and retransmissions) of one entry before it is
/// exhausted. When every outstanding entry of every node is exhausted, a
/// retry round sends nothing and the sim scheduler gives up with
/// diagnostics. A partition crossing needs a few hundred.
const MAX_ATTEMPTS: u32 = 1000;

/// Stalled rounds an electable request waits on one destination before its
/// sender suspects a dark home. It exceeds the rounds a partition window
/// spans, so a healable partition never triggers an election.
const FAILOVER_AFTER: u32 = 16;

/// What provoked a retry round; it decides whether entries age.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryRound {
    /// The fabric stalled with agents parked: true silence. Each entry ages
    /// by one round, and an electable request aimed at a node silent for
    /// 16 rounds (`FAILOVER_AFTER`) starts a home re-election. The runtime
    /// advances the node's clock by one retry timeout before sending.
    Stalled,
    /// The retry deadline passed on a busy network. Entries retransmit
    /// without aging: an unanswered request on a busy network usually means
    /// a live home that is slow or deferring it, and electing that home
    /// away would re-apply its applied diffs at the new home. The clock is
    /// left alone, so retransmissions keep each sender's own time (the
    /// sim's pause windows drop by the sender's send time).
    Due,
}

/// Which stage of recovery a tracked message is in.
#[derive(Debug, Clone)]
enum RetryPhase {
    /// Retransmitting the original message to its believed destination.
    Normal,
    /// The destination went dark: retransmitting a `HomeElect` to the
    /// arbiter, the original aim parked for the revert or re-aim.
    Electing {
        original_dst: NodeId,
        original_msg: ProtocolMsg,
    },
    /// A `HomeFence` to a deposed home: retried until acked, never
    /// re-elected (the fence is the recovery).
    Fence,
}

/// One outstanding tracked message.
#[derive(Debug, Clone)]
struct RetryEntry {
    dst: NodeId,
    msg: ProtocolMsg,
    /// Stalled rounds in the current phase and aim.
    attempts: u32,
    /// Lifetime sends, bounded by [`MAX_ATTEMPTS`].
    total: u32,
    phase: RetryPhase,
}

/// How a server admits an inbound request.
#[derive(Debug)]
pub(crate) enum Admission {
    /// First delivery (or not a deduplicated request): serve it.
    Serve,
    /// A duplicate whose original is still being served: drop it.
    Absorb,
    /// A duplicate of an answered request: send the cached answer again.
    Resend(NodeId, ProtocolMsg),
}

/// An armed engine's recovery tables. See the module documentation.
#[derive(Debug, Default)]
pub(crate) struct Recovery {
    /// Outstanding tracked messages. A `BTreeMap`, so a retry round sends
    /// in request-id order.
    retries: BTreeMap<ReqId, RetryEntry>,
    /// Requests seen (`None`: still being served, or absorbed) and answered
    /// (`Some`: the reply or ack to send again).
    replies: IdMap<ReqId, Option<(NodeId, ProtocolMsg)>>,
}

impl Recovery {
    /// Track a message this node just sent, as its first attempt.
    pub(crate) fn track(&mut self, req: ReqId, dst: NodeId, msg: ProtocolMsg) {
        self.track_phase(req, dst, msg, RetryPhase::Normal);
    }

    fn track_phase(&mut self, req: ReqId, dst: NodeId, msg: ProtocolMsg, phase: RetryPhase) {
        let entry = RetryEntry {
            dst,
            msg,
            attempts: 0,
            total: 1,
            phase,
        };
        let previous = self.retries.insert(req, entry);
        debug_assert!(previous.is_none(), "duplicate tracked request {req:?}");
    }

    /// Stop retransmitting `req`: its reply or ack arrived.
    pub(crate) fn settle(&mut self, req: ReqId) {
        self.retries.remove(&req);
    }

    /// Admit one delivery of request `req` at the server.
    pub(crate) fn admit(&mut self, req: ReqId) -> Admission {
        match self.replies.get(&req) {
            None => {
                self.replies.insert(req, None);
                Admission::Serve
            }
            Some(None) => Admission::Absorb,
            Some(Some((dst, reply))) => Admission::Resend(*dst, reply.clone()),
        }
    }

    /// Remember the reply or ack `msg` the server sends to `dst` for
    /// request `req`.
    pub(crate) fn cache(&mut self, req: ReqId, dst: NodeId, msg: &ProtocolMsg) {
        self.replies.insert(req, Some((dst, msg.clone())));
    }

    /// Requests in the reply cache, answered or not.
    #[cfg(test)]
    pub(crate) fn cached(&self) -> usize {
        self.replies.len()
    }

    /// One retry round: every entry short of [`MAX_ATTEMPTS`], in request-id
    /// order, is sent again, after a stalled round aged it and perhaps
    /// swung it to an election. An empty result means every entry is
    /// exhausted or none exists.
    pub(crate) fn round(
        &mut self,
        state: &EngineState,
        round: RetryRound,
    ) -> Vec<(NodeId, ProtocolMsg)> {
        let mut sends = Vec::new();
        for (&req, entry) in &mut self.retries {
            if entry.total >= MAX_ATTEMPTS {
                continue;
            }
            entry.total += 1;
            if round == RetryRound::Stalled {
                entry.attempts += 1;
                if matches!(entry.phase, RetryPhase::Normal)
                    && entry.attempts >= FAILOVER_AFTER
                    && entry.dst != state.node
                {
                    if let Some(obj) = electable_obj(&entry.msg) {
                        entry.begin_election(state, req, obj);
                    }
                }
            }
            sends.push((entry.dst, entry.msg.clone()));
        }
        sends
    }

    /// The candidate's side of a `HomeElectReply` for `obj` under the
    /// suspended request `req`: returns what to send. A refusal reverts the
    /// entry to its original aim. An acceptance installs the elected home,
    /// notifies the other nodes, fences the deposed home (a tracked
    /// `HomeFence` under `fence_req()`) and re-aims the suspended request
    /// at the winner.
    pub(crate) fn elect_reply(
        &mut self,
        state: &mut EngineState,
        req: ReqId,
        obj: ObjectId,
        home: NodeId,
        epoch: u32,
        fence_req: impl FnOnce() -> ReqId,
    ) -> Vec<(NodeId, ProtocolMsg)> {
        // The entry may be gone (a late reply from the deposed home crossed
        // the election) or back in another phase (a duplicate of an older
        // reply). A refusal is then stale. An acceptance is not: the
        // arbiter's decision is sticky and it already redirects traffic to
        // the winner, so the candidate adopts it with or without the entry.
        // A winner that ignored its own acceptance would be the cluster's
        // lone dissenter: the others learn the new home from epoch-guarded
        // hints, but the winner rejects "the home is you" hints, keeps
        // aiming at the deposed home, and the two redirect at each other
        // until the chase's convergence bound trips.
        let mut aim = None;
        if let Some(entry) = self.retries.get_mut(&req) {
            if let RetryPhase::Electing {
                original_dst,
                original_msg,
            } = entry.phase.clone()
            {
                entry.phase = RetryPhase::Normal;
                entry.attempts = 0;
                if home == original_dst || epoch == 0 {
                    // Refusal: no reachable copy holder, or the arbiter
                    // thinks the suspect is fine. Retry the original aim;
                    // if the silence was a partition, healing resolves it.
                    entry.dst = original_dst;
                    entry.msg = original_msg;
                    return Vec::new();
                }
                entry.dst = home;
                entry.msg = original_msg.clone();
                entry.total += 1;
                aim = Some((original_dst, original_msg));
            }
        }
        if epoch == 0 || (aim.is_none() && state.home_epoch(obj) >= epoch) {
            // A refusal without a live election, or an acceptance this node
            // already adopted: nothing new was decided.
            return Vec::new();
        }
        // The deposed home: the suspended request's original aim or, with
        // the entry gone, this node's belief before the install.
        let deposed = aim
            .as_ref()
            .map_or_else(|| state.home_hint(obj), |(dst, _)| *dst);
        state.install_elected_home(obj, home, epoch);
        let node = state.node;
        if aim.is_none() && (home != node || deposed == node || deposed == home) {
            // Someone else's sticky decision (its candidate fenced and
            // notified), or no distinct deposed home to fence.
            return Vec::new();
        }
        // Fire-and-forget news to the rest: a node that misses it finds the
        // home through the sticky arbiter when its own traffic times out.
        let mut sends: Vec<(NodeId, ProtocolMsg)> = (0..state.num_nodes as u16)
            .map(NodeId)
            .filter(|&n| n != node && n != deposed && n != home)
            .map(|n| {
                let notify = ProtocolMsg::HomeNotify {
                    obj,
                    new_home: home,
                    epoch,
                };
                (n, notify)
            })
            .collect();
        // The fence is retried until acked, so the deposed home demotes its
        // stale copy the moment it is reachable instead of serving
        // split-brain grants.
        let fence_req = fence_req();
        let fence = ProtocolMsg::HomeFence {
            req: fence_req,
            obj,
            new_home: home,
            epoch,
        };
        self.track_phase(fence_req, deposed, fence.clone(), RetryPhase::Fence);
        sends.push((deposed, fence));
        // The re-aimed entry agrees with this immediate resend.
        if let Some((_, original_msg)) = aim {
            sends.push((home, original_msg));
        }
        sends
    }
}

impl RetryEntry {
    /// Swing a silent entry to the election phase: its next sends carry a
    /// `HomeElect` to the arbiter instead of the original message.
    fn begin_election(&mut self, state: &EngineState, req: ReqId, obj: ObjectId) {
        let suspect = self.dst;
        let elect = ProtocolMsg::HomeElect {
            req,
            obj,
            suspect,
            candidate: state.node,
            epoch: state.home_epoch(obj),
            has_copy: state.has_copy(obj),
        };
        // The arbiter: the object's manager, or the next node around the
        // ring when the manager is the suspect itself.
        let manager = state.manager_of(obj);
        self.dst = if manager == suspect {
            NodeId((manager.0 + 1) % state.num_nodes as u16)
        } else {
            manager
        };
        self.phase = RetryPhase::Electing {
            original_dst: suspect,
            original_msg: std::mem::replace(&mut self.msg, elect),
        };
        self.attempts = 0;
    }
}

/// The object a message would re-elect a home for: only fault-ins and
/// single diff flushes fail over. Lock and barrier traffic aims at the
/// fixed sync manager, and a diff batch is re-planned by its sender, so
/// those retry until the network heals.
fn electable_obj(msg: &ProtocolMsg) -> Option<ObjectId> {
    match msg {
        ProtocolMsg::ObjectRequest { obj, .. } | ProtocolMsg::DiffFlush { obj, .. } => Some(*obj),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step::ClientOp;
    use crate::world::World;
    use crate::ProtocolConfig;
    use dsm_objspace::{HomeAssignment, LockId, ObjectRegistry, Version};
    use std::sync::Arc;
    use RetryRound::{Due, Stalled};

    /// Three armed engines sharing `x`, homed at (and managed by) node 0.
    fn world() -> World {
        let mut registry = ObjectRegistry::new();
        registry.register_named("x", 0, 64, NodeId::MASTER, HomeAssignment::Master);
        World::new(3, ProtocolConfig::no_migration(), Arc::new(registry)).lossy()
    }

    fn x() -> ObjectId {
        ObjectId::derive("x", 0)
    }

    /// Node 2's fault-in of `x`, tracked as sent to node 0 and lost there.
    fn lost_fault_in(world: &mut World) -> ProtocolMsg {
        world.send_next(2, &mut ClientOp::fault_in(x(), false, NodeId(0)));
        world.drop_next(2, 0)
    }

    /// `n` retry rounds of `round` at `node`, each of which must send `msg`
    /// to node 0 and nothing else.
    fn rounds_send(world: &mut World, node: usize, round: RetryRound, n: u32, msg: &ProtocolMsg) {
        for i in 0..n {
            let sends = world.retry_round(node, round);
            assert_eq!(sends, [(NodeId(0), msg.clone())], "{round:?} round {i}");
        }
    }

    fn is_elect(sends: &[(NodeId, ProtocolMsg)]) -> bool {
        matches!(sends, [(NodeId(1), ProtocolMsg::HomeElect { .. })])
    }

    #[test]
    fn due_rounds_retransmit_without_aging_and_only_stalled_rounds_fail_over() {
        let mut world = world();
        let request = lost_fault_in(&mut world);
        rounds_send(&mut world, 2, Due, 3 * FAILOVER_AFTER, &request);
        rounds_send(&mut world, 2, Stalled, FAILOVER_AFTER - 1, &request);
        assert!(is_elect(&world.retry_round(2, Stalled)));
    }

    #[test]
    fn a_refused_election_reverts_to_the_original_aim() {
        let mut world = world();
        let request = lost_fault_in(&mut world);
        rounds_send(&mut world, 2, Stalled, FAILOVER_AFTER - 1, &request);
        assert!(is_elect(&world.retry_round(2, Stalled)));
        let refusal = ProtocolMsg::HomeElectReply {
            req: request.dedup_req().unwrap(),
            obj: x(),
            home: NodeId(0),
            epoch: 0,
        };
        assert!(world.receive(1, 2, refusal).is_empty());
        // Back on the original aim, with its silence count reset.
        rounds_send(&mut world, 2, Stalled, FAILOVER_AFTER - 1, &request);
        assert!(is_elect(&world.retry_round(2, Stalled)));
        assert_eq!(world[2].home_hint(x()), NodeId(0));
    }

    #[test]
    fn an_exhausted_table_sends_nothing() {
        let mut world = world();
        world.send_next(1, &mut ClientOp::Acquire(LockId(1)));
        let acquire = world.drop_next(1, 0);
        rounds_send(&mut world, 1, Stalled, MAX_ATTEMPTS - 1, &acquire);
        assert!(world.retry_round(1, Stalled).is_empty());
        assert!(world.retry_round(1, Due).is_empty());
    }

    /// Node 2 holds a copy of `x` but no election entry, and receives an
    /// acceptance naming itself: the arbiter's decision is sticky, so it
    /// must take the home (and fence node 0, its previous belief) rather
    /// than keep aiming at the deposed home as the lone dissenter. Returns
    /// the world and the acceptance.
    fn accepted_without_an_entry() -> (World, ProtocolMsg) {
        let mut world = world();
        world[2].install_object(x(), vec![0; 64], Version(0), None);
        let epoch = 1 << 16;
        let accept = ProtocolMsg::HomeElectReply {
            req: ReqId(99),
            obj: x(),
            home: NodeId(2),
            epoch,
        };
        let sends = world.receive(1, 2, accept.clone());
        assert!(world[2].is_home(x()));
        assert_eq!(world[2].home_epoch(x()), epoch);
        let notify = ProtocolMsg::HomeNotify {
            obj: x(),
            new_home: NodeId(2),
            epoch,
        };
        assert_eq!(sends.len(), 2, "{sends:?}");
        assert_eq!(sends[0], (NodeId(1), notify));
        assert!(matches!(
            sends[1],
            (NodeId(0), ProtocolMsg::HomeFence { .. })
        ));
        (world, accept)
    }

    #[test]
    fn an_acceptance_without_a_live_entry_still_installs_the_elected_home() {
        accepted_without_an_entry();
    }

    #[test]
    fn a_duplicate_acceptance_changes_nothing() {
        let (mut world, accept) = accepted_without_an_entry();
        let fence = world.retry_round(2, Due);
        assert!(world.receive(1, 2, accept).is_empty());
        assert!(world[2].is_home(x()));
        assert_eq!(world.retry_round(2, Due), fence, "one fence");
    }

    #[test]
    fn fence_entries_never_start_an_election() {
        let (mut world, _) = accepted_without_an_entry();
        let [(NodeId(0), fence)] = &world.retry_round(2, Due)[..] else {
            panic!("one fence to the deposed home");
        };
        let fence = fence.clone();
        rounds_send(&mut world, 2, Stalled, 3 * FAILOVER_AFTER, &fence);
    }
}

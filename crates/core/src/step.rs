//! The protocol as plain steps. [`serve`] runs one inbound message against
//! the [`ProtocolEngine`] and pushes the messages to send, in order, to a
//! sink; a request the engine reports `Busy` (its payload is leased to a
//! live view) waits in the node's [`ServeState`]. On a lossy fabric the
//! same step admits requests, answers duplicates from the reply cache and
//! serves recovery's acks and election answers. A [`ClientOp`] is one
//! blocking operation as a state machine — the fault-in chase, the diff
//! flush, the batch flush with its per-entry re-plan, the lock acquire or
//! the barrier: it names its next request, takes the reply and says
//! whether it is done, so each chase and its retarget rule exist once.
//! Whoever drives the steps owns the transport, the waiting and the clocks:
//! the runtime's nodes on a fabric, or the thread-free second driver,
//! [`World`](crate::world::World), which holds messages in per-link queues.

use crate::engine::{group_flush_plans, FlushBatch, FlushPlan, ProtocolEngine};
use crate::messages::{DiffBatchEntry, DiffBatchResult, DiffEntryStatus, ProtocolMsg, ReqId};
use crate::recovery::Admission;
use crate::sync::{BarrierOutcome, LockAcquireOutcome};
use crate::{DiffOutcome, ObjectRequestOutcome};
use dsm_objspace::{BarrierId, LockId, NodeId, ObjectId};
use dsm_util::IdMap;
use std::collections::VecDeque;
use std::fmt;

/// The node that hosts the distributed lock and barrier managers. The
/// paper's applications start on one node and send all distributed
/// synchronization there.
pub const SYNC_MANAGER: NodeId = NodeId::MASTER;

/// One node's serve-side state: requests deferred while their payload was
/// leased to an application view, and the results already resolved for
/// partially deferred diff batches. It never crosses the wire.
#[derive(Debug, Default)]
pub struct ServeState {
    deferred: VecDeque<(NodeId, ProtocolMsg)>,
    /// Resolved entries of a deferred `DiffBatch`, keyed by its request id.
    partials: IdMap<ReqId, Vec<DiffBatchResult>>,
}

impl ServeState {
    /// Number of deferred requests.
    pub fn deferred(&self) -> usize {
        self.deferred.len()
    }

    /// Deferred work counted per diff-batch entry, so partial progress on a
    /// batch shows as a smaller number.
    pub fn deferred_entries(&self) -> usize {
        self.deferred
            .iter()
            .map(|(_, msg)| match msg {
                ProtocolMsg::DiffBatch { entries, .. } => entries.len(),
                _ => 1,
            })
            .sum()
    }

    /// Give every deferred request one more chance, keeping arrival order
    /// among the still-busy ones. A deferred request was admitted when it
    /// arrived, so it is not admitted again.
    pub fn retry(&mut self, engine: &ProtocolEngine, out: &mut impl FnMut(NodeId, ProtocolMsg)) {
        for _ in 0..self.deferred.len() {
            let (src, msg) = self.deferred.pop_front().expect("length checked by loop");
            dispatch(engine, self, src, msg, out);
        }
    }
}

/// Serve one inbound message from `src`: run it against the engine and push
/// every message it produces to `out`, in send order. A request the engine
/// reports `Busy` is deferred in `state` instead (see
/// [`ServeState::retry`]).
///
/// On an engine armed for recovery ([`ProtocolEngine::with_recovery`]) the
/// step first admits a message from another node: a duplicate of a request
/// still being served is absorbed, and a duplicate of an answered one gets
/// the cached answer again. Every reply and ack the step sends to another
/// node is cached by the request it answers. A node's messages to itself
/// are served inline and never retransmitted, so they are neither admitted
/// nor cached. Recovery's own messages are served here too: an ack
/// settles its retry entry, and an election answer installs the elected
/// home, fences the deposed one and re-aims the suspended request.
///
/// # Panics
/// Panics on a reply or `Shutdown`: the runtime consumes those itself.
pub fn serve(
    engine: &ProtocolEngine,
    state: &mut ServeState,
    src: NodeId,
    msg: ProtocolMsg,
    out: &mut impl FnMut(NodeId, ProtocolMsg),
) {
    let admission = msg
        .dedup_req()
        .filter(|_| src != engine.node())
        .and_then(|req| engine.recovery(|r, _| r.admit(req)));
    match admission {
        None | Some(Admission::Serve) => dispatch(engine, state, src, msg, out),
        Some(Admission::Absorb) => {}
        Some(Admission::Resend(dst, reply)) => out(dst, reply),
    }
}

/// Serve an admitted message.
fn dispatch(
    engine: &ProtocolEngine,
    state: &mut ServeState,
    src: NodeId,
    msg: ProtocolMsg,
    out: &mut impl FnMut(NodeId, ProtocolMsg),
) {
    // An armed engine caches every reply and ack to another node by the
    // request it answers.
    let out = &mut |dst, msg: ProtocolMsg| {
        if let Some(req) = msg.reply_req().or_else(|| msg.ack_req()) {
            if dst != engine.node() {
                engine.recovery(|r, _| r.cache(req, dst, &msg));
            }
        }
        out(dst, msg);
    };
    let busy = match msg {
        ProtocolMsg::DiffBatch { req, entries, from } => {
            serve_batch(engine, &mut state.partials, req, entries, from, out)
        }
        msg => handle(engine, src, msg, out),
    };
    if let Some(busy) = busy {
        state.deferred.push_back((src, busy));
    }
    debug_assert!(
        !state.deferred.is_empty() || state.partials.is_empty(),
        "batch partials outlived their deferred entries"
    );
}

/// Run one request other than a `DiffBatch`. Returns it back when the
/// engine reported a busy payload.
fn handle(
    engine: &ProtocolEngine,
    src: NodeId,
    msg: ProtocolMsg,
    out: &mut impl FnMut(NodeId, ProtocolMsg),
) -> Option<ProtocolMsg> {
    match &msg {
        &ProtocolMsg::ObjectRequest {
            req,
            obj,
            requester,
            for_write,
            redirections,
        } => match engine.handle_object_request(obj, requester, for_write, redirections) {
            ObjectRequestOutcome::Busy => return Some(msg),
            ObjectRequestOutcome::Reply {
                data,
                version,
                migration,
                notify,
            } => {
                // New-home notifications (broadcast / manager mechanisms)
                // go before the reply so their virtual send time is the
                // migration instant.
                let epoch = migration.as_ref().map_or(0, |grant| grant.epoch());
                for target in notify {
                    out(
                        target,
                        ProtocolMsg::HomeNotify {
                            obj,
                            new_home: requester,
                            epoch,
                        },
                    );
                }
                out(
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
            ObjectRequestOutcome::Redirect { hint, epoch } => out(
                requester,
                ProtocolMsg::ObjectRedirect {
                    req,
                    obj,
                    new_home: hint,
                    epoch,
                },
            ),
        },
        &ProtocolMsg::DiffFlush {
            req,
            obj,
            ref diff,
            from,
            redirections,
        } => match engine.handle_diff(obj, diff, from, redirections) {
            DiffOutcome::Busy => return Some(msg),
            DiffOutcome::Applied { new_version } => out(
                from,
                ProtocolMsg::DiffAck {
                    req,
                    obj,
                    version: new_version,
                },
            ),
            DiffOutcome::Redirect { hint, epoch } => out(
                from,
                ProtocolMsg::DiffRedirect {
                    req,
                    obj,
                    new_home: hint,
                    epoch,
                },
            ),
        },
        &ProtocolMsg::LockAcquire {
            req,
            lock,
            requester,
        } => {
            // Queued: the grant goes out when the current holder releases.
            if engine.lock_acquire(lock, requester, req) == LockAcquireOutcome::Granted {
                out(requester, ProtocolMsg::LockGrant { req, lock });
            }
        }
        &ProtocolMsg::LockRelease { lock, holder, req } => {
            if let Some((next, grant)) = engine.lock_release(lock, holder).grant_next {
                out(next, ProtocolMsg::LockGrant { req: grant, lock });
            }
            // `ReqId(0)` marks the fire-and-forget release of lossless
            // fabrics; a tracked release wants its ack.
            if req.0 != 0 {
                out(holder, ProtocolMsg::LockReleaseAck { req, lock });
            }
        }
        &ProtocolMsg::BarrierArrive {
            req,
            barrier,
            node,
            epoch,
        } => {
            if let BarrierOutcome::Complete {
                waiters,
                epoch: done,
            } = engine.barrier_arrive(barrier, node, req)
            {
                debug_assert_eq!(done, epoch, "barrier epoch mismatch");
                for (waiter, req) in waiters {
                    out(
                        waiter,
                        ProtocolMsg::BarrierRelease {
                            req,
                            barrier,
                            epoch: done,
                        },
                    );
                }
            }
        }
        &ProtocolMsg::HomeNotify {
            obj,
            new_home,
            epoch,
        } => engine.handle_home_notify(obj, new_home, epoch),
        &ProtocolMsg::HomeElect {
            req,
            obj,
            suspect,
            candidate,
            epoch,
            has_copy,
        } => {
            let (home, epoch) = engine.handle_home_elect(obj, suspect, candidate, epoch, has_copy);
            out(
                src,
                ProtocolMsg::HomeElectReply {
                    req,
                    obj,
                    home,
                    epoch,
                },
            );
        }
        &ProtocolMsg::HomeFence {
            req,
            obj,
            new_home,
            epoch,
        } => {
            engine.handle_home_notify(obj, new_home, epoch);
            out(src, ProtocolMsg::HomeFenceAck { req, obj });
        }
        &ProtocolMsg::HomeElectReply {
            req,
            obj,
            home,
            epoch,
        } => {
            let new_req = || engine.new_req();
            let sends = engine.recovery(|r, s| r.elect_reply(s, req, obj, home, epoch, new_req));
            for (dst, msg) in sends.unwrap_or_default() {
                out(dst, msg);
            }
        }
        &ProtocolMsg::LockReleaseAck { req, .. } | &ProtocolMsg::HomeFenceAck { req, .. } => {
            engine.recovery(|r, _| r.settle(req));
        }
        other => panic!("server received unexpected message {other:?}"),
    }
    None
}

/// Serve one `DiffBatch`, taken by value: resolve each entry as a
/// `DiffFlush` would and answer with one `DiffBatchAck` once none is
/// pending. Busy entries come back as a residual batch to defer, the
/// resolved results parked in `partials`.
fn serve_batch(
    engine: &ProtocolEngine,
    partials: &mut IdMap<ReqId, Vec<DiffBatchResult>>,
    req: ReqId,
    entries: Vec<DiffBatchEntry>,
    from: NodeId,
    out: &mut impl FnMut(NodeId, ProtocolMsg),
) -> Option<ProtocolMsg> {
    let mut results = partials.remove(&req).unwrap_or_default();
    let mut still_busy = Vec::new();
    for entry in entries {
        // Entries arrive with zero redirection hops of their own: the batch
        // was addressed directly to the believed home.
        let status = match engine.handle_diff(entry.obj, &entry.diff, from, 0) {
            DiffOutcome::Applied { new_version } => DiffEntryStatus::Applied {
                version: new_version,
            },
            DiffOutcome::Redirect { hint, epoch } => DiffEntryStatus::Redirect {
                new_home: hint,
                epoch,
            },
            DiffOutcome::Busy => {
                still_busy.push(entry);
                continue;
            }
        };
        results.push(DiffBatchResult {
            obj: entry.obj,
            status,
        });
    }
    if still_busy.is_empty() {
        out(from, ProtocolMsg::DiffBatchAck { req, results });
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

/// Take in a reply: its request stops being retransmitted (on an engine
/// armed for recovery), and a fault-in reply installs what it carries: the
/// copy, and the home with it under a migration grant. Run it as the reply
/// arrives, before the waiting op sees it, so a grant takes effect before
/// the grantee's own requests can chase the old home back to it.
pub fn install_reply(engine: &ProtocolEngine, reply: &mut ProtocolMsg) {
    if let Some(req) = reply.reply_req() {
        engine.recovery(|r, _| r.settle(req));
    }
    if let ProtocolMsg::ObjectReply {
        obj,
        data,
        version,
        migration,
        ..
    } = reply
    {
        engine.install_object(*obj, std::mem::take(data), *version, migration.take());
    }
}

/// Adopt a redirect hint (epoch-guarded) and return the node to retry at:
/// the hinted home, but never this node itself. A stale hint pointing back
/// here falls back to this node's own forward belief, which the epoch guard
/// kept intact.
fn retarget(engine: &ProtocolEngine, obj: ObjectId, new_home: NodeId, epoch: u32) -> NodeId {
    engine.note_redirect(obj, new_home, epoch);
    if new_home == engine.node() {
        engine.home_hint(obj)
    } else {
        new_home
    }
}

/// The redirections a chase among `nodes` nodes may take. Epoch-guarded
/// hints make chains monotone, so only a protocol bug exceeds this bound;
/// it is generous because concurrent migrations lengthen a chase.
pub fn redirect_limit(nodes: usize) -> u32 {
    nodes as u32 * 2 + 16
}

/// The flushes that release `engine`'s interval, in run order: with
/// `batching`, one per believed home ([`group_flush_plans`]), a
/// [`ClientOp::batch`] if it holds two plans or more; without, the paper's
/// one `DiffFlush` per object. [`ProtocolEngine::finish_release`] follows.
pub fn release_ops(engine: &ProtocolEngine, batching: bool) -> Vec<ClientOp> {
    let plans = engine.prepare_release();
    if !batching {
        return plans.into_iter().map(ClientOp::flush).collect();
    }
    let op = |mut batch: FlushBatch| match batch.entries.len() {
        1 => ClientOp::flush(batch.entries.pop().expect("one plan")),
        _ => ClientOp::batch(engine, batch),
    };
    group_flush_plans(plans).into_iter().map(op).collect()
}

/// A blocking client operation as a state machine. The caller sends
/// [`Self::request`] under a fresh request id, hands its reply to
/// [`Self::on_reply`], and repeats until that reports the operation done.
///
/// A chase adopts a redirect's hint when it names its next request, not
/// when the redirect arrives: a caller that pauses between hops picks up
/// a home notification that landed during the pause.
#[derive(Debug)]
pub enum ClientOp {
    /// Fault `obj` in, following forwarding pointers until the current home
    /// replies.
    FaultIn {
        /// The object.
        obj: ObjectId,
        /// Whether the fault is a write fault.
        for_write: bool,
        /// The believed home the next request goes to.
        target: NodeId,
        /// Redirections taken so far.
        redirections: u32,
        /// The last redirect's hint and epoch, until adopted.
        redirect: Option<(NodeId, u32)>,
    },
    /// Flush one diff to its home, following forwarding pointers until the
    /// current home acknowledges it.
    Flush {
        /// The diff, and the believed home the next request goes to.
        plan: FlushPlan,
        /// Redirections taken so far. A batch entry re-planned after a
        /// per-entry redirect starts at 1, so the home that applies it sees
        /// the same negative feedback `R_i` as an individually redirected
        /// flush.
        redirections: u32,
        /// The last redirect's hint and epoch, until adopted.
        redirect: Option<(NodeId, u32)>,
    },
    /// Flush same-home diffs as one `DiffBatch` (see [`ClientOp::batch`]).
    Batch(BatchFlush),
    /// Acquire a lock from the lock manager.
    Acquire(LockId),
    /// Arrive at a barrier, in this node's phase number for it, and wait
    /// for the manager's release.
    Arrive(BarrierId, u64),
}

/// The state of a [`ClientOp::Batch`]. The ack's per-entry results resolve
/// in order: an applied entry completes at once, and an entry whose home
/// migrated mid-flight comes back redirected and is re-planned as a
/// [`ClientOp::Flush`] that runs to completion before the next result.
#[derive(Debug)]
pub struct BatchFlush {
    batch: FlushBatch,
    /// The ack's results still to resolve; `None` until the ack arrives.
    results: Option<std::vec::IntoIter<DiffBatchResult>>,
    /// The re-plan of a redirected entry, while it runs.
    replan: Option<Box<ClientOp>>,
}

impl ClientOp {
    /// A flush of `plan` to its believed home, with no redirections yet.
    pub fn flush(plan: FlushPlan) -> Self {
        ClientOp::Flush {
            plan,
            redirections: 0,
            redirect: None,
        }
    }

    /// A fault-in of `obj` aimed at `target`, with no redirections yet.
    pub fn fault_in(obj: ObjectId, for_write: bool, target: NodeId) -> Self {
        ClientOp::FaultIn {
            obj,
            for_write,
            target,
            redirections: 0,
            redirect: None,
        }
    }

    /// A batch flush of `batch`, counted in `engine`'s statistics.
    pub fn batch(engine: &ProtocolEngine, batch: FlushBatch) -> Self {
        engine.note_diff_batch(batch.entries.len());
        ClientOp::Batch(BatchFlush {
            batch,
            results: None,
            replan: None,
        })
    }

    /// The next request of `engine`'s node under id `req`: its destination
    /// and message.
    pub fn request(&mut self, engine: &ProtocolEngine, req: ReqId) -> (NodeId, ProtocolMsg) {
        let node = engine.node();
        match self {
            ClientOp::FaultIn {
                obj,
                for_write,
                target,
                redirections,
                redirect,
            } => {
                if let Some((new_home, epoch)) = redirect.take() {
                    *target = retarget(engine, *obj, new_home, epoch);
                }
                debug_assert_ne!(*target, node, "fault-in aimed at the requester itself");
                let msg = ProtocolMsg::ObjectRequest {
                    req,
                    obj: *obj,
                    requester: node,
                    for_write: *for_write,
                    redirections: *redirections,
                };
                (*target, msg)
            }
            ClientOp::Flush {
                plan,
                redirections,
                redirect,
            } => {
                if let Some((new_home, epoch)) = redirect.take() {
                    plan.target = retarget(engine, plan.obj, new_home, epoch);
                }
                let msg = ProtocolMsg::DiffFlush {
                    req,
                    obj: plan.obj,
                    // The plan keeps its diff for a redirected re-send; the
                    // copy is two memcpys whatever the run count.
                    diff: plan.diff.clone(),
                    from: node,
                    redirections: *redirections,
                };
                (plan.target, msg)
            }
            ClientOp::Batch(BatchFlush {
                replan: Some(op), ..
            }) => op.request(engine, req),
            ClientOp::Batch(BatchFlush { batch, .. }) => {
                let entries = batch.entries.iter();
                let entries = entries.map(|plan| DiffBatchEntry {
                    obj: plan.obj,
                    diff: plan.diff.clone(),
                });
                let msg = ProtocolMsg::DiffBatch {
                    req,
                    entries: entries.collect(),
                    from: node,
                };
                (batch.target, msg)
            }
            &mut ClientOp::Acquire(lock) => {
                let msg = ProtocolMsg::LockAcquire {
                    req,
                    lock,
                    requester: node,
                };
                (SYNC_MANAGER, msg)
            }
            &mut ClientOp::Arrive(barrier, epoch) => {
                let msg = ProtocolMsg::BarrierArrive {
                    req,
                    barrier,
                    node,
                    epoch,
                };
                (SYNC_MANAGER, msg)
            }
        }
    }

    /// Take the reply to the last request. Returns whether the operation
    /// is done; if not, [`Self::request`] names the next one.
    ///
    /// # Panics
    /// Panics on a reply that does not answer this operation's request.
    pub fn on_reply(&mut self, engine: &ProtocolEngine, reply: ProtocolMsg) -> bool {
        match (self, reply) {
            // The copy (and any grant) was installed on arrival.
            (ClientOp::FaultIn { .. }, ProtocolMsg::ObjectReply { .. }) => true,
            // A granted acquire and a released barrier each open the
            // node's next interval.
            (ClientOp::Acquire(_), ProtocolMsg::LockGrant { .. }) => {
                engine.begin_sync_interval(|stats| &mut stats.lock_acquires);
                true
            }
            (ClientOp::Arrive(..), ProtocolMsg::BarrierRelease { .. }) => {
                engine.begin_sync_interval(|stats| &mut stats.barriers);
                true
            }
            (
                ClientOp::FaultIn {
                    redirections,
                    redirect,
                    ..
                },
                ProtocolMsg::ObjectRedirect {
                    new_home, epoch, ..
                },
            )
            | (
                ClientOp::Flush {
                    redirections,
                    redirect,
                    ..
                },
                ProtocolMsg::DiffRedirect {
                    new_home, epoch, ..
                },
            ) => {
                *redirections += 1;
                *redirect = Some((new_home, epoch));
                false
            }
            (ClientOp::Flush { plan, .. }, ProtocolMsg::DiffAck { version, .. }) => {
                engine.complete_flush(plan.obj, version);
                true
            }
            (ClientOp::Batch(batch), reply) => batch.on_reply(engine, reply),
            (op, reply) => panic!("unexpected reply to {op:?}: {reply:?}"),
        }
    }

    /// Redirections taken so far by the chase in progress (0 for an
    /// operation that never chases).
    pub fn redirections(&self) -> u32 {
        match self {
            ClientOp::FaultIn { redirections, .. } | ClientOp::Flush { redirections, .. } => {
                *redirections
            }
            ClientOp::Batch(batch) => batch.replan.as_ref().map_or(0, |op| op.redirections()),
            ClientOp::Acquire(_) | ClientOp::Arrive(..) => 0,
        }
    }
}

impl BatchFlush {
    fn on_reply(&mut self, engine: &ProtocolEngine, reply: ProtocolMsg) -> bool {
        if let Some(op) = &mut self.replan {
            if !op.on_reply(engine, reply) {
                return false;
            }
            self.replan = None;
        } else {
            let ProtocolMsg::DiffBatchAck { results, .. } = reply else {
                panic!("unexpected reply to diff batch: {reply:?}");
            };
            let entries = self.batch.entries.len();
            assert_eq!(
                results.len(),
                entries,
                "diff batch ack must resolve every entry"
            );
            self.results = Some(results.into_iter());
        }
        let results = self.results.as_mut().expect("the ack arrived");
        for result in results.by_ref() {
            match result.status {
                DiffEntryStatus::Applied { version } => engine.complete_flush(result.obj, version),
                DiffEntryStatus::Redirect { new_home, epoch } => {
                    // Each entry resolves once, so the plan (and its diff)
                    // moves into the re-plan, which adopts the redirect.
                    let entries = &mut self.batch.entries;
                    let pos = entries.iter().position(|plan| plan.obj == result.obj);
                    let plan = entries.swap_remove(pos.expect("ack result matches an entry"));
                    self.replan = Some(Box::new(ClientOp::Flush {
                        plan,
                        redirections: 1,
                        redirect: Some((new_home, epoch)),
                    }));
                    return false;
                }
            }
        }
        true
    }
}

/// Names a chase in its did-not-converge panic.
impl fmt::Display for ClientOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientOp::FaultIn { obj, .. } => write!(f, "redirection chain for {obj}"),
            ClientOp::Flush { plan, .. } => write!(f, "diff redirection chain for {}", plan.obj),
            ClientOp::Batch(BatchFlush {
                replan: Some(op), ..
            }) => op.fmt(f),
            op => write!(f, "{op:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;
    use crate::{MigrateOnRequestPolicy, NotificationMechanism, ProtocolConfig, RetryRound};
    use dsm_objspace::{HomeAssignment, ObjectRegistry, Version};
    use std::sync::Arc;

    const NODES: usize = 3;

    /// Three engines sharing `objects`, all homed at node 0.
    fn world(config: ProtocolConfig, objects: &[&str]) -> World {
        let mut registry = ObjectRegistry::new();
        for name in objects {
            registry.register_named(name, 0, 64, NodeId::MASTER, HomeAssignment::Master);
        }
        World::new(NODES, config, Arc::new(registry))
    }

    fn object(name: &str) -> ObjectId {
        ObjectId::derive(name, 0)
    }

    fn jump() -> ProtocolConfig {
        ProtocolConfig::no_migration().with_migration(MigrateOnRequestPolicy)
    }

    /// A JUMP write fault-in takes the home from node 0 to node 1 while node
    /// 2's read chases the old home: node 0 redirects the read, and node 2
    /// fetches from node 1 the value node 1 wrote as the new home.
    #[test]
    fn a_read_chases_a_home_that_migrated_under_it() {
        let x = object("x");
        let mut world = world(jump(), &["x"]);
        for engine in &world.engines[1..] {
            engine.begin_interval();
        }
        let target = world[1].lease_write(x).miss();
        let mut write = ClientOp::fault_in(x, true, target);
        world.send_next(1, &mut write);
        let target = world[2].lease_read(x).miss();
        let mut read = ClientOp::fault_in(x, false, target);
        world.send_next(2, &mut read);

        // The write reaches the home first and takes the home with it; the
        // read then finds a former home.
        world.deliver(1, 0);
        world.deliver(2, 0);
        assert_eq!(
            world.homes(x),
            Vec::<usize>::new(),
            "the grant is in flight"
        );
        world.deliver(0, 1);
        assert!(world.resume(1, &mut write), "the grant completes the write");
        assert_eq!(world.homes(x), [1]);
        world[1].lease_write(x).hit().bytes_mut()[0] = 7;
        assert!(
            world[1].prepare_release().is_empty(),
            "home writes never flush"
        );
        world[1].finish_release();

        world.deliver(0, 2);
        assert!(!world.resume(2, &mut read), "the redirect re-aims the read");
        assert_eq!(read.redirections(), 1);
        assert_eq!(world[2].home_hint(x), NodeId(1));
        world.deliver(2, 1);
        world.deliver(1, 2);
        assert!(world.resume(2, &mut read));
        assert!(world.quiet());

        assert_eq!(world.homes(x), [1]);
        assert_eq!(world[1].home_epoch(x), 1);
        assert_eq!(world[1].home_version(x), Some(Version(1)));
        let read_bytes = world[2].lease_read(x).hit().bytes().to_vec();
        assert_eq!(read_bytes[..2], [7, 0]);
        assert_eq!(world[1].home_bytes(x), Some(read_bytes));
        // 0: the grant and the redirect; 1: its request and the read's
        // reply; 2: two requests.
        assert_eq!(world.sent(), [2, 2, 2]);
    }

    /// A release sends one `DiffBatch` per home, or one `DiffFlush` per
    /// object unbatched, through the runtime's [`release_ops`].
    #[test]
    fn a_release_batches_per_home_or_flushes_per_object() {
        for (batching, messages) in [(true, 1), (false, 2)] {
            let mut world = world(ProtocolConfig::no_migration(), &["a", "b"]);
            world.batching = batching;
            world[1].begin_interval();
            for (value, obj) in [(1, object("a")), (2, object("b"))] {
                fetch(&mut world, 1, obj, true);
                world[1].with_object_mut(obj, |data| data.bytes_mut()[0] = value);
            }
            let sent = world.sent();
            assert_eq!(world.release(1), 0);
            assert_eq!(world.sent()[1] - sent[1], messages, "batching {batching}");
            assert_eq!(world[1].stats().batched_flushes, u64::from(batching));
            assert_eq!(world[0].home_bytes(object("b")).unwrap()[0], 2);
        }
    }

    /// Under the home-manager mechanism a node that is not home redirects
    /// to the manager, so a manager chasing a stale belief is redirected to
    /// itself. It retries at its own belief instead, which the notification
    /// ahead of that redirect on the same link has just moved on.
    #[test]
    fn a_redirect_naming_the_requester_retries_at_its_own_belief() {
        let x = object("x");
        let manager = jump().with_notification(NotificationMechanism::HomeManager);
        let mut world = world(manager, &["x"]);
        world.write_interval(1, x, 1);
        world[2].begin_interval();
        let mut write = ClientOp::fault_in(x, true, NodeId(1));
        world.send_next(2, &mut write);
        world.deliver(2, 1);
        world.deliver(1, 2);
        assert!(world.resume(2, &mut write), "node 1 granted the home");
        assert_eq!(world[0].home_hint(x), NodeId(1), "the notify is in flight");

        world[0].begin_interval();
        let mut read = ClientOp::fault_in(x, false, NodeId(1));
        world.send_next(0, &mut read);
        world.deliver(0, 1);
        world.deliver(1, 0);
        world.deliver(1, 0);
        let redirect = world.slots[0].as_ref();
        let home = |msg: &ProtocolMsg| match msg {
            ProtocolMsg::ObjectRedirect { new_home, .. } => Some(*new_home),
            _ => None,
        };
        assert_eq!(redirect.and_then(home), Some(NodeId(0)), "to itself");
        assert!(!world.resume(0, &mut read));
        assert!(world.peek(0, 2).is_some(), "the retry goes to node 2");
        world.run();
        assert!(world.resume(0, &mut read));
        let value = world[0].lease_read(x).hit().bytes()[0];
        assert_eq!(value, 1, "node 1's write moved with the home");
    }

    /// Node 1's release batches two diffs for node 0, but one object's home
    /// moved to node 2 meanwhile: the ack redirects that entry, and the
    /// batch op re-plans it as one flush to node 2.
    #[test]
    fn a_redirected_batch_entry_is_replanned_at_the_new_home() {
        let (stays, moves) = (object("stays"), object("moves"));
        let mut world = world(ProtocolConfig::adaptive(), &["stays", "moves"]);

        world[1].begin_interval();
        fetch(&mut world, 1, stays, true);
        fetch(&mut world, 1, moves, true);
        world[1].lease_write(stays).hit().bytes_mut()[0] = 11;
        world[1].lease_write(moves).hit().bytes_mut()[0] = 22;

        // Node 2 writes `moves` in two intervals; the adaptive policy moves
        // the home to it on the second fault-in.
        for value in [8, 9] {
            world[2].begin_interval();
            fetch(&mut world, 2, moves, true);
            world[2].lease_write(moves).hit().bytes_mut()[40] = value;
            assert_eq!(world.release(2), 0, "every flush is acked at once");
        }
        assert_eq!(world.homes(moves), [2]);
        let sent_before = world.sent();

        let mut batches = release_ops(&world[1], true);
        assert_eq!(batches.len(), 1, "both stale beliefs name node 0");
        let mut batch = batches.pop().unwrap();
        assert!(matches!(batch, ClientOp::Batch(_)), "{batch:?}");
        world.send_next(1, &mut batch);
        world.deliver(1, 0);
        world.deliver(0, 1);
        assert!(
            !world.resume(1, &mut batch),
            "the moved entry is re-planned"
        );
        assert_eq!(batch.redirections(), 1);
        world.deliver(1, 2);
        world.deliver(2, 1);
        assert!(world.resume(1, &mut batch));
        world[1].finish_release();
        assert!(world.quiet());

        assert_eq!(world.homes(stays), [0]);
        assert_eq!(world.homes(moves), [2]);
        assert_eq!(world[1].home_hint(moves), NodeId(2));
        assert_eq!(world[0].home_version(stays), Some(Version(1)));
        assert_eq!(world[2].home_version(moves), Some(Version(3)));
        assert_eq!(world[0].home_bytes(stays).unwrap()[0], 11);
        let moved = world[2].home_bytes(moves).unwrap();
        assert_eq!((moved[0], moved[40]), (22, 9), "both writers' bytes");
        // The release: the batch, its ack, the re-planned flush and its ack.
        let sent = world.sent();
        let sent: Vec<usize> = (0..NODES).map(|n| sent[n] - sent_before[n]).collect();
        assert_eq!(sent, [1, 2, 1]);
        // Before it, node 0 answered four fault-ins and node 2's one flush
        // (node 2 was home by its second release).
        assert_eq!(world.sent(), [6, 4, 4]);
    }

    /// The sync manager's own acquire is served inline and queues behind
    /// node 1; the step that serves node 1's release grants it, with no
    /// message to the manager's own address on any link.
    #[test]
    fn the_managers_own_acquire_is_granted_by_the_remote_release() {
        let lock = LockId(3);
        let mut world = world(ProtocolConfig::adaptive(), &[]);
        // A free lock is granted at once.
        world.complete(1, ClientOp::Acquire(lock));

        let mut own = ClientOp::Acquire(lock);
        world.send_next(0, &mut own);
        assert!(world.slots[0].is_none(), "the manager queues behind node 1");
        let release = ProtocolMsg::LockRelease {
            lock,
            holder: NodeId(1),
            req: ReqId(0),
        };
        world.send(1, SYNC_MANAGER, release);
        world.deliver(1, 0);
        assert!(world.resume(0, &mut own), "serving the release granted it");
        assert!(world.quiet());
        assert_eq!(world.sent(), [1, 2, 0]);
    }

    /// A lock acquire and a barrier each open the node's next interval in
    /// their own step: node 1's cached copy is invalidated by both, and
    /// both are counted, with no `begin_interval` in the script.
    #[test]
    fn the_sync_ops_open_their_interval_themselves() {
        let (x, lock, barrier) = (object("x"), LockId(3), BarrierId(1));
        let mut world = world(ProtocolConfig::no_migration(), &["x"]);
        fetch(&mut world, 1, x, false);
        world[1].lease_read(x).hit();

        world.complete(1, ClientOp::Acquire(lock));
        assert_eq!(world[1].stats().invalidations, 1);
        fetch(&mut world, 1, x, true);
        world[1].lease_write(x).hit().bytes_mut()[0] = 7;
        assert_eq!(world.release(1), 0, "the flush is acked at once");
        let release = ProtocolMsg::LockRelease {
            lock,
            holder: NodeId(1),
            req: ReqId(0),
        };
        world.post(1, SYNC_MANAGER, release);
        world.deliver(1, 0);
        assert_eq!(world[1].lease_read(x).hit().bytes()[0], 7);

        let mut arrivals: Vec<ClientOp> =
            (0..NODES).map(|_| ClientOp::Arrive(barrier, 0)).collect();
        for (node, arrive) in arrivals.iter_mut().enumerate() {
            world.send_next(node, arrive);
        }
        world.run();
        for (node, arrive) in arrivals.iter_mut().enumerate() {
            assert!(world.resume(node, arrive), "node {node} passed the barrier");
        }
        assert!(world.quiet());
        assert_eq!(world[1].lease_read(x).miss(), NodeId(0));
        let stats = world[1].stats();
        assert_eq!(stats.invalidations, 2, "once per opened interval");
        assert_eq!((stats.lock_acquires, stats.barriers), (1, 1));
        for node in [0, 2] {
            assert_eq!(world[node].stats().barriers, 1);
        }
        assert_eq!(world[0].home_bytes(x).unwrap()[0], 7);
    }

    /// Node `node` misses `obj`, faults it in from its believed home and
    /// completes in one round trip, with no loss on the way.
    fn fetch(world: &mut World, node: usize, obj: ObjectId, for_write: bool) {
        let misses = world[node].stats().fault_ins;
        assert_eq!(world.fault_in(node, obj, for_write), 0, "no redirect");
        assert_eq!(world[node].stats().fault_ins, misses + 1, "a miss");
    }

    /// The reply carrying a JUMP grant is dropped. The retransmitted request
    /// reaches a node that is no longer home, so serving it again would
    /// redirect the grantee to itself; the reply cache answers it with the
    /// same grant instead, which installs once.
    #[test]
    fn a_dropped_grant_is_answered_from_the_cache_and_installs_once() {
        let x = object("x");
        let mut world = world(jump(), &["x"]).lossy();
        world[1].begin_interval();
        let mut write = ClientOp::fault_in(x, true, NodeId(0));
        assert_eq!(world[1].lease_write(x).miss(), NodeId(0));
        world.send_next(1, &mut write);
        world.deliver(1, 0);
        let lost = world.drop_next(0, 1);
        assert!(
            matches!(
                lost,
                ProtocolMsg::ObjectReply {
                    migration: Some(_),
                    ..
                }
            ),
            "the reply carried the grant: {lost:?}"
        );
        assert_eq!(world.homes(x), Vec::<usize>::new(), "the grant was lost");

        let resent = world.retry_round(1, RetryRound::Due);
        assert!(matches!(
            resent[..],
            [(NodeId(0), ProtocolMsg::ObjectRequest { .. })]
        ));
        world.run();
        assert!(world.resume(1, &mut write));
        assert!(world.quiet());
        assert_eq!(world.homes(x), [1]);
        assert_eq!(world[1].home_epoch(x), 1);
        assert_eq!(world[0].stats().migrations_out, 1);
        assert_eq!(world[1].stats().migrations_in, 1);
        assert!(
            world[1].retry_round(RetryRound::Due).is_empty(),
            "the reply settled the request"
        );
    }

    /// A duplicated diff flush is applied once; the duplicate is answered
    /// with the cached ack.
    #[test]
    fn a_duplicated_diff_flush_is_applied_once() {
        let x = object("x");
        let mut world = world(ProtocolConfig::no_migration(), &["x"]).lossy();
        world[1].begin_interval();
        fetch(&mut world, 1, x, true);
        world[1].lease_write(x).hit().bytes_mut()[0] = 5;
        let plan = world[1].prepare_release().pop().expect("one diff");
        let mut flush = ClientOp::flush(plan);
        world.send_next(1, &mut flush);
        world.duplicate(1, 0);
        world.deliver(1, 0);
        world.deliver(1, 0);
        assert_eq!(world[0].home_version(x), Some(Version(1)));
        world.deliver(0, 1);
        assert!(world.resume(1, &mut flush));
        world.deliver(0, 1);
        let again = world.slots[1].take().expect("the duplicate's answer");
        assert!(matches!(
            again,
            ProtocolMsg::DiffAck {
                version: Version(1),
                ..
            }
        ));
        world[1].finish_release();
        assert!(world.quiet());
        assert_eq!(world[0].home_version(x), Some(Version(1)));
        assert_eq!(world[0].home_bytes(x).unwrap()[0], 5);
    }

    /// Node 0, the home and manager of `x`, goes dark while node 2 holds a
    /// cached copy. After `FAILOVER_AFTER` stalled rounds node 2 asks the
    /// arbiter (node 1, as the manager is the suspect), wins with its copy,
    /// notifies node 1, fences node 0 and re-aims its fault-in at itself.
    #[test]
    fn a_dark_home_is_replaced_by_an_election() {
        let x = object("x");
        let mut world = world(ProtocolConfig::no_migration(), &["x"]).lossy();
        world[2].begin_interval();
        fetch(&mut world, 2, x, false);
        world[2].begin_interval();
        let mut read = ClientOp::fault_in(x, false, NodeId(0));
        world.send_next(2, &mut read);
        let request = world.drop_next(2, 0);
        for round in 1..16 {
            let sends = world.retry_round(2, RetryRound::Stalled);
            assert_eq!(sends, [(NodeId(0), request.clone())], "round {round}");
            world.drop_next(2, 0);
        }
        let elect = world.retry_round(2, RetryRound::Stalled);
        let req = request.dedup_req().unwrap();
        let expected = ProtocolMsg::HomeElect {
            req,
            obj: x,
            suspect: NodeId(0),
            candidate: NodeId(2),
            epoch: 0,
            has_copy: true,
        };
        assert_eq!(elect, [(NodeId(1), expected)]);

        world.deliver(2, 1);
        let sent_before = world.sent()[2];
        // The answer installs node 2, which serves its own re-aimed request.
        world.deliver(1, 2);
        assert!(world.resume(2, &mut read));
        assert_eq!(world.sent()[2] - sent_before, 2, "a notify and a fence");
        assert_eq!(world.homes(x), [0, 2], "the fence is in flight");
        world.run();
        assert!(world.quiet());
        assert_eq!(world.homes(x), [2]);
        let epoch = world[2].home_epoch(x);
        assert!(epoch > 1 << 15, "an election epoch: {epoch}");
        for node in [0, 1] {
            assert_eq!(world[node].home_hint(x), NodeId(2));
            assert_eq!(world[node].home_epoch(x), epoch);
        }
        assert_eq!(world[1].stats().elections, 1);
        assert_eq!(world[0].stats().homes_fenced, 1);
        assert!(world[2].retry_round(RetryRound::Stalled).is_empty());
    }

    /// A request deferred while its payload is leased is admitted once: its
    /// retransmission is absorbed, and the retry after the lease drops
    /// serves it exactly once.
    #[test]
    fn a_deferred_request_is_served_once_and_its_duplicate_absorbed() {
        let x = object("x");
        let mut world = world(ProtocolConfig::no_migration(), &["x"]).lossy();
        world[0].begin_interval();
        let lease = world[0].lease_write(x).hit();
        world[1].begin_interval();
        let mut read = ClientOp::fault_in(x, false, NodeId(0));
        world.send_next(1, &mut read);
        world.deliver(1, 0);
        assert_eq!(world.serve[0].deferred(), 1, "the lease defers the request");
        world.retry_round(1, RetryRound::Due);
        world.deliver(1, 0);
        world.retry_deferred(0);
        assert_eq!(world.serve[0].deferred(), 1, "the duplicate was absorbed");
        assert_eq!(world.sent()[0], 0);

        drop(lease);
        world.retry_deferred(0);
        assert_eq!(world.serve[0].deferred(), 0);
        assert_eq!(world.sent()[0], 1, "served exactly once");
        world.deliver(0, 1);
        assert!(world.resume(1, &mut read));
        assert!(world.quiet());
    }

    /// The manager serves its own release inline, and that step grants the
    /// lock to node 1. The grant is dropped; node 1's retransmitted acquire
    /// is answered from the cache the inline step filled.
    #[test]
    fn a_grant_from_the_managers_inline_release_is_cached() {
        let lock = LockId(3);
        let mut world = world(ProtocolConfig::adaptive(), &[]).lossy();
        let mut own = ClientOp::Acquire(lock);
        world.send_next(0, &mut own);
        assert!(world.resume(0, &mut own), "a free lock is granted inline");
        let mut remote = ClientOp::Acquire(lock);
        world.send_next(1, &mut remote);
        world.deliver(1, 0);
        let release = ProtocolMsg::LockRelease {
            lock,
            holder: NodeId(0),
            req: ReqId(0),
        };
        world.post(0, SYNC_MANAGER, release);
        let lost = world.drop_next(0, 1);
        assert!(matches!(lost, ProtocolMsg::LockGrant { .. }), "{lost:?}");

        let resent = world.retry_round(1, RetryRound::Due);
        assert!(matches!(
            resent[..],
            [(NodeId(0), ProtocolMsg::LockAcquire { .. })]
        ));
        world.run();
        assert!(world.resume(1, &mut remote));
        assert!(world.quiet());
        assert!(world[1].retry_round(RetryRound::Due).is_empty());
    }

    /// The manager's own acquire and release are served inline and never
    /// retransmitted, so its reply cache keeps no entry for them.
    #[test]
    fn the_managers_own_lock_traffic_is_not_cached() {
        let lock = LockId(3);
        let mut world = world(ProtocolConfig::adaptive(), &[]).lossy();
        let mut own = ClientOp::Acquire(lock);
        world.send_next(0, &mut own);
        assert!(world.resume(0, &mut own), "a free lock is granted inline");
        let release = ProtocolMsg::LockRelease {
            lock,
            holder: NodeId(0),
            req: ReqId(0),
        };
        world.post(0, SYNC_MANAGER, release);
        assert!(world.quiet());
        assert_eq!(world.sent(), [0; NODES]);
        assert_eq!(world[0].recovery(|r, _| r.cached()), Some(0));
    }
}

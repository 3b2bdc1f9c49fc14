//! The sim-mode scheduler: event-driven protocol serving on the
//! deterministic [`SimFabric`].
//!
//! In sim mode the cluster spawns **no server worker pool** and runs on
//! **no timer**. Application threads run as usual, but every message they
//! send is parked in the fabric's virtual-time event queue, and one
//! scheduler (the thread that called `Cluster::run`) executes the protocol
//! servers of *all* nodes inline, one event at a time:
//!
//! 1. wait (on a condition variable) until every application agent is
//!    parked — at that point the pending event set is complete and the
//!    earliest event is a deterministic choice;
//! 2. pop it, serve it at the destination node (the same
//!    [`node::serve_envelope`] step the executor runs), retry the deferral
//!    queues, and only then flush the buffered reply wakes so woken
//!    applications never race the handler's own sends;
//! 3. repeat until every agent finished and the queue drained.
//!
//! Because at most one of {the scheduler, the set of woken application
//! threads} runs between two quiescence points — and concurrently woken
//! applications only ever touch their own node's links — every link's send
//! sequence, every clock merge and every perturbation draw is a pure
//! function of the seed: the same seed replays a bit-identical delivery
//! trace.
//!
//! A protocol stall (no event pending, no deferred message serviceable,
//! applications still parked) is a deadlock in the protocol or the
//! application; the scheduler panics with diagnostics instead of hanging
//! the test run, naming the state a failing seed can replay.

use crate::fault;
use crate::node::{self, NodeShared, ServeState};
use dsm_core::ProtocolMsg;
use dsm_model::{SimDuration, SimTime};
use dsm_net::{DropReason, SimFabric, SimStep};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Sentinel for "no application thread has panicked".
pub(crate) const NO_PANIC: usize = usize::MAX;

/// RAII agent registration for one application thread: marks the agent
/// finished on scope exit — including unwinds, so a panicking application
/// cannot leave the scheduler waiting for quiescence forever.
pub(crate) struct AppAgent<'fabric> {
    fabric: &'fabric SimFabric<ProtocolMsg>,
    panicked: &'fabric AtomicBool,
    /// First node whose application genuinely panicked ([`NO_PANIC`] until
    /// then). The teardown wakes the *other* nodes into secondary
    /// "cluster shut down" panics; the runner uses this to re-raise the
    /// original payload instead of one of those.
    first_panic: &'fabric AtomicUsize,
    node: usize,
}

impl<'fabric> AppAgent<'fabric> {
    pub fn new(
        fabric: &'fabric SimFabric<ProtocolMsg>,
        panicked: &'fabric AtomicBool,
        first_panic: &'fabric AtomicUsize,
        node: usize,
    ) -> AppAgent<'fabric> {
        AppAgent {
            fabric,
            panicked,
            first_panic,
            node,
        }
    }
}

impl Drop for AppAgent<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // Claim first-panic *before* raising the flag: once `panicked`
            // is visible the scheduler may start waking other threads into
            // secondary panics, which must not win this slot.
            let _ = self.first_panic.compare_exchange(
                NO_PANIC,
                self.node,
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
            self.panicked.store(true, Ordering::SeqCst);
        }
        // The endpoint-side and fabric-side counters are one counter; any
        // handle may report the park.
        self.fabric.agent_finished();
    }
}

/// Every node's serve-side state, in node order, owned by the scheduler.
struct NodeQueues {
    nodes: Vec<ServeState>,
}

impl NodeQueues {
    fn new(nodes: usize) -> Self {
        NodeQueues {
            nodes: (0..nodes).map(|_| ServeState::default()).collect(),
        }
    }

    /// Deferred work still parked, counting batch residuals per entry so
    /// partial batch progress is visible to the stall detector.
    fn load(&self) -> usize {
        self.nodes
            .iter()
            .flat_map(|serve| &serve.deferred)
            .map(|(_, msg)| match msg {
                ProtocolMsg::DiffBatch { entries, .. } => entries.len(),
                _ => 1,
            })
            .sum()
    }

    fn is_empty(&self) -> bool {
        self.nodes.iter().all(|serve| serve.deferred.is_empty())
    }

    /// Deferral-queue lengths per node (teardown diagnostics).
    fn deferred_lens(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .map(|serve| serve.deferred.len())
            .collect()
    }
}

/// The lossy-run retry timer, fired on **virtual time** rather than only
/// at stalls. Stall-only firing has a starvation hole: a lost reply's
/// retransmission can be held off forever by *other* nodes' traffic — a
/// requester chasing a stale home hint bounces redirects back and forth,
/// the event queue never empties, and the one retransmission that would
/// resolve the chase never fires (the redirect chain then trips its
/// convergence bound). The timer closes the hole: before every pop, the
/// scheduler compares the un-popped head's due time against the deadline
/// and fires a [`fault::RetryRound::Due`] round first.
///
/// Determinism: the decision reads only the head event's `deliver_at` at
/// a quiescence point ([`SimFabric::peek_due`]). Armed only when the
/// fabric carries fault state (lossy configs) — lossless runs pay nothing.
struct RetryTimer {
    next_at: SimTime,
    period: SimDuration,
}

impl RetryTimer {
    fn arm(shareds: &[Arc<NodeShared>]) -> Option<RetryTimer> {
        let period = shareds
            .iter()
            .find_map(|s| s.fault.as_ref())
            .map(|f| f.config.retry_timeout)?;
        Some(RetryTimer {
            next_at: SimTime::ZERO + period,
            period,
        })
    }

    /// Fire a timed retry round if the pending head is due at or past the
    /// deadline. Returns whether a round fired — the caller must then
    /// re-peek, because retransmissions may now precede the old head.
    fn fire_if_due(
        &mut self,
        shareds: &[Arc<NodeShared>],
        fabric: &SimFabric<ProtocolMsg>,
    ) -> bool {
        let Some(due) = fabric.peek_due() else {
            return false;
        };
        if due < self.next_at {
            return false;
        }
        fault::fire_retries(shareds, fault::RetryRound::Due);
        self.next_at = due + self.period;
        true
    }

    /// Re-arm after a [`fault::RetryRound::Stalled`] round: that round
    /// already advanced the retrying nodes' clocks by one timeout, so the
    /// next timed deadline counts from there — otherwise the timer would
    /// immediately double-fire on the retransmissions the stall round
    /// just queued.
    fn rearm_after_stall(&mut self, shareds: &[Arc<NodeShared>]) {
        let now = shareds
            .iter()
            .map(|s| s.clock.now())
            .max()
            .unwrap_or(SimTime::ZERO);
        self.next_at = self.next_at.max(now + self.period);
    }
}

/// Run the cluster's protocol servers over the sim fabric until every
/// application agent finished and all traffic drained. See the module docs
/// for the execution model. This loop is the semantic reference every
/// other fabric is fingerprinted against.
pub(crate) fn sim_server_loop(
    shareds: &[Arc<NodeShared>],
    fabric: &SimFabric<ProtocolMsg>,
    panicked: &AtomicBool,
) {
    let mut queues = NodeQueues::new(shareds.len());
    let mut timer = RetryTimer::arm(shareds);
    node::enable_wake_buffering();
    loop {
        if let Some(timer) = timer.as_mut() {
            if timer.fire_if_due(shareds, fabric) {
                continue;
            }
        }
        match fabric.next_step() {
            SimStep::Deliver(envelope) => {
                let dst = envelope.dst.index();
                node::serve_envelope(&shareds[dst], envelope, &mut queues.nodes[dst]);
                retry_all(shareds, &mut queues);
                flush_wakes(fabric);
            }
            SimStep::Drained => {
                if queues.is_empty() {
                    break;
                }
                if !make_progress(shareds, fabric, &mut queues) {
                    teardown_or_panic(shareds, panicked, fabric, &queues, "drained");
                    break;
                }
            }
            SimStep::Stalled => {
                // Deferred work first; if nothing local moves, this is the
                // timeout point of the lossy-fabric recovery machinery:
                // every node retransmits its outstanding requests (see
                // `crate::fault`). Only when that too is out of attempts
                // (or the fabric is lossless and has no retry state) is the
                // stall terminal.
                if !make_progress(shareds, fabric, &mut queues) {
                    if !fault::fire_retries(shareds, fault::RetryRound::Stalled) {
                        teardown_or_panic(shareds, panicked, fabric, &queues, "stalled");
                        break;
                    }
                    if let Some(timer) = timer.as_mut() {
                        timer.rearm_after_stall(shareds);
                    }
                }
            }
        }
    }
    node::disable_wake_buffering();
}

/// One deterministic retry pass over every node's deferral queue (node
/// order, arrival order within a node).
fn retry_all(shareds: &[Arc<NodeShared>], queues: &mut NodeQueues) {
    for (shared, serve) in shareds.iter().zip(&mut queues.nodes) {
        node::retry_deferred(shared, serve);
    }
}

/// Flush the scheduler's buffered reply wakes: re-count each woken agent
/// *before* handing it its reply, so the quiescence count never
/// under-reports. Returns the number of applications woken.
fn flush_wakes(fabric: &SimFabric<ProtocolMsg>) -> usize {
    let wakes = node::take_buffered_wakes();
    let woken = wakes.len();
    for wake in wakes {
        fabric.agent_unblocked();
        wake.deliver();
    }
    woken
}

/// Retry all deferred work once and report whether anything moved: a
/// deferred message (or batch entry) resolved, a new message was sent, or
/// an application was woken.
fn make_progress(
    shareds: &[Arc<NodeShared>],
    fabric: &SimFabric<ProtocolMsg>,
    queues: &mut NodeQueues,
) -> bool {
    let load_before = queues.load();
    let sent_before = fabric.sent_count();
    retry_all(shareds, queues);
    let woken = flush_wakes(fabric);
    queues.load() < load_before || fabric.sent_count() > sent_before || woken > 0
}

/// Wake every application thread still parked on a reply that will never
/// come; each observes a disconnect and unwinds with a "cluster shut down"
/// panic. Every waiter is re-counted into the agent tally *before* it is
/// woken (see [`NodeShared::abort_pending`]).
pub(crate) fn abort_all_pending(shareds: &[Arc<NodeShared>], fabric: &SimFabric<ProtocolMsg>) {
    for shared in shareds {
        shared.abort_pending(|| fabric.agent_unblocked());
    }
}

/// A quiescent cluster with no serviceable work left: normal teardown after
/// an application panic (the panic propagates from `Cluster::run`), a
/// protocol/application deadlock otherwise.
fn teardown_or_panic(
    shareds: &[Arc<NodeShared>],
    panicked: &AtomicBool,
    fabric: &SimFabric<ProtocolMsg>,
    queues: &NodeQueues,
    state: &str,
) {
    if panicked.load(Ordering::SeqCst) {
        return;
    }
    let (sent, delivered, dropped, queued) = fabric.counters();
    let deferred = queues.deferred_lens();
    // Distinguish "the fault injection ate something the protocol could not
    // recover from" from a genuine protocol/application deadlock: list what
    // was dropped (and where) so the failing seed is attributable.
    let drops = fabric.drops();
    let loss = if drops.is_empty() {
        "no injected drops — this is a genuine deadlock in the protocol or the application"
            .to_string()
    } else {
        let by_reason = |reason: DropReason| drops.iter().filter(|d| d.reason == reason).count();
        let sample: Vec<String> = drops
            .iter()
            .rev()
            .take(8)
            .map(|d| format!("{}->{}#{}:{}", d.src, d.dst, d.link_seq, d.reason))
            .collect();
        format!(
            "{dropped} injected drops (random {}, partition {}, pause {}); last: [{}] — \
             the recovery machinery ran out of attempts before the run could complete",
            by_reason(DropReason::Random),
            by_reason(DropReason::Partition),
            by_reason(DropReason::Pause),
            sample.join(", "),
        )
    };
    // Wake the parked application threads before panicking: the scheduler's
    // unwind runs `thread::scope`'s join-on-drop, which would otherwise wait
    // forever on threads still parked in `wait_reply` — turning this
    // diagnostic into a silent hang.
    abort_all_pending(shareds, fabric);
    panic!(
        "sim fabric {state} with no progress possible: every application agent is parked \
         and no serviceable message remains (sent {sent}, delivered {delivered}, \
         queued {queued}, deferred per node {deferred:?}); {loss}; replay the failing \
         seed with DSM_TRACE=1"
    );
}

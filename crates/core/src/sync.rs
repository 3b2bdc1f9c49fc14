//! Distributed lock and barrier managers.
//!
//! Synchronization delimits the intervals of the (lazy) release consistency
//! model: diffs are flushed at release/arrival and cached copies are
//! invalidated at acquire/release-receipt. The managers live on one node
//! (the master by default — in the paper's synthetic benchmark "all
//! synchronization operations are distributed ones that are sent to the node
//! where the application is started"); other nodes reach them through
//! `LockAcquire`/`LockRelease`/`BarrierArrive` messages. Synchronization
//! message counts are invariant across home-migration policies, which is why
//! the paper excludes them from its message breakdown.

use crate::messages::ReqId;
use dsm_objspace::{BarrierId, LockId, NodeId};
use std::collections::{HashMap, VecDeque};

/// Outcome of a lock acquire request at the manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockAcquireOutcome {
    /// The lock was free; the requester may proceed immediately.
    Granted,
    /// The lock is held; the requester has been queued and will be granted
    /// when the current holder releases.
    Queued,
}

/// Outcome of a lock release at the manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockReleaseOutcome {
    /// If a node was waiting, the manager must now send it a grant (node and
    /// the request id it is blocked on).
    pub grant_next: Option<(NodeId, ReqId)>,
}

/// Outcome of a barrier arrival at the manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BarrierOutcome {
    /// Not all nodes have arrived yet; the arriving node stays blocked.
    Waiting,
    /// The phase is complete: release every listed waiter (including the
    /// manager's own application thread if it participates).
    Complete {
        /// All blocked arrivals to release, in arrival order.
        waiters: Vec<(NodeId, ReqId)>,
        /// The phase number that completed.
        epoch: u64,
    },
}

/// State of one distributed lock at its manager.
#[derive(Debug, Default, Clone)]
struct LockState {
    holder: Option<NodeId>,
    queue: VecDeque<(NodeId, ReqId)>,
}

/// Manager-side state for all locks hosted on one node.
#[derive(Debug, Default, Clone)]
pub(crate) struct LockManager {
    locks: HashMap<LockId, LockState>,
}

impl LockManager {
    /// Create an empty manager.
    pub(crate) fn new() -> Self {
        LockManager::default()
    }

    /// Handle an acquire request from `requester` blocked on `req`.
    pub(crate) fn acquire(
        &mut self,
        lock: LockId,
        requester: NodeId,
        req: ReqId,
    ) -> LockAcquireOutcome {
        let state = self.locks.entry(lock).or_default();
        if state.holder.is_none() {
            state.holder = Some(requester);
            LockAcquireOutcome::Granted
        } else {
            state.queue.push_back((requester, req));
            LockAcquireOutcome::Queued
        }
    }

    /// Handle a release from `holder`.
    ///
    /// # Panics
    /// Panics if the lock is not currently held by `holder` — releasing a
    /// lock one does not hold is a protocol bug, not a recoverable runtime
    /// condition.
    pub(crate) fn release(&mut self, lock: LockId, holder: NodeId) -> LockReleaseOutcome {
        let state = self
            .locks
            .get_mut(&lock)
            .unwrap_or_else(|| panic!("release of unknown lock {lock}"));
        assert_eq!(
            state.holder,
            Some(holder),
            "node {holder} released lock {lock} it does not hold"
        );
        match state.queue.pop_front() {
            Some((next, req)) => {
                state.holder = Some(next);
                LockReleaseOutcome {
                    grant_next: Some((next, req)),
                }
            }
            None => {
                state.holder = None;
                LockReleaseOutcome { grant_next: None }
            }
        }
    }

    /// Current holder of a lock (testing/diagnostics).
    #[cfg(test)]
    fn holder(&self, lock: LockId) -> Option<NodeId> {
        self.locks.get(&lock).and_then(|s| s.holder)
    }

    /// Number of nodes queued on a lock (testing/diagnostics).
    #[cfg(test)]
    fn queue_len(&self, lock: LockId) -> usize {
        self.locks.get(&lock).map_or(0, |s| s.queue.len())
    }
}

/// State of one barrier at its manager.
#[derive(Debug, Default, Clone)]
struct BarrierState {
    epoch: u64,
    waiters: Vec<(NodeId, ReqId)>,
}

/// Manager-side state for all barriers hosted on one node.
#[derive(Debug, Clone)]
pub(crate) struct BarrierManager {
    participants: usize,
    barriers: HashMap<BarrierId, BarrierState>,
}

impl BarrierManager {
    /// Create a manager for barriers joined by `participants` nodes.
    ///
    /// # Panics
    /// Panics if `participants` is zero.
    pub(crate) fn new(participants: usize) -> Self {
        assert!(participants > 0, "a barrier needs at least one participant");
        BarrierManager {
            participants,
            barriers: HashMap::new(),
        }
    }

    /// Handle an arrival of `node` (blocked on `req`) at `barrier`.
    pub(crate) fn arrive(
        &mut self,
        barrier: BarrierId,
        node: NodeId,
        req: ReqId,
    ) -> BarrierOutcome {
        let participants = self.participants;
        let state = self.barriers.entry(barrier).or_default();
        assert!(
            !state.waiters.iter().any(|(n, _)| *n == node),
            "node {node} arrived twice at {barrier} in the same phase"
        );
        state.waiters.push((node, req));
        if state.waiters.len() == participants {
            let epoch = state.epoch;
            state.epoch += 1;
            let waiters = std::mem::take(&mut state.waiters);
            BarrierOutcome::Complete { waiters, epoch }
        } else {
            BarrierOutcome::Waiting
        }
    }

    /// The phase number the barrier is currently collecting arrivals for.
    #[cfg(test)]
    fn current_epoch(&self, barrier: BarrierId) -> u64 {
        self.barriers.get(&barrier).map_or(0, |s| s.epoch)
    }

    /// Number of nodes that have arrived in the current phase.
    #[cfg(test)]
    fn arrived(&self, barrier: BarrierId) -> usize {
        self.barriers.get(&barrier).map_or(0, |s| s.waiters.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: LockId = LockId(1);
    const B: BarrierId = BarrierId(1);

    #[test]
    fn free_lock_is_granted_immediately() {
        let mut m = LockManager::new();
        assert_eq!(
            m.acquire(L, NodeId(0), ReqId(1)),
            LockAcquireOutcome::Granted
        );
        assert_eq!(m.holder(L), Some(NodeId(0)));
    }

    #[test]
    fn contended_lock_queues_and_grants_in_fifo_order() {
        let mut m = LockManager::new();
        assert_eq!(
            m.acquire(L, NodeId(0), ReqId(1)),
            LockAcquireOutcome::Granted
        );
        assert_eq!(
            m.acquire(L, NodeId(1), ReqId(2)),
            LockAcquireOutcome::Queued
        );
        assert_eq!(
            m.acquire(L, NodeId(2), ReqId(3)),
            LockAcquireOutcome::Queued
        );
        assert_eq!(m.queue_len(L), 2);

        let out = m.release(L, NodeId(0));
        assert_eq!(out.grant_next, Some((NodeId(1), ReqId(2))));
        assert_eq!(m.holder(L), Some(NodeId(1)));

        let out = m.release(L, NodeId(1));
        assert_eq!(out.grant_next, Some((NodeId(2), ReqId(3))));

        let out = m.release(L, NodeId(2));
        assert_eq!(out.grant_next, None);
        assert_eq!(m.holder(L), None);
    }

    #[test]
    fn independent_locks_do_not_interfere() {
        let mut m = LockManager::new();
        let l2 = LockId(2);
        assert_eq!(
            m.acquire(L, NodeId(0), ReqId(1)),
            LockAcquireOutcome::Granted
        );
        assert_eq!(
            m.acquire(l2, NodeId(1), ReqId(2)),
            LockAcquireOutcome::Granted
        );
        assert_eq!(m.holder(L), Some(NodeId(0)));
        assert_eq!(m.holder(l2), Some(NodeId(1)));
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn releasing_unheld_lock_panics() {
        let mut m = LockManager::new();
        m.acquire(L, NodeId(0), ReqId(1));
        let _ = m.release(L, NodeId(3));
    }

    #[test]
    #[should_panic(expected = "unknown lock")]
    fn releasing_never_acquired_lock_panics() {
        let mut m = LockManager::new();
        let _ = m.release(L, NodeId(0));
    }

    #[test]
    fn barrier_releases_when_all_arrive() {
        let mut m = BarrierManager::new(3);
        assert_eq!(m.arrive(B, NodeId(0), ReqId(1)), BarrierOutcome::Waiting);
        assert_eq!(m.arrived(B), 1);
        assert_eq!(m.arrive(B, NodeId(1), ReqId(2)), BarrierOutcome::Waiting);
        match m.arrive(B, NodeId(2), ReqId(3)) {
            BarrierOutcome::Complete { waiters, epoch } => {
                assert_eq!(epoch, 0);
                assert_eq!(
                    waiters,
                    vec![
                        (NodeId(0), ReqId(1)),
                        (NodeId(1), ReqId(2)),
                        (NodeId(2), ReqId(3))
                    ]
                );
            }
            other => panic!("expected completion, got {other:?}"),
        }
        // The next phase starts from scratch with a bumped epoch.
        assert_eq!(m.current_epoch(B), 1);
        assert_eq!(m.arrived(B), 0);
        assert_eq!(m.arrive(B, NodeId(1), ReqId(4)), BarrierOutcome::Waiting);
    }

    #[test]
    fn single_participant_barrier_completes_instantly() {
        let mut m = BarrierManager::new(1);
        assert!(matches!(
            m.arrive(B, NodeId(0), ReqId(1)),
            BarrierOutcome::Complete { epoch: 0, .. }
        ));
        assert!(matches!(
            m.arrive(B, NodeId(0), ReqId(2)),
            BarrierOutcome::Complete { epoch: 1, .. }
        ));
    }

    #[test]
    #[should_panic(expected = "arrived twice")]
    fn double_arrival_in_same_phase_panics() {
        let mut m = BarrierManager::new(3);
        m.arrive(B, NodeId(0), ReqId(1));
        m.arrive(B, NodeId(0), ReqId(2));
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_participants_rejected() {
        let _ = BarrierManager::new(0);
    }
}

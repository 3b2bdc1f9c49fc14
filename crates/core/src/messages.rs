//! The wire protocol between cluster nodes.
//!
//! Every variant corresponds to one message of the home-based protocol; the
//! [`ProtocolMsg::category`] and [`ProtocolMsg::payload_bytes`] methods feed
//! the statistics that reproduce the paper's message-count and
//! network-traffic figures.

use dsm_net::MsgCategory;
use dsm_objspace::{BarrierId, Diff, LockId, NodeId, ObjectId, Version};

/// Identifier matching a reply to the request that a node thread is blocked
/// on. Allocated per requesting node; never interpreted by the receiver
/// beyond echoing it back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReqId(pub u64);

/// State shipped with a migrating home (threshold and history), defined in
/// the engine module; re-exported here for the message definition.
pub(crate) use crate::engine::MigrationGrant;

/// Modelled wire overhead per entry of a [`ProtocolMsg::DiffBatch`]: the
/// object id plus entry framing. The batch as a whole still pays the single
/// fixed message header the fabric adds, so batching k flushes saves
/// `(k-1) * MESSAGE_HEADER_BYTES - k * DIFF_BATCH_ENTRY_HEADER_BYTES` header
/// bytes on top of the `(k-1) * t0` start-up saving that motivates it.
pub const DIFF_BATCH_ENTRY_HEADER_BYTES: u64 = 8;

/// One entry of a [`ProtocolMsg::DiffBatch`]: a diff destined for the home
/// the batch was addressed to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffBatchEntry {
    /// The object.
    pub obj: ObjectId,
    /// The diff to apply at the home.
    pub diff: Diff,
}

/// Home-side resolution of one batch entry, reported in the
/// [`ProtocolMsg::DiffBatchAck`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffEntryStatus {
    /// The diff was applied to the home copy.
    Applied {
        /// Version of the home copy after applying the diff.
        version: Version,
    },
    /// The receiver is no longer the home of this entry's object (it
    /// migrated mid-flight); the flusher must re-plan this entry
    /// individually, following the usual epoch-guarded redirect rules.
    Redirect {
        /// Where the receiver believes the home is now.
        new_home: NodeId,
        /// The home epoch the receiver believes `new_home` became home at
        /// (0 for routing-only hints such as a pointer to the manager).
        epoch: u32,
    },
}

/// Per-entry result inside a [`ProtocolMsg::DiffBatchAck`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffBatchResult {
    /// The entry's object.
    pub obj: ObjectId,
    /// How the home resolved the entry.
    pub status: DiffEntryStatus,
}

/// A protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolMsg {
    /// Fault-in request for an object, sent to the believed home.
    ObjectRequest {
        /// Request id for reply matching.
        req: ReqId,
        /// The requested object.
        obj: ObjectId,
        /// The requesting node (destination of the reply).
        requester: NodeId,
        /// Whether the fault was a write fault.
        for_write: bool,
        /// How many times this logical request has already been redirected
        /// (redirection accumulation; becomes negative feedback `R_i` at the
        /// home that finally serves it).
        redirections: u32,
    },
    /// Successful fault-in reply carrying the object contents.
    ObjectReply {
        /// Echo of the request id.
        req: ReqId,
        /// The object.
        obj: ObjectId,
        /// Object payload.
        data: Vec<u8>,
        /// Version of the home copy the payload was taken from.
        version: Version,
        /// If present, the home has migrated to the requester and this is
        /// the migration state to install.
        migration: Option<MigrationGrant>,
    },
    /// Redirection reply: the receiver is not (any longer) the home.
    ObjectRedirect {
        /// Echo of the request id.
        req: ReqId,
        /// The object.
        obj: ObjectId,
        /// Where the sender believes the home is now.
        new_home: NodeId,
        /// The home epoch the sender believes `new_home` became home at
        /// (0 for routing-only hints such as a pointer to the manager).
        epoch: u32,
    },
    /// Diff propagation to the home at release time.
    DiffFlush {
        /// Request id (the releaser blocks until all diffs are acknowledged).
        req: ReqId,
        /// The object.
        obj: ObjectId,
        /// The diff.
        diff: Diff,
        /// The writing node.
        from: NodeId,
        /// Redirection hops already taken by this flush.
        redirections: u32,
    },
    /// Acknowledgement that a diff has been applied at the home.
    DiffAck {
        /// Echo of the request id.
        req: ReqId,
        /// The object.
        obj: ObjectId,
        /// Version of the home copy after applying the diff.
        version: Version,
    },
    /// Batched diff propagation at release time: every dirty object of the
    /// interval whose (believed) home is the same node, in one message. The
    /// receiver resolves each entry independently — applied, redirected
    /// (home migrated mid-flight) or deferred while its payload is leased to
    /// a live view — and answers with a single [`ProtocolMsg::DiffBatchAck`]
    /// once no entry is pending.
    DiffBatch {
        /// Request id (the releaser blocks until the batch is acknowledged).
        req: ReqId,
        /// The batched diffs, ordered by object id.
        entries: Vec<DiffBatchEntry>,
        /// The writing node.
        from: NodeId,
    },
    /// Per-entry acknowledgement of a [`ProtocolMsg::DiffBatch`]. Entries
    /// resolve independently, so results may arrive in a different order
    /// than they were sent; the flusher matches them by object id.
    DiffBatchAck {
        /// Echo of the request id.
        req: ReqId,
        /// One result per batch entry.
        results: Vec<DiffBatchResult>,
    },
    /// Redirection reply for a diff that reached an obsolete home.
    DiffRedirect {
        /// Echo of the request id.
        req: ReqId,
        /// The object.
        obj: ObjectId,
        /// Where the sender believes the home is now.
        new_home: NodeId,
        /// The home epoch the sender believes `new_home` became home at.
        epoch: u32,
    },
    /// Lock acquire request, sent to the lock's manager node.
    LockAcquire {
        /// Request id (the acquirer blocks until granted).
        req: ReqId,
        /// The lock.
        lock: LockId,
        /// The requesting node.
        requester: NodeId,
    },
    /// Lock grant from the manager.
    LockGrant {
        /// Echo of the request id.
        req: ReqId,
        /// The lock.
        lock: LockId,
    },
    /// Lock release notification to the manager.
    LockRelease {
        /// The lock.
        lock: LockId,
        /// The releasing node.
        holder: NodeId,
        /// Request id for the [`ProtocolMsg::LockReleaseAck`]. `ReqId(0)`
        /// means "unacknowledged" — the classic fire-and-forget release
        /// used on lossless fabrics; lossy runs allocate a real id so the
        /// release can be retried and deduplicated safely.
        req: ReqId,
    },
    /// Acknowledgement of an acked [`ProtocolMsg::LockRelease`]. Not a
    /// blocking reply: the releaser does not wait for it, it only clears
    /// the release's retry entry.
    LockReleaseAck {
        /// Echo of the release's request id.
        req: ReqId,
        /// The lock.
        lock: LockId,
    },
    /// Barrier arrival, sent to the barrier's manager node.
    BarrierArrive {
        /// Request id (the arriving node blocks until released).
        req: ReqId,
        /// The barrier.
        barrier: BarrierId,
        /// The arriving node.
        node: NodeId,
        /// The arriving node's phase number (for sanity checking).
        epoch: u64,
    },
    /// Barrier release from the manager once all nodes have arrived.
    BarrierRelease {
        /// Echo of the request id.
        req: ReqId,
        /// The barrier.
        barrier: BarrierId,
        /// The phase that completed.
        epoch: u64,
    },
    /// New-home notification (broadcast or home-manager mechanisms only).
    HomeNotify {
        /// The object whose home moved.
        obj: ObjectId,
        /// The new home.
        new_home: NodeId,
        /// The home epoch `new_home` became home at, so stale notifications
        /// can never overwrite fresher beliefs.
        epoch: u32,
    },
    /// Query to the home manager: where is the home of `obj` now?
    HomeLookup {
        /// Request id.
        req: ReqId,
        /// The object.
        obj: ObjectId,
    },
    /// Reply to a [`ProtocolMsg::HomeLookup`].
    HomeLookupReply {
        /// Echo of the request id.
        req: ReqId,
        /// The object.
        obj: ObjectId,
        /// The registered home.
        home: NodeId,
    },
    /// Home re-election request: `candidate` could not reach `suspect`
    /// (the believed home of `obj`) past the runtime's failover threshold
    /// and asks the object's arbiter to elect a reachable home. Carries
    /// the candidate's believed home epoch and whether it holds a local
    /// copy to promote.
    HomeElect {
        /// Request id (reuses the stuck request's id for bookkeeping; the
        /// reply is matched through the retry table, not the pending
        /// table).
        req: ReqId,
        /// The orphaned object.
        obj: ObjectId,
        /// The unreachable believed home.
        suspect: NodeId,
        /// The requesting node.
        candidate: NodeId,
        /// The candidate's believed home epoch for `obj`.
        epoch: u32,
        /// Whether the candidate holds a promotable local copy.
        has_copy: bool,
    },
    /// Arbiter's answer to a [`ProtocolMsg::HomeElect`]. `home == suspect`
    /// with `epoch == 0` encodes a refusal (no surviving copy to promote);
    /// otherwise `home` is the elected home at the fencing `epoch`.
    HomeElectReply {
        /// Echo of the election request id.
        req: ReqId,
        /// The object.
        obj: ObjectId,
        /// The elected home (or the suspect itself on refusal).
        home: NodeId,
        /// The fencing home epoch (0 on refusal).
        epoch: u32,
    },
    /// Fence sent to a deposed home after an election: demote yourself,
    /// the cluster elected `new_home` at `epoch`. Retried until the
    /// [`ProtocolMsg::HomeFenceAck`] arrives, so a suspect that was merely
    /// slow learns of its demotion as soon as it resumes.
    HomeFence {
        /// Request id for the ack (a fresh id, tracked in the retry
        /// table only).
        req: ReqId,
        /// The object.
        obj: ObjectId,
        /// The elected home.
        new_home: NodeId,
        /// The fencing home epoch.
        epoch: u32,
    },
    /// Acknowledgement of a [`ProtocolMsg::HomeFence`]. Like
    /// [`ProtocolMsg::LockReleaseAck`], clears a retry entry without
    /// unblocking anything.
    HomeFenceAck {
        /// Echo of the fence's request id.
        req: ReqId,
        /// The object.
        obj: ObjectId,
    },
    /// Orderly shutdown of a node's protocol server.
    Shutdown,
}

impl ProtocolMsg {
    /// The statistics category this message is accounted under.
    pub fn category(&self) -> MsgCategory {
        match self {
            ProtocolMsg::ObjectRequest { .. } => MsgCategory::ObjRequest,
            ProtocolMsg::ObjectReply { migration, .. } => {
                if migration.is_some() {
                    MsgCategory::ObjReplyMigrate
                } else {
                    MsgCategory::ObjReply
                }
            }
            ProtocolMsg::ObjectRedirect { .. } | ProtocolMsg::DiffRedirect { .. } => {
                MsgCategory::Redirect
            }
            ProtocolMsg::DiffFlush { .. } => MsgCategory::Diff,
            ProtocolMsg::DiffAck { .. } => MsgCategory::DiffAck,
            ProtocolMsg::DiffBatch { .. } => MsgCategory::DiffBatch,
            ProtocolMsg::DiffBatchAck { .. } => MsgCategory::DiffBatchAck,
            ProtocolMsg::LockAcquire { .. } => MsgCategory::LockAcquire,
            ProtocolMsg::LockGrant { .. } => MsgCategory::LockGrant,
            ProtocolMsg::LockRelease { .. } => MsgCategory::LockRelease,
            ProtocolMsg::BarrierArrive { .. } => MsgCategory::BarrierArrive,
            ProtocolMsg::BarrierRelease { .. } => MsgCategory::BarrierRelease,
            ProtocolMsg::HomeNotify { .. } => MsgCategory::HomeNotify,
            ProtocolMsg::HomeLookup { .. } | ProtocolMsg::HomeLookupReply { .. } => {
                MsgCategory::HomeLookup
            }
            // Fault-recovery control traffic: rare by construction (only
            // under loss), so it shares the catch-all control category
            // rather than widening the paper's per-category breakdown.
            ProtocolMsg::LockReleaseAck { .. }
            | ProtocolMsg::HomeElect { .. }
            | ProtocolMsg::HomeElectReply { .. }
            | ProtocolMsg::HomeFence { .. }
            | ProtocolMsg::HomeFenceAck { .. }
            | ProtocolMsg::Shutdown => MsgCategory::Control,
        }
    }

    /// Modelled payload size in bytes (the message header is added by the
    /// fabric). Control fields are folded into the fixed header; what is
    /// counted here is the variable part: object data and diff contents.
    pub fn payload_bytes(&self) -> u64 {
        match self {
            ProtocolMsg::ObjectReply { data, .. } => data.len() as u64,
            ProtocolMsg::DiffFlush { diff, .. } => diff.wire_bytes() as u64,
            // A batch is ONE message: the summed diff payloads plus a small
            // per-entry header (the single fixed message header is added by
            // the fabric, exactly once).
            ProtocolMsg::DiffBatch { entries, .. } => entries
                .iter()
                .map(|e| e.diff.wire_bytes() as u64 + DIFF_BATCH_ENTRY_HEADER_BYTES)
                .sum(),
            // Unit-sized protocol messages: requests, grants, redirections,
            // acks, notifications. The paper models a redirection as a
            // "unit-sized message"; we charge only the fixed header.
            _ => 0,
        }
    }

    /// True for messages that complete a blocked request on the requester
    /// side (the runtime routes them to the waiting application thread
    /// instead of the protocol handler).
    pub fn is_reply(&self) -> bool {
        matches!(
            self,
            ProtocolMsg::ObjectReply { .. }
                | ProtocolMsg::ObjectRedirect { .. }
                | ProtocolMsg::DiffAck { .. }
                | ProtocolMsg::DiffBatchAck { .. }
                | ProtocolMsg::DiffRedirect { .. }
                | ProtocolMsg::LockGrant { .. }
                | ProtocolMsg::BarrierRelease { .. }
                | ProtocolMsg::HomeLookupReply { .. }
        )
    }

    /// The request id echoed by a reply, if this is a reply.
    pub fn reply_req(&self) -> Option<ReqId> {
        match self {
            ProtocolMsg::ObjectReply { req, .. }
            | ProtocolMsg::ObjectRedirect { req, .. }
            | ProtocolMsg::DiffAck { req, .. }
            | ProtocolMsg::DiffBatchAck { req, .. }
            | ProtocolMsg::DiffRedirect { req, .. }
            | ProtocolMsg::LockGrant { req, .. }
            | ProtocolMsg::BarrierRelease { req, .. }
            | ProtocolMsg::HomeLookupReply { req, .. } => Some(*req),
            _ => None,
        }
    }

    /// The request id a non-blocking acknowledgement answers, if this is
    /// one. Acks are *not* replies ([`ProtocolMsg::is_reply`] is false):
    /// nobody blocks on them, they only clear retry entries — but like
    /// replies they are cached by request id so a duplicate of the acked
    /// message can be answered without re-executing it.
    pub fn ack_req(&self) -> Option<ReqId> {
        match self {
            ProtocolMsg::LockReleaseAck { req, .. } => Some(*req),
            _ => None,
        }
    }

    /// The request id under which a *server* deduplicates this message, if
    /// it is an at-most-once request. Covers every retriable request with
    /// side effects; election and fence traffic is excluded (idempotent by
    /// construction, and election reuses the stuck request's id).
    pub fn dedup_req(&self) -> Option<ReqId> {
        match self {
            ProtocolMsg::ObjectRequest { req, .. }
            | ProtocolMsg::DiffFlush { req, .. }
            | ProtocolMsg::DiffBatch { req, .. }
            | ProtocolMsg::LockAcquire { req, .. }
            | ProtocolMsg::BarrierArrive { req, .. }
            | ProtocolMsg::HomeLookup { req, .. } => Some(*req),
            ProtocolMsg::LockRelease { req, .. } if req.0 != 0 => Some(*req),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn object_reply(migrate: bool) -> ProtocolMsg {
        ProtocolMsg::ObjectReply {
            req: ReqId(1),
            obj: ObjectId::derive("x", 0),
            data: vec![0u8; 256],
            version: Version(3),
            migration: if migrate {
                Some(MigrationGrant {
                    state: crate::migration::MigrationState::new(),
                })
            } else {
                None
            },
        }
    }

    #[test]
    fn categories_match_paper_breakdown() {
        assert_eq!(object_reply(false).category(), MsgCategory::ObjReply);
        assert_eq!(object_reply(true).category(), MsgCategory::ObjReplyMigrate);
        let redirect = ProtocolMsg::ObjectRedirect {
            req: ReqId(1),
            obj: ObjectId::derive("x", 0),
            new_home: NodeId(2),
            epoch: 1,
        };
        assert_eq!(redirect.category(), MsgCategory::Redirect);
        let diff = ProtocolMsg::DiffFlush {
            req: ReqId(1),
            obj: ObjectId::derive("x", 0),
            diff: Diff::full(&[1, 2, 3, 4]),
            from: NodeId(1),
            redirections: 0,
        };
        assert_eq!(diff.category(), MsgCategory::Diff);
        assert_eq!(ProtocolMsg::Shutdown.category(), MsgCategory::Control);
    }

    #[test]
    fn payload_bytes_cover_data_and_diffs() {
        assert_eq!(object_reply(false).payload_bytes(), 256);
        let diff = Diff::full(&[0u8; 100]);
        let wire = diff.wire_bytes() as u64;
        let msg = ProtocolMsg::DiffFlush {
            req: ReqId(1),
            obj: ObjectId::derive("x", 0),
            diff,
            from: NodeId(1),
            redirections: 0,
        };
        assert_eq!(msg.payload_bytes(), wire);
        assert_eq!(ProtocolMsg::Shutdown.payload_bytes(), 0);
        let req = ProtocolMsg::ObjectRequest {
            req: ReqId(1),
            obj: ObjectId::derive("x", 0),
            requester: NodeId(1),
            for_write: true,
            redirections: 2,
        };
        assert_eq!(req.payload_bytes(), 0);
    }

    fn batch(entry_payloads: &[&[u8]]) -> ProtocolMsg {
        ProtocolMsg::DiffBatch {
            req: ReqId(7),
            entries: entry_payloads
                .iter()
                .enumerate()
                .map(|(i, bytes)| DiffBatchEntry {
                    obj: ObjectId::derive("batch.obj", i as u64),
                    diff: Diff::full(bytes),
                })
                .collect(),
            from: NodeId(3),
        }
    }

    #[test]
    fn diff_batch_is_one_message_with_summed_payload() {
        // The wire/stat accounting contract of batching: k entries make ONE
        // message of the `DiffBatch` category whose payload is the *sum* of
        // the entry diffs' wire sizes (plus the per-entry header) — never k
        // `Diff` messages.
        let msg = batch(&[&[1u8; 64], &[2u8; 32], &[3u8; 128]]);
        assert_eq!(msg.category(), MsgCategory::DiffBatch);
        let expected: u64 = [64usize, 32, 128]
            .iter()
            .map(|len| Diff::full(&vec![9u8; *len]).wire_bytes() as u64)
            .sum::<u64>()
            + 3 * DIFF_BATCH_ENTRY_HEADER_BYTES;
        assert_eq!(msg.payload_bytes(), expected);
        assert!(!msg.is_reply());
        // The ack is a unit-sized reply carrying the request id.
        let ack = ProtocolMsg::DiffBatchAck {
            req: ReqId(7),
            results: vec![DiffBatchResult {
                obj: ObjectId::derive("batch.obj", 0),
                status: DiffEntryStatus::Applied {
                    version: Version(2),
                },
            }],
        };
        assert_eq!(ack.category(), MsgCategory::DiffBatchAck);
        assert_eq!(ack.payload_bytes(), 0);
        assert!(ack.is_reply());
        assert_eq!(ack.reply_req(), Some(ReqId(7)));
    }

    #[test]
    fn reply_detection_and_request_ids() {
        assert!(object_reply(false).is_reply());
        assert_eq!(object_reply(false).reply_req(), Some(ReqId(1)));
        let req = ProtocolMsg::LockAcquire {
            req: ReqId(9),
            lock: LockId(1),
            requester: NodeId(0),
        };
        assert!(!req.is_reply());
        assert_eq!(req.reply_req(), None);
        let grant = ProtocolMsg::LockGrant {
            req: ReqId(9),
            lock: LockId(1),
        };
        assert!(grant.is_reply());
        assert_eq!(grant.reply_req(), Some(ReqId(9)));
    }
}

//! # dsm-wire — the binary codec for the DSM protocol messages
//!
//! `dsm-net` defines the *framing* (length-prefixed frames, magic/version
//! header, the generic [`WireCodec`] trait); `dsm-core` defines the
//! *messages*. This crate sits above both and provides [`ProtocolCodec`],
//! the concrete `WireCodec<ProtocolMsg>` the TCP fabric is instantiated
//! with. It is hand-rolled and dependency-free by design — the workspace
//! builds offline, so there is no serde; every field is written with an
//! explicit little-endian layout.
//!
//! ## Message body layout
//!
//! A payload frame's body (after the envelope header written by
//! `dsm_net::wire::encode_envelope`) starts with a one-byte **variant
//! tag**, followed by the variant's fields in declaration order:
//!
//! | primitive | layout |
//! |---|---|
//! | `ReqId`, `ObjectId`, `Version` | u64 LE |
//! | `NodeId` | u16 LE |
//! | `LockId`, `BarrierId` | u32 LE |
//! | `bool` | one byte, strictly 0 or 1 |
//! | `f64` | IEEE-754 bit pattern as u64 LE (bit-exact round-trip) |
//! | `Option<NodeId>` | one-byte flag (0 absent / 1 present) then u16 |
//! | `Vec<u8>` | u32 LE length then the bytes |
//! | `Diff` | u32 object length, u32 run count, then per run: u32 offset + length-prefixed bytes |
//! | `MigrationState` | all fields in declaration order, including both `PolicyScratch` lanes |
//!
//! Collection counts are validated against the remaining input *before*
//! any allocation, and `Diff` bodies are decoded run by run through the
//! validated `Diff::push_run`, straight into the diff's one payload buffer
//! and run table, so a malformed or hostile frame yields a typed
//! [`WireError`] — never a panic, never an oversized allocation, never a
//! `Diff` violating its run-ordering invariants.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dsm_core::{
    DiffBatchEntry, DiffBatchResult, DiffEntryStatus, MigrationGrant, MigrationState,
    PolicyScratch, ProtocolMsg, ReqId,
};
use dsm_net::wire::{WireCodec, WireError, WireReader, WireWriter};
use dsm_objspace::{BarrierId, Diff, LockId, NodeId, ObjectId, Version};

// Variant tags, stable on the wire. New variants append; existing tags
// never renumber (that would be a WIRE_VERSION bump instead).
const TAG_OBJECT_REQUEST: u8 = 0;
const TAG_OBJECT_REPLY: u8 = 1;
const TAG_OBJECT_REDIRECT: u8 = 2;
const TAG_DIFF_FLUSH: u8 = 3;
const TAG_DIFF_ACK: u8 = 4;
const TAG_DIFF_BATCH: u8 = 5;
const TAG_DIFF_BATCH_ACK: u8 = 6;
const TAG_DIFF_REDIRECT: u8 = 7;
const TAG_LOCK_ACQUIRE: u8 = 8;
const TAG_LOCK_GRANT: u8 = 9;
const TAG_LOCK_RELEASE: u8 = 10;
const TAG_BARRIER_ARRIVE: u8 = 11;
const TAG_BARRIER_RELEASE: u8 = 12;
const TAG_HOME_NOTIFY: u8 = 13;
// Tags 14 and 15 were a home-manager lookup and its reply, which no build
// ever sent; they stay reserved and decode as unknown.
const TAG_SHUTDOWN: u8 = 16;
const TAG_LOCK_RELEASE_ACK: u8 = 17;
const TAG_HOME_ELECT: u8 = 18;
const TAG_HOME_ELECT_REPLY: u8 = 19;
const TAG_HOME_FENCE: u8 = 20;
const TAG_HOME_FENCE_ACK: u8 = 21;

fn put_node(w: &mut WireWriter, n: NodeId) {
    w.u16(n.0);
}

fn get_node(r: &mut WireReader<'_>) -> Result<NodeId, WireError> {
    Ok(NodeId(r.u16()?))
}

fn put_opt_node(w: &mut WireWriter, n: &Option<NodeId>) {
    match n {
        None => w.u8(0),
        Some(n) => {
            w.u8(1);
            w.u16(n.0);
        }
    }
}

fn get_opt_node(r: &mut WireReader<'_>) -> Result<Option<NodeId>, WireError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(NodeId(r.u16()?))),
        code => Err(WireError::UnknownTag {
            context: "option flag",
            code,
        }),
    }
}

fn put_diff(w: &mut WireWriter, diff: &Diff) {
    let object_len =
        u32::try_from(diff.object_len()).expect("object length exceeds the 4 GiB wire limit");
    w.u32(object_len);
    w.u32(u32::try_from(diff.run_count()).expect("run count exceeds u32"));
    for (offset, bytes) in diff.runs() {
        w.u32(offset);
        w.len_bytes(bytes);
    }
}

/// Minimum on-wire size of one diff run: offset + length prefix + one byte
/// (runs are never empty), used to validate run counts pre-allocation.
const MIN_RUN_BYTES: usize = 4 + 4 + 1;

fn get_diff(r: &mut WireReader<'_>) -> Result<Diff, WireError> {
    let object_len = r.u32()?;
    let count = r.count(MIN_RUN_BYTES)?;
    // Valid runs do not overlap, so the object length bounds the payload as
    // surely as the remaining input does.
    let payload_bound = r.remaining().min(object_len as usize);
    let mut diff = Diff::with_capacity(object_len, count, payload_bound);
    for _ in 0..count {
        let offset = r.u32()?;
        let bytes = r.len_bytes()?;
        // The validated append: empty, overlapping, unsorted or
        // out-of-bounds runs from the network are rejected here instead of
        // corrupting home copies later.
        if !diff.push_run(offset, bytes) {
            return Err(WireError::Invalid {
                context: "diff run layout",
            });
        }
    }
    Ok(diff)
}

fn put_grant(w: &mut WireWriter, grant: &MigrationGrant) {
    let s = &grant.state;
    w.u32(s.consecutive_remote_writes);
    put_opt_node(w, &s.last_remote_writer);
    w.f64(s.threshold_base);
    w.u64(s.redirected_requests);
    w.u64(s.exclusive_home_writes);
    w.bool(s.last_write_was_home);
    w.u32(s.migrations);
    w.f64(s.mean_diff_bytes);
    w.u64(s.diff_samples);
    put_opt_node(w, &s.prev_home);
    w.f64(s.scratch.a);
    w.f64(s.scratch.b);
}

fn get_grant(r: &mut WireReader<'_>) -> Result<MigrationGrant, WireError> {
    Ok(MigrationGrant {
        state: MigrationState {
            consecutive_remote_writes: r.u32()?,
            last_remote_writer: get_opt_node(r)?,
            threshold_base: r.f64()?,
            redirected_requests: r.u64()?,
            exclusive_home_writes: r.u64()?,
            last_write_was_home: r.bool()?,
            migrations: r.u32()?,
            mean_diff_bytes: r.f64()?,
            diff_samples: r.u64()?,
            prev_home: get_opt_node(r)?,
            scratch: PolicyScratch {
                a: r.f64()?,
                b: r.f64()?,
            },
        },
    })
}

/// Minimum on-wire size of one batch entry: object id + empty diff.
const MIN_BATCH_ENTRY_BYTES: usize = 8 + 4 + 4;
/// Minimum on-wire size of one batch result: object id + status tag +
/// the smaller status body (redirect: node + epoch).
const MIN_BATCH_RESULT_BYTES: usize = 8 + 1 + 6;

fn put_status(w: &mut WireWriter, status: &DiffEntryStatus) {
    match status {
        DiffEntryStatus::Applied { version } => {
            w.u8(0);
            w.u64(version.0);
        }
        DiffEntryStatus::Redirect { new_home, epoch } => {
            w.u8(1);
            put_node(w, *new_home);
            w.u32(*epoch);
        }
    }
}

fn get_status(r: &mut WireReader<'_>) -> Result<DiffEntryStatus, WireError> {
    match r.u8()? {
        0 => Ok(DiffEntryStatus::Applied {
            version: Version(r.u64()?),
        }),
        1 => Ok(DiffEntryStatus::Redirect {
            new_home: get_node(r)?,
            epoch: r.u32()?,
        }),
        code => Err(WireError::UnknownTag {
            context: "diff entry status",
            code,
        }),
    }
}

/// The concrete binary codec for [`ProtocolMsg`] — plug it into
/// `dsm_net::tcp::TcpNodeBinding::bind::<ProtocolCodec>` (or the envelope
/// helpers in `dsm_net::wire`) to speak the DSM protocol over sockets.
pub struct ProtocolCodec;

impl WireCodec<ProtocolMsg> for ProtocolCodec {
    fn encode(msg: &ProtocolMsg, w: &mut WireWriter) {
        match msg {
            ProtocolMsg::ObjectRequest {
                req,
                obj,
                requester,
                for_write,
                redirections,
            } => {
                w.u8(TAG_OBJECT_REQUEST);
                w.u64(req.0);
                w.u64(obj.0);
                put_node(w, *requester);
                w.bool(*for_write);
                w.u32(*redirections);
            }
            ProtocolMsg::ObjectReply {
                req,
                obj,
                data,
                version,
                migration,
            } => {
                w.u8(TAG_OBJECT_REPLY);
                w.u64(req.0);
                w.u64(obj.0);
                w.len_bytes(data);
                w.u64(version.0);
                match migration {
                    None => w.u8(0),
                    Some(grant) => {
                        w.u8(1);
                        put_grant(w, grant);
                    }
                }
            }
            ProtocolMsg::ObjectRedirect {
                req,
                obj,
                new_home,
                epoch,
            } => {
                w.u8(TAG_OBJECT_REDIRECT);
                w.u64(req.0);
                w.u64(obj.0);
                put_node(w, *new_home);
                w.u32(*epoch);
            }
            ProtocolMsg::DiffFlush {
                req,
                obj,
                diff,
                from,
                redirections,
            } => {
                w.u8(TAG_DIFF_FLUSH);
                w.u64(req.0);
                w.u64(obj.0);
                put_diff(w, diff);
                put_node(w, *from);
                w.u32(*redirections);
            }
            ProtocolMsg::DiffAck { req, obj, version } => {
                w.u8(TAG_DIFF_ACK);
                w.u64(req.0);
                w.u64(obj.0);
                w.u64(version.0);
            }
            ProtocolMsg::DiffBatch { req, entries, from } => {
                w.u8(TAG_DIFF_BATCH);
                w.u64(req.0);
                w.u32(u32::try_from(entries.len()).expect("batch length exceeds u32"));
                for entry in entries {
                    w.u64(entry.obj.0);
                    put_diff(w, &entry.diff);
                }
                put_node(w, *from);
            }
            ProtocolMsg::DiffBatchAck { req, results } => {
                w.u8(TAG_DIFF_BATCH_ACK);
                w.u64(req.0);
                w.u32(u32::try_from(results.len()).expect("result count exceeds u32"));
                for result in results {
                    w.u64(result.obj.0);
                    put_status(w, &result.status);
                }
            }
            ProtocolMsg::DiffRedirect {
                req,
                obj,
                new_home,
                epoch,
            } => {
                w.u8(TAG_DIFF_REDIRECT);
                w.u64(req.0);
                w.u64(obj.0);
                put_node(w, *new_home);
                w.u32(*epoch);
            }
            ProtocolMsg::LockAcquire {
                req,
                lock,
                requester,
            } => {
                w.u8(TAG_LOCK_ACQUIRE);
                w.u64(req.0);
                w.u32(lock.0);
                put_node(w, *requester);
            }
            ProtocolMsg::LockGrant { req, lock } => {
                w.u8(TAG_LOCK_GRANT);
                w.u64(req.0);
                w.u32(lock.0);
            }
            ProtocolMsg::LockRelease { lock, holder, req } => {
                w.u8(TAG_LOCK_RELEASE);
                w.u32(lock.0);
                put_node(w, *holder);
                w.u64(req.0);
            }
            ProtocolMsg::LockReleaseAck { req, lock } => {
                w.u8(TAG_LOCK_RELEASE_ACK);
                w.u64(req.0);
                w.u32(lock.0);
            }
            ProtocolMsg::BarrierArrive {
                req,
                barrier,
                node,
                epoch,
            } => {
                w.u8(TAG_BARRIER_ARRIVE);
                w.u64(req.0);
                w.u32(barrier.0);
                put_node(w, *node);
                w.u64(*epoch);
            }
            ProtocolMsg::BarrierRelease {
                req,
                barrier,
                epoch,
            } => {
                w.u8(TAG_BARRIER_RELEASE);
                w.u64(req.0);
                w.u32(barrier.0);
                w.u64(*epoch);
            }
            ProtocolMsg::HomeNotify {
                obj,
                new_home,
                epoch,
            } => {
                w.u8(TAG_HOME_NOTIFY);
                w.u64(obj.0);
                put_node(w, *new_home);
                w.u32(*epoch);
            }
            ProtocolMsg::HomeElect {
                req,
                obj,
                suspect,
                candidate,
                epoch,
                has_copy,
            } => {
                w.u8(TAG_HOME_ELECT);
                w.u64(req.0);
                w.u64(obj.0);
                put_node(w, *suspect);
                put_node(w, *candidate);
                w.u32(*epoch);
                w.bool(*has_copy);
            }
            ProtocolMsg::HomeElectReply {
                req,
                obj,
                home,
                epoch,
            } => {
                w.u8(TAG_HOME_ELECT_REPLY);
                w.u64(req.0);
                w.u64(obj.0);
                put_node(w, *home);
                w.u32(*epoch);
            }
            ProtocolMsg::HomeFence {
                req,
                obj,
                new_home,
                epoch,
            } => {
                w.u8(TAG_HOME_FENCE);
                w.u64(req.0);
                w.u64(obj.0);
                put_node(w, *new_home);
                w.u32(*epoch);
            }
            ProtocolMsg::HomeFenceAck { req, obj } => {
                w.u8(TAG_HOME_FENCE_ACK);
                w.u64(req.0);
                w.u64(obj.0);
            }
            ProtocolMsg::Shutdown => {
                w.u8(TAG_SHUTDOWN);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<ProtocolMsg, WireError> {
        let tag = r.u8()?;
        match tag {
            TAG_OBJECT_REQUEST => Ok(ProtocolMsg::ObjectRequest {
                req: ReqId(r.u64()?),
                obj: ObjectId(r.u64()?),
                requester: get_node(r)?,
                for_write: r.bool()?,
                redirections: r.u32()?,
            }),
            TAG_OBJECT_REPLY => Ok(ProtocolMsg::ObjectReply {
                req: ReqId(r.u64()?),
                obj: ObjectId(r.u64()?),
                data: r.len_bytes()?.to_vec(),
                version: Version(r.u64()?),
                migration: match r.u8()? {
                    0 => None,
                    1 => Some(get_grant(r)?),
                    code => {
                        return Err(WireError::UnknownTag {
                            context: "migration flag",
                            code,
                        })
                    }
                },
            }),
            TAG_OBJECT_REDIRECT => Ok(ProtocolMsg::ObjectRedirect {
                req: ReqId(r.u64()?),
                obj: ObjectId(r.u64()?),
                new_home: get_node(r)?,
                epoch: r.u32()?,
            }),
            TAG_DIFF_FLUSH => Ok(ProtocolMsg::DiffFlush {
                req: ReqId(r.u64()?),
                obj: ObjectId(r.u64()?),
                diff: get_diff(r)?,
                from: get_node(r)?,
                redirections: r.u32()?,
            }),
            TAG_DIFF_ACK => Ok(ProtocolMsg::DiffAck {
                req: ReqId(r.u64()?),
                obj: ObjectId(r.u64()?),
                version: Version(r.u64()?),
            }),
            TAG_DIFF_BATCH => {
                let req = ReqId(r.u64()?);
                let count = r.count(MIN_BATCH_ENTRY_BYTES)?;
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    entries.push(DiffBatchEntry {
                        obj: ObjectId(r.u64()?),
                        diff: get_diff(r)?,
                    });
                }
                Ok(ProtocolMsg::DiffBatch {
                    req,
                    entries,
                    from: get_node(r)?,
                })
            }
            TAG_DIFF_BATCH_ACK => {
                let req = ReqId(r.u64()?);
                let count = r.count(MIN_BATCH_RESULT_BYTES)?;
                let mut results = Vec::with_capacity(count);
                for _ in 0..count {
                    results.push(DiffBatchResult {
                        obj: ObjectId(r.u64()?),
                        status: get_status(r)?,
                    });
                }
                Ok(ProtocolMsg::DiffBatchAck { req, results })
            }
            TAG_DIFF_REDIRECT => Ok(ProtocolMsg::DiffRedirect {
                req: ReqId(r.u64()?),
                obj: ObjectId(r.u64()?),
                new_home: get_node(r)?,
                epoch: r.u32()?,
            }),
            TAG_LOCK_ACQUIRE => Ok(ProtocolMsg::LockAcquire {
                req: ReqId(r.u64()?),
                lock: LockId(r.u32()?),
                requester: get_node(r)?,
            }),
            TAG_LOCK_GRANT => Ok(ProtocolMsg::LockGrant {
                req: ReqId(r.u64()?),
                lock: LockId(r.u32()?),
            }),
            TAG_LOCK_RELEASE => Ok(ProtocolMsg::LockRelease {
                lock: LockId(r.u32()?),
                holder: get_node(r)?,
                req: ReqId(r.u64()?),
            }),
            TAG_LOCK_RELEASE_ACK => Ok(ProtocolMsg::LockReleaseAck {
                req: ReqId(r.u64()?),
                lock: LockId(r.u32()?),
            }),
            TAG_BARRIER_ARRIVE => Ok(ProtocolMsg::BarrierArrive {
                req: ReqId(r.u64()?),
                barrier: BarrierId(r.u32()?),
                node: get_node(r)?,
                epoch: r.u64()?,
            }),
            TAG_BARRIER_RELEASE => Ok(ProtocolMsg::BarrierRelease {
                req: ReqId(r.u64()?),
                barrier: BarrierId(r.u32()?),
                epoch: r.u64()?,
            }),
            TAG_HOME_NOTIFY => Ok(ProtocolMsg::HomeNotify {
                obj: ObjectId(r.u64()?),
                new_home: get_node(r)?,
                epoch: r.u32()?,
            }),
            TAG_HOME_ELECT => Ok(ProtocolMsg::HomeElect {
                req: ReqId(r.u64()?),
                obj: ObjectId(r.u64()?),
                suspect: get_node(r)?,
                candidate: get_node(r)?,
                epoch: r.u32()?,
                has_copy: r.bool()?,
            }),
            TAG_HOME_ELECT_REPLY => Ok(ProtocolMsg::HomeElectReply {
                req: ReqId(r.u64()?),
                obj: ObjectId(r.u64()?),
                home: get_node(r)?,
                epoch: r.u32()?,
            }),
            TAG_HOME_FENCE => Ok(ProtocolMsg::HomeFence {
                req: ReqId(r.u64()?),
                obj: ObjectId(r.u64()?),
                new_home: get_node(r)?,
                epoch: r.u32()?,
            }),
            TAG_HOME_FENCE_ACK => Ok(ProtocolMsg::HomeFenceAck {
                req: ReqId(r.u64()?),
                obj: ObjectId(r.u64()?),
            }),
            TAG_SHUTDOWN => Ok(ProtocolMsg::Shutdown),
            code => Err(WireError::UnknownTag {
                context: "protocol message",
                code,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_model::SimTime;
    use dsm_net::wire::{decode_envelope, decode_frame, encode_envelope, FrameKind};
    use dsm_net::Envelope;
    use dsm_util::SmallRng;

    fn sample_diff() -> Diff {
        Diff::from_runs(&[(0, &[1, 2, 3, 4]), (12, &[9])], 64).expect("valid runs")
    }

    fn sample_grant() -> MigrationGrant {
        MigrationGrant {
            state: MigrationState {
                consecutive_remote_writes: 3,
                last_remote_writer: Some(NodeId(2)),
                threshold_base: 2.75,
                redirected_requests: 17,
                exclusive_home_writes: 5,
                last_write_was_home: true,
                migrations: 4,
                mean_diff_bytes: 129.5,
                diff_samples: 11,
                prev_home: Some(NodeId(1)),
                scratch: PolicyScratch { a: -0.25, b: 1e-9 },
            },
        }
    }

    /// One instance of every `ProtocolMsg` variant, with every optional
    /// field exercised in both directions across the set.
    fn every_variant() -> Vec<ProtocolMsg> {
        vec![
            ProtocolMsg::ObjectRequest {
                req: ReqId(1),
                obj: ObjectId(100),
                requester: NodeId(3),
                for_write: true,
                redirections: 2,
            },
            ProtocolMsg::ObjectReply {
                req: ReqId(2),
                obj: ObjectId(101),
                data: vec![0xAB; 37],
                version: Version(9),
                migration: None,
            },
            // The migration grant carries the full MigrationState,
            // including the PolicyScratch lanes — the acceptance bar calls
            // this out explicitly.
            ProtocolMsg::ObjectReply {
                req: ReqId(3),
                obj: ObjectId(102),
                data: Vec::new(),
                version: Version(10),
                migration: Some(sample_grant()),
            },
            ProtocolMsg::ObjectRedirect {
                req: ReqId(4),
                obj: ObjectId(103),
                new_home: NodeId(1),
                epoch: 6,
            },
            ProtocolMsg::DiffFlush {
                req: ReqId(5),
                obj: ObjectId(104),
                diff: sample_diff(),
                from: NodeId(2),
                redirections: 1,
            },
            ProtocolMsg::DiffAck {
                req: ReqId(6),
                obj: ObjectId(105),
                version: Version(11),
            },
            ProtocolMsg::DiffBatch {
                req: ReqId(7),
                entries: vec![
                    DiffBatchEntry {
                        obj: ObjectId(106),
                        diff: sample_diff(),
                    },
                    DiffBatchEntry {
                        obj: ObjectId(107),
                        diff: Diff::from_runs(&[], 16).expect("empty diff"),
                    },
                ],
                from: NodeId(0),
            },
            ProtocolMsg::DiffBatchAck {
                req: ReqId(8),
                results: vec![
                    DiffBatchResult {
                        obj: ObjectId(106),
                        status: DiffEntryStatus::Applied {
                            version: Version(12),
                        },
                    },
                    DiffBatchResult {
                        obj: ObjectId(107),
                        status: DiffEntryStatus::Redirect {
                            new_home: NodeId(3),
                            epoch: 2,
                        },
                    },
                ],
            },
            ProtocolMsg::DiffRedirect {
                req: ReqId(9),
                obj: ObjectId(108),
                new_home: NodeId(2),
                epoch: 7,
            },
            ProtocolMsg::LockAcquire {
                req: ReqId(10),
                lock: LockId(40),
                requester: NodeId(1),
            },
            ProtocolMsg::LockGrant {
                req: ReqId(11),
                lock: LockId(41),
            },
            ProtocolMsg::LockRelease {
                lock: LockId(42),
                holder: NodeId(2),
                req: ReqId(16),
            },
            // The legacy fire-and-forget release: ReqId(0) means "no ack
            // expected" and must round-trip unchanged.
            ProtocolMsg::LockRelease {
                lock: LockId(43),
                holder: NodeId(3),
                req: ReqId(0),
            },
            ProtocolMsg::LockReleaseAck {
                req: ReqId(16),
                lock: LockId(42),
            },
            ProtocolMsg::BarrierArrive {
                req: ReqId(12),
                barrier: BarrierId(50),
                node: NodeId(3),
                epoch: 1_000,
            },
            ProtocolMsg::BarrierRelease {
                req: ReqId(13),
                barrier: BarrierId(51),
                epoch: 1_001,
            },
            ProtocolMsg::HomeNotify {
                obj: ObjectId(109),
                new_home: NodeId(0),
                epoch: 8,
            },
            ProtocolMsg::HomeElect {
                req: ReqId(17),
                obj: ObjectId(112),
                suspect: NodeId(1),
                candidate: NodeId(2),
                epoch: 3,
                has_copy: true,
            },
            ProtocolMsg::HomeElectReply {
                req: ReqId(17),
                obj: ObjectId(112),
                home: NodeId(2),
                epoch: 65_539,
            },
            ProtocolMsg::HomeFence {
                req: ReqId(18),
                obj: ObjectId(112),
                new_home: NodeId(2),
                epoch: 65_539,
            },
            ProtocolMsg::HomeFenceAck {
                req: ReqId(18),
                obj: ObjectId(112),
            },
            ProtocolMsg::Shutdown,
        ]
    }

    fn envelope_for(msg: ProtocolMsg, idx: u64) -> Envelope<ProtocolMsg> {
        Envelope {
            src: NodeId(1),
            dst: NodeId(2),
            category: msg.category(),
            wire_bytes: msg.payload_bytes() + 32,
            sent_at: SimTime::from_nanos(idx * 1_000),
            arrival: SimTime::from_nanos(idx * 1_000 + 42),
            payload: msg,
        }
    }

    #[test]
    fn every_variant_round_trips_byte_exactly() {
        let variants = every_variant();
        assert_eq!(
            variants.len(),
            22,
            "one instance per variant plus the grant and legacy-release cases"
        );
        for (i, msg) in variants.into_iter().enumerate() {
            let env = envelope_for(msg, i as u64);
            let frame = encode_envelope::<ProtocolMsg, ProtocolCodec>(&env);
            let (kind, body) = decode_frame(&frame[4..]).expect("valid frame");
            assert_eq!(kind, FrameKind::Payload);
            let back = decode_envelope::<ProtocolMsg, ProtocolCodec>(body).expect("decodes");
            assert_eq!(back, env);
            // Byte-exact: re-encoding the decoded envelope reproduces the
            // original frame bit for bit.
            let again = encode_envelope::<ProtocolMsg, ProtocolCodec>(&back);
            assert_eq!(again, frame);
        }
    }

    #[test]
    fn scratch_round_trip_is_bit_exact_for_odd_floats() {
        for a in [
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            f64::MIN_POSITIVE,
            f64::NAN,
        ] {
            let mut grant = sample_grant();
            grant.state.scratch.a = a;
            let mut w = WireWriter::new();
            put_grant(&mut w, &grant);
            let bytes = w.into_vec();
            let mut r = WireReader::new(&bytes);
            let back = get_grant(&mut r).expect("decodes");
            r.finish().expect("consumed exactly");
            assert_eq!(back.state.scratch.a.to_bits(), a.to_bits());
        }
    }

    #[test]
    fn unknown_variant_and_flag_tags_are_typed_errors() {
        let mut r = WireReader::new(&[200]);
        assert!(matches!(
            ProtocolCodec::decode(&mut r),
            Err(WireError::UnknownTag {
                context: "protocol message",
                code: 200
            })
        ));
        // The retired lookup tags, followed by what their bodies were
        // (request id, object id, node).
        for code in [14u8, 15] {
            let mut w = WireWriter::new();
            w.u8(code);
            w.u64(1);
            w.u64(2);
            w.u16(3);
            let bytes = w.into_vec();
            let mut r = WireReader::new(&bytes);
            assert!(
                matches!(
                    ProtocolCodec::decode(&mut r),
                    Err(WireError::UnknownTag {
                        context: "protocol message",
                        code: c
                    }) if c == code
                ),
                "tag {code} must stay retired"
            );
        }
        // A corrupt migration-present flag.
        let mut w = WireWriter::new();
        w.u8(TAG_OBJECT_REPLY);
        w.u64(1);
        w.u64(2);
        w.len_bytes(&[]);
        w.u64(3);
        w.u8(9); // invalid Option flag
        let bytes = w.into_vec();
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            ProtocolCodec::decode(&mut r),
            Err(WireError::UnknownTag {
                context: "migration flag",
                code: 9
            })
        ));
    }

    /// A `DiffFlush` body whose diff section is written field by field, so
    /// a test can state layouts the encoder would never produce.
    fn diff_flush_body(object_len: u32, run_count: u32, runs: &[(u32, &[u8])]) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.u8(TAG_DIFF_FLUSH);
        w.u64(1); // req
        w.u64(2); // obj
        w.u32(object_len);
        w.u32(run_count);
        for (offset, bytes) in runs {
            w.u32(*offset);
            w.len_bytes(bytes);
        }
        w.u16(0); // from
        w.u32(0); // redirections
        w.into_vec()
    }

    #[test]
    fn malformed_diff_runs_are_rejected_not_installed() {
        let invalid_layout = [
            // Overlapping runs: offsets 0..4 and 2..3.
            diff_flush_body(64, 2, &[(0, &[1, 2, 3, 4]), (2, &[9])]),
            // Unsorted runs.
            diff_flush_body(64, 2, &[(12, &[9]), (0, &[1, 2, 3, 4])]),
            // A run reaching past the object.
            diff_flush_body(64, 1, &[(62, &[1, 2, 3])]),
            diff_flush_body(u32::MAX, 1, &[(u32::MAX, &[1, 2])]),
            // An empty run.
            diff_flush_body(64, 1, &[(0, &[])]),
        ];
        for bytes in &invalid_layout {
            let mut r = WireReader::new(bytes);
            assert!(matches!(
                ProtocolCodec::decode(&mut r),
                Err(WireError::Invalid {
                    context: "diff run layout"
                })
            ));
        }
        // A run count the body cannot hold fails before any allocation; one
        // merely larger than the runs present runs out of input.
        let bytes = diff_flush_body(64, u32::MAX, &[(0, &[1, 2, 3, 4])]);
        assert!(matches!(
            ProtocolCodec::decode(&mut WireReader::new(&bytes)),
            Err(WireError::Oversized { .. })
        ));
        let bytes = diff_flush_body(64, 2, &[(0, &[1, 2, 3, 4])]);
        assert!(matches!(
            ProtocolCodec::decode(&mut WireReader::new(&bytes)),
            Err(WireError::Truncated { .. } | WireError::Oversized { .. })
        ));
    }

    /// Dense, sparse, empty and whole-object diffs survive the codec with
    /// their run tables and payloads intact, alone and batched.
    #[test]
    fn computed_diffs_round_trip() {
        let row: Vec<u8> = (0..16_384).map(|i| (i * 7) as u8).collect();
        let mut dense = row.clone();
        for f in (8..16_376).step_by(16) {
            dense[f..f + 8].iter_mut().for_each(|b| *b ^= 0xFF);
        }
        let mut sparse = vec![0u8; 509];
        sparse[3] = 1;
        sparse[255] = 2;
        sparse[508] = 3;
        let diffs = [
            Diff::between(&row, &dense),
            Diff::between(&[0u8; 509], &sparse),
            Diff::between(&row, &row),
            Diff::full(&row),
            Diff::full(&[]),
        ];
        assert_eq!(diffs[0].run_count(), 1023);
        assert_eq!(diffs[1].run_count(), 3);
        let mut msgs: Vec<ProtocolMsg> = diffs
            .iter()
            .map(|diff| ProtocolMsg::DiffFlush {
                req: ReqId(5),
                obj: ObjectId(104),
                diff: diff.clone(),
                from: NodeId(2),
                redirections: 0,
            })
            .collect();
        msgs.push(ProtocolMsg::DiffBatch {
            req: ReqId(7),
            entries: (0u64..)
                .zip(&diffs)
                .map(|(i, diff)| DiffBatchEntry {
                    obj: ObjectId(i),
                    diff: diff.clone(),
                })
                .collect(),
            from: NodeId(1),
        });
        for (i, msg) in msgs.into_iter().enumerate() {
            let env = envelope_for(msg, i as u64);
            let frame = encode_envelope::<ProtocolMsg, ProtocolCodec>(&env);
            let (_, body) = decode_frame(&frame[4..]).expect("valid frame");
            let back = decode_envelope::<ProtocolMsg, ProtocolCodec>(body).expect("decodes");
            assert_eq!(back, env);
        }
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit pair"))
            .collect()
    }

    /// The wire format is pinned byte for byte: these frames were printed by
    /// the build that preceded the flat `Diff` layout and the single-buffer
    /// frame encoder, and both must keep producing them.
    #[test]
    fn golden_frames_are_unchanged() {
        let flush = ProtocolMsg::DiffFlush {
            req: ReqId(5),
            obj: ObjectId(104),
            diff: sample_diff(),
            from: NodeId(2),
            redirections: 1,
        };
        let mut new = [0u8; 22];
        new[0] = 1;
        new[9] = 2;
        new[21] = 3;
        let batch = ProtocolMsg::DiffBatch {
            req: ReqId(7),
            entries: vec![
                DiffBatchEntry {
                    obj: ObjectId(106),
                    diff: sample_diff(),
                },
                // Computed, not assembled: pins `Diff::between`'s run
                // boundaries, trailing partial word included.
                DiffBatchEntry {
                    obj: ObjectId(107),
                    diff: Diff::between(&[0u8; 22], &new),
                },
            ],
            from: NodeId(0),
        };
        let data: Vec<u8> = (0..512).map(|i| i as u8).collect();
        let reply = ProtocolMsg::ObjectReply {
            req: ReqId(2),
            obj: ObjectId(101),
            data: data.clone(),
            version: Version(9),
            migration: None,
        };
        let mut reply_frame = unhex(
            "4202000044534d5701000101000200012002000000000000d007000000000000\
             fa07000000000000010200000000000000650000000000000000020000",
        );
        reply_frame.extend_from_slice(&data);
        reply_frame.extend_from_slice(&unhex("090000000000000000"));
        let golden = [
            unhex(
                "5800000044534d570100010100020003350000000000000000000000000000002a0000\
                 0000000000030500000000000000680000000000000040000000020000000000000004\
                 000000010203040c0000000100000009020001000000",
            ),
            unhex(
                "8a00000044534d5701000101000200056700000000000000e8030000000000001204000000\
                 000000050700000000000000020000006a0000000000000040000000020000000000000004\
                 000000010203040c00000001000000096b0000000000000016000000030000000000000004\
                 00000001000000080000000400000000020000140000000200000000030000",
            ),
            reply_frame,
        ];
        for (i, (msg, expected)) in [flush, batch, reply].into_iter().zip(golden).enumerate() {
            let frame = encode_envelope::<ProtocolMsg, ProtocolCodec>(&envelope_for(msg, i as u64));
            assert_eq!(frame, expected, "frame {i}");
        }
    }

    #[test]
    fn oversized_counts_fail_before_allocation() {
        // A DiffBatch claiming u32::MAX entries with almost no input.
        let mut w = WireWriter::new();
        w.u8(TAG_DIFF_BATCH);
        w.u64(1);
        w.u32(u32::MAX);
        let bytes = w.into_vec();
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            ProtocolCodec::decode(&mut r),
            Err(WireError::Oversized { .. })
        ));
    }

    /// Seeded fuzz: random byte mutations and truncations of valid frames
    /// must always produce a typed error or a (possibly different) valid
    /// message — never a panic, never an oversized allocation.
    #[test]
    fn seeded_mutation_fuzz_never_panics() {
        let variants = every_variant();
        for seed in dsm_util::seed_corpus() {
            let mut rng = SmallRng::seed_from_u64(seed);
            for round in 0..2_000 {
                let msg = variants[rng.gen_index(variants.len())].clone();
                let env = envelope_for(msg, round);
                let mut frame = encode_envelope::<ProtocolMsg, ProtocolCodec>(&env);
                // Mutate 1..=8 bytes anywhere in the frame (header included),
                // then sometimes truncate.
                for _ in 0..rng.gen_range_u32(1, 9) {
                    let pos = rng.gen_index(frame.len());
                    frame[pos] ^= (rng.next_u64() & 0xFF) as u8;
                }
                if rng.gen_index(4) == 0 {
                    frame.truncate(rng.gen_index(frame.len() + 1));
                }
                // Decode exactly as the socket reader does: length prefix,
                // bounds check, frame header, body.
                if frame.len() < 4 {
                    continue;
                }
                let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
                let body = &frame[4..];
                if len != body.len() {
                    // The reader would block for more bytes or reject the
                    // length bound; either way no decode happens.
                    continue;
                }
                if let Ok((FrameKind::Payload, payload)) = decode_frame(body) {
                    // Must return: Ok (mutation hit a don't-care byte or
                    // produced another valid message) or a typed error.
                    let _ = decode_envelope::<ProtocolMsg, ProtocolCodec>(payload);
                }
            }
        }
    }

    #[test]
    fn truncation_at_every_boundary_is_a_typed_error() {
        let env = envelope_for(
            ProtocolMsg::ObjectReply {
                req: ReqId(3),
                obj: ObjectId(102),
                data: vec![1, 2, 3],
                version: Version(10),
                migration: Some(sample_grant()),
            },
            0,
        );
        let frame = encode_envelope::<ProtocolMsg, ProtocolCodec>(&env);
        let (_, body) = decode_frame(&frame[4..]).expect("valid frame");
        for cut in 0..body.len() {
            let err = decode_envelope::<ProtocolMsg, ProtocolCodec>(&body[..cut])
                .expect_err("every strict prefix must fail to decode");
            // Anything typed is fine; just prove it renders.
            assert!(!err.to_string().is_empty());
        }
    }
}

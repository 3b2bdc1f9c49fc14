//! `dsm_wire`: encoding and decoding the messages the KV and SOR workloads
//! send most, as whole payload frames (`ProtocolCodec` through the
//! `dsm_net::wire` envelope helpers — the call the TCP fabric makes).

use super::Rows;
use dsm_core::{DiffBatchEntry, ProtocolMsg, ReqId};
use dsm_model::SimTime;
use dsm_net::wire::{decode_envelope, decode_frame, encode_envelope};
use dsm_net::Envelope;
use dsm_objspace::{Diff, NodeId, ObjectId, Version};
use dsm_wire::ProtocolCodec;
use std::hint::black_box;

fn envelope(payload: ProtocolMsg) -> Envelope<ProtocolMsg> {
    Envelope {
        src: NodeId(1),
        dst: NodeId(2),
        category: payload.category(),
        wire_bytes: payload.payload_bytes() + dsm_net::MESSAGE_HEADER_BYTES,
        sent_at: SimTime::from_micros(1234.5),
        arrival: SimTime::from_micros(1300.25),
        payload,
    }
}

pub fn request() -> ProtocolMsg {
    ProtocolMsg::ObjectRequest {
        req: ReqId(77),
        obj: ObjectId::derive("bench.wire", 3),
        requester: NodeId(1),
        for_write: true,
        redirections: 0,
    }
}

pub fn reply(bytes: usize) -> ProtocolMsg {
    ProtocolMsg::ObjectReply {
        req: ReqId(77),
        obj: ObjectId::derive("bench.wire", 3),
        data: (0..bytes).map(|i| i as u8).collect(),
        version: Version::default(),
        migration: None,
    }
}

/// Eight 512-byte objects with three changed slots each: what a KV
/// interval's release sends to one home.
fn diff_batch() -> ProtocolMsg {
    let old = vec![0u8; 512];
    let mut new = old.clone();
    for slot in [5usize, 23, 50] {
        new[slot * 8] = 1;
    }
    ProtocolMsg::DiffBatch {
        req: ReqId(78),
        entries: (0..8)
            .map(|i| DiffBatchEntry {
                obj: ObjectId::derive("bench.wire", i),
                diff: Diff::between(&old, &new),
            })
            .collect(),
        from: NodeId(1),
    }
}

fn encode(rows: &mut Rows, name: &'static str, msg: ProtocolMsg) -> Vec<u8> {
    let env = envelope(msg);
    rows.batched_ns(name, || {
        black_box(encode_envelope::<ProtocolMsg, ProtocolCodec>(black_box(
            &env,
        )));
    });
    let frame = encode_envelope::<ProtocolMsg, ProtocolCodec>(&env);
    // The decoder is handed what follows the 4-byte length prefix.
    let (_, body) = decode_frame(&frame[4..]).expect("own frame decodes");
    assert_eq!(
        decode_envelope::<ProtocolMsg, ProtocolCodec>(body).expect("own body decodes"),
        env
    );
    frame
}

fn decode(rows: &mut Rows, name: &'static str, frame: &[u8]) {
    rows.batched_ns(name, || {
        let (_, body) = decode_frame(black_box(&frame[4..])).expect("own frame decodes");
        black_box(decode_envelope::<ProtocolMsg, ProtocolCodec>(body).expect("own body decodes"));
    });
}

pub fn run(rows: &mut Rows) {
    let request = encode(rows, "wire.encode_ns_request", request());
    let reply512 = encode(rows, "wire.encode_ns_reply512", reply(512));
    let reply16k = encode(rows, "wire.encode_ns_reply16k", reply(16 * 1024));
    encode(rows, "wire.encode_ns_diffbatch8", diff_batch());
    decode(rows, "wire.decode_ns_request", &request);
    decode(rows, "wire.decode_ns_reply512", &reply512);
    decode(rows, "wire.decode_ns_reply16k", &reply16k);
    rows.put("wire.bytes_request", request.len() as f64, 1);
    rows.put("wire.bytes_reply512", reply512.len() as f64, 1);
}

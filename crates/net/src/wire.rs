//! Wire framing: the dependency-free binary layer under the TCP fabric.
//!
//! Everything that crosses a real socket is a **length-prefixed frame**
//! with an explicit little-endian layout:
//!
//! ```text
//! [ body_len: u32 LE ]           -- length of everything after this field
//! [ magic:    u32 LE ]           -- WIRE_MAGIC ("DSMW")
//! [ version:  u16 LE ]           -- WIRE_VERSION
//! [ kind:     u8     ]           -- FrameKind
//! [ body:     kind-specific ... ]
//! ```
//!
//! Payload frames carry a full [`Envelope`]: the routing header (`src`,
//! `dst`, category code) plus the **modeled** fields (`wire_bytes`,
//! `sent_at`, `arrival` as u64 nanoseconds) that the receiver's
//! virtual-clock merge reads, followed by the protocol message encoded by a
//! [`WireCodec`]. The merge happens in real-time arrival order, so modeled
//! time on TCP depends on the interleaving; only the sim fabric's is
//! reproducible. The codec for the concrete
//! `ProtocolMsg` lives in the `dsm-wire` crate (this crate sits *below* the
//! protocol definition in the dependency order).
//!
//! Decoding is **total**: malformed input of any shape — bad magic, an
//! unsupported version, truncated bodies, unknown tags, out-of-range
//! lengths — returns a typed [`WireError`], never panics and never
//! allocates more than the input could justify.

use crate::category::MsgCategory;
use crate::envelope::Envelope;
use dsm_model::SimTime;
use dsm_objspace::NodeId;
use std::fmt;

/// Magic number leading every frame: `"DSMW"` read as little-endian u32.
pub(crate) const WIRE_MAGIC: u32 = u32::from_le_bytes(*b"DSMW");

/// Wire-format version negotiated (trivially, by equality) at join time.
pub(crate) const WIRE_VERSION: u16 = 1;

/// Upper bound on a frame body; larger length prefixes are rejected before
/// any allocation so a corrupt or hostile peer cannot trigger a huge
/// allocation from four bytes.
pub(crate) const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// Size of the fixed per-frame header after the length prefix
/// (magic + version + kind).
pub(crate) const FRAME_HEADER_BYTES: usize = 4 + 2 + 1;

/// Size of the length prefix that leads every frame.
const FRAME_LEN_BYTES: usize = 4;

/// Size of everything in a frame that is not its kind-specific body.
const FRAME_PREFIX_BYTES: usize = FRAME_LEN_BYTES + FRAME_HEADER_BYTES;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Join handshake: sent once, immediately after connecting, on every
    /// per-link connection (`node`, `num_nodes`).
    Hello,
    /// One protocol envelope.
    Payload,
    /// Membership heartbeat (fabric-internal; not a protocol message and
    /// not recorded in the network statistics).
    Heartbeat,
    /// Orderly departure: the sender's server loop has drained and will
    /// send nothing further on this link.
    Leave,
}

impl FrameKind {
    /// The on-wire code of this kind.
    pub(crate) fn code(self) -> u8 {
        match self {
            FrameKind::Hello => 0,
            FrameKind::Payload => 1,
            FrameKind::Heartbeat => 2,
            FrameKind::Leave => 3,
        }
    }

    /// Decode an on-wire kind code.
    pub(crate) fn from_code(code: u8) -> Option<FrameKind> {
        match code {
            0 => Some(FrameKind::Hello),
            1 => Some(FrameKind::Payload),
            2 => Some(FrameKind::Heartbeat),
            3 => Some(FrameKind::Leave),
            _ => None,
        }
    }
}

/// A typed wire-decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before a fixed-size field or declared length.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that remained.
        remaining: usize,
    },
    /// The frame does not start with `WIRE_MAGIC` ("DSMW").
    BadMagic {
        /// The four bytes found instead.
        found: u32,
    },
    /// The frame's version field is not `WIRE_VERSION`.
    UnsupportedVersion {
        /// The version found.
        found: u16,
    },
    /// The frame kind code is not a known [`FrameKind`].
    UnknownFrameKind {
        /// The code found.
        code: u8,
    },
    /// A declared length exceeds `MAX_FRAME_BYTES` or the remaining input.
    Oversized {
        /// The declared length.
        len: u64,
    },
    /// An enum tag, boolean or option flag had no defined meaning.
    UnknownTag {
        /// What was being decoded.
        context: &'static str,
        /// The offending code.
        code: u8,
    },
    /// Fields decoded but violate a semantic invariant (e.g. diff runs out
    /// of bounds).
    Invalid {
        /// What was being decoded.
        context: &'static str,
    },
    /// The body decoded completely but bytes were left over.
    TrailingBytes {
        /// Number of undecoded bytes.
        count: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, remaining } => {
                write!(
                    f,
                    "truncated frame: needed {needed} bytes, {remaining} remain"
                )
            }
            WireError::BadMagic { found } => {
                write!(
                    f,
                    "bad frame magic {found:#010x} (expected {WIRE_MAGIC:#010x})"
                )
            }
            WireError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported wire version {found} (speaking {WIRE_VERSION})"
                )
            }
            WireError::UnknownFrameKind { code } => write!(f, "unknown frame kind {code}"),
            WireError::Oversized { len } => {
                write!(f, "declared length {len} exceeds limit or remaining input")
            }
            WireError::UnknownTag { context, code } => {
                write!(f, "unknown {context} tag {code}")
            }
            WireError::Invalid { context } => write!(f, "invalid {context}"),
            WireError::TrailingBytes { count } => {
                write!(f, "{count} trailing byte(s) after a complete body")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Little-endian byte-sink for encoding.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        WireWriter::default()
    }

    /// An empty writer with room for `capacity` bytes.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        WireWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern (little-endian u64), so
    /// round-trips are bit-exact including NaN payloads and signed zeros.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Append raw bytes (no length prefix — callers write their own).
    pub(crate) fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Append a u32 length prefix followed by the bytes.
    ///
    /// # Panics
    /// Panics if `v` is longer than `u32::MAX` bytes (nothing the protocol
    /// produces comes close; the object space caps objects at 4 GiB).
    pub fn len_bytes(&mut self, v: &[u8]) {
        self.u32(u32::try_from(v.len()).expect("wire blob longer than u32::MAX"));
        self.bytes(v);
    }

    /// The encoded bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian cursor for decoding; every accessor is bounds-checked and
/// returns [`WireError::Truncated`] instead of slicing out of range.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian u16.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    /// Read a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Read a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Read an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a bool byte; anything but 0/1 is a typed error (a corrupt bool
    /// must not silently collapse to `true`).
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            code => Err(WireError::UnknownTag {
                context: "bool",
                code,
            }),
        }
    }

    /// Read a u32 length prefix, validate it against the remaining input,
    /// and return that many bytes. The validation happens *before* any
    /// allocation, so a corrupt length cannot demand gigabytes.
    pub fn len_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(WireError::Oversized { len: len as u64 });
        }
        self.take(len)
    }

    /// Read a u32 element count for a collection whose elements occupy at
    /// least `min_element_bytes` each, rejecting counts the remaining input
    /// cannot possibly hold (the pre-allocation guard for `Vec` decoding).
    pub fn count(&mut self, min_element_bytes: usize) -> Result<usize, WireError> {
        let count = self.u32()? as usize;
        if count.saturating_mul(min_element_bytes.max(1)) > self.remaining() {
            return Err(WireError::Oversized { len: count as u64 });
        }
        Ok(count)
    }

    /// Assert the body was consumed exactly.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                count: self.remaining(),
            })
        }
    }
}

/// A binary codec for one protocol-message type. The framing layer is
/// generic over the payload; the concrete `ProtocolMsg` implementation
/// lives in `dsm-wire` (which depends on both this crate and `dsm-core`).
pub trait WireCodec<M> {
    /// Append the encoding of `msg`.
    fn encode(msg: &M, w: &mut WireWriter);
    /// Decode one message; must consume exactly the bytes `encode` wrote.
    fn decode(r: &mut WireReader<'_>) -> Result<M, WireError>;
}

/// Build a complete frame of `kind` in one buffer: reserve the length
/// prefix, write the header, let `body` append the kind-specific bytes in
/// place, then back-patch the length. `capacity` sizes the buffer up front
/// (a hint: the buffer still grows if the body turns out larger).
fn build_frame(kind: FrameKind, capacity: usize, body: impl FnOnce(&mut WireWriter)) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(capacity);
    w.u32(0);
    w.u32(WIRE_MAGIC);
    w.u16(WIRE_VERSION);
    w.u8(kind.code());
    body(&mut w);
    let mut frame = w.into_vec();
    let body_len = frame.len() - FRAME_LEN_BYTES;
    assert!(
        body_len <= MAX_FRAME_BYTES as usize,
        "frame body of {body_len} bytes exceeds MAX_FRAME_BYTES"
    );
    frame[..FRAME_LEN_BYTES].copy_from_slice(&(body_len as u32).to_le_bytes());
    frame
}

/// Frame `body` under `kind`: length prefix, magic, version, kind, body.
pub(crate) fn encode_frame(kind: FrameKind, body: &[u8]) -> Vec<u8> {
    build_frame(kind, FRAME_PREFIX_BYTES + body.len(), |w| w.bytes(body))
}

/// Decode a frame given everything *after* the length prefix; returns the
/// kind and the kind-specific body.
pub fn decode_frame(frame: &[u8]) -> Result<(FrameKind, &[u8]), WireError> {
    let mut r = WireReader::new(frame);
    let magic = r.u32()?;
    if magic != WIRE_MAGIC {
        return Err(WireError::BadMagic { found: magic });
    }
    let version = r.u16()?;
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion { found: version });
    }
    let code = r.u8()?;
    let kind = FrameKind::from_code(code).ok_or(WireError::UnknownFrameKind { code })?;
    let body = &frame[FRAME_HEADER_BYTES..];
    Ok((kind, body))
}

/// Size of the envelope header that leads a payload-frame body: `src`,
/// `dst`, category code, `wire_bytes`, `sent_at`, `arrival`.
const ENVELOPE_HEADER_BYTES: usize = 2 + 2 + 1 + 8 + 8 + 8;

/// Encode a full payload frame for `env` (length prefix included), straight
/// into the one buffer that is returned.
pub fn encode_envelope<M, C: WireCodec<M>>(env: &Envelope<M>) -> Vec<u8> {
    // The modeled message size tracks the encoded one closely enough to
    // size the buffer once for nearly every message.
    let modeled = env.wire_bytes.min(u64::from(MAX_FRAME_BYTES)) as usize;
    let capacity = FRAME_PREFIX_BYTES + ENVELOPE_HEADER_BYTES + modeled;
    build_frame(FrameKind::Payload, capacity, |w| {
        w.u16(env.src.0);
        w.u16(env.dst.0);
        w.u8(category_code(env.category));
        w.u64(env.wire_bytes);
        w.u64(env.sent_at.as_nanos());
        w.u64(env.arrival.as_nanos());
        C::encode(&env.payload, w);
    })
}

/// Decode a payload-frame body back into an envelope, checking that the
/// body is consumed exactly.
pub fn decode_envelope<M, C: WireCodec<M>>(body: &[u8]) -> Result<Envelope<M>, WireError> {
    let mut r = WireReader::new(body);
    let src = NodeId(r.u16()?);
    let dst = NodeId(r.u16()?);
    let category = category_from_code(r.u8()?)?;
    let wire_bytes = r.u64()?;
    let sent_at = SimTime::from_nanos(r.u64()?);
    let arrival = SimTime::from_nanos(r.u64()?);
    let payload = C::decode(&mut r)?;
    r.finish()?;
    Ok(Envelope {
        src,
        dst,
        category,
        wire_bytes,
        sent_at,
        arrival,
        payload,
    })
}

/// The join-handshake body sent on every per-link connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Hello {
    /// The connecting (sending) node.
    pub node: NodeId,
    /// The cluster size the sender was configured with; both sides must
    /// agree or the join is refused.
    pub num_nodes: u16,
    /// The sender's incarnation number. A restarted process presents a
    /// strictly greater incarnation than its previous life; the liveness
    /// tracker uses it to fence rejoins of peers already declared dead.
    pub incarnation: u32,
}

/// Encode a full hello frame (length prefix included).
pub(crate) fn encode_hello(hello: Hello) -> Vec<u8> {
    build_frame(FrameKind::Hello, FRAME_PREFIX_BYTES + 8, |w| {
        w.u16(hello.node.0);
        w.u16(hello.num_nodes);
        w.u32(hello.incarnation);
    })
}

/// Decode a hello-frame body.
pub(crate) fn decode_hello(body: &[u8]) -> Result<Hello, WireError> {
    let mut r = WireReader::new(body);
    let node = NodeId(r.u16()?);
    let num_nodes = r.u16()?;
    let incarnation = r.u32()?;
    r.finish()?;
    Ok(Hello {
        node,
        num_nodes,
        incarnation,
    })
}

/// Encode a bodyless control frame (heartbeat, leave).
pub(crate) fn encode_control(kind: FrameKind) -> Vec<u8> {
    encode_frame(kind, &[])
}

/// The stable on-wire code of a category (its index in
/// [`MsgCategory::ALL`]).
pub(crate) fn category_code(category: MsgCategory) -> u8 {
    MsgCategory::ALL
        .iter()
        .position(|c| *c == category)
        .expect("every category is in ALL") as u8
}

/// Decode a category code.
pub(crate) fn category_from_code(code: u8) -> Result<MsgCategory, WireError> {
    MsgCategory::ALL
        .get(code as usize)
        .copied()
        .ok_or(WireError::UnknownTag {
            context: "message category",
            code,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_round_trip_scalars() {
        let mut w = WireWriter::new();
        w.u8(7);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f64(-0.0);
        w.bool(true);
        w.len_bytes(b"abc");
        let bytes = w.into_vec();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.bool().unwrap());
        assert_eq!(r.len_bytes().unwrap(), b"abc");
        r.finish().unwrap();
    }

    #[test]
    fn reader_reports_truncation_not_panic() {
        let mut r = WireReader::new(&[1, 2]);
        assert!(matches!(
            r.u64(),
            Err(WireError::Truncated {
                needed: 8,
                remaining: 2
            })
        ));
        // The failed read consumed nothing.
        assert_eq!(r.u16().unwrap(), 0x0201);
    }

    #[test]
    fn corrupt_bool_and_oversized_length_are_typed_errors() {
        let mut r = WireReader::new(&[9]);
        assert!(matches!(
            r.bool(),
            Err(WireError::UnknownTag {
                context: "bool",
                ..
            })
        ));
        // Length prefix claims 1000 bytes with 1 remaining: rejected before
        // any allocation.
        let mut w = WireWriter::new();
        w.u32(1000);
        w.u8(0);
        let bytes = w.into_vec();
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            r.len_bytes(),
            Err(WireError::Oversized { len: 1000 })
        ));
    }

    #[test]
    fn frame_header_is_checked() {
        let frame = encode_frame(FrameKind::Heartbeat, &[]);
        // Strip the length prefix as the socket reader does.
        let after_len = &frame[4..];
        let (kind, body) = decode_frame(after_len).unwrap();
        assert_eq!(kind, FrameKind::Heartbeat);
        assert!(body.is_empty());

        let mut corrupt = after_len.to_vec();
        corrupt[0] ^= 0xFF;
        assert!(matches!(
            decode_frame(&corrupt),
            Err(WireError::BadMagic { .. })
        ));

        let mut wrong_version = after_len.to_vec();
        wrong_version[4] = 0xFE;
        assert!(matches!(
            decode_frame(&wrong_version),
            Err(WireError::UnsupportedVersion { .. })
        ));

        let mut wrong_kind = after_len.to_vec();
        wrong_kind[6] = 99;
        assert!(matches!(
            decode_frame(&wrong_kind),
            Err(WireError::UnknownFrameKind { code: 99 })
        ));
    }

    #[test]
    fn hello_round_trips() {
        let hello = Hello {
            node: NodeId(3),
            num_nodes: 8,
            incarnation: 5,
        };
        let frame = encode_hello(hello);
        let (kind, body) = decode_frame(&frame[4..]).unwrap();
        assert_eq!(kind, FrameKind::Hello);
        assert_eq!(decode_hello(body).unwrap(), hello);
    }

    #[test]
    fn category_codes_are_stable_and_total() {
        for (i, category) in MsgCategory::ALL.iter().enumerate() {
            assert_eq!(category_code(*category), i as u8);
            assert_eq!(category_from_code(i as u8).unwrap(), *category);
        }
        assert!(category_from_code(MsgCategory::ALL.len() as u8).is_err());
    }

    /// A toy codec so envelope framing can be tested without `dsm-core`.
    struct U64Codec;
    impl WireCodec<u64> for U64Codec {
        fn encode(msg: &u64, w: &mut WireWriter) {
            w.u64(*msg);
        }
        fn decode(r: &mut WireReader<'_>) -> Result<u64, WireError> {
            r.u64()
        }
    }

    #[test]
    fn envelope_round_trips_with_modeled_times() {
        let env = Envelope {
            src: NodeId(1),
            dst: NodeId(2),
            category: MsgCategory::Diff,
            wire_bytes: 321,
            sent_at: SimTime::from_nanos(17),
            arrival: SimTime::from_nanos(42_000),
            payload: 0xABCDu64,
        };
        let frame = encode_envelope::<u64, U64Codec>(&env);
        let (kind, body) = decode_frame(&frame[4..]).unwrap();
        assert_eq!(kind, FrameKind::Payload);
        let back = decode_envelope::<u64, U64Codec>(body).unwrap();
        assert_eq!(back, env);
        // Trailing garbage is rejected.
        let mut longer = body.to_vec();
        longer.push(0);
        assert!(matches!(
            decode_envelope::<u64, U64Codec>(&longer),
            Err(WireError::TrailingBytes { count: 1 })
        ));
    }
}

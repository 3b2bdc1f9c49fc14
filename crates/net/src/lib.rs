//! # dsm-net — the simulated cluster interconnect
//!
//! The paper's testbed is a 16-node PC cluster on a Fast-Ethernet switch.
//! This crate replaces the physical interconnect with an in-process message
//! fabric:
//!
//! * [`MsgCategory`] — every protocol message is tagged with the category the
//!   paper's evaluation breaks messages into (`obj`, `mig`, `diff`, `redir`,
//!   synchronization, ...).
//! * [`NetworkStats`] / [`StatsCollector`] — message counts and byte volumes
//!   per category and per node; these are the "number of messages" and
//!   "network traffic" series of Figures 3 and 5(b).
//! * [`Envelope`] — a message in flight, carrying virtual-time send and
//!   arrival stamps computed with the Hockney model from `dsm-model`.
//! * [`Fabric`] / [`Endpoint`] — a channel-based full mesh between
//!   node threads. Sending is non-blocking; each node's protocol server
//!   drains its endpoint. Endpoints carry a [`WakeHub`] so an event-driven
//!   server (the runtime's executor) can be notified of each enqueue via a
//!   [`WakeNotifier`] instead of polling. The fabric also offers a
//!   deterministic single-threaded [`Loopback`] used by protocol unit
//!   tests.
//! * [`SimFabric`] / [`SimEndpoint`] — the deterministic simulation fabric:
//!   a seeded virtual-time scheduler that owns delivery itself, applies
//!   pluggable [`LinkPerturbation`]s (latency jitter, bounded reordering,
//!   bursty delay spikes), optionally injects seeded *loss* (random drops,
//!   a [`PartitionSpec`] partition/heal cycle, a [`PauseSpec`] node crash
//!   window) and records a replayable [`DeliveryTrace`]. The runtime's sim
//!   mode drives it with event-driven wakeups — no polling.
//!
//! * [`TcpFabric`] / [`TcpEndpoint`] — a real multi-process transport over
//!   `std::net` TCP sockets on `127.0.0.1`, with join-time membership
//!   exchange, heartbeat liveness ([`membership`]) and the wire format
//!   below. Same sending surface, same modeled-time stamping.
//!
//! The fabrics are deliberately dumb: they move payloads, stamp virtual
//! times and count bytes. All protocol semantics live in `dsm-core`.
//!
//! # Wire format
//!
//! The TCP fabric speaks a hand-rolled, dependency-free binary format
//! defined in [`wire`]. Every frame is length-prefixed with an explicit
//! little-endian layout and a magic/version header:
//!
//! ```text
//! [ body_len u32 ][ magic u32 "DSMW" ][ version u16 ][ kind u8 ][ body ]
//! ```
//!
//! Frame kinds: `Hello` (join handshake: node id + cluster size),
//! `Payload` (one [`Envelope`]: src, dst, category code, modeled
//! `wire_bytes`, `sent_at`/`arrival` as u64 nanoseconds, then the protocol
//! message encoded by a [`wire::WireCodec`]), `Heartbeat` and `Leave`
//! (bodyless fabric-internal control frames). The modeled fields travel on
//! the wire so virtual-clock merging is bit-identical to the in-process
//! fabrics. This crate defines the *framing* and the codec trait; the
//! concrete codec for the protocol's message enum lives in `dsm-wire`,
//! which sits above both this crate and `dsm-core`. Decoding is total:
//! malformed frames produce typed [`wire::WireError`]s, never panics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod category;
pub mod envelope;
pub mod fabric;
pub mod loopback;
pub mod membership;
pub mod sim;
pub mod stats;
pub mod tcp;
pub mod wire;

pub use category::MsgCategory;
pub use envelope::{Envelope, MESSAGE_HEADER_BYTES};
pub use fabric::{Endpoint, Fabric, WakeHub, WakeNotifier};
pub use loopback::Loopback;
pub use membership::{LivenessTracker, MembershipReport, MembershipView, PeerLiveness, PeerStatus};
pub use sim::{
    BoundedReorder, DelayBursts, DeliveryRecord, DeliveryTrace, DropReason, DropRecord,
    LatencyJitter, LinkPerturbation, PartitionSpec, PauseSpec, SimConfig, SimEndpoint, SimFabric,
    SimStep,
};
pub use stats::{CategoryStats, NetworkStats, StatsCollector};
pub use tcp::{TcpConfig, TcpEndpoint, TcpFabric, TcpNodeBinding, WireCounters};
pub use wire::{WireCodec, WireError};

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
//!   per category; these are the "number of messages" and
//!   "network traffic" series of Figures 3 and 5(b).
//! * [`Envelope`] — a message in flight, carrying virtual-time send and
//!   arrival stamps computed with the Hockney model from `dsm-model`.
//! * [`Fabric`] / [`Endpoint`] — a channel-based full mesh between
//!   node threads. Sending is non-blocking; each node's protocol server
//!   drains its endpoint. Endpoints carry a wake hub so an event-driven
//!   server (the runtime's executor) can be notified of each enqueue via a
//!   [`WakeNotifier`] instead of polling.
//! * [`SimFabric`] / [`SimEndpoint`] — the deterministic simulation fabric:
//!   a seeded virtual-time scheduler that owns delivery itself, applies the
//!   seeded delay perturbations of a [`SimConfig`] (latency jitter, bounded
//!   reordering, bursty delay spikes), optionally injects seeded *loss* (random drops,
//!   a [`PartitionSpec`] partition/heal cycle, a [`PauseSpec`] node crash
//!   window) and records a replayable [`DeliveryTrace`]. The runtime's sim
//!   mode drives it with event-driven wakeups — no polling.
//!
//! * [`TcpFabric`] / [`TcpEndpoint`] — a real multi-process transport over
//!   `std::net` TCP sockets on `127.0.0.1`: per-link FIFO connections, a
//!   hello handshake at join time, an orderly leave at the end, and the
//!   wire format below. Same sending surface as the in-process fabric.
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
//! message encoded by a [`wire::WireCodec`]) and `Leave` (a bodyless
//! fabric-internal control frame). `Heartbeat` is a bodyless kind no
//! sender emits any more; receivers still decode and ignore it. The
//! modeled fields travel on the wire, but a receiver's clock merge still
//! depends on when frames arrive in real time, so modeled time on TCP is
//! not reproducible; only the sim fabric's is. This crate defines the
//! *framing* and the codec trait; the
//! concrete codec for the protocol's message enum lives in `dsm-wire`,
//! which sits above both this crate and `dsm-core`. Decoding is total:
//! malformed frames produce typed [`wire::WireError`]s, never panics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod category;
mod envelope;
mod fabric;
mod sim;
mod stats;
mod tcp;
pub mod wire;

pub use category::MsgCategory;
pub use envelope::{Envelope, MESSAGE_HEADER_BYTES};
pub use fabric::{Endpoint, Fabric, WakeNotifier};
pub use sim::{
    DeliveryRecord, DeliveryTrace, DropReason, DropRecord, PartitionSpec, PauseSpec, SimConfig,
    SimEndpoint, SimFabric, SimStep,
};
pub use stats::{NetworkStats, StatsCollector};
pub use tcp::{TcpConfig, TcpEndpoint, TcpFabric, TcpNodeBinding, WireCounters};

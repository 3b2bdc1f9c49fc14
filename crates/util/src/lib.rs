//! # dsm-util — dependency-free concurrency, RNG and id-map primitives
//!
//! The workspace builds in fully offline environments, so the small pieces
//! that would normally come from `parking_lot`, `crossbeam-channel`, `rand`,
//! `proptest` and `rustc-hash` live here instead:
//!
//! * [`Mutex`] — a poison-ignoring wrapper over `std::sync::Mutex` with the
//!   `parking_lot`-style infallible `lock()`.
//! * [`channel`] — multi-producer channels whose [`channel::Receiver`] is
//!   `Sync` (shareable between a node's application and server threads) and
//!   reports its queue depth.
//! * [`RwCell`] — a reference-counted read/write cell handing out *owned*
//!   guards; the substrate of the runtime's zero-copy object views.
//! * [`SmallRng`] — a deterministic SplitMix64 generator for workload
//!   generation and randomized property tests, and [`seed_corpus`] — the
//!   seeds every seeded suite runs (`DSM_SEEDS` overrides them).
//! * [`LatencyHistogram`] — a fixed-bucket log-linear histogram for
//!   wall-clock latency percentiles (the piece `hdrhistogram` would
//!   normally provide).
//! * [`IdMap`] and [`IdSet`] — std's `HashMap` and `HashSet` with
//!   [`IdHasher`], a multiply-rotate hasher for the protocol's own integer
//!   ids, in place of keyed SipHash. Every map of protocol state uses them:
//!   the engine's homes, cached copies, home beliefs, write sets and
//!   election book, the lock and barrier managers, the reply cache and
//!   diff-batch partials, the object registry, the policy overrides, the
//!   runtime's view and barrier-epoch tables and the sim fabric's links.
//!   The module documentation says why a fixed hasher is safe there.
//! * [`fnv`] and [`FNV_BASIS`] — the FNV-1a fold every result fingerprint
//!   (the applications', the conformance matrix's, the launchers') is
//!   built from.
//! * [`poll_readable`] and [`batch_scheduling`] — `poll(2)` over a set of
//!   sockets, and a thread class that does not preempt on wake-up, for the
//!   TCP fabric's readers (Unix only).

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod cell;
pub mod channel;
mod fnv;
mod histogram;
mod idmap;
#[cfg(unix)]
mod os;
mod rng;
pub mod sync;

pub use cell::{RwCell, RwReadGuard, RwWriteGuard};
pub use fnv::{fnv, FNV_BASIS};
pub use histogram::LatencyHistogram;
pub use idmap::{IdHasher, IdMap, IdSet};
#[cfg(unix)]
pub use os::{batch_scheduling, poll_readable};
pub use rng::{derived_seeds, parse_seed, parse_seed_list, seed_corpus, SmallRng};
pub use sync::{Mutex, MutexGuard};

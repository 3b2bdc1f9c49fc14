//! # dsm-util — dependency-free concurrency and RNG primitives
//!
//! The workspace builds in fully offline environments, so the small pieces
//! that would normally come from `parking_lot`, `crossbeam-channel`, `rand`
//! and `proptest` live here instead:
//!
//! * [`Mutex`] — a poison-ignoring wrapper over `std::sync::Mutex` with the
//!   `parking_lot`-style infallible `lock()`.
//! * [`channel`] — multi-producer channels whose [`channel::Receiver`] is
//!   `Sync` (shareable between a node's application and server threads) and
//!   reports its queue depth.
//! * [`RwCell`] — a reference-counted read/write cell handing out *owned*
//!   guards; the substrate of the runtime's zero-copy object views.
//! * [`SmallRng`] — a deterministic SplitMix64 generator for workload
//!   generation and randomized property tests.
//! * [`LatencyHistogram`] — a fixed-bucket log-linear histogram for
//!   wall-clock latency percentiles (the piece `hdrhistogram` would
//!   normally provide).

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod cell;
pub mod channel;
mod histogram;
mod rng;
pub mod sync;

pub use cell::{RwCell, RwReadGuard, RwWriteGuard};
pub use histogram::LatencyHistogram;
pub use rng::{parse_seed, SmallRng};
pub use sync::{Mutex, MutexGuard};

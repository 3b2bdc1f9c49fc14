//! # dsm-objspace — the shared object space substrate
//!
//! The paper's Global Object Space (GOS) virtualizes a single Java object
//! heap across the cluster: every shared Java object is a coherence unit of
//! the home-based protocol. This crate provides the object-level building
//! blocks that the protocol engine (`dsm-core`) and runtime (`dsm-runtime`)
//! are built on:
//!
//! * [`ObjectId`], [`NodeId`], [`LockId`], [`BarrierId`] — identities.
//! * [`ObjectData`] — the payload of one coherence unit, stored 8-byte
//!   aligned so it can be viewed both as raw bytes (twins, diffs, wire
//!   protocol) and **in place** as typed element slices ([`Element`]) — the
//!   substrate of the runtime's zero-copy `ReadView`/`WriteView` guards.
//! * [`ObjectStore`] — a shared, lockable handle to one copy's payload; the
//!   engine leases stores to the runtime so application views can borrow
//!   payload storage without pinning the engine itself.
//! * [`DsmError`] / [`DsmResult`] — the typed error taxonomy of the
//!   fallible application surface (`try_view`, `try_acquire`, ...).
//! * [`Twin`] and [`Diff`] — the multiple-writer machinery: a twin is the
//!   pristine copy made before the first local write in an interval; a diff
//!   is the word-granularity delta between the current copy and the twin,
//!   propagated to the home at release time (HLRC). A diff is stored flat —
//!   one payload buffer plus one `(offset, len)` run table, so its cost in
//!   allocations does not grow with its run count — and a run never carries
//!   a word its writer left alone, which is what lets concurrent writers of
//!   one object flush in any order (see [`diff`]).
//! * [`AccessState`] — the explicit access-state machine that replaces the
//!   paper's virtual-memory/page-fault trapping: caches and home copies move
//!   between `Invalid`, `ReadOnly` and `ReadWrite`, and every upgrade is
//!   observable by the protocol (home reads, home writes, remote faults).
//! * [`HomeAssignment`] / [`ObjectDescriptor`] — deterministic initial home
//!   placement (creation node by default, round-robin for large array
//!   objects, exactly as in the paper's §5).
//!
//! The only `unsafe` in the crate lives in the private `raw` module backing
//! [`ObjectData`]'s zero-copy views; see its documentation for the safety
//! argument.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod data;
pub mod diff;
pub mod element;
pub mod error;
pub mod home;
pub mod id;
mod raw;
pub mod registry;
pub mod twin;
pub mod version;

pub use access::AccessState;
pub use data::ObjectData;
pub use diff::Diff;
pub use element::Element;
pub use error::{DsmError, DsmResult};
pub use home::{HomeAssignment, ObjectDescriptor};
pub use id::{BarrierId, LockId, NodeId, ObjectId};
pub use registry::ObjectRegistry;
pub use twin::Twin;
pub use version::Version;

use dsm_util::RwCell;
use std::sync::Arc;

/// A shared, lockable handle to one copy's payload.
///
/// The protocol engine keeps every home and cached copy behind one of
/// these; it hands clones to the runtime as *leases*, so a `ReadView`/
/// `WriteView` can hold the payload lock across application code while the
/// engine's own mutex stays free for the protocol server thread.
pub type ObjectStore = Arc<RwCell<ObjectData>>;

/// Wrap a payload in a fresh [`ObjectStore`].
pub fn new_store(data: ObjectData) -> ObjectStore {
    Arc::new(RwCell::new(data))
}

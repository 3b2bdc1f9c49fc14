//! Zero-copy scoped views over shared objects.
//!
//! A [`ReadView`]/[`WriteView`] is the application's window onto one
//! coherence unit: it borrows the engine's object storage *in place* as
//! `&[T]` / `&mut [T]` (via `Deref`), so accesses at the home node touch
//! the home copy directly — no decode into a `Vec<T>`, no encode back.
//!
//! Lifecycle: constructing a view runs the access plan (faulting the object
//! in and, for writes, capturing the twin) and then takes a lease on the
//! object's payload store. Dropping the view releases the lease and
//! unregisters it from the [`NodeCtx`]'s conflict table; for a
//! [`WriteView`] the twin captured at plan time makes the diff bookkeeping
//! automatic — the delta is computed against the twin at the next release,
//! so one write view produces at most one diff per interval no matter how
//! many elements it touched.
//!
//! Views are intentionally scoped *inside* a consistency interval:
//! synchronization operations (`acquire`, `release`, `barrier`) refuse to
//! run while views are live (see
//! [`DsmError::ViewsOutstanding`](dsm_objspace::DsmError)), because the
//! release must flush a complete set of writes, and because a held payload
//! lease would otherwise stall the protocol server while the application
//! blocks on the network. For the same reason, an access that needs a
//! *remote fault-in* is refused while any write view is live
//! ([`DsmError::FetchWithLiveWrites`](dsm_objspace::DsmError)) — take read
//! views freely in any order, but take write views last, after the objects
//! they depend on are resident.

use crate::ctx::NodeCtx;
use dsm_objspace::{Element, ObjectData, ObjectId};
use dsm_util::{RwReadGuard, RwWriteGuard};
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};

/// Trailing drop signal of a view: declared *after* the payload guard, so
/// its `Drop` runs once the lease has truly been released (struct fields
/// drop in declaration order, after the view's own `Drop` body). This is
/// the point where the executor's Busy-deferral re-arm may fire — firing
/// it any earlier (e.g. from the views' `Drop` bodies) would let a server
/// retry race a lease that is still held.
struct LeaseReleaseSignal<'ctx> {
    ctx: &'ctx NodeCtx,
}

impl Drop for LeaseReleaseSignal<'_> {
    fn drop(&mut self) {
        self.ctx.lease_released();
    }
}

/// A shared, read-only view of one object's elements, borrowed directly
/// from the engine's storage.
pub struct ReadView<'ctx, T: Element> {
    ctx: &'ctx NodeCtx,
    obj: ObjectId,
    guard: RwReadGuard<ObjectData>,
    // Declared after `guard`: drops after the lease is released.
    _rearm: LeaseReleaseSignal<'ctx>,
    _marker: PhantomData<fn() -> T>,
}

impl<'ctx, T: Element> ReadView<'ctx, T> {
    pub(crate) fn new(ctx: &'ctx NodeCtx, obj: ObjectId, guard: RwReadGuard<ObjectData>) -> Self {
        ReadView {
            ctx,
            obj,
            guard,
            _rearm: LeaseReleaseSignal { ctx },
            _marker: PhantomData,
        }
    }

    /// The elements, borrowed from engine storage.
    pub(crate) fn as_slice(&self) -> &[T] {
        self.guard.as_slice()
    }
}

impl<T: Element> Deref for ReadView<'_, T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Element> Drop for ReadView<'_, T> {
    fn drop(&mut self) {
        self.ctx.release_view(self.obj, false);
    }
}

impl<T: Element> std::fmt::Debug for ReadView<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadView")
            .field("obj", &self.obj)
            .field("len", &self.as_slice().len())
            .finish()
    }
}

/// An exclusive, writable view of one object's elements, borrowed directly
/// from the engine's storage. Writes become part of the current interval's
/// diff when the view drops (twin captured at construction time).
pub struct WriteView<'ctx, T: Element> {
    ctx: &'ctx NodeCtx,
    obj: ObjectId,
    guard: RwWriteGuard<ObjectData>,
    // Declared after `guard`: drops after the lease is released.
    _rearm: LeaseReleaseSignal<'ctx>,
    _marker: PhantomData<fn() -> T>,
}

impl<'ctx, T: Element> WriteView<'ctx, T> {
    pub(crate) fn new(ctx: &'ctx NodeCtx, obj: ObjectId, guard: RwWriteGuard<ObjectData>) -> Self {
        WriteView {
            ctx,
            obj,
            guard,
            _rearm: LeaseReleaseSignal { ctx },
            _marker: PhantomData,
        }
    }

    /// The elements, borrowed from engine storage.
    pub(crate) fn as_slice(&self) -> &[T] {
        self.guard.as_slice()
    }

    /// The elements, mutably borrowed from engine storage.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [T] {
        self.guard.as_mut_slice()
    }
}

impl<T: Element> Deref for WriteView<'_, T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Element> DerefMut for WriteView<'_, T> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Element> Drop for WriteView<'_, T> {
    fn drop(&mut self) {
        self.ctx.release_view(self.obj, true);
    }
}

impl<T: Element> std::fmt::Debug for WriteView<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WriteView")
            .field("obj", &self.obj)
            .field("len", &self.as_slice().len())
            .finish()
    }
}

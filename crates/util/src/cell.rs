//! A reference-counted read/write cell with *owned* guards.
//!
//! `std::sync::RwLock` guards borrow the lock, which makes it impossible to
//! return a guard together with the `Arc` that keeps the data alive — the
//! exact shape the runtime's object views need (the engine hands out an
//! `Arc<RwCell<ObjectData>>` lease; the view holds the read or write guard
//! across application code without pinning the engine's own mutex).
//! [`RwCell`] implements that shape directly: guards own a clone of the
//! `Arc`, so they are self-contained values with no borrowed lifetime.
//!
//! Writers are exclusive; readers are shared. Acquisition spins with
//! `thread::yield_now`, which is appropriate here because every critical
//! section in the workspace is short (copying an object payload or applying
//! a diff) — long holders (application views) only ever face `try_*`
//! acquirers on the protocol-server side, which defer instead of spinning.
//!
//! This module, the `os` module beside it and `dsm-objspace`'s `raw`
//! module are the only places in the workspace that use `unsafe`; the
//! invariants are spelled out inline.

#![allow(unsafe_code)]

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Writer bit of the state word; the remaining bits count active readers.
const WRITER: u32 = 1 << 31;

/// A shareable cell guarded by a reader/writer spin state.
#[derive(Debug)]
pub struct RwCell<T> {
    state: AtomicU32,
    value: UnsafeCell<T>,
}

// SAFETY: access to `value` is mediated by the reader/writer state machine
// below — at most one `RwWriteGuard` exists at a time and never concurrently
// with an `RwReadGuard` — so sharing the cell between threads is sound
// whenever sharing the value itself is.
unsafe impl<T: Send + Sync> Sync for RwCell<T> {}
unsafe impl<T: Send> Send for RwCell<T> {}

impl<T> RwCell<T> {
    /// Create a cell holding `value`, ready to be wrapped in an [`Arc`].
    pub fn new(value: T) -> Self {
        RwCell {
            state: AtomicU32::new(0),
            value: UnsafeCell::new(value),
        }
    }

    /// Try to acquire a shared read guard; `None` while a writer is active.
    pub fn try_read(self: &Arc<Self>) -> Option<RwReadGuard<T>> {
        let mut current = self.state.load(Ordering::Relaxed);
        loop {
            if current & WRITER != 0 {
                return None;
            }
            match self.state.compare_exchange_weak(
                current,
                current + 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    return Some(RwReadGuard {
                        cell: Arc::clone(self),
                    })
                }
                Err(observed) => current = observed,
            }
        }
    }

    /// Acquire a shared read guard, spinning while a writer is active.
    pub fn read(self: &Arc<Self>) -> RwReadGuard<T> {
        loop {
            if let Some(guard) = self.try_read() {
                return guard;
            }
            std::thread::yield_now();
        }
    }

    /// Try to acquire the exclusive write guard; `None` while any reader or
    /// writer is active.
    pub fn try_write(self: &Arc<Self>) -> Option<RwWriteGuard<T>> {
        match self
            .state
            .compare_exchange(0, WRITER, Ordering::Acquire, Ordering::Relaxed)
        {
            Ok(_) => Some(RwWriteGuard {
                cell: Arc::clone(self),
            }),
            Err(_) => None,
        }
    }

    /// Acquire the exclusive write guard, spinning while the cell is busy.
    pub fn write(self: &Arc<Self>) -> RwWriteGuard<T> {
        loop {
            if let Some(guard) = self.try_write() {
                return guard;
            }
            std::thread::yield_now();
        }
    }
}

/// Owned shared guard over an [`RwCell`].
#[derive(Debug)]
pub struct RwReadGuard<T> {
    cell: Arc<RwCell<T>>,
}

impl<T> Deref for RwReadGuard<T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: constructing the guard incremented the reader count, so no
        // write guard exists (and none can be created) until this guard
        // drops; shared access is therefore valid for the guard's lifetime.
        unsafe { &*self.cell.value.get() }
    }
}

impl<T> Drop for RwReadGuard<T> {
    fn drop(&mut self) {
        self.cell.state.fetch_sub(1, Ordering::Release);
    }
}

/// Owned exclusive guard over an [`RwCell`].
#[derive(Debug)]
pub struct RwWriteGuard<T> {
    cell: Arc<RwCell<T>>,
}

impl<T> Deref for RwWriteGuard<T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the writer bit is set, so this guard is the only accessor.
        unsafe { &*self.cell.value.get() }
    }
}

impl<T> DerefMut for RwWriteGuard<T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the writer bit is set, so this guard is the only accessor,
        // and `&mut self` ensures no outstanding `Deref` borrow aliases it.
        unsafe { &mut *self.cell.value.get() }
    }
}

impl<T> Drop for RwWriteGuard<T> {
    fn drop(&mut self) {
        self.cell.state.store(0, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_guards_are_shared() {
        let cell = Arc::new(RwCell::new(7u32));
        let a = cell.read();
        let b = cell.read();
        assert_eq!(*a + *b, 14);
        assert!(cell.try_write().is_none(), "readers block writers");
        drop(a);
        assert!(cell.try_write().is_none());
        drop(b);
        assert!(cell.try_write().is_some());
    }

    #[test]
    fn write_guard_is_exclusive() {
        let cell = Arc::new(RwCell::new(0u32));
        let mut w = cell.write();
        *w = 5;
        assert!(cell.try_read().is_none(), "writer blocks readers");
        assert!(cell.try_write().is_none(), "writer blocks writers");
        drop(w);
        assert_eq!(*cell.read(), 5);
    }

    #[test]
    fn guards_keep_the_cell_alive() {
        let cell = Arc::new(RwCell::new(String::from("alive")));
        let guard = cell.read();
        drop(cell);
        assert_eq!(&*guard, "alive");
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        let cell = Arc::new(RwCell::new(0u64));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        *cell.write() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*cell.read(), 4000);
    }
}

//! The typed error taxonomy of the GOS application surface.
//!
//! Protocol *misuse* — looking up an object that was never registered,
//! constructing a handle whose length disagrees with the registry, taking
//! overlapping mutable views, synchronizing while views are live — is
//! recoverable application error, not a runtime invariant violation, so the
//! fallible runtime API (`try_view`, `try_view_mut`, `try_acquire`, ...)
//! reports it as a [`DsmError`] instead of panicking a node thread. The
//! panicking conveniences (`view`, `acquire`, ...) are thin wrappers that
//! unwrap these same errors with a readable message.

use crate::id::ObjectId;
use std::fmt;

/// Result alias for the fallible GOS surface.
pub type DsmResult<T> = Result<T, DsmError>;

/// A recoverable application-facing error of the GOS runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DsmError {
    /// The object id is not present in the registry — typically a handle
    /// `lookup` for a name/index that no node registered.
    UnknownObject {
        /// The unknown id.
        obj: ObjectId,
    },
    /// A handle's element count disagrees with the registered payload size —
    /// decoding through it would corrupt element boundaries.
    SizeMismatch {
        /// The object.
        obj: ObjectId,
        /// Payload size recorded in the registry, in bytes.
        registered_bytes: usize,
        /// Payload size implied by the handle, in bytes.
        handle_bytes: usize,
    },
    /// A mutable view overlaps an existing view of the same object in the
    /// same critical section (or a shared view overlaps a mutable one).
    ViewConflict {
        /// The object with a live conflicting view.
        obj: ObjectId,
    },
    /// A synchronization operation (acquire, release, barrier) was invoked
    /// while object views were still live; views must be dropped first so
    /// the interval's writes are complete when the release flushes them.
    ViewsOutstanding {
        /// Number of live views at the time of the call.
        count: usize,
    },
    /// An access needed a remote fault-in while write views were live in
    /// this context. Blocking on the network with a write lease held could
    /// deadlock two nodes through mutual server deferral (each server
    /// defers the other's request behind the local write view), so the
    /// fetch is refused up front; fault the object in (or take the write
    /// view) before taking write views of other objects.
    FetchWithLiveWrites {
        /// The object that would have required a remote fault-in.
        obj: ObjectId,
        /// Number of live write views at the time of the call.
        writers: usize,
    },
}

impl fmt::Display for DsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DsmError::UnknownObject { obj } => {
                write!(f, "object {obj} is not registered")
            }
            DsmError::SizeMismatch {
                obj,
                registered_bytes,
                handle_bytes,
            } => write!(
                f,
                "handle for {obj} implies {handle_bytes} bytes but the registry \
                 records {registered_bytes} bytes"
            ),
            DsmError::ViewConflict { obj } => {
                write!(f, "conflicting live view of {obj} in this critical section")
            }
            DsmError::ViewsOutstanding { count } => write!(
                f,
                "synchronization with {count} live object view(s); drop views before \
                 acquire/release/barrier"
            ),
            DsmError::FetchWithLiveWrites { obj, writers } => write!(
                f,
                "fault-in of {obj} refused: {writers} write view(s) are live; fetch \
                 objects before taking write views"
            ),
        }
    }
}

impl std::error::Error for DsmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_actionable() {
        let obj = ObjectId::derive("e", 0);
        assert!(DsmError::UnknownObject { obj }
            .to_string()
            .contains("not registered"));
        let e = DsmError::SizeMismatch {
            obj,
            registered_bytes: 64,
            handle_bytes: 32,
        };
        assert!(e.to_string().contains("32"));
        assert!(e.to_string().contains("64"));
        assert!(DsmError::ViewConflict { obj }.to_string().contains("view"));
        assert!(DsmError::ViewsOutstanding { count: 2 }
            .to_string()
            .contains('2'));
    }

    #[test]
    fn errors_are_comparable_and_cloneable() {
        let obj = ObjectId::derive("e", 1);
        let e = DsmError::ViewConflict { obj };
        assert_eq!(e.clone(), e);
        let boxed: Box<dyn std::error::Error> = Box::new(e);
        assert!(boxed.to_string().contains("view"));
    }
}

//! Helpers for returning application results out of a cluster run.
//!
//! The application closure runs on every node; results computed on the
//! master (or gathered through the DSM itself) are published into an
//! [`AppRun`] so the caller gets both the domain result and the execution
//! report.

use dsm_runtime::ExecutionReport;
use dsm_util::Mutex;
use std::sync::Arc;

/// A cluster run's outcome: the application-level result plus the runtime's
/// execution report.
#[derive(Debug, Clone)]
pub struct AppRun<T> {
    /// The application result (whatever the master published).
    pub result: T,
    /// The runtime execution report (virtual time, messages, migrations).
    pub report: ExecutionReport,
}

/// A one-shot, thread-safe slot the master node publishes its result into.
#[derive(Debug, Default, Clone)]
pub(crate) struct ResultSlot<T> {
    inner: Arc<Mutex<Option<T>>>,
}

impl<T> ResultSlot<T> {
    /// Create an empty slot.
    pub(crate) fn new() -> Self {
        ResultSlot {
            inner: Arc::new(Mutex::new(None)),
        }
    }

    /// Publish the result (typically called by the master node only).
    ///
    /// # Panics
    /// Panics if a result has already been published — two nodes publishing
    /// indicates an application bug.
    pub(crate) fn publish(&self, value: T) {
        let mut slot = self.inner.lock();
        assert!(slot.is_none(), "application result published twice");
        *slot = Some(value);
    }

    /// Take the published result.
    ///
    /// # Panics
    /// Panics if no result was published.
    pub(crate) fn take(&self) -> T {
        self.inner
            .lock()
            .take()
            .expect("application finished without publishing a result")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_then_take() {
        let slot = ResultSlot::new();
        slot.publish(42u32);
        assert_eq!(slot.take(), 42);
    }

    #[test]
    #[should_panic(expected = "published twice")]
    fn double_publish_panics() {
        let slot = ResultSlot::new();
        slot.publish(1u32);
        slot.publish(2u32);
    }

    #[test]
    #[should_panic(expected = "without publishing")]
    fn take_without_publish_panics() {
        let slot: ResultSlot<u32> = ResultSlot::new();
        let _ = slot.take();
    }
}

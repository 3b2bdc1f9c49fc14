//! Per-node virtual clocks.
//!
//! Each simulated node has one logical clock shared by its application
//! thread and its protocol server (the paper's nodes are single-CPU
//! machines where protocol handling and computation share the processor).
//! The clock advances by:
//!
//! * computation charged by the application through the compute model,
//! * protocol handling costs charged by the server,
//! * message arrival stamps: when a message (or a blocking reply) arrives,
//!   the clock jumps forward to the arrival time if that is later than the
//!   local clock — this is how communication latency and lock waiting time
//!   become part of the virtual execution time.

use dsm_model::{SimDuration, SimTime};
use dsm_util::Mutex;

/// A monotone virtual clock. Its node's application thread and protocol
/// server share it through the node's shared state.
#[derive(Debug, Default)]
pub(crate) struct VirtualClock {
    inner: Mutex<SimTime>,
}

impl VirtualClock {
    /// A clock starting at virtual time zero.
    pub(crate) fn new() -> Self {
        VirtualClock::default()
    }

    /// Current virtual time.
    pub(crate) fn now(&self) -> SimTime {
        *self.inner.lock()
    }

    /// Advance the clock by `d` and return the new time.
    pub(crate) fn advance(&self, d: SimDuration) -> SimTime {
        let mut t = self.inner.lock();
        *t += d;
        *t
    }

    /// Move the clock forward to `instant` if it is later than the current
    /// time (never backwards), then charge a handling cost `d`. Returns the
    /// resulting time.
    pub(crate) fn merge_and_advance(&self, instant: SimTime, d: SimDuration) -> SimTime {
        let mut t = self.inner.lock();
        *t = t.max(instant) + d;
        *t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_advances() {
        let c = VirtualClock::new();
        assert_eq!(c.now(), SimTime::ZERO);
        c.advance(SimDuration::from_micros(5.0));
        assert_eq!(c.now(), SimTime::from_micros(5.0));
    }

    #[test]
    fn merge_never_goes_backwards() {
        let c = VirtualClock::new();
        c.advance(SimDuration::from_micros(100.0));
        c.merge_and_advance(SimTime::from_micros(40.0), SimDuration::ZERO);
        assert_eq!(c.now(), SimTime::from_micros(100.0));
        c.merge_and_advance(SimTime::from_micros(250.0), SimDuration::ZERO);
        assert_eq!(c.now(), SimTime::from_micros(250.0));
    }

    #[test]
    fn merge_and_advance_combines_both() {
        let c = VirtualClock::new();
        c.merge_and_advance(SimTime::from_micros(10.0), SimDuration::from_micros(2.0));
        assert_eq!(c.now(), SimTime::from_micros(12.0));
        // Arrival earlier than the clock: only the handling cost applies.
        c.merge_and_advance(SimTime::from_micros(5.0), SimDuration::from_micros(3.0));
        assert_eq!(c.now(), SimTime::from_micros(15.0));
    }
}

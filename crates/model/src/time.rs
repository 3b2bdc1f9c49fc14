//! Virtual time.
//!
//! The runtime keeps one logical clock per simulated cluster node. Clocks are
//! expressed in integer nanoseconds so that virtual-time arithmetic is exact
//! and reproducible; helper constructors/accessors convert to and from the
//! microsecond/millisecond/second units that the paper's figures use.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in virtual time, measured in nanoseconds since the start of the
/// experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, measured in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of virtual time.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Construct from microseconds (the unit of the Hockney model).
    pub fn from_micros(micros: f64) -> Self {
        SimTime((micros * 1_000.0).round().max(0.0) as u64)
    }

    /// Raw nanoseconds since the experiment origin.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since the experiment origin.
    pub fn as_micros(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Milliseconds since the experiment origin.
    pub(crate) fn as_millis(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Elapsed duration since `earlier`, saturating to zero if `earlier` is
    /// in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from raw nanoseconds.
    pub(crate) const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Construct from microseconds.
    pub fn from_micros(micros: f64) -> Self {
        SimDuration((micros * 1_000.0).round().max(0.0) as u64)
    }

    /// Construct from milliseconds.
    pub fn from_millis(millis: f64) -> Self {
        SimDuration((millis * 1_000_000.0).round().max(0.0) as u64)
    }

    /// Microseconds.
    pub fn as_micros(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Milliseconds.
    pub fn as_millis(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Seconds.
    pub(crate) fn as_secs(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration((self.0 as f64 * rhs).round().max(0.0) as u64)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs.max(1))
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis())
        } else {
            write!(f, "{:.3}us", self.as_micros())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_origin() {
        assert_eq!(SimTime::ZERO.as_nanos(), 0);
        assert_eq!(SimDuration::ZERO, SimDuration::from_nanos(0));
    }

    #[test]
    fn micros_roundtrip() {
        let t = SimTime::from_micros(12.5);
        assert_eq!(t.as_nanos(), 12_500);
        assert!((t.as_micros() - 12.5).abs() < 1e-9);
    }

    #[test]
    fn add_duration_to_time() {
        let t = SimTime::from_micros(10.0) + SimDuration::from_micros(5.0);
        assert_eq!(t.as_nanos(), 15_000);
    }

    #[test]
    fn time_difference_saturates() {
        let a = SimTime::from_nanos(100);
        let b = SimTime::from_nanos(250);
        assert_eq!(b - a, SimDuration::from_nanos(150));
        assert_eq!(a - b, SimDuration::ZERO);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn max_picks_later_instant() {
        let a = SimTime::from_nanos(100);
        let b = SimTime::from_nanos(250);
        assert_eq!(a.max(b), b);
        assert_eq!(b.max(a), b);
    }

    #[test]
    fn duration_arithmetic() {
        let d = SimDuration::from_micros(3.0);
        assert_eq!((d * 4).as_micros(), 12.0);
        assert_eq!(d * 2.5, SimDuration::from_nanos(7_500));
        assert_eq!((d / 3).as_micros(), 1.0);
        let total: SimDuration = vec![d, d, d].into_iter().sum();
        assert_eq!(total.as_micros(), 9.0);
    }

    #[test]
    fn unit_conversions() {
        let d = SimDuration::from_millis(1500.0);
        assert!((d.as_millis() - 1500.0).abs() < 1e-9);
        assert!((d.as_micros() - 1_500_000.0).abs() < 1e-9);
        let d2 = SimDuration::from_millis(2.0);
        assert_eq!(d2, SimDuration::from_nanos(2_000_000));
    }

    #[test]
    fn negative_float_clamps_to_zero() {
        assert_eq!(SimDuration::from_micros(-5.0), SimDuration::ZERO);
        assert_eq!(SimTime::from_micros(-5.0).as_nanos(), 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_micros(5.0)), "5.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(5.0)), "5.000ms");
        assert_eq!(format!("{}", SimDuration::from_millis(5000.0)), "5.000s");
    }

    #[test]
    fn ordering_is_by_instant() {
        let a = SimTime::from_nanos(1);
        let b = SimTime::from_nanos(2);
        assert!(a < b);
        assert!(SimDuration::from_nanos(1) < SimDuration::from_nanos(2));
    }
}

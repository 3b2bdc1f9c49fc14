//! Object versions.
//!
//! The home copy of each object carries a monotonically increasing version,
//! bumped every time a diff (or a home write interval) is applied. Cached
//! copies remember the version they were derived from; write notices carry
//! `(object, version)` pairs so acquirers can invalidate exactly the cached
//! copies that are stale — the write-notice mechanism of LRC, simplified to a
//! single counter per object because all writes funnel through the home
//! (home-based protocol).

use std::fmt;

/// A monotonically increasing per-object version number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Version(pub u64);

impl Version {
    /// The version of a freshly allocated object.
    pub const INITIAL: Version = Version(0);

    /// The next version (after one more write interval reaches the home).
    #[must_use]
    pub fn next(self) -> Version {
        Version(self.0 + 1)
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_is_zero() {
        assert_eq!(Version::INITIAL, Version(0));
    }

    #[test]
    fn next_increments() {
        assert_eq!(Version(3).next(), Version(4));
        assert_eq!(Version::INITIAL.next().next(), Version(2));
    }

    #[test]
    fn staleness() {
        // A cached copy is stale exactly when its version is older than the
        // one a write notice announces.
        assert!(Version(1) < Version(2));
        assert!(Version(2) >= Version(2));
        assert!(Version(3) >= Version(2));
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Version(7)), "v7");
    }
}

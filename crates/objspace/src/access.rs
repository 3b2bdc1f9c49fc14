//! Explicit per-copy access states.
//!
//! The paper traps home and non-home accesses through the virtual-memory
//! protection of the underlying JVM ("the access state of the home copy will
//! be set to invalid on acquiring a lock and to read-only on releasing a
//! lock", §3.3). We model the same three states explicitly; the protocol
//! engine consults and updates them on every application read/write and on
//! every synchronization operation, which yields exactly the same observable
//! events (home read faults, home write faults, remote fetches) without any
//! signal handling.

/// Access state of one local copy (home or cached) of an object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessState {
    /// The copy may be stale (or is only a placeholder): any access faults.
    /// For a home copy this state is used purely to *trap and record* the
    /// first access of an interval — the data itself is always valid at home.
    Invalid,
    /// Reads hit locally; the first write of an interval faults (so a twin
    /// can be created and the write recorded).
    ReadOnly,
    /// Reads and writes both hit locally.
    ReadWrite,
}

impl AccessState {
    /// Does a read in this state require protocol action?
    pub fn read_faults(self) -> bool {
        matches!(self, AccessState::Invalid)
    }

    /// Does a write in this state require protocol action?
    pub fn write_faults(self) -> bool {
        !matches!(self, AccessState::ReadWrite)
    }

    /// State after a read has been served.
    pub fn after_read(self) -> AccessState {
        match self {
            AccessState::Invalid => AccessState::ReadOnly,
            other => other,
        }
    }

    /// State after a write has been served.
    pub fn after_write(self) -> AccessState {
        AccessState::ReadWrite
    }

    /// State after the enclosing interval ends with a release: write
    /// permission is dropped so the next interval's first write is trapped
    /// again.
    pub fn after_release(self) -> AccessState {
        match self {
            AccessState::Invalid => AccessState::Invalid,
            _ => AccessState::ReadOnly,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_predicates() {
        assert!(AccessState::Invalid.read_faults());
        assert!(!AccessState::ReadOnly.read_faults());
        assert!(!AccessState::ReadWrite.read_faults());
        assert!(AccessState::Invalid.write_faults());
        assert!(AccessState::ReadOnly.write_faults());
        assert!(!AccessState::ReadWrite.write_faults());
    }

    #[test]
    fn read_upgrades_invalid_to_read_only() {
        assert_eq!(AccessState::Invalid.after_read(), AccessState::ReadOnly);
        assert_eq!(AccessState::ReadOnly.after_read(), AccessState::ReadOnly);
        assert_eq!(AccessState::ReadWrite.after_read(), AccessState::ReadWrite);
    }

    #[test]
    fn write_always_leads_to_read_write() {
        for s in [
            AccessState::Invalid,
            AccessState::ReadOnly,
            AccessState::ReadWrite,
        ] {
            assert_eq!(s.after_write(), AccessState::ReadWrite);
        }
    }

    #[test]
    fn release_demotes_write_permission() {
        assert_eq!(
            AccessState::ReadWrite.after_release(),
            AccessState::ReadOnly
        );
        assert_eq!(AccessState::ReadOnly.after_release(), AccessState::ReadOnly);
        assert_eq!(AccessState::Invalid.after_release(), AccessState::Invalid);
    }

    #[test]
    fn full_interval_cycle() {
        // acquire (a write notice invalidates the copy) -> read (fault) ->
        // write (fault) -> release.
        let mut s = AccessState::Invalid;
        assert!(s.read_faults());
        s = s.after_read();
        assert!(s.write_faults());
        s = s.after_write();
        assert!(!s.write_faults());
        s = s.after_release();
        assert_eq!(s, AccessState::ReadOnly);
    }
}

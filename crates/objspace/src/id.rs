//! Identities used throughout the DSM: cluster nodes, shared objects,
//! distributed locks and barriers.
//!
//! Object identifiers are derived deterministically from a (name, index)
//! pair so that every node of the cluster computes the same `ObjectId` for
//! the same logical object without any allocation protocol — the analogue of
//! all JVM nodes resolving the same static field or array element.

use std::fmt;

/// A cluster node (one "processor" in the paper's figures).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u16);

impl NodeId {
    /// The node on which the application is started; in the paper this node
    /// creates the initial objects and hosts distributed synchronization.
    pub const MASTER: NodeId = NodeId(0);

    /// Numeric index of the node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(u16::try_from(v).expect("node index exceeds u16"))
    }
}

/// A shared coherence unit (a distributed-shared Java object in the paper's
/// GOS; an array row, a counter object, a tree node, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u64);

impl ObjectId {
    /// Derive an object id deterministically from a logical name and an
    /// index within that name (e.g. `("sor.matrix", row)`).
    ///
    /// Uses the FNV-1a hash so that all nodes — and repeated runs — agree on
    /// identifiers without communication. Collisions across distinct
    /// `(name, index)` pairs are astronomically unlikely for the workload
    /// sizes involved (≤ a few hundred thousand objects), and the registry
    /// detects them defensively.
    pub fn derive(name: &str, index: u64) -> ObjectId {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x1000_0000_01b3;
        let mut hash = FNV_OFFSET;
        for byte in name.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        for byte in index.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        ObjectId(hash)
    }

    /// Raw identifier value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj:{:016x}", self.0)
    }
}

/// A distributed lock (the paper's Java monitor / `synchronized` target).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockId(pub u32);

impl LockId {
    /// Derive a lock id from a logical name (all nodes agree without
    /// communication).
    pub fn derive(name: &str) -> LockId {
        let oid = ObjectId::derive(name, u64::MAX);
        LockId((oid.0 >> 32) as u32 ^ (oid.0 as u32))
    }
}

impl fmt::Display for LockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lock:{}", self.0)
    }
}

/// A barrier used by the iterative applications (SOR, ASP, Nbody). The
/// paper's programs build barriers from lock/wait primitives; we expose them
/// as a first-class synchronization object managed by the master node, which
/// produces the same message pattern (arrive → release with write notices).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BarrierId(pub u32);

impl fmt::Display for BarrierId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "barrier:{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_util::IdSet;

    #[test]
    fn node_master_is_zero() {
        assert_eq!(NodeId::MASTER, NodeId(0));
        assert_eq!(NodeId::MASTER.index(), 0);
        assert_eq!(NodeId::from(3usize), NodeId(3));
    }

    #[test]
    fn object_ids_are_deterministic() {
        assert_eq!(
            ObjectId::derive("sor.matrix", 7),
            ObjectId::derive("sor.matrix", 7)
        );
        assert_ne!(
            ObjectId::derive("sor.matrix", 7),
            ObjectId::derive("sor.matrix", 8)
        );
        assert_ne!(
            ObjectId::derive("sor.matrix", 7),
            ObjectId::derive("asp.dist", 7)
        );
    }

    #[test]
    fn object_ids_have_no_collisions_for_realistic_workloads() {
        let mut seen = IdSet::default();
        for name in [
            "sor.matrix",
            "asp.dist",
            "nbody.bodies",
            "tsp.state",
            "syn.counter",
        ] {
            for i in 0..4096u64 {
                assert!(
                    seen.insert(ObjectId::derive(name, i)),
                    "collision for {name}[{i}]"
                );
            }
        }
    }

    #[test]
    fn lock_ids_are_deterministic_and_distinct() {
        assert_eq!(LockId::derive("lock0"), LockId::derive("lock0"));
        assert_ne!(LockId::derive("lock0"), LockId::derive("lock1"));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", NodeId(3)), "P3");
        assert!(format!("{}", ObjectId::derive("x", 0)).starts_with("obj:"));
        assert!(format!("{}", LockId(9)).starts_with("lock:"));
        assert!(format!("{}", BarrierId(2)).starts_with("barrier:"));
    }

    #[test]
    #[should_panic(expected = "node index exceeds u16")]
    fn node_from_huge_index_panics() {
        let _ = NodeId::from(70_000usize);
    }
}

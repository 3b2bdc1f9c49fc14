//! Hash maps and sets keyed by the workspace's own integer ids.
//!
//! The protocol's state is a handful of maps probed on every access, serve
//! and release: object ids (FNV-1a of a name and an index), request ids
//! (`node << 48 | seq`), lock and barrier ids, and `(src, dst)` link pairs.
//! std's default `RandomState` hashes each of them with keyed SipHash-1-3,
//! which costs more than the rest of a cache hit. [`IdMap`] and [`IdSet`]
//! are the std collections with [`IdHasher`] instead: one multiply and one
//! rotate per integer written, and one widening multiply at the end whose
//! high half is folded into the low one.
//!
//! # Why a fixed, unkeyed hasher is safe here
//!
//! * **Order.** Iteration order is now a fixed function of the keys and
//!   the insertion history instead of a per-process random one, and nothing
//!   that is printed, counted or sent depends on it either way: every walk
//!   whose order matters sorts first — `EngineState::prepare_release` sorts
//!   its flush plans by object id, `EngineState::homed_objects` and
//!   `PolicyOverrides::ids` sort the ids they return, and the sim fabric
//!   sorts its drop records by send time and link before it reports them.
//!   The remaining walks (re-arming home traps, invalidating cached copies,
//!   demoting permissions at release) touch every entry alike.
//! * **Trusted keys.** Every key is derived by the cluster's own members —
//!   an FNV hash of a name the application declared, a sequence number a
//!   node issued, a node index — never by an outside party, so nobody can
//!   choose keys that collide on purpose (the attack `RandomState` guards
//!   against). A map keyed by outside input must keep std's default hasher.

use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by a protocol id, hashed with [`IdHasher`]. Build one
/// with `IdMap::default()`.
#[allow(clippy::disallowed_types)]
pub type IdMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of protocol ids, hashed with [`IdHasher`]. Build one with
/// `IdSet::default()`.
#[allow(clippy::disallowed_types)]
pub type IdSet<K> = std::collections::HashSet<K, BuildHasherDefault<IdHasher>>;

/// An odd multiplier whose bits are spread evenly over the word, so a
/// product's high half depends on every bit of the key.
const MULTIPLIER: u64 = 0xf135_7aea_2e62_a9c5;

/// A multiply-rotate hasher over integer writes; see the module
/// documentation for where it may be used.
#[derive(Debug, Default)]
pub struct IdHasher {
    hash: u64,
}

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for IdHasher {
    /// Byte strings are hashed a byte at a time: no protocol key is one.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.add(u64::from(byte));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The low bits of a product depend only on the low bits of its
    /// factors, and a `HashMap` picks the bucket by the low bits: without a
    /// fold, keys that differ only in their high bits — request ids of
    /// different nodes, say — would share a bucket. So the state is
    /// multiplied once more at full width and the high half of that
    /// 128-bit product, which every bit of the state reaches, is folded
    /// into the low half.
    #[inline]
    fn finish(&self) -> u64 {
        let wide = u128::from(self.hash) * u128::from(MULTIPLIER);
        (wide as u64) ^ ((wide >> 64) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(value: T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(value)
    }

    #[test]
    fn hashing_is_fixed_across_maps_and_runs() {
        assert_eq!(hash(42u64), hash(42u64));
        assert_ne!(hash(42u64), hash(43u64));
        // The function is part of the build, not of the process: these
        // values never change between runs.
        assert_eq!(hash(0u64), 0);
        let wide = u128::from(MULTIPLIER) * u128::from(MULTIPLIER);
        assert_eq!(hash(1u64), (wide as u64) ^ ((wide >> 64) as u64));
    }

    #[test]
    fn byte_writes_cover_every_byte() {
        assert_ne!(hash("bench.sor.matrix"), hash("bench.sor.matriy"));
        assert_ne!(hash("ab"), hash("ba"));
    }
}

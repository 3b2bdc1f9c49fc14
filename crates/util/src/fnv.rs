//! The FNV-1a fold every result fingerprint is built from.

/// The FNV-1a 64-bit offset basis: the hash of no values.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold one 64-bit value into an FNV-1a hash (one step per value, not per
/// byte). Start from [`FNV_BASIS`]; `values.fold(FNV_BASIS, fnv)` is the
/// fingerprint of a sequence.
pub fn fnv(hash: u64, value: u64) -> u64 {
    (hash ^ value).wrapping_mul(0x0000_0100_0000_01b3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_is_order_sensitive_and_starts_at_the_basis() {
        assert_eq!([].into_iter().fold(FNV_BASIS, fnv), FNV_BASIS);
        assert_eq!(fnv(FNV_BASIS, 0), 0xaf63_bd4c_8601_b7df);
        assert_ne!(
            [1, 2].into_iter().fold(FNV_BASIS, fnv),
            [2, 1].into_iter().fold(FNV_BASIS, fnv)
        );
    }
}

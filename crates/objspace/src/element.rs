//! Typed views over object payload bytes.
//!
//! The paper's coherence unit is a Java object; our applications mostly
//! share numeric arrays (matrix rows, particle blocks, counters). The
//! [`Element`] trait ties such value types to their byte representation in
//! [`crate::ObjectData`].
//!
//! `Element` is **sealed** to the primitive numeric types. The runtime's
//! zero-copy views reinterpret payload storage as `&[T]`/`&mut [T]`
//! directly, which is only sound for plain-old-data types (no padding, all
//! bit patterns valid, alignment at most 8); sealing keeps that property a
//! crate-local invariant instead of a contract every downstream implementor
//! would have to uphold. Elements are encoded in native byte order — the
//! simulated cluster lives in one process, so payloads never cross a real
//! machine boundary.

mod sealed {
    /// Marker restricting [`super::Element`] to the crate's POD primitives.
    pub trait Pod {}
}

/// A fixed-size plain-old-data element that can live inside a shared object.
///
/// Implemented for `u8`–`u64`, `i8`–`i64`, `f32` and `f64`; sealed against
/// downstream implementations (see the module docs for why).
pub trait Element:
    sealed::Pod + Copy + PartialEq + std::fmt::Debug + Send + Sync + 'static
{
    /// Size of the element in bytes inside the object payload.
    const SIZE: usize;
}

macro_rules! impl_element_for_pod {
    ($($ty:ty),*) => {
        $(
            impl sealed::Pod for $ty {}

            impl Element for $ty {
                const SIZE: usize = std::mem::size_of::<$ty>();
            }
        )*
    };
}

impl_element_for_pod!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

#[cfg(test)]
mod tests {
    use crate::ObjectData;

    #[test]
    fn roundtrip_f64() {
        let values = [0.0f64, -1.5, 3.25, f64::MAX, f64::MIN_POSITIVE];
        let data = ObjectData::from_elements(&values);
        assert_eq!(data.len(), values.len() * 8);
        assert_eq!(data.as_slice::<f64>(), values);
    }

    #[test]
    fn roundtrip_integers() {
        let values = [0u32, 1, 42, u32::MAX];
        assert_eq!(ObjectData::from_elements(&values).as_slice::<u32>(), values);
        let values = [-5i64, 0, i64::MAX, i64::MIN];
        assert_eq!(ObjectData::from_elements(&values).as_slice::<i64>(), values);
        let values = [0u8, 255];
        assert_eq!(ObjectData::from_elements(&values).as_slice::<u8>(), values);
    }

    #[test]
    fn store_into_overwrites_slot() {
        let mut data = ObjectData::zeroed(16);
        data.as_mut_slice::<f64>()[1] = 7.5;
        assert_eq!(data.as_slice::<f64>(), &[0.0, 7.5]);
        assert_eq!(data.bytes()[8..], 7.5f64.to_ne_bytes());
    }

    #[test]
    #[should_panic(expected = "not a multiple of element size")]
    fn decode_rejects_misaligned_length() {
        let _ = ObjectData::zeroed(7).as_slice::<f64>();
    }

    #[test]
    fn empty_slice_roundtrip() {
        let data = ObjectData::from_elements::<f64>(&[]);
        assert!(data.is_empty());
        assert!(data.as_slice::<f64>().is_empty());
    }

    #[test]
    fn encoding_matches_memory_representation() {
        // Elements are stored in native byte order, with no padding.
        let data = ObjectData::from_elements(&[0x0102_0304u32]);
        assert_eq!(data.bytes(), 0x0102_0304u32.to_ne_bytes());
    }
}

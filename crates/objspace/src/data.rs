//! Payload of one coherence unit.
//!
//! [`ObjectData`] is an owned, dynamically-sized buffer with typed
//! accessors. The home copy of every object and every cached copy hold one
//! `ObjectData`; twins are snapshots of it and diffs are deltas between two
//! of them.
//!
//! The storage is 8-byte aligned (a `Vec<u64>` internally), which lets the
//! same buffer be viewed either as raw bytes — what twins, diffs and the
//! wire protocol operate on — or **borrowed in place** as a typed element
//! slice through [`ObjectData::as_slice`] / [`ObjectData::as_mut_slice`].
//! The borrowed views are what the runtime's `ReadView`/`WriteView` guards
//! expose to applications: accesses at the home touch the engine's storage
//! directly, with no decode/encode round-trip through a `Vec<T>`.

use crate::element::Element;
use crate::raw;

/// The payload of a shared object.
#[derive(Debug, Clone)]
pub struct ObjectData {
    /// 8-byte-aligned backing storage; only the first `len` bytes are
    /// payload, and the tail of the last word stays zeroed so buffer
    /// comparisons can ignore it.
    words: Vec<u64>,
    len: usize,
}

impl ObjectData {
    fn with_capacity_bytes(len: usize) -> Self {
        ObjectData {
            words: vec![0; len.div_ceil(8)],
            len,
        }
    }

    /// Create a zero-filled object of `len` bytes (the state of a freshly
    /// allocated Java object / array).
    pub fn zeroed(len: usize) -> Self {
        ObjectData::with_capacity_bytes(len)
    }

    /// Create an object from raw bytes.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        // Build the aligned words in one pass over the input (every fault-in
        // comes through here) instead of zero-filling them first. Whole
        // words and the padded tail are separate so the body compiles to a
        // plain copy (a single `chunks(8)` loop measured 10x slower).
        let mut words = Vec::with_capacity(bytes.len().div_ceil(8));
        let chunks = bytes.chunks_exact(8);
        let tail = chunks.remainder();
        words.extend(chunks.map(|c| u64::from_ne_bytes(c.try_into().expect("8-byte chunk"))));
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            words.push(u64::from_ne_bytes(last));
        }
        ObjectData {
            words,
            len: bytes.len(),
        }
    }

    /// Create an object holding the encoding of a typed slice.
    pub fn from_elements<T: Element>(values: &[T]) -> Self {
        let mut data = ObjectData::with_capacity_bytes(values.len() * T::SIZE);
        data.as_mut_slice::<T>().copy_from_slice(values);
        data
    }

    /// Size of the payload in bytes. This is the `o` of the home access
    /// coefficient (Appendix A).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Raw byte view.
    pub fn bytes(&self) -> &[u8] {
        raw::bytes_of(&self.words, self.len)
    }

    /// Mutable raw byte view.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        raw::bytes_of_mut(&mut self.words, self.len)
    }

    /// Borrow the whole payload as a typed slice, in place — the zero-copy
    /// read path of the GOS.
    ///
    /// # Panics
    /// Panics if the payload length is not a multiple of the element size.
    pub fn as_slice<T: Element>(&self) -> &[T] {
        raw::cast_slice(self.bytes())
    }

    /// Mutably borrow the whole payload as a typed slice, in place — the
    /// zero-copy write path of the GOS.
    ///
    /// # Panics
    /// Panics if the payload length is not a multiple of the element size.
    pub fn as_mut_slice<T: Element>(&mut self) -> &mut [T] {
        raw::cast_slice_mut(self.bytes_mut())
    }

    /// Read one typed element at element index `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn get<T: Element>(&self, idx: usize) -> T {
        let slice = self.as_slice::<T>();
        assert!(idx < slice.len(), "element index {idx} out of range");
        slice[idx]
    }

    /// Overwrite one typed element at element index `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn set<T: Element>(&mut self, idx: usize, value: T) {
        let slice = self.as_mut_slice::<T>();
        assert!(idx < slice.len(), "element index {idx} out of range");
        slice[idx] = value;
    }
}

impl PartialEq for ObjectData {
    fn eq(&self, other: &Self) -> bool {
        self.bytes() == other.bytes()
    }
}

impl Eq for ObjectData {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_object_is_all_zero() {
        let d = ObjectData::zeroed(16);
        assert_eq!(d.len(), 16);
        assert!(!d.is_empty());
        assert!(d.bytes().iter().all(|&b| b == 0));
        assert_eq!(d.as_slice::<f64>(), &[0.0, 0.0]);
    }

    #[test]
    fn typed_roundtrip() {
        let d = ObjectData::from_elements(&[1.5f64, -2.5, 3.0]);
        assert_eq!(d.len(), 24);
        assert_eq!(d.as_slice::<f64>(), &[1.5, -2.5, 3.0]);
        assert_eq!(d.get::<f64>(1), -2.5);
    }

    #[test]
    fn borrowed_views_alias_the_storage() {
        let mut d = ObjectData::from_elements(&[1u32, 2, 3, 4]);
        d.as_mut_slice::<u32>()[2] = 99;
        assert_eq!(d.as_slice::<u32>(), &[1, 2, 99, 4]);
        // The byte view sees the same storage the typed view wrote.
        assert_eq!(d.get::<u32>(2), 99);
        assert_eq!(99u32.to_ne_bytes(), d.bytes()[8..12]);
    }

    #[test]
    fn set_updates_single_element() {
        let mut d = ObjectData::from_elements(&[1u32, 2, 3, 4]);
        d.set(2, 99u32);
        assert_eq!(d.as_slice::<u32>(), &[1, 2, 99, 4]);
    }

    #[test]
    fn overwrite_keeps_length() {
        // Whole-payload writes go through the typed and byte views, which
        // cover exactly the allocated payload.
        let mut d = ObjectData::from_elements(&[0.0f64; 4]);
        d.as_mut_slice::<f64>()
            .copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(d.as_slice::<f64>(), &[1.0, 2.0, 3.0, 4.0]);
        let other = ObjectData::from_elements(&[9.0f64, 8.0, 7.0, 6.0]);
        d.bytes_mut().copy_from_slice(other.bytes());
        assert_eq!(d, other);
        assert_eq!(d.len(), 32);
    }

    #[test]
    #[should_panic(expected = "does not match destination slice length")]
    fn overwrite_with_wrong_size_panics() {
        // The payload size is fixed at allocation time: a whole-payload
        // write of the wrong length cannot resize it.
        let mut d = ObjectData::zeroed(8);
        d.as_mut_slice::<f64>().copy_from_slice(&[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let d = ObjectData::zeroed(8);
        let _ = d.get::<f64>(1);
    }

    #[test]
    fn empty_object() {
        let d = ObjectData::zeroed(0);
        assert!(d.is_empty());
        assert!(d.as_slice::<u64>().is_empty());
    }

    #[test]
    fn equality_ignores_buffer_padding() {
        // 3-byte payloads occupy one word; the padding tail must not affect
        // equality.
        let a = ObjectData::from_bytes(vec![1, 2, 3]);
        let b = ObjectData::from_bytes(vec![1, 2, 3]);
        let c = ObjectData::from_bytes(vec![1, 2, 4]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn odd_lengths_are_supported() {
        let mut d = ObjectData::from_bytes((0..13u8).collect());
        assert_eq!(d.len(), 13);
        d.bytes_mut()[12] = 99;
        assert_eq!(d.bytes()[12], 99);
        assert_eq!(d.as_slice::<u8>().len(), 13);
    }
}

//! Twins — pristine pre-write snapshots.
//!
//! In the multiple-writer protocol (TreadMarks-style, reused by HLRC), a
//! process about to write a cached copy for the first time in an interval
//! creates a *twin*: a byte-for-byte copy of the object as fetched. At
//! release time the diff is computed by comparing the (now modified) working
//! copy against the twin, and the twin is discarded.

use crate::data::ObjectData;
use crate::diff::Diff;

/// A pristine snapshot of an object taken just before the first local write
/// of an interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Twin {
    snapshot: Vec<u8>,
}

impl Twin {
    /// Capture a twin of the current object contents.
    pub fn capture(data: &ObjectData) -> Self {
        Twin {
            snapshot: data.bytes().to_vec(),
        }
    }

    /// Compute the diff between the current working copy and this twin.
    ///
    /// # Panics
    /// Panics if the working copy has a different length from the twin
    /// (coherence units never change size).
    pub fn diff_against(&self, current: &ObjectData) -> Diff {
        Diff::between(&self.snapshot, current.bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twin_captures_snapshot() {
        let mut data = ObjectData::from_elements(&[1.0f64, 2.0, 3.0]);
        let twin = Twin::capture(&data);
        assert_eq!(twin.snapshot.len(), data.len());
        data.set(1, 9.0f64);
        // Twin still holds the old value.
        assert_ne!(twin.snapshot, data.bytes());
    }

    #[test]
    fn diff_against_detects_changes() {
        let mut data = ObjectData::from_elements(&[1.0f64, 2.0, 3.0, 4.0]);
        let twin = Twin::capture(&data);
        data.set(2, -3.0f64);
        let diff = twin.diff_against(&data);
        assert!(!diff.is_empty());
        // Applying the diff to a copy of the twin reproduces the new data.
        let mut reconstructed = ObjectData::from_bytes(twin.snapshot.clone());
        diff.apply(&mut reconstructed);
        assert_eq!(reconstructed, data);
    }

    #[test]
    fn unchanged_object_produces_empty_diff() {
        let data = ObjectData::from_elements(&[5u32; 8]);
        let twin = Twin::capture(&data);
        assert!(twin.diff_against(&data).is_empty());
        assert!(!twin.snapshot.is_empty());
    }
}

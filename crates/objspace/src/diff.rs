//! Diffs — run-length deltas between a twin and the modified working copy.
//!
//! A diff is the set of contiguous byte runs that changed during an interval.
//! At release time the writer sends the diff to the object's home, where it
//! is applied to the home copy (home-based protocol: "each shared coherence
//! unit has a home to which all writes (diffs) are propagated and from which
//! all copies are derived").
//!
//! Diff size matters twice: it is the payload of a `diff` message (network
//! traffic, Figure 3/5) and it is the `d` of the home access coefficient
//! (Appendix A).
//!
//! ## Layout
//!
//! A [`Diff`] is flat: **one payload buffer** holding the new bytes of every
//! run back to back, plus **one run table** of `(offset, len)` entries in
//! ascending offset order. Run `i` owns the `len_i` payload bytes that follow
//! those of runs `0..i`. Computing, cloning or decoding a diff therefore
//! costs at most two allocations however many runs it has (a red-black SOR
//! row is 1 023 of them), and applying one allocates nothing.
//!
//! ## Runs carry only modified words
//!
//! A run is a maximal sequence of *consecutive modified words* and never
//! spans an unmodified one, however short the gap. A diff that carried a gap
//! word would write the twin's stale value over whatever a concurrent writer
//! flushed to that word — the lost update the multiple-writer protocol
//! exists to prevent.

use crate::data::ObjectData;

/// One entry of the run table: where the run lands in the object and how
/// many bytes of the payload buffer it owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    offset: u32,
    len: u32,
}

/// A complete diff for one object and one interval.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Diff {
    /// The new bytes of every run, concatenated in run order.
    payload: Vec<u8>,
    /// Sorted by offset, non-overlapping, no entry empty; the lengths sum to
    /// `payload.len()`.
    runs: Vec<Run>,
    /// Length of the object the diff was computed against, used to validate
    /// application targets.
    object_len: u32,
}

/// Granularity (bytes) at which changes are detected. Word granularity
/// matches the paper's JVM implementation (Java fields/array elements are at
/// least 4 bytes; doubles are 8). Consecutive modified words form one run;
/// two modified words separated by even a single unmodified word are two
/// runs (see the module docs for why the gap is never bridged).
const WORD: usize = 4;

/// Width (bytes) of the comparison that skips unmodified regions: two words
/// at a time, falling back to [`WORD`] granularity inside a differing chunk.
const CHUNK: usize = 2 * WORD;

/// The eight bytes of one [`CHUNK`], little-endian so that the low half of
/// the integer is the first [`WORD`].
fn chunk_bits(chunk: &[u8]) -> u64 {
    u64::from_le_bytes(chunk.try_into().expect("a CHUNK-byte slice"))
}

/// The state of [`Diff::between`]'s scan over the words of an object.
struct Scan<'a> {
    new: &'a [u8],
    diff: Diff,
    /// Start of the run the previous word belonged to, if it was modified.
    open: Option<usize>,
}

impl Scan<'_> {
    /// Account for the word at `pos`: a modified word opens or extends a
    /// run, an unmodified one ends the run that reached up to it.
    // Forced inline: the scan runs this once or twice per chunk, and only
    // inlined does the state stay in registers (measured 2x on a 16 KB row).
    #[inline(always)]
    fn word(&mut self, pos: usize, modified: bool) {
        if modified {
            self.open.get_or_insert(pos);
        } else if let Some(start) = self.open {
            // Not `take()`: that would store on every word of an unmodified
            // region too.
            self.open = None;
            self.push_run(start, pos);
        }
    }

    /// Append the run `start..end` of the new contents to the diff.
    fn push_run(&mut self, start: usize, end: usize) {
        let Diff { payload, runs, .. } = &mut self.diff;
        if runs.is_empty() {
            // Nothing before `start` changed, and every run but the last is
            // followed by an unmodified word, so the rest of the object
            // bounds both buffers: size them once.
            let rest = self.new.len() - start;
            payload.reserve_exact(rest);
            runs.reserve_exact(rest / CHUNK + 1);
        }
        runs.push(Run {
            offset: start as u32,
            len: (end - start) as u32,
        });
        payload.extend_from_slice(&self.new[start..end]);
    }
}

impl Diff {
    /// Compute the diff between `old` (the twin) and `new` (the working
    /// copy).
    ///
    /// # Panics
    /// Panics if the two buffers have different lengths.
    pub fn between(old: &[u8], new: &[u8]) -> Diff {
        assert_eq!(
            old.len(),
            new.len(),
            "twin and working copy must have identical length"
        );
        let len = old.len();
        let mut scan = Scan {
            new,
            open: None,
            diff: Diff::with_capacity(u32::try_from(len).expect("object larger than 4 GiB"), 0, 0),
        };
        let mut pos = 0usize;
        for (o, n) in old.chunks_exact(CHUNK).zip(new.chunks_exact(CHUNK)) {
            let delta = chunk_bits(o) ^ chunk_bits(n);
            if delta == 0 {
                scan.word(pos, false);
            } else {
                // Little-endian loads: the low half is the first word.
                scan.word(pos, delta as u32 != 0);
                scan.word(pos + WORD, (delta >> 32) != 0);
            }
            pos += CHUNK;
        }
        // The tail shorter than a chunk, word by word; a trailing partial
        // word is compared (and carried) at its own length.
        while pos < len {
            let end = pos + WORD.min(len - pos);
            scan.word(pos, old[pos..end] != new[pos..end]);
            pos = end;
        }
        scan.word(len, false);
        scan.diff
    }

    /// A diff that replaces the entire object (used when a writer has no twin
    /// because it allocated or wholly initialised the object).
    pub fn full(new: &[u8]) -> Diff {
        let object_len = u32::try_from(new.len()).expect("object larger than 4 GiB");
        Diff {
            payload: new.to_vec(),
            runs: if new.is_empty() {
                Vec::new()
            } else {
                vec![Run {
                    offset: 0,
                    len: object_len,
                }]
            },
            object_len,
        }
    }

    /// An empty diff for an object of `object_len` bytes with room for `runs`
    /// runs carrying `payload_bytes` bytes in total — the starting point for
    /// [`Diff::push_run`].
    pub fn with_capacity(object_len: u32, runs: usize, payload_bytes: usize) -> Diff {
        Diff {
            payload: Vec::with_capacity(payload_bytes),
            runs: Vec::with_capacity(runs),
            object_len,
        }
    }

    /// Append one run, validating the invariants that [`Diff::between`] /
    /// [`Diff::full`] establish by construction: the run is non-empty, starts
    /// at or after the end of the previous one and stays within the object.
    /// Returns `false` — leaving the diff untouched — on any violation. Wire
    /// decoders build diffs through this, so a malformed frame can never
    /// produce a diff whose application would panic or corrupt an object.
    #[must_use]
    pub fn push_run(&mut self, offset: u32, bytes: &[u8]) -> bool {
        let next_free = self
            .runs
            .last()
            .map_or(0, |last| u64::from(last.offset) + u64::from(last.len));
        let start = u64::from(offset);
        let end = start + bytes.len() as u64;
        if bytes.is_empty() || start < next_free || end > u64::from(self.object_len) {
            return false;
        }
        self.runs.push(Run {
            offset,
            // `end <= object_len` bounds the length by `u32::MAX`.
            len: bytes.len() as u32,
        });
        self.payload.extend_from_slice(bytes);
        true
    }

    /// Reassemble a diff from explicit `(offset, bytes)` runs through
    /// [`Diff::push_run`]; `None` if any run is empty, overlapping, unsorted
    /// or out of bounds.
    pub fn from_runs(runs: &[(u32, &[u8])], object_len: u32) -> Option<Diff> {
        let payload_bytes = runs.iter().map(|(_, bytes)| bytes.len()).sum();
        let mut diff = Diff::with_capacity(object_len, runs.len(), payload_bytes);
        runs.iter()
            .all(|(offset, bytes)| diff.push_run(*offset, bytes))
            .then_some(diff)
    }

    /// Whether the diff contains no modified bytes.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Number of modified runs.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// The modified runs in ascending offset order: each run's byte offset
    /// within the object and its new bytes, borrowed from the payload buffer.
    pub fn runs(&self) -> impl Iterator<Item = (u32, &[u8])> + '_ {
        self.runs.iter().scan(&self.payload[..], |rest, run| {
            let (bytes, tail) = rest.split_at(run.len as usize);
            *rest = tail;
            Some((run.offset, bytes))
        })
    }

    /// Total count of modified payload bytes.
    pub fn payload_bytes(&self) -> usize {
        self.payload.len()
    }

    /// Wire size of the diff: payload plus a (offset,length) header per run.
    /// This is the `d` used by the home access coefficient and the message
    /// size accounting.
    pub fn wire_bytes(&self) -> usize {
        self.payload.len() + self.runs.len() * 8
    }

    /// Length of the object this diff applies to.
    pub fn object_len(&self) -> usize {
        self.object_len as usize
    }

    /// Apply the diff to an object (normally the home copy).
    ///
    /// # Panics
    /// Panics if the target has a different length from the object the diff
    /// was computed against, or if any run falls outside the target.
    pub fn apply(&self, target: &mut ObjectData) {
        assert_eq!(
            target.len(),
            self.object_len as usize,
            "diff applied to object of different size"
        );
        let bytes = target.bytes_mut();
        for (offset, run) in self.runs() {
            let start = offset as usize;
            let end = start + run.len();
            assert!(end <= bytes.len(), "diff run exceeds object bounds");
            bytes[start..end].copy_from_slice(run);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(vals: &[f64]) -> ObjectData {
        ObjectData::from_elements(vals)
    }

    #[test]
    fn from_runs_validates_bounds_and_order() {
        // A well-formed reassembly round-trips through the accessors.
        let d = Diff::from_runs(&[(0, &[1, 2]), (4, &[3])], 8).expect("valid runs");
        assert_eq!(d.run_count(), 2);
        assert_eq!(d.object_len(), 8);
        assert_eq!(d.payload_bytes(), 3);
        assert_eq!(
            d.runs().collect::<Vec<_>>(),
            vec![(0, &[1u8, 2][..]), (4, &[3u8][..])]
        );
        // Empty diffs are valid (nothing modified).
        assert!(Diff::from_runs(&[], 8).is_some());
        // Out of bounds, overlapping, unsorted or empty runs are rejected.
        assert!(Diff::from_runs(&[(7, &[1, 2])], 8).is_none());
        assert!(Diff::from_runs(&[(0, &[1, 2]), (1, &[3])], 8).is_none());
        assert!(Diff::from_runs(&[(4, &[1]), (0, &[2])], 8).is_none());
        assert!(Diff::from_runs(&[(0, &[])], 8).is_none());
        assert!(Diff::from_runs(&[(u32::MAX, &[1, 2])], u32::MAX).is_none());
        // Adjacent runs touch but do not overlap: allowed.
        assert!(Diff::from_runs(&[(0, &[1]), (1, &[2])], 8).is_some());
        // The reassembled diff applies like the original.
        let original = Diff::between(&[0u8; 8], &[9, 9, 0, 0, 0, 0, 7, 7]);
        let runs: Vec<_> = original.runs().collect();
        assert_eq!(Diff::from_runs(&runs, 8).expect("rebuild"), original);
    }

    #[test]
    fn rejected_run_leaves_the_diff_untouched() {
        let mut d = Diff::with_capacity(8, 2, 4);
        assert!(d.push_run(2, &[1, 2]));
        let before = d.clone();
        assert!(!d.push_run(3, &[9]));
        assert!(!d.push_run(7, &[9, 9]));
        assert_eq!(d, before);
        assert!(d.push_run(4, &[3]));
        assert_eq!(d.wire_bytes(), 3 + 16);
    }

    #[test]
    fn a_single_unmodified_word_splits_a_run() {
        // Words 0, 2 and 3 change; word 1 does not and must not travel.
        let old = [0u8; 16];
        let mut new = old;
        new[0] = 1;
        new[8] = 2;
        new[15] = 3;
        let d = Diff::between(&old, &new);
        assert_eq!(
            d.runs().collect::<Vec<_>>(),
            vec![(0, &new[0..4]), (8, &new[8..16])]
        );
    }

    #[test]
    fn identical_buffers_give_empty_diff() {
        let d = Diff::between(&[1, 2, 3, 4], &[1, 2, 3, 4]);
        assert!(d.is_empty());
        assert_eq!(d.payload_bytes(), 0);
        assert_eq!(d.wire_bytes(), 0);
    }

    #[test]
    fn single_word_change_detected() {
        let old = data(&[1.0, 2.0, 3.0]);
        let mut new = old.clone();
        new.set(1, 9.0f64);
        let d = Diff::between(old.bytes(), new.bytes());
        // 2.0 -> 9.0 only flips bits in the high-order word of the f64, so a
        // word-granularity diff captures exactly one 4-byte run.
        assert_eq!(d.run_count(), 1);
        assert_eq!(d.payload_bytes(), 4);
        let mut target = old.clone();
        d.apply(&mut target);
        assert_eq!(target, new);
    }

    #[test]
    fn adjacent_changes_coalesce_into_one_run() {
        let old = data(&[0.0; 8]);
        let mut new = old.clone();
        // 1.1 and 2.2 have non-zero bits in every byte, so both full f64
        // slots change and the two adjacent elements coalesce into one run.
        new.set(2, 1.1f64);
        new.set(3, 2.2f64);
        let d = Diff::between(old.bytes(), new.bytes());
        assert_eq!(d.run_count(), 1);
        assert_eq!(d.payload_bytes(), 16);
    }

    #[test]
    fn separated_changes_produce_separate_runs() {
        let old = data(&[0.0; 16]);
        let mut new = old.clone();
        new.set(0, 1.0f64);
        new.set(10, 2.0f64);
        let d = Diff::between(old.bytes(), new.bytes());
        assert_eq!(d.run_count(), 2);
        let mut target = old.clone();
        d.apply(&mut target);
        assert_eq!(target, new);
    }

    #[test]
    fn wire_size_includes_run_headers() {
        let old = data(&[0.0; 16]);
        let mut new = old.clone();
        new.set(0, 1.0f64);
        new.set(10, 2.0f64);
        let d = Diff::between(old.bytes(), new.bytes());
        assert_eq!(d.wire_bytes(), d.payload_bytes() + 16);
    }

    #[test]
    fn full_diff_replaces_everything() {
        let old = data(&[0.0; 4]);
        let new = data(&[1.0, 2.0, 3.0, 4.0]);
        let d = Diff::full(new.bytes());
        let mut target = old.clone();
        d.apply(&mut target);
        assert_eq!(target, new);
        assert_eq!(d.run_count(), 1);
        assert!(Diff::full(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "identical length")]
    fn between_rejects_length_mismatch() {
        let _ = Diff::between(&[0u8; 4], &[0u8; 8]);
    }

    #[test]
    #[should_panic(expected = "different size")]
    fn apply_rejects_wrong_target() {
        let old = data(&[0.0; 4]);
        let mut new = old.clone();
        new.set(0, 5.0f64);
        let d = Diff::between(old.bytes(), new.bytes());
        let mut wrong = ObjectData::zeroed(8);
        d.apply(&mut wrong);
    }

    #[test]
    fn non_word_multiple_lengths_are_handled() {
        // 10-byte object: trailing 2-byte chunk must still be diffed.
        let old = vec![0u8; 10];
        let mut new = old.clone();
        new[9] = 7;
        let d = Diff::between(&old, &new);
        assert_eq!(d.run_count(), 1);
        let mut target = ObjectData::from_bytes(old);
        d.apply(&mut target);
        assert_eq!(target.bytes()[9], 7);
    }
}

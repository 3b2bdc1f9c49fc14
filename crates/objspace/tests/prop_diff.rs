//! Randomized property tests for the twin/diff machinery — the correctness
//! core of the multiple-writer protocol. If diffs ever lose or corrupt
//! writes, the whole DSM silently computes wrong answers, so these
//! invariants get the heaviest random testing.
//!
//! The cases are driven by the workspace's seeded [`SmallRng`] (the build
//! environment has no external crates, so `proptest` is replaced by a fixed
//! seed and a generous case count — every failure is reproducible from the
//! case index).

use dsm_objspace::{Diff, ObjectData, Twin};
use dsm_util::SmallRng;

const CASES: u64 = 256;

/// One random payload plus a set of (index, new_value) writes.
fn payload_and_writes(rng: &mut SmallRng) -> (Vec<u8>, Vec<(usize, u8)>) {
    let len = 1 + rng.gen_index(511);
    let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
    let writes: Vec<(usize, u8)> = (0..rng.gen_index(64))
        .map(|_| (rng.gen_index(len), rng.next_u64() as u8))
        .collect();
    (bytes, writes)
}

/// twin -> write -> diff -> apply reproduces the working copy exactly, for
/// arbitrary contents and arbitrary write sets.
#[test]
fn diff_roundtrip_reconstructs_writes() {
    let mut rng = SmallRng::seed_from_u64(0xD1FF);
    for case in 0..CASES {
        let (bytes, writes) = payload_and_writes(&mut rng);
        let original = ObjectData::from_bytes(bytes);
        let twin = Twin::capture(&original);
        let mut working = original.clone();
        for (idx, val) in &writes {
            working.bytes_mut()[*idx] = *val;
        }
        let diff = twin.diff_against(&working);
        let mut home_copy = original.clone();
        diff.apply(&mut home_copy);
        assert_eq!(home_copy, working, "case {case}");
    }
}

/// A diff never claims more payload than the object size (modulo word
/// rounding) and its wire size is payload + 8 bytes per run.
#[test]
fn diff_size_bounds() {
    let mut rng = SmallRng::seed_from_u64(0x512E);
    for case in 0..CASES {
        let (bytes, writes) = payload_and_writes(&mut rng);
        let original = ObjectData::from_bytes(bytes);
        let twin = Twin::capture(&original);
        let mut working = original.clone();
        for (idx, val) in &writes {
            working.bytes_mut()[*idx] = *val;
        }
        let diff = twin.diff_against(&working);
        assert!(diff.payload_bytes() <= original.len() + 3, "case {case}");
        assert_eq!(
            diff.wire_bytes(),
            diff.payload_bytes() + 8 * diff.run_count(),
            "case {case}"
        );
    }
}

/// Diffs from two writers touching disjoint regions can be applied in either
/// order with the same result (the multiple-writer guarantee under false
/// sharing).
#[test]
fn disjoint_diffs_commute() {
    let mut rng = SmallRng::seed_from_u64(0xC0);
    let mut exercised = 0;
    for case in 0..CASES {
        let len = 2 + rng.gen_index(254);
        // Split the object in two word-aligned halves; writer A modifies the
        // first half, writer B the second, so the halves never share a word.
        let half = ((len / 2) / 4) * 4;
        if half < 4 || len - half < 4 {
            continue;
        }
        exercised += 1;
        let base = ObjectData::from_bytes((0..len).map(|i| (i as u8).wrapping_mul(31)).collect());

        let mut a = base.clone();
        let mut b = base.clone();
        let twin_a = Twin::capture(&a);
        let twin_b = Twin::capture(&b);
        for i in 0..half {
            a.bytes_mut()[i] = rng.next_u64() as u8;
        }
        for i in half..len {
            b.bytes_mut()[i] = rng.next_u64() as u8;
        }

        let da = twin_a.diff_against(&a);
        let db = twin_b.diff_against(&b);

        let mut ab = base.clone();
        da.apply(&mut ab);
        db.apply(&mut ab);
        let mut ba = base.clone();
        db.apply(&mut ba);
        da.apply(&mut ba);
        assert_eq!(ab, ba, "case {case}");
        // And the merged state contains both writers' updates.
        assert_eq!(&ab.bytes()[..half], &a.bytes()[..half], "case {case}");
        assert_eq!(&ab.bytes()[half..], &b.bytes()[half..], "case {case}");
    }
    assert!(
        exercised > CASES / 2,
        "too few cases exercised: {exercised}"
    );
}

/// An unmodified working copy always produces an empty diff.
#[test]
fn no_writes_empty_diff() {
    let mut rng = SmallRng::seed_from_u64(0xE4);
    for case in 0..CASES {
        let len = rng.gen_index(256);
        let base = ObjectData::from_bytes((0..len).map(|_| rng.next_u64() as u8).collect());
        let twin = Twin::capture(&base);
        let diff = twin.diff_against(&base);
        assert!(diff.is_empty(), "case {case}");
        assert_eq!(diff.wire_bytes(), 0, "case {case}");
    }
}

/// Two writers start from the same twin and modify *interleaved* words of
/// one object. Whatever the order the home applies their diffs in, it ends
/// up with the union — which only holds if a run never carries a word its
/// writer left alone (a `between` that bridged one-word gaps to save run
/// headers would overwrite the other writer's words with the twin's).
#[test]
fn interleaved_word_diffs_commute() {
    const WORD: usize = 4;
    let mut rng = SmallRng::seed_from_u64(0x1EAF);
    for case in 0..CASES {
        let words = 2 + rng.gen_index(96);
        // Sometimes a trailing partial word, owned by writer B.
        let len = words * WORD
            + if case % 3 == 0 {
                rng.gen_index(WORD)
            } else {
                0
            };
        let base: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        // Case 0 is the sharpest split: every even word against every odd
        // word. The rest draw a random owner per word.
        let owned_by_a: Vec<bool> = (0..len.div_ceil(WORD))
            .map(|w| {
                if case == 0 {
                    w % 2 == 0
                } else {
                    rng.gen_index(2) == 0
                }
            })
            .collect();

        let mut a = base.clone();
        let mut b = base.clone();
        let mut union = base.clone();
        for i in 0..len {
            // XOR with a non-zero byte: every owned byte really changes.
            let flip = 1 + rng.gen_index(255) as u8;
            let copy = if owned_by_a[i / WORD] { &mut a } else { &mut b };
            copy[i] ^= flip;
            union[i] ^= flip;
        }
        let da = Diff::between(&base, &a);
        let db = Diff::between(&base, &b);

        for (first, second) in [(&da, &db), (&db, &da)] {
            let mut home = ObjectData::from_bytes(base.clone());
            first.apply(&mut home);
            second.apply(&mut home);
            assert_eq!(home.bytes(), &union[..], "case {case}");
        }
        // Neither diff carries a byte of a word the other writer owns.
        assert_eq!(da.payload_bytes() + db.payload_bytes(), len, "case {case}");
    }
}

/// The parent implementation of `Diff::between`, kept verbatim in shape as
/// the reference: compare `WORD`-byte slices one at a time, one owned buffer
/// per run.
fn reference_runs(old: &[u8], new: &[u8]) -> Vec<(u32, Vec<u8>)> {
    const WORD: usize = 4;
    let len = old.len();
    let mut runs = Vec::new();
    let mut pos = 0usize;
    while pos < len {
        let chunk = WORD.min(len - pos);
        if old[pos..pos + chunk] != new[pos..pos + chunk] {
            let start = pos;
            let mut end = pos + chunk;
            pos += chunk;
            while pos < len {
                let c = WORD.min(len - pos);
                if old[pos..pos + c] != new[pos..pos + c] {
                    end = pos + c;
                    pos += c;
                } else {
                    break;
                }
            }
            runs.push((start as u32, new[start..end].to_vec()));
        } else {
            pos += chunk;
        }
    }
    runs
}

/// `Diff::between` must produce exactly the reference's runs: same
/// boundaries, same bytes, same sizes on the wire.
fn assert_matches_reference(old: &[u8], new: &[u8], what: &str) {
    let diff = Diff::between(old, new);
    let expected = reference_runs(old, new);
    let got: Vec<(u32, Vec<u8>)> = diff.runs().map(|(o, b)| (o, b.to_vec())).collect();
    assert_eq!(got, expected, "{what}");
    let payload: usize = expected.iter().map(|(_, b)| b.len()).sum();
    assert_eq!(diff.run_count(), expected.len(), "{what}");
    assert_eq!(diff.payload_bytes(), payload, "{what}");
    assert_eq!(diff.wire_bytes(), payload + 8 * expected.len(), "{what}");
    assert_eq!(diff.object_len(), old.len(), "{what}");
}

/// Differential test of the chunked comparison against the reference loop:
/// every length 0..=300 (so every remainder modulo 4 and 8), with the change
/// patterns that sit on the chunk, word and partial-word boundaries, random
/// writes, and the 16 KB red-black SOR row.
#[test]
fn between_matches_the_reference_loop() {
    let mut rng = SmallRng::seed_from_u64(0xD1FF_02E5);
    let flip = |new: &mut [u8], range: std::ops::Range<usize>| {
        for b in &mut new[range] {
            *b ^= 0x5A;
        }
    };
    for len in 0..=300usize {
        let old: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let case = |what: &str, edit: &dyn Fn(&mut [u8])| {
            let mut new = old.clone();
            edit(&mut new);
            assert_matches_reference(&old, &new, &format!("len {len}: {what}"));
        };
        let last_word = len.saturating_sub(1) / 4 * 4;
        case("none changed", &|_| {});
        case("all changed", &|new| flip(new, 0..len));
        case("first word", &|new| flip(new, 0..len.min(4)));
        case("first byte", &|new| flip(new, 0..len.min(1)));
        case("last word", &|new| flip(new, last_word..len));
        case("last byte", &|new| flip(new, len.saturating_sub(1)..len));
        case("last word and its neighbour", &|new| {
            flip(new, last_word.saturating_sub(4)..len)
        });
        case("last word and the one before its neighbour", &|new| {
            flip(new, last_word..len);
            flip(
                new,
                last_word.saturating_sub(8)..last_word.saturating_sub(4),
            );
        });
        case("alternating f64s", &|new| {
            for start in (0..len).step_by(16) {
                flip(new, start..len.min(start + 8));
            }
        });
        case("alternating words", &|new| {
            for start in (4..len).step_by(8) {
                flip(new, start..len.min(start + 4));
            }
        });
        for round in 0..8 {
            let writes: Vec<(usize, u8)> = (0..rng.gen_index(12))
                .map(|_| (rng.gen_index(len.max(1)), rng.next_u64() as u8))
                .collect();
            case(&format!("random writes {round}"), &|new| {
                for (idx, val) in &writes {
                    if let Some(b) = new.get_mut(*idx) {
                        *b = *val;
                    }
                }
            });
        }
    }

    // One colour of a 2048-point red-black SOR row: every other interior f64
    // gets a new value.
    let row: Vec<f64> = (0..2048).map(|i| i as f64 * 0.5).collect();
    let mut relaxed = row.clone();
    for i in (1..2047).step_by(2) {
        relaxed[i] = (row[i - 1] + row[i + 1]) * 0.25 + 1.1;
    }
    let old = ObjectData::from_elements(&row);
    let new = ObjectData::from_elements(&relaxed);
    assert_matches_reference(old.bytes(), new.bytes(), "SOR colour");
    assert_eq!(Diff::between(old.bytes(), new.bytes()).run_count(), 1023);
}

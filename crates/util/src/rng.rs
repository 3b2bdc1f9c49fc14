//! A small deterministic random number generator, and the seeds it is fed.
//!
//! SplitMix64: a 64-bit state advanced by a Weyl constant and finalized with
//! a mixing function. Statistically solid for workload generation and
//! randomized tests, trivially seedable, and identical on every platform —
//! which is what matters here: every simulated node must generate the same
//! graph/bodies/cities from the same seed without communicating.
//!
//! The seeds are defined here too: [`seed_corpus`] is the one corpus every
//! seeded suite in the workspace draws from (`DSM_SEEDS` overrides it), on
//! the single derivation [`derived_seeds`], and [`parse_seed_list`] is the
//! one strict reader of a seed list.

/// A seeded SplitMix64 generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallRng {
    state: u64,
}

impl SmallRng {
    /// Create a generator from a seed. Equal seeds produce equal sequences.
    pub fn seed_from_u64(seed: u64) -> Self {
        SmallRng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits scaled into [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `lo..=hi`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn gen_range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let span = u64::from(hi - lo) + 1;
        lo + (self.next_u64() % span) as u32
    }

    /// Uniform integer in `0..n`.
    ///
    /// # Panics
    /// Panics if `n` is zero.
    pub fn gen_index(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range 0..0");
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if the range is empty or not finite.
    pub fn gen_range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo < hi && lo.is_finite() && hi.is_finite(),
            "bad range {lo}..{hi}"
        );
        lo + self.next_f64() * (hi - lo)
    }
}

/// Parse a seed from user input: hexadecimal with a `0x`/`0X` prefix,
/// decimal otherwise; surrounding whitespace and `_` digit separators are
/// accepted. Every seed list ([`parse_seed_list`]) is parsed entry by entry
/// with it, so the hex-formatted seeds printed by failure reports can be
/// pasted anywhere a seed is read.
pub fn parse_seed(input: &str) -> Result<u64, std::num::ParseIntError> {
    let cleaned = input.trim().replace('_', "");
    match cleaned
        .strip_prefix("0x")
        .or_else(|| cleaned.strip_prefix("0X"))
    {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => cleaned.parse(),
    }
}

/// Seed `i` of the corpus derivation is `SEED_CORPUS_BASE + i`.
const SEED_CORPUS_BASE: u64 = 0x51E5_ED01;

/// The first `count` seeds of the corpus derivation: `0x51E5ED01`,
/// `0x51E5ED02`, and so on, so a count always names the same schedules.
/// The default corpus is the first three, the committed conformance
/// matrices sweep the first two and the weekly soak the first sixteen.
pub fn derived_seeds(count: usize) -> Vec<u64> {
    (0..count as u64).map(|i| SEED_CORPUS_BASE + i).collect()
}

/// The seed corpus every seeded suite draws from: the first three
/// [`derived_seeds`], unless the `DSM_SEEDS` environment variable overrides
/// it with a [`parse_seed_list`] list. `DSM_SEEDS=0xBAD5EED,7` replays two
/// specific schedules through every corpus-driven suite without touching
/// code.
///
/// # Panics
/// Panics on a malformed `DSM_SEEDS`, naming the bad token: a typo silently
/// falling back to the default corpus would fake a reproduction.
pub fn seed_corpus() -> Vec<u64> {
    match std::env::var("DSM_SEEDS") {
        Err(_) => derived_seeds(3),
        Ok(raw) => parse_seed_list(&raw)
            .unwrap_or_else(|e| panic!("DSM_SEEDS override {raw:?} is invalid: {e}")),
    }
}

/// Parse a comma/space-separated seed list (the `DSM_SEEDS` and
/// `sim_matrix --seeds` format), each entry by [`parse_seed`].
///
/// Every malformed entry is an error naming the offending token: an empty
/// list, a leading, trailing or doubled comma or a non-numeric token must
/// never silently shrink the list to fewer seeds than the caller's
/// assertions claim.
pub fn parse_seed_list(raw: &str) -> Result<Vec<u64>, String> {
    if raw.trim().is_empty() {
        return Err("it contains no seeds".to_string());
    }
    let fields: Vec<&str> = raw.split(',').collect();
    let last = fields.len() - 1;
    let mut seeds = Vec::new();
    for (i, field) in fields.iter().enumerate() {
        if field.trim().is_empty() {
            let hint = match i {
                0 => "leading comma",
                _ if i == last => "trailing comma",
                _ => "doubled comma",
            };
            return Err(format!("comma-field {} is empty ({hint})", i + 1));
        }
        for token in field.split_whitespace() {
            seeds.push(parse_seed(token).map_err(|e| format!("entry {token:?}: {e}"))?);
        }
    }
    Ok(seeds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_parse_in_hex_and_decimal() {
        assert_eq!(parse_seed("0x51E5_ED01"), Ok(0x51E5_ED01));
        assert_eq!(parse_seed(" 0X10 "), Ok(16));
        assert_eq!(parse_seed("2004"), Ok(2004));
        assert_eq!(parse_seed("1_000"), Ok(1000));
        assert!(parse_seed("zebra").is_err());
        assert!(parse_seed("").is_err());
    }

    #[test]
    fn seed_lists_parse_hex_decimal_and_mixed_separators() {
        assert_eq!(parse_seed_list("7"), Ok(vec![7]));
        assert_eq!(parse_seed_list("0x10,2"), Ok(vec![16, 2]));
        assert_eq!(parse_seed_list("1, 2 3"), Ok(vec![1, 2, 3]));
        assert_eq!(parse_seed_list(" 1 2 "), Ok(vec![1, 2]));
    }

    #[test]
    fn malformed_seed_lists_fail_loudly_naming_the_token() {
        let empty = parse_seed_list("").unwrap_err();
        assert!(empty.contains("no seeds"), "got: {empty}");
        let blank = parse_seed_list("  ").unwrap_err();
        assert!(blank.contains("no seeds"), "got: {blank}");
        let trailing = parse_seed_list("1,2,").unwrap_err();
        assert!(trailing.contains("trailing comma"), "got: {trailing}");
        let doubled = parse_seed_list("1,,2").unwrap_err();
        assert!(doubled.contains("doubled comma"), "got: {doubled}");
        let leading = parse_seed_list(",1").unwrap_err();
        assert!(leading.contains("leading comma"), "got: {leading}");
        let bad = parse_seed_list("1,banana,3").unwrap_err();
        assert!(bad.contains("\"banana\""), "got: {bad}");
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallRng::seed_from_u64(43);
        assert_ne!(SmallRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn ranges_are_respected() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..10_000 {
            let v = rng.gen_range_u32(3, 7);
            assert!((3..=7).contains(&v));
            seen_lo |= v == 3;
            seen_hi |= v == 7;
            let f = rng.gen_range_f64(-2.0, 2.0);
            assert!((-2.0..2.0).contains(&f));
            assert!(rng.gen_index(5) < 5);
        }
        assert!(seen_lo && seen_hi, "both endpoints should appear");
    }

    #[test]
    fn roughly_uniform_buckets() {
        let mut rng = SmallRng::seed_from_u64(99);
        let mut buckets = [0u32; 8];
        for _ in 0..80_000 {
            buckets[rng.gen_index(8)] += 1;
        }
        for b in buckets {
            assert!(
                (9_000..11_000).contains(&b),
                "bucket count {b} far from uniform"
            );
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let _ = SmallRng::seed_from_u64(0).gen_range_u32(5, 4);
    }
}

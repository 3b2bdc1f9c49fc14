//! A fixed-bucket log-linear latency histogram.
//!
//! The classic log-linear scheme in ~8 KiB of fixed state, without a
//! dependency on `hdrhistogram`: values are floored to their top four
//! significant bits, giving 16 linear sub-buckets per power of two and a
//! worst-case relative error of 1/16 (≈ 6 %). Recording is a leading-zeros
//! count plus an array increment — cheap enough to sit on a serving fast
//! path. The program itself only records; the percentile, mean and merge
//! readers exist in test builds, where they check the bucket layout.
//!
//! Values are dimensionless `u64`s.

/// Sub-buckets per power of two (and the log2 of it): values are floored
/// to `SUB` significant steps within their octave.
const SUB: usize = 16;
const SUB_BITS: u32 = 4;

/// Total bucket count: indices `0..SUB` hold the exact small values, then
/// 16 sub-buckets for each of the remaining 60 octaves of a `u64`.
const BUCKETS: usize = SUB + 60 * SUB;

/// A fixed-bucket histogram with ~6 % value resolution over the full `u64`
/// range. See the `histogram` module docs for the bucket layout.
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
    sum: u128,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("total", &self.total)
            .field("max", &self.max)
            .finish_non_exhaustive()
    }
}

/// The bucket a value lands in. Values below [`SUB`] map to themselves;
/// larger values are floored to their top [`SUB_BITS`] + 1 significant
/// bits, which continues the identity mapping seamlessly (16 maps to
/// index 16).
fn bucket_index(value: u64) -> usize {
    if value < SUB as u64 {
        value as usize
    } else {
        let height = 64 - value.leading_zeros(); // >= SUB_BITS + 1
        let octave = (height - SUB_BITS) as usize;
        let sub = (value >> (height - SUB_BITS - 1)) as usize & (SUB - 1);
        (octave << SUB_BITS) + sub
    }
}

/// The smallest value mapping to `index` — the representative percentile
/// queries report, so reported quantiles are floored by at most one bucket
/// width (≈ 6 %).
#[cfg(test)]
fn bucket_floor(index: usize) -> u64 {
    if index < SUB {
        index as u64
    } else {
        let octave = index >> SUB_BITS;
        let sub = (index & (SUB - 1)) as u64;
        (SUB as u64 + sub) << (octave - 1)
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: Box::new([0; BUCKETS]),
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Record one value.
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_index(value)] += 1;
        self.total += 1;
        self.sum += u128::from(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }
}

/// The readers: only the tests query a histogram.
#[cfg(test)]
impl LatencyHistogram {
    /// Largest recorded value, exactly (0 when empty).
    pub(crate) fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded values, exactly (0 when empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.sum as f64 / self.total as f64
    }

    /// The value at quantile `q` in `[0, 1]`: the floor of the bucket
    /// holding the `ceil(q·count)`-th smallest sample (so `percentile(1.0)`
    /// is the floored maximum and `percentile(0.0)` the minimum bucket).
    ///
    /// Degenerate histograms have defined answers rather than bucket
    /// artifacts: an **empty** histogram returns 0 for every quantile
    /// (matching [`max`](Self::max) and [`mean`](Self::mean)), and a
    /// **single-sample** histogram returns that sample *exactly* — every
    /// quantile of a one-point distribution is the point itself, so the
    /// ~6 % bucket flooring would only misreport it.
    pub(crate) fn percentile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        if self.total == 1 {
            return self.max;
        }
        let target = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= target {
                return bucket_floor(index);
            }
        }
        unreachable!("cumulative bucket counts must reach the total")
    }

    /// Add another histogram's samples into this one.
    pub(crate) fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..16u64 {
            h.record(v);
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_floor(v as usize), v);
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.max(), 15);
    }

    #[test]
    fn bucket_mapping_is_monotone_and_floor_is_consistent() {
        // The floor of a value's bucket never exceeds the value, and the
        // next bucket's floor does — on a sweep crossing many octaves.
        let mut previous_index = 0;
        for shift in 0..60 {
            for offset in [0u64, 1, 7, 15] {
                let v = (17u64 << shift) + offset;
                let index = bucket_index(v);
                assert!(index >= previous_index, "index not monotone at {v}");
                previous_index = index;
                assert!(bucket_floor(index) <= v);
                assert!(bucket_floor(index + 1) > v);
            }
        }
        // The largest representable value still fits the table.
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn relative_error_is_bounded_by_one_sixteenth() {
        for v in [100u64, 999, 12_345, 1 << 30, (1 << 40) + 123_456] {
            let floor = bucket_floor(bucket_index(v));
            assert!(floor <= v);
            assert!(
                (v - floor) as f64 / v as f64 <= 1.0 / 16.0 + 1e-12,
                "error too large for {v}: floor {floor}"
            );
        }
    }

    #[test]
    fn percentiles_walk_the_distribution() {
        let mut h = LatencyHistogram::new();
        // 100 samples: 1..=100 microseconds, in nanoseconds.
        for v in 1..=100u64 {
            h.record(v * 1000);
        }
        let p50 = h.percentile(0.50);
        let p99 = h.percentile(0.99);
        // Bucketed values are floored by at most ~6 %.
        assert!((47_000..=50_000).contains(&p50), "p50 = {p50}");
        assert!((93_000..=99_000).contains(&p99), "p99 = {p99}");
        assert!(h.percentile(0.0) <= h.percentile(0.5));
        assert!(h.percentile(0.5) <= h.percentile(1.0));
        assert_eq!(h.max(), 100_000);
        assert!((h.mean() - 50_500.0).abs() < 1e-6);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.percentile(0.95), 0);
        assert_eq!(h.percentile(0.99), 0);
        assert_eq!(h.percentile(1.0), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn single_sample_percentiles_are_the_sample_itself() {
        // Pick a value whose bucket floor differs from the value, so a
        // regression back to bucket flooring fails loudly.
        let value = 1_000_003u64;
        assert_ne!(bucket_floor(bucket_index(value)), value);
        let mut h = LatencyHistogram::new();
        h.record(value);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.percentile(q), value, "q = {q}");
        }
        assert_eq!(h.max(), value);
        // A second sample returns percentiles to bucket resolution.
        h.record(value);
        assert_eq!(h.percentile(0.5), bucket_floor(bucket_index(value)));
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for v in 0..50u64 {
            a.record(v * 1000);
        }
        for v in 50..100u64 {
            b.record(v * 1000);
        }
        let a_only_p50 = a.percentile(0.5);
        a.merge(&b);
        assert_eq!(a.count(), 100);
        assert_eq!(a.max(), 99_000);
        assert!(a.percentile(0.5) > a_only_p50);
    }
}

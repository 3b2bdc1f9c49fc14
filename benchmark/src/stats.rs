//! Aggregation: exact percentiles of a sample, and the median and quartiles
//! over reps that every reported number is.

/// Median, quartiles and count of one metric over a set of reps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarize `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles(&sorted);
        Some(Summary {
            median,
            q1,
            q3,
            n: sorted.len(),
        })
    }

    /// Interquartile range as a share of the median: the spread the
    /// benchmark's bounds are derived from.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The three quartile cut points of an ascending sample, computed as
/// Python's `statistics.quantiles(values, n=4)` computes them (the
/// "exclusive" method), so the harness's own spread check reads the same
/// numbers a reviewer's script does. One value is its own quartiles.
fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The `q`-quantile (0..=1) of `samples` by nearest rank, exact: the sample
/// is kept whole instead of bucketed, so a percentile reads as measured.
/// Reorders `samples`. Returns 0 for an empty sample.
pub fn percentile(samples: &mut [u32], q: f64) -> u32 {
    if samples.is_empty() {
        return 0;
    }
    let rank = ((samples.len() as f64 * q).ceil() as usize).clamp(1, samples.len());
    *samples.select_nth_unstable(rank - 1).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2.0, 8.0, 32.0]
        let s = Summary::of(&[64.0, 1.0, 8.0, 2.0, 32.0, 4.0, 16.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 8.0, 32.0, 7));
        // statistics.quantiles([10, 20, 30, 40], n=4) == [12.5, 25.0, 37.5]
        let s = Summary::of(&[10.0, 20.0, 30.0, 40.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (12.5, 25.0, 37.5));
        assert_eq!(s.spread(), 1.0);
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        let s = Summary::of(&[5.0, 3.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.5, 4.0, 5.5));
    }

    #[test]
    fn degenerate_samples() {
        assert_eq!(Summary::of(&[]), None);
        let one = Summary::of(&[7.5]).unwrap();
        assert_eq!((one.q1, one.median, one.q3, one.n), (7.5, 7.5, 7.5, 1));
        assert_eq!(one.spread(), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.95), 95);
        assert_eq!(percentile(&mut v, 0.99), 99);
        assert_eq!(percentile(&mut v, 1.0), 100);
        assert_eq!(percentile(&mut v, 0.5), 50);
        assert_eq!(percentile(&mut [], 0.5), 0);
        assert_eq!(percentile(&mut [9], 0.99), 9);
    }
}

//! The Hockney point-to-point communication model and cluster network
//! parameter presets.
//!
//! The paper's Appendix A characterizes the communication time of a
//! point-to-point operation as the linear function
//!
//! ```text
//! t(m) = t0 + m / r_inf        (microseconds)
//! ```
//!
//! where `t0` is the start-up time in microseconds, `r_inf` the asymptotic
//! bandwidth in MB/s and `m` the message length in bytes. The *half-peak
//! length* `m_1/2 = t0 * r_inf` is the message length at which half of the
//! asymptotic bandwidth is achieved; it appears directly in the adaptive
//! protocol's home access coefficient (paper Appendix A).
//!
//! The same model is used by the runtime to advance virtual time for every
//! protocol message, so that the analytical coefficient and the simulated
//! network are consistent with each other — exactly the property the paper
//! relies on.

use crate::time::SimDuration;

/// Parameters of the Hockney model for one interconnect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HockneyModel {
    /// Start-up time `t0` in microseconds (per-message fixed overhead).
    pub startup_us: f64,
    /// Asymptotic bandwidth `r_inf` in MB/s (1 MB = 1e6 bytes here, so this
    /// is equivalently bytes per microsecond).
    pub bandwidth_mb_s: f64,
}

impl HockneyModel {
    /// Create a model from a start-up time (µs) and asymptotic bandwidth (MB/s).
    ///
    /// # Panics
    /// Panics if either parameter is non-positive or non-finite: a zero
    /// bandwidth would make every message take infinite time and a zero
    /// start-up time makes the half-peak length degenerate.
    pub(crate) fn new(startup_us: f64, bandwidth_mb_s: f64) -> Self {
        assert!(
            startup_us.is_finite() && startup_us > 0.0,
            "start-up time must be positive and finite, got {startup_us}"
        );
        assert!(
            bandwidth_mb_s.is_finite() && bandwidth_mb_s > 0.0,
            "bandwidth must be positive and finite, got {bandwidth_mb_s}"
        );
        HockneyModel {
            startup_us,
            bandwidth_mb_s,
        }
    }

    /// Communication time `t(m) = t0 + m / r_inf` for a message of `m` bytes,
    /// in microseconds.
    ///
    /// With `r_inf` in MB/s (= bytes/µs), `m / r_inf` is directly in µs.
    pub(crate) fn time_us(&self, message_bytes: u64) -> f64 {
        self.startup_us + message_bytes as f64 / self.bandwidth_mb_s
    }

    /// Communication time as a virtual-time duration.
    pub fn latency(&self, message_bytes: u64) -> SimDuration {
        SimDuration::from_micros(self.time_us(message_bytes))
    }

    /// The half-peak message length `m_1/2 = t0 * r_inf` in bytes: the
    /// message length required to achieve half of the asymptotic bandwidth.
    pub fn half_peak_length(&self) -> f64 {
        self.startup_us * self.bandwidth_mb_s
    }
}

/// A named interconnect configuration used by the experiment harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkParams {
    /// Point-to-point cost model.
    pub hockney: HockneyModel,
    /// Fixed per-message protocol handling cost charged at the receiver, in
    /// microseconds (message unpacking, handler dispatch). The paper notes
    /// that the adaptive-threshold arithmetic itself is negligible compared
    /// with communication; this constant captures the fixed software
    /// overhead of serving any request.
    pub per_message_handling_us: f64,
}

impl NetworkParams {
    /// Fast Ethernet, matching the paper's testbed (16 × Pentium 4 nodes on a
    /// Foundry Fast-Ethernet switch). TCP/IP over 100 Mb/s Fast Ethernet at
    /// the time had a one-way small-message latency of roughly 100 µs and an
    /// asymptotic bandwidth of ~11.5 MB/s, giving a half-peak length of
    /// ~1.2 KB — comfortably "much greater than 1 byte" as the Appendix
    /// assumes.
    pub fn fast_ethernet() -> Self {
        NetworkParams {
            hockney: HockneyModel::new(100.0, 11.5),
            per_message_handling_us: 8.0,
        }
    }

    /// A low-latency SAN (Myrinet-class) configuration.
    pub fn myrinet() -> Self {
        NetworkParams {
            hockney: HockneyModel::new(9.0, 240.0),
            per_message_handling_us: 2.0,
        }
    }

    /// An idealised zero-cost-free network used by unit tests that only care
    /// about message *counts*, not time: 1 µs start-up, 1 GB/s.
    pub fn ideal() -> Self {
        NetworkParams {
            hockney: HockneyModel::new(1.0, 1000.0),
            per_message_handling_us: 0.0,
        }
    }

    /// Per-message handling cost as a duration.
    pub fn handling_cost(&self) -> SimDuration {
        SimDuration::from_micros(self.per_message_handling_us)
    }
}

impl Default for NetworkParams {
    fn default() -> Self {
        NetworkParams::fast_ethernet()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_length_message_costs_startup() {
        let m = HockneyModel::new(100.0, 11.5);
        assert!((m.time_us(0) - 100.0).abs() < 1e-12);
    }

    #[test]
    fn cost_is_linear_in_length() {
        let m = HockneyModel::new(50.0, 10.0);
        let t1 = m.time_us(1_000);
        let t2 = m.time_us(2_000);
        let t3 = m.time_us(3_000);
        assert!(((t2 - t1) - (t3 - t2)).abs() < 1e-9);
        assert!((t1 - (50.0 + 100.0)).abs() < 1e-9);
    }

    #[test]
    fn half_peak_length_matches_definition() {
        // At m = m_1/2 the effective bandwidth is half the asymptotic one.
        let m = HockneyModel::new(100.0, 11.5);
        let half = m.half_peak_length();
        assert!((half - 1150.0).abs() < 1e-9);
        let half = half.round() as u64;
        let effective = half as f64 / m.time_us(half);
        assert!((effective - m.bandwidth_mb_s / 2.0).abs() < 0.01);
    }

    #[test]
    fn effective_bandwidth_monotone_and_bounded() {
        let m = HockneyModel::new(100.0, 11.5);
        let mut prev = 0.0;
        for bytes in [1u64, 10, 100, 1_000, 10_000, 100_000, 1_000_000] {
            let eff = bytes as f64 / m.time_us(bytes);
            assert!(eff > prev, "effective bandwidth must grow with size");
            assert!(eff < m.bandwidth_mb_s, "never exceeds asymptotic bandwidth");
            prev = eff;
        }
    }

    #[test]
    fn batched_send_pays_one_startup() {
        // A `DiffBatch` ships k payloads as one message: t0 + (Σ mᵢ) / r_inf
        // instead of Σ (t0 + mᵢ / r_inf).
        let m = HockneyModel::new(100.0, 11.5);
        let entries = [400u64, 120, 64, 1000];
        let individually: f64 = entries.iter().map(|b| m.time_us(*b)).sum();
        let batched = m.time_us(entries.iter().sum());
        // One start-up instead of four: the saving is exactly (k-1) * t0.
        assert!((individually - batched - 300.0).abs() < 1e-9);
        // Byte cost is preserved — batching only removes start-ups.
        assert!((batched - (100.0 + 1584.0 / 11.5)).abs() < 1e-9);
    }

    #[test]
    fn latency_and_round_trip() {
        let m = HockneyModel::new(10.0, 100.0);
        // 1000 bytes at 100 MB/s = 10 us, plus 10 us startup = 20 us.
        assert_eq!(m.latency(1_000), SimDuration::from_nanos(20_000));
        // round trip of two unit-size messages ~ 2 * t0
        let rt = m.latency(1) + m.latency(1);
        assert!((rt.as_micros() - 20.02).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "start-up time must be positive")]
    fn rejects_zero_startup() {
        let _ = HockneyModel::new(0.0, 10.0);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn rejects_zero_bandwidth() {
        let _ = HockneyModel::new(10.0, 0.0);
    }

    #[test]
    fn presets_are_ordered_by_speed() {
        let fe = NetworkParams::fast_ethernet();
        let my = NetworkParams::myrinet();
        let ideal = NetworkParams::ideal();
        let bytes = 4096;
        assert!(fe.hockney.time_us(bytes) > my.hockney.time_us(bytes));
        assert!(my.hockney.time_us(bytes) > ideal.hockney.time_us(bytes));
    }

    #[test]
    fn fast_ethernet_half_peak_is_much_larger_than_one_byte() {
        // The Appendix's approximation requires m_1/2 >> 1.
        assert!(NetworkParams::fast_ethernet().hockney.half_peak_length() > 100.0);
    }

    #[test]
    fn default_is_fast_ethernet() {
        assert_eq!(NetworkParams::default(), NetworkParams::fast_ethernet());
    }
}

//! The *home access coefficient* α (paper Appendix A).
//!
//! The adaptive home migration protocol weighs positive feedback (exclusive
//! home writes, each of which proves that a previous migration eliminated one
//! object fault-in + diff propagation pair) against negative feedback
//! (redirected object requests, each of which costs one unit-sized round
//! trip). Because the two kinds of feedback have different communication
//! costs, the paper scales the positive feedback by the *home access
//! coefficient*:
//!
//! ```text
//!         t(o) + t(d)       (t0 + o/r_inf) + (t0 + d/r_inf)            o + d
//! alpha = ------------  =  ---------------------------------  ≈  2 + ---------
//!            t(1)                    t0 + 1/r_inf                      m_1/2
//! ```
//!
//! where `o` is the object size, `d` the diff size, and `m_1/2 = t0·r_inf`
//! the half-peak message length. The approximation uses `m_1/2 ≫ 1` (true
//! for every real interconnect) so `t(1) ≈ t0`. This module provides the
//! exact ratio, in test builds only. The protocol uses the approximation,
//! Equation (4) of the paper, written once in `dsm-core` as
//! `PolicyInputs::default_alpha`, because it needs the running mean of
//! observed diff sizes as `d`; the tests here check it against the exact
//! ratio.

use crate::network::HockneyModel;

/// Inputs to the coefficient computation for one object.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CoefficientInputs {
    /// Object size `o` in bytes (payload of one object fault-in reply).
    pub object_bytes: u64,
    /// Typical diff size `d` in bytes (payload of one diff propagation).
    /// The paper assumes `o > d`; callers typically use a running average of
    /// observed diff sizes, falling back to the object size.
    pub diff_bytes: u64,
}

impl CoefficientInputs {
    /// Convenience constructor.
    pub(crate) fn new(object_bytes: u64, diff_bytes: u64) -> Self {
        CoefficientInputs {
            object_bytes,
            diff_bytes,
        }
    }
}

/// Exact home access coefficient `(t(o) + t(d)) / t(1)` under the given
/// Hockney model.
pub(crate) fn home_access_coefficient(model: &HockneyModel, inputs: CoefficientInputs) -> f64 {
    let num = model.time_us(inputs.object_bytes) + model.time_us(inputs.diff_bytes);
    let den = model.time_us(1);
    num / den
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkParams;

    fn fe() -> HockneyModel {
        NetworkParams::fast_ethernet().hockney
    }

    #[test]
    fn coefficient_is_at_least_two() {
        // Eliminating a fault-in + diff pair always saves at least two
        // message start-ups, while a redirection costs one.
        let a = home_access_coefficient(&fe(), CoefficientInputs::new(0, 0));
        assert!(a > 1.99 && a < 2.01);
    }

    #[test]
    fn grows_with_object_and_diff_size() {
        let small = home_access_coefficient(&fe(), CoefficientInputs::new(256, 64));
        let large = home_access_coefficient(&fe(), CoefficientInputs::new(16_384, 4_096));
        assert!(large > small);
    }

    #[test]
    fn approximation_close_to_exact_for_fast_ethernet() {
        // m_1/2 for Fast Ethernet is ~1150 bytes >> 1, so the relative error
        // of the approximation 2 + (o + d)/m_1/2 the protocol evaluates must
        // be small.
        for (o, d) in [(128u64, 32u64), (1024, 256), (8192, 2048), (65536, 8192)] {
            let exact = home_access_coefficient(&fe(), CoefficientInputs::new(o, d));
            let approx = 2.0 + (o + d) as f64 / fe().half_peak_length();
            let rel = (exact - approx).abs() / exact;
            assert!(rel < 0.01, "o={o} d={d} exact={exact} approx={approx}");
        }
    }

    #[test]
    fn coefficient_reflects_network_speed() {
        // On a faster network (larger m_1/2) the per-byte benefit of
        // eliminating data transfers shrinks relative to a redirection,
        // so alpha decreases.
        let fe = NetworkParams::fast_ethernet().hockney;
        let my = NetworkParams::myrinet().hockney;
        let inputs = CoefficientInputs::new(8192, 1024);
        let a_fe = home_access_coefficient(&fe, inputs);
        let a_my = home_access_coefficient(&my, inputs);
        assert!(a_fe > a_my);
    }

    #[test]
    fn larger_objects_favor_migration_more() {
        // A 2048-element f64 row (16 KB) should have a clearly larger
        // coefficient than a 128-element row (1 KB) on Fast Ethernet.
        let small = home_access_coefficient(&fe(), CoefficientInputs::new(1024, 512));
        let large = home_access_coefficient(&fe(), CoefficientInputs::new(16_384, 8_192));
        assert!(large > 2.0 * small);
    }
}

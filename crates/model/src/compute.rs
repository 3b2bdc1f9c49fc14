//! Per-node computation cost model.
//!
//! The paper's applications interleave computation (matrix updates, force
//! calculations, tour expansion) with DSM communication. Because we replace
//! the physical 2 GHz Pentium-4 nodes with virtual clocks, compute phases
//! must be charged analytically: the runtime exposes
//! `NodeCtx::compute(model.ops(n))` and each application charges a cost
//! proportional to the work it actually performs (which it also *really*
//! performs, so results can be verified against sequential references).
//!
//! Only the *ratio* of computation to communication matters for the shape of
//! the paper's figures; the default model approximates a 2 GHz superscalar
//! processor sustaining roughly one useful arithmetic operation per
//! nanosecond on these memory-bound kernels.

use crate::time::SimDuration;

/// Linear computation cost model: `cost(n_ops) = n_ops * ns_per_op`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeModel {
    /// Cost of one abstract application operation, in nanoseconds.
    pub ns_per_op: f64,
}

impl ComputeModel {
    /// A model approximating the paper's 2 GHz Pentium 4 on memory-bound
    /// kernels (~1 ns per useful operation).
    pub fn pentium4_2ghz() -> Self {
        ComputeModel { ns_per_op: 1.0 }
    }

    /// A model where computation is free; useful for tests and for isolating
    /// pure communication behaviour.
    pub fn free() -> Self {
        ComputeModel { ns_per_op: 0.0 }
    }

    /// Cost of `n` abstract operations.
    pub fn ops(&self, n: u64) -> SimDuration {
        SimDuration::from_nanos((n as f64 * self.ns_per_op).round() as u64)
    }

    /// Cost of touching `n` f64 elements with a small constant amount of
    /// arithmetic each (the common case for SOR/ASP inner loops): charged as
    /// `per_element_ops` operations per element.
    pub fn elements(&self, n: u64, per_element_ops: u64) -> SimDuration {
        self.ops(n.saturating_mul(per_element_ops))
    }
}

impl Default for ComputeModel {
    fn default() -> Self {
        ComputeModel::pentium4_2ghz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_model_charges_nothing() {
        assert_eq!(ComputeModel::free().ops(1_000_000), SimDuration::ZERO);
    }

    #[test]
    fn default_model_is_one_ns_per_op() {
        let m = ComputeModel::default();
        assert_eq!(m.ops(1_000), SimDuration::from_nanos(1_000));
        assert_eq!(m, ComputeModel::pentium4_2ghz());
    }

    #[test]
    fn cost_scales_linearly() {
        let m = ComputeModel { ns_per_op: 2.5 };
        assert_eq!(m.ops(4), SimDuration::from_nanos(10));
        assert_eq!(m.elements(10, 3), SimDuration::from_nanos(75));
    }

    #[test]
    fn elements_helper_multiplies() {
        let m = ComputeModel { ns_per_op: 1.0 };
        assert_eq!(m.elements(2048, 4), SimDuration::from_nanos(8192));
    }
}

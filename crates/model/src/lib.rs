//! # dsm-model — analytical models for the DSM cluster substrate
//!
//! This crate contains the *analytical* pieces of the reproduction of
//! "A Novel Adaptive Home Migration Protocol in Home-based DSM"
//! (Fang, Wang, Zhu, Lau — IEEE CLUSTER 2004):
//!
//! * [`SimTime`] / [`SimDuration`] — the virtual-time base used by the whole
//!   workspace. The paper reports wall-clock execution times measured on a
//!   16-node Pentium-4 / Fast-Ethernet cluster; we replace the physical
//!   cluster with per-node logical clocks advanced by the models below.
//! * [`HockneyModel`] — the point-to-point communication cost model
//!   `t(m) = t0 + m / r_inf` used by the paper's Appendix A to derive the
//!   *home access coefficient*. We use the same model both to advance
//!   virtual time on every message and to compute the coefficient.
//! * [`ComputeModel`] — a simple per-operation computation cost model used to
//!   charge application compute phases to the virtual clock, so that the
//!   communication/computation ratio (and therefore the *shape* of the
//!   paper's figures) is preserved.
//! * [`home_access_coefficient`] — Appendix A of the paper: the overhead
//!   ratio of one eliminated (object fault-in + diff propagation) pair to one
//!   home redirection.
//!
//! Everything in this crate is deterministic and free of I/O so that the
//! experiment harness produces reproducible numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coefficient;
pub mod compute;
pub mod network;
pub mod time;

pub use coefficient::{home_access_coefficient, CoefficientInputs};
pub use compute::ComputeModel;
pub use network::{HockneyModel, NetworkParams};
pub use time::{SimDuration, SimTime};

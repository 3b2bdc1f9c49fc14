//! # dsm-apps — the paper's application workloads
//!
//! The evaluation of the paper runs four multi-threaded Java applications on
//! the distributed JVM plus one synthetic micro-benchmark:
//!
//! * [`asp`] — all-pairs shortest paths over a 1024-node graph with a
//!   parallel Floyd–Warshall algorithm (barrier per pivot row);
//! * [`sor`] — red-black successive over-relaxation on a 2048×2048 matrix
//!   (two barriers per iteration);
//! * [`nbody`] — Barnes–Hut simulation of 2048 bodies (tree rebuilt every
//!   step, barrier-synchronized);
//! * [`tsp`] — branch-and-bound travelling salesman over 12 cities with a
//!   lock-protected global best bound;
//! * [`synthetic`] — the single-writer micro-benchmark of Figure 4, with a
//!   configurable repetition `r` of the single-writer pattern.
//!
//! Every module provides the DSM-parallel implementation (run on the
//! `dsm-runtime` cluster), a sequential reference implementation, and a
//! verification helper used by the integration tests: the parallel result
//! must equal the sequential one regardless of the migration policy, because
//! home migration is a performance optimization that must never change
//! program semantics.
//!
//! Every entry point is `run(cluster: ClusterBuilder, params)`: the caller
//! configures the cluster, and the workload registers its shared objects
//! through the builder, then builds and runs it.
//!
//! Beyond the paper's evaluation, [`kv`] is the serving-mode workload: a
//! Zipfian key-value traffic generator with a shifting hot set, driven by
//! the `dsm-bench` regression gate's policy sweep and by the conformance
//! matrix as the first non-HPC cell.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asp;
pub mod kv;
pub mod nbody;
mod outcome;
pub mod sor;
pub mod synthetic;
pub mod tsp;

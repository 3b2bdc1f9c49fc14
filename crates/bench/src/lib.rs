//! # dsm-bench — the experiment harness
//!
//! One function per figure of the paper's evaluation (Section 5), each
//! returning the rows/series the paper plots, plus the ablations, the
//! regression gate ([`gate`]) and the policy × workload conformance matrix
//! ([`matrix`]). Each of them renders one committed text output
//! ([`figures::REGISTRY`]: `fig2`, `fig3`, `fig5`, `ablation_notify`,
//! `ablation_alpha`, `ablation_related`, `gate`, `sim_matrix`,
//! `sim_matrix_lossy`), printed by the `figures` binary and pinned byte for
//! byte under `bench/figures/small/` by the tier-1 test
//! `crates/bench/tests/golden.rs`.
//!
//! Paper workload sizes (1024-vertex ASP, 2048×2048 SOR, 16 nodes) take a
//! while on a single development machine because the whole cluster is
//! simulated in one process; every figure and ablation therefore takes a
//! [`Scale`] knob. `Scale::Small` keeps the shapes of the figures while
//! running in seconds; `Scale::Paper` uses the paper's sizes. `figures`
//! accepts `--full` to select the paper scale.
//!
//! Everything here reports **modeled** numbers (message counts, migrations,
//! Hockney time on a virtual clock), and every such number comes from the
//! deterministic sim fabric: each harness builds its clusters with
//! `cluster`, which takes a [`SimConfig`], so a figure cannot run on the
//! OS-scheduled fabrics by accident. On the sim the numbers are a pure
//! function of the seed; the committed outputs run [`SimConfig::calm`] at
//! [`gate::GATE_SEED`] (the matrices: perturbed seeds of their own), so
//! they are byte-identical run to run and between debug and release
//! builds. An output carries its claims — the figures' shape checks, the
//! gate's internal claims, every matrix cell conforming — and `figures`
//! exits 1 when one fails.
//!
//! Wall-clock throughput and latency are measured only by the repo
//! benchmark (`benchmark/`, see `benchmark/README.md`); TCP is covered by
//! the conformance suites (`tcp_conformance`, the `tcp_cluster` binary).
//!
//! ## Adding a workload
//!
//! A workload is a function `fn(ClusterBuilder) -> (fingerprint, report)`
//! that registers its objects through the builder, then builds and runs
//! it — there is deliberately no trait to implement. The contract is the
//! *fingerprint*: a `u64` (a [`dsm_util::fnv`] fold, by convention) over
//! the workload's deterministic result, where "deterministic" means
//! *schedule-independent for a fixed `(seed, params, num_nodes)`* —
//! identical across fabrics (threaded / sim / tcp), sim seeds, migration
//! policies and replays. The standard way to get there is
//! single-writer-per-object-per-phase with barriers between phases; values
//! whose outcome depends on timing (e.g. racy reads) must stay out of the
//! fingerprint. `dsm_apps::kv` is the worked example: writes are
//! partitioned by a per-phase `writer` rotation so the final store contents
//! fingerprint exactly, while the values *read* under contention are folded
//! into a separate, unchecked `read_hash`.
//!
//! A new workload then joins one or both harnesses:
//!
//! * **Conformance matrix** — add a `MatrixWorkload` entry to
//!   [`matrix::workloads`] with small parameters (the full policy × fabric
//!   × seed sweep runs every cell many times; aim for well under a second
//!   per cell). The sim matrix, the lossy fault matrix, the weekly extended
//!   sweep and the TCP conformance suite all widen automatically.
//! * **Regression gate** — add the name to `gate::WORKLOADS`, run it in
//!   `run_workload` on the gate's sim fabric, and extend
//!   [`gate::check_internal`] with whatever behaviour the workload pins
//!   down. The gate runs inside tier-1 in a debug build, so keep a cell to
//!   a fraction of a second.
//!
//! Either way the committed outputs move: regenerate them in the same PR
//! (`bench/README.md`, "Committed outputs") and explain every moved row.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod fig2;
pub mod fig3;
pub mod fig5;
pub mod figures;
pub mod gate;
pub mod matrix;
mod table;

use dsm_core::ProtocolConfig;
use dsm_model::ComputeModel;
use dsm_runtime::{ClusterBuilder, SimConfig};

/// Workload scale selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced sizes: same shapes, seconds of runtime. Used by tests and the
    /// default benchmark run.
    Small,
    /// The paper's sizes (1024-vertex ASP, 2048×2048 SOR, 2048-body Nbody,
    /// 12-city TSP, 16 nodes).
    Paper,
}

impl Scale {
    /// Parse the scale from process arguments (`--full` selects
    /// [`Scale::Paper`]).
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--full") {
            Scale::Paper
        } else {
            Scale::Small
        }
    }
}

/// Configure the cluster of an experiment run: the paper's Fast
/// Ethernet network and Pentium-4-class compute model, on the sim fabric
/// under `sim`. Every figure, ablation and gate cell is built here.
pub(crate) fn cluster(nodes: usize, protocol: ProtocolConfig, sim: &SimConfig) -> ClusterBuilder {
    dsm_runtime::Cluster::builder()
        .nodes(nodes)
        .protocol(protocol)
        .compute(ComputeModel::pentium4_2ghz())
        .fabric(dsm_runtime::FabricMode::Sim(*sim))
}

/// The schedules the harness's unit tests assert modeled claims under: the
/// calm sim at [`gate::GATE_SEED`] plus the perturbed sim at each seed of
/// the integration suite's default corpus.
#[cfg(test)]
pub(crate) fn test_sims() -> Vec<SimConfig> {
    let mut sims = vec![SimConfig::calm(gate::GATE_SEED)];
    sims.extend([0x51E5_ED01, 0x51E5_ED02, 0x51E5_ED03].map(SimConfig::perturbed));
    sims
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_default_is_small() {
        // The test binary has no --full flag.
        assert_eq!(Scale::from_args(), Scale::Small);
    }

    #[test]
    fn cluster_builder_uses_requested_nodes() {
        let sim = SimConfig::calm(gate::GATE_SEED);
        let cluster = cluster(8, ProtocolConfig::adaptive(), &sim);
        assert_eq!(cluster.num_nodes(), 8);
        // The caller's exact sim configuration, not merely some sim.
        let fabric = format!("fabric: {:?},", dsm_runtime::FabricMode::Sim(sim));
        assert!(format!("{cluster:?}").contains(&fabric), "{cluster:?}");
        // Only the sim fabric records a delivery trace.
        let report = cluster.build().run(|_| {});
        assert_eq!(report.num_nodes, 8);
        assert!(report.delivery_trace.is_some());
    }
}

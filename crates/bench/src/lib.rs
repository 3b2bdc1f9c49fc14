//! # dsm-bench — the experiment harness
//!
//! One function per figure of the paper's evaluation (Section 5), each
//! returning the rows/series the paper plots, plus report binaries
//! (`fig2`, `fig3`, `fig5`, `ablation_notify`, `ablation_alpha`,
//! `ablation_related`) that print the same data as aligned text tables and
//! CSV.
//!
//! Paper workload sizes (1024-vertex ASP, 2048×2048 SOR, 16 nodes) take a
//! while on a single development machine because the whole cluster is
//! simulated in one process; every harness therefore takes a [`Scale`]
//! knob. `Scale::Small` keeps the shapes of the figures while running in
//! seconds; `Scale::Paper` uses the paper's sizes. Binaries accept `--full`
//! to select the paper scale.
//!
//! Everything here reports **modeled** numbers (message counts, migrations,
//! Hockney time on a virtual clock). [`gate`] is the one regression gate:
//! it runs the modeled workloads and the KV policy sweep on the
//! deterministic sim fabric and requires the rendered document to equal the
//! committed `bench/baseline.json` byte for byte. Wall-clock throughput and
//! latency are measured only by the repo benchmark (`benchmark/`, see
//! `benchmark/README.md`).
//!
//! ## Adding a workload
//!
//! A workload is a function `fn(ClusterConfig) -> (fingerprint, report)` —
//! there is deliberately no trait to implement. The contract is the
//! *fingerprint*: a `u64` (FNV fold, by convention) over the workload's
//! deterministic result, where "deterministic" means *schedule-independent
//! for a fixed `(seed, params, num_nodes)`* — identical across fabrics
//! (threaded / sim / tcp), sim seeds, migration policies and replays. The
//! standard way to get there is single-writer-per-object-per-phase with
//! barriers between phases; values whose outcome depends on timing (e.g.
//! racy reads) must stay out of the fingerprint. `dsm_apps::kv` is the
//! worked example: writes are partitioned by a per-phase [`writer`]
//! rotation so the final store contents fingerprint exactly, while the
//! values *read* under contention are folded into a separate, unchecked
//! `read_hash`.
//!
//! A new workload then joins one or both harnesses:
//!
//! * **Conformance matrix** — add a `MatrixWorkload` entry to
//!   [`matrix::workloads`] with small parameters (the full policy × fabric
//!   × seed sweep runs every cell many times; aim for well under a second
//!   per cell). The sim matrix, the lossy fault matrix, the weekly extended
//!   sweep and the TCP conformance suite all widen automatically.
//! * **Regression gate** — add the name to [`gate::WORKLOADS`], run it in
//!   `run_workload` on the gate's sim fabric, extend
//!   [`gate::check_internal`] with whatever behaviour the workload pins
//!   down, and refresh `bench/baseline.json` with
//!   `bench_gate --write-baseline` in the same PR. The gate runs inside
//!   tier-1 in a debug build, so keep a cell to a fraction of a second.
//!
//! [`writer`]: dsm_apps::kv::writer

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod fig2;
pub mod fig3;
pub mod fig5;
pub mod gate;
pub mod matrix;
pub mod table;

use dsm_core::ProtocolConfig;
use dsm_model::ComputeModel;
use dsm_runtime::{ClusterConfig, FabricMode, SimConfig, TcpConfig};

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
        if std::env::args().any(|a| a == "--full" || a == "--paper") {
            Scale::Paper
        } else {
            Scale::Small
        }
    }
}

/// Build a cluster configuration for an experiment run: the paper's Fast
/// Ethernet network and Pentium-4-class compute model.
pub fn cluster(nodes: usize, protocol: ProtocolConfig) -> ClusterConfig {
    dsm_runtime::Cluster::builder()
        .nodes(nodes)
        .protocol(protocol)
        .compute(ComputeModel::pentium4_2ghz())
        .config()
}

/// As [`cluster`], but on an explicit fabric — the figure harnesses thread
/// this through so paper reproductions can run on the deterministic sim
/// fabric (`--fabric sim --seed N`) and be replayed seed-exactly.
pub fn cluster_on(nodes: usize, protocol: ProtocolConfig, fabric: &FabricMode) -> ClusterConfig {
    cluster(nodes, protocol).with_fabric(fabric.clone())
}

/// Parse the fabric selection from process arguments: `--fabric sim`
/// selects the deterministic sim fabric (seeded by `--seed N`, default
/// 2004; hex `0x...` accepted, so the seeds printed by failure reports can
/// be pasted verbatim); `--fabric tcp` runs the same experiment over real
/// `127.0.0.1` sockets; `--fabric threaded` (or no flag) keeps the
/// threaded fabric.
///
/// # Panics
/// Panics with a usage message on an unknown or missing `--fabric` value,
/// an unparsable or missing `--seed` value, or a `--seed` without
/// `--fabric sim` (only the sim fabric is seeded), so a typo cannot
/// silently fall back to a different experiment.
pub fn fabric_from_args() -> FabricMode {
    fabric_from(&std::env::args().collect::<Vec<_>>())
}

fn fabric_from(args: &[String]) -> FabricMode {
    const USAGE: &str = "usage: [--fabric threaded|sim|tcp] [--seed N, with --fabric sim only]";
    let value_of = |flag: &str| -> Option<&str> {
        let at = args.iter().position(|a| a == flag)?;
        match args.get(at + 1) {
            Some(value) => Some(value.as_str()),
            None => panic!("{flag} needs a value ({USAGE})"),
        }
    };
    let fabric = value_of("--fabric");
    let seed = value_of("--seed").map(|s| {
        dsm_util::parse_seed(s).unwrap_or_else(|e| panic!("--seed {s:?} is invalid: {e} ({USAGE})"))
    });
    if seed.is_some() && fabric != Some("sim") {
        panic!("--seed only applies to --fabric sim ({USAGE})");
    }
    match fabric {
        None | Some("threaded") => FabricMode::Threaded,
        Some("sim") => FabricMode::Sim(SimConfig::perturbed(seed.unwrap_or(2004))),
        Some("tcp") => FabricMode::Tcp(TcpConfig::default()),
        Some(other) => panic!("unknown --fabric {other:?} ({USAGE})"),
    }
}

/// A one-line caveat the figure binaries print for fabrics that change how
/// the experiment should be read; `None` when nothing needs saying. The
/// modeled-time figures are defined by the virtual clock, which is
/// fabric-independent — the TCP note exists because readers reasonably
/// suspect real sockets would perturb them, and they do not.
pub fn fabric_note(fabric: &FabricMode) -> Option<&'static str> {
    match fabric {
        FabricMode::Threaded | FabricMode::Sim(_) => None,
        FabricMode::Tcp(_) => Some(
            "note: --fabric tcp moves real bytes over 127.0.0.1, but the figures below \
             plot modeled virtual time, which is fabric-independent; sim/loopback \
             produce the same numbers without socket overhead",
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_default_is_small() {
        // The test binary has no --full flag.
        assert_eq!(Scale::from_args(), Scale::Small);
    }

    fn fabric(args: &[&str]) -> FabricMode {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        fabric_from(&args)
    }

    #[test]
    fn fabric_args_select_the_fabric_and_seed() {
        assert!(matches!(fabric(&["fig3"]), FabricMode::Threaded));
        assert!(matches!(
            fabric(&["fig3", "--full", "--fabric", "threaded"]),
            FabricMode::Threaded
        ));
        assert!(matches!(
            fabric(&["fig3", "--fabric", "tcp"]),
            FabricMode::Tcp(_)
        ));
        let FabricMode::Sim(sim) = fabric(&["fig3", "--fabric", "sim"]) else {
            panic!("--fabric sim must select the sim fabric");
        };
        assert_eq!(sim.seed, 2004);
        let FabricMode::Sim(sim) = fabric(&["fig3", "--seed", "0x2a", "--fabric", "sim"]) else {
            panic!("--fabric sim must select the sim fabric");
        };
        assert_eq!(sim.seed, 42);
    }

    #[test]
    #[should_panic(expected = "--fabric needs a value")]
    fn fabric_flag_without_a_value_is_rejected() {
        fabric(&["fig3", "--fabric"]);
    }

    #[test]
    #[should_panic(expected = "--seed only applies to --fabric sim")]
    fn seed_without_the_sim_fabric_is_rejected() {
        fabric(&["fig3", "--seed", "7"]);
    }

    #[test]
    #[should_panic(expected = "--seed only applies to --fabric sim")]
    fn seed_with_another_fabric_is_rejected() {
        fabric(&["fig3", "--fabric", "tcp", "--seed", "7"]);
    }

    #[test]
    #[should_panic(expected = "unknown --fabric")]
    fn unknown_fabric_is_rejected() {
        fabric(&["fig3", "--fabric", "simm"]);
    }

    #[test]
    fn cluster_builder_uses_requested_nodes() {
        let cfg = cluster(8, ProtocolConfig::adaptive());
        assert_eq!(cfg.num_nodes, 8);
    }
}

//! Cross-crate integration test package.
//!
//! The tests live in `tests/tests/*.rs` and exercise the whole stack —
//! object space, protocol engine, runtime and applications — against the
//! paper's claims. This library target only hosts shared helpers.

#![forbid(unsafe_code)]

use dsm_core::ProtocolConfig;
use dsm_model::ComputeModel;
use dsm_runtime::{ClusterBuilder, FabricMode, SimConfig, TcpConfig};
use dsm_util::seed_corpus;

/// Configure a fast (zero-compute-cost) cluster for tests.
pub fn test_cluster(nodes: usize, protocol: ProtocolConfig) -> ClusterBuilder {
    dsm_runtime::Cluster::builder()
        .nodes(nodes)
        .protocol(protocol)
        .compute(ComputeModel::free())
}

/// As [`test_cluster`], but on the deterministic sim fabric with the given
/// perturbation configuration (event-driven, seed-replayable schedules).
pub fn sim_test_cluster(nodes: usize, protocol: ProtocolConfig, sim: SimConfig) -> ClusterBuilder {
    dsm_runtime::Cluster::builder()
        .nodes(nodes)
        .protocol(protocol)
        .compute(ComputeModel::free())
        .fabric(FabricMode::Sim(sim))
}

/// As [`test_cluster`], but on the real TCP fabric (`127.0.0.1` sockets,
/// `dsm-wire` framing) with the given timeout configuration. Conformance
/// suites pair this with [`test_cluster`] and assert fingerprint
/// equality.
pub fn tcp_test_cluster(nodes: usize, protocol: ProtocolConfig, tcp: TcpConfig) -> ClusterBuilder {
    dsm_runtime::Cluster::builder()
        .nodes(nodes)
        .protocol(protocol)
        .compute(ComputeModel::free())
        .fabric(FabricMode::Tcp(tcp))
}

/// The `index`-th seed of [`dsm_util::seed_corpus`], wrapping around — lets
/// a fixed set of named test functions draw from a corpus of any
/// (overridden) size.
pub fn corpus_seed(index: usize) -> u64 {
    let corpus = seed_corpus();
    corpus[index % corpus.len()]
}

/// Two *distinct* seeds from the corpus, for suites that compare schedules
/// across seeds: the first two distinct corpus entries, or, when the
/// (overridden) corpus holds one seed, that seed and the first
/// [`dsm_util::derived_seeds`] that differs from it.
pub fn seed_pair() -> (u64, u64) {
    let corpus = seed_corpus();
    let first = corpus[0];
    let second = corpus
        .into_iter()
        .chain(dsm_util::derived_seeds(2))
        .find(|&s| s != first)
        .expect("two distinct derived seeds");
    (first, second)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_corpus_is_used_without_override() {
        // The test runner may set DSM_SEEDS globally; only assert the
        // env-free behaviour when it is absent.
        if std::env::var("DSM_SEEDS").is_err() {
            let corpus = dsm_util::derived_seeds(3);
            assert_eq!(seed_corpus(), corpus);
            assert_eq!(corpus_seed(0), corpus[0]);
            assert_eq!(corpus_seed(3), corpus[0], "index wraps");
            let (a, b) = seed_pair();
            assert_ne!(a, b);
        }
    }
}

//! TCP fabric conformance: the real-socket transport must be semantically
//! invisible. Every cell run over `127.0.0.1` sockets in the `dsm-wire`
//! binary format must produce the same result fingerprint as the threaded
//! reference and keep the protocol invariants.
//!
//! Seeds come from the shared corpus (`DSM_SEEDS` overridable), so a
//! failure names the exact seed: "seed 0x51E5ED01 diverged on SOR/tcp".

use dsm_bench::matrix::{self, check_invariants};
use dsm_core::ProtocolConfig;
use dsm_integration_tests::corpus_seed;
use dsm_runtime::{FabricMode, TcpConfig};

/// Run one matrix workload on the TCP fabric and on the threaded
/// reference under a named corpus seed, asserting fingerprint equality and
/// the protocol invariants.
fn assert_tcp_conforms(workload_name: &str, protocol: ProtocolConfig, seed: u64) {
    let workload = matrix::workloads()
        .into_iter()
        .find(|w| w.name == workload_name)
        .unwrap_or_else(|| panic!("unknown matrix workload {workload_name}"));

    let reference =
        workload.run(matrix::matrix_cluster(protocol.clone(), FabricMode::Threaded).seed(seed));
    let tcp = workload.run(
        matrix::matrix_cluster(protocol.clone(), FabricMode::Tcp(TcpConfig::default())).seed(seed),
    );

    assert_eq!(
        tcp.fingerprint, reference.fingerprint,
        "seed {seed:#x} diverged on {workload_name}/tcp: \
         tcp fingerprint {:#018x} != loopback {:#018x}",
        tcp.fingerprint, reference.fingerprint
    );
    let violations = check_invariants(&tcp.report);
    assert!(
        violations.is_empty(),
        "seed {seed:#x} violated protocol invariants on {workload_name}/tcp: {violations:?}"
    );
}

#[test]
fn sor_fingerprint_matches_loopback_over_tcp() {
    assert_tcp_conforms("SOR", ProtocolConfig::adaptive(), corpus_seed(0));
}

#[test]
fn synthetic_fingerprint_matches_loopback_over_tcp() {
    assert_tcp_conforms("synthetic", ProtocolConfig::adaptive(), corpus_seed(1));
}

#[test]
fn tsp_fingerprint_matches_loopback_over_tcp() {
    assert_tcp_conforms("TSP", ProtocolConfig::adaptive(), corpus_seed(2));
}

#[test]
fn kv_fingerprint_matches_loopback_over_tcp() {
    assert_tcp_conforms("KV", ProtocolConfig::adaptive(), corpus_seed(0));
}

/// Every built-in migration policy conforms on the synthetic workload —
/// migration, redirection and batching traffic all cross real sockets.
#[test]
fn every_policy_conforms_on_the_synthetic_workload_over_tcp() {
    for (i, (label, protocol)) in matrix::policies().into_iter().enumerate() {
        let seed = corpus_seed(i);
        let workload = matrix::workloads()
            .into_iter()
            .find(|w| w.name == "synthetic")
            .expect("synthetic workload exists");
        let reference =
            workload.run(matrix::matrix_cluster(protocol.clone(), FabricMode::Threaded).seed(seed));
        let tcp = workload.run(
            matrix::matrix_cluster(protocol, FabricMode::Tcp(TcpConfig::default())).seed(seed),
        );
        assert_eq!(
            tcp.fingerprint, reference.fingerprint,
            "policy {label} (seed {seed:#x}) diverged between tcp and loopback"
        );
    }
}

/// The corpus sweep on SOR: every corpus seed crosses the sockets and
/// conforms, so an overridden `DSM_SEEDS` list sweeps TCP too.
#[test]
fn sor_conforms_across_the_whole_seed_corpus_over_tcp() {
    for seed in dsm_util::seed_corpus() {
        assert_tcp_conforms("SOR", ProtocolConfig::fixed_threshold(2), seed);
    }
}

//! Cross-crate integration test package.
//!
//! The tests live in `tests/tests/*.rs` and exercise the whole stack —
//! object space, protocol engine, runtime and applications — against the
//! paper's claims. This library target only hosts shared helpers.

#![forbid(unsafe_code)]

use dsm_core::ProtocolConfig;
use dsm_model::ComputeModel;
use dsm_runtime::{ClusterBuilder, FabricMode, SimConfig, TcpConfig};

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

/// The default seed corpus every seeded suite draws from. Chosen once so a
/// failure report ("seed 0x51E5ED02 diverged") replays across suites.
pub const DEFAULT_SEED_CORPUS: [u64; 3] = [0x51E5_ED01, 0x51E5_ED02, 0x51E5_ED03];

/// The shared seed corpus: [`DEFAULT_SEED_CORPUS`] unless the `DSM_SEEDS`
/// environment variable overrides it with a comma/space-separated list of
/// integers (hex with a `0x` prefix, decimal otherwise) — e.g.
/// `DSM_SEEDS=0xBAD5EED,7` replays two specific schedules through every
/// corpus-driven suite without touching code.
///
/// # Panics
/// Panics on an unparsable `DSM_SEEDS` entry or an empty override — a typo
/// silently falling back to the default corpus would fake a reproduction.
pub fn seed_corpus() -> Vec<u64> {
    match std::env::var("DSM_SEEDS") {
        Err(_) => DEFAULT_SEED_CORPUS.to_vec(),
        Ok(raw) => parse_seed_list(&raw)
            .unwrap_or_else(|e| panic!("DSM_SEEDS override {raw:?} is invalid: {e}")),
    }
}

/// Parse a comma/space-separated seed list (the `DSM_SEEDS` format).
///
/// Every malformed entry is an error naming the offending token — an
/// empty list, a leading/trailing/doubled comma or a non-numeric token
/// must never silently shrink the corpus to fewer seeds than the caller's
/// assertions claim.
pub fn parse_seed_list(raw: &str) -> Result<Vec<u64>, String> {
    if raw.trim().is_empty() {
        return Err("it contains no seeds".to_string());
    }
    let fields: Vec<&str> = raw.split(',').collect();
    let last = fields.len() - 1;
    let mut seeds = Vec::new();
    for (i, field) in fields.iter().enumerate() {
        if field.trim().is_empty() {
            let hint = match i {
                0 => "leading comma",
                _ if i == last => "trailing comma",
                _ => "doubled comma",
            };
            return Err(format!("comma-field {} is empty ({hint})", i + 1));
        }
        for token in field.split_whitespace() {
            seeds.push(dsm_util::parse_seed(token).map_err(|e| format!("entry {token:?}: {e}"))?);
        }
    }
    Ok(seeds)
}

/// The schedules every assertion on modeled time, message counts or
/// migration counts runs under: the calm sim at the gate seed (2004) plus
/// the perturbed sim at each corpus seed. On the sim those numbers are a
/// pure function of the seed, so such a claim cannot flake on the OS
/// scheduler; threaded and TCP runs assert only contents and fingerprints.
pub fn modeled_sims() -> Vec<SimConfig> {
    let mut sims = vec![SimConfig::calm(2004)];
    sims.extend(seed_corpus().into_iter().map(SimConfig::perturbed));
    sims
}

/// The `index`-th corpus seed, wrapping around — lets a fixed set of named
/// test functions draw from a corpus of any (overridden) size.
pub fn corpus_seed(index: usize) -> u64 {
    let corpus = seed_corpus();
    corpus[index % corpus.len()]
}

/// Two *distinct* seeds derived from the corpus, for suites that compare
/// schedules across seeds: the first two corpus entries, or a derived
/// second seed when the (overridden) corpus has only one entry.
pub fn seed_pair() -> (u64, u64) {
    let corpus = seed_corpus();
    let first = corpus[0];
    let second = corpus
        .iter()
        .copied()
        .find(|&s| s != first)
        .unwrap_or(first ^ 0x9E37_79B9_7F4A_7C15);
    (first, second)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_lists_parse_hex_decimal_and_mixed_separators() {
        assert_eq!(parse_seed_list("7"), Ok(vec![7]));
        assert_eq!(parse_seed_list("0x10,2"), Ok(vec![16, 2]));
        assert_eq!(parse_seed_list("1, 2 3"), Ok(vec![1, 2, 3]));
        assert_eq!(parse_seed_list(" 1 2 "), Ok(vec![1, 2]));
    }

    #[test]
    fn malformed_seed_lists_fail_loudly_naming_the_token() {
        let empty = parse_seed_list("").unwrap_err();
        assert!(empty.contains("no seeds"), "got: {empty}");
        let blank = parse_seed_list("  ").unwrap_err();
        assert!(blank.contains("no seeds"), "got: {blank}");
        let trailing = parse_seed_list("1,2,").unwrap_err();
        assert!(trailing.contains("trailing comma"), "got: {trailing}");
        let doubled = parse_seed_list("1,,2").unwrap_err();
        assert!(doubled.contains("doubled comma"), "got: {doubled}");
        let leading = parse_seed_list(",1").unwrap_err();
        assert!(leading.contains("leading comma"), "got: {leading}");
        let bad = parse_seed_list("1,banana,3").unwrap_err();
        assert!(bad.contains("\"banana\""), "got: {bad}");
    }

    #[test]
    fn default_corpus_is_used_without_override() {
        // The test runner may set DSM_SEEDS globally; only assert the
        // env-free behaviour when it is absent.
        if std::env::var("DSM_SEEDS").is_err() {
            assert_eq!(seed_corpus(), DEFAULT_SEED_CORPUS.to_vec());
            assert_eq!(corpus_seed(0), DEFAULT_SEED_CORPUS[0]);
            assert_eq!(corpus_seed(3), DEFAULT_SEED_CORPUS[0], "index wraps");
            let (a, b) = seed_pair();
            assert_ne!(a, b);
        }
    }
}

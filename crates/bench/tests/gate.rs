//! The regression gate, run for real inside tier-1: every cell on the sim
//! fabric, the internal claims, and byte equality with the committed
//! `bench/baseline.json`. (A test target of its own, so the sim sweep never
//! competes for CPU with the crate's OS-scheduled threaded-fabric tests.)

use dsm_bench::{gate, Scale};
use std::sync::OnceLock;

/// One real collection, rendered and checked — shared by both tests so
/// tier-1 pays for two collections, not three.
fn collected() -> &'static (String, Vec<String>) {
    static COLLECTED: OnceLock<(String, Vec<String>)> = OnceLock::new();
    COLLECTED.get_or_init(|| {
        let (rows, kv) = (gate::collect(Scale::Small), gate::collect_kv());
        (gate::to_json(&rows, &kv), gate::check_internal(&rows, &kv))
    })
}

#[test]
fn committed_baseline_is_current() {
    let (document, violations) = collected();
    assert_eq!(violations, &Vec::<String>::new());
    let drift = gate::diff(document, include_str!("../../../bench/baseline.json"));
    assert!(
        drift.is_empty(),
        "bench/baseline.json is stale — if the change is deliberate, refresh it with \
         `cargo run -p dsm-bench --release --bin bench_gate -- --write-baseline`:\n  - {}",
        drift.join("\n  - ")
    );
}

#[test]
fn gate_document_is_byte_identical_across_two_collections() {
    let again = gate::to_json(&gate::collect(Scale::Small), &gate::collect_kv());
    assert_eq!(gate::diff(&again, &collected().0), Vec::<String>::new());
}

//! `dsm_util::IdHasher` on the key shapes the protocol's maps hold.
//!
//! A `HashMap` picks a key's bucket by the low bits of its hash, in a table
//! whose size is a power of two. Each case below puts one real key shape
//! into a table of `n.next_power_of_two()` buckets (std's tables are at
//! least that large for `n` keys, so this is the fuller case) and checks
//! the spread against what a uniformly random hash gives:
//!
//! * **occupied buckets ≥ n / 2** — a random hash leaves `m(1 − e^{−n/m})`
//!   buckets occupied, at least 63 % of `n` for `n ≤ m`;
//! * **maximum bucket load ≤ 8** — for a random hash with `n ≤ 2048` keys
//!   in `m ≥ n` buckets, the chance that any bucket gets 9 is below 0.3 %.
//!
//! Shapes whose ids differ only in their high bits (request ids of different
//! nodes, the high-bit case) pass only because `finish` folds the high half
//! of its product into the low bits.

use dsm_core::ReqId;
use dsm_objspace::{BarrierId, LockId, ObjectId};
use dsm_util::IdMap;
use std::hash::{BuildHasher, Hash};

const MAX_LOAD: usize = 8;

/// Occupied buckets and the largest bucket load of `keys` in a table of
/// `keys.len().next_power_of_two()` buckets indexed by the hash's low bits.
fn spread<K: Hash>(keys: &[K]) -> (usize, usize) {
    let hasher = IdMap::<K, ()>::default().hasher().clone();
    let buckets = keys.len().next_power_of_two();
    let mut loads = vec![0usize; buckets];
    for key in keys {
        loads[hasher.hash_one(key) as usize & (buckets - 1)] += 1;
    }
    let occupied = loads.iter().filter(|&&load| load > 0).count();
    let max = loads.iter().copied().max().unwrap_or(0);
    (occupied, max)
}

fn assert_spread<K: Hash>(shape: &str, keys: &[K]) {
    let n = keys.len();
    let (occupied, max) = spread(keys);
    assert!(
        occupied * 2 >= n,
        "{shape}: {n} keys occupy only {occupied} of {} buckets",
        n.next_power_of_two()
    );
    assert!(
        max <= MAX_LOAD,
        "{shape}: a bucket holds {max} of {n} keys (bound {MAX_LOAD})"
    );
}

#[test]
fn sor_matrix_rows_spread() {
    let rows: Vec<ObjectId> = (0..2048)
        .map(|row| ObjectId::derive("bench.sor.matrix", row))
        .collect();
    assert_spread("2048 bench.sor.matrix rows", &rows);
}

#[test]
fn kv_store_rows_spread() {
    let rows: Vec<ObjectId> = (0..64)
        .map(|row| ObjectId::derive("bench.kv.store", row))
        .collect();
    assert_spread("64 bench.kv.store rows", &rows);
}

#[test]
fn request_ids_of_four_nodes_spread() {
    // `ProtocolEngine::new_req`: the node in bits 48.., a per-node sequence
    // number below. Every node issues the same sequence numbers, so the ids
    // of one sequence number differ only in their high bits.
    let reqs: Vec<ReqId> = (0..4u64)
        .flat_map(|node| (1..=512u64).map(move |seq| ReqId((node << 48) | seq)))
        .collect();
    assert_spread("4 × 512 request ids", &reqs);
}

#[test]
fn lock_and_barrier_ids_spread() {
    let locks: Vec<LockId> = (0..256)
        .map(|node| LockId::derive(&format!("bench.kv.interval.{node}")))
        .collect();
    assert_spread("256 per-node interval locks", &locks);
    let barriers: Vec<BarrierId> = (0..256).chain(900..903).map(BarrierId).collect();
    assert_spread("259 sequential barrier ids", &barriers);
}

#[test]
fn link_pairs_spread() {
    for nodes in [4u16, 8, 32] {
        let links: Vec<(u16, u16)> = (0..nodes)
            .flat_map(|src| (0..nodes).map(move |dst| (src, dst)))
            .filter(|(src, dst)| src != dst)
            .collect();
        assert_spread(&format!("(src, dst) links of {nodes} nodes"), &links);
    }
}

#[test]
fn ids_differing_only_above_bit_40_spread() {
    let high: Vec<u64> = (1..=1024u64).map(|i| i << 40).collect();
    assert_spread("1024 ids differing above bit 40", &high);
    let object_like: Vec<ObjectId> = (1..=1024u64)
        .map(|i| ObjectId((i << 40) | 0x00ab_cdef))
        .collect();
    assert_spread("1024 object ids sharing their low 40 bits", &object_like);
}

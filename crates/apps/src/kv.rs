//! A Zipfian key-value serving workload — the regression gate's policy sweep.
//!
//! Unlike the paper's scientific kernels, this workload models a serving
//! system: every node is a frontend executing a stream of point reads and
//! writes against a shared store of `num_objects` coherence units holding
//! `keys_per_object` slots each. Three properties make it interesting for
//! home migration and still deterministic enough for the conformance
//! matrix:
//!
//! * **Zipfian skew** — keys are drawn rank-first from a seeded Zipfian
//!   distribution with configurable exponent `s`, so a small hot set
//!   receives most of the traffic.
//! * **Shifting hot set** — the run is split into phases; each phase both
//!   rotates every object's designated writer ([`writer`]) and rotates
//!   which objects the hot ranks land on ([`hot_object`]), so homes placed
//!   by a migration policy during one phase are wrong for the next and the
//!   protocol must chase the traffic.
//! * **Single writer per object per phase** — within a phase each object is
//!   written only by its designated writer, and phases are separated by
//!   barriers. The *final* store contents are therefore a pure function of
//!   the cluster seed — the FNV [fingerprint](KvRun::fingerprint) is
//!   bit-identical across fabrics, schedules and policies — while the
//!   *read* results stay timing-dependent and are deliberately kept out of
//!   the fingerprint (see [`KvNodeStats::read_hash`]).
//!
//! Each node batches `ops_per_interval` operations inside one acquire /
//! release pair of a private lock, so diff flushing happens at a realistic
//! interval granularity rather than per write. Per-window protocol-counter
//! snapshots (via [`NodeCtx::protocol_stats`]) let the regression gate
//! attribute redirections to the window right after a hot-set shift versus
//! the settled remainder of a phase.

use crate::outcome::ResultSlot;
use dsm_core::ProtocolStats;
use dsm_objspace::{BarrierId, HomeAssignment, LockId, NodeId, ObjectRegistry};
use dsm_runtime::{Cluster, ClusterConfig, ExecutionReport, Matrix2dHandle, NodeCtx};
use dsm_util::{Mutex, SmallRng};
use std::sync::Arc;

/// Registered name of the store's row objects.
const STORE_NAME: &str = "kv.store";

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(FNV_PRIME)
}

/// Key-value serving parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct KvParams {
    /// Number of store objects (coherence units). Homes are assigned
    /// round-robin, so with `num_objects >= num_nodes` every node starts as
    /// home of some share of the store.
    pub num_objects: usize,
    /// Slots per object. One object is one diff/fault-in granule, so this
    /// controls the payload size of the coherence traffic.
    pub keys_per_object: usize,
    /// Operations executed by each node (reads + writes).
    pub ops_per_node: u64,
    /// Zipfian exponent `s` of the key popularity distribution (larger is
    /// more skewed; `1.0` is the classic Zipf).
    pub zipf_s: f64,
    /// Percentage of operations that are writes (0–100).
    pub write_percent: u32,
    /// Operations batched inside one acquire/release interval — the diff
    /// flush granularity.
    pub ops_per_interval: usize,
    /// Number of hot-set phases. Each phase rotates writers and shifts the
    /// hot ranks onto different objects.
    pub phases: usize,
    /// Measurement windows per phase. The first window of a phase observes
    /// the traffic shift; later windows observe the settled placement.
    pub windows_per_phase: usize,
}

impl KvParams {
    /// The regression gate's configuration: heavy skew, an even read/write
    /// mix and three hot-set phases, sized so the seven-policy sweep on the
    /// sim fabric stays seconds-scale inside a debug-build `cargo test`.
    pub fn gate() -> Self {
        KvParams {
            num_objects: 64,
            keys_per_object: 64,
            ops_per_node: 6_000,
            zipf_s: 1.1,
            write_percent: 50,
            ops_per_interval: 32,
            phases: 3,
            windows_per_phase: 2,
        }
    }

    /// A tiny configuration for the conformance matrix and tests.
    pub fn small() -> Self {
        KvParams {
            num_objects: 6,
            keys_per_object: 8,
            ops_per_node: 96,
            zipf_s: 1.2,
            write_percent: 50,
            ops_per_interval: 8,
            phases: 2,
            windows_per_phase: 2,
        }
    }

    /// Total measurement windows in a run.
    pub fn windows(&self) -> usize {
        self.phases * self.windows_per_phase
    }

    fn validate(&self, num_nodes: usize) {
        assert!(self.num_objects >= num_nodes, "fewer objects than nodes");
        assert!(self.keys_per_object >= 1, "empty objects");
        assert!(self.phases >= 1 && self.windows_per_phase >= 1);
        assert!((0..=100).contains(&self.write_percent));
        assert!(self.ops_per_interval >= 1);
        assert_eq!(
            self.ops_per_node % self.windows() as u64,
            0,
            "ops_per_node must divide evenly into {} windows",
            self.windows()
        );
    }
}

/// A seeded Zipfian sampler over ranks `0..n`: rank `k` is drawn with
/// probability proportional to `1 / (k + 1)^s`. Implemented as a
/// precomputed CDF walked by binary search — construction is `O(n)`,
/// sampling `O(log n)`, and the same seed always replays the same rank
/// sequence.
#[derive(Debug, Clone)]
pub struct ZipfianSampler {
    cdf: Vec<f64>,
}

impl ZipfianSampler {
    /// Build a sampler over `n` ranks with exponent `s`.
    ///
    /// # Panics
    /// Panics if `n` is zero or `s` is not finite and non-negative.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "empty rank space");
        assert!(s.is_finite() && s >= 0.0, "bad exponent {s}");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in cdf.iter_mut() {
            *c /= total;
        }
        // Guard against floating-point shortfall so sampling can never
        // index past the last rank.
        *cdf.last_mut().expect("n > 0") = 1.0;
        ZipfianSampler { cdf }
    }

    /// Draw a rank in `0..n` (rank 0 is the most popular).
    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        let r = rng.next_f64();
        self.cdf.partition_point(|&c| c <= r)
    }

    /// The probability of rank `k`.
    pub fn probability(&self, k: usize) -> f64 {
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }
}

/// The object a popularity rank lands on during `phase`: the rank order is
/// rotated by one stride (`num_objects / phases`) per phase, so the hot
/// ranks move to a disjoint set of objects at every phase boundary.
pub fn hot_object(rank: usize, phase: usize, num_objects: usize, phases: usize) -> usize {
    let stride = (num_objects / phases).max(1);
    (rank + phase * stride) % num_objects
}

/// The node designated to write object `obj` during `phase`. The rotation
/// is chosen so that under round-robin initial homes (`obj % num_nodes`)
/// the writer of a phase is remote from the object's *initial* home
/// whenever `(phase + 1) % num_nodes != 0` — with the default
/// `phases < num_nodes` every write starts remote, which is precisely the
/// traffic a migration policy should chase.
pub fn writer(obj: usize, phase: usize, num_nodes: usize) -> usize {
    (obj + phase + 1) % num_nodes
}

/// One node's serving counters.
#[derive(Debug, Clone)]
pub struct KvNodeStats {
    /// The node.
    pub node: NodeId,
    /// Operations this node executed.
    pub ops: u64,
    /// Protocol-counter snapshots: one before the first window, then one
    /// after each window (`windows() + 1` entries). Requester-side counters
    /// (notably `redirections_suffered`) only advance during this node's
    /// own operations, so consecutive-snapshot deltas attribute them to
    /// windows race-free.
    pub windows: Vec<ProtocolStats>,
    /// FNV fold of every value this node read. Timing-dependent (reads race
    /// with remote writers), so it is *not* part of the fingerprint; it
    /// exists to keep the read path honest and as a debugging breadcrumb.
    pub read_hash: u64,
}

/// A completed KV serving run.
#[derive(Debug, Clone)]
pub struct KvRun {
    /// FNV-1a-style fingerprint of the final store contents, read by the
    /// master after the end barrier. Deterministic for a given
    /// (seed, params, num_nodes) triple — independent of fabric, schedule
    /// and migration policy.
    pub fingerprint: u64,
    /// Per-node serving counters, indexed by node id.
    pub nodes: Vec<KvNodeStats>,
    /// The runtime execution report (messages, migrations, modeled time).
    pub report: ExecutionReport,
}

fn kv_node(
    ctx: &NodeCtx,
    store: &Matrix2dHandle<u64>,
    params: &KvParams,
    stats: &Mutex<Vec<Option<KvNodeStats>>>,
    slot: &ResultSlot<u64>,
) {
    let me = ctx.node_id();
    let num_nodes = ctx.num_nodes();
    let start_barrier = BarrierId(900);
    let window_barrier = BarrierId(901);
    let end_barrier = BarrierId(902);
    let my_lock = LockId::derive(&format!("kv.interval.{}", me.0));
    let mut rng = ctx.node_rng();
    let read_sampler = ZipfianSampler::new(params.num_objects, params.zipf_s);
    let windows = params.windows();
    let ops_per_window = params.ops_per_node / windows as u64;

    let mut read_hash = FNV_BASIS;
    let mut snapshots = Vec::with_capacity(windows + 1);
    let mut owned: Vec<usize> = Vec::new();
    let mut write_sampler: Option<ZipfianSampler> = None;

    ctx.barrier(start_barrier);
    snapshots.push(ctx.protocol_stats());

    for w in 0..windows {
        let phase = w / params.windows_per_phase;
        if w % params.windows_per_phase == 0 {
            // Phase boundary: writer rotation and hot-set shift. The window
            // barrier below doubles as the phase barrier, so the previous
            // phase's diffs are all home before the new writers start.
            owned = (0..params.num_objects)
                .filter(|&o| writer(o, phase, num_nodes) == me.0 as usize)
                .collect();
            write_sampler =
                (!owned.is_empty()).then(|| ZipfianSampler::new(owned.len(), params.zipf_s));
        }

        let mut done = 0u64;
        while done < ops_per_window {
            let batch = params
                .ops_per_interval
                .min((ops_per_window - done) as usize);
            ctx.acquire(my_lock);
            for _ in 0..batch {
                // The type draw happens unconditionally so a node's rng
                // stream is a pure function of the parameters.
                let wants_write = rng.next_u64() % 100 < u64::from(params.write_percent);
                match (&write_sampler, wants_write) {
                    (Some(sampler), true) => {
                        // Writes stay within this phase's owned set — the
                        // single-writer discipline that keeps the final
                        // store contents schedule-independent.
                        let obj = owned[sampler.sample(&mut rng)];
                        let key = rng.gen_index(params.keys_per_object);
                        let value = rng.next_u64();
                        ctx.view_mut(store.row(obj))[key] = value;
                    }
                    _ => {
                        let rank = read_sampler.sample(&mut rng);
                        let obj = hot_object(rank, phase, params.num_objects, params.phases);
                        let key = rng.gen_index(params.keys_per_object);
                        let value = ctx.view(store.row(obj))[key];
                        read_hash = fnv(read_hash, value);
                    }
                }
            }
            ctx.release(my_lock);
            done += batch as u64;
        }
        ctx.barrier(window_barrier);
        snapshots.push(ctx.protocol_stats());
    }

    ctx.barrier(end_barrier);
    if ctx.is_master() {
        let mut h = FNV_BASIS;
        for o in 0..params.num_objects {
            h = fnv(h, o as u64);
            let row = ctx.view(store.row(o));
            for k in 0..params.keys_per_object {
                h = fnv(h, row[k]);
            }
        }
        slot.publish(h);
    }
    ctx.barrier(end_barrier);

    stats.lock()[me.0 as usize] = Some(KvNodeStats {
        node: me,
        ops: params.ops_per_node,
        windows: snapshots,
        read_hash,
    });
}

/// Run the KV serving workload and return the fingerprint, the per-node
/// serving counters and the execution report.
pub fn run(config: ClusterConfig, params: &KvParams) -> KvRun {
    let num_nodes = config.num_nodes;
    params.validate(num_nodes);
    let mut registry = ObjectRegistry::new();
    let store: Matrix2dHandle<u64> = Matrix2dHandle::register(
        &mut registry,
        STORE_NAME,
        params.num_objects,
        params.keys_per_object,
        NodeId::MASTER,
        HomeAssignment::RoundRobin,
    );
    let slot = ResultSlot::new();
    let stats: Arc<Mutex<Vec<Option<KvNodeStats>>>> =
        Arc::new(Mutex::new((0..num_nodes).map(|_| None).collect()));
    let slot_in = slot.clone();
    let stats_in = Arc::clone(&stats);
    let params_in = params.clone();
    let report = Cluster::new(config, registry).run(move |ctx| {
        kv_node(ctx, &store, &params_in, &stats_in, &slot_in);
    });
    let nodes = stats
        .lock()
        .drain(..)
        .map(|s| s.expect("every node publishes its serving stats"))
        .collect();
    KvRun {
        fingerprint: slot.take(),
        nodes,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_core::ProtocolConfig;
    use dsm_model::ComputeModel;

    fn cfg(nodes: usize, protocol: ProtocolConfig) -> ClusterConfig {
        ClusterConfig::new(nodes, protocol).with_compute(ComputeModel::free())
    }

    #[test]
    fn zipf_cdf_is_normalized_and_rank_frequency_monotone() {
        let sampler = ZipfianSampler::new(16, 1.1);
        assert_eq!(sampler.cdf.len(), 16);
        assert!(sampler.cdf.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*sampler.cdf.last().unwrap(), 1.0);
        // Exact rank probabilities are monotone decreasing by construction.
        for k in 1..16 {
            assert!(sampler.probability(k) < sampler.probability(k - 1));
        }
        // Empirically: rank 0 dominates and the head outdraws the tail.
        let mut rng = SmallRng::seed_from_u64(7);
        let mut counts = [0u32; 16];
        for _ in 0..40_000 {
            counts[sampler.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[8]);
        let head: u32 = counts[..4].iter().sum();
        let tail: u32 = counts[8..].iter().sum();
        assert!(head > tail * 2, "head {head} vs tail {tail}");
    }

    #[test]
    fn zipf_replay_is_bit_identical() {
        let sampler = ZipfianSampler::new(64, 1.1);
        let draw = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..1000)
                .map(|_| sampler.sample(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
    }

    #[test]
    fn hot_set_shifts_on_the_phase_schedule() {
        let p = KvParams::gate();
        // The most popular ranks land on disjoint objects in each phase.
        let hot: Vec<usize> = (0..p.phases)
            .map(|phase| hot_object(0, phase, p.num_objects, p.phases))
            .collect();
        assert_eq!(hot.len(), 3);
        assert!(hot[0] != hot[1] && hot[1] != hot[2] && hot[0] != hot[2]);
        // Within a phase the mapping is a bijection on objects.
        for phase in 0..p.phases {
            let mut seen = vec![false; p.num_objects];
            for rank in 0..p.num_objects {
                seen[hot_object(rank, phase, p.num_objects, p.phases)] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn writers_rotate_and_start_remote_from_round_robin_homes() {
        // With the default phases (3) on four nodes, (phase + 1) % 4 is
        // never zero, so the writer is always remote from the initial home.
        for phase in 0..3 {
            for obj in 0..64 {
                assert_ne!(writer(obj, phase, 4), obj % 4);
            }
        }
        // And consecutive phases pick different writers for every object.
        for obj in 0..64 {
            assert_ne!(writer(obj, 0, 4), writer(obj, 1, 4));
        }
    }

    #[test]
    fn run_reports_ops_windows_and_latency() {
        let p = KvParams::small();
        let run = run(cfg(4, ProtocolConfig::adaptive()), &p);
        assert_eq!(run.nodes.len(), 4);
        for node in &run.nodes {
            assert_eq!(node.ops, p.ops_per_node);
            assert_eq!(node.windows.len(), p.windows() + 1);
            // Requester-side counters are monotone across snapshots.
            for pair in node.windows.windows(2) {
                assert!(pair[1].redirections_suffered >= pair[0].redirections_suffered);
                assert!(pair[1].lock_acquires >= pair[0].lock_acquires);
            }
        }
    }

    #[test]
    fn fingerprint_is_schedule_and_policy_independent() {
        let p = KvParams::small();
        let nm = run(cfg(4, ProtocolConfig::no_migration()), &p);
        let at = run(cfg(4, ProtocolConfig::adaptive()), &p);
        let ft = run(cfg(4, ProtocolConfig::fixed_threshold(1)), &p);
        assert_eq!(nm.fingerprint, at.fingerprint);
        assert_eq!(nm.fingerprint, ft.fingerprint);
        // Replaying the same configuration is bit-identical too.
        let again = run(cfg(4, ProtocolConfig::adaptive()), &p);
        assert_eq!(again.fingerprint, at.fingerprint);
        // NM never migrates; the single-writer pattern makes migrating
        // policies move homes.
        assert_eq!(nm.report.migrations(), 0);
        assert!(ft.report.migrations() > 0);
    }
}

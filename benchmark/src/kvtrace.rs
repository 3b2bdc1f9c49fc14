//! The KV load generator and its oracle.
//!
//! The benchmark owns its load: the op trace is a pure function of
//! `--seed`, generated before the timed region, and the program under test
//! sees only the generated ops. The shape is the serving workload of
//! `dsm_apps::kv` — Zipf-skewed keys, hot-set phases with writer rotation,
//! one writer per object per phase — re-implemented here (generator and
//! RNG included) so that a later change to `dsm_apps` or `dsm_util` cannot
//! move the benchmark's inputs.

/// Store objects (coherence units).
pub const OBJECTS: usize = 64;
/// `u64` slots per object: 512-byte fault-in and diff granules.
pub const SLOTS: usize = 64;
/// Zipf exponent of key popularity.
pub const ZIPF_S: f64 = 1.1;
/// Ops between one acquire and its release: the diff flush granularity.
pub const OPS_PER_INTERVAL: usize = 32;
/// Hot-set phases; each rotates the writers and shifts the hot ranks.
pub const PHASES: usize = 3;
/// Write-only intervals that open a phase: the new writers take their
/// objects over before anyone reads them (see [`KvTrace`]).
pub const HANDOFF_INTERVALS: usize = 3;
/// Share of ops that are writes, in percent.
pub const WRITE_PERCENT: u64 = 50;
/// Cluster size: the smallest at which every phase's writer is remote from
/// the round-robin initial home (`(phase + 1) % NODES != 0` for 3 phases).
pub const NODES: usize = 4;

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a-style fold step, shared by every fingerprint the benchmark
/// compares (cluster result vs. oracle).
pub fn fnv(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(FNV_PRIME)
}

/// SplitMix64: the benchmark's own seeded generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Zipf sampler over ranks `0..n` (rank 0 most popular): a precomputed CDF
/// walked by binary search.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        // Floating-point shortfall must never index past the last rank.
        *cdf.last_mut().expect("n > 0") = 1.0;
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let r = rng.next_f64();
        self.cdf.partition_point(|&c| c <= r)
    }
}

/// The object popularity rank `rank` lands on during `phase`: the ranking
/// is rotated by a third of the store per phase, so the hot objects of one
/// phase are cold in the next.
fn hot_object(rank: usize, phase: usize) -> usize {
    (rank + phase * (OBJECTS / PHASES)) % OBJECTS
}

/// The only node that writes `obj` during `phase`.
pub fn writer(obj: usize, phase: usize) -> usize {
    (obj + phase + 1) % NODES
}

/// One generated operation on the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub obj: u16,
    pub slot: u16,
    /// `Some(value)` stores `value`; `None` reads the slot.
    pub write: Option<u64>,
}

/// The whole load: `ops[node][segment]` is the op sequence one node issues
/// between two barriers. A phase is two segments. In the **handoff** each
/// node writes the objects it owns from now on, round-robin, for
/// [`HANDOFF_INTERVALS`] intervals — an ownership change announced by its
/// new owner, as a planned shard move is; under a migrating policy the
/// homes follow during it. The **serving** segment is the Zipf mix.
///
/// The handoff is there because of a bug in the program (README.md, Known
/// failures): a fault-in by a third node that meets a home migration in
/// flight can exhaust the runtime's redirect bound and panic. With every
/// rotation's migrations done while nobody else asks for those objects, the
/// workloads have no op that fails; without it about one rep in sixty dies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvTrace {
    pub ops: Vec<Vec<Vec<Op>>>,
}

impl KvTrace {
    /// Generate the trace for `seed`. `ops_per_node` is split evenly over
    /// the phases and must divide into whole intervals.
    pub fn generate(seed: u64, ops_per_node: usize) -> KvTrace {
        assert_eq!(
            ops_per_node % (PHASES * OPS_PER_INTERVAL),
            0,
            "ops per node must fill whole intervals in every phase"
        );
        let handoff = HANDOFF_INTERVALS * OPS_PER_INTERVAL;
        let serving = (ops_per_node / PHASES)
            .checked_sub(handoff)
            .expect("a phase is longer than its handoff");
        let reads = Zipf::new(OBJECTS, ZIPF_S);
        let ops = (0..NODES)
            .map(|node| {
                let mut rng =
                    Rng::new(seed ^ (node as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f));
                (0..PHASES)
                    .flat_map(|phase| {
                        let owned: Vec<usize> =
                            (0..OBJECTS).filter(|&o| writer(o, phase) == node).collect();
                        let writes = Zipf::new(owned.len(), ZIPF_S);
                        let handoff_ops = (0..handoff)
                            .map(|i| Op {
                                obj: owned[i % owned.len()] as u16,
                                slot: rng.index(SLOTS) as u16,
                                write: Some(rng.next_u64()),
                            })
                            .collect();
                        let serving_ops = (0..serving)
                            .map(|_| {
                                let wants_write = rng.next_u64() % 100 < WRITE_PERCENT;
                                let (obj, write) = if wants_write {
                                    let obj = owned[writes.sample(&mut rng)];
                                    (obj, Some(rng.next_u64()))
                                } else {
                                    (hot_object(reads.sample(&mut rng), phase), None)
                                };
                                Op {
                                    obj: obj as u16,
                                    slot: rng.index(SLOTS) as u16,
                                    write,
                                }
                            })
                            .collect();
                        [handoff_ops, serving_ops]
                    })
                    .collect()
            })
            .collect();
        KvTrace { ops }
    }

    /// Ops issued by all nodes together.
    pub fn total_ops(&self) -> u64 {
        self.ops
            .iter()
            .flatten()
            .map(|segment| segment.len() as u64)
            .sum()
    }

    /// The oracle: replay the trace sequentially in plain Rust and
    /// fingerprint the final store. Segments are separated by barriers and
    /// an object has one writer per phase, so last-write-wins is well
    /// defined whatever order the cluster interleaves the nodes in:
    /// replaying segment by segment, node by node, reaches the same final
    /// store.
    pub fn oracle_fingerprint(&self) -> u64 {
        let mut store = vec![[0u64; SLOTS]; OBJECTS];
        for segment in 0..self.ops[0].len() {
            for node_ops in &self.ops {
                for op in &node_ops[segment] {
                    if let Some(value) = op.write {
                        store[op.obj as usize][op.slot as usize] = value;
                    }
                }
            }
        }
        fingerprint(store.iter().map(|row| row.as_slice()))
    }
}

/// FNV fingerprint of a store given row by row; the cluster's master folds
/// its final views through the same function.
pub fn fingerprint<'a>(rows: impl Iterator<Item = &'a [u64]>) -> u64 {
    let mut h = FNV_BASIS;
    for (o, row) in rows.enumerate() {
        h = fnv(h, o as u64);
        for &v in row {
            h = fnv(h, v);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    const OPS: usize = PHASES * OPS_PER_INTERVAL * 20;

    #[test]
    fn same_seed_same_trace_and_fingerprint_different_seed_differs() {
        let a = KvTrace::generate(2004, OPS);
        let b = KvTrace::generate(2004, OPS);
        let c = KvTrace::generate(2005, OPS);
        assert_eq!(a, b);
        assert_eq!(a.oracle_fingerprint(), b.oracle_fingerprint());
        assert_ne!(a, c);
        assert_ne!(a.oracle_fingerprint(), c.oracle_fingerprint());
        assert_eq!(a.total_ops(), (NODES * OPS) as u64);
    }

    #[test]
    fn every_write_is_issued_by_the_phase_writer() {
        let trace = KvTrace::generate(7, OPS);
        for (node, segments) in trace.ops.iter().enumerate() {
            assert_eq!(segments.len(), 2 * PHASES);
            for (phase, pair) in segments.chunks(2).enumerate() {
                assert_eq!(pair[0].len() + pair[1].len(), OPS / PHASES);
                for op in pair.iter().flatten().filter(|op| op.write.is_some()) {
                    assert_eq!(writer(op.obj as usize, phase), node);
                }
            }
        }
    }

    #[test]
    fn a_handoff_writes_every_object_its_node_takes_over_and_reads_nothing() {
        let trace = KvTrace::generate(7, OPS);
        for (node, segments) in trace.ops.iter().enumerate() {
            for (phase, pair) in segments.chunks(2).enumerate() {
                let handoff = &pair[0];
                assert_eq!(handoff.len(), HANDOFF_INTERVALS * OPS_PER_INTERVAL);
                assert!(handoff.iter().all(|op| op.write.is_some()));
                for obj in (0..OBJECTS).filter(|&o| writer(o, phase) == node) {
                    let writes = handoff.iter().filter(|op| op.obj as usize == obj);
                    assert!(writes.count() >= HANDOFF_INTERVALS);
                }
            }
        }
    }

    #[test]
    fn writers_start_remote_from_round_robin_homes_and_rotate() {
        for phase in 0..PHASES {
            for obj in 0..OBJECTS {
                assert_ne!(writer(obj, phase), obj % NODES);
                assert_ne!(writer(obj, phase), writer(obj, (phase + 1) % PHASES));
            }
        }
    }

    #[test]
    fn reads_are_skewed_and_the_hot_set_shifts() {
        let trace = KvTrace::generate(11, PHASES * OPS_PER_INTERVAL * 400);
        let mut hottest = Vec::new();
        for phase in 0..PHASES {
            let mut counts = [0u32; OBJECTS];
            for node_ops in &trace.ops {
                for op in node_ops[2 * phase + 1]
                    .iter()
                    .filter(|op| op.write.is_none())
                {
                    counts[op.obj as usize] += 1;
                }
            }
            let (hot, &max) = counts.iter().enumerate().max_by_key(|(_, c)| **c).unwrap();
            let total: u32 = counts.iter().sum();
            assert!(max > total / 8, "rank 0 should draw >1/8 of reads");
            assert_eq!(hot, hot_object(0, phase));
            hottest.push(hot);
        }
        hottest.dedup();
        assert_eq!(hottest.len(), PHASES);
    }
}

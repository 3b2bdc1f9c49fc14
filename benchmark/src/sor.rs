//! `sor-sim`: the paper's red-black SOR kernel on the deterministic sim
//! fabric, with a benchmark-local sequential SOR as its oracle.
//!
//! One matrix row is one 16 KB coherence unit, homed round-robin, while
//! each node relaxes a contiguous band — so most rows start at the wrong
//! home, which is the situation home migration exists for. The initial
//! matrix is drawn from `--seed`; so is the sim fabric's latency jitter.

use crate::kvtrace::{fnv, Rng};
use crate::proc::ProcSample;
use crate::record::Recorder;
use crate::rep::{self, MasterReport, RepResult, Shared};
use crate::spans::{Kind, ROOT};
use dsm_core::ProtocolConfig;
use dsm_objspace::{BarrierId, HomeAssignment};
use dsm_runtime::{Cluster, FabricMode, Matrix2dHandle, NodeCtx, SimConfig};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

const OMEGA: f64 = 1.25;
/// The sim fabric's only perturbation here: every message's modeled latency
/// is stretched by a seeded share of up to 10 %. That is enough for `--seed`
/// to reach the schedule (modeled time moves by about 1 % between seeds)
/// without the perturbation becoming the result: `SimConfig::perturbed`'s
/// delay bursts more than double this workload's modeled time and swing it
/// by 18 % between seeds, while message and byte counts stay the same.
const LATENCY_JITTER: f64 = 0.1;
const INIT: BarrierId = BarrierId(910);
const PHASE_END: BarrierId = BarrierId(911);
const DONE: BarrierId = BarrierId(912);

/// Problem size of one rep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SorShape {
    /// The matrix is `size × size` `f64`.
    pub size: usize,
    pub nodes: usize,
    pub iterations: usize,
}

impl SorShape {
    /// The paper's 2048 × 2048 on 8 nodes, or a reduced problem for
    /// `--quick` and the warm-up rep.
    pub fn new(reduced: bool) -> SorShape {
        if reduced {
            SorShape {
                size: 512,
                nodes: 8,
                iterations: 4,
            }
        } else {
            SorShape {
                size: 2048,
                nodes: 8,
                iterations: 10,
            }
        }
    }

    /// Row relaxations in a rep: one op each (the two boundary rows are
    /// fixed and never relaxed).
    pub fn ops(&self) -> u64 {
        ((self.size - 2) * self.iterations * 2) as u64
    }

    /// Rows `lo..hi` relaxed by `node`.
    fn band(&self, node: usize) -> (usize, usize) {
        let per = self.size.div_ceil(self.nodes);
        (
            (node * per).min(self.size),
            ((node + 1) * per).min(self.size),
        )
    }
}

/// The seeded initial matrix: every cell uniform in `[0, 1)`, so every
/// relaxation changes its cell and a remote writer's diff is dense.
pub fn initial_matrix(seed: u64, size: usize) -> Vec<Vec<f64>> {
    let mut rng = Rng::new(seed ^ 0x50f2_5eed);
    (0..size)
        .map(|_| (0..size).map(|_| rng.next_f64()).collect())
        .collect()
}

/// Relax the cells of `current` whose colour is `colour`, reading the rows
/// above and below. The one kernel both the cluster driver and the oracle
/// run, so equal inputs give bit-equal outputs.
fn relax_row(i: usize, colour: usize, above: &[f64], below: &[f64], current: &mut [f64]) {
    for j in 1..current.len() - 1 {
        if (i + j) % 2 == colour {
            let neighbours = above[j] + below[j] + current[j - 1] + current[j + 1];
            current[j] = (1.0 - OMEGA) * current[j] + OMEGA * 0.25 * neighbours;
        }
    }
}

fn row_hash(i: usize, row: &[f64]) -> u64 {
    row.iter().fold(i as u64, |h, v| fnv(h, v.to_bits()))
}

fn fold_rows(hashes: impl Iterator<Item = u64>) -> u64 {
    hashes.fold(0xcbf2_9ce4_8422_2325, fnv)
}

/// The oracle: sequential red-black SOR in plain Rust, fingerprinted over
/// the bit patterns of the final matrix.
pub fn oracle_fingerprint(seed: u64, shape: SorShape) -> u64 {
    let mut m = initial_matrix(seed, shape.size);
    for _ in 0..shape.iterations {
        for colour in 0..2 {
            for i in 1..shape.size - 1 {
                let (head, tail) = m.split_at_mut(i);
                let (current, rest) = tail.split_first_mut().expect("i < size");
                relax_row(i, colour, &head[i - 1], &rest[0], current);
            }
        }
    }
    fold_rows(m.iter().enumerate().map(|(i, row)| row_hash(i, row)))
}

/// What every node of a rep works on.
struct Problem<'a> {
    shape: SorShape,
    rows: &'a Matrix2dHandle<f64>,
    initial: &'a [Vec<f64>],
    /// Fingerprint of each final row, filled in by the node that relaxed it.
    row_hashes: Mutex<Vec<u64>>,
}

fn node_body(ctx: &NodeCtx, problem: &Problem, base: Instant, traced: bool, shared: &Shared) {
    let Problem {
        shape,
        rows,
        initial,
        row_hashes,
    } = problem;
    let me = ctx.node_id().index();
    let n = shape.size;
    let (lo, hi) = shape.band(me);
    let phases = shape.iterations * 2;
    let mut rec = Recorder::new(base, me, (hi - lo) * phases, phases, traced);

    // Every node offers the same initial contents; only a row's home keeps
    // them. The barrier that ends set-up doubles as the warm-up interval.
    for (handle, row) in rows.iter().zip(initial.iter()) {
        ctx.bootstrap(handle, row);
    }
    let proc_start = ctx.is_master().then(ProcSample::now);
    ctx.barrier(INIT);
    let setup_end = rec.now();
    rec.use_modeled_latency(ctx);

    let mut mark = setup_end;
    for phase_no in 0..phases {
        let phase_start = mark;
        let phase = rec.open(Kind::Phase, ROOT, mark);
        for i in lo.max(1)..hi.min(n - 1) {
            {
                let above = ctx.view(rows.row(i - 1));
                let below = ctx.view(rows.row(i + 1));
                let mut current = ctx.view_mut(rows.row(i));
                relax_row(i, phase_no % 2, &above, &below, &mut current);
            }
            // About five floating-point operations per updated cell, charged
            // to the node's virtual clock.
            ctx.compute_elements((n / 2) as u64, 5);
            rec.op_done(ctx, true, phase, &mut mark, 0);
        }
        // The barrier is the interval commit: it flushes this phase's diffs
        // and waits for the slowest node, so it counts as serving time.
        ctx.barrier(PHASE_END);
        rec.barrier_done(ctx, phase, true, &mut mark);
        rec.served(phase_start, mark);
    }

    let proc_end = proc_start.map(|_| ProcSample::now());
    // Each node fingerprints the band it relaxed, after the last barrier
    // made every write visible; collecting the whole matrix at one node
    // would add 2048 fault-ins to the traffic the run reports.
    let mine: Vec<u64> = (lo..hi)
        .map(|i| row_hash(i, &ctx.view(rows.row(i))))
        .collect();
    row_hashes.lock().expect("no node panicked")[lo..hi].copy_from_slice(&mine);
    ctx.barrier(DONE);
    if let (Some(proc_start), Some(proc_end)) = (proc_start, proc_end) {
        let fingerprint = fold_rows(row_hashes.lock().expect("no node panicked").iter().copied());
        *shared.master.lock().expect("no node panicked") = Some(MasterReport {
            fingerprint,
            setup_end_ns: setup_end,
            proc_start,
            proc_end,
        });
    }
    shared.recorders.lock().expect("no node panicked").push(rec);
}

/// Run one rep of `sor-sim` and return the final-matrix fingerprint with
/// the rep's metric values.
pub fn run_rep(seed: u64, shape: SorShape, base: Instant, span_file: Option<&Path>) -> RepResult {
    let initial = initial_matrix(seed, shape.size);
    let mut builder = Cluster::builder()
        .nodes(shape.nodes)
        .protocol(ProtocolConfig::adaptive())
        .seed(seed)
        .default_home(HomeAssignment::RoundRobin)
        .fabric(FabricMode::Sim(SimConfig {
            latency_jitter: LATENCY_JITTER,
            ..SimConfig::calm(seed)
        }));
    let rows = builder.register_matrix::<f64>("bench.sor.matrix", shape.size, shape.size);
    let shared = Shared::default();
    let problem = Problem {
        shape,
        rows: &rows,
        initial: &initial,
        row_hashes: Mutex::new(vec![0u64; shape.size]),
    };
    let traced = span_file.is_some();
    let report = builder
        .build()
        .run(|ctx| node_body(ctx, &problem, base, traced, &shared));
    let rep_end_ns = base.elapsed().as_nanos() as u64;
    rep::collect(shared, &report, shape.ops(), rep_end_ns, span_file)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bands_cover_every_row_once() {
        let shape = SorShape::new(true);
        let mut next = 0;
        for node in 0..shape.nodes {
            let (lo, hi) = shape.band(node);
            assert_eq!(lo, next);
            next = hi;
        }
        assert_eq!(next, shape.size);
    }

    #[test]
    fn oracle_is_a_function_of_the_seed() {
        let shape = SorShape {
            size: 32,
            nodes: 4,
            iterations: 3,
        };
        assert_eq!(oracle_fingerprint(5, shape), oracle_fingerprint(5, shape));
        assert_ne!(oracle_fingerprint(5, shape), oracle_fingerprint(6, shape));
    }

    #[test]
    fn cluster_matches_the_oracle_bit_for_bit() {
        let shape = SorShape {
            size: 32,
            nodes: 4,
            iterations: 3,
        };
        let rep = run_rep(9, shape, Instant::now(), None);
        assert_eq!(rep.fingerprint, oracle_fingerprint(9, shape));
        assert_eq!(rep.ops, shape.ops());
    }
}

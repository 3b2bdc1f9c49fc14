//! SOR — red-black successive over-relaxation on a 2-D matrix.
//!
//! The paper runs SOR on a 2048×2048 matrix. In Java the matrix is an array
//! of row array objects, so each row is one coherence unit; rows are
//! initially homed round-robin across the cluster for load balance, which
//! means most rows do *not* start at the node that will write them — the
//! exact situation home migration exists to fix. Each node owns a contiguous
//! band of rows, updates them every phase (red then black), and reads the
//! boundary rows of its neighbours; two barriers per iteration separate the
//! phases.

use crate::outcome::{AppRun, ResultSlot};
use dsm_objspace::{BarrierId, HomeAssignment, NodeId};
use dsm_runtime::{ClusterBuilder, Matrix2dHandle, NodeCtx};

/// SOR workload parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SorParams {
    /// Matrix is `size × size`.
    pub size: usize,
    /// Number of red-black iterations.
    pub iterations: usize,
    /// Over-relaxation factor ω.
    pub omega: f64,
}

impl SorParams {
    /// The paper's configuration: 2048×2048.
    pub fn paper() -> Self {
        SorParams {
            size: 2048,
            iterations: 10,
            omega: 1.25,
        }
    }

    /// A small configuration for tests and quick benchmarks.
    pub fn small(size: usize, iterations: usize) -> Self {
        SorParams {
            size,
            iterations,
            omega: 1.25,
        }
    }
}

/// Deterministic initial contents of row `i`: a hot top edge and cold
/// interior (classic heat-diffusion boundary conditions).
pub(crate) fn initial_row(size: usize, i: usize) -> Vec<f64> {
    if i == 0 {
        vec![1.0; size]
    } else {
        let mut row = vec![0.0; size];
        row[0] = 0.5;
        row[size - 1] = 0.5;
        row
    }
}

/// Contiguous band of rows owned by `node` out of `nodes` (all rows,
/// including the fixed boundary rows which are simply never updated).
pub(crate) fn band(node: usize, nodes: usize, size: usize) -> (usize, usize) {
    let per = size.div_ceil(nodes);
    let lo = (node * per).min(size);
    let hi = ((node + 1) * per).min(size);
    (lo, hi)
}

/// One red or black half-iteration applied to `matrix` (sequential, in
/// place). `phase` is 0 for red cells (`(i + j) % 2 == 0`) and 1 for black.
#[cfg(test)]
fn relax_phase(matrix: &mut [Vec<f64>], omega: f64, phase: usize) {
    let n = matrix.len();
    for i in 1..n - 1 {
        for j in 1..n - 1 {
            if (i + j) % 2 == phase {
                let neighbours =
                    matrix[i - 1][j] + matrix[i + 1][j] + matrix[i][j - 1] + matrix[i][j + 1];
                matrix[i][j] = (1.0 - omega) * matrix[i][j] + omega * 0.25 * neighbours;
            }
        }
    }
}

/// Sequential reference implementation.
#[cfg(test)]
fn sequential(params: &SorParams) -> Vec<Vec<f64>> {
    let n = params.size;
    let mut matrix: Vec<Vec<f64>> = (0..n).map(|i| initial_row(n, i)).collect();
    for _ in 0..params.iterations {
        relax_phase(&mut matrix, params.omega, 0);
        relax_phase(&mut matrix, params.omega, 1);
    }
    matrix
}

/// A scalar fingerprint of a matrix, used to compare runs cheaply.
pub fn checksum(matrix: &[Vec<f64>]) -> f64 {
    matrix
        .iter()
        .enumerate()
        .map(|(i, row)| row.iter().sum::<f64>() * (i as f64 + 1.0))
        .sum()
}

/// The per-node body of the DSM-parallel SOR.
fn sor_node(
    ctx: &NodeCtx,
    rows: &Matrix2dHandle<f64>,
    params: &SorParams,
    slot: &ResultSlot<Vec<Vec<f64>>>,
) {
    let n = params.size;
    let nodes = ctx.num_nodes();
    let init_barrier = BarrierId(100);
    let phase_barrier = BarrierId(101);
    let done_barrier = BarrierId(102);

    // Every node computes the same initial contents; only each row's home
    // stores them.
    for (i, handle) in rows.iter().enumerate() {
        ctx.bootstrap(handle, &initial_row(n, i));
    }
    ctx.barrier(init_barrier);

    let (lo, hi) = band(ctx.node_id().index(), nodes, n);
    for _ in 0..params.iterations {
        for phase in 0..2 {
            for i in lo..hi {
                if i == 0 || i == n - 1 {
                    continue;
                }
                // Zero-copy views: the neighbour rows are borrowed shared,
                // the updated row mutably — all directly over the engine's
                // storage, so a row homed here is relaxed fully in place.
                // Red-black cells only read the opposite colour, so the
                // in-place update is exact (identical to the sequential
                // reference).
                let above = ctx.view(rows.row(i - 1));
                let below = ctx.view(rows.row(i + 1));
                let mut current = ctx.view_mut(rows.row(i));
                for j in 1..n - 1 {
                    if (i + j) % 2 == phase {
                        let neighbours = above[j] + below[j] + current[j - 1] + current[j + 1];
                        current[j] =
                            (1.0 - params.omega) * current[j] + params.omega * 0.25 * neighbours;
                    }
                }
                drop(current);
                drop(below);
                drop(above);
                // Roughly five floating point operations per updated cell.
                ctx.compute_elements((n / 2) as u64, 5);
            }
            ctx.barrier(phase_barrier);
        }
    }

    if ctx.is_master() {
        let result: Vec<Vec<f64>> = rows.iter().map(|h| ctx.view(h).to_vec()).collect();
        slot.publish(result);
    }
    ctx.barrier(done_barrier);
}

/// Run the DSM-parallel SOR on a cluster and return the final matrix plus
/// the execution report.
pub fn run(mut cluster: ClusterBuilder, params: &SorParams) -> AppRun<Vec<Vec<f64>>> {
    let n = params.size;
    assert!(n >= 4, "SOR needs at least a 4x4 matrix");
    let rows = Matrix2dHandle::<f64>::register(
        cluster.registry(),
        "sor.matrix",
        n,
        n,
        NodeId::MASTER,
        HomeAssignment::RoundRobin,
    );
    let slot = ResultSlot::new();
    let slot_in = slot.clone();
    let params_in = params.clone();
    let report = cluster.build().run(move |ctx| {
        sor_node(ctx, &rows, &params_in, &slot_in);
    });
    AppRun {
        result: slot.take(),
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_core::ProtocolConfig;
    use dsm_model::ComputeModel;
    use dsm_runtime::Cluster;

    fn cfg(nodes: usize, protocol: ProtocolConfig) -> ClusterBuilder {
        Cluster::builder()
            .nodes(nodes)
            .protocol(protocol)
            .compute(ComputeModel::free())
    }

    #[test]
    fn band_decomposition_covers_all_rows() {
        let n = 37;
        let nodes = 4;
        let mut covered = vec![false; n];
        for node in 0..nodes {
            let (lo, hi) = band(node, nodes, n);
            for slot in covered.iter_mut().take(hi).skip(lo) {
                assert!(!*slot);
                *slot = true;
            }
        }
        assert!(covered.into_iter().all(|c| c));
    }

    #[test]
    fn sequential_sor_diffuses_heat_downwards() {
        let m = sequential(&SorParams::small(16, 8));
        // Heat flows from the hot top edge into the interior.
        assert!(m[1][8] > 0.0);
        assert!(m[1][8] > m[8][8]);
        // The boundary stays fixed.
        assert_eq!(m[0][3], 1.0);
        assert_eq!(m[15][3], 0.0);
    }

    #[test]
    fn parallel_matches_sequential_with_adaptive_policy() {
        let params = SorParams::small(16, 4);
        let seq = sequential(&params);
        let run = run(cfg(4, ProtocolConfig::adaptive()), &params);
        assert_eq!(run.result.len(), 16);
        for (i, row) in run.result.iter().enumerate() {
            for (j, v) in row.iter().enumerate() {
                assert_eq!(*v, seq[i][j], "mismatch at ({i},{j})");
            }
        }
        assert!(
            run.report.migrations() > 0,
            "round-robin rows should migrate to writers"
        );
    }

    #[test]
    fn parallel_matches_sequential_without_migration() {
        let params = SorParams::small(12, 3);
        let seq = sequential(&params);
        let run = run(cfg(3, ProtocolConfig::no_migration()), &params);
        assert!((checksum(&run.result) - checksum(&seq)).abs() < 1e-12);
        assert_eq!(run.report.migrations(), 0);
    }

    #[test]
    fn migration_reduces_messages_and_time() {
        let params = SorParams::small(16, 4);
        let with = run(cfg(4, ProtocolConfig::adaptive()), &params);
        let without = run(cfg(4, ProtocolConfig::no_migration()), &params);
        assert_eq!(checksum(&with.result), checksum(&without.result));
        assert!(
            with.report.breakdown_messages() < without.report.breakdown_messages(),
            "HM should reduce coherence messages ({} vs {})",
            with.report.breakdown_messages(),
            without.report.breakdown_messages()
        );
        assert!(with.report.execution_time < without.report.execution_time);
    }
}

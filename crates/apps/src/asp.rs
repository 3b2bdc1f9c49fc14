//! ASP — all-pairs shortest paths with a parallel Floyd–Warshall algorithm.
//!
//! The paper computes shortest paths between all pairs of a 1024-node graph.
//! The distance matrix is shared as one row object per graph vertex; rows are
//! homed round-robin initially, while each cluster node *updates* a
//! contiguous band of rows — so, as in SOR, the writing node is usually not
//! the home and home migration relocates each row after the first iteration.
//! Every pivot iteration `k` all nodes read row `k` and update their own
//! band, then cross a barrier.

use crate::outcome::{AppRun, ResultSlot};
use crate::sor::band;
use dsm_objspace::{BarrierId, HomeAssignment, NodeId, ObjectRegistry};
use dsm_runtime::{Cluster, ClusterConfig, Matrix2dHandle, NodeCtx};
use dsm_util::SmallRng;

/// ASP workload parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct AspParams {
    /// Number of graph vertices (the paper uses 1024).
    pub vertices: usize,
    /// Seed of the deterministic random graph generator.
    pub seed: u64,
    /// Edges are drawn uniformly from `1..=max_weight`.
    pub max_weight: u32,
}

impl AspParams {
    /// The paper's configuration: a 1024-vertex graph.
    pub fn paper() -> Self {
        AspParams {
            vertices: 1024,
            seed: 20040923,
            max_weight: 100,
        }
    }

    /// A small configuration for tests and quick benchmarks.
    pub fn small(vertices: usize) -> Self {
        AspParams {
            vertices,
            seed: 20040923,
            max_weight: 100,
        }
    }
}

/// Generate the weight matrix of the random dense graph deterministically
/// (every node generates the same graph from the same seed, exactly like
/// every JVM node executing the same initialisation code).
pub(crate) fn generate_graph(params: &AspParams) -> Vec<Vec<f64>> {
    let n = params.vertices;
    let mut rng = SmallRng::seed_from_u64(params.seed);
    let mut matrix = vec![vec![0.0f64; n]; n];
    for (i, row) in matrix.iter_mut().enumerate() {
        for (j, weight) in row.iter_mut().enumerate() {
            if i != j {
                *weight = f64::from(rng.gen_range_u32(1, params.max_weight));
            }
        }
    }
    matrix
}

/// Sequential Floyd–Warshall reference.
pub fn sequential(params: &AspParams) -> Vec<Vec<f64>> {
    let mut dist = generate_graph(params);
    let n = params.vertices;
    for k in 0..n {
        let pivot = dist[k].clone();
        for row in dist.iter_mut() {
            let dik = row[k];
            for (cell, through_pivot) in row.iter_mut().zip(pivot.iter()) {
                let candidate = dik + through_pivot;
                if candidate < *cell {
                    *cell = candidate;
                }
            }
        }
    }
    dist
}

/// A scalar fingerprint of a distance matrix.
pub fn checksum(matrix: &[Vec<f64>]) -> f64 {
    matrix
        .iter()
        .enumerate()
        .map(|(i, row)| row.iter().sum::<f64>() * ((i % 7) as f64 + 1.0))
        .sum()
}

fn asp_node(
    ctx: &NodeCtx,
    rows: &Matrix2dHandle<f64>,
    params: &AspParams,
    slot: &ResultSlot<Vec<Vec<f64>>>,
) {
    let n = params.vertices;
    let init_barrier = BarrierId(200);
    let pivot_barrier = BarrierId(201);
    let done_barrier = BarrierId(202);

    let graph = generate_graph(params);
    for (i, handle) in rows.iter().enumerate() {
        ctx.bootstrap(handle, &graph[i]);
    }
    ctx.barrier(init_barrier);

    let (lo, hi) = band(ctx.node_id().index(), ctx.num_nodes(), n);
    for k in 0..n {
        // The pivot row is shared read-only this iteration: a zero-copy
        // read view (at its home this borrows the home copy in place).
        let pivot_row = ctx.view(rows.row(k));
        for i in lo..hi {
            if i == k {
                // Row k cannot be improved through itself.
                continue;
            }
            // First pass over a read view decides whether the row improves
            // at all, so unchanged rows never take a write fault (their
            // interval stays read-only, exactly like the old copy-out code).
            let current = ctx.view(rows.row(i));
            let dik = current[k];
            let changed = (0..n).any(|j| dik + pivot_row[j] < current[j]);
            drop(current);
            if changed {
                // Second pass relaxes the row in place through a write
                // view. In-place is exact: column k can only tighten to
                // dik + pivot[k] = dik (pivot diagonal is zero), so later
                // columns read the same dik the copy-out version used.
                let mut row = ctx.view_mut(rows.row(i));
                for j in 0..n {
                    let candidate = dik + pivot_row[j];
                    if candidate < row[j] {
                        row[j] = candidate;
                    }
                }
            }
            // One add + compare per column.
            ctx.compute_elements(n as u64, 2);
        }
        drop(pivot_row);
        ctx.barrier(pivot_barrier);
    }

    if ctx.is_master() {
        let result: Vec<Vec<f64>> = rows.iter().map(|h| ctx.view(h).to_vec()).collect();
        slot.publish(result);
    }
    ctx.barrier(done_barrier);
}

/// Run the DSM-parallel ASP and return the distance matrix plus the
/// execution report.
pub fn run(config: ClusterConfig, params: &AspParams) -> AppRun<Vec<Vec<f64>>> {
    let n = params.vertices;
    assert!(n >= 2, "ASP needs at least two vertices");
    let mut registry = ObjectRegistry::new();
    let rows = Matrix2dHandle::<f64>::register(
        &mut registry,
        "asp.dist",
        n,
        n,
        NodeId::MASTER,
        HomeAssignment::RoundRobin,
    );
    let slot = ResultSlot::new();
    let slot_in = slot.clone();
    let params_in = params.clone();
    let report = Cluster::new(config, registry).run(move |ctx| {
        asp_node(ctx, &rows, &params_in, &slot_in);
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

    fn cfg(nodes: usize, protocol: ProtocolConfig) -> ClusterConfig {
        ClusterConfig::new(nodes, protocol).with_compute(ComputeModel::free())
    }

    #[test]
    fn graph_generation_is_deterministic() {
        let p = AspParams::small(12);
        assert_eq!(generate_graph(&p), generate_graph(&p));
        let other = AspParams {
            seed: 1,
            ..AspParams::small(12)
        };
        assert_ne!(generate_graph(&p), generate_graph(&other));
    }

    #[test]
    fn sequential_floyd_satisfies_triangle_inequality() {
        let p = AspParams::small(24);
        let d = sequential(&p);
        for i in 0..24 {
            assert_eq!(d[i][i], 0.0);
            for j in 0..24 {
                for k in 0..24 {
                    assert!(
                        d[i][j] <= d[i][k] + d[k][j] + 1e-9,
                        "triangle inequality violated at ({i},{j},{k})"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let p = AspParams::small(20);
        let seq = sequential(&p);
        let run = run(cfg(4, ProtocolConfig::adaptive()), &p);
        for (i, (got, want)) in run.result.iter().zip(seq.iter()).enumerate() {
            for (j, (g, w)) in got.iter().zip(want.iter()).enumerate() {
                assert_eq!(g, w, "mismatch at ({i},{j})");
            }
        }
        assert!(run.report.migrations() > 0);
    }

    #[test]
    fn migration_reduces_messages_versus_no_migration() {
        let p = AspParams::small(24);
        let with = run(cfg(4, ProtocolConfig::adaptive()), &p);
        let without = run(cfg(4, ProtocolConfig::no_migration()), &p);
        assert_eq!(checksum(&with.result), checksum(&without.result));
        assert!(with.report.breakdown_messages() < without.report.breakdown_messages());
        assert!(with.report.execution_time < without.report.execution_time);
    }
}

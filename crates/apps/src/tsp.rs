//! TSP — branch-and-bound travelling salesman.
//!
//! The paper solves a 12-city TSP with a parallel branch-and-bound
//! algorithm. The city distance matrix is shared read-only; the global best
//! bound is a small shared object protected by a lock and updated by
//! whichever node finds a better tour — a multiple-writer access pattern
//! with no lasting single writer, which is why the paper reports that home
//! migration neither helps nor hurts TSP.
//!
//! Work distribution: the first branching level (the choice of the second
//! city) is dealt round-robin to the cluster nodes; each node then explores
//! its subtrees depth-first, pruning against a locally cached copy of the
//! global bound that is refreshed under the lock at every subtree root and
//! whenever a better complete tour is found.

use crate::outcome::{AppRun, ResultSlot};
use dsm_objspace::{BarrierId, HomeAssignment, LockId, NodeId, ObjectRegistry};
use dsm_runtime::{Cluster, ClusterConfig, Matrix2dHandle, NodeCtx, ScalarHandle};
use dsm_util::SmallRng;

/// TSP workload parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TspParams {
    /// Number of cities (the paper uses 12).
    pub cities: usize,
    /// Seed for the deterministic city layout.
    pub seed: u64,
}

impl TspParams {
    /// The paper's configuration: 12 cities.
    pub fn paper() -> Self {
        TspParams {
            cities: 12,
            seed: 7,
        }
    }

    /// A small configuration for tests.
    pub fn small(cities: usize) -> Self {
        TspParams { cities, seed: 7 }
    }
}

/// Deterministic city distance matrix: cities on random points of a
/// 1000×1000 grid, Euclidean distances rounded to integers.
pub(crate) fn distance_matrix(params: &TspParams) -> Vec<Vec<u64>> {
    let n = params.cities;
    let mut rng = SmallRng::seed_from_u64(params.seed);
    let points: Vec<(f64, f64)> = (0..n)
        .map(|_| {
            (
                rng.gen_range_f64(0.0, 1000.0),
                rng.gen_range_f64(0.0, 1000.0),
            )
        })
        .collect();
    (0..n)
        .map(|i| {
            (0..n)
                .map(|j| {
                    let dx = points[i].0 - points[j].0;
                    let dy = points[i].1 - points[j].1;
                    (dx * dx + dy * dy).sqrt().round() as u64
                })
                .collect()
        })
        .collect()
}

/// Depth-first branch-and-bound from a partial tour. `best` is both pruning
/// bound and output (updated when a better complete tour is found).
fn branch_and_bound(
    dist: &[Vec<u64>],
    visited: &mut Vec<usize>,
    used: &mut Vec<bool>,
    length_so_far: u64,
    best: &mut u64,
    expansions: &mut u64,
) {
    let n = dist.len();
    *expansions += 1;
    if length_so_far >= *best {
        return;
    }
    if visited.len() == n {
        let total = length_so_far + dist[*visited.last().unwrap()][visited[0]];
        if total < *best {
            *best = total;
        }
        return;
    }
    let current = *visited.last().unwrap();
    // Order candidate cities by distance for faster convergence of the bound.
    let mut candidates: Vec<usize> = (0..n).filter(|&c| !used[c]).collect();
    candidates.sort_by_key(|&c| dist[current][c]);
    for next in candidates {
        let extended = length_so_far + dist[current][next];
        if extended >= *best {
            continue;
        }
        visited.push(next);
        used[next] = true;
        branch_and_bound(dist, visited, used, extended, best, expansions);
        used[next] = false;
        visited.pop();
    }
}

/// Sequential reference: the exact optimal tour length.
#[cfg(test)]
fn sequential(params: &TspParams) -> u64 {
    let dist = distance_matrix(params);
    let mut best = u64::MAX;
    let mut expansions = 0;
    let mut visited = vec![0usize];
    let mut used = vec![false; params.cities];
    used[0] = true;
    branch_and_bound(
        &dist,
        &mut visited,
        &mut used,
        0,
        &mut best,
        &mut expansions,
    );
    best
}

fn tsp_node(
    ctx: &NodeCtx,
    dist_rows: &Matrix2dHandle<u64>,
    best_handle: &ScalarHandle<u64>,
    params: &TspParams,
    slot: &ResultSlot<u64>,
) {
    let n = params.cities;
    let init_barrier = BarrierId(400);
    let done_barrier = BarrierId(401);
    let best_lock = LockId::derive("tsp.best.lock");

    let dist = distance_matrix(params);
    for (i, handle) in dist_rows.iter().enumerate() {
        ctx.bootstrap(handle, &dist[i]);
    }
    ctx.bootstrap(best_handle.array(), &[u64::MAX]);
    ctx.barrier(init_barrier);

    // Read the (immutable) distance matrix through the DSM: one fault-in per
    // row per node, cached for the rest of the run. The branch-and-bound
    // recursion wants owned rows, so this is a deliberate copy-out.
    let dist: Vec<Vec<u64>> = dist_rows.iter().map(|h| ctx.view(h).to_vec()).collect();

    // First-level branches (second city of the tour) dealt round-robin.
    let me = ctx.node_id().index();
    let nodes = ctx.num_nodes();
    let mut local_best = u64::MAX;
    let mut expansions = 0u64;
    for second in 1..n {
        if (second - 1) % nodes != me {
            continue;
        }
        // Refresh the bound from the shared object before the subtree.
        ctx.acquire(best_lock);
        local_best = local_best.min(best_handle.get(ctx));
        ctx.release(best_lock);

        let mut visited = vec![0usize, second];
        let mut used = vec![false; n];
        used[0] = true;
        used[second] = true;
        let before = local_best;
        branch_and_bound(
            &dist,
            &mut visited,
            &mut used,
            dist[0][second],
            &mut local_best,
            &mut expansions,
        );
        if local_best < before {
            // Found a better tour: publish it to the shared bound.
            ctx.acquire(best_lock);
            local_best = best_handle.update(ctx, |bound| bound.min(local_best));
            ctx.release(best_lock);
        }
    }
    // ~30 operations per tree expansion.
    ctx.compute(expansions * 30);

    ctx.barrier(done_barrier);
    if ctx.is_master() {
        slot.publish(best_handle.get(ctx));
    }
    ctx.barrier(done_barrier);
}

/// Run the DSM-parallel branch-and-bound TSP and return the optimal tour
/// length plus the execution report.
pub fn run(config: ClusterConfig, params: &TspParams) -> AppRun<u64> {
    let n = params.cities;
    assert!(n >= 3, "TSP needs at least three cities");
    let mut registry = ObjectRegistry::new();
    // The distance matrix is immutable after initialisation: one row object
    // per city, spread round-robin, flagged read-only (the GOS optimization).
    let dist_rows = Matrix2dHandle::<u64>::register_immutable(
        &mut registry,
        "tsp.dist",
        n,
        n,
        NodeId::MASTER,
        HomeAssignment::RoundRobin,
    );
    let best: ScalarHandle<u64> = ScalarHandle::register(
        &mut registry,
        "tsp.best",
        NodeId::MASTER,
        HomeAssignment::Master,
    );
    let slot = ResultSlot::new();
    let slot_in = slot.clone();
    let params_in = params.clone();
    let report = Cluster::new(config, registry).run(move |ctx| {
        tsp_node(ctx, &dist_rows, &best, &params_in, &slot_in);
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
    fn distance_matrix_is_symmetric_with_zero_diagonal() {
        let d = distance_matrix(&TspParams::small(8));
        for (i, row) in d.iter().enumerate() {
            assert_eq!(row[i], 0);
            for (j, cell) in row.iter().enumerate() {
                assert_eq!(*cell, d[j][i]);
            }
        }
    }

    #[test]
    fn sequential_finds_the_optimum_of_a_tiny_instance() {
        // Brute force the optimum for 7 cities and compare.
        let params = TspParams::small(7);
        let dist = distance_matrix(&params);
        let n = 7;
        let mut best = u64::MAX;
        let mut perm: Vec<usize> = (1..n).collect();
        // Heap's algorithm over the remaining cities.
        fn heaps(perm: &mut Vec<usize>, k: usize, dist: &[Vec<u64>], best: &mut u64) {
            if k == 1 {
                let mut len = 0;
                let mut prev = 0usize;
                for &c in perm.iter() {
                    len += dist[prev][c];
                    prev = c;
                }
                len += dist[prev][0];
                *best = (*best).min(len);
                return;
            }
            for i in 0..k {
                heaps(perm, k - 1, dist, best);
                if k.is_multiple_of(2) {
                    perm.swap(i, k - 1);
                } else {
                    perm.swap(0, k - 1);
                }
            }
        }
        let len = perm.len();
        heaps(&mut perm, len, &dist, &mut best);
        assert_eq!(sequential(&params), best);
    }

    #[test]
    fn parallel_finds_the_same_optimum() {
        let params = TspParams::small(9);
        let optimum = sequential(&params);
        let run = run(cfg(4, ProtocolConfig::adaptive()), &params);
        assert_eq!(run.result, optimum);
        assert!(run.report.protocol.lock_acquires > 0);
    }

    #[test]
    fn home_migration_changes_little_for_tsp() {
        let params = TspParams::small(9);
        let with = run(cfg(3, ProtocolConfig::adaptive()), &params);
        let without = run(cfg(3, ProtocolConfig::no_migration()), &params);
        assert_eq!(with.result, without.result);
        // The shared bound is written by many nodes under a lock: no lasting
        // single-writer pattern, so the two protocols stay within a modest
        // factor of each other in coherence traffic.
        let a = with.report.breakdown_messages() as f64;
        let b = without.report.breakdown_messages() as f64;
        assert!(
            (a - b).abs() / b.max(1.0) < 0.5,
            "TSP should be largely insensitive to HM: {a} vs {b}"
        );
    }
}

//! Nbody — Barnes–Hut gravitational simulation.
//!
//! The paper simulates 2048 particles with the Barnes–Hut algorithm. Bodies
//! are partitioned into one block per cluster node; every step each node
//! reads all blocks, builds the quadtree, computes the forces on its own
//! bodies with the θ opening criterion, integrates them, writes its block
//! back and crosses a barrier.
//!
//! Body blocks are created (and therefore homed) on their owning node, so —
//! unlike ASP and SOR — the single-writer pattern is already satisfied by
//! the initial home placement and home migration has almost nothing to do.
//! This reproduces the paper's observation that "home migration has little
//! impact on the performance of Nbody … due to the lack of single-writer
//! pattern", while also showing that the protocol's overhead is negligible.

use crate::outcome::{AppRun, ResultSlot};
use dsm_objspace::{BarrierId, HomeAssignment, NodeId, ObjectRegistry};
use dsm_runtime::{ArrayHandle, Cluster, ClusterConfig, NodeCtx};
use dsm_util::SmallRng;

/// Fields stored per body inside a block object: x, y, vx, vy, mass.
const FIELDS: usize = 5;
/// Gravitational constant of the toy universe.
const G: f64 = 6.674e-3;
/// Softening factor avoiding singularities for close encounters.
const SOFTENING: f64 = 1e-2;

/// Nbody workload parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct NbodyParams {
    /// Total number of bodies (the paper uses 2048).
    pub bodies: usize,
    /// Number of simulation steps.
    pub steps: usize,
    /// Integration time step.
    pub dt: f64,
    /// Barnes–Hut opening angle θ.
    pub theta: f64,
    /// Seed for the deterministic initial conditions.
    pub seed: u64,
}

impl NbodyParams {
    /// The paper's configuration: 2048 bodies.
    pub fn paper() -> Self {
        NbodyParams {
            bodies: 2048,
            steps: 5,
            dt: 0.05,
            theta: 0.5,
            seed: 42,
        }
    }

    /// A small configuration for tests.
    pub fn small(bodies: usize, steps: usize) -> Self {
        NbodyParams {
            bodies,
            steps,
            dt: 0.05,
            theta: 0.5,
            seed: 42,
        }
    }
}

/// One body.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Body {
    /// Position.
    pub x: f64,
    /// Position.
    pub y: f64,
    /// Velocity.
    pub vx: f64,
    /// Velocity.
    pub vy: f64,
    /// Mass.
    pub mass: f64,
}

/// Deterministic initial conditions: bodies on a disc with small random
/// velocities.
pub(crate) fn initial_bodies(params: &NbodyParams) -> Vec<Body> {
    let mut rng = SmallRng::seed_from_u64(params.seed);
    (0..params.bodies)
        .map(|_| {
            let r: f64 = rng.gen_range_f64(0.1, 1.0);
            let angle: f64 = rng.gen_range_f64(0.0, std::f64::consts::TAU);
            Body {
                x: r * angle.cos(),
                y: r * angle.sin(),
                vx: rng.gen_range_f64(-0.05, 0.05),
                vy: rng.gen_range_f64(-0.05, 0.05),
                mass: rng.gen_range_f64(0.5, 2.0),
            }
        })
        .collect()
}

fn encode_block(bodies: &[Body]) -> Vec<f64> {
    let mut out = Vec::with_capacity(bodies.len() * FIELDS);
    for b in bodies {
        out.extend_from_slice(&[b.x, b.y, b.vx, b.vy, b.mass]);
    }
    out
}

fn decode_block(values: &[f64]) -> Vec<Body> {
    values
        .chunks_exact(FIELDS)
        .map(|c| Body {
            x: c[0],
            y: c[1],
            vx: c[2],
            vy: c[3],
            mass: c[4],
        })
        .collect()
}

// ----------------------------------------------------------------------
// Barnes–Hut quadtree
// ----------------------------------------------------------------------

/// A square region of space.
#[derive(Debug, Clone, Copy)]
struct Quad {
    cx: f64,
    cy: f64,
    half: f64,
}

impl Quad {
    fn contains(&self, x: f64, y: f64) -> bool {
        x >= self.cx - self.half
            && x <= self.cx + self.half
            && y >= self.cy - self.half
            && y <= self.cy + self.half
    }

    fn quadrant(&self, x: f64, y: f64) -> usize {
        let east = x > self.cx;
        let north = y > self.cy;
        match (north, east) {
            (true, true) => 0,
            (true, false) => 1,
            (false, false) => 2,
            (false, true) => 3,
        }
    }

    fn child(&self, quadrant: usize) -> Quad {
        let h = self.half / 2.0;
        let (dx, dy) = match quadrant {
            0 => (h, h),
            1 => (-h, h),
            2 => (-h, -h),
            _ => (h, -h),
        };
        Quad {
            cx: self.cx + dx,
            cy: self.cy + dy,
            half: h,
        }
    }
}

/// A Barnes–Hut quadtree node.
#[derive(Debug)]
enum TreeNode {
    Empty,
    Leaf {
        x: f64,
        y: f64,
        mass: f64,
    },
    Internal {
        mass: f64,
        com_x: f64,
        com_y: f64,
        children: Box<[Tree; 4]>,
    },
}

#[derive(Debug)]
struct Tree {
    quad: Quad,
    node: TreeNode,
}

impl Tree {
    fn new(quad: Quad) -> Self {
        Tree {
            quad,
            node: TreeNode::Empty,
        }
    }

    fn insert(&mut self, x: f64, y: f64, mass: f64) {
        if !self.quad.contains(x, y) {
            // Numerical drift can push a body marginally outside the root
            // region; clamp it to the boundary rather than losing it.
            let cx = x.clamp(self.quad.cx - self.quad.half, self.quad.cx + self.quad.half);
            let cy = y.clamp(self.quad.cy - self.quad.half, self.quad.cy + self.quad.half);
            return self.insert_contained(cx, cy, mass);
        }
        self.insert_contained(x, y, mass);
    }

    fn insert_contained(&mut self, x: f64, y: f64, mass: f64) {
        match &mut self.node {
            TreeNode::Empty => {
                self.node = TreeNode::Leaf { x, y, mass };
            }
            TreeNode::Leaf {
                x: lx,
                y: ly,
                mass: lmass,
            } => {
                let (lx, ly, lmass) = (*lx, *ly, *lmass);
                // Degenerate case: coincident bodies merge into one leaf to
                // keep the tree finite.
                if self.quad.half < 1e-9 || ((lx - x).abs() < 1e-12 && (ly - y).abs() < 1e-12) {
                    self.node = TreeNode::Leaf {
                        x: lx,
                        y: ly,
                        mass: lmass + mass,
                    };
                    return;
                }
                let children = Box::new([
                    Tree::new(self.quad.child(0)),
                    Tree::new(self.quad.child(1)),
                    Tree::new(self.quad.child(2)),
                    Tree::new(self.quad.child(3)),
                ]);
                self.node = TreeNode::Internal {
                    mass: 0.0,
                    com_x: 0.0,
                    com_y: 0.0,
                    children,
                };
                self.insert_contained(lx, ly, lmass);
                self.insert_contained(x, y, mass);
            }
            TreeNode::Internal {
                mass: total,
                com_x,
                com_y,
                children,
            } => {
                let new_total = *total + mass;
                *com_x = (*com_x * *total + x * mass) / new_total;
                *com_y = (*com_y * *total + y * mass) / new_total;
                *total = new_total;
                let q = self.quad.quadrant(x, y);
                children[q].insert_contained(x, y, mass);
            }
        }
    }

    /// Accumulated force on a unit at `(x, y)` with mass `mass`, using the θ
    /// opening criterion. Returns the number of interactions evaluated so
    /// the caller can charge computation proportionally.
    fn force(&self, x: f64, y: f64, mass: f64, theta: f64, fx: &mut f64, fy: &mut f64) -> u64 {
        match &self.node {
            TreeNode::Empty => 0,
            TreeNode::Leaf {
                x: ox,
                y: oy,
                mass: omass,
            } => {
                accumulate(x, y, mass, *ox, *oy, *omass, fx, fy);
                1
            }
            TreeNode::Internal {
                mass: total,
                com_x,
                com_y,
                children,
            } => {
                let dx = com_x - x;
                let dy = com_y - y;
                let dist = (dx * dx + dy * dy).sqrt().max(SOFTENING);
                if (self.quad.half * 2.0) / dist < theta {
                    accumulate(x, y, mass, *com_x, *com_y, *total, fx, fy);
                    1
                } else {
                    children
                        .iter()
                        .map(|c| c.force(x, y, mass, theta, fx, fy))
                        .sum()
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)] // two bodies and a force accumulator; a struct would obscure the physics
fn accumulate(x: f64, y: f64, mass: f64, ox: f64, oy: f64, omass: f64, fx: &mut f64, fy: &mut f64) {
    let dx = ox - x;
    let dy = oy - y;
    let dist_sq = dx * dx + dy * dy + SOFTENING * SOFTENING;
    let dist = dist_sq.sqrt();
    if dist < 1e-12 {
        return;
    }
    let f = G * mass * omass / dist_sq;
    *fx += f * dx / dist;
    *fy += f * dy / dist;
}

/// Build the quadtree over all bodies (insertion in global index order, so
/// parallel and sequential runs build identical trees).
fn build_tree(bodies: &[Body]) -> Tree {
    let extent = bodies
        .iter()
        .map(|b| b.x.abs().max(b.y.abs()))
        .fold(1.0f64, f64::max)
        * 1.1;
    let mut tree = Tree::new(Quad {
        cx: 0.0,
        cy: 0.0,
        half: extent,
    });
    for b in bodies {
        tree.insert(b.x, b.y, b.mass);
    }
    tree
}

/// Advance the bodies whose global indices are in `lo..hi` by one step,
/// using the tree built over all bodies. Returns the updated slice and the
/// number of interactions evaluated.
fn step_range(all: &[Body], lo: usize, hi: usize, params: &NbodyParams) -> (Vec<Body>, u64) {
    let tree = build_tree(all);
    let mut interactions = 0;
    let updated: Vec<Body> = all[lo..hi]
        .iter()
        .map(|b| {
            let mut fx = 0.0;
            let mut fy = 0.0;
            interactions += tree.force(b.x, b.y, b.mass, params.theta, &mut fx, &mut fy);
            let vx = b.vx + params.dt * fx / b.mass;
            let vy = b.vy + params.dt * fy / b.mass;
            Body {
                x: b.x + params.dt * vx,
                y: b.y + params.dt * vy,
                vx,
                vy,
                mass: b.mass,
            }
        })
        .collect();
    (updated, interactions)
}

/// Block boundaries: block `b` of `nodes` owns bodies `lo..hi`.
fn block_range(block: usize, nodes: usize, bodies: usize) -> (usize, usize) {
    let per = bodies.div_ceil(nodes);
    ((block * per).min(bodies), ((block + 1) * per).min(bodies))
}

/// Sequential reference: identical partitioned update order as the parallel
/// version (one virtual "node" per block) so results are bit-identical.
#[cfg(test)]
fn sequential(params: &NbodyParams, blocks: usize) -> Vec<Body> {
    let mut bodies = initial_bodies(params);
    for _ in 0..params.steps {
        let snapshot = bodies.clone();
        for block in 0..blocks {
            let (lo, hi) = block_range(block, blocks, params.bodies);
            let (updated, _) = step_range(&snapshot, lo, hi, params);
            bodies[lo..hi].copy_from_slice(&updated);
        }
    }
    bodies
}

/// Total kinetic + potential-proxy fingerprint for cheap comparisons.
#[cfg(test)]
fn checksum(bodies: &[Body]) -> f64 {
    bodies
        .iter()
        .map(|b| b.x + 2.0 * b.y + 3.0 * b.vx + 4.0 * b.vy)
        .sum()
}

fn nbody_node(
    ctx: &NodeCtx,
    blocks: &[ArrayHandle<f64>],
    params: &NbodyParams,
    slot: &ResultSlot<Vec<Body>>,
) {
    let nodes = ctx.num_nodes();
    let init_barrier = BarrierId(300);
    let step_barrier = BarrierId(301);
    let done_barrier = BarrierId(302);

    let all_initial = initial_bodies(params);
    for (b, handle) in blocks.iter().enumerate() {
        let (lo, hi) = block_range(b, nodes, params.bodies);
        ctx.bootstrap(handle, &encode_block(&all_initial[lo..hi]));
    }
    ctx.barrier(init_barrier);

    let me = ctx.node_id().index();
    for _ in 0..params.steps {
        // Read every block to reconstruct the full body set as of the end of
        // the previous step (decoded straight out of zero-copy views).
        let mut all = Vec::with_capacity(params.bodies);
        for handle in blocks {
            all.extend(decode_block(&ctx.view(handle)));
        }
        // A barrier separates the read phase from the update phase so no
        // node observes another node's current-step writes (the classic
        // read/compute/commit structure of DSM Barnes-Hut codes).
        ctx.barrier(step_barrier);
        let (lo, hi) = block_range(me, nodes, params.bodies);
        let (updated, interactions) = step_range(&all, lo, hi, params);
        // ~20 flops per interaction plus the tree build.
        ctx.compute(interactions * 20 + (params.bodies as u64) * 10);
        if lo < hi {
            // Encode the updated bodies directly into the block's storage.
            let mut block = ctx.view_mut(&blocks[me]);
            for (b, body) in updated.iter().enumerate() {
                block[b * FIELDS..(b + 1) * FIELDS]
                    .copy_from_slice(&[body.x, body.y, body.vx, body.vy, body.mass]);
            }
        }
        ctx.barrier(step_barrier);
    }

    if ctx.is_master() {
        let mut all = Vec::with_capacity(params.bodies);
        for handle in blocks {
            all.extend(decode_block(&ctx.view(handle)));
        }
        slot.publish(all);
    }
    ctx.barrier(done_barrier);
}

/// Run the DSM-parallel Barnes–Hut simulation.
pub fn run(config: ClusterConfig, params: &NbodyParams) -> AppRun<Vec<Body>> {
    let nodes = config.num_nodes;
    assert!(params.bodies >= nodes, "need at least one body per node");
    let mut registry = ObjectRegistry::new();
    // One block per node, created (and homed) on its owner: the initial home
    // placement is already optimal, so home migration has nothing to gain —
    // matching the paper's observation for Nbody.
    let blocks: Vec<ArrayHandle<f64>> = (0..nodes)
        .map(|b| {
            let (lo, hi) = block_range(b, nodes, params.bodies);
            ArrayHandle::<f64>::register(
                &mut registry,
                "nbody.block",
                b as u64,
                (hi - lo) * FIELDS,
                NodeId::from(b),
                HomeAssignment::CreationNode,
            )
        })
        .collect();
    let slot = ResultSlot::new();
    let slot_in = slot.clone();
    let params_in = params.clone();
    let report = Cluster::new(config, registry).run(move |ctx| {
        nbody_node(ctx, &blocks, &params_in, &slot_in);
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
    fn initial_conditions_are_deterministic() {
        let p = NbodyParams::small(64, 1);
        assert_eq!(initial_bodies(&p), initial_bodies(&p));
    }

    #[test]
    fn tree_force_approximates_direct_sum() {
        let p = NbodyParams::small(128, 1);
        let bodies = initial_bodies(&p);
        let tree = build_tree(&bodies);
        let probe = bodies[0];
        let mut fx = 0.0;
        let mut fy = 0.0;
        tree.force(probe.x, probe.y, probe.mass, 0.3, &mut fx, &mut fy);
        // Direct O(n^2) sum.
        let mut dx = 0.0;
        let mut dy = 0.0;
        for other in &bodies {
            accumulate(
                probe.x, probe.y, probe.mass, other.x, other.y, other.mass, &mut dx, &mut dy,
            );
        }
        let mag = (dx * dx + dy * dy).sqrt().max(1e-12);
        let err = ((fx - dx).powi(2) + (fy - dy).powi(2)).sqrt() / mag;
        assert!(err < 0.05, "Barnes-Hut force error too large: {err}");
    }

    #[test]
    fn energy_like_checksum_changes_over_time() {
        let p = NbodyParams::small(64, 3);
        let start = checksum(&initial_bodies(&p));
        let end = checksum(&sequential(&p, 4));
        assert!((start - end).abs() > 1e-9, "bodies should move");
    }

    #[test]
    fn parallel_matches_sequential() {
        let p = NbodyParams::small(64, 2);
        let seq = sequential(&p, 4);
        let run = run(cfg(4, ProtocolConfig::adaptive()), &p);
        assert_eq!(run.result.len(), seq.len());
        for (a, b) in run.result.iter().zip(seq.iter()) {
            assert_eq!(
                a, b,
                "parallel and sequential Barnes-Hut must agree exactly"
            );
        }
    }

    #[test]
    fn home_migration_changes_little_for_nbody() {
        let p = NbodyParams::small(64, 3);
        let with = run(cfg(4, ProtocolConfig::adaptive()), &p);
        let without = run(cfg(4, ProtocolConfig::no_migration()), &p);
        assert_eq!(checksum(&with.result), checksum(&without.result));
        // Blocks are homed at their writers from the start, so migration has
        // next to nothing to move and the message counts stay close.
        let a = with.report.breakdown_messages() as f64;
        let b = without.report.breakdown_messages() as f64;
        assert!(
            (a - b).abs() / b < 0.15,
            "Nbody should be insensitive to HM: {a} vs {b}"
        );
    }
}

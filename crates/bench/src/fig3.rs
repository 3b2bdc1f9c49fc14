//! Figure 3 — improvement of the adaptive-threshold protocol (AT) over the
//! fixed-threshold protocol FT2 in execution time, message count and network
//! traffic, as the problem size scales (ASP graph size, SOR matrix size), on
//! eight cluster nodes.

use crate::table::{fmt_pct, Table};
use crate::{cluster, Scale};
use dsm_apps::{asp, sor};
use dsm_core::ProtocolConfig;
use dsm_runtime::{ClusterBuilder, ExecutionReport, SimConfig};

/// Number of cluster nodes used by the figure (the paper uses eight).
pub(crate) const NODES: usize = 8;

/// One measurement point of Figure 3.
#[derive(Debug, Clone)]
pub struct Fig3Point {
    /// Application name (ASP or SOR).
    pub app: String,
    /// Problem size (graph vertices / matrix dimension).
    pub size: usize,
    /// Relative reduction of execution time, AT vs FT2.
    pub time_improvement: f64,
    /// Relative reduction of the message count, AT vs FT2.
    pub message_improvement: f64,
    /// Relative reduction of the network traffic, AT vs FT2.
    pub traffic_improvement: f64,
}

/// Problem sizes swept by the figure.
pub(crate) fn problem_sizes(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Small => vec![32, 64, 128],
        Scale::Paper => vec![128, 256, 512, 1024],
    }
}

/// Collect the ASP and SOR series on the sim fabric under `sim`.
pub fn collect(scale: Scale, sim: &SimConfig) -> Vec<Fig3Point> {
    let mut points = Vec::new();
    for size in problem_sizes(scale) {
        points.push(asp_point(size, sim));
        points.push(sor_point(size, sim));
    }
    points
}

/// The AT and FT2 clusters a point compares. As in Figure 2, they run with
/// flush batching disabled (the paper's one-`DiffFlush`-per-object wire
/// protocol), so the comparison measures exactly what the paper measured;
/// the gate ([`crate::gate`]) reports Figure 3's workloads in both wire modes.
fn at_and_ft2(sim: &SimConfig) -> [ClusterBuilder; 2] {
    [
        ProtocolConfig::adaptive(),
        ProtocolConfig::fixed_threshold(2),
    ]
    .map(|protocol| cluster(NODES, protocol, sim).flush_batching(false))
}

fn improvement(app: &str, size: usize, at: &ExecutionReport, ft2: &ExecutionReport) -> Fig3Point {
    Fig3Point {
        app: app.to_string(),
        size,
        time_improvement: at.time_improvement_over(ft2),
        message_improvement: at.message_improvement_over(ft2),
        traffic_improvement: at.traffic_improvement_over(ft2),
    }
}

/// One ASP measurement at a given graph size.
pub(crate) fn asp_point(size: usize, sim: &SimConfig) -> Fig3Point {
    let params = asp::AspParams::small(size);
    let [at, ft2] = at_and_ft2(sim).map(|config| asp::run(config, &params).report);
    improvement("ASP", size, &at, &ft2)
}

/// One SOR measurement at a given matrix size.
pub(crate) fn sor_point(size: usize, sim: &SimConfig) -> Fig3Point {
    let params = sor::SorParams::small(size, 6);
    let [at, ft2] = at_and_ft2(sim).map(|config| sor::run(config, &params).report);
    improvement("SOR", size, &at, &ft2)
}

/// Render the collected points as a table.
pub fn render(points: &[Fig3Point]) -> Table {
    let mut table = Table::new(&[
        "app",
        "size",
        "time_improvement",
        "message_improvement",
        "traffic_improvement",
    ]);
    for p in points {
        table.row(vec![
            p.app.clone(),
            p.size.to_string(),
            fmt_pct(p.time_improvement),
            fmt_pct(p.message_improvement),
            fmt_pct(p.traffic_improvement),
        ]);
    }
    table
}

/// Shape check: AT never loses to FT2 by more than noise, and wins on
/// messages for both applications.
pub fn shape_holds(points: &[Fig3Point]) -> bool {
    points.iter().all(|p| {
        p.message_improvement > -0.02 && p.time_improvement > -0.05 && p.traffic_improvement > -0.05
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_scale() {
        assert_eq!(problem_sizes(Scale::Small), vec![32, 64, 128]);
        assert_eq!(problem_sizes(Scale::Paper).last(), Some(&1024));
    }

    #[test]
    fn at_improves_over_ft2_on_small_instances() {
        for sim in SimConfig::modeled_sims() {
            let points = vec![asp_point(24, &sim), sor_point(24, &sim)];
            assert!(
                shape_holds(&points),
                "figure 3 shape violated (seed {:#x}): {points:?}",
                sim.seed
            );
            assert_eq!(render(&points).len(), 2);
        }
    }
}

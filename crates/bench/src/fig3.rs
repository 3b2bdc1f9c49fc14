//! Figure 3 — improvement of the adaptive-threshold protocol (AT) over the
//! fixed-threshold protocol FT2 in execution time, message count and network
//! traffic, as the problem size scales (ASP graph size, SOR matrix size), on
//! eight cluster nodes.

use crate::table::{fmt_pct, Table};
use crate::{cluster_on, Scale};
use dsm_apps::{asp, sor};
use dsm_core::ProtocolConfig;
use dsm_runtime::FabricMode;

/// Number of cluster nodes used by the figure (the paper uses eight).
pub const NODES: usize = 8;

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
pub fn problem_sizes(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Small => vec![32, 64, 128],
        Scale::Paper => vec![128, 256, 512, 1024],
    }
}

/// Collect the ASP and SOR series.
pub fn collect(scale: Scale) -> Vec<Fig3Point> {
    collect_on(scale, &FabricMode::Threaded)
}

/// As [`collect`], on an explicit fabric (`--fabric sim --seed N` makes the
/// reproduction replayable seed-exactly).
pub fn collect_on(scale: Scale, fabric: &FabricMode) -> Vec<Fig3Point> {
    let mut points = Vec::new();
    for size in problem_sizes(scale) {
        points.push(asp_point_on(size, fabric));
        points.push(sor_point_on(size, fabric));
    }
    points
}

/// One ASP measurement at a given graph size.
///
/// As in Figure 2, the paper-reproduction points run with flush batching
/// disabled (the paper's one-`DiffFlush`-per-object wire protocol), so the
/// AT-vs-FT2 comparison measures exactly what the paper measured; the gate
/// table the `fig3` binary prints alongside reports both wire modes.
pub fn asp_point_on(size: usize, fabric: &FabricMode) -> Fig3Point {
    let params = asp::AspParams::small(size);
    let at = asp::run(
        cluster_on(NODES, ProtocolConfig::adaptive(), fabric).with_flush_batching(false),
        &params,
    );
    let ft2 = asp::run(
        cluster_on(NODES, ProtocolConfig::fixed_threshold(2), fabric).with_flush_batching(false),
        &params,
    );
    Fig3Point {
        app: "ASP".to_string(),
        size,
        time_improvement: at.report.time_improvement_over(&ft2.report),
        message_improvement: at.report.message_improvement_over(&ft2.report),
        traffic_improvement: at.report.traffic_improvement_over(&ft2.report),
    }
}

/// One SOR measurement at a given matrix size (paper wire mode, see
/// [`asp_point_on`]).
pub fn sor_point_on(size: usize, fabric: &FabricMode) -> Fig3Point {
    let params = sor::SorParams::small(size, 6);
    let at = sor::run(
        cluster_on(NODES, ProtocolConfig::adaptive(), fabric).with_flush_batching(false),
        &params,
    );
    let ft2 = sor::run(
        cluster_on(NODES, ProtocolConfig::fixed_threshold(2), fabric).with_flush_batching(false),
        &params,
    );
    Fig3Point {
        app: "SOR".to_string(),
        size,
        time_improvement: at.report.time_improvement_over(&ft2.report),
        message_improvement: at.report.message_improvement_over(&ft2.report),
        traffic_improvement: at.report.traffic_improvement_over(&ft2.report),
    }
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
    use dsm_runtime::SimConfig;

    #[test]
    fn sizes_match_scale() {
        assert_eq!(problem_sizes(Scale::Small), vec![32, 64, 128]);
        assert_eq!(problem_sizes(Scale::Paper).last(), Some(&1024));
    }

    #[test]
    fn at_improves_over_ft2_on_small_instances() {
        // Modeled time is only a function of the seed on the sim fabric: the
        // calm schedule plus the integration suite's perturbed seed corpus.
        let mut fabrics = vec![SimConfig::calm(2004)];
        fabrics.extend([0x51E5_ED01, 0x51E5_ED02, 0x51E5_ED03].map(SimConfig::perturbed));
        for sim in fabrics {
            let seed = sim.seed;
            let fabric = FabricMode::Sim(sim);
            let points = vec![asp_point_on(24, &fabric), sor_point_on(24, &fabric)];
            assert!(
                shape_holds(&points),
                "figure 3 shape violated (seed {seed:#x}): {points:?}"
            );
            assert_eq!(render(&points).len(), 2);
        }
    }
}

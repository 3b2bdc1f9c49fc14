//! Figure 2 — application execution time against the number of processors,
//! with home migration enabled (HM = adaptive threshold) and disabled
//! (NoHM), for ASP, SOR, Nbody and TSP.

use crate::table::{fmt_f, Table};
use crate::{cluster, Scale};
use dsm_apps::{asp, nbody, sor, tsp};
use dsm_core::ProtocolConfig;
use dsm_runtime::SimConfig;

/// One measurement point of Figure 2.
#[derive(Debug, Clone)]
pub struct Fig2Point {
    /// Application name (ASP, SOR, Nbody, TSP).
    pub app: String,
    /// Number of cluster nodes.
    pub nodes: usize,
    /// Policy label ("HM" = adaptive migration, "NoHM" = disabled).
    pub policy: String,
    /// Virtual execution time in milliseconds.
    pub time_ms: f64,
    /// Total protocol messages.
    pub messages: u64,
    /// Home migrations performed.
    pub migrations: u64,
}

/// Node counts swept by the figure.
pub(crate) fn node_counts(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Small => vec![2, 4, 8],
        Scale::Paper => vec![2, 4, 8, 16],
    }
}

fn policies() -> Vec<(&'static str, ProtocolConfig)> {
    vec![
        ("NoHM", ProtocolConfig::no_migration()),
        ("HM", ProtocolConfig::adaptive()),
    ]
}

/// Produce every point of Figure 2 (all four applications) on the sim
/// fabric under `sim`.
///
/// The figure reproduces the *paper's* wire protocol, so flush batching is
/// disabled here: batching compresses the NoHM baseline (whose flushes
/// persist and batch) much more than HM (which migrated the objects home),
/// which would skew exactly the comparison the figure makes. The gate
/// ([`crate::gate`]) reports Figure 2's SOR in both wire modes.
pub fn collect(scale: Scale, sim: &SimConfig) -> Vec<Fig2Point> {
    let mut points = Vec::new();
    for nodes in node_counts(scale) {
        for (label, protocol) in policies() {
            let config = || cluster(nodes, protocol.clone(), sim).flush_batching(false);
            let params = match scale {
                Scale::Small => asp::AspParams::small(96),
                Scale::Paper => asp::AspParams::paper(),
            };
            let run = asp::run(config(), &params);
            points.push(point("ASP", nodes, label, &run.report));

            let params = match scale {
                Scale::Small => sor::SorParams::small(96, 6),
                Scale::Paper => sor::SorParams::paper(),
            };
            let run = sor::run(config(), &params);
            points.push(point("SOR", nodes, label, &run.report));

            let params = match scale {
                Scale::Small => nbody::NbodyParams::small(256, 3),
                Scale::Paper => nbody::NbodyParams::paper(),
            };
            let run = nbody::run(config(), &params);
            points.push(point("Nbody", nodes, label, &run.report));

            let params = match scale {
                Scale::Small => tsp::TspParams::small(10),
                Scale::Paper => tsp::TspParams::paper(),
            };
            let run = tsp::run(config(), &params);
            points.push(point("TSP", nodes, label, &run.report));
        }
    }
    points
}

fn point(
    app: &str,
    nodes: usize,
    policy: &str,
    report: &dsm_runtime::ExecutionReport,
) -> Fig2Point {
    Fig2Point {
        app: app.to_string(),
        nodes,
        policy: policy.to_string(),
        time_ms: report.execution_time.as_millis(),
        messages: report.total_messages(),
        migrations: report.migrations(),
    }
}

/// Render the collected points as the figure's table.
pub fn render(points: &[Fig2Point]) -> Table {
    let mut table = Table::new(&[
        "app",
        "nodes",
        "policy",
        "time_ms",
        "messages",
        "migrations",
    ]);
    for p in points {
        table.row(vec![
            p.app.clone(),
            p.nodes.to_string(),
            p.policy.clone(),
            fmt_f(p.time_ms),
            p.messages.to_string(),
            p.migrations.to_string(),
        ]);
    }
    table
}

/// Shape checks for the figure: HM must beat NoHM in modeled time for ASP
/// and SOR on four or more nodes and stay neutral for Nbody and TSP (gated
/// on message-count neutrality).
pub fn shape_holds(points: &[Fig2Point]) -> bool {
    let find = |app: &str, nodes: usize, policy: &str| -> Option<&Fig2Point> {
        points
            .iter()
            .find(|p| p.app == app && p.nodes == nodes && p.policy == policy)
    };
    let mut ok = true;
    for p in points {
        if p.policy != "HM" {
            continue;
        }
        let Some(nohm) = find(&p.app, p.nodes, "NoHM") else {
            continue;
        };
        match p.app.as_str() {
            "ASP" | "SOR" => {
                if p.nodes >= 4 {
                    ok &= p.time_ms < nohm.time_ms;
                }
            }
            "TSP" => {
                // TSP is neutral, but its modeled *time* follows the
                // lock-grant order: branch-and-bound pruning depends on
                // which worker wins each lock (the paper notes lock
                // re-acquisition "happens randomly at runtime"; on the sim
                // it is a function of the seed), which moves the explored
                // work — and with it the time — by tens of percent. The
                // stable expression of neutrality is the message count: HM
                // neither adds nor removes meaningful coherence traffic.
                let delta = (p.messages as f64 - nohm.messages as f64).abs();
                ok &= delta / (nohm.messages as f64) < 0.25;
            }
            _ => {
                // Nbody: neutral like TSP and gated the same way — HM
                // must not meaningfully change the message count.
                let delta = (p.messages as f64 - nohm.messages as f64).abs();
                ok &= delta / (nohm.messages as f64) < 0.25;
            }
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_counts_match_scale() {
        assert_eq!(node_counts(Scale::Small), vec![2, 4, 8]);
        assert_eq!(node_counts(Scale::Paper), vec![2, 4, 8, 16]);
    }

    #[test]
    fn tiny_fig2_sweep_produces_expected_shape() {
        // A miniature sweep (one node count) exercising the full pipeline
        // in the figure's wire mode, under every test schedule.
        for sim in SimConfig::modeled_sims() {
            let config = |protocol: &ProtocolConfig| {
                cluster(4, protocol.clone(), &sim).flush_batching(false)
            };
            let mut points = Vec::new();
            for (label, protocol) in policies() {
                let run = asp::run(config(&protocol), &asp::AspParams::small(24));
                points.push(point("ASP", 4, label, &run.report));
                let run = sor::run(config(&protocol), &sor::SorParams::small(24, 2));
                points.push(point("SOR", 4, label, &run.report));
                let run = nbody::run(config(&protocol), &nbody::NbodyParams::small(48, 1));
                points.push(point("Nbody", 4, label, &run.report));
            }
            assert!(
                shape_holds(&points),
                "figure 2 shape violated (seed {:#x}): {points:?}",
                sim.seed
            );
            assert_eq!(render(&points).len(), points.len());
        }
    }
}

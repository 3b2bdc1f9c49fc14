//! Figure 5 — the synthetic single-writer benchmark: (a) normalized
//! execution time and (b) normalized message breakdown (obj / mig / diff /
//! redir) for the four protocols NM, FT1, FT2 and AT against the repetition
//! `r` of the single-writer pattern.

use crate::table::{fmt_f, Table};
use crate::{cluster, Scale};
use dsm_apps::synthetic::{self, SyntheticParams};
use dsm_core::ProtocolConfig;
use dsm_net::MsgCategory;
use dsm_runtime::SimConfig;

/// One protocol's measurement at one repetition value.
#[derive(Debug, Clone)]
pub struct Fig5Point {
    /// Repetition of the single-writer pattern.
    pub repetition: usize,
    /// Protocol label (NM, FT1, FT2, AT).
    pub policy: String,
    /// Virtual execution time in milliseconds.
    pub time_ms: f64,
    /// `obj`: object fault-in replies without migration.
    pub obj: u64,
    /// `mig`: object fault-in replies that migrated the home.
    pub mig: u64,
    /// `diff`: diff propagations.
    pub diff: u64,
    /// `redir`: redirection replies.
    pub redir: u64,
    /// Home migrations performed.
    pub migrations: u64,
}

impl Fig5Point {
    /// Total messages in the paper's breakdown (obj + mig + diff + redir).
    pub(crate) fn breakdown_total(&self) -> u64 {
        self.obj + self.mig + self.diff + self.redir
    }
}

/// The repetitions swept by the figure (the paper uses 2, 4, 8, 16).
pub(crate) fn repetitions(_scale: Scale) -> Vec<usize> {
    vec![2, 4, 8, 16]
}

/// The protocols compared by the figure.
pub(crate) fn protocols() -> Vec<(&'static str, ProtocolConfig)> {
    vec![
        ("NM", ProtocolConfig::no_migration()),
        ("FT1", ProtocolConfig::fixed_threshold(1)),
        ("FT2", ProtocolConfig::fixed_threshold(2)),
        ("AT", ProtocolConfig::adaptive()),
    ]
}

/// Number of cluster nodes: eight workers plus the master that hosts the
/// locks and the counter's initial home, as in the paper's experiment.
pub(crate) fn nodes(scale: Scale) -> usize {
    match scale {
        Scale::Small => 5,
        Scale::Paper => 9,
    }
}

/// Run one protocol at one repetition on the sim fabric under `sim`.
pub(crate) fn measure(
    repetition: usize,
    label: &str,
    protocol: ProtocolConfig,
    scale: Scale,
    sim: &SimConfig,
) -> Fig5Point {
    let n = nodes(scale);
    let workers = n - 1;
    let params = match scale {
        Scale::Small => SyntheticParams {
            repetition,
            total_updates: (repetition * workers * 8) as u64,
            compute_ops: 2_000,
        },
        Scale::Paper => SyntheticParams::paper(repetition, workers),
    };
    let run = synthetic::run(cluster(n, protocol, sim), &params);
    Fig5Point {
        repetition,
        policy: label.to_string(),
        time_ms: run.report.execution_time.as_millis(),
        obj: run.report.messages(MsgCategory::ObjReply),
        mig: run.report.messages(MsgCategory::ObjReplyMigrate),
        diff: run.report.messages(MsgCategory::Diff),
        redir: run.report.messages(MsgCategory::Redirect),
        migrations: run.report.migrations(),
    }
}

/// Collect the whole figure on the sim fabric under `sim`.
pub fn collect(scale: Scale, sim: &SimConfig) -> Vec<Fig5Point> {
    let mut points = Vec::new();
    for repetition in repetitions(scale) {
        for (label, protocol) in protocols() {
            points.push(measure(repetition, label, protocol, scale, sim));
        }
    }
    points
}

/// Render panel (a): execution times normalized to the slowest protocol at
/// each repetition, plus the raw times.
pub fn render_times(points: &[Fig5Point]) -> Table {
    let mut table = Table::new(&["repetition", "policy", "time_ms", "normalized"]);
    for repetition in points
        .iter()
        .map(|p| p.repetition)
        .collect::<std::collections::BTreeSet<_>>()
    {
        let group: Vec<&Fig5Point> = points
            .iter()
            .filter(|p| p.repetition == repetition)
            .collect();
        let max = group
            .iter()
            .map(|p| p.time_ms)
            .fold(0.0f64, f64::max)
            .max(1e-9);
        for p in &group {
            table.row(vec![
                repetition.to_string(),
                p.policy.clone(),
                fmt_f(p.time_ms),
                fmt_f(p.time_ms / max),
            ]);
        }
    }
    table
}

/// Render panel (b): the message breakdown normalized to the largest total
/// at each repetition.
pub fn render_messages(points: &[Fig5Point]) -> Table {
    let mut table = Table::new(&[
        "repetition",
        "policy",
        "obj",
        "mig",
        "diff",
        "redir",
        "total",
        "normalized",
    ]);
    for repetition in points
        .iter()
        .map(|p| p.repetition)
        .collect::<std::collections::BTreeSet<_>>()
    {
        let group: Vec<&Fig5Point> = points
            .iter()
            .filter(|p| p.repetition == repetition)
            .collect();
        let max = group
            .iter()
            .map(|p| p.breakdown_total())
            .max()
            .unwrap_or(1)
            .max(1) as f64;
        for p in &group {
            table.row(vec![
                repetition.to_string(),
                p.policy.clone(),
                p.obj.to_string(),
                p.mig.to_string(),
                p.diff.to_string(),
                p.redir.to_string(),
                p.breakdown_total().to_string(),
                fmt_f(p.breakdown_total() as f64 / max),
            ]);
        }
    }
    table
}

/// Shape checks corresponding to the paper's four observations in §5.2:
///
/// 1. at large repetition (16) FT1 and AT eliminate a large share of the
///    obj + diff messages compared with NM;
/// 2. AT matches FT1's sensitivity at large repetitions;
/// 3. fixed thresholds pay redirections at small repetitions;
/// 4. AT produces no more redirections than FT1 at small repetitions.
pub fn shape_holds(points: &[Fig5Point]) -> Vec<(String, bool)> {
    let find = |r: usize, policy: &str| {
        points
            .iter()
            .find(|p| p.repetition == r && p.policy == policy)
    };
    let mut checks = Vec::new();
    let reps: Vec<usize> = points
        .iter()
        .map(|p| p.repetition)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let large = *reps.last().unwrap_or(&16);
    let small = *reps.first().unwrap_or(&2);

    if let (Some(nm), Some(ft1), Some(at)) =
        (find(large, "NM"), find(large, "FT1"), find(large, "AT"))
    {
        let nm_pairs = nm.obj + nm.diff;
        let ft1_pairs = ft1.obj + ft1.mig + ft1.diff;
        let at_pairs = at.obj + at.mig + at.diff;
        checks.push((
            format!("r={large}: FT1 eliminates most obj+diff vs NM"),
            (ft1_pairs as f64) < 0.45 * nm_pairs as f64,
        ));
        checks.push((
            format!("r={large}: AT as sensitive as FT1 (within 25%)"),
            (at_pairs as f64) < 1.25 * ft1_pairs as f64,
        ));
    }
    if let (Some(ft1), Some(at)) = (find(small, "FT1"), find(small, "AT")) {
        checks.push((format!("r={small}: FT1 pays redirections"), ft1.redir > 0));
        checks.push((
            format!("r={small}: AT redirections <= FT1 redirections"),
            at.redir <= ft1.redir,
        ));
    }
    if let (Some(nm), Some(ft2)) = (find(2, "NM"), find(2, "FT2")) {
        checks.push((
            "r=2: FT2 prohibits home migration".to_string(),
            ft2.migrations <= nm.migrations + 1,
        ));
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repetitions_match_paper() {
        assert_eq!(repetitions(Scale::Small), vec![2, 4, 8, 16]);
    }

    #[test]
    fn protocols_cover_all_four_lines() {
        let labels: Vec<&str> = protocols().iter().map(|(l, _)| *l).collect();
        assert_eq!(labels, vec!["NM", "FT1", "FT2", "AT"]);
    }

    #[test]
    fn large_repetition_favours_migration() {
        for sim in crate::test_sims() {
            let nm = measure(8, "NM", ProtocolConfig::no_migration(), Scale::Small, &sim);
            let at = measure(8, "AT", ProtocolConfig::adaptive(), Scale::Small, &sim);
            assert!(at.migrations > 0, "seed {:#x}: AT never migrated", sim.seed);
            assert!(
                (at.obj + at.mig + at.diff) < nm.obj + nm.diff,
                "AT should reduce fault-in + diff traffic at r=8 (seed {:#x}: AT {at:?} vs NM {nm:?})",
                sim.seed
            );
        }
    }

    #[test]
    fn tables_render_every_point() {
        let sim = SimConfig::calm(crate::gate::GATE_SEED);
        let points = vec![
            measure(2, "NM", ProtocolConfig::no_migration(), Scale::Small, &sim),
            measure(2, "AT", ProtocolConfig::adaptive(), Scale::Small, &sim),
        ];
        assert_eq!(render_times(&points).len(), 2);
        assert_eq!(render_messages(&points).len(), 2);
    }
}

//! Ablation experiments that go beyond the paper's figures:
//!
//! * **Notification mechanism** (§3.2 discussion): forwarding pointer vs.
//!   home manager vs. broadcast, under the synthetic workload.
//! * **Coefficient sensitivity** (§4.2 / Appendix A): forcing the home
//!   access coefficient α to fixed values and varying the feedback
//!   coefficient λ.
//! * **Related-work policies** (§2): the paper's AT against JUMP-style
//!   migrate-on-request and Jackal-style lazy flushing under an adversarial
//!   sequentially-rotating-writer workload.

use crate::table::{fmt_f, Table};
use crate::{cluster, Scale};
use dsm_apps::sor;
use dsm_apps::synthetic::{self, SyntheticParams};
use dsm_core::{
    AdaptiveThresholdPolicy, FixedThresholdPolicy, HomeMigrationPolicy, LazyFlushingPolicy,
    MigrateOnRequestPolicy, NoMigrationPolicy, NotificationMechanism, ProtocolConfig,
};
use dsm_net::MsgCategory;
use std::sync::Arc;

/// One ablation measurement.
#[derive(Debug, Clone)]
pub struct AblationPoint {
    /// Which configuration was run.
    pub label: String,
    /// Virtual execution time in milliseconds.
    pub time_ms: f64,
    /// Total messages in the coherence breakdown.
    pub breakdown_messages: u64,
    /// Redirection replies.
    pub redirections: u64,
    /// Notification messages (broadcast / manager posts).
    pub notifications: u64,
    /// Home migrations.
    pub migrations: u64,
}

fn synthetic_params(scale: Scale, repetition: usize, workers: usize) -> SyntheticParams {
    match scale {
        Scale::Small => SyntheticParams {
            repetition,
            total_updates: (repetition * workers * 8) as u64,
            compute_ops: 2_000,
        },
        Scale::Paper => SyntheticParams::paper(repetition, workers),
    }
}

fn run_synthetic(
    label: &str,
    protocol: ProtocolConfig,
    scale: Scale,
    repetition: usize,
) -> AblationPoint {
    let nodes = crate::fig5::nodes(scale);
    let params = synthetic_params(scale, repetition, nodes - 1);
    let run = synthetic::run(cluster(nodes, protocol), &params);
    AblationPoint {
        label: label.to_string(),
        time_ms: run.report.execution_time.as_millis(),
        breakdown_messages: run.report.breakdown_messages(),
        redirections: run.report.messages(MsgCategory::Redirect),
        notifications: run.report.messages(MsgCategory::HomeNotify)
            + run.report.messages(MsgCategory::HomeLookup),
        migrations: run.report.migrations(),
    }
}

/// A1: compare the three new-home notification mechanisms under the
/// synthetic workload at a moderate repetition.
pub fn notification_comparison(scale: Scale) -> Vec<AblationPoint> {
    let repetition = 8;
    vec![
        run_synthetic(
            "forwarding_pointer",
            ProtocolConfig::adaptive().with_notification(NotificationMechanism::ForwardingPointer),
            scale,
            repetition,
        ),
        run_synthetic(
            "home_manager",
            ProtocolConfig::adaptive().with_notification(NotificationMechanism::HomeManager),
            scale,
            repetition,
        ),
        run_synthetic(
            "broadcast",
            ProtocolConfig::adaptive().with_notification(NotificationMechanism::Broadcast),
            scale,
            repetition,
        ),
    ]
}

/// A2: sensitivity of the adaptive protocol to the home access coefficient α
/// and feedback coefficient λ, under the transient (r = 2) synthetic
/// workload where the feedback matters most.
pub fn coefficient_sensitivity(scale: Scale) -> Vec<AblationPoint> {
    let mut points = Vec::new();
    for (label, lambda, alpha) in [
        ("lambda=1, alpha=model", 1.0, None),
        ("lambda=1, alpha=1", 1.0, Some(1.0)),
        ("lambda=1, alpha=8", 1.0, Some(8.0)),
        ("lambda=0.25, alpha=model", 0.25, None),
        ("lambda=4, alpha=model", 4.0, None),
    ] {
        let policy = AdaptiveThresholdPolicy::new(lambda, 1.0);
        let policy = match alpha {
            Some(alpha) => policy.with_alpha_override(alpha),
            None => policy,
        };
        points.push(run_synthetic(
            label,
            ProtocolConfig::adaptive().with_migration(policy),
            scale,
            2,
        ));
    }
    points
}

/// A3: the paper's adaptive policy against the related-work policies on SOR
/// (a lasting single-writer workload where every reasonable policy should
/// relocate rows) — the interesting column is the redirection/notification
/// overhead each policy pays to get there.
pub fn related_work_comparison(scale: Scale) -> Vec<AblationPoint> {
    let size = match scale {
        Scale::Small => 32,
        Scale::Paper => 512,
    };
    let params = sor::SorParams::small(size, 4);
    let mut points = Vec::new();
    let policies: [(&str, Arc<dyn HomeMigrationPolicy>); 5] = [
        ("AT (paper)", Arc::new(AdaptiveThresholdPolicy::paper())),
        ("FT2", Arc::new(FixedThresholdPolicy::new(2))),
        ("JUMP migrate-on-request", Arc::new(MigrateOnRequestPolicy)),
        (
            "Jackal lazy flushing",
            Arc::new(LazyFlushingPolicy::default()),
        ),
        ("No migration", Arc::new(NoMigrationPolicy)),
    ];
    for (label, policy) in policies {
        let run = sor::run(
            cluster(8, ProtocolConfig::adaptive().with_migration(policy)),
            &params,
        );
        points.push(AblationPoint {
            label: label.to_string(),
            time_ms: run.report.execution_time.as_millis(),
            breakdown_messages: run.report.breakdown_messages(),
            redirections: run.report.messages(MsgCategory::Redirect),
            notifications: run.report.messages(MsgCategory::HomeNotify),
            migrations: run.report.migrations(),
        });
    }
    points
}

/// Render ablation points as a table.
pub fn render(points: &[AblationPoint]) -> Table {
    let mut table = Table::new(&[
        "configuration",
        "time_ms",
        "coherence_msgs",
        "redirections",
        "notifications",
        "migrations",
    ]);
    for p in points {
        table.row(vec![
            p.label.clone(),
            fmt_f(p.time_ms),
            p.breakdown_messages.to_string(),
            p.redirections.to_string(),
            p.notifications.to_string(),
            p.migrations.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn notification_mechanisms_trade_redirections_for_notifications() {
        let points = notification_comparison(Scale::Small);
        assert_eq!(points.len(), 3);
        let fp = &points[0];
        let bc = &points[2];
        // The forwarding pointer sends no notifications; broadcast does.
        assert_eq!(fp.notifications, 0);
        assert!(bc.notifications > 0);
        assert!(render(&points).len() == 3);
    }

    #[test]
    fn related_work_policies_all_converge_on_sor() {
        let points = related_work_comparison(Scale::Small);
        let at = points.iter().find(|p| p.label.starts_with("AT")).unwrap();
        let nm = points.iter().find(|p| p.label == "No migration").unwrap();
        // The paper's policy must beat the no-migration baseline on coherence
        // traffic; the related-work baselines are reported for comparison and
        // their exact counts depend on scheduling, so only AT is asserted.
        assert!(at.breakdown_messages < nm.breakdown_messages);
        assert!(at.migrations > 0, "AT performed no migrations on SOR");
        assert_eq!(nm.migrations, 0);
    }
}

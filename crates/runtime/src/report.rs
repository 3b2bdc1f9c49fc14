//! Experiment reports.
//!
//! One [`ExecutionReport`] summarizes a cluster run: virtual execution time
//! (what Figure 2/3/5(a) plot), network statistics (message counts and bytes
//! — Figures 3 and 5(b)) and merged protocol counters (migrations,
//! redirections, fault-ins — used for the analysis sections).

use dsm_core::{PolicyTelemetry, ProtocolStats};
use dsm_model::{SimDuration, SimTime};
use dsm_net::{DeliveryTrace, MsgCategory, NetworkStats};

/// Server-scheduling counters of one threaded or TCP run: what it cost the
/// wake-on-send executor pool to drive every node's protocol server. The
/// idle-wakeup counter is the headline number — a parked pool performs zero
/// timer wakeups, so on a quiet cluster it stays a small constant however
/// long the quiet lasts.
#[derive(Debug, Clone)]
pub struct SchedulerReport {
    /// Worker threads in the executor pool.
    pub workers: usize,
    /// Handler steps executed, by workers and helpers alike.
    pub steps: u64,
    /// Handler steps that ran on an application thread waiting for its
    /// reply instead of on a worker (included in `steps`).
    pub helped_steps: u64,
    /// Wake-on-send notifications that marked a node runnable.
    pub wakeups: u64,
    /// Idle server wakeups: handler steps that found nothing to do (a wake
    /// that raced the drain which already consumed its message).
    pub idle_wakeups: u64,
    /// Notifications that arrived while the node was mid-step (the
    /// finishing worker re-queued it).
    pub renotifies: u64,
    /// Busy-deferral re-arm races resolved by a worker-side re-queue: the
    /// view lease was released between the final retry and the epoch check.
    pub rearm_requeues: u64,
    /// Deepest the runnable queue ever got.
    pub runnable_high_watermark: usize,
    /// Most workers ever parked at once.
    pub parked_high_watermark: usize,
    /// Deepest any node's inbound message queue ever got, across the
    /// cluster — a scheduling stall (a node falling behind its arrivals)
    /// shows up here.
    pub queue_depth_high_watermark: usize,
}

/// Summary of one cluster run.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// Virtual execution time of the run: the maximum final clock over all
    /// nodes (the slowest node defines completion, as on a real cluster).
    pub execution_time: SimDuration,
    /// Final virtual clock of every node, in node order.
    pub node_times: Vec<SimTime>,
    /// Aggregated network statistics (all nodes).
    pub network: NetworkStats,
    /// Merged protocol statistics (all nodes).
    pub protocol: ProtocolStats,
    /// Number of simulated cluster nodes.
    pub num_nodes: usize,
    /// Label of the migration policy that produced this run ("AT", "FT2", ...).
    pub policy_label: String,
    /// The complete, replayable delivery history of the run when it ran on
    /// the sim fabric (`FabricMode::Sim`); `None` on the
    /// threaded fabric. The same cluster seed + fabric seed reproduce this
    /// trace bit-identically.
    pub delivery_trace: Option<DeliveryTrace>,
    /// The executor's scheduling counters; `None` on sim runs, whose
    /// virtual-time scheduler has neither a server pool nor inbound queues.
    pub scheduler: Option<SchedulerReport>,
}

impl ExecutionReport {
    /// Total protocol messages (all categories).
    pub fn total_messages(&self) -> u64 {
        self.network.total_messages()
    }

    /// Total network traffic in bytes.
    pub fn total_traffic_bytes(&self) -> u64 {
        self.network.total_bytes()
    }

    /// Message count for the paper's Figure 5(b) breakdown (obj + mig +
    /// diff + redir; synchronization excluded).
    pub fn breakdown_messages(&self) -> u64 {
        self.network.breakdown_messages()
    }

    /// Messages of one category.
    pub fn messages(&self, category: MsgCategory) -> u64 {
        self.network.category(category).count
    }

    /// Number of home migrations performed during the run.
    pub fn migrations(&self) -> u64 {
        self.protocol.migrations()
    }

    /// The merged home-migration decision telemetry: decisions considered
    /// vs. taken, migrate-backs and the threshold trajectory.
    pub fn policy_telemetry(&self) -> &PolicyTelemetry {
        &self.protocol.policy
    }

    /// Migrations that returned an object's home to the node it had just
    /// left — the ping-pong events hysteresis policies exist to damp.
    pub fn migrate_backs(&self) -> u64 {
        self.protocol.policy.migrate_backs
    }

    /// Fraction of considered migration decisions that migrated (0 when no
    /// decision was considered).
    pub fn migration_rate(&self) -> f64 {
        let t = &self.protocol.policy;
        if t.decisions_considered == 0 {
            return 0.0;
        }
        t.decisions_migrate as f64 / t.decisions_considered as f64
    }

    /// Relative improvement of this run over a `baseline` run in execution
    /// time, as a fraction (0.25 = 25 % faster). Matches the "improvement of
    /// AT over FT" metric of Figure 3.
    pub fn time_improvement_over(&self, baseline: &ExecutionReport) -> f64 {
        let base = baseline.execution_time.as_micros();
        if base == 0.0 {
            return 0.0;
        }
        (base - self.execution_time.as_micros()) / base
    }

    /// Relative reduction in total message count compared to `baseline`.
    pub fn message_improvement_over(&self, baseline: &ExecutionReport) -> f64 {
        let base = baseline.total_messages() as f64;
        if base == 0.0 {
            return 0.0;
        }
        (base - self.total_messages() as f64) / base
    }

    /// Relative reduction in network traffic compared to `baseline`.
    pub fn traffic_improvement_over(&self, baseline: &ExecutionReport) -> f64 {
        let base = baseline.total_traffic_bytes() as f64;
        if base == 0.0 {
            return 0.0;
        }
        (base - self.total_traffic_bytes() as f64) / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(ms: f64, messages: u64) -> ExecutionReport {
        let mut network = NetworkStats::new();
        for _ in 0..messages {
            network.record(MsgCategory::ObjReply, 100);
        }
        ExecutionReport {
            execution_time: SimDuration::from_millis(ms),
            node_times: vec![SimTime::from_micros(ms * 1000.0)],
            network,
            protocol: ProtocolStats::default(),
            num_nodes: 1,
            policy_label: "AT".to_string(),
            delivery_trace: None,
            scheduler: None,
        }
    }

    #[test]
    fn improvements_are_relative_to_baseline() {
        let fast = report(50.0, 10);
        let slow = report(100.0, 40);
        assert!((fast.time_improvement_over(&slow) - 0.5).abs() < 1e-9);
        assert!((fast.message_improvement_over(&slow) - 0.75).abs() < 1e-9);
        assert!((fast.traffic_improvement_over(&slow) - 0.75).abs() < 1e-9);
        // Improvement over itself is zero.
        assert_eq!(fast.time_improvement_over(&fast), 0.0);
    }

    #[test]
    fn accessors_expose_counters() {
        let r = report(10.0, 3);
        assert_eq!(r.total_messages(), 3);
        assert_eq!(r.messages(MsgCategory::ObjReply), 3);
        assert_eq!(r.messages(MsgCategory::Diff), 0);
        assert_eq!(r.breakdown_messages(), 3);
        assert_eq!(r.migrations(), 0);
        assert_eq!(r.protocol.redirections_served, 0);
        assert_eq!(r.total_traffic_bytes(), 300);
    }

    #[test]
    fn policy_telemetry_surfaces_in_the_report() {
        let mut r = report(10.0, 1);
        r.protocol.policy.record_decision(false, false, 1.0);
        r.protocol.policy.record_decision(true, true, 3.0);
        assert_eq!(r.policy_telemetry().decisions_considered, 2);
        assert_eq!(r.migrate_backs(), 1);
        assert!((r.migration_rate() - 0.5).abs() < 1e-12);
        assert!((r.policy_telemetry().mean_threshold() - 2.0).abs() < 1e-9);
        let empty = report(10.0, 1);
        assert_eq!(empty.migration_rate(), 0.0);
    }
}

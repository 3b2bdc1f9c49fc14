//! Per-node protocol statistics.
//!
//! These complement the per-message network statistics of `dsm-net` with
//! protocol-level events: local hits vs faults, home accesses, migrations,
//! redirections and diff volume. The harness merges them across nodes into
//! the experiment report.

/// Telemetry of the home-migration policy's decision process.
///
/// Every object request that reaches an object's home from a remote node is
/// one *considered* decision (one [`decide`] call); the decisions that chose
/// to migrate, the subset that moved the home back to the node it last came
/// from (*migrate-backs* — the ping-pong signature), and the trajectory of
/// the policy's reported threshold are all recorded here. Thresholds are
/// kept in integer millis so the telemetry stays `Eq` and merges exactly;
/// non-finite thresholds (e.g. `NoMigration`'s "never") are not sampled.
///
/// [`decide`]: crate::policy::HomeMigrationPolicy::decide
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyTelemetry {
    /// Migration decisions evaluated (remote requests reaching the home).
    pub decisions_considered: u64,
    /// Decisions that chose to migrate the home.
    pub decisions_migrate: u64,
    /// Migrations granted back to the previous home (ping-pong events).
    pub migrate_backs: u64,
    /// Finite threshold samples taken (one per considered decision whose
    /// policy reported a finite threshold).
    pub threshold_samples: u64,
    /// Sum of sampled thresholds, in integer millis (saturating).
    pub threshold_sum_milli: u64,
    /// Largest sampled threshold, in integer millis.
    pub threshold_peak_milli: u64,
}

impl PolicyTelemetry {
    /// Record one considered decision: whether it migrated, whether that
    /// migration returned the home to its previous node, and the threshold
    /// the policy reported at the decision point.
    pub fn record_decision(&mut self, migrated: bool, migrate_back: bool, threshold: f64) {
        self.decisions_considered += 1;
        if migrated {
            self.decisions_migrate += 1;
            if migrate_back {
                self.migrate_backs += 1;
            }
        }
        if threshold.is_finite() && threshold >= 0.0 {
            let milli = (threshold * 1000.0).round().min(u64::MAX as f64) as u64;
            self.threshold_samples += 1;
            self.threshold_sum_milli = self.threshold_sum_milli.saturating_add(milli);
            self.threshold_peak_milli = self.threshold_peak_milli.max(milli);
        }
    }

    /// Mean sampled threshold (0 when nothing was sampled).
    pub fn mean_threshold(&self) -> f64 {
        if self.threshold_samples == 0 {
            return 0.0;
        }
        self.threshold_sum_milli as f64 / self.threshold_samples as f64 / 1000.0
    }

    /// Merge counters from another node.
    pub(crate) fn merge(&mut self, other: &PolicyTelemetry) {
        self.decisions_considered += other.decisions_considered;
        self.decisions_migrate += other.decisions_migrate;
        self.migrate_backs += other.migrate_backs;
        self.threshold_samples += other.threshold_samples;
        self.threshold_sum_milli = self
            .threshold_sum_milli
            .saturating_add(other.threshold_sum_milli);
        self.threshold_peak_milli = self.threshold_peak_milli.max(other.threshold_peak_milli);
    }
}

/// Protocol event counters for one node (or, after merging, a whole run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProtocolStats {
    /// Reads served from a valid local copy (home or cached).
    pub local_read_hits: u64,
    /// Writes served by a valid local read-write copy.
    pub local_write_hits: u64,
    /// Object fault-ins issued (remote reads from the home's perspective).
    pub fault_ins: u64,
    /// Diffs sent to remote homes.
    pub diffs_sent: u64,
    /// Diffs applied at this node as home.
    pub diffs_applied: u64,
    /// Object requests served at this node as home.
    pub requests_served: u64,
    /// Requests redirected because this node is no longer the home.
    pub redirections_served: u64,
    /// Server-side `Busy` outcomes: requests or diffs that found the home
    /// copy leased to a live application view and were deferred (each retry
    /// that still finds the copy busy counts again).
    pub busy_responses: u64,
    /// Redirection hops experienced by this node's own requests.
    pub redirections_suffered: u64,
    /// Home migrations granted by this node (it was the old home).
    pub migrations_out: u64,
    /// Home migrations received by this node (it became the new home).
    pub migrations_in: u64,
    /// Home read faults recorded (first read at home per interval).
    pub home_reads: u64,
    /// Home write faults recorded (first write at home per interval).
    pub home_writes: u64,
    /// Exclusive home writes (positive feedback of the adaptive protocol).
    pub exclusive_home_writes: u64,
    /// Twins created.
    pub twins_created: u64,
    /// Total wire bytes of diffs sent.
    pub diff_bytes_sent: u64,
    /// Cached copies invalidated at acquires.
    pub invalidations: u64,
    /// Lock acquires performed by this node's application thread.
    pub lock_acquires: u64,
    /// Barrier phases completed by this node's application thread.
    pub barriers: u64,
    /// Release-time `DiffBatch` messages sent (each replaces its entry
    /// count of individual `DiffFlush` messages).
    pub batched_flushes: u64,
    /// Total diff entries carried inside those batches; `diffs_sent` still
    /// counts every entry, so `batch_entries / batched_flushes` is the mean
    /// batch size. In the absence of mid-flight home migrations,
    /// `diffs_sent - batch_entries` is exactly the flushes that went out as
    /// singleton `DiffFlush` messages; a redirected batch entry is re-sent
    /// individually, so with migrations the same diff can appear both as a
    /// batch entry and on the singleton wire path.
    pub batch_entries: u64,
    /// Home-migration decision telemetry (considered vs. taken decisions,
    /// migrate-backs, threshold trajectory).
    pub policy: PolicyTelemetry,
    /// Home re-elections arbitrated by this node (a candidate could not
    /// reach a home and this node, as the object's arbiter, elected a
    /// reachable replacement). Zero on lossless fabrics.
    pub elections: u64,
    /// Stale home copies this node demoted after learning of a
    /// strictly-newer home epoch — the fencing path of crash recovery.
    pub homes_fenced: u64,
}

impl ProtocolStats {
    /// Merge counters from another node.
    pub fn merge(&mut self, other: &ProtocolStats) {
        self.local_read_hits += other.local_read_hits;
        self.local_write_hits += other.local_write_hits;
        self.fault_ins += other.fault_ins;
        self.diffs_sent += other.diffs_sent;
        self.diffs_applied += other.diffs_applied;
        self.requests_served += other.requests_served;
        self.redirections_served += other.redirections_served;
        self.busy_responses += other.busy_responses;
        self.redirections_suffered += other.redirections_suffered;
        self.migrations_out += other.migrations_out;
        self.migrations_in += other.migrations_in;
        self.home_reads += other.home_reads;
        self.home_writes += other.home_writes;
        self.exclusive_home_writes += other.exclusive_home_writes;
        self.twins_created += other.twins_created;
        self.diff_bytes_sent += other.diff_bytes_sent;
        self.invalidations += other.invalidations;
        self.lock_acquires += other.lock_acquires;
        self.barriers += other.barriers;
        self.batched_flushes += other.batched_flushes;
        self.batch_entries += other.batch_entries;
        self.policy.merge(&other.policy);
        self.elections += other.elections;
        self.homes_fenced += other.homes_fenced;
    }

    /// Total home migrations in a merged record (each migration is counted
    /// once as `migrations_out` by the old home and once as `migrations_in`
    /// by the new home; this returns the out-count which equals the number
    /// of migration events).
    pub fn migrations(&self) -> u64 {
        self.migrations_out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_records_decisions_and_threshold_trajectory() {
        let mut t = PolicyTelemetry::default();
        t.record_decision(false, false, 1.0);
        t.record_decision(true, false, 2.5);
        t.record_decision(true, true, 4.0);
        // Non-finite thresholds (NoMigration's "never") are not sampled but
        // still count as considered decisions.
        t.record_decision(false, false, f64::INFINITY);
        assert_eq!(t.decisions_considered, 4);
        assert_eq!(t.decisions_migrate, 2);
        assert_eq!(t.migrate_backs, 1);
        assert_eq!(t.threshold_samples, 3);
        assert!((t.mean_threshold() - 2.5).abs() < 1e-9);
        assert_eq!(t.threshold_peak_milli, 4_000);

        let mut merged = PolicyTelemetry::default();
        merged.record_decision(true, true, 8.0);
        merged.merge(&t);
        assert_eq!(merged.decisions_considered, 5);
        assert_eq!(merged.migrate_backs, 2);
        assert_eq!(merged.threshold_peak_milli, 8_000);
        assert_eq!(merged.threshold_samples, 4);
    }

    #[test]
    fn default_is_all_zero() {
        let s = ProtocolStats::default();
        assert_eq!(s.fault_ins, 0);
        assert_eq!(s.migrations(), 0);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = ProtocolStats {
            fault_ins: 2,
            diffs_sent: 1,
            migrations_out: 1,
            batched_flushes: 1,
            batch_entries: 3,
            ..ProtocolStats::default()
        };
        let b = ProtocolStats {
            fault_ins: 3,
            redirections_served: 4,
            migrations_in: 1,
            batched_flushes: 2,
            batch_entries: 4,
            ..ProtocolStats::default()
        };
        a.merge(&b);
        assert_eq!(a.batched_flushes, 3);
        assert_eq!(a.batch_entries, 7);
        assert_eq!(a.fault_ins, 5);
        assert_eq!(a.diffs_sent, 1);
        assert_eq!(a.redirections_served, 4);
        assert_eq!(a.migrations_out, 1);
        assert_eq!(a.migrations_in, 1);
        assert_eq!(a.migrations(), 1);
    }
}

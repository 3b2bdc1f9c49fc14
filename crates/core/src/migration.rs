//! Per-object migration observation state.
//!
//! The decision "should this object's home move to the node that is asking
//! for it?" is taken at the object's current home, based on per-object
//! bookkeeping ([`MigrationState`]) updated on every protocol event that the
//! paper's GOS monitors:
//!
//! * a **remote write** — a diff received from a non-home node (one per
//!   synchronization interval in which that node updated the object);
//! * a **home write** — the first write fault at the home node in an
//!   interval (the home copy is set to `Invalid` at acquire time purely so
//!   this event can be observed);
//! * a **redirected object request** — a request that had to be forwarded
//!   because it reached an obsolete home (redirection accumulation counts
//!   each hop);
//! * an **object request** — the decision point: when the single-writer
//!   pattern has been detected and the writing node faults the object again,
//!   the reply both carries the data and migrates the home.
//!
//! This module holds only that observation state, which the engine records.
//! The decision itself is a
//! [`HomeMigrationPolicy`](crate::policy::HomeMigrationPolicy); see the
//! [`policy`](crate::policy) module.

use dsm_objspace::NodeId;

/// Small per-object state owned by the *policy* rather than the engine.
///
/// The engine never reads or writes these fields; they exist so stateful
/// policies (EWMA write-ratio, hysteresis variants, user-defined impls) can
/// keep per-object observations without the engine knowing their shape. The
/// scratch travels inside [`MigrationState`]: it is shipped to the new home
/// with the migration grant, and the default epoch reset leaves it untouched
/// (a policy that wants a fresh scratch after migration clears it in its
/// [`on_migrate`](crate::policy::HomeMigrationPolicy::on_migrate) hook).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PolicyScratch {
    /// First policy-defined value (the EWMA write-ratio policy keeps its
    /// exponentially weighted remote-write share here).
    pub a: f64,
    /// Second policy-defined value (unused by the built-in policies).
    pub b: f64,
}

/// Per-object migration bookkeeping kept at the object's current home.
///
/// Field names follow §4.2 of the paper: `C_i` consecutive remote writes,
/// `T_i` the adaptive threshold, `R_i` redirected requests and `E_i`
/// exclusive home writes since the previous migration.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationState {
    /// `C_i`: consecutive remote writes from `last_remote_writer`, not
    /// interleaved with writes from the home or from other remote nodes.
    pub consecutive_remote_writes: u32,
    /// The node whose writes `consecutive_remote_writes` counts.
    pub last_remote_writer: Option<NodeId>,
    /// `T_{i-1}`: the threshold value inherited from the previous migration
    /// epoch (1 initially).
    pub threshold_base: f64,
    /// `R_i`: redirected object requests observed since the previous
    /// migration (each hop of a redirection chain counts once).
    pub redirected_requests: u64,
    /// `E_i`: exclusive home writes since the previous migration.
    pub exclusive_home_writes: u64,
    /// Whether the most recent recorded write event was a home write (used
    /// to decide if the next home write is "exclusive").
    pub last_write_was_home: bool,
    /// Total number of migrations this object has undergone.
    pub migrations: u32,
    /// Running mean of observed diff wire sizes (bytes), the `d` of the home
    /// access coefficient.
    pub mean_diff_bytes: f64,
    /// Number of diffs contributing to `mean_diff_bytes`.
    pub diff_samples: u64,
    /// The node the home most recently migrated *away from* (`None` until
    /// the first migration). A migration granted back to this node is a
    /// *migrate-back* — the ping-pong signature that hysteresis policies
    /// damp and the decision telemetry counts.
    pub prev_home: Option<NodeId>,
    /// Policy-owned per-object state; see [`PolicyScratch`].
    pub scratch: PolicyScratch,
}

impl Default for MigrationState {
    fn default() -> Self {
        MigrationState::new()
    }
}

impl MigrationState {
    /// Fresh state for an object that has never migrated.
    pub fn new() -> Self {
        MigrationState {
            consecutive_remote_writes: 0,
            last_remote_writer: None,
            threshold_base: 1.0,
            redirected_requests: 0,
            exclusive_home_writes: 0,
            last_write_was_home: false,
            migrations: 0,
            mean_diff_bytes: 0.0,
            diff_samples: 0,
            prev_home: None,
            scratch: PolicyScratch::default(),
        }
    }

    /// Record a remote write: a diff of `diff_bytes` wire bytes received from
    /// `from`. Updates the consecutive-remote-write counter and the diff
    /// size average, and breaks any exclusive-home-write chain.
    pub fn record_remote_write(&mut self, from: NodeId, diff_bytes: u64) {
        if self.last_remote_writer == Some(from) && !self.last_write_was_home {
            self.consecutive_remote_writes += 1;
        } else {
            self.consecutive_remote_writes = 1;
            self.last_remote_writer = Some(from);
        }
        self.last_write_was_home = false;
        self.diff_samples += 1;
        let n = self.diff_samples as f64;
        self.mean_diff_bytes += (diff_bytes as f64 - self.mean_diff_bytes) / n;
    }

    /// Record a home write (the first write fault at the home node in an
    /// interval). Returns `true` if the write was *exclusive*, i.e. no
    /// remote write occurred since an earlier home write.
    pub fn record_home_write(&mut self) -> bool {
        let exclusive = self.last_write_was_home;
        if exclusive {
            self.exclusive_home_writes += 1;
        }
        self.last_write_was_home = true;
        self.consecutive_remote_writes = 0;
        self.last_remote_writer = None;
        exclusive
    }

    /// Record `hops` redirections reported by an arriving request (negative
    /// feedback: the cost of previous migrations).
    pub fn record_redirections(&mut self, hops: u32) {
        self.redirected_requests += u64::from(hops);
    }

    /// The migration transition the engine performs on a grant: the
    /// per-epoch counters reset, the migration count (home epoch) advances,
    /// `threshold_base` becomes `carried_threshold` (clamped to a large finite
    /// value so `NoMigrationPolicy`'s infinity cannot poison later arithmetic), diff-size history
    /// and the policy scratch are retained, and `old_home` is recorded so a
    /// later migration back to it is observable as a migrate-back.
    #[must_use]
    pub fn migrated(&self, carried_threshold: f64, old_home: Option<NodeId>) -> MigrationState {
        MigrationState {
            consecutive_remote_writes: 0,
            last_remote_writer: None,
            threshold_base: carried_threshold.min(1e9),
            redirected_requests: 0,
            exclusive_home_writes: 0,
            last_write_was_home: false,
            migrations: self.migrations + 1,
            mean_diff_bytes: self.mean_diff_bytes,
            diff_samples: self.diff_samples,
            prev_home: old_home,
            scratch: self.scratch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::tests::{inputs, HALF_PEAK};
    use crate::policy::{
        AdaptiveThresholdPolicy, FixedThresholdPolicy, HomeMigrationPolicy, LazyFlushingPolicy,
        MigrateOnRequestPolicy, NoMigrationPolicy,
    };

    #[test]
    fn consecutive_remote_writes_count_same_writer_only() {
        let mut s = MigrationState::new();
        s.record_remote_write(NodeId(1), 100);
        s.record_remote_write(NodeId(1), 100);
        assert_eq!(s.consecutive_remote_writes, 2);
        // A different writer resets the run to 1 and retargets it.
        s.record_remote_write(NodeId(2), 100);
        assert_eq!(s.consecutive_remote_writes, 1);
        assert_eq!(s.last_remote_writer, Some(NodeId(2)));
        // A home write clears the run entirely.
        s.record_home_write();
        assert_eq!(s.consecutive_remote_writes, 0);
        assert_eq!(s.last_remote_writer, None);
    }

    #[test]
    fn home_write_after_home_write_is_exclusive() {
        let mut s = MigrationState::new();
        // The first home write has no earlier home write -> not exclusive.
        assert!(!s.record_home_write());
        assert!(s.record_home_write());
        assert!(s.record_home_write());
        assert_eq!(s.exclusive_home_writes, 2);
        // A remote write breaks the chain.
        s.record_remote_write(NodeId(1), 64);
        assert!(!s.record_home_write());
        assert!(s.record_home_write());
        assert_eq!(s.exclusive_home_writes, 3);
    }

    #[test]
    fn mean_diff_size_is_running_average() {
        let mut s = MigrationState::new();
        s.record_remote_write(NodeId(1), 100);
        s.record_remote_write(NodeId(1), 300);
        assert!((s.mean_diff_bytes - 200.0).abs() < 1e-9);
        assert_eq!(s.diff_samples, 2);
    }

    // The built-in rules on recorded state, against values computed by hand
    // from §4.2 of the paper for a 1024-byte object on Fast Ethernet
    // (m½ = 1150 B), so α = 2 + 2048/1150 before any diff is seen.

    fn migrates(policy: &dyn HomeMigrationPolicy, s: &MigrationState, requester: NodeId) -> bool {
        policy.decide(&inputs(s, requester, true)).is_migrate()
    }

    fn threshold(policy: &dyn HomeMigrationPolicy, s: &MigrationState) -> f64 {
        policy.current_threshold(&inputs(s, NodeId(1), true))
    }

    /// The engine's grant transition: the policy's current threshold is
    /// carried into the new epoch, then the policy's hook runs.
    fn migrate(policy: &dyn HomeMigrationPolicy, s: &MigrationState) -> MigrationState {
        let mut shipped = s.migrated(threshold(policy, s), None);
        policy.on_migrate(&mut shipped);
        shipped
    }

    #[test]
    fn no_migration_policy_never_migrates() {
        let mut s = MigrationState::new();
        for _ in 0..100 {
            s.record_remote_write(NodeId(1), 100);
        }
        assert!(!migrates(&NoMigrationPolicy, &s, NodeId(1)));
        assert!(threshold(&NoMigrationPolicy, &s).is_infinite());
    }

    #[test]
    fn fixed_threshold_requires_enough_consecutive_writes() {
        let policy = FixedThresholdPolicy::new(2);
        let mut s = MigrationState::new();
        s.record_remote_write(NodeId(1), 100);
        assert!(!migrates(&policy, &s, NodeId(1)));
        s.record_remote_write(NodeId(1), 100);
        assert!(migrates(&policy, &s, NodeId(1)));
        // A different node asking does not trigger migration.
        assert!(!migrates(&policy, &s, NodeId(2)));
    }

    #[test]
    fn adaptive_threshold_starts_at_one() {
        let at = AdaptiveThresholdPolicy::paper();
        assert_eq!(threshold(&at, &MigrationState::new()), 1.0);
        // So a single remote write from a node already triggers migration on
        // its next request (speeding up initial data relocation)...
        let mut s = MigrationState::new();
        s.record_remote_write(NodeId(3), 100);
        assert!(migrates(&at, &s, NodeId(3)));
        // ...but only for the node whose run was counted.
        assert!(!migrates(&at, &s, NodeId(2)));
    }

    #[test]
    fn redirections_raise_the_adaptive_threshold() {
        let at = AdaptiveThresholdPolicy::paper();
        let mut s = MigrationState::new();
        s.record_redirections(3);
        let t = threshold(&at, &s);
        assert_eq!(t, 4.0, "T = 1 + 3 redirections = 4, got {t}");
        // Migration now requires 4 consecutive writes from the same node.
        for _ in 0..3 {
            s.record_remote_write(NodeId(1), 100);
        }
        assert!(!migrates(&at, &s, NodeId(1)));
        s.record_remote_write(NodeId(1), 100);
        assert!(migrates(&at, &s, NodeId(1)));
    }

    #[test]
    fn exclusive_home_writes_lower_the_adaptive_threshold() {
        let at = AdaptiveThresholdPolicy::paper();
        let mut s = MigrationState::new();
        // Raise the threshold first so there is room to go down.
        s.record_redirections(10);
        assert_eq!(threshold(&at, &s), 11.0);
        s.record_home_write();
        s.record_home_write(); // exclusive
        s.record_home_write(); // exclusive
        let alpha = 2.0 + 2048.0 / HALF_PEAK;
        let t = threshold(&at, &s);
        assert!(
            (t - (11.0 - 2.0 * alpha)).abs() < 1e-12,
            "T = 1 + (10 - 2α) = {}, got {t}",
            11.0 - 2.0 * alpha
        );
    }

    #[test]
    fn adaptive_threshold_never_drops_below_initial() {
        let mut s = MigrationState::new();
        for _ in 0..1000 {
            s.record_home_write();
        }
        let t = threshold(&AdaptiveThresholdPolicy::paper(), &s);
        assert_eq!(t, 1.0, "threshold is clamped at T_init, got {t}");
    }

    #[test]
    fn alpha_uses_observed_diff_sizes_and_override() {
        let mut s = MigrationState::new();
        let a0 = inputs(&s, NodeId(1), true).default_alpha();
        assert!((a0 - (2.0 + 2048.0 / HALF_PEAK)).abs() < 1e-9);
        s.record_remote_write(NodeId(1), 512);
        let a1 = inputs(&s, NodeId(1), true).default_alpha();
        assert!((a1 - (2.0 + 1536.0 / HALF_PEAK)).abs() < 1e-9);
        // A forced α = 7.5 replaces the model in the feedback term:
        // T = 1 + (20 − 7.5·2) = 6, where the observed α gives ≈ 14.3.
        s.record_redirections(20);
        s.record_home_write();
        s.record_home_write();
        s.record_home_write();
        let forced = AdaptiveThresholdPolicy::paper().with_alpha_override(7.5);
        assert_eq!(threshold(&forced, &s), 6.0);
        let model = threshold(&AdaptiveThresholdPolicy::paper(), &s);
        assert!((model - (21.0 - 2.0 * a1)).abs() < 1e-9, "got {model}");
    }

    #[test]
    fn lambda_scales_feedback() {
        let gentle = AdaptiveThresholdPolicy::new(0.5, 1.0);
        let mut s = MigrationState::new();
        s.record_redirections(4);
        assert_eq!(threshold(&gentle, &s), 3.0);
        assert_eq!(threshold(&AdaptiveThresholdPolicy::paper(), &s), 5.0);
    }

    #[test]
    fn jump_policy_migrates_on_any_write_fault() {
        let s = MigrationState::new();
        let jump = MigrateOnRequestPolicy;
        assert!(jump.decide(&inputs(&s, NodeId(5), true)).is_migrate());
        assert!(!jump.decide(&inputs(&s, NodeId(5), false)).is_migrate());
    }

    #[test]
    fn lazy_flushing_caps_transitions() {
        let policy = LazyFlushingPolicy::default();
        let mut s = MigrationState::new();
        assert!(!policy.decide(&inputs(&s, NodeId(1), false)).is_migrate());
        for i in 0..5 {
            assert!(migrates(&policy, &s, NodeId(1)), "transition {i}");
            s = migrate(&policy, &s);
        }
        assert_eq!(s.migrations, 5);
        assert!(!migrates(&policy, &s, NodeId(1)), "the 6th transition");
    }

    #[test]
    fn migrate_carries_threshold_and_resets_epoch_counters() {
        let at = AdaptiveThresholdPolicy::paper();
        let mut s = MigrationState::new();
        s.record_redirections(2);
        s.record_remote_write(NodeId(1), 128);
        s.record_home_write();
        let t_before = threshold(&at, &s);
        let shipped = migrate(&at, &s);
        assert_eq!(shipped.migrations, 1);
        assert_eq!(shipped.consecutive_remote_writes, 0);
        assert_eq!(shipped.redirected_requests, 0);
        assert_eq!(shipped.exclusive_home_writes, 0);
        assert!(!shipped.last_write_was_home);
        assert_eq!(shipped.threshold_base, t_before);
        // Diff size history is retained across migrations.
        assert_eq!(shipped.diff_samples, s.diff_samples);
    }

    #[test]
    fn transient_pattern_is_suppressed_after_feedback() {
        // Scenario from §5.2: writers take turns in short bursts (transient
        // single-writer pattern). After the first migration causes
        // redirections, the adaptive threshold grows beyond the burst length
        // and migration stops; a fixed threshold of 1 would keep migrating.
        let burst_migrations = |policy: &dyn HomeMigrationPolicy| {
            let mut s = MigrationState::new();
            let mut migrations = 0;
            for round in 0..20 {
                let writer = NodeId(1 + (round % 2) as u16);
                for _ in 0..2 {
                    s.record_remote_write(writer, 64);
                    if migrates(policy, &s, writer) {
                        s = migrate(policy, &s);
                        migrations += 1;
                        // After migrating, the *other* node's next requests
                        // are redirected (it still points at the old home).
                        s.record_redirections(2);
                    }
                }
            }
            migrations
        };
        // The first burst may trigger a migration or two, but feedback must
        // shut the behaviour down: far fewer migrations than rounds.
        let at = burst_migrations(&AdaptiveThresholdPolicy::paper());
        assert!(at <= 3, "adaptive policy kept migrating: {at}");
        // The fixed threshold 1 policy, by contrast, migrates every burst.
        let ft1 = burst_migrations(&FixedThresholdPolicy::new(1));
        assert!(ft1 >= 15, "FT1 should migrate every burst: {ft1}");
    }

    #[test]
    fn lasting_pattern_keeps_adaptive_threshold_low() {
        // A lasting single-writer pattern: after migration the new home keeps
        // writing exclusively. The threshold must stay at (or fall back to)
        // its minimum so the protocol stays sensitive.
        let at = AdaptiveThresholdPolicy::paper();
        let mut s = MigrationState::new();
        s.record_remote_write(NodeId(1), 256);
        assert!(migrates(&at, &s, NodeId(1)));
        let mut at_new_home = migrate(&at, &s);
        // One stray redirection from a reader...
        at_new_home.record_redirections(1);
        // ...followed by a long run of exclusive home writes.
        for _ in 0..50 {
            at_new_home.record_home_write();
        }
        let t = threshold(&at, &at_new_home);
        assert_eq!(t, 1.0, "threshold should be back at T_init, got {t}");
    }
}

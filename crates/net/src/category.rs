//! Message categories.
//!
//! Figure 5(b) of the paper breaks protocol messages into four categories —
//! `obj` (object fault-in without migration), `mig` (object fault-in that
//! also migrates the home), `diff` (diff propagation) and `redir` (home
//! redirection) — and explicitly excludes synchronization messages because
//! they are invariant across protocols. We tag every message with its
//! category so the harness can reproduce exactly that breakdown, and keep the
//! remaining categories separate for completeness.

use std::fmt;

/// Category of a protocol message, following the paper's breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MsgCategory {
    /// Object fault-in request (a *remote read* from the home's viewpoint).
    ObjRequest,
    /// Object fault-in reply without home migration (`obj` in Figure 5(b)).
    ObjReply,
    /// Object fault-in reply that also migrates the home to the requester
    /// (`mig` in Figure 5(b)).
    ObjReplyMigrate,
    /// Diff propagation to the home at release time (`diff`, a *remote
    /// write* from the home's viewpoint).
    Diff,
    /// Acknowledgement of a diff application (needed so a release completes
    /// only after its writes are visible at the homes).
    DiffAck,
    /// Batched diff propagation: all of one interval's diffs destined for
    /// the *same* home, shipped as one message so k flushes pay one
    /// per-message start-up time instead of k (the dominant term of the
    /// Hockney model on Fast-Ethernet-class interconnects).
    DiffBatch,
    /// Per-entry acknowledgement of a diff batch (applied versions and
    /// redirect hints for entries whose home migrated mid-flight).
    DiffBatchAck,
    /// Redirection reply from an obsolete home (`redir` in Figure 5(b)):
    /// the forwarding-pointer mechanism answers with the current home
    /// location instead of the data.
    Redirect,
    /// Lock acquire request sent to the lock manager.
    LockAcquire,
    /// Lock grant from the manager to the acquirer (carries write notices).
    LockGrant,
    /// Lock release notification to the manager (carries write notices).
    LockRelease,
    /// Barrier arrival (carries write notices).
    BarrierArrive,
    /// Barrier release broadcast (carries merged write notices).
    BarrierRelease,
    /// New-home notification used by the broadcast / home-manager
    /// notification mechanisms (the forwarding-pointer mechanism sends none).
    HomeNotify,
    /// Home-manager lookup request/reply pair. No message maps to it: no
    /// build ever sent a lookup, and the variants are gone. It stays
    /// because its index in `ALL` is the category's wire code, until the
    /// next wire-version bump renumbers the codes.
    HomeLookup,
    /// Anything else (start-up coordination, shutdown).
    Control,
}

impl MsgCategory {
    /// All categories, in a stable order (used for reporting).
    pub(crate) const ALL: [MsgCategory; 16] = [
        MsgCategory::ObjRequest,
        MsgCategory::ObjReply,
        MsgCategory::ObjReplyMigrate,
        MsgCategory::Diff,
        MsgCategory::DiffAck,
        MsgCategory::DiffBatch,
        MsgCategory::DiffBatchAck,
        MsgCategory::Redirect,
        MsgCategory::LockAcquire,
        MsgCategory::LockGrant,
        MsgCategory::LockRelease,
        MsgCategory::BarrierArrive,
        MsgCategory::BarrierRelease,
        MsgCategory::HomeNotify,
        MsgCategory::HomeLookup,
        MsgCategory::Control,
    ];

    /// Whether this category is one of the four the paper plots in the
    /// Figure 5(b) message breakdown (synchronization excluded).
    pub(crate) fn in_breakdown(self) -> bool {
        matches!(
            self,
            MsgCategory::ObjReply
                | MsgCategory::ObjReplyMigrate
                | MsgCategory::Diff
                | MsgCategory::DiffBatch
                | MsgCategory::Redirect
        )
    }

    /// Whether this category carries diff propagation to a home — the
    /// messages release-time flush batching collapses (a `DiffBatch` of k
    /// entries replaces k `Diff` messages).
    pub(crate) fn is_diff_propagation(self) -> bool {
        matches!(self, MsgCategory::Diff | MsgCategory::DiffBatch)
    }

    /// Whether this category is a synchronization message (invariant across
    /// home-migration protocols, hence excluded from the paper's breakdown;
    /// the tests check that complement).
    #[cfg(test)]
    pub(crate) fn is_synchronization(self) -> bool {
        matches!(
            self,
            MsgCategory::LockAcquire
                | MsgCategory::LockGrant
                | MsgCategory::LockRelease
                | MsgCategory::BarrierArrive
                | MsgCategory::BarrierRelease
        )
    }

    /// Short label used in reports (matches the paper's legend).
    pub(crate) fn label(self) -> &'static str {
        match self {
            MsgCategory::ObjRequest => "obj_req",
            MsgCategory::ObjReply => "obj",
            MsgCategory::ObjReplyMigrate => "mig",
            MsgCategory::Diff => "diff",
            MsgCategory::DiffAck => "diff_ack",
            MsgCategory::DiffBatch => "diff_batch",
            MsgCategory::DiffBatchAck => "diff_batch_ack",
            MsgCategory::Redirect => "redir",
            MsgCategory::LockAcquire => "lock_acq",
            MsgCategory::LockGrant => "lock_grant",
            MsgCategory::LockRelease => "lock_rel",
            MsgCategory::BarrierArrive => "bar_arrive",
            MsgCategory::BarrierRelease => "bar_release",
            MsgCategory::HomeNotify => "home_notify",
            MsgCategory::HomeLookup => "home_lookup",
            MsgCategory::Control => "control",
        }
    }
}

impl fmt::Display for MsgCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_util::IdSet;

    #[test]
    fn all_lists_every_category_once() {
        let set: IdSet<_> = MsgCategory::ALL.iter().collect();
        assert_eq!(set.len(), MsgCategory::ALL.len());
    }

    #[test]
    fn breakdown_membership_matches_paper() {
        // Figure 5(b) plots exactly four categories: obj, mig, diff, redir.
        // A batched diff is still diff propagation, so it stays in the
        // breakdown; the per-entry ack does not (like `DiffAck`).
        assert!(MsgCategory::ObjReply.in_breakdown());
        assert!(MsgCategory::ObjReplyMigrate.in_breakdown());
        assert!(MsgCategory::Diff.in_breakdown());
        assert!(MsgCategory::DiffBatch.in_breakdown());
        assert!(MsgCategory::Redirect.in_breakdown());
        assert!(!MsgCategory::ObjRequest.in_breakdown());
        assert!(!MsgCategory::LockGrant.in_breakdown());
        assert!(!MsgCategory::DiffAck.in_breakdown());
        assert!(!MsgCategory::DiffBatchAck.in_breakdown());
        assert!(!MsgCategory::Control.in_breakdown());
    }

    #[test]
    fn diff_propagation_covers_single_and_batched_flushes() {
        assert!(MsgCategory::Diff.is_diff_propagation());
        assert!(MsgCategory::DiffBatch.is_diff_propagation());
        assert!(!MsgCategory::DiffAck.is_diff_propagation());
        assert!(!MsgCategory::DiffBatchAck.is_diff_propagation());
        assert!(!MsgCategory::ObjReply.is_diff_propagation());
    }

    #[test]
    fn synchronization_categories() {
        assert!(MsgCategory::LockAcquire.is_synchronization());
        assert!(MsgCategory::BarrierRelease.is_synchronization());
        assert!(!MsgCategory::Diff.is_synchronization());
        assert!(!MsgCategory::HomeNotify.is_synchronization());
    }

    #[test]
    fn labels_match_figure_legend() {
        assert_eq!(MsgCategory::ObjReply.label(), "obj");
        assert_eq!(MsgCategory::ObjReplyMigrate.label(), "mig");
        assert_eq!(MsgCategory::Diff.label(), "diff");
        assert_eq!(MsgCategory::DiffBatch.label(), "diff_batch");
        assert_eq!(MsgCategory::Redirect.label(), "redir");
        assert_eq!(format!("{}", MsgCategory::Redirect), "redir");
    }
}

//! Message and traffic statistics.
//!
//! These counters are the raw material of the paper's evaluation: number of
//! messages (Figure 3, Figure 5(b)) and network traffic in bytes (Figure 3),
//! broken down per category.

use crate::category::MsgCategory;
use dsm_util::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Count and byte volume for one message category.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CategoryStats {
    /// Number of messages sent.
    pub count: u64,
    /// Total bytes sent (wire size, including the modelled header).
    pub bytes: u64,
}

impl CategoryStats {
    /// Accumulate one message of `bytes` bytes.
    pub(crate) fn record(&mut self, bytes: u64) {
        self.count += 1;
        self.bytes += bytes;
    }
}

/// Aggregated network statistics for a run (or one node of a run).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetworkStats {
    per_category: BTreeMap<MsgCategory, CategoryStats>,
}

impl NetworkStats {
    /// An empty statistics record.
    pub fn new() -> Self {
        NetworkStats::default()
    }

    /// Record one message.
    pub fn record(&mut self, category: MsgCategory, bytes: u64) {
        self.per_category.entry(category).or_default().record(bytes);
    }

    /// Statistics for one category.
    pub fn category(&self, category: MsgCategory) -> CategoryStats {
        self.per_category
            .get(&category)
            .copied()
            .unwrap_or_default()
    }

    /// Total message count across all categories.
    pub fn total_messages(&self) -> u64 {
        self.per_category.values().map(|c| c.count).sum()
    }

    /// Total bytes across all categories (the "network traffic" series).
    pub fn total_bytes(&self) -> u64 {
        self.per_category.values().map(|c| c.bytes).sum()
    }

    /// Message count restricted to the paper's Figure 5(b) breakdown
    /// categories (object fault-ins, migrating fault-ins, diffs,
    /// redirections) — synchronization excluded.
    pub fn breakdown_messages(&self) -> u64 {
        self.per_category
            .iter()
            .filter(|(c, _)| c.in_breakdown())
            .map(|(_, s)| s.count)
            .sum()
    }

    /// Message count for diff propagation (single `Diff` flushes plus
    /// `DiffBatch` messages — a batch counts as **one** message however many
    /// entries it carries). This is the series release-time flush batching
    /// shrinks.
    pub fn diff_propagation_messages(&self) -> u64 {
        self.per_category
            .iter()
            .filter(|(c, _)| c.is_diff_propagation())
            .map(|(_, s)| s.count)
            .sum()
    }

    /// Message count for synchronization categories only (the complement
    /// of the breakdown the tests check).
    #[cfg(test)]
    fn synchronization_messages(&self) -> u64 {
        self.per_category
            .iter()
            .filter(|(c, _)| c.is_synchronization())
            .map(|(_, s)| s.count)
            .sum()
    }
}

/// A thread-safe statistics collector shared by all endpoints of a fabric.
#[derive(Debug, Clone, Default)]
pub struct StatsCollector {
    inner: Arc<Mutex<NetworkStats>>,
}

impl StatsCollector {
    /// Create an empty collector.
    pub fn new() -> Self {
        StatsCollector::default()
    }

    /// Record one message.
    pub(crate) fn record(&self, category: MsgCategory, bytes: u64) {
        self.inner.lock().record(category, bytes);
    }

    /// Snapshot the current statistics.
    pub fn snapshot(&self) -> NetworkStats {
        self.inner.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_counts_and_bytes() {
        let mut s = NetworkStats::new();
        s.record(MsgCategory::ObjReply, 100);
        s.record(MsgCategory::ObjReply, 50);
        s.record(MsgCategory::Diff, 10);
        assert_eq!(s.category(MsgCategory::ObjReply).count, 2);
        assert_eq!(s.category(MsgCategory::ObjReply).bytes, 150);
        assert_eq!(s.category(MsgCategory::Diff).count, 1);
        assert_eq!(s.total_messages(), 3);
        assert_eq!(s.total_bytes(), 160);
    }

    #[test]
    fn unknown_category_is_zero() {
        let s = NetworkStats::new();
        assert_eq!(s.category(MsgCategory::Redirect), CategoryStats::default());
    }

    #[test]
    fn breakdown_excludes_synchronization() {
        let mut s = NetworkStats::new();
        s.record(MsgCategory::ObjReply, 1);
        s.record(MsgCategory::ObjReplyMigrate, 1);
        s.record(MsgCategory::Diff, 1);
        s.record(MsgCategory::Redirect, 1);
        s.record(MsgCategory::LockAcquire, 1);
        s.record(MsgCategory::LockGrant, 1);
        s.record(MsgCategory::DiffAck, 1);
        assert_eq!(s.breakdown_messages(), 4);
        assert_eq!(s.synchronization_messages(), 2);
        assert_eq!(s.total_messages(), 7);
    }

    #[test]
    fn diff_batch_counts_one_message_with_summed_bytes() {
        // Double-counting guard: a `DiffBatch` of k entries crosses the
        // fabric exactly once, so the statistics must show ONE message in
        // the `DiffBatch` category whose bytes are the *sum* of the batched
        // diffs' wire sizes (plus the per-entry and fixed headers the fabric
        // adds) — never k messages. The fabric records per envelope, so one
        // `record` call is precisely what a batch generates.
        let entry_wire_bytes = [100u64, 40, 260];
        let summed: u64 = entry_wire_bytes.iter().sum();
        let mut s = NetworkStats::new();
        s.record(MsgCategory::DiffBatch, summed);
        assert_eq!(s.category(MsgCategory::DiffBatch).count, 1);
        assert_eq!(s.category(MsgCategory::DiffBatch).bytes, summed);
        // The batch shows up in the diff-propagation and breakdown series
        // once, not once per entry.
        assert_eq!(s.diff_propagation_messages(), 1);
        assert_eq!(s.breakdown_messages(), 1);
        assert_eq!(s.total_messages(), 1);
        // Contrast with k unbatched flushes: k messages, same payload sum.
        let mut unbatched = NetworkStats::new();
        for bytes in entry_wire_bytes {
            unbatched.record(MsgCategory::Diff, bytes);
        }
        assert_eq!(unbatched.diff_propagation_messages(), 3);
        assert_eq!(unbatched.category(MsgCategory::Diff).bytes, summed);
    }

    #[test]
    fn collector_is_shared_and_resettable() {
        let c = StatsCollector::new();
        let c2 = c.clone();
        c.record(MsgCategory::Control, 8);
        c2.record(MsgCategory::Control, 8);
        assert_eq!(c.snapshot().total_messages(), 2);
        assert_eq!(c2.snapshot(), c.snapshot());
    }
}

//! Protocol configuration.
//!
//! The central knob is the home-migration **policy** — the independent
//! variable of every experiment in the paper. A policy is any
//! [`HomeMigrationPolicy`] trait object (see [`crate::policy`] for the
//! contract and the built-in set); [`ProtocolConfig`] carries one
//! cluster-wide default plus optional **per-object overrides**, so a single
//! cluster can run different policies on different objects.

use crate::policy::{
    AdaptiveThresholdPolicy, FixedThresholdPolicy, HomeMigrationPolicy, IntoMigrationPolicy,
    NoMigrationPolicy, PolicyOverrides,
};
use dsm_model::{NetworkParams, SimDuration};
use dsm_objspace::ObjectId;
use std::sync::Arc;

/// How other nodes learn the new home location after a migration (§3.2 of
/// the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NotificationMechanism {
    /// A forwarding pointer is left at the former home; requests reaching an
    /// obsolete home are answered with the current home location and the
    /// requester retries. This is the mechanism the paper adopts: no
    /// notification traffic at migration time, at the price of possible
    /// redirection accumulation.
    #[default]
    ForwardingPointer,
    /// The most up-to-date home location is recorded at a designated manager
    /// node (we use the object's *initial* home as its manager, which every
    /// node can compute). On migration the new home posts a notification to
    /// the manager; a node that misses asks the manager where the home is.
    HomeManager,
    /// On migration the new home broadcasts its location to all other nodes
    /// at the next opportunity. Until the broadcast is processed, stale
    /// requests are still redirected like the forwarding-pointer mechanism.
    Broadcast,
}

/// Complete configuration of the coherence protocol on every node.
#[derive(Debug, Clone)]
pub struct ProtocolConfig {
    /// The cluster-wide default home-migration **policy** (the independent
    /// variable of every experiment): any [`HomeMigrationPolicy`], set with
    /// [`Self::with_migration`]
    /// (`config.with_migration(AdaptiveThresholdPolicy::paper())`). Objects
    /// listed in [`Self::policy_overrides`] use their own policy instead —
    /// resolution goes through [`Self::policy_for`].
    pub migration: Arc<dyn HomeMigrationPolicy>,
    /// Per-object policy overrides (empty by default; see
    /// [`Self::with_object_policy`]).
    pub policy_overrides: PolicyOverrides,
    /// New-home notification mechanism.
    pub notification: NotificationMechanism,
    /// Network parameters; used to derive the half-peak length `m_½` that
    /// enters the home access coefficient, and by the runtime for virtual
    /// time stamping.
    pub network: NetworkParams,
    /// Objects flagged immutable by the application (e.g. the TSP distance
    /// matrix) stay cached across acquires. This reproduces the GOS
    /// read-only object optimization of the paper's earlier system paper and
    /// keeps synchronization-heavy applications from drowning in fault-ins
    /// that the real system would not perform either.
    pub cache_immutable_objects: bool,
    /// Fixed protocol handling cost charged by the runtime for serving any
    /// request at a node (added on top of the Hockney message cost).
    pub handling_cost: SimDuration,
}

impl ProtocolConfig {
    /// Configuration used by the paper's headline experiments: adaptive
    /// threshold migration, forwarding pointers, Fast Ethernet.
    pub fn adaptive() -> Self {
        ProtocolConfig {
            migration: Arc::new(AdaptiveThresholdPolicy::paper()),
            ..ProtocolConfig::no_migration()
        }
    }

    /// The `NoHM`/`NM` baseline: home migration disabled.
    pub fn no_migration() -> Self {
        let network = NetworkParams::fast_ethernet();
        ProtocolConfig {
            migration: Arc::new(NoMigrationPolicy),
            policy_overrides: PolicyOverrides::new(),
            notification: NotificationMechanism::ForwardingPointer,
            network,
            cache_immutable_objects: true,
            handling_cost: network.handling_cost(),
        }
    }

    /// The `FT` baseline with the given fixed threshold (the paper uses 1
    /// and 2).
    pub fn fixed_threshold(threshold: u32) -> Self {
        ProtocolConfig {
            migration: Arc::new(FixedThresholdPolicy::new(threshold)),
            ..ProtocolConfig::no_migration()
        }
    }

    /// Replace the network model (affects both virtual time and α).
    #[must_use]
    pub fn with_network(mut self, network: NetworkParams) -> Self {
        self.network = network;
        self.handling_cost = network.handling_cost();
        self
    }

    /// Replace the cluster-wide default migration policy. Accepts any policy
    /// value (built-in or user-defined) or an `Arc` of one.
    #[must_use]
    pub fn with_migration(mut self, migration: impl IntoMigrationPolicy) -> Self {
        self.migration = migration.into_policy();
        self
    }

    /// Override the migration policy for one object: `obj` consults `policy`
    /// instead of the cluster-wide default.
    #[must_use]
    pub fn with_object_policy(mut self, obj: ObjectId, policy: impl IntoMigrationPolicy) -> Self {
        self.policy_overrides.set(obj, policy);
        self
    }

    /// Replace the notification mechanism.
    #[must_use]
    pub fn with_notification(mut self, notification: NotificationMechanism) -> Self {
        self.notification = notification;
        self
    }

    /// The policy governing `obj`: its override if one was registered, the
    /// cluster-wide default otherwise. Called on protocol fast paths, so the
    /// common no-overrides case skips the map probe entirely.
    pub fn policy_for(&self, obj: ObjectId) -> &Arc<dyn HomeMigrationPolicy> {
        if self.policy_overrides.is_empty() {
            return &self.migration;
        }
        self.policy_overrides.get(obj).unwrap_or(&self.migration)
    }

    /// Half-peak message length `m_½` of the configured network, in bytes.
    pub fn half_peak_length(&self) -> f64 {
        self.network.hockney.half_peak_length()
    }
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig::adaptive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_select_expected_policies() {
        assert_eq!(ProtocolConfig::no_migration().migration.label(), "NM");
        assert_eq!(ProtocolConfig::adaptive().migration.label(), "AT");
        assert_eq!(ProtocolConfig::fixed_threshold(2).migration.label(), "FT2");
        assert_eq!(ProtocolConfig::default().migration.label(), "AT");
    }

    #[test]
    fn default_notification_is_forwarding_pointer() {
        assert_eq!(
            ProtocolConfig::default().notification,
            NotificationMechanism::ForwardingPointer
        );
        assert_eq!(
            NotificationMechanism::default(),
            NotificationMechanism::ForwardingPointer
        );
    }

    #[test]
    fn builders_replace_fields() {
        let cfg = ProtocolConfig::adaptive()
            .with_network(NetworkParams::myrinet())
            .with_notification(NotificationMechanism::Broadcast)
            .with_migration(FixedThresholdPolicy::new(3));
        assert_eq!(cfg.network, NetworkParams::myrinet());
        assert_eq!(cfg.notification, NotificationMechanism::Broadcast);
        assert_eq!(cfg.migration.label(), "FT3");
        assert!(cfg.half_peak_length() > 0.0);
    }

    #[test]
    fn object_policies_override_the_default() {
        let special = ObjectId::derive("cfg.special", 0);
        let plain = ObjectId::derive("cfg.plain", 0);
        let cfg = ProtocolConfig::no_migration()
            .with_object_policy(special, AdaptiveThresholdPolicy::paper());
        assert_eq!(cfg.policy_for(special).label(), "AT");
        assert_eq!(cfg.policy_for(plain).label(), "NM");
        assert_eq!(cfg.policy_overrides.ids().len(), 1);
    }
}

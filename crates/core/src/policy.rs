//! The pluggable home-migration policy API.
//!
//! The paper's contribution is a *policy* — the rule deciding when an
//! object's home should migrate — and this module makes that rule an open
//! extension point. A policy is any type
//! implementing [`HomeMigrationPolicy`]: a `Send + Sync` object shared by
//! every engine shard (and, for the common single-policy cluster, by every
//! node), consulted through
//!
//! * three **observation hooks** ([`on_remote_write`], [`on_home_write`],
//!   [`on_redirect`]) called after the engine has recorded the protocol
//!   event into the object's [`MigrationState`], and
//! * one **pure decision step** ([`decide`]) evaluated at the object's home
//!   whenever a remote node faults the object in.
//!
//! ## Who owns which state
//!
//! The *engine* owns the per-object observation record, [`MigrationState`]:
//! consecutive remote writes, redirection and exclusive-home-write feedback,
//! diff-size history, the carried threshold base and the previous home. The
//! engine updates it on every protocol event *before* invoking the policy's
//! hook, ships it to the new home inside the migration grant, and performs
//! the epoch reset on migration. The *policy* owns only two things: its own
//! configuration (immutable after construction — policies are shared across
//! threads without locks) and the small per-object
//! [`PolicyScratch`] embedded in `MigrationState`, which the hooks may
//! mutate freely and which travels with the grant.
//!
//! ## Determinism requirements
//!
//! `decide` must be a pure function of [`PolicyInputs`], and the hooks must
//! be pure functions of their arguments and the scratch: no interior
//! mutability, no randomness, no clocks. The experiment harness replays
//! seeded traces and asserts bit-identical migration decisions; a policy
//! that violates purity breaks reproducibility for every figure it appears
//! in.
//!
//! ## Built-in policies
//!
//! The paper's policy set ([`AdaptiveThresholdPolicy`],
//! [`FixedThresholdPolicy`], [`NoMigrationPolicy`]) plus the related-work
//! baselines ([`MigrateOnRequestPolicy`], [`LazyFlushingPolicy`]) are the
//! one definition of each rule: unit tests check them against values
//! computed by hand from §4.2 of the paper, and the modeled rows of
//! `bench/baseline.json` pin their decisions end to end. Two policies go
//! beyond the paper: [`HysteresisPolicy`] damps migrate-back ping-pong by
//! demanding extra evidence before the home returns to the node it just
//! left, and [`EwmaWriteRatioPolicy`] tracks an exponentially weighted
//! remote-write share in the scratch and migrates on a ratio bound instead
//! of a count.
//!
//! [`on_remote_write`]: HomeMigrationPolicy::on_remote_write
//! [`on_home_write`]: HomeMigrationPolicy::on_home_write
//! [`on_redirect`]: HomeMigrationPolicy::on_redirect
//! [`decide`]: HomeMigrationPolicy::decide

use crate::migration::{MigrationState, PolicyScratch};
use dsm_objspace::{NodeId, ObjectId};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// The outcome of one policy decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Keep the home where it is.
    Stay,
    /// Migrate the home to the requester, inside the reply that carries the
    /// object.
    Migrate,
}

impl Decision {
    /// Whether this decision migrates the home.
    pub fn is_migrate(self) -> bool {
        matches!(self, Decision::Migrate)
    }
}

/// Everything a policy may consult when deciding whether the home should
/// migrate to the requester: the engine-owned per-object observation state
/// plus the cost-model terms of the paper's home access coefficient.
#[derive(Debug, Clone, Copy)]
pub struct PolicyInputs<'a> {
    /// The object's migration bookkeeping at its current home.
    pub state: &'a MigrationState,
    /// The node that faulted the object in (never the home itself; the
    /// engine answers local requests without consulting the policy).
    pub requester: NodeId,
    /// Whether the fault was a write fault.
    pub for_write: bool,
    /// Registered size of the object in bytes (`o` of Appendix A).
    pub object_bytes: u64,
    /// Half-peak message length `m_½` of the configured network, in bytes.
    pub half_peak_len: f64,
}

impl PolicyInputs<'_> {
    /// The paper's home access coefficient `α = 2 + (o + d)/m_½` (Appendix
    /// A), with `o` the object size and `d` the observed mean diff size
    /// (falling back to the object size before any diff has been seen, which
    /// over-estimates α slightly and therefore errs on the eager side —
    /// matching the paper's choice of a small initial threshold). This is
    /// the one place the formula is written; [`AdaptiveThresholdPolicy`]
    /// uses it unless an override is set.
    pub fn default_alpha(&self) -> f64 {
        let d = if self.state.diff_samples > 0 {
            self.state.mean_diff_bytes
        } else {
            self.object_bytes as f64
        };
        2.0 + (self.object_bytes as f64 + d) / self.half_peak_len.max(1.0)
    }
}

/// An open home-migration policy, consulted by every engine shard.
///
/// See the [module documentation](self) for the contract: which state the
/// engine owns, which state the policy owns, and the determinism
/// requirements. All methods take `&self` — one policy value is shared
/// (behind an [`Arc`]) by all shards of a node and usually by all nodes of
/// the cluster.
pub trait HomeMigrationPolicy: fmt::Debug + Send + Sync {
    /// Short report label ("AT", "FT2", "HYST1+2", ...). Implementations
    /// must return a borrowed, allocation-free label: either a `&'static
    /// str` or a `String` cached at construction time.
    fn label(&self) -> &str;

    /// The pure decision step, evaluated at the object's home for every
    /// fault-in request arriving from a remote node.
    fn decide(&self, inputs: &PolicyInputs<'_>) -> Decision;

    /// The policy's current decision threshold for this object, used for
    /// two purposes: the telemetry's threshold trajectory (non-finite
    /// values are not sampled), and the `threshold_base` carried to the new
    /// home when a migration is granted. Policies without a meaningful
    /// threshold should return the constant that best describes their
    /// eagerness (`0` for always, `f64::INFINITY` for never).
    fn current_threshold(&self, inputs: &PolicyInputs<'_>) -> f64;

    /// Observation hook: a diff from `from` was just applied at the home
    /// and recorded into `state` (consecutive-write run and diff-size
    /// average already updated).
    fn on_remote_write(&self, state: &mut MigrationState, from: NodeId, diff_bytes: u64) {
        let _ = (state, from, diff_bytes);
    }

    /// Observation hook: the home node's first write fault of the interval
    /// was just recorded into `state`; `exclusive` is true when no remote
    /// write intervened since an earlier home write.
    fn on_home_write(&self, state: &mut MigrationState, exclusive: bool) {
        let _ = (state, exclusive);
    }

    /// Observation hook: an arriving request or diff reported `hops`
    /// redirection hops, already accumulated into `state` (the negative
    /// feedback of previous migrations). Only called when `hops > 0`.
    fn on_redirect(&self, state: &mut MigrationState, hops: u32) {
        let _ = (state, hops);
    }

    /// Migration hook: `shipped` is the state about to travel to the new
    /// home, after the engine's standard epoch reset (which keeps the
    /// scratch). Policies that want a fresh [`PolicyScratch`] at the new
    /// home clear it here.
    fn on_migrate(&self, shipped: &mut MigrationState) {
        let _ = shipped;
    }
}

/// Conversion into a shared policy object, implemented by every policy
/// value and by `Arc`s of policy values — so
/// `builder.migration(AdaptiveThresholdPolicy::paper())`,
/// `builder.migration(MyPolicy)` and `builder.migration(Arc::new(MyPolicy))`
/// all work.
pub trait IntoMigrationPolicy {
    /// Convert into the shared trait object the engine consults.
    fn into_policy(self) -> Arc<dyn HomeMigrationPolicy>;
}

impl<P: HomeMigrationPolicy + 'static> IntoMigrationPolicy for P {
    fn into_policy(self) -> Arc<dyn HomeMigrationPolicy> {
        Arc::new(self)
    }
}

impl IntoMigrationPolicy for Arc<dyn HomeMigrationPolicy> {
    fn into_policy(self) -> Arc<dyn HomeMigrationPolicy> {
        self
    }
}

impl<P: HomeMigrationPolicy + 'static> IntoMigrationPolicy for Arc<P> {
    fn into_policy(self) -> Arc<dyn HomeMigrationPolicy> {
        self
    }
}

// ----------------------------------------------------------------------
// The paper's policies and the related-work baselines
// ----------------------------------------------------------------------

/// The paper's `NoHM`/`NM` baseline: the home never migrates.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoMigrationPolicy;

impl HomeMigrationPolicy for NoMigrationPolicy {
    fn label(&self) -> &str {
        "NM"
    }

    fn decide(&self, _inputs: &PolicyInputs<'_>) -> Decision {
        Decision::Stay
    }

    fn current_threshold(&self, _inputs: &PolicyInputs<'_>) -> f64 {
        f64::INFINITY
    }
}

/// The authors' earlier fixed-threshold protocol: migrate when the number of
/// consecutive remote writes from one node reaches a constant (the paper
/// evaluates `FT1` and `FT2`).
#[derive(Debug, Clone)]
pub struct FixedThresholdPolicy {
    threshold: u32,
    label: String,
}

impl FixedThresholdPolicy {
    /// A fixed-threshold policy with the given constant.
    pub fn new(threshold: u32) -> Self {
        FixedThresholdPolicy {
            threshold,
            label: format!("FT{threshold}"),
        }
    }

    /// The constant threshold.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }
}

impl HomeMigrationPolicy for FixedThresholdPolicy {
    fn label(&self) -> &str {
        &self.label
    }

    fn decide(&self, inputs: &PolicyInputs<'_>) -> Decision {
        let s = inputs.state;
        if s.last_remote_writer == Some(inputs.requester)
            && f64::from(s.consecutive_remote_writes) >= f64::from(self.threshold)
        {
            Decision::Migrate
        } else {
            Decision::Stay
        }
    }

    fn current_threshold(&self, _inputs: &PolicyInputs<'_>) -> f64 {
        f64::from(self.threshold)
    }
}

/// The paper's contribution: a per-object threshold that decreases with
/// evidence of a lasting single-writer pattern and increases with evidence
/// that migrations only caused redirections,
/// `T_i = max(T_{i-1} + λ·(R_i − α·E_i), T_init)`.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveThresholdPolicy {
    lambda: f64,
    initial_threshold: f64,
    alpha_override: Option<f64>,
}

impl AdaptiveThresholdPolicy {
    /// The paper's published constants: λ = 1, `T_init` = 1, α derived from
    /// the network model.
    pub fn paper() -> Self {
        AdaptiveThresholdPolicy {
            lambda: 1.0,
            initial_threshold: 1.0,
            alpha_override: None,
        }
    }

    /// An adaptive policy with explicit feedback coefficient and initial
    /// (minimum) threshold.
    pub fn new(lambda: f64, initial_threshold: f64) -> Self {
        AdaptiveThresholdPolicy {
            lambda,
            initial_threshold,
            alpha_override: None,
        }
    }

    /// Force the home access coefficient α instead of deriving it from
    /// object/diff sizes and the half-peak length (the sensitivity
    /// ablation's knob).
    #[must_use]
    pub fn with_alpha_override(mut self, alpha: f64) -> Self {
        self.alpha_override = Some(alpha);
        self
    }

    fn alpha(&self, inputs: &PolicyInputs<'_>) -> f64 {
        self.alpha_override
            .unwrap_or_else(|| inputs.default_alpha())
    }
}

impl Default for AdaptiveThresholdPolicy {
    fn default() -> Self {
        AdaptiveThresholdPolicy::paper()
    }
}

impl HomeMigrationPolicy for AdaptiveThresholdPolicy {
    fn label(&self) -> &str {
        "AT"
    }

    fn decide(&self, inputs: &PolicyInputs<'_>) -> Decision {
        let s = inputs.state;
        if s.last_remote_writer == Some(inputs.requester)
            && f64::from(s.consecutive_remote_writes) >= self.current_threshold(inputs)
        {
            Decision::Migrate
        } else {
            Decision::Stay
        }
    }

    fn current_threshold(&self, inputs: &PolicyInputs<'_>) -> f64 {
        let s = inputs.state;
        let feedback =
            s.redirected_requests as f64 - self.alpha(inputs) * s.exclusive_home_writes as f64;
        (s.threshold_base + self.lambda * feedback).max(self.initial_threshold)
    }
}

/// JUMP-style migrating-home protocol: the requester of a write fault always
/// becomes the new home, regardless of access history.
#[derive(Debug, Clone, Copy, Default)]
pub struct MigrateOnRequestPolicy;

impl HomeMigrationPolicy for MigrateOnRequestPolicy {
    fn label(&self) -> &str {
        "JUMP"
    }

    fn decide(&self, inputs: &PolicyInputs<'_>) -> Decision {
        if inputs.for_write {
            Decision::Migrate
        } else {
            Decision::Stay
        }
    }

    fn current_threshold(&self, _inputs: &PolicyInputs<'_>) -> f64 {
        0.0
    }
}

/// Jackal-style lazy flushing: ownership moves to a writing requester as
/// long as the object has not changed home more than `max_transitions`
/// times (Jackal caps the transitions at five).
#[derive(Debug, Clone, Copy)]
pub struct LazyFlushingPolicy {
    max_transitions: u32,
}

impl LazyFlushingPolicy {
    /// A lazy-flushing policy with an explicit transition cap.
    pub fn new(max_transitions: u32) -> Self {
        LazyFlushingPolicy { max_transitions }
    }
}

impl Default for LazyFlushingPolicy {
    fn default() -> Self {
        LazyFlushingPolicy::new(5)
    }
}

impl HomeMigrationPolicy for LazyFlushingPolicy {
    fn label(&self) -> &str {
        "LAZY"
    }

    fn decide(&self, inputs: &PolicyInputs<'_>) -> Decision {
        if inputs.for_write && inputs.state.migrations < self.max_transitions {
            Decision::Migrate
        } else {
            Decision::Stay
        }
    }

    fn current_threshold(&self, _inputs: &PolicyInputs<'_>) -> f64 {
        1.0
    }
}

// ----------------------------------------------------------------------
// Policies beyond the paper
// ----------------------------------------------------------------------

/// A fixed-threshold policy with **hysteresis**: migrating the home *back*
/// to the node it most recently came from requires `migrate_back_penalty`
/// additional consecutive remote writes on top of the base threshold.
///
/// This directly damps the migrate-back ping-pong that eager policies
/// exhibit when two writers alternate in short bursts: the first migration
/// is as cheap as under the base threshold, but returning costs extra
/// evidence, so bursts shorter than `threshold + migrate_back_penalty`
/// leave the home where it is.
#[derive(Debug, Clone)]
pub struct HysteresisPolicy {
    threshold: u32,
    migrate_back_penalty: u32,
    label: String,
}

impl HysteresisPolicy {
    /// A hysteresis policy: `threshold` consecutive remote writes migrate
    /// the home, except back to the previous home, which takes
    /// `threshold + migrate_back_penalty`.
    pub fn new(threshold: u32, migrate_back_penalty: u32) -> Self {
        HysteresisPolicy {
            threshold,
            migrate_back_penalty,
            label: format!("HYST{threshold}+{migrate_back_penalty}"),
        }
    }

    /// The consecutive-write requirement for migrating to `requester`.
    fn required(&self, inputs: &PolicyInputs<'_>) -> u32 {
        if inputs.state.prev_home == Some(inputs.requester) {
            self.threshold.saturating_add(self.migrate_back_penalty)
        } else {
            self.threshold
        }
    }
}

impl Default for HysteresisPolicy {
    fn default() -> Self {
        HysteresisPolicy::new(1, 2)
    }
}

impl HomeMigrationPolicy for HysteresisPolicy {
    fn label(&self) -> &str {
        &self.label
    }

    fn decide(&self, inputs: &PolicyInputs<'_>) -> Decision {
        let s = inputs.state;
        if s.last_remote_writer == Some(inputs.requester)
            && s.consecutive_remote_writes >= self.required(inputs)
        {
            Decision::Migrate
        } else {
            Decision::Stay
        }
    }

    fn current_threshold(&self, inputs: &PolicyInputs<'_>) -> f64 {
        f64::from(self.required(inputs))
    }
}

/// A policy that migrates on an **exponentially weighted remote-write
/// share** instead of a consecutive-write count.
///
/// The scratch's `a` field holds an EWMA of the indicator "the most recent
/// write event was a remote write by the currently tracked writer": each
/// remote write in an unbroken run pushes it toward 1 with gain `gamma` (a
/// retargeted run restarts at `gamma`), each home write decays it, and each
/// reported redirection hop decays it once more (negative feedback, like
/// the adaptive threshold's `R_i`). The home migrates to the tracked writer
/// once the share reaches `ratio`, so sporadic interleaved writers never
/// trigger a move while a sustained single writer does — a smoother version
/// of the paper's counter that also forgets old evidence geometrically.
#[derive(Debug, Clone, Copy)]
pub struct EwmaWriteRatioPolicy {
    gamma: f64,
    ratio: f64,
}

impl EwmaWriteRatioPolicy {
    /// An EWMA policy with smoothing gain `gamma` in (0, 1] and migration
    /// bound `ratio` in (0, 1].
    ///
    /// # Panics
    /// Panics if either parameter is outside (0, 1].
    pub fn new(gamma: f64, ratio: f64) -> Self {
        assert!(gamma > 0.0 && gamma <= 1.0, "gamma must be in (0, 1]");
        assert!(ratio > 0.0 && ratio <= 1.0, "ratio must be in (0, 1]");
        EwmaWriteRatioPolicy { gamma, ratio }
    }

    /// The current remote-write share tracked for an object.
    pub fn share(state: &MigrationState) -> f64 {
        state.scratch.a
    }
}

impl Default for EwmaWriteRatioPolicy {
    /// Gain 0.5, bound 0.8: three unbroken remote writes from one node
    /// (share 0.5 → 0.75 → 0.875) arm migration on that node's next fault.
    fn default() -> Self {
        EwmaWriteRatioPolicy::new(0.5, 0.8)
    }
}

impl HomeMigrationPolicy for EwmaWriteRatioPolicy {
    fn label(&self) -> &str {
        "EWMA"
    }

    fn decide(&self, inputs: &PolicyInputs<'_>) -> Decision {
        let s = inputs.state;
        if inputs.for_write
            && s.last_remote_writer == Some(inputs.requester)
            && s.scratch.a >= self.ratio
        {
            Decision::Migrate
        } else {
            Decision::Stay
        }
    }

    /// The EWMA policy's decision boundary is the ratio bound, which is what
    /// the threshold telemetry tracks for it.
    fn current_threshold(&self, _inputs: &PolicyInputs<'_>) -> f64 {
        self.ratio
    }

    fn on_remote_write(&self, state: &mut MigrationState, _from: NodeId, _diff_bytes: u64) {
        // The engine has already updated the consecutive-write run: a run of
        // length 1 means the tracked writer changed (or a home write broke
        // the run), so the share restarts from this single sample.
        if state.consecutive_remote_writes <= 1 {
            state.scratch.a = self.gamma;
        } else {
            state.scratch.a = self.gamma + (1.0 - self.gamma) * state.scratch.a;
        }
    }

    fn on_home_write(&self, state: &mut MigrationState, _exclusive: bool) {
        state.scratch.a *= 1.0 - self.gamma;
    }

    fn on_redirect(&self, state: &mut MigrationState, hops: u32) {
        // Redirections are the cost of past migrations; decay the share once
        // per hop so the policy needs fresh writes to re-arm.
        for _ in 0..hops {
            state.scratch.a *= 1.0 - self.gamma;
        }
    }

    fn on_migrate(&self, shipped: &mut MigrationState) {
        // The tracked writer just became the home; its share is meaningless
        // at the new home, so start over.
        shipped.scratch = PolicyScratch::default();
    }
}

// ----------------------------------------------------------------------
// Per-object overrides
// ----------------------------------------------------------------------

/// Per-object home-migration policy overrides: objects listed here consult
/// their own policy instead of the cluster-wide default, so one cluster can
/// run different policies on different objects (a policy × object
/// experiment grid in a single run).
#[derive(Clone, Default)]
pub struct PolicyOverrides {
    map: HashMap<ObjectId, Arc<dyn HomeMigrationPolicy>>,
}

impl PolicyOverrides {
    /// No overrides: every object uses the cluster-wide default.
    pub fn new() -> Self {
        PolicyOverrides::default()
    }

    /// Set (or replace) the policy override for `obj`.
    pub fn set(&mut self, obj: ObjectId, policy: impl IntoMigrationPolicy) {
        self.map.insert(obj, policy.into_policy());
    }

    /// The override for `obj`, if any.
    pub fn get(&self, obj: ObjectId) -> Option<&Arc<dyn HomeMigrationPolicy>> {
        self.map.get(&obj)
    }

    /// Number of overridden objects.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no object is overridden.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The overridden object ids, sorted (deterministic iteration for
    /// reports and tests).
    pub fn ids(&self) -> Vec<ObjectId> {
        let mut ids: Vec<ObjectId> = self.map.keys().copied().collect();
        ids.sort();
        ids
    }
}

impl fmt::Debug for PolicyOverrides {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut map = f.debug_map();
        for id in self.ids() {
            map.entry(&id, &self.map[&id].label());
        }
        map.finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// `m_½` of the paper's Fast Ethernet, in bytes.
    pub(crate) const HALF_PEAK: f64 = 1150.0;
    const OBJ: u64 = 1024;

    /// Decision inputs for a 1024-byte object on the paper's network.
    pub(crate) fn inputs<'a>(
        state: &'a MigrationState,
        requester: NodeId,
        for_write: bool,
    ) -> PolicyInputs<'a> {
        PolicyInputs {
            state,
            requester,
            for_write,
            object_bytes: OBJ,
            half_peak_len: HALF_PEAK,
        }
    }

    #[test]
    fn labels_are_cached_and_byte_identical_to_the_enum_display() {
        // The historical report labels, which figure reproductions key on.
        assert_eq!(NoMigrationPolicy.label(), "NM");
        assert_eq!(FixedThresholdPolicy::new(1).label(), "FT1");
        assert_eq!(FixedThresholdPolicy::new(2).label(), "FT2");
        assert_eq!(AdaptiveThresholdPolicy::paper().label(), "AT");
        assert_eq!(MigrateOnRequestPolicy.label(), "JUMP");
        assert_eq!(LazyFlushingPolicy::default().label(), "LAZY");
        assert_eq!(HysteresisPolicy::new(1, 2).label(), "HYST1+2");
        assert_eq!(EwmaWriteRatioPolicy::default().label(), "EWMA");
        // Conversion into the shared trait object keeps the label.
        assert_eq!(FixedThresholdPolicy::new(7).into_policy().label(), "FT7");
    }

    #[test]
    fn hysteresis_demands_extra_evidence_for_migrate_backs() {
        let policy = HysteresisPolicy::new(1, 2);
        let mut state = MigrationState::new();
        state.record_remote_write(NodeId(2), 64);
        // A first-time migration needs only the base threshold.
        assert!(policy.decide(&inputs(&state, NodeId(2), true)).is_migrate());
        assert_eq!(
            policy.current_threshold(&inputs(&state, NodeId(2), true)),
            1.0
        );
        // Ship the home 1 -> 2; node 1 becomes the previous home.
        let shipped = state.migrated(1.0, Some(NodeId(1)));
        // Back at node 1's request: 1 and 2 consecutive writes are refused,
        // 3 (threshold + penalty) migrate.
        let mut at_two = shipped;
        at_two.record_remote_write(NodeId(1), 64);
        assert_eq!(
            policy.current_threshold(&inputs(&at_two, NodeId(1), true)),
            3.0
        );
        assert!(!policy
            .decide(&inputs(&at_two, NodeId(1), true))
            .is_migrate());
        at_two.record_remote_write(NodeId(1), 64);
        assert!(!policy
            .decide(&inputs(&at_two, NodeId(1), true))
            .is_migrate());
        at_two.record_remote_write(NodeId(1), 64);
        assert!(policy
            .decide(&inputs(&at_two, NodeId(1), true))
            .is_migrate());
        // A third node pays only the base threshold.
        let mut fresh = MigrationState::new().migrated(1.0, Some(NodeId(1)));
        fresh.record_remote_write(NodeId(3), 64);
        assert!(policy.decide(&inputs(&fresh, NodeId(3), true)).is_migrate());
    }

    #[test]
    fn ewma_share_rises_with_runs_and_decays_on_interference() {
        let policy = EwmaWriteRatioPolicy::default();
        let mut state = MigrationState::new();
        // Two writes are not enough (0.5 then 0.75 < 0.8)...
        for _ in 0..2 {
            state.record_remote_write(NodeId(1), 64);
            policy.on_remote_write(&mut state, NodeId(1), 64);
            assert!(!policy.decide(&inputs(&state, NodeId(1), true)).is_migrate());
        }
        // ...the third arms it (0.875 >= 0.8).
        state.record_remote_write(NodeId(1), 64);
        policy.on_remote_write(&mut state, NodeId(1), 64);
        assert!(policy.decide(&inputs(&state, NodeId(1), true)).is_migrate());
        // But never for a read fault or for another node.
        assert!(!policy
            .decide(&inputs(&state, NodeId(1), false))
            .is_migrate());
        assert!(!policy.decide(&inputs(&state, NodeId(2), true)).is_migrate());
        // A home write decays the share below the bound again.
        let exclusive = state.record_home_write();
        policy.on_home_write(&mut state, exclusive);
        assert!(EwmaWriteRatioPolicy::share(&state) < 0.8);
        // A retargeted run restarts from a single sample.
        state.record_remote_write(NodeId(2), 64);
        policy.on_remote_write(&mut state, NodeId(2), 64);
        assert_eq!(EwmaWriteRatioPolicy::share(&state), 0.5);
        // Redirection feedback decays it too.
        state.record_redirections(2);
        policy.on_redirect(&mut state, 2);
        assert!(EwmaWriteRatioPolicy::share(&state) < 0.2);
        // Migration resets the scratch at the new home.
        let mut shipped = state.migrated(1.0, Some(NodeId(0)));
        policy.on_migrate(&mut shipped);
        assert_eq!(EwmaWriteRatioPolicy::share(&shipped), 0.0);
    }

    #[test]
    fn overrides_resolve_per_object() {
        let a = ObjectId::derive("override.a", 0);
        let b = ObjectId::derive("override.b", 0);
        let mut overrides = PolicyOverrides::new();
        assert!(overrides.is_empty());
        overrides.set(a, NoMigrationPolicy);
        overrides.set(b, HysteresisPolicy::default());
        assert_eq!(overrides.len(), 2);
        assert_eq!(overrides.get(a).unwrap().label(), "NM");
        assert_eq!(overrides.get(b).unwrap().label(), "HYST1+2");
        assert!(overrides.get(ObjectId::derive("other", 0)).is_none());
        let mut ids = vec![a, b];
        ids.sort();
        assert_eq!(overrides.ids(), ids);
        // Replacing an override keeps one entry.
        overrides.set(a, AdaptiveThresholdPolicy::paper());
        assert_eq!(overrides.len(), 2);
        assert_eq!(overrides.get(a).unwrap().label(), "AT");
        // Debug shows labels, not internals.
        assert!(format!("{overrides:?}").contains("AT"));
    }
}

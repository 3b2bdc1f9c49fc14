//! # dsm-core — the home-based coherence protocol with adaptive home migration
//!
//! This crate is the reproduction of the paper's contribution: a home-based
//! lazy-release-consistency (HLRC) cache coherence protocol for a Global
//! Object Space, extended with **home migration** driven by a **per-object
//! adaptive threshold** (Fang, Wang, Zhu, Lau — IEEE CLUSTER 2004).
//!
//! ## Protocol overview
//!
//! Every shared object has a *home* node. The home copy is always valid:
//! accesses at the home never communicate, while a non-home node must
//! *fault-in* the object from the home before accessing it and must
//! propagate a *diff* of its writes back to the home when it releases a lock
//! or reaches a barrier (multiple-writer support through twins and diffs).
//! The memory model is the Java-consistency variant of LRC used by the
//! paper's distributed JVM: at every acquire (and barrier) a node
//! conservatively invalidates its cached non-home copies, so each critical
//! section that accesses a remote object costs one object fault-in and — if
//! it wrote — one diff propagation.
//!
//! ## Home migration
//!
//! If an object is repeatedly written by a single non-home node (the
//! *single-writer pattern*), migrating its home to that node converts the
//! per-interval fault-in + diff pair into purely local accesses. Migration is
//! not free: other nodes still address the old home and must be redirected
//! (forwarding-pointer mechanism), so migrating on a *transient*
//! single-writer pattern only adds overhead.
//!
//! The paper's policy keeps, per object, a threshold `T` on the number of
//! *consecutive remote writes* `C` from one node; when `C ≥ T` and that node
//! faults the object again, the home migrates to it. `T` adapts at run time:
//!
//! ```text
//! T_i = max( T_{i-1} + λ·(R_i − α·E_i), T_init )      T_init = 1, λ = 1
//! ```
//!
//! where, since the previous migration, `R_i` counts redirected requests
//! (negative feedback — migration cost) and `E_i` counts exclusive home
//! writes (positive feedback — migration benefit), weighted by the *home
//! access coefficient* `α ≈ 2 + (o + d)/m_½` (Appendix A) because one
//! eliminated fault-in/diff pair is worth more than one redirection.
//!
//! ## Writing a migration policy
//!
//! The migration rule is an open extension point: implement
//! [`policy::HomeMigrationPolicy`] and hand the value to
//! `ClusterBuilder::migration` (cluster-wide) or
//! `ClusterBuilder::object_policy` (one object). The contract, in brief —
//! the full version lives in the [`policy`] module docs:
//!
//! * **The engine owns the observation state.** Every protocol event is
//!   recorded into the object's [`MigrationState`] (consecutive remote
//!   writes, redirection/exclusive-write feedback, diff-size history,
//!   previous home) *before* the policy's matching hook
//!   (`on_remote_write`, `on_home_write`, `on_redirect`) runs. The engine
//!   also performs the migration epoch reset and ships the state to the new
//!   home inside the grant.
//! * **The policy owns its configuration and the scratch.** Policy values
//!   are shared `Send + Sync` objects consulted by every shard without
//!   locks, so they must be immutable after construction; per-object state
//!   a policy needs goes into the [`migration::PolicyScratch`] embedded in
//!   `MigrationState`, which only the hooks mutate.
//! * **Decisions must be deterministic.** `decide` is a pure function of
//!   [`policy::PolicyInputs`] (state + requester + cost-model terms); no
//!   randomness, clocks or interior mutability — the sim fabric's replay
//!   suites and the byte-equal modeled gate assert bit-identical decisions
//!   across runs.
//! * **Telemetry is free.** Every considered decision, taken migration,
//!   migrate-back and finite `current_threshold` sample flows into
//!   [`stats::PolicyTelemetry`], visible per run through `stats()` and the
//!   runtime's `ExecutionReport`.
//!
//! ## Crate layout
//!
//! * `config` — protocol configuration ([`ProtocolConfig`]: migration
//!   policy + per-object overrides, notification mechanism, coefficients).
//! * `messages` — the wire protocol between nodes ([`ProtocolMsg`]).
//! * [`policy`] — the pluggable policy API: the `HomeMigrationPolicy`
//!   trait, the built-in impls (`NoMigrationPolicy`, `FixedThresholdPolicy`
//!   (FT), `AdaptiveThresholdPolicy` (AT, the contribution), JUMP-style
//!   `MigrateOnRequestPolicy`, Jackal-style `LazyFlushingPolicy`), the
//!   beyond-the-paper `HysteresisPolicy` and `EwmaWriteRatioPolicy`, and
//!   per-object `PolicyOverrides`.
//! * `migration` — the engine-owned per-object observation state
//!   (`MigrationState` and the policy-owned `PolicyScratch` it carries).
//! * [`sync`] — distributed lock and barrier managers (the synchronization
//!   substrate that delimits intervals).
//! * `engine` — the per-node protocol engine gluing it all together
//!   ([`ProtocolEngine`]): a lock-striped facade over per-object shards
//!   ([`shard`], private) and the node-global synchronization state
//!   ([`global`], private), so protocol serving scales with cores instead
//!   of serializing on one engine mutex.
//! * `stats` — per-node protocol statistics ([`ProtocolStats`]), including
//!   the policy decision telemetry ([`PolicyTelemetry`]).
//!
//! [`shard`]: ProtocolEngine#sharded-locking
//! [`global`]: ProtocolEngine#sharded-locking

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
mod global;
mod messages;
mod migration;
pub mod policy;
mod shard;
mod stats;
pub mod sync;

pub use config::{NotificationMechanism, ProtocolConfig};
pub use engine::{
    group_flush_plans, AccessPlan, DiffOutcome, FlushBatch, FlushPlan, MigrationGrant,
    ObjectRequestOutcome, ProtocolEngine,
};
pub use messages::{
    DiffBatchEntry, DiffBatchResult, DiffEntryStatus, ProtocolMsg, ReqId,
    DIFF_BATCH_ENTRY_HEADER_BYTES,
};
pub use migration::{MigrationState, PolicyScratch};
pub use policy::{
    AdaptiveThresholdPolicy, Decision, EwmaWriteRatioPolicy, FixedThresholdPolicy,
    HomeMigrationPolicy, HysteresisPolicy, IntoMigrationPolicy, LazyFlushingPolicy,
    MigrateOnRequestPolicy, NoMigrationPolicy, PolicyInputs, PolicyOverrides,
};
pub use stats::{PolicyTelemetry, ProtocolStats};

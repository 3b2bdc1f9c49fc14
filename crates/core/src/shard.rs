//! One lock stripe of the per-node protocol engine.
//!
//! An [`EngineShard`] owns the per-object protocol state — home copies,
//! cached copies, home beliefs, interval write sets and the statistics those
//! operations generate — for the subset of objects whose id hashes onto the
//! shard. The [`ProtocolEngine`](crate::engine::ProtocolEngine) facade keeps
//! `N` shards behind `N` independent mutexes, so protocol operations on
//! objects in different shards never contend on a shared lock.
//!
//! Every method here runs under exactly one shard mutex (held by the
//! facade); a shard never reaches into another shard or into the node-global
//! state, which is what makes the engine's locking trivially deadlock-free:
//! no code path in the workspace ever holds two engine-internal locks at
//! once.

use crate::config::{NotificationMechanism, ProtocolConfig};
use crate::engine::{AccessPlan, DiffOutcome, FlushPlan, MigrationGrant, ObjectRequestOutcome};
use crate::migration::MigrationState;
use crate::policy::PolicyInputs;
use crate::stats::ProtocolStats;
use dsm_objspace::{
    new_store, AccessState, Diff, Element, NodeId, ObjectData, ObjectId, ObjectRegistry,
    ObjectStore, Twin, Version,
};
use dsm_util::{RwReadGuard, RwWriteGuard};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A home copy plus its protocol metadata.
#[derive(Debug, Clone)]
struct HomeEntry {
    data: ObjectStore,
    version: Version,
    state: AccessState,
    migration: MigrationState,
}

/// A cached (non-home) copy.
#[derive(Debug, Clone)]
struct CacheEntry {
    data: ObjectStore,
    version: Version,
    state: AccessState,
    twin: Option<Twin>,
}

/// A node's belief about an object's current home: the node and the home
/// epoch it became home at. Beliefs only ever move forward in epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HomeBelief {
    node: NodeId,
    epoch: u32,
}

/// Per-object protocol state for one lock stripe of the engine. See the
/// module documentation.
#[derive(Debug)]
pub(crate) struct EngineShard {
    node: NodeId,
    num_nodes: usize,
    config: ProtocolConfig,
    registry: Arc<ObjectRegistry>,
    homes: HashMap<ObjectId, HomeEntry>,
    caches: HashMap<ObjectId, CacheEntry>,
    known_home: HashMap<ObjectId, HomeBelief>,
    /// Cached objects written (and twinned) in the current interval.
    dirty: HashSet<ObjectId>,
    /// Home objects written in the current interval (version bump at release).
    home_written: HashSet<ObjectId>,
    /// Protocol statistics for events handled by this shard.
    pub(crate) stats: ProtocolStats,
}

impl EngineShard {
    /// Create one shard for `node`, seeding home copies (zero-filled) for
    /// every registered object that hashes onto this shard *and* whose
    /// initial home is this node. `belongs` decides shard membership — the
    /// facade passes its `ObjectId -> shard index` mapping down.
    pub(crate) fn new(
        node: NodeId,
        num_nodes: usize,
        config: ProtocolConfig,
        registry: Arc<ObjectRegistry>,
        belongs: impl Fn(ObjectId) -> bool,
    ) -> Self {
        let mut homes = HashMap::new();
        for desc in registry.iter() {
            if belongs(desc.id) && desc.initial_home(num_nodes) == node {
                homes.insert(
                    desc.id,
                    HomeEntry {
                        data: new_store(ObjectData::zeroed(desc.size_bytes)),
                        version: Version::INITIAL,
                        state: AccessState::Invalid,
                        migration: MigrationState::new(),
                    },
                );
            }
        }
        EngineShard {
            node,
            num_nodes,
            config,
            registry,
            homes,
            caches: HashMap::new(),
            known_home: HashMap::new(),
            dirty: HashSet::new(),
            home_written: HashSet::new(),
            stats: ProtocolStats::default(),
        }
    }

    /// Whether this node currently is the home of `obj`.
    pub(crate) fn is_home(&self, obj: ObjectId) -> bool {
        self.homes.contains_key(&obj)
    }

    /// The node this shard currently believes to be the home of `obj`.
    pub(crate) fn home_hint(&self, obj: ObjectId) -> NodeId {
        if self.is_home(obj) {
            return self.node;
        }
        match self.known_home.get(&obj) {
            Some(belief) => belief.node,
            // Fall back to the well-known initial assignment.
            None => self.registry.expect(obj).initial_home(self.num_nodes),
        }
    }

    /// The home epoch this node believes `obj`'s current home is at.
    pub(crate) fn home_epoch(&self, obj: ObjectId) -> u32 {
        if let Some(entry) = self.homes.get(&obj) {
            return entry.migration.migrations;
        }
        self.known_home.get(&obj).map_or(0, |belief| belief.epoch)
    }

    /// The manager node of `obj` under the home-manager notification
    /// mechanism: its well-known initial home.
    pub(crate) fn manager_of(&self, obj: ObjectId) -> NodeId {
        self.registry.expect(obj).initial_home(self.num_nodes)
    }

    /// Seed the home copy of `obj` with deterministic initial contents. The
    /// size is checked on every node; the payload is built only where it is
    /// kept, at the home.
    ///
    /// # Panics
    /// Panics if the payload size does not match the registered descriptor,
    /// or if the object has already been written through the protocol.
    pub(crate) fn bootstrap_object<T: Element>(&mut self, obj: ObjectId, values: &[T]) {
        let desc = self.registry.expect(obj);
        assert_eq!(
            values.len() * T::SIZE,
            desc.size_bytes,
            "bootstrap payload size mismatch for {obj}"
        );
        if let Some(entry) = self.homes.get_mut(&obj) {
            assert_eq!(
                entry.version,
                Version::INITIAL,
                "bootstrap after the protocol already ran on {obj}"
            );
            *entry.data.write() = ObjectData::from_elements(values);
        }
    }

    // ------------------------------------------------------------------
    // Application side
    // ------------------------------------------------------------------

    /// Open a new interval for this shard's objects: home-access traps are
    /// re-armed and cached non-home copies conservatively invalidated (own
    /// unflushed writes preserved).
    pub(crate) fn begin_interval(&mut self) {
        for entry in self.homes.values_mut() {
            entry.state = AccessState::Invalid;
        }
        let cache_immutable = self.config.cache_immutable_objects;
        let registry = Arc::clone(&self.registry);
        for (obj, entry) in self.caches.iter_mut() {
            if self.dirty.contains(obj) {
                // Our own writes from an interval that has not released yet;
                // never discard them.
                continue;
            }
            if cache_immutable && registry.expect(*obj).is_immutable() {
                continue;
            }
            if entry.state != AccessState::Invalid {
                entry.state = AccessState::Invalid;
                self.stats.invalidations += 1;
            }
        }
    }

    /// Plan a read of `obj` by the local application thread.
    pub(crate) fn plan_read(&mut self, obj: ObjectId) -> AccessPlan {
        if let Some(entry) = self.homes.get_mut(&obj) {
            if entry.state.read_faults() {
                self.stats.home_reads += 1;
                entry.state = entry.state.after_read();
            } else {
                self.stats.local_read_hits += 1;
            }
            return AccessPlan::LocalHit;
        }
        if let Some(entry) = self.caches.get(&obj) {
            if !entry.state.read_faults() {
                self.stats.local_read_hits += 1;
                return AccessPlan::LocalHit;
            }
        }
        self.stats.fault_ins += 1;
        AccessPlan::Fetch {
            target: self.home_hint(obj),
        }
    }

    /// Plan a write of `obj` by the local application thread.
    pub(crate) fn plan_write(&mut self, obj: ObjectId) -> AccessPlan {
        if let Some(entry) = self.homes.get_mut(&obj) {
            if entry.state.write_faults() {
                self.stats.home_writes += 1;
                let exclusive = entry.migration.record_home_write();
                if exclusive {
                    self.stats.exclusive_home_writes += 1;
                }
                // `config` and `homes` are disjoint fields, so the policy
                // borrow coexists with the entry borrow — no Arc clone on
                // the home-write fast path.
                self.config
                    .policy_for(obj)
                    .on_home_write(&mut entry.migration, exclusive);
                entry.state = entry.state.after_write();
                self.home_written.insert(obj);
            } else {
                self.stats.local_write_hits += 1;
            }
            return AccessPlan::LocalHit;
        }
        if let Some(entry) = self.caches.get_mut(&obj) {
            match entry.state {
                AccessState::ReadWrite => {
                    self.stats.local_write_hits += 1;
                    return AccessPlan::LocalHit;
                }
                AccessState::ReadOnly => {
                    if entry.twin.is_none() {
                        entry.twin = Some(Twin::capture(&entry.data.read()));
                        self.stats.twins_created += 1;
                    }
                    entry.state = AccessState::ReadWrite;
                    self.dirty.insert(obj);
                    return AccessPlan::LocalHit;
                }
                AccessState::Invalid => {}
            }
        }
        self.stats.fault_ins += 1;
        AccessPlan::Fetch {
            target: self.home_hint(obj),
        }
    }

    /// Lease the payload store of a locally *readable* copy of `obj`.
    ///
    /// # Panics
    /// Panics if the object is not locally readable.
    pub(crate) fn lease_read(&self, obj: ObjectId) -> ObjectStore {
        if let Some(entry) = self.homes.get(&obj) {
            return Arc::clone(&entry.data);
        }
        if let Some(entry) = self.caches.get(&obj) {
            assert!(
                entry.state != AccessState::Invalid,
                "read lease of invalid cached copy of {obj}; fault it in first"
            );
            return Arc::clone(&entry.data);
        }
        panic!(
            "read lease of {obj} which is neither homed nor cached on {}",
            self.node
        );
    }

    /// Lease the payload store of a locally *writable* copy of `obj`.
    ///
    /// # Panics
    /// Panics if the object is not locally writable.
    pub(crate) fn lease_write(&self, obj: ObjectId) -> ObjectStore {
        if let Some(entry) = self.homes.get(&obj) {
            assert!(
                entry.state == AccessState::ReadWrite,
                "write lease of home copy of {obj} without a write plan"
            );
            return Arc::clone(&entry.data);
        }
        if let Some(entry) = self.caches.get(&obj) {
            assert!(
                entry.state == AccessState::ReadWrite,
                "write lease of cached copy of {obj} without a write plan"
            );
            return Arc::clone(&entry.data);
        }
        panic!(
            "write lease of {obj} which is neither homed nor cached on {}",
            self.node
        );
    }

    /// Atomically check readability and take the payload read guard under
    /// the shard lock. Returns `None` when the copy is no longer readable
    /// (e.g. the home migrated away between the access plan and the lease) —
    /// the caller must re-plan.
    pub(crate) fn try_lease_read(&self, obj: ObjectId) -> Option<RwReadGuard<ObjectData>> {
        if let Some(entry) = self.homes.get(&obj) {
            return entry.data.try_read();
        }
        if let Some(entry) = self.caches.get(&obj) {
            if entry.state != AccessState::Invalid {
                return entry.data.try_read();
            }
        }
        None
    }

    /// Atomically check writability and take the payload write guard under
    /// the shard lock. Returns `None` when the copy is no longer writable —
    /// the caller must re-plan (which re-arms the twin/diff bookkeeping).
    pub(crate) fn try_lease_write(&self, obj: ObjectId) -> Option<RwWriteGuard<ObjectData>> {
        if let Some(entry) = self.homes.get(&obj) {
            if entry.state == AccessState::ReadWrite {
                return entry.data.try_write();
            }
            return None;
        }
        if let Some(entry) = self.caches.get(&obj) {
            if entry.state == AccessState::ReadWrite {
                return entry.data.try_write();
            }
        }
        None
    }

    /// Install the payload of a completed fault-in. If `migration` is
    /// present the home has migrated to this node and the payload becomes
    /// the home copy.
    pub(crate) fn install_object(
        &mut self,
        obj: ObjectId,
        data: Vec<u8>,
        version: Version,
        migration: Option<MigrationGrant>,
    ) {
        let desc = self.registry.expect(obj);
        assert_eq!(
            data.len(),
            desc.size_bytes,
            "fault-in payload size mismatch for {obj}"
        );
        if self.is_home(obj) {
            // A late or duplicated reply (possible under lossy fabrics, e.g.
            // after this node promoted itself in a home re-election) must
            // never clobber the live home copy.
            return;
        }
        let data = new_store(ObjectData::from_bytes(data));
        match migration {
            Some(grant) => {
                let epoch = grant.epoch();
                self.caches.remove(&obj);
                self.dirty.remove(&obj);
                self.homes.insert(
                    obj,
                    HomeEntry {
                        data,
                        version,
                        state: AccessState::ReadOnly,
                        migration: grant.state,
                    },
                );
                self.known_home.insert(
                    obj,
                    HomeBelief {
                        node: self.node,
                        epoch,
                    },
                );
                self.stats.migrations_in += 1;
            }
            None => {
                self.caches.insert(
                    obj,
                    CacheEntry {
                        data,
                        version,
                        state: AccessState::ReadOnly,
                        twin: None,
                    },
                );
            }
        }
    }

    /// Record that a fault-in or flush issued by this node was redirected,
    /// with the redirector claiming `new_home` became home at `epoch`.
    ///
    /// The hint is only adopted when it is strictly newer than this node's
    /// own belief and does not point at this node itself — stale backward
    /// hints must never overwrite a correct forward pointer (they would
    /// create redirect cycles). Returns whether the hint was adopted.
    pub(crate) fn note_redirect(&mut self, obj: ObjectId, new_home: NodeId, epoch: u32) -> bool {
        self.stats.redirections_suffered += 1;
        if new_home == self.node || self.is_home(obj) {
            return false;
        }
        let believed = self.home_epoch(obj);
        let known = self.known_home.contains_key(&obj);
        if epoch > believed || (!known && new_home != self.home_hint(obj)) {
            self.known_home.insert(
                obj,
                HomeBelief {
                    node: new_home,
                    epoch,
                },
            );
            return true;
        }
        false
    }

    /// Compute the diffs this shard must propagate to remote homes before
    /// the current interval can release. Objects whose writes turn out to be
    /// no-ops are cleaned up immediately and produce no flush.
    pub(crate) fn prepare_release(&mut self, plans: &mut Vec<FlushPlan>) {
        let dirty: Vec<ObjectId> = self.dirty.iter().copied().collect();
        for obj in dirty {
            let entry = self
                .caches
                .get_mut(&obj)
                .expect("dirty object must have a cached copy");
            let twin = entry.twin.as_ref().expect("dirty object must have a twin");
            let diff = twin.diff_against(&entry.data.read());
            if diff.is_empty() {
                entry.twin = None;
                entry.state = AccessState::ReadOnly;
                self.dirty.remove(&obj);
                continue;
            }
            self.stats.diffs_sent += 1;
            self.stats.diff_bytes_sent += diff.wire_bytes() as u64;
            plans.push(FlushPlan {
                obj,
                target: self.home_hint(obj),
                diff,
            });
        }
    }

    /// Record the acknowledgement of one flushed diff.
    pub(crate) fn complete_flush(&mut self, obj: ObjectId, new_version: Version) {
        if let Some(entry) = self.caches.get_mut(&obj) {
            entry.version = new_version;
            entry.twin = None;
        }
        self.dirty.remove(&obj);
    }

    /// Close the current interval for this shard's objects after all flushes
    /// are acknowledged.
    ///
    /// # Panics
    /// Panics if some flushed diff was never acknowledged (runtime bug).
    pub(crate) fn finish_release(&mut self) {
        assert!(
            self.dirty.is_empty(),
            "finish_release with unflushed dirty objects: {:?}",
            self.dirty
        );
        for obj in std::mem::take(&mut self.home_written) {
            if let Some(entry) = self.homes.get_mut(&obj) {
                entry.version = entry.version.next();
            }
        }
        for entry in self.homes.values_mut() {
            entry.state = entry.state.after_release();
        }
        for entry in self.caches.values_mut() {
            entry.state = entry.state.after_release();
        }
    }

    // ------------------------------------------------------------------
    // Server side
    // ------------------------------------------------------------------

    /// The hint and epoch to put into a redirect reply from this (non-home)
    /// node.
    fn redirect_hint(&self, obj: ObjectId) -> (NodeId, u32) {
        match self.config.notification {
            NotificationMechanism::HomeManager if self.node != self.manager_of(obj) => {
                // Routing-only pointer to the manager: epoch 0 so the
                // requester retries there without adopting it as the home.
                (self.manager_of(obj), 0)
            }
            _ => (self.home_hint(obj), self.home_epoch(obj)),
        }
    }

    /// Handle an object fault-in request arriving from `requester`.
    ///
    /// Returns [`ObjectRequestOutcome::Busy`] — without consuming the
    /// request — when the home copy is leased to a live application view;
    /// the server defers and retries.
    pub(crate) fn handle_object_request(
        &mut self,
        obj: ObjectId,
        requester: NodeId,
        for_write: bool,
        redirections: u32,
    ) -> ObjectRequestOutcome {
        if !self.is_home(obj) {
            self.stats.redirections_served += 1;
            let (hint, epoch) = self.redirect_hint(obj);
            return ObjectRequestOutcome::Redirect { hint, epoch };
        }
        let desc_size = self.registry.expect(obj).size_bytes as u64;
        let half_peak = self.config.half_peak_length();
        let policy = self.config.policy_for(obj);
        let notification = self.config.notification;
        let num_nodes = self.num_nodes;
        let node = self.node;
        let manager = self.manager_of(obj);
        let entry = self.homes.get_mut(&obj).expect("checked is_home above");

        // Copy the payload out under a try-lock: if the application holds a
        // write view right now, defer instead of blocking the server.
        let data = match entry.data.try_read() {
            Some(guard) => guard.bytes().to_vec(),
            None => {
                self.stats.busy_responses += 1;
                return ObjectRequestOutcome::Busy;
            }
        };
        self.stats.requests_served += 1;
        entry.migration.record_redirections(redirections);
        if redirections > 0 {
            policy.on_redirect(&mut entry.migration, redirections);
        }

        // The decision point: every remote request reaching the home is one
        // considered policy decision (telemetry), and the policy's reported
        // threshold at that instant feeds the threshold trajectory.
        let mut migrate = false;
        let mut carried_threshold = f64::INFINITY;
        if requester != node {
            let inputs = PolicyInputs {
                state: &entry.migration,
                requester,
                for_write,
                object_bytes: desc_size,
                half_peak_len: half_peak,
            };
            migrate = policy.decide(&inputs).is_migrate();
            carried_threshold = policy.current_threshold(&inputs);
            let migrate_back = migrate && entry.migration.prev_home == Some(requester);
            self.stats
                .policy
                .record_decision(migrate, migrate_back, carried_threshold);
        }
        let version = entry.version;
        if !migrate {
            return ObjectRequestOutcome::Reply {
                data,
                version,
                migration: None,
                notify: Vec::new(),
            };
        }

        // Perform the migration: the home entry becomes an ordinary cached
        // copy here, the migration bookkeeping ships to the new home, and a
        // forwarding pointer (stamped with the new epoch) is left behind.
        let mut shipped = entry.migration.migrated(carried_threshold, Some(node));
        policy.on_migrate(&mut shipped);
        let grant = MigrationGrant { state: shipped };
        let new_epoch = grant.epoch();
        let old = self.homes.remove(&obj).expect("home entry present");
        self.caches.insert(
            obj,
            CacheEntry {
                data: old.data,
                version: old.version,
                state: AccessState::ReadOnly,
                twin: None,
            },
        );
        self.home_written.remove(&obj);
        self.known_home.insert(
            obj,
            HomeBelief {
                node: requester,
                epoch: new_epoch,
            },
        );
        self.stats.migrations_out += 1;

        let notify = match notification {
            NotificationMechanism::ForwardingPointer => Vec::new(),
            NotificationMechanism::HomeManager => {
                if manager == node || manager == requester {
                    Vec::new()
                } else {
                    vec![manager]
                }
            }
            NotificationMechanism::Broadcast => (0..num_nodes)
                .map(NodeId::from)
                .filter(|n| *n != node && *n != requester)
                .collect(),
        };

        ObjectRequestOutcome::Reply {
            data,
            version,
            migration: Some(grant),
            notify,
        }
    }

    /// Handle a diff arriving from `from`.
    ///
    /// Returns [`DiffOutcome::Busy`] — without consuming the diff — when the
    /// home copy is leased to a live application view.
    pub(crate) fn handle_diff(
        &mut self,
        obj: ObjectId,
        diff: &Diff,
        from: NodeId,
        redirections: u32,
    ) -> DiffOutcome {
        if !self.is_home(obj) {
            self.stats.redirections_served += 1;
            let (hint, epoch) = self.redirect_hint(obj);
            return DiffOutcome::Redirect { hint, epoch };
        }
        let policy = self.config.policy_for(obj);
        let entry = self.homes.get_mut(&obj).expect("checked is_home above");
        let Some(mut guard) = entry.data.try_write() else {
            self.stats.busy_responses += 1;
            return DiffOutcome::Busy;
        };
        entry.migration.record_redirections(redirections);
        if redirections > 0 {
            policy.on_redirect(&mut entry.migration, redirections);
        }
        diff.apply(&mut guard);
        drop(guard);
        entry.version = entry.version.next();
        let wire_bytes = diff.wire_bytes() as u64;
        entry.migration.record_remote_write(from, wire_bytes);
        policy.on_remote_write(&mut entry.migration, from, wire_bytes);
        self.stats.diffs_applied += 1;
        DiffOutcome::Applied {
            new_version: entry.version,
        }
    }

    /// Handle a new-home notification (broadcast, home-manager or fence
    /// mechanisms): adopt the announced home if it is newer than the local
    /// belief.
    ///
    /// If this node *is* the home but the notification carries a strictly
    /// newer epoch, the cluster re-elected the home while this node was
    /// unreachable: the stale home copy is demoted to an invalid cached
    /// copy (fencing). Unflushed home writes of the demoted interval are
    /// lost — the crash semantics the fault model documents.
    pub(crate) fn handle_home_notify(&mut self, obj: ObjectId, new_home: NodeId, epoch: u32) {
        if new_home == self.node {
            return;
        }
        if self.is_home(obj) {
            if epoch > self.home_epoch(obj) {
                let old = self.homes.remove(&obj).expect("checked is_home above");
                self.home_written.remove(&obj);
                self.caches.insert(
                    obj,
                    CacheEntry {
                        data: old.data,
                        version: old.version,
                        state: AccessState::Invalid,
                        twin: None,
                    },
                );
                self.known_home.insert(
                    obj,
                    HomeBelief {
                        node: new_home,
                        epoch,
                    },
                );
                self.stats.homes_fenced += 1;
            }
            return;
        }
        if epoch > self.home_epoch(obj) || !self.known_home.contains_key(&obj) {
            self.known_home.insert(
                obj,
                HomeBelief {
                    node: new_home,
                    epoch,
                },
            );
        }
    }

    /// Promote this node's local copy of `obj` to the home copy at the
    /// (strictly newer, election-strided) `epoch` — the winner's side of a
    /// home re-election. Returns false when there is no local copy to
    /// promote. The promoted copy starts a fresh migration history; its
    /// payload may be stale by up to the orphaned interval, which is the
    /// documented recovery semantics when a home crashes with unflushed
    /// state.
    pub(crate) fn promote_to_home(&mut self, obj: ObjectId, epoch: u32) -> bool {
        if self.is_home(obj) {
            return true;
        }
        let Some(cache) = self.caches.remove(&obj) else {
            return false;
        };
        self.dirty.remove(&obj);
        let mut migration = MigrationState::new();
        migration.migrations = epoch;
        self.homes.insert(
            obj,
            HomeEntry {
                data: cache.data,
                version: cache.version,
                state: AccessState::Invalid,
                migration,
            },
        );
        self.known_home.insert(
            obj,
            HomeBelief {
                node: self.node,
                epoch,
            },
        );
        true
    }

    /// Whether this node holds *any* local copy of `obj` (home or cached,
    /// valid or not) — the election criterion for a promotable candidate.
    pub(crate) fn has_copy(&self, obj: ObjectId) -> bool {
        self.is_home(obj) || self.caches.contains_key(&obj)
    }

    // ------------------------------------------------------------------
    // Introspection for tests and invariant checks
    // ------------------------------------------------------------------

    /// Objects currently homed in this shard (unsorted).
    pub(crate) fn homed_objects(&self, out: &mut Vec<ObjectId>) {
        out.extend(self.homes.keys().copied());
    }

    /// The migration bookkeeping of an object homed here, if any.
    pub(crate) fn migration_state(&self, obj: ObjectId) -> Option<MigrationState> {
        self.homes.get(&obj).map(|e| e.migration.clone())
    }

    /// The current version of the home copy of `obj`, if homed here.
    pub(crate) fn home_version(&self, obj: ObjectId) -> Option<Version> {
        self.homes.get(&obj).map(|e| e.version)
    }

    /// Snapshot of a home copy's bytes (tests and invariant checks).
    pub(crate) fn home_bytes(&self, obj: ObjectId) -> Option<Vec<u8>> {
        self.homes.get(&obj).map(|e| e.data.read().bytes().to_vec())
    }
}

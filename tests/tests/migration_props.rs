//! Property-style invariant tests for concurrent home migration.
//!
//! These drive the protocol engines at the message level (no threads) with
//! randomized, seed-replayable op sequences, and — unlike the sequential
//! suites — deliberately model the *migration-grant window*: the interval
//! between the old home granting a migration and the new home installing
//! it, during which other nodes' requests race the in-flight grant. Every
//! interleaving decision comes from a `dsm-util` `SmallRng` stream, so a
//! failing case is shrunk by replaying its printed seed and case index.
//!
//! Invariants checked after every step:
//!
//! * **at-most-one home** per object at every instant, and **exactly one**
//!   whenever no grant is in flight for it;
//! * **home-epoch monotonicity**: no node's believed epoch for an object
//!   ever decreases, and each installed grant carries a strictly larger
//!   epoch than the previous one;
//! * **last write wins**: after every completed interval the (unique) home
//!   copy holds the last value committed to the object.

use dsm_core::{
    AccessPlan, DiffOutcome, MigrationGrant, ObjectRequestOutcome, ProtocolConfig, ProtocolEngine,
};
use dsm_objspace::{HomeAssignment, NodeId, ObjectId, ObjectRegistry};
use dsm_util::SmallRng;
use std::collections::HashMap;
use std::sync::Arc;

const NODES: usize = 4;
const OBJECTS: usize = 6;
const OBJ_BYTES: usize = 64;

fn registry() -> Arc<ObjectRegistry> {
    let mut r = ObjectRegistry::new();
    for i in 0..OBJECTS {
        r.register_named(
            "props.obj",
            i as u64,
            OBJ_BYTES,
            NodeId::MASTER,
            HomeAssignment::RoundRobin,
        );
    }
    Arc::new(r)
}

fn object(i: usize) -> ObjectId {
    ObjectId::derive("props.obj", i as u64)
}

fn engines(config: ProtocolConfig) -> Vec<ProtocolEngine> {
    let reg = registry();
    (0..NODES)
        .map(|i| ProtocolEngine::new(NodeId::from(i), NODES, config.clone(), Arc::clone(&reg)))
        .collect()
}

/// The cluster under test plus the invariant-tracking state.
struct Harness {
    engines: Vec<ProtocolEngine>,
    /// A migration grant that has left the old home but is not yet
    /// installed at its grantee: (grantee, payload, version, grant).
    in_flight: HashMap<ObjectId, (usize, Vec<u8>, dsm_objspace::Version, MigrationGrant)>,
    /// Highest epoch ever installed per object (strict growth check).
    last_installed_epoch: HashMap<ObjectId, u32>,
    /// Last value committed per object (last-write-wins check).
    committed: HashMap<ObjectId, u8>,
    /// Previous believed epoch per (node, object) (monotonicity check).
    believed: Vec<HashMap<ObjectId, u32>>,
    label: String,
}

impl Harness {
    fn new(config: ProtocolConfig, label: String) -> Self {
        Harness {
            engines: engines(config),
            in_flight: HashMap::new(),
            last_installed_epoch: HashMap::new(),
            committed: HashMap::new(),
            believed: (0..NODES).map(|_| HashMap::new()).collect(),
            label,
        }
    }

    /// Install a pending grant at its grantee (the racing "other thread"
    /// finishing its fault-in).
    fn install_in_flight(&mut self, obj: ObjectId) {
        if let Some((grantee, data, version, grant)) = self.in_flight.remove(&obj) {
            let epoch = grant.epoch();
            let previous = self.last_installed_epoch.get(&obj).copied().unwrap_or(0);
            assert!(
                epoch > previous,
                "{}: installed epoch {epoch} not above previous {previous} for {obj}",
                self.label
            );
            self.last_installed_epoch.insert(obj, epoch);
            self.engines[grantee].install_object(obj, data, version, Some(grant));
        }
    }

    /// Route one fault-in of `obj` by `node`, following redirects. When the
    /// chase lands on a node holding an in-flight grant, the grant installs
    /// first (real time passing for the racing requester). Returns whether
    /// a migration was granted to `node`.
    fn fault_in(&mut self, node: usize, obj: ObjectId, for_write: bool) -> bool {
        let mut target = self.engines[node].home_hint(obj);
        let mut hops = 0u32;
        loop {
            if target.index() == node {
                // Our own belief points at ourselves but we are not home:
                // only possible while our grant is still in flight.
                self.install_in_flight(obj);
                assert!(
                    self.engines[node].is_home(obj),
                    "{}: self-belief without home or in-flight grant for {obj}",
                    self.label
                );
                return false;
            }
            // A requester chasing a pointer onto a node whose grant is
            // still in flight: let the grantee finish installing, exactly
            // like the racing server thread would.
            if self
                .in_flight
                .get(&obj)
                .is_some_and(|(grantee, ..)| *grantee == target.index())
            {
                self.install_in_flight(obj);
            }
            let requester = NodeId::from(node);
            match self.engines[target.index()]
                .handle_object_request(obj, requester, for_write, hops)
            {
                ObjectRequestOutcome::Reply {
                    data,
                    version,
                    migration: Some(grant),
                    ..
                } => {
                    // Old home gave the home up; the grant is in flight
                    // until the harness decides to install it.
                    self.in_flight.insert(obj, (node, data, version, grant));
                    return true;
                }
                ObjectRequestOutcome::Reply {
                    data,
                    version,
                    migration: None,
                    ..
                } => {
                    self.engines[node].install_object(obj, data, version, None);
                    return false;
                }
                ObjectRequestOutcome::Redirect { hint, epoch } => {
                    self.engines[node].note_redirect(obj, hint, epoch);
                    hops += 1;
                    assert!(
                        hops <= (NODES as u32) * 2 + 4,
                        "{}: redirect chain for {obj} did not converge",
                        self.label
                    );
                    target = if hint.index() == node {
                        self.engines[node].home_hint(obj)
                    } else {
                        hint
                    };
                }
                other => panic!("{}: unexpected outcome {other:?}", self.label),
            }
        }
    }

    /// One full write interval of `node` on `obj`, with the grant window
    /// interleaving decided by `rng`.
    fn write_interval(&mut self, node: usize, obj: ObjectId, value: u8, rng: &mut SmallRng) {
        self.engines[node].begin_interval();
        if let AccessPlan::Fetch { .. } = self.engines[node].plan_write(obj) {
            let migrated = self.fault_in(node, obj, true);
            if migrated {
                // The racy window: with probability 1/2 let other nodes
                // poke the object *before* the grant installs.
                if rng.gen_index(2) == 0 {
                    let reader = rng.gen_index(NODES);
                    if reader != node {
                        self.engines[reader].begin_interval();
                        if let AccessPlan::Fetch { .. } = self.engines[reader].plan_read(obj) {
                            self.fault_in(reader, obj, false);
                        }
                        self.engines[reader].finish_release();
                    }
                }
                self.install_in_flight(obj);
            }
            assert_eq!(
                self.engines[node].plan_write(obj),
                AccessPlan::LocalHit,
                "{}: copy present after fault-in",
                self.label
            );
        }
        self.engines[node].with_object_mut(obj, |d| d.bytes_mut()[0] = value);
        let plans = self.engines[node].prepare_release();
        for plan in plans {
            let mut target = plan.target;
            let mut hops = 0u32;
            loop {
                if self
                    .in_flight
                    .get(&plan.obj)
                    .is_some_and(|(grantee, ..)| *grantee == target.index())
                {
                    self.install_in_flight(plan.obj);
                }
                let from = self.engines[node].node();
                match self.engines[target.index()].handle_diff(plan.obj, &plan.diff, from, hops) {
                    DiffOutcome::Applied { new_version } => {
                        self.engines[node].complete_flush(plan.obj, new_version);
                        break;
                    }
                    DiffOutcome::Redirect { hint, epoch } => {
                        self.engines[node].note_redirect(plan.obj, hint, epoch);
                        hops += 1;
                        assert!(
                            hops <= (NODES as u32) * 2 + 4,
                            "{}: diff redirect chain for {} did not converge",
                            self.label,
                            plan.obj
                        );
                        target = if hint.index() == node {
                            self.engines[node].home_hint(plan.obj)
                        } else {
                            hint
                        };
                    }
                    DiffOutcome::Busy => {
                        unreachable!("{}: no views live in message-level test", self.label)
                    }
                }
            }
        }
        self.engines[node].finish_release();
        self.committed.insert(obj, value);
    }

    /// Check every invariant over the whole cluster.
    fn check_invariants(&mut self) {
        for i in 0..OBJECTS {
            let obj = object(i);
            let homes = self.engines.iter().filter(|e| e.is_home(obj)).count();
            if self.in_flight.contains_key(&obj) {
                assert_eq!(
                    homes, 0,
                    "{}: {obj} has {homes} homes while its grant is in flight",
                    self.label
                );
            } else {
                assert_eq!(homes, 1, "{}: {obj} must have exactly one home", self.label);
                // Last write wins at the unique home.
                if let Some(&value) = self.committed.get(&obj) {
                    let bytes = self
                        .engines
                        .iter()
                        .find_map(|e| e.home_bytes(obj))
                        .expect("home exists");
                    assert_eq!(
                        bytes[0], value,
                        "{}: home copy of {obj} lost the last committed write",
                        self.label
                    );
                }
            }
            // Believed epochs never regress, on any node.
            for (n, engine) in self.engines.iter().enumerate() {
                let epoch = engine.home_epoch(obj);
                let previous = self.believed[n].get(&obj).copied().unwrap_or(0);
                assert!(
                    epoch >= previous,
                    "{}: node {n} epoch for {obj} regressed {previous} -> {epoch}",
                    self.label
                );
                self.believed[n].insert(obj, epoch);
            }
        }
    }
}

/// Run `cases` random schedules under `config`, checking the invariants
/// after every interval.
fn run_property(config_of: impl Fn(&mut SmallRng) -> ProtocolConfig, seed: u64, cases: usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for case in 0..cases {
        let config = config_of(&mut rng);
        let label = format!("seed {seed:#x} case {case} ({})", config.migration.label());
        let mut harness = Harness::new(config, label);
        let steps = 20 + rng.gen_index(40);
        for step in 0..steps {
            let node = rng.gen_index(NODES);
            let obj = object(rng.gen_index(OBJECTS));
            let value = (step % 250) as u8 + 1;
            harness.write_interval(node, obj, value, &mut rng);
            harness.check_invariants();
        }
        // Drain any grant still in flight and re-check the quiescent state.
        for i in 0..OBJECTS {
            harness.install_in_flight(object(i));
        }
        harness.in_flight.clear();
        harness.check_invariants();
    }
}

#[test]
fn prop_epoch_monotone_and_single_home_adaptive() {
    run_property(|_| ProtocolConfig::adaptive(), 0xAD_A917, 24);
}

#[test]
fn prop_epoch_monotone_and_single_home_across_policies() {
    run_property(
        |rng| match rng.gen_index(4) {
            0 => ProtocolConfig::no_migration(),
            1 => ProtocolConfig::fixed_threshold(1),
            2 => ProtocolConfig::fixed_threshold(2),
            _ => ProtocolConfig::adaptive(),
        },
        0x5EED_CAFE,
        24,
    );
}

/// The JUMP baseline migrates on every write fault — the densest possible
/// stream of migration grants and therefore the strongest exercise of the
/// grant-window invariants.
#[test]
fn prop_stress_grant_window_under_jump_migration() {
    run_property(
        |_| ProtocolConfig::no_migration().with_migration(dsm_core::MigrateOnRequestPolicy),
        0x1AB5_2024,
        16,
    );
}

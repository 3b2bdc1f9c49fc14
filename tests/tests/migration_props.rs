//! Property-style invariant tests for concurrent home migration.
//!
//! These drive the protocol engines at the message level (no threads) with
//! randomized, seed-replayable op sequences, through the same steps the
//! runtime runs (`dsm_core::step`: the fault-in and flush chases, `serve`
//! at every target), and — unlike the sequential suites — deliberately
//! model the *migration-grant window*: the interval between the old home
//! granting a migration and the new home installing it, during which other
//! nodes' requests race the in-flight grant. The harness models it by
//! leaving the `ObjectReply` that carries the grant undelivered on its
//! link of a [`World`], the thread-free driver of those steps. Every
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

use dsm_core::step::ClientOp;
use dsm_core::world::World;
use dsm_core::{AccessPlan, ProtocolConfig, ProtocolMsg};
use dsm_objspace::{HomeAssignment, NodeId, ObjectId, ObjectRegistry};
use dsm_util::{IdMap, SmallRng};
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

/// The cluster under test plus the invariant-tracking state.
struct Harness {
    world: World,
    /// A migration grant that has left the old home but is not yet
    /// installed at its grantee: the grantor, the grantee and its fault-in,
    /// which waits for the `ObjectReply` carrying the grant at the head of
    /// the grantor → grantee link.
    in_flight: IdMap<ObjectId, (usize, usize, ClientOp)>,
    /// Highest epoch ever installed per object (strict growth check).
    last_installed_epoch: IdMap<ObjectId, u32>,
    /// Last value committed per object (last-write-wins check).
    committed: IdMap<ObjectId, u8>,
    /// Previous believed epoch per (node, object) (monotonicity check).
    believed: Vec<IdMap<ObjectId, u32>>,
    label: String,
}

impl Harness {
    fn new(config: ProtocolConfig, label: String) -> Self {
        let mut world = World::new(NODES, config, registry());
        world.chase_limit = NODES as u32 * 2 + 4;
        Harness {
            world,
            in_flight: IdMap::default(),
            last_installed_epoch: IdMap::default(),
            committed: IdMap::default(),
            believed: (0..NODES).map(|_| IdMap::default()).collect(),
            label,
        }
    }

    /// Deliver a held grant to its grantee (the racing "other thread"
    /// finishing its fault-in): the reply completes, installing the home.
    fn install_in_flight(&mut self, obj: ObjectId) {
        let Some((grantor, grantee, mut fault_in)) = self.in_flight.remove(&obj) else {
            return;
        };
        let Some(ProtocolMsg::ObjectReply {
            migration: Some(migration),
            ..
        }) = self.world.peek(grantor, grantee)
        else {
            unreachable!("only grant replies are held");
        };
        let epoch = migration.epoch();
        let previous = self.last_installed_epoch.get(&obj).copied().unwrap_or(0);
        assert!(
            epoch > previous,
            "{}: installed epoch {epoch} not above previous {previous} for {obj}",
            self.label
        );
        self.last_installed_epoch.insert(obj, epoch);
        self.world.deliver(grantor, grantee);
        assert!(self.world.resume(grantee, &mut fault_in));
    }

    /// Run `op` for `node` to completion through the [`World`], one message
    /// at a time. When a request is bound for a node holding an in-flight
    /// grant for `obj`, the grant installs first (real time passing for the
    /// racing requester). A reply carrying a grant to `node` is held
    /// undelivered instead; returns whether that happened.
    fn drive(&mut self, node: usize, obj: ObjectId, mut op: ClientOp) -> bool {
        let mut target = self.world.send_next(node, &mut op);
        loop {
            if self
                .in_flight
                .get(&obj)
                .is_some_and(|held| held.1 == target)
            {
                self.install_in_flight(obj);
            }
            self.world.deliver(node, target);
            assert_eq!(
                self.world.serve[target].deferred(),
                0,
                "{}: no views live in message-level test",
                self.label
            );
            if let Some(ProtocolMsg::ObjectReply {
                migration: Some(_), ..
            }) = self.world.peek(target, node)
            {
                // Old home gave the home up; the grant is in flight until
                // the harness decides to deliver it.
                self.in_flight.insert(obj, (target, node, op));
                return true;
            }
            self.world.deliver(target, node);
            if self.world.resume(node, &mut op) {
                return false;
            }
            assert!(
                op.redirections() <= self.world.chase_limit,
                "{}: {op} did not converge",
                self.label
            );
            let (_, next, _) = self.world.log.last().expect("the next request");
            target = *next;
        }
    }

    /// Route one fault-in of `obj` by `node` through the production chase.
    /// Returns whether a migration was granted to `node`.
    fn fault_in(&mut self, node: usize, obj: ObjectId, for_write: bool) -> bool {
        let engine = &self.world[node];
        let target = engine.home_hint(obj);
        if target.index() == node {
            // Our own belief points at ourselves but we are not home: only
            // possible while our grant is still in flight.
            self.install_in_flight(obj);
            assert!(
                self.world[node].is_home(obj),
                "{}: self-belief without home or in-flight grant for {obj}",
                self.label
            );
            return false;
        }
        self.drive(node, obj, ClientOp::fault_in(obj, for_write, target))
    }

    /// One full write interval of `node` on `obj`, with the grant window
    /// interleaving decided by `rng`.
    fn write_interval(&mut self, node: usize, obj: ObjectId, value: u8, rng: &mut SmallRng) {
        let engine = &self.world[node];
        engine.begin_interval();
        if let AccessPlan::Fetch { .. } = engine.plan_write(obj) {
            let migrated = self.fault_in(node, obj, true);
            if migrated {
                // The racy window: with probability 1/2 let other nodes
                // poke the object *before* the grant installs.
                if rng.gen_index(2) == 0 {
                    let reader = rng.gen_index(NODES);
                    if reader != node {
                        let engine = &self.world[reader];
                        engine.begin_interval();
                        if let AccessPlan::Fetch { .. } = engine.plan_read(obj) {
                            self.fault_in(reader, obj, false);
                        }
                        self.world[reader].finish_release();
                    }
                }
                self.install_in_flight(obj);
            }
            assert_eq!(
                self.world[node].plan_write(obj),
                AccessPlan::LocalHit,
                "{}: copy present after fault-in",
                self.label
            );
        }
        let engine = &self.world[node];
        engine.with_object_mut(obj, |d| d.bytes_mut()[0] = value);
        self.world.release(node);
        self.committed.insert(obj, value);
    }

    /// Check every invariant over the whole cluster.
    fn check_invariants(&mut self) {
        for i in 0..OBJECTS {
            let obj = object(i);
            let homes = self.world.homes(obj).len();
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
                        .world
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
            for (n, engine) in self.world.engines.iter().enumerate() {
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

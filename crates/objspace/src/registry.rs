//! The object registry: the shared catalogue of every distributed-shared
//! object in the application.
//!
//! The paper's GOS "distinguishes distributed shared objects among all
//! objects at runtime" — only objects reachable from threads on different
//! nodes participate in the coherence protocol and carry migration metadata.
//! Our applications declare their shared objects up front through the typed
//! runtime API, which registers an [`ObjectDescriptor`] for each. Because
//! descriptors are derived deterministically from names and indices, every
//! node builds an identical registry without communication.

use crate::home::{HomeAssignment, ObjectDescriptor};
use crate::id::{NodeId, ObjectId};
use dsm_util::IdMap;

/// Catalogue of all shared objects known to a node.
#[derive(Debug, Default, Clone)]
pub struct ObjectRegistry {
    objects: IdMap<ObjectId, ObjectDescriptor>,
}

impl ObjectRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ObjectRegistry {
            objects: IdMap::default(),
        }
    }

    /// Register a shared object. Registering the same descriptor twice is
    /// idempotent (all nodes execute the same declaration code).
    ///
    /// # Panics
    /// Panics if a *different* descriptor is already registered under the
    /// same id — that would mean an id collision or inconsistent declaration
    /// across nodes, both of which are programming errors.
    pub(crate) fn register(&mut self, descriptor: ObjectDescriptor) {
        match self.objects.get(&descriptor.id) {
            None => {
                self.objects.insert(descriptor.id, descriptor);
            }
            Some(existing) => {
                assert_eq!(
                    existing, &descriptor,
                    "conflicting registration for {}",
                    descriptor.id
                );
            }
        }
    }

    /// Convenience: register a freshly described mutable object and return
    /// its id.
    #[allow(clippy::too_many_arguments)]
    pub fn register_named(
        &mut self,
        name: &str,
        index: u64,
        size_bytes: usize,
        creator: NodeId,
        assignment: HomeAssignment,
    ) -> ObjectId {
        let id = ObjectId::derive(name, index);
        self.register(ObjectDescriptor {
            id,
            size_bytes,
            creator,
            allocation_index: index,
            assignment,
            immutable: false,
        });
        id
    }

    /// Like [`Self::register_named`] but marks the object immutable after
    /// initialization (the GOS read-only object optimization).
    #[allow(clippy::too_many_arguments)]
    pub fn register_named_immutable(
        &mut self,
        name: &str,
        index: u64,
        size_bytes: usize,
        creator: NodeId,
        assignment: HomeAssignment,
    ) -> ObjectId {
        let id = ObjectId::derive(name, index);
        self.register(ObjectDescriptor {
            id,
            size_bytes,
            creator,
            allocation_index: index,
            assignment,
            immutable: true,
        });
        id
    }

    /// Look up a descriptor.
    pub fn get(&self, id: ObjectId) -> Option<&ObjectDescriptor> {
        self.objects.get(&id)
    }

    /// Look up a descriptor, panicking with a useful message if unknown.
    pub fn expect(&self, id: ObjectId) -> &ObjectDescriptor {
        self.objects
            .get(&id)
            .unwrap_or_else(|| panic!("object {id} is not registered"))
    }

    /// Number of registered objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Iterate over all descriptors (order unspecified).
    pub fn iter(&self) -> impl Iterator<Item = &ObjectDescriptor> {
        self.objects.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry_with(n: u64) -> ObjectRegistry {
        let mut r = ObjectRegistry::new();
        for i in 0..n {
            r.register_named("row", i, 128, NodeId::MASTER, HomeAssignment::RoundRobin);
        }
        r
    }

    #[test]
    fn register_and_lookup() {
        let r = registry_with(4);
        assert_eq!(r.len(), 4);
        assert!(!r.is_empty());
        let id = ObjectId::derive("row", 2);
        assert_eq!(r.expect(id).size_bytes, 128);
        assert!(r.get(ObjectId::derive("other", 0)).is_none());
    }

    #[test]
    fn duplicate_identical_registration_is_idempotent() {
        let mut r = registry_with(1);
        r.register_named("row", 0, 128, NodeId::MASTER, HomeAssignment::RoundRobin);
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "conflicting registration")]
    fn conflicting_registration_panics() {
        let mut r = registry_with(1);
        r.register_named("row", 0, 256, NodeId::MASTER, HomeAssignment::RoundRobin);
    }

    #[test]
    fn initially_homed_at_partitions_objects() {
        let r = registry_with(8);
        let num_nodes = 4;
        let mut total = 0;
        for n in 0..num_nodes {
            let homed = r
                .iter()
                .filter(|d| d.initial_home(num_nodes) == NodeId::from(n))
                .count();
            assert_eq!(homed, 2, "round robin should place 2 of 8 on each node");
            total += homed;
        }
        assert_eq!(total, 8);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn expect_unknown_panics() {
        let r = ObjectRegistry::new();
        let _ = r.expect(ObjectId::derive("missing", 0));
    }
}

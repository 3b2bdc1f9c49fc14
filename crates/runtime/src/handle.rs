//! Typed handles to shared objects.
//!
//! A handle is a cheap description of one or more coherence units: their
//! deterministic [`ObjectId`]s, element type and element counts. All nodes
//! construct identical handles from the same name — the analogue of every
//! JVM node resolving the same array object — so no handle exchange
//! protocol is needed.
//!
//! Three shapes cover the workloads:
//!
//! * [`ArrayHandle<T>`] — one coherence unit holding `len` elements of `T`;
//! * [`ScalarHandle<T>`] — a single-element unit (counters, bounds) with
//!   value-level `get`/`set`/`update` conveniences;
//! * [`Matrix2dHandle<T>`] — a `rows × cols` matrix stored as one row
//!   object per row (a Java array of row arrays), the unit granularity the
//!   paper's ASP and SOR rely on for per-row home migration.
//!
//! A handle constructed by [`ArrayHandle::lookup`] is *unchecked* until its
//! first access: the runtime validates it against the registry and surfaces
//! [`DsmError::SizeMismatch`]/[`DsmError::UnknownObject`] instead of
//! decoding elements at the wrong granularity.
//!
//! [`DsmError::SizeMismatch`]: dsm_objspace::DsmError::SizeMismatch
//! [`DsmError::UnknownObject`]: dsm_objspace::DsmError::UnknownObject

use crate::ctx::NodeCtx;
use dsm_objspace::{
    DsmError, DsmResult, Element, HomeAssignment, NodeId, ObjectId, ObjectRegistry,
};
use std::marker::PhantomData;

/// A typed handle to a shared array object (a coherence unit whose payload
/// is `len` elements of `T`).
#[derive(Debug)]
pub struct ArrayHandle<T> {
    /// The object's identity.
    pub id: ObjectId,
    /// Number of `T` elements in the object.
    pub len: usize,
    _marker: PhantomData<fn() -> T>,
}

// Manual impls so handles are Copy/Clone regardless of T.
impl<T> Clone for ArrayHandle<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for ArrayHandle<T> {}

impl<T: Element> ArrayHandle<T> {
    /// Construct a handle without registering it (the object must already be
    /// registered under the same name/index/length by every node). The
    /// handle is validated against the registry at first access.
    pub fn lookup(name: &str, index: u64, len: usize) -> Self {
        ArrayHandle {
            id: ObjectId::derive(name, index),
            len,
            _marker: PhantomData,
        }
    }

    /// Register the object in `registry` and return its handle.
    pub fn register(
        registry: &mut ObjectRegistry,
        name: &str,
        index: u64,
        len: usize,
        creator: NodeId,
        assignment: HomeAssignment,
    ) -> Self {
        let id = registry.register_named(name, index, len * T::SIZE, creator, assignment);
        ArrayHandle {
            id,
            len,
            _marker: PhantomData,
        }
    }

    /// Register an immutable object (never invalidated once cached; the GOS
    /// read-only optimization) and return its handle.
    pub fn register_immutable(
        registry: &mut ObjectRegistry,
        name: &str,
        index: u64,
        len: usize,
        creator: NodeId,
        assignment: HomeAssignment,
    ) -> Self {
        let id = registry.register_named_immutable(name, index, len * T::SIZE, creator, assignment);
        ArrayHandle {
            id,
            len,
            _marker: PhantomData,
        }
    }

    /// Check this handle against a registry: the object must be registered
    /// and its payload size must equal `len * T::SIZE`.
    pub(crate) fn validate(&self, registry: &ObjectRegistry) -> DsmResult<()> {
        let desc = registry
            .get(self.id)
            .ok_or(DsmError::UnknownObject { obj: self.id })?;
        let handle_bytes = self.len * T::SIZE;
        if desc.size_bytes != handle_bytes {
            return Err(DsmError::SizeMismatch {
                obj: self.id,
                registered_bytes: desc.size_bytes,
                handle_bytes,
            });
        }
        Ok(())
    }
}

/// A typed handle to a single-element shared object — a counter, a global
/// bound, a flag. Wraps a one-element [`ArrayHandle`] with value-level
/// accessors.
#[derive(Debug)]
pub struct ScalarHandle<T> {
    inner: ArrayHandle<T>,
}

impl<T> Clone for ScalarHandle<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for ScalarHandle<T> {}

impl<T: Element> ScalarHandle<T> {
    /// Register the scalar in `registry` and return its handle.
    pub fn register(
        registry: &mut ObjectRegistry,
        name: &str,
        creator: NodeId,
        assignment: HomeAssignment,
    ) -> Self {
        ScalarHandle {
            inner: ArrayHandle::register(registry, name, 0, 1, creator, assignment),
        }
    }

    /// The underlying one-element array handle.
    pub fn array(&self) -> &ArrayHandle<T> {
        &self.inner
    }

    /// Read the value (fallible form).
    pub(crate) fn try_get(&self, ctx: &NodeCtx) -> DsmResult<T> {
        Ok(ctx.try_view(&self.inner)?[0])
    }

    /// Read the value.
    pub fn get(&self, ctx: &NodeCtx) -> T {
        self.try_get(ctx)
            .unwrap_or_else(|e| panic!("scalar get failed: {e}"))
    }

    /// Read-modify-write the value in one write view; returns the new value.
    pub fn update(&self, ctx: &NodeCtx, f: impl FnOnce(T) -> T) -> T {
        let mut view = ctx.view_mut(&self.inner);
        let next = f(view[0]);
        view[0] = next;
        next
    }
}

/// A typed handle to a `rows × cols` matrix stored as one coherence unit
/// per row. Subsumes the old free-standing `register_rows` helper: row
/// handles are materialized once and shared by value.
#[derive(Debug, Clone)]
pub struct Matrix2dHandle<T> {
    rows: Vec<ArrayHandle<T>>,
}

impl<T: Element> Matrix2dHandle<T> {
    /// Register `rows` row objects of `cols` elements each and return the
    /// matrix handle.
    pub fn register(
        registry: &mut ObjectRegistry,
        name: &str,
        rows: usize,
        cols: usize,
        creator: NodeId,
        assignment: HomeAssignment,
    ) -> Self {
        Matrix2dHandle {
            rows: (0..rows)
                .map(|r| {
                    ArrayHandle::<T>::register(registry, name, r as u64, cols, creator, assignment)
                })
                .collect(),
        }
    }

    /// Register an immutable matrix (rows never invalidated once cached).
    pub fn register_immutable(
        registry: &mut ObjectRegistry,
        name: &str,
        rows: usize,
        cols: usize,
        creator: NodeId,
        assignment: HomeAssignment,
    ) -> Self {
        Matrix2dHandle {
            rows: (0..rows)
                .map(|r| {
                    ArrayHandle::<T>::register_immutable(
                        registry, name, r as u64, cols, creator, assignment,
                    )
                })
                .collect(),
        }
    }

    /// The handle of row `r`.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    pub fn row(&self, r: usize) -> &ArrayHandle<T> {
        &self.rows[r]
    }

    /// Iterate over the row handles in order.
    pub fn iter(&self) -> impl Iterator<Item = &ArrayHandle<T>> {
        self.rows.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup_agree_on_ids() {
        let mut reg = ObjectRegistry::new();
        let h = ArrayHandle::<f64>::register(
            &mut reg,
            "m",
            3,
            16,
            NodeId::MASTER,
            HomeAssignment::RoundRobin,
        );
        let l = ArrayHandle::<f64>::lookup("m", 3, 16);
        assert_eq!(h.id, l.id);
        assert_eq!(h.len, 16);
        assert_eq!(reg.expect(h.id).size_bytes, 128);
        assert!(!reg.expect(h.id).is_immutable());
        assert!(l.validate(&reg).is_ok());
    }

    #[test]
    fn lookup_with_wrong_length_fails_validation() {
        let mut reg = ObjectRegistry::new();
        let _ = ArrayHandle::<f64>::register(
            &mut reg,
            "m",
            0,
            16,
            NodeId::MASTER,
            HomeAssignment::Master,
        );
        let wrong = ArrayHandle::<f64>::lookup("m", 0, 8);
        assert!(matches!(
            wrong.validate(&reg),
            Err(DsmError::SizeMismatch {
                registered_bytes: 128,
                handle_bytes: 64,
                ..
            })
        ));
        // The same payload reinterpreted at a compatible granularity is
        // fine: 16 f64 == 32 u32 wouldn't be, but 16 u64 is.
        let reinterpreted = ArrayHandle::<u64>::lookup("m", 0, 16);
        assert!(reinterpreted.validate(&reg).is_ok());
        let unknown = ArrayHandle::<f64>::lookup("missing", 0, 16);
        assert!(matches!(
            unknown.validate(&reg),
            Err(DsmError::UnknownObject { .. })
        ));
    }

    #[test]
    fn immutable_registration_sets_flag() {
        let mut reg = ObjectRegistry::new();
        let h = ArrayHandle::<u32>::register_immutable(
            &mut reg,
            "dist",
            0,
            144,
            NodeId::MASTER,
            HomeAssignment::Master,
        );
        assert!(reg.expect(h.id).is_immutable());
        assert_eq!(reg.expect(h.id).size_bytes, 576);
    }

    #[test]
    fn matrix_creates_one_object_per_row() {
        let mut reg = ObjectRegistry::new();
        let m = Matrix2dHandle::<f64>::register(
            &mut reg,
            "sor",
            8,
            32,
            NodeId::MASTER,
            HomeAssignment::RoundRobin,
        );
        assert_eq!(m.iter().count(), 8);
        assert!(m.iter().all(|row| row.len == 32));
        assert_eq!(reg.len(), 8);
        // Round-robin homes spread across a 4-node cluster.
        let homes: Vec<NodeId> = m.iter().map(|h| reg.expect(h.id).initial_home(4)).collect();
        assert_eq!(homes[0], NodeId(0));
        assert_eq!(homes[1], NodeId(1));
        assert_eq!(homes[5], NodeId(1));
        // Lookup resolves the same ids.
        assert_eq!(ArrayHandle::<f64>::lookup("sor", 3, 32).id, m.row(3).id);
    }

    #[test]
    fn scalar_wraps_one_element_object() {
        let mut reg = ObjectRegistry::new();
        let s = ScalarHandle::<u64>::register(
            &mut reg,
            "bound",
            NodeId::MASTER,
            HomeAssignment::Master,
        );
        assert_eq!(reg.expect(s.array().id).size_bytes, 8);
        assert_eq!(ArrayHandle::<u64>::lookup("bound", 0, 1).id, s.array().id);
        assert_eq!(s.array().len, 1);
    }

    #[test]
    fn handles_are_copy() {
        let h = ArrayHandle::<f64>::lookup("x", 0, 4);
        let h2 = h;
        assert_eq!(h.id, h2.id);
        let s = ScalarHandle::<u32> {
            inner: ArrayHandle::lookup("y", 0, 1),
        };
        let s2 = s;
        assert_eq!(s.array().id, s2.array().id);
    }
}

//! # adaptive-dsm
//!
//! A home-based software Distributed Shared Memory (DSM) with an **adaptive
//! home migration protocol**, reproducing *"A Novel Adaptive Home Migration
//! Protocol in Home-based DSM"* (Fang, Wang, Zhu, Lau — IEEE CLUSTER 2004).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`model`] — virtual time, the Hockney communication model, the home
//!   access coefficient (Appendix A of the paper);
//! * [`objspace`] — shared objects, twins, diffs, access states, home
//!   assignment, and the [`prelude::DsmError`] taxonomy;
//! * [`net`] — the cluster fabrics (threaded loopback, deterministic
//!   seeded simulation with fault injection, and real TCP sockets) and
//!   message statistics;
//! * [`protocol`] — the home-based LRC coherence engine and the pluggable
//!   home-migration policy API: the [`prelude::HomeMigrationPolicy`] trait
//!   with built-in impls for the paper's policies
//!   ([`prelude::NoMigrationPolicy`], [`prelude::FixedThresholdPolicy`],
//!   [`prelude::AdaptiveThresholdPolicy`], JUMP-style
//!   [`prelude::MigrateOnRequestPolicy`], Jackal-style
//!   [`prelude::LazyFlushingPolicy`]) plus the beyond-the-paper
//!   [`prelude::HysteresisPolicy`] and [`prelude::EwmaWriteRatioPolicy`],
//!   per-object policy overrides, and decision telemetry
//!   ([`prelude::PolicyTelemetry`]);
//! * [`runtime`] — the threaded cluster runtime and the typed GOS API:
//!   the seeded [`prelude::ClusterBuilder`], the handle family
//!   ([`prelude::ArrayHandle`], [`prelude::ScalarHandle`],
//!   [`prelude::Matrix2dHandle`]) and the zero-copy
//!   [`prelude::ReadView`]/[`prelude::WriteView`] guards;
//! * [`apps`] — the paper's workloads (ASP, SOR, Barnes–Hut Nbody, TSP and
//!   the synthetic single-writer benchmark) plus the Zipfian KV serving
//!   workload behind the regression gate's policy sweep.
//!
//! ## Quick start
//!
//! Construction goes through the chainable, seeded cluster builder; object
//! access goes through zero-copy views that borrow the engine's storage in
//! place (`&[T]` / `&mut [T]`), so accesses at an object's home node never
//! copy the payload:
//!
//! ```no_run
//! use adaptive_dsm::prelude::*;
//!
//! // Declare the cluster and its shared objects in one chain. Every node
//! // derives the same object ids, so no handle exchange is needed.
//! let mut builder = Cluster::builder()
//!     .nodes(8)
//!     .migration(AdaptiveThresholdPolicy::paper())
//!     .seed(2004)
//!     .default_home(HomeAssignment::Master);
//! let counter = builder.register_array::<u64>("counter", 1);
//!
//! // Run the same closure on every node, exactly like a Java thread
//! // dispatched to each node of the paper's distributed JVM.
//! let report = builder.build().run(move |ctx| {
//!     let lock = LockId::derive("counter.lock");
//!     for _ in 0..100 {
//!         ctx.acquire(lock);
//!         // A scoped write view: `&mut [u64]` borrowed straight from the
//!         // engine's object storage; the twin/diff bookkeeping commits
//!         // when the view drops.
//!         ctx.view_mut(&counter)[0] += 1;
//!         ctx.release(lock);
//!     }
//!     // Misuse is recoverable through the fallible surface:
//!     let bogus: ArrayHandle<u64> = ArrayHandle::lookup("unregistered", 0, 4);
//!     assert!(matches!(ctx.try_view(&bogus), Err(DsmError::UnknownObject { .. })));
//! });
//! println!("virtual time: {}, messages: {}, migrations: {}",
//!          report.execution_time, report.total_messages(), report.migrations());
//! ```
//!
//! After the home of `counter` migrates to its single writer, every further
//! `view_mut` in that loop is a purely local operation on the home copy —
//! the paper's "accesses at the home never communicate", realized with no
//! decode/encode round-trip.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dsm_apps as apps;
pub use dsm_core as protocol;
pub use dsm_model as model;
pub use dsm_net as net;
pub use dsm_objspace as objspace;
pub use dsm_runtime as runtime;

/// The most commonly used types, re-exported in one place.
pub mod prelude {
    pub use dsm_core::{
        AdaptiveThresholdPolicy, Decision, EwmaWriteRatioPolicy, FixedThresholdPolicy,
        HomeMigrationPolicy, HysteresisPolicy, IntoMigrationPolicy, LazyFlushingPolicy,
        MigrateOnRequestPolicy, NoMigrationPolicy, NotificationMechanism, PolicyInputs,
        PolicyOverrides, PolicyTelemetry, ProtocolConfig,
    };
    pub use dsm_model::{ComputeModel, HockneyModel, NetworkParams, SimDuration, SimTime};
    pub use dsm_net::MsgCategory;
    pub use dsm_objspace::{
        BarrierId, DsmError, DsmResult, HomeAssignment, LockId, NodeId, ObjectId, ObjectRegistry,
    };
    pub use dsm_runtime::{
        ArrayHandle, Cluster, ClusterBuilder, ClusterConfig, ExecutionReport, Matrix2dHandle,
        NodeCtx, ReadView, ScalarHandle, WriteView,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let mut builder = Cluster::builder()
            .nodes(2)
            .protocol(ProtocolConfig::adaptive())
            .compute(ComputeModel::free())
            .seed(7)
            .default_home(HomeAssignment::Master);
        let handle = builder.register_array::<u64>("facade.test", 4);
        let report = builder.build().run(move |ctx| {
            assert_eq!(ctx.seed(), 7);
            if ctx.is_master() {
                ctx.view_mut(&handle)[0] = 7;
            }
            ctx.barrier(BarrierId(1));
            assert_eq!(ctx.view(&handle)[0], 7);
        });
        assert_eq!(report.num_nodes, 2);
    }

    #[test]
    fn facade_surfaces_typed_errors() {
        let mut builder = Cluster::builder().nodes(1).compute(ComputeModel::free());
        let _known = builder.register_array::<u64>("known", 2);
        builder.build().run(|ctx| {
            let bogus: ArrayHandle<u64> = ArrayHandle::lookup("unknown", 0, 2);
            assert!(matches!(
                ctx.try_view(&bogus),
                Err(DsmError::UnknownObject { .. })
            ));
            let wrong: ArrayHandle<u64> = ArrayHandle::lookup("known", 0, 3);
            assert!(matches!(
                ctx.try_view(&wrong),
                Err(DsmError::SizeMismatch { .. })
            ));
        });
    }
}

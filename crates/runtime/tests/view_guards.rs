//! Guard-semantics tests for the zero-copy view API: diff bookkeeping on
//! drop, conflict detection, and the fallible surface's typed errors.

use dsm_core::ProtocolConfig;
use dsm_model::ComputeModel;
use dsm_net::MsgCategory;
use dsm_objspace::{BarrierId, DsmError, HomeAssignment, LockId, NodeId};
use dsm_runtime::{ArrayHandle, Cluster, ClusterBuilder};

fn config(nodes: usize) -> ClusterBuilder {
    Cluster::builder()
        .nodes(nodes)
        .protocol(ProtocolConfig::no_migration())
        .compute(ComputeModel::free())
}

/// Dropping one `WriteView` produces exactly one diff at the next release,
/// no matter how many elements it touched; a view whose writes are no-ops
/// produces none.
#[test]
fn write_view_drop_produces_exactly_one_diff_per_release() {
    let mut cluster = config(2);
    let data: ArrayHandle<u64> = ArrayHandle::register(
        cluster.registry(),
        "guards.data",
        0,
        32,
        NodeId::MASTER,
        HomeAssignment::Master,
    );
    let lock = LockId::derive("guards.lock");
    let intervals = 5u64;

    let report = cluster.build().run(move |ctx| {
        if ctx.node_id() == NodeId(1) {
            for i in 0..intervals {
                ctx.acquire(lock);
                {
                    // Many writes through one view...
                    let mut view = ctx.view_mut(&data);
                    for (k, slot) in view.iter_mut().enumerate() {
                        *slot = i * 100 + k as u64 + 1;
                    }
                }
                // ...and a second, no-op write view in the same interval:
                // its diff against the twin is empty combined with the
                // first view's writes — the twin is per-interval, so the
                // interval still flushes exactly one diff.
                {
                    let mut view = ctx.view_mut(&data);
                    let first = view[0];
                    view[0] = first.wrapping_add(0);
                }
                ctx.release(lock);
            }
        }
        ctx.barrier(BarrierId(1));
    });
    // Exactly one diff per writing interval reached the home.
    assert_eq!(report.messages(MsgCategory::Diff), intervals);
    assert_eq!(report.protocol.diffs_applied, intervals);
    // And each interval created exactly one twin.
    assert_eq!(report.protocol.twins_created, intervals);
}

/// An unchanged write view produces no diff at all at the release.
#[test]
fn untouched_write_view_flushes_nothing() {
    let mut cluster = config(2);
    let data: ArrayHandle<u64> = ArrayHandle::register(
        cluster.registry(),
        "guards.noop",
        0,
        8,
        NodeId::MASTER,
        HomeAssignment::Master,
    );
    let lock = LockId::derive("guards.noop.lock");
    let report = cluster.build().run(move |ctx| {
        if ctx.node_id() == NodeId(1) {
            ctx.acquire(lock);
            let view = ctx.view_mut(&data);
            drop(view);
            ctx.release(lock);
        }
        ctx.barrier(BarrierId(1));
    });
    assert_eq!(report.messages(MsgCategory::Diff), 0);
}

/// Overlapping views of one object in one critical section follow
/// reader/writer rules: many reads are fine, a write view conflicts with
/// any live view of the same object.
#[test]
fn overlapping_view_mut_is_rejected_with_view_conflict() {
    let mut cluster = config(1);
    let data: ArrayHandle<u64> = ArrayHandle::register(
        cluster.registry(),
        "guards.conflict",
        0,
        4,
        NodeId::MASTER,
        HomeAssignment::Master,
    );
    let other: ArrayHandle<u64> = ArrayHandle::register(
        cluster.registry(),
        "guards.other",
        0,
        4,
        NodeId::MASTER,
        HomeAssignment::Master,
    );
    cluster.build().run(move |ctx| {
        // Shared views coexist.
        let r1 = ctx.view(&data);
        let r2 = ctx.view(&data);
        assert_eq!(r1[0], r2[0]);
        // A write view overlapping a live read view is a typed error.
        assert!(matches!(
            ctx.try_view_mut(&data),
            Err(DsmError::ViewConflict { .. })
        ));
        drop(r1);
        drop(r2);
        // Now the write view succeeds; a second one conflicts, a read view
        // of the same object conflicts, but another object is independent.
        let w = ctx.view_mut(&data);
        assert!(matches!(
            ctx.try_view_mut(&data),
            Err(DsmError::ViewConflict { .. })
        ));
        assert!(matches!(
            ctx.try_view(&data),
            Err(DsmError::ViewConflict { .. })
        ));
        let other_view = ctx.view(&other);
        assert_eq!(other_view[0], 0);
        drop(other_view);
        drop(w);
        // After dropping, everything is available again.
        assert!(ctx.try_view_mut(&data).is_ok());
    });
}

/// `try_view` on an id that was never registered returns
/// `DsmError::UnknownObject` instead of panicking; a handle whose length
/// disagrees with the registry returns `DsmError::SizeMismatch` at first
/// access (the `ArrayHandle::lookup` validation bugfix).
#[test]
fn unknown_objects_and_size_mismatches_are_typed_errors() {
    let mut cluster = config(1);
    let _known: ArrayHandle<u64> = ArrayHandle::register(
        cluster.registry(),
        "guards.known",
        0,
        16,
        NodeId::MASTER,
        HomeAssignment::Master,
    );
    cluster.build().run(|ctx| {
        let unknown: ArrayHandle<u64> = ArrayHandle::lookup("guards.never", 0, 16);
        assert_eq!(
            ctx.try_view(&unknown).err(),
            Some(DsmError::UnknownObject { obj: unknown.id })
        );
        // Length lies are caught before any element is decoded.
        let wrong: ArrayHandle<u64> = ArrayHandle::lookup("guards.known", 0, 8);
        assert_eq!(
            ctx.try_view(&wrong).err(),
            Some(DsmError::SizeMismatch {
                obj: wrong.id,
                registered_bytes: 128,
                handle_bytes: 64,
            })
        );
        assert!(ctx.try_view_mut(&wrong).is_err());
        // A compatible reinterpretation (same byte size) is allowed.
        let reinterpreted: ArrayHandle<u32> = ArrayHandle::lookup("guards.known", 0, 32);
        assert!(ctx.try_view(&reinterpreted).is_ok());
    });
}

/// Synchronization with live views is refused with a typed error; after
/// dropping the views it succeeds.
#[test]
fn synchronization_with_live_views_is_refused() {
    let mut cluster = config(1);
    let data: ArrayHandle<u64> = ArrayHandle::register(
        cluster.registry(),
        "guards.sync",
        0,
        4,
        NodeId::MASTER,
        HomeAssignment::Master,
    );
    cluster.build().run(move |ctx| {
        let lock = LockId::derive("guards.sync.lock");
        let view = ctx.view(&data);
        assert_eq!(
            ctx.try_acquire(lock).err(),
            Some(DsmError::ViewsOutstanding { count: 1 })
        );
        assert!(ctx.try_barrier(BarrierId(2)).is_err());
        drop(view);
        assert!(ctx.try_acquire(lock).is_ok());
        let w = ctx.view_mut(&data);
        assert_eq!(
            ctx.try_release(lock).err(),
            Some(DsmError::ViewsOutstanding { count: 1 })
        );
        drop(w);
        assert!(ctx.try_release(lock).is_ok());
        assert_eq!(ctx.live_views(), 0);
    });
}

/// Views at the home node operate on the home copy in place: a write seen
/// through a read view without any release in between, and zero coherence
/// messages on a single node.
#[test]
fn home_views_are_in_place_and_message_free() {
    let mut cluster = config(1);
    let data: ArrayHandle<f64> = ArrayHandle::register(
        cluster.registry(),
        "guards.home",
        0,
        1024,
        NodeId::MASTER,
        HomeAssignment::Master,
    );
    let report = cluster.build().run(move |ctx| {
        {
            let mut w = ctx.view_mut(&data);
            for (i, slot) in w.iter_mut().enumerate() {
                *slot = i as f64;
            }
        }
        let r = ctx.view(&data);
        assert_eq!(r[1023], 1023.0);
    });
    assert_eq!(
        report.breakdown_messages(),
        0,
        "home accesses never communicate"
    );
}

/// A remote fault-in while a write view is live is refused with a typed
/// error (blocking there could deadlock two nodes through mutual server
/// deferral); after dropping the write view the same access succeeds.
#[test]
fn remote_fetch_with_live_write_view_is_refused() {
    let mut cluster = config(2);
    // `local` is homed per creation node; `remote` always on the master.
    let local: ArrayHandle<u64> = ArrayHandle::register(
        cluster.registry(),
        "guards.local",
        0,
        4,
        NodeId(1),
        HomeAssignment::CreationNode,
    );
    let remote: ArrayHandle<u64> = ArrayHandle::register(
        cluster.registry(),
        "guards.remote",
        0,
        4,
        NodeId::MASTER,
        HomeAssignment::Master,
    );
    cluster.build().run(move |ctx| {
        if ctx.node_id() == NodeId(1) {
            // `local` is homed here: the write view takes no fetch.
            let w = ctx.view_mut(&local);
            // `remote` would need a fault-in from the master: refused.
            assert!(matches!(
                ctx.try_view(&remote),
                Err(DsmError::FetchWithLiveWrites { writers: 1, .. })
            ));
            assert!(matches!(
                ctx.try_view_mut(&remote),
                Err(DsmError::FetchWithLiveWrites { .. })
            ));
            drop(w);
            // Without the write lease the fetch goes through, and further
            // views of the now-resident object are fine even under a write
            // view of another object.
            assert!(ctx.try_view(&remote).is_ok());
            let w = ctx.view_mut(&local);
            assert!(
                ctx.try_view(&remote).is_ok(),
                "resident objects need no fetch"
            );
            drop(w);
        }
        ctx.barrier(BarrierId(3));
    });
}

/// Bootstrapping an object that has a live view is refused instead of
/// wedging on the payload lease.
#[test]
fn bootstrap_with_live_view_is_refused() {
    let mut cluster = config(1);
    let data: ArrayHandle<u64> = ArrayHandle::register(
        cluster.registry(),
        "guards.boot",
        0,
        4,
        NodeId::MASTER,
        HomeAssignment::Master,
    );
    cluster.build().run(move |ctx| {
        let view = ctx.view(&data);
        assert!(matches!(
            ctx.try_bootstrap(&data, &[1, 2, 3, 4]),
            Err(DsmError::ViewConflict { .. })
        ));
        drop(view);
        assert!(ctx.try_bootstrap(&data, &[1, 2, 3, 4]).is_ok());
        assert_eq!(ctx.view(&data)[3], 4);
    });
}

/// Bootstrapping with a slice of the wrong length is a typed error, not a
/// panic that takes the node thread down: the node goes on to a barrier.
#[test]
fn bootstrap_with_wrong_length_is_a_size_mismatch() {
    let mut cluster = config(2);
    let data: ArrayHandle<u64> = ArrayHandle::register(
        cluster.registry(),
        "guards.boot.len",
        0,
        4,
        NodeId::MASTER,
        HomeAssignment::Master,
    );
    cluster.build().run(move |ctx| {
        assert_eq!(
            ctx.try_bootstrap(&data, &[1, 2, 3]).err(),
            Some(DsmError::SizeMismatch {
                obj: data.id,
                registered_bytes: 32,
                handle_bytes: 24,
            })
        );
        ctx.barrier(BarrierId(4));
        assert!(ctx.try_bootstrap(&data, &[1, 2, 3, 4]).is_ok());
    });
}

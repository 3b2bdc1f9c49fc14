//! Cross-node contention tests for the server-side `Busy`/deferral path and
//! the `DsmError` taxonomy.
//!
//! The guard-semantics suite (`view_guards.rs` in `dsm-runtime`) checks the
//! typed errors in quiet, mostly single-node settings; here the same rules
//! are exercised under *real* cross-node contention on the threaded
//! runtime: a home copy leased to a live write view while remote requests
//! and diffs arrive (server deferral, observable through the new
//! `busy_responses` counter), and the `ViewsOutstanding` /
//! `FetchWithLiveWrites` refusals that keep the deferral scheme
//! deadlock-free when both sides hold leases at once.

use dsm_core::ProtocolConfig;
use dsm_integration_tests::test_cluster;
use dsm_objspace::{BarrierId, DsmError, HomeAssignment, LockId, NodeId};
use dsm_runtime::ArrayHandle;
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// A remote fault-in arriving while the home copy is leased to a write view
/// is deferred (`Busy`), not blocked on, and completes once the view drops.
/// The requester observes the value written *under* the lease — nothing is
/// served from a half-written copy.
#[test]
fn stress_busy_request_defers_until_write_view_drops() {
    let mut cluster = test_cluster(2, ProtocolConfig::no_migration());
    let data: ArrayHandle<u64> = ArrayHandle::register(
        cluster.registry(),
        "busy.req",
        0,
        8,
        NodeId::MASTER,
        HomeAssignment::Master,
    );
    // Real-time rendezvous between the two application threads: the ctx
    // barrier would refuse to run with a live view (by design), which is
    // exactly what this test needs to step around.
    let rendezvous = Arc::new(Barrier::new(2));

    let report = cluster.build().run(move |ctx| {
        if ctx.node_id() == NodeId::MASTER {
            // Home side: take the write lease, then let node 1 fire its
            // fault-in straight into the lease window.
            let mut view = ctx.view_mut(&data);
            view[0] = 41;
            rendezvous.wait();
            // Keep the lease long enough that the request (sent right
            // after the rendezvous) arrives while it is still held and
            // must be deferred at least once.
            std::thread::sleep(Duration::from_millis(25));
            view[0] = 42;
            drop(view);
        } else {
            rendezvous.wait();
            // Fault-in while the home lease is held: the home's server
            // defers the request; this call simply blocks until the view
            // drops — no deadlock, no torn read.
            let seen = ctx.view(&data)[0];
            assert_eq!(seen, 42, "the deferred request must see the final value");
        }
        ctx.barrier(BarrierId(1));
    });
    assert!(
        report.protocol.busy_responses >= 1,
        "the fault-in must have found the home copy busy at least once \
         (busy_responses = {})",
        report.protocol.busy_responses
    );
    assert_eq!(report.protocol.requests_served, 1);
}

/// A diff flush arriving while the home copy is leased is likewise deferred
/// and applied afterwards — the writer's release blocks (on the network,
/// with no leases of its own) but the cluster keeps making progress.
#[test]
fn stress_busy_diff_defers_until_write_view_drops() {
    let mut cluster = test_cluster(2, ProtocolConfig::no_migration());
    let data: ArrayHandle<u64> = ArrayHandle::register(
        cluster.registry(),
        "busy.diff",
        0,
        8,
        NodeId::MASTER,
        HomeAssignment::Master,
    );
    let lock = LockId::derive("busy.diff.lock");
    // Two-phase rendezvous: (A) node 1 has faulted the object in and holds
    // a dirty copy, master has not leased yet; (B) master's write lease is
    // live, node 1 may now flush into it.
    let dirty = Arc::new(Barrier::new(2));
    let leased = Arc::new(Barrier::new(2));

    let report = cluster.build().run(move |ctx| {
        if ctx.node_id() == NodeId(1) {
            // Produce a dirty cached copy inside a critical section while
            // the home copy is unleased (the fault-in must not defer).
            ctx.acquire(lock);
            ctx.view_mut(&data)[1] = 7;
            dirty.wait();
            leased.wait();
            // The release flushes the diff straight into the master's
            // lease window; the master's server defers it (Busy) and
            // applies it once the view drops. This blocks only on the
            // network — node 1 holds no leases of its own here.
            ctx.release(lock);
            ctx.barrier(BarrierId(2));
        } else {
            dirty.wait();
            // Lease the home copy across the window in which node 1's
            // diff arrives.
            let mut view = ctx.view_mut(&data);
            view[0] = 1;
            leased.wait();
            std::thread::sleep(Duration::from_millis(25));
            drop(view);
            ctx.barrier(BarrierId(2));
            // Synchronize and observe both writes merged: the home write
            // went into the payload in place, the deferred diff on top.
            ctx.acquire(lock);
            {
                let view = ctx.view(&data);
                assert_eq!(view[0], 1, "home write survived the diff");
                assert_eq!(view[1], 7, "deferred diff was applied");
            }
            ctx.release(lock);
        }
    });
    assert!(
        report.protocol.busy_responses >= 1,
        "the diff must have found the home copy busy at least once \
         (busy_responses = {})",
        report.protocol.busy_responses
    );
    assert_eq!(report.protocol.diffs_applied, 1);
}

/// Under cross-node contention the synchronization quiescence rule holds on
/// every node: whoever holds views cannot acquire/release/barrier, with the
/// live-view count reported in the error, while the other node's protocol
/// traffic proceeds.
#[test]
fn stress_views_outstanding_is_reported_under_contention() {
    let mut cluster = test_cluster(2, ProtocolConfig::adaptive());
    let mine: ArrayHandle<u64> = ArrayHandle::register(
        cluster.registry(),
        "quiesce.mine",
        0,
        4,
        NodeId::MASTER,
        HomeAssignment::RoundRobin,
    );
    let yours: ArrayHandle<u64> = ArrayHandle::register(
        cluster.registry(),
        "quiesce.yours",
        1,
        4,
        NodeId::MASTER,
        HomeAssignment::RoundRobin,
    );
    let lock = LockId::derive("quiesce.lock");

    cluster.build().run(move |ctx| {
        // Both nodes hold two read views (their own object is homed
        // round-robin, the other one faults in) and try to synchronize.
        let local = if ctx.is_master() { &mine } else { &yours };
        let remote = if ctx.is_master() { &yours } else { &mine };
        let a = ctx.view(local);
        let b = ctx.view(remote);
        assert_eq!(
            ctx.try_acquire(lock).err(),
            Some(DsmError::ViewsOutstanding { count: 2 }),
            "acquire with live views must fail with the exact count"
        );
        assert_eq!(
            ctx.try_barrier(BarrierId(3)).err(),
            Some(DsmError::ViewsOutstanding { count: 2 })
        );
        drop(a);
        drop(b);
        // Quiescent again: the distributed synchronization works for both
        // contending nodes.
        ctx.synchronized(lock, || {
            ctx.view_mut(local)[0] += 1;
        });
        ctx.barrier(BarrierId(3));
    });
}

/// The anti-deadlock fetch rule under mutual contention: while a node holds
/// a *write* lease, any access needing a remote fault-in is refused with
/// `FetchWithLiveWrites` — even as the peer node does exactly the same —
/// and both sides make progress once the leases drop. Read leases do not
/// trigger the rule.
#[test]
fn stress_fetch_with_live_writes_is_refused_symmetrically() {
    let mut cluster = test_cluster(2, ProtocolConfig::no_migration());
    // One object homed on each node (round-robin over two nodes).
    let on_master: ArrayHandle<u64> = ArrayHandle::register(
        cluster.registry(),
        "fetch.m",
        0,
        4,
        NodeId::MASTER,
        HomeAssignment::RoundRobin,
    );
    let on_worker: ArrayHandle<u64> = ArrayHandle::register(
        cluster.registry(),
        "fetch.w",
        1,
        4,
        NodeId::MASTER,
        HomeAssignment::RoundRobin,
    );
    let rendezvous = Arc::new(Barrier::new(2));

    cluster.build().run(move |ctx| {
        let (local, remote) = if ctx.is_master() {
            (&on_master, &on_worker)
        } else {
            (&on_worker, &on_master)
        };
        // Symmetric write leases on both nodes at the same instant.
        let w = ctx.view_mut(local);
        rendezvous.wait();
        // A remote fetch now would park both nodes behind each other's
        // deferral queues forever; the context refuses it instead.
        match ctx.try_view(remote) {
            Err(DsmError::FetchWithLiveWrites { writers, .. }) => assert_eq!(writers, 1),
            other => panic!("expected FetchWithLiveWrites, got {other:?}"),
        }
        assert!(matches!(
            ctx.try_view_mut(remote),
            Err(DsmError::FetchWithLiveWrites { .. })
        ));
        drop(w);
        // With only a *read* lease the same fetch is allowed (serving a
        // fault-in needs a shared payload lock, so the peer's server can
        // still reply while we block).
        let r = ctx.view(local);
        let fetched = ctx.view(remote);
        assert_eq!(fetched[0], 0);
        drop(fetched);
        drop(r);
        ctx.barrier(BarrierId(4));
    });
}

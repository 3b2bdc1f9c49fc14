//! End-to-end tests of release-time flush batching.
//!
//! The acceptance claims of the batching work, checked on real workloads
//! (message counts and modeled time on the sim fabric, under each of
//! [`SimConfig::modeled_sims`]):
//!
//! * **Semantics** — final object contents are byte-identical with batching
//!   on and off (batching is purely a wire optimization);
//! * **Messages** — a seeded multi-object workload sends strictly fewer
//!   diff-propagation messages (`Diff` + `DiffBatch`) when batching is on;
//! * **Modeled time** — each saved message saves one Hockney start-up time
//!   `t0` plus its handling cost, so the modeled execution time drops;
//! * **Accounting** — the network statistics count one `DiffBatch` message
//!   per batch (matching the engine's `batched_flushes` counter), with the
//!   per-entry diffs' wire bytes summed, never one message per entry.

use dsm_core::{ProtocolConfig, DIFF_BATCH_ENTRY_HEADER_BYTES};
use dsm_integration_tests::{sim_test_cluster, test_cluster};
use dsm_net::{MsgCategory, MESSAGE_HEADER_BYTES};
use dsm_objspace::{BarrierId, HomeAssignment, LockId, NodeId};
use dsm_runtime::{ArrayHandle, ClusterBuilder, ExecutionReport, SimConfig};

use dsm_apps::sor::{self, SorParams};

/// SOR without home migration on four nodes: every node's band of rows is
/// homed round-robin across the cluster, so each phase release flushes
/// several same-home diffs — the batching sweet spot.
fn sor_run(config: ClusterBuilder) -> (f64, ExecutionReport) {
    let run = sor::run(config, &SorParams::small(48, 4));
    (sor::checksum(&run.result), run.report)
}

#[test]
fn sor_batched_matches_unbatched_with_fewer_messages_and_lower_time() {
    for sim in SimConfig::modeled_sims() {
        let seed = sim.seed;
        let config = |batched| {
            sim_test_cluster(4, ProtocolConfig::no_migration(), sim).flush_batching(batched)
        };
        let (batched_sum, batched) = sor_run(config(true));
        let (unbatched_sum, unbatched) = sor_run(config(false));

        // Byte-identical application results: the checksum is a
        // deterministic function of every matrix cell.
        assert_eq!(
            batched_sum, unbatched_sum,
            "seed {seed:#x}: batching changed the computed matrix"
        );

        // Strictly fewer diff-propagation messages...
        let batched_diffs = batched.network.diff_propagation_messages();
        let unbatched_diffs = unbatched.network.diff_propagation_messages();
        assert!(
            batched_diffs < unbatched_diffs,
            "seed {seed:#x}: batched SOR must send fewer diff messages \
             ({batched_diffs} vs {unbatched_diffs})"
        );
        // ... and the same writes still arrive: per-entry flushes are
        // conserved.
        assert_eq!(batched.protocol.diffs_sent, unbatched.protocol.diffs_sent);
        assert_eq!(
            batched.protocol.diffs_applied,
            unbatched.protocol.diffs_applied
        );

        // Each eliminated message saves at least one start-up time, so the
        // modeled execution time drops.
        assert!(
            batched.execution_time < unbatched.execution_time,
            "seed {seed:#x}: batched SOR must be faster under the Hockney model ({} vs {})",
            batched.execution_time,
            unbatched.execution_time
        );
    }
}

#[test]
fn batch_accounting_is_single_message_per_batch() {
    let (_, batched) = sor_run(test_cluster(4, ProtocolConfig::no_migration()));

    // The fabric recorded exactly one DiffBatch-category message per batch
    // the engines sent — k entries never inflate the message count.
    let batch_msgs = batched.network.category(MsgCategory::DiffBatch);
    assert!(batched.protocol.batched_flushes > 0, "SOR must batch");
    assert_eq!(batch_msgs.count, batched.protocol.batched_flushes);
    // Every batch is answered by exactly one ack.
    assert_eq!(
        batched.network.category(MsgCategory::DiffBatchAck).count,
        batched.protocol.batched_flushes
    );

    // Batched entries plus unbatched singletons account for every diff sent.
    let singleton_diffs = batched.network.category(MsgCategory::Diff).count;
    assert_eq!(
        batched.protocol.batch_entries + singleton_diffs,
        batched.protocol.diffs_sent,
        "every flushed diff is either a batch entry or a singleton DiffFlush"
    );

    // Byte accounting: batch wire bytes are the summed entry diffs plus one
    // fixed header per *message* and one small header per entry. The engine
    // tracks the summed diff payloads of everything it flushed, so the two
    // views must reconcile exactly.
    let diff_wire = batched.network.category(MsgCategory::Diff).bytes;
    let batch_wire = batch_msgs.bytes;
    let expected = batched.protocol.diff_bytes_sent
        + batched.protocol.batch_entries * DIFF_BATCH_ENTRY_HEADER_BYTES
        + (batched.protocol.batched_flushes + singleton_diffs) * MESSAGE_HEADER_BYTES;
    assert_eq!(
        diff_wire + batch_wire,
        expected,
        "diff payload bytes must be counted once, under exactly one message each"
    );
}

#[test]
fn single_object_intervals_never_batch() {
    // An interval that dirties one object falls back to the classic
    // DiffFlush path even with batching enabled — the wire behaviour for
    // the paper's single-counter workloads is unchanged.
    use dsm_apps::synthetic::{self, SyntheticParams};
    let params = SyntheticParams {
        repetition: 2,
        total_updates: 2 * 3 * 6,
        compute_ops: 0,
    };
    for sim in SimConfig::modeled_sims() {
        let config = sim_test_cluster(4, ProtocolConfig::no_migration(), sim);
        let report = synthetic::run(config, &params).report;
        assert_eq!(report.protocol.batched_flushes, 0, "seed {:#x}", sim.seed);
        assert_eq!(report.network.category(MsgCategory::DiffBatch).count, 0);
        assert!(report.protocol.diffs_sent > 0);
    }
}

/// A `DiffBatch` raced by a migration grant on a perturbed link: node 1
/// batches two same-home diffs to node 0 while node 2's repeated writes
/// migrate one entry's home (adaptive policy) mid-flight. Node 1's release
/// is given a virtual-time head start to lose the race, so the old home
/// answers that entry with a **per-entry redirect inside the
/// `DiffBatchAck`** and the flusher re-plans it individually — and whatever
/// a seed does to the schedule, no write may be lost and no flush ack
/// dropped.
///
/// Ack-carried redirects are counted precisely: every wire
/// `ObjectRedirect`/`DiffRedirect` message produces exactly one
/// `note_redirect` at its receiver, so `redirections_suffered` exceeding
/// the `Redirect`-category message count is evidence of redirects that
/// travelled inside a batch ack.
#[test]
fn diff_batch_replans_redirected_entries_under_sim_reordering() {
    let mut ack_carried_redirects = 0u64;
    let seeds = dsm_util::seed_corpus();
    for &seed in &seeds {
        let mut cluster = sim_test_cluster(4, ProtocolConfig::adaptive(), SimConfig::stormy(seed));
        let stays: ArrayHandle<u64> = ArrayHandle::register(
            cluster.registry(),
            "batch.sim.stays",
            0,
            4,
            NodeId::MASTER,
            HomeAssignment::Master,
        );
        let moves: ArrayHandle<u64> = ArrayHandle::register(
            cluster.registry(),
            "batch.sim.moves",
            0,
            4,
            NodeId::MASTER,
            HomeAssignment::Master,
        );
        let flusher_lock = LockId::derive("batch.sim.flusher");
        let thief_lock = LockId::derive("batch.sim.thief");
        let done = BarrierId(0xBA7);
        // Adaptive: node 2's first interval flushes a remote write (C = 1),
        // its second write fault migrates `moves` home to node 2. Node 1's
        // single interval never triggers a migration of its own.
        let report = cluster.build().run(move |ctx| {
            match ctx.node_id().index() {
                1 => {
                    // One interval dirtying both objects: the release groups
                    // them into one DiffBatch aimed at node 0 (node 1's
                    // belief is stale once node 2 has stolen `moves`).
                    ctx.acquire(flusher_lock);
                    ctx.view_mut(&stays)[1] = 11;
                    ctx.view_mut(&moves)[1] = 22;
                    // Hold the interval open (in virtual time) long enough
                    // that the thief's migration always wins the race to
                    // node 0, whatever the perturbations do: the margin
                    // dwarfs any jitter/hold/burst delay of the thief's
                    // handful of round trips.
                    ctx.charge(dsm_model::SimDuration::from_millis(100.0));
                    ctx.release(flusher_lock);
                }
                2 => {
                    // Start after the flusher's fault-ins are (virtually)
                    // done, so its home beliefs are already stale when the
                    // migration happens.
                    ctx.charge(dsm_model::SimDuration::from_millis(20.0));
                    for value in [33, 34] {
                        ctx.synchronized(thief_lock, || {
                            ctx.view_mut(&moves)[2] = value;
                        });
                    }
                }
                _ => {}
            }
            ctx.barrier(done);
            // Every node observes both writers' slots — neither the applied
            // nor the re-planned entry may be lost.
            let stays_view = ctx.read(&stays);
            let moves_view = ctx.read(&moves);
            assert_eq!(stays_view[1], 11, "seed {seed:#x}: stays entry lost");
            assert_eq!(moves_view[1], 22, "seed {seed:#x}: moves entry lost");
            assert_eq!(moves_view[2], 34, "seed {seed:#x}: thief write lost");
            ctx.barrier(done);
        });

        // The flusher's interval must have batched, every batch acked, and
        // every flushed diff applied (finish_release would have panicked on
        // a lost ack; this checks the wire view agrees).
        assert!(
            report.protocol.batched_flushes >= 1,
            "seed {seed:#x}: the two-object interval must ship one DiffBatch"
        );
        assert_eq!(
            report.network.category(MsgCategory::DiffBatch).count,
            report.network.category(MsgCategory::DiffBatchAck).count,
            "seed {seed:#x}: every batch is acked exactly once"
        );
        assert_eq!(
            report.protocol.diffs_sent, report.protocol.diffs_applied,
            "seed {seed:#x}: every flushed diff must be applied exactly once"
        );
        let wire_redirects = report.network.category(MsgCategory::Redirect).count;
        assert!(
            report.protocol.redirections_suffered >= wire_redirects,
            "seed {seed:#x}: every wire redirect is noted exactly once"
        );
        let ack_carried = report.protocol.redirections_suffered - wire_redirects;
        assert!(
            ack_carried > 0,
            "seed {seed:#x}: the batch must lose the race and see an ack-carried \
             per-entry redirect (virtual timings force this for every seed)"
        );
        ack_carried_redirects += ack_carried;
    }
    assert!(
        ack_carried_redirects >= seeds.len() as u64,
        "every seed of {seeds:?} must exercise the ack-carried batch-entry redirect re-plan"
    );
}

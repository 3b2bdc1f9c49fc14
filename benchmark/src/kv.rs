//! The three KV serving workloads: one generated op trace driven through a
//! 4-node in-process cluster under a (policy, fabric) pair.
//!
//! Closed loop, 4 clients: the clients are the cluster's 4 node application
//! threads, and each issues its next op only when the previous one has
//! returned.

use crate::kvtrace::{self, KvTrace, NODES, OBJECTS, OPS_PER_INTERVAL, SLOTS};
use crate::proc::ProcSample;
use crate::record::Recorder;
use crate::rep::{self, MasterReport, RepResult, Shared};
use crate::spans::{Kind, ROOT};
use dsm_core::ProtocolConfig;
use dsm_model::ComputeModel;
use dsm_objspace::{BarrierId, HomeAssignment, LockId};
use dsm_runtime::{Cluster, FabricMode, Matrix2dHandle, NodeCtx, TcpConfig};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

const START: BarrierId = BarrierId(900);
const PHASE_END: BarrierId = BarrierId(901);
const DONE: BarrierId = BarrierId(902);

/// Which of the KV workloads to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvKind {
    /// Adaptive-threshold migration over in-process channels.
    ShiftThreaded,
    /// The same policy over loopback TCP.
    ShiftTcp,
    /// No migration (the paper's baseline) over in-process channels.
    FixedHomeThreaded,
}

fn node_body(
    ctx: &NodeCtx,
    store: &Matrix2dHandle<u64>,
    trace: &KvTrace,
    base: Instant,
    traced: bool,
    shared: &Shared,
) {
    let me = ctx.node_id().index();
    let my_ops = &trace.ops[me];
    let total: usize = my_ops.iter().map(Vec::len).sum();
    let mut rec = Recorder::new(base, me, total, total / OPS_PER_INTERVAL, traced);
    let lock = LockId::derive(&format!("bench.kv.interval.{me}"));
    let mut read_hash = 0u64;

    // Set-up ends with one warm-up interval: the first acquire, view and
    // release of a node run their lazy initialization outside the timed
    // region. It only reads, so the final store is untouched.
    ctx.acquire(lock);
    read_hash = kvtrace::fnv(read_hash, ctx.view(store.row(me))[0]);
    ctx.release(lock);
    let proc_start = ctx.is_master().then(ProcSample::now);
    ctx.barrier(START);
    let setup_end = rec.now();

    let mut mark = setup_end;
    for ops in my_ops {
        let phase_start = mark;
        let phase = rec.open(Kind::Phase, ROOT, mark);
        for batch in ops.chunks(OPS_PER_INTERVAL) {
            let interval = rec.open(Kind::Interval, phase, mark);
            ctx.acquire(lock);
            let mut carry = rec.acquired(interval, &mut mark);
            for op in batch {
                let row = store.row(op.obj as usize);
                let slot = op.slot as usize;
                match op.write {
                    Some(value) => ctx.view_mut(row)[slot] = value,
                    None => read_hash = kvtrace::fnv(read_hash, ctx.view(row)[slot]),
                }
                rec.op_done(ctx, op.write.is_some(), interval, &mut mark, carry);
                carry = 0;
            }
            ctx.release(lock);
            rec.released(interval, &mut mark);
        }
        rec.served(phase_start, mark);
        // A barrier ends every segment of the trace (a phase's handoff, then
        // its serving part): it orders this phase's diffs before the next
        // phase's writers, which makes last-write-wins well defined, and it
        // keeps readers off an object until its new writer has taken it over.
        ctx.barrier(PHASE_END);
        rec.barrier_done(ctx, phase, false, &mut mark);
    }
    // Reads race with remote writers, so their values are timing-dependent
    // and stay out of the fingerprint; folding them keeps the read path live.
    black_box(read_hash);

    if let Some(proc_start) = proc_start {
        let proc_end = ProcSample::now();
        let rows: Vec<Vec<u64>> = (0..OBJECTS)
            .map(|o| ctx.view(store.row(o)).to_vec())
            .collect();
        let fingerprint = kvtrace::fingerprint(rows.iter().map(Vec::as_slice));
        *shared.master.lock().expect("no node panicked") = Some(MasterReport {
            fingerprint,
            setup_end_ns: setup_end,
            proc_start,
            proc_end,
        });
    }
    ctx.barrier(DONE);
    shared.recorders.lock().expect("no node panicked").push(rec);
}

/// Run one rep: generate the trace from `seed`, drive it through the
/// cluster, and return the final-store fingerprint with the rep's metric
/// values. `base` is the rep's process start, which `setup_s` counts from.
pub fn run_rep(
    kind: KvKind,
    seed: u64,
    ops_per_node: usize,
    base: Instant,
    span_file: Option<&Path>,
) -> RepResult {
    let trace = KvTrace::generate(seed, ops_per_node);
    let (protocol, fabric) = match kind {
        KvKind::ShiftThreaded => (ProtocolConfig::adaptive(), FabricMode::Threaded),
        KvKind::ShiftTcp => (
            ProtocolConfig::adaptive(),
            FabricMode::Tcp(TcpConfig::default()),
        ),
        KvKind::FixedHomeThreaded => (ProtocolConfig::no_migration(), FabricMode::Threaded),
    };
    let mut builder = Cluster::builder()
        .nodes(NODES)
        .protocol(protocol)
        .compute(ComputeModel::free())
        .seed(seed)
        .default_home(HomeAssignment::RoundRobin)
        .fabric(fabric);
    let store = builder.register_matrix::<u64>("bench.kv.store", OBJECTS, SLOTS);
    let shared = Shared::default();
    let traced = span_file.is_some();
    let report = builder
        .build()
        .run(|ctx| node_body(ctx, &store, &trace, base, traced, &shared));
    let rep_end_ns = base.elapsed().as_nanos() as u64;
    rep::collect(shared, &report, trace.total_ops(), rep_end_ns, span_file)
}

/// Ops per node of a full-size and of a reduced (`--quick`) rep. All three
/// KV workloads run the same count, hence the same trace, hence must end
/// with the same store. The count is set by the slowest of them: a
/// loopback-TCP rep serves for about two seconds on the reference box,
/// which lets a run of `run_seconds` hold enough reps for a steady median.
pub fn ops_per_node(reduced: bool) -> usize {
    if reduced {
        12_000
    } else {
        96_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Policy and fabric are performance, never semantics: all three
    /// workloads end with the store the sequential oracle computes.
    #[test]
    fn every_kind_matches_the_oracle() {
        let ops = kvtrace::PHASES * OPS_PER_INTERVAL * 6;
        let oracle = KvTrace::generate(77, ops).oracle_fingerprint();
        for kind in [
            KvKind::ShiftThreaded,
            KvKind::ShiftTcp,
            KvKind::FixedHomeThreaded,
        ] {
            let rep = run_rep(kind, 77, ops, Instant::now(), None);
            assert_eq!(rep.fingerprint, oracle, "{kind:?}");
            assert_eq!(rep.ops, (ops * NODES) as u64);
        }
    }
}

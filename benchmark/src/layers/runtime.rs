//! `dsm_runtime`: the floor of the remote path — node 1 acquires and
//! releases a lock managed by node 0, which is one request/grant round trip
//! through context, fabric, executor and engine plus a one-way release — on
//! the threaded fabric and on loopback TCP.

use super::Rows;
use dsm_core::ProtocolConfig;
use dsm_model::ComputeModel;
use dsm_objspace::{BarrierId, LockId};
use dsm_runtime::{Cluster, FabricMode, TcpConfig};
use std::sync::Mutex;
use std::time::Instant;

/// Acquire/release pairs timed one by one, per fabric.
const PAIRS: usize = 4_000;

fn null_rpc(fabric: FabricMode) -> Vec<f64> {
    let pair_ns = Mutex::new(Vec::with_capacity(PAIRS));
    Cluster::builder()
        .nodes(2)
        .protocol(ProtocolConfig::no_migration())
        .compute(ComputeModel::free())
        .fabric(fabric)
        .build()
        .run(|ctx| {
            if ctx.node_id().index() == 1 {
                let lock = LockId::derive("bench.null_rpc");
                let mut samples = Vec::with_capacity(PAIRS);
                for i in 0..PAIRS + PAIRS / 10 {
                    let start = Instant::now();
                    ctx.acquire(lock);
                    ctx.release(lock);
                    if i >= PAIRS / 10 {
                        samples.push(start.elapsed().as_nanos() as f64);
                    }
                }
                *pair_ns.lock().expect("node 0 never locks this") = samples;
            }
            ctx.barrier(BarrierId(920));
        });
    pair_ns.into_inner().expect("no node panicked")
}

pub fn run(rows: &mut Rows) {
    rows.samples(
        "runtime.null_rpc_us_threaded",
        &null_rpc(FabricMode::Threaded),
        1e3,
    );
    rows.samples(
        "runtime.null_rpc_us_tcp",
        &null_rpc(FabricMode::Tcp(TcpConfig::default())),
        1e3,
    );
}

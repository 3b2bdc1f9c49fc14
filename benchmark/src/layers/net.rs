//! `dsm_net`: the in-process fabric's send/receive, and the TCP fabric's
//! round trip, mesh bring-up, teardown, socket overhead and thread count on
//! 127.0.0.1. Loopback TCP numbers are this sandbox's, not a network's.

use super::wire::{reply, request};
use super::Rows;
use crate::proc::ProcSample;
use dsm_core::ProtocolMsg;
use dsm_model::{NetworkParams, SimTime};
use dsm_net::{Fabric, StatsCollector, TcpConfig, TcpEndpoint, TcpFabric};
use dsm_objspace::NodeId;
use dsm_wire::ProtocolCodec;
use std::hint::black_box;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// TCP round trips timed one by one, per payload size.
const ROUND_TRIPS: usize = 10_000;
/// Mesh bring-ups and teardowns timed (tens of milliseconds each).
const MESHES: usize = 9;
const MESH_NODES: usize = 4;

type Endpoint = TcpEndpoint<ProtocolMsg>;

fn tcp_mesh(nodes: usize) -> Vec<Endpoint> {
    TcpFabric::bind_local::<ProtocolCodec>(
        nodes,
        NetworkParams::fast_ethernet(),
        StatsCollector::new(),
        TcpConfig::default(),
    )
    .expect("bind 127.0.0.1")
    .into_endpoints()
}

/// The leave handshake the runtime performs, then the joins.
fn teardown(endpoints: &[&Endpoint]) {
    for ep in endpoints {
        ep.announce_leave();
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while !endpoints.iter().all(|ep| ep.all_peers_left()) && Instant::now() < deadline {
        thread::sleep(Duration::from_micros(200));
    }
    for ep in endpoints {
        ep.finish();
    }
}

fn send(ep: &Endpoint, dst: NodeId, msg: ProtocolMsg) {
    ep.send(dst, msg.category(), msg.payload_bytes(), SimTime::ZERO, msg);
}

/// Node 1 answers every request from node 0: a write request is echoed (a
/// minimal round trip), a read request gets a 16 KB object reply (a SOR
/// fault-in). `Shutdown` ends it.
fn echo(ep: &Endpoint) {
    let big = reply(16 * 1024);
    while let Some(envelope) = ep.recv() {
        match envelope.payload {
            ProtocolMsg::Shutdown => return,
            ProtocolMsg::ObjectRequest {
                for_write: false, ..
            } => send(ep, envelope.src, big.clone()),
            other => send(ep, envelope.src, other),
        }
    }
}

fn round_trips(ep: &Endpoint, ask: &ProtocolMsg) -> Vec<f64> {
    let mut rtt_ns = Vec::with_capacity(ROUND_TRIPS);
    for i in 0..ROUND_TRIPS + ROUND_TRIPS / 10 {
        let start = Instant::now();
        send(ep, NodeId(1), ask.clone());
        black_box(ep.recv());
        if i >= ROUND_TRIPS / 10 {
            rtt_ns.push(start.elapsed().as_nanos() as f64);
        }
    }
    rtt_ns
}

pub fn run(rows: &mut Rows) {
    let endpoints =
        Fabric::<ProtocolMsg>::new(2, NetworkParams::fast_ethernet(), StatsCollector::new())
            .into_endpoints();
    let msg = request();
    rows.batched_ns("net.fabric_send_recv_ns", || {
        let msg = msg.clone();
        endpoints[0].send(
            NodeId(1),
            msg.category(),
            msg.payload_bytes(),
            SimTime::ZERO,
            msg,
        );
        black_box(endpoints[1].try_recv());
    });
    drop(endpoints);

    let pair: Vec<Arc<Endpoint>> = tcp_mesh(2).into_iter().map(Arc::new).collect();
    let server = {
        let ep = Arc::clone(&pair[1]);
        thread::spawn(move || echo(&ep))
    };
    let before = (pair[0].wire_counters(), pair[1].wire_counters());
    let window = Instant::now();
    let small = round_trips(&pair[0], &request());
    let after = (pair[0].wire_counters(), pair[1].wire_counters());
    let read_request = match request() {
        ProtocolMsg::ObjectRequest {
            req,
            obj,
            requester,
            redirections,
            ..
        } => ProtocolMsg::ObjectRequest {
            req,
            obj,
            requester,
            for_write: false,
            redirections,
        },
        other => other,
    };
    let large = round_trips(&pair[0], &read_request);
    let heartbeats = pair[0].wire_counters().heartbeats_sent - before.0.heartbeats_sent;
    let window_s = window.elapsed().as_secs_f64();
    send(&pair[0], NodeId(1), ProtocolMsg::Shutdown);
    server.join().expect("echo thread exits on Shutdown");
    teardown(&[&pair[0], &pair[1]]);
    rows.samples("net.tcp_rtt_us_small", &small, 1e3);
    rows.samples("net.tcp_rtt_us_16k", &large, 1e3);
    let trips = (ROUND_TRIPS + ROUND_TRIPS / 10) as f64;
    let frames = |a: &dsm_net::WireCounters, b: &dsm_net::WireCounters| {
        (a.payload_frames_sent + a.control_frames_sent + a.heartbeats_sent)
            - (b.payload_frames_sent + b.control_frames_sent + b.heartbeats_sent)
    };
    rows.put(
        "net.tcp_socket_bytes_per_modeled_byte",
        (after.0.socket_bytes_sent - before.0.socket_bytes_sent) as f64
            / (after.0.modeled_bytes_sent - before.0.modeled_bytes_sent) as f64,
        ROUND_TRIPS,
    );
    rows.put(
        "net.tcp_frames_per_op",
        (frames(&after.0, &before.0) + frames(&after.1, &before.1)) as f64 / trips,
        ROUND_TRIPS,
    );
    rows.put(
        "net.tcp_heartbeats_per_s",
        heartbeats as f64 / window_s,
        2 * ROUND_TRIPS,
    );

    let mut connect_ns = Vec::with_capacity(MESHES);
    let mut teardown_ns = Vec::with_capacity(MESHES);
    let mut threads = 0;
    for _ in 0..MESHES {
        let idle_threads = ProcSample::now().threads;
        let start = Instant::now();
        let mesh = tcp_mesh(MESH_NODES);
        connect_ns.push(start.elapsed().as_nanos() as f64);
        threads = threads.max(ProcSample::now().threads.saturating_sub(idle_threads));
        let start = Instant::now();
        teardown(&mesh.iter().collect::<Vec<_>>());
        drop(mesh);
        teardown_ns.push(start.elapsed().as_nanos() as f64);
    }
    rows.samples("net.tcp_connect_ms", &connect_ns, 1e6);
    rows.samples("net.tcp_teardown_ms", &teardown_ns, 1e6);
    rows.put("net.tcp_threads", threads as f64, MESHES);
}

//! Multi-process TCP cluster launcher.
//!
//! Three modes:
//!
//! * **Default (no flags):** in-process conformance — runs the SOR and
//!   synthetic matrix workloads plus this binary's own lock/array workload
//!   on the TCP fabric (N in-process listeners on `127.0.0.1` ephemeral
//!   ports) and on the threaded loopback fabric, and requires bit-identical
//!   result fingerprints. Exits non-zero on any mismatch.
//! * **`--processes N`:** real multi-process mode — spawns N child worker
//!   processes of this same binary, each owning one node of the cluster in
//!   its own address space. The parent collects the children's listener
//!   addresses from their stdout (`ADDR host:port`), broadcasts the full
//!   roster to every child's stdin (`PEERS a0 a1 ...`), waits for the run,
//!   and compares the master child's result fingerprint against an
//!   in-process loopback reference of the same workload.
//! * **`--worker I --nodes N`** (internal): one spawned worker.
//!
//! The workload is deterministic and commutative (every node adds a fixed
//! per-(node, cell, repetition) increment under a global lock, with a
//! barrier per repetition), so its fingerprint is schedule-independent —
//! any divergence is a transport correctness bug, not timing noise.

use dsm_bench::matrix;
use dsm_core::{ProtocolConfig, ProtocolMsg};
use dsm_model::ComputeModel;
use dsm_net::{StatsCollector, TcpConfig, TcpNodeBinding};
use dsm_objspace::{BarrierId, LockId, NodeId};
use dsm_runtime::{ArrayHandle, Cluster, ClusterBuilder, FabricMode, NodeCtx};
use dsm_util::Mutex;
use dsm_wire::ProtocolCodec;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};

const CELLS_PER_NODE: usize = 4;
const REPETITIONS: u64 = 6;
const DEFAULT_NODES: usize = 4;

fn fnv(hash: u64, value: u64) -> u64 {
    (hash ^ value).wrapping_mul(0x0000_0100_0000_01b3)
}

/// The launcher workload's protocol: adaptive migration. A worker also
/// binds its listener with this protocol's network model.
fn protocol() -> ProtocolConfig {
    ProtocolConfig::adaptive()
}

/// Build the launcher workload's cluster: one shared u64 array, global
/// lock, adaptive migration. Registration is deterministic, so every
/// process of a multi-process run reconstructs the identical registry.
fn build_cluster(nodes: usize, fabric: FabricMode) -> (ClusterBuilder, ArrayHandle<u64>) {
    let mut builder = Cluster::builder()
        .nodes(nodes)
        .protocol(protocol())
        .compute(ComputeModel::free())
        .fabric(fabric);
    let cells = builder.register_array::<u64>("tcp_cluster.cells", nodes * CELLS_PER_NODE);
    (builder, cells)
}

/// The per-node application: commutative increments under a global lock,
/// one barrier per repetition, fingerprint read on the master.
fn run_workload(ctx: &NodeCtx, cells: &ArrayHandle<u64>, result: &Mutex<Option<u64>>) {
    let lock = LockId::derive("tcp_cluster.lock");
    let weight = u64::from(ctx.node_id().0) + 1;
    for rep in 0..REPETITIONS {
        ctx.synchronized(lock, || {
            ctx.update(cells, |values| {
                for (i, cell) in values.iter_mut().enumerate() {
                    *cell += weight * (i as u64 + 1) * (rep + 1);
                }
            });
        });
        ctx.barrier(BarrierId(1));
    }
    if ctx.is_master() {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for value in ctx.read(cells) {
            hash = fnv(hash, value);
        }
        *result.lock() = Some(hash);
    }
}

/// Run the launcher workload fully in-process on the given fabric.
fn run_in_process(nodes: usize, fabric: FabricMode) -> u64 {
    let (builder, cells) = build_cluster(nodes, fabric);
    let result = Mutex::new(None);
    builder
        .build()
        .run(|ctx| run_workload(ctx, &cells, &result));
    // The poison-ignoring lock keeps this readable even if a worker thread
    // panicked mid-workload; a missing fingerprint then names that cause
    // instead of dying on a `PoisonError`.
    let fingerprint = result.lock().take();
    fingerprint.expect("no workload fingerprint — the master worker panicked before publishing it")
}

fn value_of<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// One spawned worker: bind, publish the address, learn the roster,
/// connect, run this node's slice of the workload.
fn worker(node: usize, nodes: usize) {
    let (builder, cells) = build_cluster(nodes, FabricMode::Threaded);
    let stats = StatsCollector::new();
    let binding = TcpNodeBinding::<ProtocolMsg>::bind::<ProtocolCodec>(
        NodeId::from(node),
        nodes,
        protocol().network,
        stats.clone(),
        TcpConfig::default(),
    )
    .expect("worker failed to bind a 127.0.0.1 listener");
    let addr = binding.local_addr().expect("listener has a local address");
    println!("ADDR {addr}");
    std::io::stdout().flush().expect("flush ADDR line");

    let stdin = std::io::stdin();
    let mut roster = String::new();
    stdin
        .lock()
        .read_line(&mut roster)
        .expect("read PEERS line");
    let peers: Vec<SocketAddr> = roster
        .trim()
        .strip_prefix("PEERS ")
        .expect("roster line starts with PEERS")
        .split_whitespace()
        .map(|a| a.parse().expect("valid peer address"))
        .collect();
    assert_eq!(peers.len(), nodes, "roster size disagrees with --nodes");

    let endpoint = binding.connect(&peers).expect("mesh connect failed");
    let result = Mutex::new(None);
    let report = builder
        .build()
        .run_tcp_worker(endpoint, stats, |ctx| run_workload(ctx, &cells, &result));
    if let Some(fingerprint) = result.lock().take() {
        println!("FINGERPRINT {fingerprint:#018x}");
    }
    println!("DONE node={node} messages={}", report.total_messages());
}

/// Parent of a multi-process run: spawn, exchange addresses, compare the
/// distributed fingerprint against the in-process loopback reference.
fn launch(nodes: usize) {
    assert!(nodes >= 2, "--processes needs at least 2 nodes");
    let exe = std::env::current_exe().expect("own executable path");
    let mut children: Vec<(Child, BufReader<std::process::ChildStdout>)> = (0..nodes)
        .map(|node| {
            let mut child = Command::new(&exe)
                .args(["--worker", &node.to_string(), "--nodes", &nodes.to_string()])
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn worker process");
            let stdout = BufReader::new(child.stdout.take().expect("worker stdout piped"));
            (child, stdout)
        })
        .collect();

    let mut addrs = Vec::with_capacity(nodes);
    for (node, (_, stdout)) in children.iter_mut().enumerate() {
        let mut line = String::new();
        stdout.read_line(&mut line).expect("read worker ADDR line");
        let addr = line
            .trim()
            .strip_prefix("ADDR ")
            .unwrap_or_else(|| panic!("worker {node} printed {line:?}, expected ADDR"))
            .to_string();
        addrs.push(addr);
    }
    let roster = format!("PEERS {}\n", addrs.join(" "));
    eprintln!("launcher: {nodes} workers bound, broadcasting roster");
    for (child, _) in children.iter_mut() {
        child
            .stdin
            .as_mut()
            .expect("worker stdin piped")
            .write_all(roster.as_bytes())
            .expect("send roster to worker");
    }

    let mut distributed = None;
    for (node, (mut child, stdout)) in children.into_iter().enumerate() {
        for line in stdout.lines() {
            let line = line.expect("read worker output");
            if let Some(hex) = line.strip_prefix("FINGERPRINT ") {
                distributed =
                    Some(dsm_util::parse_seed(hex).expect("worker printed a valid fingerprint"));
            }
            eprintln!("worker {node}: {line}");
        }
        let status = child.wait().expect("join worker process");
        assert!(status.success(), "worker {node} exited with {status}");
    }
    let distributed = distributed.expect("master worker printed a fingerprint");

    let reference = run_in_process(nodes, FabricMode::Threaded);
    println!("multi-process fingerprint: {distributed:#018x}");
    println!("loopback     fingerprint: {reference:#018x}");
    if distributed == reference {
        println!("conformance: ok ({nodes} processes)");
    } else {
        println!("conformance: FAILED");
        std::process::exit(1);
    }
}

/// In-process conformance: matrix workloads + the launcher workload on the
/// TCP fabric vs. the threaded loopback reference.
fn conformance_in_process() {
    let mut failures = 0usize;
    println!("in-process TCP conformance ({DEFAULT_NODES} nodes, adaptive policy)\n");
    for workload in matrix::workloads() {
        if !matches!(workload.name, "SOR" | "synthetic") {
            continue;
        }
        let reference = workload
            .run(matrix::matrix_cluster(
                ProtocolConfig::adaptive(),
                FabricMode::Threaded,
            ))
            .fingerprint;
        let tcp_run = workload.run(matrix::matrix_cluster(
            ProtocolConfig::adaptive(),
            FabricMode::Tcp(TcpConfig::default()),
        ));
        let ok = tcp_run.fingerprint == reference;
        println!(
            "  {:>10}: tcp {:#018x}  loopback {:#018x}  [{}]",
            workload.name,
            tcp_run.fingerprint,
            reference,
            if ok { "ok" } else { "MISMATCH" },
        );
        failures += usize::from(!ok);
    }
    let tcp = run_in_process(DEFAULT_NODES, FabricMode::Tcp(TcpConfig::default()));
    let loopback = run_in_process(DEFAULT_NODES, FabricMode::Threaded);
    let ok = tcp == loopback;
    println!(
        "  {:>10}: tcp {:#018x}  loopback {:#018x}  [{}]",
        "launcher",
        tcp,
        loopback,
        if ok { "ok" } else { "MISMATCH" },
    );
    failures += usize::from(!ok);
    if failures > 0 {
        println!("\n{failures} conformance failure(s)");
        std::process::exit(1);
    }
    println!("\nall fingerprints identical across fabrics");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(node) = value_of(&args, "--worker") {
        let node: usize = node.parse().expect("--worker takes a node index");
        let nodes: usize = value_of(&args, "--nodes")
            .expect("--worker requires --nodes")
            .parse()
            .expect("--nodes takes a cluster size");
        worker(node, nodes);
    } else if let Some(n) = value_of(&args, "--processes") {
        launch(n.parse().expect("--processes takes a process count"));
    } else {
        conformance_in_process();
    }
}

//! A real multi-process TCP transport behind the same endpoint seam as the
//! in-process fabrics.
//!
//! # Topology and ordering
//!
//! Every node binds one `TcpListener` on an ephemeral `127.0.0.1` port and
//! learns every peer's address before the run starts. Node `a` *dials*
//! node `b` and writes only `a → b` traffic on that connection; `b`'s accept
//! loop makes it a read-only, non-blocking `b ← a` link. A sender writes
//! its frame whole on its own thread under the outgoing link's lock, so
//! concurrent senders' frames never interleave. A link is read by the
//! endpoint's one **I/O thread**, which waits in `poll(2)`, or by any
//! thread calling [`TcpEndpoint::drain_ready`] (or
//! [`TcpEndpoint::drain_ready_all`] for several endpoints in one `poll`), as
//! the runtime's threads do while they wait for a reply. A reader holds the
//! link's **read lock** while it reads, decodes every complete frame and
//! pushes each onto the node's [`Inbox`] in order: the protocol's
//! **per-link FIFO** guarantee.
//! The I/O thread is the fallback: it waits for a read lock that a drainer
//! skips, and a wake-up of it does not preempt the running thread
//! (`SCHED_BATCH`), which is often about to read the same frame itself.
//!
//! # Why a blocking write cannot deadlock
//!
//! A write blocks only while the socket buffers towards the peer are full.
//! The peer's I/O thread never writes and pushes onto an unbounded inbox,
//! so every link keeps draining and the write completes. A read lock is a
//! leaf lock, never held across a write: its holder reads without blocking
//! and takes only what the inbox's wake takes (the executor's run-queue
//! lock, under which nothing reads or writes). (A link that failed on
//! broken or malformed bytes is no longer read; writes to it may block.)
//!
//! # Modeled time on real sockets
//!
//! Frames carry the envelope's modeled fields, so the receiver merges the
//! *sender's* stamps, in real arrival order: modeled time on TCP is not
//! reproducible. Modeled bytes are recorded at send time, as on the other
//! fabrics, hello and leave frames excepted; [`WireCounters`] counts the
//! actual socket traffic.
//!
//! # Teardown
//!
//! A leave frame means "this node's application is done"; the runtime
//! sends it once shutdown was requested and the node's server drained.
//! In-process, it is the last frame a link carries. A multi-process worker
//! (`Cluster::run_tcp_worker`) leaves when its *own* application is done,
//! and its replies may follow, so links are read past a leave. Once every
//! peer left and the inbox is empty, [`TcpEndpoint::finish`] closes every
//! outgoing socket, waits for the join phase to end and shuts down every
//! incoming one; the I/O thread reads end of stream on each and exits.
//! Only the join phase, hello reads included, has a deadline
//! (`connect_timeout`); frames that arrive during it wait in their socket.

use crate::category::MsgCategory;
use crate::envelope::{Envelope, MESSAGE_HEADER_BYTES};
use crate::inbox::Inbox;
use crate::stats::StatsCollector;
use crate::wire::{
    decode_envelope, decode_frame, decode_hello, encode_control, encode_envelope, encode_hello,
    FrameKind, Hello, WireCodec, WireError, FRAME_HEADER_BYTES, MAX_FRAME_BYTES,
};
use dsm_model::{NetworkParams, SimTime};
use dsm_objspace::NodeId;
use dsm_util::sync::Mutex;
use dsm_util::{batch_scheduling, poll_readable};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicI32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, TryLockError::WouldBlock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Deployment settings of the TCP fabric.
#[derive(Debug, Clone, PartialEq)]
pub struct TcpConfig {
    /// Deadline for the join phase (dialing peers, accepting their dials
    /// and reading their hellos).
    pub connect_timeout: Duration,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            connect_timeout: Duration::from_secs(10),
        }
    }
}

/// Real socket-level traffic counters of one endpoint, kept separate from
/// the modeled [`NetworkStats`](crate::stats::NetworkStats) so the two can
/// be reconciled: modeled bytes/messages must match the stats collector
/// exactly, while socket bytes additionally include framing and
/// fabric-internal control traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireCounters {
    /// Payload (envelope) frames sent, including self-sends.
    pub payload_frames_sent: u64,
    /// Payload frames delivered into the inbox.
    pub payload_frames_delivered: u64,
    /// Modeled wire bytes (payload + modeled header) across sent payload
    /// frames — reconciles with `NetworkStats::total_bytes()`.
    pub modeled_bytes_sent: u64,
    /// Modeled wire bytes across delivered payload frames.
    pub modeled_bytes_delivered: u64,
    /// Fabric-internal frames sent (hello + leave).
    pub control_frames_sent: u64,
    /// Heartbeat frames sent: always 0, since the fabric sends none.
    pub heartbeats_sent: u64,
    /// Raw bytes written to sockets (frames + length prefixes), counted
    /// when a sender's write of a whole frame returns.
    pub socket_bytes_sent: u64,
    /// Raw bytes read from sockets, counted per whole frame read.
    pub socket_bytes_received: u64,
}

#[derive(Debug, Default)]
struct Counters {
    payload_frames_sent: AtomicU64,
    payload_frames_delivered: AtomicU64,
    modeled_bytes_sent: AtomicU64,
    modeled_bytes_delivered: AtomicU64,
    control_frames_sent: AtomicU64,
    socket_bytes_sent: AtomicU64,
    socket_bytes_received: AtomicU64,
}

/// Add `n` to one of the [`Counters`].
fn bump(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

impl Counters {
    fn snapshot(&self) -> WireCounters {
        WireCounters {
            payload_frames_sent: self.payload_frames_sent.load(Ordering::Relaxed),
            payload_frames_delivered: self.payload_frames_delivered.load(Ordering::Relaxed),
            modeled_bytes_sent: self.modeled_bytes_sent.load(Ordering::Relaxed),
            modeled_bytes_delivered: self.modeled_bytes_delivered.load(Ordering::Relaxed),
            control_frames_sent: self.control_frames_sent.load(Ordering::Relaxed),
            heartbeats_sent: 0,
            socket_bytes_sent: self.socket_bytes_sent.load(Ordering::Relaxed),
            socket_bytes_received: self.socket_bytes_received.load(Ordering::Relaxed),
        }
    }
}

/// State shared between an endpoint, its socket threads and every thread
/// that drains its links.
struct LinkShared<M: Send + 'static> {
    node: NodeId,
    counters: Counters,
    leaves_received: AtomicUsize,
    inbox: Inbox<M>,
    decode_env: fn(&[u8]) -> Result<Envelope<M>, WireError>,
    /// The incoming links, published when the join phase ends.
    incoming: OnceLock<Box<[Incoming]>>,
}

/// A node's listener, created before addresses are exchanged. `bind` and
/// `connect` are split so a multi-process launcher can publish its local
/// address, gather the peers' addresses out of band, and only then connect.
pub struct TcpNodeBinding<M: Send + 'static> {
    num_nodes: usize,
    params: NetworkParams,
    stats: StatsCollector,
    config: TcpConfig,
    listener: TcpListener,
    encode_env: fn(&Envelope<M>) -> Vec<u8>,
    shared: Arc<LinkShared<M>>,
}

impl<M: Send + 'static> TcpNodeBinding<M> {
    /// Bind `node`'s listener on an ephemeral `127.0.0.1` port. The codec
    /// `C` fixes the payload wire format for the whole link.
    ///
    /// # Panics
    /// Panics if `num_nodes` is zero, `node` is out of range, or the
    /// cluster exceeds `u16` node ids (the wire header's address width).
    pub fn bind<C: WireCodec<M>>(
        node: NodeId,
        num_nodes: usize,
        params: NetworkParams,
        stats: StatsCollector,
        config: TcpConfig,
    ) -> io::Result<Self> {
        assert!(num_nodes > 0, "cluster must have at least one node");
        assert!(node.index() < num_nodes, "node {node} out of range");
        assert!(
            u16::try_from(num_nodes).is_ok(),
            "tcp fabric addresses nodes with u16 ids"
        );
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        Ok(TcpNodeBinding {
            num_nodes,
            params,
            stats,
            config,
            listener,
            encode_env: encode_envelope::<M, C>,
            shared: Arc::new(LinkShared {
                node,
                counters: Counters::default(),
                leaves_received: AtomicUsize::new(0),
                inbox: Inbox::new(node),
                decode_env: decode_envelope::<M, C>,
                incoming: OnceLock::new(),
            }),
        })
    }

    /// The bound local address to publish to peers.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Join the cluster: dial every peer (the outgoing links), start the
    /// accept loop for their dials (the incoming links; it starts the I/O
    /// thread) and return the live endpoint. `peer_addrs` must hold one
    /// address per node in node order; this node's own entry is ignored.
    pub fn connect(self, peer_addrs: &[SocketAddr]) -> io::Result<TcpEndpoint<M>> {
        assert_eq!(
            peer_addrs.len(),
            self.num_nodes,
            "expected one address per node"
        );
        let shared = self.shared;
        // Runs concurrently with our own dialing below.
        let acceptor = spawn_acceptor(
            self.listener,
            Arc::clone(&shared),
            self.num_nodes,
            Instant::now() + self.config.connect_timeout,
        );

        // Dial every peer and introduce ourselves; each dialed connection
        // is this node's exclusive ordered write channel to that peer.
        let hello = encode_hello(Hello {
            node: shared.node,
            num_nodes: self.num_nodes as u16,
        });
        let mut links = Vec::with_capacity(self.num_nodes);
        for (dst, &addr) in peer_addrs.iter().enumerate() {
            if dst == shared.node.index() {
                links.push(Mutex::new(None));
                continue;
            }
            let mut stream = dial(addr, self.config.connect_timeout)?;
            stream.set_nodelay(true)?;
            stream.write_all(&hello)?;
            let counters = &shared.counters;
            bump(&counters.control_frames_sent, 1);
            bump(&counters.socket_bytes_sent, hello.len() as u64);
            links.push(Mutex::new(Some(stream)));
        }

        Ok(TcpEndpoint {
            num_nodes: self.num_nodes,
            params: self.params,
            stats: self.stats,
            encode_env: self.encode_env,
            links,
            leave_sent: AtomicBool::new(false),
            shared,
            acceptor: Mutex::new(Some(acceptor)),
        })
    }
}

/// Factory for an all-in-one-process TCP cluster: every node's listener
/// and endpoint live in this process, connected over real `127.0.0.1`
/// sockets. Mirrors [`Fabric`](crate::fabric::Fabric)'s shape so the
/// runtime can swap it in behind the same seam.
pub struct TcpFabric<M: Send + 'static> {
    endpoints: Vec<TcpEndpoint<M>>,
}

impl<M: Send + 'static> TcpFabric<M> {
    /// Bind `num_nodes` listeners on ephemeral local ports and fully
    /// connect them.
    pub fn bind_local<C: WireCodec<M>>(
        num_nodes: usize,
        params: NetworkParams,
        stats: StatsCollector,
        config: TcpConfig,
    ) -> io::Result<Self> {
        let bindings: Vec<TcpNodeBinding<M>> = (0..num_nodes)
            .map(|i| {
                TcpNodeBinding::bind::<C>(
                    NodeId::from(i),
                    num_nodes,
                    params,
                    stats.clone(),
                    config.clone(),
                )
            })
            .collect::<io::Result<_>>()?;
        let addrs: Vec<SocketAddr> = bindings
            .iter()
            .map(TcpNodeBinding::local_addr)
            .collect::<io::Result<_>>()?;
        let endpoints = bindings
            .into_iter()
            .map(|b| b.connect(&addrs))
            .collect::<io::Result<_>>()?;
        Ok(TcpFabric { endpoints })
    }

    /// Take ownership of all endpoints (one per node, in node order).
    pub fn into_endpoints(self) -> Vec<TcpEndpoint<M>> {
        self.endpoints
    }
}

/// One node's attachment to the TCP fabric. The sending surface mirrors
/// [`Endpoint`](crate::fabric::Endpoint) — same modeled-time stamping,
/// same statistics recording, same panics on misuse — so the runtime's
/// protocol layers cannot tell the fabrics apart.
pub struct TcpEndpoint<M: Send + 'static> {
    num_nodes: usize,
    params: NetworkParams,
    stats: StatsCollector,
    encode_env: fn(&Envelope<M>) -> Vec<u8>,
    /// The outgoing connection to each node, in node order: `None` at
    /// this node's own slot, after a failed write and after `finish`.
    links: Vec<Mutex<Option<TcpStream>>>,
    leave_sent: AtomicBool,
    shared: Arc<LinkShared<M>>,
    /// The join's accept loop, which returns the I/O thread it started.
    acceptor: Mutex<Option<JoinHandle<Option<JoinHandle<()>>>>>,
}

impl<M: Send + 'static> TcpEndpoint<M> {
    /// The node this endpoint belongs to.
    pub fn node(&self) -> NodeId {
        self.shared.node
    }

    /// Number of nodes reachable through this endpoint (including itself).
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Send `payload` of `payload_bytes` bytes to `dst`, stamping modeled
    /// time exactly as the in-process fabric does and recording the same
    /// statistics. The frame is written to `dst`'s ordered connection
    /// before this returns, preserving per-link FIFO; the write blocks
    /// while the socket buffers towards `dst` are full (see the module
    /// docs).
    ///
    /// # Panics
    /// Panics if `dst` is out of range or the link to `dst` has been shut
    /// down while the cluster is running (a protocol bug).
    pub fn send(
        &self,
        dst: NodeId,
        category: MsgCategory,
        payload_bytes: u64,
        sent_at: SimTime,
        payload: M,
    ) -> SimTime {
        let wire_bytes = payload_bytes + MESSAGE_HEADER_BYTES;
        let arrival = sent_at + self.params.hockney.latency(wire_bytes);
        self.stats.record(category, wire_bytes);
        let counters = &self.shared.counters;
        bump(&counters.payload_frames_sent, 1);
        bump(&counters.modeled_bytes_sent, wire_bytes);
        let envelope = Envelope {
            src: self.shared.node,
            dst,
            category,
            wire_bytes,
            sent_at,
            arrival,
            payload,
        };
        if dst == self.shared.node {
            // Loop-back delivery never touches a socket.
            self.shared.deliver(envelope);
            return arrival;
        }
        let written = self.write_frame(dst, &(self.encode_env)(&envelope));
        assert!(
            written,
            "destination endpoint dropped while cluster is running"
        );
        arrival
    }

    /// Write one encoded frame on the outgoing link to `dst`, holding the
    /// link's lock for the whole `write_all` so concurrent senders' frames
    /// never interleave. Returns `false` if the link is closed. A failed
    /// write is logged and closes this link only.
    fn write_frame(&self, dst: NodeId, frame: &[u8]) -> bool {
        let mut link = self
            .links
            .get(dst.index())
            .unwrap_or_else(|| panic!("destination {dst} out of range"))
            .lock();
        let Some(stream) = link.as_mut() else {
            return false;
        };
        match stream.write_all(frame) {
            Ok(()) => bump(&self.shared.counters.socket_bytes_sent, frame.len() as u64),
            Err(e) => {
                let node = self.shared.node;
                eprintln!("tcp fabric: node {node}: write to {dst} failed: {e}");
                *link = None;
            }
        }
        true
    }

    /// Blocking receive of the next incoming message. The inbox keeps its
    /// own sender alive, so this never returns `None` and, once traffic
    /// stops, blocks for good — even after [`finish`](TcpEndpoint::finish).
    /// Callers that must stop end their loop on a message of their own or
    /// poll the [`inbox`](TcpEndpoint::inbox).
    pub fn recv(&self) -> Option<Envelope<M>> {
        self.shared.inbox.recv()
    }

    /// This node's inbox, filled by self-sends and by the threads that
    /// drain the incoming links.
    pub fn inbox(&self) -> &Inbox<M> {
        &self.shared.inbox
    }

    /// Deliver, on the calling thread, the frames that have already arrived
    /// on this endpoint's incoming links: look at them in `poll` without
    /// waiting, and drain each readable one into the inbox. Never blocks: a
    /// link another thread is reading is left to it, after a yield of the
    /// CPU. Returns how many frames it delivered plus how many links it
    /// left, so 0 means that every frame that had arrived is in the inbox.
    pub fn drain_ready(&self) -> usize {
        Self::drain_ready_all([self])
    }

    /// [`Self::drain_ready`] over the incoming links of all `endpoints` at
    /// once: one `poll` looks at up to 64 links (an in-process mesh of more
    /// than 8 nodes takes one per 64), and the caller yields at most once.
    /// Returns the frames delivered plus the links left to another thread,
    /// summed over the endpoints.
    pub fn drain_ready_all<'a>(endpoints: impl IntoIterator<Item = &'a Self>) -> usize
    where
        M: 'a,
    {
        let mut links = endpoints.into_iter().flat_map(|endpoint| {
            let shared = &*endpoint.shared;
            shared.links().iter().map(move |link| (shared, link))
        });
        let (mut delivered, mut busy) = (0, 0);
        loop {
            let chunk: [_; POLL_CHUNK] = std::array::from_fn(|_| links.next());
            let filled = || chunk.iter().map_while(|entry| *entry);
            let fds = filled().map(|(_, link)| link.poll_fd());
            let _ = poll_readable(fds, Some(Duration::ZERO), |i| {
                let (shared, link) = chunk[i].expect("a polled entry is filled");
                if let Ok(mut state) = link.read.try_lock() {
                    delivered += link.drain(shared, &mut state);
                }
            });
            // A reader may not have delivered what it took from its socket yet.
            let taken =
                |(_, link): &(_, &Incoming)| matches!(link.read.try_lock(), Err(WouldBlock));
            busy += filled().filter(taken).count();
            if chunk[POLL_CHUNK - 1].is_none() {
                break;
            }
        }
        if busy > 0 {
            thread::yield_now();
        }
        delivered + busy
    }

    /// Announce that this node's application is done: write a leave frame
    /// on every outgoing link (idempotent). Called by the runtime
    /// once this node's server has drained after shutdown was requested.
    /// Replies to peers' requests may still follow it (see the module
    /// docs).
    pub fn announce_leave(&self) {
        if self.leave_sent.swap(true, Ordering::SeqCst) {
            return;
        }
        let leave = encode_control(FrameKind::Leave);
        for dst in 0..self.num_nodes {
            if self.write_frame(NodeId::from(dst), &leave) {
                bump(&self.shared.counters.control_frames_sent, 1);
            }
        }
    }

    /// Whether every peer's leave frame has been received, i.e. every
    /// peer's application is done. Once this node's own application is
    /// done too, no peer sends it anything further.
    pub fn all_peers_left(&self) -> bool {
        self.shared.leaves_received.load(Ordering::SeqCst) >= self.num_nodes - 1
    }

    /// Snapshot of the socket-level traffic counters.
    pub fn wire_counters(&self) -> WireCounters {
        self.shared.counters.snapshot()
    }

    /// Tear the link down: close every outgoing connection, shut down every
    /// incoming one, and join the socket threads. Idempotent.
    /// Safe to call only after the protocol has quiesced (leave handshake
    /// done); messages sent after `finish` panic as "destination dropped",
    /// and frames arriving after it are dropped.
    pub fn finish(&self) {
        // 1. Close every outgoing socket, which ends the peers' links.
        for link in &self.links {
            *link.lock() = None;
        }
        // 2. The accept loop ends with the join and publishes the links.
        let acceptor = self.acceptor.lock().take();
        let io = acceptor.and_then(|h| h.join().ok().flatten());
        // 3. End every incoming stream: the I/O thread closes each and exits.
        for link in self.shared.links() {
            let _ = link.stream.shutdown(Shutdown::Both);
        }
        if let Some(io) = io {
            let _ = io.join();
        }
    }
}

impl<M: Send + 'static> Drop for TcpEndpoint<M> {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Dial `addr`, retrying brief refusals until `timeout` (peers bind before
/// addresses are exchanged, but their accept loops may start later).
fn dial(addr: SocketAddr, timeout: Duration) -> io::Result<TcpStream> {
    let deadline = Instant::now() + timeout;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(e);
                }
                thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

/// The join's accept loop: wait in `poll` on the listener, and accept and
/// vet one incoming link per peer, until every peer has joined or
/// `deadline` passes. Then publish the links and start the I/O thread over
/// them, whose handle the loop returns.
fn spawn_acceptor<M: Send + 'static>(
    listener: TcpListener,
    shared: Arc<LinkShared<M>>,
    num_nodes: usize,
    deadline: Instant,
) -> JoinHandle<Option<JoinHandle<()>>> {
    thread::spawn(move || {
        let (node, expected) = (shared.node, num_nodes - 1);
        let mut links: Vec<Incoming> = Vec::with_capacity(expected);
        while links.len() < expected {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                let joined = links.len();
                eprintln!("tcp fabric: node {node}: join incomplete ({joined}/{expected} peers)");
                break;
            }
            // Readable means a dial is queued, so `accept` will not block.
            let accepted = match poll_readable([listener.as_raw_fd()], Some(remaining), |_| {}) {
                Ok(0) => continue,
                polled => polled.and_then(|_| listener.accept()),
            };
            let vet = |(stream, _)| prepare_incoming(stream, &shared, num_nodes, &links, deadline);
            match accepted.map(vet) {
                Ok(Ok(link)) => links.push(link),
                Ok(Err(e)) => eprintln!("tcp fabric: node {node}: rejected a connection: {e}"),
                Err(e) => {
                    eprintln!("tcp fabric: node {node}: accept failed: {e}");
                    break;
                }
            }
        }
        let links = shared.incoming.get_or_init(|| links.into());
        (!links.is_empty()).then(|| thread::spawn(move || shared.run_io()))
    })
}

/// Read and validate the hello handshake on a freshly accepted connection,
/// and return it as a non-blocking incoming link. The read is bounded by
/// the join `deadline`, since the bytes come from outside; a node id that
/// already joined is refused, so an impostor cannot take the place of a
/// real peer's link.
fn prepare_incoming<M: Send + 'static>(
    mut stream: TcpStream,
    shared: &LinkShared<M>,
    num_nodes: usize,
    joined: &[Incoming],
    deadline: Instant,
) -> io::Result<Incoming> {
    stream.set_nodelay(true)?;
    let remaining = deadline.saturating_duration_since(Instant::now());
    stream.set_read_timeout(Some(remaining.max(Duration::from_millis(1))))?;
    let mut prefix = [0u8; 4];
    let mut frame = Vec::new();
    stream
        .read_exact(&mut prefix)
        .and_then(|()| {
            frame = vec![0; frame_len(&prefix)?];
            stream.read_exact(&mut frame)
        })
        .map_err(|e| match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
                io::Error::new(io::ErrorKind::TimedOut, "no hello before the join deadline")
            }
            _ => e,
        })?;
    let received = 4 + frame.len() as u64;
    bump(&shared.counters.socket_bytes_received, received);
    let bad = |detail: String| io::Error::new(io::ErrorKind::InvalidData, detail);
    let (kind, body) = decode_frame(&frame).map_err(|e| bad(e.to_string()))?;
    if kind != FrameKind::Hello {
        return Err(bad(format!("expected hello, got {kind:?}")));
    }
    let hello = decode_hello(body).map_err(|e| bad(e.to_string()))?;
    if hello.num_nodes as usize != num_nodes {
        return Err(bad(format!(
            "peer speaks a {}-node cluster, this is a {num_nodes}-node cluster",
            hello.num_nodes
        )));
    }
    if hello.node.index() >= num_nodes || hello.node == shared.node {
        return Err(bad(format!("hello from invalid node {}", hello.node)));
    }
    if joined.iter().any(|link| link.peer == hello.node) {
        return Err(bad(format!("duplicate hello from node {}", hello.node)));
    }
    stream.set_nonblocking(true)?;
    Ok(Incoming {
        peer: hello.node,
        fd: AtomicI32::new(stream.as_raw_fd()),
        stream,
        // 64 KiB to start with; it grows to fit the link's largest frame.
        read: std::sync::Mutex::new((vec![0; 64 * 1024], 0)),
    })
}

/// The body length a frame's 4-byte length prefix declares, if in bounds.
fn frame_len(prefix: &[u8; 4]) -> io::Result<usize> {
    let len = u32::from_le_bytes(*prefix);
    if len > MAX_FRAME_BYTES || (len as usize) < FRAME_HEADER_BYTES {
        let detail = format!("frame length {len} out of bounds");
        return Err(io::Error::new(io::ErrorKind::InvalidData, detail));
    }
    Ok(len as usize)
}

/// Links looked at by one `poll` of [`TcpEndpoint::drain_ready_all`]: as
/// many as `poll_readable` keeps on its stack.
const POLL_CHUNK: usize = 64;

/// An incoming link: its non-blocking socket; the descriptor to `poll`,
/// which turns -1 (skipped) once the link closes; and behind its read lock,
/// a leaf lock (see the module docs), the bytes read but not yet delivered:
/// `buf[..filled]`, which starts at a frame boundary.
struct Incoming {
    peer: NodeId,
    stream: TcpStream,
    fd: AtomicI32,
    read: std::sync::Mutex<(Vec<u8>, usize)>,
}

impl Incoming {
    fn poll_fd(&self) -> RawFd {
        self.fd.load(Ordering::Acquire)
    }

    /// With the link's read `state` locked, read what has arrived and deliver
    /// every complete frame, in order; return how many. End of stream, or a
    /// broken or malformed link, closes this link only, with a log line for
    /// a failure: bytes from the network never panic.
    fn drain<M: Send + 'static>(
        &self,
        shared: &LinkShared<M>,
        state: &mut (Vec<u8>, usize),
    ) -> usize {
        let mut delivered = 0;
        if self.poll_fd() < 0 {
            return 0;
        }
        if let Err(failure) = self.read_frames(shared, state, &mut delivered) {
            self.fd.store(-1, Ordering::Release);
            if let Some(e) = failure {
                let (node, peer) = (shared.node, self.peer);
                eprintln!("tcp fabric: node {node}: link from {peer} failed: {e}");
            }
        }
        delivered
    }

    /// [`Self::drain`]'s loop: `Ok` once the socket is empty for now,
    /// `Err(None)` at end of stream between frames, `Err(Some(why))` else.
    fn read_frames<M: Send + 'static>(
        &self,
        shared: &LinkShared<M>,
        (buf, filled): &mut (Vec<u8>, usize),
        delivered: &mut usize,
    ) -> Result<(), Option<String>> {
        loop {
            if *filled == buf.len() {
                buf.resize(2 * buf.len(), 0);
            }
            let space = buf.len() - *filled;
            let n = match (&self.stream).read(&mut buf[*filled..]) {
                Ok(0) if *filled == 0 => return Err(None),
                Ok(0) => return Err(Some("peer closed the connection mid-frame".into())),
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(Some(e.to_string())),
            };
            *filled += n;
            // Deliver every complete frame, then move the rest to the front.
            let mut at = 0;
            while let Some(prefix) = buf[at..*filled].first_chunk() {
                let len = frame_len(prefix).map_err(|e| Some(e.to_string()))?;
                let Some(frame) = buf[at + 4..*filled].get(..len) else {
                    break;
                };
                bump(&shared.counters.socket_bytes_received, 4 + len as u64);
                shared.dispatch(frame).map_err(Some)?;
                *delivered += 1;
                at += 4 + len;
            }
            buf.copy_within(at..*filled, 0);
            *filled -= at;
            // A short read emptied the socket; `poll` reports what follows.
            if n < space {
                return Ok(());
            }
        }
    }
}

impl<M: Send + 'static> LinkShared<M> {
    /// Hand one frame to the node: a payload onto the inbox, a leave to the
    /// tally.
    fn dispatch(&self, frame: &[u8]) -> Result<(), String> {
        let (kind, body) = decode_frame(frame).map_err(|e| format!("undecodable frame: {e}"))?;
        match kind {
            // A duplicate hello, or a heartbeat (no sender emits one).
            FrameKind::Hello | FrameKind::Heartbeat => {}
            FrameKind::Leave => {
                // Replies may follow a leave. A leave can complete a drained
                // node's teardown: wake it to re-check `all_peers_left`.
                self.leaves_received.fetch_add(1, Ordering::SeqCst);
                self.inbox.wake();
            }
            FrameKind::Payload => {
                let decoded = (self.decode_env)(body);
                self.deliver(decoded.map_err(|e| format!("undecodable payload: {e}"))?);
            }
        }
        Ok(())
    }

    /// Count a payload envelope delivered and push it onto the inbox.
    fn deliver(&self, envelope: Envelope<M>) {
        bump(&self.counters.payload_frames_delivered, 1);
        bump(&self.counters.modeled_bytes_delivered, envelope.wire_bytes);
        self.inbox.push(envelope);
    }

    /// The incoming links; none during the join.
    fn links(&self) -> &[Incoming] {
        self.incoming.get().map_or(&[], |links| links)
    }

    /// The endpoint's I/O thread: wait in `poll` until a link is readable,
    /// and drain it, waiting for its read lock if another thread holds it,
    /// until every link is closed.
    fn run_io(&self) {
        let _ = batch_scheduling(); // see the module docs
        let links = self.links();
        while links.iter().any(|link| link.poll_fd() >= 0) {
            let polled = poll_readable(links.iter().map(Incoming::poll_fd), None, |i| {
                let mut state = links[i].read.lock().unwrap_or_else(PoisonError::into_inner);
                links[i].drain(self, &mut state);
            });
            if let Err(e) = polled {
                eprintln!("tcp fabric: node {}: I/O thread stopped: {e}", self.node);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{WireReader, WireWriter};

    /// Minimal codec for tests: a u64 payload.
    struct U64Codec;
    impl WireCodec<u64> for U64Codec {
        fn encode(msg: &u64, w: &mut WireWriter) {
            w.u64(*msg);
        }
        fn decode(r: &mut WireReader<'_>) -> Result<u64, WireError> {
            r.u64()
        }
    }

    fn local_fabric(num_nodes: usize) -> (Vec<TcpEndpoint<u64>>, StatsCollector) {
        let stats = StatsCollector::new();
        let fabric = TcpFabric::bind_local::<U64Codec>(
            num_nodes,
            NetworkParams::fast_ethernet(),
            stats.clone(),
            TcpConfig::default(),
        )
        .expect("bind 127.0.0.1 fabric");
        (fabric.into_endpoints(), stats)
    }

    /// Bind `num_nodes` listeners with a short join deadline, without
    /// connecting any of them.
    fn bindings(num_nodes: usize, connect_timeout: Duration) -> Vec<TcpNodeBinding<u64>> {
        (0..num_nodes)
            .map(|i| {
                TcpNodeBinding::bind::<U64Codec>(
                    NodeId::from(i),
                    num_nodes,
                    NetworkParams::fast_ethernet(),
                    StatsCollector::new(),
                    TcpConfig { connect_timeout },
                )
                .expect("bind 127.0.0.1 listener")
            })
            .collect()
    }

    fn addrs(bindings: &[TcpNodeBinding<u64>]) -> Vec<SocketAddr> {
        bindings.iter().map(|b| b.local_addr().unwrap()).collect()
    }

    fn teardown<M: Send + 'static>(endpoints: &[TcpEndpoint<M>]) {
        for ep in endpoints {
            ep.announce_leave();
        }
        for ep in endpoints {
            while !ep.all_peers_left() {
                thread::sleep(Duration::from_millis(1));
            }
        }
        for ep in endpoints {
            ep.finish();
        }
    }

    #[test]
    fn send_and_receive_over_real_sockets() {
        let (eps, stats) = local_fabric(2);
        let arrival = eps[0].send(
            NodeId(1),
            MsgCategory::ObjRequest,
            8,
            SimTime::from_micros(5.0),
            42,
        );
        let env = eps[1]
            .inbox()
            .recv_timeout(Duration::from_secs(5))
            .expect("delivery");
        assert_eq!(env.src, NodeId(0));
        assert_eq!(env.dst, NodeId(1));
        assert_eq!(env.payload, 42);
        assert_eq!(env.arrival, arrival);
        assert_eq!(env.wire_bytes, 8 + MESSAGE_HEADER_BYTES);
        assert!(env.arrival > env.sent_at);
        // Modeled stats match the in-process fabric's accounting exactly.
        let snap = stats.snapshot();
        assert_eq!(snap.total_messages(), 1);
        assert_eq!(snap.total_bytes(), 8 + MESSAGE_HEADER_BYTES);
        teardown(&eps);
        // Wire counters reconcile with the modeled stats.
        let sent: u64 = eps
            .iter()
            .map(|e| e.wire_counters().payload_frames_sent)
            .sum();
        let delivered: u64 = eps
            .iter()
            .map(|e| e.wire_counters().payload_frames_delivered)
            .sum();
        let modeled: u64 = eps
            .iter()
            .map(|e| e.wire_counters().modeled_bytes_sent)
            .sum();
        assert_eq!(sent, 1);
        assert_eq!(delivered, 1);
        assert_eq!(modeled, snap.total_bytes());
        assert!(eps[0].wire_counters().socket_bytes_sent > 0);
        assert!(eps[1].wire_counters().socket_bytes_received > 0);
    }

    #[test]
    fn per_link_fifo_is_preserved() {
        let (eps, _stats) = local_fabric(3);
        for i in 0..200u64 {
            eps[0].send(NodeId(2), MsgCategory::Control, 8, SimTime::ZERO, i);
            eps[1].send(NodeId(2), MsgCategory::Control, 8, SimTime::ZERO, 1_000 + i);
        }
        let mut from0 = Vec::new();
        let mut from1 = Vec::new();
        while from0.len() + from1.len() < 400 {
            let env = eps[2]
                .inbox()
                .recv_timeout(Duration::from_secs(5))
                .expect("delivery");
            if env.src == NodeId(0) {
                from0.push(env.payload);
            } else {
                from1.push(env.payload);
            }
        }
        assert_eq!(from0, (0..200).collect::<Vec<u64>>());
        assert_eq!(from1, (1_000..1_200).collect::<Vec<u64>>());
        teardown(&eps);
    }

    /// Codec for frames with a byte payload of any size.
    struct BytesCodec;
    impl WireCodec<Vec<u8>> for BytesCodec {
        fn encode(msg: &Vec<u8>, w: &mut WireWriter) {
            w.len_bytes(msg);
        }
        fn decode(r: &mut WireReader<'_>) -> Result<Vec<u8>, WireError> {
            r.len_bytes().map(<[u8]>::to_vec)
        }
    }

    /// Four threads share node 0's endpoint and send on its one link to
    /// node 1 at once. Each frame is larger than one loopback `write`
    /// moves, so `write_all` loops; the link lock must still keep every
    /// frame whole and each sender's frames in order.
    #[test]
    fn concurrent_senders_on_one_link_keep_frames_whole_and_in_order() {
        const SENDERS: u8 = 4;
        const FRAMES: u32 = 100;
        const FRAME_BYTES: usize = 256 * 1024;
        // Sender id, sequence number, then a fill that differs per frame.
        fn payload(sender: u8, seq: u32) -> Vec<u8> {
            let mut bytes = vec![sender ^ seq as u8; FRAME_BYTES];
            bytes[0] = sender;
            bytes[1..5].copy_from_slice(&seq.to_le_bytes());
            bytes
        }
        let mut eps = TcpFabric::bind_local::<BytesCodec>(
            2,
            NetworkParams::fast_ethernet(),
            StatsCollector::new(),
            TcpConfig::default(),
        )
        .expect("bind 127.0.0.1 fabric")
        .into_endpoints();
        let node1 = eps.pop().unwrap();
        let node0 = Arc::new(eps.pop().unwrap());
        // Detached senders: if a torn frame stops node 1's reader, the
        // receive below times out and fails instead of waiting on writes
        // that can no longer drain.
        let senders: Vec<_> = (0..SENDERS)
            .map(|sender| {
                let node0 = Arc::clone(&node0);
                thread::spawn(move || {
                    for seq in 0..FRAMES {
                        let bytes = payload(sender, seq);
                        node0.send(NodeId(1), MsgCategory::Control, 0, SimTime::ZERO, bytes);
                    }
                })
            })
            .collect();
        let mut next_seq = [0u32; SENDERS as usize];
        let mut frame_bytes = 0u64;
        for _ in 0..u32::from(SENDERS) * FRAMES {
            let env = node1
                .inbox()
                .recv_timeout(Duration::from_secs(10))
                .expect("delivery");
            let sender = env.payload[0];
            let seq = u32::from_le_bytes(env.payload[1..5].try_into().unwrap());
            assert_eq!(
                seq,
                next_seq[usize::from(sender)],
                "sender {sender} reordered"
            );
            next_seq[usize::from(sender)] += 1;
            assert!(
                env.payload == payload(sender, seq),
                "frame {seq} of sender {sender} arrived torn"
            );
            frame_bytes += encode_envelope::<Vec<u8>, BytesCodec>(&env).len() as u64;
        }
        for sender in senders {
            sender.join().expect("sender thread");
        }
        let hello = encode_hello(Hello {
            node: NodeId(0),
            num_nodes: 2,
        });
        assert_eq!(
            node0.wire_counters().socket_bytes_sent,
            hello.len() as u64 + frame_bytes
        );
        let node0 = Arc::into_inner(node0).expect("every sender joined");
        teardown(&[node0, node1]);
    }

    #[test]
    fn self_send_is_allowed() {
        let (eps, _stats) = local_fabric(1);
        eps[0].send(NodeId(0), MsgCategory::Control, 0, SimTime::ZERO, 9);
        assert_eq!(
            eps[0]
                .inbox()
                .recv_timeout(Duration::from_secs(1))
                .unwrap()
                .payload,
            9
        );
        assert!(
            eps[0].all_peers_left(),
            "a 1-node cluster has no peers to wait for"
        );
        teardown(&eps);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sending_to_unknown_node_panics() {
        let (eps, _stats) = local_fabric(2);
        eps[0].send(NodeId(5), MsgCategory::Control, 0, SimTime::ZERO, 0);
    }

    /// A leave means "my application is done", not "I send nothing more":
    /// in a multi-process cluster a node that left still serves its peers'
    /// requests, so its replies must reach them after its leave frame.
    #[test]
    fn replies_still_arrive_after_the_replier_left() {
        let (eps, _stats) = local_fabric(2);
        eps[1].announce_leave();
        let deadline = Instant::now() + Duration::from_secs(5);
        while !eps[0].all_peers_left() {
            assert!(Instant::now() < deadline, "node 1's leave never arrived");
            thread::sleep(Duration::from_millis(1));
        }
        eps[0].send(NodeId(1), MsgCategory::ObjRequest, 8, SimTime::ZERO, 7);
        let request = eps[1]
            .inbox()
            .recv_timeout(Duration::from_secs(5))
            .expect("request delivered to the node that left");
        eps[1].send(
            request.src,
            MsgCategory::ObjReply,
            8,
            SimTime::ZERO,
            request.payload + 1,
        );
        let reply = eps[0]
            .inbox()
            .recv_timeout(Duration::from_secs(5))
            .expect("a reply sent after the leave still arrives");
        assert_eq!(reply.payload, 8);
        teardown(&eps);
    }

    /// A second hello claiming a node id that already joined is refused, so
    /// it cannot use up the slot of the peer that has not dialed yet.
    #[test]
    fn a_duplicate_hello_does_not_shut_out_a_real_peer() {
        let bindings = bindings(3, Duration::from_millis(500));
        let addrs = addrs(&bindings);
        let impostor = encode_hello(Hello {
            node: NodeId(1),
            num_nodes: 3,
        });
        // Two connections that both claim to be node 1 reach node 0's
        // listener before node 2 dials it.
        let _fakes: Vec<TcpStream> = (0..2)
            .map(|_| {
                let mut fake = TcpStream::connect(addrs[0]).unwrap();
                fake.write_all(&impostor).unwrap();
                fake
            })
            .collect();
        let mut bindings = bindings.into_iter();
        let node0 = bindings.next().unwrap().connect(&addrs).unwrap();
        let _node1 = bindings.next().unwrap();
        let node2 = bindings
            .next()
            .unwrap()
            .connect(&addrs)
            .expect("node 0 still listens for node 2");
        node2.send(NodeId(0), MsgCategory::Control, 8, SimTime::ZERO, 42);
        let env = node0
            .inbox()
            .recv_timeout(Duration::from_secs(2))
            .expect("node 2's link was accepted and read");
        assert_eq!((env.src, env.payload), (NodeId(2), 42));
    }

    /// A connection that never sends its hello is dropped at the join
    /// deadline instead of holding the accept loop until teardown.
    #[test]
    fn a_silent_dialer_does_not_park_the_accept_loop() {
        let connect_timeout = Duration::from_millis(100);
        let bindings = bindings(2, connect_timeout);
        let addrs = addrs(&bindings);
        let mut bindings = bindings.into_iter();
        let node0 = bindings.next().unwrap().connect(&addrs).unwrap();
        let _node1 = bindings.next().unwrap();
        let _silent = TcpStream::connect(addrs[0]).unwrap();
        let deadline = Instant::now() + connect_timeout + Duration::from_secs(2);
        let finished = || {
            node0
                .acceptor
                .lock()
                .as_ref()
                .is_some_and(JoinHandle::is_finished)
        };
        while !finished() && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        assert!(finished(), "the accept loop still waits on a silent dialer");
    }

    /// Node 0 of a `num_nodes`-node cluster, joined by raw sockets that
    /// introduce themselves as nodes 1.. and then write whatever bytes a
    /// test wants. The other nodes' bindings are returned to keep node 0's
    /// outgoing links open.
    fn raw_peers(num_nodes: usize) -> (TcpEndpoint<u64>, Vec<TcpStream>, Vec<TcpNodeBinding<u64>>) {
        let mut bindings = bindings(num_nodes, Duration::from_secs(5));
        let addrs = addrs(&bindings);
        let node0 = bindings.remove(0).connect(&addrs).unwrap();
        let raw = (1..num_nodes)
            .map(|i| {
                let mut stream = TcpStream::connect(addrs[0]).unwrap();
                let hello = encode_hello(Hello {
                    node: NodeId::from(i),
                    num_nodes: num_nodes as u16,
                });
                stream.write_all(&hello).unwrap();
                stream
            })
            .collect();
        (node0, raw, bindings)
    }

    /// The frame a peer `src` would send node 0 for `payload`.
    fn frame(src: u16, payload: u64) -> Vec<u8> {
        encode_envelope::<u64, U64Codec>(&Envelope {
            src: NodeId(src),
            dst: NodeId(0),
            category: MsgCategory::Control,
            wire_bytes: 8 + MESSAGE_HEADER_BYTES,
            sent_at: SimTime::ZERO,
            arrival: SimTime::ZERO,
            payload,
        })
    }

    fn next(ep: &TcpEndpoint<u64>) -> (NodeId, u64) {
        let env = ep
            .inbox()
            .recv_timeout(Duration::from_secs(5))
            .expect("delivery");
        (env.src, env.payload)
    }

    /// A frame whose bytes arrive in two parts, with a pause between them,
    /// is delivered once, whole, whether it is split inside its length
    /// prefix or inside its body.
    #[test]
    fn a_frame_written_in_two_parts_arrives_whole() {
        let (node0, mut raw, _bindings) = raw_peers(2);
        for (payload, split) in [(7, 2), (8, 13)] {
            let bytes = frame(1, payload);
            raw[0].write_all(&bytes[..split]).unwrap();
            thread::sleep(Duration::from_millis(50));
            node0.drain_ready();
            assert!(
                node0.inbox().try_recv().is_none(),
                "a partial frame was delivered"
            );
            raw[0].write_all(&bytes[split..]).unwrap();
            assert_eq!(next(&node0), (NodeId(1), payload));
        }
    }

    /// Frames that reach the socket together, so that one read returns all
    /// of them and part of the next, are delivered in order.
    #[test]
    fn several_frames_read_at_once_arrive_in_order() {
        let (node0, mut raw, _bindings) = raw_peers(2);
        let mut bytes: Vec<u8> = (0..5).flat_map(|i| frame(1, i)).collect();
        let tail = frame(1, 5);
        bytes.extend_from_slice(&tail[..9]);
        raw[0].write_all(&bytes).unwrap();
        for i in 0..5 {
            assert_eq!(next(&node0), (NodeId(1), i));
        }
        raw[0].write_all(&tail[9..]).unwrap();
        assert_eq!(next(&node0), (NodeId(1), 5));
    }

    /// A length prefix out of bounds closes that one link, without a panic;
    /// a second link into the same endpoint keeps delivering, both to the
    /// I/O thread and to a caller of `drain_ready`.
    #[test]
    fn a_malformed_length_stops_only_its_own_link() {
        let (node0, mut raw, _bindings) = raw_peers(3);
        raw[0].write_all(&frame(1, 1)).unwrap();
        assert_eq!(next(&node0), (NodeId(1), 1));
        raw[0].write_all(&2u32.to_le_bytes()).unwrap();
        raw[0].write_all(&frame(1, 2)).unwrap();
        raw[1].write_all(&frame(2, 3)).unwrap();
        assert_eq!(next(&node0), (NodeId(2), 3));
        let links = node0.shared.incoming.get().expect("the join ended");
        let link = |peer| links.iter().find(|link| link.peer == peer).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while link(NodeId(1)).poll_fd() >= 0 {
            assert!(Instant::now() < deadline, "the malformed link stayed open");
            thread::sleep(Duration::from_millis(1));
        }
        assert!(link(NodeId(2)).poll_fd() >= 0, "the healthy link closed");
        raw[1].write_all(&frame(2, 4)).unwrap();
        assert_eq!(next(&node0), (NodeId(2), 4));
        let drained = Instant::now() + Duration::from_secs(5);
        raw[1].write_all(&frame(2, 5)).unwrap();
        while node0.inbox().try_recv().is_none() {
            assert!(Instant::now() < drained, "frame 5 never arrived");
            node0.drain_ready();
        }
        assert!(
            node0.inbox().try_recv().is_none(),
            "the closed link delivered"
        );
    }

    /// Once a 4-node mesh has joined, each endpoint runs exactly one socket
    /// thread, its I/O thread, over its three links (the thread holds the
    /// endpoint's only other reference to the shared state); `finish`
    /// joins it.
    #[test]
    fn a_joined_mesh_runs_one_io_thread_per_endpoint_and_finish_joins_them() {
        let (eps, _stats) = local_fabric(4);
        let deadline = Instant::now() + Duration::from_secs(5);
        let joined = |ep: &TcpEndpoint<u64>| {
            ep.acceptor
                .lock()
                .as_ref()
                .is_some_and(JoinHandle::is_finished)
        };
        while !eps.iter().all(joined) {
            assert!(Instant::now() < deadline, "a join did not end");
            thread::sleep(Duration::from_millis(1));
        }
        for ep in &eps {
            assert_eq!(ep.shared.incoming.get().map(|links| links.len()), Some(3));
            assert_eq!(Arc::strong_count(&ep.shared), 2, "one socket thread");
        }
        teardown(&eps);
        for ep in &eps {
            assert_eq!(Arc::strong_count(&ep.shared), 1, "finish joined it");
        }
    }
}

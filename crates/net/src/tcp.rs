//! A real multi-process TCP transport behind the same endpoint seam as the
//! in-process fabrics.
//!
//! # Topology and ordering
//!
//! Every node binds one `TcpListener` on an ephemeral `127.0.0.1` port and
//! learns every peer's address before the run starts. Each ordered pair of
//! nodes gets a **dedicated connection**: node `a` *dials* node `b` and
//! uses that connection exclusively for `a → b` traffic, while `b`'s accept
//! loop turns the same connection into a read-only `b ← a` link. A sender
//! encodes its frame and writes it whole on its own thread, holding the
//! outgoing link's lock, so the frames of concurrent senders never
//! interleave and leave in the order the senders took the lock. One reader
//! thread per incoming link decodes them sequentially and pushes them onto
//! the node's [`Inbox`]. Together that is the protocol's documented
//! **per-link FIFO** guarantee. A joined N-node mesh runs N(N−1) socket
//! threads, all of them readers.
//!
//! # Why a blocking write cannot deadlock
//!
//! A write blocks only while the socket buffers towards the peer are full.
//! The peer's reader for that link blocks only in `read`, and pushes what
//! it reads onto an unbounded inbox, so it keeps draining the link and the
//! write completes once it runs. The link lock is a leaf lock: a sender
//! takes nothing else while holding it. Readers take no link lock, and no
//! lock of the runtime beyond what the inbox's wake takes (the executor's
//! run-queue lock, under which nothing writes); in particular no node's
//! serve lock or reply slot. So no cycle of waits can pass through a
//! blocked write. (A reader that stopped on a broken or malformed link no
//! longer drains it, and writes to that link can then block for good; but
//! that link has already failed.)
//!
//! # Modeled time on real sockets
//!
//! The envelope's modeled fields (`wire_bytes`, `sent_at`, `arrival`)
//! travel in the frame, so the receiver merges the *sender's* stamps as the
//! threaded fabric does; the merge happens in real arrival order, so
//! modeled time on TCP is not reproducible (only the sim fabric's is).
//! `StatsCollector` records the same modeled `wire_bytes` at send time;
//! fabric-internal frames (hello, leave) are **not** recorded there, so
//! `NetworkStats` stays comparable across fabrics. Actual socket bytes are
//! tracked separately in [`WireCounters`].
//!
//! # Teardown
//!
//! A leave frame means "this node's application is done". The runtime
//! announces it on every outgoing link once shutdown has been requested and
//! the node's server has drained. In an in-process cluster every
//! application has finished by then, so the leave is the last frame its
//! links carry. In a multi-process cluster (`Cluster::run_tcp_worker` in
//! `dsm-runtime`) a node leaves as soon as its *own* application is done,
//! while peers may still fault in objects homed there, so replies can
//! follow its leave; readers therefore keep reading past a leave. A node
//! tears down once it has heard every peer's leave and emptied its inbox:
//! [`TcpEndpoint::finish`] closes every outgoing socket (each frame was
//! written by the send that made it, so there is nothing to flush), shuts
//! down every incoming socket so its blocked reader wakes at end of stream,
//! and joins the reader threads. Established links never poll a timeout;
//! only the join phase is bounded, by `connect_timeout`, which also bounds
//! the hello read on a fresh connection.

use crate::category::MsgCategory;
use crate::envelope::{Envelope, MESSAGE_HEADER_BYTES};
use crate::inbox::Inbox;
use crate::stats::StatsCollector;
use crate::wire::{
    decode_frame, decode_hello, encode_control, encode_envelope, encode_hello, FrameKind, Hello,
    WireCodec, WireError, FRAME_HEADER_BYTES, MAX_FRAME_BYTES,
};
use dsm_model::{NetworkParams, SimTime};
use dsm_objspace::NodeId;
use dsm_util::sync::Mutex;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
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
    /// Raw bytes read from sockets.
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

/// State shared between an endpoint and its reader threads.
struct LinkShared<M: Send + 'static> {
    node: NodeId,
    counters: Counters,
    leaves_received: AtomicUsize,
    inbox: Inbox<M>,
}

/// A node's listener, created before addresses are exchanged. `bind` and
/// `connect` are split so a multi-process launcher can publish its local
/// address, gather the peers' addresses out of band, and only then connect.
pub struct TcpNodeBinding<M: Send + 'static> {
    node: NodeId,
    num_nodes: usize,
    params: NetworkParams,
    stats: StatsCollector,
    config: TcpConfig,
    listener: TcpListener,
    encode_env: fn(&Envelope<M>) -> Vec<u8>,
    decode_env: fn(&[u8]) -> Result<Envelope<M>, WireError>,
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
            node,
            num_nodes,
            params,
            stats,
            config,
            listener,
            encode_env: encode_envelope::<M, C>,
            decode_env: decode_envelope_fn::<M, C>,
        })
    }

    /// The bound local address to publish to peers.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Join the cluster: dial every peer (the outgoing links), accept every
    /// peer's dial (the incoming links), start the reader threads and
    /// return the live endpoint. `peer_addrs` must hold one address per
    /// node in node order; the entry at this node's own index is ignored.
    pub fn connect(self, peer_addrs: &[SocketAddr]) -> io::Result<TcpEndpoint<M>> {
        assert_eq!(
            peer_addrs.len(),
            self.num_nodes,
            "expected one address per node"
        );
        let shared = Arc::new(LinkShared {
            node: self.node,
            counters: Counters::default(),
            leaves_received: AtomicUsize::new(0),
            inbox: Inbox::new(self.node),
        });

        // Accept loop: collect exactly num_nodes - 1 hello'd incoming
        // links, spawning one reader thread per link. Runs concurrently
        // with our own dialing below.
        let readers: Arc<Mutex<Vec<Reader>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = spawn_acceptor(
            self.listener,
            Arc::clone(&shared),
            Arc::clone(&readers),
            self.decode_env,
            self.num_nodes,
            Instant::now() + self.config.connect_timeout,
        );

        // Dial every peer and introduce ourselves; each dialed connection
        // is this node's exclusive ordered write channel to that peer.
        let hello = encode_hello(Hello {
            node: self.node,
            num_nodes: self.num_nodes as u16,
        });
        let mut links = Vec::with_capacity(self.num_nodes);
        for (dst, &addr) in peer_addrs.iter().enumerate() {
            if dst == self.node.index() {
                links.push(Mutex::new(None));
                continue;
            }
            let mut stream = dial(addr, self.config.connect_timeout)?;
            stream.set_nodelay(true)?;
            stream.write_all(&hello)?;
            let counters = &shared.counters;
            counters.control_frames_sent.fetch_add(1, Ordering::Relaxed);
            counters
                .socket_bytes_sent
                .fetch_add(hello.len() as u64, Ordering::Relaxed);
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
            readers,
            finished: AtomicBool::new(false),
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

/// An incoming link's reader thread, plus a handle on its socket that
/// teardown shuts down to wake the blocked read.
type Reader = (JoinHandle<()>, TcpStream);

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
    acceptor: Mutex<Option<JoinHandle<()>>>,
    readers: Arc<Mutex<Vec<Reader>>>,
    finished: AtomicBool,
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
        counters.payload_frames_sent.fetch_add(1, Ordering::Relaxed);
        counters
            .modeled_bytes_sent
            .fetch_add(wire_bytes, Ordering::Relaxed);
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
            counters
                .payload_frames_delivered
                .fetch_add(1, Ordering::Relaxed);
            counters
                .modeled_bytes_delivered
                .fetch_add(wire_bytes, Ordering::Relaxed);
            self.shared.inbox.push(envelope);
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
            Ok(()) => {
                self.shared
                    .counters
                    .socket_bytes_sent
                    .fetch_add(frame.len() as u64, Ordering::Relaxed);
            }
            Err(e) => {
                eprintln!(
                    "tcp fabric: node {}: write to {dst} failed: {e}",
                    self.shared.node
                );
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

    /// This node's inbox, filled by self-sends and the reader threads.
    pub fn inbox(&self) -> &Inbox<M> {
        &self.shared.inbox
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
                self.shared
                    .counters
                    .control_frames_sent
                    .fetch_add(1, Ordering::Relaxed);
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
    /// incoming one, and join all socket threads. Idempotent.
    /// Safe to call only after the protocol has quiesced (leave handshake
    /// done); messages sent after `finish` panic as "destination dropped",
    /// and frames arriving after it are dropped.
    pub fn finish(&self) {
        if self.finished.swap(true, Ordering::SeqCst) {
            return;
        }
        // 1. Close every outgoing socket, which EOFs the peers' readers.
        for link in &self.links {
            *link.lock() = None;
        }
        // 2. The acceptor exits once all peers dialed in (or the join
        //    deadline passed), so every reader is registered after this.
        if let Some(h) = self.acceptor.lock().take() {
            let _ = h.join();
        }
        // 3. Wake each blocked reader at end of stream, then join it.
        for (handle, stream) in self.readers.lock().drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
            let _ = handle.join();
        }
    }
}

impl<M: Send + 'static> Drop for TcpEndpoint<M> {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Monomorphic wrapper so `bind` can store a plain fn pointer.
fn decode_envelope_fn<M, C: WireCodec<M>>(body: &[u8]) -> Result<Envelope<M>, WireError> {
    crate::wire::decode_envelope::<M, C>(body)
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

fn spawn_acceptor<M: Send + 'static>(
    listener: TcpListener,
    shared: Arc<LinkShared<M>>,
    readers: Arc<Mutex<Vec<Reader>>>,
    decode_env: fn(&[u8]) -> Result<Envelope<M>, WireError>,
    num_nodes: usize,
    deadline: Instant,
) -> JoinHandle<()> {
    thread::spawn(move || {
        let expected = num_nodes - 1;
        if expected == 0 {
            return;
        }
        if listener.set_nonblocking(true).is_err() {
            eprintln!("tcp fabric: node {}: accept loop cannot poll", shared.node);
            return;
        }
        let mut joined = vec![false; num_nodes];
        let mut accepted = 0;
        while accepted < expected {
            match listener.accept() {
                Ok((stream, _)) => match prepare_incoming(stream, &shared, &joined, deadline) {
                    Ok((stream, waker, peer)) => {
                        joined[peer.index()] = true;
                        let handle = spawn_reader(stream, peer, Arc::clone(&shared), decode_env);
                        readers.lock().push((handle, waker));
                        accepted += 1;
                    }
                    Err(e) => {
                        eprintln!(
                            "tcp fabric: node {}: rejected incoming connection: {e}",
                            shared.node
                        );
                    }
                },
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        eprintln!(
                            "tcp fabric: node {}: join incomplete ({accepted}/{expected} \
                             peers connected before the deadline)",
                            shared.node
                        );
                        return;
                    }
                    thread::sleep(Duration::from_millis(1));
                }
                Err(e) => {
                    eprintln!("tcp fabric: node {}: accept failed: {e}", shared.node);
                    return;
                }
            }
        }
    })
}

/// Read and validate the hello handshake on a freshly accepted connection,
/// returning the link, a second handle on it for teardown, and the peer.
/// The read is bounded by the join `deadline`, since the bytes come from
/// outside; a node id that already joined is refused, so an impostor cannot
/// take the place of a real peer's link.
fn prepare_incoming<M: Send + 'static>(
    mut stream: TcpStream,
    shared: &LinkShared<M>,
    joined: &[bool],
    deadline: Instant,
) -> io::Result<(TcpStream, TcpStream, NodeId)> {
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)?;
    let remaining = deadline.saturating_duration_since(Instant::now());
    stream.set_read_timeout(Some(remaining.max(Duration::from_millis(1))))?;
    let frame = read_frame(&mut stream, shared).map_err(|e| match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
            io::Error::new(io::ErrorKind::TimedOut, "no hello before the join deadline")
        }
        _ => e,
    })?;
    let Some(frame) = frame else {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before hello",
        ));
    };
    let bad = |detail: String| io::Error::new(io::ErrorKind::InvalidData, detail);
    let (kind, body) = decode_frame(&frame).map_err(|e| bad(e.to_string()))?;
    if kind != FrameKind::Hello {
        return Err(bad(format!("expected hello, got {kind:?}")));
    }
    let hello = decode_hello(body).map_err(|e| bad(e.to_string()))?;
    let num_nodes = joined.len();
    if hello.num_nodes as usize != num_nodes {
        return Err(bad(format!(
            "peer speaks a {}-node cluster, this is a {num_nodes}-node cluster",
            hello.num_nodes
        )));
    }
    if hello.node.index() >= num_nodes || hello.node == shared.node {
        return Err(bad(format!("hello from invalid node {}", hello.node)));
    }
    if joined[hello.node.index()] {
        return Err(bad(format!("duplicate hello from node {}", hello.node)));
    }
    // Established links block in `read` until a frame or end of stream.
    stream.set_read_timeout(None)?;
    Ok((stream.try_clone()?, stream, hello.node))
}

/// Fill `buf` from `stream`. Returns `Ok(false)` on end of stream before
/// the first byte; end of stream after it is an error.
fn read_full(stream: &mut TcpStream, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed the connection mid-frame",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Read one length-prefixed frame (the bytes after the length prefix).
/// Returns `Ok(None)` on end of stream between frames.
fn read_frame<M: Send + 'static>(
    stream: &mut TcpStream,
    shared: &LinkShared<M>,
) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    if !read_full(stream, &mut len_buf)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_BYTES || (len as usize) < FRAME_HEADER_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} out of bounds"),
        ));
    }
    let mut frame = vec![0u8; len as usize];
    stream.read_exact(&mut frame)?;
    shared
        .counters
        .socket_bytes_received
        .fetch_add(4 + u64::from(len), Ordering::Relaxed);
    Ok(Some(frame))
}

fn spawn_reader<M: Send + 'static>(
    mut stream: TcpStream,
    peer: NodeId,
    shared: Arc<LinkShared<M>>,
    decode_env: fn(&[u8]) -> Result<Envelope<M>, WireError>,
) -> JoinHandle<()> {
    thread::spawn(move || loop {
        let frame = match read_frame(&mut stream, &shared) {
            Ok(Some(frame)) => frame,
            Ok(None) => return,
            Err(e) => {
                // A malformed or broken link stops this reader. Never panic
                // on bytes from the network.
                eprintln!(
                    "tcp fabric: node {}: link from {peer} failed: {e}",
                    shared.node
                );
                return;
            }
        };
        let (kind, body) = match decode_frame(&frame) {
            Ok(parts) => parts,
            Err(e) => {
                eprintln!(
                    "tcp fabric: node {}: undecodable frame from {peer}: {e}",
                    shared.node
                );
                return;
            }
        };
        match kind {
            // A duplicate hello after the handshake, or a heartbeat (a
            // frame kind no current sender emits): ignore.
            FrameKind::Hello | FrameKind::Heartbeat => {}
            FrameKind::Leave => {
                // Keep reading: in a multi-process cluster replies may
                // follow a peer's leave (see the module docs).
                shared.leaves_received.fetch_add(1, Ordering::SeqCst);
                // A leave can complete the teardown condition of an already
                // drained node — wake it so the event-driven server re-checks
                // `all_peers_left`.
                shared.inbox.wake();
            }
            FrameKind::Payload => match decode_env(body) {
                Ok(envelope) => {
                    shared
                        .counters
                        .payload_frames_delivered
                        .fetch_add(1, Ordering::Relaxed);
                    shared
                        .counters
                        .modeled_bytes_delivered
                        .fetch_add(envelope.wire_bytes, Ordering::Relaxed);
                    shared.inbox.push(envelope);
                }
                Err(e) => {
                    eprintln!(
                        "tcp fabric: node {}: undecodable payload from {peer}: {e}",
                        shared.node
                    );
                    return;
                }
            },
        }
    })
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
}

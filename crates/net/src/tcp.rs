//! A real multi-process TCP transport behind the same endpoint seam as the
//! in-process fabrics.
//!
//! # Topology and ordering
//!
//! Every node binds one `TcpListener` on an ephemeral `127.0.0.1` port and
//! learns every peer's address before the run starts. Each ordered pair of
//! nodes gets a **dedicated connection**: node `a` *dials* node `b` and
//! uses that connection exclusively for `a → b` traffic, while `b`'s accept
//! loop turns the same connection into a read-only `b ← a` link. One writer
//! thread per outgoing link (fed by an in-order queue of pre-encoded
//! frames) and one reader thread per incoming link give the protocol its
//! documented **per-link FIFO** guarantee: frames leave in send order on a
//! single TCP stream and are decoded sequentially at the far end.
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
//! tears down once it has heard every peer's leave and emptied its inbound
//! queue: [`TcpEndpoint::finish`] closes the write side (flushing queued
//! frames), shuts down every incoming socket so its blocked reader wakes at
//! end of stream, and joins all socket threads. Established links never
//! poll a timeout; only the join phase is bounded, by `connect_timeout`,
//! which also bounds the hello read on a fresh connection.

use crate::category::MsgCategory;
use crate::envelope::{Envelope, MESSAGE_HEADER_BYTES};
use crate::fabric::WakeNotifier;
use crate::stats::StatsCollector;
use crate::wire::{
    decode_frame, decode_hello, encode_control, encode_envelope, encode_hello, FrameKind, Hello,
    WireCodec, WireError, FRAME_HEADER_BYTES, MAX_FRAME_BYTES,
};
use dsm_model::{NetworkParams, SimTime};
use dsm_objspace::NodeId;
use dsm_util::channel::{unbounded, Receiver, Sender};
use dsm_util::sync::Mutex;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
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
    /// Payload frames delivered into the inbound queue.
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
    /// Raw bytes written to sockets (frames + length prefixes).
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

/// State shared between an endpoint and its socket threads.
struct LinkShared<M: Send + 'static> {
    node: NodeId,
    counters: Counters,
    leaves_received: AtomicUsize,
    inbound_tx: Sender<Envelope<M>>,
    /// Late-bound wake hook: reader threads fire it towards the *owning*
    /// node after enqueuing a payload (and on leave frames, so a drained
    /// server re-evaluates its teardown condition) — the TCP analogue of
    /// the in-process fabric's [`crate::fabric::WakeHub`].
    notifier: OnceLock<Arc<dyn WakeNotifier>>,
}

impl<M: Send + 'static> LinkShared<M> {
    /// Mark the owning node runnable, if a notifier is installed.
    fn wake_self(&self) {
        if let Some(notifier) = self.notifier.get() {
            notifier.wake(self.node);
        }
    }
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
    /// peer's dial (the incoming links), start writer/reader threads and
    /// return the live endpoint. `peer_addrs` must hold one address per
    /// node in node order; the entry at this node's own index is ignored.
    pub fn connect(self, peer_addrs: &[SocketAddr]) -> io::Result<TcpEndpoint<M>> {
        assert_eq!(
            peer_addrs.len(),
            self.num_nodes,
            "expected one address per node"
        );
        let (inbound_tx, inbound_rx) = unbounded();
        let shared = Arc::new(LinkShared {
            node: self.node,
            counters: Counters::default(),
            leaves_received: AtomicUsize::new(0),
            inbound_tx,
            notifier: OnceLock::new(),
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

        // Dial every peer; each dialed connection is this node's exclusive
        // ordered write channel to that peer.
        let mut writer_txs: WriterTxs = Vec::with_capacity(self.num_nodes);
        let mut writer_handles = Vec::new();
        for (dst, &addr) in peer_addrs.iter().enumerate() {
            if dst == self.node.index() {
                writer_txs.push(None);
                continue;
            }
            let stream = dial(addr, self.config.connect_timeout)?;
            stream.set_nodelay(true)?;
            let hello = encode_hello(Hello {
                node: self.node,
                num_nodes: self.num_nodes as u16,
            });
            let (tx, rx) = unbounded::<Vec<u8>>();
            tx.send(hello).expect("writer receiver is live");
            shared
                .counters
                .control_frames_sent
                .fetch_add(1, Ordering::Relaxed);
            writer_handles.push(spawn_writer(
                stream,
                rx,
                Arc::clone(&shared),
                NodeId::from(dst),
            ));
            writer_txs.push(Some(tx));
        }

        Ok(TcpEndpoint {
            num_nodes: self.num_nodes,
            params: self.params,
            stats: self.stats,
            encode_env: self.encode_env,
            inbound_rx,
            writers: Mutex::new(Some(writer_txs)),
            leave_sent: AtomicBool::new(false),
            shared,
            acceptor: Mutex::new(Some(acceptor)),
            writer_handles: Mutex::new(writer_handles),
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

/// Per-destination encoded-frame senders, `None` at this node's own slot.
type WriterTxs = Vec<Option<Sender<Vec<u8>>>>;

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
    inbound_rx: Receiver<Envelope<M>>,
    writers: Mutex<Option<WriterTxs>>,
    leave_sent: AtomicBool,
    shared: Arc<LinkShared<M>>,
    acceptor: Mutex<Option<JoinHandle<()>>>,
    writer_handles: Mutex<Vec<JoinHandle<()>>>,
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
    /// statistics. Frames to a given destination leave on one ordered
    /// connection, preserving per-link FIFO.
    ///
    /// # Panics
    /// Panics if `dst` is out of range or the link to `dst` has been shut
    /// down while the cluster is running (a protocol bug, as on the
    /// in-process fabric).
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
            let delivered = self.shared.inbound_tx.send(envelope).is_ok();
            assert!(
                delivered,
                "destination endpoint dropped while cluster is running"
            );
            self.shared.wake_self();
            return arrival;
        }
        let frame = (self.encode_env)(&envelope);
        let writers = self.writers.lock();
        let delivered = writers
            .as_ref()
            .and_then(|w| {
                w.get(dst.index())
                    .unwrap_or_else(|| panic!("destination {dst} out of range"))
                    .as_ref()
            })
            .is_some_and(|tx| tx.send(frame).is_ok());
        assert!(
            delivered,
            "destination endpoint dropped while cluster is running"
        );
        arrival
    }

    /// Blocking receive of the next incoming message. The endpoint itself
    /// keeps the inbound queue's sender alive, so this never returns `None`
    /// and, once traffic stops, blocks for good — even after
    /// [`finish`](TcpEndpoint::finish). Callers that must stop end their
    /// loop on a message of their own or use
    /// [`try_recv`](TcpEndpoint::try_recv).
    pub fn recv(&self) -> Option<Envelope<M>> {
        self.inbound_rx.recv()
    }

    /// Receive with a real-time timeout (the tests' bounded wait).
    #[cfg(test)]
    fn recv_timeout(
        &self,
        timeout: Duration,
    ) -> Result<Envelope<M>, dsm_util::channel::RecvTimeoutError> {
        self.inbound_rx.recv_timeout(timeout)
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Envelope<M>> {
        self.inbound_rx.try_recv()
    }

    /// Number of messages currently queued for this node.
    pub fn pending(&self) -> usize {
        self.inbound_rx.len()
    }

    /// Deepest this node's inbound queue has ever been.
    pub fn queue_high_watermark(&self) -> usize {
        self.inbound_rx.max_len()
    }

    /// Install the wake hook fired by this endpoint's reader threads after
    /// each payload enqueue (and on leave frames). The first installation
    /// wins; wakes before installation are dropped, so installers must
    /// schedule this node once afterwards to cover the window.
    pub fn install_notifier(&self, notifier: Arc<dyn WakeNotifier>) {
        let _ = self.shared.notifier.set(notifier);
    }

    /// Announce that this node's application is done: enqueue a leave
    /// frame on every outgoing link (idempotent). Called by the runtime
    /// once this node's server has drained after shutdown was requested.
    /// Replies to peers' requests may still follow it (see the module
    /// docs).
    pub fn announce_leave(&self) {
        if self.leave_sent.swap(true, Ordering::SeqCst) {
            return;
        }
        let writers = self.writers.lock();
        if let Some(writers) = writers.as_ref() {
            for tx in writers.iter().flatten() {
                if tx.send(encode_control(FrameKind::Leave)).is_ok() {
                    self.shared
                        .counters
                        .control_frames_sent
                        .fetch_add(1, Ordering::Relaxed);
                }
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

    /// Tear the link down: flush and close every outgoing connection, shut
    /// down every incoming one, and join all socket threads. Idempotent.
    /// Safe to call only after the protocol has quiesced (leave handshake
    /// done); messages sent after `finish` panic as "destination dropped",
    /// and frames arriving after it are dropped.
    pub fn finish(&self) {
        if self.finished.swap(true, Ordering::SeqCst) {
            return;
        }
        // 1. Close the write side: writers drain their queues (flushing
        //    any final leave frame) and close their sockets, which EOFs
        //    the peers' readers.
        *self.writers.lock() = None;
        for h in self.writer_handles.lock().drain(..) {
            let _ = h.join();
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
                shared.wake_self();
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
                    if shared.inbound_tx.send(envelope).is_err() {
                        return;
                    }
                    // Enqueue-before-wake, as on the in-process fabric.
                    shared.wake_self();
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

fn spawn_writer<M: Send + 'static>(
    mut stream: TcpStream,
    rx: Receiver<Vec<u8>>,
    shared: Arc<LinkShared<M>>,
    peer: NodeId,
) -> JoinHandle<()> {
    thread::spawn(move || {
        // recv() returns None only once every sender clone is dropped AND
        // the queue is drained, so all enqueued frames (including the
        // final leave) hit the socket before it closes.
        while let Some(frame) = rx.recv() {
            if let Err(e) = stream.write_all(&frame) {
                eprintln!(
                    "tcp fabric: node {}: write to {peer} failed: {e}",
                    shared.node
                );
                return;
            }
            shared
                .counters
                .socket_bytes_sent
                .fetch_add(frame.len() as u64, Ordering::Relaxed);
        }
        let _ = stream.flush();
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

    fn teardown(endpoints: &[TcpEndpoint<u64>]) {
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

    #[test]
    fn self_send_is_allowed() {
        let (eps, _stats) = local_fabric(1);
        eps[0].send(NodeId(0), MsgCategory::Control, 0, SimTime::ZERO, 9);
        assert_eq!(
            eps[0].recv_timeout(Duration::from_secs(1)).unwrap().payload,
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

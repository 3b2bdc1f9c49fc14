//! A real multi-process TCP transport behind the same endpoint seam as the
//! in-process fabrics.
//!
//! # Topology and ordering
//!
//! Every node binds one `TcpListener` on an ephemeral `127.0.0.1` port and
//! learns every peer's address before the run starts (the node registry is
//! the join-time membership exchange). Each ordered pair of nodes gets a
//! **dedicated connection**: node `a` *dials* node `b` and uses that
//! connection exclusively for `a → b` traffic, while `b`'s accept loop
//! turns the same connection into a read-only `b ← a` link. One writer
//! thread per outgoing link (fed by an in-order queue of pre-encoded
//! frames) and one reader thread per incoming link give the protocol its
//! documented **per-link FIFO** guarantee: frames leave in send order on a
//! single TCP stream and are decoded sequentially at the far end.
//!
//! # Modeled time on real sockets
//!
//! The envelope's modeled fields (`wire_bytes`, `sent_at`, `arrival`)
//! travel in the frame, so the receiver merges the *sender's* virtual
//! clock exactly as the loopback fabric does — protocol results are
//! fingerprint-identical across fabrics even though real socket latency
//! differs. `StatsCollector` records the same modeled `wire_bytes` at send
//! time; fabric-internal frames (hello, heartbeat, leave) are **not**
//! recorded there, so `NetworkStats` stays comparable across fabrics.
//! Actual socket bytes are tracked separately in [`WireCounters`].
//!
//! # Membership and liveness
//!
//! A per-endpoint heartbeat thread emits heartbeat frames on every
//! outgoing link at `heartbeat_interval`; readers feed every received
//! frame into a [`LivenessTracker`],
//! so each node maintains an alive/suspect/dead view of its peers
//! (surfaced via [`TcpEndpoint::membership`], reported by the runtime, not
//! yet acted on by the protocol).
//!
//! # Teardown
//!
//! Shutdown is a single-phase **leave** protocol: once a node's server has
//! drained, it announces a leave frame on every link (FIFO makes it the
//! link's final frame) and waits until it has heard every peer's leave and
//! emptied its inbound queue. [`TcpEndpoint::finish`] then stops the
//! heartbeat thread, closes the write side (flushing queued frames) and
//! joins all socket threads with bounded timeouts — a hung peer cannot
//! wedge teardown for longer than the configured I/O timeout.

use crate::category::MsgCategory;
use crate::envelope::{Envelope, MESSAGE_HEADER_BYTES};
use crate::fabric::WakeNotifier;
use crate::membership::{LivenessTracker, MembershipView};
use crate::stats::StatsCollector;
use crate::wire::{
    decode_frame, decode_hello, encode_control, encode_envelope, encode_hello, FrameKind, Hello,
    WireCodec, WireError, FRAME_HEADER_BYTES, MAX_FRAME_BYTES,
};
use dsm_model::{NetworkParams, SimTime};
use dsm_objspace::NodeId;
use dsm_util::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use dsm_util::sync::Mutex;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Tuning knobs of the TCP fabric: heartbeat cadence, liveness thresholds
/// and socket timeouts. All timeouts are bounded so a hung peer degrades
/// the membership view instead of wedging the run.
#[derive(Debug, Clone, PartialEq)]
pub struct TcpConfig {
    /// How often each node heartbeats every outgoing link.
    pub heartbeat_interval: Duration,
    /// Silence after which a peer is classified suspect.
    pub suspect_after: Duration,
    /// Silence after which a peer is classified dead.
    pub dead_after: Duration,
    /// Deadline for the join phase (dialing peers, accepting their dials).
    pub connect_timeout: Duration,
    /// Socket read timeout; also bounds how long teardown waits per thread.
    pub io_timeout: Duration,
    /// This process's incarnation number, carried in the hello handshake.
    /// A restarted node must present a strictly greater incarnation than
    /// its previous life to pass the liveness tracker's rejoin fence; a
    /// first launch uses the default `0`.
    pub incarnation: u32,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            heartbeat_interval: Duration::from_millis(25),
            suspect_after: Duration::from_millis(500),
            dead_after: Duration::from_secs(2),
            connect_timeout: Duration::from_secs(10),
            io_timeout: Duration::from_millis(25),
            incarnation: 0,
        }
    }
}

impl TcpConfig {
    /// Aggressively short heartbeat/liveness timings for tests that drive
    /// alive → suspect → dead transitions without sleeping for seconds.
    pub fn fast_liveness() -> Self {
        TcpConfig {
            heartbeat_interval: Duration::from_millis(2),
            suspect_after: Duration::from_millis(50),
            dead_after: Duration::from_millis(150),
            connect_timeout: Duration::from_secs(5),
            io_timeout: Duration::from_millis(5),
            incarnation: 0,
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
    /// Heartbeat frames sent.
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
    heartbeats_sent: AtomicU64,
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
            heartbeats_sent: self.heartbeats_sent.load(Ordering::Relaxed),
            socket_bytes_sent: self.socket_bytes_sent.load(Ordering::Relaxed),
            socket_bytes_received: self.socket_bytes_received.load(Ordering::Relaxed),
        }
    }
}

/// State shared between an endpoint and its socket threads.
struct LinkShared<M: Send + 'static> {
    node: NodeId,
    epoch: Instant,
    tracker: Mutex<LivenessTracker>,
    counters: Counters,
    leaves_received: AtomicUsize,
    /// Per-peer leave flags: once a peer's leave frame has been read, its
    /// sockets may close at any moment, so write failures towards it are
    /// expected teardown noise rather than link degradation.
    peer_left: Box<[AtomicBool]>,
    reader_stop: AtomicBool,
    hb_stop: AtomicBool,
    hb_paused: AtomicBool,
    inbound_tx: Sender<Envelope<M>>,
    /// Late-bound wake hook: reader threads fire it towards the *owning*
    /// node after enqueuing a payload (and on leave frames, so a drained
    /// server re-evaluates its teardown condition) — the TCP analogue of
    /// the in-process fabric's [`crate::fabric::WakeHub`].
    notifier: OnceLock<Arc<dyn WakeNotifier>>,
}

impl<M: Send + 'static> LinkShared<M> {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

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
    /// peer's dial (the incoming links), start writer/reader/heartbeat
    /// threads and return the live endpoint. `peer_addrs` must hold one
    /// address per node in node order; the entry at this node's own index
    /// is ignored.
    pub fn connect(self, peer_addrs: &[SocketAddr]) -> io::Result<TcpEndpoint<M>> {
        assert_eq!(
            peer_addrs.len(),
            self.num_nodes,
            "expected one address per node"
        );
        let (inbound_tx, inbound_rx) = unbounded();
        let peers: Vec<NodeId> = (0..self.num_nodes)
            .map(NodeId::from)
            .filter(|n| *n != self.node)
            .collect();
        let epoch = Instant::now();
        let shared = Arc::new(LinkShared {
            node: self.node,
            epoch,
            tracker: Mutex::new(LivenessTracker::new(
                self.node,
                peers.iter().copied(),
                self.config.suspect_after.as_millis() as u64,
                self.config.dead_after.as_millis() as u64,
                0,
            )),
            counters: Counters::default(),
            leaves_received: AtomicUsize::new(0),
            peer_left: (0..self.num_nodes)
                .map(|_| AtomicBool::new(false))
                .collect(),
            reader_stop: AtomicBool::new(false),
            hb_stop: AtomicBool::new(false),
            hb_paused: AtomicBool::new(false),
            inbound_tx,
            notifier: OnceLock::new(),
        });

        // Accept loop: collect exactly num_nodes - 1 hello'd incoming
        // links, spawning one reader thread per link. Runs concurrently
        // with our own dialing below.
        let reader_handles: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = spawn_acceptor(
            self.listener,
            Arc::clone(&shared),
            Arc::clone(&reader_handles),
            self.decode_env,
            self.num_nodes,
            self.config.clone(),
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
                incarnation: self.config.incarnation,
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

        let hb_handle = spawn_heartbeat(
            writer_txs.iter().flatten().cloned().collect(),
            Arc::clone(&shared),
            self.config.heartbeat_interval,
        );

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
            hb_handle: Mutex::new(Some(hb_handle)),
            writer_handles: Mutex::new(writer_handles),
            reader_handles,
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

    /// Number of nodes in the fabric.
    pub fn num_nodes(&self) -> usize {
        self.endpoints.len()
    }

    /// Take ownership of all endpoints (one per node, in node order).
    pub fn into_endpoints(self) -> Vec<TcpEndpoint<M>> {
        self.endpoints
    }
}

/// Per-destination encoded-frame senders, `None` at this node's own slot.
type WriterTxs = Vec<Option<Sender<Vec<u8>>>>;

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
    hb_handle: Mutex<Option<JoinHandle<()>>>,
    writer_handles: Mutex<Vec<JoinHandle<()>>>,
    reader_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
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

    /// The network parameters used for modeled-latency stamping.
    pub fn params(&self) -> &NetworkParams {
        &self.params
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
        self.stats.record(self.shared.node, category, wire_bytes);
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

    /// Blocking receive of the next incoming message. Returns `None` after
    /// [`finish`](TcpEndpoint::finish) has closed the link.
    pub fn recv(&self) -> Option<Envelope<M>> {
        self.inbound_rx.recv()
    }

    /// Receive with a real-time timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Envelope<M>, RecvTimeoutError> {
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

    /// Announce an orderly departure: enqueue a leave frame as the final
    /// frame on every outgoing link (idempotent). Called by the runtime
    /// once this node's server has fully drained.
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

    /// Whether every peer's leave frame has been received — with per-link
    /// FIFO this means no peer will send anything further.
    pub fn all_peers_left(&self) -> bool {
        self.shared.leaves_received.load(Ordering::SeqCst) >= self.num_nodes - 1
    }

    /// This node's current liveness view of its peers.
    pub fn membership(&self) -> MembershipView {
        let now = self.shared.now_ms();
        self.shared.tracker.lock().view(now)
    }

    /// Snapshot of the socket-level traffic counters.
    pub fn wire_counters(&self) -> WireCounters {
        self.shared.counters.snapshot()
    }

    /// Test hook: suspend (or resume) this node's heartbeat emission so
    /// liveness transitions can be driven deterministically.
    pub fn pause_heartbeats(&self, paused: bool) {
        self.shared.hb_paused.store(paused, Ordering::SeqCst);
    }

    /// Tear the link down: stop the heartbeat thread, flush and close every
    /// outgoing connection, and join all socket threads. Idempotent. Safe
    /// to call only after the protocol has quiesced (leave handshake done);
    /// messages sent after `finish` panic as "destination dropped".
    pub fn finish(&self) {
        if self.finished.swap(true, Ordering::SeqCst) {
            return;
        }
        // 1. Stop heartbeats; the heartbeat thread owns writer-sender
        //    clones, so it must exit before dropping ours disconnects the
        //    writer channels.
        self.shared.hb_stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.hb_handle.lock().take() {
            let _ = h.join();
        }
        // 2. Close the write side: writers drain their queues (flushing
        //    any final leave frame) and close their sockets, which EOFs
        //    the peers' readers.
        *self.writers.lock() = None;
        for h in self.writer_handles.lock().drain(..) {
            let _ = h.join();
        }
        // 3. The acceptor exited once all peers dialed in (or its deadline
        //    passed).
        if let Some(h) = self.acceptor.lock().take() {
            let _ = h.join();
        }
        // 4. Stop readers: each exits at EOF or at its next read timeout.
        self.shared.reader_stop.store(true, Ordering::SeqCst);
        for h in self.reader_handles.lock().drain(..) {
            let _ = h.join();
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

/// Fill `buf` from `stream`, riding out read timeouts without losing
/// partial frames. Returns `Ok(false)` on a clean stop — EOF or a stop
/// request arriving **between** frames (`filled == 0`); EOF mid-frame is
/// an error.
fn read_full(stream: &mut TcpStream, buf: &mut [u8], stop: &AtomicBool) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(false)
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "peer closed the connection mid-frame",
                    ))
                };
            }
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == io::ErrorKind::TimedOut || e.kind() == io::ErrorKind::WouldBlock =>
            {
                if stop.load(Ordering::SeqCst) && filled == 0 {
                    return Ok(false);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

fn spawn_acceptor<M: Send + 'static>(
    listener: TcpListener,
    shared: Arc<LinkShared<M>>,
    reader_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
    decode_env: fn(&[u8]) -> Result<Envelope<M>, WireError>,
    num_nodes: usize,
    config: TcpConfig,
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
        let deadline = Instant::now() + config.connect_timeout;
        let mut accepted = 0;
        while accepted < expected {
            match listener.accept() {
                Ok((stream, _)) => match prepare_incoming(stream, &shared, &config, num_nodes) {
                    Ok((stream, peer)) => {
                        let handle = spawn_reader(stream, peer, Arc::clone(&shared), decode_env);
                        reader_handles.lock().push(handle);
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
                    if Instant::now() >= deadline || shared.reader_stop.load(Ordering::SeqCst) {
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

/// Read and validate the hello handshake on a freshly accepted connection.
fn prepare_incoming<M: Send + 'static>(
    stream: TcpStream,
    shared: &Arc<LinkShared<M>>,
    config: &TcpConfig,
    num_nodes: usize,
) -> io::Result<(TcpStream, NodeId)> {
    let mut stream = stream;
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(config.io_timeout))?;
    let frame = match read_one_frame(&mut stream, shared)? {
        Some(frame) => frame,
        None => {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before hello",
            ))
        }
    };
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
    // The hello is the rejoin point: a peer already latched dead must
    // present a strictly greater incarnation or the connection is refused
    // — a silently-resumed process never resurrects into the membership.
    if !shared
        .tracker
        .lock()
        .record_rejoin(hello.node, hello.incarnation, shared.now_ms())
    {
        return Err(bad(format!(
            "rejected hello from dead peer {} (stale incarnation {})",
            hello.node, hello.incarnation
        )));
    }
    Ok((stream, hello.node))
}

/// Read one length-prefixed frame (the bytes after the length prefix).
/// Returns `Ok(None)` on clean EOF / stop between frames.
fn read_one_frame<M: Send + 'static>(
    stream: &mut TcpStream,
    shared: &Arc<LinkShared<M>>,
) -> io::Result<Option<Vec<u8>>> {
    if shared.reader_stop.load(Ordering::SeqCst) {
        return Ok(None);
    }
    let mut len_buf = [0u8; 4];
    if !read_full(stream, &mut len_buf, &shared.reader_stop)? {
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
    if !read_full(stream, &mut frame, &shared.reader_stop)? {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-frame",
        ));
    }
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
        let frame = match read_one_frame(&mut stream, &shared) {
            Ok(Some(frame)) => frame,
            Ok(None) => return,
            Err(e) => {
                // A malformed or broken link degrades: stop reading and
                // let the liveness tracker classify the peer. Never panic
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
        shared
            .tracker
            .lock()
            .record_frame(peer, kind == FrameKind::Heartbeat, shared.now_ms());
        match kind {
            FrameKind::Heartbeat => {}
            FrameKind::Leave => {
                shared.peer_left[peer.index()].store(true, Ordering::SeqCst);
                shared.leaves_received.fetch_add(1, Ordering::SeqCst);
                // A leave can complete the teardown condition of an already
                // drained node — wake it so the event-driven server re-checks
                // `all_peers_left`.
                shared.wake_self();
            }
            FrameKind::Hello => {
                // Duplicate hello after the handshake: ignore.
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
                // A peer that announced its leave closes its sockets as
                // soon as its own teardown runs; failing to push further
                // heartbeats at it is expected, not link degradation.
                if !shared.peer_left[peer.index()].load(Ordering::SeqCst) {
                    eprintln!(
                        "tcp fabric: node {}: write to {peer} failed: {e}",
                        shared.node
                    );
                }
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

fn spawn_heartbeat<M: Send + 'static>(
    writer_txs: Vec<Sender<Vec<u8>>>,
    shared: Arc<LinkShared<M>>,
    interval: Duration,
) -> JoinHandle<()> {
    thread::spawn(move || {
        let slice = Duration::from_millis(1);
        let mut since_beat = interval; // beat immediately on start
        while !shared.hb_stop.load(Ordering::SeqCst) {
            if since_beat >= interval {
                since_beat = Duration::ZERO;
                if !shared.hb_paused.load(Ordering::SeqCst) {
                    for tx in &writer_txs {
                        if tx.send(encode_control(FrameKind::Heartbeat)).is_ok() {
                            shared
                                .counters
                                .heartbeats_sent
                                .fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
            thread::sleep(slice);
            since_beat += slice;
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::PeerLiveness;
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

    fn local_fabric(
        num_nodes: usize,
        config: TcpConfig,
    ) -> (Vec<TcpEndpoint<u64>>, StatsCollector) {
        let stats = StatsCollector::new();
        let fabric = TcpFabric::bind_local::<U64Codec>(
            num_nodes,
            NetworkParams::fast_ethernet(),
            stats.clone(),
            config,
        )
        .expect("bind 127.0.0.1 fabric");
        (fabric.into_endpoints(), stats)
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

    /// Poll until `cond` holds or a generous deadline passes.
    fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn send_and_receive_over_real_sockets() {
        let (eps, stats) = local_fabric(2, TcpConfig::default());
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
        let (eps, _stats) = local_fabric(3, TcpConfig::default());
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
        let (eps, _stats) = local_fabric(1, TcpConfig::default());
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
        let (eps, _stats) = local_fabric(2, TcpConfig::default());
        eps[0].send(NodeId(5), MsgCategory::Control, 0, SimTime::ZERO, 0);
    }

    #[test]
    fn pause_degrades_suspect_then_dead_and_death_is_sticky() {
        let (eps, _stats) = local_fabric(2, TcpConfig::fast_liveness());
        // Heartbeats flow: both sides see each other alive.
        wait_for(
            || eps[0].membership().all_alive() && eps[1].membership().all_alive(),
            "initial all-alive view",
        );
        // Node 0 goes silent: node 1's view degrades to suspect, then dead.
        eps[0].pause_heartbeats(true);
        wait_for(
            || eps[1].membership().liveness(NodeId(0)) == Some(PeerLiveness::Suspect),
            "suspect transition",
        );
        wait_for(
            || eps[1].membership().liveness(NodeId(0)) == Some(PeerLiveness::Dead),
            "dead transition",
        );
        // Node 1 kept beating the whole time, so node 0 still sees it alive.
        assert_eq!(
            eps[0].membership().liveness(NodeId(1)),
            Some(PeerLiveness::Alive)
        );
        // Resumed heartbeats on the old connection do NOT resurrect the
        // peer: the first frame after the silence latches it dead, and it
        // stays dead without an incarnation-fenced rejoin.
        eps[0].pause_heartbeats(false);
        wait_for(
            || {
                let view = eps[1].membership();
                let peer = view.peers.iter().find(|p| p.node == NodeId(0)).unwrap();
                peer.silent_ms < 5 && peer.heartbeats > 0
            },
            "resumed heartbeats observed",
        );
        thread::sleep(Duration::from_millis(20));
        let view = eps[1].membership();
        let peer = view.peers.iter().find(|p| p.node == NodeId(0)).unwrap();
        assert_eq!(
            peer.liveness,
            PeerLiveness::Dead,
            "a silently-resumed peer must stay latched dead"
        );
        assert_eq!(peer.recoveries, 0);
        teardown(&eps);
    }

    #[test]
    fn suspect_recovery_still_works_under_sticky_death() {
        let (eps, _stats) = local_fabric(2, TcpConfig::fast_liveness());
        wait_for(
            || eps[0].membership().all_alive() && eps[1].membership().all_alive(),
            "initial all-alive view",
        );
        // Pause just long enough to go suspect, then resume well before
        // the dead threshold: the peer recovers and counts a recovery.
        eps[0].pause_heartbeats(true);
        wait_for(
            || eps[1].membership().liveness(NodeId(0)) == Some(PeerLiveness::Suspect),
            "suspect transition",
        );
        eps[0].pause_heartbeats(false);
        wait_for(
            || eps[1].membership().liveness(NodeId(0)) == Some(PeerLiveness::Alive),
            "recovery from suspect",
        );
        let view = eps[1].membership();
        let peer = view.peers.iter().find(|p| p.node == NodeId(0)).unwrap();
        assert!(peer.recoveries >= 1);
        assert!(peer.heartbeats > 0);
        teardown(&eps);
    }

    #[test]
    fn payload_traffic_counts_as_liveness_signal() {
        let (eps, _stats) = local_fabric(2, TcpConfig::fast_liveness());
        eps[0].pause_heartbeats(true);
        // Keep sending payloads; the peer must stay alive on payload
        // traffic alone for well past the dead threshold.
        let deadline = Instant::now() + Duration::from_millis(400);
        while Instant::now() < deadline {
            eps[0].send(NodeId(1), MsgCategory::Control, 0, SimTime::ZERO, 7);
            assert!(eps[1].recv_timeout(Duration::from_secs(1)).is_ok());
            thread::sleep(Duration::from_millis(5));
            assert_eq!(
                eps[1].membership().liveness(NodeId(0)),
                Some(PeerLiveness::Alive)
            );
        }
        eps[0].pause_heartbeats(false);
        teardown(&eps);
    }
}

//! # dsm-runtime — the simulated cluster runtime
//!
//! This crate turns the transport-agnostic protocol engine of `dsm-core`
//! into a running "cluster": one application thread per simulated node,
//! with all nodes' protocol servers multiplexed onto a bounded,
//! event-driven worker pool (see *Execution model* below), connected by
//! the `dsm-net` fabric, with per-node virtual clocks advanced by the
//! Hockney network model and a configurable computation cost model.
//!
//! The programming model mirrors the paper's distributed JVM: the same
//! application closure runs on every node (like a Java thread dispatched to
//! each cluster node), shares objects through typed handles
//! ([`ArrayHandle`], [`ScalarHandle`], [`Matrix2dHandle`]), and
//! synchronizes with distributed locks and barriers. Object access goes
//! through **zero-copy scoped views**: [`NodeCtx::view`] /
//! [`NodeCtx::view_mut`] return guards that `Deref` to `&[T]` / `&mut [T]`
//! borrowed directly from the engine's object storage, so accesses at the
//! home node never copy the payload; dropping a [`WriteView`] arms the
//! twin/diff bookkeeping for the interval's release. Every access and
//! synchronization operation also has a fallible `try_*` form returning
//! [`DsmResult`], so protocol misuse surfaces as a typed
//! [`DsmError`](dsm_objspace::DsmError)
//! instead of a node-thread panic.
//!
//! All coherence traffic, home migrations and statistics fall out of the
//! protocol engine; at the end of a run the [`Cluster`] returns an
//! [`ExecutionReport`] with the virtual execution time, the message/traffic
//! statistics and the protocol counters that the benchmark harness turns
//! into the paper's figures.
//!
//! ## Execution model
//!
//! Application code always gets one real OS thread per node — it blocks on
//! locks, barriers and remote fetches, so it needs one; each such operation
//! is a `dsm_core::step::ClientOp` that the thread runs request by request.
//! Server-side protocol handling does not: a protocol server is a
//! non-blocking message pump (take an inbound envelope, serve it, retry
//! deferrals), idle whenever no message is in flight. The protocol step is
//! `dsm_core::step::serve`, which also runs lossy-run recovery (admission,
//! the reply cache, acks and election answers); the runtime wraps it once,
//! in the per-envelope step `node::serve_envelope` (clock merge, reply
//! completion, `Shutdown`, sends), and a message a node addresses to itself
//! is served inline on the sending thread. There is exactly one way to
//! drive the step per kind of fabric:
//!
//! * **Threaded and TCP fabrics — the wake-on-send executor.** All nodes'
//!   servers are multiplexed onto a bounded worker pool
//!   (`min(available_parallelism, nodes)` workers by default;
//!   [`ClusterBuilder::executor_workers`] overrides). Even `1` worker does
//!   not serialize server-side handling: application threads waiting for
//!   a reply step queued nodes beside it, so the fingerprint reference for
//!   the pool is the sim fabric (below), not a single worker. Every push
//!   onto a node's [`dsm_net::Inbox`] — a threaded send, a TCP self-send, or a TCP socket
//!   reader handing over a frame — marks that node runnable and wakes a
//!   parked worker. A quiet cluster is *silent*: no timer ticks, no idle
//!   polls, workers parked on a condvar, so a 256-node cluster runs on one
//!   machine without 256 server threads. An application thread waiting for
//!   a reply steps queued nodes itself until its reply is in, and no
//!   worker is woken meanwhile: on one CPU a remote fault-in then needs no
//!   OS handoff. On the threaded fabric a reply skips its destination's
//!   inbox: the step that sends it completes the waiting request there,
//!   unless a thread is stepping the destination right now, so a remote
//!   fault-in, flush, acquire or barrier costs one step, the home's or the
//!   manager's. A lock release helps the same way around its one-way
//!   message, and a reply wakes its waiter only if the waiter parked. A
//!   per-node atomic state machine (idle → queued → running, plus a
//!   notified-while-running bit) guarantees no lost wakeups and
//!   one stepper per node, and a handler that defers a Busy message
//!   re-arms the node's runnable bit so the deferral is retried without a
//!   timer. The scheduling counters (steps, helped steps, wakeups, idle
//!   wakeups, high-watermarks) surface in [`ExecutionReport::scheduler`].
//! * **Sim fabric — the sequential virtual-time loop.** The thread that
//!   called [`Cluster::run`] waits until every application thread is
//!   parked, pops the earliest event of the fabric's virtual-time queue,
//!   serves it at its destination node, retries the deferral queues, then
//!   releases the replies the step left in the nodes' reply slots —
//!   re-counting each woken application before it runs — and repeats.
//!   There are no server threads and no inbound queues, so sim runs report
//!   no scheduler. On a lossy config the loop also runs the engines' retry
//!   rounds (`ProtocolEngine::retry_round`): one when the fabric stalls,
//!   after advancing each retrying node's clock by the 50 µs retry timeout,
//!   and one when that timeout passes on a busy network. One event at a
//!   time is what makes a run a pure function of its seed, and it is the
//!   semantic reference every other fabric's results are fingerprinted
//!   against.
//!
//! ## Locking architecture
//!
//! A node's application thread and whichever thread is stepping its
//! protocol server (a worker, or an application thread waiting for its own
//! reply) call the same engine through `&self`. The locks that exist:
//!
//! * **The engine lock** (`dsm-core`): one mutex per node over all of its
//!   protocol state — per-object maps, lock/barrier managers, the election
//!   book and the counters. Every engine call takes it once, for one
//!   protocol transition, and never across application code or a send;
//!   interval-wide operations (`begin_interval`, `prepare_release`,
//!   `finish_release`) see the whole node at one instant. The paper's
//!   nodes are single-CPU machines whose application and protocol handler
//!   share one processor, and one lock per node matches that.
//! * **Reply slots** (this crate): one per node. Its application thread
//!   has at most one request outstanding, so one slot keyed by request id
//!   matches every reply to its waiter — a mutex plus a condvar, no table
//!   and no per-request channel.
//! * **Payload leases** (`dsm-objspace` stores): zero-copy views hold a
//!   read/write guard on one object's payload cell across application code,
//!   *never* an engine lock.
//!
//! **Lock ordering:** there is little to get wrong — the engine lock, the
//! reply slots and the virtual clocks are *leaf* locks; no code path holds
//! two of them at once, and a waiter that steps handlers holds none of them
//! between steps. A handler step holds its node's serve lock (the
//! executor's, one stepper per node) while it sends, so a threaded reply
//! completed in the sending step takes the destination's slot, engine and
//! clock locks, one at a time, under the sender's serve lock; nothing
//! takes a serve lock while holding a leaf. (On the sim, the scheduler
//! re-counts a waiter under its slot lock, which takes the fabric's
//! agent-count lock; the fabric never calls back into the runtime.)
//! Payload guards are the only long-lived acquisition. One is taken under
//! the engine lock only inside an engine call: a view's
//! `lease_read`/`lease_write` plans the access and takes its guard in one
//! critical section (a hit takes the engine lock once), and the server
//! handlers use `try_` acquisition only, so a waiter's own views make the
//! handlers it steps report `Busy`.
//!
//! ## Release path & flush batching
//!
//! When an interval releases (a lock release or barrier arrival), the
//! engine's `prepare_release` produces one flush plan per dirty object and
//! the context propagates each diff to its believed home. Under the paper's
//! cost model the per-message start-up time `t0` dominates on
//! Fast-Ethernet-class interconnects, so an interval that wrote k objects
//! homed on the same node would pay k start-ups where one suffices. The
//! runtime therefore **batches by default**
//! ([`ClusterBuilder::flush_batching`] restores the paper-faithful
//! unbatched wire behaviour):
//!
//! * **When batches form:** the flush plans are grouped by believed home
//!   (deterministically — groups ordered by node, entries by object id);
//!   every group of two or more travels as a single `DiffBatch` message,
//!   paying one start-up plus the summed byte cost. Singleton groups take
//!   the classic one-`DiffFlush` path, so single-object intervals (the
//!   synthetic benchmark, counters) are wire-identical in both modes.
//!   `dsm_core::step::release_ops` decides this, here and in the
//!   thread-free `dsm_core::world::World`.
//! * **Partial redirects:** the home of an individual entry can migrate
//!   between `prepare_release` and the batch's arrival. The receiver
//!   resolves every entry independently and the single `DiffBatchAck`
//!   carries per-entry results: applied entries complete immediately, and
//!   each redirected entry is re-planned *individually*, chasing the
//!   epoch-guarded forwarding pointers exactly like a redirected
//!   `DiffFlush` (stale hints are never adopted, so chains cannot cycle).
//! * **Why per-entry Busy deferral keeps deadlock-freedom:** the receiving
//!   server applies batch entries under the same engine lock and
//!   non-blocking payload `try_` locks as individual diffs. An entry whose
//!   payload is leased to a live application view does not block the
//!   server: the already-resolved results are parked server-side and only
//!   the busy remainder is re-queued on the deferral queue, so the server
//!   stays responsive and the argument above (a node blocked on the network
//!   always has a responsive server, and no node fetches while holding
//!   write views) carries over unchanged — the ack is simply sent when the
//!   last entry resolves.
//!
//! The engine counts `batched_flushes` and `batch_entries`
//! (`ProtocolStats`), and the network statistics tag batches with their own
//! `DiffBatch`/`DiffBatchAck` categories: a batch of k entries is **one**
//! message with the k diffs' wire bytes summed, which is what the modeled
//! message-count and traffic figures (and the CI benchmark gate) measure.
//!
//! **Why deferral stays deadlock-free:** a server that finds a payload
//! leased to an application view reports `Busy`; the runtime parks the
//! message on a deferral queue and retries it instead of blocking the
//! server. The retry is event-driven — under the executor a node with
//! deferred work keeps its runnable bit armed (and the application dropping
//! a view re-notifies it); the sim loop retries every deferral queue after
//! each delivery — so a node blocked on the network always has a
//! responsive server, with no timer anywhere.
//! The one remaining cycle — two nodes each waiting for the other's server
//! while their own write leases keep that server deferring — is ruled out
//! on the application side: a context refuses to issue a remote fault-in
//! while it holds any *write* view
//! ([`DsmError::FetchWithLiveWrites`](dsm_objspace::DsmError::FetchWithLiveWrites)),
//! and synchronization operations require full quiescence
//! ([`DsmError::ViewsOutstanding`](dsm_objspace::DsmError::ViewsOutstanding)). Read views are safe to hold across a
//! fetch because serving a fault-in needs only a shared payload lock.
//!
//! ## Transports
//!
//! The cluster runs its protocol traffic over one of three fabrics
//! ([`FabricMode`]); all three present the same sending surface and
//! produce fingerprint-identical workload results — they differ in who
//! schedules delivery and what the messages physically travel over. Modeled
//! virtual time is a pure function of the seed only on the sim; on the
//! threaded and TCP fabrics it depends on the real interleaving:
//!
//! * **Threaded** (the default): in-process channels, all
//!   nodes' protocol servers scheduled by the wake-on-send executor pool,
//!   message interleaving decided by the OS scheduler. Per-link FIFO holds because
//!   each link *is* one channel. Fastest wall-clock on many cores;
//!   schedules are not reproducible run to run.
//! * **Sim** (`FabricMode::Sim(SimConfig::perturbed(seed))`): the deterministic
//!   virtual-time scheduler. Per-link FIFO is enforced by a delivery-time
//!   clamp even under seeded reordering perturbations. Bit-identical
//!   replays from a seed.
//! * **TCP** (`FabricMode::Tcp(TcpConfig::default())`): real `std::net` sockets on
//!   `127.0.0.1`. Every node binds a listener; the mesh is connected at
//!   join time with a hello handshake that carries each node's identity
//!   and expected cluster size. Per-link FIFO holds because all frames
//!   from node *a* to node *b* travel on one dedicated ordered connection,
//!   each written whole by its sender under that link's lock, and read in
//!   order into the node's inbox by whichever thread holds that link's
//!   read lock: a waiting application thread, or the endpoint's one I/O
//!   thread. Messages are encoded with the
//!   `dsm-wire` binary codec (see `dsm-net`'s wire-format docs); modeled
//!   send/arrival times travel inside each frame, but the receiver merges
//!   them in real-time arrival order. Teardown is an orderly leave
//!   handshake: a `Leave` frame means "this node's application is done",
//!   and a node closes its sockets only after every peer's leave has
//!   arrived, so no node closes a socket a peer still reads. In an
//!   in-process cluster the leave is the last frame on its link; a
//!   multi-process worker ([`Cluster::run_tcp_worker`]) leaves when its
//!   own application is done and may still send replies after it.
//!
//! ## Testing & determinism: picking a fabric, replaying a seed
//!
//! **Replaying a failure:** a sim run is a pure function of (cluster
//! config, application, fabric seed). The report's
//! [`ExecutionReport::delivery_trace`] records every delivery; the same
//! seed reproduces it bit-identically, so a failing seed from a sweep *is*
//! the reproduction recipe — re-run with that seed (optionally
//! `DSM_TRACE=1`) and the identical schedule unfolds. The seed corpus is
//! defined once, as `dsm_util::seed_corpus` (with [`SimConfig::modeled_sims`]
//! the schedules modeled claims are checked under); every seeded suite in
//! the workspace draws from it, and `DSM_SEEDS=0x1,0x2,...` overrides it to
//! sweep new schedules without touching code.
//!
//! **Lossy presets — testing the fault path:** [`SimConfig::lossy`]`(seed)`
//! layers fault injection on top of the perturbed preset: 1% seeded
//! per-link message drops plus one partition/heal cycle on virtual time;
//! the `drop_rate`, `partition` and `pause` fields (or
//! [`SimConfig::with_pause`]) compose the individual fault kinds (a [`PauseSpec`] is a node crash: every
//! message to or from the node inside the window is lost). Whenever a
//! configuration can lose messages ([`SimConfig::is_lossy`]), the runtime
//! arms every engine's recovery (`ProtocolEngine::with_recovery`; the
//! rules live in `dsm-core`): every request a node sends to another node
//! gets a virtual-time retry timeout with **idempotent, server-side
//! deduplicated retransmissions** (replies are cached per request id and
//! re-sent, so a retry can never double-apply), and a request aimed at a
//! home that stays dark past the failover threshold triggers a
//! **deterministic home re-election** at the object's arbiter — the winner
//! is fenced by a new home epoch, the deposed home is demoted on its first
//! contact with the new epoch, and the requester transparently re-aims at
//! the winner.
//! Everything stays bit-identically replayable: drops are part of the
//! seeded schedule, and the delivery trace records them
//! ([`DeliveryTrace::drops`], one [`DropRecord`] with its [`DropReason`]
//! per lost message) so the teardown reconciliation still accounts for
//! every send. A run that exhausts its retries panics with a diagnostic
//! that lists the injected drops — distinguishing "the fault injection ate
//! the protocol's patience" from a genuine lossless deadlock.
//!
//! **Adding a conformance-matrix cell:** the policy × workload grid lives
//! in `dsm-bench`'s `matrix` module (used by `tests/tests/sim_matrix.rs`
//! and the `sim_matrix` binary). A new workload is one more
//! `MatrixWorkload` entry (name + small-parameter runner returning a result
//! fingerprint); a new policy is one more row in `matrix::policies()` —
//! every cell is then automatically swept under the seed corpus, asserting
//! checksum conformance with the threaded fabric, replay determinism and
//! the protocol invariants.
//!
//! **Pluggable migration policies:** `ProtocolConfig::with_migration`
//! (the config goes to [`ClusterBuilder::protocol`]) accepts any policy
//! value — the paper's (`AdaptiveThresholdPolicy::paper()`,
//! `FixedThresholdPolicy::new(2)`, ...), the beyond-the-paper ones
//! (`HysteresisPolicy`, `EwmaWriteRatioPolicy`) or a custom
//! `HomeMigrationPolicy` impl — or an `Arc` of one (see `dsm_core::policy`
//! for the trait contract and determinism rules).
//! `ProtocolConfig::with_object_policy` pins a different policy to a single
//! object, so one cluster can run a policy × object experiment grid; the
//! per-run decision telemetry (considered vs. taken decisions,
//! migrate-backs, threshold trajectory) is merged into
//! [`ExecutionReport::policy_telemetry`].
//!
//! ```no_run
//! use dsm_runtime::Cluster;
//! use dsm_core::{HysteresisPolicy, ProtocolConfig};
//! use dsm_objspace::{HomeAssignment, LockId};
//!
//! // Chainable, seeded construction; the builder owns the registry.
//! let mut builder = Cluster::builder()
//!     .nodes(4)
//!     .protocol(ProtocolConfig::adaptive().with_migration(HysteresisPolicy::default()))
//!     .seed(2004)
//!     .default_home(HomeAssignment::Master);
//! let counter = builder.register_array::<u64>("counter", 1);
//! let report = builder.build().run(move |ctx| {
//!     let lock = LockId::derive("counter.lock");
//!     for _ in 0..10 {
//!         ctx.acquire(lock);
//!         // Zero-copy write view: borrows the engine's storage in place.
//!         ctx.view_mut(&counter)[0] += 1;
//!         ctx.release(lock);
//!     }
//! });
//! assert!(report.execution_time.as_micros() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod ctx;
mod exec;
mod handle;
mod node;
mod report;
mod sim;
mod vclock;
mod view;

pub use cluster::{Cluster, ClusterBuilder, FabricMode};
pub use ctx::NodeCtx;
pub use dsm_net::{
    DeliveryRecord, DeliveryTrace, DropReason, DropRecord, PartitionSpec, PauseSpec, SimConfig,
    TcpConfig,
};
pub use dsm_objspace::DsmResult;
pub use handle::{ArrayHandle, Matrix2dHandle, ScalarHandle};
pub use report::{ExecutionReport, SchedulerReport};
pub use view::{ReadView, WriteView};

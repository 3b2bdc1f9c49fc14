//! The deterministic simulation fabric.
//!
//! Where the threaded [`crate::Fabric`] hands every message to the OS
//! scheduler (each node's channel is drained whenever an executor worker
//! happens to step it), the [`SimFabric`] owns delivery itself: every send is
//! parked in one virtual-time-ordered event queue, and a single scheduler
//! thread (the runtime's sim server loop) pops events one at a time, only
//! when every application agent is parked. Execution therefore proceeds as
//! one deterministic sequence of `(deliver event, run woken agents to their
//! next blocking point)` steps:
//!
//! * **Replayable:** the pop order depends only on the virtual delivery
//!   times and a fixed tie-break `(deliver_at, src, dst, link_seq)`, all of
//!   which are pure functions of the seed and the application — the same
//!   seed reproduces a bit-identical [`DeliveryTrace`].
//! * **Perturbable:** seeded [`LinkPerturbation`]s (latency jitter, bounded
//!   reordering, bursty delay spikes) reshape delivery times per link, so a
//!   seed sweep explores genuinely different message interleavings — while
//!   a per-link monotonicity clamp preserves the protocol's per-link FIFO
//!   ordering assumption (see `dsm-core`'s ordering notes).
//! * **Event-driven:** the scheduler blocks on a condition variable until
//!   the cluster is quiescent; there are no poll-interval sleeps anywhere
//!   in sim mode.
//! * **Lossy (opt-in):** a [`SimConfig`] may additionally describe message
//!   *loss* — seeded per-link random drops ([`SimConfig::drop_rate`]), one
//!   [`PartitionSpec`] partition/heal cycle and one [`PauseSpec`] node
//!   crash window, all decided at send time as pure functions of the seed
//!   and virtual time. Drops consume their per-link sequence number and
//!   are recorded as [`DropRecord`]s on the [`DeliveryTrace`], so lossy
//!   runs replay bit-identically and diagnostics can attribute every gap.
//!
//! The quiescence protocol is a simple activity count: every application
//! thread is one *agent*, counted active until it parks on a reply
//! ([`SimEndpoint::agent_blocked`]) and re-counted when the scheduler wakes
//! it ([`SimEndpoint::agent_unblocked`]); [`SimFabric::next_step`] waits
//! for the count to reach zero before popping, so at every delivery point
//! the set of in-flight messages is complete and the choice deterministic.

use crate::category::MsgCategory;
use crate::envelope::{Envelope, MESSAGE_HEADER_BYTES};
use crate::stats::StatsCollector;
use dsm_model::{NetworkParams, SimDuration, SimTime};
use dsm_objspace::NodeId;
use dsm_util::SmallRng;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex};

// ----------------------------------------------------------------------
// Perturbations
// ----------------------------------------------------------------------

/// A pluggable, seeded delivery-time perturbation.
///
/// For every message the fabric calls every installed perturbation with the
/// message's link and base (Hockney) latency plus the link's private RNG
/// stream, and adds the returned extra delays to the delivery time. The
/// fabric then clamps the result so deliveries on one link never overtake
/// each other — implementations may stretch time arbitrarily without being
/// able to violate per-link FIFO ordering.
///
/// Determinism contract: the extra delay must be a pure function of the
/// arguments (the RNG stream is per-link and advances only through these
/// calls), so a seed replays bit-identically.
pub trait LinkPerturbation: Send {
    /// Extra delivery delay for one message on `src → dst`.
    fn extra_delay(
        &mut self,
        src: NodeId,
        dst: NodeId,
        base: SimDuration,
        rng: &mut SmallRng,
    ) -> SimDuration;
}

/// Multiplicative latency jitter: each message is delayed by an extra
/// `U[0, max_factor] × base` drawn from the link's stream — a crude but
/// effective per-link latency distribution.
#[derive(Debug, Clone, Copy)]
pub struct LatencyJitter {
    /// Upper bound of the uniform extra-delay factor.
    pub max_factor: f64,
}

impl LinkPerturbation for LatencyJitter {
    fn extra_delay(
        &mut self,
        _src: NodeId,
        _dst: NodeId,
        base: SimDuration,
        rng: &mut SmallRng,
    ) -> SimDuration {
        base * (rng.next_f64() * self.max_factor)
    }
}

/// Bounded reordering: with probability `probability` a message is held
/// back by an extra `U[0, hold_factor] × base`, letting later messages on
/// *other* links overtake it (same-link overtaking is prevented by the
/// fabric's FIFO clamp). The hold is bounded, so no message is starved.
#[derive(Debug, Clone, Copy)]
pub struct BoundedReorder {
    /// Probability that a message is held back.
    pub probability: f64,
    /// Upper bound of the hold, as a multiple of the base latency.
    pub hold_factor: f64,
}

impl LinkPerturbation for BoundedReorder {
    fn extra_delay(
        &mut self,
        _src: NodeId,
        _dst: NodeId,
        base: SimDuration,
        rng: &mut SmallRng,
    ) -> SimDuration {
        // Both variates are always drawn so the stream position does not
        // depend on earlier outcomes (keeps traces stable under small
        // probability edits).
        let hit = rng.next_f64() < self.probability;
        let hold = rng.next_f64() * self.hold_factor;
        if hit {
            base * hold
        } else {
            SimDuration::ZERO
        }
    }
}

/// Bursty delay spikes: with probability `probability` a link enters a
/// burst during which the next `length` messages on it are each delayed by
/// `factor × base` — the congested-switch / flaky-cable pattern.
#[derive(Debug, Clone)]
pub struct DelayBursts {
    /// Probability that a (non-bursting) link starts a burst on a send.
    pub probability: f64,
    /// Number of messages a burst lasts.
    pub length: u32,
    /// Delay multiplier applied during a burst.
    pub factor: f64,
    /// Remaining burst length per link.
    remaining: HashMap<(u16, u16), u32>,
}

impl DelayBursts {
    /// A burst perturbation with the given start probability, length and
    /// delay factor.
    pub fn new(probability: f64, length: u32, factor: f64) -> Self {
        DelayBursts {
            probability,
            length,
            factor,
            remaining: HashMap::new(),
        }
    }
}

impl LinkPerturbation for DelayBursts {
    fn extra_delay(
        &mut self,
        src: NodeId,
        dst: NodeId,
        base: SimDuration,
        rng: &mut SmallRng,
    ) -> SimDuration {
        let slot = self.remaining.entry((src.0, dst.0)).or_insert(0);
        let roll = rng.next_f64();
        if *slot == 0 && roll < self.probability {
            *slot = self.length;
        }
        if *slot > 0 {
            *slot -= 1;
            base * self.factor
        } else {
            SimDuration::ZERO
        }
    }
}

/// One network partition / heal cycle on virtual time: while `sent_at` is
/// inside `[from, until)`, any message whose endpoints sit on opposite
/// sides of `mask` is dropped at send time. Bit `i` of `mask` selects the
/// side node `i` belongs to; the partition heals by itself once virtual
/// time moves past `until` (retransmissions carry later send times).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionSpec {
    /// Virtual time the partition starts (inclusive).
    pub from: SimTime,
    /// Virtual time the partition heals (exclusive).
    pub until: SimTime,
    /// Side assignment: bit `i` set ⇒ node `i` is on side B.
    pub mask: u64,
}

impl PartitionSpec {
    fn cuts(&self, src: NodeId, dst: NodeId, sent_at: SimTime) -> bool {
        if sent_at < self.from || sent_at >= self.until {
            return false;
        }
        let side = |n: NodeId| (self.mask >> (n.0 as u64 % 64)) & 1;
        side(src) != side(dst)
    }
}

/// A node pause (crash window) on virtual time: while `sent_at` is inside
/// `[from, until)`, every message to *or* from `node` is dropped — the
/// node neither receives nor is heard from, exactly like a crashed or
/// wedged host. Self-sends are exempt (a node always reaches itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PauseSpec {
    /// The paused node.
    pub node: u16,
    /// Virtual time the pause starts (inclusive).
    pub from: SimTime,
    /// Virtual time the node resumes (exclusive).
    pub until: SimTime,
}

impl PauseSpec {
    fn cuts(&self, src: NodeId, dst: NodeId, sent_at: SimTime) -> bool {
        (src.0 == self.node || dst.0 == self.node) && sent_at >= self.from && sent_at < self.until
    }
}

/// Seeded perturbation configuration for a [`SimFabric`] run — the value
/// version of the pluggable [`LinkPerturbation`] stack, so it can live in a
/// cloneable cluster configuration. `build` instantiates the stack; custom
/// perturbations go through [`SimFabric::with_perturbations`].
///
/// Besides the delay perturbations, a config may describe *loss*: seeded
/// per-link random drops, one partition/heal cycle and one node pause, all
/// decided at send time as pure functions of the seed and virtual time.
/// Any loss makes the config [`SimConfig::is_lossy`], which the runtime
/// uses to arm its timeout/retry machinery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// The fabric seed: per-link RNG streams derive from it.
    pub seed: u64,
    /// [`LatencyJitter::max_factor`] (0 disables jitter).
    pub latency_jitter: f64,
    /// [`BoundedReorder::probability`] (0 disables reordering holds).
    pub reorder_probability: f64,
    /// [`BoundedReorder::hold_factor`].
    pub reorder_hold: f64,
    /// [`DelayBursts::probability`] (0 disables bursts).
    pub burst_probability: f64,
    /// [`DelayBursts::length`].
    pub burst_length: u32,
    /// [`DelayBursts::factor`].
    pub burst_factor: f64,
    /// Per-message random drop probability (0 disables; seeded per link).
    pub drop_rate: f64,
    /// One partition/heal cycle (None disables).
    pub partition: Option<PartitionSpec>,
    /// One node-pause (crash) window (None disables).
    pub pause: Option<PauseSpec>,
}

impl SimConfig {
    /// No perturbations at all: delivery in pure Hockney-model order. The
    /// seed is irrelevant (kept for labelling); use this to compare the sim
    /// fabric against the threaded fabric at identical virtual timings.
    pub fn calm(seed: u64) -> Self {
        SimConfig {
            seed,
            latency_jitter: 0.0,
            reorder_probability: 0.0,
            reorder_hold: 0.0,
            burst_probability: 0.0,
            burst_length: 0,
            burst_factor: 0.0,
            drop_rate: 0.0,
            partition: None,
            pause: None,
        }
    }

    /// The default seed-sweep configuration: mild jitter, occasional
    /// bounded holds and rare short bursts — enough schedule diversity that
    /// distinct seeds produce distinct delivery orders on any workload with
    /// real concurrency.
    pub fn perturbed(seed: u64) -> Self {
        SimConfig {
            seed,
            latency_jitter: 0.5,
            reorder_probability: 0.05,
            reorder_hold: 4.0,
            burst_probability: 0.02,
            burst_length: 4,
            burst_factor: 6.0,
            drop_rate: 0.0,
            partition: None,
            pause: None,
        }
    }

    /// An adversarial configuration: heavy jitter, frequent holds and long
    /// bursts, for stress sweeps hunting ordering bugs.
    pub fn stormy(seed: u64) -> Self {
        SimConfig {
            seed,
            latency_jitter: 2.0,
            reorder_probability: 0.2,
            reorder_hold: 8.0,
            burst_probability: 0.1,
            burst_length: 8,
            burst_factor: 12.0,
            drop_rate: 0.0,
            partition: None,
            pause: None,
        }
    }

    /// The default *lossy* sweep configuration: [`SimConfig::perturbed`]
    /// delay behaviour plus 1% seeded per-link drops and one early
    /// partition/heal cycle splitting the low half of the cluster from the
    /// high half. The window is narrow relative to the runtime's failover
    /// threshold, so a partition forces retries but never a (spurious)
    /// home re-election.
    pub fn lossy(seed: u64) -> Self {
        SimConfig {
            drop_rate: 0.01,
            partition: Some(PartitionSpec {
                from: SimTime::from_micros(150.0),
                until: SimTime::from_micros(350.0),
                mask: 0b0011,
            }),
            ..SimConfig::perturbed(seed)
        }
    }

    /// Random drop probability `p` on every link (builder style).
    pub fn with_drop_rate(mut self, p: f64) -> Self {
        self.drop_rate = p;
        self
    }

    /// One partition/heal cycle (builder style).
    pub fn with_partition(mut self, partition: PartitionSpec) -> Self {
        self.partition = Some(partition);
        self
    }

    /// One node-pause window (builder style).
    pub fn with_pause(mut self, pause: PauseSpec) -> Self {
        self.pause = Some(pause);
        self
    }

    /// Whether this configuration can lose messages — the signal the
    /// runtime uses to arm timeouts, retries and home re-election.
    pub fn is_lossy(&self) -> bool {
        self.drop_rate > 0.0 || self.partition.is_some() || self.pause.is_some()
    }

    /// Instantiate the perturbation stack this configuration describes.
    pub fn build(&self) -> Vec<Box<dyn LinkPerturbation>> {
        let mut stack: Vec<Box<dyn LinkPerturbation>> = Vec::new();
        if self.latency_jitter > 0.0 {
            stack.push(Box::new(LatencyJitter {
                max_factor: self.latency_jitter,
            }));
        }
        if self.reorder_probability > 0.0 {
            stack.push(Box::new(BoundedReorder {
                probability: self.reorder_probability,
                hold_factor: self.reorder_hold,
            }));
        }
        if self.burst_probability > 0.0 && self.burst_length > 0 {
            stack.push(Box::new(DelayBursts::new(
                self.burst_probability,
                self.burst_length,
                self.burst_factor,
            )));
        }
        stack
    }
}

// ----------------------------------------------------------------------
// Delivery traces
// ----------------------------------------------------------------------

/// One delivered message, as recorded by the scheduler in pop order. All
/// fields are exact integers, so trace equality is bit-identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// Zero-based delivery index.
    pub seq: u64,
    /// Sending node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Message category.
    pub category: MsgCategory,
    /// Wire size (payload + header) in bytes.
    pub wire_bytes: u64,
    /// Virtual send time.
    pub sent_at: SimTime,
    /// Virtual delivery time (after perturbations and the FIFO clamp).
    pub deliver_at: SimTime,
    /// Per-link send sequence number (0-based, per `src → dst`).
    pub link_seq: u64,
}

/// Why the fabric dropped a message at send time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Seeded per-link random loss ([`SimConfig::drop_rate`]).
    Random,
    /// The endpoints sat on opposite sides of an active [`PartitionSpec`].
    Partition,
    /// One endpoint was inside its [`PauseSpec`] crash window.
    Pause,
}

impl std::fmt::Display for DropReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DropReason::Random => write!(f, "random"),
            DropReason::Partition => write!(f, "partition"),
            DropReason::Pause => write!(f, "pause"),
        }
    }
}

/// One message the fabric dropped, recorded in drop order. Dropped sends
/// still consume their per-link sequence number, so a drop shows up as a
/// `link_seq` gap in the delivery stream — these records are what lets the
/// quiescence diagnostics and the FIFO checker tell an injected drop from
/// a genuine protocol stall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DropRecord {
    /// Zero-based drop index.
    pub seq: u64,
    /// Sending node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Message category.
    pub category: MsgCategory,
    /// Wire size (payload + header) in bytes.
    pub wire_bytes: u64,
    /// Virtual send time.
    pub sent_at: SimTime,
    /// Per-link send sequence number the drop consumed.
    pub link_seq: u64,
    /// Why the message was dropped.
    pub reason: DropReason,
}

/// The complete delivery history of one sim-fabric run, in delivery order.
///
/// Two runs of the same seed must produce `==` traces; two different seeds
/// typically differ at least in [`DeliveryTrace::order_signature`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeliveryTrace {
    /// The delivered messages, in delivery order.
    pub records: Vec<DeliveryRecord>,
    /// The dropped messages, in drop (send) order. Empty on lossless runs.
    pub drops: Vec<DropRecord>,
}

impl DeliveryTrace {
    /// Number of delivered messages.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing was delivered.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// An FNV-1a fingerprint over every field of every record — a compact
    /// stand-in for full trace equality in assertion messages and logs.
    pub fn checksum(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |value: u64| {
            hash ^= value;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for r in &self.records {
            mix(r.seq);
            mix(u64::from(r.src.0));
            mix(u64::from(r.dst.0));
            mix(r.category as u64);
            mix(r.wire_bytes);
            mix(r.sent_at.as_nanos());
            mix(r.deliver_at.as_nanos());
            mix(r.link_seq);
        }
        mix(self.records.len() as u64);
        for d in &self.drops {
            mix(d.seq);
            mix(u64::from(d.src.0));
            mix(u64::from(d.dst.0));
            mix(d.category as u64);
            mix(d.wire_bytes);
            mix(d.sent_at.as_nanos());
            mix(d.link_seq);
            mix(d.reason as u64);
        }
        mix(self.drops.len() as u64);
        hash
    }

    /// The pure delivery *order* — `(src, dst, link_seq)` per delivery,
    /// with all timing stripped. Two seeds "provably yield different
    /// delivery orders" exactly when their signatures differ.
    pub fn order_signature(&self) -> Vec<(u16, u16, u64)> {
        self.records
            .iter()
            .map(|r| (r.src.0, r.dst.0, r.link_seq))
            .collect()
    }

    /// Verify the per-link FIFO guarantee: on every link, deliveries occur
    /// in send order (`link_seq` ascending) at non-decreasing delivery
    /// times. `link_seq` gaps are allowed only where every skipped
    /// sequence number is accounted for by a [`DropRecord`] on the same
    /// link. Returns the offending record index on violation.
    pub fn per_link_fifo_violation(&self) -> Option<usize> {
        let mut dropped: HashMap<(u16, u16), HashSet<u64>> = HashMap::new();
        for d in &self.drops {
            dropped
                .entry((d.src.0, d.dst.0))
                .or_default()
                .insert(d.link_seq);
        }
        let empty = HashSet::new();
        // Next expected link_seq and latest delivery time per link.
        let mut last: HashMap<(u16, u16), (u64, SimTime)> = HashMap::new();
        for (i, r) in self.records.iter().enumerate() {
            let link = (r.src.0, r.dst.0);
            let gaps = dropped.get(&link).unwrap_or(&empty);
            let (mut expected, at) = last.get(&link).copied().unwrap_or((0, SimTime::ZERO));
            while expected < r.link_seq && gaps.contains(&expected) {
                expected += 1;
            }
            if r.link_seq != expected || r.deliver_at < at {
                return Some(i);
            }
            last.insert(link, (r.link_seq + 1, r.deliver_at));
        }
        None
    }
}

// ----------------------------------------------------------------------
// The fabric
// ----------------------------------------------------------------------

/// One message parked in the virtual-time event queue. Ordered as a
/// min-heap over the deterministic key `(deliver_at, src, dst, link_seq)`;
/// the key is total (same-link events differ in `link_seq`, distinct links
/// differ in `(src, dst)`), so the pop order never depends on push order.
struct SimEvent<M> {
    deliver_at: SimTime,
    link_seq: u64,
    envelope: Envelope<M>,
}

impl<M> SimEvent<M> {
    fn key(&self) -> (SimTime, u16, u16, u64) {
        (
            self.deliver_at,
            self.envelope.src.0,
            self.envelope.dst.0,
            self.link_seq,
        )
    }
}

impl<M> PartialEq for SimEvent<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<M> Eq for SimEvent<M> {}
impl<M> PartialOrd for SimEvent<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for SimEvent<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: `BinaryHeap` is a max-heap, we want the earliest event.
        other.key().cmp(&self.key())
    }
}

/// Per-link bookkeeping: the link's RNG stream, send counter and the FIFO
/// clamp (latest scheduled delivery).
struct LinkState {
    rng: SmallRng,
    next_seq: u64,
    last_deliver: SimTime,
}

/// What the scheduler should do next (see [`SimFabric::next_step`]).
pub enum SimStep<M> {
    /// Deliver this message to its destination's protocol logic.
    Deliver(Envelope<M>),
    /// No event is pending but some application agents are still alive (all
    /// of them parked): the caller should retry deferred work, and treat
    /// "no progress possible" as a protocol deadlock.
    Stalled,
    /// Every application agent has finished and no event is pending.
    Drained,
}

/// The loss model a fabric applies at send time (all lossless by default).
#[derive(Debug, Clone, Copy, Default)]
struct LossSpec {
    drop_rate: f64,
    partition: Option<PartitionSpec>,
    pause: Option<PauseSpec>,
}

impl LossSpec {
    /// Decide whether a send is lost. Self-sends are never dropped: a node
    /// that can still run can always reach its own server, and the
    /// post-election self-serve path depends on it. Precedence is
    /// pause > partition > random; the random variate is drawn whenever
    /// `drop_rate > 0` regardless of the outcome, so the per-link stream
    /// position does not depend on window boundaries.
    fn drops(
        &self,
        src: NodeId,
        dst: NodeId,
        sent_at: SimTime,
        rng: &mut SmallRng,
    ) -> Option<DropReason> {
        let random = self.drop_rate > 0.0 && rng.next_f64() < self.drop_rate;
        if src == dst {
            return None;
        }
        if let Some(p) = &self.pause {
            if p.cuts(src, dst, sent_at) {
                return Some(DropReason::Pause);
            }
        }
        if let Some(p) = &self.partition {
            if p.cuts(src, dst, sent_at) {
                return Some(DropReason::Partition);
            }
        }
        if random {
            return Some(DropReason::Random);
        }
        None
    }
}

struct SimState<M> {
    queue: BinaryHeap<SimEvent<M>>,
    links: HashMap<(u16, u16), LinkState>,
    perturbations: Vec<Box<dyn LinkPerturbation>>,
    loss: LossSpec,
    /// Application agents currently runnable (not parked, not finished).
    active: usize,
    /// Application agents that have finished for good.
    finished: usize,
    sent: u64,
    delivered: u64,
    dropped: u64,
    trace: Vec<DeliveryRecord>,
    drops: Vec<DropRecord>,
    seed: u64,
}

struct SimCore<M> {
    state: Mutex<SimState<M>>,
    quiescent: Condvar,
    num_nodes: usize,
    params: NetworkParams,
    stats: StatsCollector,
}

/// The deterministic, seeded, event-driven simulation fabric. See the
/// module documentation for the execution model.
pub struct SimFabric<M> {
    core: Arc<SimCore<M>>,
}

/// One node's attachment to a [`SimFabric`]: sending, and the agent
/// park/wake notifications the quiescence protocol needs.
pub struct SimEndpoint<M> {
    core: Arc<SimCore<M>>,
    node: NodeId,
}

impl<M> std::fmt::Debug for SimFabric<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimFabric")
            .field("num_nodes", &self.core.num_nodes)
            .finish_non_exhaustive()
    }
}

impl<M> std::fmt::Debug for SimEndpoint<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimEndpoint")
            .field("node", &self.node)
            .finish_non_exhaustive()
    }
}

impl<M: Send> SimFabric<M> {
    /// Build a sim fabric for `num_nodes` nodes with the perturbation stack
    /// described by `config`. The activity count starts at `num_nodes`: one
    /// agent per (about to be spawned) application thread.
    ///
    /// # Panics
    /// Panics if `num_nodes` is zero.
    pub fn new(
        num_nodes: usize,
        params: NetworkParams,
        stats: StatsCollector,
        config: SimConfig,
    ) -> Self {
        let fabric =
            Self::with_perturbations(num_nodes, params, stats, config.seed, config.build());
        fabric
            .core
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .loss = LossSpec {
            drop_rate: config.drop_rate,
            partition: config.partition,
            pause: config.pause,
        };
        fabric
    }

    /// As [`SimFabric::new`], but with an explicit (possibly custom)
    /// perturbation stack.
    ///
    /// # Panics
    /// Panics if `num_nodes` is zero.
    pub fn with_perturbations(
        num_nodes: usize,
        params: NetworkParams,
        stats: StatsCollector,
        seed: u64,
        perturbations: Vec<Box<dyn LinkPerturbation>>,
    ) -> Self {
        assert!(num_nodes > 0, "cluster must have at least one node");
        SimFabric {
            core: Arc::new(SimCore {
                state: Mutex::new(SimState {
                    queue: BinaryHeap::new(),
                    links: HashMap::new(),
                    perturbations,
                    loss: LossSpec::default(),
                    active: num_nodes,
                    finished: 0,
                    sent: 0,
                    delivered: 0,
                    dropped: 0,
                    trace: Vec::new(),
                    drops: Vec::new(),
                    seed,
                }),
                quiescent: Condvar::new(),
                num_nodes,
                params,
                stats,
            }),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.core.num_nodes
    }

    /// The endpoints, one per node in node order.
    pub fn endpoints(&self) -> Vec<SimEndpoint<M>> {
        (0..self.core.num_nodes)
            .map(|i| SimEndpoint {
                core: Arc::clone(&self.core),
                node: NodeId::from(i),
            })
            .collect()
    }

    /// Block until the cluster is quiescent (no application agent
    /// runnable), then pop the earliest pending event — the scheduler's
    /// one-step primitive. Event-driven: waits on a condition variable, no
    /// polling.
    pub fn next_step(&self) -> SimStep<M> {
        let mut state = self.core.state.lock().unwrap_or_else(|e| e.into_inner());
        while state.active > 0 {
            state = self
                .core
                .quiescent
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
        if let Some(event) = state.queue.pop() {
            let seq = state.delivered;
            state.delivered += 1;
            state.trace.push(DeliveryRecord {
                seq,
                src: event.envelope.src,
                dst: event.envelope.dst,
                category: event.envelope.category,
                wire_bytes: event.envelope.wire_bytes,
                sent_at: event.envelope.sent_at,
                deliver_at: event.deliver_at,
                link_seq: event.link_seq,
            });
            SimStep::Deliver(event.envelope)
        } else if state.finished == self.core.num_nodes {
            SimStep::Drained
        } else {
            SimStep::Stalled
        }
    }

    /// Block until the cluster is quiescent, then report the virtual time
    /// of the earliest pending event **without popping it** (`None` when
    /// the queue is drained). This is the scheduler's timer primitive:
    /// before committing to a pop, the runtime compares the head's due
    /// time against its retry deadline and fires timed retransmission
    /// rounds first. Deciding on the un-popped head at the quiescence
    /// point is what keeps lossy traces a pure function of the seed.
    pub fn peek_due(&self) -> Option<SimTime> {
        let mut state = self.core.state.lock().unwrap_or_else(|e| e.into_inner());
        while state.active > 0 {
            state = self
                .core
                .quiescent
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
        state.queue.peek().map(|event| event.deliver_at)
    }

    /// Re-count one parked agent as runnable (scheduler side: called for
    /// every buffered wake before the reply is actually sent, so the
    /// quiescence count can never under-report a running application
    /// thread).
    pub fn agent_unblocked(&self) {
        let mut state = self.core.state.lock().unwrap_or_else(|e| e.into_inner());
        state.active += 1;
    }

    /// Count one application agent as finished for good (same counter the
    /// endpoints report into; offered on the fabric so run guards do not
    /// need to hold an endpoint).
    pub fn agent_finished(&self) {
        let mut state = self.core.state.lock().unwrap_or_else(|e| e.into_inner());
        state.active = state
            .active
            .checked_sub(1)
            .expect("sim agent parked more often than it ran");
        state.finished += 1;
        if state.active == 0 {
            self.core.quiescent.notify_all();
        }
    }

    /// Messages sent so far.
    pub fn sent_count(&self) -> u64 {
        self.core
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .sent
    }

    /// `(sent, delivered, dropped, still queued)` message counts. Every
    /// send ends up in exactly one of the last three buckets, so at
    /// teardown `sent == delivered + dropped` and `queued == 0`.
    pub fn counters(&self) -> (u64, u64, u64, usize) {
        let state = self.core.state.lock().unwrap_or_else(|e| e.into_inner());
        (
            state.sent,
            state.delivered,
            state.dropped,
            state.queue.len(),
        )
    }

    /// The messages dropped so far, in drop order (a snapshot; the run's
    /// full drop history also rides on [`SimFabric::take_trace`]).
    pub fn drops(&self) -> Vec<DropRecord> {
        self.core
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drops
            .clone()
    }

    /// Take the delivery trace recorded so far (leaves an empty trace).
    ///
    /// Drop records are canonicalised to `(sent_at, src, dst, link_seq)`
    /// order and renumbered: drops are recorded at *send* time, and send
    /// interleaving across nodes is the one thing that is not a pure
    /// function of the seed (several application threads may send
    /// concurrently). The canonical key makes the drop half of the trace
    /// seed-pure again without losing any information.
    pub fn take_trace(&self) -> DeliveryTrace {
        let mut state = self.core.state.lock().unwrap_or_else(|e| e.into_inner());
        let mut drops = std::mem::take(&mut state.drops);
        drops.sort_by_key(|d| (d.sent_at, d.src.0, d.dst.0, d.link_seq));
        for (seq, drop) in drops.iter_mut().enumerate() {
            drop.seq = seq as u64;
        }
        DeliveryTrace {
            records: std::mem::take(&mut state.trace),
            drops,
        }
    }
}

impl<M: Send> SimEndpoint<M> {
    /// The node this endpoint belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Number of nodes reachable through this endpoint (including itself).
    pub fn num_nodes(&self) -> usize {
        self.core.num_nodes
    }

    /// Send `payload` of `payload_bytes` bytes to `dst` at virtual time
    /// `sent_at`. The scheduled delivery time is the Hockney arrival plus
    /// the seeded perturbation delays, clamped so deliveries on this link
    /// stay in send order. Returns the scheduled delivery time.
    ///
    /// # Panics
    /// Panics if `dst` is out of range.
    pub fn send(
        &self,
        dst: NodeId,
        category: MsgCategory,
        payload_bytes: u64,
        sent_at: SimTime,
        payload: M,
    ) -> SimTime {
        assert!(
            dst.index() < self.core.num_nodes,
            "destination {dst} out of range"
        );
        let wire_bytes = payload_bytes + MESSAGE_HEADER_BYTES;
        let base = self.core.params.hockney.latency(wire_bytes);
        self.core.stats.record(self.node, category, wire_bytes);
        let mut state = self.core.state.lock().unwrap_or_else(|e| e.into_inner());
        let seed = state.seed;
        let src = self.node;
        // Split-borrow: the perturbation stack and the link map live side by
        // side in the state.
        let state = &mut *state;
        let link = state.links.entry((src.0, dst.0)).or_insert_with(|| {
            // One private SplitMix64 stream per directed link, derived from
            // the fabric seed: the draws a link sees depend only on its own
            // send sequence, never on cross-link send interleaving.
            let link_id = (u64::from(src.0) << 16) | u64::from(dst.0);
            LinkState {
                rng: SmallRng::seed_from_u64(
                    seed ^ link_id.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1),
                ),
                next_seq: 0,
                last_deliver: SimTime::ZERO,
            }
        });
        // Loss is decided before the delay draws: a dropped message
        // consumes its link_seq (so the gap is visible and attributable)
        // but no delay variates and no FIFO-clamp update.
        if let Some(reason) = state.loss.drops(src, dst, sent_at, &mut link.rng) {
            let link_seq = link.next_seq;
            link.next_seq += 1;
            state.sent += 1;
            let seq = state.dropped;
            state.dropped += 1;
            state.drops.push(DropRecord {
                seq,
                src,
                dst,
                category,
                wire_bytes,
                sent_at,
                link_seq,
                reason,
            });
            return sent_at;
        }
        let extra: SimDuration = state
            .perturbations
            .iter_mut()
            .map(|p| p.extra_delay(src, dst, base, &mut link.rng))
            .sum();
        // The FIFO clamp: a perturbed message never overtakes an earlier
        // message on its own link.
        let deliver_at = (sent_at + base + extra).max(link.last_deliver);
        link.last_deliver = deliver_at;
        let link_seq = link.next_seq;
        link.next_seq += 1;
        state.sent += 1;
        state.queue.push(SimEvent {
            deliver_at,
            link_seq,
            envelope: Envelope {
                src,
                dst,
                category,
                wire_bytes,
                sent_at,
                arrival: deliver_at,
                payload,
            },
        });
        deliver_at
    }

    /// Count this node's application agent as parked (about to block on a
    /// reply). Called *after* the triggering request has been sent.
    pub fn agent_blocked(&self) {
        self.park(false);
    }

    /// Re-count this node's application agent as runnable; the inverse of
    /// [`SimEndpoint::agent_blocked`], used by app-stack local deliveries
    /// (the matching park follows immediately).
    pub fn agent_unblocked(&self) {
        let mut state = self.core.state.lock().unwrap_or_else(|e| e.into_inner());
        state.active += 1;
    }

    /// Count this node's application agent as finished for good.
    pub fn agent_finished(&self) {
        self.park(true);
    }

    fn park(&self, finished: bool) {
        let mut state = self.core.state.lock().unwrap_or_else(|e| e.into_inner());
        state.active = state
            .active
            .checked_sub(1)
            .expect("sim agent parked more often than it ran");
        if finished {
            state.finished += 1;
        }
        if state.active == 0 {
            self.core.quiescent.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric(config: SimConfig) -> SimFabric<u32> {
        SimFabric::new(
            3,
            NetworkParams::fast_ethernet(),
            StatsCollector::new(),
            config,
        )
    }

    /// Drive a fixed little exchange and return the trace: three messages
    /// from two sources, all agents parked in between.
    fn run_exchange(config: SimConfig) -> DeliveryTrace {
        let fab = fabric(config);
        let eps = fab.endpoints();
        // Sends happen "concurrently" at the same virtual time.
        eps[0].send(NodeId(2), MsgCategory::Control, 64, SimTime::ZERO, 1);
        eps[1].send(NodeId(2), MsgCategory::Control, 64, SimTime::ZERO, 2);
        eps[0].send(NodeId(2), MsgCategory::Control, 64, SimTime::ZERO, 3);
        for ep in &eps {
            ep.agent_finished();
        }
        loop {
            match fab.next_step() {
                SimStep::Deliver(_) => {}
                SimStep::Drained => break,
                SimStep::Stalled => panic!("exchange cannot stall"),
            }
        }
        let (sent, delivered, dropped, queued) = fab.counters();
        assert_eq!(sent, 3);
        assert_eq!(delivered + dropped, 3);
        assert_eq!(queued, 0);
        fab.take_trace()
    }

    #[test]
    fn same_seed_same_trace_bit_identical() {
        let a = run_exchange(SimConfig::perturbed(7));
        let b = run_exchange(SimConfig::perturbed(7));
        assert_eq!(a, b);
        assert_eq!(a.checksum(), b.checksum());
    }

    #[test]
    fn calm_config_delivers_in_pure_hockney_order() {
        let t = run_exchange(SimConfig::calm(0));
        // Equal send times and sizes: ties break on (src, dst, link_seq).
        assert_eq!(t.order_signature(), vec![(0, 2, 0), (0, 2, 1), (1, 2, 0)]);
        assert_eq!(t.per_link_fifo_violation(), None);
    }

    #[test]
    fn per_link_fifo_survives_heavy_perturbation() {
        for seed in 0..16 {
            let fab = fabric(SimConfig::stormy(seed));
            let eps = fab.endpoints();
            for i in 0..50u32 {
                eps[0].send(NodeId(1), MsgCategory::Diff, 256, SimTime::ZERO, i);
            }
            for ep in &eps {
                ep.agent_finished();
            }
            let mut payloads = Vec::new();
            loop {
                match fab.next_step() {
                    SimStep::Deliver(env) => payloads.push(env.payload),
                    SimStep::Drained => break,
                    SimStep::Stalled => panic!("cannot stall"),
                }
            }
            assert_eq!(
                payloads,
                (0..50).collect::<Vec<_>>(),
                "seed {seed}: same-link messages must stay in send order"
            );
            assert_eq!(fab.take_trace().per_link_fifo_violation(), None);
        }
    }

    #[test]
    fn distinct_seeds_can_reorder_across_links() {
        let base = run_exchange(SimConfig::perturbed(1));
        let mut diverged = false;
        for seed in 2..12 {
            if run_exchange(SimConfig::perturbed(seed)).order_signature() != base.order_signature()
            {
                diverged = true;
                break;
            }
        }
        assert!(
            diverged,
            "ten perturbation seeds should produce at least one different delivery order"
        );
    }

    #[test]
    fn quiescence_gates_delivery() {
        let fab: SimFabric<u8> = SimFabric::new(
            1,
            NetworkParams::ideal(),
            StatsCollector::new(),
            SimConfig::calm(0),
        );
        let eps = fab.endpoints();
        eps[0].send(NodeId(0), MsgCategory::Control, 0, SimTime::ZERO, 9);
        // The single agent is still active: next_step would block. Park it
        // from another thread after a moment and observe delivery.
        let ep = SimEndpoint {
            core: Arc::clone(&eps[0].core),
            node: NodeId(0),
        };
        let waiter = std::thread::spawn(move || match fab.next_step() {
            SimStep::Deliver(env) => env.payload,
            _ => panic!("expected a delivery"),
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        ep.agent_finished();
        assert_eq!(waiter.join().unwrap(), 9);
    }

    #[test]
    fn stalled_vs_drained() {
        let fab: SimFabric<u8> = SimFabric::new(
            2,
            NetworkParams::ideal(),
            StatsCollector::new(),
            SimConfig::calm(0),
        );
        let eps = fab.endpoints();
        // One agent parks (blocked), one finishes: quiescent but not done.
        eps[0].agent_blocked();
        eps[1].agent_finished();
        assert!(matches!(fab.next_step(), SimStep::Stalled));
        // The blocked agent is woken and finishes: drained.
        eps[0].agent_unblocked();
        eps[0].agent_finished();
        assert!(matches!(fab.next_step(), SimStep::Drained));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sending_to_unknown_node_panics() {
        let fab: SimFabric<u8> = SimFabric::new(
            2,
            NetworkParams::ideal(),
            StatsCollector::new(),
            SimConfig::calm(0),
        );
        fab.endpoints()[0].send(NodeId(7), MsgCategory::Control, 0, SimTime::ZERO, 0);
    }

    /// Send `n` messages 0 → 1 under `config` and return the trace.
    fn run_lossy(config: SimConfig, n: u32) -> DeliveryTrace {
        let fab = fabric(config);
        let eps = fab.endpoints();
        for i in 0..n {
            eps[0].send(NodeId(1), MsgCategory::Diff, 128, SimTime::ZERO, i);
        }
        for ep in &eps {
            ep.agent_finished();
        }
        loop {
            match fab.next_step() {
                SimStep::Deliver(_) => {}
                SimStep::Drained => break,
                SimStep::Stalled => panic!("cannot stall"),
            }
        }
        let (sent, delivered, dropped, queued) = fab.counters();
        assert_eq!(sent, u64::from(n));
        assert_eq!(delivered + dropped, u64::from(n));
        assert_eq!(queued, 0);
        fab.take_trace()
    }

    #[test]
    fn random_drops_are_seeded_and_replayable() {
        let config = SimConfig::calm(11).with_drop_rate(0.1);
        let a = run_lossy(config, 200);
        let b = run_lossy(config, 200);
        assert!(!a.drops.is_empty(), "10% of 200 sends should drop some");
        assert!(a.drops.len() < 200, "and deliver the rest");
        assert_eq!(a, b, "same seed must replay drops bit-identically");
        assert_eq!(a.checksum(), b.checksum());
        assert!(a.drops.iter().all(|d| d.reason == DropReason::Random));
        // A different seed picks different victims.
        let c = run_lossy(SimConfig::calm(12).with_drop_rate(0.1), 200);
        assert_ne!(
            a.drops.iter().map(|d| d.link_seq).collect::<Vec<_>>(),
            c.drops.iter().map(|d| d.link_seq).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn fifo_check_tolerates_drop_gaps_but_not_reorders() {
        let t = run_lossy(SimConfig::calm(11).with_drop_rate(0.1), 200);
        assert_eq!(t.per_link_fifo_violation(), None);
        // Strip the drop records: the gaps become unexplained violations.
        let stripped = DeliveryTrace {
            records: t.records.clone(),
            drops: Vec::new(),
        };
        assert!(stripped.per_link_fifo_violation().is_some());
    }

    #[test]
    fn partition_window_cuts_cross_side_links_then_heals() {
        let spec = PartitionSpec {
            from: SimTime::ZERO,
            until: SimTime::from_micros(100.0),
            mask: 0b010, // node 1 alone on side B
        };
        let fab = fabric(SimConfig::calm(0).with_partition(spec));
        let eps = fab.endpoints();
        let inside = SimTime::from_micros(50.0);
        let after = SimTime::from_micros(100.0);
        eps[0].send(NodeId(1), MsgCategory::Control, 0, inside, 1); // cut
        eps[0].send(NodeId(2), MsgCategory::Control, 0, inside, 2); // same side
        eps[1].send(NodeId(0), MsgCategory::Control, 0, inside, 3); // cut
        eps[0].send(NodeId(1), MsgCategory::Control, 0, after, 4); // healed
        for ep in &eps {
            ep.agent_finished();
        }
        let mut delivered = Vec::new();
        loop {
            match fab.next_step() {
                SimStep::Deliver(env) => delivered.push(env.payload),
                SimStep::Drained => break,
                SimStep::Stalled => panic!("cannot stall"),
            }
        }
        delivered.sort_unstable();
        assert_eq!(delivered, vec![2, 4]);
        let t = fab.take_trace();
        assert_eq!(t.drops.len(), 2);
        assert!(t.drops.iter().all(|d| d.reason == DropReason::Partition));
        assert_eq!(t.per_link_fifo_violation(), None);
    }

    #[test]
    fn paused_node_is_cut_both_ways_but_self_sends_survive() {
        let spec = PauseSpec {
            node: 1,
            from: SimTime::ZERO,
            until: SimTime::from_micros(100.0),
        };
        let fab = fabric(SimConfig::calm(0).with_pause(spec));
        let eps = fab.endpoints();
        let inside = SimTime::from_micros(10.0);
        eps[0].send(NodeId(1), MsgCategory::Control, 0, inside, 1); // to paused
        eps[1].send(NodeId(2), MsgCategory::Control, 0, inside, 2); // from paused
        eps[1].send(NodeId(1), MsgCategory::Control, 0, inside, 3); // self: exempt
        eps[0].send(NodeId(2), MsgCategory::Control, 0, inside, 4); // uninvolved
        for ep in &eps {
            ep.agent_finished();
        }
        let mut delivered = Vec::new();
        loop {
            match fab.next_step() {
                SimStep::Deliver(env) => delivered.push(env.payload),
                SimStep::Drained => break,
                SimStep::Stalled => panic!("cannot stall"),
            }
        }
        delivered.sort_unstable();
        assert_eq!(delivered, vec![3, 4]);
        let t = fab.take_trace();
        assert!(t.drops.iter().all(|d| d.reason == DropReason::Pause));
    }

    #[test]
    fn lossless_presets_are_not_lossy_and_lossy_is() {
        assert!(!SimConfig::calm(1).is_lossy());
        assert!(!SimConfig::perturbed(1).is_lossy());
        assert!(!SimConfig::stormy(1).is_lossy());
        assert!(SimConfig::lossy(1).is_lossy());
        assert!(SimConfig::calm(1).with_drop_rate(0.5).is_lossy());
    }

    #[test]
    fn drop_records_are_canonicalised_in_the_trace() {
        let t = run_lossy(SimConfig::calm(11).with_drop_rate(0.1), 200);
        let mut keys: Vec<_> = t
            .drops
            .iter()
            .map(|d| (d.sent_at, d.src.0, d.dst.0, d.link_seq))
            .collect();
        let sorted = {
            let mut s = keys.clone();
            s.sort();
            s
        };
        assert_eq!(keys, sorted, "drops must come out in canonical order");
        keys.dedup();
        assert_eq!(keys.len(), t.drops.len());
        for (i, d) in t.drops.iter().enumerate() {
            assert_eq!(d.seq, i as u64, "drop seq must match canonical order");
        }
    }
}

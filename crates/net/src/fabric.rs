//! The channel-based full-mesh fabric connecting node threads.
//!
//! Each simulated cluster node owns one [`Endpoint`]. Sending stamps the
//! envelope with the Hockney-model arrival time, records statistics, and
//! enqueues it on the destination's unbounded channel and fires the
//! [`WakeHub`]; whoever serves the destination (the runtime's executor)
//! drains the channel. The fabric performs no protocol logic.

use crate::category::MsgCategory;
use crate::envelope::{Envelope, MESSAGE_HEADER_BYTES};
use crate::stats::StatsCollector;
use dsm_model::{NetworkParams, SimTime};
use dsm_objspace::NodeId;
use dsm_util::channel::{unbounded, Receiver, Sender};
use std::sync::{Arc, OnceLock};

/// A hook the fabric fires after enqueuing a message: `wake(dst)` marks the
/// destination node runnable so an event-driven server (the runtime's
/// executor) can react to the arrival instead of polling for it.
///
/// Implementations must be cheap and non-blocking — the hook runs on the
/// sender's thread, inside `send`, after the envelope is already queued.
/// That ordering is the no-lost-wakeup contract: by the time `wake` fires,
/// a drain of the destination's queue is guaranteed to see the message.
pub trait WakeNotifier: Send + Sync {
    /// Mark `node` as having (possibly) runnable protocol work.
    fn wake(&self, node: NodeId);
}

/// Shared, late-bound slot for a [`WakeNotifier`].
///
/// The fabric is built before the executor that wants the notifications
/// exists, so every endpoint carries a clone of this hub and the runtime
/// installs the notifier once the executor is up. Wakes fired before
/// installation are dropped — installers must schedule every node once
/// after installing to cover that window.
#[derive(Clone, Default)]
pub struct WakeHub {
    slot: Arc<OnceLock<Arc<dyn WakeNotifier>>>,
}

impl WakeHub {
    /// Install the notifier. The first installation wins; later calls are
    /// ignored (the hub is shared by every endpoint clone, and the runtime
    /// installs exactly once per run).
    pub fn install(&self, notifier: Arc<dyn WakeNotifier>) {
        let _ = self.slot.set(notifier);
    }

    /// Fire the notifier for `node`, if one is installed.
    pub(crate) fn wake(&self, node: NodeId) {
        if let Some(notifier) = self.slot.get() {
            notifier.wake(node);
        }
    }

    /// Whether a notifier has been installed.
    pub(crate) fn is_installed(&self) -> bool {
        self.slot.get().is_some()
    }
}

impl std::fmt::Debug for WakeHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WakeHub")
            .field("installed", &self.is_installed())
            .finish()
    }
}

/// Factory for the endpoints of an `n`-node cluster.
#[derive(Debug)]
pub struct Fabric<M> {
    endpoints: Vec<Endpoint<M>>,
}

/// One node's attachment to the fabric.
#[derive(Debug)]
pub struct Endpoint<M> {
    node: NodeId,
    params: NetworkParams,
    senders: Vec<Sender<Envelope<M>>>,
    receiver: Receiver<Envelope<M>>,
    stats: StatsCollector,
    wake_hub: WakeHub,
}

impl<M: Send> Fabric<M> {
    /// Build a fully connected fabric for `num_nodes` nodes with the given
    /// network parameters and a shared statistics collector.
    ///
    /// # Panics
    /// Panics if `num_nodes` is zero.
    pub fn new(num_nodes: usize, params: NetworkParams, stats: StatsCollector) -> Self {
        assert!(num_nodes > 0, "cluster must have at least one node");
        let mut senders = Vec::with_capacity(num_nodes);
        let mut receivers = Vec::with_capacity(num_nodes);
        for _ in 0..num_nodes {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        let wake_hub = WakeHub::default();
        let endpoints = receivers
            .into_iter()
            .enumerate()
            .map(|(i, receiver)| Endpoint {
                node: NodeId::from(i),
                params,
                senders: senders.clone(),
                receiver,
                stats: stats.clone(),
                wake_hub: wake_hub.clone(),
            })
            .collect();
        Fabric { endpoints }
    }

    /// Take ownership of all endpoints (one per node, in node order); called
    /// once by the runtime when spawning node threads.
    pub fn into_endpoints(self) -> Vec<Endpoint<M>> {
        self.endpoints
    }
}

impl<M: Send> Endpoint<M> {
    /// The node this endpoint belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Send `payload` of `payload_bytes` bytes to `dst`. `sent_at` is the
    /// sender's current virtual time; the arrival stamp adds the Hockney
    /// latency for the wire size (payload + fixed header).
    ///
    /// Returns the arrival time so the caller can account for blocking
    /// round trips.
    ///
    /// # Panics
    /// Panics if `dst` is out of range or if the destination endpoint has
    /// been dropped (the cluster is shutting down while messages are still
    /// being sent — a protocol bug).
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
        let envelope = Envelope {
            src: self.node,
            dst,
            category,
            wire_bytes,
            sent_at,
            arrival,
            payload,
        };
        let delivered = self
            .senders
            .get(dst.index())
            .unwrap_or_else(|| panic!("destination {dst} out of range"))
            .send(envelope)
            .is_ok();
        assert!(
            delivered,
            "destination endpoint dropped while cluster is running"
        );
        // Enqueue-before-wake: the destination is marked runnable only once
        // a drain of its queue is guaranteed to find the envelope.
        self.wake_hub.wake(dst);
        arrival
    }

    /// Blocking receive of the next incoming message (the runtime drains
    /// with [`try_recv`](Self::try_recv); the tests block).
    #[cfg(test)]
    fn recv(&self) -> Option<Envelope<M>> {
        self.receiver.recv()
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Envelope<M>> {
        self.receiver.try_recv()
    }

    /// Number of messages currently queued for this node.
    pub fn pending(&self) -> usize {
        self.receiver.len()
    }

    /// Deepest this node's inbound queue has ever been.
    pub fn queue_high_watermark(&self) -> usize {
        self.receiver.max_len()
    }

    /// The wake hub shared by every endpoint of the owning fabric.
    pub fn wake_hub(&self) -> WakeHub {
        self.wake_hub.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fabric_builds_one_endpoint_per_node() {
        let fabric: Fabric<u32> = Fabric::new(4, NetworkParams::ideal(), StatsCollector::new());
        let eps = fabric.into_endpoints();
        assert_eq!(eps.len(), 4);
        for (i, ep) in eps.iter().enumerate() {
            assert_eq!(ep.node(), NodeId::from(i));
            assert_eq!(ep.senders.len(), 4);
        }
    }

    #[test]
    fn send_and_receive_between_nodes() {
        let stats = StatsCollector::new();
        let fabric: Fabric<String> = Fabric::new(2, NetworkParams::fast_ethernet(), stats.clone());
        let mut eps = fabric.into_endpoints();
        let ep1 = eps.pop().unwrap();
        let ep0 = eps.pop().unwrap();

        let arrival = ep0.send(
            NodeId(1),
            MsgCategory::ObjRequest,
            8,
            SimTime::from_micros(5.0),
            "hello".to_string(),
        );
        let env = ep1.recv().expect("message should arrive");
        assert_eq!(env.src, NodeId(0));
        assert_eq!(env.dst, NodeId(1));
        assert_eq!(env.payload, "hello");
        assert_eq!(env.arrival, arrival);
        assert!(
            env.arrival > env.sent_at,
            "Hockney latency must be positive"
        );
        assert_eq!(env.wire_bytes, 8 + MESSAGE_HEADER_BYTES);

        let snap = stats.snapshot();
        assert_eq!(snap.total_messages(), 1);
        assert_eq!(snap.total_bytes(), 8 + MESSAGE_HEADER_BYTES);
    }

    #[test]
    fn self_send_is_allowed() {
        // The protocol never needs it, but the fabric supports loop-back
        // delivery (used by some tests).
        let fabric: Fabric<u8> = Fabric::new(1, NetworkParams::ideal(), StatsCollector::new());
        let ep = fabric.into_endpoints().pop().unwrap();
        ep.send(NodeId(0), MsgCategory::Control, 0, SimTime::ZERO, 9);
        assert_eq!(ep.recv().unwrap().payload, 9);
    }

    #[test]
    fn cross_thread_delivery() {
        let fabric: Fabric<u64> = Fabric::new(2, NetworkParams::ideal(), StatsCollector::new());
        let mut eps = fabric.into_endpoints();
        let ep1 = eps.pop().unwrap();
        let ep0 = eps.pop().unwrap();
        let handle = thread::spawn(move || {
            let mut sum = 0;
            for _ in 0..100 {
                sum += ep1.recv().unwrap().payload;
            }
            sum
        });
        for i in 0..100u64 {
            ep0.send(NodeId(1), MsgCategory::Control, 8, SimTime::ZERO, i);
        }
        assert_eq!(handle.join().unwrap(), (0..100).sum::<u64>());
    }

    #[test]
    fn try_recv_and_pending() {
        let fabric: Fabric<u8> = Fabric::new(2, NetworkParams::ideal(), StatsCollector::new());
        let mut eps = fabric.into_endpoints();
        let ep1 = eps.pop().unwrap();
        let ep0 = eps.pop().unwrap();
        assert!(ep1.try_recv().is_none());
        assert_eq!(ep1.pending(), 0);
        ep0.send(NodeId(1), MsgCategory::Control, 0, SimTime::ZERO, 1);
        ep0.send(NodeId(1), MsgCategory::Control, 0, SimTime::ZERO, 2);
        assert_eq!(ep1.pending(), 2);
        assert_eq!(ep1.try_recv().unwrap().payload, 1);
        assert_eq!(ep1.try_recv().unwrap().payload, 2);
    }

    #[test]
    fn wake_hub_fires_destination_after_enqueue() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        struct Recorder {
            wakes: AtomicUsize,
            pending_at_wake: AtomicUsize,
            ep1_pending: Arc<dyn Fn() -> usize + Send + Sync>,
        }
        impl WakeNotifier for Recorder {
            fn wake(&self, node: NodeId) {
                assert_eq!(node, NodeId(1));
                self.wakes.fetch_add(1, Ordering::SeqCst);
                self.pending_at_wake
                    .fetch_max((self.ep1_pending)(), Ordering::SeqCst);
            }
        }

        let fabric: Fabric<u8> = Fabric::new(2, NetworkParams::ideal(), StatsCollector::new());
        let eps: Vec<_> = fabric.into_endpoints().into_iter().map(Arc::new).collect();
        let hub = eps[1].wake_hub();

        // A wake before installation is silently dropped.
        eps[0].send(NodeId(1), MsgCategory::Control, 0, SimTime::ZERO, 1);

        let ep1 = Arc::clone(&eps[1]);
        let recorder = Arc::new(Recorder {
            wakes: AtomicUsize::new(0),
            pending_at_wake: AtomicUsize::new(0),
            ep1_pending: Arc::new(move || ep1.pending()),
        });
        hub.install(Arc::clone(&recorder) as Arc<dyn WakeNotifier>);
        assert!(hub.is_installed());

        eps[0].send(NodeId(1), MsgCategory::Control, 0, SimTime::ZERO, 2);
        assert_eq!(recorder.wakes.load(Ordering::SeqCst), 1);
        // Enqueue-before-wake: the message was visible when the hook ran.
        assert!(recorder.pending_at_wake.load(Ordering::SeqCst) >= 2);
        assert_eq!(eps[1].queue_high_watermark(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sending_to_unknown_node_panics() {
        let fabric: Fabric<u8> = Fabric::new(2, NetworkParams::ideal(), StatsCollector::new());
        let eps = fabric.into_endpoints();
        eps[0].send(NodeId(5), MsgCategory::Control, 0, SimTime::ZERO, 0);
    }
}

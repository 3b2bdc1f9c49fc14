//! The channel-based full-mesh fabric connecting node threads.
//!
//! Each simulated cluster node owns one [`Endpoint`]. Sending stamps the
//! envelope with the Hockney-model arrival time, records statistics, and
//! pushes it onto the destination's [`Inbox`], which wakes the destination;
//! whoever serves the destination (the runtime's executor) drains the
//! inbox. The fabric performs no protocol logic.

use crate::category::MsgCategory;
use crate::envelope::{Envelope, MESSAGE_HEADER_BYTES};
use crate::inbox::Inbox;
use crate::stats::StatsCollector;
use dsm_model::{NetworkParams, SimTime};
use dsm_objspace::NodeId;
use std::sync::Arc;

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
    /// Every node's inbox, in node order, shared by all endpoints.
    inboxes: Arc<[Inbox<M>]>,
    stats: StatsCollector,
}

impl<M: Send> Fabric<M> {
    /// Build a fully connected fabric for `num_nodes` nodes with the given
    /// network parameters and a shared statistics collector.
    ///
    /// # Panics
    /// Panics if `num_nodes` is zero.
    pub fn new(num_nodes: usize, params: NetworkParams, stats: StatsCollector) -> Self {
        assert!(num_nodes > 0, "cluster must have at least one node");
        let inboxes: Arc<[Inbox<M>]> = (0..num_nodes)
            .map(|i| Inbox::new(NodeId::from(i)))
            .collect();
        let endpoints = (0..num_nodes)
            .map(|i| Endpoint {
                node: NodeId::from(i),
                params,
                inboxes: Arc::clone(&inboxes),
                stats: stats.clone(),
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
    /// Panics if `dst` is out of range.
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
        self.inboxes
            .get(dst.index())
            .unwrap_or_else(|| panic!("destination {dst} out of range"))
            .push(envelope);
        arrival
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Envelope<M>> {
        self.inbox().try_recv()
    }

    /// This node's inbox.
    pub fn inbox(&self) -> &Inbox<M> {
        &self.inboxes[self.node.index()]
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
            assert_eq!(ep.inboxes.len(), 4);
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
        let env = ep1.inbox().recv().expect("message should arrive");
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
        assert_eq!(ep.inbox().recv().unwrap().payload, 9);
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
                sum += ep1.inbox().recv().unwrap().payload;
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
        assert_eq!(ep1.inbox().len(), 0);
        ep0.send(NodeId(1), MsgCategory::Control, 0, SimTime::ZERO, 1);
        ep0.send(NodeId(1), MsgCategory::Control, 0, SimTime::ZERO, 2);
        assert_eq!(ep1.inbox().len(), 2);
        assert_eq!(ep1.try_recv().unwrap().payload, 1);
        assert_eq!(ep1.try_recv().unwrap().payload, 2);
    }

    #[test]
    fn send_wakes_destination_after_enqueue() {
        use crate::inbox::WakeNotifier;
        use std::sync::atomic::{AtomicUsize, Ordering};

        struct Recorder {
            wakes: AtomicUsize,
            queued_at_wake: AtomicUsize,
            ep1_queued: Box<dyn Fn() -> usize + Send + Sync>,
        }
        impl WakeNotifier for Recorder {
            fn wake(&self, node: NodeId) {
                assert_eq!(node, NodeId(1));
                self.wakes.fetch_add(1, Ordering::SeqCst);
                self.queued_at_wake
                    .fetch_max((self.ep1_queued)(), Ordering::SeqCst);
            }
        }

        let fabric: Fabric<u8> = Fabric::new(2, NetworkParams::ideal(), StatsCollector::new());
        let eps: Vec<_> = fabric.into_endpoints().into_iter().map(Arc::new).collect();

        // A wake before installation is silently dropped.
        eps[0].send(NodeId(1), MsgCategory::Control, 0, SimTime::ZERO, 1);

        let ep1 = Arc::downgrade(&eps[1]);
        let recorder = Arc::new(Recorder {
            wakes: AtomicUsize::new(0),
            queued_at_wake: AtomicUsize::new(0),
            ep1_queued: Box::new(move || ep1.upgrade().map_or(0, |ep| ep.inbox().len())),
        });
        eps[1]
            .inbox()
            .install_notifier(Arc::clone(&recorder) as Arc<dyn WakeNotifier>);

        eps[0].send(NodeId(1), MsgCategory::Control, 0, SimTime::ZERO, 2);
        assert_eq!(recorder.wakes.load(Ordering::SeqCst), 1);
        // Enqueue-before-wake: the message was visible when the hook ran.
        assert!(recorder.queued_at_wake.load(Ordering::SeqCst) >= 2);
        assert_eq!(eps[1].inbox().high_watermark(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sending_to_unknown_node_panics() {
        let fabric: Fabric<u8> = Fabric::new(2, NetworkParams::ideal(), StatsCollector::new());
        let eps = fabric.into_endpoints();
        eps[0].send(NodeId(5), MsgCategory::Control, 0, SimTime::ZERO, 0);
    }
}

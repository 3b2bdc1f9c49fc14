//! A thread-free driver of the protocol steps, and the second driver of
//! [`crate::step`] beside the runtime's nodes. A [`World`] holds N engines
//! joined by per-link FIFO queues, and its caller decides what happens
//! next: deliver, drop or duplicate the oldest message on a link, run a
//! retry round, or send an operation's next request. [`World::run`]
//! delivers in link order until no message is queued, and
//! [`World::complete`] runs one [`ClientOp`] to its end that way. As in the
//! runtime, a message a node addresses to itself never travels: a request
//! is served at once and a reply lands in the node's slot. Nothing here
//! spawns a thread or reads a clock, so a run is a function of its calls.

use crate::engine::ProtocolEngine;
use crate::messages::ProtocolMsg;
use crate::recovery::RetryRound;
use crate::step::{self, ClientOp, ServeState};
use crate::{AccessPlan, ProtocolConfig};
use dsm_objspace::{NodeId, ObjectId, ObjectRegistry};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// N engines, the messages between them, and one reply slot per node.
#[derive(Debug)]
pub struct World {
    /// The engines, indexed by node.
    pub engines: Vec<ProtocolEngine>,
    /// Each node's serve-side state.
    pub serve: Vec<ServeState>,
    /// The reply each node's waiting operation has not taken yet.
    pub slots: Vec<Option<ProtocolMsg>>,
    /// Every message put on a link, in send order, as `(src, dst, msg)`.
    pub log: Vec<(usize, usize, ProtocolMsg)>,
    /// The redirections a chase run by [`Self::complete`] may take; one
    /// more panics. The runtime's limit ([`step::redirect_limit`]) unless a
    /// test sets a tighter one.
    pub chase_limit: u32,
    /// Whether a release groups its flushes by home, as the runtime does
    /// by default ([`step::release_ops`]).
    pub batching: bool,
    links: BTreeMap<(usize, usize), VecDeque<ProtocolMsg>>,
}

impl World {
    /// `nodes` engines under `config`, sharing `registry`.
    pub fn new(nodes: usize, config: ProtocolConfig, registry: Arc<ObjectRegistry>) -> Self {
        let engines = (0..nodes).map(|i| {
            ProtocolEngine::new(
                NodeId::from(i),
                nodes,
                config.clone(),
                Arc::clone(&registry),
            )
        });
        World {
            engines: engines.collect(),
            serve: (0..nodes).map(|_| ServeState::default()).collect(),
            slots: vec![None; nodes],
            log: Vec::new(),
            chase_limit: step::redirect_limit(nodes),
            batching: true,
            links: BTreeMap::new(),
        }
    }

    /// The world with every engine armed for recovery, as on a lossy
    /// fabric.
    pub fn lossy(mut self) -> Self {
        let engines = self.engines.drain(..).map(ProtocolEngine::with_recovery);
        self.engines = engines.collect();
        self
    }

    /// Messages each node put on a link.
    pub fn sent(&self) -> Vec<usize> {
        let from = |node| self.log.iter().filter(|(src, ..)| *src == node).count();
        (0..self.engines.len()).map(from).collect()
    }

    /// Send a message `src` originates: the runtime's `post`, which tracks
    /// a request to another node for retransmission.
    pub fn post(&mut self, src: usize, dst: NodeId, msg: ProtocolMsg) {
        if dst.index() != src {
            self.engines[src].track(dst, &msg);
        }
        self.send(src, dst, msg);
    }

    /// Put `msg` on the link `src → dst`; to `src` itself, take it in at
    /// once.
    pub fn send(&mut self, src: usize, dst: NodeId, msg: ProtocolMsg) {
        let dst = dst.index();
        if src == dst {
            self.receive(src, dst, msg);
            return;
        }
        self.log.push((src, dst, msg.clone()));
        self.links.entry((src, dst)).or_default().push_back(msg);
    }

    /// Take in `msg` at `dst` as if it arrived from `src`: a reply installs
    /// and waits in the slot, anything else is served. Returns what the
    /// step sends, in order.
    pub fn receive(
        &mut self,
        src: usize,
        dst: usize,
        mut msg: ProtocolMsg,
    ) -> Vec<(NodeId, ProtocolMsg)> {
        if msg.is_reply() {
            step::install_reply(&self.engines[dst], &mut msg);
            self.slots[dst] = Some(msg);
            return Vec::new();
        }
        let mut out = Vec::new();
        step::serve(
            &self.engines[dst],
            &mut self.serve[dst],
            NodeId::from(src),
            msg,
            &mut |to, msg| out.push((to, msg)),
        );
        self.send_all(dst, &out);
        out
    }

    fn send_all(&mut self, src: usize, sends: &[(NodeId, ProtocolMsg)]) {
        for (dst, msg) in sends {
            self.send(src, *dst, msg.clone());
        }
    }

    /// The oldest message on the link `src → dst`, if any.
    pub fn peek(&self, src: usize, dst: usize) -> Option<&ProtocolMsg> {
        self.links.get(&(src, dst)).and_then(VecDeque::front)
    }

    /// Take the oldest message off the link `src → dst` undelivered: the
    /// fabric dropped it.
    ///
    /// # Panics
    /// Panics if the link holds no message.
    pub fn drop_next(&mut self, src: usize, dst: usize) -> ProtocolMsg {
        let link = self.links.get_mut(&(src, dst));
        let msg = link.and_then(VecDeque::pop_front);
        let msg = msg.unwrap_or_else(|| panic!("nothing queued on {src} -> {dst}"));
        if self.links[&(src, dst)].is_empty() {
            self.links.remove(&(src, dst));
        }
        msg
    }

    /// Queue a second copy of the oldest message on `src → dst`.
    pub fn duplicate(&mut self, src: usize, dst: usize) {
        let copy = self.peek(src, dst).expect("a queued message").clone();
        self.links
            .get_mut(&(src, dst))
            .expect("a queued message")
            .push_front(copy);
    }

    /// Deliver the oldest message on the link `src → dst`; returns what the
    /// step that serves it sends.
    pub fn deliver(&mut self, src: usize, dst: usize) -> Vec<(NodeId, ProtocolMsg)> {
        let msg = self.drop_next(src, dst);
        self.receive(src, dst, msg)
    }

    /// Deliver in link order, the oldest message of the first link that
    /// holds one in `(src, dst)` order, until no link holds a message.
    pub fn run(&mut self) {
        while let Some(&(src, dst)) = self.links.keys().next() {
            self.deliver(src, dst);
        }
    }

    /// Run one retry round at `node` and send what it retransmits, as the
    /// runtime does; returns the sends.
    pub fn retry_round(&mut self, node: usize, round: RetryRound) -> Vec<(NodeId, ProtocolMsg)> {
        let sends = self.engines[node].retry_round(round);
        self.send_all(node, &sends);
        sends
    }

    /// Retry `node`'s deferred requests.
    pub fn retry_deferred(&mut self, node: usize) {
        let mut out = Vec::new();
        self.serve[node].retry(&self.engines[node], &mut |dst, msg| out.push((dst, msg)));
        self.send_all(node, &out);
    }

    /// Send `op`'s next request from `node`; returns its destination.
    ///
    /// # Panics
    /// Panics if a fault-in or flush is aimed at `node` itself: the chase's
    /// retarget rule never does that.
    pub fn send_next(&mut self, node: usize, op: &mut ClientOp) -> usize {
        let req = self.engines[node].new_req();
        let (dst, msg) = op.request(&self.engines[node], req);
        let sync = matches!(op, ClientOp::Acquire(_) | ClientOp::Arrive(..));
        assert!(
            sync || dst.index() != node,
            "node {node} aimed {op} at itself"
        );
        self.post(node, dst, msg);
        dst.index()
    }

    /// Hand `node`'s waiting reply to `op`: returns whether `op` is done,
    /// and sends its next request if not.
    pub fn resume(&mut self, node: usize, op: &mut ClientOp) -> bool {
        let reply = self.slots[node].take().expect("a reply is waiting");
        let done = op.on_reply(&self.engines[node], reply);
        if !done {
            self.send_next(node, op);
        }
        done
    }

    /// Run `op` of `node` to its end: send each request and [`Self::run`]
    /// to quiet before the op takes its reply. Returns the redirections it
    /// took.
    ///
    /// # Panics
    /// Panics if a reply never comes or the chase takes more than
    /// [`Self::chase_limit`] redirections.
    pub fn complete(&mut self, node: usize, mut op: ClientOp) -> u32 {
        self.send_next(node, &mut op);
        loop {
            self.run();
            if self.resume(node, &mut op) {
                return op.redirections();
            }
            assert!(
                op.redirections() <= self.chase_limit,
                "{op} did not converge"
            );
        }
    }

    /// Plan an access of `obj` at `node` and, on a miss, fault it in from
    /// its believed home, as an application access does. Returns the
    /// chase's redirections.
    ///
    /// # Panics
    /// Panics if the copy still misses after its fault-in.
    pub fn fault_in(&mut self, node: usize, obj: ObjectId, for_write: bool) -> u32 {
        let plan = |engine: &ProtocolEngine| {
            if for_write {
                engine.plan_write(obj)
            } else {
                engine.plan_read(obj)
            }
        };
        let AccessPlan::Fetch { target } = plan(&self.engines[node]) else {
            return 0;
        };
        let hops = self.complete(node, ClientOp::fault_in(obj, for_write, target));
        let after = plan(&self.engines[node]);
        assert_eq!(
            after,
            AccessPlan::LocalHit,
            "node {node}'s {obj} after its fault-in"
        );
        hops
    }

    /// Release `node`'s interval as the runtime does: every flush runs to
    /// its ack, then the interval closes. Returns the redirections taken.
    pub fn release(&mut self, node: usize) -> u32 {
        let ops = step::release_ops(&self.engines[node], self.batching);
        let hops = ops.into_iter().map(|op| self.complete(node, op)).sum();
        self.engines[node].finish_release();
        hops
    }

    /// One whole write interval of `node`: open it, write `value` into the
    /// first byte of `obj` (faulting it in on a miss) and release it.
    /// Returns the redirections of its fault-in and flushes.
    pub fn write_interval(&mut self, node: usize, obj: ObjectId, value: u8) -> u32 {
        self.engines[node].begin_interval();
        let hops = self.fault_in(node, obj, true);
        self.engines[node].with_object_mut(obj, |data| data.bytes_mut()[0] = value);
        hops + self.release(node)
    }

    /// Whether nothing is queued, waiting or deferred anywhere.
    pub fn quiet(&self) -> bool {
        self.links.is_empty()
            && self.slots.iter().all(Option::is_none)
            && self.serve.iter().all(|serve| serve.deferred() == 0)
    }

    /// The nodes that hold `obj`'s home copy.
    pub fn homes(&self, obj: ObjectId) -> Vec<usize> {
        let engines = self.engines.iter().enumerate();
        engines
            .filter(|(_, e)| e.is_home(obj))
            .map(|(n, _)| n)
            .collect()
    }
}

/// A world indexes its engines by node.
impl std::ops::Index<usize> for World {
    type Output = ProtocolEngine;

    fn index(&self, node: usize) -> &ProtocolEngine {
        &self.engines[node]
    }
}

//! A node's inbound queue on the threaded and TCP fabrics, and the wake
//! hook that makes it event-driven.

use crate::envelope::Envelope;
use dsm_objspace::NodeId;
use dsm_util::channel::{unbounded, Receiver, Sender};
use std::sync::{Arc, OnceLock};

/// A hook an [`Inbox`] fires after enqueuing a message: `wake(node)` marks
/// the owning node runnable so an event-driven server (the runtime's
/// executor) can react to the arrival instead of polling for it.
///
/// Implementations must be cheap and non-blocking — the hook runs on the
/// pushing thread (a sender, or a TCP reader), after the envelope is
/// already queued. That ordering is the no-lost-wakeup contract: by the
/// time `wake` fires, a drain of the node's inbox is guaranteed to see the
/// message.
pub trait WakeNotifier: Send + Sync {
    /// Mark `node` as having (possibly) runnable protocol work.
    fn wake(&self, node: NodeId);
}

/// One node's unbounded inbound queue: every delivery path of the threaded
/// and TCP fabrics (a threaded send, a TCP self-send, a TCP reader) pushes
/// here, and the node's server drains it. It tracks its depth and
/// high-watermark, and carries a late-bound [`WakeNotifier`]: the fabric is
/// built before the executor that wants the notifications exists, so the
/// runtime installs the notifier afterwards. Wakes fired before that are
/// dropped, so installers must schedule the node once after installing to
/// cover the window.
pub struct Inbox<M> {
    node: NodeId,
    tx: Sender<Envelope<M>>,
    rx: Receiver<Envelope<M>>,
    notifier: OnceLock<Arc<dyn WakeNotifier>>,
}

impl<M> Inbox<M> {
    pub(crate) fn new(node: NodeId) -> Self {
        let (tx, rx) = unbounded();
        Inbox {
            node,
            tx,
            rx,
            notifier: OnceLock::new(),
        }
    }

    /// Enqueue `envelope`, then wake the owning node. The inbox owns its
    /// receiver, so the push cannot fail.
    pub(crate) fn push(&self, envelope: Envelope<M>) {
        let queued = self.tx.send(envelope).is_ok();
        debug_assert!(queued, "an inbox keeps its own receiver alive");
        self.wake();
    }

    /// Fire the notifier for the owning node, if one is installed (also
    /// used alone, when a TCP leave frame may complete a drained node's
    /// teardown condition).
    pub(crate) fn wake(&self) {
        if let Some(notifier) = self.notifier.get() {
            notifier.wake(self.node);
        }
    }

    /// Install the wake hook. The first installation wins.
    pub fn install_notifier(&self, notifier: Arc<dyn WakeNotifier>) {
        let _ = self.notifier.set(notifier);
    }

    /// Blocking receive. The inbox keeps its own sender, so this never
    /// returns `None`; once traffic stops it blocks for good.
    pub(crate) fn recv(&self) -> Option<Envelope<M>> {
        self.rx.recv()
    }

    /// Receive with a real-time timeout (the tests' bounded wait).
    #[cfg(test)]
    pub(crate) fn recv_timeout(
        &self,
        timeout: std::time::Duration,
    ) -> Result<Envelope<M>, dsm_util::channel::RecvTimeoutError> {
        self.rx.recv_timeout(timeout)
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Envelope<M>> {
        self.rx.try_recv()
    }

    /// Number of messages currently queued.
    pub(crate) fn len(&self) -> usize {
        self.rx.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.rx.is_empty()
    }

    /// Deepest this inbox has ever been.
    pub fn high_watermark(&self) -> usize {
        self.rx.max_len()
    }
}

impl<M> std::fmt::Debug for Inbox<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inbox")
            .field("node", &self.node)
            .field("len", &self.len())
            .field("installed", &self.notifier.get().is_some())
            .finish()
    }
}

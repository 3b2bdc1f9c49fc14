//! Unbounded multi-producer channels with a `Sync` receiver and a
//! queue-depth counter.
//!
//! Built on `std::sync::mpsc`. Two gaps in the standard channels matter to
//! the simulated cluster fabric and are papered over here: the standard
//! `Receiver` is `!Sync` (ours serializes consumers behind a mutex so an
//! endpoint can live in an `Arc` shared by a node's threads) and it cannot
//! report how many messages are queued (ours keeps an atomic depth counter,
//! which the runtime's shutdown logic polls).

use crate::sync::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// No message arrived within the timeout.
    Timeout,
    /// Every sender has been dropped and the queue is empty.
    Disconnected,
}

/// Error returned by [`Sender::send`] when the receiver is gone; carries the
/// unsent message back to the caller.
#[derive(Debug)]
pub struct SendError<T>(pub T);

/// Sending half of a channel. Cloneable and shareable between threads.
pub struct Sender<T> {
    tx: mpsc::Sender<T>,
    depth: Arc<AtomicUsize>,
    high_watermark: Arc<AtomicUsize>,
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        Sender {
            tx: self.tx.clone(),
            depth: Arc::clone(&self.depth),
            high_watermark: Arc::clone(&self.high_watermark),
        }
    }
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sender").finish_non_exhaustive()
    }
}

impl<T> Sender<T> {
    /// Send a message without blocking. Fails only if the receiver has been
    /// dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let depth = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.high_watermark.fetch_max(depth, Ordering::Relaxed);
        self.tx.send(value).map_err(|e| {
            self.depth.fetch_sub(1, Ordering::Relaxed);
            SendError(e.0)
        })
    }
}

/// Receiving half of a channel. `Sync`: concurrent consumers serialize on an
/// internal mutex.
pub struct Receiver<T> {
    rx: Mutex<mpsc::Receiver<T>>,
    depth: Arc<AtomicUsize>,
    high_watermark: Arc<AtomicUsize>,
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Receiver")
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

impl<T> Receiver<T> {
    fn took(&self, result: Option<T>) -> Option<T> {
        if result.is_some() {
            self.depth.fetch_sub(1, Ordering::Relaxed);
        }
        result
    }

    /// Blocking receive; `None` once every sender is gone and the queue has
    /// drained.
    pub fn recv(&self) -> Option<T> {
        let taken = self.rx.lock().recv().ok();
        self.took(taken)
    }

    /// Receive with a real-time timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let result = self.rx.lock().recv_timeout(timeout);
        match result {
            Ok(value) => {
                self.depth.fetch_sub(1, Ordering::Relaxed);
                Ok(value)
            }
            Err(mpsc::RecvTimeoutError::Timeout) => Err(RecvTimeoutError::Timeout),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(RecvTimeoutError::Disconnected),
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<T> {
        let taken = self.rx.lock().try_recv().ok();
        self.took(taken)
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deepest the queue has ever been: the high-watermark of the depth
    /// counter over the channel's lifetime. The runtime surfaces this per
    /// inbound queue so scheduling stalls (a node falling behind its
    /// arrivals) are observable after the run.
    pub fn max_len(&self) -> usize {
        self.high_watermark.load(Ordering::Relaxed)
    }
}

/// Create an unbounded channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let (tx, rx) = mpsc::channel();
    let depth = Arc::new(AtomicUsize::new(0));
    let high_watermark = Arc::new(AtomicUsize::new(0));
    (
        Sender {
            tx,
            depth: Arc::clone(&depth),
            high_watermark: Arc::clone(&high_watermark),
        },
        Receiver {
            rx: Mutex::new(rx),
            depth,
            high_watermark,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_fifo_and_len() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.len(), 2);
        assert!(!rx.is_empty());
        assert_eq!(rx.try_recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        assert!(rx.is_empty());
        assert_eq!(rx.try_recv(), None);
    }

    #[test]
    fn high_watermark_tracks_peak_depth() {
        let (tx, rx) = unbounded();
        assert_eq!(rx.max_len(), 0);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        tx.send(3).unwrap();
        assert_eq!(rx.max_len(), 3);
        assert_eq!(rx.try_recv(), Some(1));
        assert_eq!(rx.try_recv(), Some(2));
        // Draining never lowers the watermark.
        assert_eq!(rx.max_len(), 3);
        tx.send(4).unwrap();
        // Depth only reached 2 this time; the peak stays 3.
        assert_eq!(rx.len(), 2);
        assert_eq!(rx.max_len(), 3);
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (tx, rx) = unbounded();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(9).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(100)), Ok(9));
    }

    #[test]
    fn disconnect_is_observable() {
        let (tx, rx) = unbounded::<u8>();
        drop(tx);
        assert_eq!(rx.recv(), None);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(RecvTimeoutError::Disconnected)
        );
        let (tx, rx) = unbounded::<u8>();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn cross_thread_delivery() {
        let (tx, rx) = unbounded();
        let producer = std::thread::spawn(move || {
            for i in 0..100u64 {
                tx.send(i).unwrap();
            }
        });
        let mut sum = 0;
        for _ in 0..100 {
            sum += rx.recv().unwrap();
        }
        producer.join().unwrap();
        assert_eq!(sum, (0..100).sum::<u64>());
        assert_eq!(rx.len(), 0);
    }
}

//! A poison-ignoring mutex.
//!
//! The simulated cluster aborts the whole process on any node panic (the
//! runtime re-raises application panics after shutdown), so lock poisoning
//! carries no information here; `lock()` simply recovers the inner value,
//! which gives call sites the ergonomic infallible API they were written
//! against.

/// Guard returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

/// A mutual-exclusion lock with an infallible, poison-ignoring `lock()`.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Wrap a value in a new mutex.
    pub fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, recovering from poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_and_mutate() {
        let m = Mutex::new(1u32);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn shared_across_threads() {
        let m = std::sync::Arc::new(Mutex::new(0u64));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = std::sync::Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 4000);
    }
}

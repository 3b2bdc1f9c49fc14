//! The two operating-system calls the TCP fabric needs and `std` lacks.
//!
//! The fabric reads its incoming links from whichever thread gets there
//! first: a thread with nothing else to do asks which links are readable
//! without blocking, and the endpoint's I/O thread blocks until one is.
//! Both need one readiness call over a set of sockets: [`poll_readable`].
//! The I/O thread is only the fallback reader, so when it wakes it must not
//! preempt the thread that is about to read the same frame:
//! [`batch_scheduling`]. Both are declared here against the C library that
//! `std` already links, so the workspace adds no dependency for them.
//!
//! Unix only. This module and [`crate::RwCell`]'s are the only `unsafe` in
//! the crate; the invariants of the foreign calls are spelled out inline.

#![allow(unsafe_code)]

use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_short};
use std::time::Duration;

/// `nfds_t`: `unsigned long` on Linux, `unsigned int` on the BSDs and macOS.
#[cfg(target_os = "linux")]
type Nfds = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::os::raw::c_uint;

/// `POLLIN`: data to read (it is 1 on every Unix).
const POLLIN: c_short = 1;

/// Sets up to this size are polled from a stack array.
const STACK_FDS: usize = 64;

/// `struct pollfd`, laid out as `<poll.h>` declares it.
#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    #[cfg(target_os = "linux")]
    fn sched_setscheduler(pid: c_int, policy: c_int, param: *const c_int) -> c_int;
}

/// Wait until at least one of `fds` is readable, or `timeout` passes
/// (`None` waits without limit, `Some(Duration::ZERO)` only looks), then
/// call `ready(i)` for each readable `fds[i]`, in order, and return how many
/// there were. Readable includes at end of stream and in error: a read then
/// returns at once. A negative entry is skipped, so a caller can keep its
/// indices while it stops watching a descriptor. With no entry to wait on,
/// the call returns 0 at once instead of waiting for nothing. A signal that
/// interrupts the wait also returns 0.
///
/// Every non-negative entry must be an open descriptor, and stay open until
/// the call returns: a number closed meanwhile may be reused for an
/// unrelated file.
pub fn poll_readable(
    fds: impl IntoIterator<Item = RawFd>,
    timeout: Option<Duration>,
    mut ready: impl FnMut(usize),
) -> io::Result<usize> {
    let mut stack = [PollFd {
        fd: -1,
        events: POLLIN,
        revents: 0,
    }; STACK_FDS];
    let mut heap = Vec::new();
    let mut len = 0;
    let mut watched = 0;
    for fd in fds {
        if len == STACK_FDS {
            heap.extend_from_slice(&stack);
        }
        let entry = PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        };
        if len < STACK_FDS {
            stack[len] = entry;
        } else {
            heap.push(entry);
        }
        len += 1;
        watched += usize::from(fd >= 0);
    }
    if watched == 0 {
        return Ok(0);
    }
    let set: &mut [PollFd] = if len <= STACK_FDS {
        &mut stack[..len]
    } else {
        &mut heap
    };
    let timeout_ms = timeout.map_or(-1, |t| {
        // Round up, so a short wait does not become a busy look.
        let ms = t.as_nanos().div_ceil(1_000_000);
        c_int::try_from(ms).unwrap_or(c_int::MAX)
    });
    // SAFETY: `set` is a live, exclusively borrowed slice of `set.len()`
    // `pollfd`-layout entries; `poll` reads each entry's `fd` and `events`
    // and writes its `revents`, and touches nothing outside the slice or
    // after it returns. A descriptor the kernel does not know is reported
    // in `revents` (`POLLNVAL`), not undefined behaviour.
    let n = unsafe { poll(set.as_mut_ptr(), set.len() as Nfds, timeout_ms) };
    if n < 0 {
        let err = io::Error::last_os_error();
        return match err.kind() {
            io::ErrorKind::Interrupted => Ok(0),
            _ => Err(err),
        };
    }
    let mut count = 0;
    for (i, entry) in set.iter().enumerate() {
        if entry.revents != 0 {
            count += 1;
            ready(i);
        }
    }
    Ok(count)
}

/// Move the calling thread to Linux's `SCHED_BATCH` class: it keeps its
/// fair share of the CPU, but waking up no longer preempts the thread that
/// is running; it runs at the next switch instead. A no-op elsewhere, and
/// a hint only: an error leaves the thread as it was.
pub fn batch_scheduling() -> io::Result<()> {
    #[cfg(target_os = "linux")]
    {
        // `SCHED_BATCH` in `<sched.h>`; its one `sched_priority` must be 0.
        const SCHED_BATCH: c_int = 3;
        let priority: c_int = 0;
        // SAFETY: `priority` is a live `struct sched_param` (a single `int`)
        // that the call only reads; pid 0 names the calling thread, the only
        // one whose scheduling changes.
        if unsafe { sched_setscheduler(0, SCHED_BATCH, &priority) } != 0 {
            return Err(io::Error::last_os_error());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    fn ready_of(fds: &[RawFd], timeout: Option<Duration>) -> Vec<usize> {
        let mut ready = Vec::new();
        let n = poll_readable(fds.iter().copied(), timeout, |i| ready.push(i)).unwrap();
        assert_eq!(n, ready.len());
        ready
    }

    #[test]
    fn reports_only_the_readable_sockets_in_order() {
        let pairs: Vec<_> = (0..3).map(|_| UnixStream::pair().unwrap()).collect();
        let fds: Vec<RawFd> = pairs.iter().map(|(_, rx)| rx.as_raw_fd()).collect();
        assert!(ready_of(&fds, Some(Duration::ZERO)).is_empty());
        (&pairs[2].0).write_all(b"x").unwrap();
        (&pairs[0].0).write_all(b"y").unwrap();
        assert_eq!(ready_of(&fds, Some(Duration::ZERO)), vec![0, 2]);
        assert_eq!(ready_of(&fds, None), vec![0, 2]);
    }

    #[test]
    fn a_closed_peer_reads_as_ready_and_negative_entries_are_skipped() {
        let (tx, rx) = UnixStream::pair().unwrap();
        drop(tx);
        assert_eq!(ready_of(&[-1, rx.as_raw_fd()], None), vec![1]);
        assert!(ready_of(&[-1, -1], None).is_empty(), "nothing to wait on");
    }

    #[test]
    fn a_timeout_returns_empty_after_waiting() {
        let (_tx, rx) = UnixStream::pair().unwrap();
        let start = Instant::now();
        assert!(ready_of(&[rx.as_raw_fd()], Some(Duration::from_millis(20))).is_empty());
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn batch_scheduling_applies_to_the_calling_thread() {
        std::thread::spawn(|| batch_scheduling().expect("SCHED_BATCH is unprivileged"))
            .join()
            .unwrap();
    }

    #[test]
    fn sets_larger_than_the_stack_array_are_polled_whole() {
        let pairs: Vec<_> = (0..STACK_FDS + 6)
            .map(|_| UnixStream::pair().unwrap())
            .collect();
        let fds: Vec<RawFd> = pairs.iter().map(|(_, rx)| rx.as_raw_fd()).collect();
        for i in [3, STACK_FDS - 1, STACK_FDS, STACK_FDS + 5] {
            (&pairs[i].0).write_all(b"z").unwrap();
        }
        assert_eq!(
            ready_of(&fds, None),
            vec![3, STACK_FDS - 1, STACK_FDS, STACK_FDS + 5]
        );
    }
}

//! `dsm_util`: the channel every in-process message crosses and the
//! histogram the repo's own harnesses record into.

use super::Rows;
use dsm_util::channel::unbounded;
use dsm_util::LatencyHistogram;
use std::hint::black_box;
use std::thread;
use std::time::Instant;

/// Cross-thread round trips timed one by one.
const PINGPONGS: usize = 10_000;

pub fn run(rows: &mut Rows) {
    let (tx, rx) = unbounded::<u64>();
    rows.batched_ns("util.channel_send_recv_ns", || {
        tx.send(black_box(7)).expect("receiver alive");
        black_box(rx.try_recv());
    });

    // A round trip through two channels between two threads: two sends and
    // two cross-thread wake-ups, the in-process floor of any remote request.
    let (ping_tx, ping_rx) = unbounded::<u64>();
    let (pong_tx, pong_rx) = unbounded::<u64>();
    let echo = thread::spawn(move || {
        while let Some(v) = ping_rx.recv() {
            if pong_tx.send(v).is_err() {
                break;
            }
        }
    });
    let mut rtt_ns = Vec::with_capacity(PINGPONGS);
    for i in 0..PINGPONGS + PINGPONGS / 10 {
        let start = Instant::now();
        ping_tx.send(i as u64).expect("echo thread alive");
        black_box(pong_rx.recv());
        if i >= PINGPONGS / 10 {
            rtt_ns.push(start.elapsed().as_nanos() as f64);
        }
    }
    drop(ping_tx);
    echo.join()
        .expect("echo thread exits when its sender drops");
    rows.samples("util.channel_pingpong_us", &rtt_ns, 1e3);

    let mut histogram = LatencyHistogram::new();
    let mut value = 1u64;
    rows.batched_ns("util.histogram_record_ns", || {
        // Walk the value over several octaves so that no one bucket stays hot.
        value = value
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        histogram.record(black_box(value >> 40));
    });
    black_box(histogram.count());
}

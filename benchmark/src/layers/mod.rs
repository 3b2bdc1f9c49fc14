//! Layer microbenches: part of the traced run.
//!
//! Each row times calls into one layer's `pub` API in isolation, so that an
//! end-to-end change can be attributed to the layer that moved. Every row
//! warms up first and reports a median with its iteration count.
//! Nanosecond-scale calls are timed in batches (a clock read costs about as
//! much as the call) and the median is over batch means; microsecond-scale
//! calls are timed one by one.

mod engine;
mod net;
mod objspace;
mod runtime;
mod util;
mod wire;

use crate::stats::Summary;
use std::time::Instant;

/// Timed iterations of every nanosecond-scale row.
const ITERS: usize = 20_000;
const BATCH: usize = 100;

/// The rows measured so far: `(metric name, value, iterations behind it)`.
#[derive(Debug, Default)]
pub struct Rows(pub Vec<(&'static str, f64, usize)>);

impl Rows {
    fn put(&mut self, name: &'static str, value: f64, iterations: usize) {
        self.0.push((name, value, iterations));
    }

    /// Median ns per call of `f`, batch-timed over [`ITERS`] calls.
    fn batched_ns(&mut self, name: &'static str, mut f: impl FnMut()) {
        for _ in 0..ITERS / 10 {
            f();
        }
        let means: Vec<f64> = (0..ITERS / BATCH)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..BATCH {
                    f();
                }
                start.elapsed().as_nanos() as f64 / BATCH as f64
            })
            .collect();
        self.put(name, median(&means), ITERS);
    }

    /// Median of individually timed samples (nanoseconds each), scaled by
    /// `per` into the row's unit.
    fn samples(&mut self, name: &'static str, ns: &[f64], per: f64) {
        self.put(name, median(ns) / per, ns.len());
    }
}

fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.median)
}

/// Run every layer's rows.
pub fn run_all() -> Rows {
    let mut rows = Rows::default();
    util::run(&mut rows);
    objspace::run(&mut rows);
    wire::run(&mut rows);
    net::run(&mut rows);
    engine::run(&mut rows);
    runtime::run(&mut rows);
    rows
}

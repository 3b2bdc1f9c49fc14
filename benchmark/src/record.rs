//! What one node's driver loop records during a rep.
//!
//! Untraced, the loop pays one clock read per op and one push into a
//! preallocated vector: latencies are kept whole (4 bytes each) and turned
//! into exact percentiles after the run. Traced, it additionally records a
//! span per call into the program and classifies every op as hit or fault
//! by the `NodeCtx::protocol_stats().fault_ins` delta around it; that
//! bookkeeping runs between ops, outside every recorded latency, and shows
//! up only as lower throughput — which `trace.overhead_pct` reports.
//!
//! Latencies are wall time on the threaded and TCP fabrics. On the sim
//! fabric wall time between two calls is whatever else the scheduler ran in
//! between, so there a latency is the advance of the node's virtual clock:
//! what a client of the modeled cluster would see. Spans and serving time
//! are wall time everywhere.

use crate::spans::{Kind, NodeSpans, ROOT};
use dsm_runtime::NodeCtx;
use std::time::Instant;

/// Latency classes of the traced run, nanoseconds each.
#[derive(Debug, Default)]
pub struct Classes {
    pub read_hit: Vec<u32>,
    pub write_hit: Vec<u32>,
    pub read_fault: Vec<u32>,
    pub write_fault: Vec<u32>,
    pub acquire: Vec<u32>,
    pub release: Vec<u32>,
    pub barrier: Vec<u32>,
}

#[derive(Debug)]
struct Traced {
    spans: NodeSpans,
    classes: Classes,
    faults_seen: u64,
}

/// One node's measurements of one rep.
#[derive(Debug)]
pub struct Recorder {
    base: Instant,
    node: usize,
    /// Per-op latency; the interval's acquire is folded into its first op.
    pub op_ns: Vec<u32>,
    /// Interval-commit latency: `release` on the KV workloads, the
    /// phase-ending `barrier` on SOR — the call that flushes the diffs.
    pub commit_ns: Vec<u32>,
    /// Time spent serving: phases from first op to last commit, the waits
    /// at phase barriers excluded.
    pub serving_ns: u64,
    /// On the sim fabric: the node's virtual clock when the latest latency
    /// sample ended.
    modeled_mark: Option<u64>,
    traced: Option<Traced>,
}

fn ns_since(base: Instant) -> u64 {
    base.elapsed().as_nanos() as u64
}

fn clamp_ns(ns: u64) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

fn modeled_ns(ctx: &NodeCtx) -> u64 {
    (ctx.now().as_micros() * 1e3) as u64
}

impl Recorder {
    /// A recorder for `ops` ops and `commits` commits, timestamps relative
    /// to `base` (the rep's process start).
    pub fn new(base: Instant, node: usize, ops: usize, commits: usize, traced: bool) -> Self {
        Recorder {
            base,
            node,
            op_ns: Vec::with_capacity(ops),
            commit_ns: Vec::with_capacity(commits),
            serving_ns: 0,
            modeled_mark: None,
            traced: traced.then(|| Traced {
                // Per op one span; per commit an interval, an acquire and a
                // release; phases and barriers are a handful.
                spans: NodeSpans::new(node, ops + 3 * commits + 64),
                classes: Classes::default(),
                faults_seen: 0,
            }),
        }
    }

    pub fn node(&self) -> usize {
        self.node
    }

    /// Take latencies from `ctx`'s virtual clock from now on (sim fabric).
    pub fn use_modeled_latency(&mut self, ctx: &NodeCtx) {
        self.modeled_mark = Some(modeled_ns(ctx));
    }

    /// The latency of the call that just returned: `wall_ns`, or on the sim
    /// fabric the virtual time since the previous sample ended.
    fn latency(&mut self, ctx: &NodeCtx, wall_ns: u64) -> u64 {
        match &mut self.modeled_mark {
            Some(mark) => {
                let now = modeled_ns(ctx);
                let took = now.saturating_sub(*mark);
                *mark = now;
                took
            }
            None => wall_ns,
        }
    }

    /// Nanoseconds since the rep's process start.
    pub fn now(&self) -> u64 {
        ns_since(self.base)
    }

    /// Open a phase or interval span starting at `start` (0 when untraced).
    pub fn open(&mut self, kind: Kind, parent: u32, start: u64) -> u32 {
        match &mut self.traced {
            Some(t) => t.spans.open(kind, parent, start),
            None => ROOT,
        }
    }

    /// The interval's `acquire` returned. Untraced this reads no clock, so
    /// the acquire lands in the first op's latency by itself; traced it is
    /// its own span and the returned nanoseconds are carried into
    /// [`Recorder::op_done`] to keep the two runs' latencies comparable.
    pub fn acquired(&mut self, interval: u32, mark: &mut u64) -> u64 {
        let Some(t) = &mut self.traced else { return 0 };
        let now = ns_since(self.base);
        let took = now - *mark;
        t.spans.push(Kind::Acquire, interval, *mark, now);
        t.classes.acquire.push(clamp_ns(took));
        *mark = now;
        took
    }

    /// One op returned. `mark` is when it was issued and is moved to when
    /// the next one can be.
    pub fn op_done(&mut self, ctx: &NodeCtx, write: bool, parent: u32, mark: &mut u64, carry: u64) {
        let now = self.now();
        let took = now - *mark;
        let latency = self.latency(ctx, took);
        self.op_ns.push(clamp_ns(latency + carry));
        *mark = now;
        if let Some(t) = &mut self.traced {
            t.spans.push(Kind::Op, parent, now - took, now);
            let faults = ctx.protocol_stats().fault_ins;
            let faulted = faults > t.faults_seen;
            t.faults_seen = faults;
            let class = match (write, faulted) {
                (false, false) => &mut t.classes.read_hit,
                (true, false) => &mut t.classes.write_hit,
                (false, true) => &mut t.classes.read_fault,
                (true, true) => &mut t.classes.write_fault,
            };
            class.push(clamp_ns(latency));
            *mark = ns_since(self.base);
        }
    }

    /// The interval's `release` returned; closes the interval span.
    pub fn released(&mut self, interval: u32, mark: &mut u64) {
        let now = self.now();
        self.commit_ns.push(clamp_ns(now - *mark));
        if let Some(t) = &mut self.traced {
            t.spans.push(Kind::Release, interval, *mark, now);
            t.classes.release.push(clamp_ns(now - *mark));
            t.spans.close(interval, now);
        }
        *mark = now;
    }

    /// The phase's serving part ended at `mark` (started at `phase_start`).
    pub fn served(&mut self, phase_start: u64, mark: u64) {
        self.serving_ns += mark - phase_start;
    }

    /// The phase-ending `barrier` returned; closes the phase span. With
    /// `is_commit` the barrier is this workload's interval commit.
    pub fn barrier_done(&mut self, ctx: &NodeCtx, phase: u32, is_commit: bool, mark: &mut u64) {
        let now = self.now();
        let latency = self.latency(ctx, now - *mark);
        if is_commit {
            self.commit_ns.push(clamp_ns(latency));
        }
        if let Some(t) = &mut self.traced {
            t.spans.push(Kind::Barrier, phase, *mark, now);
            t.classes.barrier.push(clamp_ns(latency));
            t.spans.close(phase, now);
        }
        *mark = now;
    }

    /// Split into the spans and latency classes of the traced run.
    pub fn into_traced(self) -> Option<(NodeSpans, Classes)> {
        self.traced.map(|t| (t.spans, t.classes))
    }
}

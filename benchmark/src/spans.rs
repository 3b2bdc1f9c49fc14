//! Spans of the traced run.
//!
//! The driver loop of each node records one span per layer boundary it
//! crosses — `rep → phase → interval → {acquire, op, release}` and
//! `phase → barrier` — from the benchmark's own files, around the calls
//! into the program. Spans stay in memory during the run and are written
//! out as JSON lines when the rep ends.

use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Span names, in the order they nest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Rep,
    Phase,
    Interval,
    Acquire,
    Op,
    Release,
    Barrier,
}

impl Kind {
    pub const ALL: [Kind; 7] = [
        Kind::Rep,
        Kind::Phase,
        Kind::Interval,
        Kind::Acquire,
        Kind::Op,
        Kind::Release,
        Kind::Barrier,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Rep => "rep",
            Kind::Phase => "phase",
            Kind::Interval => "interval",
            Kind::Acquire => "acquire",
            Kind::Op => "op",
            Kind::Release => "release",
            Kind::Barrier => "barrier",
        }
    }
}

/// Index of the rep span every node's phases hang off.
pub const ROOT: u32 = 0;

#[derive(Debug, Clone, Copy)]
struct Span {
    kind: Kind,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// One node's spans. Ids are node-local while recording (index 0 is the
/// shared rep span) and made global by [`write_jsonl`].
#[derive(Debug)]
pub struct NodeSpans {
    node: usize,
    spans: Vec<Span>,
}

impl NodeSpans {
    /// A recorder with room for `capacity` spans, so recording never
    /// allocates inside the timed region.
    pub fn new(node: usize, capacity: usize) -> Self {
        let mut spans = Vec::with_capacity(capacity + 1);
        spans.push(Span {
            kind: Kind::Rep,
            parent: ROOT,
            start_ns: 0,
            end_ns: 0,
        });
        NodeSpans { node, spans }
    }

    /// Record a finished span and return its id for use as a parent.
    pub fn push(&mut self, kind: Kind, parent: u32, start_ns: u64, end_ns: u64) -> u32 {
        self.spans.push(Span {
            kind,
            parent,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Reserve an id for a span whose children finish before it does.
    pub fn open(&mut self, kind: Kind, parent: u32, start_ns: u64) -> u32 {
        self.push(kind, parent, start_ns, start_ns)
    }

    /// Close a span opened with [`NodeSpans::open`].
    pub fn close(&mut self, id: u32, end_ns: u64) {
        self.spans[id as usize].end_ns = end_ns;
    }
}

/// Self time per span name: a span's duration minus what its children
/// cover. Returned as `(name, spans, total self ns)`.
pub fn self_times(nodes: &[NodeSpans]) -> Vec<(&'static str, u64, u64)> {
    let mut totals = Kind::ALL.map(|k| (k.name(), 0u64, 0u64));
    for node in nodes {
        let mut child_ns = vec![0u64; node.spans.len()];
        for span in &node.spans[1..] {
            child_ns[span.parent as usize] += span.end_ns - span.start_ns;
        }
        for (span, children) in node.spans.iter().zip(&child_ns).skip(1) {
            // `Kind::ALL` lists the variants in declaration order.
            let slot = &mut totals[span.kind as usize];
            slot.1 += 1;
            slot.2 += (span.end_ns - span.start_ns).saturating_sub(*children);
        }
    }
    totals.into_iter().filter(|t| t.1 > 0).collect()
}

/// Write every span as one JSON object per line: `id`, `parent` (`null`
/// for the rep span), `name`, `node` (`null` for the rep span), `start_ns`
/// and `end_ns` relative to the rep's process start.
pub fn write_jsonl(path: &Path, rep_end_ns: u64, nodes: &[NodeSpans]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "{{\"id\": 0, \"parent\": null, \"name\": \"rep\", \"node\": null, \"start_ns\": 0, \"end_ns\": {rep_end_ns}}}"
    )?;
    let mut base = 1u32;
    for node in nodes {
        // Node-local id `i >= 1` becomes `base + i - 1`; local 0 is the rep.
        let global = |local: u32| if local == ROOT { 0 } else { base + local - 1 };
        for (i, span) in node.spans.iter().enumerate().skip(1) {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"node\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                global(i as u32),
                global(span.parent),
                span.kind.name(),
                node.node,
                span.start_ns,
                span.end_ns
            )?;
        }
        base += (node.spans.len() - 1) as u32;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn sample() -> Vec<NodeSpans> {
        (0..2)
            .map(|node| {
                let mut s = NodeSpans::new(node, 8);
                let phase = s.open(Kind::Phase, ROOT, 100);
                let interval = s.open(Kind::Interval, phase, 110);
                s.push(Kind::Acquire, interval, 110, 130);
                s.push(Kind::Op, interval, 130, 140);
                s.push(Kind::Release, interval, 140, 190);
                s.close(interval, 200);
                s.push(Kind::Barrier, phase, 200, 260);
                s.close(phase, 300);
                s
            })
            .collect()
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let totals = self_times(&sample());
        let get = |name: &str| totals.iter().find(|t| t.0 == name).copied().unwrap();
        // interval: 90 long, children cover 20 + 10 + 50.
        assert_eq!(get("interval"), ("interval", 2, 20));
        // phase: 200 long, children cover 90 + 60.
        assert_eq!(get("phase"), ("phase", 2, 100));
        assert_eq!(get("op"), ("op", 2, 20));
    }

    #[test]
    fn jsonl_ids_are_global_and_parents_resolve() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-spans");
        let path = dir.join("trace.jsonl");
        write_jsonl(&path, 1000, &sample()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 1 + 2 * 6);
        for (i, line) in lines.iter().enumerate() {
            assert_eq!(line.get("id").unwrap().as_f64(), Some(i as f64));
        }
        // Node 1's interval (global id 8) hangs off node 1's phase (7),
        // which hangs off the rep.
        assert_eq!(lines[8].get("name").unwrap().as_str(), Some("interval"));
        assert_eq!(lines[8].get("parent").unwrap().as_f64(), Some(7.0));
        assert_eq!(lines[7].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(lines[7].get("node").unwrap().as_f64(), Some(1.0));
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
    }
}

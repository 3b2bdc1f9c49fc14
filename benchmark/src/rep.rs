//! What a rep hands back, and the pieces the two workload drivers share:
//! turning node recorders and the run's `ExecutionReport` into metric
//! values.

use crate::json::Json;
use crate::proc::{self, ProcSample};
use crate::record::{Classes, Recorder};
use crate::spans::{self, NodeSpans};
use crate::stats::percentile;
use dsm_runtime::ExecutionReport;
use std::path::Path;
use std::sync::Mutex;

/// One rep's outcome: the result fingerprint the oracle is compared with
/// and every metric value the rep can supply, by name.
#[derive(Debug, Clone, PartialEq)]
pub struct RepResult {
    pub fingerprint: u64,
    pub ops: u64,
    pub values: Vec<(String, f64)>,
}

impl RepResult {
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "fingerprint",
                Json::Str(format!("{:016x}", self.fingerprint)),
            ),
            ("ops", Json::Num(self.ops as f64)),
            (
                "values",
                Json::Obj(
                    self.values
                        .iter()
                        .map(|(n, v)| (n.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(doc: &Json) -> Option<RepResult> {
        Some(RepResult {
            fingerprint: u64::from_str_radix(doc.get("fingerprint")?.as_str()?, 16).ok()?,
            ops: doc.get("ops")?.as_f64()? as u64,
            values: doc
                .get("values")?
                .as_obj()?
                .iter()
                .map(|(n, v)| Some((n.clone(), v.as_f64()?)))
                .collect::<Option<_>>()?,
        })
    }
}

/// Where the nodes of a rep deposit what only they can see.
#[derive(Debug, Default)]
pub struct Shared {
    pub recorders: Mutex<Vec<Recorder>>,
    pub master: Mutex<Option<MasterReport>>,
}

/// What node 0 publishes for the whole cluster.
#[derive(Debug)]
pub struct MasterReport {
    /// Fingerprint of the final shared state.
    pub fingerprint: u64,
    /// When the start barrier released, ns since the rep's process start.
    pub setup_end_ns: u64,
    /// Process counters just before the start barrier and after the last
    /// phase.
    pub proc_start: ProcSample,
    pub proc_end: ProcSample,
}

/// Fold the run into metric values. `ops` is the op count of the whole
/// cluster; `rep_end_ns` closes the rep span of a traced run, whose spans
/// go to `span_file`.
pub fn collect(
    shared: Shared,
    report: &ExecutionReport,
    ops: u64,
    rep_end_ns: u64,
    span_file: Option<&Path>,
) -> RepResult {
    let MasterReport {
        fingerprint,
        setup_end_ns: setup_ns,
        proc_start,
        proc_end,
    } = shared
        .master
        .into_inner()
        .expect("no node panicked")
        .expect("node 0 publishes the result");
    let mut recorders = shared.recorders.into_inner().expect("no node panicked");
    let per_op = |x: u64| x as f64 / ops as f64;
    let per_kop = |x: u64| x as f64 * 1000.0 / ops as f64;
    // A row that does not apply to this rep (no scheduler on the sim fabric,
    // no delivery trace off it, a ratio of nothing) is left out: 0 would
    // read as the best value a lower-is-better row can have.
    let mut values: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| values.push((name.to_string(), value));
    macro_rules! put_ratio {
        ($name:expr, $num:expr, $den:expr) => {
            if $den > 0 {
                put($name, $num as f64 / $den as f64);
            }
        };
    }

    let serving_ns = recorders.iter().map(|r| r.serving_ns).max().unwrap_or(0);
    let serving_s = serving_ns as f64 / 1e9;
    let mut op_ns: Vec<u32> = recorders
        .iter()
        .flat_map(|r| r.op_ns.iter().copied())
        .collect();
    let mut commit_ns: Vec<u32> = recorders
        .iter()
        .flat_map(|r| r.commit_ns.iter().copied())
        .collect();
    assert_eq!(op_ns.len() as u64, ops, "every op recorded exactly once");
    put("ops_per_sec", ops as f64 / serving_s);
    put("op_p95_us", f64::from(percentile(&mut op_ns, 0.95)) / 1e3);
    put("op_p99_us", f64::from(percentile(&mut op_ns, 0.99)) / 1e3);
    put("msgs_per_kop", per_kop(report.total_messages()));
    put("wire_bytes_per_op", per_op(report.total_traffic_bytes()));
    put("setup_s", setup_ns as f64 / 1e9);

    let p = &report.protocol;
    put("core.fault_ins_per_kop", per_kop(p.fault_ins));
    put("core.diffs_per_kop", per_kop(p.diffs_sent));
    put_ratio!(
        "core.batch_entries_per_flush",
        p.batch_entries,
        p.batched_flushes
    );
    put("core.redirects_per_kop", per_kop(p.redirections_suffered));
    put("core.busy_per_kop", per_kop(p.busy_responses));
    put("core.migrations", p.migrations() as f64);
    put("core.migrate_backs", report.migrate_backs() as f64);
    put_ratio!(
        "core.decisions_taken_ratio",
        p.policy.decisions_migrate,
        p.policy.decisions_considered
    );

    put(
        "runtime.ctx_commit_us_p99",
        f64::from(percentile(&mut commit_ns, 0.99)) / 1e3,
    );
    put("runtime.modeled_ms", report.execution_time.as_millis());
    if let Some(sched) = &report.scheduler {
        put("runtime.exec_steps_per_op", per_op(sched.steps));
        put("runtime.exec_wakeups_per_op", per_op(sched.wakeups));
        put_ratio!(
            "runtime.exec_idle_wakeup_ratio",
            sched.idle_wakeups,
            sched.wakeups
        );
        put(
            "runtime.exec_queue_depth_hwm",
            sched.queue_depth_high_watermark as f64,
        );
    }
    if let Some(trace) = &report.delivery_trace {
        let events = trace.len() as u64;
        put("net.sim_events", events as f64);
        put("runtime.sim_events_per_sec", events as f64 / serving_s);
        if events > 0 {
            put(
                "runtime.sim_us_per_event",
                serving_ns as f64 / 1e3 / events as f64,
            );
        }
    }

    let cpu_s = (proc_end.user_s - proc_start.user_s) + (proc_end.sys_s - proc_start.sys_s);
    put("proc.cpu_us_per_op", cpu_s * 1e6 / ops as f64);
    if cpu_s > 0.0 {
        put(
            "proc.sys_share",
            (proc_end.sys_s - proc_start.sys_s) / cpu_s,
        );
    }
    put(
        "proc.ctx_switches_per_op",
        per_op(
            proc_end
                .ctx_switches
                .saturating_sub(proc_start.ctx_switches),
        ),
    );
    put(
        "proc.threads_peak",
        proc_start.threads.max(proc_end.threads) as f64,
    );
    put("proc.rss_peak_mb", proc::rss_peak_mb());

    recorders.sort_by_key(|r| r.node());
    let traced: Vec<(NodeSpans, Classes)> = recorders
        .into_iter()
        .filter_map(Recorder::into_traced)
        .collect();
    if !traced.is_empty() {
        let (node_spans, classes): (Vec<NodeSpans>, Vec<Classes>) = traced.into_iter().unzip();
        let merged = |pick: fn(&Classes) -> &Vec<u32>| -> Vec<u32> {
            classes
                .iter()
                .flat_map(|c| pick(c).iter().copied())
                .collect()
        };
        let mut class = |name: &str, pick: fn(&Classes) -> &Vec<u32>, q: f64, per: f64| {
            let mut sample = merged(pick);
            if !sample.is_empty() {
                put(name, f64::from(percentile(&mut sample, q)) / per);
            }
        };
        class("runtime.ctx_read_hit_ns_p50", |c| &c.read_hit, 0.5, 1.0);
        class("runtime.ctx_write_hit_ns_p50", |c| &c.write_hit, 0.5, 1.0);
        class("runtime.ctx_read_fault_us_p50", |c| &c.read_fault, 0.5, 1e3);
        class(
            "runtime.ctx_read_fault_us_p99",
            |c| &c.read_fault,
            0.99,
            1e3,
        );
        class(
            "runtime.ctx_write_fault_us_p50",
            |c| &c.write_fault,
            0.5,
            1e3,
        );
        class("runtime.ctx_acquire_us_p50", |c| &c.acquire, 0.5, 1e3);
        class("runtime.ctx_release_us_p50", |c| &c.release, 0.5, 1e3);
        class("runtime.ctx_barrier_us_p50", |c| &c.barrier, 0.5, 1e3);
        for (name, count, self_ns) in spans::self_times(&node_spans) {
            eprintln!(
                "span {name:<8} n={count:<8} self={:.3} ms",
                self_ns as f64 / 1e6
            );
        }
        if let Some(path) = span_file {
            if let Err(e) = spans::write_jsonl(path, rep_end_ns, &node_spans) {
                eprintln!("could not write {}: {e}", path.display());
            }
        }
    }

    RepResult {
        fingerprint,
        ops,
        values,
    }
}

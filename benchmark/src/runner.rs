//! The parent side: one rep is one child process under a watchdog; a run is
//! a discarded warm-up rep plus as many measured reps as fit in
//! `--seconds`, every reported number the median over the reps.
//! `--sets 2` measures two such sets with their reps interleaved, so that
//! the box's slow drift lands on both alike.

use crate::json::Json;
use crate::kv::{self, KvKind};
use crate::kvtrace::{KvTrace, NODES};
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::proc;
use crate::rep::RepResult;
use crate::sor::{self, SorShape};
use crate::stats::Summary;
use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// A rep that has not ended by then is killed and counted as failed. Reps
/// serve for one to three seconds on the reference box; a node-thread panic
/// on the threaded fabric leaves the other nodes parked forever, which is
/// what this is for.
const REP_DEADLINE: Duration = Duration::from_secs(20);
const LAYERS_DEADLINE: Duration = Duration::from_secs(60);
/// Measured reps a run has at least, however long they take.
const MIN_REPS: usize = 3;
/// Untraced + traced rep pairs a traced run has at least. Fewer than
/// [`MIN_REPS`] because the layer microbenches share the run's time.
const MIN_TRACED_PAIRS: usize = 2;
/// No new rep starts after this many seconds of a run, whatever `--seconds`
/// says, so that a run always ends well inside three minutes.
const RUN_CAP_S: f64 = 100.0;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    KvShiftThreaded,
    KvShiftTcp,
    KvFixedhomeThreaded,
    SorSim,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::KvShiftThreaded,
        Workload::KvShiftTcp,
        Workload::KvFixedhomeThreaded,
        Workload::SorSim,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::KvShiftThreaded => "kv-shift-threaded",
            Workload::KvShiftTcp => "kv-shift-tcp",
            Workload::KvFixedhomeThreaded => "kv-fixedhome-threaded",
            Workload::SorSim => "sor-sim",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn kv_kind(self) -> Option<KvKind> {
        match self {
            Workload::KvShiftThreaded => Some(KvKind::ShiftThreaded),
            Workload::KvShiftTcp => Some(KvKind::ShiftTcp),
            Workload::KvFixedhomeThreaded => Some(KvKind::FixedHomeThreaded),
            Workload::SorSim => None,
        }
    }

    /// Ops of one rep, cluster-wide.
    pub fn ops(self, reduced: bool) -> u64 {
        match self.kv_kind() {
            Some(_) => (kv::ops_per_node(reduced) * NODES) as u64,
            None => SorShape::new(reduced).ops(),
        }
    }

    /// The independent oracle's fingerprint for this workload's inputs.
    pub fn oracle(self, seed: u64, reduced: bool) -> u64 {
        match self.kv_kind() {
            Some(_) => KvTrace::generate(seed, kv::ops_per_node(reduced)).oracle_fingerprint(),
            None => sor::oracle_fingerprint(seed, SorShape::new(reduced)),
        }
    }

    /// Run one rep in this process (the child side).
    pub fn run_rep(
        self,
        seed: u64,
        reduced: bool,
        base: Instant,
        span_file: Option<&std::path::Path>,
    ) -> RepResult {
        match self.kv_kind() {
            Some(kind) => kv::run_rep(kind, seed, kv::ops_per_node(reduced), base, span_file),
            None => sor::run_rep(seed, SorShape::new(reduced), base, span_file),
        }
    }

    /// `sor-sim` is a pure function of the seed: these must read the same
    /// on every rep of a run.
    fn exact_values(self) -> &'static [&'static str] {
        match self {
            Workload::SorSim => &[
                "op_p95_us",
                "op_p99_us",
                "runtime.ctx_commit_us_p99",
                "msgs_per_kop",
                "wire_bytes_per_op",
                "runtime.modeled_ms",
                "net.sim_events",
            ],
            _ => &[],
        }
    }
}

/// How a child ended.
#[derive(Debug, PartialEq, Eq)]
pub enum Exit {
    Code(i32),
    Signal,
    TimedOut,
    SpawnFailed(String),
}

#[derive(Debug)]
pub struct ChildOutput {
    pub exit: Exit,
    pub stdout: String,
    pub stderr: String,
}

/// Run `cmd` to completion or to `deadline`, whichever comes first; past
/// the deadline the child is killed. Never blocks longer than the deadline
/// plus the time the kernel takes to reap the child.
pub fn run_child(cmd: &mut Command, deadline: Duration) -> ChildOutput {
    let spawned = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn();
    let mut child = match spawned {
        Ok(child) => child,
        Err(e) => {
            return ChildOutput {
                exit: Exit::SpawnFailed(e.to_string()),
                stdout: String::new(),
                stderr: String::new(),
            }
        }
    };
    // Both pipes are drained on their own threads so that a chatty child
    // can never block on a full pipe; stdout reaching end-of-file is the
    // signal that the child is gone (or has been killed).
    let drain = |mut pipe: Box<dyn Read + Send>| {
        let (tx, rx) = mpsc::channel();
        let handle = thread::spawn(move || {
            let mut bytes = Vec::new();
            let _ = pipe.read_to_end(&mut bytes);
            let _ = tx.send(());
            String::from_utf8_lossy(&bytes).into_owned()
        });
        (rx, handle)
    };
    let (stdout_done, stdout) = drain(Box::new(child.stdout.take().expect("piped")));
    let (_, stderr) = drain(Box::new(child.stderr.take().expect("piped")));
    let timed_out = stdout_done.recv_timeout(deadline).is_err();
    if timed_out {
        let _ = child.kill();
    }
    let status = child.wait();
    let stdout = stdout.join().unwrap_or_default();
    let stderr = stderr.join().unwrap_or_default();
    let exit = match status {
        _ if timed_out => Exit::TimedOut,
        Ok(status) => status.code().map_or(Exit::Signal, Exit::Code),
        Err(e) => Exit::SpawnFailed(e.to_string()),
    };
    ChildOutput {
        exit,
        stdout,
        stderr,
    }
}

/// Why a rep's ops all count as failed.
#[derive(Debug, Clone, PartialEq)]
pub struct Failure {
    pub reason: String,
    pub stderr_tail: String,
}

fn tail(text: &str) -> String {
    let lines: Vec<&str> = text.lines().collect();
    lines[lines.len().saturating_sub(6)..].join("\n")
}

/// Turn a child's output into a rep result, or the reason it has none. A
/// rep that hung, died or disagrees with the oracle is a failure; nothing
/// is retried.
pub fn judge(output: &ChildOutput, oracle: u64) -> Result<RepResult, Failure> {
    let fail = |reason: String| Failure {
        reason,
        stderr_tail: tail(&output.stderr),
    };
    match &output.exit {
        Exit::TimedOut => return Err(fail("hung: killed at its deadline".into())),
        Exit::Signal => return Err(fail("killed by a signal".into())),
        Exit::SpawnFailed(e) => return Err(fail(format!("could not run: {e}"))),
        Exit::Code(0) => {}
        Exit::Code(code) => return Err(fail(format!("exited with code {code}"))),
    }
    let result = output
        .stdout
        .lines()
        .last()
        .and_then(|line| Json::parse(line).ok())
        .as_ref()
        .and_then(RepResult::from_json)
        .ok_or_else(|| fail("printed no result".into()))?;
    if result.fingerprint != oracle {
        return Err(fail(format!(
            "oracle mismatch: cluster {:016x}, oracle {oracle:016x}",
            result.fingerprint
        )));
    }
    Ok(result)
}

/// `taskset -c <cpu>` when it is on `PATH` and works here. Every child — a
/// rep of any workload, the layer microbenches — runs confined to one CPU.
/// The sim fabric runs one thread at a time by construction. The KV clients
/// spend their time blocked on replies, and on the 2-vCPU reference box a
/// wake-up that crosses CPUs costs so much more than one that does not, and
/// so unevenly, that two CPUs serve the same trace 2 to 3 times slower than
/// one and drift by a factor of two within seconds (README.md, Noise).
/// Unconfined, the benchmark would measure the hypervisor's cross-CPU
/// signalling; confined, it measures the program's own work per op.
fn pin_prefix() -> Option<Vec<String>> {
    let cpu = proc::last_allowed_cpu()?.to_string();
    let probe = run_child(
        Command::new("taskset").args(["-c", &cpu, "true"]),
        Duration::from_secs(5),
    );
    (probe.exit == Exit::Code(0)).then(|| vec!["taskset".into(), "-c".into(), cpu])
}

/// This program again, behind the pin prefix when there is one.
fn own_executable(pin: &Option<Vec<String>>) -> Command {
    let exe = std::env::current_exe().expect("own executable path");
    match pin {
        Some(prefix) => {
            let mut cmd = Command::new(&prefix[0]);
            cmd.args(&prefix[1..]).arg(exe);
            cmd
        }
        None => Command::new(exe),
    }
}

/// Where the traced run leaves its span files.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// One reduced-size rep, no warm-up: for smoke tests and CI.
    pub quick: bool,
}

/// One finished run.
#[derive(Debug)]
pub struct RunOutcome {
    pub workload: Workload,
    /// No rep disagreed with the oracle, hung or died.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Median, quartiles and rep count of each reported metric (`None`
    /// when no rep supplied it).
    pub metrics: Vec<(Metric, Option<Summary>)>,
    pub failures: Vec<Failure>,
    pub fingerprint: Option<u64>,
    pub pinned: bool,
    /// Lines for the report only: the traced run's self time per span name.
    pub notes: Vec<String>,
}

struct Reps {
    config: RunConfig,
    pin: Option<Vec<String>>,
    ok: Vec<RepResult>,
    failures: Vec<Failure>,
    attempted: u64,
    failed: u64,
    /// What the latest rep wrote to standard error.
    last_stderr: String,
}

impl Reps {
    fn new(config: RunConfig) -> Reps {
        Reps {
            config,
            pin: pin_prefix(),
            ok: Vec::new(),
            failures: Vec::new(),
            attempted: 0,
            failed: 0,
            last_stderr: String::new(),
        }
    }

    fn command(&self, reduced: bool, spans: Option<&PathBuf>) -> Command {
        let mut cmd = own_executable(&self.pin);
        cmd.args(["--child", "rep", "--workload", self.config.workload.name()])
            .args(["--seed", &self.config.seed.to_string()])
            .args(["--size", if reduced { "reduced" } else { "full" }]);
        if let Some(path) = spans {
            cmd.arg("--spans").arg(path);
        }
        cmd
    }

    /// One measured rep, judged against `oracle`.
    fn rep(&mut self, reduced: bool, oracle: u64, spans: Option<&PathBuf>) -> Option<RepResult> {
        let output = run_child(&mut self.command(reduced, spans), REP_DEADLINE);
        let verdict = judge(&output, oracle);
        self.last_stderr = output.stderr;
        self.record(verdict, self.config.workload.ops(reduced))
    }

    /// Count a rep of `ops` ops: all of them failed unless it has a result.
    fn record(&mut self, verdict: Result<RepResult, Failure>, ops: u64) -> Option<RepResult> {
        self.attempted += ops;
        match verdict {
            Ok(result) => {
                self.ok.push(result.clone());
                Some(result)
            }
            Err(failure) => {
                eprintln!(
                    "{}: rep failed ({}); its {ops} ops count as failed",
                    self.config.workload.name(),
                    failure.reason
                );
                self.failed += ops;
                self.failures.push(failure);
                None
            }
        }
    }

    fn finish(
        self,
        table: &[Metric],
        summarize: impl Fn(&[RepResult], &Metric) -> Option<Summary>,
    ) -> RunOutcome {
        let workload = self.config.workload;
        let mut correct = self.failures.is_empty() && !self.ok.is_empty();
        for name in workload.exact_values() {
            let mut seen: Vec<f64> = self.ok.iter().filter_map(|r| r.value(name)).collect();
            seen.dedup();
            if seen.len() > 1 {
                eprintln!("{}: {name} differs between reps: {seen:?}", workload.name());
                correct = false;
            }
        }
        RunOutcome {
            workload,
            correct,
            attempted: self.attempted,
            failed: self.failed,
            metrics: table.iter().map(|m| (*m, summarize(&self.ok, m))).collect(),
            fingerprint: self.ok.first().map(|r| r.fingerprint),
            failures: self.failures,
            pinned: self.pin.is_some(),
            notes: Vec::new(),
        }
    }
}

/// Whether another round (a rep of each set, or an untraced + traced pair)
/// still fits in `seconds` since `started`; a run has `at_least` rounds
/// whatever they take.
fn more(started: Instant, seconds: f64, rounds: usize, at_least: usize) -> bool {
    let elapsed = started.elapsed().as_secs_f64();
    if rounds < at_least {
        return elapsed < RUN_CAP_S;
    }
    let round_s = elapsed / rounds as f64;
    elapsed + round_s / 2.0 < seconds.min(RUN_CAP_S)
}

/// The untraced run: every end-to-end metric, median over the measured
/// reps. With `sets` of 2 the rounds alternate between two sets of reps
/// (A, B, A, B, …) that are summarized apart, each given `--seconds`: the
/// box's drift, which moves back-to-back sets apart, reaches both alike.
pub fn run_end_to_end(config: RunConfig, sets: usize) -> Vec<RunOutcome> {
    let started = Instant::now();
    let mut sets: Vec<Reps> = (0..sets).map(|_| Reps::new(config)).collect();
    let workload = config.workload;
    let oracle = workload.oracle(config.seed, config.quick);
    if !config.quick {
        // Discarded: it pages the executable in, and full-size it leaves the
        // CPU's caches and clock as the measured reps will find them.
        run_child(&mut sets[0].command(false, None), REP_DEADLINE);
    }
    let seconds = config.seconds * sets.len() as f64;
    let mut rounds = 0;
    loop {
        for reps in &mut sets {
            reps.rep(config.quick, oracle, None);
        }
        rounds += 1;
        if config.quick || !more(started, seconds, rounds, MIN_REPS) {
            break;
        }
    }
    sets.into_iter()
        .map(|reps| reps.finish(END_TO_END, |ok, m| summary_of(ok, m.name)))
        .collect()
}

/// A metric's median and quartiles over the reps that supplied it.
fn summary_of(reps: &[RepResult], name: &str) -> Option<Summary> {
    let values: Vec<f64> = reps.iter().filter_map(|r| r.value(name)).collect();
    Summary::of(&values)
}

/// Run the layer microbenches in a child of their own: `{name: [median,
/// iterations]}`, or why there is none. They do not depend on the workload,
/// so one invocation measures them once however many workloads it traces.
pub fn run_layers() -> Result<Json, Failure> {
    let output = run_child(
        own_executable(&pin_prefix()).args(["--child", "layers"]),
        LAYERS_DEADLINE,
    );
    match (&output.exit, output.stdout.lines().last().map(Json::parse)) {
        (Exit::Code(0), Some(Ok(rows))) => Ok(rows),
        _ => Err(Failure {
            reason: format!("layer microbenches: {:?}", output.exit),
            stderr_tail: tail(&output.stderr),
        }),
    }
}

/// The traced run: the layer microbench rows (`layers`), then reps of the
/// workload alternating untraced and traced. Counters and process costs are
/// taken from the untraced reps, latency classes from the traced ones, and
/// the throughput gap between the two is the tracing overhead. The last
/// traced rep's spans stay in `out/trace-<workload>.jsonl`.
pub fn run_traced(
    config: RunConfig,
    layers: &Result<Json, Failure>,
    started: Instant,
) -> RunOutcome {
    let mut reps = Reps::new(config);
    let workload = config.workload;
    let no_rows = Json::Obj(Vec::new());
    let layer_values = match layers {
        Ok(rows) => rows,
        Err(failure) => {
            reps.failures.push(failure.clone());
            &no_rows
        }
    };

    let oracle = workload.oracle(config.seed, config.quick);
    let spans = out_dir().join(format!("trace-{}.jsonl", workload.name()));
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut span_notes = Vec::new();
    let mut count = 0;
    loop {
        untraced.extend(reps.rep(config.quick, oracle, None));
        if let Some(rep) = reps.rep(config.quick, oracle, Some(&spans)) {
            traced.push(rep);
            span_notes = reps
                .last_stderr
                .lines()
                .filter(|l| l.starts_with("span "))
                .map(String::from)
                .collect();
        }
        count += 1;
        if config.quick || !more(started, config.seconds, count, MIN_TRACED_PAIRS) {
            break;
        }
    }
    let overhead = match (
        summary_of(&untraced, "ops_per_sec"),
        summary_of(&traced, "ops_per_sec"),
    ) {
        (Some(plain), Some(with)) => Some((1.0 - with.median / plain.median) * 100.0),
        _ => None,
    };
    let mut outcome = reps.finish(PER_LAYER, |_, m| {
        if m.name == "trace.overhead_pct" {
            return overhead.and_then(|pct| Summary::of(&[pct]));
        }
        // A microbench row is `[median, iterations behind it]`.
        if let Some(Json::Arr(row)) = layer_values.get(m.name) {
            let (value, n) = (row.first()?.as_f64()?, row.get(1)?.as_f64()?);
            return Some(Summary {
                median: value,
                q1: value,
                q3: value,
                n: n as usize,
            });
        }
        let source = if m.name.starts_with("runtime.ctx_") {
            &traced
        } else {
            &untraced
        };
        summary_of(source, m.name)
    });
    outcome.notes.extend(span_notes);
    outcome.notes.push(format!("spans: {}", spans.display()));
    outcome
}

impl RunOutcome {
    /// The result line the benchmark contract asks for.
    pub fn result_line(&self) -> String {
        let metrics = self.metrics.iter().filter_map(|(m, summary)| {
            // A run without one good rep has measured nothing and says so
            // by naming no metric. In a run with one, a row no rep supplied
            // does not apply to the workload (README.md lists them); the
            // contract wants every declared row, so it reads 0 here and
            // "n/a" in the table.
            let value = match summary {
                Some(s) => s.median,
                None if self.fingerprint.is_some() => 0.0,
                None => return None,
            };
            Some((
                m.name,
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(m.unit.into())),
                ]),
            ))
        });
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .emit()
    }

    /// The table a person reads: every metric by name with its unit, the
    /// quartiles and rep count behind the median, and the oracle's verdict.
    pub fn report(&self) -> String {
        let mut out = format!(
            "== {} ==  oracle: {}  fingerprint: {}  ops attempted: {}  failed: {}  pinned: {}\n",
            self.workload.name(),
            if self.correct { "match" } else { "FAILED" },
            self.fingerprint.map_or("-".into(), |f| format!("{f:016x}")),
            self.attempted,
            self.failed,
            if self.pinned { "yes" } else { "no" },
        );
        for (m, summary) in &self.metrics {
            match summary {
                Some(s) => out.push_str(&format!(
                    "  {:<40} {:>14.4} {:<6} q1 {:<12.4} q3 {:<12.4} spread {:>5.1}%  n={}\n",
                    m.name,
                    s.median,
                    m.unit,
                    s.q1,
                    s.q3,
                    s.spread() * 100.0,
                    s.n
                )),
                None => out.push_str(&format!(
                    "  {:<40} {:>14} {:<6} ({})\n",
                    m.name,
                    "n/a",
                    m.unit,
                    if self.fingerprint.is_some() {
                        "does not apply to this workload"
                    } else {
                        "no rep supplied it"
                    }
                )),
            }
        }
        for note in &self.notes {
            out.push_str(&format!("  {note}\n"));
        }
        for failure in &self.failures {
            out.push_str(&format!("  FAILED REP: {}\n", failure.reason));
            for line in failure.stderr_tail.lines() {
                out.push_str(&format!("    | {line}\n"));
            }
        }
        out
    }
}

/// What `--sets 2` found for one workload, one line per end-to-end metric
/// that is not simply within its bound.
#[derive(Debug, Default, PartialEq)]
pub struct SetsVerdict {
    /// The two medians differ by more than the bound.
    pub disagree: Vec<String>,
    /// A set's own rep-to-rep spread is wider than the bound, so the two
    /// medians can neither agree nor disagree: reported, not judged.
    pub unresolved: Vec<String>,
}

/// `--sets 2`: two sets of reps of the same code must agree.
pub fn compare_sets(first: &RunOutcome, second: &RunOutcome) -> SetsVerdict {
    let mut verdict = SetsVerdict::default();
    let workload = first.workload.name();
    for ((m, a), (_, b)) in first.metrics.iter().zip(&second.metrics) {
        let (Some(a), Some(b)) = (a, b) else {
            verdict
                .disagree
                .push(format!("{workload} {}: a set has no value", m.name));
            continue;
        };
        let change = (b.median - a.median).abs() / a.median.abs();
        let spread = a.spread().max(b.spread());
        let line = format!(
            "{workload} {}: {} vs {} {} differ by {:.1}%, rep-to-rep spread {:.1}% (bound {:.0}%)",
            m.name,
            a.median,
            b.median,
            m.unit,
            change * 100.0,
            spread * 100.0,
            m.bound * 100.0
        );
        if spread > m.bound {
            verdict.unresolved.push(line);
        } else if change > m.bound {
            verdict.disagree.push(line);
        }
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_child_that_outlives_its_deadline_is_killed_and_reported() {
        let started = Instant::now();
        let output = run_child(Command::new("sleep").arg("30"), Duration::from_millis(300));
        assert_eq!(output.exit, Exit::TimedOut);
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "the harness must not hang"
        );
        let failure = judge(&output, 0).unwrap_err();
        assert!(failure.reason.contains("hung"), "{failure:?}");
    }

    #[test]
    fn a_hung_rep_counts_all_its_ops_as_failed() {
        let config = RunConfig {
            workload: Workload::KvShiftThreaded,
            seed: 1,
            seconds: 1.0,
            quick: true,
        };
        let mut reps = Reps::new(config);
        // `Reps::rep` with a child that hangs, minus the real deadline.
        let output = run_child(Command::new("sleep").arg("30"), Duration::from_millis(100));
        let ops = config.workload.ops(true);
        assert_eq!(reps.record(judge(&output, 0), ops), None);
        let outcome = reps.finish(END_TO_END, |_, _| None);
        assert!(!outcome.correct);
        assert_eq!((outcome.attempted, outcome.failed), (ops, ops));
        let line = Json::parse(&outcome.result_line()).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(ops as f64));
        // Nothing was measured, so no metric is named: not a row of zeros.
        assert_eq!(line.get("metrics"), Some(&Json::Obj(Vec::new())));
    }

    #[test]
    fn sets_agree_within_the_bound_disagree_beyond_it_and_noise_is_unresolved() {
        let metric = END_TO_END[0];
        let outcome = |median: f64, iqr: f64| RunOutcome {
            workload: Workload::SorSim,
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![(
                metric,
                Some(Summary {
                    median,
                    q1: median - iqr / 2.0,
                    q3: median + iqr / 2.0,
                    n: 9,
                }),
            )],
            failures: Vec::new(),
            fingerprint: Some(1),
            pinned: false,
            notes: Vec::new(),
        };
        let shift = 100.0 * (1.0 + metric.bound * 1.2);
        let calm = compare_sets(&outcome(100.0, 5.0), &outcome(101.0, 5.0));
        assert_eq!(calm, SetsVerdict::default());
        let moved = compare_sets(&outcome(100.0, 5.0), &outcome(shift, 5.0));
        assert_eq!((moved.disagree.len(), moved.unresolved.len()), (1, 0));
        let noisy = compare_sets(&outcome(100.0, 5.0), &outcome(shift, 200.0 * metric.bound));
        assert_eq!((noisy.disagree.len(), noisy.unresolved.len()), (0, 1));
    }

    #[test]
    fn a_crashed_or_silent_or_wrong_child_is_a_failure() {
        let run = |script: &str| {
            run_child(
                Command::new("sh").args(["-c", script]),
                Duration::from_secs(10),
            )
        };
        let crashed = judge(&run("echo boom >&2; exit 101"), 0).unwrap_err();
        assert!(crashed.reason.contains("101") && crashed.stderr_tail.contains("boom"));
        assert!(judge(&run("true"), 0)
            .unwrap_err()
            .reason
            .contains("no result"));
        let good = RepResult {
            fingerprint: 0xfeed,
            ops: 4,
            values: vec![("ops_per_sec".into(), 12.5)],
        };
        let script = format!("echo noise; echo '{}'", good.to_json().emit());
        assert_eq!(judge(&run(&script), 0xfeed).unwrap(), good);
        assert!(judge(&run(&script), 0xbeef)
            .unwrap_err()
            .reason
            .contains("oracle mismatch"));
        let missing = run_child(
            &mut Command::new("/nonexistent/program"),
            Duration::from_secs(1),
        );
        assert!(matches!(missing.exit, Exit::SpawnFailed(_)));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("kv"), None);
    }
}

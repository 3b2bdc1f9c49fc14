//! The benchmark-regression gate.
//!
//! Runs a small, fully deterministic set of modeled workloads — the Figure 2
//! / Figure 3 applications (SOR, ASP) and the ablation's synthetic
//! single-writer pattern — in **both** flush-batching modes, and turns the
//! results into a flat JSON report (`BENCH_PR.json` in CI). The gate then
//! checks two things:
//!
//! 1. **Internal invariants** — batching must never change application
//!    results (checksums are byte-derived), it must deliver *strictly
//!    fewer* diff-propagation messages on the multi-object SOR workloads,
//!    and *strictly lower* modeled time on the deterministic
//!    (no-migration) one;
//! 2. **Regression vs. a committed baseline** (`bench/baseline.json`) —
//!    modeled message counts must not grow by more than the tolerance
//!    (5 % in CI) for any (workload, mode) pair; modeled execution time is
//!    gated for the [`time_gated`] (no-migration) workloads at
//!    [`TIME_TOLERANCE_FACTOR`] × the tolerance, because thread-scheduling
//!    order leaks a little noise into the virtual clock. Adaptive-threshold
//!    rows race migrations against requests, so their modeled time varies
//!    run to run and only their (stable) message counts are gated.
//!
//! The same gate runs locally through `scripts/bench_gate.sh` (or
//! `cargo run -p dsm-bench --release --bin bench_gate`).

use crate::table::{fmt_f, Table};
use crate::{cluster, Scale};
use dsm_apps::synthetic::{self, SyntheticParams};
use dsm_apps::{asp, sor};
use dsm_core::{EwmaWriteRatioPolicy, HysteresisPolicy, MigrationPolicy, ProtocolConfig};
use dsm_runtime::ExecutionReport;

/// Relative growth in messages or modeled time that fails the gate.
pub const DEFAULT_TOLERANCE: f64 = 0.05;

/// Modeled *time* is gated at this multiple of the message tolerance.
/// Message counts are scheduling-invariant (repeat runs reproduce them to
/// the message), but real thread-scheduling order leaks into the virtual
/// clock — per-message handling costs accumulate in arrival order — which
/// moves modeled time by up to ~±8 % between runs even on deterministic
/// workloads. 3 × 5 % still catches any structural slowdown (a lost
/// batching path costs ~25 % on the SOR workload) without flaking on
/// scheduler noise.
pub const TIME_TOLERANCE_FACTOR: f64 = 3.0;

/// One measured (workload, mode) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct GateRow {
    /// Workload label (stable across runs; the baseline is keyed on it).
    pub workload: String,
    /// Whether release-time flush batching was enabled.
    pub batched: bool,
    /// Total modeled protocol messages.
    pub messages: u64,
    /// Diff-propagation messages (`Diff` + `DiffBatch`).
    pub diff_messages: u64,
    /// Total modeled network traffic in bytes.
    pub bytes: u64,
    /// Modeled (virtual) execution time in milliseconds.
    pub time_ms: f64,
    /// Home migrations performed during the run.
    pub migrations: u64,
    /// Migrations that returned the home to the node it had just left (the
    /// ping-pong events the policy matrix's hysteresis row damps).
    pub migrate_backs: u64,
    /// Checksum of the application result (0 when the workload has none);
    /// must be identical between the two modes of one workload.
    pub checksum: f64,
}

impl GateRow {
    fn from_report(workload: &str, batched: bool, checksum: f64, report: &ExecutionReport) -> Self {
        GateRow {
            workload: workload.to_string(),
            batched,
            messages: report.total_messages(),
            diff_messages: report.network.diff_propagation_messages(),
            bytes: report.total_traffic_bytes(),
            time_ms: report.execution_time.as_millis(),
            migrations: report.migrations(),
            migrate_backs: report.migrate_backs(),
            checksum,
        }
    }

    /// The key the baseline comparison matches rows on.
    pub fn key(&self) -> String {
        format!(
            "{}[{}]",
            self.workload,
            if self.batched { "batched" } else { "unbatched" }
        )
    }
}

/// Every gate workload, in the order they are collected and reported. The
/// `policy_matrix_*` family runs one fixed ping-pong workload (the
/// synthetic single-writer benchmark on three nodes: two workers
/// alternating short bursts) across the policy layer — the paper's
/// baselines, the beyond-the-paper hysteresis and EWMA policies, and a
/// mixed cluster whose default policy is overridden per object — so
/// policy-layer regressions are gated exactly like wire-mode regressions.
pub const WORKLOADS: [&str; 10] = [
    "fig2_sor_nohm",
    "fig3_sor_at",
    "fig3_asp_at",
    "ablation_synthetic_r2_nohm",
    "policy_matrix_nohm",
    "policy_matrix_at",
    "policy_matrix_ft2",
    "policy_matrix_hyst",
    "policy_matrix_ewma",
    "policy_matrix_mixed",
];

/// Run one named gate workload in one flush-batching mode.
fn run_workload(name: &str, scale: Scale, batched: bool) -> GateRow {
    // The AT SOR size keeps `band / nodes >= 2` on eight nodes, so each
    // release still flushes at least two rows per remote home and batches
    // really form under the migration-enabled configuration too.
    let (sor_size, at_sor_size, asp_size, updates) = match scale {
        Scale::Small => (64, 128, 48, 96),
        Scale::Paper => (256, 512, 128, 384),
    };
    match name {
        // Figure 2's SOR under NoHM on four nodes: round-robin row homes
        // mean every phase release flushes several same-home diffs — the
        // workload batching exists for.
        "fig2_sor_nohm" => {
            let params = sor::SorParams::small(sor_size, 4);
            let config = cluster(4, ProtocolConfig::no_migration()).with_flush_batching(batched);
            let run = sor::run(config, &params);
            GateRow::from_report(name, batched, sor::checksum(&run.result), &run.report)
        }
        // Figure 3's SOR configuration (adaptive threshold, eight nodes):
        // the early iterations flush whole bands to the round-robin homes
        // (batched), then rows migrate to their writers and only boundary
        // traffic is left — batching under the paper's headline mode.
        "fig3_sor_at" => {
            let params = sor::SorParams::small(at_sor_size, 4);
            let config = cluster(crate::fig3::NODES, ProtocolConfig::adaptive())
                .with_flush_batching(batched);
            let run = sor::run(config, &params);
            GateRow::from_report(name, batched, sor::checksum(&run.result), &run.report)
        }
        // Figure 3's ASP configuration.
        "fig3_asp_at" => {
            let params = asp::AspParams::small(asp_size);
            let config = cluster(crate::fig3::NODES, ProtocolConfig::adaptive())
                .with_flush_batching(batched);
            let run = asp::run(config, &params);
            GateRow::from_report(name, batched, asp::checksum(&run.result), &run.report)
        }
        // The ablation's synthetic single-writer pattern at r = 2, pinned
        // to the no-migration baseline: every update is exactly one
        // fault-in plus one diff, so the message count is a closed-form
        // function of the configuration — the most regression-sensitive
        // row of the gate. (Single-object intervals never batch; the row
        // exists to pin the unbatched fast path in both modes.)
        "ablation_synthetic_r2_nohm" => {
            let params = SyntheticParams {
                repetition: 2,
                total_updates: updates,
                compute_ops: 0,
            };
            let config = cluster(5, ProtocolConfig::no_migration()).with_flush_batching(batched);
            let run = synthetic::run(config, &params);
            GateRow::from_report(name, batched, run.result as f64, &run.report)
        }
        // The policy matrix: the synthetic benchmark on three nodes (master
        // plus two workers taking turns in bursts of two updates) is a
        // ping-pong access trace — the hardest pattern for eager migration
        // policies and the one hysteresis exists for. The EWMA row instead
        // uses bursts of four: its default configuration (gain 0.5, bound
        // 0.8) needs three unbroken remote writes to arm, so bursts of two
        // would leave the policy permanently inert and the row would gate
        // nothing. `total_updates` is a multiple of every repetition used,
        // so the final counter value (the checksum) is
        // schedule-independent.
        name if name.starts_with("policy_matrix_") => {
            let repetition = if name == "policy_matrix_ewma" { 4 } else { 2 };
            let params = SyntheticParams {
                repetition,
                total_updates: updates,
                compute_ops: 0,
            };
            let protocol = match name {
                "policy_matrix_nohm" => ProtocolConfig::no_migration(),
                "policy_matrix_at" => ProtocolConfig::adaptive(),
                "policy_matrix_ft2" => ProtocolConfig::fixed_threshold(2),
                "policy_matrix_hyst" => {
                    ProtocolConfig::no_migration().with_migration(HysteresisPolicy::default())
                }
                "policy_matrix_ewma" => {
                    ProtocolConfig::no_migration().with_migration(EwmaWriteRatioPolicy::default())
                }
                // The mixed cluster: a NoMigration default, overridden to
                // the adaptive policy for the one object that matters —
                // proof that per-object overrides reach the engine (the
                // default alone would never migrate; see check_internal).
                "policy_matrix_mixed" => ProtocolConfig::no_migration()
                    .with_object_policy(synthetic::counter_object(), MigrationPolicy::adaptive()),
                other => panic!("unknown policy-matrix workload {other:?}"),
            };
            let config = cluster(3, protocol).with_flush_batching(batched);
            let run = synthetic::run(config, &params);
            GateRow::from_report(name, batched, run.result as f64, &run.report)
        }
        other => panic!("unknown gate workload {other:?}"),
    }
}

/// Collect every gate workload in both flush-batching modes.
pub fn collect(scale: Scale) -> Vec<GateRow> {
    collect_prefixed(scale, "")
}

/// Collect only the gate workloads whose name starts with `prefix`, in both
/// flush-batching modes — the fig2/fig3/ablation binaries use this to show
/// their *own* workload family in both wire modes without re-running the
/// other figures' workloads.
pub fn collect_prefixed(scale: Scale, prefix: &str) -> Vec<GateRow> {
    let mut rows = Vec::new();
    for batched in [true, false] {
        for name in WORKLOADS {
            if name.starts_with(prefix) {
                rows.push(run_workload(name, scale, batched));
            }
        }
    }
    rows
}

/// Render gate rows as a table (printed by the fig2/fig3/ablation binaries
/// so every report shows both flush-batching modes).
pub fn render(rows: &[GateRow]) -> Table {
    let mut table = Table::new(&[
        "workload",
        "mode",
        "messages",
        "diff_msgs",
        "bytes",
        "time_ms",
        "migr",
        "backs",
    ]);
    for row in rows {
        table.row(vec![
            row.workload.clone(),
            if row.batched { "batched" } else { "unbatched" }.to_string(),
            row.messages.to_string(),
            row.diff_messages.to_string(),
            row.bytes.to_string(),
            fmt_f(row.time_ms),
            row.migrations.to_string(),
            row.migrate_backs.to_string(),
        ]);
    }
    table
}

/// Internal consistency checks on a freshly collected run; returns the list
/// of violations (empty = pass).
pub fn check_internal(rows: &[GateRow]) -> Vec<String> {
    let mut errors = Vec::new();
    let find = |workload: &str, batched: bool| {
        rows.iter()
            .find(|r| r.workload == workload && r.batched == batched)
    };
    let workloads: Vec<&str> = {
        let mut seen = Vec::new();
        for row in rows {
            if !seen.contains(&row.workload.as_str()) {
                seen.push(row.workload.as_str());
            }
        }
        seen
    };
    for workload in &workloads {
        let (Some(on), Some(off)) = (find(workload, true), find(workload, false)) else {
            errors.push(format!("{workload}: missing one of the two modes"));
            continue;
        };
        if on.checksum != off.checksum {
            errors.push(format!(
                "{workload}: batching changed the application result \
                 (checksum {} vs {})",
                on.checksum, off.checksum
            ));
        }
    }
    // The acceptance claim, enforced on the multi-object SOR workloads:
    // strictly fewer diff-propagation messages with batching on, and — on
    // the no-migration configuration, whose message DAG is a pure function
    // of the workload — strictly lower modeled time. (Adaptive-threshold
    // runs carry a little scheduling noise in modeled time, so the strict
    // time comparison is pinned to the deterministic workload; the 5 %
    // baseline comparison still bounds AT's time.)
    for workload in ["fig2_sor_nohm", "fig3_sor_at"] {
        if let (Some(on), Some(off)) = (find(workload, true), find(workload, false)) {
            if on.diff_messages >= off.diff_messages {
                errors.push(format!(
                    "{workload}: batching must send strictly fewer diff messages \
                     ({} vs {})",
                    on.diff_messages, off.diff_messages
                ));
            }
        }
    }
    if let (Some(on), Some(off)) = (find("fig2_sor_nohm", true), find("fig2_sor_nohm", false)) {
        if on.time_ms >= off.time_ms {
            errors.push(format!(
                "fig2_sor_nohm: batching must lower modeled time \
                 ({} ms vs {} ms)",
                on.time_ms, off.time_ms
            ));
        }
    }
    // The policy-matrix claims, checked per flush-batching mode:
    // 1. NoMigration never migrates — the trait-based NM policy must be as
    //    inert as the old enum variant.
    // 2. The adaptive default migrates on the worker pattern, and on the
    //    two-worker ping-pong trace it pays migrate-backs.
    // 3. The hysteresis policy's whole point: strictly fewer migrate-backs
    //    than the adaptive policy on the same ping-pong trace.
    // 4. The mixed cluster's NoMigration *default* would never migrate, so
    //    any migration there proves the per-object override reached the
    //    engine's decision point.
    for batched in [true, false] {
        let mode = if batched { "batched" } else { "unbatched" };
        if let Some(nohm) = find("policy_matrix_nohm", batched) {
            if nohm.migrations != 0 || nohm.migrate_backs != 0 {
                errors.push(format!(
                    "policy_matrix_nohm[{mode}]: NoMigration migrated \
                     ({} migrations, {} migrate-backs)",
                    nohm.migrations, nohm.migrate_backs
                ));
            }
        }
        if let (Some(at), Some(hyst)) = (
            find("policy_matrix_at", batched),
            find("policy_matrix_hyst", batched),
        ) {
            if at.migrations == 0 || at.migrate_backs == 0 {
                errors.push(format!(
                    "policy_matrix_at[{mode}]: the adaptive policy must \
                     migrate (and migrate back) on the ping-pong trace \
                     ({} migrations, {} migrate-backs)",
                    at.migrations, at.migrate_backs
                ));
            } else if hyst.migrate_backs >= at.migrate_backs {
                errors.push(format!(
                    "policy_matrix[{mode}]: hysteresis must suffer strictly \
                     fewer migrate-backs than adaptive ({} vs {})",
                    hyst.migrate_backs, at.migrate_backs
                ));
            }
        }
        if let Some(mixed) = find("policy_matrix_mixed", batched) {
            if mixed.migrations == 0 {
                errors.push(format!(
                    "policy_matrix_mixed[{mode}]: the per-object adaptive \
                     override never migrated — overrides are not reaching \
                     the engine"
                ));
            }
        }
        // The EWMA row runs bursts of four, which deterministically arm the
        // default write-ratio bound within a single writer's turn — a row
        // that never migrates means the policy (or its scratch hooks) broke.
        if let Some(ewma) = find("policy_matrix_ewma", batched) {
            if ewma.migrations == 0 {
                errors.push(format!(
                    "policy_matrix_ewma[{mode}]: the EWMA policy must \
                     migrate on bursts of four (0 migrations)"
                ));
            }
        }
    }
    errors
}

/// Whether a workload's modeled *time* is gated against the baseline. Only
/// the no-migration workloads qualify: their message DAG is a pure function
/// of the configuration, so modeled time is reproducible to within ~1 %.
/// Adaptive-threshold runs race migrations against requests, which can
/// shift modeled time by double-digit percentages between runs — those rows
/// are gated on message counts only (counts stay within a fraction of a
/// percent).
pub fn time_gated(workload: &str) -> bool {
    workload.ends_with("_nohm")
}

/// Compare a fresh run against the committed baseline; returns the list of
/// regressions (empty = pass). `tolerance` is the allowed relative growth
/// in modeled message count and — for [`time_gated`] workloads — modeled
/// time (0.05 = 5 %).
pub fn compare(current: &[GateRow], baseline: &[GateRow], tolerance: f64) -> Vec<String> {
    let mut errors = Vec::new();
    for base in baseline {
        let Some(now) = current
            .iter()
            .find(|r| r.workload == base.workload && r.batched == base.batched)
        else {
            errors.push(format!("{}: workload missing from current run", base.key()));
            continue;
        };
        let msg_limit = base.messages as f64 * (1.0 + tolerance);
        if now.messages as f64 > msg_limit {
            errors.push(format!(
                "{}: modeled message count regressed {} -> {} (> {:.0}% over baseline)",
                base.key(),
                base.messages,
                now.messages,
                tolerance * 100.0
            ));
        }
        let time_tolerance = tolerance * TIME_TOLERANCE_FACTOR;
        let time_limit = base.time_ms * (1.0 + time_tolerance);
        if time_gated(&base.workload) && now.time_ms > time_limit {
            errors.push(format!(
                "{}: modeled time regressed {:.3} ms -> {:.3} ms (> {:.0}% over baseline)",
                base.key(),
                base.time_ms,
                now.time_ms,
                time_tolerance * 100.0
            ));
        }
    }
    // The reverse direction: a workload measured now but absent from the
    // baseline would otherwise be silently ungated — a newly added gate
    // workload must come with a refreshed baseline (`--write-baseline`).
    for now in current {
        if !baseline
            .iter()
            .any(|b| b.workload == now.workload && b.batched == now.batched)
        {
            errors.push(format!(
                "{}: no baseline entry — refresh bench/baseline.json with --write-baseline",
                now.key()
            ));
        }
    }
    errors
}

// ----------------------------------------------------------------------
// JSON (de)serialization — hand-rolled, the workspace carries no serde.
// ----------------------------------------------------------------------

/// Serialize gate rows as the `BENCH_PR.json` / `bench/baseline.json`
/// document.
pub fn to_json(rows: &[GateRow]) -> String {
    let mut out = String::from("{\n  \"schema\": 1,\n  \"workloads\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"batched\": {}, \"messages\": {}, \
             \"diff_messages\": {}, \"bytes\": {}, \"time_ms\": {:.6}, \
             \"migrations\": {}, \"migrate_backs\": {}, \
             \"checksum\": {:.6}}}{}\n",
            row.workload,
            row.batched,
            row.messages,
            row.diff_messages,
            row.bytes,
            row.time_ms,
            row.migrations,
            row.migrate_backs,
            row.checksum,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parse a gate JSON document (the exact shape [`to_json`] writes; field
/// order inside a workload object is free, unknown fields are rejected so
/// schema drift is caught loudly).
pub fn parse_json(text: &str) -> Result<Vec<GateRow>, String> {
    let mut rows = Vec::new();
    parse_into(text, &mut rows)?;
    Ok(rows)
}

/// As [`parse_json`], but salvaging: returns every workload row that
/// parsed *before* the first error, plus the error itself (`None` = clean
/// parse). The bench binaries merge their sections into one shared
/// `BENCH_PR.json`; when that file is truncated or corrupt (a killed CI
/// step mid-write), a strict parse would make the next binary silently
/// drop every section it does not own — salvage keeps whatever rows
/// survive and surfaces the damage as a warning instead.
pub fn salvage_json(text: &str) -> (Vec<GateRow>, Option<String>) {
    let mut rows = Vec::new();
    let error = parse_into(text, &mut rows).err();
    (rows, error)
}

/// The shared parse loop: pushes each workload row into `rows` as it
/// completes, so a truncation error loses only the row it interrupted.
fn parse_into(text: &str, rows: &mut Vec<GateRow>) -> Result<(), String> {
    let mut p = Parser::new(text);
    p.skip_ws();
    p.expect(b'{')?;
    loop {
        p.skip_ws();
        let key = p.string()?;
        p.skip_ws();
        p.expect(b':')?;
        p.skip_ws();
        match key.as_str() {
            "schema" => {
                let v = p.number()?;
                if v != 1.0 {
                    return Err(format!("unsupported gate schema {v}"));
                }
            }
            "workloads" => {
                p.expect(b'[')?;
                p.skip_ws();
                if !p.eat(b']') {
                    loop {
                        rows.push(p.workload()?);
                        p.skip_ws();
                        if p.eat(b']') {
                            break;
                        }
                        p.expect(b',')?;
                    }
                }
            }
            // The throughput harness appends its own section to the same
            // document (see `crate::throughput::parse_document`), and
            // older documents carry a report-only `scheduler` section; the
            // workload-gate parser skips both so either gate can read one
            // `BENCH_PR.json`.
            "throughput" | "scheduler" => p.skip_value()?,
            other => return Err(format!("unknown top-level key {other:?}")),
        }
        p.skip_ws();
        if p.eat(b'}') {
            break;
        }
        p.expect(b',')?;
    }
    Ok(())
}

/// Minimal recursive-descent parser for the gate document. Shared with the
/// throughput section's (de)serializer in `crate::throughput`.
pub(crate) struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }
}

impl Parser<'_> {
    pub(crate) fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    pub(crate) fn eat(&mut self, byte: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    pub(crate) fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {} (found {:?})",
                byte as char,
                self.pos,
                self.bytes.get(self.pos).map(|b| *b as char)
            ))
        }
    }

    pub(crate) fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b'"' {
                let s = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| e.to_string())?
                    .to_string();
                self.pos += 1;
                return Ok(s);
            }
            if b == b'\\' {
                return Err("escape sequences are not used by the gate format".to_string());
            }
            self.pos += 1;
        }
        Err("unterminated string".to_string())
    }

    pub(crate) fn number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?
            .parse::<f64>()
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }

    pub(crate) fn boolean(&mut self) -> Result<bool, String> {
        if self.bytes[self.pos..].starts_with(b"true") {
            self.pos += 4;
            Ok(true)
        } else if self.bytes[self.pos..].starts_with(b"false") {
            self.pos += 5;
            Ok(false)
        } else {
            Err(format!("expected boolean at byte {}", self.pos))
        }
    }

    /// Skip one JSON value of any shape — used to tolerate the *other*
    /// gate's section when each gate parses the shared document.
    pub(crate) fn skip_value(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'"') => {
                self.string()?;
            }
            Some(b'{') | Some(b'[') => {
                let (open, close) = if self.bytes[self.pos] == b'{' {
                    (b'{', b'}')
                } else {
                    (b'[', b']')
                };
                self.pos += 1;
                self.skip_ws();
                if self.eat(close) {
                    return Ok(());
                }
                loop {
                    if open == b'{' {
                        self.string()?;
                        self.skip_ws();
                        self.expect(b':')?;
                    }
                    self.skip_value()?;
                    self.skip_ws();
                    if self.eat(close) {
                        return Ok(());
                    }
                    self.expect(b',')?;
                    self.skip_ws();
                }
            }
            Some(b't') | Some(b'f') => {
                self.boolean()?;
            }
            _ => {
                self.number()?;
            }
        }
        Ok(())
    }

    fn workload(&mut self) -> Result<GateRow, String> {
        self.skip_ws();
        self.expect(b'{')?;
        let mut row = GateRow {
            workload: String::new(),
            batched: false,
            messages: 0,
            diff_messages: 0,
            bytes: 0,
            time_ms: 0.0,
            migrations: 0,
            migrate_backs: 0,
            checksum: 0.0,
        };
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            match key.as_str() {
                "workload" => row.workload = self.string()?,
                "batched" => row.batched = self.boolean()?,
                "messages" => row.messages = self.number()? as u64,
                "diff_messages" => row.diff_messages = self.number()? as u64,
                "bytes" => row.bytes = self.number()? as u64,
                "time_ms" => row.time_ms = self.number()?,
                "migrations" => row.migrations = self.number()? as u64,
                "migrate_backs" => row.migrate_backs = self.number()? as u64,
                "checksum" => row.checksum = self.number()?,
                other => return Err(format!("unknown workload key {other:?}")),
            }
            self.skip_ws();
            if self.eat(b'}') {
                break;
            }
            self.expect(b',')?;
        }
        if row.workload.is_empty() {
            return Err("workload entry without a name".to_string());
        }
        Ok(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(workload: &str, batched: bool, messages: u64, time_ms: f64) -> GateRow {
        GateRow {
            workload: workload.to_string(),
            batched,
            messages,
            diff_messages: messages / 3,
            bytes: messages * 100,
            time_ms,
            migrations: 0,
            migrate_backs: 0,
            checksum: 42.5,
        }
    }

    #[test]
    fn json_round_trips() {
        let mut rows = vec![
            row("fig2_sor_nohm", true, 1200, 35.25),
            row("x", false, 7, 0.5),
        ];
        rows[0].migrations = 17;
        rows[0].migrate_backs = 3;
        let text = to_json(&rows);
        let parsed = parse_json(&text).expect("own output parses");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].workload, "fig2_sor_nohm");
        assert!(parsed[0].batched);
        assert_eq!(parsed[0].messages, 1200);
        assert_eq!(parsed[0].diff_messages, 400);
        assert_eq!(parsed[0].bytes, 120_000);
        assert!((parsed[0].time_ms - 35.25).abs() < 1e-9);
        assert_eq!(parsed[0].migrations, 17);
        assert_eq!(parsed[0].migrate_backs, 3);
        assert!((parsed[0].checksum - 42.5).abs() < 1e-9);
        assert!(!parsed[1].batched);
    }

    #[test]
    fn salvage_keeps_rows_parsed_before_a_truncation() {
        let rows = vec![row("a", true, 1, 1.0), row("b", false, 7, 0.5)];
        let text = to_json(&rows);
        // A clean document salvages completely, with no error.
        let (all, error) = salvage_json(&text);
        assert_eq!(all, rows);
        assert!(error.is_none());
        // Chopped mid-way through the second row: the first survives and
        // the damage is reported, where parse_json would drop everything.
        let cut = text.rfind("\"b\"").expect("second row is present");
        let (salvaged, error) = salvage_json(&text[..cut]);
        assert_eq!(salvaged.len(), 1, "{salvaged:?}");
        assert_eq!(salvaged[0], rows[0]);
        assert!(error.is_some());
        assert!(parse_json(&text[..cut]).is_err());
    }

    #[test]
    fn parser_rejects_schema_drift() {
        assert!(parse_json("{\"schema\": 2, \"workloads\": []}").is_err());
        assert!(parse_json("{\"schema\": 1, \"workloads\": [{\"bogus\": 1}]}").is_err());
        assert!(parse_json("not json").is_err());
        assert!(parse_json("{\"schema\": 1, \"workloads\": []}")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn compare_flags_only_regressions_beyond_tolerance() {
        let baseline = vec![row("a_nohm", true, 100, 10.0), row("b", false, 100, 10.0)];
        // Within 5 %: pass. Messages -regression is fine (improvement).
        let ok = vec![row("a_nohm", true, 104, 10.4), row("b", false, 80, 8.0)];
        assert!(compare(&ok, &baseline, DEFAULT_TOLERANCE).is_empty());
        // Message blow-up and time blow-up are both caught, as is a
        // missing workload.
        let bad = vec![row("a_nohm", true, 106, 10.0)];
        let errors = compare(&bad, &baseline, DEFAULT_TOLERANCE);
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert!(errors[0].contains("message count regressed"));
        assert!(errors[1].contains("missing"));
        // Time is gated at TIME_TOLERANCE_FACTOR x the message tolerance:
        // +6% passes, +16% fails.
        let slow_ok = vec![row("a_nohm", true, 100, 10.6), row("b", false, 100, 10.0)];
        assert!(compare(&slow_ok, &baseline, DEFAULT_TOLERANCE).is_empty());
        let slow = vec![row("a_nohm", true, 100, 11.6), row("b", false, 100, 10.0)];
        let errors = compare(&slow, &baseline, DEFAULT_TOLERANCE);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("time regressed"));
        // Modeled time is NOT gated for scheduling-noisy (adaptive) rows;
        // their message counts still are.
        assert!(time_gated("fig2_sor_nohm"));
        assert!(!time_gated("fig3_sor_at"));
        let noisy_time = vec![row("a_nohm", true, 100, 10.0), row("b", false, 100, 99.0)];
        assert!(compare(&noisy_time, &baseline, DEFAULT_TOLERANCE).is_empty());
        // A workload measured now but missing from the baseline fails the
        // gate (it would otherwise be silently ungated).
        let extra = vec![
            row("a_nohm", true, 100, 10.0),
            row("b", false, 100, 10.0),
            row("fresh", true, 1, 1.0),
        ];
        let errors = compare(&extra, &baseline, DEFAULT_TOLERANCE);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("no baseline entry"));
    }

    #[test]
    fn internal_checks_enforce_the_batching_claims() {
        let mut rows = vec![
            row("fig2_sor_nohm", true, 100, 10.0),
            row("fig2_sor_nohm", false, 130, 12.0),
        ];
        rows[0].diff_messages = 10;
        rows[1].diff_messages = 40;
        assert!(check_internal(&rows).is_empty());
        // Equal diff counts violate the strict improvement claim.
        rows[0].diff_messages = 40;
        assert_eq!(check_internal(&rows).len(), 1);
        // A checksum mismatch is always an error.
        rows[0].diff_messages = 10;
        rows[0].checksum = 1.0;
        let errors = check_internal(&rows);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("checksum"));
    }

    #[test]
    fn internal_checks_enforce_the_policy_matrix_claims() {
        // A healthy matrix (both modes): NM inert, AT ping-pongs, HYST damps
        // the migrate-backs, the mixed cluster's override migrates.
        let mut rows = Vec::new();
        for batched in [true, false] {
            let mut nohm = row("policy_matrix_nohm", batched, 100, 10.0);
            nohm.migrations = 0;
            let mut at = row("policy_matrix_at", batched, 80, 9.0);
            at.migrations = 20;
            at.migrate_backs = 12;
            let mut hyst = row("policy_matrix_hyst", batched, 70, 8.0);
            hyst.migrations = 2;
            hyst.migrate_backs = 0;
            let mut mixed = row("policy_matrix_mixed", batched, 80, 9.0);
            mixed.migrations = 20;
            let mut ewma = row("policy_matrix_ewma", batched, 85, 9.5);
            ewma.migrations = 10;
            rows.extend([nohm, at, hyst, mixed, ewma]);
        }
        assert!(
            check_internal(&rows).is_empty(),
            "{:?}",
            check_internal(&rows)
        );
        // A migrating NM row, a hysteresis row that ping-pongs as much as
        // adaptive, an inert mixed row and a dead EWMA row are each caught
        // (in one mode).
        rows[0].migrations = 1;
        rows[2].migrate_backs = 12;
        rows[3].migrations = 0;
        rows[4].migrations = 0;
        let errors = check_internal(&rows);
        assert_eq!(errors.len(), 4, "{errors:?}");
        assert!(errors[0].contains("NoMigration migrated"));
        assert!(errors[1].contains("strictly fewer migrate-backs"));
        assert!(errors[2].contains("overrides are not reaching"));
        assert!(errors[3].contains("EWMA policy must migrate"));
        // An adaptive row that never migrated is itself an error.
        rows[0].migrations = 0;
        rows[2].migrate_backs = 0;
        rows[3].migrations = 20;
        rows[4].migrations = 10;
        rows[1].migrations = 0;
        rows[1].migrate_backs = 0;
        let errors = check_internal(&rows);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("must migrate"));
    }

    #[test]
    fn gate_rows_have_stable_keys() {
        assert_eq!(row("a", true, 1, 1.0).key(), "a[batched]");
        assert_eq!(row("a", false, 1, 1.0).key(), "a[unbatched]");
    }
}

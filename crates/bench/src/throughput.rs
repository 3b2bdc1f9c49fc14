//! The wall-clock throughput harness for the KV serving workload.
//!
//! Everything else in this crate reports **modeled** (Hockney) numbers on a
//! virtual clock; this module is the repo's first **wall-clock**
//! measurement. It drives [`dsm_apps::kv`] — seeded Zipfian traffic with a
//! shifting hot set — across the full built-in policy grid
//! ([`crate::matrix::policies`]) on a real fabric (threaded or TCP) and
//! reports, per policy:
//!
//! * ops/sec (total operations over the slowest node's serving time) and
//!   p50/p95/p99 per-operation latency from the merged
//!   [`LatencyHistogram`]s;
//! * migration behaviour — migrations, migrate-backs and requester-side
//!   redirections, the latter split into *shift* windows (the first window
//!   after each hot-set shift) and *settle* windows (the remainder of each
//!   phase);
//! * total protocol messages and the deterministic store fingerprint.
//!
//! Two checks make the numbers a gate rather than a report:
//! [`check_rows`] enforces per-policy sanity invariants that hold on every
//! machine (NM never migrates or redirects; the adaptive policies migrate
//! *and* beat NM on total messages under skew; AT's redirections
//! concentrate in the shift windows), and [`compare`] holds a fresh run
//! against `bench/throughput_baseline.json` under a deliberately generous
//! wall-clock band — wall-clock numbers move with the machine, so the
//! regression band only catches order-of-magnitude collapses while the
//! fingerprint and message checks stay exact.
//!
//! The results are written as a `throughput` section of the same
//! `BENCH_PR.json` document the modeled gate writes (see
//! [`document_json`] / [`parse_document`]).

use crate::gate::{GateRow, Parser};
use crate::table::{fmt_f, Table};
use dsm_apps::kv::{self, KvParams};
use dsm_model::ComputeModel;
use dsm_runtime::{Cluster, FabricMode};
use dsm_util::LatencyHistogram;
use std::time::Duration;

/// Default wall-clock regression band: a run must achieve at least
/// `baseline ops/sec ÷ band`. Generous by design — the baseline is
/// committed from one machine and checked on another, so only a collapse
/// (a lost fast path, an accidental sleep) should trip it, never runner
/// noise.
pub const DEFAULT_WALL_BAND: f64 = 5.0;

/// Allowed relative growth in total protocol messages vs the baseline.
/// Wider than the modeled gate's 5% because threaded-fabric runs retry
/// busy-deferred requests nondeterministically.
pub const DEFAULT_MESSAGE_TOLERANCE: f64 = 0.25;

/// One policy's throughput measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputRow {
    /// Policy label (stable across runs; the baseline is keyed on it).
    pub policy: String,
    /// Cluster size.
    pub nodes: usize,
    /// Total operations executed (all nodes).
    pub ops: u64,
    /// Wall-clock serving time of the slowest node, in milliseconds.
    pub wall_ms: f64,
    /// Total operations over the slowest node's serving time.
    pub ops_per_sec: f64,
    /// Median per-operation latency, microseconds.
    pub p50_us: f64,
    /// 95th-percentile per-operation latency, microseconds.
    pub p95_us: f64,
    /// 99th-percentile per-operation latency, microseconds.
    pub p99_us: f64,
    /// Home migrations during the run.
    pub migrations: u64,
    /// Migrations that returned a home to the node it had just left.
    pub migrate_backs: u64,
    /// Requester-side redirection hops during the measured windows.
    pub redirects: u64,
    /// Redirections suffered in the first window after each hot-set shift.
    pub shift_redirects: u64,
    /// Redirections suffered in the settled remainder of each phase.
    pub settle_redirects: u64,
    /// Total protocol messages.
    pub messages: u64,
    /// Deterministic fingerprint of the final store contents — identical
    /// across policies, fabrics and machines for one (seed, params, nodes).
    pub fingerprint: u64,
}

impl ThroughputRow {
    /// Redirections per thousand operations.
    pub fn redirects_per_1k(&self) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        self.redirects as f64 * 1000.0 / self.ops as f64
    }
}

/// Run the KV workload under one policy and aggregate the measurement.
fn measure(
    label: &str,
    protocol: dsm_core::ProtocolConfig,
    params: &KvParams,
    nodes: usize,
    fabric: &FabricMode,
    seed: u64,
) -> ThroughputRow {
    let config = Cluster::builder()
        .nodes(nodes)
        .protocol(protocol)
        .compute(ComputeModel::free())
        .seed(seed)
        .fabric(fabric.clone())
        .config();
    let run = kv::run(config, params);

    let mut latency = LatencyHistogram::new();
    let mut wall = Duration::ZERO;
    let mut ops = 0u64;
    let mut shift = 0u64;
    let mut settle = 0u64;
    for node in &run.nodes {
        latency.merge(&node.latency);
        wall = wall.max(node.serving);
        ops += node.ops;
        // Requester-side redirections only advance during the node's own
        // operations (see `NodeCtx::protocol_stats`), so the deltas between
        // consecutive window snapshots attribute them exactly.
        for (w, pair) in node.windows.windows(2).enumerate() {
            let delta = pair[1].redirections_suffered - pair[0].redirections_suffered;
            if w % params.windows_per_phase == 0 {
                shift += delta;
            } else {
                settle += delta;
            }
        }
    }
    let wall_s = wall.as_secs_f64();
    ThroughputRow {
        policy: label.to_string(),
        nodes,
        ops,
        wall_ms: wall_s * 1000.0,
        ops_per_sec: if wall_s > 0.0 {
            ops as f64 / wall_s
        } else {
            0.0
        },
        p50_us: latency.percentile(0.50) as f64 / 1000.0,
        p95_us: latency.percentile(0.95) as f64 / 1000.0,
        p99_us: latency.percentile(0.99) as f64 / 1000.0,
        migrations: run.report.migrations(),
        migrate_backs: run.report.migrate_backs(),
        redirects: shift + settle,
        shift_redirects: shift,
        settle_redirects: settle,
        messages: run.report.total_messages(),
        fingerprint: run.fingerprint,
    }
}

/// Measure every built-in policy ([`crate::matrix::policies`], so a policy
/// added to the conformance grid automatically joins the throughput sweep)
/// under identical traffic.
pub fn collect(
    params: &KvParams,
    nodes: usize,
    fabric: &FabricMode,
    seed: u64,
) -> Vec<ThroughputRow> {
    crate::matrix::policies()
        .into_iter()
        .map(|(label, protocol)| measure(&label, protocol, params, nodes, fabric, seed))
        .collect()
}

/// Render throughput rows as a table.
pub fn render(rows: &[ThroughputRow]) -> Table {
    let mut table = Table::new(&[
        "policy", "ops/s", "wall_ms", "p50_us", "p95_us", "p99_us", "migr", "backs", "redir/1k",
        "msgs",
    ]);
    for row in rows {
        table.row(vec![
            row.policy.clone(),
            fmt_f(row.ops_per_sec),
            fmt_f(row.wall_ms),
            fmt_f(row.p50_us),
            fmt_f(row.p95_us),
            fmt_f(row.p99_us),
            row.migrations.to_string(),
            row.migrate_backs.to_string(),
            fmt_f(row.redirects_per_1k()),
            row.messages.to_string(),
        ]);
    }
    table
}

fn find<'a>(rows: &'a [ThroughputRow], policy: &str) -> Option<&'a ThroughputRow> {
    rows.iter().find(|r| r.policy == policy)
}

/// The machine-independent per-policy sanity invariants; returns the list
/// of violations (empty = pass).
///
/// The issue's headline claim — "adaptive policies redirect less than NM
/// under skew" — is enforced in its only coherent form: NM never migrates,
/// so it never redirects *at all*; what adaptivity buys is strictly fewer
/// **total messages** than NM (migrated homes turn remote write round-trips
/// into local writes), at the price of a nonzero but shift-concentrated
/// redirection count. JUMP and LAZY are measured but exempt from the
/// message claim: JUMP's migrate-on-every-request churn can legitimately
/// cost more than staying put, which is exactly why it is in the grid.
pub fn check_rows(rows: &[ThroughputRow], params: &KvParams) -> Vec<String> {
    let mut errors = Vec::new();
    let Some(nm) = find(rows, "NM") else {
        return vec!["NM row missing — the sweep must include the no-migration baseline".into()];
    };
    // Semantics first: one deterministic store for every policy.
    for row in rows {
        if row.fingerprint != nm.fingerprint {
            errors.push(format!(
                "{}: fingerprint {:#018x} != NM's {:#018x} — a migration policy changed \
                 the application result",
                row.policy, row.fingerprint, nm.fingerprint
            ));
        }
        if row.ops == 0 || row.wall_ms <= 0.0 {
            errors.push(format!("{}: empty measurement", row.policy));
        }
        if !(row.p50_us <= row.p95_us && row.p95_us <= row.p99_us) {
            errors.push(format!(
                "{}: latency percentiles not monotone (p50 {} p95 {} p99 {})",
                row.policy, row.p50_us, row.p95_us, row.p99_us
            ));
        }
    }
    // NM is inert: no migrations means no stale home hints, so no redirects.
    if nm.migrations != 0 || nm.migrate_backs != 0 || nm.redirects != 0 {
        errors.push(format!(
            "NM: the no-migration baseline moved ({} migrations, {} backs, {} redirects)",
            nm.migrations, nm.migrate_backs, nm.redirects
        ));
    }
    // The adaptive family must chase the rotating writers and win on
    // coherence traffic.
    for policy in ["FT2", "AT", "HYST1+2", "EWMA"] {
        let Some(row) = find(rows, policy) else {
            errors.push(format!("{policy} row missing"));
            continue;
        };
        if row.migrations == 0 {
            errors.push(format!(
                "{policy}: never migrated under a rotating single-writer pattern"
            ));
        }
        if row.messages >= nm.messages {
            errors.push(format!(
                "{policy}: {} messages, not fewer than NM's {} — migration stopped \
                 paying for itself under skew",
                row.messages, nm.messages
            ));
        }
    }
    if let Some(jump) = find(rows, "JUMP") {
        if jump.migrations == 0 {
            errors.push("JUMP: migrate-on-request never migrated".into());
        }
    }
    // AT redirects, but the cost concentrates right after hot-set shifts:
    // once homes settle at the new writers, stale hints are used up.
    if let Some(at) = find(rows, "AT") {
        if at.redirects == 0 {
            errors.push(
                "AT: migrated homes without a single redirection — home hints are \
                 never stale, which cannot happen when homes move"
                    .into(),
            );
        }
        if params.windows_per_phase > 1 && at.shift_redirects < at.settle_redirects {
            errors.push(format!(
                "AT: redirections did not drop after hot-set shifts \
                 (shift windows {} < settle windows {})",
                at.shift_redirects, at.settle_redirects
            ));
        }
    } else {
        errors.push("AT row missing".into());
    }
    errors
}

/// Compare a fresh run against the committed baseline; returns the list of
/// regressions (empty = pass). `wall_band` is the allowed ops/sec slowdown
/// factor ([`DEFAULT_WALL_BAND`]); `message_tolerance` the allowed relative
/// message growth ([`DEFAULT_MESSAGE_TOLERANCE`]). Fingerprints are exact:
/// they are machine-independent, so any drift is a semantic change, not
/// noise.
pub fn compare(
    current: &[ThroughputRow],
    baseline: &[ThroughputRow],
    wall_band: f64,
    message_tolerance: f64,
) -> Vec<String> {
    let mut errors = Vec::new();
    for base in baseline {
        let Some(now) = find(current, &base.policy) else {
            errors.push(format!("{}: policy missing from current run", base.policy));
            continue;
        };
        // A different op count is a different workload: its fingerprint,
        // message count and ops/sec are all incomparable, and reporting
        // them as regressions would misdiagnose an `--ops`/`--nodes`
        // override as a semantic change.
        if now.ops != base.ops {
            errors.push(format!(
                "{}: run measured {} ops vs the baseline's {} — op-count overrides are \
                 not comparable against the committed baseline; rerun without them or \
                 refresh it with --write-baseline",
                base.policy, now.ops, base.ops
            ));
            continue;
        }
        if now.fingerprint != base.fingerprint {
            errors.push(format!(
                "{}: fingerprint {:#018x} != baseline {:#018x} — the workload's \
                 deterministic result changed",
                base.policy, now.fingerprint, base.fingerprint
            ));
        }
        let floor = base.ops_per_sec / wall_band;
        if now.ops_per_sec < floor {
            errors.push(format!(
                "{}: throughput collapsed {:.0} -> {:.0} ops/s (> {:.1}x below baseline)",
                base.policy, base.ops_per_sec, now.ops_per_sec, wall_band
            ));
        }
        let limit = base.messages as f64 * (1.0 + message_tolerance);
        if now.messages as f64 > limit {
            errors.push(format!(
                "{}: protocol messages regressed {} -> {} (> {:.0}% over baseline)",
                base.policy,
                base.messages,
                now.messages,
                message_tolerance * 100.0
            ));
        }
    }
    for now in current {
        if find(baseline, &now.policy).is_none() {
            errors.push(format!(
                "{}: no baseline entry — refresh bench/throughput_baseline.json with \
                 --write-baseline",
                now.policy
            ));
        }
    }
    errors
}

// ----------------------------------------------------------------------
// JSON (de)serialization — hand-rolled, the workspace carries no serde.
// ----------------------------------------------------------------------

/// Serialize the combined `BENCH_PR.json` document: the modeled gate's
/// `workloads` section next to the wall-clock `throughput` section (either
/// may be empty — the baseline files each carry only their own section).
pub fn document_json(workloads: &[GateRow], rows: &[ThroughputRow]) -> String {
    let gate_doc = crate::gate::to_json(workloads);
    let body = gate_doc
        .trim_end()
        .strip_suffix('}')
        .expect("gate document ends with its closing brace")
        .trim_end();
    let mut out = format!("{body},\n  \"throughput\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"policy\": \"{}\", \"nodes\": {}, \"ops\": {}, \"wall_ms\": {:.3}, \
             \"ops_per_sec\": {:.1}, \"p50_us\": {:.3}, \"p95_us\": {:.3}, \
             \"p99_us\": {:.3}, \"migrations\": {}, \"migrate_backs\": {}, \
             \"redirects\": {}, \"shift_redirects\": {}, \"settle_redirects\": {}, \
             \"messages\": {}, \"fingerprint\": \"{:#018x}\"}}{}\n",
            row.policy,
            row.nodes,
            row.ops,
            row.wall_ms,
            row.ops_per_sec,
            row.p50_us,
            row.p95_us,
            row.p99_us,
            row.migrations,
            row.migrate_backs,
            row.redirects,
            row.shift_redirects,
            row.settle_redirects,
            row.messages,
            row.fingerprint,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]");
    out.push_str("\n}\n");
    out
}

/// Parse a combined document into its two sections. Either section may be
/// absent (an old `BENCH_PR.json` has no `throughput` key; the throughput
/// baseline has an empty `workloads` array).
pub fn parse_document(text: &str) -> Result<(Vec<GateRow>, Vec<ThroughputRow>), String> {
    let workloads = crate::gate::parse_json(text)?;
    Ok((workloads, parse_throughput(text)?))
}

/// Every section an existing shared document carried, as recovered for a
/// re-write, plus the damage found on the way (empty = clean). Produced by
/// [`salvage_document`] / [`read_for_merge`].
#[derive(Debug, Default, PartialEq)]
pub struct MergeSections {
    /// The modeled gate's `workloads` section.
    pub workloads: Vec<GateRow>,
    /// The wall-clock `throughput` section.
    pub throughput: Vec<ThroughputRow>,
    /// Human-readable damage reports — a non-empty list means the document
    /// was truncated or corrupt and only the rows above were recovered.
    pub warnings: Vec<String>,
}

/// Salvage every section of a shared document. Unlike [`parse_document`],
/// a truncated or corrupt file is not a dead end: each section keeps every
/// row that parsed before the damage, and the parse errors come back as
/// warnings. The bench binaries use this when *merging* into an existing
/// `BENCH_PR.json` — the strict parsers stay in force for baselines, where
/// silently accepting half a document would weaken the gate.
pub fn salvage_document(text: &str) -> MergeSections {
    let mut sections = MergeSections::default();
    let (workloads, gate_error) = crate::gate::salvage_json(text);
    sections.workloads = workloads;
    let throughput_error = parse_throughput_into(text, &mut sections.throughput).err();
    for error in [gate_error, throughput_error].into_iter().flatten() {
        // The two passes walk the same bytes, so one truncation usually
        // produces two copies of the same error.
        if !sections.warnings.contains(&error) {
            sections.warnings.push(error);
        }
    }
    sections
}

/// Read the shared output document a binary is about to merge its own
/// section into. A missing file is a clean empty document (the other
/// binary simply has not run); anything else is salvaged via
/// [`salvage_document`], with the path prefixed onto each warning — the
/// caller re-writes the whole document, so recovered rows survive the
/// damage and the warnings are its only trace.
pub fn read_for_merge(path: &str) -> MergeSections {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return MergeSections::default(),
        Err(e) => {
            return MergeSections {
                warnings: vec![format!("{path}: cannot read the existing document: {e}")],
                ..MergeSections::default()
            }
        }
    };
    let mut sections = salvage_document(&text);
    for warning in &mut sections.warnings {
        *warning = format!("{path}: {warning}");
    }
    sections
}

fn parse_throughput(text: &str) -> Result<Vec<ThroughputRow>, String> {
    let mut rows = Vec::new();
    parse_throughput_into(text, &mut rows)?;
    Ok(rows)
}

fn parse_throughput_into(text: &str, rows: &mut Vec<ThroughputRow>) -> Result<(), String> {
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
            // `gate::parse_json` already validated the schema and the
            // workloads section; this pass only extracts its own. Documents
            // written before the executor became the only server driver
            // carry a report-only `scheduler` section; it is skipped.
            "schema" | "workloads" | "scheduler" => p.skip_value()?,
            "throughput" => {
                p.expect(b'[')?;
                p.skip_ws();
                if !p.eat(b']') {
                    loop {
                        rows.push(throughput_row(&mut p)?);
                        p.skip_ws();
                        if p.eat(b']') {
                            break;
                        }
                        p.expect(b',')?;
                    }
                }
            }
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

fn throughput_row(p: &mut Parser<'_>) -> Result<ThroughputRow, String> {
    p.skip_ws();
    p.expect(b'{')?;
    let mut row = ThroughputRow {
        policy: String::new(),
        nodes: 0,
        ops: 0,
        wall_ms: 0.0,
        ops_per_sec: 0.0,
        p50_us: 0.0,
        p95_us: 0.0,
        p99_us: 0.0,
        migrations: 0,
        migrate_backs: 0,
        redirects: 0,
        shift_redirects: 0,
        settle_redirects: 0,
        messages: 0,
        fingerprint: 0,
    };
    loop {
        p.skip_ws();
        let key = p.string()?;
        p.skip_ws();
        p.expect(b':')?;
        p.skip_ws();
        match key.as_str() {
            "policy" => row.policy = p.string()?,
            "nodes" => row.nodes = p.number()? as usize,
            "ops" => row.ops = p.number()? as u64,
            "wall_ms" => row.wall_ms = p.number()?,
            "ops_per_sec" => row.ops_per_sec = p.number()?,
            "p50_us" => row.p50_us = p.number()?,
            "p95_us" => row.p95_us = p.number()?,
            "p99_us" => row.p99_us = p.number()?,
            "migrations" => row.migrations = p.number()? as u64,
            "migrate_backs" => row.migrate_backs = p.number()? as u64,
            "redirects" => row.redirects = p.number()? as u64,
            "shift_redirects" => row.shift_redirects = p.number()? as u64,
            "settle_redirects" => row.settle_redirects = p.number()? as u64,
            "messages" => row.messages = p.number()? as u64,
            // A u64 fingerprint does not round-trip through JSON's f64
            // numbers, so it travels as a hex string.
            "fingerprint" => {
                let s = p.string()?;
                row.fingerprint =
                    dsm_util::parse_seed(&s).map_err(|e| format!("bad fingerprint {s:?}: {e}"))?;
            }
            other => return Err(format!("unknown throughput key {other:?}")),
        }
        p.skip_ws();
        if p.eat(b'}') {
            break;
        }
        p.expect(b',')?;
    }
    if row.policy.is_empty() {
        return Err("throughput entry without a policy".to_string());
    }
    Ok(row)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(policy: &str, migrations: u64, redirects: u64, messages: u64) -> ThroughputRow {
        ThroughputRow {
            policy: policy.to_string(),
            nodes: 4,
            ops: 96_000,
            wall_ms: 120.5,
            ops_per_sec: 796_680.5,
            p50_us: 1.5,
            p95_us: 12.0,
            p99_us: 40.0,
            migrations,
            migrate_backs: migrations / 4,
            redirects,
            shift_redirects: redirects * 3 / 4,
            settle_redirects: redirects - redirects * 3 / 4,
            messages,
            fingerprint: 0xdead_beef_cafe_f00d,
        }
    }

    fn healthy() -> Vec<ThroughputRow> {
        vec![
            row("NM", 0, 0, 1000),
            row("FT2", 40, 60, 700),
            row("AT", 30, 50, 650),
            row("JUMP", 90, 300, 1400),
            row("LAZY", 5, 10, 900),
            row("HYST1+2", 35, 55, 700),
            row("EWMA", 20, 30, 800),
        ]
    }

    fn gate_row() -> GateRow {
        GateRow {
            workload: "fig2_sor_nohm".to_string(),
            batched: true,
            messages: 1200,
            diff_messages: 400,
            bytes: 120_000,
            time_ms: 35.25,
            migrations: 17,
            migrate_backs: 3,
            checksum: 42.5,
        }
    }

    #[test]
    fn salvage_round_trips_a_clean_document() {
        let workloads = vec![gate_row()];
        let text = document_json(&workloads, &healthy());
        let sections = salvage_document(&text);
        assert_eq!(sections.warnings, Vec::<String>::new());
        assert_eq!(sections.workloads, workloads);
        assert_eq!(sections.throughput, healthy());
    }

    #[test]
    fn salvage_keeps_surviving_sections_of_a_truncated_document() {
        let workloads = vec![gate_row()];
        let text = document_json(&workloads, &healthy());
        // Chop the document inside the throughput section's last row (a
        // killed CI step mid-write): the strict parser rejects the whole
        // file, which used to make the next merging binary silently drop
        // every section — salvage instead keeps the complete workloads
        // section and every throughput row that finished, and reports the
        // damage.
        let cut = text.find("\"EWMA\"").expect("last policy row present");
        let truncated = &text[..cut];
        assert!(parse_document(truncated).is_err());
        let sections = salvage_document(truncated);
        assert!(!sections.warnings.is_empty());
        assert_eq!(sections.workloads, workloads);
        assert_eq!(sections.throughput.len(), healthy().len() - 1);
        assert_eq!(sections.throughput[..], healthy()[..healthy().len() - 1]);
    }

    #[test]
    fn merge_read_treats_a_missing_file_as_clean_and_empty() {
        let sections = read_for_merge("definitely/not/a/real/BENCH_PR.json");
        assert_eq!(sections, MergeSections::default());
        assert!(sections.warnings.is_empty());
    }

    #[test]
    fn scheduler_section_is_tolerated_by_both_parsers() {
        // A legacy document: the report-only section older binaries wrote.
        let text = document_json(&[], &healthy()).replace(
            "  ]\n}\n",
            "  ],\n  \"scheduler\": [{\"mode\": \"executor\", \"workers\": 4}]\n}\n",
        );
        assert!(text.contains("scheduler"));
        assert!(crate::gate::parse_json(&text).unwrap().is_empty());
        let (workloads, parsed) = parse_document(&text).unwrap();
        assert!(workloads.is_empty());
        assert_eq!(parsed, healthy());
        assert_eq!(salvage_document(&text).warnings, Vec::<String>::new());
    }

    #[test]
    fn json_document_round_trips_and_gate_parser_skips_throughput() {
        let rows = healthy();
        let text = document_json(&[], &rows);
        // The modeled gate's parser tolerates the throughput section.
        assert!(crate::gate::parse_json(&text).unwrap().is_empty());
        let (workloads, parsed) = parse_document(&text).unwrap();
        assert!(workloads.is_empty());
        assert_eq!(parsed.len(), rows.len());
        assert_eq!(parsed[0].policy, "NM");
        assert_eq!(parsed[3].migrations, 90);
        assert_eq!(parsed[0].fingerprint, 0xdead_beef_cafe_f00d);
        assert_eq!(parsed[2].shift_redirects, 37);
        assert!((parsed[1].ops_per_sec - 796_680.5).abs() < 0.1);
        // And round-trips exactly.
        assert_eq!(parsed, rows);
    }

    #[test]
    fn parser_rejects_drift() {
        assert!(parse_throughput("{\"schema\": 1, \"throughput\": [{\"bogus\": 1}]}").is_err());
        assert!(parse_throughput("{\"schema\": 1, \"nonsense\": []}").is_err());
        // A document without the section parses to an empty list.
        assert!(parse_throughput("{\"schema\": 1, \"workloads\": []}")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn invariants_pass_on_a_healthy_sweep_and_catch_each_violation() {
        let params = KvParams::gate();
        assert_eq!(check_rows(&healthy(), &params), Vec::<String>::new());

        // NM moving is a violation.
        let mut rows = healthy();
        rows[0].migrations = 1;
        assert!(check_rows(&rows, &params)
            .iter()
            .any(|e| e.contains("no-migration baseline moved")));

        // An adaptive policy that stops beating NM on messages.
        let mut rows = healthy();
        rows[2].messages = 1001;
        assert!(check_rows(&rows, &params)
            .iter()
            .any(|e| e.contains("stopped paying for itself")));

        // A fingerprint split is a semantic failure.
        let mut rows = healthy();
        rows[1].fingerprint ^= 1;
        assert!(check_rows(&rows, &params)
            .iter()
            .any(|e| e.contains("changed the application result")));

        // AT redirections concentrating in settle windows.
        let mut rows = healthy();
        rows[2].shift_redirects = 10;
        rows[2].settle_redirects = 40;
        assert!(check_rows(&rows, &params)
            .iter()
            .any(|e| e.contains("did not drop after hot-set shifts")));

        // A missing baseline policy is reported by name.
        let rows: Vec<ThroughputRow> = healthy()
            .into_iter()
            .filter(|r| r.policy != "EWMA")
            .collect();
        assert!(check_rows(&rows, &params)
            .iter()
            .any(|e| e.contains("EWMA row missing")));
    }

    #[test]
    fn compare_flags_collapse_growth_and_drift() {
        let baseline = healthy();
        assert!(compare(
            &baseline,
            &baseline,
            DEFAULT_WALL_BAND,
            DEFAULT_MESSAGE_TOLERANCE
        )
        .is_empty());

        // 4x slower passes the generous band; 6x fails.
        let mut slow = healthy();
        for r in &mut slow {
            r.ops_per_sec /= 4.0;
        }
        assert!(compare(
            &slow,
            &baseline,
            DEFAULT_WALL_BAND,
            DEFAULT_MESSAGE_TOLERANCE
        )
        .is_empty());
        for r in &mut slow {
            r.ops_per_sec /= 1.5;
        }
        let errors = compare(
            &slow,
            &baseline,
            DEFAULT_WALL_BAND,
            DEFAULT_MESSAGE_TOLERANCE,
        );
        assert_eq!(errors.len(), baseline.len(), "{errors:?}");
        assert!(errors[0].contains("throughput collapsed"));

        // Message growth beyond tolerance and fingerprint drift are caught.
        let mut bad = healthy();
        bad[0].messages = 1300;
        bad[1].fingerprint ^= 1;
        let errors = compare(
            &bad,
            &baseline,
            DEFAULT_WALL_BAND,
            DEFAULT_MESSAGE_TOLERANCE,
        );
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert!(errors[0].contains("messages regressed"));
        assert!(errors[1].contains("fingerprint"));

        // An op-count mismatch refuses the comparison per policy instead
        // of misreporting the different workload as fingerprint drift.
        let mut resized = healthy();
        for r in &mut resized {
            r.ops /= 2;
            r.fingerprint ^= 1;
        }
        let errors = compare(
            &resized,
            &baseline,
            DEFAULT_WALL_BAND,
            DEFAULT_MESSAGE_TOLERANCE,
        );
        assert_eq!(errors.len(), baseline.len(), "{errors:?}");
        assert!(errors.iter().all(|e| e.contains("not comparable")));

        // Missing rows are flagged in both directions.
        let fewer: Vec<ThroughputRow> = healthy().into_iter().skip(1).collect();
        let errors = compare(
            &fewer,
            &baseline,
            DEFAULT_WALL_BAND,
            DEFAULT_MESSAGE_TOLERANCE,
        );
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("missing from current run"));
        let errors = compare(
            &baseline,
            &fewer,
            DEFAULT_WALL_BAND,
            DEFAULT_MESSAGE_TOLERANCE,
        );
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("no baseline entry"));
    }

    #[test]
    fn redirects_per_1k_is_ops_normalized() {
        let r = row("AT", 10, 192, 100);
        assert!((r.redirects_per_1k() - 2.0).abs() < 1e-9);
    }
}

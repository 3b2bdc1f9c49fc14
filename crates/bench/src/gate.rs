//! The regression gate — the one gate in `crates/`.
//!
//! Every cell runs on the deterministic sim fabric
//! (`FabricMode::Sim(SimConfig::calm(GATE_SEED))`: delivery in pure
//! Hockney-model order, no perturbation), where message counts, migrations
//! and modeled time are a pure function of the code. Two families of rows:
//!
//! * **Modeled workloads** ([`GateRow`]) — the Figure 2 / Figure 3
//!   applications (SOR, ASP), the ablation's synthetic single-writer
//!   pattern and the policy matrix, each in **both** flush-batching modes;
//! * **The KV policy sweep** ([`KvRow`]) — the Zipfian KV serving workload
//!   ([`dsm_apps::kv`]) under every built-in policy
//!   ([`crate::matrix::policies`]): messages, migrations, migrate-backs,
//!   shift/settle redirections and the store fingerprint. No wall-clock
//!   column — wall-clock is measured by the repo benchmark (`benchmark/`).
//!
//! The gate checks two things:
//!
//! 1. **Internal claims** ([`check_internal`]) — batching never changes
//!    application results and sends strictly fewer diff messages on the
//!    multi-object SOR workloads; the policy matrix behaves (NM inert,
//!    hysteresis damps ping-pong, per-object overrides reach the engine);
//!    on the KV sweep NM is inert, the adaptive family migrates and sends
//!    strictly fewer messages than NM, AT's redirections concentrate in the
//!    windows right after a hot-set shift, and the store fingerprint is
//!    policy-invariant;
//! 2. **Equality with the committed baseline** ([`diff`]) — the rendered
//!    document ([`to_json`]) must be byte-identical to
//!    `bench/baseline.json`. There is no tolerance band: a change that
//!    moves a number deliberately refreshes the file in the same PR with
//!    `cargo run -p dsm-bench --release --bin bench_gate -- --write-baseline`.
//!
//! The gate runs inside tier-1 as this crate's `tests/gate.rs`
//! (`committed_baseline_is_current`) and, identically, as the `bench_gate`
//! binary.

use crate::matrix::{matrix_cluster, policies};
use crate::table::{fmt_f, Table};
use crate::{cluster, Scale};
use dsm_apps::kv::{self, KvParams};
use dsm_apps::synthetic::{self, SyntheticParams};
use dsm_apps::{asp, sor};
use dsm_core::{AdaptiveThresholdPolicy, EwmaWriteRatioPolicy, HysteresisPolicy, ProtocolConfig};
use dsm_runtime::{ExecutionReport, FabricMode, SimConfig};

/// The sim seed every gate cell — and every figure binary — runs under.
/// [`SimConfig::calm`] draws no random perturbation, so the seed only
/// labels the runs; it also seeds the KV workload's traffic generators.
pub const GATE_SEED: u64 = 2004;

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
    pub(crate) fn key(&self) -> String {
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
pub(crate) const WORKLOADS: [&str; 10] = [
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
    let sim = SimConfig::calm(GATE_SEED);
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
            let config = cluster(4, ProtocolConfig::no_migration(), &sim).flush_batching(batched);
            let run = sor::run(config, &params);
            GateRow::from_report(name, batched, sor::checksum(&run.result), &run.report)
        }
        // Figure 3's SOR configuration (adaptive threshold, eight nodes):
        // the early iterations flush whole bands to the round-robin homes
        // (batched), then rows migrate to their writers and only boundary
        // traffic is left — batching under the paper's headline mode.
        "fig3_sor_at" => {
            let params = sor::SorParams::small(at_sor_size, 4);
            let config = cluster(crate::fig3::NODES, ProtocolConfig::adaptive(), &sim)
                .flush_batching(batched);
            let run = sor::run(config, &params);
            GateRow::from_report(name, batched, sor::checksum(&run.result), &run.report)
        }
        // Figure 3's ASP configuration.
        "fig3_asp_at" => {
            let params = asp::AspParams::small(asp_size);
            let config = cluster(crate::fig3::NODES, ProtocolConfig::adaptive(), &sim)
                .flush_batching(batched);
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
            let config = cluster(5, ProtocolConfig::no_migration(), &sim).flush_batching(batched);
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
                "policy_matrix_mixed" => ProtocolConfig::no_migration().with_object_policy(
                    synthetic::counter_object(),
                    AdaptiveThresholdPolicy::paper(),
                ),
                other => panic!("unknown policy-matrix workload {other:?}"),
            };
            let config = cluster(3, protocol, &sim).flush_batching(batched);
            let run = synthetic::run(config, &params);
            GateRow::from_report(name, batched, run.result as f64, &run.report)
        }
        other => panic!("unknown gate workload {other:?}"),
    }
}

/// Collect every gate workload in both flush-batching modes.
pub fn collect(scale: Scale) -> Vec<GateRow> {
    [true, false]
        .into_iter()
        .flat_map(|batched| WORKLOADS.map(|name| run_workload(name, scale, batched)))
        .collect()
}

/// Render gate rows as a table (printed by `bench_gate`).
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

/// Internal consistency checks on a freshly collected run — the claims the
/// numbers must satisfy whatever the committed baseline says; returns the
/// list of violations (empty = pass).
pub fn check_internal(rows: &[GateRow], kv: &[KvRow]) -> Vec<String> {
    let mut errors = check_workloads(rows);
    errors.extend(check_kv(kv));
    errors
}

/// The flush-batching and policy-matrix claims on the modeled workloads.
fn check_workloads(rows: &[GateRow]) -> Vec<String> {
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
    // the no-migration configuration, where batching is the only difference
    // between the two modes' message DAGs — strictly lower modeled time.
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

// ----------------------------------------------------------------------
// The KV policy sweep
// ----------------------------------------------------------------------

/// One policy's run of the KV serving workload ([`KvParams::gate`] on
/// [`crate::matrix::MATRIX_NODES`] nodes).
#[derive(Debug, Clone, PartialEq)]
pub struct KvRow {
    /// Policy label (stable across runs; the baseline is keyed on it).
    pub policy: String,
    /// Total operations executed (all nodes).
    pub ops: u64,
    /// Total protocol messages.
    pub messages: u64,
    /// Home migrations during the run.
    pub migrations: u64,
    /// Migrations that returned a home to the node it had just left.
    pub migrate_backs: u64,
    /// Redirections suffered in the first window after each hot-set shift.
    pub shift_redirects: u64,
    /// Redirections suffered in the settled remainder of each phase.
    pub settle_redirects: u64,
    /// Deterministic fingerprint of the final store contents — identical
    /// across policies and fabrics for one (seed, params, nodes).
    pub fingerprint: u64,
}

impl KvRow {
    /// The key the baseline comparison matches rows on.
    pub(crate) fn key(&self) -> String {
        format!("kv[{}]", self.policy)
    }

    /// Requester-side redirection hops over the whole run.
    pub(crate) fn redirects(&self) -> u64 {
        self.shift_redirects + self.settle_redirects
    }

    /// Redirections per thousand operations.
    pub(crate) fn redirects_per_1k(&self) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        self.redirects() as f64 * 1000.0 / self.ops as f64
    }
}

/// Run the KV workload under one policy.
fn measure_kv(label: &str, protocol: ProtocolConfig, params: &KvParams) -> KvRow {
    let config =
        matrix_cluster(protocol, FabricMode::Sim(SimConfig::calm(GATE_SEED))).seed(GATE_SEED);
    let run = kv::run(config, params);
    let mut shift = 0u64;
    let mut settle = 0u64;
    for node in &run.nodes {
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
    KvRow {
        policy: label.to_string(),
        ops: run.nodes.iter().map(|node| node.ops).sum(),
        messages: run.report.total_messages(),
        migrations: run.report.migrations(),
        migrate_backs: run.report.migrate_backs(),
        shift_redirects: shift,
        settle_redirects: settle,
        fingerprint: run.fingerprint,
    }
}

/// Run the KV workload under every built-in policy
/// ([`crate::matrix::policies`], so a policy added to the conformance grid
/// automatically joins the sweep) under identical traffic.
pub fn collect_kv() -> Vec<KvRow> {
    let params = KvParams::gate();
    policies()
        .into_iter()
        .map(|(label, protocol)| measure_kv(&label, protocol, &params))
        .collect()
}

/// Render the KV sweep as a table.
pub fn render_kv(rows: &[KvRow]) -> Table {
    let mut table = Table::new(&[
        "policy",
        "msgs",
        "migr",
        "backs",
        "shift_redir",
        "settle_redir",
        "redir/1k",
        "fingerprint",
    ]);
    for row in rows {
        table.row(vec![
            row.policy.clone(),
            row.messages.to_string(),
            row.migrations.to_string(),
            row.migrate_backs.to_string(),
            row.shift_redirects.to_string(),
            row.settle_redirects.to_string(),
            fmt_f(row.redirects_per_1k()),
            format!("{:#018x}", row.fingerprint),
        ]);
    }
    table
}

/// The per-policy claims on the KV sweep.
///
/// "Adaptive policies redirect less than NM under skew" is enforced in its
/// only coherent form: NM never migrates, so it never redirects *at all*;
/// what adaptivity buys is strictly fewer **total messages** than NM
/// (migrated homes turn remote write round-trips into local writes), at the
/// price of a nonzero but shift-concentrated redirection count. JUMP and
/// LAZY are measured but exempt from the message claim: migrate-on-every-
/// request churn can legitimately cost more than staying put, which is
/// exactly why JUMP is in the grid.
fn check_kv(rows: &[KvRow]) -> Vec<String> {
    let mut errors = Vec::new();
    let find = |policy: &str| rows.iter().find(|r| r.policy == policy);
    let Some(nm) = find("NM") else {
        return vec![
            "kv: NM row missing — the sweep must include the no-migration baseline".into(),
        ];
    };
    // Semantics first: one deterministic store for every policy.
    for row in rows {
        if row.fingerprint != nm.fingerprint {
            errors.push(format!(
                "{}: fingerprint {:#018x} != NM's {:#018x} — a migration policy changed \
                 the application result",
                row.key(),
                row.fingerprint,
                nm.fingerprint
            ));
        }
        if row.ops == 0 {
            errors.push(format!("{}: empty measurement", row.key()));
        }
    }
    // NM is inert: no migrations means no stale home hints, so no redirects.
    if nm.migrations != 0 || nm.migrate_backs != 0 || nm.redirects() != 0 {
        errors.push(format!(
            "kv[NM]: the no-migration baseline moved ({} migrations, {} backs, {} redirects)",
            nm.migrations,
            nm.migrate_backs,
            nm.redirects()
        ));
    }
    // The adaptive family must chase the rotating writers and win on
    // coherence traffic.
    for policy in ["FT2", "AT", "HYST1+2", "EWMA"] {
        let Some(row) = find(policy) else {
            errors.push(format!("kv[{policy}] row missing"));
            continue;
        };
        if row.migrations == 0 {
            errors.push(format!(
                "kv[{policy}]: never migrated under a rotating single-writer pattern"
            ));
        }
        if row.messages >= nm.messages {
            errors.push(format!(
                "kv[{policy}]: {} messages, not fewer than NM's {} — migration stopped \
                 paying for itself under skew",
                row.messages, nm.messages
            ));
        }
    }
    if let Some(jump) = find("JUMP") {
        if jump.migrations == 0 {
            errors.push("kv[JUMP]: migrate-on-request never migrated".into());
        }
    }
    // AT redirects, but the cost concentrates right after hot-set shifts:
    // once homes settle at the new writers, stale hints are used up.
    if let Some(at) = find("AT") {
        if at.redirects() == 0 {
            errors.push(
                "kv[AT]: migrated homes without a single redirection — home hints are \
                 never stale, which cannot happen when homes move"
                    .into(),
            );
        }
        if at.shift_redirects < at.settle_redirects {
            errors.push(format!(
                "kv[AT]: redirections did not drop after hot-set shifts \
                 (shift windows {} < settle windows {})",
                at.shift_redirects, at.settle_redirects
            ));
        }
    }
    errors
}

// ----------------------------------------------------------------------
// The baseline document
// ----------------------------------------------------------------------

/// Render the gate document (`bench/baseline.json`): one row per line, each
/// line opening with its row key, so [`diff`] can pair lines without
/// reading the JSON back.
pub fn to_json(rows: &[GateRow], kv: &[KvRow]) -> String {
    let workloads: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    \"{}\": {{\"messages\": {}, \"diff_messages\": {}, \"bytes\": {}, \
                 \"time_ms\": {:.6}, \"migrations\": {}, \"migrate_backs\": {}, \
                 \"checksum\": {:.6}}}",
                r.key(),
                r.messages,
                r.diff_messages,
                r.bytes,
                r.time_ms,
                r.migrations,
                r.migrate_backs,
                r.checksum
            )
        })
        .collect();
    // A u64 fingerprint does not survive JSON's f64 numbers, so it travels
    // as a hex string.
    let kv: Vec<String> = kv
        .iter()
        .map(|r| {
            format!(
                "    \"{}\": {{\"ops\": {}, \"messages\": {}, \"migrations\": {}, \
                 \"migrate_backs\": {}, \"shift_redirects\": {}, \"settle_redirects\": {}, \
                 \"fingerprint\": \"{:#018x}\"}}",
                r.key(),
                r.ops,
                r.messages,
                r.migrations,
                r.migrate_backs,
                r.shift_redirects,
                r.settle_redirects,
                r.fingerprint
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": 2,\n  \"workloads\": {{\n{}\n  }},\n  \"kv\": {{\n{}\n  }}\n}}\n",
        workloads.join(",\n"),
        kv.join(",\n")
    )
}

/// Compare a freshly rendered document with the committed baseline. The
/// gate is byte equality; on a mismatch the lines are paired by their row
/// key (the first quoted string of a line) and every differing, missing or
/// stale row is named. Empty = identical.
pub fn diff(fresh: &str, committed: &str) -> Vec<String> {
    if fresh == committed {
        return Vec::new();
    }
    // The separating comma belongs to the list, not to the row: appending a
    // row must not report its predecessor as changed.
    fn keyed(document: &str) -> Vec<(&str, &str)> {
        document
            .lines()
            .map(|line| line.trim().trim_end_matches(','))
            .map(|line| (line.split('"').nth(1).unwrap_or(line), line))
            .collect()
    }
    let (fresh, committed) = (keyed(fresh), keyed(committed));
    let mut errors = Vec::new();
    for (key, line) in &fresh {
        match committed.iter().find(|(k, _)| k == key) {
            Some((_, old)) if old == line => {}
            Some((_, old)) => errors.push(format!(
                "{key}: differs from bench/baseline.json\n      baseline: {old}\n      measured: {line}"
            )),
            None => errors.push(format!("{key}: no baseline entry")),
        }
    }
    for (key, _) in &committed {
        if !fresh.iter().any(|(k, _)| k == key) {
            errors.push(format!("{key}: in the baseline but no longer measured"));
        }
    }
    if errors.is_empty() {
        errors.push("same rows as bench/baseline.json, but in a different order or layout".into());
    }
    errors
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

    fn kv_row(policy: &str, migrations: u64, redirects: u64, messages: u64) -> KvRow {
        KvRow {
            policy: policy.to_string(),
            ops: 96_000,
            messages,
            migrations,
            migrate_backs: migrations / 4,
            shift_redirects: redirects * 3 / 4,
            settle_redirects: redirects - redirects * 3 / 4,
            fingerprint: 0xdead_beef_cafe_f00d,
        }
    }

    fn healthy_kv() -> Vec<KvRow> {
        vec![
            kv_row("NM", 0, 0, 1000),
            kv_row("FT2", 40, 60, 700),
            kv_row("AT", 30, 50, 650),
            kv_row("JUMP", 90, 300, 1400),
            kv_row("LAZY", 5, 10, 900),
            kv_row("HYST1+2", 35, 55, 700),
            kv_row("EWMA", 20, 30, 800),
        ]
    }

    #[test]
    fn a_one_count_drift_fails_the_gate_and_names_the_row() {
        let mut rows = vec![
            row("fig2_sor_nohm", true, 1180, 65.0),
            row("fig2_sor_nohm", false, 1756, 84.0),
        ];
        let committed = to_json(&rows, &healthy_kv());
        assert!(diff(&committed, &committed).is_empty());
        rows[1].messages += 1;
        let errors = diff(&to_json(&rows, &healthy_kv()), &committed);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(
            errors[0].starts_with("fig2_sor_nohm[unbatched]:"),
            "{errors:?}"
        );
        // The KV section is gated the same way.
        let mut kv = healthy_kv();
        kv[2].shift_redirects += 1;
        let errors = diff(
            &to_json(&rows[..1], &kv),
            &to_json(&rows[..1], &healthy_kv()),
        );
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].starts_with("kv[AT]:"), "{errors:?}");
        // A new last row is reported alone — its predecessor only gained the
        // separating comma — and so is a row the baseline still carries.
        let errors = diff(&to_json(&rows, &[]), &to_json(&rows[..1], &[]));
        assert_eq!(errors, vec!["fig2_sor_nohm[unbatched]: no baseline entry"]);
        let errors = diff(&to_json(&rows[..1], &[]), &to_json(&rows, &[]));
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("no longer measured"), "{errors:?}");
        // Equality is on bytes: reordered rows fail too.
        let swapped = [rows[1].clone(), rows[0].clone()];
        assert_eq!(diff(&to_json(&swapped, &[]), &to_json(&rows, &[])).len(), 1);
    }

    #[test]
    fn internal_checks_enforce_the_batching_claims() {
        let mut rows = vec![
            row("fig2_sor_nohm", true, 100, 10.0),
            row("fig2_sor_nohm", false, 130, 12.0),
        ];
        rows[0].diff_messages = 10;
        rows[1].diff_messages = 40;
        assert!(check_internal(&rows, &healthy_kv()).is_empty());
        // Equal diff counts violate the strict improvement claim.
        rows[0].diff_messages = 40;
        assert_eq!(check_internal(&rows, &healthy_kv()).len(), 1);
        // A checksum mismatch is always an error.
        rows[0].diff_messages = 10;
        rows[0].checksum = 1.0;
        let errors = check_internal(&rows, &healthy_kv());
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
        assert_eq!(check_internal(&rows, &healthy_kv()), Vec::<String>::new());
        // A migrating NM row, a hysteresis row that ping-pongs as much as
        // adaptive, an inert mixed row and a dead EWMA row are each caught
        // (in one mode).
        rows[0].migrations = 1;
        rows[2].migrate_backs = 12;
        rows[3].migrations = 0;
        rows[4].migrations = 0;
        let errors = check_internal(&rows, &healthy_kv());
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
        let errors = check_internal(&rows, &healthy_kv());
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("must migrate"));
    }

    #[test]
    fn invariants_pass_on_a_healthy_sweep_and_catch_each_violation() {
        let check = |kv: &[KvRow]| check_internal(&[], kv);
        assert_eq!(check(&healthy_kv()), Vec::<String>::new());

        // NM moving is a violation.
        let mut rows = healthy_kv();
        rows[0].migrations = 1;
        assert!(check(&rows)
            .iter()
            .any(|e| e.contains("no-migration baseline moved")));

        // An adaptive policy that stops beating NM on messages.
        let mut rows = healthy_kv();
        rows[2].messages = 1001;
        assert!(check(&rows)
            .iter()
            .any(|e| e.contains("stopped paying for itself")));

        // A fingerprint split is a semantic failure.
        let mut rows = healthy_kv();
        rows[1].fingerprint ^= 1;
        assert!(check(&rows)
            .iter()
            .any(|e| e.contains("changed the application result")));

        // AT redirections concentrating in settle windows.
        let mut rows = healthy_kv();
        rows[2].shift_redirects = 10;
        rows[2].settle_redirects = 40;
        assert!(check(&rows)
            .iter()
            .any(|e| e.contains("did not drop after hot-set shifts")));

        // A missing policy is reported by name, the missing baseline above all.
        let rows: Vec<KvRow> = healthy_kv()
            .into_iter()
            .filter(|r| r.policy != "EWMA")
            .collect();
        assert!(check(&rows)
            .iter()
            .any(|e| e.contains("kv[EWMA] row missing")));
        assert!(check(&[]).iter().any(|e| e.contains("NM row missing")));
    }

    #[test]
    fn gate_rows_have_stable_keys() {
        assert_eq!(row("a", true, 1, 1.0).key(), "a[batched]");
        assert_eq!(row("a", false, 1, 1.0).key(), "a[unbatched]");
        assert_eq!(kv_row("AT", 1, 1, 1).key(), "kv[AT]");
    }

    #[test]
    fn redirects_per_1k_is_ops_normalized() {
        let r = kv_row("AT", 10, 192, 100);
        assert!((r.redirects_per_1k() - 2.0).abs() < 1e-9);
    }
}

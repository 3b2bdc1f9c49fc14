//! The policy × workload conformance matrix.
//!
//! One place defines the grid every conformance sweep runs over: the six
//! application workloads (SOR, ASP, TSP, N-body, synthetic, and the KV
//! serving workload) at small deterministic parameters, and the seven
//! built-in home-migration policies
//! (NM, FT2, AT, JUMP, LAZY, HYST, EWMA). The integration suite
//! (`tests/tests/sim_matrix.rs`) and the `sim_matrix` binary both consume
//! it, so adding a workload or policy here automatically widens every
//! sweep.
//!
//! For every cell the harness can run the threaded fabric (the reference)
//! and the deterministic sim fabric under a seed sweep, and check the
//! conformance claims:
//!
//! * the application **fingerprint** (a bit-exact FNV over the result) is
//!   identical across fabrics, seeds and replays — migration policies and
//!   message schedules are performance knobs, never semantics;
//! * the same seed replays a **bit-identical delivery trace**;
//! * the **protocol invariants** hold ([`check_invariants`]): every flush
//!   acknowledged, migrations conserved, the delivery trace reconciling
//!   with the network statistics and per-link FIFO order.

use crate::figures::Output;
use crate::table::Table;
use dsm_apps::{asp, kv, nbody, sor, synthetic, tsp};
use dsm_core::{
    EwmaWriteRatioPolicy, HysteresisPolicy, LazyFlushingPolicy, MigrateOnRequestPolicy,
    ProtocolConfig,
};
use dsm_model::ComputeModel;
use dsm_runtime::{Cluster, ClusterBuilder, ExecutionReport, FabricMode, SimConfig};
use dsm_util::{fnv, FNV_BASIS};

/// Number of cluster nodes every matrix cell runs on.
pub const MATRIX_NODES: usize = 4;

/// The outcome of one matrix-cell run.
#[derive(Debug, Clone)]
pub struct MatrixRun {
    /// Bit-exact fingerprint of the application result.
    pub fingerprint: u64,
    /// The full execution report (carries the delivery trace in sim mode).
    pub report: ExecutionReport,
}

/// One workload of the conformance matrix: a name and a runner producing a
/// result fingerprint at small, deterministic parameters.
pub struct MatrixWorkload {
    /// Workload name ("SOR", "ASP", ...).
    pub name: &'static str,
    runner: fn(ClusterBuilder) -> MatrixRun,
}

impl MatrixWorkload {
    /// Run the workload on a cluster configured by `cluster`.
    pub fn run(&self, cluster: ClusterBuilder) -> MatrixRun {
        (self.runner)(cluster)
    }
}

impl std::fmt::Debug for MatrixWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MatrixWorkload")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

/// Bit-exact fingerprint of a row-major `f64` matrix.
fn fingerprint_matrix(matrix: &[Vec<f64>]) -> u64 {
    let mut hash = FNV_BASIS;
    for row in matrix {
        for &v in row {
            hash = fnv(hash, v.to_bits());
        }
        hash = fnv(hash, row.len() as u64);
    }
    hash
}

fn run_sor(cluster: ClusterBuilder) -> MatrixRun {
    let run = sor::run(cluster, &sor::SorParams::small(24, 2));
    MatrixRun {
        fingerprint: fingerprint_matrix(&run.result),
        report: run.report,
    }
}

fn run_asp(cluster: ClusterBuilder) -> MatrixRun {
    let run = asp::run(cluster, &asp::AspParams::small(16));
    MatrixRun {
        fingerprint: fingerprint_matrix(&run.result),
        report: run.report,
    }
}

fn run_tsp(cluster: ClusterBuilder) -> MatrixRun {
    let run = tsp::run(cluster, &tsp::TspParams::small(7));
    MatrixRun {
        fingerprint: fnv(FNV_BASIS, run.result),
        report: run.report,
    }
}

fn run_nbody(cluster: ClusterBuilder) -> MatrixRun {
    let run = nbody::run(cluster, &nbody::NbodyParams::small(24, 2));
    let mut hash = FNV_BASIS;
    for body in &run.result {
        for v in [body.x, body.y, body.vx, body.vy, body.mass] {
            hash = fnv(hash, v.to_bits());
        }
    }
    MatrixRun {
        fingerprint: hash,
        report: run.report,
    }
}

fn run_kv(cluster: ClusterBuilder) -> MatrixRun {
    // The serving workload's first conformance cell: its fingerprint is the
    // final store contents, schedule-independent by the single-writer
    // phase discipline (see `dsm_apps::kv`), so the cell checks exactly
    // like the HPC kernels — including under the lossy fault sweep.
    let run = kv::run(cluster, &kv::KvParams::small());
    MatrixRun {
        fingerprint: run.fingerprint,
        report: run.report,
    }
}

fn run_synthetic(cluster: ClusterBuilder) -> MatrixRun {
    let params = synthetic::SyntheticParams {
        repetition: 2,
        total_updates: 2 * 3 * MATRIX_NODES as u64,
        compute_ops: 0,
    };
    let run = synthetic::run(cluster, &params);
    MatrixRun {
        fingerprint: fnv(FNV_BASIS, run.result),
        report: run.report,
    }
}

/// Every workload of the matrix.
pub fn workloads() -> Vec<MatrixWorkload> {
    vec![
        MatrixWorkload {
            name: "SOR",
            runner: run_sor,
        },
        MatrixWorkload {
            name: "ASP",
            runner: run_asp,
        },
        MatrixWorkload {
            name: "TSP",
            runner: run_tsp,
        },
        MatrixWorkload {
            name: "Nbody",
            runner: run_nbody,
        },
        MatrixWorkload {
            name: "synthetic",
            runner: run_synthetic,
        },
        MatrixWorkload {
            name: "KV",
            runner: run_kv,
        },
    ]
}

/// Every built-in home-migration policy, as `(label, protocol config)`.
pub fn policies() -> Vec<(String, ProtocolConfig)> {
    let base = ProtocolConfig::no_migration;
    vec![
        ("NM".into(), base()),
        ("FT2".into(), ProtocolConfig::fixed_threshold(2)),
        ("AT".into(), ProtocolConfig::adaptive()),
        ("JUMP".into(), base().with_migration(MigrateOnRequestPolicy)),
        (
            "LAZY".into(),
            base().with_migration(LazyFlushingPolicy::default()),
        ),
        (
            "HYST1+2".into(),
            base().with_migration(HysteresisPolicy::new(1, 2)),
        ),
        (
            "EWMA".into(),
            base().with_migration(EwmaWriteRatioPolicy::default()),
        ),
    ]
}

/// A matrix-cell cluster: [`MATRIX_NODES`] nodes, zero compute cost, the
/// requested fabric.
pub fn matrix_cluster(protocol: ProtocolConfig, fabric: FabricMode) -> ClusterBuilder {
    Cluster::builder()
        .nodes(MATRIX_NODES)
        .protocol(protocol)
        .compute(ComputeModel::free())
        .fabric(fabric)
}

/// Check the protocol invariants one conformance run must satisfy. Returns
/// every violation as a human-readable line (empty = all good).
pub fn check_invariants(report: &ExecutionReport) -> Vec<String> {
    let mut violations = Vec::new();
    let p = &report.protocol;
    if p.diffs_sent != p.diffs_applied {
        violations.push(format!(
            "lost flush acks: {} diffs sent, {} applied",
            p.diffs_sent, p.diffs_applied
        ));
    }
    if p.migrations_out != p.migrations_in {
        violations.push(format!(
            "migration conservation: {} granted, {} installed",
            p.migrations_out, p.migrations_in
        ));
    }
    if let Some(trace) = &report.delivery_trace {
        // Drop-aware reconciliation: every send was either delivered (one
        // trace record) or dropped by an injected fault (one drop record).
        if trace.len() as u64 + trace.drops.len() as u64 != report.total_messages() {
            violations.push(format!(
                "message-count reconciliation: trace has {} deliveries + {} drops, \
                 network statistics counted {} sends",
                trace.len(),
                trace.drops.len(),
                report.total_messages()
            ));
        }
        if let Some(index) = trace.per_link_fifo_violation() {
            violations.push(format!(
                "per-link FIFO violated at delivery #{index}: {:?}",
                trace.records[index]
            ));
        }
    }
    violations
}

/// One row of a [`conformance_for`] sweep.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Workload name.
    pub workload: &'static str,
    /// Policy label.
    pub policy: String,
    /// Seeds swept.
    pub seeds: usize,
    /// The threaded-reference fingerprint.
    pub fingerprint: u64,
    /// A fold of every swept seed's [`dsm_runtime::DeliveryTrace::checksum`],
    /// in seed order: it moves when any delivery or drop moves (its
    /// category, size or times), so a change that claims to keep the
    /// traffic the same must keep this column too.
    pub trace: u64,
    /// Messages the fabric dropped, over every swept seed's first run.
    pub drops: usize,
    /// Failures, as `(seed, description)` — empty when the cell conforms.
    pub failures: Vec<(u64, String)>,
}

/// Sweep every policy against `workload` under `sim_config`: for every
/// cell, one threaded reference run, then per seed one sim run (the first
/// seed twice, to check replay) — asserting fingerprint conformance, trace
/// replay, the protocol invariants and, with two or more seeds, that the
/// seeds' delivery orders differ. Failures are collected, not panicked, so
/// a sweep reports *every* failing seed.
///
/// With [`SimConfig::lossy`] (1% seeded per-link drops plus a
/// partition/heal cycle) cells must still produce the threaded reference
/// fingerprint — the timeout/retry/re-election machinery makes message loss
/// a performance event, never a semantic one — and the run must replay
/// bit-identically, drop records included.
pub fn conformance_for(
    workload: &MatrixWorkload,
    seeds: &[u64],
    sim_config: fn(u64) -> SimConfig,
) -> Vec<CellResult> {
    let mut rows = Vec::new();
    for (label, protocol) in policies() {
        let mut failures: Vec<(u64, String)> = Vec::new();
        let reference = workload.run(matrix_cluster(protocol.clone(), FabricMode::Threaded));
        let mut reference_order: Option<Vec<(u16, u16, u64)>> = None;
        let mut order_diverged = seeds.len() < 2;
        let mut traces = FNV_BASIS;
        let mut drops = 0;
        for (i, &seed) in seeds.iter().enumerate() {
            let fabric = FabricMode::Sim(sim_config(seed));
            let run = workload.run(matrix_cluster(protocol.clone(), fabric.clone()));
            if run.fingerprint != reference.fingerprint {
                failures.push((
                    seed,
                    format!(
                        "sim fingerprint {:#018x} != threaded reference {:#018x}",
                        run.fingerprint, reference.fingerprint
                    ),
                ));
            }
            for violation in check_invariants(&run.report) {
                failures.push((seed, violation));
            }
            let trace = run
                .report
                .delivery_trace
                .as_ref()
                .expect("sim run has a trace");
            traces = fnv(traces, trace.checksum());
            drops += trace.drops.len();
            match &reference_order {
                None => reference_order = Some(trace.order_signature()),
                Some(first) => order_diverged |= trace.order_signature() != *first,
            }
            if i == 0 {
                // Replay the first seed: bit-identical trace required.
                let replay = workload.run(matrix_cluster(protocol.clone(), fabric));
                if replay.report.delivery_trace.as_ref() != Some(trace) {
                    failures.push((
                        seed,
                        format!(
                            "replay diverged: trace checksum {:#018x} then {:#018x}",
                            trace.checksum(),
                            replay
                                .report
                                .delivery_trace
                                .as_ref()
                                .map_or(0, |t| t.checksum())
                        ),
                    ));
                }
                if replay.fingerprint != run.fingerprint {
                    failures.push((seed, "replay changed the result".to_string()));
                }
                for violation in check_invariants(&replay.report) {
                    failures.push((seed, format!("replay: {violation}")));
                }
            }
        }
        if !order_diverged {
            failures.push((
                seeds[0],
                format!(
                    "all {} seeds produced the same delivery order — \
                     perturbations had no effect on this cell",
                    seeds.len()
                ),
            ));
        }
        rows.push(CellResult {
            workload: workload.name,
            policy: label,
            seeds: seeds.len(),
            fingerprint: reference.fingerprint,
            trace: traces,
            drops,
            failures,
        });
    }
    rows
}

/// Render a conformance sweep as a table.
pub fn render(rows: &[CellResult]) -> Table {
    let mut table = Table::new(&[
        "workload",
        "policy",
        "seeds",
        "fingerprint",
        "trace",
        "status",
    ]);
    for row in rows {
        table.row(vec![
            row.workload.to_string(),
            row.policy.clone(),
            row.seeds.to_string(),
            format!("{:#018x}", row.fingerprint),
            format!("{:#018x}", row.trace),
            if row.failures.is_empty() {
                "ok".to_string()
            } else {
                format!("{} FAILURES", row.failures.len())
            },
        ]);
    }
    table
}

/// The seeds a sweep of `count` schedules runs: a SplitMix-style
/// derivation from a fixed base, so a count always names the same
/// schedules. The committed matrices sweep two; the weekly soak sixteen.
pub fn sweep_seeds(count: usize) -> Vec<u64> {
    (0..count as u64)
        .map(|i| 0x51E5_ED00u64.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .collect()
}

/// Sweep every workload under `seeds` — perturbed, or with `lossy` under
/// [`SimConfig::lossy`] — and render the matrix with its verdict. Each
/// failure is one `workload,policy,seed,reason` line, the replay recipe
/// `sim_matrix --seeds` takes.
pub fn report(seeds: &[u64], lossy: bool) -> Output {
    let sim_config = if lossy {
        SimConfig::lossy
    } else {
        SimConfig::perturbed
    };
    let rows: Vec<CellResult> = workloads()
        .iter()
        .flat_map(|workload| conformance_for(workload, seeds, sim_config))
        .collect();
    let failures: Vec<String> = rows
        .iter()
        .flat_map(|row| {
            row.failures
                .iter()
                .map(|(seed, reason)| format!("{},{},{seed:#x},{reason}", row.workload, row.policy))
        })
        .collect();
    let verdict = if failures.is_empty() {
        format!(
            "all {} cells conform ({} seed(s) each)",
            rows.len(),
            seeds.len()
        )
    } else {
        format!(
            "{} failure(s) across {} cells — failing seeds listed above",
            failures.len(),
            rows.len()
        )
    };
    Output {
        text: format!(
            "Conformance matrix — sim fabric{} vs. threaded reference, seeds {seeds:?}\n\n{}\n{verdict}\n",
            if lossy {
                " (lossy: 1% drops + partition/heal)"
            } else {
                ""
            },
            render(&rows).render()
        ),
        failures,
    }
}

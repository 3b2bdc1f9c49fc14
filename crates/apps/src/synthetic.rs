//! The synthetic single-writer benchmark of Figure 4.
//!
//! Each worker thread repeatedly acquires `lock0`, updates a shared counter
//! `r` times (each update enclosed in its own `synchronized(lock1)` block so
//! that it is individually reflected to the counter's home copy, as §5.2
//! describes), releases `lock0` and performs some local computation. The
//! parameter `r` is the *repetition of the single-writer pattern*: while one
//! thread holds `lock0` the counter receives `r` consecutive remote writes
//! from that thread. Because another (or the same) thread acquires `lock0`
//! next at random, small `r` produces a transient single-writer pattern and
//! large `r` a lasting one — exactly the knob Figures 5(a)/(b) sweep.
//!
//! As in the paper, the workers run on the nodes other than the one where
//! the application started (the master), and all synchronization is managed
//! by the master, so every protocol difference visible in the measurements
//! comes from the home migration policy.

use crate::outcome::{AppRun, ResultSlot};
use dsm_objspace::{BarrierId, HomeAssignment, LockId, NodeId, ObjectId, ObjectRegistry};
use dsm_runtime::{ArrayHandle, Cluster, ClusterConfig, NodeCtx};

/// Registered name of the benchmark's shared counter object (index 0).
const COUNTER_NAME: &str = "synthetic.counter";

/// The id of the benchmark's shared counter object — stable across runs, so
/// experiments can target it with per-object policy overrides
/// (`ProtocolConfig::with_object_policy`).
pub fn counter_object() -> ObjectId {
    ObjectId::derive(COUNTER_NAME, 0)
}

/// Synthetic benchmark parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticParams {
    /// Repetition `r` of the single-writer pattern (updates per `lock0`
    /// critical section). The paper sweeps 2, 4, 8, 16.
    pub repetition: usize,
    /// Target total number of counter updates `n`; the benchmark stops once
    /// the counter reaches it.
    pub total_updates: u64,
    /// Abstract operations of local computation per outer iteration ("some
    /// simple arithmetic computation goes here").
    pub compute_ops: u64,
}

impl SyntheticParams {
    /// Configuration approximating the paper's experiment for a given
    /// repetition: enough total updates that every worker takes many turns.
    pub fn paper(repetition: usize, workers: usize) -> Self {
        SyntheticParams {
            repetition,
            total_updates: (repetition * workers * 24) as u64,
            compute_ops: 2_000,
        }
    }

    /// A small configuration for tests.
    #[cfg(test)]
    fn small(repetition: usize) -> Self {
        SyntheticParams {
            repetition,
            total_updates: (repetition * 12) as u64,
            compute_ops: 100,
        }
    }
}

fn synthetic_node(
    ctx: &NodeCtx,
    counter: &ArrayHandle<u64>,
    params: &SyntheticParams,
    slot: &ResultSlot<u64>,
) {
    let lock0 = LockId::derive("synthetic.lock0");
    let lock1 = LockId::derive("synthetic.lock1");
    let done_barrier = BarrierId(500);
    let n = params.total_updates;
    let r = params.repetition;

    // The master only hosts the locks and the counter's initial home; the
    // workers are the other nodes (as in the paper's experiment, which
    // starts the application on one node and runs eight working threads on
    // the others).
    let is_worker = !ctx.is_master() || ctx.num_nodes() == 1;
    if is_worker {
        loop {
            ctx.acquire(lock0);
            let current = ctx.view(counter)[0];
            if current >= n {
                ctx.release(lock0);
                break;
            }
            // The repetition of the single-writer pattern: r updates, each
            // enclosed in its own synchronized(lock1) block so that every
            // update is individually reflected to the counter's home copy
            // (one fault-in + one diff propagation per update when the home
            // is remote — the pair that home migration eliminates).
            for _ in 0..r {
                ctx.acquire(lock1);
                // Zero-copy update: one write view, one diff at release.
                ctx.view_mut(counter)[0] += 1;
                ctx.release(lock1);
            }
            ctx.release(lock0);
            // Some simple arithmetic computation outside the critical
            // section.
            ctx.compute(params.compute_ops);
        }
    }
    ctx.barrier(done_barrier);
    if ctx.is_master() {
        let total = ctx.view(counter)[0];
        slot.publish(total);
    }
    ctx.barrier(done_barrier);
}

/// Run the synthetic benchmark and return the final counter value plus the
/// execution report.
pub fn run(config: ClusterConfig, params: &SyntheticParams) -> AppRun<u64> {
    assert!(params.repetition >= 1, "repetition must be at least 1");
    let mut registry = ObjectRegistry::new();
    // The shared counter object: created by the application's start node, so
    // its initial home is the master — the workers always start remote.
    let counter: ArrayHandle<u64> = ArrayHandle::register(
        &mut registry,
        COUNTER_NAME,
        0,
        16,
        NodeId::MASTER,
        HomeAssignment::Master,
    );
    debug_assert_eq!(counter.id, counter_object());
    let slot = ResultSlot::new();
    let slot_in = slot.clone();
    let params_in = params.clone();
    let report = Cluster::new(config, registry).run(move |ctx| {
        synthetic_node(ctx, &counter, &params_in, &slot_in);
    });
    AppRun {
        result: slot.take(),
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_core::ProtocolConfig;
    use dsm_model::ComputeModel;
    use dsm_net::MsgCategory;

    fn cfg(nodes: usize, protocol: ProtocolConfig) -> ClusterConfig {
        ClusterConfig::new(nodes, protocol).with_compute(ComputeModel::free())
    }

    #[test]
    fn counter_reaches_target_without_lost_updates() {
        let params = SyntheticParams::small(4);
        let run = run(cfg(4, ProtocolConfig::adaptive()), &params);
        // The counter stops within one critical section of the target.
        assert!(run.result >= params.total_updates);
        assert!(run.result < params.total_updates + params.repetition as u64);
    }

    #[test]
    fn all_policies_compute_the_same_counter() {
        let params = SyntheticParams::small(2);
        let a = run(cfg(3, ProtocolConfig::adaptive()), &params).result;
        let b = run(cfg(3, ProtocolConfig::no_migration()), &params).result;
        let c = run(cfg(3, ProtocolConfig::fixed_threshold(1)), &params).result;
        // Lock scheduling is nondeterministic, so the exact overshoot can
        // differ, but every run must land in the same narrow window.
        for v in [a, b, c] {
            assert!(v >= params.total_updates && v < params.total_updates + 2);
        }
    }

    #[test]
    fn lasting_pattern_benefits_from_migration() {
        // Large repetition: the single-writer pattern lasts long enough that
        // migrating the counter's home pays off in coherence messages.
        let params = SyntheticParams {
            repetition: 16,
            total_updates: 16 * 24,
            compute_ops: 0,
        };
        let adaptive = run(cfg(3, ProtocolConfig::adaptive()), &params);
        let none = run(cfg(3, ProtocolConfig::no_migration()), &params);
        assert!(adaptive.report.migrations() >= 1);
        let at = adaptive.report.breakdown_messages() as f64;
        let nm = none.report.breakdown_messages() as f64;
        assert!(
            at < nm * 0.8,
            "with r=16 the adaptive protocol should eliminate a good share of \
             coherence messages (AT {at} vs NM {nm})"
        );
    }

    #[test]
    fn transient_pattern_avoids_redirection_storm() {
        // Small repetition: FT1 migrates eagerly and pays redirections; the
        // adaptive policy must not produce more redirections than FT1.
        let params = SyntheticParams {
            repetition: 2,
            total_updates: 2 * 48,
            compute_ops: 0,
        };
        let ft1 = run(cfg(4, ProtocolConfig::fixed_threshold(1)), &params);
        let at = run(cfg(4, ProtocolConfig::adaptive()), &params);
        let ft1_redir = ft1.report.messages(MsgCategory::Redirect);
        let at_redir = at.report.messages(MsgCategory::Redirect);
        assert!(
            at_redir <= ft1_redir,
            "adaptive protocol must not redirect more than FT1 (AT {at_redir} vs FT1 {ft1_redir})"
        );
    }
}

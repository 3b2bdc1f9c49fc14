//! Integration tests that check the paper's headline claims end to end,
//! across every crate of the workspace: the adaptive protocol is *sensitive*
//! to the lasting single-writer pattern (it migrates early and eliminates
//! remote accesses) and *robust* against the transient single-writer pattern
//! (it suppresses migration and its redirection overhead).
//!
//! The claims are about modeled time and message counts, so every test runs
//! on the sim fabric under each of [`SimConfig::modeled_sims`], where those numbers are
//! a pure function of the seed.

use dsm_apps::synthetic::{self, SyntheticParams};
use dsm_apps::{asp, sor};
use dsm_core::ProtocolConfig;
use dsm_integration_tests::sim_test_cluster;
use dsm_net::MsgCategory;
use dsm_runtime::SimConfig;

/// §5.1: "home migration improves the performance of ASP and SOR a lot"
/// because the round-robin initial homes are not the writing nodes.
#[test]
fn claim_asp_and_sor_benefit_from_home_migration() {
    for sim in SimConfig::modeled_sims() {
        let seed = sim.seed;
        let cluster = |protocol| sim_test_cluster(4, protocol, sim);
        let asp_params = asp::AspParams::small(40);
        let at = asp::run(cluster(ProtocolConfig::adaptive()), &asp_params);
        let nohm = asp::run(cluster(ProtocolConfig::no_migration()), &asp_params);
        assert_eq!(asp::checksum(&at.result), asp::checksum(&nohm.result));
        assert!(
            at.report.execution_time < nohm.report.execution_time,
            "seed {seed:#x}: ASP"
        );
        assert!(at.report.breakdown_messages() < nohm.report.breakdown_messages());
        assert!(at.report.total_traffic_bytes() < nohm.report.total_traffic_bytes());

        let sor_params = sor::SorParams::small(40, 4);
        let at = sor::run(cluster(ProtocolConfig::adaptive()), &sor_params);
        let nohm = sor::run(cluster(ProtocolConfig::no_migration()), &sor_params);
        assert_eq!(sor::checksum(&at.result), sor::checksum(&nohm.result));
        assert!(
            at.report.execution_time < nohm.report.execution_time,
            "seed {seed:#x}: SOR"
        );
        assert!(at.report.breakdown_messages() < nohm.report.breakdown_messages());
    }
}

/// §5.1 / Figure 3: the adaptive threshold is at least as good as the fixed
/// threshold 2 of the authors' earlier work, because FT2 postpones the
/// initial data relocation.
#[test]
fn claim_adaptive_threshold_beats_fixed_threshold_two() {
    for sim in SimConfig::modeled_sims() {
        let seed = sim.seed;
        let params = asp::AspParams::small(40);
        let at = asp::run(
            sim_test_cluster(4, ProtocolConfig::adaptive(), sim),
            &params,
        );
        let ft2 = asp::run(
            sim_test_cluster(4, ProtocolConfig::fixed_threshold(2), sim),
            &params,
        );
        assert_eq!(asp::checksum(&at.result), asp::checksum(&ft2.result));
        assert!(
            at.report.breakdown_messages() <= ft2.report.breakdown_messages(),
            "seed {seed:#x}: AT must not send more coherence messages than FT2 ({} vs {})",
            at.report.breakdown_messages(),
            ft2.report.breakdown_messages()
        );
        assert!(
            at.report.execution_time <= ft2.report.execution_time,
            "seed {seed:#x}"
        );
    }
}

/// §5.2 observation 1: with a large repetition of the single-writer pattern
/// the benefit from home migration is obvious — most object fault-ins and
/// diff propagations are eliminated.
#[test]
fn claim_lasting_single_writer_pattern_is_exploited() {
    let repetition = 16;
    let params = SyntheticParams {
        repetition,
        total_updates: (repetition * 4 * 8) as u64,
        compute_ops: 0,
    };
    for sim in SimConfig::modeled_sims() {
        let at = synthetic::run(
            sim_test_cluster(5, ProtocolConfig::adaptive(), sim),
            &params,
        );
        let nm = synthetic::run(
            sim_test_cluster(5, ProtocolConfig::no_migration(), sim),
            &params,
        );
        let at_pairs = at.report.messages(MsgCategory::ObjReply)
            + at.report.messages(MsgCategory::ObjReplyMigrate)
            + at.report.messages(MsgCategory::Diff);
        let nm_pairs =
            nm.report.messages(MsgCategory::ObjReply) + nm.report.messages(MsgCategory::Diff);
        assert!(at.report.migrations() > 0);
        assert!(
            (at_pairs as f64) < 0.55 * nm_pairs as f64,
            "seed {:#x}: with r=16 the adaptive protocol should eliminate roughly half or \
             more of the fault-in/diff messages (AT {at_pairs} vs NM {nm_pairs})",
            sim.seed
        );
    }
}

/// §5.2 observation 4: under the transient single-writer pattern the
/// adaptive protocol is robust — it does not generate more redirection
/// overhead than the eager fixed-threshold protocol, and it migrates less.
#[test]
fn claim_transient_single_writer_pattern_is_suppressed() {
    let repetition = 2;
    let params = SyntheticParams {
        repetition,
        total_updates: (repetition * 4 * 16) as u64,
        compute_ops: 0,
    };
    for sim in SimConfig::modeled_sims() {
        let seed = sim.seed;
        let at = synthetic::run(
            sim_test_cluster(5, ProtocolConfig::adaptive(), sim),
            &params,
        );
        let ft1 = synthetic::run(
            sim_test_cluster(5, ProtocolConfig::fixed_threshold(1), sim),
            &params,
        );
        assert!(
            at.report.messages(MsgCategory::Redirect) <= ft1.report.messages(MsgCategory::Redirect),
            "seed {seed:#x}: AT must not redirect more than FT1 under the transient pattern \
             ({} vs {})",
            at.report.messages(MsgCategory::Redirect),
            ft1.report.messages(MsgCategory::Redirect)
        );
        assert!(
            at.report.migrations() <= ft1.report.migrations(),
            "seed {seed:#x}: AT must not migrate more than FT1 under the transient pattern \
             ({} vs {})",
            at.report.migrations(),
            ft1.report.migrations()
        );
    }
}

/// §5.2: "FT2 prohibits home migration when the repetition is two" — the
/// fixed threshold of 2 never sees two consecutive remote writes before the
/// writer's next fault when each critical section only writes twice.
#[test]
fn claim_ft2_prohibits_migration_at_repetition_two() {
    let params = SyntheticParams {
        repetition: 2,
        total_updates: 2 * 4 * 10,
        compute_ops: 0,
    };
    for sim in SimConfig::modeled_sims() {
        let ft2 = synthetic::run(
            sim_test_cluster(5, ProtocolConfig::fixed_threshold(2), sim),
            &params,
        );
        // Within one critical section FT2 never reaches its threshold before
        // the writer's next fault. The only way a migration can still happen
        // is the same worker winning the lock twice in a row right at
        // start-up — the paper notes consecutive re-acquisition "happens
        // randomly at runtime", and on the sim the lock-grant order is a
        // function of the seed — so allow one migration instead of zero.
        assert!(
            ft2.report.migrations() <= 1,
            "seed {:#x}: FT2 should (almost) never migrate when the single-writer pattern \
             only repeats twice, got {}",
            sim.seed,
            ft2.report.migrations()
        );
    }
}

/// The protocol is a pure performance optimization: every policy computes
/// identical application results on every workload.
#[test]
fn claim_results_are_policy_independent() {
    let asp_params = asp::AspParams::small(28);
    let reference = asp::checksum(&asp::sequential(&asp_params));
    for sim in SimConfig::modeled_sims() {
        for protocol in [
            ProtocolConfig::no_migration(),
            ProtocolConfig::fixed_threshold(1),
            ProtocolConfig::fixed_threshold(2),
            ProtocolConfig::adaptive(),
        ] {
            let run = asp::run(sim_test_cluster(3, protocol, sim), &asp_params);
            assert_eq!(
                asp::checksum(&run.result),
                reference,
                "seed {:#x}",
                sim.seed
            );
        }
    }
}

//! Domain example: the paper's synthetic benchmark (Figure 4). Sweeps the
//! repetition of the single-writer pattern and shows how the adaptive
//! threshold stays sensitive to lasting patterns while suppressing
//! migration under transient ones.
//!
//! Run with: `cargo run --release --example single_writer_patterns`

use adaptive_dsm::apps::synthetic::{self, SyntheticParams};
use adaptive_dsm::prelude::*;

fn main() {
    let nodes = 5; // one master + four workers
    println!("synthetic single-writer benchmark, {nodes} nodes\n");
    println!(
        "{:>4} {:>6} {:>12} {:>8} {:>8} {:>8} {:>8}",
        "r", "policy", "time", "obj+mig", "diff", "redir", "migr"
    );
    for repetition in [2usize, 4, 8, 16] {
        for (name, protocol) in [
            ("NM", ProtocolConfig::no_migration()),
            ("FT1", ProtocolConfig::fixed_threshold(1)),
            ("FT2", ProtocolConfig::fixed_threshold(2)),
            ("AT", ProtocolConfig::adaptive()),
        ] {
            let params = SyntheticParams {
                repetition,
                total_updates: (repetition * (nodes - 1) * 10) as u64,
                compute_ops: 2_000,
            };
            let cluster = Cluster::builder().nodes(nodes).protocol(protocol);
            let run = synthetic::run(cluster, &params);
            println!(
                "{:>4} {:>6} {:>12} {:>8} {:>8} {:>8} {:>8}",
                repetition,
                name,
                format!("{}", run.report.execution_time),
                run.report.messages(MsgCategory::ObjReply)
                    + run.report.messages(MsgCategory::ObjReplyMigrate),
                run.report.messages(MsgCategory::Diff),
                run.report.messages(MsgCategory::Redirect),
                run.report.migrations(),
            );
        }
        println!();
    }
}

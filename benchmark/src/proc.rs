//! Process-level counters read from `/proc/self`: CPU time, context
//! switches, threads and peak resident memory of one rep. Every reader
//! returns zeros when `/proc` is missing, so a run elsewhere than Linux
//! still finishes (with the `proc.` rows reading 0).

use std::fs;

/// Kernel clock ticks per second behind `/proc/self/stat`'s `utime` and
/// `stime`: 100 on every Linux configuration the benchmark meets, and not
/// readable without libc.
const TICKS_PER_SEC: f64 = 100.0;

/// A point-in-time reading; subtract two for the cost of the region between.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// User-mode CPU seconds of the whole process.
    pub user_s: f64,
    /// Kernel-mode CPU seconds of the whole process.
    pub sys_s: f64,
    /// Voluntary plus involuntary context switches, summed over the threads
    /// alive right now (a thread's count vanishes with it, so sample while
    /// the cluster's threads are still running).
    pub ctx_switches: u64,
    /// Threads alive right now.
    pub threads: u64,
}

impl ProcSample {
    pub fn now() -> ProcSample {
        let mut sample = ProcSample::default();
        if let Ok(stat) = fs::read_to_string("/proc/self/stat") {
            // The command name (field 2) may contain spaces; fields are
            // counted from after its closing parenthesis, where field 3
            // (state) comes first, so utime (14) and stime (15) are at
            // offsets 11 and 12.
            let fields: Vec<&str> = stat
                .rsplit_once(')')
                .map(|(_, rest)| rest.split_whitespace().collect())
                .unwrap_or_default();
            let ticks = |i: usize| {
                fields
                    .get(i)
                    .and_then(|f| f.parse::<f64>().ok())
                    .unwrap_or(0.0)
            };
            sample.user_s = ticks(11) / TICKS_PER_SEC;
            sample.sys_s = ticks(12) / TICKS_PER_SEC;
        }
        if let Ok(tasks) = fs::read_dir("/proc/self/task") {
            for task in tasks.flatten() {
                sample.threads += 1;
                if let Ok(status) = fs::read_to_string(task.path().join("status")) {
                    sample.ctx_switches += status_field(&status, "voluntary_ctxt_switches:")
                        + status_field(&status, "nonvoluntary_ctxt_switches:");
                }
            }
        }
        sample
    }
}

/// Peak resident set of the process so far, in MB.
pub fn rss_peak_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .map(|status| status_field(&status, "VmHWM:") as f64 / 1024.0)
        .unwrap_or(0.0)
}

/// The CPU the `sor-sim` reps are confined to: the last one this process
/// may run on (CPU 0 takes most interrupts), or `None` off Linux.
pub fn last_allowed_cpu() -> Option<u32> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
        .trim();
    let last = list.rsplit(',').next()?;
    last.rsplit('-').next()?.trim().parse().ok()
}

/// The leading integer of the line of `/proc/<pid>/status` that starts with
/// `key` (which includes the colon), or 0.
fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let status = "Name:\tx\nVmHWM:\t   20480 kB\nvoluntary_ctxt_switches:\t12\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(status_field(status, "VmHWM:"), 20480);
        assert_eq!(status_field(status, "voluntary_ctxt_switches:"), 12);
        assert_eq!(status_field(status, "nonvoluntary_ctxt_switches:"), 3);
        assert_eq!(status_field(status, "Missing:"), 0);
    }

    #[test]
    fn sampling_never_panics_and_sees_this_thread() {
        let sample = ProcSample::now();
        if std::path::Path::new("/proc/self/task").exists() {
            assert!(sample.threads >= 1);
            assert!(rss_peak_mb() > 0.0);
            assert!(last_allowed_cpu().is_some());
        }
    }
}

//! The machine record every run carries: core count, worker count, the
//! filesystem under the work directory, and the process's peak memory.

use std::path::Path;

/// Logical cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Filesystem type of the mount holding `dir` (longest mount-point prefix
/// in `/proc/self/mountinfo`), or `"unknown"`.
pub fn filesystem_of(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    info.lines()
        .filter_map(|line| {
            let mount = line.split(' ').nth(4)?;
            let fstype = line.split(" - ").nth(1)?.split(' ').next()?;
            dir.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// `(steal, total)` jiffies of all CPUs from `/proc/stat`, or zeros.
pub fn cpu_steal() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Share of CPU time the hypervisor stole between two [`cpu_steal`]
/// readings, in percent: contention from outside this machine's view.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    crate::stats::ratio(
        100.0 * after.0.saturating_sub(before.0) as f64,
        after.1.saturating_sub(before.1) as f64,
    )
}

//! CPU time and memory of this process, read from `/proc` — the only
//! view of the program's threads the benchmark has from outside.

use std::fs;

/// On-CPU nanoseconds of one task: the first field of its `schedstat`.
fn schedstat_ns(path: &str) -> u64 {
    fs::read_to_string(path)
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// On-CPU nanoseconds summed over the live threads whose name starts
/// with `prefix`. The kernel cuts names to 15 bytes, so the reactors
/// (`bgp-serve-reactor-N`) read `bgp-serve-react`.
pub fn threads_cpu_ns(prefix: &str) -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|task| {
            let dir = task.path();
            let name = fs::read_to_string(dir.join("comm")).ok()?;
            name.starts_with(prefix)
                .then(|| schedstat_ns(&dir.join("schedstat").to_string_lossy()))
        })
        .sum()
}

/// On-CPU nanoseconds of the calling thread.
pub fn this_thread_cpu_ns() -> u64 {
    schedstat_ns("/proc/thread-self/schedstat")
}

/// User + system nanoseconds of the whole process, threads that already
/// exited included (the per-seal shard workers are such threads). 10 ms
/// resolution: `/proc` reports clock ticks at the fixed `USER_HZ` = 100.
pub fn process_cpu_ns() -> u64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // The command name may hold spaces; fields are counted after the
    // closing parenthesis. utime and stime are fields 14 and 15.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0;
    };
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks * 10_000_000
}

/// Peak resident set size in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset `VmHWM` to the current resident size, so the peak read later
/// is the measured part's and not set-up's. Returns whether the kernel
/// accepted the reset.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

//! What the benchmark reads from the operating system: peak resident set
//! of this process, load average, core count. Linux only, like the `/proc`
//! readers in `bpart_obs::rss` it builds on.

const MIB: f64 = 1024.0 * 1024.0;

/// Peak resident set (`VmHWM`) of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    bpart_obs::rss::peak_rss_bytes().map_or(0.0, |b| b as f64 / MIB)
}

/// 1-minute load average, or 0 where `/proc/loadavg` is missing.
pub fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

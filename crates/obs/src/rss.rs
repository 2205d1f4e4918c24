//! Process resident-memory introspection and limits (Linux).
//!
//! A memory bound is only a claim until a process is held to it, so there
//! are two primitives:
//!
//! * **measurement** — [`peak_rss_bytes`] reads `VmHWM` from
//!   `/proc/self/status`: the kernel's lifetime high-water mark for the
//!   process, which is exactly the number an OOM killer would have seen —
//!   no sampling thread required. Every process publishes it as the
//!   `proc.peak_rss_bytes` gauge, and `crates/cli/tests/ooc_ceiling.rs` /
//!   `resident_peak.rs` hold the real binary to a bound on it.
//! * **enforcement** — [`set_address_space_limit`] applies `RLIMIT_AS` via
//!   `setrlimit(2)` (`bpart partition --mem-ceiling`), so allocations
//!   beyond the ceiling *fail* instead of merely being frowned upon.
//!
//! Constrained kernels (containers, grsecurity, non-linux) can omit or
//! truncate `/proc/self/status` fields, so a field that is missing or does
//! not parse reads as `None` — never a panic.

/// Parses a `VmXXX:   1234 kB` line out of status-file `text` into bytes:
/// `None` when the field is absent or its value is not `<kB> kB` in range.
/// Pure so fixture tests can exercise truncated and malformed files on any
/// platform.
fn parse_status_kb(text: &str, key: &str) -> Option<u64> {
    // The colon guards against prefix collisions (`VmRSS` vs `VmRSSX`).
    let value = text
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))?;
    value
        .split_whitespace()
        .next()?
        .parse::<u64>()
        .ok()?
        .checked_mul(1024)
}

/// Lifetime peak resident set size in bytes (`VmHWM`), if the platform
/// exposes it. This is a high-water mark: it covers everything the
/// process has done so far, including phases before the caller started
/// caring — measure in a child process when isolating one phase.
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        parse_status_kb(&status, "VmHWM")
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

#[cfg(target_os = "linux")]
mod ffi {
    use std::os::raw::c_int;

    /// `RLIMIT_AS` on Linux: total virtual address space. The number is
    /// Linux's own (FreeBSD's 9 is `RLIMIT_SBSIZE`; macOS has no 9).
    pub const RLIMIT_AS: c_int = 9;

    #[repr(C)]
    pub struct Rlimit {
        pub rlim_cur: u64,
        pub rlim_max: u64,
    }

    extern "C" {
        pub fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
    }
}

/// Caps this process's virtual address space at `bytes` (`RLIMIT_AS`).
///
/// Irreversible for the life of the process (a process may lower its soft
/// limit but raising it back above the hard limit requires privilege), so
/// callers apply it in a process of their own (`bpart partition
/// --mem-ceiling`). Returns an error off Linux (`Unsupported`) or when the
/// kernel refuses the value.
pub fn set_address_space_limit(bytes: u64) -> std::io::Result<()> {
    #[cfg(target_os = "linux")]
    {
        let lim = ffi::Rlimit {
            rlim_cur: bytes,
            rlim_max: bytes,
        };
        let rc = unsafe { ffi::setrlimit(ffi::RLIMIT_AS, &lim) };
        if rc == 0 {
            Ok(())
        } else {
            Err(std::io::Error::last_os_error())
        }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = bytes;
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "an address-space limit is only set on Linux",
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A healthy status file (abridged from a real kernel).
    const FULL_STATUS: &str = "\
Name:\tbpart
Umask:\t0022
State:\tR (running)
VmPeak:\t  123456 kB
VmSize:\t  120000 kB
VmHWM:\t   98304 kB
VmRSS:\t   65536 kB
Threads:\t4
";

    /// The truncated-status fixture: a constrained kernel (or a torn
    /// read) that lost everything from `VmHWM` on.
    const TRUNCATED_STATUS: &str = "\
Name:\tbpart
Umask:\t0022
State:\tR (running)
VmPeak:\t  123456 kB
";

    #[test]
    fn parses_fields_from_a_full_status_file() {
        assert_eq!(parse_status_kb(FULL_STATUS, "VmRSS"), Some(65536 * 1024));
        assert_eq!(parse_status_kb(FULL_STATUS, "VmHWM"), Some(98304 * 1024));
    }

    #[test]
    fn truncated_status_is_none_not_a_panic() {
        assert_eq!(parse_status_kb(TRUNCATED_STATUS, "VmHWM"), None);
        assert_eq!(parse_status_kb(TRUNCATED_STATUS, "VmRSS"), None);
    }

    #[test]
    fn malformed_values_are_none() {
        let garbage = "VmRSS:\tnot-a-number kB\n";
        assert_eq!(parse_status_kb(garbage, "VmRSS"), None);
        let empty_value = "VmRSS:\n";
        assert_eq!(parse_status_kb(empty_value, "VmRSS"), None);
        // A kB count that would overflow the byte conversion.
        let huge = format!("VmRSS:\t{} kB\n", u64::MAX);
        assert_eq!(parse_status_kb(&huge, "VmRSS"), None);
    }

    #[test]
    fn prefix_collisions_do_not_match() {
        // `VmRSSExtra` must not satisfy a `VmRSS` lookup.
        let tricky = "VmRSSExtra:\t10 kB\nVmRSS:\t20 kB\n";
        assert_eq!(parse_status_kb(tricky, "VmRSS"), Some(20 * 1024));
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn rss_readings_are_sane() {
        let peak = peak_rss_bytes().expect("VmHWM should exist on linux");
        // A running test binary has held at least a few pages.
        assert!(peak > 64 * 1024, "peak {peak}");
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn peak_tracks_a_big_allocation() {
        let before = peak_rss_bytes().unwrap();
        // Touch every page so the allocation actually becomes resident.
        let size = 64 * 1024 * 1024;
        let block = vec![1u8; size];
        assert_eq!(block.iter().map(|&b| b as u64).sum::<u64>(), size as u64);
        drop(block);
        let after = peak_rss_bytes().unwrap();
        assert!(
            after >= before + size as u64 / 2,
            "peak did not move: {before} -> {after}"
        );
    }

    // set_address_space_limit is deliberately untested in-process: the
    // limit cannot be raised again and would poison every later test in
    // this binary. `crates/cli/tests/ooc_ceiling.rs` exercises it end to
    // end through `bpart partition --mem-ceiling`.
}

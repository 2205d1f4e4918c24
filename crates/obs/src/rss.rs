//! Process resident-memory introspection and limits (linux/unix).
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
//! truncate `/proc/self/status` fields, so parsing goes through the typed
//! [`try_peak_rss_bytes`] with a [`ProcStatusError`] naming exactly what
//! went wrong — never a panic. [`peak_rss_bytes`] is for callers that
//! treat any miss as "platform doesn't expose it".

use std::fmt;

/// Why a `/proc/self/status` field could not be read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProcStatusError {
    /// `/proc/self/status` itself could not be read (non-linux, masked
    /// procfs, …). Carries the OS error text.
    Unreadable(String),
    /// The file was read but the requested field is absent — constrained
    /// kernels omit accounting fields, and truncated reads lose the tail.
    MissingField(&'static str),
    /// The field was present but its value didn't parse as `<kB> kB`.
    Malformed { key: &'static str, line: String },
}

impl fmt::Display for ProcStatusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProcStatusError::Unreadable(err) => {
                write!(f, "/proc/self/status unreadable: {err}")
            }
            ProcStatusError::MissingField(key) => {
                write!(f, "/proc/self/status has no {key} field")
            }
            ProcStatusError::Malformed { key, line } => {
                write!(f, "/proc/self/status {key} line malformed: {line:?}")
            }
        }
    }
}

impl std::error::Error for ProcStatusError {}

/// Parses a `VmXXX:   1234 kB` line out of status-file `text`. Pure so
/// fixture tests can exercise truncated and malformed files on any
/// platform.
fn parse_status_kb(text: &str, key: &'static str) -> Result<u64, ProcStatusError> {
    for line in text.lines() {
        let Some(rest) = line.strip_prefix(key) else {
            continue;
        };
        // Guard against prefix collisions (`VmRSS` vs a hypothetical
        // `VmRSSX`): the key must be followed by the colon.
        let Some(rest) = rest.strip_prefix(':') else {
            continue;
        };
        let Some(token) = rest.split_whitespace().next() else {
            return Err(ProcStatusError::Malformed {
                key,
                line: line.to_string(),
            });
        };
        let kb: u64 = token.parse().map_err(|_| ProcStatusError::Malformed {
            key,
            line: line.to_string(),
        })?;
        return kb.checked_mul(1024).ok_or(ProcStatusError::Malformed {
            key,
            line: line.to_string(),
        });
    }
    Err(ProcStatusError::MissingField(key))
}

/// Reads and parses one field from the live `/proc/self/status`.
fn proc_status_bytes(key: &'static str) -> Result<u64, ProcStatusError> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status")
            .map_err(|e| ProcStatusError::Unreadable(e.to_string()))?;
        parse_status_kb(&status, key)
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = key;
        Err(ProcStatusError::Unreadable(
            "no /proc/self/status on this platform".to_string(),
        ))
    }
}

/// Lifetime peak resident set size in bytes (`VmHWM`), with a typed
/// error when the kernel hides or mangles the field.
pub fn try_peak_rss_bytes() -> Result<u64, ProcStatusError> {
    proc_status_bytes("VmHWM")
}

/// Lifetime peak resident set size in bytes (`VmHWM`), if the platform
/// exposes it. This is a high-water mark: it covers everything the
/// process has done so far, including phases before the caller started
/// caring — measure in a child process when isolating one phase.
pub fn peak_rss_bytes() -> Option<u64> {
    try_peak_rss_bytes().ok()
}

#[cfg(unix)]
mod ffi {
    use std::os::raw::c_int;

    /// `RLIMIT_AS` on linux (and the BSDs we care about): total virtual
    /// address space.
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
/// --mem-ceiling`). Returns an error on platforms without `setrlimit` or
/// when the kernel refuses the value.
pub fn set_address_space_limit(bytes: u64) -> std::io::Result<()> {
    #[cfg(unix)]
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
    #[cfg(not(unix))]
    {
        let _ = bytes;
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "setrlimit is unavailable on this platform",
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
        assert_eq!(parse_status_kb(FULL_STATUS, "VmRSS"), Ok(65536 * 1024));
        assert_eq!(parse_status_kb(FULL_STATUS, "VmHWM"), Ok(98304 * 1024));
    }

    #[test]
    fn truncated_status_is_a_typed_missing_field_not_a_panic() {
        assert_eq!(
            parse_status_kb(TRUNCATED_STATUS, "VmHWM"),
            Err(ProcStatusError::MissingField("VmHWM"))
        );
        assert_eq!(
            parse_status_kb(TRUNCATED_STATUS, "VmRSS"),
            Err(ProcStatusError::MissingField("VmRSS"))
        );
        // And the error renders something a human can act on.
        let msg = ProcStatusError::MissingField("VmHWM").to_string();
        assert!(msg.contains("VmHWM"), "{msg}");
    }

    #[test]
    fn malformed_values_are_typed_errors() {
        let garbage = "VmRSS:\tnot-a-number kB\n";
        assert!(matches!(
            parse_status_kb(garbage, "VmRSS"),
            Err(ProcStatusError::Malformed { key: "VmRSS", .. })
        ));
        let empty_value = "VmRSS:\n";
        assert!(matches!(
            parse_status_kb(empty_value, "VmRSS"),
            Err(ProcStatusError::Malformed { key: "VmRSS", .. })
        ));
        // A kB count that would overflow the byte conversion.
        let huge = format!("VmRSS:\t{} kB\n", u64::MAX);
        assert!(matches!(
            parse_status_kb(&huge, "VmRSS"),
            Err(ProcStatusError::Malformed { key: "VmRSS", .. })
        ));
    }

    #[test]
    fn prefix_collisions_do_not_match() {
        // `VmRSSExtra` must not satisfy a `VmRSS` lookup.
        let tricky = "VmRSSExtra:\t10 kB\nVmRSS:\t20 kB\n";
        assert_eq!(parse_status_kb(tricky, "VmRSS"), Ok(20 * 1024));
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn rss_readings_are_sane() {
        let peak = try_peak_rss_bytes().expect("VmHWM should exist on linux");
        // A running test binary has held at least a few pages.
        assert!(peak > 64 * 1024, "peak {peak}");
        assert!(peak_rss_bytes().is_some());
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

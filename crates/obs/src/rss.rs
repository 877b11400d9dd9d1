//! Resident-set-size introspection: the peak and the current figure.
//!
//! The scale benchmarks report memory alongside wall-clock: a setup path
//! that is fast because it materialized the whole corpus twice is not a
//! win. On Linux the kernel already tracks the high-water mark (`VmHWM` in
//! `/proc/self/status`) and the current figure (`VmRSS`), so the reader is
//! a dozen lines of text parsing with zero dependencies; elsewhere it
//! degrades to `None` and callers print `n/a`.

/// The process's peak resident set size in bytes, if the platform exposes
/// it. Linux only (`/proc/self/status`, `VmHWM` line); `None` elsewhere or
/// if the file is missing/unparseable.
pub fn peak_rss_bytes() -> Option<u64> {
    status_field("VmHWM:")
}

/// The process's current resident set size in bytes (`VmRSS`), if the
/// platform exposes it — what a process holds at rest, where
/// [`peak_rss_bytes`] is the lifetime high-water mark. `None` off Linux or
/// if the file is missing/unparseable.
pub fn resident_rss_bytes() -> Option<u64> {
    status_field("VmRSS:")
}

/// One kibibyte field of `/proc/self/status`, in bytes.
fn status_field(key: &str) -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        parse_status_kib(&status, key)
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = key;
        None
    }
}

/// Parse the `key` line (`VmHWM:`, `VmRSS:`) of a `/proc/<pid>/status`
/// document into bytes. The kernel reports kibibytes (`VmHWM:   123456 kB`).
#[cfg_attr(not(target_os = "linux"), allow(dead_code))]
fn parse_status_kib(status: &str, key: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kib: u64 = line
        .trim_start_matches(key)
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib * 1024)
}

/// Render a byte count as a human-readable figure (`1.50 GiB`, `32.0 MiB`,
/// `512 KiB`), or `"n/a"` for `None` — the form the bench binaries print.
pub fn fmt_rss(bytes: Option<u64>) -> String {
    match bytes {
        None => "n/a".to_owned(),
        Some(b) if b >= 1 << 30 => format!("{:.2} GiB", b as f64 / (1u64 << 30) as f64),
        Some(b) if b >= 1 << 20 => format!("{:.1} MiB", b as f64 / (1u64 << 20) as f64),
        Some(b) => format!("{} KiB", b / 1024),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "Name:\tudi\nVmPeak:\t  999 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 100 kB\n";

    #[test]
    fn parses_the_kernel_format() {
        assert_eq!(parse_status_kib(DOC, "VmHWM:"), Some(12345 * 1024));
    }

    #[test]
    fn parses_the_resident_line() {
        assert_eq!(parse_status_kib(DOC, "VmRSS:"), Some(100 * 1024));
        // `VmRSS` is not read off the neighbouring lines.
        assert_eq!(parse_status_kib("VmHWM:\t 7 kB\n", "VmRSS:"), None);
    }

    #[test]
    fn missing_or_malformed_lines_yield_none() {
        assert_eq!(parse_status_kib("", "VmHWM:"), None);
        assert_eq!(parse_status_kib("VmRSS:\t 100 kB\n", "VmHWM:"), None);
        assert_eq!(parse_status_kib("VmHWM:\t lots kB\n", "VmHWM:"), None);
    }

    #[test]
    fn formatting_covers_the_scales() {
        assert_eq!(fmt_rss(None), "n/a");
        assert_eq!(fmt_rss(Some(512 * 1024)), "512 KiB");
        assert_eq!(fmt_rss(Some(32 << 20)), "32.0 MiB");
        assert_eq!(fmt_rss(Some(3 << 30)), "3.00 GiB");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn live_reading_is_plausible() {
        let rss = peak_rss_bytes().expect("Linux exposes VmHWM");
        // A running test binary holds at least a mebibyte and (hopefully)
        // less than a tebibyte.
        assert!(rss > 1 << 20, "{rss}");
        assert!(rss < 1 << 40, "{rss}");
        // Not compared with the peak: other test threads allocate between
        // the two reads.
        let resident = resident_rss_bytes().expect("Linux exposes VmRSS");
        assert!(resident > 1 << 20, "{resident}");
        assert!(resident < 1 << 40, "{resident}");
    }
}

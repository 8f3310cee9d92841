//! Peak resident-set-size measurement.
//!
//! Linux exposes a process's high-water RSS mark as the `VmHWM` line of
//! `/proc/self/status` (kilobytes). It is maintained by the kernel with
//! no sampling loop, survives frees (it is a high-water mark, not the
//! current RSS), and costs one small file read. A pipeline run under an
//! installed telemetry collector records it as the
//! `process.peak_rss_bytes` gauge, and the repository benchmark reports
//! it as `peak_rss_mb`.
//!
//! On non-Linux targets — or if procfs is unavailable — the probe
//! degrades to [`None`]; nothing in the pipeline depends on the value
//! being present.

/// The process's peak resident set size in **bytes**, if the platform
/// exposes it.
///
/// Reads `VmHWM` from `/proc/self/status` on Linux; returns [`None`]
/// anywhere else (or when procfs is missing/unparseable).
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        parse_vm_hwm_kb(&std::fs::read_to_string("/proc/self/status").ok()?).map(|kb| kb * 1024)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Extracts the `VmHWM` value (in kB) from a `/proc/<pid>/status` body.
#[cfg_attr(not(target_os = "linux"), allow(dead_code))]
fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm_line() {
        let status = "Name:\tdscts\nVmPeak:\t  123456 kB\nVmHWM:\t   98304 kB\nThreads:\t1\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(98_304));
    }

    #[test]
    fn missing_or_garbled_line_yields_none() {
        assert_eq!(parse_vm_hwm_kb("Name:\tdscts\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tnot-a-number kB\n"), None);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn live_probe_reports_a_plausible_peak() {
        let peak = peak_rss_bytes().expect("procfs available on Linux");
        // Any live Rust test process has touched at least a megabyte and
        // far less than 16 TiB.
        assert!(peak > 1 << 20, "peak {peak} implausibly small");
        assert!(peak < 1 << 44, "peak {peak} implausibly large");
    }

    #[test]
    fn peak_is_monotone_across_an_allocation() {
        let before = peak_rss_bytes();
        // 32 MiB touched page-by-page so the kernel must commit it.
        let mut buf = vec![0u8; 32 << 20];
        for i in (0..buf.len()).step_by(4096) {
            buf[i] = 1;
        }
        std::hint::black_box(&buf);
        let after = peak_rss_bytes();
        match (before, after) {
            (Some(b), Some(a)) => assert!(a >= b, "high-water mark went down: {b} -> {a}"),
            // Non-Linux: the probe must consistently decline.
            (None, None) => {}
            other => panic!("probe availability flapped: {other:?}"),
        }
    }
}

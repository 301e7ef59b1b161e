//! Process resource readings from Linux `/proc`.

use std::fs;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (`USER_HZ`,
/// fixed at 100 by the Linux ABI on every mainstream architecture).
const USER_HZ: f64 = 100.0;

/// Process user + system CPU time so far, in milliseconds, summed over
/// every thread the process has run (worker threads included).
pub fn cpu_ms() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    parse_cpu_ticks(&stat).map_or(0.0, |ticks| ticks as f64 * 1e3 / USER_HZ)
}

/// `utime + stime` from a `/proc/<pid>/stat` line. The command name may
/// hold spaces, so fields are counted after its closing parenthesis.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state is field 3 of the line, utime 14, stime 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size of the process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_kb(&status, "VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn parse_kb(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_name() {
        let line = "42 (my bench) S 1 42 42 0 -1 4194304 100 0 0 0 250 17 0 0 20 0 9 0";
        assert_eq!(parse_cpu_ticks(line), Some(267));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn status_kb_lines_parse() {
        let status = "Name:\tx\nVmHWM:\t  20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_kb(status, "VmHWM:"), Some(20480));
        assert_eq!(parse_kb(status, "VmSwap:"), None);
    }

    #[test]
    fn live_readings_are_positive() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_ms() >= 0.0);
        assert!(nproc() >= 1);
    }
}

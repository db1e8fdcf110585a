//! Process-wide CPU time and peak memory, read from `/proc`.

use std::fs;

/// `sysconf(_SC_CLK_TCK)`. It is 100 on every Linux this repo targets,
/// and the std-only harness cannot call `sysconf`.
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds of this process, all threads, including
/// threads that have ended.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    parse_cpu_ticks(&stat)
        .map(|ticks| ticks as f64 / TICKS_PER_S)
        .ok_or_else(|| "unexpected /proc/self/stat layout".to_string())
}

/// utime + stime (fields 14 and 15). The command name (field 2) may
/// contain spaces and parentheses, so fields are counted from the last
/// `)`.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size (`VmHWM`) of this process in MB (10^6 bytes).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    parse_vm_hwm_kb(&status)
        .map(|kb| kb as f64 * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_are_counted_after_the_command_name() {
        let stat = "42 (a b) c) R 1 42 42 0 -1 4194304 100 0 0 0 17 5 0 0 20 0 3 0 100 1 2";
        assert_eq!(parse_cpu_ticks(stat), Some(22));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kilobytes() {
        assert_eq!(
            parse_vm_hwm_kb("Name:\tx\nVmHWM:\t  123456 kB\n"),
            Some(123_456)
        );
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn this_process_has_cpu_time_and_memory() {
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}

//! Resource probes read from procfs: per-thread CPU time and wakeups, process
//! CPU time and peak resident memory.  A probe returns `None` where the file
//! cannot be read or parsed, so callers report the figure as unavailable
//! instead of inventing a zero.

/// Clock ticks per second of the `utime`/`stime` fields of `stat` (the
/// kernel's `USER_HZ`, fixed at 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// CPU time and context switches of one thread since it started.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ThreadUsage {
    /// utime + stime, in seconds (10 ms resolution).
    pub cpu_s: f64,
    /// Voluntary context switches: each one is the thread blocking and later
    /// waking, so this counts wakeups.
    pub wakeups: u64,
}

impl ThreadUsage {
    /// Sums two readings (of different threads or passes).
    pub fn add(self, other: Self) -> Self {
        Self { cpu_s: self.cpu_s + other.cpu_s, wakeups: self.wakeups + other.wakeups }
    }
}

/// The calling thread's usage, read from `/proc/thread-self`.  Call it as the
/// last thing on the thread to measure, after its work returned.
pub fn thread_self() -> Option<ThreadUsage> {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    let status = std::fs::read_to_string("/proc/thread-self/status").ok()?;
    parse_thread(&stat, &status)
}

/// Parses a `stat` and a `status` file of one thread.
pub fn parse_thread(stat: &str, status: &str) -> Option<ThreadUsage> {
    Some(ThreadUsage {
        cpu_s: parse_stat_cpu_s(stat)?,
        wakeups: status_value(status, "voluntary_ctxt_switches:")?,
    })
}

/// utime + stime of a `stat` line, in seconds.  Fields are counted after the
/// closing parenthesis of the command name, which may itself hold spaces.
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// The numeric value of the `key` line of a `status` file (the unit, if any,
/// is dropped).
fn status_value(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|value| value.split_whitespace().next()?.parse().ok())
}

/// CPU time of the whole process so far, in seconds.
pub fn process_cpu_s() -> Option<f64> {
    parse_stat_cpu_s(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// Peak resident set size of the process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    Some(status_value(&status, "VmHWM:")? as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `/proc/thread-self/stat` of a thread whose command name holds a space
    /// and a parenthesis: utime 1234 and stime 56 ticks.
    const STAT: &str = "4602 (io (worker) 1) S 4598 4602 4598 0 -1 4194304 84 0 0 0 1234 56 \
                        0 0 20 0 1 0 194368 2703360 285 18446744073709551615 0 0 0 0 0 0 0 0 0";

    const STATUS: &str = "Name:\tio (worker) 1\nState:\tS (sleeping)\nVmHWM:\t    1776 kB\n\
                          voluntary_ctxt_switches:\t4711\nnonvoluntary_ctxt_switches:\t3\n";

    #[test]
    fn parses_cpu_time_and_voluntary_switches() {
        let usage = parse_thread(STAT, STATUS).unwrap();
        assert!((usage.cpu_s - 12.9).abs() < 1e-12, "{usage:?}");
        assert_eq!(usage.wakeups, 4711, "nonvoluntary switches must not match the key");
        assert_eq!(status_value(STATUS, "VmHWM:"), Some(1776));
    }

    #[test]
    fn unreadable_or_truncated_files_are_unavailable_not_zero() {
        assert_eq!(parse_thread("4602 (cat) R 1 2 3", STATUS), None);
        assert_eq!(parse_thread(STAT, "Name:\tcat\n"), None);
        assert_eq!(parse_stat_cpu_s("no command name at all"), None);
    }

    #[test]
    fn the_running_thread_can_be_probed() {
        let usage = thread_self().expect("procfs is mounted on the machines the benchmark runs on");
        assert!(usage.cpu_s >= 0.0);
        assert!(process_cpu_s().is_some() && peak_rss_mib().is_some());
    }
}

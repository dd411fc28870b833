//! Process-wide CPU time and memory, read from `/proc/self`.

/// Linux reports `utime`/`stime` in clock ticks of `USER_HZ`, which is 100 on
/// every mainstream kernel configuration; without libc `sysconf` cannot be
/// asked, so the value is assumed.
const TICKS_PER_SECOND: u64 = 100;

#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// User + system CPU time of all threads so far.
    pub cpu_us: u64,
    pub rss_bytes: u64,
    pub peak_rss_bytes: u64,
}

/// Sample the current process; fields read 0 where `/proc` is unavailable.
pub fn sample() -> ProcSample {
    let mut sample = ProcSample::default();
    if let Ok(stat) = std::fs::read_to_string("/proc/self/stat") {
        // The command name may contain spaces; fields resume after its ")".
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest.split_whitespace().collect())
            .unwrap_or_default();
        // After the name: state is field 3, utime 14 and stime 15.
        let ticks = |field: usize| -> u64 {
            fields
                .get(field - 3)
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        };
        sample.cpu_us = (ticks(14) + ticks(15)) * 1_000_000 / TICKS_PER_SECOND;
    }
    if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
        let kb = |key: &str| -> u64 {
            status
                .lines()
                .find_map(|line| line.strip_prefix(key))
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        };
        sample.rss_bytes = kb("VmRSS:") * 1024;
        sample.peak_rss_bytes = kb("VmHWM:") * 1024;
    }
    sample
}

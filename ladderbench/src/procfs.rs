//! Process counters from `/proc/self`: CPU time, context switches summed
//! over every live thread, thread count and peak resident set.
//!
//! Where `/proc` is missing or unreadable a reading is `None`, so the
//! metrics built on it are reported absent rather than as zero.

use std::fs;

/// Clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed at 100
/// by the Linux procfs ABI).
const USER_HZ: f64 = 100.0;

/// One reading of the process counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// User + system CPU seconds of the whole process (exited threads
    /// included).
    pub cpu_s: Option<f64>,
    /// Voluntary + involuntary context switches of the threads alive now.
    pub ctx_switches: Option<u64>,
    /// Live threads.
    pub threads: Option<u64>,
    /// Peak resident set (VmHWM), MiB.
    pub peak_rss_mb: Option<f64>,
}

/// Reads the counters now.
pub fn sample() -> ProcSample {
    let status = fs::read_to_string("/proc/self/status").ok();
    let field = |name: &str| status.as_deref().and_then(|s| status_field(s, name));
    ProcSample {
        cpu_s: fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| cpu_seconds(&s)),
        ctx_switches: ctx_switches(),
        threads: field("Threads"),
        peak_rss_mb: field("VmHWM").map(|kib| kib as f64 / 1024.0),
    }
}

/// utime + stime from a `stat` line. The command name may contain spaces
/// and parentheses, so fields are counted from the last `)`.
fn cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Fields 14 and 15 of stat(5); `rest` starts at field 3.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// The first number on the `name:` line of a `status` file.
fn status_field(status: &str, name: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(name)?.strip_prefix(':')?;
        value.split_whitespace().next()?.parse().ok()
    })
}

/// `/proc/self/status` reports switches for the main thread only, so sum
/// the per-thread files.
fn ctx_switches() -> Option<u64> {
    let mut total = 0;
    for entry in fs::read_dir("/proc/self/task").ok()? {
        let Ok(entry) = entry else { continue };
        // A thread may exit between listing and reading; skip it.
        let Ok(status) = fs::read_to_string(entry.path().join("status")) else {
            continue;
        };
        total += status_field(&status, "voluntary_ctxt_switches")?;
        total += status_field(&status, "nonvoluntary_ctxt_switches")?;
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_awkward_command_names() {
        let stat = "42 (a) b (c)) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0";
        assert_eq!(cpu_seconds(stat), Some(3.0));
        assert_eq!(cpu_seconds("garbage"), None);
    }

    #[test]
    fn status_fields_need_an_exact_name() {
        let status = "Threads:\t7\nVmHWM:\t  2048 kB\nnonvoluntary_ctxt_switches:\t5\n";
        assert_eq!(status_field(status, "Threads"), Some(7));
        assert_eq!(status_field(status, "VmHWM"), Some(2048));
        assert_eq!(status_field(status, "voluntary_ctxt_switches"), None);
        assert_eq!(status_field(status, "nonvoluntary_ctxt_switches"), Some(5));
    }
}

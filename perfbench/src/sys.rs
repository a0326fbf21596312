//! Process-level readings: CPU time (own and reaped children), peak
//! RSS, core count and the source revision.

use std::path::Path;

/// Length of one `/proc` clock tick in milliseconds. Linux reports
/// `/proc/<pid>/stat` times in `USER_HZ` = 100 ticks per second on every
/// architecture, independent of the kernel's internal timer rate.
const TICK_MS: f64 = 10.0;

/// User + system CPU time of this process and of its reaped children.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CpuTimes {
    /// `utime + stime` of every thread of this process.
    pub own_ms: f64,
    /// `cutime + cstime`: children this process has waited for, which
    /// is how the distributed workers' CPU becomes visible.
    pub children_ms: f64,
}

impl CpuTimes {
    /// Own plus children.
    pub fn total_ms(&self) -> f64 {
        self.own_ms + self.children_ms
    }
}

/// Parse the text of `/proc/<pid>/stat`. The command name (field 2) is
/// parenthesised and may contain spaces or parentheses, so fields are
/// counted from the last `)`: `utime`..`cstime` are fields 14–17.
pub fn parse_stat(stat: &str) -> Option<CpuTimes> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state), so field f is at index f − 3.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |field: usize| -> Option<f64> {
        fields.get(field - 3)?.parse::<u64>().ok().map(|t| t as f64)
    };
    Some(CpuTimes {
        own_ms: (tick(14)? + tick(15)?) * TICK_MS,
        children_ms: (tick(16)? + tick(17)?) * TICK_MS,
    })
}

/// This process's CPU times now.
pub fn cpu_times() -> CpuTimes {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .expect("/proc/self/stat is readable and well formed")
}

/// Lifetime peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    netalign_trace::peak_rss_kb() as f64 / 1024.0
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The pool size every workload runs at: two threads, or fewer on a
/// host with fewer cores.
pub fn pool_threads() -> usize {
    nproc().min(2)
}

/// The checked-out revision, read from `.git` in the working directory
/// without running git (the benchmark reads nothing outside its
/// checkout). `None` outside a git work tree.
pub fn git_rev() -> Option<String> {
    let git = Path::new(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(name) => {
            if let Ok(rev) = std::fs::read_to_string(git.join(name)) {
                return Some(rev.trim().to_string());
            }
            let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
            packed
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_fields_after_a_hostile_command_name() {
        // comm contains spaces and a ')' — counting must start after
        // the last one. utime 250, stime 50, cutime 7, cstime 3 ticks.
        let line = "4242 (perf bench) x) S 1 4242 4242 0 -1 4194560 100 0 0 0 \
                    250 50 7 3 20 0 3 0 12345 1000 200 0";
        let t = parse_stat(line).unwrap();
        assert_eq!(t.own_ms, 3000.0);
        assert_eq!(t.children_ms, 100.0);
        assert_eq!(t.total_ms(), 3100.0);
        assert!(parse_stat("4242 (truncated) S 1 2").is_none());
        assert!(parse_stat("no parenthesis at all").is_none());
    }

    #[test]
    fn reaped_children_show_up_in_children_time() {
        let before = cpu_times();
        assert!(before.own_ms >= 0.0);
        // A child that burns well over one tick of CPU, then is waited
        // for; only after the wait does the kernel add its time.
        let status = std::process::Command::new("sh")
            .args(["-c", "i=0; while [ $i -lt 300000 ]; do i=$((i+1)); done"])
            .status()
            .expect("spawn sh");
        assert!(status.success());
        let after = cpu_times();
        assert!(
            after.children_ms > before.children_ms,
            "children time {} -> {}",
            before.children_ms,
            after.children_ms
        );
    }

    #[test]
    fn peak_rss_and_cores_are_positive() {
        assert!(peak_rss_mib() > 0.0);
        assert!(nproc() >= 1);
        assert!((1..=2).contains(&pool_threads()));
    }
}

//! What the run ran on, and what the process has used so far. Everything
//! comes from `/proc` or a child process that is waited for; nothing here
//! touches the program under test.

use std::process::Command;

/// The machine and toolchain a result belongs to.
#[derive(Clone, Debug)]
pub struct Environment {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_hash: String,
    pub loadavg_1m: f64,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

impl Environment {
    pub fn capture() -> Self {
        Environment {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: proc_field("/proc/cpuinfo", "model name")
                .unwrap_or_else(|| "unknown".to_string()),
            rustc: command_line("rustc", &["--version"]),
            git_hash: command_line("git", &["rev-parse", "--short=12", "HEAD"]),
            loadavg_1m: std::fs::read_to_string("/proc/loadavg")
                .ok()
                .and_then(|s| s.split_whitespace().next()?.parse().ok())
                .unwrap_or(0.0),
        }
    }

    /// Whether other work was competing for the cores when the run began.
    pub fn loaded(&self) -> bool {
        self.loadavg_1m > 0.5 * self.nproc as f64
    }
}

/// User + system CPU seconds of this process, all threads, living or
/// joined (`/proc/self/stat` fields 14 and 15, in 10 ms ticks).
pub fn process_cpu_seconds() -> f64 {
    const TICKS_PER_SECOND: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields count from the
    // closing parenthesis.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = after_comm
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / TICKS_PER_SECOND
}

/// Ticks (10 ms) the hypervisor ran something else while a virtual CPU of
/// this machine had work to do: the `steal` column of `/proc/stat`, all
/// CPUs together. 0 where the kernel does not report it.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_accounting_reads_proc() {
        let before = process_cpu_seconds();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_seconds() - before >= 0.03, "{x}");
        assert!(peak_rss_mb() > 1.0);
        assert!(Environment::capture().nproc >= 1);
    }
}

//! What the benchmark reads from the host: CPU count and model, load, this
//! process's CPU time and peak memory, and free disk space.
//!
//! Everything comes from `/proc` (and `df` for disk space) because the crate
//! is std-only; on a host without them the readings are 0 / `unknown` and the
//! run says so in its header rather than failing.

use std::path::Path;
use std::process::Command;

use crate::json::Value;

/// Kernel clock ticks per second behind `/proc/<pid>/stat`'s `utime`. It is
/// `sysconf(_SC_CLK_TCK)`, which Linux fixes at 100 on every architecture
/// this benchmark runs on; std offers no `sysconf`.
const USER_HZ: f64 = 100.0;

/// Number of CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// User-mode CPU seconds consumed so far by all threads of this process,
/// finished ones included.
pub fn user_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The comm field may hold spaces and parentheses; fields resume after
    // the last `)`. `utime` is field 14 overall, so the 12th after comm.
    stat.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(11))
        .and_then(|ticks| ticks.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / USER_HZ)
}

/// This process's peak resident set (`VmHWM`) in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Resets `VmHWM` to the current resident set, so a later [`peak_rss_mb`]
/// reads the peak of what ran in between. Returns false where the kernel
/// does not offer the reset; the reading then covers the whole process.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Free space in bytes on the filesystem holding `dir`, from `df -Pk`.
pub fn free_bytes(dir: &Path) -> Option<u64> {
    let out = Command::new("df").arg("-Pk").arg(dir).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    // Header line, then: filesystem, 1024-blocks, used, available, ...
    let kb: u64 = text
        .lines()
        .nth(1)?
        .split_whitespace()
        .nth(3)?
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// The results header: enough about the host to judge whether two result
/// files are comparable at all.
pub fn header(seed: u64, reps: usize, smoke: bool) -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let load1 = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|l| l.split_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or(0.0);
    let nproc = nproc();
    Value::obj([
        ("seed", Value::Num(seed as f64)),
        ("reps", Value::Num(reps as f64)),
        ("smoke", Value::Bool(smoke)),
        ("nproc", Value::Num(nproc as f64)),
        ("cpu_model", Value::Str(cpu_model)),
        ("load1", Value::Num(load1)),
        // Another tenant already using more than half the CPUs will show up
        // in every wall time below; flag the file instead of trusting it.
        ("noisy_host", Value::Bool(load1 > nproc as f64 / 2.0)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane_on_linux() {
        assert!(nproc() >= 1);
        let spin = std::time::Instant::now();
        let mut x = 0u64;
        while spin.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(user_cpu_s() > 0.0, "utime advances while spinning");
        assert!(peak_rss_mb() > 0.5);
        assert!(free_bytes(Path::new(".")).is_some_and(|b| b > 0));
        let h = header(42, 3, false);
        assert_eq!(h.get("seed").and_then(Value::as_u64), Some(42));
        assert!(h.get("noisy_host").and_then(Value::as_bool).is_some());
    }
}

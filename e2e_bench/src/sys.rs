//! Operating-system probes (Linux): resource usage of this process
//! and of spawned ones, host steal time, the process table, and
//! directory copies for per-repetition store fixtures.

use std::fs;
use std::io;
use std::path::Path;

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen
/// `long`s.
#[repr(C)]
#[derive(Default)]
struct RawRusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 11],
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// Clock ticks per second of `/proc/<pid>/stat` CPU fields (`USER_HZ`,
/// 100 on every mainstream Linux build).
const CLK_TCK: f64 = 100.0;

/// Cumulative resource usage of this process, every thread included
/// (threads that already exited too).
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User plus system CPU seconds.
    pub cpu_s: f64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
    /// Peak resident set so far, in MB.
    pub rss_peak_mb: f64,
}

/// This process's [`Usage`].
///
/// # Panics
///
/// Panics if `getrusage` fails, which it cannot for `RUSAGE_SELF`.
pub fn self_usage() -> Usage {
    let mut raw = RawRusage::default();
    // SAFETY: `getrusage` writes one `struct rusage` through the
    // pointer; `RawRusage` is `repr(C)` with that struct's 64-bit
    // Linux layout and the pointer comes from a live, exclusive
    // borrow.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Usage {
        cpu_s: secs(&raw.utime) + secs(&raw.stime),
        ctx_switches: (raw.nvcsw + raw.nivcsw) as u64,
        rss_peak_mb: raw.maxrss as f64 / 1024.0,
    }
}

/// The whitespace-split fields of `/proc/<pid>/stat` after the
/// parenthesised command name (index 0 is the state, field 3).
fn stat_fields(pid: u32) -> Option<Vec<String>> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let rest = &stat[stat.rfind(')')? + 1..];
    Some(rest.split_whitespace().map(str::to_string).collect())
}

/// User plus system CPU seconds of a live process, all its threads.
pub fn proc_cpu_s(pid: u32) -> Option<f64> {
    let f = stat_fields(pid)?;
    let ticks: u64 = f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?;
    Some(ticks as f64 / CLK_TCK)
}

/// Peak resident set (`VmHWM`) of a live process, in MB.
pub fn proc_rss_peak_mb(pid: u32) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Processes whose parent is this process (zombies included: an
/// unreaped child still counts).
pub fn child_pids() -> Vec<u32> {
    let me = std::process::id().to_string();
    all_pids()
        .into_iter()
        .filter(|&pid| stat_fields(pid).is_some_and(|f| f.get(1) == Some(&me)))
        .collect()
}

/// Live processes running the executable at `exe`.
pub fn pids_running(exe: &Path) -> Vec<u32> {
    let Ok(exe) = exe.canonicalize() else {
        return Vec::new();
    };
    all_pids()
        .into_iter()
        .filter(|pid| fs::read_link(format!("/proc/{pid}/exe")).is_ok_and(|p| p == exe))
        .collect()
}

fn all_pids() -> Vec<u32> {
    let Ok(dir) = fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
        .collect()
}

/// CPUs online on the host (the run itself may use fewer), from
/// `/proc/cpuinfo`.
pub fn online_cpus() -> usize {
    fs::read_to_string("/proc/cpuinfo").map_or(0, |info| {
        info.lines().filter(|l| l.starts_with("processor")).count()
    })
}

/// Host-wide CPU jiffies `(steal, total)` from the first `/proc/stat`
/// line.
fn cpu_jiffies() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// The host's steal fraction over an interval: stolen CPU jiffies
/// over all jiffies, from `/proc/stat`.
pub struct StealMeter((u64, u64));

impl StealMeter {
    /// Starts the interval now.
    pub fn start() -> StealMeter {
        StealMeter(cpu_jiffies())
    }

    /// The steal fraction since [`StealMeter::start`].
    pub fn fraction(&self) -> f64 {
        let (steal, total) = cpu_jiffies();
        (steal - self.0 .0) as f64 / (total - self.0 .1).max(1) as f64
    }
}

/// Recursively copies directory `from` to `to` (which must not exist).
///
/// # Errors
///
/// The first I/O failure.
pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_usage_and_stat_are_readable() {
        let u = self_usage();
        assert!(u.cpu_s >= 0.0 && u.rss_peak_mb > 0.0);
        let me = std::process::id();
        assert!(proc_cpu_s(me).is_some());
        assert!(proc_rss_peak_mb(me).is_some_and(|mb| mb > 0.0));
        let (steal, total) = cpu_jiffies();
        assert!(total > 0 && steal <= total);
    }
}

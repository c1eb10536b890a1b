//! Host facts stamped into every result, the noise canary, and the process's
//! peak resident set. A noisy run has to be recognisable from its own output:
//! the stamp says what the machine was, the canary says how it behaved while
//! the workload ran.

use crate::json::Json;
use std::hint::black_box;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Iterations of the canary's integer kernel. Fixed, so canary readings
/// compare across runs and hosts.
const CALIB_ITERATIONS: u64 = 12_500_000;

/// What the canary reads on the reference host (a 2.1 GHz Xeon, 2 vCPUs) in
/// its slower, more common state: the unit host times are expressed in. Part
/// of the benchmark's definition — changing it rescales every host metric.
pub const CALIB_NOMINAL_S: f64 = 0.0232;

/// Expresses a wall time measured between two canary readings in seconds of
/// the reference host: `raw × nominal ÷ mean(before, after)`.
///
/// The reference host is a shared VM whose speed moves in epochs of ten to
/// twenty seconds (the canary reads 20 ms in one, 23.5 ms in the next) and a
/// run's latencies move with it by the same ±8 %, which is as much as the
/// regression bounds allow in total. The canary is a fixed ALU kernel that
/// shares no code with the program under test, so dividing by it cancels the
/// host's state and nothing else: a change that makes the simulator slower
/// makes the ratio worse by exactly as much.
pub fn normalize(raw_s: f64, calib_before_s: f64, calib_after_s: f64) -> f64 {
    raw_s * CALIB_NOMINAL_S / ((calib_before_s + calib_after_s) / 2.0)
}

/// Times the canary: a dependent xorshift chain that touches no memory and
/// has no closed form, so its duration moves only with clock speed and stolen
/// cycles.
pub fn calib_s() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15_u64);
    for _ in 0..CALIB_ITERATIONS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    start.elapsed().as_secs_f64()
}

/// Mean cost of one clock read, nanoseconds. Every traced activation pays
/// two: about one lands inside the activation's busy time and one in the
/// engine's, which is what `trace.overhead` is made of.
pub fn clock_read_ns() -> f64 {
    const READS: u32 = 1_000_000;
    let start = Instant::now();
    for _ in 0..READS {
        black_box(Instant::now());
    }
    start.elapsed().as_nanos() as f64 / f64::from(READS)
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

/// The first three fields of `/proc/loadavg`, or `"unknown"`.
pub fn loadavg() -> String {
    read_trimmed("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|| "unknown".into())
}

/// A `Vm*` line of `/proc/self/status` in MiB, or `None` where the kernel does
/// not expose it.
fn status_mib(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    status_mib("VmHWM:")
}

/// Current resident set of this process in MiB (`VmRSS`).
pub fn rss_mib() -> Option<f64> {
    status_mib("VmRSS:")
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Worker threads the host offers; the benchmark never runs more.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The host stamp: what ran the benchmark. `repo_root` is consulted for the
/// git commit only when it is a git checkout (the driver's copy is not).
pub fn stamp(repo_root: &Path) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let governor = read_trimmed("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
        .unwrap_or_else(|| "unreadable".into());
    let commit = repo_root
        .join(".git")
        .exists()
        .then(|| {
            let root = repo_root.to_string_lossy();
            command_line("git", &["-C", &root, "rev-parse", "HEAD"])
        })
        .flatten()
        .unwrap_or_else(|| "unknown".into());
    Json::obj([
        ("nproc", Json::Int(nproc() as u64)),
        ("cpu_model", Json::str(cpu)),
        ("governor", Json::str(governor)),
        ("rustc", Json::str(command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()))),
        ("git_commit", Json::str(commit)),
    ])
}

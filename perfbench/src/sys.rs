//! Host probes: process CPU time, peak resident memory, and the regime
//! facts every result file records.

use std::process::Command;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time of the whole process (all threads), seconds,
/// nanosecond resolution.
pub fn cpu_time_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout of the
    // 64-bit Linux ABI, and the clock id is a constant the kernel accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hardware threads the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// First line of a command's stdout, or `fallback` when it cannot run.
fn command_line(program: &str, args: &[&str], fallback: &str) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| fallback.to_string())
}

/// `rustc --version` of the toolchain on the path.
pub fn rustc_version() -> String {
    command_line("rustc", &["--version"], "unknown")
}

/// The commit under test: `GIT_COMMIT` when set, else `git rev-parse HEAD`
/// when the working directory is a git checkout root, else a note that the
/// checkout carries no git metadata.
pub fn git_commit() -> String {
    const NONE: &str = "unknown (checkout without git metadata)";
    match std::env::var("GIT_COMMIT") {
        Ok(commit) => commit,
        Err(_) if std::path::Path::new(".git").exists() => {
            command_line("git", &["rev-parse", "HEAD"], NONE)
        }
        Err(_) => NONE.to_string(),
    }
}

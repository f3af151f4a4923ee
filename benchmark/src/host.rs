//! What the benchmark reads from the host: process CPU time, peak
//! resident memory, steal ticks and directory sizes.

use std::path::Path;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sync();
    fn mallopt(param: i32, value: i32) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux: user + system time of every
/// thread of this process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Nanoseconds of CPU this process has used so far, all threads.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields on
    // 64-bit Linux, the only target the benchmark is built for) and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// glibc's `M_MMAP_THRESHOLD`.
const M_MMAP_THRESHOLD: i32 = -3;

/// Gives every block of 4 MiB or more a mapping of its own, returned to
/// the kernel when freed. Left alone, glibc raises this threshold to the
/// size of the last large block freed, so whether a checkpoint's 16 MB
/// buffer is carved from the heap or mapped on top of it depends on the
/// order of earlier frees, which follows the engine's hash maps and so
/// differs from one process to the next: the same seed peaked at 219 or
/// at 233 MiB. Call before anything large is allocated.
pub fn fix_allocator_policy() {
    // SAFETY: `mallopt` only stores the value in the allocator's
    // settings; no other thread exists yet to race with it.
    let accepted = unsafe { mallopt(M_MMAP_THRESHOLD, 4 << 20) };
    assert_eq!(accepted, 1, "mallopt(M_MMAP_THRESHOLD) was refused");
}

/// Has the kernel write out every dirty page before a timed phase, so
/// that the phase's own fsyncs do not pay for what set-up, or a copy
/// made for the phase, left unwritten.
pub fn settle_disk() {
    // SAFETY: `sync` takes no argument, returns nothing and cannot fail.
    unsafe { sync() };
}

/// Lowers the peak (`VmHWM`) to what is resident now, so that the next
/// [`peak_rss_mb`] tells the peak since this call. False if the kernel
/// refused, in which case the peak still covers the whole process.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Ticks the hypervisor ran something else while this VM wanted a CPU
/// (`steal`, the eighth field of the `cpu` line of `/proc/stat`).
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// CPUs the process may run on. Only stamped into results; no workload
/// is sized from it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Total size in bytes of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Copies every regular file of `from` into the fresh directory `to`.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.metadata()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// The benchmark package's directory: where `cargo run` says it is, and
/// otherwise where it was when this binary was built.
pub fn package_dir() -> std::path::PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| env!("CARGO_MANIFEST_DIR").into(), std::path::PathBuf::from)
}

/// A scratch directory under `benchmark/scratch`, unique to this
/// process, removed when dropped.
pub struct Scratch {
    root: std::path::PathBuf,
}

impl Scratch {
    /// Creates `benchmark/scratch/<tag>-<pid>`.
    pub fn new(tag: &str) -> std::io::Result<Scratch> {
        let root = package_dir().join("scratch").join(format!("{tag}-{}", std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root })
    }

    /// A path inside the scratch directory.
    pub fn path(&self, name: &str) -> std::path::PathBuf {
        self.root.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Best effort: a leftover directory is ignored by git and is
        // replaced by the next run with the same pid.
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

//! Process resource readings and build provenance.

use std::path::Path;

/// Open file descriptors and resident memory of this process.
pub struct ProcSample {
    pub fds: usize,
    pub rss_mb: f64,
    /// Peak resident memory so far (VmHWM).
    pub hwm_mb: f64,
}

impl ProcSample {
    pub fn take() -> Self {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        let kb = |key: &str| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        Self {
            fds: std::fs::read_dir("/proc/self/fd").map_or(0, |d| d.count()),
            rss_mb: kb("VmRSS:") / 1024.0,
            hwm_mb: kb("VmHWM:") / 1024.0,
        }
    }
}

/// The commit the benchmark was built from, read from the repository's
/// `.git` directory; "none" in a checkout without one.
pub fn git_revision(repo: &Path) -> String {
    let git = repo.join(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "none".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "none".to_string())
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Restricts this process, and every thread it starts from now on, to
/// the first CPU it is allowed to run on. Returns that CPU, or `None` if
/// the affinity could not be read or set.
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // Room for 1024 CPUs, glibc's `cpu_set_t`.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `size` bytes;
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..size * 8).find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly `size` bytes that names a
    // CPU from the thread's current mask.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

//! The process as the operating system sees it: CPU pinning, resource
//! counters, and the environment record printed with every result.
//!
//! Linux on a 64-bit target only (the `rusage` layout below is that
//! ABI's). The two foreign calls are the only `unsafe` in the package;
//! everything else is read from `/proc`.

use std::path::Path;

/// `struct rusage` as 64-bit Linux lays it out.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    _unused: [i64; 3],
    minflt: i64,
    majflt: i64,
    _unused2: [i64; 6],
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Whole-process resource counters (every thread, living or joined).
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User CPU time, microseconds.
    pub user_us: u64,
    /// System CPU time, microseconds.
    pub sys_us: u64,
    /// Minor page faults.
    pub minor_faults: u64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

impl Usage {
    /// Read the counters now.
    pub fn now() -> Usage {
        let mut ru = RUsage::default();
        // SAFETY: `ru` is a live, writable `struct rusage` of the size
        // the 64-bit Linux ABI defines (two timevals and 14 longs, 144 bytes), and
        // RUSAGE_SELF (0) is a valid `who`.
        let rc = unsafe { getrusage(0, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
        let us = |tv: [i64; 2]| tv[0] as u64 * 1_000_000 + tv[1] as u64;
        Usage {
            user_us: us(ru.utime),
            sys_us: us(ru.stime),
            minor_faults: ru.minflt as u64,
            ctx_switches: (ru.nvcsw + ru.nivcsw) as u64,
        }
    }

    /// User plus system CPU time, microseconds.
    pub fn cpu_us(&self) -> u64 {
        self.user_us + self.sys_us
    }
}

/// Parse a `Cpus_allowed_list` value such as `0-3,8,10-11`.
pub fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// The value of one `Key:\tvalue` line of a `/proc/<pid>/status` text.
pub fn status_field<'a>(status: &'a str, key: &str) -> Option<&'a str> {
    status.lines().find_map(|l| l.strip_prefix(key)?.strip_prefix(':')).map(str::trim)
}

/// A `kB` field of a status text (`VmRSS`, `VmHWM`), in KiB.
pub fn status_kb(status: &str, key: &str) -> Option<u64> {
    status_field(status, key)?.strip_suffix("kB")?.trim().parse().ok()
}

fn self_status() -> String {
    std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable on Linux")
}

/// Resident set size now, KiB.
pub fn rss_kb() -> u64 {
    status_kb(&self_status(), "VmRSS").expect("VmRSS in /proc/self/status")
}

/// Peak resident set size so far, KiB.
pub fn peak_rss_kb() -> u64 {
    status_kb(&self_status(), "VmHWM").expect("VmHWM in /proc/self/status")
}

/// CPUs this thread may run on, from the kernel's own record.
pub fn allowed_cpus() -> Vec<usize> {
    parse_cpu_list(status_field(&self_status(), "Cpus_allowed_list").unwrap_or(""))
}

/// Pin the calling thread — and so every thread it later spawns — to the
/// highest-numbered CPU it is allowed, and read the kernel's record back.
/// Returns `(allowed before, pinned cpu)`. Call before spawning threads.
pub fn pin_to_last_cpu() -> Result<(Vec<usize>, usize), String> {
    let allowed = allowed_cpus();
    let cpu = *allowed.last().ok_or("no CPU in Cpus_allowed_list")?;
    if cpu >= 1024 {
        return Err(format!("cpu {cpu} does not fit a 1024-bit cpu_set_t"));
    }
    let mut mask = [0u64; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live 128-byte buffer, the size passed; pid 0
    // names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!("sched_setaffinity to cpu {cpu} failed"));
    }
    let now = allowed_cpus();
    if now != [cpu] {
        return Err(format!("asked for cpu {cpu}, kernel reports {now:?}"));
    }
    Ok((allowed, cpu))
}

/// The filesystem type backing `path`: the longest mount point in
/// `/proc/self/mountinfo` that prefixes it.
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    fs_type_in(&info, &path)
}

fn fs_type_in(mountinfo: &str, path: &Path) -> String {
    let mut best = (0usize, "unknown");
    for line in mountinfo.lines() {
        let Some((left, right)) = line.split_once(" - ") else { continue };
        let (Some(mount), Some(fs)) = (left.split(' ').nth(4), right.split(' ').next()) else {
            continue;
        };
        if path.starts_with(mount) && mount.len() >= best.0 {
            best = (mount.len(), fs);
        }
    }
    best.1.to_owned()
}

/// The commit of the checkout the benchmark runs from, read from `.git`
/// without spawning a process. The driver's checkouts are not git
/// repositories; there the answer is `"not-a-git-checkout"`.
pub fn git_commit(root: &Path) -> String {
    let head = match std::fs::read_to_string(root.join(".git/HEAD")) {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "not-a-git-checkout".to_owned(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(root.join(".git").join(r))
            .map(|s| s.trim().to_owned())
            .unwrap_or(head),
        None => head,
    }
}

/// Where and on what a run happened. Printed with every result so a
/// number is never separated from its conditions.
#[derive(Debug, Clone)]
pub struct Environment {
    /// Online CPUs (`available_parallelism` before pinning).
    pub nproc: usize,
    /// CPUs the process was allowed before pinning.
    pub allowed: Vec<usize>,
    /// The one CPU every thread of the run is pinned to.
    pub pinned: usize,
    /// Kernel release.
    pub kernel: String,
    /// Filesystem type under the benchmark's output directory (where the
    /// event log's segments and fsyncs land).
    pub fs: String,
    /// Commit of the checkout.
    pub commit: String,
}

impl Environment {
    /// Pin the process and record its surroundings. `out_dir` must exist.
    pub fn pin_and_record(out_dir: &Path) -> Result<Environment, String> {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (allowed, pinned) = pin_to_last_cpu()?;
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned());
        Ok(Environment {
            nproc,
            allowed,
            pinned,
            kernel,
            fs: fs_type(out_dir),
            commit: git_commit(Path::new(".")),
        })
    }

    /// One JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"allowed_cpus\": {:?}, \"pinned_cpu\": {}, \"kernel\": \"{}\", \
             \"log_dir_fs\": \"{}\", \"commit\": \"{}\", \"fsync_note\": \"fsync and socket \
             latencies are this sandbox's, not a device's or a network's\"}}",
            self.nproc, self.allowed, self.pinned, self.kernel, self.fs, self.commit
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tbench\nVmHWM:\t    2048 kB\nVmRSS:\t    1444 kB\n\
                          Cpus_allowed:\t3\nCpus_allowed_list:\t0-1,4\n";

    #[test]
    fn status_fields_parse() {
        assert_eq!(status_kb(STATUS, "VmRSS"), Some(1444));
        assert_eq!(status_kb(STATUS, "VmHWM"), Some(2048));
        assert_eq!(status_field(STATUS, "Cpus_allowed_list"), Some("0-1,4"));
        // `Cpus_allowed` must not match the longer key's line.
        assert_eq!(status_field(STATUS, "Cpus_allowed"), Some("3"));
        assert_eq!(status_kb(STATUS, "VmSwap"), None);
    }

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1"), vec![0, 1]);
        assert_eq!(parse_cpu_list("0-3,8,10-11\n"), vec![0, 1, 2, 3, 8, 10, 11]);
        assert_eq!(parse_cpu_list("5"), vec![5]);
        assert!(parse_cpu_list("").is_empty());
    }

    #[test]
    fn mountinfo_picks_the_longest_prefix() {
        let info = "28 1 254:0 / / rw - ext4 /dev/vda rw\n\
                    30 28 0:26 / /tmp rw - tmpfs tmpfs rw\n\
                    23 28 0:22 / /proc rw,relatime - proc proc rw\n";
        assert_eq!(fs_type_in(info, Path::new("/tmp/x/y")), "tmpfs");
        assert_eq!(fs_type_in(info, Path::new("/root/repo")), "ext4");
        assert_eq!(fs_type_in("", Path::new("/")), "unknown");
    }

    #[test]
    fn usage_counters_advance_with_work() {
        let before = Usage::now();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        let after = Usage::now();
        assert!(after.cpu_us() > before.cpu_us(), "{before:?} -> {after:?}");
        assert!(rss_kb() > 0 && peak_rss_kb() >= rss_kb() / 2);
    }
}

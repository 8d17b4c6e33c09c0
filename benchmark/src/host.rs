//! What the benchmark reads from the host: CPU time, peak memory, a
//! calibration probe, and the facts the output header records.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::path::Path;
use std::process::Command;

use crate::scale::{
    PROBE_REF_SYS_S, PROBE_REF_USER_S, PROBE_SYS_CHUNKS, PROBE_SYS_CHUNK_PAGES, PROBE_USER_ITERS,
};

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds this process has used so far, over all its
/// threads, including ones that have exited.
pub fn process_cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` through the pointer,
    // which points at a live, correctly laid out (`repr(C)`, two 64-bit
    // fields on 64-bit Linux) value owned by this frame.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// User and system CPU time this process has used, in clock ticks, from
/// `/proc/self/stat`. Coarse (10 ms): good for the *share* of system time
/// in an interval of a tenth of a second or more, nothing finer.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields 14 and 15, counted after the parenthesized command name.
    let mut fields = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace();
    let utime = fields.nth(11).and_then(|f| f.parse().ok()).unwrap_or(0);
    let stime = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    (utime, stime)
}

/// What the calibration probe read: how long a fixed piece of user-space
/// work and a fixed piece of kernel work took just now.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// Seconds for the user-space half (hash-map churn).
    pub user_s: f64,
    /// Seconds for the kernel half (page faults on fresh mappings).
    pub sys_s: f64,
}

impl Probe {
    /// The mean of two readings, taken before and after an interval.
    pub fn mean(a: Probe, b: Probe) -> Probe {
        Probe {
            user_s: (a.user_s + b.user_s) / 2.0,
            sys_s: (a.sys_s + b.sys_s) / 2.0,
        }
    }

    /// `measured_s` scaled to the reference host, given the share of the
    /// interval's CPU time that was system time: user time is scaled by
    /// how slow user-space work ran, system time by how slow kernel work
    /// ran.
    pub fn host_seconds(&self, measured_s: f64, sys_share: f64) -> f64 {
        measured_s
            * ((1.0 - sys_share) * PROBE_REF_USER_S / self.user_s
                + sys_share * PROBE_REF_SYS_S / self.sys_s)
    }
}

/// The user-space half of the probe: a fixed run of inserts, updates and
/// removals on a hash map that stays cache-resident.
///
/// It stands in for the simulator's own code (hashing, branches, a working
/// set of about a megabyte), which is what this kind of box slows down for
/// seconds to minutes at a time: an integer spin on one dependency chain
/// stays within 2 % while the same simulation swings by 20–60 %, and this
/// loop follows the swing (correlation 0.96 over ten-round blocks).
fn user_probe() -> f64 {
    // Fixed keys: the probe must do the same work in every process.
    let hasher = BuildHasherDefault::<DefaultHasher>::default();
    let mut map: HashMap<u64, u64, _> = HashMap::with_hasher(hasher);
    let mut x = 1u64;
    let t = std::time::Instant::now();
    for i in 0..PROBE_USER_ITERS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *map.entry((x >> 40) & 0xFFFF).or_insert(0) += i;
        if i % 3 == 0 {
            map.remove(&((x >> 20) & 0xFFFF));
        }
    }
    std::hint::black_box(map.len());
    t.elapsed().as_secs_f64()
}

extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
    fn munmap(addr: *mut u8, len: usize) -> i32;
}

/// `PROT_READ | PROT_WRITE` on Linux.
const PROT_READ_WRITE: i32 = 0x3;
/// `MAP_PRIVATE | MAP_ANONYMOUS` on Linux.
const MAP_PRIVATE_ANONYMOUS: i32 = 0x22;
const PAGE: usize = 4096;

/// The kernel half of the probe: first-touch page faults on fresh
/// anonymous mappings, a few MiB at a time so the process's peak memory
/// does not move.
///
/// `System::build` allocates tens of MiB of zeroed state per cell, so the
/// grid workloads spend half their CPU time in the kernel faulting pages
/// in, and on a virtual machine that cost swings independently of
/// user-space speed. This loop follows it (ten-round block spread of the
/// grid's cells: 12 % raw, 2.5 % scaled by it).
fn sys_probe() -> f64 {
    let len = PROBE_SYS_CHUNK_PAGES * PAGE;
    let t = std::time::Instant::now();
    for _ in 0..PROBE_SYS_CHUNKS {
        // SAFETY: a fresh private anonymous mapping chosen by the kernel
        // (null hint, no fd) aliases nothing this program owns.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ_WRITE,
                MAP_PRIVATE_ANONYMOUS,
                -1,
                0,
            )
        };
        // MAP_FAILED is (void *)-1.
        assert!(base as isize != -1, "mmap of {len} bytes failed");
        for page in 0..PROBE_SYS_CHUNK_PAGES {
            // SAFETY: `page * PAGE < len`, inside the mapping made above,
            // which is readable and writable and still mapped.
            unsafe { base.add(page * PAGE).write_volatile(1) };
        }
        // SAFETY: exactly the mapping made above, which nothing else
        // refers to; it is not used after this call.
        let rc = unsafe { munmap(base, len) };
        assert_eq!(rc, 0, "munmap failed");
    }
    t.elapsed().as_secs_f64()
}

/// Reads the calibration probe. Only the probe is ever looked at to judge
/// the host, never a measured value.
pub fn calibration_probe() -> Probe {
    Probe {
        user_s: user_probe(),
        sys_s: sys_probe(),
    }
}

/// Worker threads available (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str], cwd: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(cwd)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Short git SHA of `root`, with `-dirty` when the tree has changes;
/// `nogit` outside a repository.
pub fn git_sha(root: &Path) -> String {
    let Some(sha) = command_line("git", &["rev-parse", "--short=12", "HEAD"], root) else {
        return "nogit".to_string();
    };
    match command_line("git", &["status", "--porcelain"], root) {
        Some(s) if !s.is_empty() => format!("{sha}-dirty"),
        _ => sha,
    }
}

/// `rustc -V`.
pub fn rustc_version(root: &Path) -> String {
    command_line("rustc", &["-V"], root).unwrap_or_else(|| "unknown".to_string())
}

/// The CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, v)| v.trim().to_string())
}

/// Filesystem type holding `dir` (`stat -f`).
pub fn fs_type(dir: &Path) -> String {
    command_line("stat", &["-f", "-c", "%T", "."], dir).unwrap_or_else(|| "unknown".to_string())
}

/// Seconds since the Unix epoch.
pub fn unix_seconds() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

/// `YYYYMMDDTHHMMSSZ` for a Unix time (proleptic Gregorian, UTC).
pub fn utc_stamp(unix: u64) -> String {
    let days = unix / 86_400;
    let secs = unix % 86_400;
    // Civil-from-days (Howard Hinnant's algorithm), epoch 1970-01-01.
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}{month:02}{day:02}T{:02}{:02}{:02}Z",
        secs / 3600,
        secs % 3600 / 60,
        secs % 60
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utc_stamp_known_dates() {
        assert_eq!(utc_stamp(0), "19700101T000000Z");
        assert_eq!(utc_stamp(951_782_400), "20000229T000000Z");
        assert_eq!(utc_stamp(1_790_773_445), "20260930T130405Z");
    }

    #[test]
    fn probe_scales_each_kind_of_time_by_its_own_reading() {
        let p = Probe {
            user_s: 2.0 * PROBE_REF_USER_S,
            sys_s: 4.0 * PROBE_REF_SYS_S,
        };
        assert_eq!(p.host_seconds(8.0, 0.0), 4.0);
        assert_eq!(p.host_seconds(8.0, 1.0), 2.0);
        assert_eq!(p.host_seconds(8.0, 0.5), 3.0);
        let q = Probe {
            user_s: 1.0,
            sys_s: 3.0,
        };
        assert_eq!(
            Probe::mean(p, q).user_s,
            (2.0 * PROBE_REF_USER_S + 1.0) / 2.0
        );
    }

    #[test]
    fn host_probes_read_something() {
        let before = process_cpu_seconds();
        let probe = calibration_probe();
        assert!(probe.user_s > 0.0 && probe.sys_s > 0.0);
        let (user, sys) = cpu_ticks();
        assert!(user + sys > 0, "the probe alone takes more than a tick");
        assert!(process_cpu_seconds() > before);
        assert!(peak_rss_mib() > 0.0);
        assert!(nproc() >= 1);
    }
}

//! What the benchmark reads from the operating system: a process-wide
//! counting allocator, nanosecond clocks, and a few `/proc` files.
//!
//! The only `unsafe` in the crate lives here: the allocator shim (it
//! must count requests made on daemon threads, so the fuzz crate's
//! thread-local meter does not fit), `clock_gettime` (std exposes
//! neither process CPU time nor a monotonic clock two processes can
//! compare) and `sync`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

/// `System`, plus two statistics counters over every thread.
pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn record(size: usize) {
        // Relaxed: plain statistics, they publish no other data.
        ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every operation is forwarded unchanged to `System`; the
// bookkeeping touches only two atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CountingAlloc::record(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CountingAlloc::record(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CountingAlloc::record(new_size);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(bytes requested, allocation calls)` since process start, all threads.
pub fn alloc_counters() -> (u64, u64) {
    (
        ALLOC_BYTES.load(Ordering::Relaxed),
        ALLOC_CALLS.load(Ordering::Relaxed),
    )
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sync();
}

const CLOCK_MONOTONIC: i32 = 1;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

fn clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target this crate builds for), and
    // both clock ids are defined by POSIX.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// System-wide monotonic nanoseconds: the parent stamps a child's
/// spawn with it and the child subtracts, so `setup_s` covers exec.
pub fn monotonic_ns() -> u64 {
    clock_ns(CLOCK_MONOTONIC)
}

/// CPU nanoseconds (user + system) of this process, every thread.
pub fn process_cpu_ns() -> u64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// Writes every dirty page and pending metadata update to disk. The
/// parent calls it before each child, so a round's `fsync`s pay for
/// the round's own writes and not for the thousands of renames and
/// unlinks the previous child left in the filesystem journal.
pub fn flush_filesystem() {
    // SAFETY: `sync(2)` takes no arguments, touches no memory of this
    // process and cannot fail.
    unsafe { sync() }
}

fn proc_field(file: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(file).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set of this process (`VmHWM`), in KiB.
pub fn peak_rss_kib() -> u64 {
    proc_field("/proc/self/status", "VmHWM:").unwrap_or(0)
}

/// `(user, system)` CPU of this process in clock ticks. Coarse (10 ms),
/// so only ever differenced over a whole timed phase.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, 12 and 13 after the `)`.
    let mut after = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace();
    let utime = after.nth(11).and_then(|v| v.parse().ok()).unwrap_or(0);
    let stime = after.next().and_then(|v| v.parse().ok()).unwrap_or(0);
    (utime, stime)
}

/// Machine-wide `(steal, total)` ticks from the first line of
/// `/proc/stat` — how much of a run the hypervisor took away.
pub fn steal_ticks() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (
        fields.get(7).copied().unwrap_or(0),
        fields.iter().take(8).sum(),
    )
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let text = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best = (0usize, "unknown");
    for line in text.lines() {
        // `id parent major:minor root mount-point options... - fstype source ...`
        let Some((head, tail)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (head.split(' ').nth(4), tail.split(' ').next()) else {
            continue;
        };
        if path.starts_with(mount) && mount.len() >= best.0 {
            best = (mount.len(), fstype);
        }
    }
    best.1.to_string()
}

/// The checked-out commit, read from `.git` without spawning anything;
/// `nogit` in an exported tree.
pub fn commit(repo: &Path) -> String {
    let git = repo.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "nogit".into();
    };
    let head = head.trim();
    let full = match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(name) => std::fs::read_to_string(git.join(name))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| {
                let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
                let line = packed.lines().find(|l| l.ends_with(name))?;
                Some(line.split(' ').next()?.to_string())
            }),
    };
    full.map_or_else(|| "nogit".into(), |h| h.chars().take(12).collect())
}

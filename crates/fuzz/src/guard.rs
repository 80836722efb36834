//! The bounded-allocation harness: a counting global allocator plus a
//! per-run meter.
//!
//! A parser that reads an N-byte input has no business requesting
//! memory far beyond N — a declared-length field that sizes an
//! allocation before it is validated against the bytes actually
//! present is exactly the bug class this crate hunts. The fuzz driver
//! (and the corpus-replay tests) install [`CountingAlloc`] as the
//! global allocator and wrap every target invocation in
//! [`AllocMeter::start`] / [`AllocMeter::stop`]; the run fails if the
//! cumulative requested bytes exceed [`alloc_budget`] for the input's
//! length.
//!
//! The meter *observes* rather than denies: returning null from a
//! guarded `alloc` would turn an over-allocation into an immediate
//! process abort (`handle_alloc_error` is not unwinding), destroying
//! the offending input before the driver can save it. Counting the
//! request and failing the target afterwards keeps the harness
//! deterministic and the artifact intact. A truly astronomical
//! request (the pre-fix `pages * PAGE_SIZE` overflow asked for
//! exbibytes) still dies at the system allocator — but that is a
//! crash the fix satellites exist to make unreachable, and the fuzzer
//! treats any abort as a finding anyway.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vecycle_types::PAGE_SIZE;

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<u64> = const { Cell::new(0) };
    static PAGE_SIZED: Cell<u64> = const { Cell::new(0) };
}

/// A [`System`]-backed allocator that counts bytes requested while a
/// thread's [`AllocMeter`] is armed.
///
/// Install in a binary or test crate root:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: vecycle_fuzz::CountingAlloc = vecycle_fuzz::CountingAlloc::new();
/// ```
pub struct CountingAlloc;

impl CountingAlloc {
    /// Creates the allocator (const, for `#[global_allocator]`).
    pub const fn new() -> Self {
        CountingAlloc
    }

    #[inline]
    fn record(size: usize) {
        // `try_with`: allocations during TLS teardown must not panic.
        let _ = ENABLED.try_with(|e| {
            if e.get() {
                let _ = REQUESTED.try_with(|r| r.set(r.get().saturating_add(size as u64)));
                let _ = CALLS.try_with(|c| c.set(c.get() + 1));
                let _ = LARGEST.try_with(|l| l.set(l.get().max(size as u64)));
                if size as u64 >= PAGE_SIZE {
                    let _ = PAGE_SIZED.try_with(|p| p.set(p.get() + 1));
                }
            }
        });
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        CountingAlloc::new()
    }
}

// SAFETY: defers every operation to `System`; the bookkeeping uses
// only thread-local `Cell`s and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CountingAlloc::record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CountingAlloc::record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CountingAlloc::record(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// What one metered region requested from the allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocStats {
    /// Total bytes requested (each `Vec` growth step counts in full).
    pub requested: u64,
    /// Largest single request.
    pub largest: u64,
    /// Requests made: allocations and reallocations.
    pub calls: u64,
    /// Requests of one page (`PAGE_SIZE` bytes) or more.
    pub page_sized: u64,
}

/// Scoped arming of the counting allocator on the current thread.
pub struct AllocMeter;

impl AllocMeter {
    /// Zeroes the counters and starts counting on this thread.
    pub fn start() {
        REQUESTED.with(|r| r.set(0));
        LARGEST.with(|l| l.set(0));
        CALLS.with(|c| c.set(0));
        PAGE_SIZED.with(|p| p.set(0));
        ENABLED.with(|e| e.set(true));
    }

    /// Stops counting and returns what was requested since
    /// [`AllocMeter::start`].
    pub fn stop() -> AllocStats {
        ENABLED.with(|e| e.set(false));
        AllocStats {
            requested: REQUESTED.with(Cell::get),
            largest: LARGEST.with(Cell::get),
            calls: CALLS.with(Cell::get),
            page_sized: PAGE_SIZED.with(Cell::get),
        }
    }

    /// True if [`CountingAlloc`] is actually installed as the global
    /// allocator (the library cannot force this; binaries opt in). Used
    /// by tests to assert the guard is live rather than silently inert.
    pub fn is_live() -> bool {
        AllocMeter::start();
        let probe = std::hint::black_box(Vec::<u8>::with_capacity(1024));
        drop(probe);
        let stats = AllocMeter::stop();
        stats.requested >= 1024
    }
}

/// The allocation budget for parsing an `input_len`-byte input.
///
/// Generous on purpose: parsed structures legitimately cost a small
/// multiple of the wire size (`Vec` headers, growth doubling, the
/// `read_to_end` staging copy), and the guard hunts *asymptotic*
/// misbehaviour — a forged length field turning kilobytes of input
/// into gigabytes of allocation — not constant factors. 8× the input
/// plus 64 KiB of slack is far above any honest parse in this
/// workspace and far below the first interesting forgery.
pub fn alloc_budget(input_len: usize) -> u64 {
    64 * 1024 + 8 * input_len as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_scales_with_input() {
        assert_eq!(alloc_budget(0), 64 * 1024);
        assert_eq!(alloc_budget(1000), 64 * 1024 + 8000);
    }

    #[test]
    fn meter_without_installed_allocator_reads_zero() {
        // The unit-test binary does not install CountingAlloc, so the
        // meter must report an idle (not garbage) reading.
        AllocMeter::start();
        let _v = std::hint::black_box(vec![0u8; 4096]);
        let stats = AllocMeter::stop();
        assert_eq!(stats.requested, 0);
        assert_eq!(stats.largest, 0);
        assert!(!AllocMeter::is_live());
    }
}

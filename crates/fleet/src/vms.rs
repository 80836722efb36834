//! Per-VM fleet state: cyclic dirty-rate workloads and affinity sets.
//!
//! "Exploiting Workload Cycles for Orchestration of VM Live Migrations"
//! (PAPERS.md) observes that production guests alternate between busy
//! and quiet phases, and that migrating inside a quiet phase shrinks
//! both traffic and downtime. [`CyclicWorkload`] models exactly that
//! two-phase cycle, and [`DirtyCycle`] is the shared clock the timing
//! policy reads to find the next quiet window.

use vecycle_core::session::VmInstance;
use vecycle_mem::workload::GuestWorkload;
use vecycle_mem::{DigestMemory, Guest, MutableMemory, PageContent};
use vecycle_types::{HostId, PageIndex, SimDuration, SimTime};

use vecycle_types::rng::Xorshift;

/// A two-phase dirty-rate clock: each `period` contains one low-rate
/// window of `low_len` starting at `low_offset` into the period; the
/// rest of the period runs at the high rate.
///
/// All arithmetic is in whole nanoseconds on the simulated clock, so
/// every boundary query is exact and replayable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DirtyCycle {
    /// Full cycle length.
    pub period: SimDuration,
    /// Offset of the low-rate window within each period.
    pub low_offset: SimDuration,
    /// Length of the low-rate window.
    pub low_len: SimDuration,
}

impl DirtyCycle {
    /// Creates a cycle.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < low_len` and `low_offset + low_len <= period`.
    pub(crate) fn new(period: SimDuration, low_offset: SimDuration, low_len: SimDuration) -> Self {
        assert!(
            low_len > SimDuration::ZERO && low_offset + low_len <= period,
            "low window [{low_offset} + {low_len}] must fit inside the period {period}"
        );
        DirtyCycle {
            period,
            low_offset,
            low_len,
        }
    }

    fn phase_nanos(&self, t: SimTime) -> u64 {
        t.since_epoch().as_nanos() % self.period.as_nanos()
    }

    /// True while `t` is inside a low-rate window.
    pub(crate) fn in_low(&self, t: SimTime) -> bool {
        let p = self.phase_nanos(t);
        let lo = self.low_offset.as_nanos();
        p >= lo && p < lo + self.low_len.as_nanos()
    }

    /// The start of the next low window at or after `t` (`t` itself if
    /// already inside one).
    pub(crate) fn next_low_start(&self, t: SimTime) -> SimTime {
        if self.in_low(t) {
            return t;
        }
        let p = self.phase_nanos(t);
        let lo = self.low_offset.as_nanos();
        let wait = if p < lo {
            lo - p
        } else {
            self.period.as_nanos() - p + lo
        };
        t + SimDuration::from_nanos(wait)
    }

    /// The next phase boundary strictly after `t` (used to advance a
    /// workload segment-by-segment at the correct rate).
    fn next_boundary(&self, t: SimTime) -> SimTime {
        let p = self.phase_nanos(t);
        let lo = self.low_offset.as_nanos();
        let hi = lo + self.low_len.as_nanos();
        let next = if p < lo {
            lo
        } else if p < hi {
            hi
        } else {
            self.period.as_nanos()
        };
        t + SimDuration::from_nanos(next - p)
    }
}

/// A guest whose dirty rate alternates between a low and a high phase
/// on a [`DirtyCycle`] — the fleet's stand-in for production guests
/// with daily/hourly activity cycles.
///
/// Writes land on uniformly random pages with globally fresh content
/// ids, so every write genuinely dirties a page (no accidental
/// write-same elision) and never collides with image-seed content.
#[derive(Debug, Clone)]
pub(crate) struct CyclicWorkload {
    rng: Xorshift,
    cycle: DirtyCycle,
    low_rate: f64,
    high_rate: f64,
    clock: SimDuration,
    carry: f64,
    next_content: u64,
}

impl CyclicWorkload {
    /// Creates a workload writing `low_rate` / `high_rate` pages per
    /// second in the respective phases of `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if a rate is negative or not finite.
    pub(crate) fn new(seed: u64, cycle: DirtyCycle, low_rate: f64, high_rate: f64) -> Self {
        assert!(
            low_rate.is_finite() && low_rate >= 0.0 && high_rate.is_finite() && high_rate >= 0.0,
            "invalid rates: {low_rate}/{high_rate}"
        );
        CyclicWorkload {
            rng: Xorshift::new(seed),
            cycle,
            low_rate,
            high_rate,
            clock: SimDuration::ZERO,
            carry: 0.0,
            // High bit namespace, disjoint from DigestMemory image seeds
            // (same convention as IdleWorkload); the seed in the upper
            // bits keeps streams from different VMs disjoint too.
            next_content: (1 << 63) | ((seed | 1) << 20),
        }
    }

    /// The cycle this workload runs on (read by the timing policy).
    pub(crate) fn cycle(&self) -> DirtyCycle {
        self.cycle
    }
}

impl<M: MutableMemory> GuestWorkload<M> for CyclicWorkload {
    fn advance(&mut self, guest: &mut Guest<M>, dur: SimDuration) {
        let pages = guest.page_count().as_u64();
        if pages == 0 {
            return;
        }
        let mut t = SimTime::EPOCH + self.clock;
        let end = t + dur;
        while t < end {
            let seg_end = self.cycle.next_boundary(t).min(end);
            let rate = if self.cycle.in_low(t) {
                self.low_rate
            } else {
                self.high_rate
            };
            let want = rate * (seg_end.duration_since(t)).as_secs_f64() + self.carry;
            let whole = want.floor();
            self.carry = want - whole;
            for _ in 0..whole as u64 {
                let idx = PageIndex::new(self.rng.below(pages));
                let id = self.next_content;
                self.next_content += 1;
                guest.write_page(idx, PageContent::ContentId(id));
            }
            t = seg_end;
        }
        self.clock += dur;
    }
}

/// One VM in the fleet: its engine-facing instance, its workload, and
/// the placement-facing bookkeeping.
#[derive(Debug)]
pub(crate) struct FleetVm {
    pub instance: VmInstance<DigestMemory>,
    pub workload: CyclicWorkload,
    /// Candidate destinations, sorted ascending (the paper's small
    /// host set). Always contains the VM's initial host.
    pub affinity: Vec<HostId>,
    /// Round-robin cursor for checkpoint-blind placement and the
    /// cold-start fallback of aware placement.
    pub rr_cursor: u32,
    /// Simulated instant up to which the workload has been advanced.
    pub advanced_to: SimTime,
    /// True from admission intent until migration completion; requests
    /// arriving while busy are dropped (the VM is already moving).
    pub busy: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecycle_types::PageCount;

    fn cycle() -> DirtyCycle {
        DirtyCycle::new(
            SimDuration::from_mins(10),
            SimDuration::from_mins(6),
            SimDuration::from_mins(2),
        )
    }

    #[test]
    fn low_window_membership() {
        let c = cycle();
        let t0 = SimTime::EPOCH;
        assert!(!c.in_low(t0));
        assert!(c.in_low(t0 + SimDuration::from_mins(6)));
        assert!(c.in_low(t0 + SimDuration::from_mins(7)));
        assert!(!c.in_low(t0 + SimDuration::from_mins(8)));
        // Second period.
        assert!(c.in_low(t0 + SimDuration::from_mins(16)));
    }

    #[test]
    fn next_low_start_wraps_periods() {
        let c = cycle();
        let t0 = SimTime::EPOCH;
        assert_eq!(
            c.next_low_start(t0),
            t0 + SimDuration::from_mins(6),
            "before the window: wait until it opens"
        );
        let inside = t0 + SimDuration::from_mins(7);
        assert_eq!(c.next_low_start(inside), inside, "inside: start now");
        let after = t0 + SimDuration::from_mins(9);
        assert_eq!(
            c.next_low_start(after),
            t0 + SimDuration::from_mins(16),
            "after: wait for the next period's window"
        );
    }

    #[test]
    fn cyclic_workload_dirties_more_in_high_phase() {
        let c = cycle();
        // Low phase: 1 page/s; high phase: 50 pages/s.
        let mut wl = CyclicWorkload::new(9, c, 1.0, 50.0);
        let mut guest = Guest::new(DigestMemory::with_distinct_content(PageCount::new(64), 3));

        // First 6 minutes are high-phase.
        let before = guest.memory().snapshot();
        wl.advance(&mut guest, SimDuration::from_mins(6));
        let high_dirty = guest.memory().pages_differing_from(&before).as_u64();

        // Next 2 minutes are the low window.
        let before = guest.memory().snapshot();
        wl.advance(&mut guest, SimDuration::from_mins(2));
        let low_dirty = guest.memory().pages_differing_from(&before).as_u64();

        // 18000 high-phase writes saturate the 64-page guest; 120
        // low-phase writes still leave untouched pages with high
        // probability — the phases must be clearly distinguishable.
        assert!(high_dirty > low_dirty, "{high_dirty} vs {low_dirty}");
    }

    #[test]
    fn cyclic_workload_is_replayable() {
        let c = cycle();
        let run = || {
            let mut wl = CyclicWorkload::new(11, c, 2.0, 40.0);
            let mut guest = Guest::new(DigestMemory::with_distinct_content(PageCount::new(32), 5));
            wl.advance(&mut guest, SimDuration::from_mins(23));
            guest.memory().snapshot()
        };
        assert_eq!(run(), run());
    }
}

//! Guest workloads: processes that mutate memory over (simulated) time.
//!
//! The paper's empirical section uses three in-VM behaviours: an *idle*
//! guest with only background daemons (§4.4), a *ramdisk* writer updating
//! a controlled percentage of memory (§4.5), and implicit always-busy
//! guests like the web crawlers. Each is a [`GuestWorkload`] here, driven
//! by the migration engine between pre-copy rounds and by scenario
//! harnesses between migrations.

use vecycle_types::rng::ChaCha8;
use vecycle_types::{PageIndex, Ratio, SimDuration};

use crate::{Guest, MutableMemory, PageContent};

/// A process inside the guest that writes memory as time passes.
pub trait GuestWorkload<M: MutableMemory> {
    /// Advances the workload by `dur` of guest time, performing whatever
    /// writes it would perform in that window.
    fn advance(&mut self, guest: &mut Guest<M>, dur: SimDuration);
}

/// A workload that writes nothing — the theoretical best case.
#[derive(Debug, Clone, Copy, Default)]
pub struct SilentWorkload;

impl<M: MutableMemory> GuestWorkload<M> for SilentWorkload {
    fn advance(&mut self, _guest: &mut Guest<M>, _dur: SimDuration) {}
}

/// An idle guest: background daemons touch a few pages per second.
///
/// §4.4's "best case" guest runs Ubuntu with background daemons only;
/// memory updates are rare but not zero.
#[derive(Debug, Clone)]
pub struct IdleWorkload {
    rng: ChaCha8,
    pages_per_sec: f64,
    next_content: u64,
    carry: f64,
}

impl IdleWorkload {
    /// Creates an idle workload writing `pages_per_sec` random pages per
    /// second of guest time.
    ///
    /// # Panics
    ///
    /// Panics if `pages_per_sec` is negative or not finite.
    pub fn new(seed: u64, pages_per_sec: f64) -> Self {
        assert!(
            pages_per_sec.is_finite() && pages_per_sec >= 0.0,
            "invalid rate: {pages_per_sec}"
        );
        IdleWorkload {
            rng: ChaCha8::seed_from_u64(seed),
            pages_per_sec,
            // High bit set: idle-daemon content never collides with the
            // image-seed namespace used by DigestMemory constructors.
            next_content: 1 << 63,
            carry: 0.0,
        }
    }
}

impl<M: MutableMemory> GuestWorkload<M> for IdleWorkload {
    fn advance(&mut self, guest: &mut Guest<M>, dur: SimDuration) {
        let pages = guest.page_count().as_u64();
        if pages == 0 {
            return;
        }
        let want = self.pages_per_sec * dur.as_secs_f64() + self.carry;
        let whole = want.floor();
        self.carry = want - whole;
        for _ in 0..whole as u64 {
            let idx = PageIndex::new(self.rng.below(pages));
            let id = self.next_content;
            self.next_content += 1;
            guest.write_page(idx, PageContent::ContentId(id));
        }
    }
}

/// The §4.5 controlled-update workload: a ramdisk occupying a fixed
/// fraction of guest memory, laid out contiguously, with a method to
/// rewrite a chosen percentage of it with fresh random data.
///
/// # Examples
///
/// ```
/// use vecycle_mem::{workload::RamdiskWorkload, DigestMemory, Guest};
/// use vecycle_types::{PageCount, Ratio};
///
/// let mem = DigestMemory::zeroed(PageCount::new(1000));
/// let mut guest = Guest::new(mem);
/// let mut ramdisk = RamdiskWorkload::fill(&mut guest, Ratio::new(0.9), 42);
/// let snapshot = guest.memory().snapshot();
/// ramdisk.update_fraction(&mut guest, Ratio::new(0.25));
/// let changed = guest.memory().pages_differing_from(&snapshot);
/// // 25% of the 900-page ramdisk was rewritten.
/// assert_eq!(changed, PageCount::new(225));
/// ```
#[derive(Debug, Clone)]
pub struct RamdiskWorkload {
    first_page: u64,
    page_span: u64,
    rng: ChaCha8,
    next_content: u64,
}

impl RamdiskWorkload {
    /// Allocates a ramdisk covering `fraction` of the guest's memory and
    /// fills it sequentially with fresh random content, mirroring the
    /// paper's setup (a single large file filling 90 % of RAM).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `[0, 1]`.
    pub fn fill<M: MutableMemory>(guest: &mut Guest<M>, fraction: Ratio, seed: u64) -> Self {
        assert!(fraction.is_fraction(), "fraction out of range: {fraction}");
        let pages = guest.page_count().as_u64();
        let span = (pages as f64 * fraction.as_f64()).floor() as u64;
        let mut wl = RamdiskWorkload {
            first_page: 0,
            page_span: span,
            rng: ChaCha8::seed_from_u64(seed),
            next_content: (seed | 1) << 32 | (1 << 63),
        };
        for i in 0..span {
            let id = wl.next_content;
            wl.next_content += 1;
            guest.write_page(PageIndex::new(i), PageContent::ContentId(id));
        }
        wl
    }

    /// Number of pages the ramdisk occupies.
    pub fn page_span(&self) -> u64 {
        self.page_span
    }

    /// Rewrites `fraction` of the ramdisk with fresh content.
    ///
    /// Block selection is random without replacement (a permutation of
    /// 64-page blocks), matching "update select blocks of this single
    /// large file" in §4.5.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `[0, 1]`.
    pub fn update_fraction<M: MutableMemory>(&mut self, guest: &mut Guest<M>, fraction: Ratio) {
        assert!(fraction.is_fraction(), "fraction out of range: {fraction}");
        let target = (self.page_span as f64 * fraction.as_f64()).round() as u64;
        const BLOCK: u64 = 64;
        let blocks = self.page_span.div_ceil(BLOCK);
        let mut order: Vec<u64> = (0..blocks).collect();
        // Fisher-Yates over the block order.
        for i in (1..order.len()).rev() {
            let j = self.rng.below(i as u64 + 1) as usize;
            order.swap(i, j);
        }
        let mut written = 0u64;
        'outer: for block in order {
            let start = block * BLOCK;
            let end = (start + BLOCK).min(self.page_span);
            for p in start..end {
                if written == target {
                    break 'outer;
                }
                let id = self.next_content;
                self.next_content += 1;
                guest.write_page(
                    PageIndex::new(self.first_page + p),
                    PageContent::ContentId(id),
                );
                written += 1;
            }
        }
    }
}

/// A sequential scanner: rewrites pages front-to-back at a fixed rate,
/// wrapping around — the access pattern of a crawler or bulk loader
/// whose buffer cycles through memory. Unlike [`IdleWorkload`]'s random
/// writes, a scan concentrates dirtying in a moving window, which makes
/// pre-copy rounds chase a "wavefront".
#[derive(Debug, Clone)]
pub struct ScanWorkload {
    cursor: u64,
    pages_per_sec: f64,
    next_content: u64,
    carry: f64,
}

impl ScanWorkload {
    /// Creates a scanner writing `pages_per_sec` sequential pages per
    /// second of guest time.
    ///
    /// # Panics
    ///
    /// Panics if `pages_per_sec` is negative or not finite.
    pub fn new(seed: u64, pages_per_sec: f64) -> Self {
        assert!(
            pages_per_sec.is_finite() && pages_per_sec >= 0.0,
            "invalid rate: {pages_per_sec}"
        );
        ScanWorkload {
            cursor: 0,
            pages_per_sec,
            next_content: (seed | 1) << 24 | (1 << 62),
            carry: 0.0,
        }
    }

    /// The next page the scan will write.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }
}

impl<M: MutableMemory> GuestWorkload<M> for ScanWorkload {
    fn advance(&mut self, guest: &mut Guest<M>, dur: SimDuration) {
        let pages = guest.page_count().as_u64();
        if pages == 0 {
            return;
        }
        let want = self.pages_per_sec * dur.as_secs_f64() + self.carry;
        let whole = want.floor();
        self.carry = want - whole;
        for _ in 0..whole as u64 {
            let id = self.next_content;
            self.next_content += 1;
            guest.write_page(PageIndex::new(self.cursor), PageContent::ContentId(id));
            self.cursor = (self.cursor + 1) % pages;
        }
    }
}

/// A workload that *relocates* existing content between frames without
/// creating new content — the adversarial case for dirty tracking.
#[derive(Debug, Clone)]
pub struct RelocationWorkload {
    rng: ChaCha8,
    moves_per_sec: f64,
    carry: f64,
}

impl RelocationWorkload {
    /// Creates a workload performing `moves_per_sec` page copies per
    /// second of guest time.
    ///
    /// # Panics
    ///
    /// Panics if `moves_per_sec` is negative or not finite.
    pub fn new(seed: u64, moves_per_sec: f64) -> Self {
        assert!(
            moves_per_sec.is_finite() && moves_per_sec >= 0.0,
            "invalid rate: {moves_per_sec}"
        );
        RelocationWorkload {
            rng: ChaCha8::seed_from_u64(seed),
            moves_per_sec,
            carry: 0.0,
        }
    }
}

impl<M: MutableMemory> GuestWorkload<M> for RelocationWorkload {
    fn advance(&mut self, guest: &mut Guest<M>, dur: SimDuration) {
        let pages = guest.page_count().as_u64();
        if pages < 2 {
            return;
        }
        let want = self.moves_per_sec * dur.as_secs_f64() + self.carry;
        let whole = want.floor();
        self.carry = want - whole;
        for _ in 0..whole as u64 {
            let src = PageIndex::new(self.rng.below(pages));
            let dst = PageIndex::new(self.rng.below(pages));
            if src != dst {
                guest.relocate_page(src, dst);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DigestMemory;
    use vecycle_types::PageCount;

    fn guest(pages: u64) -> Guest<DigestMemory> {
        Guest::new(DigestMemory::zeroed(PageCount::new(pages)))
    }

    #[test]
    fn silent_workload_writes_nothing() {
        let mut g = guest(100);
        SilentWorkload.advance(&mut g, SimDuration::from_hours(1));
        assert_eq!(g.dirty().dirty_count(), PageCount::ZERO);
    }

    #[test]
    fn idle_workload_rate_is_respected() {
        let mut g = guest(10_000);
        let mut wl = IdleWorkload::new(1, 5.0);
        wl.advance(&mut g, SimDuration::from_secs(100));
        // 500 writes, possibly fewer distinct pages due to collisions.
        let dirty = g.dirty().dirty_count().as_u64();
        assert!(dirty > 400 && dirty <= 500, "dirty = {dirty}");
    }

    #[test]
    fn idle_workload_carries_fractional_pages() {
        let mut g = guest(100);
        let mut wl = IdleWorkload::new(2, 0.5);
        // 0.5 pages/s for 1 s twice = 1 page total.
        wl.advance(&mut g, SimDuration::from_secs(1));
        wl.advance(&mut g, SimDuration::from_secs(1));
        assert_eq!(g.dirty().dirty_count(), PageCount::new(1));
    }

    #[test]
    fn ramdisk_fill_covers_requested_fraction() {
        let mut g = guest(1000);
        let wl = RamdiskWorkload::fill(&mut g, Ratio::new(0.9), 7);
        assert_eq!(wl.page_span(), 900);
        assert_eq!(g.dirty().dirty_count(), PageCount::new(900));
    }

    #[test]
    fn ramdisk_update_percentages_are_exact() {
        for pct in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let mut g = guest(1000);
            let mut wl = RamdiskWorkload::fill(&mut g, Ratio::new(0.9), 7);
            let snap = g.memory().snapshot();
            wl.update_fraction(&mut g, Ratio::new(pct));
            let changed = g.memory().pages_differing_from(&snap).as_u64();
            assert_eq!(changed, (900.0 * pct).round() as u64, "pct {pct}");
        }
    }

    #[test]
    fn ramdisk_updates_stay_inside_ramdisk() {
        let mut g = guest(1000);
        let mut wl = RamdiskWorkload::fill(&mut g, Ratio::new(0.5), 7);
        g.dirty_mut().clear();
        wl.update_fraction(&mut g, Ratio::ONE);
        for idx in g.dirty().dirty_pages() {
            assert!(idx.as_u64() < 500);
        }
    }

    #[test]
    fn scan_workload_writes_sequentially_and_wraps() {
        let mut g = guest(100);
        let mut wl = ScanWorkload::new(1, 10.0);
        wl.advance(&mut g, SimDuration::from_secs(5));
        // 50 writes: pages 0..50 dirty, cursor at 50.
        assert_eq!(g.dirty().dirty_count(), PageCount::new(50));
        assert_eq!(wl.cursor(), 50);
        assert!(g.dirty().is_dirty(PageIndex::new(0)));
        assert!(!g.dirty().is_dirty(PageIndex::new(50)));
        // Another 60 writes wrap around to page 10.
        wl.advance(&mut g, SimDuration::from_secs(6));
        assert_eq!(wl.cursor(), 10);
        assert_eq!(g.dirty().dirty_count(), PageCount::new(100));
    }

    #[test]
    fn scan_writes_always_fresh_content() {
        let mut g = guest(10);
        let snap = g.memory().snapshot();
        let mut wl = ScanWorkload::new(2, 10.0);
        wl.advance(&mut g, SimDuration::from_secs(3)); // 3 full cycles
        assert_eq!(g.memory().pages_differing_from(&snap), PageCount::new(10));
    }

    #[test]
    fn relocation_preserves_content_set() {
        use crate::MemoryImage;
        let mem = DigestMemory::with_distinct_content(PageCount::new(100), 3);
        let before: std::collections::HashSet<_> = mem.digests().into_iter().collect();
        let mut g = Guest::new(mem);
        let mut wl = RelocationWorkload::new(4, 10.0);
        wl.advance(&mut g, SimDuration::from_secs(5));
        assert!(g.dirty().dirty_count().as_u64() > 0);
        // Every digest after relocation already existed before.
        for d in g.digests() {
            assert!(before.contains(&d));
        }
    }
}

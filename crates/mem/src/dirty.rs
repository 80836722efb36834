//! [`DirtyTracker`]: a dirty-page bitmap, as hardware dirty logging sees it.

use vecycle_types::{PageCount, PageIndex};

/// Tracks which pages were written since the tracker was last cleared.
///
/// Models KVM's dirty logging: the hypervisor write-protects pages, takes
/// a fault on first write, and accumulates a bitmap. Pre-copy migration
/// consumes the bitmap once per round via [`DirtyTracker::drain`].
///
/// # Examples
///
/// ```
/// use vecycle_mem::DirtyTracker;
/// use vecycle_types::{PageCount, PageIndex};
///
/// let mut t = DirtyTracker::new(PageCount::new(8));
/// t.mark(PageIndex::new(2));
/// t.mark(PageIndex::new(5));
/// t.mark(PageIndex::new(2)); // idempotent
/// assert_eq!(t.dirty_count(), PageCount::new(2));
/// let drained = t.drain();
/// assert_eq!(drained, vec![PageIndex::new(2), PageIndex::new(5)]);
/// assert_eq!(t.dirty_count(), PageCount::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct DirtyTracker {
    bits: Vec<u64>,
    pages: u64,
    dirty: u64,
}

impl DirtyTracker {
    /// Creates a tracker for `pages` pages, all clean.
    pub fn new(pages: PageCount) -> Self {
        let words = (pages.as_u64() as usize).div_ceil(64);
        DirtyTracker {
            bits: vec![0u64; words],
            pages: pages.as_u64(),
            dirty: 0,
        }
    }

    /// Number of pages this tracker covers.
    pub fn page_count(&self) -> PageCount {
        PageCount::new(self.pages)
    }

    /// Marks a page dirty. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn mark(&mut self, idx: PageIndex) {
        let i = idx.as_u64();
        assert!(i < self.pages, "page {i} out of bounds ({})", self.pages);
        let word = &mut self.bits[(i / 64) as usize];
        let mask = 1u64 << (i % 64);
        if *word & mask == 0 {
            *word |= mask;
            self.dirty += 1;
        }
    }

    /// True if the page is currently marked dirty.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn is_dirty(&self, idx: PageIndex) -> bool {
        let i = idx.as_u64();
        assert!(i < self.pages, "page {i} out of bounds ({})", self.pages);
        self.bits[(i / 64) as usize] & (1u64 << (i % 64)) != 0
    }

    /// Number of pages currently dirty.
    pub fn dirty_count(&self) -> PageCount {
        PageCount::new(self.dirty)
    }

    /// Returns all dirty pages in index order and clears the tracker —
    /// the per-round harvest of pre-copy migration.
    pub fn drain(&mut self) -> Vec<PageIndex> {
        let out = self.dirty_pages();
        self.clear();
        out
    }

    /// Returns all dirty pages in index order without clearing.
    pub(crate) fn dirty_pages(&self) -> Vec<PageIndex> {
        let mut out = Vec::with_capacity(self.dirty as usize);
        for (w, &word) in self.bits.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let bit = word.trailing_zeros() as u64;
                out.push(PageIndex::new(w as u64 * 64 + bit));
                word &= word - 1;
            }
        }
        out
    }

    /// Clears all dirty bits.
    pub fn clear(&mut self) {
        self.bits.fill(0);
        self.dirty = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_tracker_is_clean() {
        let t = DirtyTracker::new(PageCount::new(100));
        assert_eq!(t.dirty_count(), PageCount::ZERO);
        assert!(t.dirty_pages().is_empty());
        assert!(!t.is_dirty(PageIndex::new(99)));
    }

    #[test]
    fn mark_is_idempotent() {
        let mut t = DirtyTracker::new(PageCount::new(10));
        t.mark(PageIndex::new(3));
        t.mark(PageIndex::new(3));
        assert_eq!(t.dirty_count(), PageCount::new(1));
    }

    #[test]
    fn drain_returns_sorted_and_clears() {
        let mut t = DirtyTracker::new(PageCount::new(200));
        for i in [199u64, 0, 64, 63, 65, 128] {
            t.mark(PageIndex::new(i));
        }
        let drained = t.drain();
        let expected: Vec<_> = [0u64, 63, 64, 65, 128, 199]
            .iter()
            .map(|&i| PageIndex::new(i))
            .collect();
        assert_eq!(drained, expected);
        assert_eq!(t.dirty_count(), PageCount::ZERO);
        assert!(t.drain().is_empty());
    }

    #[test]
    fn word_boundary_pages() {
        let mut t = DirtyTracker::new(PageCount::new(65));
        t.mark(PageIndex::new(64));
        assert!(t.is_dirty(PageIndex::new(64)));
        assert!(!t.is_dirty(PageIndex::new(63)));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn mark_out_of_bounds_panics() {
        let mut t = DirtyTracker::new(PageCount::new(64));
        t.mark(PageIndex::new(64));
    }

    #[test]
    fn dirty_pages_does_not_clear() {
        let mut t = DirtyTracker::new(PageCount::new(10));
        t.mark(PageIndex::new(1));
        assert_eq!(t.dirty_pages().len(), 1);
        assert_eq!(t.dirty_count(), PageCount::new(1));
    }
}

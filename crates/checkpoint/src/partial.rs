//! [`PartialCheckpoint`]: the pages an aborted migration left behind.
//!
//! When a migration dies mid-transfer, the destination is not empty: every
//! page that made it across the link before the cut is sitting in its
//! memory, content-addressable by digest. That is *exactly* the raw
//! material the paper recycles from old checkpoints (§3) — so the retry
//! path treats an aborted transfer's residue as a checkpoint of its own,
//! builds a [`ChecksumIndex`] over it, and re-sends only what never
//! arrived. Recycling applied to our own failures.

use vecycle_types::{PageCount, PageDigest, Ratio, VmId};

use crate::ChecksumIndex;

/// The destination-side residue of an aborted migration: for each guest
/// page, the digest of the content that landed before the link died (or
/// `None` if the page never made it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialCheckpoint {
    vm: VmId,
    landed: Vec<Option<PageDigest>>,
}

impl PartialCheckpoint {
    /// Wraps the landed-page map of an aborted transfer. `landed` must
    /// have one slot per guest page, in page order.
    pub fn new(vm: VmId, landed: Vec<Option<PageDigest>>) -> Self {
        PartialCheckpoint { vm, landed }
    }

    /// Nothing landed yet: `pages` empty slots.
    pub fn empty(vm: VmId, pages: u64) -> Self {
        PartialCheckpoint::new(vm, vec![None; pages as usize])
    }

    /// These pages with `later` — `(page, digest)` pairs a later attempt
    /// landed, in the order it landed them — written over them, so the
    /// latest write of a page wins.
    ///
    /// # Panics
    ///
    /// On a page index beyond the guest.
    pub fn overlaid(mut self, later: impl IntoIterator<Item = (u64, PageDigest)>) -> Self {
        for (idx, digest) in later {
            self.landed[idx as usize] = Some(digest);
        }
        self
    }

    /// The VM whose migration aborted.
    pub fn vm(&self) -> VmId {
        self.vm
    }

    /// Total guest pages (landed or not).
    pub fn page_count(&self) -> PageCount {
        PageCount::new(self.landed.len() as u64)
    }

    /// Pages whose content reached the destination.
    pub fn landed_pages(&self) -> PageCount {
        PageCount::new(self.landed.iter().filter(|d| d.is_some()).count() as u64)
    }

    /// Fraction of guest pages that landed.
    pub fn coverage(&self) -> Ratio {
        if self.landed.is_empty() {
            return Ratio::new(0.0);
        }
        Ratio::new(self.landed_pages().as_u64() as f64 / self.landed.len() as f64)
    }

    /// Per-page landed map (page order).
    pub fn landed(&self) -> &[Option<PageDigest>] {
        &self.landed
    }

    /// Refills `index` with the landed pages *plus* extra digests (e.g.
    /// an older full checkpoint of the same VM), so a retry can draw on
    /// both sources of destination-resident content.
    pub fn refill_index(&self, index: &mut ChecksumIndex, extra: &[PageDigest]) {
        index.refill(self.landed.iter().flatten().chain(extra).copied());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(id: u64) -> PageDigest {
        PageDigest::from_content_id(id)
    }

    #[test]
    fn counts_and_coverage() {
        let pc = PartialCheckpoint::new(
            VmId::new(1),
            vec![Some(digest(1)), None, Some(digest(2)), None],
        );
        assert_eq!(pc.page_count(), PageCount::new(4));
        assert_eq!(pc.landed_pages(), PageCount::new(2));
        assert!((pc.coverage().as_f64() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_partial_has_zero_coverage() {
        let pc = PartialCheckpoint::new(VmId::new(1), Vec::new());
        assert_eq!(pc.landed_pages(), PageCount::ZERO);
        assert_eq!(pc.coverage().as_f64(), 0.0);
    }

    #[test]
    fn index_contains_only_landed_content() {
        let pc =
            PartialCheckpoint::new(VmId::new(1), vec![Some(digest(10)), None, Some(digest(11))]);
        let mut idx = ChecksumIndex::default();
        pc.refill_index(&mut idx, &[]);
        assert!(idx.contains(digest(10)));
        assert!(idx.contains(digest(11)));
        assert!(!idx.contains(digest(12)));
    }

    #[test]
    fn combined_index_unions_both_sources() {
        let pc = PartialCheckpoint::new(VmId::new(1), vec![Some(digest(10)), None]);
        // What the refilled index held before is gone.
        let mut idx = ChecksumIndex::from_pages(&[digest(50)]);
        pc.refill_index(&mut idx, &[digest(99)]);
        assert!(idx.contains(digest(10)));
        assert!(idx.contains(digest(99)));
        assert!(!idx.contains(digest(50)));
        assert_eq!(idx.total_pages(), 2);
    }
}

//! Names the frozen benchmark still calls and live code no longer
//! needs, each a wrapper over the live path. ROADMAP item 2b deletes
//! this module with the benchmark's next re-base.

use vecycle_types::PageDigest;

use crate::ChecksumIndex;

impl ChecksumIndex {
    /// [`ChecksumIndex::from_pages`] over an owned list.
    #[deprecated(note = "benchmark-only; ROADMAP item 2b deletes it")]
    pub fn build(digests: Vec<PageDigest>) -> Self {
        Self::from_pages(&digests)
    }

    /// [`ChecksumIndex::distinct_digests`]: already sorted.
    #[deprecated(note = "benchmark-only; ROADMAP item 2b deletes it")]
    pub fn digests(&self) -> impl Iterator<Item = PageDigest> + '_ {
        self.distinct_digests()
    }
}

/// [`ChecksumIndex`]'s queries as a trait; it was their only
/// implementor.
#[deprecated(note = "benchmark-only; ROADMAP item 2b deletes it")]
pub trait PageLookup {
    /// [`ChecksumIndex::contains`].
    fn contains(&self, digest: PageDigest) -> bool;
    /// [`ChecksumIndex::distinct`].
    fn distinct(&self) -> usize;
}

#[allow(deprecated)]
impl PageLookup for ChecksumIndex {
    fn contains(&self, digest: PageDigest) -> bool {
        ChecksumIndex::contains(self, digest)
    }
    fn distinct(&self) -> usize {
        ChecksumIndex::distinct(self)
    }
}

#[cfg(test)]
#[allow(deprecated)]
mod tests {
    use super::*;

    #[test]
    fn every_wrapper_is_the_live_path() {
        let pages: Vec<PageDigest> = [5, 3, 5, 1].map(PageDigest::from_content_id).into();
        let (built, live) = (
            ChecksumIndex::build(pages.clone()),
            ChecksumIndex::from_pages(&pages),
        );
        let mut sorted: Vec<PageDigest> = [1, 3, 5].map(PageDigest::from_content_id).into();
        sorted.sort_unstable();
        assert_eq!(built.digests().collect::<Vec<_>>(), sorted);
        for digest in [0, 1, 3, 5].map(PageDigest::from_content_id) {
            let lookup: &dyn PageLookup = &built;
            assert_eq!(lookup.contains(digest), live.contains(digest));
        }
        assert_eq!(PageLookup::distinct(&built), live.distinct());
    }
}

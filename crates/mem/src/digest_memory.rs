//! [`DigestMemory`]: a guest memory image storing one digest per page.

use vecycle_types::{Bytes, PageCount, PageDigest, PageIndex};

use crate::{MemoryImage, MutableMemory, PageContent};

/// A guest memory image that stores only per-page content digests.
///
/// This is the scalable representation: a 6 GiB guest (1.5 M pages) costs
/// ~24 MiB. All traffic-reduction strategies operate on digests, so this
/// image supports everything except byte-exact reconstruction checks.
///
/// # Examples
///
/// ```
/// use vecycle_mem::{DigestMemory, MemoryImage, MutableMemory, PageContent};
/// use vecycle_types::{Bytes, PageIndex};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut vm = DigestMemory::with_uniform_content(Bytes::from_mib(1), 7)?;
/// let before = vm.page_digest(PageIndex::new(0));
/// vm.write_page(PageIndex::new(0), PageContent::ContentId(999));
/// assert_ne!(vm.page_digest(PageIndex::new(0)), before);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestMemory {
    pages: Vec<PageDigest>,
}

impl DigestMemory {
    /// Creates an image of all-zero pages.
    pub fn zeroed(pages: PageCount) -> Self {
        DigestMemory {
            pages: vec![PageDigest::ZERO_PAGE; pages.as_usize()],
        }
    }

    /// Creates an image where every page holds content derived from a
    /// single `seed` — pages are distinct from each other but the whole
    /// image is reproducible from the seed.
    ///
    /// This models the paper's best-case setup (§4.4): a guest that filled
    /// its memory once (95 % random data) and then idles, so consecutive
    /// snapshots are nearly identical.
    ///
    /// # Errors
    ///
    /// Returns [`vecycle_types::Error::InvalidConfig`] if `ram` is not a
    /// whole number of pages or is zero.
    pub fn with_uniform_content(ram: Bytes, seed: u64) -> vecycle_types::Result<Self> {
        let mut image = DigestMemory { pages: Vec::new() };
        image.refill_uniform(ram, seed)?;
        Ok(image)
    }

    /// Refills the image whole as [`DigestMemory::with_uniform_content`]
    /// makes it. The table keeps its room, so a refill for no more pages
    /// than it once held allocates nothing; what it held before is never
    /// read.
    ///
    /// # Errors
    ///
    /// As [`DigestMemory::with_uniform_content`], leaving the image as
    /// it was.
    pub fn refill_uniform(&mut self, ram: Bytes, seed: u64) -> vecycle_types::Result<()> {
        if ram.is_zero() || !ram.as_u64().is_multiple_of(vecycle_types::PAGE_SIZE) {
            return Err(vecycle_types::Error::InvalidConfig {
                reason: format!("ram size {ram} must be a positive multiple of the page size"),
            });
        }
        self.fill_distinct(ram.pages_ceil(), seed);
        Ok(())
    }

    /// Creates an image of `pages` pages, each with distinct content
    /// derived from `seed`.
    pub fn with_distinct_content(pages: PageCount, seed: u64) -> Self {
        let mut image = DigestMemory { pages: Vec::new() };
        image.fill_distinct(pages, seed);
        image
    }

    /// Empties the table, grown to exactly `pages` if it has less room,
    /// and fills it with distinct content derived from `seed`.
    fn fill_distinct(&mut self, pages: PageCount, seed: u64) {
        self.pages.clear();
        self.pages.reserve_exact(pages.as_usize());
        let digests = (0..pages.as_u64()).map(|i| PageDigest::from_content_id(content_id(seed, i)));
        self.pages.extend(digests);
    }

    /// Creates an image directly from a digest list.
    pub fn from_digests(pages: Vec<PageDigest>) -> Self {
        DigestMemory { pages }
    }

    /// An immutable copy of the current state, e.g. to act as a checkpoint.
    pub fn snapshot(&self) -> DigestMemory {
        self.clone()
    }

    /// Borrows the underlying digest slice.
    pub fn as_slice(&self) -> &[PageDigest] {
        &self.pages
    }

    /// Consumes the image, returning the digest list.
    pub fn into_digests(self) -> Vec<PageDigest> {
        self.pages
    }

    /// Counts pages whose digest differs from `other` at the same index.
    ///
    /// # Panics
    ///
    /// Panics if the images have different sizes.
    pub fn pages_differing_from(&self, other: &DigestMemory) -> PageCount {
        assert_eq!(self.pages.len(), other.pages.len(), "size mismatch");
        let n = self
            .pages
            .iter()
            .zip(&other.pages)
            .filter(|(a, b)| a != b)
            .count();
        PageCount::new(n as u64)
    }
}

/// Derives the content ID for page `i` of an image seeded with `seed`.
///
/// The seed occupies the high bits so images with different seeds draw
/// from disjoint content namespaces (no accidental cross-VM duplicates).
fn content_id(seed: u64, i: u64) -> u64 {
    (seed << 40) ^ (i + 1)
}

impl MemoryImage for DigestMemory {
    fn page_count(&self) -> PageCount {
        PageCount::new(self.pages.len() as u64)
    }

    fn page_digest(&self, idx: PageIndex) -> PageDigest {
        self.pages[idx.as_usize()]
    }

    fn digests(&self) -> Vec<PageDigest> {
        self.pages.clone()
    }
}

impl MutableMemory for DigestMemory {
    fn write_page(&mut self, idx: PageIndex, content: PageContent<'_>) {
        self.pages[idx.as_usize()] = content.digest();
    }

    fn relocate_page(&mut self, src: PageIndex, dst: PageIndex) {
        self.pages[dst.as_usize()] = self.pages[src.as_usize()];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_is_all_zero_pages() {
        let m = DigestMemory::zeroed(PageCount::new(8));
        assert!(m.as_slice().iter().all(|d| d.is_zero_page()));
    }

    #[test]
    fn uniform_content_is_reproducible() {
        let a = DigestMemory::with_uniform_content(Bytes::from_mib(1), 3).unwrap();
        let b = DigestMemory::with_uniform_content(Bytes::from_mib(1), 3).unwrap();
        assert_eq!(a, b);
        let c = DigestMemory::with_uniform_content(Bytes::from_mib(1), 4).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_content_rejects_bad_sizes() {
        assert!(DigestMemory::with_uniform_content(Bytes::ZERO, 1).is_err());
        assert!(DigestMemory::with_uniform_content(Bytes::new(4095), 1).is_err());
    }

    #[test]
    fn distinct_content_pages_are_distinct() {
        let m = DigestMemory::with_distinct_content(PageCount::new(1000), 9);
        let mut set = std::collections::HashSet::new();
        for d in m.as_slice() {
            assert!(set.insert(*d));
        }
    }

    #[test]
    fn different_seeds_share_no_content() {
        let a = DigestMemory::with_distinct_content(PageCount::new(500), 1);
        let b = DigestMemory::with_distinct_content(PageCount::new(500), 2);
        let sa: std::collections::HashSet<_> = a.as_slice().iter().collect();
        assert!(b.as_slice().iter().all(|d| !sa.contains(d)));
    }

    #[test]
    fn write_and_relocate() {
        let mut m = DigestMemory::with_distinct_content(PageCount::new(4), 1);
        let d0 = m.page_digest(PageIndex::new(0));
        m.relocate_page(PageIndex::new(0), PageIndex::new(3));
        assert_eq!(m.page_digest(PageIndex::new(3)), d0);
        m.write_page(PageIndex::new(0), PageContent::Zero);
        assert!(m.page_digest(PageIndex::new(0)).is_zero_page());
    }

    #[test]
    fn snapshot_is_independent() {
        let mut m = DigestMemory::with_distinct_content(PageCount::new(4), 1);
        let snap = m.snapshot();
        m.write_page(PageIndex::new(2), PageContent::Zero);
        assert_eq!(m.pages_differing_from(&snap), PageCount::new(1));
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn diff_rejects_size_mismatch() {
        let a = DigestMemory::zeroed(PageCount::new(2));
        let b = DigestMemory::zeroed(PageCount::new(3));
        let _ = a.pages_differing_from(&b);
    }
}

//! Checksum → page-offset indexes over a checkpoint (§3.3), each filled
//! one way: emptied and sized for its pages by [`ChecksumIndex::refill`],
//! then [`ChecksumIndex::push`] per page.

use vecycle_types::{DigestMap, PageDigest, PageIndex};

/// The paper's index, as the map its queries probe: each distinct
/// checksum of a checkpoint with the offset of its first page.
///
/// §3.3: "We currently keep the checksums and their offsets in a sorted
/// list, such that we can use binary search to quickly find the offset
/// for a given checksum … more efficient data structures may be
/// used." The index is a [`DigestMap`] alone; the bulk exchange is its
/// keys in map order ([`ChecksumIndex::distinct_digests`]).
///
/// The destination builds one while sequentially reading the checkpoint
/// file, then answers two queries per received message: *is this
/// checksum present?* and *at which checkpoint offset?* (Listing 1's
/// `lookup(checksum)`). The source fills its own from the exchange.
///
/// # Examples
///
/// ```
/// use vecycle_checkpoint::ChecksumIndex;
/// use vecycle_types::{PageDigest, PageIndex};
///
/// let digests = [
///     PageDigest::from_content_id(10),
///     PageDigest::from_content_id(20),
///     PageDigest::from_content_id(10), // duplicate content
/// ];
/// let index = ChecksumIndex::from_pages(&digests);
/// assert_eq!(index.distinct(), 2);
/// // Duplicate digests resolve to their first offset.
/// assert_eq!(
///     index.lookup(PageDigest::from_content_id(10)),
///     Some(PageIndex::new(0))
/// );
/// assert!(index.lookup(PageDigest::from_content_id(99)).is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct ChecksumIndex {
    // Digest → first (smallest) offset carrying it; any copy of the
    // content serves a restore equally well.
    first: DigestMap<PageIndex>,
    total_pages: u64,
}

impl ChecksumIndex {
    /// Builds the index from borrowed per-page digests in page order.
    pub fn from_pages(pages: &[PageDigest]) -> Self {
        let mut index = Self::default();
        index.refill(pages.len(), pages.iter().copied());
        index
    }

    /// Empties the index and fills it with `digests` in page order,
    /// sized for `pages` of them first. The map keeps its table, so an
    /// index refilled for no more pages than it once held allocates
    /// nothing.
    pub fn refill(&mut self, pages: usize, digests: impl IntoIterator<Item = PageDigest>) {
        self.first.clear();
        self.first.reserve(pages);
        self.total_pages = 0;
        for d in digests {
            self.push(d);
        }
    }

    /// Appends the next page: `digest` at the next offset, unless an
    /// earlier page already carries it.
    #[inline]
    pub fn push(&mut self, digest: PageDigest) {
        self.first
            .entry(digest)
            .or_insert(PageIndex::new(self.total_pages));
        self.total_pages += 1;
    }

    /// Number of pages the underlying checkpoint holds (with duplicates).
    pub fn total_pages(&self) -> u64 {
        self.total_pages
    }

    /// Wire size of the bulk checksum exchange: 16 bytes per distinct
    /// digest (the paper estimates 16 MiB for a 4 GiB VM with unique
    /// pages).
    pub fn wire_size(&self) -> vecycle_types::Bytes {
        vecycle_types::Bytes::new(self.first.len() as u64 * 16)
    }

    /// True if any page with this digest exists in the checkpoint.
    #[inline]
    pub fn contains(&self, digest: PageDigest) -> bool {
        self.first.contains_key(&digest)
    }

    /// The checkpoint page holding this digest (first occurrence), if any.
    pub fn lookup(&self, digest: PageDigest) -> Option<PageIndex> {
        self.first.get(&digest).copied()
    }

    /// Number of distinct digests indexed.
    pub fn distinct(&self) -> usize {
        self.first.len()
    }

    /// The distinct digests, in map order: what the bulk exchange sends.
    pub fn distinct_digests(&self) -> impl ExactSizeIterator<Item = PageDigest> + '_ {
        self.first.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    fn d(id: u64) -> PageDigest {
        PageDigest::from_content_id(id)
    }

    #[test]
    fn build_and_lookup() {
        let index = ChecksumIndex::from_pages(&[d(5), d(3), d(5), d(1)]);
        assert_eq!(index.total_pages(), 4);
        assert_eq!(index.distinct(), 3);
        assert_eq!(index.lookup(d(3)), Some(PageIndex::new(1)));
        assert_eq!(index.lookup(d(5)), Some(PageIndex::new(0)));
        assert!(!index.contains(d(42)));
    }

    #[test]
    fn wire_size_is_16_bytes_per_distinct() {
        let index = ChecksumIndex::from_pages(&[d(1), d(1), d(2)]);
        assert_eq!(index.wire_size().as_u64(), 32);
    }

    #[test]
    fn paper_wire_size_example() {
        // "a 4 GiB VM has 2^20 pages ... 2^20 * 2^4 bytes = 16 MiB of MD5
        // checksums" — with all-unique pages.
        let n = 1u64 << 20;
        let digests: Vec<_> = (0..n).map(|i| d(i + 1)).collect();
        let index = ChecksumIndex::from_pages(&digests);
        assert_eq!(index.wire_size(), vecycle_types::Bytes::from_mib(16));
    }

    #[test]
    fn empty_index_is_empty() {
        let index = ChecksumIndex::from_pages(&[]);
        assert_eq!(index.distinct(), 0);
        assert!(!index.contains(d(1)));
    }

    /// A digest mix with heavy duplication and zero pages.
    fn duplicate_heavy_workload() -> Vec<PageDigest> {
        (0..40_000u64)
            .map(|i| {
                // ~25% zero pages, heavy duplication among the rest, in
                // an order that scatters the duplicates.
                let content = (i.wrapping_mul(2_654_435_761)) % 4_096;
                d(if content < 1_024 { 0 } else { content })
            })
            .collect()
    }

    /// `lookup` answers the first occurrence a naive scan of the input
    /// finds, for hits and misses alike.
    #[test]
    fn lookup_is_the_first_occurrence_a_naive_scan_finds() {
        let pages = duplicate_heavy_workload();
        let index = ChecksumIndex::from_pages(&pages);
        assert_eq!(index.total_pages(), pages.len() as u64);
        for probe in (0..8_192u64).step_by(5) {
            let digest = d(probe);
            let by_scan = pages
                .iter()
                .position(|&dg| dg == digest)
                .map(|i| PageIndex::new(i as u64));
            assert_eq!(index.lookup(digest), by_scan, "probe {probe}");
            assert_eq!(index.contains(digest), by_scan.is_some(), "probe {probe}");
        }
        let distinct: BTreeSet<PageDigest> = pages.iter().copied().collect();
        assert_eq!(index.distinct(), distinct.len());
        assert_eq!(index.distinct_digests().collect::<BTreeSet<_>>(), distinct);
    }
}

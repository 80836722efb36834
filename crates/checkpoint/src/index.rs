//! Checksum → page-offset indexes over a checkpoint (§3.3).

use vecycle_types::{DigestMap, PageDigest, PageIndex};

/// Common interface of the checkpoint indexes.
///
/// The destination builds one of these while sequentially reading the
/// checkpoint file, then answers two queries per received message: *is
/// this checksum present?* and *at which checkpoint offset?* (Listing 1's
/// `lookup(checksum)`).
pub trait PageLookup {
    /// True if any page with this digest exists in the checkpoint.
    fn contains(&self, digest: PageDigest) -> bool;

    /// The checkpoint page holding this digest (first occurrence), if any.
    fn lookup(&self, digest: PageDigest) -> Option<PageIndex>;

    /// Number of distinct digests indexed.
    fn distinct(&self) -> usize;
}

/// The paper's index: the checkpoint's distinct checksums as a sorted
/// array, each with the offset of its first page.
///
/// §3.3: "We currently keep the checksums and their offsets in a sorted
/// list, such that we can use binary search to quickly find the offset
/// for a given checksum … more efficient data structures may be
/// used." The sorted array is what the bulk pre-exchange sends; the
/// per-message probe goes through a [`DigestMap`] instead of a binary
/// search.
///
/// # Examples
///
/// ```
/// use vecycle_checkpoint::{ChecksumIndex, PageLookup};
/// use vecycle_types::{PageDigest, PageIndex};
///
/// let digests = vec![
///     PageDigest::from_content_id(10),
///     PageDigest::from_content_id(20),
///     PageDigest::from_content_id(10), // duplicate content
/// ];
/// let index = ChecksumIndex::build(digests);
/// assert_eq!(index.distinct(), 2);
/// // Duplicate digests resolve to their first offset.
/// assert_eq!(
///     index.lookup(PageDigest::from_content_id(10)),
///     Some(PageIndex::new(0))
/// );
/// assert!(index.lookup(PageDigest::from_content_id(99)).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct ChecksumIndex {
    // Distinct digests, sorted: the serialized order of the bulk
    // checksum pre-exchange.
    sorted: Vec<PageDigest>,
    // Digest → first (smallest) offset carrying it; any copy of the
    // content serves a restore equally well.
    first: DigestMap<PageIndex>,
    total_pages: u64,
}

impl ChecksumIndex {
    /// Builds the index from per-page digests in page order.
    pub fn build(digests: Vec<PageDigest>) -> Self {
        Self::from_pages(&digests)
    }

    /// Builds the index from borrowed per-page digests in page order:
    /// one copy of the list (the sorted array) and the map.
    pub fn from_pages(pages: &[PageDigest]) -> Self {
        let mut sorted = pages.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut first = DigestMap::with_capacity_and_hasher(sorted.len(), Default::default());
        for (i, &d) in pages.iter().enumerate() {
            first.entry(d).or_insert(PageIndex::new(i as u64));
        }
        ChecksumIndex {
            sorted,
            first,
            total_pages: pages.len() as u64,
        }
    }

    /// Builds the index from a list that must already be strictly
    /// ascending — a bulk exchange as its receiver got it. The list
    /// becomes the sorted array as it is, with no copy and no sort; the
    /// result is what [`ChecksumIndex::build`] makes of the same list.
    ///
    /// # Errors
    ///
    /// `Err(at)` when digests `at` and `at + 1` are not strictly
    /// ascending.
    pub fn from_sorted(sorted: Vec<PageDigest>) -> Result<Self, usize> {
        if let Some(at) = sorted.windows(2).position(|w| w[0] >= w[1]) {
            return Err(at);
        }
        let mut first = DigestMap::with_capacity_and_hasher(sorted.len(), Default::default());
        first.extend((sorted.iter().enumerate()).map(|(i, &d)| (d, PageIndex::new(i as u64))));
        Ok(ChecksumIndex {
            total_pages: sorted.len() as u64,
            sorted,
            first,
        })
    }

    /// Number of pages the underlying checkpoint holds (with duplicates).
    pub fn total_pages(&self) -> u64 {
        self.total_pages
    }

    /// All indexed digests in sorted order — what the destination sends
    /// to the source in the bulk checksum pre-exchange (§3.2).
    pub fn digests(&self) -> impl Iterator<Item = PageDigest> + '_ {
        self.sorted.iter().copied()
    }

    /// The same digests as one borrowed slice.
    pub fn sorted(&self) -> &[PageDigest] {
        &self.sorted
    }

    /// Wire size of the bulk checksum exchange: 16 bytes per distinct
    /// digest (the paper estimates 16 MiB for a 4 GiB VM with unique
    /// pages).
    pub fn wire_size(&self) -> vecycle_types::Bytes {
        vecycle_types::Bytes::new(self.sorted.len() as u64 * 16)
    }
}

impl PageLookup for ChecksumIndex {
    #[inline]
    fn contains(&self, digest: PageDigest) -> bool {
        self.first.contains_key(&digest)
    }

    fn lookup(&self, digest: PageDigest) -> Option<PageIndex> {
        self.first.get(&digest).copied()
    }

    fn distinct(&self) -> usize {
        self.sorted.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(id: u64) -> PageDigest {
        PageDigest::from_content_id(id)
    }

    #[test]
    fn build_and_lookup() {
        let index = ChecksumIndex::build(vec![d(5), d(3), d(5), d(1)]);
        assert_eq!(index.total_pages(), 4);
        assert_eq!(index.distinct(), 3);
        assert_eq!(index.lookup(d(3)), Some(PageIndex::new(1)));
        assert_eq!(index.lookup(d(5)), Some(PageIndex::new(0)));
        assert!(!index.contains(d(42)));
    }

    #[test]
    fn digests_are_sorted() {
        let index = ChecksumIndex::build(vec![d(9), d(2), d(7)]);
        let v: Vec<_> = index.digests().collect();
        assert!(v.windows(2).all(|w| w[0] < w[1]));
    }

    /// Sorted input makes the same index either way: the same sorted
    /// array, offsets, distinct count and page total.
    #[test]
    fn from_sorted_builds_what_build_builds() {
        let mut digests: Vec<_> = (0..1_000).map(|i| d(i * 7 + 1)).collect();
        digests.sort_unstable();
        let (built, adopted) = (
            ChecksumIndex::build(digests.clone()),
            ChecksumIndex::from_sorted(digests.clone()).expect("sorted and distinct"),
        );
        assert_eq!(adopted.sorted(), built.sorted());
        assert_eq!(adopted.total_pages(), built.total_pages());
        for &digest in &digests {
            assert_eq!(adopted.lookup(digest), built.lookup(digest));
        }
        assert!(!adopted.contains(d(0)));
        digests.swap(3, 4);
        assert_eq!(ChecksumIndex::from_sorted(digests.clone()).err(), Some(3));
        digests.swap(3, 4);
        digests[5] = digests[4];
        assert_eq!(
            ChecksumIndex::from_sorted(digests).err(),
            Some(4),
            "a duplicate"
        );
    }

    #[test]
    fn wire_size_is_16_bytes_per_distinct() {
        let index = ChecksumIndex::build(vec![d(1), d(1), d(2)]);
        assert_eq!(index.wire_size().as_u64(), 32);
    }

    #[test]
    fn paper_wire_size_example() {
        // "a 4 GiB VM has 2^20 pages ... 2^20 * 2^4 bytes = 16 MiB of MD5
        // checksums" — with all-unique pages.
        let n = 1u64 << 20;
        let digests: Vec<_> = (0..n).map(|i| d(i + 1)).collect();
        let index = ChecksumIndex::build(digests);
        assert_eq!(index.wire_size(), vecycle_types::Bytes::from_mib(16));
    }

    #[test]
    fn empty_index_is_empty() {
        let index = ChecksumIndex::build(Vec::new());
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
        let index = ChecksumIndex::build(pages.clone());
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
        let mut distinct = pages;
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(index.distinct(), distinct.len());
        assert_eq!(index.digests().collect::<Vec<_>>(), distinct);
    }
}

//! Checksum indexes over a checkpoint (§3.3), filled from a table in
//! page order ([`ChecksumIndex::refill`]) or from a list already
//! ascending ([`ChecksumIndex::push_ascending`]).

use vecycle_types::PageDigest;

/// The paper's index: each distinct checksum of a checkpoint, in one
/// list ascending by the digest's bytes.
///
/// §3.3: "We currently keep the checksums and their offsets in a sorted
/// list, such that we can use binary search". A directory of bucket
/// starts on the digest's leading bits, one per two entries, takes a
/// probe to its bucket, scanned up to 8 entries and binary-searched past.
///
/// The list keeps no offsets. Every query but one asks only *is this
/// checksum present?*: the source's classification, the destination's
/// check of each received checksum, the bulk exchange. The one that
/// needs Listing 1's offset, the byte cells of `vecycle-core`'s one
/// destination merge, indexes the few checksums that miss their page in
/// place and finds their first pages in one walk of the checkpoint's
/// table ([`ChecksumIndex::rank`]).
///
/// # Examples
///
/// ```
/// use vecycle_checkpoint::ChecksumIndex;
/// use vecycle_types::PageDigest;
///
/// let digests = [
///     PageDigest::from_content_id(10),
///     PageDigest::from_content_id(20),
///     PageDigest::from_content_id(10), // duplicate content
/// ];
/// let index = ChecksumIndex::from_pages(&digests);
/// assert_eq!((index.distinct(), index.total_pages()), (2, 3));
/// assert!(index.contains(PageDigest::from_content_id(10)));
/// assert!(!index.contains(PageDigest::from_content_id(99)));
/// // A digest's rank is its position in the ascending list.
/// let first = index.distinct_digests().next().unwrap();
/// assert_eq!(index.rank(first), Some(0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ChecksumIndex {
    // Distinct digests ascending.
    entries: Vec<PageDigest>,
    // Digests whose leading `bits` bits are `b`: `entries[dir[b]..dir[b + 1]]`.
    dir: Vec<u32>,
    bits: u32,
    total_pages: u64,
}

#[inline]
fn bucket(digest: PageDigest, bits: u32) -> usize {
    let lead = u64::from_be_bytes(digest.as_bytes()[..8].try_into().expect("8 bytes"));
    lead.checked_shr(64 - bits).unwrap_or(0) as usize
}

/// Points each slot of `dir` at its bucket's first of `digests`, in order.
fn starts(dir: &mut [u32], bits: u32, digests: impl Iterator<Item = PageDigest>) {
    dir.fill(0);
    for d in digests {
        dir[bucket(d, bits) + 1] += 1;
    }
    dir.iter_mut().fold(0, |start, slot| {
        *slot += start;
        *slot
    });
}

impl ChecksumIndex {
    /// Builds the index from borrowed per-page digests in page order.
    pub fn from_pages(pages: &[PageDigest]) -> Self {
        let mut index = Self::default();
        index.refill(pages.iter().copied());
        index
    }

    /// Empties the index and fills it with `digests` in page order. The
    /// list and the directory keep their room, so an index refilled for
    /// no more pages than it once held allocates nothing.
    pub fn refill(&mut self, digests: impl IntoIterator<Item = PageDigest, IntoIter: Clone>) {
        let digests = digests.into_iter();
        let n = digests.clone().count();
        self.total_pages = n as u64;
        self.size_for(n);
        // Counting sort by bucket: each digest takes its bucket's next
        // slot, so `dir[b]` ends as the end of bucket `b`.
        starts(&mut self.dir, self.bits, digests.clone());
        self.entries.clear();
        self.entries.resize(n, PageDigest::ZERO_PAGE);
        for d in digests {
            let slot = &mut self.dir[bucket(d, self.bits)];
            self.entries[*slot as usize] = d;
            *slot += 1;
        }
        // Sort each bucket, then keep each digest once.
        let mut start = 0;
        for &end in &self.dir[..self.dir.len() - 1] {
            let bucket = &mut self.entries[start..end as usize];
            if bucket.len() > 1 {
                bucket.sort_unstable_by_key(|d| u128::from_be_bytes(*d.as_bytes()));
            }
            start = end as usize;
        }
        self.entries.dedup();
        starts(&mut self.dir, self.bits, self.entries.iter().copied());
    }

    /// Empties the index, keeping its room, for the `count` digests
    /// [`ChecksumIndex::push_ascending`] adds in order.
    pub fn refill_ascending(&mut self, count: usize) {
        self.entries.clear();
        self.entries.reserve(count);
        self.size_for(count);
        self.dir.fill(count as u32);
        self.total_pages = 0;
    }

    /// Appends `digest` if it is above every digest held and fewer than
    /// `refill_ascending`'s count are, else returns false. The last
    /// builds the directory: the index answers once it is whole.
    pub fn push_ascending(&mut self, digest: PageDigest) -> bool {
        let (held, count) = (self.entries.len(), self.dir.last().copied().unwrap_or(0));
        if held >= count as usize || self.entries.last().is_some_and(|&e| digest <= e) {
            return false;
        }
        self.entries.push(digest);
        self.total_pages += 1;
        if held + 1 == count as usize {
            starts(&mut self.dir, self.bits, self.entries.iter().copied());
        }
        true
    }

    /// A directory for `n` entries: one bucket per two.
    fn size_for(&mut self, n: usize) {
        assert!(n <= u32::MAX as usize, "an index holds under 2^32 pages");
        self.bits = n.next_power_of_two().trailing_zeros().saturating_sub(1);
        self.dir.resize((1 << self.bits) + 1, 0);
    }

    /// Number of pages the underlying checkpoint holds (with duplicates).
    pub fn total_pages(&self) -> u64 {
        self.total_pages
    }

    /// Wire size of the bulk checksum exchange: 16 bytes per distinct
    /// digest (the paper estimates 16 MiB for a 4 GiB VM with unique
    /// pages).
    pub fn wire_size(&self) -> vecycle_types::Bytes {
        vecycle_types::Bytes::new(self.entries.len() as u64 * 16)
    }

    /// True if any page with this digest exists in the checkpoint.
    #[inline]
    pub fn contains(&self, digest: PageDigest) -> bool {
        self.rank(digest).is_some()
    }

    /// The digest's position in the ascending list of
    /// [`ChecksumIndex::distinct_digests`], if it is held: a dense key
    /// in `0..distinct()` for a table beside the index.
    #[inline]
    pub fn rank(&self, digest: PageDigest) -> Option<usize> {
        let b = bucket(digest, self.bits);
        let (start, end) = (*self.dir.get(b)? as usize, *self.dir.get(b + 1)? as usize);
        let bucket = self.entries.get(start..end)?;
        let at = if bucket.len() <= 8 {
            bucket.iter().position(|&e| e == digest)?
        } else {
            bucket.binary_search(&digest).ok()?
        };
        Some(start + at)
    }

    /// Bytes the list and the directory have room for: what the index
    /// keeps across refills.
    pub fn capacity_bytes(&self) -> usize {
        self.entries.capacity() * size_of::<PageDigest>() + self.dir.capacity() * size_of::<u32>()
    }

    /// Number of distinct digests indexed.
    pub fn distinct(&self) -> usize {
        self.entries.len()
    }

    /// The distinct digests, ascending: what the bulk exchange sends.
    pub fn distinct_digests(&self) -> impl ExactSizeIterator<Item = PageDigest> + '_ {
        self.entries.iter().copied()
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
        let index = ChecksumIndex::from_pages(&[d(5), d(3), d(5), d(1)]);
        assert_eq!(index.total_pages(), 4);
        assert_eq!(index.distinct(), 3);
        assert!(index.contains(d(3)) && index.contains(d(5)));
        assert!(!index.contains(d(42)));
        // Ranks number the ascending list.
        let listed: Vec<PageDigest> = index.distinct_digests().collect();
        for (at, &digest) in listed.iter().enumerate() {
            assert_eq!(index.rank(digest), Some(at));
        }
        assert_eq!(index.rank(d(42)), None);
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
}

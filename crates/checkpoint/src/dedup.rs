//! Sender-side dedup state: digest → first page that carried the content.
//!
//! During a migration the source remembers, for every digest it has
//! placed on the wire (or announced as a checksum), the first guest page
//! that carried that content. Later pages with the same digest become
//! [`DedupRef`] back-references instead of full pages (§3.4's
//! deduplication extension). The semantics are those of a single
//! `HashMap::entry(..).or_insert(..)`: the first inserter of a digest
//! wins, and every later query sees that winner.
//!
//! [`DedupRef`]: https://example.invalid/vecycle

use vecycle_types::{PageDigest, PageIndex};

use crate::swiss::DigestTable;

/// Digest → first-sender map: `HashMap<PageDigest, PageIndex>` with
/// first-insert-wins semantics over one [`DigestTable`].
///
/// # Examples
///
/// ```
/// use vecycle_checkpoint::DedupIndex;
/// use vecycle_types::{PageDigest, PageIndex};
///
/// let mut sent = DedupIndex::new();
/// let d = PageDigest::from_content_id(7);
/// assert_eq!(sent.insert_first(d, PageIndex::new(3)), PageIndex::new(3));
/// // A later page with the same content resolves to the first sender.
/// assert_eq!(sent.insert_first(d, PageIndex::new(9)), PageIndex::new(3));
/// assert_eq!(sent.get(d), Some(PageIndex::new(3)));
/// assert_eq!(sent.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DedupIndex {
    table: DigestTable<PageIndex>,
}

impl DedupIndex {
    /// An empty index.
    pub fn new() -> Self {
        DedupIndex::default()
    }

    /// The page that first carried this content, if any was recorded.
    pub fn get(&self, digest: PageDigest) -> Option<PageIndex> {
        self.table.get(digest).copied()
    }

    /// True if the digest has been recorded.
    pub fn contains(&self, digest: PageDigest) -> bool {
        self.get(digest).is_some()
    }

    /// Records `idx` as the sender of `digest` unless one is already
    /// recorded; returns the winning (earliest-recorded) page.
    ///
    /// This mirrors `HashMap::entry(digest).or_insert(idx)` — the exact
    /// operation the scan performs per page.
    pub fn insert_first(&mut self, digest: PageDigest, idx: PageIndex) -> PageIndex {
        *self.table.or_insert(digest, idx)
    }

    /// Number of distinct digests recorded.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// All recorded (digest, first sender) pairs, in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (PageDigest, PageIndex)> + '_ {
        self.table.iter().map(|(d, i)| (d, *i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn d(id: u64) -> PageDigest {
        PageDigest::from_content_id(id)
    }

    fn p(i: u64) -> PageIndex {
        PageIndex::new(i)
    }

    #[test]
    fn first_insert_wins() {
        let mut idx = DedupIndex::new();
        assert!(idx.is_empty());
        assert_eq!(idx.insert_first(d(1), p(5)), p(5));
        assert_eq!(idx.insert_first(d(1), p(2)), p(5));
        assert_eq!(idx.get(d(1)), Some(p(5)));
        assert!(idx.contains(d(1)) && !idx.contains(d(2)));
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn iter_yields_all_pairs() {
        let mut idx = DedupIndex::new();
        for i in 1..=10 {
            idx.insert_first(d(i), p(i * 10));
        }
        let pairs: Vec<_> = idx.iter().collect();
        assert_eq!(pairs.len(), 10);
        for (digest, page) in pairs {
            assert_eq!(idx.get(digest), Some(page));
        }
    }

    /// Differential model against `HashMap::entry().or_insert()` at a
    /// scale that drives the table through several resizes.
    #[test]
    fn matches_plain_hashmap_semantics_at_scale() {
        let mut index = DedupIndex::new();
        let mut plain: HashMap<PageDigest, PageIndex> = HashMap::new();
        let mut state = 0x9e37_79b9u64;
        for page in 0..30_000u64 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let content = (state >> 33) % 2_048; // heavy duplication incl. zero
            let winner = index.insert_first(d(content), p(page));
            let expect = *plain.entry(d(content)).or_insert(p(page));
            assert_eq!(winner, expect, "page {page}");
        }
        assert_eq!(index.len(), plain.len());
        for (&digest, &page) in &plain {
            assert_eq!(index.get(digest), Some(page));
        }
    }
}

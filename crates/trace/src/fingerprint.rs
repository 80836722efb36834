//! [`Fingerprint`]: one timestamped digest-per-page observation.

use std::sync::OnceLock;

use vecycle_types::{PageCount, PageDigest, Ratio, SimTime};

/// A memory fingerprint: the digest of every page at one instant.
///
/// Mirrors the Memory Buddies trace format the paper analyzes — "each
/// traced machine creates one memory fingerprint every 30 minutes" (§2.3).
/// The similarity of two fingerprints is defined on their *unique* hash
/// sets: `sim(Fa, Fb) = |Ua ∩ Ub| / |Ua|`.
#[derive(Debug)]
pub struct Fingerprint {
    taken_at: SimTime,
    pages: Vec<PageDigest>,
    unique_sorted: OnceLock<Vec<PageDigest>>,
}

impl Fingerprint {
    /// Creates a fingerprint from the page digests observed at `taken_at`.
    pub fn new(taken_at: SimTime, pages: Vec<PageDigest>) -> Self {
        Fingerprint {
            taken_at,
            pages,
            unique_sorted: OnceLock::new(),
        }
    }

    /// When the fingerprint was taken.
    pub fn taken_at(&self) -> SimTime {
        self.taken_at
    }

    /// The per-page digests, in page order.
    pub fn pages(&self) -> &[PageDigest] {
        &self.pages
    }

    /// Number of pages.
    pub fn page_count(&self) -> PageCount {
        PageCount::new(self.pages.len() as u64)
    }

    /// The deduplicated, sorted digest list `U` (computed once, cached).
    pub fn unique(&self) -> &[PageDigest] {
        self.unique_sorted.get_or_init(|| {
            let mut v = self.pages.clone();
            v.sort_unstable();
            v.dedup();
            v
        })
    }

    /// Number of unique hashes `|U|`.
    pub fn unique_count(&self) -> PageCount {
        PageCount::new(self.unique().len() as u64)
    }

    /// Fraction of duplicate pages, `1 − unique/total` (§4.2, Figure 4).
    pub fn duplicate_fraction(&self) -> Ratio {
        if self.pages.is_empty() {
            return Ratio::ZERO;
        }
        Ratio::new(1.0 - self.unique().len() as f64 / self.pages.len() as f64)
    }

    /// Fraction of all-zero pages (Figure 4, right).
    pub fn zero_fraction(&self) -> Ratio {
        if self.pages.is_empty() {
            return Ratio::ZERO;
        }
        let zeros = self.pages.iter().filter(|d| d.is_zero_page()).count();
        Ratio::new(zeros as f64 / self.pages.len() as f64)
    }

    /// Similarity to `other`: `|U_self ∩ U_other| / |U_self|` (§2.3).
    ///
    /// Note the asymmetry — the denominator is *this* fingerprint's unique
    /// count, matching the paper's definition of the similarity of `Ua`
    /// with `Ub`.
    pub fn similarity(&self, other: &Fingerprint) -> Ratio {
        let ua = self.unique();
        if ua.is_empty() {
            return Ratio::ZERO;
        }
        let shared = sorted_intersection_len(ua, other.unique());
        Ratio::new(shared as f64 / ua.len() as f64)
    }

    /// Pages whose content changed at the same index between `self` (the
    /// earlier observation) and `other` — the dirty set a tracker would
    /// report (§4.3: "we say a page is dirty if its content changed
    /// between the two fingerprints"). Pages beyond the shorter image
    /// count as dirty.
    pub fn dirty_pages_to(&self, other: &Fingerprint) -> PageCount {
        let common = self.pages.len().min(other.pages.len());
        let changed = self.pages[..common]
            .iter()
            .zip(&other.pages[..common])
            .filter(|(a, b)| a != b)
            .count();
        let extra = other.pages.len().saturating_sub(common);
        PageCount::new((changed + extra) as u64)
    }

    /// The set of digests present in `other` but absent from `self` —
    /// what a checkpoint of `self` cannot supply.
    pub fn novel_unique_in(&self, other: &Fingerprint) -> PageCount {
        let ub = other.unique();
        let novel = ub.len() - sorted_intersection_len(self.unique(), ub);
        PageCount::new(novel as u64)
    }

    /// Pages of `other` (with multiplicity) whose digest is absent from
    /// `self`'s unique set — what VeCycle without dedup transfers.
    pub fn novel_pages_in(&self, other: &Fingerprint) -> PageCount {
        let ua = self.unique();
        let novel = other
            .pages
            .iter()
            .filter(|d| ua.binary_search(d).is_err())
            .count();
        PageCount::new(novel as u64)
    }
}

/// Length of the intersection of two sorted, deduplicated slices.
fn sorted_intersection_len(a: &[PageDigest], b: &[PageDigest]) -> usize {
    let mut i = 0;
    let mut j = 0;
    let mut n = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(id: u64) -> PageDigest {
        PageDigest::from_content_id(id)
    }

    fn fp(ids: &[u64]) -> Fingerprint {
        Fingerprint::new(SimTime::EPOCH, ids.iter().map(|&i| d(i)).collect())
    }

    #[test]
    fn unique_dedups_and_sorts() {
        let f = fp(&[3, 1, 3, 2, 1]);
        assert_eq!(f.unique_count(), PageCount::new(3));
        let u = f.unique();
        assert!(u.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn similarity_is_reflexive() {
        let f = fp(&[1, 2, 3, 4, 2]);
        assert!((f.similarity(&f).as_f64() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn similarity_matches_hand_computation() {
        // Ua = {1,2,3}, Ub = {2,3,4,5}; |∩| = 2; sim = 2/3.
        let a = fp(&[1, 2, 3]);
        let b = fp(&[2, 3, 4, 5]);
        assert!((a.similarity(&b).as_f64() - 2.0 / 3.0).abs() < 1e-12);
        // Asymmetric: from b's side, 2/4.
        assert!((b.similarity(&a).as_f64() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn disjoint_fingerprints_have_zero_similarity() {
        let a = fp(&[1, 2]);
        let b = fp(&[3, 4]);
        assert_eq!(a.similarity(&b), Ratio::ZERO);
    }

    #[test]
    fn duplicate_and_zero_fractions() {
        let f = Fingerprint::new(
            SimTime::EPOCH,
            vec![d(1), d(1), d(2), PageDigest::ZERO_PAGE],
        );
        // 4 pages, 3 unique -> 25% duplicates; 1 zero page -> 25%.
        assert!((f.duplicate_fraction().as_f64() - 0.25).abs() < 1e-12);
        assert!((f.zero_fraction().as_f64() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn dirty_pages_counts_positional_changes() {
        let a = fp(&[1, 2, 3, 4]);
        let b = fp(&[1, 9, 3, 8]);
        assert_eq!(a.dirty_pages_to(&b), PageCount::new(2));
        // Relocation: content 2 moved from index 1 to index 3.
        let c = fp(&[1, 9, 3, 2]);
        assert_eq!(a.dirty_pages_to(&c), PageCount::new(2));
        // ...but only one *novel* unique digest (9).
        assert_eq!(a.novel_unique_in(&c), PageCount::new(1));
    }

    #[test]
    fn dirty_pages_handles_size_mismatch() {
        let a = fp(&[1, 2]);
        let b = fp(&[1, 2, 3, 4]);
        assert_eq!(a.dirty_pages_to(&b), PageCount::new(2));
    }

    #[test]
    fn novel_pages_counts_multiplicity() {
        let a = fp(&[1, 2]);
        let b = fp(&[1, 7, 7, 7]);
        assert_eq!(a.novel_pages_in(&b), PageCount::new(3));
        assert_eq!(a.novel_unique_in(&b), PageCount::new(1));
    }

    #[test]
    fn empty_fingerprint_edge_cases() {
        let e = fp(&[]);
        let f = fp(&[1]);
        assert_eq!(e.similarity(&f), Ratio::ZERO);
        assert_eq!(e.duplicate_fraction(), Ratio::ZERO);
        assert_eq!(e.zero_fraction(), Ratio::ZERO);
    }
}

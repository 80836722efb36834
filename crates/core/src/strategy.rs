//! First-round traffic-reduction strategies.

use std::collections::HashSet;
use std::sync::Arc;

use vecycle_checkpoint::{Checkpoint, ChecksumIndex};
use vecycle_mem::{GenerationSnapshot, GenerationTable, MemoryImage};
use vecycle_types::{DigestMap, PageDigest, PageIndex};

/// Which technique a strategy implements, for reports and figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyName {
    /// Indiscriminate full first round (QEMU 2.0 baseline).
    Full,
    /// Sender-side deduplication only.
    Dedup,
    /// Dirty-page tracking against a stored generation vector.
    Dirty,
    /// Dirty tracking combined with deduplication.
    DirtyDedup,
    /// Content-based redundancy elimination (VeCycle).
    VeCycle,
    /// VeCycle combined with deduplication.
    VeCycleDedup,
}

impl StrategyName {
    /// Every name's label, in declaration order.
    pub(crate) const LABELS: [&'static str; 6] = [
        "full",
        "dedup",
        "dirty",
        "dirty+dedup",
        "vecycle",
        "vecycle+dedup",
    ];

    /// Stable label for reports and metrics.
    pub(crate) fn label(self) -> &'static str {
        Self::LABELS[self as usize]
    }
}

impl std::fmt::Display for StrategyName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How the source treats one page in the first copy round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageAction {
    /// Transfer the full page (plus its checksum under VeCycle).
    SendFull,
    /// Send only the checksum; the destination has the content.
    SendChecksum,
    /// Send a back-reference to an identical page sent earlier in this
    /// migration (sender-side dedup).
    SendDedupRef(PageIndex),
    /// Send nothing; dirty tracking proved the destination's checkpoint
    /// copy is current.
    Skip,
}

/// A first-round traffic-reduction strategy.
///
/// Construct with [`Strategy::full`], [`Strategy::dedup`],
/// [`Strategy::vecycle`], [`Strategy::miyakodori`] or their combining
/// variants, then pass to [`crate::MigrationEngine::migrate`].
#[derive(Debug, Clone)]
pub struct Strategy {
    name: StrategyName,
    dedup: bool,
    /// VeCycle: index over the destination's checkpoint.
    index: Option<Arc<ChecksumIndex>>,
    /// Miyakodori: pages whose generation is unchanged since checkpoint.
    reusable: Option<Arc<HashSet<PageIndex>>>,
}

impl Strategy {
    /// The QEMU 2.0 baseline: send every page in full.
    pub fn full() -> Self {
        Strategy {
            name: StrategyName::Full,
            dedup: false,
            index: None,
            reusable: None,
        }
    }

    /// Sender-side deduplication: each distinct content is sent once per
    /// migration; repeats become back-references (CloudNet-style).
    pub fn dedup() -> Self {
        Strategy {
            name: StrategyName::Dedup,
            dedup: true,
            index: None,
            reusable: None,
        }
    }

    /// VeCycle: content-based redundancy elimination against a checkpoint
    /// image held at the destination.
    pub fn vecycle<M: MemoryImage>(checkpoint: &M) -> Self {
        Strategy::vecycle_with_index(Arc::new(ChecksumIndex::from_pages(&checkpoint.digests())))
    }

    /// VeCycle from a stored [`Checkpoint`].
    pub fn vecycle_from_checkpoint(checkpoint: &Checkpoint) -> Self {
        Strategy::vecycle_with_index(Arc::new(checkpoint.build_index()))
    }

    /// VeCycle from a pre-built index (avoids rebuilding across
    /// repeated migrations in benches).
    pub fn vecycle_with_index(index: Arc<ChecksumIndex>) -> Self {
        Strategy {
            name: StrategyName::VeCycle,
            dedup: false,
            index: Some(index),
            reusable: None,
        }
    }

    /// Miyakodori-style dirty tracking: `table` is the guest's current
    /// generation table, `snapshot` the vector stored with the
    /// destination's checkpoint. Pages with unchanged generations are
    /// skipped entirely.
    ///
    /// # Panics
    ///
    /// Panics if the table and snapshot cover different page counts.
    pub fn miyakodori(table: &GenerationTable, snapshot: &GenerationSnapshot) -> Self {
        let reusable: HashSet<PageIndex> = table.unchanged_since(snapshot).into_iter().collect();
        Strategy {
            name: StrategyName::Dirty,
            dedup: false,
            index: None,
            reusable: Some(Arc::new(reusable)),
        }
    }

    /// Adds sender-side deduplication on top of this strategy.
    #[must_use]
    pub fn with_dedup(mut self) -> Self {
        self.dedup = true;
        self.name = match self.name {
            StrategyName::Full | StrategyName::Dedup => StrategyName::Dedup,
            StrategyName::Dirty | StrategyName::DirtyDedup => StrategyName::DirtyDedup,
            StrategyName::VeCycle | StrategyName::VeCycleDedup => StrategyName::VeCycleDedup,
        };
        self
    }

    /// The technique this strategy implements.
    pub fn name(&self) -> StrategyName {
        self.name
    }

    /// True if this strategy needs per-page checksums at the source
    /// (drives the checksum-rate term of migration time, §3.4).
    pub(crate) fn computes_checksums(&self) -> bool {
        self.index.is_some()
    }

    /// True if this strategy requires a checksum pre-exchange.
    pub(crate) fn needs_exchange(&self) -> bool {
        self.index.is_some()
    }

    /// True if this strategy reads the dedup cache (sends back-references).
    pub(crate) fn dedups(&self) -> bool {
        self.dedup
    }

    /// The checkpoint index, if this is a VeCycle strategy.
    pub fn index(&self) -> Option<&ChecksumIndex> {
        self.index.as_deref()
    }

    /// Decides the first-round action for one page.
    ///
    /// `sent` is the per-migration dedup cache: digest → first page index
    /// that carried this content. The caller records a
    /// [`PageAction::SendFull`] in it, and a [`PageAction::SendChecksum`]
    /// only when a gang shares it: an index hit is answered before the
    /// cache is read.
    // Inlined into every sink's scan, with the index probe (DESIGN §13.2).
    #[inline]
    pub fn classify(
        &self,
        idx: PageIndex,
        digest: PageDigest,
        sent: &DigestMap<PageIndex>,
    ) -> PageAction {
        if let Some(reusable) = &self.reusable {
            if reusable.contains(&idx) {
                return PageAction::Skip;
            }
        }
        self.classify_resend(digest, sent)
    }

    /// Decides the action for a page re-dirtied after the first round.
    ///
    /// [`Strategy::classify`] minus the reusable-set check: that set
    /// proves a page unchanged *since the checkpoint*, which a dirty page
    /// in round ≥ 2 by definition no longer is. A checkpoint-index hit
    /// still collapses the resend to a checksum message — the guest may
    /// have rewritten the page with content the destination's checkpoint
    /// already holds.
    #[inline]
    pub fn classify_resend(&self, digest: PageDigest, sent: &DigestMap<PageIndex>) -> PageAction {
        if let Some(index) = &self.index {
            if index.contains(digest) {
                return PageAction::SendChecksum;
            }
        }
        if self.dedup {
            if let Some(&first) = sent.get(&digest) {
                return PageAction::SendDedupRef(first);
            }
        }
        PageAction::SendFull
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecycle_mem::DigestMemory;
    use vecycle_types::PageCount;

    fn d(id: u64) -> PageDigest {
        PageDigest::from_content_id(id)
    }

    #[test]
    fn full_sends_everything() {
        let s = Strategy::full();
        let sent = DigestMap::default();
        assert_eq!(
            s.classify(PageIndex::new(0), d(1), &sent),
            PageAction::SendFull
        );
        assert!(!s.computes_checksums());
        assert_eq!(s.name(), StrategyName::Full);
    }

    #[test]
    fn dedup_references_repeats() {
        let s = Strategy::dedup();
        let mut sent = DigestMap::default();
        assert_eq!(
            s.classify(PageIndex::new(0), d(1), &sent),
            PageAction::SendFull
        );
        sent.insert(d(1), PageIndex::new(0));
        assert_eq!(
            s.classify(PageIndex::new(5), d(1), &sent),
            PageAction::SendDedupRef(PageIndex::new(0))
        );
    }

    #[test]
    fn vecycle_sends_checksums_for_known_content() {
        let cp = DigestMemory::with_distinct_content(PageCount::new(4), 1);
        let s = Strategy::vecycle(&cp);
        let sent = DigestMap::default();
        let known = cp.page_digest(PageIndex::new(2));
        assert_eq!(
            s.classify(PageIndex::new(9), known, &sent),
            PageAction::SendChecksum
        );
        assert_eq!(
            s.classify(PageIndex::new(9), d(999_999), &sent),
            PageAction::SendFull
        );
        assert!(s.computes_checksums());
        assert!(s.needs_exchange());
    }

    #[test]
    fn vecycle_dedup_prefers_checkpoint_over_ref() {
        let cp = DigestMemory::with_distinct_content(PageCount::new(4), 1);
        let s = Strategy::vecycle(&cp).with_dedup();
        assert_eq!(s.name(), StrategyName::VeCycleDedup);
        let mut sent = DigestMap::default();
        let known = cp.page_digest(PageIndex::new(0));
        sent.insert(known, PageIndex::new(3));
        // Checkpoint hit wins: a checksum message is the cheapest option
        // and the destination's copy is already in place.
        assert_eq!(
            s.classify(PageIndex::new(7), known, &sent),
            PageAction::SendChecksum
        );
        // Novel-but-repeated content becomes a dedup ref.
        sent.insert(d(42), PageIndex::new(1));
        assert_eq!(
            s.classify(PageIndex::new(8), d(42), &sent),
            PageAction::SendDedupRef(PageIndex::new(1))
        );
    }

    #[test]
    fn miyakodori_skips_unchanged_generations() {
        let mut table = GenerationTable::new(PageCount::new(4));
        let snap = table.snapshot();
        table.bump(PageIndex::new(1));
        let s = Strategy::miyakodori(&table, &snap);
        let sent = DigestMap::default();
        assert_eq!(s.classify(PageIndex::new(0), d(1), &sent), PageAction::Skip);
        assert_eq!(
            s.classify(PageIndex::new(1), d(2), &sent),
            PageAction::SendFull
        );
        assert!(!s.computes_checksums());
    }

    #[test]
    fn resend_skips_reusable_check_but_keeps_checksum_and_dedup() {
        let mut table = GenerationTable::new(PageCount::new(4));
        let snap = table.snapshot();
        table.bump(PageIndex::new(1));
        let s = Strategy::miyakodori(&table, &snap);
        let mut sent = DigestMap::default();
        // Page 0 is in the reusable set, but a *resend* of it must not be
        // skipped — it was dirtied after the first round.
        assert_eq!(s.classify_resend(d(9), &sent), PageAction::SendFull);

        let cp = DigestMemory::with_distinct_content(PageCount::new(4), 1);
        let v = Strategy::vecycle(&cp).with_dedup();
        let known = cp.page_digest(PageIndex::new(2));
        assert_eq!(v.classify_resend(known, &sent), PageAction::SendChecksum);
        sent.insert(d(5), PageIndex::new(0));
        assert_eq!(
            v.classify_resend(d(5), &sent),
            PageAction::SendDedupRef(PageIndex::new(0))
        );
        assert_eq!(v.classify_resend(d(6), &sent), PageAction::SendFull);
    }

    #[test]
    fn strategy_names_render() {
        assert_eq!(Strategy::full().name().to_string(), "full");
        assert_eq!(Strategy::full().with_dedup().name().to_string(), "dedup");
        let cp = DigestMemory::zeroed(PageCount::new(1));
        assert_eq!(
            Strategy::vecycle(&cp).with_dedup().name().to_string(),
            "vecycle+dedup"
        );
    }
}

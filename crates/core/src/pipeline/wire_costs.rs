//! [`WireCosts`]: the single source of truth for per-message wire sizes.
//!
//! Both the transfer pipeline and the closed-form estimators in
//! [`crate::estimate`] price pages through this type, so an analytic
//! prediction can never drift from what the engine actually charges —
//! the agreement is pinned per strategy in this module's tests.

use vecycle_net::wire;
use vecycle_types::{Bytes, BytesPerSec, SimDuration, PAGE_SIZE};

/// A delta/block-compression model for full-page payloads.
///
/// Svärd et al. \[24 in the paper\] show compression shrinks migration
/// data at a CPU cost; this model captures both: payloads shrink to
/// `ratio` of their size, and compressing competes with the wire for
/// round time at `throughput`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaCompression {
    ratio: f64,
    throughput: BytesPerSec,
}

impl DeltaCompression {
    /// Creates a compression model.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < ratio ≤ 1`.
    pub fn new(ratio: f64, throughput: BytesPerSec) -> Self {
        assert!(
            ratio > 0.0 && ratio <= 1.0,
            "compression ratio must be in (0, 1], got {ratio}"
        );
        DeltaCompression { ratio, throughput }
    }

    /// The output/input size ratio.
    pub fn ratio(&self) -> f64 {
        self.ratio
    }

    /// Compressed wire size of a payload.
    pub fn compress(&self, payload: Bytes) -> Bytes {
        Bytes::new((payload.as_f64() * self.ratio).ceil() as u64)
    }

    /// CPU time to compress a payload.
    pub fn time(&self, payload: Bytes) -> SimDuration {
        self.throughput.time_to_transfer(payload)
    }
}

/// QEMU-style XBZRLE delta encoding for *re-sent* pages.
///
/// In pre-copy rounds ≥ 2 the source re-sends pages the guest dirtied;
/// QEMU's XBZRLE cache keeps the previously-sent version and transmits
/// only the byte delta when the page is still cached. Modeled here as a
/// cache hit rate and a mean delta/page size ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Xbzrle {
    hit_rate: f64,
    delta_ratio: f64,
}

impl Xbzrle {
    /// Creates an XBZRLE model.
    ///
    /// # Panics
    ///
    /// Panics unless both parameters are in `[0, 1]`.
    pub fn new(hit_rate: f64, delta_ratio: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&hit_rate) && (0.0..=1.0).contains(&delta_ratio),
            "xbzrle parameters must be fractions: hit {hit_rate}, delta {delta_ratio}"
        );
        Xbzrle {
            hit_rate,
            delta_ratio,
        }
    }

    /// Mean wire bytes for one re-sent page of `raw` bytes.
    fn resend_bytes(&self, raw: Bytes) -> Bytes {
        let mean = self.hit_rate * self.delta_ratio + (1.0 - self.hit_rate);
        Bytes::new((raw.as_f64() * mean).ceil() as u64)
    }
}

/// The exact byte cost of every message class one migration can emit,
/// fixed at engine-configuration time (compression and XBZRLE fold into
/// the page sizes; the small-message classes come straight from
/// [`vecycle_net::wire`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireCosts {
    full_page: Bytes,
    resend_page: Bytes,
}

impl WireCosts {
    /// Derives the cost table from the active encodings.
    pub fn new(compression: Option<DeltaCompression>, xbzrle: Option<Xbzrle>) -> Self {
        let full_page = match compression {
            Some(c) => {
                let payload = c.compress(Bytes::new(PAGE_SIZE));
                Bytes::new(wire::MSG_HEADER + wire::CHECKSUM_SIZE) + payload
            }
            None => wire::full_page_msg(),
        };
        let resend_page = match xbzrle {
            Some(x) => {
                Bytes::new(wire::MSG_HEADER + wire::CHECKSUM_SIZE)
                    + x.resend_bytes(Bytes::new(PAGE_SIZE))
            }
            None => full_page,
        };
        WireCosts {
            full_page,
            resend_page,
        }
    }

    /// The cost table with no compression and no XBZRLE — what the
    /// closed-form estimators assume.
    pub(crate) fn uncompressed() -> Self {
        WireCosts::new(None, None)
    }

    /// Wire size of one full-page message in the first round (after
    /// optional compression).
    pub fn full_page(&self) -> Bytes {
        self.full_page
    }

    /// Wire size of one *re-sent* full page (rounds ≥ 2 and the final
    /// flush): XBZRLE delta-encodes against the cached previous version
    /// when enabled, otherwise the (possibly compressed) full-page size.
    pub(crate) fn resend_page(&self) -> Bytes {
        self.resend_page
    }

    /// Wire size of a checksum-only message (content exists remotely).
    pub fn checksum(&self) -> Bytes {
        wire::checksum_msg()
    }

    /// Wire size of a dedup back-reference.
    pub fn dedup_ref(&self) -> Bytes {
        wire::dedup_ref_msg()
    }

    /// Wire size of a suppressed-zero-page marker.
    pub(crate) fn zero_marker(&self) -> Bytes {
        wire::zero_page_msg()
    }

    /// Wire size of one end-of-round control trailer.
    pub(crate) fn control_trailer(&self) -> Bytes {
        Bytes::new(wire::MSG_HEADER)
    }
}

impl crate::MigrationEngine {
    /// The wire-cost table this engine's configuration implies.
    pub(crate) fn wire_costs(&self) -> WireCosts {
        WireCosts::new(self.compression, self.xbzrle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MigrationEngine, Strategy, StrategyName};
    use vecycle_mem::{DigestMemory, GenerationTable, MemoryImage, MutableMemory, PageContent};
    use vecycle_net::LinkSpec;
    use vecycle_types::PageIndex;

    /// Builds one concrete strategy per [`StrategyName`] against a
    /// shared checkpoint of `vm`.
    fn strategy_matrix(vm: &DigestMemory) -> Vec<Strategy> {
        // Miyakodori tracks write generations, not content: dirty every
        // third page so its first round mixes skips with sends.
        let mut table = GenerationTable::new(vm.page_count());
        let snapshot = table.snapshot();
        for i in (0..vm.page_count().as_u64()).step_by(3) {
            table.bump(PageIndex::new(i));
        }
        vec![
            Strategy::full(),
            Strategy::dedup(),
            Strategy::miyakodori(&table, &snapshot),
            Strategy::miyakodori(&table, &snapshot).with_dedup(),
            Strategy::vecycle(vm),
            Strategy::vecycle(vm).with_dedup(),
        ]
    }

    /// The engine charges exactly what [`WireCosts`] predicts, for every
    /// strategy family: reconstructing a migration's forward traffic
    /// from its round report and the cost table matches the ledger to
    /// the byte. This is the anti-drift contract `estimate.rs` relies
    /// on.
    #[test]
    fn engine_charges_agree_with_wire_costs_for_every_strategy() {
        let base = DigestMemory::with_uniform_content(Bytes::from_mib(4), 11).unwrap();
        let mut vm = base.snapshot();
        let n = vm.page_count().as_u64();
        // Mix in duplicates and zero pages so every message class fires.
        for i in 0..n / 8 {
            vm.write_page(
                PageIndex::new(i * 4),
                PageContent::ContentId((1 << 47) | (i % 16)),
            );
        }
        for i in 0..n / 32 {
            vm.write_page(PageIndex::new(i * 16 + 3), PageContent::ContentId(0));
        }
        let engine = MigrationEngine::new(LinkSpec::lan_gigabit());
        let costs = engine.wire_costs();
        let mut seen = std::collections::HashSet::new();
        for strategy in strategy_matrix(&base) {
            seen.insert(strategy.name());
            let report = engine.migrate(&vm, strategy).unwrap();
            let r1 = &report.rounds()[0];
            let mut predicted = costs.full_page() * r1.full_pages.as_u64()
                + costs.checksum() * r1.checksum_pages.as_u64()
                + costs.dedup_ref() * r1.dedup_refs.as_u64()
                + costs.zero_marker() * r1.zero_pages.as_u64()
                + costs.control_trailer();
            if r1.skipped_pages.as_u64() > 0 {
                // The Miyakodori reuse bitmap: 1 bit a page plus a header.
                predicted += Bytes::new(n.div_ceil(8) + wire::MSG_HEADER);
            }
            assert_eq!(
                r1.bytes_sent,
                predicted,
                "round-1 bytes drift from WireCosts under {}",
                report.strategy()
            );
            // The static path's stop-and-copy is an empty flush: one
            // more control trailer.
            assert_eq!(
                report.source_traffic(),
                predicted + costs.control_trailer(),
                "total traffic drifts from WireCosts under {}",
                report.strategy()
            );
        }
        assert_eq!(seen.len(), 6, "every StrategyName must be covered");
        for name in [
            StrategyName::Full,
            StrategyName::Dedup,
            StrategyName::Dirty,
            StrategyName::DirtyDedup,
            StrategyName::VeCycle,
            StrategyName::VeCycleDedup,
        ] {
            assert!(seen.contains(&name), "{name} missing from the matrix");
        }
    }

    #[test]
    fn compression_and_xbzrle_fold_into_the_page_sizes() {
        let plain = WireCosts::uncompressed();
        assert_eq!(plain.full_page(), wire::full_page_msg());
        assert_eq!(plain.resend_page(), plain.full_page());

        let c = DeltaCompression::new(0.5, BytesPerSec::from_mib_per_sec(800));
        let compressed = WireCosts::new(Some(c), None);
        assert!(compressed.full_page() < plain.full_page());
        assert_eq!(compressed.resend_page(), compressed.full_page());

        let x = Xbzrle::new(0.9, 0.1);
        let delta = WireCosts::new(Some(c), Some(x));
        assert_eq!(delta.full_page(), compressed.full_page());
        assert!(delta.resend_page() < delta.full_page());
    }

    #[test]
    fn small_message_classes_come_from_the_wire_module() {
        let costs = WireCosts::uncompressed();
        assert_eq!(costs.checksum(), wire::checksum_msg());
        assert_eq!(costs.dedup_ref(), wire::dedup_ref_msg());
        assert_eq!(costs.zero_marker(), wire::zero_page_msg());
        assert_eq!(costs.control_trailer().as_u64(), wire::MSG_HEADER);
    }
}

//! Property-based tests over the core invariants.

use std::collections::BTreeMap;

use proptest::collection::vec;
use proptest::prelude::*;

use vecycle::checkpoint::{Checkpoint, ChecksumIndex};
use vecycle::core::{apply_transcript, MigrationEngine, Strategy as MigStrategy};
use vecycle::mem::{ByteMemory, DigestMemory, MemoryImage, MutableMemory, PageContent};
use vecycle::net::LinkSpec;
use vecycle::trace::{Fingerprint, PairStats};
use vecycle::types::{Bytes, PageCount, PageDigest, PageIndex, SimTime, VmId};

fn digests(max_content: u64, len: usize) -> impl Strategy<Value = Vec<PageDigest>> {
    vec(0..max_content, 1..=len)
        .prop_map(|ids| ids.into_iter().map(PageDigest::from_content_id).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Similarity is a fraction and is 1 for identical fingerprints.
    #[test]
    fn similarity_is_a_fraction(a in digests(32, 64), b in digests(32, 64)) {
        let fa = Fingerprint::new(SimTime::EPOCH, a);
        let fb = Fingerprint::new(SimTime::EPOCH, b);
        prop_assert!(fa.similarity(&fb).is_fraction());
        prop_assert!((fa.similarity(&fa).as_f64() - 1.0).abs() < 1e-12);
    }

    /// The Figure 5 method hierarchy holds on every fingerprint pair:
    /// content hashes never transfer more than dirty tracking, and dedup
    /// variants never transfer more than their plain counterparts.
    #[test]
    fn pair_stats_hierarchy(a in digests(24, 48), b in digests(24, 48)) {
        let fa = Fingerprint::new(SimTime::EPOCH, a);
        let fb = Fingerprint::new(SimTime::EPOCH, b);
        let s = PairStats::compute(&fa, &fb);
        prop_assert!(s.hashes_dedup <= s.hashes);
        prop_assert!(s.dirty_dedup <= s.dirty);
        prop_assert!(s.hashes_dedup <= s.dirty_dedup);
        prop_assert!(s.dedup <= s.total);
        prop_assert!(s.hashes <= s.total);
        prop_assert!(s.dirty <= s.total);
        // Equal-length images: in-place-unchanged pages are in Ua, so
        // hashes ≤ dirty.
        if fa.page_count() == fb.page_count() {
            prop_assert!(s.hashes <= s.dirty);
        }
    }

    /// The checkpoint index agrees with a first-occurrence `BTreeMap`
    /// model built here, sharing no code with the index's own table.
    #[test]
    fn indexes_agree(ids in vec(0u64..64, 1..128), probes in vec(0u64..96, 0..64)) {
        let ds: Vec<PageDigest> = ids.iter().map(|&i| PageDigest::from_content_id(i)).collect();
        let mut model: BTreeMap<PageDigest, PageIndex> = BTreeMap::new();
        for (i, &d) in ds.iter().enumerate() {
            model.entry(d).or_insert(PageIndex::new(i as u64));
        }
        let index = ChecksumIndex::from_pages(&ds);
        prop_assert_eq!(index.distinct(), model.len());
        for p in probes {
            let d = PageDigest::from_content_id(p);
            prop_assert_eq!(index.contains(d), model.contains_key(&d));
            prop_assert_eq!(index.lookup(d), model.get(&d).copied());
        }
        prop_assert_eq!(index.sorted(), model.keys().copied().collect::<Vec<_>>());
    }

    /// A checkpoint survives serialization byte-for-byte.
    #[test]
    fn checkpoint_wire_round_trip(ids in vec(0u64..1000, 1..256)) {
        let mem = DigestMemory::from_digests(
            ids.into_iter().map(PageDigest::from_content_id).collect(),
        );
        let cp = Checkpoint::capture(VmId::new(3), SimTime::EPOCH, &mem);
        let mut buf = Vec::new();
        cp.write_to(&mut buf).unwrap();
        prop_assert_eq!(Checkpoint::read_from(&buf[..]).unwrap(), cp);
    }

    /// Corrupting any single byte of a serialized checkpoint is detected.
    #[test]
    fn checkpoint_bit_flips_detected(ids in vec(0u64..100, 1..64), pos_seed in 0usize..10_000, bit in 0u8..8) {
        let mem = DigestMemory::from_digests(
            ids.into_iter().map(PageDigest::from_content_id).collect(),
        );
        let cp = Checkpoint::capture(VmId::new(0), SimTime::EPOCH, &mem);
        let mut buf = Vec::new();
        cp.write_to(&mut buf).unwrap();
        let pos = pos_seed % buf.len();
        buf[pos] ^= 1 << bit;
        prop_assert!(Checkpoint::read_from(&buf[..]).is_err());
    }

    /// VeCycle never moves more bytes than a full migration, for any
    /// divergence pattern between checkpoint and live state.
    #[test]
    fn vecycle_traffic_never_exceeds_full(
        writes in vec((0u64..128, 0u64..1_000_000), 0..128),
    ) {
        let mut vm = DigestMemory::with_distinct_content(PageCount::new(128), 77);
        let cp = vm.snapshot();
        for (idx, content) in writes {
            vm.write_page(PageIndex::new(idx), PageContent::ContentId(content | (1 << 45)));
        }
        let engine = MigrationEngine::new(LinkSpec::lan_gigabit());
        let full = engine.migrate(&vm, MigStrategy::full()).unwrap();
        let re = engine.migrate(&vm, MigStrategy::vecycle(&cp)).unwrap();
        prop_assert!(re.source_traffic() <= full.source_traffic());
        prop_assert!(re.total_time() <= full.total_time().saturating_add(
            // checksum-rate floor can exceed wire time on tiny images
            vecycle::types::SimDuration::from_secs(1)
        ));
    }

    /// The destination merge reconstructs memory exactly for arbitrary
    /// divergence (writes + relocations) since the checkpoint.
    #[test]
    fn merge_reconstructs_arbitrary_divergence(
        writes in vec((0u64..64, any::<u16>()), 0..48),
        moves in vec((0u64..64, 0u64..64), 0..24),
    ) {
        let mut mem = ByteMemory::with_distinct_content(PageCount::new(64), 5);
        let cp = Checkpoint::capture_bytes(VmId::new(0), SimTime::EPOCH, &mem);
        for (idx, val) in writes {
            let bytes = val.to_le_bytes();
            mem.write_page(PageIndex::new(idx), PageContent::Bytes(&bytes));
        }
        for (src, dst) in moves {
            if src != dst {
                mem.relocate_page(PageIndex::new(src), PageIndex::new(dst));
            }
        }
        let engine = MigrationEngine::new(LinkSpec::lan_gigabit());
        let (_, transcript) = engine
            .migrate_with_transcript(&mem, MigStrategy::vecycle_from_checkpoint(&cp).with_dedup())
            .unwrap();
        let rebuilt = apply_transcript(&cp, &transcript).unwrap();
        prop_assert!(rebuilt.content_equals(&mem));
    }

    /// DigestMemory and ByteMemory classify identical write sequences
    /// identically (same equality structure of page digests).
    #[test]
    fn memory_representations_agree(writes in vec((0u64..32, 0u64..8), 1..64)) {
        let mut dm = DigestMemory::zeroed(PageCount::new(32));
        let mut bm = ByteMemory::zeroed(PageCount::new(32));
        for (idx, content) in writes {
            dm.write_page(PageIndex::new(idx), PageContent::ContentId(content));
            bm.write_page(PageIndex::new(idx), PageContent::ContentId(content));
        }
        for i in 0..32u64 {
            for j in 0..32u64 {
                let (a, b) = (PageIndex::new(i), PageIndex::new(j));
                prop_assert_eq!(
                    dm.page_digest(a) == dm.page_digest(b),
                    bm.page_digest(a) == bm.page_digest(b)
                );
            }
        }
    }

    /// Bytes arithmetic: page round-trips and fraction bounds.
    #[test]
    fn unit_round_trips(pages in 0u64..1_000_000) {
        let b = Bytes::from_pages(pages);
        prop_assert_eq!(b.pages_ceil(), PageCount::new(pages));
        prop_assert!(b.fraction_of(Bytes::from_pages(pages.max(1))).is_fraction());
    }
}

//! Property-based tests over the core invariants.

use std::collections::{BTreeMap, BTreeSet};

use vecycle::checkpoint::{Checkpoint, ChecksumIndex};
use vecycle::core::{apply_transcript, MigrationEngine, Strategy as MigStrategy};
use vecycle::mem::{ByteMemory, DigestMemory, MemoryImage, MutableMemory, PageContent};
use vecycle::net::LinkSpec;
use vecycle::trace::{Fingerprint, PairStats};
use vecycle::types::rng::{split, Xorshift};
use vecycle::types::{Bytes, PageCount, PageDigest, PageIndex, SimTime, VmId};

/// 1..=`len` digests of content ids below `max_content`.
fn digests(rng: &mut Xorshift, max_content: u64, len: u64) -> Vec<PageDigest> {
    let n = 1 + rng.below(len);
    (0..n)
        .map(|_| PageDigest::from_content_id(rng.below(max_content)))
        .collect()
}

/// Similarity is a fraction and is 1 for identical fingerprints.
#[test]
fn similarity_is_a_fraction() {
    for case in 0..64 {
        let mut rng = Xorshift::new(split(1, case));
        let fa = Fingerprint::new(SimTime::EPOCH, digests(&mut rng, 32, 64));
        let fb = Fingerprint::new(SimTime::EPOCH, digests(&mut rng, 32, 64));
        assert!(fa.similarity(&fb).is_fraction());
        assert!((fa.similarity(&fa).as_f64() - 1.0).abs() < 1e-12);
    }
}

/// The Figure 5 method hierarchy holds on every fingerprint pair:
/// content hashes never transfer more than dirty tracking, and dedup
/// variants never transfer more than their plain counterparts.
#[test]
fn pair_stats_hierarchy() {
    for case in 0..64 {
        let mut rng = Xorshift::new(split(2, case));
        let fa = Fingerprint::new(SimTime::EPOCH, digests(&mut rng, 24, 48));
        let fb = Fingerprint::new(SimTime::EPOCH, digests(&mut rng, 24, 48));
        let s = PairStats::compute(&fa, &fb);
        assert!(s.hashes_dedup <= s.hashes);
        assert!(s.dirty_dedup <= s.dirty);
        assert!(s.hashes_dedup <= s.dirty_dedup);
        assert!(s.dedup <= s.total);
        assert!(s.hashes <= s.total);
        assert!(s.dirty <= s.total);
        // Equal-length images: in-place-unchanged pages are in Ua, so
        // hashes ≤ dirty.
        if fa.page_count() == fb.page_count() {
            assert!(s.hashes <= s.dirty);
        }
    }
}

/// The checkpoint index agrees with a first-occurrence `BTreeMap`
/// model built here, sharing no code with the index's own table.
#[test]
fn indexes_agree() {
    for case in 0..64 {
        let mut rng = Xorshift::new(split(3, case));
        let ds = digests(&mut rng, 64, 127);
        let mut model: BTreeMap<PageDigest, PageIndex> = BTreeMap::new();
        for (i, &d) in ds.iter().enumerate() {
            model.entry(d).or_insert_with(|| PageIndex::new(i as u64));
        }
        let index = ChecksumIndex::from_pages(&ds);
        assert_eq!(index.distinct(), model.len());
        for _ in 0..rng.below(64) {
            let d = PageDigest::from_content_id(rng.below(96));
            assert_eq!(index.contains(d), model.contains_key(&d));
            assert_eq!(index.lookup(d), model.get(&d).copied());
        }
        assert_eq!(index.distinct_digests().len(), model.len());
        let listed: BTreeSet<PageDigest> = index.distinct_digests().collect();
        assert_eq!(listed, model.keys().copied().collect::<BTreeSet<_>>());
    }
}

/// A checkpoint survives serialization byte-for-byte.
#[test]
fn checkpoint_wire_round_trip() {
    for case in 0..64 {
        let mut rng = Xorshift::new(split(4, case));
        let mem = DigestMemory::from_digests(digests(&mut rng, 1000, 255));
        let cp = Checkpoint::capture(VmId::new(3), SimTime::EPOCH, &mem);
        let mut buf = Vec::new();
        cp.write_to(&mut buf).unwrap();
        assert_eq!(Checkpoint::read_from(&buf[..]).unwrap(), cp);
    }
}

/// Corrupting any single byte of a serialized checkpoint is detected.
#[test]
fn checkpoint_bit_flips_detected() {
    for case in 0..64 {
        let mut rng = Xorshift::new(split(5, case));
        let mem = DigestMemory::from_digests(digests(&mut rng, 100, 63));
        let cp = Checkpoint::capture(VmId::new(0), SimTime::EPOCH, &mem);
        let mut buf = Vec::new();
        cp.write_to(&mut buf).unwrap();
        let pos = rng.below(10_000) as usize % buf.len();
        buf[pos] ^= 1 << rng.below(8);
        assert!(Checkpoint::read_from(&buf[..]).is_err());
    }
}

/// VeCycle never moves more bytes than a full migration, for any
/// divergence pattern between checkpoint and live state.
#[test]
fn vecycle_traffic_never_exceeds_full() {
    for case in 0..64 {
        let mut rng = Xorshift::new(split(6, case));
        let mut vm = DigestMemory::with_distinct_content(PageCount::new(128), 77);
        let cp = vm.snapshot();
        for _ in 0..rng.below(128) {
            let (idx, content) = (rng.below(128), rng.below(1_000_000));
            vm.write_page(
                PageIndex::new(idx),
                PageContent::ContentId(content | (1 << 45)),
            );
        }
        let engine = MigrationEngine::new(LinkSpec::lan_gigabit());
        let full = engine.migrate(&vm, MigStrategy::full()).unwrap();
        let re = engine.migrate(&vm, MigStrategy::vecycle(&cp)).unwrap();
        assert!(re.source_traffic() <= full.source_traffic());
        assert!(
            re.total_time()
                <= full.total_time().saturating_add(
                    // checksum-rate floor can exceed wire time on tiny images
                    vecycle::types::SimDuration::from_secs(1)
                )
        );
    }
}

/// The destination merge reconstructs memory exactly for arbitrary
/// divergence (writes + relocations) since the checkpoint.
#[test]
fn merge_reconstructs_arbitrary_divergence() {
    for case in 0..64 {
        let mut rng = Xorshift::new(split(7, case));
        let mut mem = ByteMemory::with_distinct_content(PageCount::new(64), 5);
        let cp = Checkpoint::capture_bytes(VmId::new(0), SimTime::EPOCH, &mem);
        for _ in 0..rng.below(48) {
            let (idx, bytes) = (rng.below(64), (rng.next() as u16).to_le_bytes());
            mem.write_page(PageIndex::new(idx), PageContent::Bytes(&bytes));
        }
        for _ in 0..rng.below(24) {
            let (src, dst) = (rng.below(64), rng.below(64));
            if src != dst {
                mem.relocate_page(PageIndex::new(src), PageIndex::new(dst));
            }
        }
        let engine = MigrationEngine::new(LinkSpec::lan_gigabit());
        let (_, transcript) = engine
            .migrate_with_transcript(&mem, MigStrategy::vecycle_from_checkpoint(&cp).with_dedup())
            .unwrap();
        let rebuilt = apply_transcript(&cp, &transcript).unwrap();
        assert!(rebuilt.content_equals(&mem));
    }
}

/// DigestMemory and ByteMemory classify identical write sequences
/// identically (same equality structure of page digests).
#[test]
fn memory_representations_agree() {
    for case in 0..64 {
        let mut rng = Xorshift::new(split(8, case));
        let mut dm = DigestMemory::zeroed(PageCount::new(32));
        let mut bm = ByteMemory::zeroed(PageCount::new(32));
        for _ in 0..1 + rng.below(63) {
            let (idx, content) = (PageIndex::new(rng.below(32)), rng.below(8));
            dm.write_page(idx, PageContent::ContentId(content));
            bm.write_page(idx, PageContent::ContentId(content));
        }
        for i in 0..32u64 {
            for j in 0..32u64 {
                let (a, b) = (PageIndex::new(i), PageIndex::new(j));
                assert_eq!(
                    dm.page_digest(a) == dm.page_digest(b),
                    bm.page_digest(a) == bm.page_digest(b)
                );
            }
        }
    }
}

/// Bytes arithmetic: page round-trips and fraction bounds.
#[test]
fn unit_round_trips() {
    for case in 0..64 {
        let pages = Xorshift::new(split(9, case)).below(1_000_000);
        let b = Bytes::from_pages(pages);
        assert_eq!(b.pages_ceil(), PageCount::new(pages));
        assert!(b.fraction_of(Bytes::from_pages(pages.max(1))).is_fraction());
    }
}

//! Property-based tests over the core invariants.

use std::collections::{BTreeMap, BTreeSet};

use vecycle::checkpoint::{Checkpoint, ChecksumIndex};
use vecycle::core::{apply_transcript, MigrationEngine, Strategy as MigStrategy};
use vecycle::core::{PageMsg, Transcript};
use vecycle::mem::{ByteMemory, DigestMemory, MemoryImage, MutableMemory, PageBuf, PageContent};
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

/// The checkpoint index agrees with a `BTreeSet` model built here,
/// sharing no code with the index's own table.
#[test]
fn indexes_agree() {
    for case in 0..64 {
        let mut rng = Xorshift::new(split(3, case));
        let ds = digests(&mut rng, 64, 127);
        let model: BTreeSet<PageDigest> = ds.iter().copied().collect();
        let index = ChecksumIndex::from_pages(&ds);
        assert_eq!(index.distinct(), model.len());
        for _ in 0..rng.below(64) {
            let d = PageDigest::from_content_id(rng.below(96));
            assert_eq!(index.contains(d), model.contains(&d));
        }
        assert_eq!(index.distinct_digests().len(), model.len());
        let listed: BTreeSet<PageDigest> = index.distinct_digests().collect();
        assert_eq!(listed, model);
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

/// Listing 1 run naively, message by message, counting relocations:
/// each page starts as the checkpoint's, a checksum that misses the
/// page in place takes the first checkpoint page carrying it, found by
/// a linear search of the table, and a dedup reference copies the first
/// content the transcript wrote to its source.
fn naive_listing_1(
    cp: &Checkpoint,
    transcript: &Transcript,
    relocated: &mut usize,
) -> Result<Vec<(PageBuf, PageDigest)>, String> {
    let table = cp.digest_table();
    let page = |at: usize| cp.read_page(PageIndex::new(at as u64)).unwrap();
    let mut mem: Vec<_> = (0..table.len()).map(|at| (page(at), table[at])).collect();
    let mut first = vec![None; table.len()];
    for msg in transcript {
        let (PageMsg::Full { idx, .. }
        | PageMsg::Checksum { idx, .. }
        | PageMsg::DedupRef { idx, .. }
        | PageMsg::Zero { idx }) = *msg;
        let (at, pages) = (idx.as_usize(), table.len());
        if at >= pages {
            return Err(format!("page index {at} beyond guest size {pages}"));
        }
        mem[at] = match msg {
            PageMsg::Full { digest, bytes, .. } => (bytes.clone().unwrap(), *digest),
            PageMsg::Zero { .. } => (PageBuf::zero_page(), PageDigest::ZERO_PAGE),
            PageMsg::Checksum { digest, .. } if mem[at].1 == *digest => mem[at].clone(),
            PageMsg::Checksum { digest, .. } => match table.iter().position(|d| d == digest) {
                Some(first) => {
                    *relocated += 1;
                    (page(first), *digest)
                }
                None => return Err(format!("checksum for {idx} not found in checkpoint index")),
            },
            PageMsg::DedupRef { source, .. } => match first.get(source.as_usize()) {
                Some(Some(held)) => Clone::clone(held),
                Some(None) => return Err(format!("unwritten dedup source {source}")),
                None => return Err(format!("dedup reference {source} out of range")),
            },
        };
        first[at].get_or_insert_with(|| mem[at].clone());
    }
    Ok(mem)
}

/// The merge agrees with the naive Listing 1 on random transcripts —
/// full pages, checksums present and absent, dedup references (in a
/// faulty case to unwritten pages) and zero markers, some past the
/// guest — over small checkpoints whose
/// duplicate contents sit in distinct buffers: on success every page
/// holds the very buffer the naive merge put there (for a relocated
/// page, the first checkpoint page carrying its digest) under the same
/// digest; on failure the message is the same.
#[test]
fn the_merge_matches_a_naive_listing_1() {
    let (mut merged, mut relocated, mut failed) = (0, 0, BTreeMap::new());
    for case in 0..512 {
        let mut rng = Xorshift::new(split(10, case));
        let (pages, contents) = (1 + rng.below(24), 1 + rng.below(6));
        let mut resident = ByteMemory::zeroed(PageCount::new(pages));
        for i in 0..pages {
            let content = PageContent::ContentId(rng.below(contents + 1));
            resident.write_page(PageIndex::new(i), content);
        }
        let cp = Checkpoint::capture_bytes(VmId::new(0), SimTime::EPOCH, &resident);
        // Contents the checkpoint lacks. One case in four may send a
        // checksum of one, or point past the guest.
        let pool = ByteMemory::with_distinct_content(PageCount::new(4), case);
        let faulty = rng.below(4) == 0;
        let page = |rng: &mut Xorshift| match faulty && rng.below(16) == 0 {
            true => PageIndex::new(pages + rng.below(2)),
            false => PageIndex::new(rng.below(pages)),
        };
        // A dedup source is a page already written, but in a faulty case.
        let mut written = Vec::new();
        let transcript: Transcript = (0..rng.below(3 * pages + 2))
            .map(|_| {
                let (idx, from) = (page(&mut rng), PageIndex::new(rng.below(4)));
                written.push(idx);
                match rng.below(8) {
                    0 | 1 => PageMsg::Full {
                        idx,
                        digest: pool.page_digest(from),
                        bytes: Some(pool.read_page(from).clone()),
                    },
                    2 if faulty => PageMsg::DedupRef {
                        idx,
                        source: page(&mut rng),
                    },
                    2 if written.len() > 1 => PageMsg::DedupRef {
                        idx,
                        source: written[rng.below(written.len() as u64 - 1) as usize],
                    },
                    3 => PageMsg::Zero { idx },
                    _ if faulty && rng.below(8) == 0 => PageMsg::Checksum {
                        idx,
                        digest: pool.page_digest(from),
                    },
                    _ => PageMsg::Checksum {
                        idx,
                        digest: cp.digest(PageIndex::new(rng.below(pages))),
                    },
                }
            })
            .collect();
        let naive = naive_listing_1(&cp, &transcript, &mut relocated);
        match (apply_transcript(&cp, &transcript), naive) {
            (Ok(rebuilt), Ok(naive)) => {
                merged += 1;
                for (i, (buf, digest)) in (0..).zip(&naive) {
                    let idx = PageIndex::new(i);
                    assert!(
                        rebuilt.read_page(idx).shares_with(buf),
                        "case {case}, page {i}"
                    );
                    assert_eq!(rebuilt.page_digest(idx), *digest, "case {case}, page {i}");
                }
            }
            (Err(vecycle::types::Error::Corrupt { detail }), Err(want)) => {
                assert_eq!(detail, want, "case {case}");
                *failed
                    .entry(want.split(' ').next().unwrap().to_owned())
                    .or_insert(0) += 1;
            }
            (got, want) => panic!("case {case}: merge {got:?}, naive {want:?}"),
        }
    }
    assert!(
        merged > 256 && relocated > 512,
        "{merged} merged, {relocated} relocated"
    );
    assert_eq!(failed.len(), 4, "every failure kind: {failed:?}");
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

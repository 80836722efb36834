//! The destination merge over both kinds of page cells, and the live
//! stream it merges.

use std::collections::BTreeSet;

use vecycle_checkpoint::Checkpoint;
use vecycle_core::{apply_transcript, Bytes as ByteCells, Merge, MigrationEngine, PageMsg};
use vecycle_core::{Strategy, Transcript};
use vecycle_mem::workload::GuestWorkload;
use vecycle_mem::{ByteMemory, Guest, MemoryImage, MutableMemory, PageContent};
use vecycle_net::LinkSpec;
use vecycle_types::rng::{split, Xorshift};
use vecycle_types::{Error, PageCount, PageIndex, SimDuration, SimTime, VmId};

/// In round 1 the guest copies page 0's content to page 5 and then
/// rewrites page 0, so round 2 resends page 0 in full and then page 5 as
/// a reference to page 0 — to what page 0 first carried. Resend rounds
/// carry their pages' bytes, and the flattened stream rebuilds the guest
/// over a blank checkpoint, page for page.
#[test]
fn a_reference_to_a_rewritten_page_means_its_first_content() {
    struct CopyThenRewrite(u64);
    impl GuestWorkload<ByteMemory> for CopyThenRewrite {
        fn advance(&mut self, guest: &mut Guest<ByteMemory>, _: SimDuration) {
            self.0 += 1;
            if self.0 == 1 {
                guest.relocate_page(PageIndex::new(0), PageIndex::new(5));
                guest.write_page(PageIndex::new(0), PageContent::ContentId(1 << 50));
            }
            // Two fresh pages a round keep the residue over budget.
            for idx in [10, 11] {
                let content = PageContent::ContentId((1 << 51) + 2 * self.0 + idx);
                guest.write_page(PageIndex::new(idx), content);
            }
        }
    }
    let pages = PageCount::new(64);
    let mut guest = Guest::new(ByteMemory::with_distinct_content(pages, 3));
    let engine = MigrationEngine::new(LinkSpec::lan_gigabit())
        .with_max_rounds(3)
        .with_max_downtime(SimDuration::from_nanos(50_000));
    let strategy = Strategy::full().with_dedup();
    let (report, lt) = engine
        .migrate_live_with_transcript(&mut guest, &mut CopyThenRewrite(0), strategy)
        .unwrap();
    assert_eq!(report.rounds().len(), 3);
    let (zero, five) = (PageIndex::new(0), PageIndex::new(5));
    let resent = |msg: &PageMsg| matches!(msg, PageMsg::Full { idx, .. } if *idx == zero);
    let at = lt.rounds[1].iter().position(resent).expect("page 0 resent");
    let reference = PageMsg::DedupRef {
        idx: five,
        source: zero,
    };
    assert!(
        lt.rounds[1][at..].contains(&reference),
        "{:?}",
        lt.rounds[1]
    );
    let flat: Transcript = (lt.rounds.iter().flatten().chain(&lt.stop_copy))
        .cloned()
        .collect();
    let blank = Checkpoint::capture_bytes(VmId::new(0), SimTime::EPOCH, &ByteMemory::zeroed(pages));
    let rebuilt = apply_transcript(&blank, &flat).unwrap();
    for i in 0..pages.as_u64() {
        let idx = PageIndex::new(i);
        assert_eq!(
            rebuilt.read_page(idx),
            guest.memory().read_page(idx),
            "page {i}"
        );
        assert_eq!(
            rebuilt.page_digest(idx),
            guest.memory().page_digest(idx),
            "page {i}"
        );
    }
}

/// Digest cells (the daemon's) and byte cells (`apply_transcript`'s)
/// merge one stream alike: over one checkpoint, seeded 1–3 round streams
/// of full pages, zero markers, checksums the checkpoint holds and lacks,
/// and references to rewritten, unwritten and out-of-range pages give
/// the same outcome — on failure the same message, on success the same
/// digest in every page and the same landed pages.
#[test]
fn digest_cells_and_byte_cells_agree() {
    let (mut merged, mut failed) = (0, BTreeSet::new());
    for case in 0..256 {
        let mut rng = Xorshift::new(split(11, case));
        let pages = 1 + rng.below(40);
        let mut resident = ByteMemory::zeroed(PageCount::new(pages));
        for i in 0..pages {
            let content = PageContent::ContentId(rng.below(6));
            resident.write_page(PageIndex::new(i), content);
        }
        let cp = Checkpoint::capture_bytes(VmId::new(0), SimTime::EPOCH, &resident);
        let pool = ByteMemory::with_distinct_content(PageCount::new(4), case);
        let hot: Vec<u64> = (0..1 + rng.below(3)).map(|_| rng.below(pages)).collect();
        // Mostly a few hot pages, so rewrites and references to them
        // recur; now and then any page, or one past the guest.
        let page = |rng: &mut Xorshift| match rng.below(256) {
            0 => pages + rng.below(2),
            1..=48 => rng.below(pages),
            _ => hot[rng.below(hot.len() as u64) as usize],
        };
        let (mut stream, mut written) = (Transcript::new(), vec![]);
        for _round in 0..1 + rng.below(3) {
            for _ in 0..rng.below(pages + 4) {
                let (idx, from) = (PageIndex::new(page(&mut rng)), PageIndex::new(rng.below(4)));
                // A reference names a page written before, but now and
                // then any page, or one past the guest.
                let source = match rng.below(16) {
                    0 => pages + rng.below(2),
                    1 => rng.below(pages),
                    _ => written
                        .get(rng.below(written.len().max(1) as u64) as usize)
                        .copied()
                        .unwrap_or(0),
                };
                written.push(idx.as_u64());
                stream.push(match rng.below(8) {
                    0..=2 => PageMsg::Full {
                        idx,
                        digest: pool.page_digest(from),
                        bytes: Some(pool.read_page(from).clone()),
                    },
                    3 => PageMsg::DedupRef {
                        idx,
                        source: PageIndex::new(source),
                    },
                    4 => PageMsg::Zero { idx },
                    _ if rng.below(32) == 0 => PageMsg::Checksum {
                        idx,
                        digest: pool.page_digest(from),
                    },
                    _ => PageMsg::Checksum {
                        idx,
                        digest: cp.digest(PageIndex::new(rng.below(pages))),
                    },
                });
            }
        }

        let (index, mut digest_merge) = (cp.build_index(), Merge::new(cp.digest_table().to_vec()));
        let mut offer = Some(&index);
        let by_digest =
            (stream.iter()).try_for_each(|msg| digest_merge.push(&msg.to_wire(), &mut offer));
        let mut same_landed = true;
        let by_bytes = ByteCells::merge(&cp, &stream).and_then(|(resolver, byte_merge)| {
            let landed = |at| byte_merge.is_landed(at) == digest_merge.is_landed(at);
            same_landed = (0..pages as usize).all(landed);
            resolver.finish(byte_merge)
        });
        match (by_digest, by_bytes) {
            (Ok(()), Ok(rebuilt)) => {
                merged += 1;
                assert!(same_landed, "case {case}");
                for (i, digest) in (0..).zip(digest_merge.cells()) {
                    let idx = PageIndex::new(i);
                    assert_eq!(rebuilt.page_digest(idx), *digest, "case {case}, page {i}");
                }
            }
            (Err(a), Err(Error::Corrupt { detail: b })) => {
                assert_eq!(a, b, "case {case}");
                failed.insert(a.split(' ').next().unwrap().to_owned());
            }
            (a, b) => panic!("case {case}: digest cells {a:?}, byte cells {b:?}"),
        }
    }
    assert!(merged > 128, "{merged} merged");
    assert_eq!(failed.len(), 4, "every failure kind: {failed:?}");
}

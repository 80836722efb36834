//! Property tests: the wire decoder is total — arbitrary bytes never
//! panic, they fail cleanly — and an index answers as its table says.

use std::collections::BTreeSet;

use vecycle_checkpoint::{Checkpoint, ChecksumIndex};
use vecycle_mem::DigestMemory;
use vecycle_types::rng::{split, Xorshift};
use vecycle_types::{PageDigest, SimTime, VmId};

/// Feeding garbage to the checkpoint decoder returns an error (never
/// panics, never fabricates a checkpoint).
#[test]
fn decoder_is_total_on_garbage() {
    for case in 0..256 {
        let mut rng = Xorshift::new(split(1, case));
        let len = rng.below(4096);
        let bytes: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        let _ = Checkpoint::read_from(&bytes[..]);
    }
}

/// A valid file with any suffix/truncation either round-trips
/// exactly or errors — never a silently different checkpoint.
#[test]
fn decoder_never_misreads() {
    for case in 0..256 {
        let mut rng = Xorshift::new(split(2, case));
        let len = 1 + rng.below(63);
        let mem = DigestMemory::from_digests(
            (0..len)
                .map(|_| PageDigest::from_content_id(rng.below(100)))
                .collect(),
        );
        let cp = Checkpoint::capture(VmId::new(1), SimTime::EPOCH, &mem);
        let mut buf = Vec::new();
        cp.write_to(&mut buf).unwrap();
        let cut = rng.next() as usize % (buf.len() + 1);
        if let Ok(decoded) = Checkpoint::read_from(&buf[..cut]) {
            assert_eq!(decoded, cp);
        }
    }
}

/// Index lookups agree with membership in the original digest list.
#[test]
fn index_matches_membership() {
    for case in 0..256 {
        let mut rng = Xorshift::new(split(3, case));
        let len = 1 + rng.below(127);
        let digests: Vec<PageDigest> = (0..len)
            .map(|_| PageDigest::from_content_id(rng.below(64)))
            .collect();
        let index = ChecksumIndex::from_pages(&digests);
        let d = PageDigest::from_content_id(rng.below(128));
        assert_eq!(index.contains(d), digests.contains(&d));
        if let Some(offset) = index.lookup(d) {
            assert_eq!(digests[offset.as_usize()], d);
            // First occurrence.
            assert!(digests[..offset.as_usize()].iter().all(|x| *x != d));
        }
    }
}

/// One index refilled over a run of tables — growing, shrinking, empty,
/// duplicate-heavy — answers every query after each refill exactly as an
/// index built fresh from that table: nothing of an earlier table
/// survives, and the room it kept changes no answer.
#[test]
fn a_refilled_index_equals_one_built_fresh() {
    let mut index = ChecksumIndex::default();
    for case in 0..64 {
        let mut rng = Xorshift::new(split(4, case));
        for _ in 0..8 {
            // Empty, small, or up to 2 048 pages; drawn from as few as
            // one content (duplicate-heavy) up to far more than pages.
            let len = match rng.below(4) {
                0 => 0,
                1 => rng.below(16),
                _ => rng.below(2_049),
            };
            let spread = 1 << rng.below(13);
            let contents = 1 + rng.below(spread);
            let table: Vec<PageDigest> = (0..len)
                .map(|_| PageDigest::from_content_id(rng.below(contents)))
                .collect();
            index.refill(table.len(), table.iter().copied());
            let fresh = ChecksumIndex::from_pages(&table);
            assert_eq!(index.total_pages(), fresh.total_pages());
            assert_eq!(index.distinct(), fresh.distinct());
            assert_eq!(index.wire_size(), fresh.wire_size());
            let set = |i: &ChecksumIndex| i.distinct_digests().collect::<BTreeSet<_>>();
            assert_eq!(set(&index), set(&fresh));
            // Every content this case can draw, and some it cannot.
            for id in 0..contents + 4 {
                let d = PageDigest::from_content_id(id);
                assert_eq!(index.lookup(d), fresh.lookup(d), "case {case}, id {id}");
                assert_eq!(index.contains(d), fresh.contains(d), "case {case}, id {id}");
            }
        }
    }
}

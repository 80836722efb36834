//! Property tests: the wire decoder is total — arbitrary bytes never
//! panic, they fail cleanly — and an index answers as its table says.

use std::collections::BTreeSet;

use vecycle_checkpoint::{Checkpoint, ChecksumIndex, PartialCheckpoint};
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

/// Index membership agrees with the original digest list, and a held
/// digest's rank is its place in the ascending list.
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
        if let Some(rank) = index.rank(d) {
            assert_eq!(index.distinct_digests().nth(rank), Some(d));
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
            index.refill(table.iter().copied());
            let fresh = ChecksumIndex::from_pages(&table);
            assert_eq!(index.total_pages(), fresh.total_pages());
            assert_eq!(index.distinct(), fresh.distinct());
            assert_eq!(index.wire_size(), fresh.wire_size());
            let set = |i: &ChecksumIndex| i.distinct_digests().collect::<BTreeSet<_>>();
            assert_eq!(set(&index), set(&fresh));
            // Every content this case can draw, and some it cannot.
            for id in 0..contents + 4 {
                let d = PageDigest::from_content_id(id);
                assert_eq!(index.rank(d), fresh.rank(d), "case {case}, id {id}");
                assert_eq!(index.contains(d), fresh.contains(d), "case {case}, id {id}");
            }
        }
    }
}

/// One of `contents` digests: the zero page, an ordinary content, or
/// (when `hostile`, or one draw in four) a digest whose leading 8 bytes
/// every such digest shares, so all of them fall in one bucket.
fn draw(rng: &mut Xorshift, contents: u64, hostile: bool) -> PageDigest {
    match rng.below(if hostile { 1 } else { 8 }) {
        0 | 1 => {
            let mut bytes = [0xa5; 16];
            bytes[8..].copy_from_slice(&rng.below(contents).to_be_bytes());
            PageDigest::new(bytes)
        }
        2 => PageDigest::ZERO_PAGE,
        _ => PageDigest::from_content_id(rng.below(contents)),
    }
}

/// `index` answers as the distinct-set model of `table` for every
/// digest of the table and every probe — held or not, and ranked by its
/// place among the model's digests in order — and lists them in order.
fn assert_matches_model(index: &ChecksumIndex, table: &[PageDigest], probes: &[PageDigest]) {
    let model: BTreeSet<PageDigest> = table.iter().copied().collect();
    assert_eq!(index.total_pages(), table.len() as u64);
    assert_eq!(index.distinct(), model.len());
    assert_eq!(index.wire_size().as_u64(), 16 * model.len() as u64);
    assert!(
        index.distinct_digests().eq(model.iter().copied()),
        "ascending"
    );
    for d in table.iter().chain(probes) {
        let rank = model.contains(d).then(|| model.range(..d).count());
        assert_eq!(index.rank(*d), rank, "{d}");
        assert_eq!(index.contains(*d), model.contains(d), "{d}");
    }
}

/// Every way to fill an index — built from a table, refilled in place
/// (growing and shrinking), refilled from a partial checkpoint plus an
/// older checkpoint, and pushed ascending as the exchange arrives —
/// agrees with the distinct-set model, on tables with duplicates, the
/// zero page and digests that all share their leading 8 bytes.
#[test]
fn every_fill_matches_the_distinct_set_model() {
    let mut index = ChecksumIndex::default();
    let mut pushed = ChecksumIndex::default();
    for case in 0..96 {
        let mut rng = Xorshift::new(split(5, case));
        let hostile = case % 4 == 0;
        let len = match rng.below(4) {
            0 => rng.below(3),
            1 => rng.below(40),
            _ => rng.below(3_000),
        };
        let spread = 1 << rng.below(13);
        let contents = 1 + rng.below(spread);
        let table: Vec<PageDigest> = (0..len)
            .map(|_| draw(&mut rng, contents, hostile))
            .collect();
        let probes: Vec<PageDigest> = (0..64)
            .map(|_| draw(&mut rng, contents + 64, hostile))
            .collect();
        assert_matches_model(&ChecksumIndex::from_pages(&table), &table, &probes);
        index.refill(table.iter().copied());
        assert_matches_model(&index, &table, &probes);

        // A partial checkpoint: some pages landed, then extra digests.
        let landed: Vec<Option<PageDigest>> = table
            .iter()
            .map(|&d| (rng.below(2) == 1).then_some(d))
            .collect();
        let extra: Vec<PageDigest> = (0..rng.below(50))
            .map(|_| draw(&mut rng, contents, hostile))
            .collect();
        let partial = PartialCheckpoint::new(VmId::new(1), landed.clone());
        partial.refill_index(&mut index, &extra);
        let merged: Vec<PageDigest> = landed.iter().flatten().chain(&extra).copied().collect();
        assert_matches_model(&index, &merged, &probes);

        // The source's side: the exchange, ascending, one digest a push.
        let distinct: BTreeSet<PageDigest> = table.iter().copied().collect();
        pushed.refill_ascending(distinct.len());
        assert!(distinct.iter().all(|&d| pushed.push_ascending(d)));
        let ordered: Vec<PageDigest> = distinct.into_iter().collect();
        assert_matches_model(&pushed, &ordered, &probes);
    }
}

/// The exchange's index takes a digest only above the last one and only
/// as many as it was sized for; a refused push changes nothing.
#[test]
fn push_ascending_refuses_order_repeats_and_overflow() {
    let mut d: Vec<PageDigest> = (1..=4).map(PageDigest::from_content_id).collect();
    d.sort_unstable();
    let mut index = ChecksumIndex::default();
    assert!(
        !index.push_ascending(d[0]),
        "an unsized index takes nothing"
    );
    index.refill_ascending(3);
    assert!(index.push_ascending(d[1]));
    assert!(!index.push_ascending(d[1]), "a repeat");
    assert!(!index.push_ascending(d[0]), "a smaller digest");
    assert!(index.push_ascending(d[2]) && index.push_ascending(d[3]));
    assert!(
        !index.push_ascending(PageDigest::new([0xff; 16])),
        "past its size"
    );
    assert_matches_model(&index, &d[1..], &d);
}

//! Property tests: trackers against reference models.

use std::collections::HashSet;

use vecycle_mem::{
    ByteMemory, DigestMemory, DirtyTracker, GenerationTable, Guest, MemoryImage, MutableMemory,
    PageContent,
};
use vecycle_types::rng::{split, Xorshift};
use vecycle_types::{PageCount, PageIndex};

const PAGES: u64 = 96;

/// 0..`max_len` page numbers below `PAGES`.
fn page_list(rng: &mut Xorshift, max_len: u64) -> Vec<u64> {
    let len = rng.below(max_len);
    (0..len).map(|_| rng.below(PAGES)).collect()
}

/// DirtyTracker behaves exactly like a sorted set of marked pages.
#[test]
fn dirty_tracker_matches_set_model() {
    for case in 0..128 {
        let marks = page_list(&mut Xorshift::new(split(1, case)), 300);
        let mut tracker = DirtyTracker::new(PageCount::new(PAGES));
        let mut model: HashSet<u64> = HashSet::new();
        for m in marks {
            tracker.mark(PageIndex::new(m));
            model.insert(m);
            assert!(tracker.is_dirty(PageIndex::new(m)));
        }
        assert_eq!(tracker.dirty_count().as_u64(), model.len() as u64);
        let mut expected: Vec<u64> = model.into_iter().collect();
        expected.sort_unstable();
        let drained: Vec<u64> = tracker.drain().into_iter().map(|p| p.as_u64()).collect();
        assert_eq!(drained, expected);
        assert_eq!(tracker.dirty_count().as_u64(), 0);
    }
}

/// A guest's dirty set and changed-content set coincide for
/// fresh-content writes (no recycling, no relocation).
#[test]
fn dirty_set_equals_diff_for_fresh_writes() {
    for case in 0..128 {
        let writes = page_list(&mut Xorshift::new(split(2, case)), 64);
        let mem = DigestMemory::with_distinct_content(PageCount::new(PAGES), 7);
        let snapshot = mem.snapshot();
        let mut guest = Guest::new(mem);
        for (i, w) in writes.iter().enumerate() {
            guest.write_page(
                PageIndex::new(*w),
                PageContent::ContentId((1 << 50) | i as u64),
            );
        }
        let diff = guest.memory().pages_differing_from(&snapshot);
        // Every changed page is dirty; a page rewritten repeatedly is
        // one dirty bit; a dirty page always differs because content is
        // always fresh.
        assert_eq!(guest.dirty().dirty_count(), diff);
    }
}

/// Generations count writes exactly.
#[test]
fn generation_counts_writes() {
    for case in 0..128 {
        let writes = page_list(&mut Xorshift::new(split(3, case)), 200);
        let mut table = GenerationTable::new(PageCount::new(PAGES));
        let mut counts = vec![0u64; PAGES as usize];
        for w in &writes {
            table.bump(PageIndex::new(*w));
            counts[*w as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert_eq!(table.generation(PageIndex::new(i as u64)).as_u64(), c);
        }
    }
}

/// Relocation never invents content: digests after any relocation
/// sequence are a subset of digests before.
#[test]
fn relocation_preserves_content_universe() {
    for case in 0..128 {
        let mut rng = Xorshift::new(split(4, case));
        let mut mem = DigestMemory::with_distinct_content(PageCount::new(PAGES), 9);
        let before: HashSet<_> = mem.digests().into_iter().collect();
        for _ in 0..rng.below(64) {
            let (src, dst) = (rng.below(PAGES), rng.below(PAGES));
            mem.relocate_page(PageIndex::new(src), PageIndex::new(dst));
        }
        for d in mem.digests() {
            assert!(before.contains(&d));
        }
    }
}

/// `ByteMemory` settles digests lazily and adopts digests it is
/// handed; whatever the interleaving of writes, relocations,
/// hand-overs, copies and reads, every digest it reports is the MD5
/// of the bytes it holds.
#[test]
fn byte_memory_digests_always_match_its_bytes() {
    for case in 0..128 {
        let mut rng = Xorshift::new(split(5, case));
        let pages = 24u64;
        let mut mem = ByteMemory::with_distinct_content(PageCount::new(pages), 5);
        for _ in 0..rng.below(120) {
            let op = rng.below(9);
            let (a, b) = (PageIndex::new(rng.below(24)), PageIndex::new(rng.below(24)));
            let id = rng.below(6);
            match op {
                0 => mem.write_page(a, PageContent::Bytes(&id.to_le_bytes()[..(id as usize)])),
                1 => mem.write_page(a, PageContent::ContentId(id)), // id 0: the zero page
                2 => mem.write_page(a, PageContent::Zero),
                3 | 4 => mem.relocate_page(a, b),
                5 => {
                    let page = PageContent::ContentId(id).materialize();
                    let digest = vecycle_hash::page_digest(&page);
                    mem.write_page_with_digest(a, page.into(), digest);
                }
                6 => assert_eq!(
                    mem.page_digest(a),
                    vecycle_hash::page_digest(mem.read_page(a))
                ),
                7 => assert_eq!(mem.digests().len() as u64, pages),
                _ => mem = mem.snapshot(),
            }
        }
        // Settle a copy through the batch path and the original through
        // the per-page path.
        let batched = mem.snapshot().digests();
        let walk: Vec<_> = (0..pages)
            .map(|i| mem.page_digest(PageIndex::new(i)))
            .collect();
        for (i, d) in walk.iter().enumerate() {
            let page = mem.read_page(PageIndex::new(i as u64));
            assert_eq!(*d, vecycle_hash::page_digest(page), "page {}", i);
        }
        assert_eq!(batched, walk);
    }
}

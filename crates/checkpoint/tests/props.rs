//! Property tests: the wire decoder is total — arbitrary bytes never
//! panic, they fail cleanly.

use proptest::collection::vec;
use proptest::prelude::*;

use vecycle_checkpoint::{Checkpoint, ChecksumIndex};
use vecycle_mem::DigestMemory;
use vecycle_types::{PageDigest, SimTime, VmId};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Feeding garbage to the checkpoint decoder returns an error (never
    /// panics, never fabricates a checkpoint).
    #[test]
    fn decoder_is_total_on_garbage(bytes in vec(any::<u8>(), 0..4096)) {
        let _ = Checkpoint::read_from(&bytes[..]);
    }

    /// A valid file with any suffix/truncation either round-trips
    /// exactly or errors — never a silently different checkpoint.
    #[test]
    fn decoder_never_misreads(ids in vec(0u64..100, 1..64), cut in any::<usize>()) {
        let mem = DigestMemory::from_digests(
            ids.iter().map(|&i| PageDigest::from_content_id(i)).collect(),
        );
        let cp = Checkpoint::capture(VmId::new(1), SimTime::EPOCH, &mem);
        let mut buf = Vec::new();
        cp.write_to(&mut buf).unwrap();
        let cut = cut % (buf.len() + 1);
        if let Ok(decoded) = Checkpoint::read_from(&buf[..cut]) {
            prop_assert_eq!(decoded, cp);
        }
    }

    /// Index lookups agree with membership in the original digest list.
    #[test]
    fn index_matches_membership(ids in vec(0u64..64, 1..128), probe in 0u64..128) {
        let digests: Vec<PageDigest> =
            ids.iter().map(|&i| PageDigest::from_content_id(i)).collect();
        let index = ChecksumIndex::from_pages(&digests);
        let d = PageDigest::from_content_id(probe);
        prop_assert_eq!(index.contains(d), digests.contains(&d));
        if let Some(offset) = index.lookup(d) {
            prop_assert_eq!(digests[offset.as_usize()], d);
            // First occurrence.
            prop_assert!(digests[..offset.as_usize()].iter().all(|x| *x != d));
        }
    }
}

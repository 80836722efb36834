//! Round-trip and corruption properties of the checkpoint wire format.
//!
//! Three contracts, checked over generated inputs:
//!
//! 1. `write_to → read_from` is the identity for every checkpoint kind
//!    (digest-level and full-byte), including the empty and single-page
//!    edges and digests produced by every [`ChecksumAlgorithm`];
//! 2. flipping any *single bit* of a valid file yields
//!    [`Error::Corrupt`] — never a panic, never a silently different
//!    checkpoint (length check, FNV trailer and — for page files — the
//!    per-page digest table leave no blind spots);
//! 3. the decoder's error is equally clean when whole bytes are
//!    corrupted at random positions.

use vecycle_checkpoint::{Checkpoint, CheckpointData};
use vecycle_hash::ChecksumAlgorithm;
use vecycle_types::rng::{split, Xorshift};
use vecycle_types::{Error, PageDigest, SimDuration, SimTime, VmId};

fn encode(cp: &Checkpoint) -> Vec<u8> {
    let mut buf = Vec::new();
    cp.write_to(&mut buf).expect("writing to a Vec cannot fail");
    buf
}

fn digest_checkpoint(ids: &[u64], vm: u32, at_hours: u64) -> Checkpoint {
    let digests: Vec<PageDigest> = ids
        .iter()
        .map(|&i| PageDigest::from_content_id(i))
        .collect();
    Checkpoint::from_parts(
        VmId::new(vm),
        SimTime::EPOCH + SimDuration::from_hours(at_hours),
        CheckpointData::Digests(digests),
    )
    .expect("digest payloads are always valid")
}

fn page_checkpoint(pages: &[u8], vm: u32) -> Checkpoint {
    // Each input byte inflates to one 4 KiB page filled with it.
    let pages = pages.iter().map(|&b| vec![b; 4096].into()).collect();
    Checkpoint::from_parts(VmId::new(vm), SimTime::EPOCH, CheckpointData::Pages(pages))
        .expect("whole pages are always valid")
}

#[test]
fn empty_and_single_page_edges_round_trip() {
    for cp in [
        digest_checkpoint(&[], 0, 0),
        digest_checkpoint(&[7], 1, 1),
        page_checkpoint(&[], 2),
        page_checkpoint(&[0xab], 3),
    ] {
        let buf = encode(&cp);
        assert_eq!(Checkpoint::read_from(&buf[..]).unwrap(), cp);
    }
}

#[test]
fn every_checksum_algorithm_round_trips() {
    // Digests from all four algorithms are opaque 16-byte values to the
    // wire format; none may confuse the codec (an early XXH3 draft
    // produced all-zero digests for some inputs — exactly the kind of
    // value the zero-page special case could trip over).
    let page_a = [0x5au8; 4096];
    let page_b = [0x00u8; 4096];
    for alg in ChecksumAlgorithm::ALL {
        let digests = vec![
            alg.page_digest(&page_a),
            alg.page_digest(&page_b),
            PageDigest::ZERO_PAGE,
            alg.page_digest(&page_a),
        ];
        let cp = Checkpoint::from_parts(
            VmId::new(9),
            SimTime::EPOCH,
            CheckpointData::Digests(digests),
        )
        .unwrap();
        let buf = encode(&cp);
        assert_eq!(Checkpoint::read_from(&buf[..]).unwrap(), cp, "{alg:?}");
    }
}

#[test]
fn single_bit_flips_are_always_corrupt_exhaustively() {
    // Small checkpoints keep the exhaustive sweep cheap: every bit of
    // every byte, for both kinds.
    for cp in [
        digest_checkpoint(&[1, 2, 0, 2], 5, 3),
        page_checkpoint(&[0x11], 6),
    ] {
        let buf = encode(&cp);
        for i in 0..buf.len() {
            for bit in 0..8 {
                let mut flipped = buf.clone();
                flipped[i] ^= 1 << bit;
                match Checkpoint::read_from(&flipped[..]) {
                    Err(Error::Corrupt { .. }) => {}
                    Err(other) => panic!("bit {bit} of byte {i}: non-Corrupt error {other}"),
                    Ok(decoded) => panic!(
                        "bit {bit} of byte {i}: decoded silently to {:?} pages",
                        decoded.page_count()
                    ),
                }
            }
        }
    }
}

/// Digest checkpoints of arbitrary content and metadata round-trip.
#[test]
fn digest_round_trip() {
    for case in 0..192 {
        let mut rng = Xorshift::new(split(1, case));
        let len = rng.below(96);
        let ids: Vec<u64> = (0..len).map(|_| rng.next()).collect();
        let cp = digest_checkpoint(&ids, rng.next() as u32, rng.below(100_000));
        let buf = encode(&cp);
        assert_eq!(Checkpoint::read_from(&buf[..]).unwrap(), cp);
    }
}

/// Full-byte checkpoints round-trip.
#[test]
fn pages_round_trip() {
    for case in 0..192 {
        let mut rng = Xorshift::new(split(2, case));
        let len = rng.below(8);
        let fills: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        let cp = page_checkpoint(&fills, rng.next() as u32);
        let buf = encode(&cp);
        assert_eq!(Checkpoint::read_from(&buf[..]).unwrap(), cp);
    }
}

/// A single bit flip anywhere in a generated file is Corrupt.
#[test]
fn random_bit_flip_is_corrupt() {
    for case in 0..192 {
        let mut rng = Xorshift::new(split(3, case));
        let len = rng.below(64);
        let ids: Vec<u64> = (0..len).map(|_| rng.next()).collect();
        let buf = encode(&digest_checkpoint(&ids, 1, 0));
        let mut flipped = buf.clone();
        let i = rng.next() as usize % flipped.len();
        flipped[i] ^= 1 << rng.below(8);
        match Checkpoint::read_from(&flipped[..]) {
            Err(Error::Corrupt { .. }) => {}
            Err(other) => panic!("non-Corrupt error {other}"),
            Ok(_) => panic!("flipped file decoded"),
        }
    }
}

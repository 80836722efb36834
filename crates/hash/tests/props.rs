//! Property tests: streaming semantics of every hash, and the
//! multi-lane kernels pinned byte-equal to the scalar path.

use vecycle_hash::{ChecksumAlgorithm, Fnv1a64, Hasher, Md5, Sha1, Sha256};
use vecycle_types::rng::{split, Xorshift};
use vecycle_types::PageDigest;

fn chunked_digest<H: Hasher + Default>(data: &[u8], cuts: &[usize]) -> H::Output {
    let mut h = H::default();
    let mut start = 0;
    let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
    cuts.sort_unstable();
    for cut in cuts {
        if cut > start {
            h.update(&data[start..cut]);
            start = cut;
        }
    }
    h.update(&data[start..]);
    h.finalize()
}

/// `len` uniform bytes.
fn bytes(rng: &mut Xorshift, len: u64) -> Vec<u8> {
    (0..len).map(|_| rng.next() as u8).collect()
}

/// A message of 0..2048 bytes and 0..8 arbitrary cut points in it.
fn message_and_cuts(rng: &mut Xorshift) -> (Vec<u8>, Vec<usize>) {
    let len = rng.below(2048);
    let data = bytes(rng, len);
    let cuts = rng.below(8);
    (data, (0..cuts).map(|_| rng.next() as usize).collect())
}

#[test]
fn md5_chunking_is_transparent() {
    for case in 0..128 {
        let (data, cuts) = message_and_cuts(&mut Xorshift::new(split(1, case)));
        assert_eq!(chunked_digest::<Md5>(&data, &cuts), Md5::digest(&data));
    }
}

#[test]
fn sha1_chunking_is_transparent() {
    for case in 0..128 {
        let (data, cuts) = message_and_cuts(&mut Xorshift::new(split(2, case)));
        assert_eq!(chunked_digest::<Sha1>(&data, &cuts), Sha1::digest(&data));
    }
}

#[test]
fn sha256_chunking_is_transparent() {
    for case in 0..128 {
        let (data, cuts) = message_and_cuts(&mut Xorshift::new(split(3, case)));
        assert_eq!(
            chunked_digest::<Sha256>(&data, &cuts),
            Sha256::digest(&data)
        );
    }
}

#[test]
fn fnv_matches_reference_fold() {
    for case in 0..128 {
        let mut rng = Xorshift::new(split(4, case));
        let len = rng.below(512);
        let data = bytes(&mut rng, len);
        let expected = data.iter().fold(0xcbf2_9ce4_8422_2325u64, |acc, &b| {
            (acc ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        assert_eq!(u64::from_be_bytes(Fnv1a64::digest(&data)), expected);
    }
}

/// Single-byte perturbations always change the digest (for inputs
/// short enough that accidental collisions are unthinkable).
#[test]
fn md5_detects_single_byte_change() {
    for case in 0..128 {
        let mut rng = Xorshift::new(split(5, case));
        let len = 1 + rng.below(255);
        let data = bytes(&mut rng, len);
        let pos = rng.next() as usize % data.len();
        let delta = 1 + rng.below(255) as u8;
        let mut mutated = data.clone();
        mutated[pos] = mutated[pos].wrapping_add(delta);
        assert_ne!(Md5::digest(&data), Md5::digest(&mutated));
    }
}

/// The page-digest helper maps exactly the all-zero page to the
/// sentinel.
#[test]
fn zero_page_sentinel_is_exact() {
    for case in 0..128 {
        let data = bytes(&mut Xorshift::new(split(6, case)), 4096);
        let digest = vecycle_hash::page_digest(&data);
        let all_zero = data.iter().all(|&b| b == 0);
        assert_eq!(digest.is_zero_page(), all_zero);
    }
}

/// Same exactness for every configured algorithm, not just the MD5
/// free function (the zero-page divergence regression).
#[test]
fn algorithm_zero_sentinel_is_exact() {
    for case in 0..128 {
        let mut rng = Xorshift::new(split(7, case));
        let len = rng.below(4096);
        let data = bytes(&mut rng, len);
        let all_zero = data.iter().all(|&b| b == 0);
        for algo in ChecksumAlgorithm::ALL {
            assert_eq!(algo.page_digest(&data).is_zero_page(), all_zero);
        }
    }
}

/// The SWAR prefilter agrees with the per-byte walk at every length.
#[test]
fn swar_zero_check_matches_bytewise() {
    for case in 0..128 {
        let mut rng = Xorshift::new(split(8, case));
        let len = rng.below(200);
        let raw = bytes(&mut rng, len);
        // Bias toward zeros so both branches of the check are exercised.
        let data: Vec<u8> = raw.iter().map(|&b| if b < 240 { 0 } else { b }).collect();
        assert_eq!(
            vecycle_hash::is_all_zero(&data),
            data.iter().all(|&b| b == 0)
        );
    }
}

/// Differential pin: `digest_pages` (multi-lane front-end) is
/// byte-equal to the scalar per-page path for every algorithm, for
/// batch shapes covering zero/partial/full/multi-quad dispatch and
/// random page lengths (equal-length runs exercise the lane kernels;
/// ragged runs exercise the straggler fallback).
#[test]
fn multilane_batches_match_scalar() {
    for case in 0..128 {
        let mut rng = Xorshift::new(split(9, case));
        let count = rng.below(9);
        let raw_lens: Vec<u64> = (0..count).map(|_| rng.below(5000)).collect();
        let fill_len = rng.below(16);
        let fill = bytes(&mut rng, fill_len);
        let pages: Vec<Vec<u8>> = raw_lens
            .iter()
            .enumerate()
            .map(|(i, &raw)| {
                // 4-in-5 pages are uniform 4 KiB (the lane-kernel case);
                // the rest keep a random short length (the fallback case).
                let len = if raw % 5 < 4 { 4096 } else { raw % 700 };
                let seed = fill.get(i).copied().unwrap_or(0);
                // Mix of zero pages (seed 0) and patterned pages.
                (0..len)
                    .map(|j| seed.wrapping_mul((j % 251) as u8))
                    .collect()
            })
            .collect();
        let views: Vec<&[u8]> = pages.iter().map(Vec::as_slice).collect();
        for algo in ChecksumAlgorithm::ALL {
            let batch = algo.digest_pages(&views);
            let scalar: Vec<_> = views.iter().map(|p| algo.page_digest(p)).collect();
            assert_eq!(&batch, &scalar, "{}", algo);
        }
    }
}

/// Every batch length from nothing to two-and-a-half wide groups,
/// with zero pages and odd-length pages wherever the masks put them:
/// runs of every length form, so the 16-lane dispatch, the 4-lane
/// tail and the scalar tail are all reached, for every algorithm.
#[test]
fn every_batch_shape_matches_scalar() {
    for case in 0..128 {
        let mut rng = Xorshift::new(split(10, case));
        let (zeros, ragged, salt) = (rng.next(), rng.next(), rng.next() as u8);
        // Three-block pages keep the sweep cheap; the kernels are
        // length-generic and 4 KiB is covered above.
        let page = |i: usize| -> Vec<u8> {
            let len = if ragged >> i & 1 == 1 { 100 + i } else { 192 };
            let fill = if zeros >> i & 1 == 1 { 0 } else { salt | 1 };
            (0..len)
                .map(|j| fill.wrapping_mul((i + j % 251 + 1) as u8))
                .collect()
        };
        let pages: Vec<Vec<u8>> = (0..40).map(page).collect();
        let views: Vec<&[u8]> = pages.iter().map(Vec::as_slice).collect();
        for algo in ChecksumAlgorithm::ALL {
            let scalar: Vec<_> = views.iter().map(|p| algo.page_digest(p)).collect();
            for n in 0..=views.len() {
                assert_eq!(
                    &algo.digest_pages(&views[..n])[..],
                    &scalar[..n],
                    "{} x{}",
                    algo,
                    n
                );
                // ... and with the run starting anywhere.
                assert_eq!(
                    &algo.digest_pages(&views[40 - n..])[..],
                    &scalar[40 - n..],
                    "{} tail x{}",
                    algo,
                    n
                );
            }
        }
    }
}

/// The raw lane kernels match the streaming `Hasher` outputs for
/// arbitrary equal-length messages (including padding boundaries),
/// at both dispatch widths.
#[test]
fn lane_kernels_match_streaming_hashers() {
    for case in 0..128 {
        let mut rng = Xorshift::new(split(11, case));
        let len = rng.below(200);
        let seeds = bytes(&mut rng, 16);
        let msgs: Vec<Vec<u8>> = seeds
            .iter()
            .map(|&s| (0..len).map(|j| s.wrapping_add(j as u8)).collect())
            .collect();
        let wide: [&[u8]; 16] = std::array::from_fn(|lane| &msgs[lane][..]);
        let quad: [&[u8]; 4] = std::array::from_fn(|lane| wide[lane]);
        let md5 = vecycle_hash::md5_lanes(wide);
        for lane in 0..16 {
            assert_eq!(md5[lane], Md5::digest(&msgs[lane]));
        }
        let (md5, sha1, fnv) = (
            vecycle_hash::md5_lanes(quad),
            vecycle_hash::sha1_lanes(quad),
            vecycle_hash::fnv1a64_lanes(quad),
        );
        for lane in 0..4 {
            assert_eq!(md5[lane], Md5::digest(&msgs[lane]));
            assert_eq!(sha1[lane], Sha1::digest(&msgs[lane]));
            assert_eq!(fnv[lane], Fnv1a64::digest(&msgs[lane]));
        }
    }
}

/// A batch big enough to split across cores (on a one-core machine it
/// takes the one-thread path, which is what `taskset -c 0` in CI
/// runs): the public MD5 batch equals `page_digest` per page, with
/// zero pages wherever the draw puts them and one odd-length
/// straggler anywhere in the batch.
#[test]
fn a_split_sized_batch_matches_page_digest() {
    for case in 0..8 {
        let mut rng = Xorshift::new(split(12, case));
        let len = 1024 + rng.below(176) as usize;
        let zero_share = rng.below(64) as u8;
        let straggler_at = rng.next() as usize % len;
        let salt = rng.next() as u8;
        let pages: Vec<Vec<u8>> = (0..len)
            .map(|i| {
                let size = if i == straggler_at { 333 } else { 512 };
                let fill = (i as u8).wrapping_mul(salt | 1);
                if i != straggler_at && fill % 64 < zero_share {
                    vec![0; size]
                } else {
                    (0..size).map(|j| fill ^ (j as u8) | 1).collect()
                }
            })
            .collect();
        let views: Vec<&[u8]> = pages.iter().map(Vec::as_slice).collect();
        let per_page: Vec<_> = views.iter().map(|p| vecycle_hash::page_digest(p)).collect();
        assert_eq!(ChecksumAlgorithm::Md5.digest_pages(&views), per_page);
    }
}

/// `first_mismatch` reports the page a per-page walk finds first, for
/// batch lengths on both sides of the split threshold and its
/// multiples, with one wrong digest at every position — every thread
/// slice's first and last page among them, whatever the core count —
/// and a later second one that must not hide it, over zero pages and
/// ragged lengths; an agreeing batch reports nothing. The pages are
/// handed over as owned buffers, no view list.
#[test]
fn first_mismatch_matches_a_per_page_walk() {
    let pages: Vec<Vec<u8>> = (0..3 * 128 + 1usize)
        .map(|i| match i % 7 {
            0 => vec![0; 192],
            3 => vec![i as u8 | 1; 100 + i % 50],
            _ => (0..192).map(|j| (i * 7 + j) as u8 | 1).collect(),
        })
        .collect();
    let wrong = |d: PageDigest| {
        let mut bytes = *d.as_bytes();
        bytes[15] ^= 1;
        PageDigest::new(bytes)
    };
    for algo in ChecksumAlgorithm::ALL {
        let truth: Vec<PageDigest> = pages.iter().map(|p| algo.page_digest(p)).collect();
        for len in [0, 1, 127, 128, 255, 256, 257, 3 * 128 + 1] {
            let batch = &pages[..len];
            assert_eq!(
                algo.first_mismatch(batch, |i| truth[i]),
                None,
                "{algo} x{len}"
            );
            for bad in 0..len {
                let expected = |i: usize| match i == bad || (i > bad && i % 100 == 99) {
                    true => wrong(truth[i]),
                    false => truth[i],
                };
                let walk = (0..len).find(|&i| algo.page_digest(&batch[i]) != expected(i));
                assert_eq!(walk, Some(bad));
                assert_eq!(
                    algo.first_mismatch(batch, expected),
                    walk,
                    "{algo} x{len} bad {bad}"
                );
            }
        }
    }
}

/// `for_each_digest` hands every page's digest over exactly once, equal
/// to a per-page walk's, for batch lengths on both sides of the split
/// threshold and its multiples, over zero pages and ragged lengths.
#[test]
fn for_each_digest_matches_a_per_page_walk() {
    let pages: Vec<Vec<u8>> = (0..3 * 128 + 1usize)
        .map(|i| match i % 7 {
            0 => vec![0; 192],
            3 => vec![i as u8 | 1; 100 + i % 50],
            _ => (0..192).map(|j| (i * 7 + j) as u8 | 1).collect(),
        })
        .collect();
    for algo in ChecksumAlgorithm::ALL {
        for len in [0, 1, 127, 128, 255, 256, 257, 3 * 128 + 1] {
            let batch = &pages[..len];
            let cells: Vec<std::sync::OnceLock<PageDigest>> =
                (0..len).map(|_| std::sync::OnceLock::new()).collect();
            algo.for_each_digest(batch, |i, digest| {
                assert!(
                    cells[i].set(digest).is_ok(),
                    "{algo} x{len}: page {i} twice"
                );
            });
            for (i, cell) in cells.iter().enumerate() {
                let walk = algo.page_digest(&batch[i]);
                assert_eq!(cell.get(), Some(&walk), "{algo} x{len} page {i}");
            }
        }
    }
}

/// The RFC 1321 §A.5 test suite through each of the sixteen lane
/// positions, the other fifteen lanes hashing same-length filler.
#[test]
fn rfc_1321_vectors_hold_in_every_lane_position() {
    let suite: [(&[u8], &str); 7] = [
        (b"", "d41d8cd98f00b204e9800998ecf8427e"),
        (b"a", "0cc175b9c0f1b6a831c399e269772661"),
        (b"abc", "900150983cd24fb0d6963f7d28e17f72"),
        (b"message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
        (
            b"abcdefghijklmnopqrstuvwxyz",
            "c3fcd3d76192e4007dfb496cca67e13b",
        ),
        (
            b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
            "d174ab98d277d9f5a5611c2c9f419d9f",
        ),
        (
            b"12345678901234567890123456789012345678901234567890123456789012345678901234567890",
            "57edf4a22be3c955ac49da2e2107b67a",
        ),
    ];
    for (message, hex) in suite {
        let filler = vec![0x5au8; message.len()];
        for position in 0..16 {
            let mut lanes = [&filler[..]; 16];
            lanes[position] = message;
            for (lane, digest) in vecycle_hash::md5_lanes(lanes).iter().enumerate() {
                if lane == position {
                    assert_eq!(vecycle_hash::to_hex(digest), hex, "lane {lane}");
                } else {
                    assert_eq!(*digest, Md5::digest(&filler), "filler lane {lane}");
                }
            }
        }
    }
}

/// The padding edges — the last length whose padding fits one block,
/// the first that needs two, a full block less one byte, a full block —
/// sixteen lanes wide with every lane's content distinct.
#[test]
fn sixteen_lanes_agree_with_scalar_at_the_padding_edges() {
    for len in [55usize, 56, 63, 64, 119, 120] {
        let msgs: [Vec<u8>; 16] =
            std::array::from_fn(|lane| (0..len).map(|j| (lane * 31 + j) as u8).collect());
        let lanes: [&[u8]; 16] = std::array::from_fn(|lane| &msgs[lane][..]);
        for (lane, digest) in vecycle_hash::md5_lanes(lanes).iter().enumerate() {
            assert_eq!(*digest, Md5::digest(&msgs[lane]), "len {len} lane {lane}");
        }
    }
}

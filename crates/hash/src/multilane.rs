//! Multi-lane digest kernels: four independent messages per dispatch.
//!
//! MD5 and SHA-1 have a long serial dependency chain *within* one
//! message, so a single page can never saturate a superscalar core.
//! Hashing four pages at once sidesteps that: the compression state
//! becomes a `U32x4` (one 32-bit word per lane) and every round mixes
//! all four messages in lockstep — block-parallel message scheduling that
//! the compiler lowers to SSE/NEON vectors or, failing that, to four
//! interleaved scalar chains that fill the pipeline. FNV-1a has no block
//! structure; its four lanes are interleaved per byte-column to hide the
//! multiply latency.
//!
//! The kernels require equal-length messages within one dispatch (pages
//! are uniformly 4 KiB on the hot path); [`crate::digest_pages`] batches
//! arbitrary inputs, routing zero pages through the SWAR prefilter and
//! odd-sized stragglers through the scalar [`crate::Hasher`] path. Every lane is
//! bit-equal to the scalar implementation — `tests/props.rs` pins this
//! differentially for all algorithms and batch shapes.

use crate::{fnv, md5, sha1, ChecksumAlgorithm};
use vecycle_types::PageDigest;

/// Messages hashed per multi-lane dispatch.
pub const LANES: usize = 4;

/// Four 32-bit lanes advancing in lockstep.
///
/// Aligned to the 16-byte vector width so the compiler can keep lane
/// words in SIMD registers (SSE/NEON) instead of splitting loads.
#[derive(Debug, Clone, Copy)]
#[repr(align(16))]
struct U32x4([u32; 4]);

impl U32x4 {
    #[inline(always)]
    fn splat(v: u32) -> Self {
        U32x4([v; 4])
    }

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        U32x4([
            self.0[0].wrapping_add(o.0[0]),
            self.0[1].wrapping_add(o.0[1]),
            self.0[2].wrapping_add(o.0[2]),
            self.0[3].wrapping_add(o.0[3]),
        ])
    }

    #[inline(always)]
    fn xor(self, o: Self) -> Self {
        U32x4([
            self.0[0] ^ o.0[0],
            self.0[1] ^ o.0[1],
            self.0[2] ^ o.0[2],
            self.0[3] ^ o.0[3],
        ])
    }

    #[inline(always)]
    fn and(self, o: Self) -> Self {
        U32x4([
            self.0[0] & o.0[0],
            self.0[1] & o.0[1],
            self.0[2] & o.0[2],
            self.0[3] & o.0[3],
        ])
    }

    #[inline(always)]
    fn or(self, o: Self) -> Self {
        U32x4([
            self.0[0] | o.0[0],
            self.0[1] | o.0[1],
            self.0[2] | o.0[2],
            self.0[3] | o.0[3],
        ])
    }

    #[inline(always)]
    fn not(self) -> Self {
        U32x4([!self.0[0], !self.0[1], !self.0[2], !self.0[3]])
    }

    #[inline(always)]
    fn rotl(self, r: u32) -> Self {
        U32x4([
            self.0[0].rotate_left(r),
            self.0[1].rotate_left(r),
            self.0[2].rotate_left(r),
            self.0[3].rotate_left(r),
        ])
    }
}

/// Loads message words `0..16` of one 64-byte block from each lane,
/// little-endian (MD5's byte order).
#[inline(always)]
fn load_block_le(lanes: &[&[u8]; LANES], off: usize) -> [U32x4; 16] {
    let mut m = [U32x4::splat(0); 16];
    for (w, word) in m.iter_mut().enumerate() {
        let o = off + w * 4;
        *word = U32x4([
            u32::from_le_bytes(lanes[0][o..o + 4].try_into().expect("4 bytes")),
            u32::from_le_bytes(lanes[1][o..o + 4].try_into().expect("4 bytes")),
            u32::from_le_bytes(lanes[2][o..o + 4].try_into().expect("4 bytes")),
            u32::from_le_bytes(lanes[3][o..o + 4].try_into().expect("4 bytes")),
        ]);
    }
    m
}

/// Loads message words big-endian (the SHA byte order).
#[inline(always)]
fn load_block_be(lanes: &[&[u8]; LANES], off: usize) -> [U32x4; 16] {
    let mut m = [U32x4::splat(0); 16];
    for (w, word) in m.iter_mut().enumerate() {
        let o = off + w * 4;
        *word = U32x4([
            u32::from_be_bytes(lanes[0][o..o + 4].try_into().expect("4 bytes")),
            u32::from_be_bytes(lanes[1][o..o + 4].try_into().expect("4 bytes")),
            u32::from_be_bytes(lanes[2][o..o + 4].try_into().expect("4 bytes")),
            u32::from_be_bytes(lanes[3][o..o + 4].try_into().expect("4 bytes")),
        ]);
    }
    m
}

/// Merkle–Damgård tail: the sub-block remainder plus `0x80`, zero padding
/// and the 64-bit bit length. Returns the padded buffer and how many
/// 64-byte blocks it holds (1, or 2 when the remainder reaches into the
/// length field's slot).
fn build_tail(msg: &[u8], little_endian_length: bool) -> ([u8; 128], usize) {
    let rem = msg.len() % 64;
    let mut buf = [0u8; 128];
    buf[..rem].copy_from_slice(&msg[msg.len() - rem..]);
    buf[rem] = 0x80;
    let blocks = if rem < 56 { 1 } else { 2 };
    let bit_len = (msg.len() as u64).wrapping_mul(8);
    let end = blocks * 64;
    buf[end - 8..end].copy_from_slice(&if little_endian_length {
        bit_len.to_le_bytes()
    } else {
        bit_len.to_be_bytes()
    });
    (buf, blocks)
}

/// One MD5 compression over four lane blocks.
#[inline(always)]
fn md5_rounds(state: &mut [U32x4; 4], m: &[U32x4; 16]) {
    let [mut a, mut b, mut c, mut d] = *state;
    for i in 0..64 {
        let (f, g) = match i / 16 {
            0 => (b.and(c).or(b.not().and(d)), i),
            1 => (d.and(b).or(d.not().and(c)), (5 * i + 1) % 16),
            2 => (b.xor(c).xor(d), (3 * i + 5) % 16),
            _ => (c.xor(b.or(d.not())), (7 * i) % 16),
        };
        let tmp = d;
        d = c;
        c = b;
        b = b.add(
            a.add(f)
                .add(U32x4::splat(md5::K[i]))
                .add(m[g])
                .rotl(md5::S[i]),
        );
        a = tmp;
    }
    state[0] = state[0].add(a);
    state[1] = state[1].add(b);
    state[2] = state[2].add(c);
    state[3] = state[3].add(d);
}

/// MD5 of four equal-length messages.
///
/// # Panics
///
/// Panics (in debug builds) if the messages differ in length.
pub fn md5_x4(msgs: [&[u8]; LANES]) -> [[u8; 16]; LANES] {
    let len = msgs[0].len();
    debug_assert!(msgs.iter().all(|m| m.len() == len), "equal-length lanes");
    let mut state = [
        U32x4::splat(0x67452301),
        U32x4::splat(0xefcdab89),
        U32x4::splat(0x98badcfe),
        U32x4::splat(0x10325476),
    ];
    for block in 0..len / 64 {
        let m = load_block_le(&msgs, block * 64);
        md5_rounds(&mut state, &m);
    }
    let tails = msgs.map(|m| build_tail(m, true));
    for block in 0..tails[0].1 {
        let views: [&[u8]; LANES] = [&tails[0].0, &tails[1].0, &tails[2].0, &tails[3].0];
        let m = load_block_le(&views, block * 64);
        md5_rounds(&mut state, &m);
    }
    let mut out = [[0u8; 16]; LANES];
    for (lane, digest) in out.iter_mut().enumerate() {
        for (w, word) in state.iter().enumerate() {
            digest[w * 4..w * 4 + 4].copy_from_slice(&word.0[lane].to_le_bytes());
        }
    }
    out
}

/// One SHA-1 compression over four lane blocks.
#[inline(always)]
fn sha1_rounds(state: &mut [U32x4; 5], m: &[U32x4; 16]) {
    let mut w = [U32x4::splat(0); 80];
    w[..16].copy_from_slice(m);
    for i in 16..80 {
        w[i] = w[i - 3].xor(w[i - 8]).xor(w[i - 14]).xor(w[i - 16]).rotl(1);
    }
    let [mut a, mut b, mut c, mut d, mut e] = *state;
    for (i, &wi) in w.iter().enumerate() {
        let (f, k) = match i / 20 {
            0 => (b.and(c).or(b.not().and(d)), sha1::K[0]),
            1 => (b.xor(c).xor(d), sha1::K[1]),
            2 => (b.and(c).or(b.and(d)).or(c.and(d)), sha1::K[2]),
            _ => (b.xor(c).xor(d), sha1::K[3]),
        };
        let tmp = a.rotl(5).add(f).add(e).add(U32x4::splat(k)).add(wi);
        e = d;
        d = c;
        c = b.rotl(30);
        b = a;
        a = tmp;
    }
    state[0] = state[0].add(a);
    state[1] = state[1].add(b);
    state[2] = state[2].add(c);
    state[3] = state[3].add(d);
    state[4] = state[4].add(e);
}

/// SHA-1 of four equal-length messages.
///
/// # Panics
///
/// Panics (in debug builds) if the messages differ in length.
pub fn sha1_x4(msgs: [&[u8]; LANES]) -> [[u8; 20]; LANES] {
    let len = msgs[0].len();
    debug_assert!(msgs.iter().all(|m| m.len() == len), "equal-length lanes");
    let mut state = [
        U32x4::splat(0x67452301),
        U32x4::splat(0xefcdab89),
        U32x4::splat(0x98badcfe),
        U32x4::splat(0x10325476),
        U32x4::splat(0xc3d2e1f0),
    ];
    for block in 0..len / 64 {
        let m = load_block_be(&msgs, block * 64);
        sha1_rounds(&mut state, &m);
    }
    let tails = msgs.map(|m| build_tail(m, false));
    for block in 0..tails[0].1 {
        let views: [&[u8]; LANES] = [&tails[0].0, &tails[1].0, &tails[2].0, &tails[3].0];
        let m = load_block_be(&views, block * 64);
        sha1_rounds(&mut state, &m);
    }
    let mut out = [[0u8; 20]; LANES];
    for (lane, digest) in out.iter_mut().enumerate() {
        for (w, word) in state.iter().enumerate() {
            digest[w * 4..w * 4 + 4].copy_from_slice(&word.0[lane].to_be_bytes());
        }
    }
    out
}

/// FNV-1a 64 of four equal-length messages, lanes interleaved per
/// byte-column so the four multiply chains overlap in the pipeline.
///
/// # Panics
///
/// Panics (in debug builds) if the messages differ in length.
pub fn fnv1a64_x4(msgs: [&[u8]; LANES]) -> [[u8; 8]; LANES] {
    let len = msgs[0].len();
    debug_assert!(msgs.iter().all(|m| m.len() == len), "equal-length lanes");
    let mut s = [fnv::OFFSET_BASIS; LANES];
    for (((&b0, &b1), &b2), &b3) in msgs[0]
        .iter()
        .zip(msgs[1].iter())
        .zip(msgs[2].iter())
        .zip(msgs[3].iter())
    {
        s[0] = (s[0] ^ u64::from(b0)).wrapping_mul(fnv::PRIME);
        s[1] = (s[1] ^ u64::from(b1)).wrapping_mul(fnv::PRIME);
        s[2] = (s[2] ^ u64::from(b2)).wrapping_mul(fnv::PRIME);
        s[3] = (s[3] ^ u64::from(b3)).wrapping_mul(fnv::PRIME);
    }
    [
        s[0].to_be_bytes(),
        s[1].to_be_bytes(),
        s[2].to_be_bytes(),
        s[3].to_be_bytes(),
    ]
}

/// Dispatches one gathered quad through the lane kernel for `algo`,
/// writing each lane's [`PageDigest`] to its page's output slot.
fn dispatch_quad(
    algo: ChecksumAlgorithm,
    pages: &[&[u8]],
    quad: &[usize; LANES],
    out: &mut [PageDigest],
) {
    let lanes: [&[u8]; LANES] = [
        pages[quad[0]],
        pages[quad[1]],
        pages[quad[2]],
        pages[quad[3]],
    ];
    match algo {
        ChecksumAlgorithm::Md5 => {
            for (lane, d) in md5_x4(lanes).into_iter().enumerate() {
                out[quad[lane]] = PageDigest::new(d);
            }
        }
        ChecksumAlgorithm::Sha1 => {
            for (lane, d) in sha1_x4(lanes).into_iter().enumerate() {
                out[quad[lane]] = crate::truncate_to_digest(&d);
            }
        }
        // No SHA-256 lane kernel: without wider vectors than the SSE2
        // baseline it measured slower than the scalar loop (0.87×).
        ChecksumAlgorithm::Sha256 => {
            for &i in quad {
                out[i] = algo.page_digest(pages[i]);
            }
        }
        ChecksumAlgorithm::Fnv1a => {
            for (lane, d) in fnv1a64_x4(lanes).into_iter().enumerate() {
                out[quad[lane]] = crate::fnv_widen(d, lanes[lane]);
            }
        }
    }
}

/// Digests a batch of pages with `algo`, four lanes per dispatch.
///
/// Bit-equal to calling [`ChecksumAlgorithm::page_digest`] per page:
/// all-zero pages map to [`PageDigest::ZERO_PAGE`] via the SWAR
/// prefilter, full quads of equal-length non-zero pages go through the
/// multi-lane kernels, and stragglers (a trailing partial quad, or pages
/// whose length breaks a run) fall back to the scalar path.
pub(crate) fn digest_pages(algo: ChecksumAlgorithm, pages: &[&[u8]]) -> Vec<PageDigest> {
    let mut out = vec![PageDigest::ZERO_PAGE; pages.len()];
    let mut quad = [0usize; LANES];
    let mut gathered = 0usize;
    for (i, page) in pages.iter().enumerate() {
        if crate::is_all_zero(page) {
            continue; // slot already holds the sentinel
        }
        if gathered > 0 && pages[quad[0]].len() != page.len() {
            for &straggler in &quad[..gathered] {
                out[straggler] = algo.page_digest(pages[straggler]);
            }
            gathered = 0;
        }
        quad[gathered] = i;
        gathered += 1;
        if gathered == LANES {
            dispatch_quad(algo, pages, &quad, &mut out);
            gathered = 0;
        }
    }
    for &straggler in &quad[..gathered] {
        out[straggler] = algo.page_digest(pages[straggler]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Hasher, Md5, Sha1};

    #[test]
    fn md5_lanes_match_scalar() {
        let msgs: Vec<Vec<u8>> = (0..4u8).map(|k| vec![k; 4096]).collect();
        let lanes = md5_x4([&msgs[0], &msgs[1], &msgs[2], &msgs[3]]);
        for (lane, msg) in lanes.iter().zip(&msgs) {
            assert_eq!(*lane, Md5::digest(msg));
        }
    }

    #[test]
    fn sha_lanes_match_scalar_at_padding_boundaries() {
        for len in [0usize, 1, 55, 56, 57, 63, 64, 65, 119, 120, 128, 4096] {
            let msgs: Vec<Vec<u8>> = (1..=4u8).map(|k| vec![k.wrapping_mul(37); len]).collect();
            let views = [
                msgs[0].as_slice(),
                msgs[1].as_slice(),
                msgs[2].as_slice(),
                msgs[3].as_slice(),
            ];
            for (lane, msg) in sha1_x4(views).iter().zip(&msgs) {
                assert_eq!(*lane, Sha1::digest(msg), "sha1 len {len}");
            }
            for (lane, msg) in md5_x4(views).iter().zip(&msgs) {
                assert_eq!(*lane, Md5::digest(msg), "md5 len {len}");
            }
        }
    }

    #[test]
    fn fnv_lanes_match_scalar() {
        let msgs: Vec<Vec<u8>> = (0..4u8).map(|k| vec![k.wrapping_add(9); 777]).collect();
        let lanes = fnv1a64_x4([&msgs[0], &msgs[1], &msgs[2], &msgs[3]]);
        for (lane, msg) in lanes.iter().zip(&msgs) {
            assert_eq!(*lane, crate::Fnv1a64::digest(msg));
        }
    }

    #[test]
    fn digest_pages_mixes_zero_and_ragged_lengths() {
        let zero = vec![0u8; 4096];
        let a = vec![1u8; 4096];
        let b = vec![2u8; 4096];
        let short = vec![3u8; 100];
        let pages: Vec<&[u8]> = vec![&a, &zero, &b, &short, &a, &b, &a];
        for algo in ChecksumAlgorithm::ALL {
            let batch = digest_pages(algo, &pages);
            let scalar: Vec<_> = pages.iter().map(|p| algo.page_digest(p)).collect();
            assert_eq!(batch, scalar, "{algo}");
        }
    }
}

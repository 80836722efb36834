//! Multi-lane digest kernels: `N` independent messages per dispatch.
//!
//! MD5 and SHA-1 have a long serial dependency chain *within* one
//! message, so a single page can never saturate a superscalar core.
//! Hashing several pages at once sidesteps that: the compression state
//! becomes a `Lanes<N>` (one 32-bit word per lane) and every round mixes
//! all `N` messages in lockstep — block-parallel message scheduling that
//! the compiler lowers to SSE/NEON vectors or, failing that, to `N`
//! interleaved scalar chains that fill the pipeline. FNV-1a has no block
//! structure; its lanes are interleaved per byte-column to hide the
//! multiply latency.
//!
//! There is one portable implementation, generic over the lane count and
//! instantiated at the widths [`ChecksumAlgorithm::digest_pages`] and
//! [`ChecksumAlgorithm::first_mismatch`] dispatch: MD5 runs [`WIDE`]
//! lanes with [`QUAD`]-lane and scalar tails; SHA-1 and FNV-1a run
//! [`QUAD`] lanes (DESIGN.md §13.1 has the measurements).
//!
//! The kernels require equal-length messages within one dispatch (pages
//! are uniformly 4 KiB on the hot path); the two batch entry points take
//! arbitrary inputs, routing zero pages through the SWAR prefilter and
//! odd-sized stragglers through the scalar [`crate::Hasher`] path. A
//! batch of a few hundred pages or more is also cut into contiguous
//! [`WIDE`]-aligned slices, one per core, hashed on scoped threads that
//! each touch only their own output slots or compare in place. Every lane is bit-equal to
//! the scalar implementation, at every slice count — this module's tests
//! and `tests/props.rs` pin it differentially for all algorithms and
//! batch shapes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

use crate::{fnv, md5, sha1, ChecksumAlgorithm};
use vecycle_types::PageDigest;

/// Messages per wide dispatch: what an MD5 batch is gathered into.
pub(crate) const WIDE: usize = 16;
/// Messages per narrow dispatch: the tail of an MD5 batch, and every
/// SHA-1 and FNV-1a dispatch.
pub(crate) const QUAD: usize = 4;

/// `N` 32-bit lanes advancing in lockstep.
///
/// Aligned to the 16-byte vector width so the compiler can keep lane
/// words in SIMD registers (SSE/NEON) instead of splitting loads.
#[derive(Debug, Clone, Copy)]
#[repr(align(16))]
struct Lanes<const N: usize>([u32; N]);

impl<const N: usize> Lanes<N> {
    #[inline(always)]
    fn splat(v: u32) -> Self {
        Lanes([v; N])
    }

    /// Lane-wise `f`; the unary operations below pass `self` twice.
    #[inline(always)]
    fn zip(self, o: Self, f: impl Fn(u32, u32) -> u32) -> Self {
        let mut out = [0u32; N];
        for ((out, a), b) in out.iter_mut().zip(self.0).zip(o.0) {
            *out = f(a, b);
        }
        Lanes(out)
    }

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        self.zip(o, u32::wrapping_add)
    }

    #[inline(always)]
    fn xor(self, o: Self) -> Self {
        self.zip(o, |a, b| a ^ b)
    }

    #[inline(always)]
    fn and(self, o: Self) -> Self {
        self.zip(o, |a, b| a & b)
    }

    #[inline(always)]
    fn or(self, o: Self) -> Self {
        self.zip(o, |a, b| a | b)
    }

    #[inline(always)]
    fn not(self) -> Self {
        self.zip(self, |a, _| !a)
    }

    /// Rotates every lane left by `r` (`0..32`), spelled as two plain
    /// shifts the compiler does not fuse back into a rotate: the
    /// baseline vector ISAs shift all lanes by one run-time count in an
    /// instruction but have no rotate, and a fused rotate by a run-time
    /// count lowers to a shuffle sequence twice as long.
    #[inline(always)]
    fn rotl(self, r: u32) -> Self {
        self.zip(self, |a, _| (a << r) | (a >> 1 >> (31 - r)))
    }
}

/// A Merkle–Damgård compression function over `N` lanes of `W` state
/// words each.
trait LaneHash<const N: usize, const W: usize> {
    /// Byte order of message words, the length field and the digest.
    const LITTLE_ENDIAN: bool;
    const INIT: [u32; W];

    /// One compression over `N` lane blocks.
    fn rounds(state: &mut [Lanes<N>; W], m: &[Lanes<N>; 16]);
}

/// Loads message words `0..16` of one 64-byte block from each lane.
#[inline(always)]
fn load_block<const N: usize>(lanes: &[&[u8]; N], off: usize, le: bool) -> [Lanes<N>; 16] {
    let mut m = [Lanes::splat(0); 16];
    for (w, out) in m.iter_mut().enumerate() {
        let o = off + w * 4;
        for (lane, msg) in out.0.iter_mut().zip(lanes) {
            let word = msg[o..o + 4].try_into().expect("4 bytes");
            *lane = if le {
                u32::from_le_bytes(word)
            } else {
                u32::from_be_bytes(word)
            };
        }
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

/// `H` of `N` equal-length messages: every whole block, then the padded
/// tail, then the lane state transposed into one `D`-byte digest each.
#[inline(always)]
fn digest_lanes<H: LaneHash<N, W>, const N: usize, const W: usize, const D: usize>(
    msgs: [&[u8]; N],
) -> [[u8; D]; N] {
    let (len, le) = (msgs[0].len(), H::LITTLE_ENDIAN);
    debug_assert!(msgs.iter().all(|m| m.len() == len), "equal-length lanes");
    let mut state = H::INIT.map(Lanes::splat);
    for block in 0..len / 64 {
        H::rounds(&mut state, &load_block(&msgs, block * 64, le));
    }
    let tails = msgs.map(|m| build_tail(m, le));
    let views: [&[u8]; N] = std::array::from_fn(|lane| &tails[lane].0[..]);
    for block in 0..tails[0].1 {
        H::rounds(&mut state, &load_block(&views, block * 64, le));
    }
    let mut out = [[0u8; D]; N];
    for (lane, digest) in out.iter_mut().enumerate() {
        for (w, words) in state.iter().enumerate() {
            digest[w * 4..w * 4 + 4].copy_from_slice(&if le {
                words.0[lane].to_le_bytes()
            } else {
                words.0[lane].to_be_bytes()
            });
        }
    }
    out
}

struct Md5Lanes;

impl<const N: usize> LaneHash<N, 4> for Md5Lanes {
    const LITTLE_ENDIAN: bool = true;
    const INIT: [u32; 4] = md5::INIT;

    #[inline(always)]
    fn rounds(state: &mut [Lanes<N>; 4], m: &[Lanes<N>; 16]) {
        /// Step `i` of RFC 1321 §3.4: `a = b + ((a + f(b, c, d) + m[g] + K[i]) <<< S[i])`.
        #[inline(always)]
        fn step<const N: usize>(
            a: &mut Lanes<N>,
            [b, c, d]: [Lanes<N>; 3],
            m: &[Lanes<N>; 16],
            i: usize,
        ) {
            let (f, g) = match i / 16 {
                0 => (b.and(c).or(b.not().and(d)), i),
                1 => (d.and(b).or(d.not().and(c)), (5 * i + 1) % 16),
                2 => (b.xor(c).xor(d), (3 * i + 5) % 16),
                _ => (c.xor(b.or(d.not())), (7 * i) % 16),
            };
            let sum = a.add(f).add(Lanes::splat(md5::K[i])).add(m[g]);
            *a = b.add(sum.rotl(md5::S[i]));
        }
        let [mut a, mut b, mut c, mut d] = *state;
        // Four steps a turn, the roles of a, b, c, d rotating through
        // the argument order instead of through register moves.
        for i in (0..64).step_by(4) {
            step(&mut a, [b, c, d], m, i);
            step(&mut d, [a, b, c], m, i + 1);
            step(&mut c, [d, a, b], m, i + 2);
            step(&mut b, [c, d, a], m, i + 3);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d]) {
            *s = s.add(v);
        }
    }
}

/// MD5 of `N` equal-length messages.
///
/// Never inlined, like [`sha1_lanes`]: how well the lanes vectorise
/// depends on what surrounds them, and a kernel compiled on its own
/// compiles the same for every caller.
///
/// # Panics
///
/// Panics (in debug builds) if the messages differ in length.
#[inline(never)]
pub fn md5_lanes<const N: usize>(msgs: [&[u8]; N]) -> [[u8; 16]; N] {
    digest_lanes::<Md5Lanes, N, 4, 16>(msgs)
}

struct Sha1Lanes;

impl<const N: usize> LaneHash<N, 5> for Sha1Lanes {
    const LITTLE_ENDIAN: bool = false;
    const INIT: [u32; 5] = sha1::INIT;

    #[inline(always)]
    fn rounds(state: &mut [Lanes<N>; 5], m: &[Lanes<N>; 16]) {
        let mut w = [Lanes::splat(0); 80];
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
            let tmp = a.rotl(5).add(f).add(e).add(Lanes::splat(k)).add(wi);
            e = d;
            d = c;
            c = b.rotl(30);
            b = a;
            a = tmp;
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e]) {
            *s = s.add(v);
        }
    }
}

/// SHA-1 of `N` equal-length messages.
///
/// # Panics
///
/// Panics (in debug builds) if the messages differ in length.
#[inline(never)]
pub fn sha1_lanes<const N: usize>(msgs: [&[u8]; N]) -> [[u8; 20]; N] {
    digest_lanes::<Sha1Lanes, N, 5, 20>(msgs)
}

/// FNV-1a 64 of `N` equal-length messages, lanes interleaved per
/// byte-column so the multiply chains overlap in the pipeline.
///
/// # Panics
///
/// Panics (in debug builds) if the messages differ in length.
pub fn fnv1a64_lanes<const N: usize>(msgs: [&[u8]; N]) -> [[u8; 8]; N] {
    let len = msgs[0].len();
    debug_assert!(msgs.iter().all(|m| m.len() == len), "equal-length lanes");
    // Re-slicing every lane to one known length drops the bounds checks
    // from the column walk.
    let msgs = msgs.map(|m| &m[..len]);
    let mut s = [fnv::OFFSET_BASIS; N];
    for col in 0..len {
        for (h, msg) in s.iter_mut().zip(&msgs) {
            *h = (*h ^ u64::from(msg[col])).wrapping_mul(fnv::PRIME);
        }
    }
    s.map(u64::to_be_bytes)
}

/// Hashes one group of `N` equal-length pages through `algo`'s lane
/// kernel, handing each lane's [`PageDigest`] to `emit` with its page's
/// position.
fn dispatch<P: AsRef<[u8]>, const N: usize>(
    algo: ChecksumAlgorithm,
    pages: &[P],
    group: &[usize; N],
    emit: &mut impl FnMut(usize, PageDigest),
) {
    let lanes = group.map(|i| pages[i].as_ref());
    match algo {
        ChecksumAlgorithm::Md5 => {
            for (&i, d) in group.iter().zip(md5_lanes(lanes)) {
                emit(i, PageDigest::new(d));
            }
        }
        ChecksumAlgorithm::Sha1 => {
            for (&i, d) in group.iter().zip(sha1_lanes(lanes)) {
                emit(i, crate::truncate_to_digest(&d));
            }
        }
        // No SHA-256 lane kernel: without wider vectors than the SSE2
        // baseline it measured slower than the scalar loop (0.87×).
        ChecksumAlgorithm::Sha256 => {
            for (&i, page) in group.iter().zip(lanes) {
                emit(i, algo.page_digest(page));
            }
        }
        ChecksumAlgorithm::Fnv1a => {
            for ((&i, d), page) in group.iter().zip(fnv1a64_lanes(lanes)).zip(lanes) {
                emit(i, crate::fnv_widen(d, page));
            }
        }
    }
}

/// Hashes a gathered run of equal-length non-zero pages: one [`WIDE`]
/// group if it is MD5 and the run fills it, then [`QUAD`]s, then the
/// scalar path for what is left.
fn flush<P: AsRef<[u8]>>(
    algo: ChecksumAlgorithm,
    pages: &[P],
    mut run: &[usize],
    emit: &mut impl FnMut(usize, PageDigest),
) {
    if algo == ChecksumAlgorithm::Md5 {
        if let Some((wide, rest)) = run.split_first_chunk::<WIDE>() {
            dispatch(algo, pages, wide, emit);
            run = rest;
        }
    }
    while let Some((quad, rest)) = run.split_first_chunk::<QUAD>() {
        dispatch(algo, pages, quad, emit);
        run = rest;
    }
    for &straggler in run {
        emit(straggler, algo.page_digest(pages[straggler].as_ref()));
    }
}

/// Fewest pages worth a thread of their own. On a 2-vCPU AMD EPYC VM
/// (distinct 4 KiB pages, MD5, medians of many runs, split against one
/// core): 256 pages ran 370 → 204 µs (×1.8), 512 pages ×1.9 and 2 048
/// pages 3.09 → 1.57 ms (×2.0). A spawn and join cost ≈ 15 µs of CPU;
/// 128 pages (≈ 180 µs of hashing) keeps that under a tenth of the
/// slice, where 32 pages a thread would still win wall-clock (64 pages
/// ×1.5) at a third more CPU.
const MIN_PAGES_PER_THREAD: usize = 128;

/// The cores a batch may spread over, read once.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, usize::from))
}

/// The slices a batch of `len` pages is hashed in: one, unless it holds
/// at least two [`MIN_PAGES_PER_THREAD`] slices, then up to one a core.
pub(crate) fn parts_for(len: usize) -> usize {
    match len / MIN_PAGES_PER_THREAD {
        0 | 1 => 1,
        fit => fit.min(cores()),
    }
}

/// Digests a batch of pages with `algo` over `parts` slices ([`split`]),
/// each writing only its own output slots: bit-equal to
/// [`ChecksumAlgorithm::page_digest`] per page whatever `parts` is. One
/// slice allocates nothing but the vector returned.
pub(crate) fn digest_pages<P: AsRef<[u8]> + Sync>(
    algo: ChecksumAlgorithm,
    pages: &[P],
    parts: usize,
) -> Vec<PageDigest> {
    let mut out = vec![PageDigest::ZERO_PAGE; pages.len()];
    split(pages, &mut out, parts, |_, pages, out| {
        digest_each(algo, pages, |i, digest| out[i] = digest);
    });
    out
}

/// Hashes `pages` with `algo` as [`digest_pages`] does and hands each
/// digest to `emit` with its page's position, from whichever slice's
/// thread hashed it. No digest is kept, so nothing is allocated but the
/// threads' spawns.
pub(crate) fn for_each_digest<P: AsRef<[u8]> + Sync>(
    algo: ChecksumAlgorithm,
    pages: &[P],
    emit: impl Fn(usize, PageDigest) + Sync,
    parts: usize,
) {
    // Zero-sized output slots: the split's slicing, no allocation.
    let mut slots = vec![(); pages.len()];
    split(pages, &mut slots, parts, |start, pages, _| {
        digest_each(algo, pages, |i, digest| emit(start + i, digest));
    });
}

/// Hashes `pages` with `algo` as [`for_each_digest`] does and compares
/// each digest with `expected(i)`, `i` its position: the first that
/// differs, or `None`.
pub(crate) fn first_mismatch<P: AsRef<[u8]> + Sync>(
    algo: ChecksumAlgorithm,
    pages: &[P],
    expected: impl Fn(usize) -> PageDigest + Sync,
    parts: usize,
) -> Option<usize> {
    // `Relaxed` suffices: the scope joins every thread before the load.
    let first = AtomicUsize::new(usize::MAX);
    let compare = |i, digest| {
        if digest != expected(i) {
            first.fetch_min(i, Ordering::Relaxed);
        }
    };
    for_each_digest(algo, pages, compare, parts);
    Some(first.into_inner()).filter(|&at| at != usize::MAX)
}

/// Runs `work(start, pages, out)` over `parts` contiguous slices of
/// `pages`, cut to whole [`WIDE`] groups, each with the matching slice
/// of `out` and its offset in the batch: the first slice on the calling
/// thread, each other on a scoped thread of its own. A slice no thread
/// could be spawned for, and every slice after it, runs on the calling
/// thread once the scope has returned their `out` slices.
fn split<P: Sync, O: Send>(
    pages: &[P],
    out: &mut [O],
    parts: usize,
    work: impl Fn(usize, &[P], &mut [O]) + Sync,
) {
    if parts <= 1 {
        return work(0, pages, out);
    }
    let slice = pages.len().div_ceil(parts).next_multiple_of(WIDE).max(WIDE);
    let work = &work;
    let mut unspawned = None;
    thread::scope(|scope| {
        let mut slices = pages.chunks(slice).zip(out.chunks_mut(slice)).enumerate();
        let first = slices.next();
        for (k, (pages, out)) in slices {
            let worker =
                thread::Builder::new().spawn_scoped(scope, move || work(k * slice, pages, out));
            if worker.is_err() {
                unspawned = Some(k * slice);
                break;
            }
        }
        if let Some((_, (pages, out))) = first {
            work(0, pages, out);
        }
    });
    if let Some(start) = unspawned {
        work(start, &pages[start..], &mut out[start..]);
    }
}

/// Hands every page's digest to `emit` with the page's position, in no
/// particular order: an all-zero page (the SWAR prefilter) at once as
/// [`PageDigest::ZERO_PAGE`]; the others gathered, up to [`WIDE`] at a
/// time and for as long as their lengths agree, into a fixed array of
/// positions, each run through the lane kernels and its last few pages
/// through the scalar path. Allocates nothing.
fn digest_each<P: AsRef<[u8]>>(
    algo: ChecksumAlgorithm,
    pages: &[P],
    mut emit: impl FnMut(usize, PageDigest),
) {
    let mut run = [0usize; WIDE];
    let mut gathered = 0usize;
    for (i, page) in pages.iter().enumerate() {
        let page = page.as_ref();
        if crate::is_all_zero(page) {
            emit(i, PageDigest::ZERO_PAGE);
            continue;
        }
        if gathered > 0 && pages[run[0]].as_ref().len() != page.len() {
            flush(algo, pages, &run[..gathered], &mut emit);
            gathered = 0;
        }
        run[gathered] = i;
        gathered += 1;
        if gathered == WIDE {
            flush(algo, pages, &run, &mut emit);
            gathered = 0;
        }
    }
    flush(algo, pages, &run[..gathered], &mut emit);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Hasher, Md5, Sha1};

    fn filled<const N: usize>(len: usize) -> [Vec<u8>; N] {
        std::array::from_fn(|k| vec![(k as u8 + 1).wrapping_mul(37); len])
    }

    fn views<const N: usize>(msgs: &[Vec<u8>; N]) -> [&[u8]; N] {
        std::array::from_fn(|k| &msgs[k][..])
    }

    fn lanes_match_scalar_at<const N: usize>() {
        for len in [0usize, 1, 55, 56, 57, 63, 64, 65, 119, 120, 128, 777, 4096] {
            let msgs = filled::<N>(len);
            let views = views(&msgs);
            for (lane, msg) in md5_lanes(views).iter().zip(&msgs) {
                assert_eq!(*lane, Md5::digest(msg), "md5 x{N} len {len}");
            }
            for (lane, msg) in sha1_lanes(views).iter().zip(&msgs) {
                assert_eq!(*lane, Sha1::digest(msg), "sha1 x{N} len {len}");
            }
            for (lane, msg) in fnv1a64_lanes(views).iter().zip(&msgs) {
                assert_eq!(*lane, crate::Fnv1a64::digest(msg), "fnv x{N} len {len}");
            }
        }
    }

    #[test]
    fn lanes_match_scalar_at_padding_boundaries() {
        lanes_match_scalar_at::<1>();
        lanes_match_scalar_at::<QUAD>();
        lanes_match_scalar_at::<WIDE>();
    }

    /// Per-page scalar digests, the reference every batch must equal.
    fn scalar(algo: ChecksumAlgorithm, pages: &[&[u8]]) -> Vec<PageDigest> {
        pages.iter().map(|p| algo.page_digest(p)).collect()
    }

    /// Every slice starts at a multiple of [`WIDE`], so marking the first
    /// and last page of each 16-page group marks every slice's edges: a
    /// group's edges are, by `g % 3`, (zero, ragged), (ragged, zero) or
    /// (zero, zero). Zero pages do not break a run, so runs still fill
    /// wide groups across the (zero, zero) → (zero, ragged) seam.
    fn edge_marked_batch(len: usize) -> Vec<Vec<u8>> {
        (0..len)
            .map(|i| match (i / WIDE % 3, i % WIDE) {
                (0, 0) | (1, 15) | (2, 0) | (2, 15) => vec![0; 192],
                (0, 15) | (1, 0) => vec![i as u8 | 1; 100 + i % 50],
                _ => (0..192).map(|j| (i * 7 + j) as u8 | 1).collect(),
            })
            .collect()
    }

    #[test]
    fn every_split_matches_scalar_with_odd_pages_on_slice_edges() {
        for parts in 1..=8 {
            for len in [parts * WIDE * 2 + 7, parts * WIDE * 4, parts * WIDE - 1] {
                let pages = edge_marked_batch(len);
                let views: Vec<&[u8]> = pages.iter().map(Vec::as_slice).collect();
                for algo in ChecksumAlgorithm::ALL {
                    let truth = scalar(algo, &views);
                    assert_eq!(
                        digest_pages(algo, &views, parts),
                        truth,
                        "{algo} len {len} parts {parts}"
                    );
                    // A wrong digest on each group's edge is the first
                    // mismatch, whichever slice it falls in.
                    let edges = (0..len).filter(|i| i % WIDE == 0 || i % WIDE == WIDE - 1);
                    for bad in edges {
                        let expected = |i: usize| match i == bad {
                            true => PageDigest::new([0xa5; 16]),
                            false => truth[i],
                        };
                        assert_eq!(
                            first_mismatch(algo, &pages, expected, parts),
                            Some(bad),
                            "{algo} len {len} parts {parts} bad {bad}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batch_lengths_around_the_split_threshold_match_scalar() {
        let mut lens = vec![0, 1, WIDE - 1];
        for k in 1..=3 {
            lens.extend([MIN_PAGES_PER_THREAD * k - 1, MIN_PAGES_PER_THREAD * k + 1]);
        }
        let pages = edge_marked_batch(MIN_PAGES_PER_THREAD * 3 + 1);
        let views: Vec<&[u8]> = pages.iter().map(Vec::as_slice).collect();
        for algo in ChecksumAlgorithm::ALL {
            let reference = scalar(algo, &views);
            for &len in &lens {
                let batch = &views[..len];
                assert_eq!(algo.digest_pages(batch), reference[..len], "{algo} x{len}");
                for parts in 2..=4 {
                    assert_eq!(
                        digest_pages(algo, batch, parts),
                        reference[..len],
                        "{algo} x{len} parts {parts}"
                    );
                }
            }
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
            assert_eq!(algo.digest_pages(&pages), scalar(algo, &pages), "{algo}");
        }
    }
}

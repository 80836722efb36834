//! Checksum algorithms for content-based redundancy elimination.
//!
//! The VeCycle prototype identifies reusable pages by *content checksum*:
//! the source computes one MD5 digest per 4 KiB page and only transfers
//! pages whose digest is unknown at the destination (§3.2 of the paper).
//! This crate provides the digest algorithms, implemented from scratch:
//!
//! * [`Md5`] — the paper's default (RFC 1321).
//! * [`Sha1`] / [`Sha256`] — the stronger alternatives §3.4 suggests.
//! * [`Fnv1a64`] — a cheap non-cryptographic hash, used where the paper
//!   notes that *probing* hashes need not be cryptographic (sender-side
//!   deduplication can verify candidates byte-for-byte locally).
//!
//! All algorithms implement the streaming [`Hasher`] trait and can digest
//! data incrementally; [`page_digest`] is the one-shot convenience used by
//! the migration path.
//!
//! # Examples
//!
//! ```
//! use vecycle_hash::{Hasher, Md5};
//!
//! let mut h = Md5::new();
//! h.update(b"abc");
//! let d = h.finalize();
//! assert_eq!(vecycle_hash::to_hex(&d), "900150983cd24fb0d6963f7d28e17f72");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fnv;
mod md5;
mod multilane;
mod sha1;
mod sha256;

pub use fnv::Fnv1a64;
pub use md5::Md5;
pub use multilane::{fnv1a64_lanes, md5_lanes, sha1_lanes};
pub use sha1::Sha1;
pub use sha256::Sha256;

use vecycle_types::PageDigest;

/// SWAR all-zero test: the zero-page prefilter of the digest hot path.
///
/// Folds eight-byte words with `|` instead of walking bytes, checking the
/// accumulator once per 32-byte stripe so a non-zero page exits after the
/// first dirty stripe. Zero pages are common enough (freshly booted
/// guests) that this check runs before every page digest.
///
/// # Examples
///
/// ```
/// assert!(vecycle_hash::is_all_zero(&[0u8; 4096]));
/// assert!(!vecycle_hash::is_all_zero(&[0, 0, 1]));
/// assert!(vecycle_hash::is_all_zero(&[]));
/// ```
pub fn is_all_zero(data: &[u8]) -> bool {
    let mut stripes = data.chunks_exact(32);
    for stripe in &mut stripes {
        let acc = u64::from_ne_bytes(stripe[0..8].try_into().expect("8 bytes"))
            | u64::from_ne_bytes(stripe[8..16].try_into().expect("8 bytes"))
            | u64::from_ne_bytes(stripe[16..24].try_into().expect("8 bytes"))
            | u64::from_ne_bytes(stripe[24..32].try_into().expect("8 bytes"));
        if acc != 0 {
            return false;
        }
    }
    stripes.remainder().iter().all(|&b| b == 0)
}

/// A streaming hash function.
///
/// Implementors accumulate input via [`Hasher::update`] and produce the
/// final digest with [`Hasher::finalize`]. The associated `Output` is a
/// fixed-size byte array.
///
/// # Examples
///
/// ```
/// use vecycle_hash::{Hasher, Sha256};
///
/// fn digest_all<H: Hasher + Default>(chunks: &[&[u8]]) -> H::Output {
///     let mut h = H::default();
///     for c in chunks {
///         h.update(c);
///     }
///     h.finalize()
/// }
///
/// let whole = digest_all::<Sha256>(&[b"hello ", b"world"]);
/// let one = digest_all::<Sha256>(&[b"hello world"]);
/// assert_eq!(whole, one);
/// ```
pub trait Hasher {
    /// The digest type produced by this algorithm.
    type Output: AsRef<[u8]> + Copy + Eq;

    /// Absorbs more input.
    fn update(&mut self, data: &[u8]);

    /// Consumes the hasher and returns the digest.
    fn finalize(self) -> Self::Output;

    /// One-shot digest of a byte slice.
    fn digest(data: &[u8]) -> Self::Output
    where
        Self: Default + Sized,
    {
        let mut h = Self::default();
        h.update(data);
        h.finalize()
    }
}

/// The checksum algorithm used to fingerprint pages.
///
/// §3.4 of the paper discusses the trade-off: MD5 reaches ~350 MiB/s per
/// core — about 3× gigabit Ethernet — so it never bottlenecks a GbE
/// migration, but stronger (slower) algorithms may on faster links.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ChecksumAlgorithm {
    /// MD5, the prototype's default.
    #[default]
    Md5,
    /// SHA-1, truncated to 128 bits for the page-digest slot.
    Sha1,
    /// SHA-256, truncated to 128 bits for the page-digest slot.
    Sha256,
    /// FNV-1a 64, widened to 128 bits; non-cryptographic.
    Fnv1a,
}

impl ChecksumAlgorithm {
    /// All supported algorithms, in display order.
    pub const ALL: [ChecksumAlgorithm; 4] = [
        ChecksumAlgorithm::Md5,
        ChecksumAlgorithm::Sha1,
        ChecksumAlgorithm::Sha256,
        ChecksumAlgorithm::Fnv1a,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ChecksumAlgorithm::Md5 => "md5",
            ChecksumAlgorithm::Sha1 => "sha1",
            ChecksumAlgorithm::Sha256 => "sha256",
            ChecksumAlgorithm::Fnv1a => "fnv1a-64",
        }
    }

    /// Digests one page with this algorithm into the 128-bit digest slot.
    ///
    /// All-zero pages map to [`PageDigest::ZERO_PAGE`] under every
    /// algorithm, exactly as the free [`page_digest`] does for MD5 — the
    /// trace layer and the byte layer must agree on what "zero page"
    /// means regardless of which checksum the engine was configured with.
    pub fn page_digest(self, page: &[u8]) -> PageDigest {
        if is_all_zero(page) {
            return PageDigest::ZERO_PAGE;
        }
        match self {
            ChecksumAlgorithm::Md5 => PageDigest::new(Md5::digest(page)),
            ChecksumAlgorithm::Sha1 => truncate_to_digest(&Sha1::digest(page)),
            ChecksumAlgorithm::Sha256 => truncate_to_digest(&Sha256::digest(page)),
            ChecksumAlgorithm::Fnv1a => fnv_widen(Fnv1a64::digest(page), page),
        }
    }

    /// Digests a batch of pages, several lanes per dispatch.
    ///
    /// Bit-equal to calling [`ChecksumAlgorithm::page_digest`] on each
    /// page, but processes runs of equal-length pages through the
    /// multi-lane kernels in `multilane` (sixteen at a time for MD5,
    /// four for SHA-1 and FNV-1a), spreads a batch of a few hundred
    /// pages or more over the machine's cores on scoped threads, and
    /// allocates nothing but the vector it returns (and, when it
    /// spreads, each thread's spawn) — the fast path wherever page bytes
    /// are hashed in bulk.
    ///
    /// # Examples
    ///
    /// ```
    /// use vecycle_hash::ChecksumAlgorithm;
    ///
    /// let pages: Vec<Vec<u8>> = (0u8..8).map(|k| vec![k; 4096]).collect();
    /// let batch = ChecksumAlgorithm::Md5.digest_pages(&pages);
    /// assert_eq!(batch[0], vecycle_types::PageDigest::ZERO_PAGE);
    /// assert_eq!(batch[3], ChecksumAlgorithm::Md5.page_digest(&pages[3]));
    /// ```
    pub fn digest_pages<P: AsRef<[u8]> + Sync>(self, pages: &[P]) -> Vec<PageDigest> {
        multilane::digest_pages(self, pages, multilane::parts_for(pages.len()))
    }

    /// Checks a batch of pages against the digests they should have:
    /// the position of the first page whose digest differs from
    /// `expected(position)`, or `None` when all agree. Hashes as
    /// [`ChecksumAlgorithm::digest_pages`] does (same kernels, same split
    /// over the cores) but keeps no digest, so it allocates nothing but a
    /// split batch's threads.
    pub fn first_mismatch<P: AsRef<[u8]> + Sync>(
        self,
        pages: &[P],
        expected: impl Fn(usize) -> PageDigest + Sync,
    ) -> Option<usize> {
        multilane::first_mismatch(self, pages, expected, multilane::parts_for(pages.len()))
    }

    /// Hashes a batch of pages as [`ChecksumAlgorithm::digest_pages`]
    /// does (same kernels, same split over the cores) and hands each
    /// page's digest to `emit` with the page's position — once each, in
    /// no particular order, on whichever thread hashed it. The caller
    /// keeps the digests where it wants them, so this allocates nothing
    /// but a split batch's threads.
    pub fn for_each_digest<P: AsRef<[u8]> + Sync>(
        self,
        pages: &[P],
        emit: impl Fn(usize, PageDigest) + Sync,
    ) {
        multilane::for_each_digest(self, pages, emit, multilane::parts_for(pages.len()))
    }
}

/// Truncates a wider SHA digest into the 128-bit page-digest slot.
fn truncate_to_digest(full: &[u8]) -> PageDigest {
    PageDigest::new(full[..16].try_into().expect("digest has >= 16 bytes"))
}

/// Widens a 64-bit FNV value to 128 bits by hashing the hash again with a
/// length prefix and the page head, so both halves carry independent
/// entropy. Shared by the scalar and multi-lane paths — they must agree
/// byte-for-byte.
fn fnv_widen(h: [u8; 8], page: &[u8]) -> PageDigest {
    let k = u64::from_be_bytes(h);
    let mut second = Fnv1a64::new();
    second.update(&h);
    second.update(&(page.len() as u64).to_be_bytes());
    second.update(page.get(..64.min(page.len())).unwrap_or(&[]));
    let k2 = u64::from_be_bytes(second.finalize());
    let mut out = [0u8; 16];
    out[..8].copy_from_slice(&k.to_be_bytes());
    out[8..].copy_from_slice(&k2.to_be_bytes());
    PageDigest::new(out)
}

impl std::fmt::Display for ChecksumAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Digests a 4 KiB page with MD5, mapping all-zero pages to the
/// [`PageDigest::ZERO_PAGE`] sentinel.
///
/// Zero pages are common enough (freshly booted guests) that both the
/// paper's analysis and our strategies treat them specially; folding them
/// onto the sentinel keeps the trace layer and the byte-level layer in
/// agreement about what "zero page" means.
///
/// # Examples
///
/// ```
/// use vecycle_hash::page_digest;
/// use vecycle_types::PageDigest;
///
/// let zero = vec![0u8; 4096];
/// assert_eq!(page_digest(&zero), PageDigest::ZERO_PAGE);
/// let one = vec![1u8; 4096];
/// assert_ne!(page_digest(&one), PageDigest::ZERO_PAGE);
/// ```
pub fn page_digest(page: &[u8]) -> PageDigest {
    if is_all_zero(page) {
        return PageDigest::ZERO_PAGE;
    }
    PageDigest::new(Md5::digest(page))
}

/// Nibble-to-ASCII table for [`to_hex`].
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Renders a digest as lowercase hex.
///
/// Two table lookups and two pushes per byte into a pre-sized `String` —
/// no per-byte `format!` allocation; hex rendering must never show up in
/// a digest-path profile.
///
/// # Examples
///
/// ```
/// assert_eq!(vecycle_hash::to_hex(&[0xde, 0xad]), "dead");
/// ```
pub fn to_hex(bytes: &impl AsRef<[u8]>) -> String {
    let bytes = bytes.as_ref();
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(HEX_DIGITS[(b >> 4) as usize] as char);
        s.push(HEX_DIGITS[(b & 0x0f) as usize] as char);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_digest_zero_sentinel() {
        assert_eq!(page_digest(&[0u8; 4096]), PageDigest::ZERO_PAGE);
        let mut p = [0u8; 4096];
        p[4095] = 1;
        assert_ne!(page_digest(&p), PageDigest::ZERO_PAGE);
    }

    /// Regression: every algorithm — not just the free MD5 helper — must
    /// fold the all-zero page onto the sentinel, or engines configured
    /// with Sha1/Sha256/Fnv1a silently lose zero-page suppression and the
    /// trace layer and byte layer disagree about what "zero page" means.
    #[test]
    fn zero_sentinel_applies_to_every_algorithm() {
        let zero = [0u8; 4096];
        for a in ChecksumAlgorithm::ALL {
            assert_eq!(a.page_digest(&zero), PageDigest::ZERO_PAGE, "{a}");
            assert_eq!(a.page_digest(&[]), PageDigest::ZERO_PAGE, "{a} empty");
            // And only the all-zero page: one trailing bit breaks it.
            let mut almost = [0u8; 4096];
            almost[4095] = 1;
            assert_ne!(a.page_digest(&almost), PageDigest::ZERO_PAGE, "{a}");
        }
    }

    #[test]
    fn is_all_zero_boundaries() {
        for len in [0usize, 1, 7, 8, 31, 32, 33, 4095, 4096] {
            assert!(is_all_zero(&vec![0u8; len]), "len {len}");
            if len > 0 {
                for hot in [0, len / 2, len - 1] {
                    let mut v = vec![0u8; len];
                    v[hot] = 0x80;
                    assert!(!is_all_zero(&v), "len {len} hot {hot}");
                }
            }
        }
    }

    #[test]
    fn algorithms_disagree_on_same_input() {
        let page = [0x5au8; 4096];
        let digests: Vec<_> = ChecksumAlgorithm::ALL
            .iter()
            .map(|a| a.page_digest(&page))
            .collect();
        for i in 0..digests.len() {
            for j in i + 1..digests.len() {
                assert_ne!(digests[i], digests[j], "{i} vs {j}");
            }
        }
    }

    #[test]
    fn algorithm_page_digest_is_deterministic() {
        let page = [7u8; 4096];
        for a in ChecksumAlgorithm::ALL {
            assert_eq!(a.page_digest(&page), a.page_digest(&page), "{a}");
        }
    }

    #[test]
    fn algorithm_names() {
        assert_eq!(ChecksumAlgorithm::Md5.to_string(), "md5");
        assert_eq!(ChecksumAlgorithm::default(), ChecksumAlgorithm::Md5);
    }

    #[test]
    fn to_hex_formats() {
        assert_eq!(to_hex(&[0u8, 255u8]), "00ff");
        // The LUT rewrite must agree with the format! rendering bytewise.
        let all: Vec<u8> = (0..=255).collect();
        let expect: String = all.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(to_hex(&all), expect);
    }
}

//! The [`PageDigest`] content fingerprint type.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use serde::{Deserialize, Serialize};

/// A 128-bit content digest of one 4 KiB page.
///
/// The paper's prototype uses MD5 (16 bytes) per page; every strategy that
/// performs content-based redundancy elimination keys on this value. The
/// digest type itself is algorithm-agnostic — `vecycle-hash` produces these
/// from MD5 or from truncated SHA variants.
///
/// # Examples
///
/// ```
/// use vecycle_types::PageDigest;
///
/// let d = PageDigest::new([0xab; 16]);
/// assert_eq!(d.to_hex(), "ab".repeat(16));
/// assert!(!d.is_zero_page());
/// assert!(PageDigest::ZERO_PAGE.is_zero_page());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PageDigest([u8; 16]);

/// A digest is already a hash: it feeds a hasher its first 8 bytes as
/// one `u64` and nothing else. Equality stays the full 16 bytes.
impl Hash for PageDigest {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.short_key());
    }
}

/// The pass-through hasher behind [`DigestMap`]: the
/// `u64` a [`PageDigest`] writes *is* the hash. It has no per-process
/// seed, so a map's iteration order is a function of its contents.
#[derive(Debug, Clone, Copy, Default)]
pub struct DigestHasher(u64);

impl Hasher for DigestHasher {
    #[inline]
    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }

    // No digest takes this path; it is total so that any key type does.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// `std`'s hash map keyed by digest, with the hash function switched
/// off. Start one with `DigestMap::default()` or
/// `DigestMap::with_capacity_and_hasher(n, Default::default())`.
///
/// # Examples
///
/// ```
/// use vecycle_types::{DigestMap, PageDigest, PageIndex};
///
/// let mut sent: DigestMap<PageIndex> = DigestMap::default();
/// let d = PageDigest::from_content_id(7);
/// // First sender wins.
/// assert_eq!(*sent.entry(d).or_insert(PageIndex::new(3)), PageIndex::new(3));
/// assert_eq!(*sent.entry(d).or_insert(PageIndex::new(9)), PageIndex::new(3));
/// ```
pub type DigestMap<V> = HashMap<PageDigest, V, BuildHasherDefault<DigestHasher>>;

impl PageDigest {
    /// Number of bytes in a digest (MD5-sized).
    pub const LEN: usize = 16;

    /// The well-known digest of an all-zero page.
    ///
    /// This is a *sentinel*, not a real MD5 value: the trace layer assigns
    /// it to zero pages so zero-page statistics can be computed without
    /// hashing. The hash layer maps real all-zero pages to it as well.
    pub const ZERO_PAGE: PageDigest = PageDigest([0u8; 16]);

    /// Creates a digest from raw bytes.
    pub const fn new(bytes: [u8; 16]) -> Self {
        PageDigest(bytes)
    }

    /// Derives a digest from a 64-bit content identifier.
    ///
    /// The synthetic trace generator represents page *content* as a 64-bit
    /// ID; this expansion is injective, so distinct IDs never collide —
    /// mirroring the paper's assumption that true MD5 collisions are rare
    /// enough to ignore.
    #[inline]
    pub fn from_content_id(id: u64) -> Self {
        if id == 0 {
            return PageDigest::ZERO_PAGE;
        }
        // SplitMix64-style diffusion for the high half; the low half keeps
        // the raw ID so the mapping stays injective by construction.
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&crate::rng::split(id, 0).to_le_bytes());
        out[8..].copy_from_slice(&id.to_le_bytes());
        PageDigest(out)
    }

    /// The raw digest bytes.
    pub const fn as_bytes(&self) -> &[u8; 16] {
        &self.0
    }

    /// True if this is the zero-page sentinel digest.
    #[inline]
    pub fn is_zero_page(self) -> bool {
        self == PageDigest::ZERO_PAGE
    }

    /// Lowercase hexadecimal rendering.
    pub fn to_hex(self) -> String {
        let mut s = String::with_capacity(32);
        for b in self.0 {
            use fmt::Write;
            write!(s, "{b:02x}").expect("writing to String cannot fail");
        }
        s
    }

    /// A stable 64-bit key derived from the digest, for hash-map indexes.
    // Inlined, like the whole per-page probe path: a scan compiled in
    // another crate must not spill the digest for a call (DESIGN §13.2).
    #[inline]
    pub(crate) fn short_key(self) -> u64 {
        u64::from_le_bytes(self.0[..8].try_into().expect("slice is 8 bytes"))
    }
}

impl fmt::Display for PageDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl From<[u8; 16]> for PageDigest {
    fn from(bytes: [u8; 16]) -> Self {
        PageDigest(bytes)
    }
}

impl AsRef<[u8]> for PageDigest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn hex_round_trip() {
        let d = PageDigest::new([
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ]);
        let hex = d.to_hex();
        assert_eq!(hex, "00112233445566778899aabbccddeeff");
    }

    #[test]
    fn zero_page_sentinel() {
        assert!(PageDigest::ZERO_PAGE.is_zero_page());
        assert_eq!(PageDigest::from_content_id(0), PageDigest::ZERO_PAGE);
        assert!(!PageDigest::from_content_id(1).is_zero_page());
    }

    #[test]
    fn content_id_mapping_is_injective_on_sample() {
        let mut seen = std::collections::HashSet::new();
        for id in 0..10_000u64 {
            assert!(seen.insert(PageDigest::from_content_id(id)));
        }
    }

    #[test]
    fn content_id_low_half_preserves_id() {
        let d = PageDigest::from_content_id(0xdead_beef);
        let tail = u64::from_le_bytes(d.as_bytes()[8..].try_into().unwrap());
        assert_eq!(tail, 0xdead_beef);
    }

    #[test]
    fn display_matches_to_hex() {
        let d = PageDigest::from_content_id(1234);
        assert_eq!(format!("{d}"), d.to_hex());
    }

    #[test]
    fn short_key_is_stable() {
        let d = PageDigest::from_content_id(99);
        assert_eq!(d.short_key(), d.short_key());
    }

    /// Records every call a `Hash` impl makes.
    #[derive(Default)]
    struct Recorder(Vec<String>);

    impl Hasher for Recorder {
        fn write(&mut self, bytes: &[u8]) {
            self.0.push(format!("write({} bytes)", bytes.len()));
        }
        fn write_u64(&mut self, key: u64) {
            self.0.push(format!("write_u64({key:#x})"));
        }
        fn finish(&self) -> u64 {
            0
        }
    }

    #[test]
    fn hash_issues_one_write_u64_and_nothing_else() {
        for d in [PageDigest::ZERO_PAGE, PageDigest::from_content_id(99)] {
            let mut rec = Recorder::default();
            d.hash(&mut rec);
            assert_eq!(rec.0, [format!("write_u64({:#x})", d.short_key())]);
        }
    }

    #[test]
    fn digest_hasher_passes_a_u64_through_and_folds_bytes() {
        let mut h = DigestHasher::default();
        PageDigest::from_content_id(5).hash(&mut h);
        assert_eq!(h.finish(), PageDigest::from_content_id(5).short_key());
        // The byte-wise path is total and order-sensitive.
        let fold = |bytes: &[u8]| {
            let mut h = DigestHasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(fold(&[]), 0);
        assert_ne!(fold(b"ab"), fold(b"ba"));
        assert_eq!(fold(&[1; 9]), 0x0101_0101_0101_0100);
    }

    fn d(id: u64) -> PageDigest {
        PageDigest::from_content_id(id)
    }

    /// Differential model: a scripted mix of insert / first-insert-wins
    /// / get tracks an ordered map exactly, from an empty map through
    /// several resizes, with the zero-page sentinel among the keys.
    #[test]
    fn digest_map_matches_btreemap_model() {
        let mut map: DigestMap<u64> = DigestMap::default();
        let mut model: BTreeMap<PageDigest, u64> = BTreeMap::new();
        let mut state = 0x243f_6a88_85a3_08d3u64;
        for step in 0..30_000u64 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let key = d((state >> 20) % 4_096); // heavy duplication, includes 0
            match state >> 62 {
                0 => assert_eq!(
                    map.insert(key, step),
                    model.insert(key, step),
                    "step {step}"
                ),
                1 => {
                    let got = *map.entry(key).or_insert(step);
                    assert_eq!(got, *model.entry(key).or_insert(step), "step {step}");
                }
                _ => assert_eq!(map.get(&key), model.get(&key), "step {step}"),
            }
            assert_eq!(map.len(), model.len(), "step {step}");
        }
        assert!(model.contains_key(&PageDigest::ZERO_PAGE) && model.len() > 3_000);
        let mut entries: Vec<_> = map.into_iter().collect();
        entries.sort_unstable();
        assert_eq!(entries, model.into_iter().collect::<Vec<_>>());
    }

    /// Keys with identical leading 8 bytes hash alike and stay distinct.
    #[test]
    fn colliding_short_keys_disambiguate_by_full_compare() {
        let keys: Vec<PageDigest> = (0..40u8)
            .map(|i| {
                let mut bytes = [0xabu8; 16];
                bytes[15] = i;
                PageDigest::new(bytes)
            })
            .collect();
        assert!(keys.iter().all(|k| k.short_key() == keys[0].short_key()));
        let mut map: DigestMap<usize> = DigestMap::default();
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(map.insert(k, i), None);
        }
        assert_eq!(map.len(), keys.len());
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(map.get(k), Some(&i), "collider {i}");
        }
    }
}

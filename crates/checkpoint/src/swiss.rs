//! Open-addressing digest table with group-of-16 control-byte probing.
//!
//! The hot maps on the scan/digest path are keyed by [`PageDigest`] —
//! a value that *is already a hash* (MD5 or a truncated SHA). Routing it
//! through `std::collections::HashMap` re-hashes those 16
//! high-entropy bytes with SipHash on every probe, which shows up as a
//! large fraction of single-core scan time. [`DigestTable`] skips the
//! hasher entirely: the digest's own leading bytes pick the bucket
//! group, and a swiss-table-style control-byte array lets one pair of
//! 64-bit compares reject 16 slots at a time.
//!
//! Layout: slots are grouped 16 at a time. A parallel `ctrl` array
//! holds one byte per slot — `0x80` for an empty slot, or the low 7
//! bits of the key's secondary hash (`h2`) for a full slot. A probe
//! loads a group's 16 control bytes as two `u64`s and SWAR-matches the
//! wanted `h2` tag (full 16-byte keys are compared only on candidate
//! hits, so SWAR false positives cost one compare and never
//! correctness). The table never stores tombstones — no deletion is
//! needed on the scan path — so a probe can stop at the first group
//! containing an empty slot.
//!
//! Everything here is safe code: the SWAR tricks are plain integer
//! arithmetic on bytes loaded with `u64::from_le_bytes`, keeping the
//! crate's `#![forbid(unsafe_code)]` intact.

use vecycle_types::PageDigest;

/// Slots per probe group; one group's control bytes fit two `u64`s.
const GROUP: usize = 16;

/// Control byte of an empty slot. The high bit distinguishes it from
/// every full tag (`h2` keeps only the low 7 bits).
const EMPTY: u8 = 0x80;

/// Grow when occupancy reaches 7/8 of the slots.
const LOAD_NUM: usize = 7;
const LOAD_DEN: usize = 8;

/// Broadcasts `tag` and returns a mask with the high bit set in every
/// byte of `word` equal to `tag`.
///
/// The classic zero-byte SWAR test applied to `word ^ splat(tag)`.
/// Borrow propagation can set spurious high bits in bytes *above* a
/// true match, but never clears the bit of a real match; callers treat
/// hits as candidates and verify.
#[inline(always)]
fn match_tag(word: u64, tag: u8) -> u64 {
    const LSB: u64 = 0x0101_0101_0101_0101;
    const MSB: u64 = 0x8080_8080_8080_8080;
    let x = word ^ (LSB * u64::from(tag));
    x.wrapping_sub(LSB) & !x & MSB
}

/// True if any byte of `word` equals [`EMPTY`].
///
/// Exact (no false positives): control bytes are either `0x80` or
/// `< 0x80`, and for that domain the SWAR zero test after XOR with
/// `0x80` cannot misfire — non-empty bytes map to `0x80..=0xff`, whose
/// complement has a clear high bit.
#[inline(always)]
fn has_empty(word: u64) -> bool {
    match_tag(word, EMPTY) != 0
}

/// A hash map from [`PageDigest`] to a small copyable value, specialised
/// for keys that are already uniformly distributed.
///
/// Semantically a subset of `HashMap<PageDigest, V>`: insert, lookup,
/// entry-style `or_insert`, iteration — but no removal. Iteration order
/// is unspecified (as with `HashMap`), so callers that need determinism
/// must sort, exactly as they already did.
///
/// # Examples
///
/// ```
/// use vecycle_checkpoint::DigestTable;
/// use vecycle_types::{PageDigest, PageIndex};
///
/// let mut table: DigestTable<PageIndex> = DigestTable::new();
/// let d = PageDigest::from_content_id(9);
/// assert_eq!(table.insert(d, PageIndex::new(4)), None);
/// assert_eq!(table.get(d), Some(&PageIndex::new(4)));
/// // Entry-style first-insert-wins:
/// assert_eq!(*table.or_insert(d, PageIndex::new(7)), PageIndex::new(4));
/// ```
#[derive(Debug, Clone)]
pub struct DigestTable<V> {
    /// One byte per slot: `EMPTY` or the slot key's `h2` tag.
    ctrl: Vec<u8>,
    /// Key/value pairs; only meaningful where `ctrl` marks a full slot.
    slots: Vec<(PageDigest, V)>,
    /// Number of full slots.
    len: usize,
    /// `group count - 1`; group count is a power of two.
    group_mask: usize,
}

impl<V: Copy + Default> Default for DigestTable<V> {
    fn default() -> Self {
        DigestTable::new()
    }
}

impl<V: Copy + Default> DigestTable<V> {
    /// An empty table with one group preallocated.
    pub fn new() -> Self {
        DigestTable::with_groups(1)
    }

    /// An empty table sized so `n` insertions do not trigger a resize.
    pub fn with_capacity(n: usize) -> Self {
        let slots_needed = (n * LOAD_DEN).div_ceil(LOAD_NUM) + 1;
        let groups = slots_needed.div_ceil(GROUP).next_power_of_two();
        DigestTable::with_groups(groups)
    }

    fn with_groups(groups: usize) -> Self {
        debug_assert!(groups.is_power_of_two());
        DigestTable {
            ctrl: vec![EMPTY; groups * GROUP],
            slots: vec![(PageDigest::ZERO_PAGE, V::default()); groups * GROUP],
            len: 0,
            group_mask: groups - 1,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Splits the digest's own entropy into a group index and a 7-bit
    /// control tag. No hashing: digests are already uniform.
    #[inline(always)]
    fn decompose(&self, digest: PageDigest) -> (usize, u8) {
        let h = digest.short_key();
        let group = (h >> 7) as usize & self.group_mask;
        let tag = (h & 0x7f) as u8;
        (group, tag)
    }

    /// Loads group `g`'s control bytes as two little-endian words.
    #[inline(always)]
    fn ctrl_words(&self, g: usize) -> (u64, u64) {
        let base = g * GROUP;
        let lo = u64::from_le_bytes(self.ctrl[base..base + 8].try_into().expect("8 bytes"));
        let hi = u64::from_le_bytes(self.ctrl[base + 8..base + 16].try_into().expect("8 bytes"));
        (lo, hi)
    }

    /// Slot index of `digest` if present.
    #[inline]
    fn find(&self, digest: PageDigest) -> Option<usize> {
        let (mut g, tag) = self.decompose(digest);
        let mut step = 0usize;
        loop {
            let (lo, hi) = self.ctrl_words(g);
            let base = g * GROUP;
            let mut hits = match_tag(lo, tag);
            while hits != 0 {
                let slot = base + (hits.trailing_zeros() as usize) / 8;
                if self.slots[slot].0 == digest {
                    return Some(slot);
                }
                hits &= hits - 1;
            }
            let mut hits = match_tag(hi, tag);
            while hits != 0 {
                let slot = base + 8 + (hits.trailing_zeros() as usize) / 8;
                if self.slots[slot].0 == digest {
                    return Some(slot);
                }
                hits &= hits - 1;
            }
            if has_empty(lo) || has_empty(hi) {
                return None;
            }
            // Triangular probing over groups: visits every group once
            // because the group count is a power of two.
            step += 1;
            g = (g + step) & self.group_mask;
        }
    }

    /// First empty slot along `digest`'s probe sequence. The caller
    /// guarantees the key is absent and the table is below the load
    /// limit (so an empty slot exists).
    #[inline]
    fn find_empty(&self, digest: PageDigest) -> usize {
        let (mut g, _) = self.decompose(digest);
        let mut step = 0usize;
        loop {
            let base = g * GROUP;
            let (lo, hi) = self.ctrl_words(g);
            if has_empty(lo) || has_empty(hi) {
                for i in 0..GROUP {
                    if self.ctrl[base + i] == EMPTY {
                        return base + i;
                    }
                }
                unreachable!("has_empty is exact");
            }
            step += 1;
            g = (g + step) & self.group_mask;
        }
    }

    fn grow(&mut self) {
        let groups = (self.group_mask + 1) * 2;
        let mut bigger = DigestTable::with_groups(groups);
        for (slot, &(key, val)) in self.slots.iter().enumerate() {
            if self.ctrl[slot] != EMPTY {
                let at = bigger.find_empty(key);
                let (_, tag) = bigger.decompose(key);
                bigger.ctrl[at] = tag;
                bigger.slots[at] = (key, val);
            }
        }
        bigger.len = self.len;
        *self = bigger;
    }

    #[inline]
    fn reserve_one(&mut self) {
        if (self.len + 1) * LOAD_DEN >= self.slots.len() * LOAD_NUM {
            self.grow();
        }
    }

    /// True if `digest` is present.
    pub fn contains(&self, digest: PageDigest) -> bool {
        self.find(digest).is_some()
    }

    /// The value stored for `digest`, if any.
    pub fn get(&self, digest: PageDigest) -> Option<&V> {
        self.find(digest).map(|slot| &self.slots[slot].1)
    }

    /// Inserts or replaces, returning the previous value if present —
    /// `HashMap::insert` semantics.
    pub fn insert(&mut self, digest: PageDigest, value: V) -> Option<V> {
        if let Some(slot) = self.find(digest) {
            return Some(std::mem::replace(&mut self.slots[slot].1, value));
        }
        self.reserve_one();
        let at = self.find_empty(digest);
        let (_, tag) = self.decompose(digest);
        self.ctrl[at] = tag;
        self.slots[at] = (digest, value);
        self.len += 1;
        None
    }

    /// Inserts `value` unless the key is present; returns a mutable
    /// reference to the stored value — `entry(..).or_insert(..)`
    /// semantics, which is the per-page operation of the dedup scan.
    pub fn or_insert(&mut self, digest: PageDigest, value: V) -> &mut V {
        match self.find(digest) {
            Some(slot) => &mut self.slots[slot].1,
            None => {
                self.reserve_one();
                let at = self.find_empty(digest);
                let (_, tag) = self.decompose(digest);
                self.ctrl[at] = tag;
                self.slots[at] = (digest, value);
                self.len += 1;
                &mut self.slots[at].1
            }
        }
    }

    /// All entries, in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (PageDigest, &V)> + '_ {
        self.ctrl
            .iter()
            .zip(self.slots.iter())
            .filter(|(&c, _)| c != EMPTY)
            .map(|(_, (d, v))| (*d, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use vecycle_types::PageIndex;

    fn d(id: u64) -> PageDigest {
        PageDigest::from_content_id(id)
    }

    fn p(i: u64) -> PageIndex {
        PageIndex::new(i)
    }

    #[test]
    fn insert_get_replace() {
        let mut t: DigestTable<PageIndex> = DigestTable::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(d(1), p(10)), None);
        assert_eq!(t.insert(d(1), p(20)), Some(p(10)));
        assert_eq!(t.get(d(1)), Some(&p(20)));
        assert_eq!(t.len(), 1);
        assert!(t.contains(d(1)));
        assert!(!t.contains(d(2)));
    }

    #[test]
    fn or_insert_first_wins_and_is_mutable() {
        let mut t: DigestTable<PageIndex> = DigestTable::new();
        assert_eq!(*t.or_insert(d(5), p(9)), p(9));
        assert_eq!(*t.or_insert(d(5), p(3)), p(9));
        // insert_min via the returned reference.
        let slot = t.or_insert(d(5), p(3));
        if p(3) < *slot {
            *slot = p(3);
        }
        assert_eq!(t.get(d(5)), Some(&p(3)));
    }

    #[test]
    fn zero_page_sentinel_is_a_valid_key() {
        // ZERO_PAGE has short_key 0 — the weakest possible entropy; it
        // must still be distinguishable from the ZERO_PAGE filler in
        // never-written slots.
        let mut t: DigestTable<PageIndex> = DigestTable::new();
        assert!(!t.contains(PageDigest::ZERO_PAGE));
        t.insert(PageDigest::ZERO_PAGE, p(7));
        assert_eq!(t.get(PageDigest::ZERO_PAGE), Some(&p(7)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn growth_preserves_all_entries() {
        let mut t: DigestTable<PageIndex> = DigestTable::new();
        // Crosses several resize thresholds from the 16-slot start.
        for i in 0..10_000u64 {
            t.insert(d(i + 1), p(i));
        }
        assert_eq!(t.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(t.get(d(i + 1)), Some(&p(i)), "key {i}");
        }
        assert!(!t.contains(d(10_001)));
    }

    /// Keys crafted to share group and tag (identical leading 8 bytes)
    /// force the full-probe + key-compare path.
    #[test]
    fn colliding_short_keys_disambiguate_by_full_compare() {
        let mut t: DigestTable<PageIndex> = DigestTable::new();
        let keys: Vec<PageDigest> = (0..40u8)
            .map(|i| {
                let mut bytes = [0xabu8; 16];
                bytes[15] = i;
                PageDigest::new(bytes)
            })
            .collect();
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(t.insert(k, p(i as u64)), None);
        }
        assert_eq!(t.len(), keys.len());
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(t.get(k), Some(&p(i as u64)), "collider {i}");
        }
    }

    #[test]
    fn iter_yields_every_entry_once() {
        let mut t: DigestTable<PageIndex> = DigestTable::new();
        for i in 0..500u64 {
            t.insert(d(i + 1), p(i));
        }
        let mut seen: Vec<_> = t.iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(seen.len(), 500);
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 500, "no duplicates");
    }

    /// Differential model test: a scripted mix of insert / or_insert /
    /// get tracks `HashMap` exactly, across growth.
    #[test]
    fn matches_hashmap_model() {
        let mut t: DigestTable<PageIndex> = DigestTable::new();
        let mut model: HashMap<PageDigest, PageIndex> = HashMap::new();
        // Deterministic pseudo-random op stream.
        let mut state = 0x243f_6a88_85a3_08d3u64;
        for step in 0..20_000u64 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let key = d(state % 4_096); // heavy duplication, includes 0
            let val = p(step);
            match state >> 62 {
                0 => {
                    assert_eq!(t.insert(key, val), model.insert(key, val), "step {step}");
                }
                1 => {
                    let got = *t.or_insert(key, val);
                    let want = *model.entry(key).or_insert(val);
                    assert_eq!(got, want, "step {step}");
                }
                _ => {
                    assert_eq!(t.get(key), model.get(&key), "step {step}");
                }
            }
            assert_eq!(t.len(), model.len(), "step {step}");
        }
        for (&k, v) in &model {
            assert_eq!(t.get(k), Some(v));
        }
    }

    #[test]
    fn with_capacity_avoids_growth() {
        let mut t: DigestTable<PageIndex> = DigestTable::with_capacity(1_000);
        let slots_before = t.slots.len();
        for i in 0..1_000u64 {
            t.insert(d(i + 1), p(i));
        }
        assert_eq!(t.slots.len(), slots_before, "no resize for stated capacity");
    }

    #[test]
    fn swar_tag_match_finds_all_positions() {
        for pos in 0..8 {
            for tag in [0u8, 1, 0x55, 0x7f] {
                let mut bytes = [0x11u8; 8];
                bytes[pos] = tag;
                let hits = match_tag(u64::from_le_bytes(bytes), tag);
                assert_ne!(hits & (0x80 << (pos * 8)), 0, "tag {tag:#x} pos {pos}");
            }
        }
    }

    #[test]
    fn swar_empty_check_is_exact() {
        // Domain: control bytes are EMPTY or < 0x80.
        let full = [0x00u8, 0x3c, 0x7f, 0x01, 0x42, 0x13, 0x77, 0x05];
        assert!(!has_empty(u64::from_le_bytes(full)));
        for pos in 0..8 {
            let mut bytes = full;
            bytes[pos] = EMPTY;
            assert!(has_empty(u64::from_le_bytes(bytes)), "pos {pos}");
        }
    }
}

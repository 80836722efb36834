//! Deterministic input mutation over the workspace's ChaCha8 stream
//! ([`vecycle_types::rng::ChaCha8`]).
//!
//! No cargo-fuzz, no libFuzzer: the workspace builds offline, so the
//! mutation engine is hand rolled on the workspace's own deterministic
//! PRNG. That constraint is a feature — the same `(seed, iteration)`
//! pair always produces the same byte stream, so any finding is
//! reproducible from two integers and the corpus never depends on
//! scheduling, ASLR or wall-clock time.

use vecycle_checkpoint::Checkpoint;
use vecycle_hash::{Fnv1a64, Hasher};
use vecycle_types::rng::ChaCha8;

/// Values worth splicing into length/count fields: powers of two around
/// container limits, all-ones patterns, and off-by-one neighbours.
const INTERESTING: &[u64] = &[
    0,
    1,
    2,
    15,
    16,
    17,
    255,
    256,
    4095,
    4096,
    4097,
    u16::MAX as u64,
    u32::MAX as u64,
    u32::MAX as u64 + 1,
    1 << 32,
    1 << 60,
    u64::MAX / 16,
    u64::MAX / 16 + 1,
    u64::MAX / 4096,
    u64::MAX / 4096 + 1,
    u64::MAX - 1,
    u64::MAX,
];

/// The deterministic mutator: one per target, seeded from the run seed
/// and the target name.
pub struct Mutator {
    rng: ChaCha8,
}

impl Mutator {
    /// Creates a mutator whose stream depends only on `seed`.
    pub fn new(seed: u64) -> Self {
        Mutator {
            rng: ChaCha8::seed_from_u64(seed),
        }
    }

    /// Produces one mutant of `base`, applying 1–4 stacked mutations.
    ///
    /// `dict` supplies grammar tokens (keys, suffixes, separators) that
    /// get spliced in whole — byte-level flips alone rarely stumble
    /// from `crash=0.1` to `hosts=`, but a token splice does. The
    /// result never exceeds `max_len` bytes.
    pub fn mutate(&mut self, base: &[u8], dict: &[&[u8]], max_len: usize) -> Vec<u8> {
        let mut out = base.to_vec();
        let rounds = 1 + self.rng.below(4);
        for _ in 0..rounds {
            self.mutate_once(&mut out, dict);
        }
        out.truncate(max_len);
        out
    }

    fn mutate_once(&mut self, buf: &mut Vec<u8>, dict: &[&[u8]]) {
        let op = self.rng.below(9);
        if buf.is_empty() && op != 3 && op != 7 {
            // Everything except insert/splice needs existing bytes.
            buf.extend((0..1 + self.pick(15)).map(|_| self.rng.byte()));
            return;
        }
        match op {
            // Bit flip.
            0 => {
                let i = self.pick(buf.len());
                let bit = self.rng.below(8);
                buf[i] ^= 1 << bit;
            }
            // Random byte overwrite.
            1 => {
                let i = self.pick(buf.len());
                buf[i] = self.rng.byte();
            }
            // Delete a short range.
            2 => {
                let start = self.pick(buf.len());
                let len = (1 + self.pick(16)).min(buf.len() - start);
                buf.drain(start..start + len);
            }
            // Insert random bytes.
            3 => {
                let at = self.pick(buf.len() + 1);
                let n = 1 + self.pick(16);
                let bytes: Vec<u8> = (0..n).map(|_| self.rng.byte()).collect();
                buf.splice(at..at, bytes);
            }
            // Duplicate an existing range elsewhere (structure-preserving
            // splice: repeats records, keys, digests).
            4 => {
                let start = self.pick(buf.len());
                let len = (1 + self.pick(32)).min(buf.len() - start);
                let chunk: Vec<u8> = buf[start..start + len].to_vec();
                let at = self.pick(buf.len() + 1);
                buf.splice(at..at, chunk);
            }
            // Overwrite 8 bytes with an interesting integer, both
            // endiannesses: the checkpoint header is big-endian, the
            // trace format little-endian.
            5 => {
                let v = INTERESTING[self.pick(INTERESTING.len())];
                let bytes = if self.rng.coin() {
                    v.to_be_bytes()
                } else {
                    v.to_le_bytes()
                };
                let i = self.pick(buf.len());
                for (k, b) in bytes.iter().enumerate() {
                    if i + k < buf.len() {
                        buf[i + k] = *b;
                    }
                }
            }
            // Truncate.
            6 => {
                let keep = self.pick(buf.len());
                buf.truncate(keep);
            }
            // Dictionary token insert (or ASCII noise when no dict).
            7 => {
                let token: Vec<u8> = if dict.is_empty() {
                    let n = 1 + self.pick(8);
                    (0..n).map(|_| 0x20 + self.rng.below(0x5f) as u8).collect()
                } else {
                    dict[self.pick(dict.len())].to_vec()
                };
                let at = self.pick(buf.len() + 1);
                buf.splice(at..at, token);
            }
            // Dictionary token overwrite.
            _ => {
                let token = if dict.is_empty() {
                    &[b'0'][..]
                } else {
                    dict[self.pick(dict.len())]
                };
                let i = self.pick(buf.len());
                for (k, b) in token.iter().enumerate() {
                    if i + k < buf.len() {
                        buf[i + k] = *b;
                    }
                }
            }
        }
    }

    /// Uniform pick of a pool index (exposed so the driver's pool
    /// selection rides the same deterministic stream).
    pub fn pick(&mut self, len: usize) -> usize {
        self.rng.below(len as u64) as usize
    }
}

/// Recomputes the FNV-1a 64 trailer and patches it into the last 8
/// bytes — the trailer-fixing mutator. The trailer covers what the
/// format says it covers: header and digest table for a well-formed
/// tabled page checkpoint ([`Checkpoint::trailer_coverage`]),
/// `buf[..len-8]` for every other input. Without it, virtually every
/// mutant dies at the integrity check and the checks behind it (the
/// actual attack surface once a forged file carries a valid trailer:
/// field parsers, the table-vs-pages comparison) never see hostile
/// values.
pub fn fix_trailer(buf: &mut [u8]) {
    if buf.len() < 8 {
        return;
    }
    let mut fnv = Fnv1a64::new();
    fnv.update(&buf[..Checkpoint::trailer_coverage(buf)]);
    let t = fnv.finalize();
    let body_len = buf.len() - 8;
    buf[body_len..].copy_from_slice(&t);
}

/// FNV-1a 64 over a byte slice, as a plain u64 — used for corpus
/// content addressing and the run's stream digest.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    h.update(bytes);
    u64::from_be_bytes(h.finalize())
}

/// Extends a rolling FNV digest with a length-framed record, so the
/// stream digest distinguishes `["ab","c"]` from `["a","bc"]`.
pub fn fnv64_chain(acc: u64, bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    h.update(&acc.to_be_bytes());
    h.update(&(bytes.len() as u64).to_be_bytes());
    h.update(bytes);
    u64::from_be_bytes(h.finalize())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let base = b"seed=7,legs=20,crash=0.5";
        let dict: &[&[u8]] = &[b"crash", b"=", b","];
        let mut a = Mutator::new(42);
        let mut b = Mutator::new(42);
        for _ in 0..500 {
            assert_eq!(a.mutate(base, dict, 4096), b.mutate(base, dict, 4096));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let base = vec![0u8; 64];
        let mut a = Mutator::new(1);
        let mut b = Mutator::new(2);
        let streams_equal =
            (0..20).all(|_| a.mutate(&base, &[], 4096) == b.mutate(&base, &[], 4096));
        assert!(!streams_equal);
    }

    #[test]
    fn max_len_is_respected() {
        let base = vec![7u8; 100];
        let mut m = Mutator::new(9);
        for _ in 0..200 {
            assert!(m.mutate(&base, &[], 128).len() <= 128);
        }
    }

    #[test]
    fn fix_trailer_validates() {
        let mut buf = vec![1u8, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12];
        fix_trailer(&mut buf);
        let mut h = Fnv1a64::new();
        h.update(&buf[..4]);
        assert_eq!(&buf[4..], &h.finalize());
        // Too-short buffers are left alone rather than panicking.
        let mut tiny = vec![1u8, 2, 3];
        fix_trailer(&mut tiny);
        assert_eq!(tiny, vec![1, 2, 3]);
    }

    /// A tabled page checkpoint is re-sealed over header + table, so a
    /// forged table entry gets past the trailer and fails the page check.
    #[test]
    fn fix_trailer_reseals_a_tabled_checkpoint() {
        use vecycle_mem::ByteMemory;
        use vecycle_types::{PageCount, SimTime, VmId};
        let mem = ByteMemory::with_distinct_content(PageCount::new(2), 3);
        let mut file = Vec::new();
        Checkpoint::capture_bytes(VmId::new(1), SimTime::EPOCH, &mem)
            .write_to(&mut file)
            .unwrap();
        let sealed = file.clone();
        fix_trailer(&mut file);
        assert_eq!(file, sealed, "re-sealing a valid file is the identity");
        file[32 + 16] ^= 0xff; // table entry of page 1
        assert!(Checkpoint::read_from(&file[..])
            .unwrap_err()
            .to_string()
            .contains("trailer"));
        fix_trailer(&mut file);
        assert!(Checkpoint::read_from(&file[..])
            .unwrap_err()
            .to_string()
            .contains("page 1 "));
    }

    #[test]
    fn fnv_chain_is_length_framed() {
        let a = fnv64_chain(fnv64_chain(0, b"ab"), b"c");
        let b = fnv64_chain(fnv64_chain(0, b"a"), b"bc");
        assert_ne!(a, b);
    }
}

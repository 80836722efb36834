//! SHA-1 message digest, per FIPS 180-4.
//!
//! §3.4 of the paper names SHA-1 as the drop-in replacement if MD5 is
//! deemed a correctness risk. Like MD5 it is no longer collision-resistant
//! against adversaries, but it serves the same accidental-collision role
//! at a somewhat lower throughput — which the checksum-rate ablation bench
//! quantifies.

use crate::Hasher;

/// Initial chaining state. Shared with the multi-lane kernel.
pub(crate) const INIT: [u32; 5] = [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476, 0xc3d2e1f0];

/// Stage constants for rounds 0–19, 20–39, 40–59 and 60–79. Shared with
/// the multi-lane kernel.
pub(crate) const K: [u32; 4] = [0x5a827999, 0x6ed9eba1, 0x8f1bbcdc, 0xca62c1d6];

/// Streaming SHA-1 hasher.
///
/// # Examples
///
/// ```
/// use vecycle_hash::{Hasher, Sha1};
///
/// let d = Sha1::digest(b"abc");
/// assert_eq!(
///     vecycle_hash::to_hex(&d),
///     "a9993e364706816aba3e25717850c26c9cd0d89d"
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha1 {
    state: [u32; 5],
    buffer: [u8; 64],
    buffered: usize,
    length_bytes: u64,
}

impl Sha1 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha1 {
            state: INIT,
            buffer: [0u8; 64],
            buffered: 0,
            length_bytes: 0,
        }
    }

    fn compress(state: &mut [u32; 5], block: &[u8]) {
        debug_assert_eq!(block.len(), 64);
        let mut w = [0u32; 80];
        for (i, word) in w.iter_mut().take(16).enumerate() {
            *word = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }

        let [mut a, mut b, mut c, mut d, mut e] = *state;
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i / 20 {
                0 => ((b & c) | (!b & d), K[0]),
                1 => (b ^ c ^ d, K[1]),
                2 => ((b & c) | (b & d) | (c & d), K[2]),
                _ => (b ^ c ^ d, K[3]),
            };
            let tmp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }

        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
    }
}

impl Default for Sha1 {
    fn default() -> Self {
        Sha1::new()
    }
}

impl Hasher for Sha1 {
    type Output = [u8; 20];

    fn update(&mut self, mut data: &[u8]) {
        self.length_bytes = self.length_bytes.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                Sha1::compress(&mut self.state, &block);
                self.buffered = 0;
            }
            if data.is_empty() {
                // Everything fit in the buffer; the remainder fall-through
                // below must not clobber the buffered count.
                return;
            }
        }
        let mut chunks = data.chunks_exact(64);
        for block in &mut chunks {
            Sha1::compress(&mut self.state, block);
        }
        let rest = chunks.remainder();
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    fn finalize(mut self) -> [u8; 20] {
        let bit_len = self.length_bytes.wrapping_mul(8);
        self.update(&[0x80]);
        while self.buffered != 56 {
            let zeros = if self.buffered < 56 {
                56 - self.buffered
            } else {
                64 - self.buffered + 56
            };
            let pad = [0u8; 64];
            self.update(&pad[..zeros.min(64)]);
        }
        // SHA uses big-endian length, unlike MD5.
        self.update(&bit_len.to_be_bytes());
        debug_assert_eq!(self.buffered, 0);
        let mut out = [0u8; 20];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::to_hex;

    /// FIPS 180-4 / RFC 3174 standard vectors.
    #[test]
    fn standard_vectors() {
        let cases: [(&[u8], &str); 4] = [
            (b"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
            (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
            ),
            (
                b"The quick brown fox jumps over the lazy dog",
                "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12",
            ),
        ];
        for (input, expect) in cases {
            assert_eq!(to_hex(&Sha1::digest(input)), expect, "{input:?}");
        }
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            to_hex(&Sha1::digest(&data)),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..50_000u32).map(|i| (i % 253) as u8).collect();
        let one_shot = Sha1::digest(&data);
        for chunk_size in [1, 7, 64, 65, 511] {
            let mut h = Sha1::new();
            for chunk in data.chunks(chunk_size) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), one_shot, "chunk size {chunk_size}");
        }
    }
}

//! MD5 message digest, per RFC 1321.
//!
//! MD5 is cryptographically broken for collision resistance under
//! adversarial inputs, but — as the paper argues (§3.4, citing rsync) — it
//! remains adequate for accidental-collision detection in file/page
//! transfer optimization, and it is fast: the property VeCycle relies on.

use crate::Hasher;

/// Streaming MD5 hasher.
///
/// # Examples
///
/// ```
/// use vecycle_hash::{Hasher, Md5};
///
/// let d = Md5::digest(b"");
/// assert_eq!(vecycle_hash::to_hex(&d), "d41d8cd98f00b204e9800998ecf8427e");
/// ```
#[derive(Debug, Clone)]
pub struct Md5 {
    state: [u32; 4],
    buffer: [u8; 64],
    buffered: usize,
    length_bytes: u64,
}

/// Initial chaining state (RFC 1321 §3.3).
pub(crate) const INIT: [u32; 4] = [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476];

/// Per-round shift amounts (RFC 1321 §3.4). Shared with the multi-lane
/// kernel, which runs the same rounds over several messages at once.
pub(crate) const S: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
];

/// Sine-derived constants `K[i] = floor(2^32 * |sin(i + 1)|)`.
pub(crate) const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

impl Md5 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Md5 {
            state: INIT,
            buffer: [0u8; 64],
            buffered: 0,
            length_bytes: 0,
        }
    }

    fn compress(state: &mut [u32; 4], block: &[u8]) {
        debug_assert_eq!(block.len(), 64);
        let mut m = [0u32; 16];
        for (i, w) in m.iter_mut().enumerate() {
            *w = u32::from_le_bytes(block[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
        }

        let [mut a, mut b, mut c, mut d] = *state;
        for i in 0..64 {
            let (f, g) = match i / 16 {
                0 => ((b & c) | (!b & d), i),
                1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
                2 => (b ^ c ^ d, (3 * i + 5) % 16),
                _ => (c ^ (b | !d), (7 * i) % 16),
            };
            let tmp = d;
            d = c;
            c = b;
            b = b.wrapping_add(
                a.wrapping_add(f)
                    .wrapping_add(K[i])
                    .wrapping_add(m[g])
                    .rotate_left(S[i]),
            );
            a = tmp;
        }

        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
    }
}

impl Default for Md5 {
    fn default() -> Self {
        Md5::new()
    }
}

impl Hasher for Md5 {
    type Output = [u8; 16];

    fn update(&mut self, mut data: &[u8]) {
        self.length_bytes = self.length_bytes.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let need = 64 - self.buffered;
            let take = need.min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                Md5::compress(&mut self.state, &block);
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
            Md5::compress(&mut self.state, block);
        }
        let rest = chunks.remainder();
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    fn finalize(mut self) -> [u8; 16] {
        let bit_len = self.length_bytes.wrapping_mul(8);
        // Append 0x80, then zero padding to 56 mod 64, then the little-
        // endian 64-bit bit length.
        self.update(&[0x80]);
        // `update` above counted the pad byte; undo for padding math only —
        // the final length field must reflect the original message.
        while self.buffered != 56 {
            let zeros = if self.buffered < 56 {
                56 - self.buffered
            } else {
                64 - self.buffered + 56
            };
            let pad = [0u8; 64];
            self.update(&pad[..zeros.min(64)]);
        }
        let mut tail = self;
        tail.update(&bit_len.to_le_bytes());
        debug_assert_eq!(tail.buffered, 0);
        let mut out = [0u8; 16];
        for (i, w) in tail.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::to_hex;

    /// The RFC 1321 appendix A.5 test suite.
    #[test]
    fn rfc1321_vectors() {
        let cases: [(&[u8], &str); 7] = [
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
        for (input, expect) in cases {
            assert_eq!(to_hex(&Md5::digest(input)), expect);
        }
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let one_shot = Md5::digest(&data);
        for chunk_size in [1, 3, 63, 64, 65, 1000, 4096] {
            let mut h = Md5::new();
            for chunk in data.chunks(chunk_size) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), one_shot, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Lengths straddling the 56-byte padding boundary and block size.
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![0xa5u8; len];
            let d1 = Md5::digest(&data);
            let mut h = Md5::new();
            h.update(&data[..len / 2]);
            h.update(&data[len / 2..]);
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }

    #[test]
    fn known_56_byte_boundary_vector() {
        // 56 'a's: independently computed reference value.
        let d = Md5::digest(&[b'a'; 56]);
        assert_eq!(to_hex(&d), "3b0c8ac703f828b04c6c197006d17218");
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        let a = Md5::digest(b"page content A");
        let b = Md5::digest(b"page content B");
        assert_ne!(a, b);
    }
}

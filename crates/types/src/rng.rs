//! The workspace's seeded generators, one module for both.
//!
//! * [`Xorshift`] (seeded through [`split`]) draws every schedule,
//!   fault plan, chaos plan, fleet and property test.
//! * [`ChaCha8`] draws the guest workloads (`vecycle_mem::workload`),
//!   the trace generator (`vecycle_trace::generator`) and the fuzz
//!   mutator.
//!
//! Both are dependency-free and deterministic, and neither stream may
//! ever change: the goldens, every `results/` file, the fuzz corpus and
//! the benchmark's exact wire and simulated-time metrics pin these bit
//! streams. The known answers in the tests below are those streams.

/// splitmix64 finalizer: derives an independent stream seed from a
/// parent seed and a lane index. Decorrelates adjacent seeds, so
/// `Xorshift::new(split(seed, 0))` is the generator to use when callers
/// pass small consecutive seeds (0 included).
#[inline]
pub fn split(seed: u64, lane: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(lane.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// xorshift64 with unbiased unit-interval and range draws.
#[derive(Debug, Clone)]
pub struct Xorshift {
    state: u64,
}

impl Xorshift {
    /// Seeds the stream with `seed` as is.
    pub fn new(seed: u64) -> Self {
        // Zero is the one absorbing state of xorshift; force a bit on.
        Xorshift { state: seed | 1 }
    }

    /// The next 64 bits.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// Uniform in `[0, 1)` from the top 53 bits — the full mantissa of
    /// an `f64`, so no modulo reduction and no bias.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, bound)` by rejection sampling over the largest
    /// multiple of `bound` — no modulo bias.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty draw range");
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let raw = self.next();
            if raw < zone {
                return raw % bound;
            }
        }
    }
}

/// A ChaCha keystream with 8 rounds, seeded by splitmix64 expansion.
///
/// Its draws are the rules the guest workloads, the trace generator and
/// the fuzz mutator were written against; the tests pin each one.
#[derive(Debug, Clone)]
pub struct ChaCha8 {
    /// Words 4..12 of the ChaCha matrix.
    key: [u32; 8],
    counter: u64,
    block: [u32; 16],
    /// Next unserved word of `block`; 16 means "refill".
    cursor: usize,
}

impl ChaCha8 {
    /// Expands `seed` into the 256-bit key with splitmix64, one 64-bit
    /// word at a time, little-endian.
    pub fn seed_from_u64(mut seed: u64) -> Self {
        let mut key = [0u32; 8];
        for pair in key.chunks_exact_mut(2) {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            pair.copy_from_slice(&[z as u32, (z >> 32) as u32]);
        }
        ChaCha8 {
            key,
            counter: 0,
            block: [0; 16],
            cursor: 16,
        }
    }

    fn refill(&mut self) {
        const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];
        let mut x = [0u32; 16];
        x[..4].copy_from_slice(&SIGMA);
        x[4..12].copy_from_slice(&self.key);
        x[12] = self.counter as u32;
        x[13] = (self.counter >> 32) as u32;
        let input = x;
        let mut quarter = |a: usize, b: usize, c: usize, d: usize| {
            x[a] = x[a].wrapping_add(x[b]);
            x[d] = (x[d] ^ x[a]).rotate_left(16);
            x[c] = x[c].wrapping_add(x[d]);
            x[b] = (x[b] ^ x[c]).rotate_left(12);
            x[a] = x[a].wrapping_add(x[b]);
            x[d] = (x[d] ^ x[a]).rotate_left(8);
            x[c] = x[c].wrapping_add(x[d]);
            x[b] = (x[b] ^ x[c]).rotate_left(7);
        };
        // 8 rounds: 4 column-and-diagonal double rounds.
        for _ in 0..4 {
            quarter(0, 4, 8, 12);
            quarter(1, 5, 9, 13);
            quarter(2, 6, 10, 14);
            quarter(3, 7, 11, 15);
            quarter(0, 5, 10, 15);
            quarter(1, 6, 11, 12);
            quarter(2, 7, 8, 13);
            quarter(3, 4, 9, 14);
        }
        for ((out, x), inp) in self.block.iter_mut().zip(x).zip(input) {
            *out = x.wrapping_add(inp);
        }
        self.cursor = 0;
        self.counter = self.counter.wrapping_add(1);
    }

    fn next_u32(&mut self) -> u32 {
        if self.cursor == 16 {
            self.refill();
        }
        self.cursor += 1;
        self.block[self.cursor - 1]
    }

    fn next_u64(&mut self) -> u64 {
        let lo = u64::from(self.next_u32());
        lo | u64::from(self.next_u32()) << 32
    }

    /// Uniform in `[0, 1)` from the top 53 bits of one 64-bit draw.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, span)`. A power-of-two span masks one draw; any
    /// other span rejects draws at or above the largest multiple of
    /// `span` that fits in a `u64`. Unlike [`Xorshift::below`], a
    /// power-of-two span never rejects. `a..=b` is `a + below(b - a + 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `span` is zero.
    pub fn below(&mut self, span: u64) -> u64 {
        assert!(span > 0, "empty draw range");
        if span.is_power_of_two() {
            return self.next_u64() & (span - 1);
        }
        let zone = u64::MAX - (u64::MAX % span) - 1;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % span;
            }
        }
    }

    /// A uniform byte: the low 8 bits of one 32-bit draw.
    pub fn byte(&mut self) -> u8 {
        self.next_u32() as u8
    }

    /// A fair coin: the low bit of one 32-bit draw.
    pub fn coin(&mut self) -> bool {
        self.next_u32() & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The literals are the first draws of the four private generators
    /// this module replaced: `new(7)` as the schedule and fleet drew,
    /// `new(split(7, 0))` as the fault and chaos plans drew.
    #[test]
    fn first_draws_are_pinned() {
        let draws = |seed| {
            let mut r = Xorshift::new(seed);
            [r.next(), r.next(), r.next()]
        };
        assert_eq!(
            draws(7),
            [0x1_c38e_e1c7, 0x7001_c712_2401_6dc4, 0xc158_1fc0_1194_9e1f]
        );
        assert_eq!(split(7, 0), 0x63cb_e1e4_5932_0dd7);
        assert_eq!(split(7, 1), 0x3800_4700_5c67_c096);
        assert_eq!(
            draws(split(7, 0)),
            [
                0x17e7_bd64_64a1_fc0c,
                0xaeac_d0bf_c27e_3cf4,
                0x8991_9577_1ef1_7d8d
            ]
        );
        // `unit_f64` and `below` are views of those same draws.
        let mut r = Xorshift::new(split(7, 0));
        assert_eq!(r.unit_f64().to_bits(), 0x3fb7_e7bd_6464_a1f8);
        assert_eq!(r.unit_f64().to_bits(), 0x3fe5_d59a_17f8_4fc7);
        let mut r = Xorshift::new(7);
        assert_eq!(
            [r.below(1000), r.below(1000), r.below(1000)],
            [327, 652, 743]
        );
    }

    #[test]
    fn split_streams_are_independent_of_each_other() {
        let draws = |lane| {
            let mut r = Xorshift::new(split(7, lane));
            (0..8).map(|_| r.next()).collect::<Vec<u64>>()
        };
        assert_ne!(draws(0), draws(1));
    }

    #[test]
    fn below_stays_in_range_and_covers_it() {
        let mut r = Xorshift::new(42);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[r.below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn below_and_unit_f64_stay_in_range() {
        let mut r = Xorshift::new(split(7, 2));
        for bound in [1, 2, 7, 1 << 32, (1 << 63) + 1, u64::MAX] {
            for _ in 0..1000 {
                assert!(r.below(bound) < bound, "below({bound})");
            }
        }
        for _ in 0..100_000 {
            let u = r.unit_f64();
            assert!((0.0..1.0).contains(&u), "{u}");
        }
    }

    fn hex(words: impl IntoIterator<Item = u64>) -> String {
        let words: Vec<String> = words.into_iter().map(|w| format!("{w:016x}")).collect();
        words.join(" ")
    }

    /// The first 32 words of three seeds: 0, 1 and the trace
    /// generator's `0x7ec7_ec7e` (its seed 0).
    #[test]
    fn chacha8_words_are_pinned() {
        let words = |seed| {
            let mut r = ChaCha8::seed_from_u64(seed);
            hex((0..32).map(|_| r.next_u64()))
        };
        assert_eq!(
            words(0),
            "bf94d1332d8ee5e8 3a738775a6da5a01 3d46ff10c143ee06 17c6ab23e9f6424f \
             5ce2479b2fb6898b 0ae8099f86bff662 5f2f09fdc72f90bd 95d53efa28e5a01f \
             1131e62b94efaf48 9eec7e5517d7a4e4 e553e127cd4c18d1 b9d551f13505e613 \
             0a1ffcc2d28d82a2 fc9216baf64a441d b3c61fd54b017931 e857b19d23eb502b \
             5a512cb91bfcd6d6 029e379944766985 ca6410bd3c8b61fe a2c1439dbfdc08ce \
             0b1b48bc9b51bc00 88613706f73472d7 7e63aa459362d706 04630a15aee6c4a7 \
             285745104d470010 e0098b0d0575729d fe536d452eaffde3 1195a96bd9c15c54 \
             2fd9a984c31b76c0 0093931e2d80213e 306af4fce9511800 3fc03cba03f09f08"
        );
        assert_eq!(
            words(1),
            "ef72eaf448a8b558 8a33ba97599a55b3 0c40074ee248f1ee dbb160985b660e10 \
             72858f9122a8ce78 1a915dfc6ec9d0a6 f28532b6b6823c71 42bd7361c2831367 \
             7f116bb15a625dcb 5ba35ac4a2be493e 523a2de0cd12893d 8089abf03e6f9097 \
             54ea731bb4ff0ba3 8c4fb67afb3bd3ae 8c65dc52dbb02d18 ffa639a3b7d8eaea \
             ad4ed273775614fb 44631cf0538b0497 8839aafc3b929907 d8b5a1a62fda71a1 \
             aeb0cc2a87c2f574 dfad1284004a7d8e 781ad59f8bd61b25 7dc327d1f7791399 \
             8876138abb0db34b 44b7601ecab5bab0 be061711a64e11b7 dc78835baf89d3cc \
             910aaf8e139d4dbe 67d89470310c6a09 9317a498c274fb0b 50e8b5c5d08c6434"
        );
        assert_eq!(
            words(0x7ec7_ec7e),
            "c3c8ef1d2e7b7496 11065951133662fe b07372f420a6974a 9ba137f29e115c4e \
             b6a76141f02bba08 7d75d3753e0f5875 f358486e80c9bd43 7ba966e447b53464 \
             f79d35f1d0ba5ca5 4aebdb906aef2fdc 496ed8b18d712009 6fb1d05590174b76 \
             b71e63f132170a73 1ca9327f410d8ab9 b104ba1d4f205055 002f065a3f7c17df \
             561ffea200252e8c d29008d85bf92fcf 7462ce6356a41b5b 4d264ce3a6bcd9d2 \
             0b803b8842cf270f afaa3488670e1579 2bedbe3b94790f10 ea8a7f3f8c1a5a2b \
             59b2fbbdcf9d93dd f2db9aa8772b4db9 8666b1f8f4dcd121 07c5d32853da4df9 \
             09e1c3b1222b6236 e23a9814bfbf87db f801e7bc0ab3579b 6543d3ae30a07144"
        );
    }

    /// Every draw rule the callers use, in one seed-7 stream, then a
    /// power-of-two span where `Xorshift::below`'s rule would reject
    /// half the draws.
    #[test]
    fn chacha8_draws_are_pinned() {
        let mut r = ChaCha8::seed_from_u64(7);
        let mut below = |span| -> Vec<u64> { (0..8).map(|_| r.below(span)).collect() };
        assert_eq!(below(3), [0, 1, 0, 0, 0, 2, 1, 0]);
        assert_eq!(below(10), [5, 1, 4, 7, 3, 6, 5, 6]);
        assert_eq!(
            below(1 << 20),
            [28686, 118814, 918170, 611062, 832938, 1022567, 434602, 347470]
        );
        assert_eq!(
            below((1 << 32) + 1),
            [
                3205479398, 3356680483, 754776686, 2276441280, 3095785947, 2405819369, 213820271,
                3786626703
            ]
        );
        // `1..=16`, as the fuzz mutator draws a run length.
        let inclusive: Vec<u64> = (0..8).map(|_| 1 + r.below(16)).collect();
        assert_eq!(inclusive, [5, 11, 8, 1, 1, 10, 4, 1]);
        let bytes: Vec<u8> = (0..8).map(|_| r.byte()).collect();
        assert_eq!(bytes, [222, 72, 19, 102, 113, 156, 53, 169]);
        let coins: Vec<bool> = (0..8).map(|_| r.coin()).collect();
        assert_eq!(coins, [true, false, false, false, true, false, true, false]);
        let units: Vec<u64> = (0..4).map(|_| r.unit_f64().to_bits()).collect();
        assert_eq!(
            hex(units),
            "3fee6c007c23874a 3fe4bf92d6f2a6e1 3fe4d755b43caf9c 3fbc4afeef8b7df0"
        );
        let mut r = ChaCha8::seed_from_u64(7);
        assert_eq!(
            hex((0..8).map(|_| r.below(1 << 63))),
            "6686d7a050825212 463a5f929db41d41 01e77dd0e54acaef 112b2c0d2451b109 \
             08c087ca4fdc0bfc 3e15afb0c12642c0 2752b476351f857a 3db5162972ae3ab2"
        );
    }

    #[test]
    fn chacha8_below_is_roughly_uniform() {
        let mut r = ChaCha8::seed_from_u64(7);
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            counts[r.below(10) as usize] += 1;
        }
        assert!(counts.iter().all(|c| (800..1200).contains(c)), "{counts:?}");
    }

    #[test]
    fn chacha8_clones_keep_their_place() {
        let mut a = ChaCha8::seed_from_u64(5);
        a.next_u32();
        let mut b = a.clone();
        assert_eq!(
            hex((0..40).map(|_| a.next_u64())),
            hex((0..40).map(|_| b.next_u64()))
        );
    }
}

//! The workspace's one seeded generator: splitmix64 to derive a stream
//! seed, xorshift64 to draw from it. Dependency-free and deterministic;
//! every schedule, fault plan, chaos plan, fleet and property test in
//! the workspace draws through here, so goldens pin these exact bit
//! streams.

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
}

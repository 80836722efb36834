//! Deterministic pseudo-random draws for fleet construction and the
//! `Random` placement baseline.
//!
//! Same xorshift64 core as the host crate's schedule generators (kept
//! crate-private there on purpose — the fleet does not share draw
//! *streams* with schedules, only the algorithm). All fleet randomness
//! flows from [`split`]-derived seeds, so per-VM state is independent of
//! fleet size and iteration order.

/// splitmix64 finalizer: derives an independent stream seed from a
/// parent seed and a lane index.
pub(crate) fn split(seed: u64, lane: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(lane.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// xorshift64 with an unbiased (rejection-sampled) range draw.
#[derive(Debug, Clone)]
pub(crate) struct Xorshift {
    state: u64,
}

impl Xorshift {
    pub(crate) fn new(seed: u64) -> Self {
        // Zero is the one absorbing state of xorshift; force a bit on.
        Xorshift { state: seed | 1 }
    }

    pub(crate) fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// Uniform in `[0, bound)` by rejection sampling over the largest
    /// multiple of `bound` — no modulo bias.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub(crate) fn below(&mut self, bound: u64) -> u64 {
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

    #[test]
    fn split_streams_are_independent_of_each_other() {
        let a: Vec<u64> = {
            let mut r = Xorshift::new(split(7, 0));
            (0..8).map(|_| r.next()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Xorshift::new(split(7, 1));
            (0..8).map(|_| r.next()).collect()
        };
        assert_ne!(a, b);
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
}

//! Property tests: similarity metrics and binning invariants.

use vecycle_trace::{BinnedSimilarity, Fingerprint};
use vecycle_types::rng::{split, Xorshift};
use vecycle_types::{PageDigest, SimDuration, SimTime};

fn fp(mins: u64, ids: &[u64]) -> Fingerprint {
    Fingerprint::new(
        SimTime::EPOCH + SimDuration::from_mins(mins),
        ids.iter()
            .map(|&i| PageDigest::from_content_id(i))
            .collect(),
    )
}

/// `min_len..max_len` content ids below `bound`.
fn ids(rng: &mut Xorshift, min_len: u64, max_len: u64, bound: u64) -> Vec<u64> {
    let len = min_len + rng.below(max_len - min_len);
    (0..len).map(|_| rng.below(bound)).collect()
}

/// Binned statistics satisfy min ≤ avg ≤ max and count all pairs
/// within range exactly once.
#[test]
fn bins_are_consistent() {
    for case in 0..96 {
        let mut rng = Xorshift::new(split(1, case));
        let fps: Vec<Fingerprint> = (0..2 + rng.below(18))
            .map(|i| fp(i * 30, &ids(&mut rng, 1, 12, 16)))
            .collect();
        let binned = BinnedSimilarity::compute(
            &fps,
            SimDuration::from_mins(30),
            SimDuration::from_hours(24),
        );
        let mut pair_total = 0u64;
        for bin in binned.bins() {
            assert!(bin.min <= bin.avg, "min > avg in {bin:?}");
            assert!(bin.avg <= bin.max, "avg > max in {bin:?}");
            assert!(bin.min.is_fraction() && bin.max.is_fraction());
            assert!(bin.pairs > 0);
            pair_total += bin.pairs;
        }
        // All pairs within 24 h must be counted once.
        let n = fps.len() as u64;
        let within: u64 = (0..n)
            .map(|i| ((i + 1)..n).filter(|j| (j - i) * 30 <= 24 * 60).count() as u64)
            .sum();
        assert_eq!(pair_total, within);
    }
}

/// Similarity denominators: sim(a,b)·|Ua| is the intersection size,
/// which is symmetric.
#[test]
fn similarity_intersection_is_symmetric() {
    for case in 0..96 {
        let mut rng = Xorshift::new(split(2, case));
        let fa = fp(0, &ids(&mut rng, 1, 64, 32));
        let fb = fp(30, &ids(&mut rng, 1, 64, 32));
        let ia = fa.similarity(&fb).as_f64() * fa.unique_count().as_u64() as f64;
        let ib = fb.similarity(&fa).as_f64() * fb.unique_count().as_u64() as f64;
        assert!((ia - ib).abs() < 1e-6, "intersections differ: {ia} vs {ib}");
    }
}

/// Duplicate fraction and zero fraction are consistent with unique
/// counts.
#[test]
fn fraction_identities() {
    for case in 0..96 {
        let ids = ids(&mut Xorshift::new(split(3, case)), 1, 128, 8);
        let f = fp(0, &ids);
        let dup = f.duplicate_fraction().as_f64();
        let expected = 1.0 - f.unique_count().as_u64() as f64 / ids.len() as f64;
        assert!((dup - expected).abs() < 1e-12);
        assert!(f.zero_fraction().is_fraction());
    }
}

//! Closed-form migration cost estimates.
//!
//! Operators deciding *whether* to migrate need the cost before running
//! anything. The engine's behaviour is simple enough to predict in
//! closed form from four quantities — RAM, checkpoint similarity, link,
//! checksum rate — and this module does so. Pages are priced through the
//! same [`WireCosts`] table the transfer pipeline charges against, so
//! the estimator cannot drift from the engine. It is also validated
//! end-to-end in its tests: predictions land within a few percent, which
//! doubles as a regression net for accidental engine changes.

use vecycle_host::CpuSpec;
use vecycle_net::LinkSpec;
use vecycle_types::{Bytes, Ratio, SimDuration};

use crate::WireCosts;

/// A predicted migration outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationEstimate {
    /// Predicted source → destination traffic.
    pub traffic: Bytes,
    /// Predicted migration time (first round + handshake; idle guest).
    pub time: SimDuration,
}

/// Predicts a full (QEMU-baseline) migration of an idle guest.
///
/// `zero_fraction` is the share of all-zero pages (suppressed to
/// markers, as QEMU does).
///
/// # Panics
///
/// Panics if `zero_fraction` is not in `[0, 1]`.
pub fn estimate_full(ram: Bytes, zero_fraction: Ratio, link: LinkSpec) -> MigrationEstimate {
    assert!(zero_fraction.is_fraction(), "zero fraction out of range");
    let pages = ram.pages_ceil().as_u64();
    let zeros = (pages as f64 * zero_fraction.as_f64()).round() as u64;
    let full = pages - zeros;
    let costs = WireCosts::uncompressed();
    // One control trailer per round: the first round plus the empty
    // stop-and-copy flush.
    let traffic =
        costs.full_page() * full + costs.zero_marker() * zeros + costs.control_trailer() * 2;
    // One transfer, plus the stop-and-copy handshake (an empty final
    // flush still costs one link latency, then the resume round trip).
    let time = link
        .transfer_time(traffic)
        .saturating_add(link.latency())
        .saturating_add(link.round_trip());
    MigrationEstimate { traffic, time }
}

/// Predicts a VeCycle migration of an idle guest whose state overlaps
/// the destination checkpoint with the given `similarity` (the §2.1
/// unique-hash metric; the complement approximates the novel-page
/// fraction, per the paper's "reduced by a percentage equivalent to the
/// similarity" observation).
///
/// # Panics
///
/// Panics if a fraction argument is out of `[0, 1]`.
pub fn estimate_vecycle(
    ram: Bytes,
    similarity: Ratio,
    zero_fraction: Ratio,
    link: LinkSpec,
    cpu: &CpuSpec,
    algorithm: vecycle_hash::ChecksumAlgorithm,
) -> MigrationEstimate {
    assert!(similarity.is_fraction(), "similarity out of range");
    assert!(zero_fraction.is_fraction(), "zero fraction out of range");
    let pages = ram.pages_ceil().as_u64();
    let zeros = (pages as f64 * zero_fraction.as_f64()).round() as u64;
    let nonzero = pages - zeros;
    let reused = (nonzero as f64 * similarity.as_f64()).round() as u64;
    let novel = nonzero - reused;

    let costs = WireCosts::uncompressed();
    let traffic = costs.full_page() * novel
        + costs.checksum() * reused
        + costs.zero_marker() * zeros
        + costs.control_trailer() * 2;
    let network = link.transfer_time(traffic);
    // §3.4: the checksum pass over the whole image is the lower bound.
    let checksum = cpu.checksum_time(algorithm, ram);
    let time = network
        .max(checksum)
        .saturating_add(link.latency())
        .saturating_add(link.round_trip());
    MigrationEstimate { traffic, time }
}

/// The break-even similarity above which VeCycle beats a full migration
/// *in time* on the given link — below it, the checksum pass costs more
/// than the saved transfer (relevant on fast links, §3.4).
pub fn break_even_similarity(
    ram: Bytes,
    link: LinkSpec,
    cpu: &CpuSpec,
    algorithm: vecycle_hash::ChecksumAlgorithm,
) -> Option<Ratio> {
    let full = estimate_full(ram, Ratio::ZERO, link);
    // Binary-search the smallest similarity whose estimate beats full.
    let beats = |s: f64| {
        estimate_vecycle(ram, Ratio::new(s), Ratio::ZERO, link, cpu, algorithm).time < full.time
    };
    if !beats(1.0) {
        return None; // even a perfect checkpoint loses (hash-bound link)
    }
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for _ in 0..40 {
        let mid = (lo + hi) / 2.0;
        if beats(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(Ratio::new(hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MigrationEngine, Strategy};
    use vecycle_hash::ChecksumAlgorithm;
    use vecycle_mem::{DigestMemory, MemoryImage, MutableMemory, PageContent};
    use vecycle_types::{BytesPerSec, PageIndex};

    fn diverged(base: &DigestMemory, novel_fraction: f64) -> DigestMemory {
        let mut vm = base.snapshot();
        let n = vm.page_count().as_u64();
        let k = (n as f64 * novel_fraction).round() as u64;
        for i in 0..k {
            vm.write_page(PageIndex::new(i), PageContent::ContentId((1 << 56) | i));
        }
        vm
    }

    #[test]
    fn estimates_match_engine_within_two_percent() {
        let ram = Bytes::from_mib(64);
        let base = DigestMemory::with_uniform_content(ram, 4).unwrap();
        let cpu = CpuSpec::phenom_ii();
        for link in [LinkSpec::lan_gigabit(), LinkSpec::wan_cloudnet()] {
            let engine = MigrationEngine::new(link);
            for novel in [0.0, 0.25, 0.5, 1.0] {
                let vm = diverged(&base, novel);
                let actual = engine.migrate(&vm, Strategy::vecycle(&base)).unwrap();
                let predicted = estimate_vecycle(
                    ram,
                    Ratio::new(1.0 - novel),
                    Ratio::ZERO,
                    link,
                    &cpu,
                    ChecksumAlgorithm::Md5,
                );
                let traffic_err = (predicted.traffic.as_f64() - actual.source_traffic().as_f64())
                    .abs()
                    / actual.source_traffic().as_f64();
                assert!(traffic_err < 0.02, "traffic err {traffic_err} at {novel}");
                let time_err = (predicted.time.as_secs_f64() - actual.total_time().as_secs_f64())
                    .abs()
                    / actual.total_time().as_secs_f64();
                assert!(time_err < 0.02, "time err {time_err} at {novel}");
            }
            // Full baseline too.
            let vm = diverged(&base, 0.3);
            let actual = engine.migrate(&vm, Strategy::full()).unwrap();
            let predicted = estimate_full(ram, Ratio::ZERO, link);
            let err = (predicted.time.as_secs_f64() - actual.total_time().as_secs_f64()).abs()
                / actual.total_time().as_secs_f64();
            assert!(err < 0.02, "full time err {err}");
        }
    }

    #[test]
    fn zero_fraction_shrinks_both_estimates() {
        let ram = Bytes::from_mib(256);
        let lan = LinkSpec::lan_gigabit();
        let some_zeros = estimate_full(ram, Ratio::new(0.3), lan);
        let no_zeros = estimate_full(ram, Ratio::ZERO, lan);
        assert!(some_zeros.traffic < no_zeros.traffic);
    }

    #[test]
    fn break_even_on_gigabit_is_low() {
        // On GbE, MD5 is 3x the wire: VeCycle wins even with modest
        // similarity.
        let cpu = CpuSpec::phenom_ii();
        let s = break_even_similarity(
            Bytes::from_gib(1),
            LinkSpec::lan_gigabit(),
            &cpu,
            ChecksumAlgorithm::Md5,
        )
        .expect("vecycle can win on GbE");
        assert!(s.as_f64() < 0.15, "break-even = {s}");
    }

    #[test]
    fn break_even_vanishes_on_ultra_fast_links() {
        // On a 40 GbE-class link, SHA-256 hashing is slower than just
        // sending: no similarity makes VeCycle faster.
        let cpu = CpuSpec::phenom_ii();
        let fat = LinkSpec::lan_gigabit().with_bandwidth(BytesPerSec::from_mib_per_sec(4800));
        assert!(
            break_even_similarity(Bytes::from_gib(1), fat, &cpu, ChecksumAlgorithm::Sha256,)
                .is_none()
        );
    }

    #[test]
    fn estimate_fraction_helper() {
        let ram = Bytes::from_gib(1);
        let e = estimate_full(ram, Ratio::ZERO, LinkSpec::lan_gigabit());
        assert!(e.traffic.fraction_of(ram).as_f64() > 1.0); // framing overhead
        assert!(e.traffic.fraction_of(ram).as_f64() < 1.01);
    }

    #[test]
    #[should_panic(expected = "similarity out of range")]
    fn invalid_similarity_panics() {
        let _ = estimate_vecycle(
            Bytes::from_mib(1),
            Ratio::new(1.5),
            Ratio::ZERO,
            LinkSpec::lan_gigabit(),
            &CpuSpec::phenom_ii(),
            ChecksumAlgorithm::Md5,
        );
    }
}

//! Property tests: link arithmetic is monotone and consistent.

use vecycle_net::{LinkSpec, Netem, TrafficCategory, TrafficLedger};
use vecycle_types::rng::{split, Xorshift};
use vecycle_types::{Bytes, BytesPerSec, SimDuration};

/// More bytes never transfer faster.
#[test]
fn transfer_time_is_monotone() {
    let link = LinkSpec::wan_cloudnet();
    for case in 0..128 {
        let mut rng = Xorshift::new(split(1, case));
        let (a, b) = (rng.below(1 << 32), rng.below(1 << 32));
        let (lo, hi) = (a.min(b), a.max(b));
        assert!(link.transfer_time(Bytes::new(lo)) <= link.transfer_time(Bytes::new(hi)));
    }
}

/// Higher loss never increases throughput.
#[test]
fn loss_is_monotone() {
    let base = LinkSpec::wan_cloudnet();
    for case in 0..128 {
        let mut rng = Xorshift::new(split(2, case));
        let mut loss = || 0.0001 + rng.unit_f64() * (0.5 - 0.0001);
        let (a, b) = (loss(), loss());
        let (lo, hi) = (a.min(b), a.max(b));
        let t_lo = Netem::new().loss(lo).apply(base).effective_bandwidth();
        let t_hi = Netem::new().loss(hi).apply(base).effective_bandwidth();
        assert!(t_hi.as_f64() <= t_lo.as_f64() + 1e-9);
    }
}

/// Effective bandwidth never exceeds the raw link rate.
#[test]
fn effective_bw_is_capped() {
    for case in 0..128 {
        let mut rng = Xorshift::new(split(3, case));
        let mbit = 1.0 + rng.unit_f64() * (10_000.0 - 1.0);
        let window_kib = 1 + rng.below(99_999);
        let link = LinkSpec::new(
            BytesPerSec::from_mbit_per_sec(mbit),
            SimDuration::from_millis(10),
            Some(Bytes::from_kib(window_kib)),
        );
        assert!(link.effective_bandwidth().as_f64() <= link.bandwidth().as_f64() + 1e-9);
    }
}

/// Ledger totals always equal the sum over categories, under any
/// recording sequence.
#[test]
fn ledger_total_is_sum() {
    for case in 0..128 {
        let mut rng = Xorshift::new(split(4, case));
        let entries = rng.below(64);
        let mut ledger = TrafficLedger::new();
        for _ in 0..entries {
            let cat = TrafficCategory::ALL[rng.below(6) as usize];
            ledger.record(cat, Bytes::new(rng.below(1 << 20)));
        }
        let sum: u64 = TrafficCategory::ALL
            .iter()
            .map(|c| ledger.bytes_in(*c).as_u64())
            .sum();
        assert_eq!(ledger.total().as_u64(), sum);
        assert_eq!(ledger.messages(), entries);
    }
}

/// Merging ledgers is associative on totals.
#[test]
fn ledger_merge_adds() {
    for case in 0..128 {
        let mut rng = Xorshift::new(split(5, case));
        let (a, b) = (rng.below(1 << 30), rng.below(1 << 30));
        let mut x = TrafficLedger::new();
        x.record(TrafficCategory::FullPages, Bytes::new(a));
        let mut y = TrafficLedger::new();
        y.record(TrafficCategory::Checksums, Bytes::new(b));
        x.merge(&y);
        assert_eq!(x.total(), Bytes::new(a + b));
    }
}

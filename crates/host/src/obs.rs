//! Lifecycle metrics for the checkpoint stores hosts carry.
//!
//! Three families describe the store's life under disk pressure:
//! `store_bytes{host=…}` (gauge: bytes resident right now),
//! `ckpt_evictions_total{policy,reason}` (who got pushed out and why)
//! and, after a simulated crash, `host_restarts_total` +
//! `scrub_pages_total{verdict=…}` (what the scrub pass found). All are
//! driven by simulated state only, so transcripts stay bit-identical
//! across thread counts.

use vecycle_checkpoint::{EvictionRecord, SaveOutcome, ScrubReport};
use vecycle_obs::MetricsRegistry;

use crate::Host;

/// Refreshes the `store_bytes{host=…}` gauge from the host's current
/// in-memory catalog.
pub fn observe_store(metrics: &MetricsRegistry, host: &Host) {
    let label = format!("host-{}", host.id().as_u32());
    metrics.set_gauge(
        "store_bytes",
        &[("host", &label)],
        host.store().used().as_u64() as f64,
    );
}

/// Counts `evicted` into `ckpt_evictions_total{policy,reason}` and
/// refreshes the host's `store_bytes` gauge.
fn observe_evictions(metrics: &MetricsRegistry, host: &Host, evicted: &[EvictionRecord]) {
    let policy = host.store().policy().label();
    for record in evicted {
        metrics.inc(
            "ckpt_evictions_total",
            &[("policy", policy), ("reason", record.reason.label())],
            1,
        );
    }
    observe_store(metrics, host);
}

/// Records the evictions a quota-governed save performed
/// (`ckpt_evictions_total{policy,reason}`) and refreshes the host's
/// `store_bytes` gauge. A save that evicted nothing only moves the
/// gauge.
pub fn observe_save(metrics: &MetricsRegistry, host: &Host, outcome: &SaveOutcome) {
    observe_evictions(metrics, host, &outcome.evicted);
}

/// Records a host restart and its scrub findings:
/// `host_restarts_total`, `scrub_pages_total{verdict=clean|corrupt}`,
/// plus any evictions the re-warm pass performed.
pub fn observe_restart(metrics: &MetricsRegistry, host: &Host, report: &ScrubReport) {
    metrics.inc("host_restarts_total", &[], 1);
    for (verdict, pages) in [
        ("clean", report.clean_pages),
        ("corrupt", report.corrupt_pages),
    ] {
        if pages > 0 {
            metrics.inc("scrub_pages_total", &[("verdict", verdict)], pages);
        }
    }
    observe_evictions(metrics, host, &report.evicted);
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecycle_checkpoint::{Checkpoint, EvictionPolicy};
    use vecycle_mem::DigestMemory;
    use vecycle_types::{Bytes, HostId, PageCount, SimTime, VmId};

    fn cp(vm: u32, seed: u64) -> Checkpoint {
        let mem = DigestMemory::with_distinct_content(PageCount::new(8), seed);
        Checkpoint::capture(VmId::new(vm), SimTime::EPOCH, &mem)
    }

    #[test]
    fn save_and_eviction_show_up() {
        // 8-page digest checkpoints are 128 bytes; a 200-byte quota
        // holds exactly one, so the second save evicts the first.
        let host = Host::benchmark_default(HostId::new(3))
            .with_checkpoint_quota(Bytes::new(200), EvictionPolicy::OldestFirst);
        let m = MetricsRegistry::new();
        let o1 = host.save_checkpoint(cp(1, 10)).unwrap();
        observe_save(&m, &host, &o1);
        assert_eq!(m.counter_total("ckpt_evictions_total"), 0);
        let o2 = host.save_checkpoint(cp(2, 20)).unwrap();
        observe_save(&m, &host, &o2);
        assert_eq!(
            m.counter(
                "ckpt_evictions_total",
                &[("policy", "oldest_first"), ("reason", "quota")]
            ),
            1
        );
        let snap = m.snapshot();
        let gauge = snap
            .to_prometheus()
            .lines()
            .find(|l| l.starts_with("store_bytes"))
            .unwrap()
            .to_string();
        assert!(gauge.contains("host-3"), "{gauge}");
    }

    #[test]
    fn restart_without_disk_store_still_counts() {
        let host = Host::benchmark_default(HostId::new(0));
        let m = MetricsRegistry::new();
        let report = host.restart().unwrap();
        observe_restart(&m, &host, &report);
        assert_eq!(m.counter("host_restarts_total", &[]), 1);
        assert_eq!(m.counter_total("scrub_pages_total"), 0);
    }
}

//! Lifecycle metrics for the checkpoint stores hosts carry.
//!
//! Three families describe the store's life under disk pressure:
//! `store_bytes{host=…}` (gauge: bytes resident right now),
//! `ckpt_evictions_total{policy,reason}` (who got pushed out and why)
//! and, after a simulated crash, `host_restarts_total` +
//! `scrub_pages_total{verdict=…}` (what the scrub pass found). All are
//! driven by simulated state only, so transcripts stay bit-identical
//! across thread counts.

use std::sync::OnceLock;

use vecycle_checkpoint::{EvictionRecord, SaveOutcome, ScrubReport};
use vecycle_obs::{CounterFamily, Gauge, MetricsRegistry};

use crate::{Cluster, Host};

/// The store metrics of a cluster's hosts. `store_bytes{host=…}` is
/// resolved once per host and `ckpt_evictions_total{policy,reason}`
/// once per policy, each on its first record (every save that replaces
/// a VM's checkpoint is an eviction); restarts are rare and take the
/// string-keyed path.
#[derive(Debug)]
pub struct StoreSeries {
    metrics: MetricsRegistry,
    /// `store_bytes` by host id.
    bytes: Box<[OnceLock<Gauge>]>,
    /// `ckpt_evictions_total` by policy, in
    /// [`EvictionPolicy`](vecycle_checkpoint::EvictionPolicy) order.
    evictions: [OnceLock<CounterFamily>; 4],
}

impl StoreSeries {
    /// The series of `cluster`'s hosts; resolves nothing yet.
    pub fn new(metrics: &MetricsRegistry, cluster: &Cluster) -> Self {
        StoreSeries {
            metrics: metrics.clone(),
            bytes: cluster.hosts().iter().map(|_| OnceLock::new()).collect(),
            evictions: Default::default(),
        }
    }

    /// Refreshes the `store_bytes{host=…}` gauge from the host's current
    /// in-memory catalog. A host outside the cluster resolves its gauge
    /// on every record.
    pub fn record(&self, host: &Host) {
        let used = host.store().used().as_u64() as f64;
        let id = host.id().as_u32();
        let resolve = || {
            let label = format!("host-{id}");
            self.metrics
                .resolve_gauge("store_bytes", &[("host", &label)])
        };
        match self.bytes.get(id as usize) {
            Some(slot) => slot.get_or_init(resolve).set(used),
            None => resolve().set(used),
        }
    }

    /// Records the evictions a quota-governed save performed
    /// (`ckpt_evictions_total{policy,reason}`) and refreshes the host's
    /// `store_bytes` gauge. A save that evicted nothing only moves the
    /// gauge.
    pub fn record_save(&self, host: &Host, outcome: &SaveOutcome) {
        self.record_evictions(host, outcome.replaced.iter().chain(&outcome.evicted));
    }

    /// Records a host restart and its scrub findings:
    /// `host_restarts_total`, `scrub_pages_total{verdict=clean|corrupt}`,
    /// plus any evictions the re-warm pass performed.
    pub fn record_restart(&self, host: &Host, report: &ScrubReport) {
        self.metrics.inc("host_restarts_total", &[], 1);
        for (verdict, pages) in [
            ("clean", report.clean_pages),
            ("corrupt", report.corrupt_pages),
        ] {
            if pages > 0 {
                self.metrics
                    .inc("scrub_pages_total", &[("verdict", verdict)], pages);
            }
        }
        self.record_evictions(host, &report.evicted);
    }

    /// Counts `evicted` into `ckpt_evictions_total{policy,reason}` and
    /// refreshes the host's `store_bytes` gauge.
    fn record_evictions<'a>(
        &self,
        host: &Host,
        evicted: impl IntoIterator<Item = &'a EvictionRecord>,
    ) {
        let policy = host.store().policy();
        let family = || {
            CounterFamily::new(
                &self.metrics,
                "ckpt_evictions_total",
                "reason",
                &["version", "quota"],
            )
            .with_label("policy", policy.label())
        };
        for record in evicted {
            let reasons = self.evictions[policy as usize].get_or_init(family);
            reasons.of(record.reason.label()).inc(1);
        }
        self.record(host);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecycle_checkpoint::{Checkpoint, EvictionPolicy};
    use vecycle_mem::DigestMemory;
    use vecycle_net::LinkSpec;
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
        // A one-host cluster: host 3 is outside it, so its gauge takes
        // the string-keyed path and lands in the same series.
        let series = StoreSeries::new(&m, &Cluster::homogeneous(1, LinkSpec::lan_gigabit()));
        let o1 = host.save_checkpoint(cp(1, 10)).unwrap();
        series.record_save(&host, &o1);
        assert_eq!(m.counter_total("ckpt_evictions_total"), 0);
        let o2 = host.save_checkpoint(cp(2, 20)).unwrap();
        series.record_save(&host, &o2);
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
        let series = StoreSeries::new(&m, &Cluster::homogeneous(1, LinkSpec::lan_gigabit()));
        let report = host.restart().unwrap();
        series.record_restart(&host, &report);
        let snap = m.snapshot();
        assert_eq!(snap.gauges[0].labels, [("host".into(), "host-0".into())]);
        assert_eq!(m.counter("host_restarts_total", &[]), 1);
        assert_eq!(m.counter_total("scrub_pages_total"), 0);
    }
}

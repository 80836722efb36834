//! Metrics export for the network layer.
//!
//! [`LedgerSeries::record`] copies a finished [`TrafficLedger`] into the
//! `net_wire_bytes_total` / `net_wire_messages_total` counter families.
//! The engine keeps its own incremental `engine_wire_*` counters at
//! every record site; the two families are **independent accountings of
//! the same traffic**, so the invariant suite can reconcile them and
//! catch double-counting at the layer boundary. They diverge only by
//! design: the engine side includes bytes landed by attempts that later
//! aborted, the net side only completed migrations' ledgers — the
//! difference is exactly the wasted wire traffic.

use vecycle_obs::{CounterFamily, MetricsRegistry};

use crate::{TrafficCategory, TrafficLedger};

impl TrafficCategory {
    /// Every category's metric label, in [`TrafficCategory::ALL`] order.
    pub const LABELS: [&'static str; 6] = [
        "full_pages",
        "checksums",
        "bulk_exchange",
        "dedup_refs",
        "zero_markers",
        "control",
    ];

    /// Stable snake_case label for metrics (`…{kind=…}`).
    pub fn label(self) -> &'static str {
        Self::LABELS[self as usize]
    }
}

/// The `net_wire_*` series of one traffic direction, by
/// [`TrafficCategory`], each resolved on its first record.
#[derive(Debug)]
pub struct LedgerSeries {
    bytes: CounterFamily,
    messages: CounterFamily,
}

impl LedgerSeries {
    /// The series of `direction` (`"forward"` or `"reverse"`); resolves
    /// nothing yet.
    pub fn new(metrics: &MetricsRegistry, direction: &'static str) -> Self {
        let family = |name| {
            CounterFamily::new(metrics, name, "kind", &TrafficCategory::LABELS)
                .with_label("direction", direction)
        };
        LedgerSeries {
            bytes: family("net_wire_bytes_total"),
            messages: family("net_wire_messages_total"),
        }
    }

    /// Adds a completed migration's ledger to the per-category wire
    /// counters. Empty categories are skipped so the series set stays
    /// minimal and deterministic.
    pub fn record(&self, ledger: &TrafficLedger) {
        for category in TrafficCategory::ALL {
            let bytes = ledger.bytes_in(category).as_u64();
            let messages = ledger.messages_in(category);
            if messages == 0 && bytes == 0 {
                continue;
            }
            self.bytes.at(category as usize).inc(bytes);
            self.messages.at(category as usize).inc(messages);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecycle_types::Bytes;

    #[test]
    fn ledger_export_matches_ledger() {
        let mut ledger = TrafficLedger::new();
        ledger.record_many(TrafficCategory::FullPages, 3, Bytes::from_kib(4));
        ledger.record(TrafficCategory::Control, Bytes::new(24));
        let m = MetricsRegistry::new();
        LedgerSeries::new(&m, "forward").record(&ledger);
        assert_eq!(
            m.counter(
                "net_wire_bytes_total",
                &[("direction", "forward"), ("kind", "full_pages")]
            ),
            3 * 4096
        );
        assert_eq!(
            m.counter(
                "net_wire_messages_total",
                &[("direction", "forward"), ("kind", "control")]
            ),
            1
        );
        assert_eq!(
            m.counter_total("net_wire_bytes_total"),
            ledger.total().as_u64()
        );
        // Empty categories create no series.
        assert_eq!(
            m.snapshot().counters_named("net_wire_bytes_total").count(),
            2
        );
    }
}

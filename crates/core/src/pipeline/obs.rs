//! Observability for the transfer pipeline.
//!
//! Ledger recording and metric emission are fused here — [`rec`] and
//! [`rec_many`] update a [`TrafficLedger`] *and* the `engine_wire_*`
//! counters in one step, so the two accountings cannot drift apart at a
//! call site. This module is the only place the pipeline touches the
//! metrics registry, and [`EngineSeries`] names every series a
//! migration records into.
//!
//! [`rec`]: MigrationEngine::rec
//! [`rec_many`]: MigrationEngine::rec_many

use std::sync::OnceLock;

use vecycle_net::{LedgerSeries, TrafficCategory, TrafficLedger};
use vecycle_obs::{
    layouts, BucketLayout, Counter, CounterFamily, FieldValue, Histogram, MetricsRegistry, SpanId,
};
use vecycle_types::{Bytes, PageCount, PageIndex};

use super::rounds::AbortedTransfer;
use crate::{MigrationEngine, MigrationReport, RoundReport, Strategy, StrategyName};

/// Which way traffic flows: the `direction` label of the wire counters.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Direction {
    /// Source to destination.
    Forward,
    /// Destination to source.
    Reverse,
}

const DIRECTIONS: [&str; 2] = ["forward", "reverse"];

/// The `mode` label of `engine_migrations_total`, one per driver.
const MODES: [&str; 4] = ["static", "gang", "live", "postcopy"];

/// The series a migration records into, each resolved on its first
/// record, so an engine that never migrates resolves nothing.
/// [`MigrationEngine::with_metrics`] builds a fresh table for the new
/// registry; clones of an engine share one.
#[derive(Debug)]
pub(crate) struct EngineSeries {
    /// `engine_wire_{bytes,messages}_total` by direction, then category.
    wire: [(CounterFamily, CounterFamily); 2],
    /// `engine_migrations_total` by mode, then strategy.
    migrations: [CounterFamily; MODES.len()],
    pub(crate) scan: CounterFamily,
    pub(crate) resend: CounterFamily,
    pub(crate) stop_copy: CounterFamily,
    dirty: OnceLock<Counter>,
    rounds: OnceLock<Histogram>,
    downtime: OnceLock<Histogram>,
    round_bytes: OnceLock<Histogram>,
    round_sim_millis: OnceLock<Histogram>,
    /// The net layer's `net_wire_*` series, by direction.
    ledgers: [LedgerSeries; 2],
}

impl EngineSeries {
    pub(crate) fn new(metrics: &MetricsRegistry) -> Self {
        let wire = |name, direction| {
            CounterFamily::new(metrics, name, "kind", &TrafficCategory::LABELS)
                .with_label("direction", direction)
        };
        let pages = |name, classes| CounterFamily::new(metrics, name, "class", classes);
        EngineSeries {
            wire: DIRECTIONS.map(|d| {
                let bytes = wire("engine_wire_bytes_total", d);
                (bytes, wire("engine_wire_messages_total", d))
            }),
            migrations: MODES.map(|mode| {
                CounterFamily::new(
                    metrics,
                    "engine_migrations_total",
                    "strategy",
                    &StrategyName::LABELS,
                )
                .with_label("mode", mode)
            }),
            scan: pages(
                "engine_scan_pages_total",
                &["skipped", "zero", "checksum", "dedup_ref", "full"],
            ),
            resend: pages(
                "engine_resend_pages_total",
                &["full", "checksum", "dedup_ref", "zero"],
            ),
            stop_copy: pages("engine_stop_copy_pages_total", &["full", "zero"]),
            dirty: OnceLock::new(),
            rounds: OnceLock::new(),
            downtime: OnceLock::new(),
            round_bytes: OnceLock::new(),
            round_sim_millis: OnceLock::new(),
            ledgers: DIRECTIONS.map(|d| LedgerSeries::new(metrics, d)),
        }
    }
}

/// Bumps one counter of `family` per nonzero count, `counts` in the
/// family's value order.
pub(crate) fn obs_pages(family: &CounterFamily, counts: &[u64]) {
    for (i, &n) in counts.iter().enumerate() {
        if n > 0 {
            family.at(i).inc(n);
        }
    }
}

impl MigrationEngine {
    /// Records traffic in a ledger *and* in the engine-side
    /// `engine_wire_*` counters in one step, so the two accountings
    /// cannot drift apart at a call site. [`LedgerSeries::record`]
    /// later exports the finished ledger into the independent `net_wire_*`
    /// family; the invariant suite reconciles the two.
    pub(crate) fn rec(
        &self,
        ledger: &mut TrafficLedger,
        direction: Direction,
        category: TrafficCategory,
        bytes: Bytes,
    ) {
        ledger.record(category, bytes);
        self.obs_wire(direction, category, 1, bytes);
    }

    /// Bulk form of [`MigrationEngine::rec`]: `count` messages of `size`
    /// bytes each.
    pub(crate) fn rec_many(
        &self,
        ledger: &mut TrafficLedger,
        direction: Direction,
        category: TrafficCategory,
        count: u64,
        size: Bytes,
    ) {
        ledger.record_many(category, count, size);
        self.obs_wire(direction, category, count, size * count);
    }

    /// Bumps the engine-side wire counters; zero-message records are
    /// skipped so the series set stays minimal (and matches the skip rule
    /// of [`LedgerSeries::record`]).
    fn obs_wire(
        &self,
        direction: Direction,
        category: TrafficCategory,
        messages: u64,
        bytes: Bytes,
    ) {
        if messages == 0 && bytes == Bytes::ZERO {
            return;
        }
        let (b, m) = &self.series.wire[direction as usize];
        b.at(category as usize).inc(bytes.as_u64());
        m.at(category as usize).inc(messages);
    }

    /// The histogram `name` (no labels) in `slot`.
    fn histogram<'s>(
        &self,
        slot: &'s OnceLock<Histogram>,
        name: &str,
        layout: BucketLayout,
    ) -> &'s Histogram {
        slot.get_or_init(|| self.metrics.resolve_histogram(name, &[], layout))
    }

    /// Opens the `migration` root span and counts the attempt.
    pub(crate) fn obs_migration_start(&self, mode: &'static str, strategy: &Strategy) -> SpanId {
        let m = MODES.iter().position(|&m| m == mode).expect("a known mode");
        self.series.migrations[m]
            .at(strategy.name() as usize)
            .inc(1);
        let labels = [("mode", mode), ("strategy", strategy.name().label())];
        self.metrics.span_start("migration", &labels)
    }

    /// Closes the migration span with summary attributes, feeds the
    /// per-migration histograms, and exports the completed ledgers to the
    /// `net_wire_*` counter families — the second, independent accounting
    /// of the same traffic.
    pub(crate) fn obs_migration_end(&self, span: SpanId, report: &MigrationReport) {
        self.obs_ledgers(report.forward_ledger(), report.reverse_ledger());
        let s = &self.series;
        self.histogram(&s.rounds, "engine_migration_rounds", layouts::ROUNDS)
            .observe(report.rounds().len() as u64);
        self.histogram(
            &s.downtime,
            "engine_downtime_sim_millis",
            layouts::SIM_MILLIS,
        )
        .observe(report.downtime().as_nanos() / 1_000_000);
        self.metrics.span_end(
            span,
            &[
                ("rounds", report.rounds().len() as u64),
                ("forward_bytes", report.source_traffic().as_u64()),
                ("downtime_ns", report.downtime().as_nanos()),
            ],
        );
    }

    /// Exports a completed migration's ledgers to the `net_wire_*`
    /// counter families.
    pub(crate) fn obs_ledgers(&self, forward: &TrafficLedger, reverse: &TrafficLedger) {
        let [f, r] = &self.series.ledgers;
        f.record(forward);
        r.record(reverse);
    }

    /// Closes the migration span for an attempt a fault killed, leaving
    /// an `engine_abort` event carrying the wreckage counts. The aborted
    /// attempt's landed bytes stay in the `engine_wire_*` counters but
    /// never reach `net_wire_*` (no completed ledger) — the difference
    /// between the families is exactly the wasted wire traffic.
    pub(crate) fn obs_abort(&self, span: SpanId, round: u32, wreck: &AbortedTransfer) {
        self.metrics.inc("engine_aborts_total", &[], 1);
        self.metrics.event(
            "engine_abort",
            &[
                ("round", FieldValue::from(u64::from(round))),
                (
                    "landed_pages",
                    FieldValue::from(wreck.landed_pages().as_u64()),
                ),
                ("traffic_bytes", FieldValue::from(wreck.traffic.as_u64())),
            ],
        );
        self.metrics.span_end(span, &[("aborted", 1)]);
    }

    /// Counts a freshly drained dirty set.
    pub(crate) fn obs_dirty(&self, dirty: &[PageIndex]) {
        if !dirty.is_empty() {
            let m = &self.metrics;
            (self.series.dirty)
                .get_or_init(|| m.resolve_counter("engine_dirty_pages_total", &[]))
                .inc(dirty.len() as u64);
        }
    }

    /// Emits one completed round: a `round` span with one `page_class`
    /// child span per nonzero class, plus the per-round histograms.
    pub(crate) fn obs_round(&self, report: &RoundReport) {
        let mut digits = [0; 10];
        let round = decimal(report.round, &mut digits);
        let span = self.metrics.span_start("round", &[("round", round)]);
        for (class, pages) in [
            ("full", report.full_pages),
            ("checksum", report.checksum_pages),
            ("dedup_ref", report.dedup_refs),
            ("skipped", report.skipped_pages),
            ("zero", report.zero_pages),
        ] {
            if pages == PageCount::ZERO {
                continue;
            }
            let child = self.metrics.span_start("page_class", &[("class", class)]);
            self.metrics.span_end(child, &[("pages", pages.as_u64())]);
        }
        self.metrics.span_end(
            span,
            &[
                ("bytes", report.bytes_sent.as_u64()),
                ("sim_ns", report.duration.as_nanos()),
            ],
        );
        let s = &self.series;
        self.histogram(&s.round_bytes, "engine_round_bytes", layouts::BYTES)
            .observe(report.bytes_sent.as_u64());
        self.histogram(
            &s.round_sim_millis,
            "engine_round_sim_millis",
            layouts::SIM_MILLIS,
        )
        .observe(report.duration.as_nanos() / 1_000_000);
    }
}

/// `n` in decimal, written into the end of `buf`: a span label without
/// a `String`.
fn decimal(mut n: u32, buf: &mut [u8; 10]) -> &str {
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[start..]).expect("ASCII digits")
}

#[cfg(test)]
mod tests {
    use super::decimal;

    #[test]
    fn decimal_matches_to_string() {
        for n in [0, 1, 9, 10, 99, 100, 4_096, 1_000_000_007, u32::MAX] {
            assert_eq!(decimal(n, &mut [0; 10]), n.to_string());
        }
    }
}

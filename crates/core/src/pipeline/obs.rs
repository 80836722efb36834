//! Observability for the transfer pipeline.
//!
//! Ledger recording and metric emission are fused here — [`rec`] and
//! [`rec_many`] update a [`TrafficLedger`] *and* the `engine_wire_*`
//! counters in one step, so the two accountings cannot drift apart at a
//! call site. This module is the only place the pipeline touches the
//! metrics registry.
//!
//! [`rec`]: MigrationEngine::rec
//! [`rec_many`]: MigrationEngine::rec_many

use vecycle_net::{TrafficCategory, TrafficLedger};
use vecycle_obs::{layouts, FieldValue, SpanId};
use vecycle_types::{Bytes, PageCount, PageIndex};

use super::rounds::AbortedTransfer;
use crate::{MigrationEngine, MigrationReport, RoundReport, Strategy};

impl MigrationEngine {
    /// Records traffic in a ledger *and* in the engine-side
    /// `engine_wire_*` counters in one step, so the two accountings
    /// cannot drift apart at a call site. [`vecycle_net::observe_ledger`]
    /// later exports the finished ledger into the independent `net_wire_*`
    /// family; the invariant suite reconciles the two.
    pub(crate) fn rec(
        &self,
        ledger: &mut TrafficLedger,
        direction: &'static str,
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
        direction: &'static str,
        category: TrafficCategory,
        count: u64,
        size: Bytes,
    ) {
        ledger.record_many(category, count, size);
        self.obs_wire(direction, category, count, size * count);
    }

    /// Bumps the engine-side wire counters; zero-message records are
    /// skipped so the series set stays minimal (and matches the skip rule
    /// of [`vecycle_net::observe_ledger`]).
    fn obs_wire(&self, direction: &str, category: TrafficCategory, messages: u64, bytes: Bytes) {
        if messages == 0 && bytes == Bytes::ZERO {
            return;
        }
        let labels = [("direction", direction), ("kind", category.label())];
        self.metrics
            .inc("engine_wire_bytes_total", &labels, bytes.as_u64());
        self.metrics
            .inc("engine_wire_messages_total", &labels, messages);
    }

    /// Bumps one `{class}`-labelled page counter per nonzero class.
    pub(crate) fn obs_pages(&self, name: &str, classes: &[(&str, u64)]) {
        for &(class, count) in classes {
            if count > 0 {
                self.metrics.inc(name, &[("class", class)], count);
            }
        }
    }

    /// Opens the `migration` root span and counts the attempt.
    pub(crate) fn obs_migration_start(&self, mode: &'static str, strategy: &Strategy) -> SpanId {
        let labels = [("mode", mode), ("strategy", strategy.name().label())];
        self.metrics.inc("engine_migrations_total", &labels, 1);
        self.metrics.span_start("migration", &labels)
    }

    /// Closes the migration span with summary attributes, feeds the
    /// per-migration histograms, and exports the completed ledgers to the
    /// `net_wire_*` counter families — the second, independent accounting
    /// of the same traffic.
    pub(crate) fn obs_migration_end(&self, span: SpanId, report: &MigrationReport) {
        vecycle_net::observe_ledger(&self.metrics, "forward", report.forward_ledger());
        vecycle_net::observe_ledger(&self.metrics, "reverse", report.reverse_ledger());
        self.metrics.observe(
            "engine_migration_rounds",
            &[],
            layouts::ROUNDS,
            report.rounds().len() as u64,
        );
        self.metrics.observe(
            "engine_downtime_sim_millis",
            &[],
            layouts::SIM_MILLIS,
            report.downtime().as_nanos() / 1_000_000,
        );
        self.metrics.span_end(
            span,
            &[
                ("rounds", report.rounds().len() as u64),
                ("forward_bytes", report.source_traffic().as_u64()),
                ("downtime_ns", report.downtime().as_nanos()),
            ],
        );
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
            self.metrics
                .inc("engine_dirty_pages_total", &[], dirty.len() as u64);
        }
    }

    /// Emits one completed round: a `round` span with one `page_class`
    /// child span per nonzero class, plus the per-round histograms.
    pub(crate) fn obs_round(&self, report: &RoundReport) {
        let round = report.round.to_string();
        let span = self
            .metrics
            .span_start("round", &[("round", round.as_str())]);
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
        self.metrics.observe(
            "engine_round_bytes",
            &[],
            layouts::BYTES,
            report.bytes_sent.as_u64(),
        );
        self.metrics.observe(
            "engine_round_sim_millis",
            &[],
            layouts::SIM_MILLIS,
            report.duration.as_nanos() / 1_000_000,
        );
    }
}

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

use std::sync::{Mutex, OnceLock};

use vecycle_net::{LedgerSeries, TrafficCategory, TrafficLedger};
use vecycle_obs::{
    layouts, BucketLayout, Counter, CounterFamily, Histogram, MetricsRegistry, SpanId, StrId,
};
use vecycle_types::{sync, Bytes, PageCount, PageIndex};

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

/// The `class` label of a round's `page_class` spans, in `obs_round`'s
/// order.
const CLASSES: [&str; 5] = ["full", "checksum", "dedup_ref", "skipped", "zero"];

/// Every string the engine's spans carry, as ids interned in one
/// registry; a round number is interned on its first use.
#[derive(Debug)]
pub(crate) struct SpanWords {
    /// Span names: `migration`, `round`, `page_class`.
    names: [StrId; 3],
    /// Label keys: `mode`, `strategy`, `class` (a round's is its name).
    keys: [StrId; 3],
    modes: [StrId; MODES.len()],
    strategies: [StrId; StrategyName::LABELS.len()],
    classes: [StrId; CLASSES.len()],
    /// A migration span's attrs (`aborted` alone when a fault killed it).
    migration_end: [StrId; 4],
    /// A post-copy migration span's attrs.
    pub(crate) postcopy_end: [StrId; 3],
    /// A round span's two attrs, then a page class span's one.
    round_end: [StrId; 3],
    /// Round `n`'s label at `n - 1`, once a round `n` has been recorded.
    numbers: Mutex<Vec<StrId>>,
}

impl SpanWords {
    fn new(metrics: &MetricsRegistry) -> Self {
        let id = |s| metrics.intern(s);
        SpanWords {
            names: ["migration", "round", "page_class"].map(id),
            keys: ["mode", "strategy", "class"].map(id),
            modes: MODES.map(id),
            strategies: StrategyName::LABELS.map(id),
            classes: CLASSES.map(id),
            migration_end: ["rounds", "forward_bytes", "downtime_ns", "aborted"].map(id),
            postcopy_end: [
                "pages_from_checkpoint",
                "pages_from_network",
                "demand_faults",
            ]
            .map(id),
            round_end: ["bytes", "sim_ns", "pages"].map(id),
            numbers: Mutex::default(),
        }
    }

    /// The label of round `n` (rounds count up from 1).
    fn number(&self, metrics: &MetricsRegistry, n: u32) -> StrId {
        let mut numbers = sync::lock(&self.numbers);
        for next in numbers.len() + 1..=n as usize {
            numbers.push(metrics.intern(next.to_string()));
        }
        numbers[n as usize - 1]
    }
}

/// The series a migration records into, each resolved on its first
/// record, and its span strings, so an engine that never migrates
/// resolves nothing.
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
    words: OnceLock<SpanWords>,
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
            words: OnceLock::new(),
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

    /// The engine's span strings in its registry.
    pub(crate) fn words(&self) -> &SpanWords {
        (self.series.words).get_or_init(|| SpanWords::new(&self.metrics))
    }

    /// Opens the `migration` root span and counts the attempt.
    pub(crate) fn obs_migration_start(&self, mode: &'static str, strategy: &Strategy) -> SpanId {
        let m = MODES.iter().position(|&m| m == mode).expect("a known mode");
        let s = strategy.name() as usize;
        self.series.migrations[m].at(s).inc(1);
        let w = self.words();
        let labels = [(w.keys[0], w.modes[m]), (w.keys[1], w.strategies[s])];
        self.metrics.span_start(w.names[0], &labels)
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
        let [rounds, forward, downtime, _] = self.words().migration_end;
        self.metrics.span_end(
            span,
            &[
                (rounds, report.rounds().len() as u64),
                (forward, report.source_traffic().as_u64()),
                (downtime, report.downtime().as_nanos()),
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
                ("round", u64::from(round)),
                ("landed_pages", wreck.landed_pages().as_u64()),
                ("traffic_bytes", wreck.traffic.as_u64()),
            ],
        );
        self.metrics
            .span_end(span, &[(self.words().migration_end[3], 1)]);
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
        let (m, w) = (&self.metrics, self.words());
        let [_, round, page_class] = w.names;
        let span = m.span_start(round, &[(round, w.number(m, report.round))]);
        let pages = [
            report.full_pages,
            report.checksum_pages,
            report.dedup_refs,
            report.skipped_pages,
            report.zero_pages,
        ];
        for (&class, pages) in w.classes.iter().zip(pages) {
            if pages == PageCount::ZERO {
                continue;
            }
            let child = m.span_start(page_class, &[(w.keys[2], class)]);
            m.span_end(child, &[(w.round_end[2], pages.as_u64())]);
        }
        let [bytes, sim_ns, _] = w.round_end;
        let (sent, took) = (report.bytes_sent.as_u64(), report.duration.as_nanos());
        m.span_end(span, &[(bytes, sent), (sim_ns, took)]);
        let s = &self.series;
        self.histogram(&s.round_bytes, "engine_round_bytes", layouts::BYTES)
            .observe(sent);
        self.histogram(
            &s.round_sim_millis,
            "engine_round_sim_millis",
            layouts::SIM_MILLIS,
        )
        .observe(took / 1_000_000);
    }
}

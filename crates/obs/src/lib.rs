//! Deterministic observability for the VeCycle simulator.
//!
//! The simulator's entire argument is quantitative, so its telemetry
//! must be as reproducible as its results: this crate provides a
//! metrics registry (counters, gauges, fixed-bucket histograms) and
//! hierarchical span tracing (`migration > round > page-class`) that
//! are **bit-identical across runs**. The rules that make that
//! possible:
//!
//! * **No wall-clock reads.** "Time" is simulated: bytes, rounds and
//!   [`SimDuration`](vecycle_types::SimDuration) values computed by the
//!   engine. Nothing in this crate calls `Instant::now`.
//! * **Deterministic ordering.** Metric series live in `BTreeMap`s
//!   keyed by `(name, sorted labels)`; snapshots, Prometheus text and
//!   JSONL streams iterate those maps, never a hash map.
//! * **Per-thread span stacks.** Spans and events nest on the control
//!   path that drives them; concurrent sessions sharing one registry
//!   keep independent stacks, and their counters commute.
//!
//! A hot call site resolves its series once into a handle ([`Counter`],
//! [`Gauge`], [`Histogram`], or a [`CounterFamily`] over a label's
//! known values) and records without the registry's lock; one-off sites
//! use the string-keyed [`MetricsRegistry::inc`] and friends (a lookup
//! by an owned key on every call). Both feed the same series. Spans
//! take [`StrId`]s a caller interned once ([`MetricsRegistry::intern`]).
//!
//! Three export surfaces hang off [`MetricsSnapshot`]:
//! [`MetricsSnapshot::to_canonical_json`] (byte-stable, golden-test
//! friendly), [`MetricsSnapshot::to_prometheus`] (text exposition
//! format) and [`MetricsSnapshot::events_jsonl`] (one JSON object per
//! timeline entry — what the CLI tees with `--metrics-out`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod handle;
mod json;
mod registry;
mod snapshot;

pub use handle::{Counter, CounterFamily, Gauge, Histogram};
pub use registry::{BucketLayout, MetricsRegistry, SpanId, StrId};
pub use snapshot::{CounterSample, GaugeSample, HistogramSample, MetricsSnapshot, TimelineEntry};

/// Fixed bucket layouts, shared by every instrumented crate so series
/// with the same unit always agree on boundaries.
pub mod layouts {
    use crate::registry::BucketLayout;

    /// Wire/transfer sizes in bytes: 4 KiB page .. multi-GiB images.
    pub const BYTES: BucketLayout = BucketLayout {
        unit: "bytes",
        bounds: &[
            4_096,
            65_536,
            1_048_576,
            16_777_216,
            268_435_456,
            4_294_967_296,
        ],
    };

    /// Page counts: single page .. million-page working sets.
    #[cfg(test)]
    pub const PAGES: BucketLayout = BucketLayout {
        unit: "pages",
        bounds: &[16, 256, 4_096, 65_536, 1_048_576],
    };

    /// Pre-copy round counts.
    pub const ROUNDS: BucketLayout = BucketLayout {
        unit: "rounds",
        bounds: &[1, 2, 4, 8, 16, 32],
    };

    /// Simulated durations in milliseconds: sub-ms stop-and-copy ..
    /// quarter-hour bulk transfers.
    pub const SIM_MILLIS: BucketLayout = BucketLayout {
        unit: "sim_ms",
        bounds: &[1, 10, 100, 1_000, 10_000, 100_000, 1_000_000],
    };
}

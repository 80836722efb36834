//! Series handles: a resolved series, recorded into without the
//! registry's lock.
//!
//! [`MetricsRegistry::resolve_counter`](crate::MetricsRegistry::resolve_counter)
//! (and its gauge and histogram twins) looks a series up once and hands
//! back an `Arc` to the cell the registry's map holds for it. Recording
//! through the handle is one relaxed atomic per field; the string-keyed
//! calls find the same cell under the lock and record into it the same
//! way, so both paths feed one series. A cell is *visible* — in
//! snapshots, exports and `counter_total` — only once something
//! recorded into it: resolving alone never creates a series.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::*};
use std::sync::{Arc, OnceLock};

use crate::registry::BucketLayout;
use crate::MetricsRegistry;

/// Set by the first record; read by snapshots. The release store after
/// the value's write and the acquire load before its read mean a visible
/// cell never shows the value it had before that first record.
#[derive(Debug, Default)]
struct Touched(AtomicBool);

impl Touched {
    fn mark(&self) {
        if !self.0.load(Relaxed) {
            self.0.store(true, Release);
        }
    }

    fn get(&self) -> bool {
        self.0.load(Acquire)
    }
}

/// A counter's value, or a gauge's `f64` bits.
#[derive(Debug, Default)]
pub(crate) struct ScalarCell {
    value: AtomicU64,
    touched: Touched,
}

impl ScalarCell {
    pub(crate) fn add(&self, by: u64) {
        self.value.fetch_add(by, Relaxed);
        self.touched.mark();
    }

    /// Stores a gauge's value.
    pub(crate) fn set(&self, value: f64) {
        self.value.store(value.to_bits(), Relaxed);
        self.touched.mark();
    }

    pub(crate) fn value(&self) -> u64 {
        self.value.load(Relaxed)
    }

    pub(crate) fn touched(&self) -> bool {
        self.touched.get()
    }
}

#[derive(Debug)]
pub(crate) struct HistogramCell {
    pub(crate) layout: BucketLayout,
    /// One per finite bound, then `+Inf`.
    counts: Box<[AtomicU64]>,
    sum: AtomicU64,
    total: AtomicU64,
    touched: Touched,
}

impl HistogramCell {
    pub(crate) fn new(layout: BucketLayout) -> Self {
        HistogramCell {
            layout,
            counts: (0..=layout.bounds.len())
                .map(|_| AtomicU64::default())
                .collect(),
            sum: AtomicU64::default(),
            total: AtomicU64::default(),
            touched: Touched::default(),
        }
    }

    pub(crate) fn observe(&self, value: u64) {
        let bounds = self.layout.bounds;
        let slot = bounds.iter().position(|&b| value <= b);
        self.counts[slot.unwrap_or(bounds.len())].fetch_add(1, Relaxed);
        self.sum.fetch_add(value, Relaxed);
        self.total.fetch_add(1, Relaxed);
        self.touched.mark();
    }

    /// `(counts, sum, count)`. Taken while writers run, the three may
    /// come from different instants; once they stop, `count` is the sum
    /// of `counts`.
    pub(crate) fn read(&self) -> (Vec<u64>, u64, u64) {
        let counts = self.counts.iter().map(|c| c.load(Relaxed)).collect();
        (counts, self.sum.load(Relaxed), self.total.load(Relaxed))
    }

    pub(crate) fn touched(&self) -> bool {
        self.touched.get()
    }
}

/// A resolved counter series. Clones share the series.
#[derive(Debug, Clone)]
pub struct Counter(pub(crate) Arc<ScalarCell>);

impl Counter {
    /// Adds `by` to the counter (0 still makes the series visible).
    pub fn inc(&self, by: u64) {
        self.0.add(by);
    }

    /// The counter's value.
    pub fn get(&self) -> u64 {
        self.0.value()
    }
}

/// A resolved gauge series. Clones share the series; the last `set`
/// wins.
#[derive(Debug, Clone)]
pub struct Gauge(pub(crate) Arc<ScalarCell>);

impl Gauge {
    /// Sets the gauge to `value` (must be finite).
    pub fn set(&self, value: f64) {
        debug_assert!(value.is_finite(), "gauge set to non-finite {value}");
        self.0.set(value);
    }
}

/// A resolved histogram series with its bucket layout. Clones share the
/// series.
#[derive(Debug, Clone)]
pub struct Histogram(pub(crate) Arc<HistogramCell>);

impl Histogram {
    /// Records `value`.
    pub fn observe(&self, value: u64) {
        self.0.observe(value);
    }
}

/// The counters `name{label=value}` for a fixed list of values, each
/// resolved on its first use — a call site whose label picks one of a
/// few known values.
#[derive(Debug)]
pub struct CounterFamily {
    metrics: MetricsRegistry,
    name: &'static str,
    /// A label pair every counter of the family carries, if any.
    fixed: Option<(&'static str, &'static str)>,
    label: &'static str,
    values: &'static [&'static str],
    counters: Box<[OnceLock<Counter>]>,
}

impl CounterFamily {
    /// The family `name{label=value}` over `values`; resolves nothing yet.
    pub fn new(
        metrics: &MetricsRegistry,
        name: &'static str,
        label: &'static str,
        values: &'static [&'static str],
    ) -> Self {
        CounterFamily {
            metrics: metrics.clone(),
            name,
            fixed: None,
            label,
            values,
            counters: values.iter().map(|_| OnceLock::new()).collect(),
        }
    }

    /// The same family with `key=value` on every counter.
    #[must_use]
    pub fn with_label(mut self, key: &'static str, value: &'static str) -> Self {
        self.fixed = Some((key, value));
        self
    }

    /// The counter labelled with the `i`-th value.
    pub fn at(&self, i: usize) -> &Counter {
        self.counters[i].get_or_init(|| {
            let own = (self.label, self.values[i]);
            match self.fixed {
                Some(fixed) => self.metrics.resolve_counter(self.name, &[fixed, own]),
                None => self.metrics.resolve_counter(self.name, &[own]),
            }
        })
    }

    /// The counter labelled `value`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not one of the family's values.
    pub fn of(&self, value: &str) -> &Counter {
        match self.values.iter().position(|&v| v == value) {
            Some(i) => self.at(i),
            None => panic!("{} has no {}={value}", self.name, self.label),
        }
    }
}

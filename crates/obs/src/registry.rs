//! The metrics registry: counters, gauges, histograms, spans, events.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::thread::ThreadId;

use parking_lot::Mutex;

use crate::snapshot::{
    CounterSample, GaugeSample, HistogramSample, MetricsSnapshot, TimelineEntry,
};

/// A fixed histogram bucket layout.
///
/// Layouts are compile-time constants (see [`crate::layouts`]) so every
/// series with the same unit agrees on boundaries — a precondition for
/// byte-stable golden snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketLayout {
    /// Unit tag recorded in snapshots (e.g. `"bytes"`).
    pub unit: &'static str,
    /// Inclusive upper bounds of the finite buckets, ascending. An
    /// implicit `+Inf` bucket catches the rest.
    pub bounds: &'static [u64],
}

/// Identifier of a span in the registry's timeline, assigned
/// sequentially from 1 on the single-threaded control path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl std::fmt::Display for SpanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A typed field value attached to a timeline event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (counts, bytes, rounds).
    U64(u64),
    /// Finite float (ratios, simulated seconds).
    F64(f64),
    /// Free-form string (strategy names, outcomes).
    Str(String),
    /// Boolean flag.
    Bool(bool),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

/// `(metric name, sorted label pairs)` — the series key.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct SeriesKey {
    pub(crate) name: String,
    pub(crate) labels: Vec<(String, String)>,
}

impl SeriesKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        SeriesKey {
            name: name.to_string(),
            labels,
        }
    }
}

#[derive(Debug, Clone)]
struct Histogram {
    layout: BucketLayout,
    counts: Vec<u64>,
    sum: u64,
    total: u64,
}

impl Histogram {
    fn new(layout: BucketLayout) -> Self {
        Histogram {
            layout,
            counts: vec![0; layout.bounds.len() + 1],
            sum: 0,
            total: 0,
        }
    }

    fn observe(&mut self, value: u64) {
        let slot = self
            .layout
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.layout.bounds.len());
        self.counts[slot] += 1;
        self.sum += value;
        self.total += 1;
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<SeriesKey, u64>,
    gauges: BTreeMap<SeriesKey, f64>,
    histograms: BTreeMap<SeriesKey, Histogram>,
    timeline: Vec<TimelineEntry>,
    /// Open-span stacks, one per driving thread. Span nesting is a
    /// property of a single control flow; concurrent sessions sharing
    /// one registry must not see each other's stacks (their counters
    /// commute, but their spans interleave).
    open_spans: HashMap<ThreadId, Vec<SpanId>>,
    next_span: u64,
}

impl Inner {
    fn stack(&mut self) -> &mut Vec<SpanId> {
        self.open_spans
            .entry(std::thread::current().id())
            .or_default()
    }
}

/// A deterministic metrics registry.
///
/// Cloning is cheap (an `Arc` bump); clones share state, so one
/// registry can be threaded through engine, session, checkpoint, net
/// and fault layers and snapshotted once at the end.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<Inner>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `by` to the counter `name{labels}`.
    pub fn inc(&self, name: &str, labels: &[(&str, &str)], by: u64) {
        let key = SeriesKey::new(name, labels);
        *self.inner.lock().counters.entry(key).or_insert(0) += by;
    }

    /// Sets the gauge `name{labels}` to `value` (must be finite).
    pub fn set_gauge(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        debug_assert!(value.is_finite(), "gauge {name} set to non-finite {value}");
        let key = SeriesKey::new(name, labels);
        self.inner.lock().gauges.insert(key, value);
    }

    /// Records `value` into the histogram `name{labels}` with the given
    /// fixed bucket `layout`. Every observation of a series must use
    /// the same layout.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], layout: BucketLayout, value: u64) {
        let key = SeriesKey::new(name, labels);
        let mut inner = self.inner.lock();
        let histogram = inner
            .histograms
            .entry(key)
            .or_insert_with(|| Histogram::new(layout));
        debug_assert_eq!(
            histogram.layout, layout,
            "histogram {name} observed with two different layouts"
        );
        histogram.observe(value);
    }

    /// Opens a span as a child of the innermost open span. Returns the
    /// id to pass to [`MetricsRegistry::span_end`].
    pub fn span_start(&self, name: &str, labels: &[(&str, &str)]) -> SpanId {
        let mut inner = self.inner.lock();
        inner.next_span += 1;
        let id = SpanId(inner.next_span);
        let parent = inner.stack().last().copied();
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        inner.timeline.push(TimelineEntry::SpanStart {
            id,
            parent,
            name: name.to_string(),
            labels,
        });
        inner.stack().push(id);
        id
    }

    /// Closes span `id`, attaching final attributes (simulated
    /// durations, byte counts — never wall-clock readings). Spans must
    /// close innermost-first on their own thread.
    pub fn span_end(&self, id: SpanId, attrs: &[(&str, u64)]) {
        let mut inner = self.inner.lock();
        let top = inner.stack().pop();
        debug_assert_eq!(top, Some(id), "span_end out of order");
        inner.timeline.push(TimelineEntry::SpanEnd {
            id,
            attrs: attrs.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        });
    }

    /// Records a point event inside the innermost open span of the
    /// calling thread.
    pub fn event(&self, name: &str, fields: &[(&str, FieldValue)]) {
        let mut inner = self.inner.lock();
        let span = inner.stack().last().copied();
        inner.timeline.push(TimelineEntry::Event {
            span,
            name: name.to_string(),
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        });
    }

    /// Reads one counter series (0 if never incremented).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        let key = SeriesKey::new(name, labels);
        self.inner.lock().counters.get(&key).copied().unwrap_or(0)
    }

    /// Sums a counter across all label sets of `name`.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.inner
            .lock()
            .counters
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Takes a deterministic point-in-time snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, &v)| CounterSample {
                    name: k.name.clone(),
                    labels: k.labels.clone(),
                    value: v,
                })
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, &v)| GaugeSample {
                    name: k.name.clone(),
                    labels: k.labels.clone(),
                    value: v,
                })
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| HistogramSample {
                    name: k.name.clone(),
                    labels: k.labels.clone(),
                    unit: h.layout.unit.to_string(),
                    bounds: h.layout.bounds.to_vec(),
                    counts: h.counts.clone(),
                    sum: h.sum,
                    count: h.total,
                })
                .collect(),
            timeline: inner.timeline.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layouts;

    #[test]
    fn counters_accumulate_and_read_back() {
        let m = MetricsRegistry::new();
        m.inc("pages_total", &[("kind", "full")], 3);
        m.inc("pages_total", &[("kind", "full")], 2);
        m.inc("pages_total", &[("kind", "zero")], 1);
        assert_eq!(m.counter("pages_total", &[("kind", "full")]), 5);
        assert_eq!(m.counter_total("pages_total"), 6);
    }

    #[test]
    fn label_order_is_normalized() {
        let m = MetricsRegistry::new();
        m.inc("x", &[("b", "2"), ("a", "1")], 1);
        m.inc("x", &[("a", "1"), ("b", "2")], 1);
        assert_eq!(m.counter("x", &[("b", "2"), ("a", "1")]), 2);
    }

    #[test]
    fn histogram_buckets_fill_per_slot() {
        let m = MetricsRegistry::new();
        for v in [1, 20, 5000, 2_000_000] {
            m.observe("h", &[], layouts::PAGES, v);
        }
        let snap = m.snapshot();
        let h = &snap.histograms[0];
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 2_005_021);
        // buckets: ≤16, ≤256, ≤4096, ≤65536, ≤1048576, +Inf
        assert_eq!(h.counts, vec![1, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn spans_nest_and_close_in_order() {
        let m = MetricsRegistry::new();
        let mig = m.span_start("migration", &[("vm", "7")]);
        let round = m.span_start("round", &[("n", "1")]);
        m.event("page_class", &[("full", FieldValue::U64(10))]);
        m.span_end(round, &[("bytes", 4096)]);
        m.span_end(mig, &[]);
        let snap = m.snapshot();
        assert_eq!(snap.timeline.len(), 5);
        match &snap.timeline[1] {
            TimelineEntry::SpanStart { parent, .. } => assert_eq!(*parent, Some(mig)),
            other => panic!("unexpected entry {other:?}"),
        }
    }

    #[test]
    fn concurrent_drivers_keep_independent_span_stacks() {
        // Two threads sharing one registry interleave freely; each
        // thread's spans must still nest under its own parents, and
        // every span must close cleanly (the LIFO assertion is
        // per-thread).
        let m = MetricsRegistry::new();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let m = m.clone();
                scope.spawn(move || {
                    for round in 0..8u64 {
                        let mig = m.span_start("migration", &[("vm", &t.to_string())]);
                        let r = m.span_start("round", &[("n", &round.to_string())]);
                        m.event("tick", &[("t", FieldValue::U64(t))]);
                        m.span_end(r, &[]);
                        m.span_end(mig, &[]);
                    }
                });
            }
        });
        let snap = m.snapshot();
        // 4 threads × 8 iterations × (2 starts + 1 event + 2 ends).
        assert_eq!(snap.timeline.len(), 4 * 8 * 5);
        // Every round span's parent is a migration span, never a span
        // from another thread's stack (migrations have no parent).
        let mut parents = std::collections::HashMap::new();
        for e in &snap.timeline {
            if let TimelineEntry::SpanStart {
                id, parent, name, ..
            } = e
            {
                parents.insert(*id, (*parent, name.clone()));
            }
        }
        for (parent, name) in parents.values() {
            match name.as_str() {
                "migration" => assert_eq!(*parent, None),
                "round" => {
                    let p = parent.expect("round must have a parent");
                    assert_eq!(parents[&p].1, "migration");
                }
                other => panic!("unexpected span {other}"),
            }
        }
    }
}

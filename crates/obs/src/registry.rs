//! The metrics registry: counters, gauges, histograms, spans, events.
//!
//! Each series is a cell (see [`crate::handle`]) in a map keyed by
//! `(name, sorted labels)`. A hot call site resolves a handle to its
//! cell once and records without the lock, allocating nothing; a
//! string-keyed call is a plain lookup: it builds an owned
//! [`SeriesKey`], finds the cell under the lock and records into it as
//! a handle would. The timeline stores interned string ids instead of
//! owned strings; [`TimelineEntry`] values are built only in
//! [`MetricsRegistry::snapshot`].

use std::collections::{BTreeMap, HashMap};
use std::num::NonZeroU64;
use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use vecycle_types::sync;

use crate::handle::{Counter, CounterCell, Gauge, GaugeCell, Histogram, HistogramCell};
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

/// Label pairs a caller passes, sorted — as given when they already
/// are, else in a stack buffer (the heap only past four pairs) — the
/// order a span's label list is stored in, as a series key's is.
fn with_sorted<R>(labels: &[(&str, &str)], f: impl FnOnce(&[(&str, &str)]) -> R) -> R {
    if labels.is_sorted() {
        f(labels)
    } else if labels.len() <= 4 {
        let mut buf = [("", ""); 4];
        let buf = &mut buf[..labels.len()];
        buf.copy_from_slice(labels);
        buf.sort_unstable();
        f(buf)
    } else {
        let mut buf = labels.to_vec();
        buf.sort_unstable();
        f(&buf)
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
        let mut labels: Vec<_> = (labels.iter())
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort_unstable();
        let name = name.to_string();
        SeriesKey { name, labels }
    }
}

/// One timeline record; spans hold interned string ids and ranges into
/// [`Timeline`]'s arenas. 32 bytes: a `fleet_aware` op records ≈ 28 k.
#[derive(Debug)]
enum Entry {
    Start {
        id: SpanId,
        parent: Option<NonZeroU64>,
        name: u32,
        labels: Range<u32>,
    },
    End {
        id: SpanId,
        attrs: Range<u32>,
    },
    /// Events (aborts only) are rare enough to keep as they export.
    Event(Box<TimelineEntry>),
}

/// The span/event timeline in interned form: every span name, label
/// key, label value and attr key is stored once per registry.
#[derive(Debug, Default)]
struct Timeline {
    /// Each distinct string and its id (ids count up from 0).
    strings: HashMap<Box<str>, u32>,
    /// Sorted `(key, value)` label ids of every span start.
    labels: Vec<(u32, u32)>,
    /// `(key id, value)` attrs of every span end.
    attrs: Vec<(u32, u64)>,
    entries: Vec<Entry>,
}

/// `from..to` as stored in an [`Entry`].
fn arena_range(from: usize, to: usize) -> Range<u32> {
    let narrow = |i| u32::try_from(i).expect("under 2^32 arena slots");
    narrow(from)..narrow(to)
}

impl Timeline {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.strings.get(s) {
            return id;
        }
        let id = u32::try_from(self.strings.len()).expect("under 2^32 distinct span strings");
        self.strings.insert(s.into(), id);
        id
    }

    fn start(&mut self, id: SpanId, parent: Option<SpanId>, name: &str, labels: &[(&str, &str)]) {
        let name = self.intern(name);
        let from = self.labels.len();
        for &(k, v) in labels {
            let pair = (self.intern(k), self.intern(v));
            self.labels.push(pair);
        }
        let labels = arena_range(from, self.labels.len());
        let parent = parent.map(|p| NonZeroU64::new(p.0).expect("span ids start at 1"));
        self.entries.push(Entry::Start {
            id,
            parent,
            name,
            labels,
        });
    }

    fn end(&mut self, id: SpanId, attrs: &[(&str, u64)]) {
        let from = self.attrs.len();
        for &(k, v) in attrs {
            let k = self.intern(k);
            self.attrs.push((k, v));
        }
        let attrs = arena_range(from, self.attrs.len());
        self.entries.push(Entry::End { id, attrs });
    }

    /// The timeline as it exports: owned strings, record order.
    fn materialise(&self) -> Vec<TimelineEntry> {
        let mut by_id = vec![""; self.strings.len()];
        for (s, &id) in &self.strings {
            by_id[id as usize] = s;
        }
        let s = |id: u32| by_id[id as usize].to_string();
        self.entries
            .iter()
            .map(|e| match e {
                Entry::Start {
                    id,
                    parent,
                    name,
                    labels,
                } => TimelineEntry::SpanStart {
                    id: *id,
                    parent: parent.map(|p| SpanId(p.get())),
                    name: s(*name),
                    labels: self.labels[labels.start as usize..labels.end as usize]
                        .iter()
                        .map(|&(k, v)| (s(k), s(v)))
                        .collect(),
                },
                Entry::End { id, attrs } => TimelineEntry::SpanEnd {
                    id: *id,
                    attrs: self.attrs[attrs.start as usize..attrs.end as usize]
                        .iter()
                        .map(|&(k, v)| (s(k), v))
                        .collect(),
                },
                Entry::Event(event) => (**event).clone(),
            })
            .collect()
    }
}

/// Series maps hold the cells handles share; a cell nothing has
/// recorded into yet (only resolved) is skipped by every reader.
#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<SeriesKey, Arc<CounterCell>>,
    gauges: BTreeMap<SeriesKey, Arc<GaugeCell>>,
    histograms: BTreeMap<SeriesKey, Arc<HistogramCell>>,
    timeline: Timeline,
    /// Open-span stacks, one per driving thread. Span nesting is a
    /// property of a single control flow; concurrent sessions sharing
    /// one registry must not see each other's stacks (their counters
    /// commute, but their spans interleave).
    open_spans: HashMap<ThreadId, Vec<SpanId>>,
    next_span: u64,
}

/// A series cell, and the map of [`Inner`] that holds its kind.
trait Cell: Sized {
    fn map(inner: &mut Inner) -> &mut BTreeMap<SeriesKey, Arc<Self>>;
}

impl Cell for CounterCell {
    fn map(inner: &mut Inner) -> &mut BTreeMap<SeriesKey, Arc<Self>> {
        &mut inner.counters
    }
}

impl Cell for GaugeCell {
    fn map(inner: &mut Inner) -> &mut BTreeMap<SeriesKey, Arc<Self>> {
        &mut inner.gauges
    }
}

impl Cell for HistogramCell {
    fn map(inner: &mut Inner) -> &mut BTreeMap<SeriesKey, Arc<Self>> {
        &mut inner.histograms
    }
}

impl Inner {
    fn stack(&mut self) -> &mut Vec<SpanId> {
        thread_local! {
            /// This thread's id, read once: `thread::current()` costs a
            /// reference-count round trip on every call.
            static ID: ThreadId = std::thread::current().id();
        }
        self.open_spans.entry(ID.with(|id| *id)).or_default()
    }

    fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: (self.counters.iter())
                .filter(|(_, c)| c.touched())
                .map(|(k, c)| CounterSample {
                    name: k.name.clone(),
                    labels: k.labels.clone(),
                    value: c.value(),
                })
                .collect(),
            gauges: (self.gauges.iter())
                .filter(|(_, g)| g.touched())
                .map(|(k, g)| GaugeSample {
                    name: k.name.clone(),
                    labels: k.labels.clone(),
                    value: g.value(),
                })
                .collect(),
            histograms: (self.histograms.iter())
                .filter(|(_, h)| h.touched())
                .map(|(k, h)| {
                    let (counts, sum, count) = h.read();
                    HistogramSample {
                        name: k.name.clone(),
                        labels: k.labels.clone(),
                        unit: h.layout.unit.to_string(),
                        bounds: h.layout.bounds.to_vec(),
                        counts,
                        sum,
                        count,
                    }
                })
                .collect(),
            timeline: self.timeline.materialise(),
        }
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

    /// Applies `f` to the cell of the series `name{labels}`, creating
    /// the cell with `init` if the series has none yet.
    fn with_cell<C: Cell, R>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        init: impl FnOnce() -> C,
        f: impl FnOnce(&Arc<C>) -> R,
    ) -> R {
        let key = SeriesKey::new(name, labels);
        let mut inner = sync::lock(&self.inner);
        f(C::map(&mut inner)
            .entry(key)
            .or_insert_with(|| Arc::new(init())))
    }

    fn with_histogram<R>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        layout: BucketLayout,
        f: impl FnOnce(&Arc<HistogramCell>) -> R,
    ) -> R {
        let init = || HistogramCell::new(layout);
        self.with_cell(name, labels, init, |h| {
            debug_assert_eq!(h.layout, layout, "histogram {name} with two layouts");
            f(h)
        })
    }

    /// The counter `name{labels}` as a handle. The series becomes
    /// visible on the first record, through the handle or [`Self::inc`].
    pub fn resolve_counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        Counter(self.with_cell(name, labels, CounterCell::default, Arc::clone))
    }

    /// The gauge `name{labels}` as a handle; visible once set.
    pub fn resolve_gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        Gauge(self.with_cell(name, labels, GaugeCell::default, Arc::clone))
    }

    /// The histogram `name{labels}` with bucket `layout` as a handle;
    /// visible once observed.
    pub fn resolve_histogram(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        layout: BucketLayout,
    ) -> Histogram {
        Histogram(self.with_histogram(name, labels, layout, Arc::clone))
    }

    /// Adds `by` to the counter `name{labels}`.
    pub fn inc(&self, name: &str, labels: &[(&str, &str)], by: u64) {
        self.with_cell(name, labels, CounterCell::default, |c| c.add(by));
    }

    /// Sets the gauge `name{labels}` to `value` (must be finite).
    pub fn set_gauge(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        debug_assert!(value.is_finite(), "gauge {name} set to non-finite {value}");
        self.with_cell(name, labels, GaugeCell::default, |g| g.set(value));
    }

    /// Records `value` into the histogram `name{labels}` with the given
    /// fixed bucket `layout`. Every observation of a series must use
    /// the same layout.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], layout: BucketLayout, value: u64) {
        self.with_histogram(name, labels, layout, |h| h.observe(value));
    }

    /// Opens a span as a child of the innermost open span. Returns the
    /// id to pass to [`MetricsRegistry::span_end`].
    pub fn span_start(&self, name: &str, labels: &[(&str, &str)]) -> SpanId {
        with_sorted(labels, |labels| {
            let mut inner = sync::lock(&self.inner);
            inner.next_span += 1;
            let id = SpanId(inner.next_span);
            let stack = inner.stack();
            let parent = stack.last().copied();
            stack.push(id);
            inner.timeline.start(id, parent, name, labels);
            id
        })
    }

    /// Closes span `id`, attaching final attributes (simulated
    /// durations, byte counts — never wall-clock readings). Spans must
    /// close innermost-first on their own thread.
    pub fn span_end(&self, id: SpanId, attrs: &[(&str, u64)]) {
        let mut inner = sync::lock(&self.inner);
        let top = inner.stack().pop();
        debug_assert_eq!(top, Some(id), "span_end out of order");
        inner.timeline.end(id, attrs);
    }

    /// Records a point event inside the innermost open span of the
    /// calling thread.
    pub fn event(&self, name: &str, fields: &[(&str, FieldValue)]) {
        let mut inner = sync::lock(&self.inner);
        let span = inner.stack().last().copied();
        inner
            .timeline
            .entries
            .push(Entry::Event(Box::new(TimelineEntry::Event {
                span,
                name: name.to_string(),
                fields: fields
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            })));
    }

    /// Reads one counter series (0 if never incremented).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        let key = SeriesKey::new(name, labels);
        let inner = sync::lock(&self.inner);
        inner.counters.get(&key).map_or(0, |c| c.value())
    }

    /// Sums a counter across all label sets of `name`.
    pub fn counter_total(&self, name: &str) -> u64 {
        sync::lock(&self.inner)
            .counters
            .iter()
            .filter(|(k, c)| k.name == name && c.touched())
            .map(|(_, c)| c.value())
            .sum()
    }

    /// Takes a deterministic point-in-time snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        sync::lock(&self.inner).snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layouts;
    use vecycle_types::rng::{split, Xorshift};

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

    /// The registry as it was before borrowed keys, interning and
    /// handles: an owned `SeriesKey` built on every call, plain values,
    /// an owned-string timeline. It shares no code with the registry.
    #[derive(Default)]
    struct Model {
        counters: BTreeMap<SeriesKey, u64>,
        gauges: BTreeMap<SeriesKey, f64>,
        histograms: BTreeMap<SeriesKey, HistogramSample>,
        timeline: Vec<TimelineEntry>,
        stack: Vec<SpanId>,
        next_span: u64,
    }

    fn key(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
        let mut labels: Vec<_> = (labels.iter())
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        let name = name.to_string();
        SeriesKey { name, labels }
    }

    impl Model {
        fn inc(&mut self, key: SeriesKey, by: u64) {
            *self.counters.entry(key).or_insert(0) += by;
        }

        fn observe(&mut self, key: SeriesKey, layout: BucketLayout, value: u64) {
            let SeriesKey { name, labels } = key.clone();
            let h = self
                .histograms
                .entry(key)
                .or_insert_with(|| HistogramSample {
                    name,
                    labels,
                    unit: layout.unit.to_string(),
                    bounds: layout.bounds.to_vec(),
                    counts: vec![0; layout.bounds.len() + 1],
                    sum: 0,
                    count: 0,
                });
            let slot = layout.bounds.iter().take_while(|&&b| value > b).count();
            h.counts[slot] += 1;
            h.sum += value;
            h.count += 1;
        }

        fn span_start(&mut self, name: &str, labels: &[(&str, &str)]) {
            self.next_span += 1;
            let (id, parent) = (SpanId(self.next_span), self.stack.last().copied());
            let SeriesKey { name, labels } = key(name, labels);
            let start = TimelineEntry::SpanStart {
                id,
                parent,
                name,
                labels,
            };
            self.timeline.push(start);
            self.stack.push(id);
        }

        fn span_end(&mut self, attrs: &[(&str, u64)]) {
            let id = self.stack.pop().expect("driver ends open spans only");
            let attrs = attrs.iter().map(|(k, v)| (k.to_string(), *v)).collect();
            self.timeline.push(TimelineEntry::SpanEnd { id, attrs });
        }

        fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
            self.counters.get(&key(name, labels)).copied().unwrap_or(0)
        }

        fn counter_total(&self, name: &str) -> u64 {
            let named = self.counters.iter().filter(|(k, _)| k.name == name);
            named.map(|(_, v)| v).sum()
        }

        fn snapshot(&self) -> MetricsSnapshot {
            MetricsSnapshot {
                counters: (self.counters.iter())
                    .map(|(k, &value)| CounterSample {
                        name: k.name.clone(),
                        labels: k.labels.clone(),
                        value,
                    })
                    .collect(),
                gauges: (self.gauges.iter())
                    .map(|(k, &value)| GaugeSample {
                        name: k.name.clone(),
                        labels: k.labels.clone(),
                        value,
                    })
                    .collect(),
                histograms: self.histograms.values().cloned().collect(),
                timeline: self.timeline.clone(),
            }
        }
    }

    fn pick(rng: &mut Xorshift, pool: &[&'static str]) -> &'static str {
        pool[rng.below(pool.len() as u64) as usize]
    }

    /// A handle the oracle resolved, and the series it names.
    enum Resolved {
        Counter(Counter),
        Gauge(Gauge),
        Histogram(Histogram, BucketLayout),
    }

    #[test]
    fn registry_matches_a_string_keyed_reference_model() {
        const NAMES: [&str; 4] = ["", "a", "ab", "b"];
        const STRS: [&str; 5] = ["", "k", "k2", "kk", "v"];
        for seed in 0..24 {
            let mut rng = Xorshift::new(split(0x0b5e, seed));
            let (m, mut model) = (MetricsRegistry::new(), Model::default());
            let mut handles: Vec<(Resolved, SeriesKey)> = Vec::new();
            // Six unsorted pairs whose prefixes are label lists that
            // prefix one another; small pools repeat keys and reuse "".
            let base: Vec<(&str, &str)> = (0..6)
                .map(|_| (pick(&mut rng, &STRS), pick(&mut rng, &STRS)))
                .collect();
            for _ in 0..400 {
                let name = pick(&mut rng, &NAMES);
                // 0 to 6 pairs: the stack path and the heap path past 4.
                let n = rng.below(7) as usize;
                let labels: Vec<(&str, &str)> = if rng.below(2) == 0 {
                    base[..n].to_vec()
                } else {
                    (0..n)
                        .map(|_| (pick(&mut rng, &STRS), pick(&mut rng, &STRS)))
                        .collect()
                };
                let value = rng.below(1 << 21);
                let layout = [layouts::PAGES, layouts::BYTES][name.len() % 2];
                match rng.below(11) {
                    0 | 1 => {
                        m.inc(name, &labels, value);
                        model.inc(key(name, &labels), value);
                    }
                    2 => {
                        let g = rng.unit_f64();
                        m.set_gauge(name, &labels, g);
                        model.gauges.insert(key(name, &labels), g);
                    }
                    3 => {
                        m.observe(name, &labels, layout, value);
                        model.observe(key(name, &labels), layout, value);
                    }
                    4 => {
                        m.span_start(name, &labels);
                        model.span_start(name, &labels);
                    }
                    5 if !model.stack.is_empty() => {
                        let attrs = [("rounds", value), ("", value / 3), (name, 1)];
                        let attrs = &attrs[..rng.below(4) as usize];
                        m.span_end(*model.stack.last().unwrap(), attrs);
                        model.span_end(attrs);
                    }
                    6 => {
                        let fields = [(name, FieldValue::U64(value))];
                        m.event("engine_abort", &fields);
                        let (span, name) = (model.stack.last().copied(), "engine_abort".into());
                        let fields = vec![(fields[0].0.to_string(), fields[0].1.clone())];
                        model
                            .timeline
                            .push(TimelineEntry::Event { span, name, fields });
                    }
                    // Resolving records nothing: the model does not move.
                    7 => {
                        let handle = match rng.below(3) {
                            0 => Resolved::Counter(m.resolve_counter(name, &labels)),
                            1 => Resolved::Gauge(m.resolve_gauge(name, &labels)),
                            _ => Resolved::Histogram(
                                m.resolve_histogram(name, &labels, layout),
                                layout,
                            ),
                        };
                        handles.push((handle, key(name, &labels)));
                    }
                    8 | 9 if !handles.is_empty() => {
                        let (handle, key) = &handles[rng.below(handles.len() as u64) as usize];
                        match handle {
                            Resolved::Counter(c) => {
                                c.inc(value);
                                model.inc(key.clone(), value);
                                assert_eq!(c.get(), model.counters[key]);
                            }
                            Resolved::Gauge(g) => {
                                let x = rng.unit_f64();
                                g.set(x);
                                model.gauges.insert(key.clone(), x);
                            }
                            Resolved::Histogram(h, layout) => {
                                h.observe(value);
                                model.observe(key.clone(), *layout, value);
                            }
                        }
                    }
                    _ => {
                        assert_eq!(m.counter(name, &labels), model.counter(name, &labels));
                        assert_eq!(m.counter_total(name), model.counter_total(name));
                    }
                }
            }
            let (got, want) = (m.snapshot(), model.snapshot());
            assert_eq!(
                got.to_canonical_json(),
                want.to_canonical_json(),
                "seed {seed}"
            );
            assert_eq!(got.to_prometheus(), want.to_prometheus(), "seed {seed}");
            assert_eq!(got, want, "seed {seed}");
            for name in NAMES {
                assert_eq!(m.counter_total(name), model.counter_total(name));
            }
            for c in &want.counters {
                let labels: Vec<(&str, &str)> = c
                    .labels
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .collect();
                assert_eq!(m.counter(&c.name, &labels), c.value);
            }
        }
    }

    #[test]
    fn a_timeline_entry_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Entry>(), 32);
    }

    #[test]
    fn resolving_alone_makes_no_series() {
        let m = MetricsRegistry::new();
        let c = m.resolve_counter("c", &[("k", "v")]);
        let g = m.resolve_gauge("g", &[]);
        let h = m.resolve_histogram("h", &[], layouts::PAGES);
        let empty = MetricsRegistry::new().snapshot();
        assert_eq!(m.snapshot(), empty);
        assert_eq!(m.snapshot().to_prometheus(), "");
        assert_eq!((m.counter_total("c"), c.get()), (0, 0));
        // The first record through either path makes the series visible,
        // and both paths feed the one series.
        c.inc(0);
        m.inc("c", &[("k", "v")], 2);
        g.set(0.0);
        h.observe(3);
        m.observe("h", &[], layouts::PAGES, 300);
        let snap = m.snapshot();
        assert_eq!((snap.counter("c", &[("k", "v")]), c.get()), (2, 2));
        assert_eq!((snap.gauges.len(), snap.histograms[0].count), (1, 2));
    }
}

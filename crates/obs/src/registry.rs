//! The metrics registry: counters, gauges, histograms, spans, events.
//!
//! Each series is a cell (see [`crate::handle`]) in a map keyed by
//! `(name, sorted labels)`. A hot call site resolves a handle to its
//! cell once and records without the lock, allocating nothing; a
//! string-keyed call builds an owned [`SeriesKey`], resolves the cell
//! under the lock and records into it as a handle would. Spans take
//! interned [`StrId`]s, which the timeline stores in arenas that grow
//! without copying; [`TimelineEntry`] values are built only in
//! [`MetricsRegistry::snapshot`].

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::num::NonZeroU64;
use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use vecycle_types::sync;

use crate::handle::{Counter, Gauge, Histogram, HistogramCell, ScalarCell};
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

/// A span name, label key, label value or attr key, interned in one
/// registry's timeline by [`MetricsRegistry::intern`]. It means nothing
/// to any other registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrId(u32);

/// `(metric name, sorted label pairs)` — the series key.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct SeriesKey {
    pub(crate) name: String,
    pub(crate) labels: Vec<(String, String)>,
}

impl SeriesKey {
    pub(crate) fn new(name: &str, labels: &[(&str, &str)]) -> Self {
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
        name: StrId,
        labels: Range<u32>,
    },
    End {
        id: SpanId,
        attrs: Range<u32>,
    },
    /// Events (aborts only) are rare enough to keep as they export.
    Event(Box<TimelineEntry>),
}

/// Elements in an [`Arena`]'s first segment: a small `Vec`'s first room.
const FIRST: usize = 4;

/// An append-only list grown by segments it never copies: segment 0
/// holds [`FIRST`] elements and each later one as many as all before it,
/// so it requests what it holds plus at most its last segment.
#[derive(Debug)]
struct Arena<T> {
    head: Vec<T>,
    /// Segments 1.., in a list made (with one slot) once `head` is full.
    tail: Vec<Vec<T>>,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Arena {
            head: Vec::new(),
            tail: Vec::new(),
        }
    }
}

/// The segment element `i` lives in, and its offset there.
fn locate(i: usize) -> (usize, usize) {
    match (i / FIRST).checked_ilog2() {
        None => (0, i),
        Some(k) => (k as usize + 1, i - (FIRST << k)),
    }
}

impl<T> Arena<T> {
    fn len(&self) -> usize {
        // Every segment but the last is full: segments 0..k hold
        // `FIRST << (k - 1)` elements.
        let full = |last: &Vec<T>| (FIRST << (self.tail.len() - 1)) + last.len();
        self.tail.last().map_or(self.head.len(), full)
    }

    fn push(&mut self, x: T) {
        let (seg, _) = locate(self.len());
        if seg > self.tail.len() {
            if self.tail.len() == self.tail.capacity() {
                self.tail.reserve_exact(self.tail.len().max(1));
            }
            self.tail.push(Vec::with_capacity(FIRST << (seg - 1)));
        }
        match seg {
            0 => self.head.push(x),
            _ => self.tail[seg - 1].push(x),
        }
    }

    fn get(&self, i: usize) -> &T {
        match locate(i) {
            (0, at) => &self.head[at],
            (seg, at) => &self.tail[seg - 1][at],
        }
    }

    /// Appends `xs`; returns where they landed, as an [`Entry`] holds it.
    fn extend(&mut self, xs: &[T]) -> Range<u32>
    where
        T: Copy,
    {
        let from = self.len();
        xs.iter().for_each(|&x| self.push(x));
        let narrow = |i| u32::try_from(i).expect("under 2^32 arena slots");
        narrow(from)..narrow(self.len())
    }

    fn range(&self, r: &Range<u32>) -> impl Iterator<Item = &T> {
        (r.start as usize..r.end as usize).map(|i| self.get(i))
    }
}

/// The span/event timeline: interned strings, and arenas of their ids.
#[derive(Debug, Default)]
struct Timeline {
    /// Each distinct string, at its id: a `&'static str` is kept as
    /// given. Searched only when a caller interns, never when it records.
    strings: Vec<Cow<'static, str>>,
    /// `(key, value)` label ids of every span start, as given.
    labels: Arena<(StrId, StrId)>,
    /// `(key id, value)` attrs of every span end.
    attrs: Arena<(StrId, u64)>,
    entries: Arena<Entry>,
}

impl Timeline {
    fn intern(&mut self, s: Cow<'static, str>) -> StrId {
        let found = self.strings.iter().position(|t| *t == s);
        let at = found.unwrap_or_else(|| {
            self.strings.push(s);
            self.strings.len() - 1
        });
        StrId(u32::try_from(at).expect("under 2^32 distinct span strings"))
    }

    /// The timeline as it exports: owned strings, labels sorted.
    fn materialise(&self) -> Vec<TimelineEntry> {
        let s = |id: StrId| self.strings[id.0 as usize].to_string();
        (0..self.entries.len())
            .map(|i| match self.entries.get(i) {
                Entry::Start {
                    id,
                    parent,
                    name,
                    labels,
                } => {
                    let mut labels: Vec<_> = (self.labels.range(labels))
                        .map(|&(k, v)| (s(k), s(v)))
                        .collect();
                    labels.sort_unstable();
                    TimelineEntry::SpanStart {
                        id: *id,
                        parent: parent.map(|p| SpanId(p.get())),
                        name: s(*name),
                        labels,
                    }
                }
                Entry::End { id, attrs } => TimelineEntry::SpanEnd {
                    id: *id,
                    attrs: self.attrs.range(attrs).map(|&(k, v)| (s(k), v)).collect(),
                },
                Entry::Event(event) => (**event).clone(),
            })
            .collect()
    }
}

/// The calling thread's id, read once: `thread::current()` costs a
/// reference-count round trip on every call.
fn this_thread() -> ThreadId {
    thread_local! {
        static ID: ThreadId = std::thread::current().id();
    }
    ID.with(|id| *id)
}

/// Series maps hold the cells handles share; a cell nothing has
/// recorded into yet (only resolved) is skipped by every reader.
#[derive(Debug, Default)]
struct Inner {
    counters: Map<ScalarCell>,
    gauges: Map<ScalarCell>,
    histograms: Map<HistogramCell>,
    timeline: Timeline,
    /// Every thread's open spans in opening order: a thread's stack is its
    /// entries, found by comparing ids, so concurrent sessions sharing one
    /// registry keep apart stacks. A thread whose spans closed has none.
    open_spans: Vec<(ThreadId, SpanId)>,
    next_span: u64,
}

/// One kind's series cells.
type Map<C> = BTreeMap<SeriesKey, Arc<C>>;

/// The counter or gauge cell of series `key`, made if it has none yet.
fn scalar(map: &mut Map<ScalarCell>, key: SeriesKey) -> &Arc<ScalarCell> {
    map.entry(key).or_default()
}

/// The histogram cell of series `key`, made with `layout` if new.
fn histogram(inner: &mut Inner, key: SeriesKey, layout: BucketLayout) -> &Arc<HistogramCell> {
    let map = inner.histograms.entry(key);
    let h = map.or_insert_with(|| Arc::new(HistogramCell::new(layout)));
    debug_assert_eq!(h.layout, layout, "a histogram with two layouts");
    h
}

impl Inner {
    /// Where the calling thread's innermost open span sits in
    /// `open_spans`.
    fn innermost(&self) -> Option<usize> {
        let me = this_thread();
        self.open_spans.iter().rposition(|&(t, _)| t == me)
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
                    value: f64::from_bits(g.value()),
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

    /// The counter `name{labels}` as a handle. The series becomes
    /// visible on the first record, through the handle or [`Self::inc`].
    pub fn resolve_counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = SeriesKey::new(name, labels);
        Counter(Arc::clone(scalar(
            &mut sync::lock(&self.inner).counters,
            key,
        )))
    }

    /// The gauge `name{labels}` as a handle; visible once set.
    pub fn resolve_gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = SeriesKey::new(name, labels);
        Gauge(Arc::clone(scalar(&mut sync::lock(&self.inner).gauges, key)))
    }

    /// The histogram `name{labels}` with bucket `layout` as a handle;
    /// visible once observed.
    pub fn resolve_histogram(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        layout: BucketLayout,
    ) -> Histogram {
        let key = SeriesKey::new(name, labels);
        Histogram(Arc::clone(histogram(
            &mut sync::lock(&self.inner),
            key,
            layout,
        )))
    }

    /// Adds `by` to the counter `name{labels}`.
    pub fn inc(&self, name: &str, labels: &[(&str, &str)], by: u64) {
        let key = SeriesKey::new(name, labels);
        scalar(&mut sync::lock(&self.inner).counters, key).add(by);
    }

    /// Sets the gauge `name{labels}` to `value` (must be finite).
    pub fn set_gauge(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        debug_assert!(value.is_finite(), "gauge {name} set to non-finite {value}");
        let key = SeriesKey::new(name, labels);
        scalar(&mut sync::lock(&self.inner).gauges, key).set(value);
    }

    /// Records `value` into the histogram `name{labels}` with the given
    /// fixed bucket `layout`. Every observation of a series must use
    /// the same layout.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], layout: BucketLayout, value: u64) {
        let key = SeriesKey::new(name, labels);
        histogram(&mut sync::lock(&self.inner), key, layout).observe(value);
    }

    /// `s`'s id in this registry's timeline, the same for every call
    /// with the same text. Resolve span names, label keys and values and
    /// attr keys once, as series handles are, and record through the ids.
    pub fn intern(&self, s: impl Into<Cow<'static, str>>) -> StrId {
        sync::lock(&self.inner).timeline.intern(s.into())
    }

    /// Opens a span as a child of the calling thread's innermost open
    /// span; its labels export sorted. Returns the id to pass to
    /// [`MetricsRegistry::span_end`].
    pub fn span_start(&self, name: StrId, labels: &[(StrId, StrId)]) -> SpanId {
        let mut inner = sync::lock(&self.inner);
        inner.next_span += 1;
        let id = SpanId(inner.next_span);
        let parent = inner.innermost().map(|at| inner.open_spans[at].1);
        inner.open_spans.push((this_thread(), id));
        let labels = inner.timeline.labels.extend(labels);
        let parent = parent.map(|p| NonZeroU64::new(p.0).expect("span ids start at 1"));
        inner.timeline.entries.push(Entry::Start {
            id,
            parent,
            name,
            labels,
        });
        id
    }

    /// Closes span `id`, attaching final attributes (simulated
    /// durations, byte counts — never wall-clock readings). Spans must
    /// close innermost-first on their own thread.
    pub fn span_end(&self, id: SpanId, attrs: &[(StrId, u64)]) {
        let mut inner = sync::lock(&self.inner);
        let top = inner.innermost().map(|at| inner.open_spans.remove(at).1);
        debug_assert_eq!(top, Some(id), "span_end out of order");
        let attrs = inner.timeline.attrs.extend(attrs);
        inner.timeline.entries.push(Entry::End { id, attrs });
    }

    /// Records a point event inside the innermost open span of the
    /// calling thread.
    pub fn event(&self, name: &str, fields: &[(&str, u64)]) {
        let mut inner = sync::lock(&self.inner);
        let span = inner.innermost().map(|at| inner.open_spans[at].1);
        inner
            .timeline
            .entries
            .push(Entry::Event(Box::new(TimelineEntry::Event {
                span,
                name: name.to_string(),
                fields: fields.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
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
    use std::sync::mpsc;
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
    fn concurrent_drivers_keep_independent_span_stacks() {
        // Four threads sharing one registry interleave freely; each
        // thread's spans must still nest under its own parents, and
        // every span must close cleanly (the LIFO assertion is
        // per-thread).
        let m = MetricsRegistry::new();
        let script = [
            SpanOp::Start("migration", vec![("vm", "7")]),
            SpanOp::Start("round", vec![("n", "1")]),
            SpanOp::Event("t", 1),
            SpanOp::End(vec![]),
            SpanOp::End(vec![("bytes", 4096)]),
        ];
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let (m, script, mut stack) = (&m, &script, Vec::new());
                scope.spawn(move || {
                    for op in (0..8).flat_map(|_| script) {
                        replay(m, &mut stack, op);
                    }
                });
            }
        });
        let timeline = m.snapshot().timeline;
        assert_eq!(timeline.len(), 4 * 8 * script.len());
        assert!(sync::lock(&m.inner).open_spans.is_empty());
        // A migration has no parent; a round's is a migration, never a
        // span from another thread's stack.
        let mut names = std::collections::HashMap::new();
        for e in &timeline {
            if let TimelineEntry::SpanStart {
                id, parent, name, ..
            } = e
            {
                let parent = parent.map(|p| names[&p]);
                assert_eq!(parent, (name == "round").then_some("migration"));
                names.insert(*id, name.as_str());
            }
        }
    }

    #[test]
    fn a_thread_whose_spans_all_closed_leaves_no_entry() {
        let m = MetricsRegistry::new();
        let (name, key, value) = (m.intern("migration"), m.intern("vm"), m.intern("1"));
        for _ in 0..64 {
            // One thread at a time: each is joined before the next starts.
            std::thread::scope(|scope| {
                scope.spawn(|| m.span_end(m.span_start(name, &[(key, value)]), &[]));
            });
        }
        let inner = sync::lock(&m.inner);
        assert!(inner.open_spans.is_empty());
        assert_eq!(inner.timeline.entries.len(), 128);
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
        /// Each driver's open spans: this thread's, then two scoped threads'.
        stacks: [Vec<SpanId>; 3],
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

        /// Records `op` as driver `d` did.
        fn replay(&mut self, d: usize, op: &SpanOp) {
            let stack = &mut self.stacks[d];
            let entry = match op {
                SpanOp::Start(name, labels) => {
                    self.next_span += 1;
                    let (id, parent) = (SpanId(self.next_span), stack.last().copied());
                    stack.push(id);
                    let SeriesKey { name, labels } = key(name, labels);
                    TimelineEntry::SpanStart {
                        id,
                        parent,
                        name,
                        labels,
                    }
                }
                SpanOp::End(attrs) => TimelineEntry::SpanEnd {
                    id: stack.pop().expect("drivers end open spans only"),
                    attrs: attrs.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
                },
                SpanOp::Event(field, v) => TimelineEntry::Event {
                    span: stack.last().copied(),
                    name: "engine_abort".into(),
                    fields: vec![(field.to_string(), *v)],
                },
            };
            self.timeline.push(entry);
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

    /// A timeline record, as a driver replays it.
    enum SpanOp {
        Start(&'static str, Vec<(&'static str, &'static str)>),
        End(Vec<(&'static str, u64)>),
        Event(&'static str, u64),
    }

    /// Records `op` through interned ids on the calling thread, whose
    /// open spans are `stack`.
    fn replay(m: &MetricsRegistry, stack: &mut Vec<SpanId>, op: &SpanOp) {
        match op {
            SpanOp::Start(name, labels) => {
                let labels: Vec<_> = (labels.iter())
                    .map(|&(k, v)| (m.intern(k), m.intern(v)))
                    .collect();
                stack.push(m.span_start(m.intern(*name), &labels));
            }
            SpanOp::End(attrs) => {
                let attrs: Vec<_> = attrs.iter().map(|&(k, v)| (m.intern(k), v)).collect();
                m.span_end(stack.pop().expect("drivers end open spans only"), &attrs);
            }
            SpanOp::Event(field, v) => m.event("engine_abort", &[(field, *v)]),
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
            // Driver 0 is this thread; drivers 1 and 2 are scoped
            // threads, each replaying what it is sent, one record at a time.
            std::thread::scope(|scope| {
                let (done_tx, done) = mpsc::channel();
                let threads: Vec<mpsc::Sender<SpanOp>> = (0..2)
                    .map(|_| {
                        let (tx, rx) = mpsc::channel();
                        let (m, done_tx, mut stack) = (&m, done_tx.clone(), Vec::new());
                        scope.spawn(move || {
                            for op in rx {
                                replay(m, &mut stack, &op);
                                done_tx.send(()).unwrap();
                            }
                        });
                        tx
                    })
                    .collect();
                let mut own = Vec::new();
                let mut run = |model: &mut Model, d: usize, op: SpanOp| {
                    model.replay(d, &op);
                    match d {
                        0 => replay(&m, &mut own, &op),
                        _ => {
                            threads[d - 1].send(op).unwrap();
                            done.recv().unwrap();
                        }
                    }
                };
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
                    let d = rng.below(3) as usize;
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
                        // Span records go to one of the three drivers.
                        4 => run(&mut model, d, SpanOp::Start(name, labels.clone())),
                        5 if !model.stacks[d].is_empty() => {
                            let attrs = [("rounds", value), ("", value / 3), (name, 1)];
                            let attrs = attrs[..rng.below(4) as usize].to_vec();
                            run(&mut model, d, SpanOp::End(attrs));
                        }
                        6 => run(&mut model, d, SpanOp::Event(name, value)),
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
            });
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

    /// Timelines of 2^k − 1, 2^k and 2^k + 1 entries; their label and
    /// attr arenas cross segment boundaries at other points.
    #[test]
    fn timelines_read_back_across_segment_boundaries() {
        const PAIRS: [(&str, &str); 4] = [("mode", "live"), ("b", ""), ("a", "z"), ("", "")];
        for n in (1..9).flat_map(|k| [(1 << k) - 1, 1 << k, (1 << k) + 1]) {
            let (m, mut model, mut stack) = (MetricsRegistry::new(), Model::default(), vec![]);
            for i in 0..n {
                let op = match i % 3 {
                    2 if !stack.is_empty() => {
                        SpanOp::End(PAIRS[..i % 5].iter().map(|&(k, _)| (k, i as u64)).collect())
                    }
                    _ => SpanOp::Start(PAIRS[i % 4].0, PAIRS[..i % 5].to_vec()),
                };
                replay(&m, &mut stack, &op);
                model.replay(0, &op);
            }
            assert_eq!(sync::lock(&m.inner).timeline.entries.len(), n);
            assert_eq!(m.snapshot().timeline, model.timeline, "{n} entries");
        }
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

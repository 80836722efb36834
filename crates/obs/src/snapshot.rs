//! Point-in-time snapshots and their three export formats.

use std::fmt::Write as _;

use crate::json::{push_f64, push_label_object, push_object, push_str_literal};
use crate::registry::{SeriesKey, SpanId};

/// One counter series at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSample {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Accumulated value.
    pub value: u64,
}

/// One gauge series at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSample {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Last value set (finite).
    pub value: f64,
}

/// One histogram series at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSample {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Unit tag from the bucket layout.
    pub unit: String,
    /// Finite bucket upper bounds (ascending).
    pub bounds: Vec<u64>,
    /// Per-slot observation counts; the final slot is the implicit
    /// `+Inf` bucket.
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: u64,
    /// Total number of observations.
    pub count: u64,
}

/// One entry of the chronological span/event timeline.
#[derive(Debug, Clone, PartialEq)]
pub enum TimelineEntry {
    /// A span opened.
    SpanStart {
        /// The span's id.
        id: SpanId,
        /// Enclosing span, if any.
        parent: Option<SpanId>,
        /// Span name (`migration`, `round`, `page_class`, …).
        name: String,
        /// Sorted label pairs.
        labels: Vec<(String, String)>,
    },
    /// A span closed.
    SpanEnd {
        /// The span's id.
        id: SpanId,
        /// Final attributes (simulated durations, byte counts).
        attrs: Vec<(String, u64)>,
    },
    /// A point event inside the innermost open span.
    Event {
        /// Enclosing span at record time.
        span: Option<SpanId>,
        /// Event name.
        name: String,
        /// Typed fields.
        fields: Vec<(String, u64)>,
    },
}

/// A deterministic point-in-time capture of a
/// [`MetricsRegistry`](crate::MetricsRegistry).
///
/// Two runs that perform the same simulated work produce snapshots
/// whose [`MetricsSnapshot::to_canonical_json`] output is byte-equal —
/// the property the golden-transcript suite locks down.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// All counters, ordered by `(name, labels)`.
    pub counters: Vec<CounterSample>,
    /// All gauges, ordered by `(name, labels)`.
    pub gauges: Vec<GaugeSample>,
    /// All histograms, ordered by `(name, labels)`.
    pub histograms: Vec<HistogramSample>,
    /// Spans and events in record order.
    pub timeline: Vec<TimelineEntry>,
}

impl MetricsSnapshot {
    /// Reads one counter series from the snapshot (0 if absent).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        let key = SeriesKey::new(name, labels);
        let found = (self.counters.iter()).find(|c| c.name == name && c.labels == key.labels);
        found.map_or(0, |c| c.value)
    }

    /// Sums a counter across all label sets of `name`.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// All counter samples whose name is `name`.
    pub fn counters_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a CounterSample> {
        self.counters.iter().filter(move |c| c.name == name)
    }

    /// Serializes to canonical JSON: 2-space pretty, series in
    /// `BTreeMap` order, timeline in record order, floats via Rust's
    /// shortest round-trip `Display`. Byte-stable across runs.
    pub fn to_canonical_json(&self) -> String {
        let mut out = String::from("{\n");
        push_array(&mut out, "counters", &self.counters, |out, c| {
            push_series(out, &c.name, &c.labels);
            let _ = write!(out, ", \"value\": {}}}", c.value);
        });
        push_array(&mut out, "gauges", &self.gauges, |out, g| {
            push_series(out, &g.name, &g.labels);
            out.push_str(", \"value\": ");
            push_f64(out, g.value);
            out.push('}');
        });
        push_array(&mut out, "histograms", &self.histograms, |out, h| {
            push_series(out, &h.name, &h.labels);
            out.push_str(", \"unit\": ");
            push_str_literal(out, &h.unit);
            let _ = write!(out, ", \"bounds\": {:?}", h.bounds);
            let _ = write!(out, ", \"counts\": {:?}", h.counts);
            let _ = write!(out, ", \"sum\": {}, \"count\": {}}}", h.sum, h.count);
        });
        push_array(&mut out, "timeline", &self.timeline, push_timeline_entry);
        // The last array takes no comma.
        out.truncate(out.len() - 2);
        out.push_str("\n}\n");
        out
    }

    /// Renders the Prometheus text exposition format (counters and
    /// gauges as-is; histograms with cumulative `le` buckets, `_sum`
    /// and `_count`). Series order follows the snapshot, so the output
    /// is deterministic too.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_type: Option<String> = None;
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            if last_type.as_deref() != Some(name) {
                let _ = writeln!(out, "# TYPE {name} {kind}");
                last_type = Some(name.to_string());
            }
        };
        for c in &self.counters {
            type_line(&mut out, &c.name, "counter");
            push_prom_series(&mut out, &c.name, &c.labels, None);
            let _ = writeln!(out, " {}", c.value);
        }
        for g in &self.gauges {
            type_line(&mut out, &g.name, "gauge");
            push_prom_series(&mut out, &g.name, &g.labels, None);
            let _ = writeln!(out, " {}", g.value);
        }
        for h in &self.histograms {
            type_line(&mut out, &h.name, "histogram");
            let mut cumulative = 0u64;
            for (slot, &n) in h.counts.iter().enumerate() {
                cumulative += n;
                let le = h
                    .bounds
                    .get(slot)
                    .map_or_else(|| "+Inf".to_string(), |b| b.to_string());
                push_prom_series(
                    &mut out,
                    &format!("{}_bucket", h.name),
                    &h.labels,
                    Some(("le", &le)),
                );
                let _ = writeln!(out, " {cumulative}");
            }
            push_prom_series(&mut out, &format!("{}_sum", h.name), &h.labels, None);
            let _ = writeln!(out, " {}", h.sum);
            push_prom_series(&mut out, &format!("{}_count", h.name), &h.labels, None);
            let _ = writeln!(out, " {}", h.count);
        }
        out
    }

    /// Renders the timeline as a JSONL stream: one compact JSON object
    /// per line, in record order — the format the CLI tees with
    /// `--metrics-out`.
    pub fn events_jsonl(&self) -> String {
        let mut out = String::new();
        for entry in &self.timeline {
            push_timeline_entry(&mut out, entry);
            out.push('\n');
        }
        out
    }
}

/// `"key": [...],` as the canonical form lays an array out: one item a
/// line, or `[]` when empty.
fn push_array<T>(out: &mut String, key: &str, items: &[T], item: impl Fn(&mut String, &T)) {
    let _ = write!(out, "  \"{key}\": [");
    for (i, x) in items.iter().enumerate() {
        out.push_str(if i == 0 { "\n    " } else { ",\n    " });
        item(out, x);
    }
    out.push_str(if items.is_empty() { "],\n" } else { "\n  ],\n" });
}

/// A series object's opening: `{"name": …, "labels": {…}`.
fn push_series(out: &mut String, name: &str, labels: &[(String, String)]) {
    out.push_str("{\"name\": ");
    push_str_literal(out, name);
    out.push_str(", \"labels\": ");
    push_label_object(out, labels);
}

fn push_u64(out: &mut String, v: &u64) {
    let _ = write!(out, "{v}");
}

/// A span id as JSON: its number, or `null`.
fn push_span(out: &mut String, span: Option<SpanId>) {
    let _ = match span {
        Some(SpanId(id)) => write!(out, "{id}"),
        None => write!(out, "null"),
    };
}

fn push_timeline_entry(out: &mut String, entry: &TimelineEntry) {
    match entry {
        TimelineEntry::SpanStart {
            id: SpanId(id),
            parent,
            name,
            labels,
        } => {
            let _ = write!(
                out,
                "{{\"type\": \"span_start\", \"id\": {id}, \"parent\": "
            );
            push_span(out, *parent);
            out.push_str(", \"name\": ");
            push_str_literal(out, name);
            out.push_str(", \"labels\": ");
            push_label_object(out, labels);
        }
        TimelineEntry::SpanEnd {
            id: SpanId(id),
            attrs,
        } => {
            let _ = write!(out, "{{\"type\": \"span_end\", \"id\": {id}, \"attrs\": ");
            push_object(out, attrs, push_u64);
        }
        TimelineEntry::Event { span, name, fields } => {
            out.push_str("{\"type\": \"event\", \"span\": ");
            push_span(out, *span);
            out.push_str(", \"name\": ");
            push_str_literal(out, name);
            out.push_str(", \"fields\": ");
            push_object(out, fields, push_u64);
        }
    }
    out.push('}');
}

fn push_prom_series(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    extra: Option<(&str, &str)>,
) {
    out.push_str(name);
    let labels = labels.iter().map(|(k, v)| (k.as_str(), v.as_str()));
    let mut sep = '{';
    for (k, v) in labels.chain(extra) {
        out.push(sep);
        sep = ',';
        let _ = write!(out, "{k}=");
        push_str_literal(out, v);
    }
    if sep == ',' {
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{layouts, MetricsRegistry};

    fn sample() -> MetricsSnapshot {
        let m = MetricsRegistry::new();
        m.inc("wire_bytes_total", &[("kind", "full")], 8192);
        m.set_gauge("similarity", &[("vm", "1")], 0.75);
        m.observe("round_bytes", &[], layouts::BYTES, 8192);
        let s = m.span_start(m.intern("migration"), &[(m.intern("vm"), m.intern("1"))]);
        m.event("probe", &[("hit", 1)]);
        m.span_end(s, &[(m.intern("bytes"), 8192)]);
        m.snapshot()
    }

    #[test]
    fn canonical_json_is_stable() {
        let a = sample().to_canonical_json();
        let b = sample().to_canonical_json();
        assert_eq!(a, b);
        assert!(a.contains("\"wire_bytes_total\""));
        assert!(a.contains("\"value\": 0.75"));
        assert!(a.ends_with("}\n"));
    }

    #[test]
    fn empty_snapshot_serializes() {
        let snap = MetricsRegistry::new().snapshot();
        let json = snap.to_canonical_json();
        assert!(json.contains("\"counters\": []"));
        assert!(json.contains("\"timeline\": []"));
    }

    #[test]
    fn prometheus_histogram_buckets_are_cumulative() {
        let text = sample().to_prometheus();
        assert!(text.contains("# TYPE wire_bytes_total counter"));
        assert!(text.contains("wire_bytes_total{kind=\"full\"} 8192"));
        assert!(text.contains("round_bytes_bucket{le=\"4096\"} 0"));
        assert!(text.contains("round_bytes_bucket{le=\"65536\"} 1"));
        assert!(text.contains("round_bytes_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("round_bytes_sum 8192"));
        assert!(text.contains("round_bytes_count 1"));
    }

    #[test]
    fn jsonl_one_line_per_entry() {
        let jsonl = sample().events_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"type\": \"span_start\""));
        assert!(lines[1].contains("\"hit\": 1"));
        assert!(lines[2].contains("\"bytes\": 8192"));
    }

    #[test]
    fn snapshot_counter_lookup() {
        let snap = sample();
        assert_eq!(snap.counter("wire_bytes_total", &[("kind", "full")]), 8192);
        assert_eq!(snap.counter("wire_bytes_total", &[("kind", "zero")]), 0);
        assert_eq!(snap.counter_total("wire_bytes_total"), 8192);
    }
}

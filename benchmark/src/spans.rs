//! Spans recorded by the benchmark's own code around its calls into
//! each layer's public functions. Kept in memory, written out at exit.
//!
//! Span names are `<layer>.<stage>` with the layer being the crate the
//! time is spent in (`mem`, `checkpoint`, `core`, `net`, `daemon`,
//! `fleet`), or `bench.*` for the benchmark's own bookkeeping.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Value;

use crate::util::{obj, s};

/// One closed span.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op the span belongs to (shared by every span of one op).
    pub op: u64,
}

/// In-memory span recorder. Disabled, `span` is a plain call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Spans recorded from now on belong to op `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` through
    /// the tracer it is handed become children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in ns: each span's duration minus the
    /// part its children cover, summed over all spans of that name.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            *out.entry(span.name).or_insert(0) +=
                (span.end_ns - span.start_ns).saturating_sub(children);
        }
        out
    }

    /// The spans as a JSON array of `{name, start_ns, end_ns, parent, op}`.
    pub fn to_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|sp| {
                    obj(vec![
                        ("name", s(sp.name)),
                        ("start_ns", Value::U64(sp.start_ns)),
                        ("end_ns", Value::U64(sp.end_ns)),
                        (
                            "parent",
                            sp.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                        ),
                        ("op", Value::U64(sp.op)),
                    ])
                })
                .collect(),
        )
    }
}

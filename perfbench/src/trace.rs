//! In-memory spans recorded by the benchmark around calls into each
//! layer's public functions. The program itself records no spans.
//!
//! A span has a name, a start, an end, a parent and the id of the request
//! it belongs to. Many layer calls are opaque from outside (a session
//! answer parses and evaluates inside itself), so a step such a call
//! performs internally is re-run through its own public function right
//! after the call, and recorded as a *shadow* child of the call's span.
//! A span's self time is its duration minus the durations of its
//! children, shadow children included, which splits the opaque call into
//! the layers it runs.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, `<layer>.<step>`.
    pub name: &'static str,
    /// Index of the request in the op sequence.
    pub request: u64,
    /// Index of the parent span in the same tracer.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The layer of a span name: the part before its first dot.
pub fn layer_of(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

/// A span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

/// Per-name totals over a tracer's spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameStat {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times (duration minus children's durations).
    pub self_ns: i64,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span and returns its result and the span's index.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        (out, self.record(name, request, parent, start, end))
    }

    /// Records a span measured by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
        });
        self.spans.len() - 1
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameStat> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, NameStat> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += s.duration_ns();
            e.self_ns += s.duration_ns() as i64 - child as i64;
        }
        out
    }

    /// Summed self time per layer.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, i64> {
        let mut out = BTreeMap::new();
        for (name, stat) in self.by_name() {
            *out.entry(layer_of(name)).or_insert(0) += stat.self_ns;
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, w: &mut impl Write) -> io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

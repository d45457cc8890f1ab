//! In-flight span tracing for the analysis pipeline, exported as Chrome
//! trace-event JSON (loadable in Perfetto / `chrome://tracing`).
//!
//! The tracer is explicit — no globals, no registry: a [`SpanTracer`]
//! owns one monotonic epoch, each thread of work records into its own
//! [`SpanLane`] (lane 0 is the driver's main thread, lanes `1..=N` are
//! the pipeline's worker threads), and finished lanes are merged back
//! into the tracer before export. Spans are opened with
//! [`SpanLane::begin`] and closed LIFO with [`SpanLane::end`], so every
//! lane's spans are strictly nested by construction.
//!
//! Like `core::metrics`, tracing rides an `Option<&mut …>` through the
//! pipeline: when no lane is attached nothing is timed, and the
//! analyses' output is byte-identical either way (spans only sample the
//! clock at phase boundaries, never per event).
//!
//! The exported document is versioned ([`TRACE_SCHEMA_VERSION`],
//! `"kind": "trace"`) and documented in `DESIGN.md` §10.

use std::time::Instant;

use crate::json::{JsonWriter, Layout};

/// Version of the trace-event JSON document. Bump on any change to
/// field names, meanings, or structure.
pub const TRACE_SCHEMA_VERSION: u32 = 1;

/// One completed span: a named, categorized interval on one lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Display name (`"measure"`, `"compile: compress"`, ...).
    pub name: String,
    /// Category (`"build"`, `"workload"`, `"phase"`, `"report"`), used
    /// by trace viewers for filtering and coloring.
    pub cat: &'static str,
    /// Lane (Chrome `tid`) the span ran on.
    pub lane: u32,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Simulator events retired inside the span (0 where meaningless).
    pub events: u64,
}

/// Token for a span opened with [`SpanLane::begin`] and not yet closed.
#[derive(Debug, Clone, Copy)]
#[must_use = "open spans must be closed with SpanLane::end"]
pub struct OpenSpan {
    start_ns: u64,
    depth: u32,
}

/// A per-thread span collector. All lanes of one trace share the
/// tracer's epoch, so their timestamps are directly comparable.
///
/// # Examples
///
/// ```
/// use instrep_core::{SpanLane, SpanTracer};
///
/// let mut tracer = SpanTracer::new();
/// let mut lane = SpanLane::new(0, tracer.epoch());
/// let outer = lane.begin();
/// let inner = lane.begin();
/// lane.end(inner, "inner", "phase", 10);
/// lane.end(outer, "outer", "workload", 0);
/// tracer.extend(lane.into_spans());
/// assert!(tracer.to_json().contains("\"kind\": \"trace\""));
/// ```
#[derive(Debug)]
pub struct SpanLane {
    lane: u32,
    epoch: Instant,
    depth: u32,
    spans: Vec<Span>,
}

impl SpanLane {
    /// Creates a lane with the given id, sharing `epoch` (from
    /// [`SpanTracer::epoch`]) with every other lane of the trace.
    pub fn new(lane: u32, epoch: Instant) -> SpanLane {
        SpanLane { lane, epoch, depth: 0, spans: Vec::new() }
    }

    /// This lane's id (the Chrome `tid`).
    pub fn lane_id(&self) -> u32 {
        self.lane
    }

    /// Opens a span at the current instant.
    pub fn begin(&mut self) -> OpenSpan {
        let open = OpenSpan { start_ns: elapsed_ns(self.epoch), depth: self.depth };
        self.depth += 1;
        open
    }

    /// Closes `open`, recording a completed span. Spans must close in
    /// LIFO order — that discipline is what makes every lane's spans
    /// strictly nested.
    ///
    /// # Panics
    ///
    /// Panics if `open` is not the innermost open span of this lane.
    pub fn end(&mut self, open: OpenSpan, name: impl Into<String>, cat: &'static str, events: u64) {
        assert_eq!(self.depth, open.depth + 1, "spans must close in LIFO order");
        self.depth = open.depth;
        let now = elapsed_ns(self.epoch).max(open.start_ns);
        self.spans.push(Span {
            name: name.into(),
            cat,
            lane: self.lane,
            start_ns: open.start_ns,
            dur_ns: now - open.start_ns,
            events,
        });
    }

    /// Completed spans, in close order (children before parents).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Consumes the lane, returning its completed spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Collects spans from every lane of one traced invocation and renders
/// the Chrome trace-event document.
#[derive(Debug)]
pub struct SpanTracer {
    epoch: Instant,
    lane_names: Vec<(u32, String)>,
    spans: Vec<Span>,
}

impl Default for SpanTracer {
    fn default() -> SpanTracer {
        SpanTracer::new()
    }
}

impl SpanTracer {
    /// Creates a tracer; its creation instant is the trace's epoch
    /// (timestamp 0).
    pub fn new() -> SpanTracer {
        SpanTracer { epoch: Instant::now(), lane_names: Vec::new(), spans: Vec::new() }
    }

    /// The shared epoch; pass to [`SpanLane::new`] for every lane.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Assigns a display name to a lane (Chrome `thread_name`
    /// metadata). Re-registering a lane keeps the first name.
    pub fn name_lane(&mut self, lane: u32, name: &str) {
        if !self.lane_names.iter().any(|(l, _)| *l == lane) {
            self.lane_names.push((lane, name.to_string()));
        }
    }

    /// Merges a finished lane's spans into the trace.
    pub fn extend(&mut self, spans: Vec<Span>) {
        self.spans.extend(spans);
    }

    /// All merged spans, in the order they were absorbed.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Renders the versioned Chrome trace-event JSON document: one
    /// complete (`"ph": "X"`) event per span, timestamps in fractional
    /// microseconds since the epoch, plus thread-name metadata events.
    /// Key order is fixed; values are deterministic up to the clock.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new(Layout::Indented, 256 + self.spans.len() * 128);
        w.object(|w| {
            w.key("schema_version").uint(TRACE_SCHEMA_VERSION.into());
            w.key("kind").str("trace");
            w.key("displayTimeUnit").str("ms");
            w.key("traceEvents").array(|w| {
                let meta = |w: &mut JsonWriter, name, tid: u32, value: &str| {
                    w.row(|w| {
                        w.key("ph").str("M");
                        w.key("name").str(name);
                        w.key("pid").uint(1);
                        w.key("tid").uint(tid.into());
                        w.key("args").row(|w| {
                            w.key("name").str(value);
                        });
                    });
                };
                meta(w, "process_name", 0, "instrep");
                for (lane, name) in &self.lane_names {
                    meta(w, "thread_name", *lane, name);
                }
                for sp in &self.spans {
                    w.row(|w| {
                        w.key("ph").str("X");
                        w.key("name").str(&sp.name);
                        w.key("cat").str(sp.cat);
                        w.key("pid").uint(1);
                        w.key("tid").uint(sp.lane.into());
                        // Chrome's unit is the microsecond; three
                        // decimals keep every nanosecond.
                        w.key("ts").thousandths(sp.start_ns);
                        w.key("dur").thousandths(sp.dur_ns);
                        w.key("args").row(|w| {
                            w.key("events").uint(sp.events);
                        });
                    });
                }
            });
        });
        w.newline();
        w.finish()
    }
}

/// Nanoseconds since `epoch`, saturating.
fn elapsed_ns(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close_lifo() {
        let tracer = SpanTracer::new();
        let mut lane = SpanLane::new(3, tracer.epoch());
        let outer = lane.begin();
        let inner = lane.begin();
        lane.end(inner, "inner", "phase", 7);
        lane.end(outer, "outer", "workload", 0);
        let spans = lane.into_spans();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!(inner.name, "inner");
        assert_eq!(outer.name, "outer");
        assert_eq!(inner.lane, 3);
        // Strict nesting: the inner span lies within the outer one.
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
        assert_eq!(inner.events, 7);
    }

    #[test]
    #[should_panic(expected = "LIFO")]
    fn non_lifo_close_panics() {
        let tracer = SpanTracer::new();
        let mut lane = SpanLane::new(0, tracer.epoch());
        let outer = lane.begin();
        let _inner = lane.begin();
        lane.end(outer, "outer", "phase", 0); // inner still open
    }
}

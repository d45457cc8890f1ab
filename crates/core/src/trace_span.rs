//! In-flight span tracing for the analysis pipeline, exported as Chrome
//! trace-event JSON (loadable in Perfetto / `chrome://tracing`).
//!
//! The tracer is explicit — no globals, no registry: a [`SpanTracer`]
//! owns one monotonic epoch, each thread of work records into its own
//! [`SpanLane`] (lane 0 is the driver's main thread, lanes `1..=N` are
//! the pipeline's worker threads), and finished lanes are merged back
//! into the tracer before export. A span is appended whole, from the two
//! instants its caller read ([`SpanLane::push`]). The pipeline reads the
//! clock once per phase boundary and hands that one instant to the
//! phase that ends and to the phase that starts, so abutting spans share
//! their boundary to the nanosecond, and a job's `workload` span starts
//! at its first phase's start: every lane's spans are strictly nested by
//! construction.
//!
//! Like `core::metrics`, tracing rides an `Option<&mut …>` through the
//! pipeline: when no lane is attached nothing is timed, and the
//! analyses' output is byte-identical either way (the clock is read at
//! phase boundaries only, never per event).
//!
//! The exported document is versioned ([`TRACE_SCHEMA_VERSION`],
//! `"kind": "trace"`) and documented in `DESIGN.md` §10.

use std::time::Instant;

use crate::json::{JsonWriter, Layout};
use crate::metrics::ns_between;

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

/// A per-thread span collector. All lanes of one trace share the
/// tracer's epoch, so their timestamps are directly comparable.
///
/// # Examples
///
/// ```
/// use std::time::Instant;
/// use instrep_core::{SpanLane, SpanTracer};
///
/// let mut tracer = SpanTracer::new();
/// let mut lane = SpanLane::new(0, tracer.epoch());
/// let (t0, t1, t2) = (Instant::now(), Instant::now(), Instant::now());
/// lane.push("first", "phase", t0, t1, 10);
/// lane.push("second", "phase", t1, t2, 0);
/// lane.push("outer", "workload", t0, t2, 0);
/// let s = lane.spans();
/// assert_eq!(s[0].start_ns + s[0].dur_ns, s[1].start_ns);
/// tracer.extend(lane.into_spans());
/// assert!(tracer.to_json().contains("\"kind\": \"trace\""));
/// ```
#[derive(Debug)]
pub struct SpanLane {
    lane: u32,
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLane {
    /// Creates a lane with the given id, sharing `epoch` (from
    /// [`SpanTracer::epoch`]) with every other lane of the trace.
    pub fn new(lane: u32, epoch: Instant) -> SpanLane {
        SpanLane { lane, epoch, spans: Vec::new() }
    }

    /// Appends a completed span from `start` to `end`, two instants the
    /// caller read. A caller that reads its instants in order, and
    /// appends an enclosing span with its first child's start and its
    /// last child's end or later, keeps the lane strictly nested.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        start: Instant,
        end: Instant,
        events: u64,
    ) {
        self.spans.push(Span {
            name: name.into(),
            cat,
            lane: self.lane,
            start_ns: ns_between(self.epoch, start),
            dur_ns: ns_between(start, end),
            events,
        });
    }

    /// Completed spans, in the order they were appended (the pipeline
    /// appends children before parents).
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_from_shared_instants_abut_and_nest_exactly() {
        let tracer = SpanTracer::new();
        let mut lane = SpanLane::new(3, tracer.epoch());
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_nanos(1_234_567);
        let t2 = t1 + Duration::from_nanos(89);
        lane.push("first", "phase", t0, t1, 7);
        lane.push("second", "phase", t1, t2, 0);
        lane.push("outer", "workload", t0, t2, 0);
        let spans = lane.into_spans();
        let [first, second, outer] = &spans[..] else { panic!("three spans") };
        assert_eq!((first.lane, first.dur_ns, first.events), (3, 1_234_567, 7));
        assert_eq!(second.dur_ns, 89);
        // The shared instant is one boundary: no gap, no overlap.
        assert_eq!(first.start_ns + first.dur_ns, second.start_ns);
        assert_eq!(outer.start_ns, first.start_ns);
        assert_eq!(outer.start_ns + outer.dur_ns, second.start_ns + second.dur_ns);
        // An end before its start is an empty span, not a wrap.
        let mut lane = SpanLane::new(0, tracer.epoch());
        lane.push("backwards", "phase", t1, t0, 0);
        assert_eq!(lane.spans()[0].dur_ns, 0);
    }
}

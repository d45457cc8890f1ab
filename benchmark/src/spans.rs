//! In-memory span recorder for the traced run, written out at the end as
//! Chrome trace-event JSON (loadable in Perfetto).
//!
//! Spans come from the benchmark's own code only: one per layer call,
//! one per CLI process, one per daemon request (send → first byte → full
//! reply, keyed by the request id). With tracing off the recorder is
//! `None` and no clock is read for it.

use std::time::Instant;

pub struct Span {
    pub name: String,
    pub cat: &'static str,
    /// Lane: 0 for the main thread, 1 + client index for daemon clients.
    pub lane: u32,
    pub start: Instant,
    pub end: Instant,
    /// Extra `(key, value)` pairs, e.g. the request id or first-byte time.
    pub args: Vec<(&'static str, f64)>,
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder { epoch: Instant::now(), spans: Vec::new() }
    }

    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn to_json(&self) -> String {
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let args: Vec<String> = s.args.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{{}}}}}",
                s.name.replace('"', "'"),
                s.cat,
                s.lane,
                us(s.start),
                (us(s.end) - us(s.start)).max(0.0),
                args.join(",")
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

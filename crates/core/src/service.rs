//! Typed wire contract for the `instrep-serve` analysis daemon.
//!
//! The daemon speaks newline-delimited JSON over a Unix domain socket:
//! each request is one line, each response is one line, and both carry
//! [`SERVICE_SCHEMA_VERSION`] so either side can reject a peer from a
//! different release *by name* instead of misparsing it. This module is
//! the single source of truth for that contract — the daemon
//! (`crates/serve`), the `instrep_client` example, and the stress tests
//! all encode and decode through the same [`Request`] / [`Response`]
//! types, so they cannot drift apart.
//!
//! Encoding is canonical: fixed field order, compact (no insignificant
//! whitespace), and deterministic for deterministic inputs. The
//! `report` payload in particular ([`report_json`]) is a pure function
//! of the [`WorkloadReport`], which is what lets the stress suite
//! assert a daemon response is *byte-identical* to a direct
//! [`Session`](crate::Session) run. Decoded responses keep the raw
//! payload text (see [`ReportPayload::report`]) so that comparison
//! needs no re-encoding step.
//!
//! # Examples
//!
//! ```
//! use instrep_core::service::{Request, Response};
//!
//! let req = Request::workload(7, "compress").scale("tiny").seed(1998);
//! let line = req.encode();
//! assert_eq!(Request::decode(&line).unwrap(), req);
//! ```

use crate::json::{member_text, Json, JsonWriter, Layout};
use crate::loops::LoopNestProfile;
use crate::metrics::WorkloadMetrics;
use crate::pipeline::WorkloadReport;
use crate::profile::InstructionProfile;
use crate::session::CacheOutcome;
use instrep_sim::RunOutcome;

/// Version of the request/response wire schema. Bump on any change to
/// field names, meanings, or structure; peers reject other versions by
/// name (see [`RequestError::UnsupportedVersion`]).
pub const SERVICE_SCHEMA_VERSION: u32 = 1;

/// The largest `skip` a request may ask for: the `full` scale's.
const MAX_SKIP: u64 = 1_000_000;

/// The largest `window` a request may ask for: the `full` scale's, so
/// a source that never exits still frees its worker after at most
/// `MAX_SKIP + MAX_WINDOW` instructions.
const MAX_WINDOW: u64 = 25_000_000;

/// The largest `top_k` a request may ask for. Finalize allocates the
/// coverage vectors `top_k` long and adds each frequency table's prefix
/// sums to every `k`, so an unbounded value aborts or wedges a worker.
/// The paper's figures use `k` up to 5.
const MAX_TOP_K: usize = 64;

/// `(skip, window)` analysis windows per scale name (the names of
/// `instrep_workloads::Scale`): the one table of them, read by
/// `instrep-repro` and by the daemon alike, so a daemon request for
/// `{"workload": "compress", "scale": "tiny"}` derives the same
/// [`CacheKey`](crate::CacheKey) as the CLI run — warm daemon requests
/// hit entries a CLI run populated and vice versa.
pub fn scale_windows(scale: &str) -> Option<(u64, u64)> {
    match scale {
        "tiny" => Some((20_000, 400_000)),
        "small" => Some((200_000, 4_000_000)),
        "full" => Some((MAX_SKIP, MAX_WINDOW)),
        _ => None,
    }
}

/// What a [`Request`] asks the daemon to analyze.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestSource {
    /// A named workload from the in-tree roster
    /// (`instrep_workloads::by_name`).
    Workload(String),
    /// Raw MiniC source, compiled by the daemon before analysis.
    Source(String),
}

/// One analysis request. Build with [`Request::workload`] or
/// [`Request::raw_source`] plus the setter methods, then
/// [`Request::encode`] to a wire line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// What to analyze.
    pub source: RequestSource,
    /// Scale name (`"tiny"`, `"small"`, `"full"`) selecting the default
    /// skip/window pair ([`scale_windows`]).
    pub scale: String,
    /// Input-generation seed (named workloads only).
    pub seed: u64,
    /// Override the scale's skip count.
    pub skip: Option<u64>,
    /// Override the scale's measurement window.
    pub window: Option<u64>,
    /// Override the default top-k for the report's coverage vectors.
    pub top_k: Option<usize>,
    /// Also return a phase-metrics payload (wall times are
    /// nondeterministic, so this payload is excluded from byte-identity
    /// guarantees).
    pub want_metrics: bool,
    /// Also return a per-PC profile summary (bypasses the cache).
    pub want_profile: bool,
    /// Also return a loop-nest profile summary (bypasses the cache).
    pub want_loops: bool,
}

impl Request {
    /// A request for a named in-tree workload at the default
    /// tiny/seed-1998 point.
    pub fn workload(id: u64, name: &str) -> Request {
        Request::new(id, RequestSource::Workload(name.to_string()))
    }

    /// A request carrying raw MiniC source for the daemon to compile.
    pub fn raw_source(id: u64, minic: &str) -> Request {
        Request::new(id, RequestSource::Source(minic.to_string()))
    }

    fn new(id: u64, source: RequestSource) -> Request {
        Request {
            id,
            source,
            scale: "tiny".to_string(),
            seed: 1998,
            skip: None,
            window: None,
            top_k: None,
            want_metrics: false,
            want_profile: false,
            want_loops: false,
        }
    }

    /// Sets the scale name.
    pub fn scale(mut self, scale: &str) -> Request {
        self.scale = scale.to_string();
        self
    }

    /// Sets the input seed.
    pub fn seed(mut self, seed: u64) -> Request {
        self.seed = seed;
        self
    }

    /// Overrides the skip count.
    pub fn skip(mut self, skip: u64) -> Request {
        self.skip = Some(skip);
        self
    }

    /// Overrides the measurement window.
    pub fn window(mut self, window: u64) -> Request {
        self.window = Some(window);
        self
    }

    /// Requests the phase-metrics payload.
    pub fn with_metrics(mut self) -> Request {
        self.want_metrics = true;
        self
    }

    /// Requests the profile payload.
    pub fn with_profile(mut self) -> Request {
        self.want_profile = true;
        self
    }

    /// Requests the loops payload.
    pub fn with_loops(mut self) -> Request {
        self.want_loops = true;
        self
    }

    /// Canonical one-line encoding (no trailing newline).
    pub fn encode(&self) -> String {
        let source_len = match &self.source {
            RequestSource::Workload(name) => name.len(),
            RequestSource::Source(minic) => minic.len(),
        };
        let mut w = JsonWriter::new(Layout::Compact, 192 + source_len);
        w.object(|w| {
            w.key("schema_version").uint(SERVICE_SCHEMA_VERSION.into());
            w.key("id").uint(self.id);
            match &self.source {
                RequestSource::Workload(name) => {
                    w.key("workload").str(name);
                    w.key("scale").str(&self.scale);
                    w.key("seed").uint(self.seed);
                }
                RequestSource::Source(minic) => {
                    w.key("source").str(minic);
                    w.key("scale").str(&self.scale);
                }
            }
            for (key, value) in [("skip", self.skip), ("window", self.window)] {
                if let Some(v) = value {
                    w.key(key).uint(v);
                }
            }
            if let Some(top_k) = self.top_k {
                w.key("top_k").uint(top_k as u64);
            }
            let want = [
                (self.want_metrics, "metrics"),
                (self.want_profile, "profile"),
                (self.want_loops, "loops"),
            ];
            if want.iter().any(|&(on, _)| on) {
                w.key("want").array(|w| {
                    for (_, name) in want.iter().filter(|&&(on, _)| on) {
                        w.str(name);
                    }
                });
            }
        });
        w.finish()
    }

    /// Parses one wire line.
    ///
    /// # Errors
    ///
    /// [`RequestError::UnsupportedVersion`] when the line carries a
    /// schema version this release does not speak;
    /// [`RequestError::Malformed`] for everything else (bad JSON,
    /// missing/conflicting fields, unknown scale or want entry, and an
    /// integer field that is not an integer literal in its range: `u64`
    /// for `id` and `seed`, at most the `full` scale's pair for `skip`
    /// and `window`, and at most 64 for `top_k`).
    pub fn decode(line: &str) -> Result<Request, RequestError> {
        let doc =
            Json::parse(line).map_err(|e| RequestError::Malformed(format!("bad JSON: {e}")))?;
        let required = |key: &str| {
            opt_u64(&doc, key, u64::MAX)?
                .ok_or_else(|| RequestError::Malformed(format!("missing {key}")))
        };
        let version = required("schema_version")?;
        if version != u64::from(SERVICE_SCHEMA_VERSION) {
            return Err(RequestError::UnsupportedVersion { got: version });
        }
        let id = required("id")?;
        let source = match (doc.get("workload"), doc.get("source")) {
            (Some(w), None) => RequestSource::Workload(
                w.str()
                    .ok_or_else(|| {
                        RequestError::Malformed("workload must be a string".to_string())
                    })?
                    .to_string(),
            ),
            (None, Some(s)) => RequestSource::Source(
                s.str()
                    .ok_or_else(|| RequestError::Malformed("source must be a string".to_string()))?
                    .to_string(),
            ),
            (Some(_), Some(_)) => {
                return Err(RequestError::Malformed(
                    "request carries both workload and source".to_string(),
                ))
            }
            (None, None) => {
                return Err(RequestError::Malformed(
                    "request needs a workload name or raw source".to_string(),
                ))
            }
        };
        let mut req = Request::new(id, source);
        if let Some(scale) = doc.get("scale") {
            let scale = scale
                .str()
                .ok_or_else(|| RequestError::Malformed("scale must be a string".to_string()))?;
            if scale_windows(scale).is_none() {
                return Err(RequestError::Malformed(format!(
                    "unknown scale `{scale}` (expected tiny, small, or full)"
                )));
            }
            req.scale = scale.to_string();
        }
        req.seed = opt_u64(&doc, "seed", u64::MAX)?.unwrap_or(req.seed);
        req.skip = opt_u64(&doc, "skip", MAX_SKIP)?;
        req.window = opt_u64(&doc, "window", MAX_WINDOW)?;
        req.top_k = opt_u64(&doc, "top_k", MAX_TOP_K as u64)?.map(|k| k as usize);
        if let Some(want) = doc.get("want") {
            for item in want.items() {
                match item.str() {
                    Some("metrics") => req.want_metrics = true,
                    Some("profile") => req.want_profile = true,
                    Some("loops") => req.want_loops = true,
                    other => {
                        return Err(RequestError::Malformed(format!(
                            "unknown want entry {:?} (expected metrics, profile, or loops)",
                            other.unwrap_or("<non-string>")
                        )))
                    }
                }
            }
        }
        Ok(req)
    }
}

/// Reads member `key`, when present, as an exact integer from 0 to
/// `max`; anything else is malformed, naming the field.
fn opt_u64(doc: &Json, key: &str, max: u64) -> Result<Option<u64>, RequestError> {
    let Some(v) = doc.get(key) else { return Ok(None) };
    match v.u64() {
        Some(n) if n <= max => Ok(Some(n)),
        _ => Err(RequestError::Malformed(format!("{key} must be an integer from 0 to {max}"))),
    }
}

/// Why a [`Request`] line could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The line carried a schema version this release does not speak.
    UnsupportedVersion {
        /// The version the peer asked for.
        got: u64,
    },
    /// Anything else: bad JSON, missing fields, unknown values.
    Malformed(String),
}

impl RequestError {
    /// Human-readable description, naming the version mismatch when
    /// that is the cause.
    pub fn message(&self) -> String {
        match self {
            RequestError::UnsupportedVersion { got } => format!(
                "unsupported schema version {got} (this daemon speaks version \
                 {SERVICE_SCHEMA_VERSION})"
            ),
            RequestError::Malformed(msg) => msg.clone(),
        }
    }
}

/// Machine-readable error category carried by an error [`Response`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line did not decode, or named an unknown workload,
    /// or its raw source failed to compile.
    BadRequest,
    /// The request's schema version is not spoken here.
    UnsupportedVersion,
    /// The request line exceeded the daemon's size cap.
    Oversized,
    /// The bounded request queue is full; retry after
    /// [`ServiceError::retry_after_ms`].
    Overloaded,
    /// The request's wall-clock budget expired before a result was
    /// ready. The result, if one is still being computed, is abandoned.
    Timeout,
    /// The daemon is draining for shutdown and accepts no new work.
    ShuttingDown,
    /// The simulation trapped or the daemon hit an internal fault.
    AnalysisFailed,
}

impl ErrorKind {
    /// The wire name of this kind.
    pub fn name(&self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::UnsupportedVersion => "unsupported_version",
            ErrorKind::Oversized => "oversized",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Timeout => "timeout",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::AnalysisFailed => "analysis_failed",
        }
    }

    /// Parses a wire name.
    pub fn from_name(name: &str) -> Option<ErrorKind> {
        [
            ErrorKind::BadRequest,
            ErrorKind::UnsupportedVersion,
            ErrorKind::Oversized,
            ErrorKind::Overloaded,
            ErrorKind::Timeout,
            ErrorKind::ShuttingDown,
            ErrorKind::AnalysisFailed,
        ]
        .into_iter()
        .find(|k| k.name() == name)
    }
}

/// An error response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceError {
    /// The request id this answers (0 when the request never decoded
    /// far enough to learn one).
    pub id: u64,
    /// Error category.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
    /// For [`ErrorKind::Overloaded`]: how long the client should wait
    /// before retrying.
    pub retry_after_ms: Option<u64>,
}

/// A successful analysis response. The payload fields hold canonical
/// JSON object *text* (produced by [`report_json`] and friends), kept
/// as raw strings through decode so clients can compare bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportPayload {
    /// The request id this answers.
    pub id: u64,
    /// How the shared analysis cache participated.
    pub cache: CacheOutcome,
    /// Canonical report object ([`report_json`]).
    pub report: String,
    /// Phase-metrics object, when requested (wall times are
    /// nondeterministic).
    pub metrics: Option<String>,
    /// Profile summary object, when requested.
    pub profile: Option<String>,
    /// Loop-nest summary object, when requested.
    pub loops: Option<String>,
}

/// One wire response: a report or an error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Analysis succeeded.
    Report(ReportPayload),
    /// Analysis was rejected or failed.
    Error(ServiceError),
}

/// Wire name of a [`CacheOutcome`].
pub fn cache_outcome_name(outcome: CacheOutcome) -> &'static str {
    match outcome {
        CacheOutcome::Uncached => "uncached",
        CacheOutcome::Miss => "miss",
        CacheOutcome::Hit => "hit",
        CacheOutcome::VerifyOk => "verify_ok",
        CacheOutcome::VerifyMismatch => "verify_mismatch",
    }
}

fn cache_outcome_from_name(name: &str) -> Option<CacheOutcome> {
    [
        CacheOutcome::Uncached,
        CacheOutcome::Miss,
        CacheOutcome::Hit,
        CacheOutcome::VerifyOk,
        CacheOutcome::VerifyMismatch,
    ]
    .into_iter()
    .find(|o| cache_outcome_name(*o) == name)
}

impl Response {
    /// The request id this response answers.
    pub fn id(&self) -> u64 {
        match self {
            Response::Report(p) => p.id,
            Response::Error(e) => e.id,
        }
    }

    /// Canonical one-line encoding (no trailing newline).
    pub fn encode(&self) -> String {
        // A report-only reply is about 1.1 KB; payloads grow the buffer.
        let mut w = JsonWriter::new(Layout::Compact, 2048);
        w.object(|w| {
            w.key("schema_version").uint(SERVICE_SCHEMA_VERSION.into());
            w.key("id").uint(self.id());
            match self {
                Response::Report(p) => {
                    w.key("ok").bool(true);
                    w.key("cache").str(cache_outcome_name(p.cache));
                    w.key("report").raw(&p.report);
                    for (key, payload) in
                        [("metrics", &p.metrics), ("profile", &p.profile), ("loops", &p.loops)]
                    {
                        if let Some(json) = payload {
                            w.key(key).raw(json);
                        }
                    }
                }
                Response::Error(e) => {
                    w.key("ok").bool(false);
                    w.key("error").str(e.kind.name());
                    w.key("message").str(&e.message);
                    if let Some(ms) = e.retry_after_ms {
                        w.key("retry_after_ms").uint(ms);
                    }
                }
            }
        });
        w.finish()
    }

    /// Parses one wire line, preserving payload objects as raw text.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem for lines that are not a
    /// valid response of this schema version.
    pub fn decode(line: &str) -> Result<Response, String> {
        let doc = Json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
        let version =
            doc.get("schema_version").and_then(Json::u64).ok_or("missing schema_version")?;
        if version != u64::from(SERVICE_SCHEMA_VERSION) {
            return Err(format!(
                "unsupported schema version {version} (this client speaks version \
                 {SERVICE_SCHEMA_VERSION})"
            ));
        }
        let id = doc.get("id").and_then(Json::u64).ok_or("missing id")?;
        match doc.get("ok").and_then(Json::bool) {
            Some(true) => {
                let cache = doc
                    .get("cache")
                    .and_then(Json::str)
                    .and_then(cache_outcome_from_name)
                    .ok_or("missing or unknown cache outcome")?;
                let raw = |key| member_text(line, key).map(|v| v.map(str::to_string));
                Ok(Response::Report(ReportPayload {
                    id,
                    cache,
                    report: raw("report")?.ok_or("missing report payload")?,
                    metrics: raw("metrics")?,
                    profile: raw("profile")?,
                    loops: raw("loops")?,
                }))
            }
            Some(false) => {
                let kind = doc
                    .get("error")
                    .and_then(Json::str)
                    .and_then(ErrorKind::from_name)
                    .ok_or("missing or unknown error kind")?;
                let message =
                    doc.get("message").and_then(Json::str).unwrap_or_default().to_string();
                let retry_after_ms = doc.get("retry_after_ms").and_then(Json::u64);
                Ok(Response::Error(ServiceError { id, kind, message, retry_after_ms }))
            }
            None => Err("missing ok flag".to_string()),
        }
    }
}

// --- canonical payload encoders ---------------------------------------

/// Canonical compact JSON object for a [`WorkloadReport`]'s headline
/// scalars — the same figures `export::csv_summary` flattens, in fixed
/// order with 6-decimal rates. A pure function of the report, so two
/// equal reports encode byte-identically.
pub fn report_json(r: &WorkloadReport) -> String {
    let mut w = JsonWriter::new(Layout::Compact, 512);
    w.object(|w| {
        match r.outcome {
            RunOutcome::Exited(code) => w.key("outcome").str(&format!("exited:{code}")),
            RunOutcome::MaxedOut => w.key("outcome").str("maxed_out"),
        };
        w.key("dynamic_total").uint(r.dynamic_total);
        w.key("dynamic_repeated").uint(r.dynamic_repeated);
        w.key("repetition_rate").f6(r.repetition_rate());
        w.key("static_total").uint(r.static_total as u64);
        w.key("static_executed").uint(r.static_executed as u64);
        w.key("static_repeated").uint(r.static_repeated as u64);
        w.key("unique_repeatable").uint(r.unique_repeatable);
        w.key("avg_repeats").f3(r.avg_repeats);
        w.key("funcs_called").uint(r.funcs_called as u64);
        w.key("dynamic_calls").uint(r.dynamic_calls);
        w.key("all_arg_rate").f6(r.all_arg_rate);
        w.key("no_arg_rate").f6(r.no_arg_rate);
        w.key("pure_rate").f6(r.pure_rate);
        w.key("pure_all_arg_rate").f6(r.pure_all_arg_rate);
        w.key("reuse_hit_rate").f6(r.reuse.hit_rate());
        w.key("reuse_capture_rate").f6(r.reuse.repeated_capture_rate());
        w.key("lvp_hit_rate").f6(r.predict.hit_rate());
        w.key("stride_hit_rate").f6(r.stride.hit_rate());
        w.key("prologue_coverage").f6(r.prologue_coverage);
    });
    w.finish()
}

/// Compact phase-metrics object. Wall times come from the clock, so
/// this payload is *not* part of the byte-identity contract.
pub fn metrics_json(m: &WorkloadMetrics) -> String {
    let mut w = JsonWriter::new(Layout::Compact, 64 + m.phases.len() * 64);
    w.object(|w| {
        w.key("events_total").uint(m.events_total());
        w.key("phases").array(|w| {
            for p in &m.phases {
                w.object(|w| {
                    w.key("name").str(p.name);
                    w.key("wall_ms").f3(p.wall_ms());
                    w.key("events").uint(p.events);
                });
            }
        });
    });
    w.finish()
}

/// Compact profile summary: site count plus the top-`k` sites by
/// repeated executions (ties broken by pc — deterministic).
pub fn profile_json(p: &InstructionProfile, k: usize) -> String {
    let mut sites: Vec<_> = p.sites.iter().collect();
    sites.sort_by(|a, b| b.repeated.cmp(&a.repeated).then(a.pc.cmp(&b.pc)));
    let mut w = JsonWriter::new(Layout::Compact, 64 + k.min(sites.len()) * 96);
    w.object(|w| {
        w.key("sites").uint(p.sites.len() as u64);
        w.key("top").array(|w| {
            for s in sites.iter().take(k) {
                w.object(|w| {
                    w.key("pc").uint(s.pc.into());
                    w.key("func").str(&s.func);
                    w.key("line").uint(s.line.into());
                    w.key("exec").uint(s.exec);
                    w.key("repeated").uint(s.repeated);
                });
            }
        });
    });
    w.finish()
}

/// Compact loop-nest summary: totals plus the top-`k` loops by
/// repeated executions.
pub fn loops_json(p: &LoopNestProfile, k: usize) -> String {
    let top = p.top_loops(k);
    let mut w = JsonWriter::new(Layout::Compact, 128 + top.len() * 112);
    w.object(|w| {
        w.key("total_exec").uint(p.total_exec());
        w.key("total_repeated").uint(p.total_repeated());
        w.key("loop_exec").uint(p.loop_exec());
        w.key("loop_repeated").uint(p.loop_repeated());
        w.key("top").array(|w| {
            for l in &top {
                w.object(|w| {
                    w.key("header").uint(l.header.into());
                    w.key("func").str(&l.func);
                    w.key("depth").uint(l.depth.into());
                    w.key("trips").uint(l.trips);
                    w.key("exec").uint(l.exec);
                    w.key("repeated").uint(l.repeated);
                });
            }
        });
    });
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::AnalysisConfig;
    use crate::session::Session;

    fn small_report() -> WorkloadReport {
        let image = instrep_minicc::build(
            "int main() { int i; int s = 0; for (i = 0; i < 400; i++) s += i & 7; return s & 0xff; }",
        )
        .unwrap();
        Session::new(AnalysisConfig::default()).run_one(&image, Vec::new()).unwrap().report
    }

    #[test]
    fn request_roundtrips_canonically() {
        let cases = [
            Request::workload(1, "compress"),
            Request::workload(42, "go").scale("small").seed(7).skip(100).window(5000),
            Request::raw_source(3, "int main() { return 0; }").with_metrics().with_loops(),
            Request::workload(9, "perl").with_profile(),
            // Seeds past 2^53 survive exactly: no float in between.
            Request::workload(10, "li").seed((1 << 53) + 1),
            Request::workload(u64::MAX, "li").seed(u64::MAX),
            // Every bounded field at its bound is still accepted.
            Request {
                top_k: Some(MAX_TOP_K),
                ..Request::raw_source(11, "int main() { return 1; }")
                    .skip(MAX_SKIP)
                    .window(MAX_WINDOW)
            },
        ];
        for req in cases {
            let line = req.encode();
            assert!(!line.contains('\n'), "one line: {line}");
            let back = Request::decode(&line).unwrap();
            assert_eq!(back, req);
            // Canonical: re-encoding the decoded request is byte-identical.
            assert_eq!(back.encode(), line);
        }
    }

    #[test]
    fn request_rejects_unknown_versions_by_name() {
        let line = r#"{"schema_version":99,"id":1,"workload":"compress"}"#;
        let err = Request::decode(line).unwrap_err();
        assert_eq!(err, RequestError::UnsupportedVersion { got: 99 });
        assert!(err.message().contains("unsupported schema version 99"));
        assert!(err.message().contains("speaks version 1"));
    }

    #[test]
    fn request_rejects_malformed_lines() {
        for line in [
            "not json at all",
            r#"{"id":1,"workload":"compress"}"#,
            r#"{"schema_version":1,"workload":"compress"}"#,
            r#"{"schema_version":1,"id":1}"#,
            r#"{"schema_version":1,"id":1,"workload":"go","source":"int main(){}"}"#,
            r#"{"schema_version":1,"id":1,"workload":"go","scale":"huge"}"#,
            r#"{"schema_version":1,"id":1,"workload":"go","want":["everything"]}"#,
            r#"{"schema_version":1,"id":1,"workload":"go","seed":-3}"#,
        ] {
            assert!(
                matches!(Request::decode(line), Err(RequestError::Malformed(_))),
                "should reject: {line}"
            );
        }
        // Integer fields take exact integer literals within their range,
        // and the refusal names the field. Past 2^53 a float would round
        // (seed 2^53+1 used to run as 2^53); a huge top_k used to abort
        // or wedge the daemon, and a huge window kept a worker busy for
        // as long as the source ran.
        for (field, line) in [
            ("id", r#"{"schema_version":1,"id":1e300,"workload":"go"}"#),
            ("id", r#"{"schema_version":1,"id":1.0,"workload":"go"}"#),
            ("seed", r#"{"schema_version":1,"id":1,"workload":"go","seed":18446744073709551616}"#),
            ("top_k", r#"{"schema_version":1,"id":1,"workload":"compress","top_k":1000000000000}"#),
            (
                "top_k",
                r#"{"schema_version":1,"id":1,"workload":"compress","top_k":18446744073709551615}"#,
            ),
            ("top_k", r#"{"schema_version":1,"id":1,"workload":"compress","top_k":65}"#),
            ("skip", r#"{"schema_version":1,"id":1,"workload":"go","skip":1000001}"#),
            ("window", r#"{"schema_version":1,"id":1,"workload":"go","window":25000001}"#),
            (
                "window",
                r#"{"schema_version":1,"id":1,"source":"int main() { return 0; }","skip":0,"window":18446744073709551615}"#,
            ),
        ] {
            match Request::decode(line) {
                Err(RequestError::Malformed(m)) => assert!(m.starts_with(field), "{line}: {m}"),
                other => panic!("should reject {line}, got {other:?}"),
            }
        }
        // A nesting bomb is refused by the parser's depth limit.
        match Request::decode(&"[".repeat(200_000)) {
            Err(RequestError::Malformed(m)) => assert!(m.contains("nesting"), "{m}"),
            other => panic!("expected malformed, got {other:?}"),
        }
    }

    #[test]
    fn responses_roundtrip_and_keep_payload_bytes() {
        let mut m = WorkloadMetrics::default();
        m.record_phase_ns("measure", 2_000_000, 1000);
        m.record_phase_ns("finalize", 1_000_000, 0);
        let report = |id, cache, metrics| {
            Response::Report(ReportPayload {
                id,
                cache,
                report: report_json(&small_report()),
                metrics,
                profile: None,
                loops: None,
            })
        };
        for resp in [
            report(17, CacheOutcome::Hit, None),
            report(u64::MAX, CacheOutcome::Uncached, Some(metrics_json(&m))),
            Response::Error(ServiceError {
                id: 0,
                kind: ErrorKind::Overloaded,
                message: "queue full (4 waiting)".to_string(),
                retry_after_ms: Some(50),
            }),
        ] {
            let line = resp.encode();
            assert!(!line.contains('\n'), "one line: {line}");
            // Payloads decode to the exact bytes the encoder put on the
            // wire: the byte-identity hook of the stress suite.
            assert_eq!(Response::decode(&line).unwrap(), resp);
        }
    }

    #[test]
    fn scale_windows_match_the_cli() {
        assert_eq!(scale_windows("tiny"), Some((20_000, 400_000)));
        assert_eq!(scale_windows("small"), Some((200_000, 4_000_000)));
        assert_eq!(scale_windows("full"), Some((1_000_000, 25_000_000)));
        assert_eq!(scale_windows("huge"), None);
    }
}

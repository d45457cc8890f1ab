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

use std::collections::BTreeMap;

use crate::loops::LoopNestProfile;
use crate::metrics::{json_f64, json_string, WorkloadMetrics};
use crate::pipeline::WorkloadReport;
use crate::profile::InstructionProfile;
use crate::session::CacheOutcome;
use instrep_sim::RunOutcome;

/// Version of the request/response wire schema. Bump on any change to
/// field names, meanings, or structure; peers reject other versions by
/// name (see [`RequestError::UnsupportedVersion`]).
pub const SERVICE_SCHEMA_VERSION: u32 = 1;

/// `(skip, window)` analysis windows per scale name, mirroring
/// `instrep-repro`'s scale handling so a daemon request for
/// `{"workload": "compress", "scale": "tiny"}` derives the same
/// [`CacheKey`](crate::CacheKey) as the CLI run — warm daemon requests
/// hit entries a CLI run populated and vice versa.
pub fn scale_windows(scale: &str) -> Option<(u64, u64)> {
    match scale {
        "tiny" => Some((20_000, 400_000)),
        "small" => Some((200_000, 4_000_000)),
        "full" => Some((1_000_000, 25_000_000)),
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
        let mut s = String::with_capacity(128);
        s.push_str(&format!("{{\"schema_version\":{SERVICE_SCHEMA_VERSION},\"id\":{}", self.id));
        match &self.source {
            RequestSource::Workload(name) => {
                s.push_str(&format!(
                    ",\"workload\":{},\"scale\":{},\"seed\":{}",
                    json_string(name),
                    json_string(&self.scale),
                    self.seed
                ));
            }
            RequestSource::Source(minic) => {
                s.push_str(&format!(
                    ",\"source\":{},\"scale\":{}",
                    json_string(minic),
                    json_string(&self.scale)
                ));
            }
        }
        if let Some(skip) = self.skip {
            s.push_str(&format!(",\"skip\":{skip}"));
        }
        if let Some(window) = self.window {
            s.push_str(&format!(",\"window\":{window}"));
        }
        if let Some(top_k) = self.top_k {
            s.push_str(&format!(",\"top_k\":{top_k}"));
        }
        let mut want = Vec::new();
        if self.want_metrics {
            want.push("\"metrics\"");
        }
        if self.want_profile {
            want.push("\"profile\"");
        }
        if self.want_loops {
            want.push("\"loops\"");
        }
        if !want.is_empty() {
            s.push_str(&format!(",\"want\":[{}]", want.join(",")));
        }
        s.push('}');
        s
    }

    /// Parses one wire line.
    ///
    /// # Errors
    ///
    /// [`RequestError::UnsupportedVersion`] when the line carries a
    /// schema version this release does not speak;
    /// [`RequestError::Malformed`] for everything else (bad JSON,
    /// missing/conflicting fields, unknown scale or want entry).
    pub fn decode(line: &str) -> Result<Request, RequestError> {
        let doc =
            Json::parse(line).map_err(|e| RequestError::Malformed(format!("bad JSON: {e}")))?;
        let version = doc
            .get("schema_version")
            .and_then(Json::num)
            .ok_or_else(|| RequestError::Malformed("missing schema_version".to_string()))?;
        if version != f64::from(SERVICE_SCHEMA_VERSION) {
            return Err(RequestError::UnsupportedVersion { got: version as u64 });
        }
        let id = doc
            .get("id")
            .and_then(Json::num)
            .filter(|n| *n >= 0.0 && n.fract() == 0.0)
            .ok_or_else(|| RequestError::Malformed("missing or non-integer id".to_string()))?
            as u64;
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
        req.seed = opt_u64(&doc, "seed")?.unwrap_or(req.seed);
        req.skip = opt_u64(&doc, "skip")?;
        req.window = opt_u64(&doc, "window")?;
        req.top_k = opt_u64(&doc, "top_k")?.map(|k| k as usize);
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

fn opt_u64(doc: &Json, key: &str) -> Result<Option<u64>, RequestError> {
    match doc.get(key) {
        None => Ok(None),
        Some(v) => {
            v.num().filter(|n| *n >= 0.0 && n.fract() == 0.0).map(|n| Some(n as u64)).ok_or_else(
                || RequestError::Malformed(format!("{key} must be a non-negative integer")),
            )
        }
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
        match self {
            Response::Report(p) => {
                let mut s = format!(
                    "{{\"schema_version\":{SERVICE_SCHEMA_VERSION},\"id\":{},\"ok\":true,\
                     \"cache\":{},\"report\":{}",
                    p.id,
                    json_string(cache_outcome_name(p.cache)),
                    p.report
                );
                if let Some(m) = &p.metrics {
                    s.push_str(&format!(",\"metrics\":{m}"));
                }
                if let Some(pr) = &p.profile {
                    s.push_str(&format!(",\"profile\":{pr}"));
                }
                if let Some(l) = &p.loops {
                    s.push_str(&format!(",\"loops\":{l}"));
                }
                s.push('}');
                s
            }
            Response::Error(e) => {
                let mut s = format!(
                    "{{\"schema_version\":{SERVICE_SCHEMA_VERSION},\"id\":{},\"ok\":false,\
                     \"error\":{},\"message\":{}",
                    e.id,
                    json_string(e.kind.name()),
                    json_string(&e.message)
                );
                if let Some(ms) = e.retry_after_ms {
                    s.push_str(&format!(",\"retry_after_ms\":{ms}"));
                }
                s.push('}');
                s
            }
        }
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
            doc.get("schema_version").and_then(Json::num).ok_or("missing schema_version")?;
        if version != f64::from(SERVICE_SCHEMA_VERSION) {
            return Err(format!(
                "unsupported schema version {version} (this client speaks version \
                 {SERVICE_SCHEMA_VERSION})"
            ));
        }
        let id = doc.get("id").and_then(Json::num).ok_or("missing id")? as u64;
        match doc.get("ok").and_then(Json::bool) {
            Some(true) => {
                let cache = doc
                    .get("cache")
                    .and_then(Json::str)
                    .and_then(cache_outcome_from_name)
                    .ok_or("missing or unknown cache outcome")?;
                let report =
                    raw_member(line, "report").ok_or("missing report payload")?.to_string();
                Ok(Response::Report(ReportPayload {
                    id,
                    cache,
                    report,
                    metrics: raw_member(line, "metrics").map(str::to_string),
                    profile: raw_member(line, "profile").map(str::to_string),
                    loops: raw_member(line, "loops").map(str::to_string),
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
                let retry_after_ms =
                    doc.get("retry_after_ms").and_then(Json::num).map(|n| n as u64);
                Ok(Response::Error(ServiceError { id, kind, message, retry_after_ms }))
            }
            None => Err("missing ok flag".to_string()),
        }
    }
}

/// Extracts the raw text of a top-level object-valued member from a
/// canonically encoded line: the bytes from the member's `{` through
/// its matching `}`, brace-counted with string awareness. Returns
/// `None` when the key is absent (or not at the top level).
fn raw_member<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let bytes = line.as_bytes();
    let needle = format!("\"{key}\":");
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if in_string {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_string = false;
            }
            i += 1;
            continue;
        }
        match b {
            b'"' => {
                // A top-level key match must start exactly here.
                if depth == 1 && line[i..].starts_with(&needle) {
                    let start = i + needle.len();
                    if bytes.get(start) == Some(&b'{') {
                        return raw_object(line, start);
                    }
                }
                in_string = true;
                i += 1;
            }
            b'{' | b'[' => {
                depth += 1;
                i += 1;
            }
            b'}' | b']' => {
                depth = depth.saturating_sub(1);
                i += 1;
            }
            _ => i += 1,
        }
    }
    None
}

/// The object starting at `start` (which must be a `{`), through its
/// matching close brace.
fn raw_object(line: &str, start: usize) -> Option<&str> {
    let bytes = line.as_bytes();
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    for (off, &b) in bytes[start..].iter().enumerate() {
        if in_string {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_string = false;
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' | b'[' => depth += 1,
            b'}' | b']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&line[start..start + off + 1]);
                }
            }
            _ => {}
        }
    }
    None
}

// --- canonical payload encoders ---------------------------------------

/// Canonical compact JSON object for a [`WorkloadReport`]'s headline
/// scalars — the same figures `export::csv_summary` flattens, in fixed
/// order with 6-decimal rates. A pure function of the report, so two
/// equal reports encode byte-identically.
pub fn report_json(r: &WorkloadReport) -> String {
    let outcome = match r.outcome {
        RunOutcome::Exited(code) => format!("exited:{code}"),
        RunOutcome::MaxedOut => "maxed_out".to_string(),
    };
    format!(
        "{{\"outcome\":{},\"dynamic_total\":{},\"dynamic_repeated\":{},\
         \"repetition_rate\":{:.6},\"static_total\":{},\"static_executed\":{},\
         \"static_repeated\":{},\"unique_repeatable\":{},\"avg_repeats\":{:.3},\
         \"funcs_called\":{},\"dynamic_calls\":{},\"all_arg_rate\":{:.6},\
         \"no_arg_rate\":{:.6},\"pure_rate\":{:.6},\"pure_all_arg_rate\":{:.6},\
         \"reuse_hit_rate\":{:.6},\"reuse_capture_rate\":{:.6},\"lvp_hit_rate\":{:.6},\
         \"stride_hit_rate\":{:.6},\"prologue_coverage\":{:.6}}}",
        json_string(&outcome),
        r.dynamic_total,
        r.dynamic_repeated,
        r.repetition_rate(),
        r.static_total,
        r.static_executed,
        r.static_repeated,
        r.unique_repeatable,
        r.avg_repeats,
        r.funcs_called,
        r.dynamic_calls,
        r.all_arg_rate,
        r.no_arg_rate,
        r.pure_rate,
        r.pure_all_arg_rate,
        r.reuse.hit_rate(),
        r.reuse.repeated_capture_rate(),
        r.predict.hit_rate(),
        r.stride.hit_rate(),
        r.prologue_coverage,
    )
}

/// Compact phase-metrics object. Wall times come from the clock, so
/// this payload is *not* part of the byte-identity contract.
pub fn metrics_json(m: &WorkloadMetrics) -> String {
    let phases: Vec<String> = m
        .phases
        .iter()
        .map(|p| {
            format!(
                "{{\"name\":{},\"wall_ms\":{},\"events\":{}}}",
                json_string(p.name),
                json_f64(p.wall_ms()),
                p.events
            )
        })
        .collect();
    format!("{{\"events_total\":{},\"phases\":[{}]}}", m.events_total(), phases.join(","))
}

/// Compact profile summary: site count plus the top-`k` sites by
/// repeated executions (ties broken by pc — deterministic).
pub fn profile_json(p: &InstructionProfile, k: usize) -> String {
    let mut sites: Vec<_> = p.sites.iter().collect();
    sites.sort_by(|a, b| b.repeated.cmp(&a.repeated).then(a.pc.cmp(&b.pc)));
    let top: Vec<String> = sites
        .iter()
        .take(k)
        .map(|s| {
            format!(
                "{{\"pc\":{},\"func\":{},\"line\":{},\"exec\":{},\"repeated\":{}}}",
                s.pc,
                json_string(&s.func),
                s.line,
                s.exec,
                s.repeated
            )
        })
        .collect();
    format!("{{\"sites\":{},\"top\":[{}]}}", p.sites.len(), top.join(","))
}

/// Compact loop-nest summary: totals plus the top-`k` loops by
/// repeated executions.
pub fn loops_json(p: &LoopNestProfile, k: usize) -> String {
    let top: Vec<String> = p
        .top_loops(k)
        .iter()
        .map(|l| {
            format!(
                "{{\"header\":{},\"func\":{},\"depth\":{},\"trips\":{},\"exec\":{},\
                 \"repeated\":{}}}",
                l.header,
                json_string(&l.func),
                l.depth,
                l.trips,
                l.exec,
                l.repeated
            )
        })
        .collect();
    format!(
        "{{\"total_exec\":{},\"total_repeated\":{},\"loop_exec\":{},\"loop_repeated\":{},\
         \"top\":[{}]}}",
        p.total_exec(),
        p.total_repeated(),
        p.loop_exec(),
        p.loop_repeated(),
        top.join(",")
    )
}

// --- minimal strict JSON parser ---------------------------------------

/// How deeply [`Json::parse`] lets arrays and objects nest. The parser
/// recurses once per level, so without a bound one line of `[`s far
/// under the daemon's request cap would overflow the thread's stack and
/// abort the whole process. Every document this workspace writes nests
/// only a few levels.
const MAX_JSON_DEPTH: usize = 64;

/// A parsed JSON value. The workspace is hermetic (no serde); this
/// covers the full JSON grammar except `\uXXXX` escapes beyond the
/// Basic Multilingual Plane, which the canonical encoders never emit.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (sorted keys; duplicates rejected).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses a complete JSON document (trailing garbage is an error).
    ///
    /// # Errors
    ///
    /// Returns a description with a byte offset for the first violation,
    /// including arrays and objects nested deeper than 64 levels.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = JsonParser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            _ => &[],
        }
    }

    /// The numeric value, if this is a number.
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek().ok_or("unexpected end of input")? {
            b'{' => self.nested(Self::object),
            b'[' => self.nested(Self::array),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(format!("unexpected byte `{}` at offset {}", c as char, self.pos)),
        }
    }

    /// Parses one array or object a level deeper, refusing to pass
    /// [`MAX_JSON_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_JSON_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_JSON_DEPTH} levels at offset {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            if map.insert(key.clone(), val).is_some() {
                return Err(format!("duplicate key `{key}`"));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied().ok_or("unterminated string")? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.bytes.get(self.pos).copied().ok_or("bad escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        }
                        c => return Err(format!("bad escape `\\{}`", c as char)),
                    }
                }
                c if c < 0x20 => return Err("raw control character in string".to_string()),
                _ => {
                    // Consume one UTF-8 scalar (input came from a &str).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8")?;
                    let ch = rest.chars().next().ok_or("unterminated string")?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "bad number")?;
        text.parse::<f64>().map(Json::Num).map_err(|e| format!("bad number `{text}`: {e}"))
    }
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
    }

    #[test]
    fn report_json_is_deterministic_and_flat() {
        let r = small_report();
        let a = report_json(&r);
        let b = report_json(&r);
        assert_eq!(a, b);
        assert!(a.starts_with("{\"outcome\":"));
        // Flat object: parses, and no nested objects (raw_member relies
        // on report being extractable by simple brace matching).
        let doc = Json::parse(&a).unwrap();
        assert!(doc.get("dynamic_total").and_then(Json::num).unwrap() > 0.0);
        assert!(doc.get("repetition_rate").is_some());
        assert_eq!(a.matches('{').count(), 1);
    }

    #[test]
    fn response_roundtrips_and_preserves_report_bytes() {
        let r = small_report();
        let payload = ReportPayload {
            id: 17,
            cache: CacheOutcome::Hit,
            report: report_json(&r),
            metrics: None,
            profile: None,
            loops: None,
        };
        let resp = Response::Report(payload.clone());
        let line = resp.encode();
        assert!(!line.contains('\n'));
        let back = Response::decode(&line).unwrap();
        match back {
            Response::Report(p) => {
                assert_eq!(p.id, 17);
                assert_eq!(p.cache, CacheOutcome::Hit);
                // The decoded payload is the exact bytes the encoder put
                // on the wire — the byte-identity hook for the stress
                // suite.
                assert_eq!(p.report, payload.report);
                assert!(p.metrics.is_none());
            }
            other => panic!("expected report, got {other:?}"),
        }
    }

    #[test]
    fn response_carries_optional_payloads_with_nested_arrays() {
        let mut m = WorkloadMetrics::default();
        m.record_phase_ns("measure", 2_000_000, 1000);
        m.record_phase_ns("finalize", 1_000_000, 0);
        let payload = ReportPayload {
            id: 4,
            cache: CacheOutcome::Uncached,
            report: report_json(&small_report()),
            metrics: Some(metrics_json(&m)),
            profile: None,
            loops: None,
        };
        let line = Response::Report(payload.clone()).encode();
        let back = Response::decode(&line).unwrap();
        match back {
            Response::Report(p) => {
                assert_eq!(p.metrics.as_deref(), payload.metrics.as_deref());
                let mdoc = Json::parse(p.metrics.as_deref().unwrap()).unwrap();
                assert_eq!(mdoc.get("events_total").and_then(Json::num), Some(1000.0));
                assert_eq!(mdoc.get("phases").map(|p| p.items().len()), Some(2));
            }
            other => panic!("expected report, got {other:?}"),
        }
    }

    #[test]
    fn error_responses_roundtrip() {
        let err = ServiceError {
            id: 0,
            kind: ErrorKind::Overloaded,
            message: "queue full (4 waiting)".to_string(),
            retry_after_ms: Some(50),
        };
        let line = Response::Error(err.clone()).encode();
        match Response::decode(&line).unwrap() {
            Response::Error(e) => {
                assert_eq!(e, err);
                assert_eq!(e.kind.name(), "overloaded");
            }
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn raw_member_is_string_aware() {
        // A string value containing braces and the key name must not
        // confuse the extractor.
        let line = r#"{"a":"not {the} \"report\":{","report":{"x":1,"ys":[{"z":2}]},"b":3}"#;
        assert_eq!(raw_member(line, "report"), Some(r#"{"x":1,"ys":[{"z":2}]}"#));
        assert_eq!(raw_member(line, "missing"), None);
        // Non-top-level keys are not extracted.
        let nested = r#"{"outer":{"report":{"x":1}}}"#;
        assert_eq!(raw_member(nested, "report"), None);
    }

    #[test]
    fn nesting_is_bounded() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let objects = |n: usize| r#"{"a":"#.repeat(n) + "1" + &"}".repeat(n);
        assert!(Json::parse(&arrays(MAX_JSON_DEPTH)).is_ok());
        assert!(Json::parse(&objects(MAX_JSON_DEPTH)).is_ok());
        for deep in [arrays(MAX_JSON_DEPTH + 1), objects(MAX_JSON_DEPTH + 1)] {
            let e = Json::parse(&deep).unwrap_err();
            assert!(e.contains(&format!("nesting deeper than {MAX_JSON_DEPTH} levels")), "{e}");
        }
        // Far past the limit and unterminated: refused at the limit, long
        // before the recursion could reach the end of the stack.
        let bomb = "[".repeat(200_000);
        assert!(Json::parse(&bomb).is_err());
        match Request::decode(&bomb) {
            Err(RequestError::Malformed(m)) => assert!(m.contains("nesting"), "{m}"),
            other => panic!("expected malformed, got {other:?}"),
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

//! Exact-bytes pins for every JSON document the workspace writes: the
//! metrics, trace, intervals, profile and loops exports, the two
//! heartbeat lines, and the daemon's request, response and payload
//! objects. Each is rendered from fixed inputs (the clock-bearing ones
//! from hand-built structs, so nothing needs masking) and compared byte
//! for byte with its file under `tests/golden/`; regenerate those with
//! `UPDATE_GOLDEN=1` only for an intended change. The inputs carry quotes,
//! backslashes, control characters and non-ASCII text to pin escaping,
//! and empty tables to pin the empty-array layouts.

use std::path::PathBuf;

use instrep_core::interval::{to_jsonl, IntervalWindow};
use instrep_core::loops::{LoopNestProfile, LoopPathStats, LoopRecord, LoopsReport};
use instrep_core::metrics::{MetricsReport, WorkloadMetrics};
use instrep_core::profile::{InstructionProfile, ProfileReport, SiteProfile};
use instrep_core::service::{
    loops_json, metrics_json, profile_json, report_json, ErrorKind, ReportPayload, Request,
    Response, ServiceError,
};
use instrep_core::telemetry::{
    heartbeat_header_json, heartbeat_json, HistSnapshot, LanePhase, LaneSnapshot,
    TelemetrySnapshot, HIST_BUCKETS,
};
use instrep_core::{AnalysisConfig, CacheOutcome, InsnClass, Session, Span, SpanTracer};

/// A name that needs every kind of escaping the writer performs.
const AWKWARD: &str = "we\"ird\\na\u{1}me\n\tr\u{e9}";

fn workload_metrics() -> WorkloadMetrics {
    let mut m = WorkloadMetrics::default();
    m.record_phase_ns("build", 1_234_567, 0);
    m.record_phase_ns("measure", 2_000_000, 1000);
    m.record_phase_ns("finalize", 0, 0);
    m.gauge("tracker_instances_buffered", 42);
    m.gauge("reuse_valid", 7);
    m
}

fn site(index: u32, exec: u64, repeated: u64, class: InsnClass, func: &str) -> SiteProfile {
    SiteProfile {
        index,
        pc: 0x0040_0000 + index * 4,
        exec,
        repeated,
        unique_repeatable: repeated / 3,
        class,
        func: func.to_string(),
        line: index / 2,
    }
}

fn instruction_profile() -> InstructionProfile {
    InstructionProfile {
        sites: vec![
            site(0, 10, 0, InsnClass::Alu, "main"),
            site(1, 300, 299, InsnClass::Load, "main"),
            site(5, 300, 200, InsnClass::Branch, AWKWARD),
            site(9, 7, 7, InsnClass::System, "(outside-function)"),
        ],
    }
}

fn loop_record(header: u32, depth: u32, exec: u64, repeated: u64, func: &str) -> LoopRecord {
    LoopRecord {
        header,
        end: header + 0x20,
        func: func.to_string(),
        line_lo: depth * 3,
        line_hi: depth * 3 + 2,
        depth,
        trips: exec / 8,
        entries: depth.into(),
        exec,
        repeated,
        unique_repeatable: repeated / 5,
        class_exec: [exec / 2, exec / 4, 0, exec / 8, exec / 8, 0],
        class_repeated: [repeated / 2, repeated / 4, 0, repeated / 8, repeated / 8, 0],
    }
}

fn loop_profile() -> LoopNestProfile {
    LoopNestProfile {
        loops: vec![
            loop_record(0x0040_0010, 1, 800, 600, "main"),
            loop_record(0x0040_0040, 2, 640, 639, AWKWARD),
        ],
        paths: vec![
            LoopPathStats { headers: vec![], exec: 50, repeated: 5 },
            LoopPathStats { headers: vec![0x0040_0010], exec: 160, repeated: 100 },
            LoopPathStats { headers: vec![0x0040_0010, 0x0040_0040], exec: 640, repeated: 639 },
        ],
        no_loop_exec: 50,
        no_loop_repeated: 5,
        back_edges: 99,
        irregular: 1,
        max_depth: 2,
    }
}

fn snapshot(elapsed_ns: u64, icount: u64) -> TelemetrySnapshot {
    let mut buckets = [0u64; HIST_BUCKETS];
    buckets[3] = 2;
    let lane = |lane, icount, jobs_done, phase, label: &str| LaneSnapshot {
        lane,
        icount,
        jobs_done,
        phase,
        label: label.to_string(),
    };
    TelemetrySnapshot {
        elapsed_ns,
        counters: vec![("cache_hit".to_string(), 3), ("serve_requests".to_string(), 11)],
        gauges: vec![("serve_queue_depth".to_string(), 1)],
        hists: vec![("cache_load_ns".to_string(), HistSnapshot { count: 2, sum: 17, buckets })],
        lanes: vec![
            lane(0, icount, 1, LanePhase::Measure, "compress"),
            lane(1, 0, 0, LanePhase::Idle, AWKWARD),
        ],
    }
}

fn small_report() -> instrep_core::WorkloadReport {
    let image = instrep_minicc::build(
        "int main() { int i; int s = 0; for (i = 0; i < 400; i++) s += i & 7; return s & 0xff; }",
    )
    .unwrap();
    Session::new(AnalysisConfig::default()).run_one(&image, Vec::new()).unwrap().report
}

fn metrics_doc() -> String {
    MetricsReport {
        scale: "tiny".to_string(),
        seed: 1998,
        jobs: 2,
        workloads: vec![
            ("compress".to_string(), workload_metrics()),
            (AWKWARD.to_string(), WorkloadMetrics::default()),
        ],
        peak_rss_bytes: 123_456_789,
        wall_ns_total: 3_500_001,
    }
    .to_json()
}

fn trace_doc() -> String {
    let mut tracer = SpanTracer::new();
    tracer.name_lane(0, "main");
    tracer.name_lane(1, AWKWARD);
    tracer.name_lane(0, "a lane keeps its first name");
    let span = |name: &str, cat, lane, start_ns, dur_ns, events| Span {
        name: name.to_string(),
        cat,
        lane,
        start_ns,
        dur_ns,
        events,
    };
    tracer.extend(vec![
        span("measure", "phase", 1, 1_500, 999, 400_000),
        span("compile: compress", "build", 0, 0, 1_234_567, 0),
        span(AWKWARD, "workload", 1, 1_000, 2_001, 7),
    ]);
    tracer.to_json()
}

fn intervals_doc() -> String {
    let window = |end, insns, repeated, reuse_hits, partial| IntervalWindow {
        end,
        insns,
        repeated,
        reuse_hits,
        occupancy: end / 2,
        unique_growth: insns / 3,
        partial,
    };
    let series = vec![
        ("compress".to_string(), vec![window(3, 3, 2, 1, false), window(4, 1, 0, 0, true)]),
        ("go".to_string(), vec![]),
        (AWKWARD.to_string(), vec![window(3, 3, 3, 3, false)]),
    ];
    to_jsonl(AWKWARD, 42, 2, 3, &series)
}

fn profile_doc() -> String {
    ProfileReport {
        scale: "tiny".to_string(),
        seed: 1998,
        top: 2,
        workloads: vec![
            ("compress".to_string(), instruction_profile()),
            (AWKWARD.to_string(), InstructionProfile::default()),
        ],
    }
    .to_json()
}

fn loops_doc() -> String {
    LoopsReport {
        scale: "tiny".to_string(),
        seed: 1998,
        top: 1,
        workloads: vec![
            ("interp".to_string(), loop_profile()),
            (AWKWARD.to_string(), LoopNestProfile::default()),
        ],
    }
    .to_json()
}

fn heartbeat_lines() -> String {
    let first = snapshot(1_000_000, 10_000);
    let second = snapshot(251_000_000, 510_000);
    [
        heartbeat_header_json(250),
        heartbeat_json(1, &first, None),
        heartbeat_json(2, &second, Some(&first)),
        heartbeat_json(3, &TelemetrySnapshot::default(), None),
    ]
    .join("\n")
}

fn requests_doc() -> String {
    [
        Request::workload(1, "compress"),
        Request::workload(u64::MAX, AWKWARD).scale("full").seed(u64::MAX).skip(0).window(5000),
        Request::raw_source(3, "int main() {\n\treturn \"\\\"; }").with_metrics().with_loops(),
        Request { top_k: Some(5), ..Request::workload(4, "go").with_profile().with_metrics() },
    ]
    .iter()
    .map(Request::encode)
    .collect::<Vec<_>>()
    .join("\n")
}

fn responses_doc() -> String {
    let mut m = WorkloadMetrics::default();
    m.record_phase_ns("measure", 2_000_000, 1000);
    let bare = ReportPayload {
        id: 0,
        cache: CacheOutcome::Uncached,
        report: "{}".to_string(),
        metrics: None,
        profile: None,
        loops: None,
    };
    let full = ReportPayload {
        id: 17,
        cache: CacheOutcome::VerifyMismatch,
        report: r#"{"outcome":"exited:0"}"#.to_string(),
        metrics: Some(metrics_json(&m)),
        profile: Some(r#"{"sites":0,"top":[]}"#.to_string()),
        loops: Some(r#"{"total_exec":0}"#.to_string()),
    };
    let error = |id, kind, message: &str, retry_after_ms| {
        Response::Error(ServiceError { id, kind, message: message.to_string(), retry_after_ms })
    };
    [
        Response::Report(full),
        Response::Report(bare),
        error(9, ErrorKind::Overloaded, &format!("queue full: {AWKWARD}"), Some(50)),
        error(u64::MAX, ErrorKind::Timeout, "", None),
    ]
    .iter()
    .map(Response::encode)
    .collect::<Vec<_>>()
    .join("\n")
}

fn metrics_payload_doc() -> String {
    let empty = metrics_json(&WorkloadMetrics::default());
    format!("{}\n{empty}", metrics_json(&workload_metrics()))
}

fn profile_payload_doc() -> String {
    let empty = profile_json(&InstructionProfile::default(), 3);
    format!("{}\n{}\n{empty}", profile_json(&instruction_profile(), 3), {
        let mut p = instruction_profile();
        p.sites[0].func = AWKWARD.to_string();
        profile_json(&p, 0)
    })
}

fn loops_payload_doc() -> String {
    let empty = loops_json(&LoopNestProfile::default(), 3);
    format!("{}\n{}\n{empty}", loops_json(&loop_profile(), 1), loops_json(&loop_profile(), 9))
}

#[test]
fn every_document_matches_its_pinned_bytes() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for (name, got) in [
        ("metrics.json", metrics_doc()),
        ("trace.json", trace_doc()),
        ("trace_empty.json", SpanTracer::new().to_json()),
        ("intervals.jsonl", intervals_doc()),
        ("profile.json", profile_doc()),
        ("loops.json", loops_doc()),
        ("heartbeats.jsonl", heartbeat_lines()),
        ("requests.jsonl", requests_doc()),
        ("responses.jsonl", responses_doc()),
        ("report_payload.json", report_json(&small_report())),
        ("metrics_payload.jsonl", metrics_payload_doc()),
        ("profile_payload.jsonl", profile_payload_doc()),
        ("loops_payload.jsonl", loops_payload_doc()),
    ] {
        let path = dir.join(name);
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(&path, &got).expect("write pinned document");
            continue;
        }
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing pin {} ({e})", path.display()));
        assert!(got == want, "{name} differs from its pin:\n--- got\n{got}\n--- want\n{want}");
    }
}

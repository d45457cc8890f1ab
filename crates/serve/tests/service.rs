//! Behavioral tests for the daemon: protocol errors, backpressure,
//! timeouts, cache sharing, and graceful shutdown — everything the wire
//! contract promises beyond the happy path.
//!
//! Timing constants assume the interpreter manages at least ~2 M
//! instructions per second (debug profile on one core); the slow
//! requests use `window` overrides so their runtimes are bounded and
//! proportional, not open-ended.

mod util;

use std::sync::Arc;
use std::time::{Duration, Instant};

use instrep_core::service::{ErrorKind, Request, Response};
use instrep_core::telemetry::render_prometheus;
use instrep_core::{CacheOutcome, TelemetryRegistry};
use instrep_serve::{ServeConfig, Server, RETRY_AFTER_MS};
use util::{scratch_dir, socket_path, Client, FAST_SOURCE, SLOW_SOURCE};

fn start(cfg: ServeConfig) -> (Server, Arc<TelemetryRegistry>) {
    let registry = Arc::new(TelemetryRegistry::new());
    let server = Server::start(cfg, Arc::clone(&registry)).unwrap();
    (server, registry)
}

fn stop(server: Server) {
    server.shutdown();
    server.join().unwrap();
}

/// A request the daemon will spend `window` instructions on, regardless
/// of profile or machine: the program never exits inside the window.
fn slow(id: u64, window: u64) -> Request {
    Request::raw_source(id, SLOW_SOURCE).skip(0).window(window)
}

#[test]
fn serves_raw_source_and_rejects_bad_requests() {
    let (server, _registry) = start(ServeConfig::new(socket_path("svc-basic")));
    let mut c = Client::connect(server.socket());

    // Raw MiniC compiles, runs, and comes back as canonical report JSON.
    match c.roundtrip(&Request::raw_source(1, FAST_SOURCE)) {
        Response::Report(p) => {
            assert_eq!(p.id, 1);
            assert_eq!(p.cache, CacheOutcome::Uncached);
            assert!(p.report.contains("\"outcome\":\"exited:7\""), "report: {}", p.report);
            assert!(p.metrics.is_none() && p.profile.is_none() && p.loops.is_none());
        }
        other => panic!("expected report, got {other:?}"),
    }

    // Unknown workload names are a client error, not a daemon fault.
    match c.roundtrip(&Request::workload(2, "nope")) {
        Response::Error(e) => {
            assert_eq!(e.id, 2);
            assert_eq!(e.kind, ErrorKind::BadRequest);
            assert!(e.message.contains("nope"), "message: {}", e.message);
        }
        other => panic!("expected bad_request, got {other:?}"),
    }

    // So is raw source that does not compile.
    match c.roundtrip(&Request::raw_source(3, "int main( {")) {
        Response::Error(e) => {
            assert_eq!(e.id, 3);
            assert_eq!(e.kind, ErrorKind::BadRequest);
        }
        other => panic!("expected bad_request, got {other:?}"),
    }

    // The optional payloads ride along when asked for.
    match c.roundtrip(&Request::workload(4, "compress").with_profile().with_loops()) {
        Response::Report(p) => {
            assert!(p.profile.is_some() && p.loops.is_some());
            assert!(p.metrics.is_none());
        }
        other => panic!("expected report, got {other:?}"),
    }
    stop(server);
}

#[test]
fn protocol_errors_leave_the_connection_usable() {
    let mut cfg = ServeConfig::new(socket_path("svc-proto"));
    cfg.max_request_bytes = 4096;
    let (server, _registry) = start(cfg);
    let mut c = Client::connect(server.socket());

    // Malformed JSON.
    c.send_line("{this is not json");
    match Response::decode(&c.recv_line().unwrap()).unwrap() {
        Response::Error(e) => assert_eq!(e.kind, ErrorKind::BadRequest),
        other => panic!("expected bad_request, got {other:?}"),
    }

    // A future schema version is rejected by name, naming both sides.
    c.send_line(r#"{"schema_version":99,"id":7,"workload":"compress","scale":"tiny"}"#);
    match Response::decode(&c.recv_line().unwrap()).unwrap() {
        Response::Error(e) => {
            assert_eq!(e.id, 7, "id is still echoed when only the version is wrong");
            assert_eq!(e.kind, ErrorKind::UnsupportedVersion);
            assert!(e.message.contains("99") && e.message.contains('1'), "{}", e.message);
        }
        other => panic!("expected unsupported_version, got {other:?}"),
    }

    // An oversized line is discarded without reading it into memory...
    let huge = format!(r#"{{"schema_version":1,"id":8,"source":"{}"}}"#, "x".repeat(8192));
    c.send_line(&huge);
    match Response::decode(&c.recv_line().unwrap()).unwrap() {
        Response::Error(e) => assert_eq!(e.kind, ErrorKind::Oversized),
        other => panic!("expected oversized, got {other:?}"),
    }

    // ...and the same connection keeps working afterwards.
    match c.roundtrip(&Request::raw_source(9, FAST_SOURCE)) {
        Response::Report(p) => assert_eq!(p.id, 9),
        other => panic!("expected report, got {other:?}"),
    }
    stop(server);
}

#[test]
fn full_queue_answers_overloaded_with_retry_hint() {
    let mut cfg = ServeConfig::new(socket_path("svc-queue"));
    cfg.workers = 1;
    cfg.queue = 1;
    let (server, registry) = start(cfg);
    let socket = server.socket().to_path_buf();

    let spawn_slow = |id: u64| {
        let socket = socket.clone();
        std::thread::spawn(move || Client::connect(&socket).roundtrip(&slow(id, 5_000_000)))
    };
    // #1 occupies the only worker; #2 the only queue slot; #3 bounces.
    let a = spawn_slow(1);
    std::thread::sleep(Duration::from_millis(60));
    let b = spawn_slow(2);
    std::thread::sleep(Duration::from_millis(60));
    match Client::connect(&socket).roundtrip(&slow(3, 5_000_000)) {
        Response::Error(e) => {
            assert_eq!(e.id, 3);
            assert_eq!(e.kind, ErrorKind::Overloaded);
            assert_eq!(e.retry_after_ms, Some(RETRY_AFTER_MS));
        }
        other => panic!("expected overloaded, got {other:?}"),
    }

    // Backpressure rejected the overflow; it did not break admitted work.
    assert!(matches!(a.join().unwrap(), Response::Report(_)));
    assert!(matches!(b.join().unwrap(), Response::Report(_)));
    stop(server);
    let text = render_prometheus(&registry.snapshot());
    assert!(text.contains("instrep_serve_rejected_overload 1"), "{text}");
    assert!(text.contains("instrep_serve_responses_ok 2"), "{text}");
}

#[test]
fn deadline_expiry_times_out_and_frees_the_lane() {
    let mut cfg = ServeConfig::new(socket_path("svc-timeout"));
    cfg.workers = 2;
    cfg.timeout = Duration::from_millis(250);
    let (server, registry) = start(cfg);

    // ~10M instructions takes well over 250ms on any profile.
    let started = Instant::now();
    match Client::connect(server.socket()).roundtrip(&slow(1, 10_000_000)) {
        Response::Error(e) => {
            assert_eq!(e.id, 1);
            assert_eq!(e.kind, ErrorKind::Timeout);
        }
        other => panic!("expected timeout, got {other:?}"),
    }
    // The timeout reply comes at the deadline, not when the abandoned
    // simulation eventually finishes.
    assert!(started.elapsed() < Duration::from_secs(3), "timeout reply was not prompt");

    // The pool is not wedged: the other lane serves while the abandoned
    // run drains in the background.
    match Client::connect(server.socket()).roundtrip(&Request::raw_source(2, FAST_SOURCE)) {
        Response::Report(p) => assert_eq!(p.id, 2),
        other => panic!("expected report, got {other:?}"),
    }

    stop(server); // waits out the abandoned run, then the lane is clean
    let text = render_prometheus(&registry.snapshot());
    assert!(text.contains("instrep_serve_timeouts 1"), "{text}");
    assert!(text.contains("instrep_serve_abandoned_results 1"), "{text}");
}

#[test]
fn identical_requests_share_the_cache_across_clients() {
    let dir = scratch_dir("svc-cache");
    let mut cfg = ServeConfig::new(socket_path("svc-cache"));
    cfg.cache_dir = Some(dir.clone());
    let (server, registry) = start(cfg);

    let cold = match Client::connect(server.socket()).roundtrip(&Request::workload(1, "compress")) {
        Response::Report(p) => p,
        other => panic!("expected report, got {other:?}"),
    };
    assert_eq!(cold.cache, CacheOutcome::Miss);

    // A different client, a different request id — the same derived key.
    let warm = match Client::connect(server.socket()).roundtrip(&Request::workload(2, "compress")) {
        Response::Report(p) => p,
        other => panic!("expected report, got {other:?}"),
    };
    assert_eq!(warm.cache, CacheOutcome::Hit);
    assert_eq!(cold.report, warm.report, "cold and warm reports must be byte-identical");

    stop(server);
    let text = render_prometheus(&registry.snapshot());
    assert!(text.contains("instrep_cache_hit 1"), "{text}");
    assert!(text.contains("instrep_cache_miss 1"), "{text}");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn graceful_shutdown_drains_in_flight_work() {
    let mut cfg = ServeConfig::new(socket_path("svc-drain"));
    cfg.workers = 1;
    let (server, registry) = start(cfg);
    let socket = server.socket().to_path_buf();

    // Open the late connection before shutdown so it is already
    // accepted when the flag flips.
    let mut late = Client::connect(&socket);

    let inflight = {
        let socket = socket.clone();
        std::thread::spawn(move || Client::connect(&socket).roundtrip(&slow(1, 5_000_000)))
    };
    std::thread::sleep(Duration::from_millis(100)); // worker picked it up
    server.shutdown();

    // A request arriving during the drain is turned away: answered
    // `shutting_down`, or the connection is closed if the drain poll
    // wins the race.
    late.send_line(&Request::raw_source(9, FAST_SOURCE).encode());
    if let Some(line) = late.recv_line() {
        match Response::decode(&line).unwrap() {
            Response::Error(e) => assert_eq!(e.kind, ErrorKind::ShuttingDown),
            other => panic!("expected shutting_down, got {other:?}"),
        }
    }

    // The in-flight request is drained, not dropped.
    match inflight.join().unwrap() {
        Response::Report(p) => assert_eq!(p.id, 1),
        other => panic!("expected drained report, got {other:?}"),
    }

    server.join().unwrap();
    assert!(!socket.exists(), "socket file is removed on join");
    let text = render_prometheus(&registry.snapshot());
    assert!(text.contains("instrep_serve_responses_ok 1"), "{text}");
}

//! Behavioral tests for the daemon: protocol errors, backpressure,
//! timeouts, cache sharing, hostile nesting, socket ownership, connection
//! latency, and graceful shutdown — everything the wire contract promises
//! beyond the happy path.
//!
//! Timing constants assume the interpreter manages at least ~2 M
//! instructions per second (debug profile on one core); the slow
//! requests use `window` overrides so their runtimes are bounded and
//! proportional, not open-ended.

mod util;

use std::sync::{mpsc, Arc};
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

/// Shuts the server down and joins it, failing the test if that takes
/// longer than `limit` (a drain that hangs would otherwise hang the
/// test).
fn stop_within(server: Server, limit: Duration, what: &str) {
    let (done_tx, done_rx) = mpsc::channel();
    let stopper = std::thread::spawn(move || {
        server.shutdown();
        done_tx.send(server.join()).unwrap();
    });
    match done_rx.recv_timeout(limit) {
        Ok(joined) => joined.unwrap(),
        Err(_) => panic!("shutdown {what} did not finish within {limit:?}"),
    }
    stopper.join().unwrap();
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
fn nesting_bombs_are_bad_requests_and_the_daemon_keeps_serving() {
    let (server, _registry) = start(ServeConfig::new(socket_path("svc-bombs")));
    let mut c = Client::connect(server.socket());

    // JSON nesting far past the parser's limit, and far under the
    // request cap: refused while decoding, on the connection's thread.
    c.send_line(&"[".repeat(100_000));
    match Response::decode(&c.recv_line().unwrap()).unwrap() {
        Response::Error(e) => {
            assert_eq!(e.kind, ErrorKind::BadRequest);
            assert!(e.message.contains("nesting deeper than"), "{}", e.message);
        }
        other => panic!("expected bad_request, got {other:?}"),
    }

    // MiniC nesting past the compiler's limit, compiled on a worker:
    // blocks, parentheses, and a left-deep operator chain.
    let sources = [
        format!("int main() {{ {}{} return 0; }}", "{".repeat(3_000), "}".repeat(3_000)),
        format!("int main() {{ return {}1{}; }}", "(".repeat(20_000), ")".repeat(20_000)),
        format!("int main() {{ return 1{}; }}", "+1".repeat(49_999)),
    ];
    for (id, src) in (10..).zip(&sources) {
        match c.roundtrip(&Request::raw_source(id, src)) {
            Response::Error(e) => {
                assert_eq!((e.id, e.kind), (id, ErrorKind::BadRequest));
                assert!(e.message.contains("nesting exceeds the limit"), "{}", e.message);
            }
            other => panic!("expected bad_request, got {other:?}"),
        }
    }

    // The same connection and the worker pool still serve.
    match c.roundtrip(&Request::raw_source(20, FAST_SOURCE)) {
        Response::Report(p) => assert_eq!(p.id, 20),
        other => panic!("expected report, got {other:?}"),
    }
    stop(server);
}

#[test]
fn refuses_a_live_socket_and_replaces_a_stale_one() {
    let (server, _registry) = start(ServeConfig::new(socket_path("svc-live")));
    let second =
        Server::start(ServeConfig::new(server.socket()), Arc::new(TelemetryRegistry::new()));
    match second {
        Ok(_) => panic!("a second daemon took over a live socket"),
        Err(e) => {
            assert_eq!(e.kind(), std::io::ErrorKind::AddrInUse);
            assert!(e.to_string().contains("another daemon is listening on"), "{e}");
        }
    }
    // The first daemon still owns its socket.
    match Client::connect(server.socket()).roundtrip(&Request::raw_source(1, FAST_SOURCE)) {
        Response::Report(p) => assert_eq!(p.id, 1),
        other => panic!("expected report, got {other:?}"),
    }
    stop(server);

    // A socket file nothing listens on any more is stale: replaced.
    let stale = socket_path("svc-stale");
    drop(std::os::unix::net::UnixListener::bind(&stale).unwrap());
    assert!(stale.exists());
    let (server, _registry) = start(ServeConfig::new(&stale));
    match Client::connect(server.socket()).roundtrip(&Request::raw_source(2, FAST_SOURCE)) {
        Response::Report(p) => assert_eq!(p.id, 2),
        other => panic!("expected report, got {other:?}"),
    }
    stop(server);
}

#[test]
fn fresh_connections_wait_for_no_poll() {
    let (server, _registry) = start(ServeConfig::new(socket_path("svc-connect")));
    // A malformed line is answered without a worker, so each round trip
    // is connection set-up plus one read and one write. A daemon that
    // polls for new connections adds its poll period to every trip.
    let started = Instant::now();
    for _ in 0..40 {
        let mut c = Client::connect(server.socket());
        c.send_line("not json");
        assert!(c.recv_line().unwrap().contains("bad_request"));
    }
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_millis(400), "40 fresh connections took {elapsed:?}");
    stop(server);
}

#[test]
fn shutdown_ends_idle_connections_promptly() {
    let (server, registry) = start(ServeConfig::new(socket_path("svc-idle")));
    // Each client's first round trip proves it was accepted; then it
    // sits idle, its connection thread blocked in `read`.
    let mut idle: Vec<Client> = (0..3)
        .map(|_| {
            let mut c = Client::connect(server.socket());
            c.send_line("not json");
            assert!(c.recv_line().unwrap().contains("bad_request"));
            c
        })
        .collect();

    stop_within(server, Duration::from_secs(5), "with idle connections open");
    for c in &mut idle {
        assert_eq!(c.recv_line(), None, "an idle connection is closed by the drain");
    }
    // Only client connections are counted.
    let text = render_prometheus(&registry.snapshot());
    assert!(text.contains("instrep_serve_connections 3\n"), "{text}");
}

#[test]
fn shutdown_drains_after_the_socket_file_is_deleted() {
    let (server, _registry) = start(ServeConfig::new(socket_path("svc-unlinked")));
    let mut idle = Client::connect(server.socket());
    idle.send_line("not json");
    assert!(idle.recv_line().unwrap().contains("bad_request"));
    // Nothing can connect to the daemon any more; shutdown must not
    // need to.
    std::fs::remove_file(server.socket()).unwrap();
    stop_within(server, Duration::from_secs(5), "without a socket file");
    assert_eq!(idle.recv_line(), None, "an idle connection is closed by the drain");
}

#[test]
fn a_half_closed_connection_gets_eof_after_its_replies() {
    let (server, _registry) = start(ServeConfig::new(socket_path("svc-half")));
    let mut c = Client::connect(server.socket());
    c.send_line("not json");
    c.shutdown_write();
    assert!(c.recv_line().unwrap().contains("bad_request"));
    // No other client connects, so nothing else wakes the daemon: the
    // connection thread itself must close the connection once it has
    // seen EOF and answered every line.
    let (eof_tx, eof_rx) = mpsc::channel();
    let reader = std::thread::spawn(move || eof_tx.send(c.recv_line()).unwrap());
    match eof_rx.recv_timeout(Duration::from_secs(1)) {
        Ok(line) => assert_eq!(line, None, "nothing follows the reply"),
        Err(_) => panic!("no EOF within 1 s after the last reply"),
    }
    reader.join().unwrap();
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
        std::thread::spawn(move || {
            let mut c = Client::connect(&socket);
            // The second line reaches the daemon before the drain but is
            // read only after the first is answered.
            c.send_line(&slow(1, 5_000_000).encode());
            c.send_line(&Request::raw_source(2, FAST_SOURCE).encode());
            let mut replies = || c.recv_line().map(|l| Response::decode(&l).unwrap());
            (replies(), replies(), replies())
        })
    };
    std::thread::sleep(Duration::from_millis(100)); // worker picked it up
    server.shutdown();

    // A request arriving during the drain is turned away: answered
    // `shutting_down`, or refused outright if the drain has already shut
    // the connection's read half.
    if late.try_send_line(&Request::raw_source(9, FAST_SOURCE).encode()).is_ok() {
        if let Some(line) = late.recv_line() {
            match Response::decode(&line).unwrap() {
                Response::Error(e) => assert_eq!(e.kind, ErrorKind::ShuttingDown),
                other => panic!("expected shutting_down, got {other:?}"),
            }
        }
    }

    // The in-flight request is drained, not dropped; the line already
    // received behind it is answered, not cut off; then the connection
    // ends.
    match inflight.join().unwrap() {
        (Some(Response::Report(p)), Some(Response::Error(e)), None) => {
            assert_eq!(p.id, 1);
            assert_eq!((e.id, e.kind), (2, ErrorKind::ShuttingDown));
        }
        other => panic!("expected a drained report, then shutting_down, then EOF; got {other:?}"),
    }

    server.join().unwrap();
    assert!(!socket.exists(), "socket file is removed on join");
    let text = render_prometheus(&registry.snapshot());
    assert!(text.contains("instrep_serve_responses_ok 1"), "{text}");
}

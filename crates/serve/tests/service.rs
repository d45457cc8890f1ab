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

use instrep_core::json::Json;
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

    // A line one byte over the cap, or a read chunk over it, or two, is
    // discarded without reading it whole into memory: each is a request
    // that would compile, padded to its length...
    for (id, len) in [(8, 4096 + 1), (9, 4096 + 948), (10, 4096 + 3948), (11, 8192)] {
        let base = Request::raw_source(id, FAST_SOURCE).encode().len();
        let padded = format!("{FAST_SOURCE}{}", " ".repeat(len - base));
        let line = Request::raw_source(id, &padded).encode();
        assert_eq!(line.len(), len);
        c.send_line(&line);
        match Response::decode(&c.recv_line().unwrap()).unwrap() {
            Response::Error(e) => assert_eq!(e.kind, ErrorKind::Oversized, "{len} bytes"),
            other => panic!("expected oversized for {len} bytes, got {other:?}"),
        }

        // ...and the same connection keeps working afterwards.
        match c.roundtrip(&Request::raw_source(id + 100, FAST_SOURCE)) {
            Response::Report(p) => assert_eq!(p.id, id + 100),
            other => panic!("expected report, got {other:?}"),
        }
    }

    // A line of exactly the cap is served.
    let base = Request::raw_source(12, FAST_SOURCE).encode().len();
    let padded = format!("{FAST_SOURCE}{}", " ".repeat(4096 - base));
    match c.roundtrip(&Request::raw_source(12, &padded)) {
        Response::Report(p) => assert_eq!(p.id, 12),
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

    // Integer fields past their bounds: a top_k whose coverage vectors
    // would not fit in memory, one that overflows a capacity, and a
    // window that keeps a never-exiting source on its worker for good.
    let top_k = |id, k| Request { top_k: Some(k), ..Request::workload(id, "compress") };
    let hostile = [
        ("top_k", top_k(30, 1_000_000_000_000)),
        ("top_k", top_k(31, usize::MAX)),
        ("window", slow(32, u64::MAX)),
    ];
    for (field, req) in hostile {
        match c.roundtrip(&req) {
            Response::Error(e) => {
                assert_eq!((e.id, e.kind), (req.id, ErrorKind::BadRequest));
                assert!(e.message.starts_with(field), "{}", e.message);
            }
            other => panic!("expected bad_request, got {other:?}"),
        }
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

/// A zero heartbeat period would write heartbeats in a busy loop, a zero
/// timeout would answer every queued request `timeout`, and a pool or
/// queue of zero would quietly become one, so the daemon refuses each
/// while parsing its flags, before it makes the heartbeat file or the
/// socket. A daemon that starts anyway is killed after two seconds and
/// fails the test.
#[test]
fn zero_heartbeat_period_is_refused_before_start() {
    use std::io::Read;
    use std::process::{Command, Stdio};

    for flag in ["--heartbeat-ms", "--workers", "--queue", "--timeout-ms"] {
        let dir = scratch_dir("svc-zero");
        let (socket, beats) = (dir.join("serve.sock"), dir.join("hb.jsonl"));
        let mut daemon = Command::new(env!("CARGO_BIN_EXE_instrep-serve"))
            .arg("--socket")
            .arg(&socket)
            .args([flag, "0", "--heartbeat-out"])
            .arg(&beats)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn instrep-serve");
        let deadline = Instant::now() + Duration::from_secs(2);
        let status = loop {
            if let Some(status) = daemon.try_wait().unwrap() {
                break Some(status);
            }
            if Instant::now() >= deadline {
                daemon.kill().ok();
                daemon.wait().ok();
                break None;
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        let mut err = String::new();
        daemon.stderr.take().unwrap().read_to_string(&mut err).unwrap();
        let made = (beats.exists(), socket.exists());
        std::fs::remove_dir_all(&dir).ok();
        // `None`: still running after two seconds.
        assert_eq!(status.map(|s| s.code()), Some(Some(2)), "{flag} 0: stderr: {err}");
        assert!(err.contains(&format!("{flag} must be at least 1")), "stderr: {err}");
        assert_eq!(made, (false, false), "{flag} 0: (heartbeat file, socket) created");
    }
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
    // A request that can never run is refused on its connection thread,
    // not told to retry for a slot it does not need.
    match Client::connect(&socket).roundtrip(&Request::workload(4, "nope")) {
        Response::Error(e) => assert_eq!((e.id, e.kind), (4, ErrorKind::BadRequest)),
        other => panic!("expected bad_request, got {other:?}"),
    }

    // Backpressure rejected the overflow; it did not break admitted work.
    assert!(matches!(a.join().unwrap(), Response::Report(_)));
    assert!(matches!(b.join().unwrap(), Response::Report(_)));
    stop(server);
    let text = render_prometheus(&registry.snapshot());
    assert!(text.contains("instrep_serve_rejected_overload 1\n"), "{text}");
    assert!(text.contains("instrep_serve_bad_requests 1\n"), "{text}");
    assert!(text.contains("instrep_serve_responses_ok 2"), "{text}");
}

#[test]
fn a_warm_hit_does_not_wait_for_a_busy_worker() {
    let dir = scratch_dir("svc-warm");
    let mut cfg = ServeConfig::new(socket_path("svc-warm"));
    cfg.workers = 1;
    cfg.queue = 1;
    cfg.cache_dir = Some(dir.clone());
    let (server, registry) = start(cfg);
    let socket = server.socket().to_path_buf();
    let report = |response: Response| match response {
        Response::Report(p) => p,
        other => panic!("expected report, got {other:?}"),
    };

    // The first request builds compress and misses.
    let cold = report(Client::connect(&socket).roundtrip(&Request::workload(1, "compress")));
    assert_eq!(cold.cache, CacheOutcome::Miss);

    // #2 occupies the only worker, #3 the only queue slot.
    let spawn_slow = |id: u64| {
        let socket = socket.clone();
        std::thread::spawn(move || Client::connect(&socket).roundtrip(&slow(id, 5_000_000)))
    };
    let a = spawn_slow(2);
    std::thread::sleep(Duration::from_millis(60));
    let b = spawn_slow(3);
    std::thread::sleep(Duration::from_millis(60));

    // The warm hit needs no worker and no queue slot.
    let (hit_tx, hit_rx) = mpsc::channel();
    let asker = {
        let socket = socket.clone();
        std::thread::spawn(move || {
            hit_tx.send(Client::connect(&socket).roundtrip(&Request::workload(4, "compress")))
        })
    };
    let warm = match hit_rx.recv_timeout(Duration::from_secs(1)) {
        Ok(response) => report(response),
        Err(_) => panic!("a warm hit waited for the busy worker"),
    };
    asker.join().unwrap().unwrap();
    assert_eq!((warm.id, warm.cache), (4, CacheOutcome::Hit));
    assert_eq!(warm.report, cold.report);

    // Work that simulates is still bounded by the queue.
    match Client::connect(&socket).roundtrip(&slow(5, 5_000_000)) {
        Response::Error(e) => assert_eq!((e.id, e.kind), (5, ErrorKind::Overloaded)),
        other => panic!("expected overloaded, got {other:?}"),
    }
    assert!(matches!(a.join().unwrap(), Response::Report(_)));
    assert!(matches!(b.join().unwrap(), Response::Report(_)));

    // A new input for the built workload misses on the connection
    // thread; the worker runs it under that key without looking again.
    let mut c = Client::connect(&socket);
    let fresh = report(c.roundtrip(&Request::workload(6, "compress").seed(7)));
    assert_eq!(fresh.cache, CacheOutcome::Miss);
    let again = report(c.roundtrip(&Request::workload(7, "compress").seed(7)));
    assert_eq!((again.cache, again.report), (CacheOutcome::Hit, fresh.report));

    // A metrics request keeps its lookup in the run: cold, the cache
    // phase and the pipeline's; warm, the cache phase alone.
    for (id, expect) in [(8, "cache,setup,skip,measure,finalize"), (9, "cache")] {
        let p = report(c.roundtrip(&Request::workload(id, "li").with_metrics()));
        let metrics = Json::parse(p.metrics.as_deref().expect("metrics were requested")).unwrap();
        let phases = metrics.get("phases").unwrap().items();
        let names: Vec<&str> =
            phases.iter().map(|p| p.get("name").unwrap().str().unwrap()).collect();
        assert_eq!(names.join(","), expect, "request {id}");
    }
    stop(server);

    // One lookup per request that reached the cache: compress cold and
    // warm, the two slow sources, compress seed 7 cold and warm, li
    // cold and warm. The overloaded request never looked. The second
    // slow source ran after the first stored its entry, so it hit; each
    // miss stored once.
    let text = render_prometheus(&registry.snapshot());
    let count = |name: &str| -> u64 {
        let line = text.lines().find(|l| l.starts_with(&format!("{name} ")));
        line.map_or(0, |l| l[name.len() + 1..].parse().unwrap())
    };
    let lookups = ["instrep_cache_hit", "instrep_cache_miss", "instrep_cache_corrupt_miss"];
    assert_eq!(lookups.iter().map(|n| count(n)).sum::<u64>(), 8, "{text}");
    assert_eq!((count("instrep_cache_hit"), count("instrep_cache_miss")), (4, 4), "{text}");
    assert_eq!(count("instrep_cache_store"), 4, "{text}");
    assert_eq!(count("instrep_serve_rejected_overload"), 1, "{text}");
    // Eight reports, the hits answered on connection threads included.
    assert_eq!(count("instrep_serve_responses_ok"), 8, "{text}");
    std::fs::remove_dir_all(dir).ok();
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

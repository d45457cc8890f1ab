#![warn(missing_docs)]
//! The `instrep-serve` daemon: instruction-repetition analysis as a
//! long-running service.
//!
//! Clients connect to a Unix domain socket and speak the
//! newline-delimited JSON contract of [`instrep_core::service`]: one
//! request line in, one response line out, in order, per connection.
//! Each request names an in-tree workload (workload/scale/seed) or
//! carries raw MiniC source; the daemon compiles what it must, runs the
//! analysis on a fixed pool of worker threads — each driving a
//! [`Session`] against one shared [`AnalysisCache`] — and streams the
//! canonical report JSON back, plus optional metrics/profile/loops
//! payloads.
//!
//! Production concerns are the feature, not an afterthought:
//!
//! * **Bounded queue with explicit backpressure.** At most
//!   [`ServeConfig::queue`] requests wait for a worker; when the queue
//!   is full the daemon answers `overloaded` with a `retry_after_ms`
//!   hint instead of buffering without bound.
//! * **Per-request wall-clock timeouts.** Every request gets
//!   [`ServeConfig::timeout`] from the moment it is accepted onto the
//!   queue. A request still queued at its deadline is abandoned without
//!   running; one that finishes after its client gave up has its result
//!   dropped (the simulation itself is never killed mid-flight — see
//!   `DESIGN.md` §17.3). Either way the lane comes back clean.
//! * **One shared cache, many clients.** Workers derive the same
//!   content-addressed keys as the CLI; the cache's temp+rename write
//!   discipline makes concurrent stores safe, proven by the
//!   many-client stress test in `tests/stress.rs`.
//! * **Telemetry.** Request/queue/outcome counters, a queue-depth
//!   gauge, and a request-latency histogram join the existing cache
//!   hit/miss instruments in the shared
//!   [`TelemetryRegistry`](instrep_core::TelemetryRegistry), so
//!   `--telemetry-out` and `--heartbeat-out` work exactly as they do in
//!   `instrep-repro`.
//! * **Graceful shutdown.** [`Server::shutdown`] (the binary wires
//!   SIGTERM/ctrl-C to it) stops accepting work, answers late arrivals
//!   with `shutting_down`, drains everything already queued or running,
//!   and then exits. Nothing polls: the accept loop and every connection
//!   thread block in `accept`/`read`, and shutdown wakes them.
//!
//! The crate is a library so tests (and embedders) can run the server
//! in-process; `src/main.rs` is a thin CLI over [`Server::start`].

use std::collections::HashMap;
use std::io::{ErrorKind as IoErrorKind, Read, Write};
use std::net::Shutdown;
use std::os::fd::OwnedFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use instrep_asm::Image;
use instrep_core::service::{
    loops_json, metrics_json, profile_json, report_json, scale_windows, ErrorKind, Json,
    ReportPayload, Request, RequestError, RequestSource, Response, ServiceError,
};
use instrep_core::telemetry::{Counter, Gauge, Histogram};
use instrep_core::{AnalysisCache, AnalysisConfig, Session, TelemetryRegistry};
use instrep_workloads::Scale;

/// How long an `overloaded` response tells the client to back off. One
/// queue slot drains in at most one request's wall time, so a small
/// constant beats anything derived from the (much larger) timeout.
pub const RETRY_AFTER_MS: u64 = 50;

/// Everything [`Server::start`] needs to know.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Path of the Unix domain socket to listen on. A stale socket file
    /// here (one nothing listens on, left by a crash) is replaced; a
    /// live daemon's socket is refused. The file is removed again on
    /// [`Server::join`].
    pub socket: PathBuf,
    /// Worker threads running analyses (minimum 1).
    pub workers: usize,
    /// Bounded request-queue depth; a full queue answers `overloaded`.
    pub queue: usize,
    /// Per-request wall-clock budget, measured from the moment the
    /// request is accepted onto the queue.
    pub timeout: Duration,
    /// Maximum accepted request-line length in bytes; longer lines are
    /// answered with `oversized` and discarded.
    pub max_request_bytes: usize,
    /// Directory for the shared [`AnalysisCache`]; `None` serves every
    /// request uncached.
    pub cache_dir: Option<PathBuf>,
}

impl ServeConfig {
    /// A config with production-shaped defaults: 2 workers, a queue of
    /// 16, a 30 s timeout, and a 256 KiB request cap.
    pub fn new(socket: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            socket: socket.into(),
            workers: 2,
            queue: 16,
            timeout: Duration::from_secs(30),
            max_request_bytes: 256 * 1024,
            cache_dir: None,
        }
    }
}

/// Serve-layer instruments, all registered in the shared
/// [`TelemetryRegistry`] (`serve_*` names in the exposition).
struct ServeTelemetry {
    requests: Counter,
    responses_ok: Counter,
    bad_requests: Counter,
    overloaded: Counter,
    timeouts: Counter,
    abandoned: Counter,
    shutdown_rejected: Counter,
    connections: Counter,
    queue_depth: Gauge,
    queue_len: AtomicU64,
    request_ns: Histogram,
}

impl ServeTelemetry {
    fn new(registry: &TelemetryRegistry) -> ServeTelemetry {
        ServeTelemetry {
            requests: registry.counter("serve_requests"),
            responses_ok: registry.counter("serve_responses_ok"),
            bad_requests: registry.counter("serve_bad_requests"),
            overloaded: registry.counter("serve_rejected_overload"),
            timeouts: registry.counter("serve_timeouts"),
            abandoned: registry.counter("serve_abandoned_results"),
            shutdown_rejected: registry.counter("serve_rejected_shutdown"),
            connections: registry.counter("serve_connections"),
            queue_depth: registry.gauge("serve_queue_depth"),
            queue_len: AtomicU64::new(0),
            request_ns: registry.histogram("serve_request_ns"),
        }
    }

    fn queue_push(&self) {
        let v = self.queue_len.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_depth.set(v);
    }

    fn queue_pop(&self) {
        let v = self.queue_len.fetch_sub(1, Ordering::Relaxed).saturating_sub(1);
        self.queue_depth.set(v);
    }
}

/// State shared by the accept loop, connection threads, and workers.
struct Ctx {
    timeout: Duration,
    max_request_bytes: usize,
    shutdown: Arc<AtomicBool>,
    cache: Option<AnalysisCache>,
    /// Compiled in-tree workload images, memoized by name: the sources
    /// are static, so every request for `"compress"` shares one build.
    images: Mutex<HashMap<String, Arc<Image>>>,
    registry: Arc<TelemetryRegistry>,
    tel: ServeTelemetry,
}

/// One queued request: the work, its wall-clock deadline, and the
/// channel its connection thread is waiting on. Dropping the item
/// (queue torn down at shutdown) makes the connection's receiver
/// disconnect, which it answers as `shutting_down`.
struct WorkItem {
    req: Request,
    deadline: Instant,
    reply: Sender<Response>,
}

/// A running daemon. Dropping the handle does **not** stop the server;
/// call [`Server::shutdown`] then [`Server::join`].
pub struct Server {
    shutdown: Arc<AtomicBool>,
    /// A second handle on the listening socket, held only to
    /// `shutdown(2)` it; std exposes that call on `UnixStream`, not on
    /// `UnixListener`.
    wake: UnixStream,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    socket: PathBuf,
}

impl Server {
    /// Binds the socket, spawns the worker pool and the accept loop,
    /// and returns. `registry` receives the serve and cache
    /// instruments; pass the same registry to a heartbeat sampler or
    /// exposition writer to observe the daemon live.
    ///
    /// # Errors
    ///
    /// `AddrInUse` when another daemon is listening on the socket path;
    /// otherwise propagates socket-bind and cache-open failures.
    pub fn start(cfg: ServeConfig, registry: Arc<TelemetryRegistry>) -> std::io::Result<Server> {
        let cache = match &cfg.cache_dir {
            Some(dir) => {
                let mut cache = AnalysisCache::open(dir)?;
                cache.attach_telemetry(&registry);
                Some(cache)
            }
            None => None,
        };
        claim_socket_path(&cfg.socket)?;
        let listener = UnixListener::bind(&cfg.socket)?;
        let wake = UnixStream::from(OwnedFd::from(listener.try_clone()?));

        let shutdown = Arc::new(AtomicBool::new(false));
        let tel = ServeTelemetry::new(&registry);
        let ctx = Arc::new(Ctx {
            timeout: cfg.timeout,
            max_request_bytes: cfg.max_request_bytes,
            shutdown: Arc::clone(&shutdown),
            cache,
            images: Mutex::new(HashMap::new()),
            registry,
            tel,
        });

        let (tx, rx) = mpsc::sync_channel::<WorkItem>(cfg.queue.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let workers: Vec<JoinHandle<()>> = (0..cfg.workers.max(1))
            .map(|w| {
                let rx = Arc::clone(&rx);
                let ctx = Arc::clone(&ctx);
                std::thread::spawn(move || worker_loop(w, &rx, &ctx))
            })
            .collect();

        let accept = {
            let ctx = Arc::clone(&ctx);
            std::thread::spawn(move || accept_loop(&listener, tx, &ctx))
        };

        Ok(Server { shutdown, wake, accept: Some(accept), workers, socket: cfg.socket })
    }

    /// The socket path the daemon is listening on.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Begins a graceful shutdown: stop accepting connections, answer
    /// new requests with `shutting_down`, drain everything already
    /// queued or running. Returns immediately; [`Server::join`] waits.
    ///
    /// The accept loop is blocked in `accept`. Shutting the listening
    /// socket's read side wakes it: on Linux that makes a blocked
    /// `accept` fail, and every later one, and refuses new connects. It
    /// needs neither the socket path nor a free file descriptor.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.wake.shutdown(Shutdown::Read).ok();
    }

    /// Waits for the accept loop, every connection, and every worker to
    /// finish, then removes the socket file. Without a prior
    /// [`Server::shutdown`] this blocks until one happens.
    ///
    /// # Errors
    ///
    /// Reports a panicked server thread (a bug, not an I/O condition).
    pub fn join(mut self) -> std::io::Result<()> {
        let mut panicked = false;
        if let Some(accept) = self.accept.take() {
            panicked |= accept.join().is_err();
        }
        for w in self.workers.drain(..) {
            panicked |= w.join().is_err();
        }
        std::fs::remove_file(&self.socket).ok();
        if panicked {
            return Err(std::io::Error::other("a server thread panicked"));
        }
        Ok(())
    }
}

/// Makes `path` free to bind. A socket file nothing listens on (left by
/// a crashed run) is removed, but a live daemon's socket is refused:
/// replacing it would leave that daemon running unreachable, and its
/// [`Server::join`] would delete the new daemon's file.
fn claim_socket_path(path: &Path) -> std::io::Result<()> {
    match UnixStream::connect(path) {
        Ok(_) => Err(std::io::Error::new(
            IoErrorKind::AddrInUse,
            format!("another daemon is listening on {}", path.display()),
        )),
        Err(e) if e.kind() == IoErrorKind::ConnectionRefused => std::fs::remove_file(path),
        // Nothing there: the bind creates it (or reports what is wrong).
        Err(_) => Ok(()),
    }
}

/// Accepts connections until shutdown, blocking in `accept` between
/// them. Then it shuts the read half of every live connection, so an
/// idle one sees EOF at once while lines already received are still
/// answered and replies in flight still go out, and joins their
/// threads. Holds the queue's only original sender, so once this
/// returns (and every connection thread with a clone has exited) the
/// workers see a disconnected queue and drain out.
fn accept_loop(listener: &UnixListener, tx: SyncSender<WorkItem>, ctx: &Arc<Ctx>) {
    // Each live connection's thread, and a handle on its socket for the
    // drain.
    let mut conns: Vec<(JoinHandle<()>, UnixStream)> = Vec::new();
    loop {
        let accepted = listener.accept();
        // `Server::shutdown` sets the flag before it wakes `accept`; a
        // client that connected just before it is dropped uncounted.
        if ctx.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match accepted.and_then(|(stream, _)| Ok((stream.try_clone()?, stream))) {
            Ok((handle, stream)) => {
                ctx.tel.connections.inc();
                let tx = tx.clone();
                let ctx = Arc::clone(ctx);
                let thread = std::thread::spawn(move || handle_connection(&stream, &tx, &ctx));
                conns.push((thread, handle));
            }
            // Accept errors are transient (EMFILE, aborted handshake):
            // back off and keep serving rather than killing the daemon.
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
        // Reap finished connections so a long-lived daemon does not
        // accumulate thread handles and sockets.
        conns.retain(|(thread, _)| !thread.is_finished());
    }
    drop(tx);
    for (_, stream) in &conns {
        stream.shutdown(Shutdown::Read).ok();
    }
    for (thread, _) in conns {
        let _ = thread.join();
    }
}

/// What one attempt to read a request line produced.
enum LineOutcome {
    /// A complete line (newline stripped).
    Line(Vec<u8>),
    /// The line exceeded the size cap; its bytes through the newline
    /// were discarded and the connection can continue.
    Oversized,
    /// Peer closed the connection, or the daemon shut its read half.
    Closed,
}

/// Reads one newline-terminated line, keeping any bytes after it in
/// `carry` for the next call and discarding a line longer than
/// `max_bytes`. Blocks until a line, EOF or an error.
fn read_line(mut stream: &UnixStream, carry: &mut Vec<u8>, max_bytes: usize) -> LineOutcome {
    let mut discarding = false;
    let mut chunk = [0u8; 4096];
    loop {
        // Serve a complete line (or finish a discard) from the carry
        // buffer before touching the socket again.
        if let Some(pos) = carry.iter().position(|&b| b == b'\n') {
            let mut line: Vec<u8> = carry.drain(..=pos).collect();
            line.pop();
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            if discarding {
                return LineOutcome::Oversized;
            }
            return LineOutcome::Line(line);
        }
        if !discarding && carry.len() > max_bytes {
            // Too long without a newline: switch to discard mode and
            // keep consuming until the line ends.
            discarding = true;
        }
        if discarding {
            carry.clear();
        }
        match stream.read(&mut chunk) {
            Ok(0) => return LineOutcome::Closed,
            Ok(n) => carry.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == IoErrorKind::Interrupted => {}
            Err(_) => return LineOutcome::Closed,
        }
    }
}

/// One connection: request lines in, response lines out, in order.
/// Reads block with no timeout; at shutdown the accept loop shuts the
/// read half, which ends the loop once every line already received has
/// been answered (`shutting_down`, as the flag is set by then). On the
/// way out the connection is shut both ways: the accept loop's handle
/// keeps the socket open, and a client that half-closed is waiting for
/// EOF.
fn handle_connection(mut stream: &UnixStream, tx: &SyncSender<WorkItem>, ctx: &Arc<Ctx>) {
    // A write timeout keeps a dead client from wedging the thread.
    stream.set_write_timeout(Some(Duration::from_secs(10))).ok();
    let mut carry = Vec::new();
    loop {
        let response = match read_line(stream, &mut carry, ctx.max_request_bytes) {
            LineOutcome::Line(line) => handle_request_line(&line, tx, ctx),
            LineOutcome::Oversized => {
                ctx.tel.bad_requests.inc();
                Response::Error(ServiceError {
                    id: 0,
                    kind: ErrorKind::Oversized,
                    message: format!(
                        "request line exceeds {} bytes and was discarded",
                        ctx.max_request_bytes
                    ),
                    retry_after_ms: None,
                })
            }
            LineOutcome::Closed => break,
        };
        let mut line = response.encode();
        line.push('\n');
        if stream.write_all(line.as_bytes()).is_err() {
            break;
        }
    }
    stream.shutdown(Shutdown::Both).ok();
}

/// Best-effort id extraction from a line that failed full decoding, so
/// even error responses correlate when the client sent a sane `id`.
fn peek_id(line: &str) -> u64 {
    Json::parse(line)
        .ok()
        .and_then(|doc| doc.get("id").and_then(Json::num))
        .filter(|n| *n >= 0.0 && n.fract() == 0.0)
        .map_or(0, |n| n as u64)
}

/// Decodes, admission-controls, queues, and awaits one request.
fn handle_request_line(raw: &[u8], tx: &SyncSender<WorkItem>, ctx: &Ctx) -> Response {
    ctx.tel.requests.inc();
    let Ok(line) = std::str::from_utf8(raw) else {
        ctx.tel.bad_requests.inc();
        return Response::Error(ServiceError {
            id: 0,
            kind: ErrorKind::BadRequest,
            message: "request line is not valid UTF-8".to_string(),
            retry_after_ms: None,
        });
    };
    let req = match Request::decode(line) {
        Ok(req) => req,
        Err(e) => {
            ctx.tel.bad_requests.inc();
            let kind = match e {
                RequestError::UnsupportedVersion { .. } => ErrorKind::UnsupportedVersion,
                RequestError::Malformed(_) => ErrorKind::BadRequest,
            };
            return Response::Error(ServiceError {
                id: peek_id(line),
                kind,
                message: e.message(),
                retry_after_ms: None,
            });
        }
    };
    let id = req.id;
    if ctx.shutdown.load(Ordering::SeqCst) {
        ctx.tel.shutdown_rejected.inc();
        return Response::Error(ServiceError {
            id,
            kind: ErrorKind::ShuttingDown,
            message: "daemon is draining for shutdown".to_string(),
            retry_after_ms: None,
        });
    }

    let (reply_tx, reply_rx) = mpsc::channel();
    let deadline = Instant::now() + ctx.timeout;
    // Count the slot before the send: a worker can dequeue (and
    // decrement) the instant the item lands, so incrementing after the
    // send could underflow the depth gauge.
    ctx.tel.queue_push();
    match tx.try_send(WorkItem { req, deadline, reply: reply_tx }) {
        Ok(()) => {}
        Err(TrySendError::Full(_)) => {
            ctx.tel.queue_pop();
            ctx.tel.overloaded.inc();
            return Response::Error(ServiceError {
                id,
                kind: ErrorKind::Overloaded,
                message: format!("request queue is full; retry in {RETRY_AFTER_MS}ms"),
                retry_after_ms: Some(RETRY_AFTER_MS),
            });
        }
        Err(TrySendError::Disconnected(_)) => {
            ctx.tel.queue_pop();
            ctx.tel.shutdown_rejected.inc();
            return Response::Error(ServiceError {
                id,
                kind: ErrorKind::ShuttingDown,
                message: "daemon is draining for shutdown".to_string(),
                retry_after_ms: None,
            });
        }
    }
    match reply_rx.recv_timeout(ctx.timeout) {
        Ok(response) => {
            if matches!(response, Response::Report(_)) {
                ctx.tel.responses_ok.inc();
            }
            response
        }
        Err(RecvTimeoutError::Timeout) => {
            ctx.tel.timeouts.inc();
            Response::Error(ServiceError {
                id,
                kind: ErrorKind::Timeout,
                message: format!(
                    "no result within {}ms; the request was abandoned",
                    ctx.timeout.as_millis()
                ),
                retry_after_ms: None,
            })
        }
        Err(RecvTimeoutError::Disconnected) => Response::Error(ServiceError {
            id,
            kind: ErrorKind::ShuttingDown,
            message: "daemon shut down before the request completed".to_string(),
            retry_after_ms: None,
        }),
    }
}

/// Worker: pull, deadline-check, analyze, reply — until the queue
/// disconnects (every sender gone, which only happens at shutdown).
fn worker_loop(worker: usize, rx: &Mutex<Receiver<WorkItem>>, ctx: &Ctx) {
    let lane = ctx.registry.lane(worker);
    loop {
        // Holding the lock across the blocking recv is deliberate: only
        // one idle worker waits at a time, and it releases the lock the
        // moment it has an item, so dispatch serializes but the
        // analyses themselves run in parallel.
        let item = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return,
        };
        let Ok(item) = item else { return };
        ctx.tel.queue_pop();
        if Instant::now() >= item.deadline {
            // Expired while queued: abandon without running so a burst
            // of doomed work cannot wedge the pool.
            ctx.tel.abandoned.inc();
            let _ = item.reply.send(Response::Error(ServiceError {
                id: item.req.id,
                kind: ErrorKind::Timeout,
                message: "request expired while queued".to_string(),
                retry_after_ms: None,
            }));
            continue;
        }
        let label = match &item.req.source {
            RequestSource::Workload(name) => name.clone(),
            RequestSource::Source(_) => "<raw source>".to_string(),
        };
        lane.set_label(&label);
        let started = Instant::now();
        let response = process(&item.req, ctx);
        ctx.tel.request_ns.record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        lane.job_done();
        lane.set_label("");
        if item.reply.send(response).is_err() {
            // The connection gave up (timeout) or went away; the result
            // is dropped, never served stale.
            ctx.tel.abandoned.inc();
        }
    }
}

fn error(id: u64, kind: ErrorKind, message: String) -> Response {
    Response::Error(ServiceError { id, kind, message, retry_after_ms: None })
}

/// Runs one request through a fresh [`Session`] against the shared
/// cache and encodes the response payloads.
fn process(req: &Request, ctx: &Ctx) -> Response {
    let (image, input) = match &req.source {
        RequestSource::Workload(name) => {
            let Some(wl) = instrep_workloads::by_name(name) else {
                return error(req.id, ErrorKind::BadRequest, format!("unknown workload `{name}`"));
            };
            let scale = match req.scale.as_str() {
                "tiny" => Scale::Tiny,
                "small" => Scale::Small,
                "full" => Scale::Full,
                other => {
                    return error(req.id, ErrorKind::BadRequest, format!("unknown scale `{other}`"))
                }
            };
            let image = {
                let mut images = match ctx.images.lock() {
                    Ok(g) => g,
                    Err(_) => {
                        return error(
                            req.id,
                            ErrorKind::AnalysisFailed,
                            "image cache poisoned".to_string(),
                        )
                    }
                };
                match images.get(name) {
                    Some(image) => Arc::clone(image),
                    None => match wl.build() {
                        Ok(image) => {
                            let image = Arc::new(image);
                            images.insert(name.clone(), Arc::clone(&image));
                            image
                        }
                        Err(e) => {
                            return error(
                                req.id,
                                ErrorKind::AnalysisFailed,
                                format!("workload `{name}` failed to build: {e}"),
                            )
                        }
                    },
                }
            };
            (image, wl.input(scale, req.seed))
        }
        RequestSource::Source(minic) => match instrep_minicc::build(minic) {
            Ok(image) => (Arc::new(image), Vec::new()),
            Err(e) => {
                return error(req.id, ErrorKind::BadRequest, format!("source failed to build: {e}"))
            }
        },
    };

    let Some((skip, window)) = scale_windows(&req.scale) else {
        return error(req.id, ErrorKind::BadRequest, format!("unknown scale `{}`", req.scale));
    };
    let defaults = AnalysisConfig::default();
    let cfg = AnalysisConfig {
        skip: req.skip.unwrap_or(skip),
        window: req.window.unwrap_or(window),
        top_k: req.top_k.unwrap_or(defaults.top_k),
        ..defaults
    };

    let mut session =
        Session::new(cfg).metrics(req.want_metrics).profile(req.want_profile).loops(req.want_loops);
    if let Some(cache) = &ctx.cache {
        session = session.cache(cache);
    }
    match session.run_one(&image, input) {
        Ok(ir) => Response::Report(ReportPayload {
            id: req.id,
            cache: ir.cache,
            report: report_json(&ir.report),
            metrics: ir.metrics.map(|m| metrics_json(&m)),
            profile: ir.profile.map(|p| profile_json(&p, cfg.top_k)),
            loops: ir.loops.map(|l| loops_json(&l, cfg.top_k)),
        }),
        Err(e) => error(req.id, ErrorKind::AnalysisFailed, format!("simulation trapped: {e}")),
    }
}

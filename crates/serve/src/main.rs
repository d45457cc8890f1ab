//! `instrep-serve` — the analysis daemon CLI.
//!
//! Thin shell over [`instrep_serve::Server`]: parse flags, install
//! SIGINT/SIGTERM handlers, start the server, then sleep until a signal
//! flips the shutdown flag and drain. Exit code 0 means every in-flight
//! request was drained before the process left.

use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use instrep_core::telemetry::{render_prometheus, HeartbeatConfig, HeartbeatSampler};
use instrep_core::TelemetryRegistry;
use instrep_serve::{ServeConfig, Server};

/// Flipped by the signal handler; the main loop polls it.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

// `std::process` offers no signal hooks and the workspace is hermetic
// (no libc crate), so bind the two calls we need directly. `signal(2)`
// with a plain flag-setting handler is exactly the portable subset.
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

const USAGE: &str = "\
instrep-serve: instruction-repetition analysis as a service

USAGE:
    instrep-serve --socket PATH [OPTIONS]

OPTIONS:
    --socket PATH             Unix domain socket to listen on (required)
    --workers N               analysis worker threads (default 2)
    --queue N                 bounded request-queue depth (default 16)
    --timeout-ms N            per-request wall-clock budget (default 30000)
    --max-request-bytes N     request-line size cap (default 262144)
    --cache-dir DIR           shared analysis cache directory (default: uncached)
    --telemetry-out FILE      write Prometheus exposition here on shutdown
    --heartbeat-out FILE      stream heartbeat snapshots here while serving
    --heartbeat-ms N          heartbeat period (default 200)
    --help                    print this help

The daemon answers newline-delimited JSON requests (schema version 1;
see DESIGN.md §17) and exits 0 after a graceful SIGINT/SIGTERM drain.
";

struct Args {
    cfg: ServeConfig,
    telemetry_out: Option<PathBuf>,
    heartbeat_out: Option<PathBuf>,
    heartbeat_ms: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut socket: Option<PathBuf> = None;
    let mut cfg = ServeConfig::new("");
    let mut telemetry_out = None;
    let mut heartbeat_out = None;
    let mut heartbeat_ms = 200u64;

    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |flag: &str| argv.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--socket" => socket = Some(PathBuf::from(value("--socket")?)),
            "--workers" => {
                cfg.workers =
                    at_least_one("--workers", &value("--workers")?, "a positive integer")?;
            }
            "--queue" => {
                cfg.queue = at_least_one("--queue", &value("--queue")?, "a positive integer")?;
            }
            "--timeout-ms" => {
                let ms = at_least_one("--timeout-ms", &value("--timeout-ms")?, "milliseconds")?;
                cfg.timeout = Duration::from_millis(ms);
            }
            "--max-request-bytes" => {
                cfg.max_request_bytes = value("--max-request-bytes")?
                    .parse()
                    .map_err(|_| "--max-request-bytes expects a byte count".to_string())?;
            }
            "--cache-dir" => cfg.cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
            "--telemetry-out" => telemetry_out = Some(PathBuf::from(value("--telemetry-out")?)),
            "--heartbeat-out" => heartbeat_out = Some(PathBuf::from(value("--heartbeat-out")?)),
            "--heartbeat-ms" => {
                heartbeat_ms =
                    at_least_one("--heartbeat-ms", &value("--heartbeat-ms")?, "milliseconds")?;
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    let Some(socket) = socket else {
        return Err("--socket is required (try --help)".to_string());
    };
    cfg.socket = socket;
    Ok(Args { cfg, telemetry_out, heartbeat_out, heartbeat_ms })
}

/// Parses the value of a count or period flag, refusing zero: a pool or
/// queue of zero would quietly become one, a zero timeout would answer
/// every queued request `timeout`, and a zero heartbeat period would
/// write heartbeats in a busy loop.
fn at_least_one<T: FromStr + PartialEq + From<u8>>(
    flag: &str,
    value: &str,
    expects: &str,
) -> Result<T, String> {
    match value.parse() {
        Ok(n) if n == T::from(0) => Err(format!("{flag} must be at least 1")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("{flag} expects {expects}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("instrep-serve: {msg}");
            return ExitCode::from(2);
        }
    };

    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }

    let registry = Arc::new(TelemetryRegistry::new());
    let heartbeat = match args.heartbeat_out {
        Some(out) => match HeartbeatSampler::start(
            Arc::clone(&registry),
            HeartbeatConfig {
                out: Some(out),
                period: Duration::from_millis(args.heartbeat_ms),
                progress: false,
            },
        ) {
            Ok(h) => Some(h),
            Err(e) => {
                eprintln!("instrep-serve: heartbeat: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let server = match Server::start(args.cfg, Arc::clone(&registry)) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("instrep-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("instrep-serve: listening on {}", server.socket().display());

    while !SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("instrep-serve: draining for shutdown");
    server.shutdown();
    if let Err(e) = server.join() {
        eprintln!("instrep-serve: {e}");
        return ExitCode::FAILURE;
    }

    if let Some(h) = heartbeat {
        if let Err(e) = h.stop() {
            eprintln!("instrep-serve: heartbeat: {e}");
        }
    }
    if let Some(out) = args.telemetry_out {
        let text = render_prometheus(&registry.snapshot());
        if let Err(e) = std::fs::write(&out, text) {
            eprintln!("instrep-serve: telemetry: {e}");
            return ExitCode::FAILURE;
        }
    }
    eprintln!("instrep-serve: drained; bye");
    ExitCode::SUCCESS
}

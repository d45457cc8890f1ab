//! The daemon workloads: one `instrep-serve` with 2 workers and a fresh
//! cache directory, driven by a closed loop of 2 clients from this
//! process. Each client sends its next request only after the previous
//! reply.
//!
//! * `serve-mixed`: persistent connections; a fixed cycle of 6 warm hits,
//!   2 cold misses (named workloads with fresh seeds) and 2 raw MiniC
//!   sources (compiled on every request).
//! * `serve-connect`: warm hits only, each on a fresh connection.
//!
//! Every report is checked against a direct `Session` at
//! `InterpTier::Legacy` + `AnalysisTier::Split`, computed outside the
//! timed region and outside set-up.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use instrep_asm::Image;
use instrep_core::service::{report_json, ErrorKind, Request, Response};
use instrep_core::{AnalysisTier, InterpTier, Session};
use instrep_workloads::Scale;

use crate::spans::{Recorder, Span};
use crate::{end_to_end, metric, report_latencies, Ctx, Outcome, Workload, KERNELS, SPEC8};

/// Client connections (and daemon workers): the box's 2 CPUs.
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// How long a client waits for one reply before counting a timeout.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Hit,
    Miss,
    Source,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Hit => "hit",
            Class::Miss => "miss",
            Class::Source => "source",
        }
    }
}

use Class::{Hit, Miss, Source};

/// One client's request cycle in `serve-mixed`.
const MIXED: [Class; 10] = [Hit, Hit, Source, Hit, Miss, Hit, Hit, Source, Hit, Miss];
const CONNECT: [Class; 10] = [Hit; 10];

/// All ten families: the warm hit set and the cold-miss rotation.
fn families() -> impl Iterator<Item = &'static str> {
    SPEC8.into_iter().chain(KERNELS)
}

fn family(i: usize) -> &'static str {
    families().nth(i % 10).expect("ten families")
}

/// Families for cold misses: those whose input changes with every seed
/// (`li` and `m88ksim` keep only a few seed bits, so their "fresh" seeds
/// would hit).
const MISS_FAMILIES: [&str; 8] =
    ["go", "ijpeg", "perl", "vortex", "gcc", "compress", "interp", "stencil"];

/// What a request asked for — the oracle's input.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    Workload(&'static str, u64),
    Source(String),
}

/// The warm seed of hit-set entry `i`.
fn warm_key(ctx: &Ctx, i: usize) -> Key {
    let i = i % 10;
    Key::Workload(family(i), ctx.input_seed(100 + i as u64))
}

fn request_line(id: u64, key: &Key) -> String {
    let req = match key {
        Key::Workload(name, seed) => Request::workload(id, name).scale("tiny").seed(*seed),
        Key::Source(src) => Request::raw_source(id, src),
    };
    let mut line = req.encode();
    line.push('\n');
    line
}

/// The report a correct daemon returns for `key`, from the oracle tiers.
/// `images` memoizes named workloads' builds, as the daemon does.
fn oracle(key: &Key, images: &mut HashMap<&'static str, Image>) -> Result<String, String> {
    let built;
    let (image, input) = match key {
        Key::Workload(name, seed) => {
            let wl = instrep_workloads::by_name(name).ok_or_else(|| format!("no {name}"))?;
            if !images.contains_key(name) {
                images.insert(name, wl.build().map_err(|e| e.to_string())?);
            }
            (&images[name], wl.input(Scale::Tiny, *seed))
        }
        Key::Source(src) => {
            built = instrep_minicc::build(src).map_err(|e| e.to_string())?;
            (&built, Vec::new())
        }
    };
    let ir = Session::new(crate::windows(Scale::Tiny))
        .interp(InterpTier::Legacy)
        .analysis(AnalysisTier::Split)
        .run_one(image, input)
        .map_err(|e| format!("oracle trapped: {e}"))?;
    Ok(report_json(&ir.report))
}

/// Oracle reports for every distinct key, on two threads pulling from
/// one shared index.
fn oracles(keys: Vec<Key>) -> Result<HashMap<Key, String>, String> {
    let mut keys = keys;
    keys.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    keys.dedup();
    let next = AtomicUsize::new(0);
    let (keys, next) = (&keys, &next);
    let reports: Vec<(usize, Result<String, String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(move || {
                    let mut images = HashMap::new();
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(key) = keys.get(i) else { return out };
                        out.push((i, oracle(key, &mut images)));
                    }
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("oracle thread panicked")).collect()
    });
    reports.into_iter().map(|(i, r)| Ok((keys[i].clone(), r?))).collect()
}

/// A running daemon; dropping it kills the process and waits for it.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
    dir: PathBuf,
}

impl Daemon {
    /// Spawns a daemon on a socket under `dir` (with a fresh cache there
    /// if `cache`) and waits until the socket answers a request line.
    pub fn spawn(serve: &Path, dir: &Path, cache: bool) -> Result<Daemon, String> {
        std::fs::remove_dir_all(dir).ok();
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let socket = dir.join("s.sock");
        let mut cmd = Command::new(serve);
        cmd.arg("--socket").arg(&socket).arg("--workers").arg(WORKERS.to_string());
        if cache {
            cmd.arg("--cache-dir").arg(dir.join("cache"));
        }
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", serve.display()))?;
        let daemon = Daemon { child, socket, dir: dir.to_path_buf() };
        let give_up = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(reply) = daemon.malformed_round_trip() {
                if reply.contains("bad_request") {
                    return Ok(daemon);
                }
            }
            if Instant::now() > give_up {
                return Err("daemon socket never answered".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn connect(&self) -> std::io::Result<UnixStream> {
        let s = UnixStream::connect(&self.socket)?;
        s.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(s)
    }

    /// A fresh connection carrying one malformed line, which the daemon
    /// answers without a worker; returns the reply.
    pub fn malformed_round_trip(&self) -> Result<String, String> {
        let mut s = self.connect().map_err(|e| e.to_string())?;
        s.write_all(b"not json\n").map_err(|e| e.to_string())?;
        read_reply(&mut s).map(|(_, line)| line)
    }

    /// Peak resident set of the daemon so far, in MiB.
    fn peak_rss_mb(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()));
        status
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("VmHWM:"))
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
            .map_or(f64::NAN, |kb| kb / 1024.0)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Reads one reply line; returns the time the first byte arrived.
fn read_reply(s: &mut UnixStream) -> Result<(Instant, String), String> {
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 8192];
    let mut first = None;
    while buf.last() != Some(&b'\n') {
        let n = s.read(&mut chunk).map_err(|e| format!("reading reply: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection".to_string());
        }
        first.get_or_insert_with(Instant::now);
        buf.extend_from_slice(&chunk[..n]);
    }
    buf.pop();
    let line = String::from_utf8(buf).map_err(|_| "reply is not UTF-8".to_string())?;
    Ok((first.expect("at least one read"), line))
}

/// One answered (or failed) request.
struct Record {
    class: Class,
    /// Position in the client's request cycle.
    slot: usize,
    key: Key,
    id: u64,
    start: Instant,
    first_byte: Instant,
    end: Instant,
    /// The reply line, or `None` when the exchange itself failed.
    reply: Option<String>,
}

impl Record {
    fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// One client's sequence state: request and fresh-seed counters.
struct Client {
    index: usize,
    sent: u64,
    misses: u64,
    sources: u64,
    hits: u64,
}

impl Client {
    fn new(index: usize) -> Client {
        Client { index, sent: 0, misses: 0, sources: 0, hits: 0 }
    }

    /// The next request of class `class`: warm hits rotate over the hit
    /// set, misses over the families with never-used seeds, sources are
    /// new programs.
    fn next_key(&mut self, ctx: &Ctx, class: Class) -> Key {
        let lane = self.index as u64 * 1_000_000;
        match class {
            Hit => {
                self.hits += 1;
                warm_key(ctx, self.index * 5 + self.hits as usize)
            }
            Miss => {
                self.misses += 1;
                let f = MISS_FAMILIES[(self.index + 2 * self.misses as usize) % 8];
                Key::Workload(f, ctx.input_seed(10_000 + lane + self.misses))
            }
            Source => {
                self.sources += 1;
                Key::Source(crate::minic::program(ctx.input_seed(20_000 + lane + self.sources)))
            }
        }
    }

    /// Runs whole request cycles until `until`; `serve-connect` opens a
    /// new connection per request.
    fn run(&mut self, ctx: &Ctx, daemon: &Daemon, until: Limit) -> Result<Vec<Record>, String> {
        let (pattern, fresh) = match ctx.workload {
            Workload::ServeConnect => (&CONNECT, true),
            _ => (&MIXED, false),
        };
        let mut conn =
            if fresh { None } else { Some(daemon.connect().map_err(|e| e.to_string())?) };
        let mut records = Vec::new();
        let mut cycles = 0;
        while match until {
            Limit::Deadline(d) => cycles == 0 || Instant::now() < d,
            Limit::Cycles(n) => cycles < n,
        } {
            for (slot, &class) in pattern.iter().enumerate() {
                let key = self.next_key(ctx, class);
                self.sent += 1;
                let id = self.index as u64 * 1_000_000_000 + self.sent;
                let line = request_line(id, &key);
                let start = Instant::now();
                let exchange = (|| {
                    let mut fresh_conn;
                    let s = match conn.as_mut() {
                        Some(s) => s,
                        None => {
                            fresh_conn = daemon.connect().map_err(|e| e.to_string())?;
                            &mut fresh_conn
                        }
                    };
                    s.write_all(line.as_bytes()).map_err(|e| e.to_string())?;
                    read_reply(s)
                })();
                let end = Instant::now();
                let (first_byte, reply) = match exchange {
                    Ok((t, reply)) => (t, Some(reply)),
                    Err(e) => {
                        eprintln!("perfbench: request {id}: {e}");
                        (end, None)
                    }
                };
                records.push(Record { class, slot, key, id, start, first_byte, end, reply });
            }
            cycles += 1;
        }
        Ok(records)
    }
}

#[derive(Clone, Copy)]
enum Limit {
    Deadline(Instant),
    Cycles(usize),
}

/// Spawns the daemon and warms the hit set; returns it with the set-up
/// time (spawn until the socket answers, plus warming).
fn set_up(ctx: &Ctx, k: usize) -> Result<(Daemon, f64), String> {
    let start = Instant::now();
    let dir = ctx.work.join(format!("serve-{}-{k}", std::process::id()));
    let daemon = Daemon::spawn(&ctx.serve, &dir, true)?;
    let warm: Vec<Key> = (0..10).map(|i| warm_key(ctx, i)).collect();
    let daemon_ref = &daemon;
    let failed: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = warm
            .chunks(warm.len() / CLIENTS)
            .enumerate()
            .map(|(c, keys)| {
                s.spawn(move || -> Result<(), String> {
                    let mut conn = daemon_ref.connect().map_err(|e| e.to_string())?;
                    for (i, key) in keys.iter().enumerate() {
                        conn.write_all(request_line((c * 100 + i + 1) as u64, key).as_bytes())
                            .map_err(|e| e.to_string())?;
                        let (_, reply) = read_reply(&mut conn)?;
                        if !reply.contains("\"ok\":true") {
                            return Err(format!("warming {key:?} failed: {reply}"));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles.into_iter().filter_map(|h| h.join().expect("warm thread panicked").err()).collect()
    });
    if let Some(e) = failed.into_iter().next() {
        return Err(e);
    }
    Ok((daemon, start.elapsed().as_secs_f64()))
}

/// Runs both clients against `daemon`; returns their records and the
/// time until the last client stopped.
fn drive(ctx: &Ctx, daemon: &Daemon, clients: &mut [Client], until: Limit) -> Result<Pass, String> {
    let start = Instant::now();
    let results: Vec<Result<Vec<Record>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> =
            clients.iter_mut().map(|c| s.spawn(move || c.run(ctx, daemon, until))).collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut pass = Pass { records: Vec::new(), elapsed };
    for r in results {
        pass.records.extend(r?);
    }
    Ok(pass)
}

struct Pass {
    records: Vec<Record>,
    elapsed: f64,
}

/// Outcome counts of a checked pass.
#[derive(Default)]
struct Checked {
    failed: u64,
    hits: u64,
    reports: u64,
    overloaded: u64,
    timeouts: u64,
}

/// Checks every reply against the oracle (computed here, after the timed
/// region).
fn check(records: &[Record]) -> Result<Checked, String> {
    let want = oracles(records.iter().map(|r| r.key.clone()).collect())?;
    let mut c = Checked::default();
    for r in records {
        let ok = match r.reply.as_deref().map(Response::decode) {
            Some(Ok(Response::Report(p))) => {
                c.reports += 1;
                if p.cache == instrep_core::CacheOutcome::Hit {
                    c.hits += 1;
                }
                p.id == r.id && want.get(&r.key) == Some(&p.report)
            }
            Some(Ok(Response::Error(e))) => {
                match e.kind {
                    ErrorKind::Overloaded => c.overloaded += 1,
                    ErrorKind::Timeout => c.timeouts += 1,
                    _ => {}
                }
                false
            }
            Some(Err(_)) | None => false,
        };
        if !ok {
            eprintln!("perfbench: request {} ({}) failed the output check", r.id, r.class.name());
            c.failed += 1;
        }
    }
    Ok(c)
}

fn class_latencies(records: &[Record]) {
    for class in [Hit, Miss, Source] {
        let secs: Vec<f64> =
            records.iter().filter(|r| r.class == class).map(Record::secs).collect();
        if !secs.is_empty() {
            report_latencies(&format!("{} request", class.name()), &secs);
        }
    }
}

/// The end-to-end run: set-up samples (the last daemon is kept), then
/// the closed loop for `--seconds`, then the output check.
pub fn measure(ctx: &Ctx) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut daemon = None;
    for k in 0..if ctx.quick { 1 } else { 5 } {
        let (d, secs) = set_up(ctx, k)?;
        setups.push(secs);
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one set-up");
    let mut clients: Vec<Client> = (0..CLIENTS).map(Client::new).collect();
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let pass = drive(ctx, &daemon, &mut clients, Limit::Deadline(deadline))?;
    let rss = daemon.peak_rss_mb();
    drop(daemon);
    let checked = check(&pass.records)?;
    println!("# cache hits: {} of {} reports", checked.hits, checked.reports);
    class_latencies(&pass.records);
    let ops: Vec<f64> = pass.records.iter().map(Record::secs).collect();
    let mut slots = vec![Vec::new(); MIXED.len()];
    for r in &pass.records {
        slots[r.slot].push(r.secs());
    }
    Ok(Outcome {
        attempted: pass.records.len() as u64,
        failed: checked.failed,
        metrics: end_to_end(&ops, &slots, pass.elapsed, &setups, rss),
    })
}

/// The traced run's end-to-end pass: one cycle per client untraced, one
/// traced (a span per request: send → first byte → full reply).
pub fn traced(ctx: &Ctx, rec: &mut Recorder) -> Result<Outcome, String> {
    let (daemon, _) = set_up(ctx, 0)?;
    let mut clients: Vec<Client> = (0..CLIENTS).map(Client::new).collect();
    let plain = drive(ctx, &daemon, &mut clients, Limit::Cycles(1))?;
    let spanned = drive(ctx, &daemon, &mut clients, Limit::Cycles(1))?;
    drop(daemon);
    for r in &spanned.records {
        let lane = 1 + (r.id / 1_000_000_000) as u32;
        let first_byte_us = (r.first_byte - r.start).as_secs_f64() * 1e6;
        rec.push(Span {
            name: format!("request {} {}", r.class.name(), r.id),
            cat: "request",
            lane,
            start: r.start,
            end: r.end,
            args: vec![("id", r.id as f64), ("first_byte_us", first_byte_us)],
        });
    }
    println!(
        "# traced pass: {:.3} s untraced, {:.3} s traced ({:+.1}%; one cycle per client \
         each, so machine noise can outweigh the spans' cost)",
        plain.elapsed,
        spanned.elapsed,
        (spanned.elapsed / plain.elapsed - 1.0) * 100.0
    );
    let mut records = plain.records;
    records.extend(spanned.records);
    class_latencies(&records);
    let c = check(&records)?;
    Ok(Outcome {
        attempted: records.len() as u64,
        failed: c.failed,
        metrics: vec![
            metric("cache.hit_ratio", c.hits as f64 / c.reports.max(1) as f64, "ratio"),
            metric("serve.rejected_overload", c.overloaded as f64, "count"),
            metric("serve.timeouts", c.timeouts as f64, "count"),
        ],
    })
}

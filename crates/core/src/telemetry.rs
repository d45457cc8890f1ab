//! Live telemetry: a shared registry of named atomic counters, gauges,
//! and log-bucketed latency histograms, plus a wall-clock heartbeat
//! sampler that streams registry snapshots as JSONL while a run
//! executes.
//!
//! Everything here follows the same zero-cost-off discipline as the
//! pipeline's other probes: instrumented code holds an
//! `Option<&TelemetryRegistry>` (or a cloned handle) and does nothing
//! when none is installed, so table output stays byte-identical with
//! telemetry on or off at every `--jobs` count. Unlike the pull-based
//! metrics/span/interval layers — which materialize at phase boundaries
//! or end of run — this registry is *live*: handles are lock-free
//! atomics updated with `Relaxed` ordering from the hot paths, and a
//! background thread ([`HeartbeatSampler`]) snapshots them on a
//! wall-clock period mid-measure-loop. The pipeline adds a lane's
//! instruction count once per simulation slice, so a heartbeat's count
//! lags the run by at most one slice and a trapped job's count includes
//! every instruction it retired. `Relaxed` is sufficient because
//! every exported quantity is a single monotone atomic: per-variable
//! coherence guarantees a later read never observes a smaller value, so
//! per-lane icounts in consecutive heartbeats are non-decreasing. No
//! cross-variable snapshot atomicity is claimed (a heartbeat may catch
//! a counter mid-phase); the final snapshot is exact because the
//! sampler is only stopped after worker threads have joined.
//!
//! Three renderings share [`TELEMETRY_SCHEMA_VERSION`]:
//!
//! * JSONL heartbeats (`instrep-repro --heartbeat-out/--heartbeat-ms`)
//!   — a header line then one line per sample ([`heartbeat_json`]).
//! * Prometheus-style text exposition (`--telemetry-out`, written at
//!   exit; [`render_prometheus`]) — the future daemon's `/metrics`.
//! * A single-line live TTY progress string (`--progress`, stderr
//!   only; [`progress_line`]).

use crate::json::{JsonWriter, Layout};
use crate::metrics::ns_between;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Version of the heartbeat JSONL and Prometheus exposition documents.
/// Bump on any change to field names, meanings, or structure.
pub const TELEMETRY_SCHEMA_VERSION: u32 = 1;

/// Number of log2 histogram buckets: bucket 0 holds exactly 0, bucket
/// `i >= 1` holds values in `[2^(i-1), 2^i - 1]`, up to bucket 64 for
/// values ≥ 2^63 (including `u64::MAX`).
pub const HIST_BUCKETS: usize = 65;

/// Maps a value to its log2 bucket (see [`HIST_BUCKETS`]).
///
/// # Examples
///
/// ```
/// use instrep_core::telemetry::bucket_index;
///
/// assert_eq!(bucket_index(0), 0);
/// assert_eq!(bucket_index(1), 1);
/// assert_eq!(bucket_index(1024), 11);
/// assert_eq!(bucket_index(u64::MAX), 64);
/// ```
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Upper bound (inclusive) of bucket `i`, as a string for the
/// Prometheus `le` label: `2^i - 1`, with bucket 0 bounded at `0`.
fn bucket_le(i: usize) -> String {
    ((1u128 << i) - 1).to_string()
}

/// A monotone event counter. Cloning shares the underlying atomic;
/// increments are `Relaxed` and safe from any thread.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge. Cloning shares the underlying atomic.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the value to `v` if `v` is larger — a monotone
    /// running-maximum gauge (e.g. the deepest loop nest seen across
    /// concurrent workers), race-free under `Relaxed` because
    /// `fetch_max` is a single read-modify-write.
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Shared storage behind a [`Histogram`] handle.
#[derive(Debug)]
struct HistInner {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl HistInner {
    fn new() -> HistInner {
        HistInner {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A log2-bucketed latency histogram (see [`bucket_index`]). Cloning
/// shares the underlying storage; records are `Relaxed` and safe from
/// any thread.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistInner>,
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(v, Ordering::Relaxed);
        self.inner.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations (wraps on overflow, which nanosecond
    /// latencies cannot reach in practice).
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }
}

/// The phase a pipeline worker lane is currently executing, published
/// live through [`LaneTelemetry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum LanePhase {
    /// Between jobs (or finished).
    Idle = 0,
    /// Probing / verifying the analysis cache.
    Cache = 1,
    /// Building the simulator and observers.
    Setup = 2,
    /// Executing the skip (warm-up) window.
    Skip = 3,
    /// Executing the measured window.
    Measure = 4,
    /// Collecting results and gauges.
    Finalize = 5,
}

impl LanePhase {
    /// Lowercase phase name as exported in heartbeats and exposition.
    pub fn name(self) -> &'static str {
        match self {
            LanePhase::Idle => "idle",
            LanePhase::Cache => "cache",
            LanePhase::Setup => "setup",
            LanePhase::Skip => "skip",
            LanePhase::Measure => "measure",
            LanePhase::Finalize => "finalize",
        }
    }

    fn from_u8(v: u8) -> LanePhase {
        match v {
            1 => LanePhase::Cache,
            2 => LanePhase::Setup,
            3 => LanePhase::Skip,
            4 => LanePhase::Measure,
            5 => LanePhase::Finalize,
            _ => LanePhase::Idle,
        }
    }
}

/// Live per-worker-lane state: instruction count, jobs completed, and
/// current phase. All fields are monotone or last-value atomics, so
/// heartbeat samples of one lane never go backwards.
#[derive(Debug, Default)]
pub struct LaneTelemetry {
    lane: u32,
    icount: AtomicU64,
    jobs_done: AtomicU64,
    phase: AtomicU8,
    /// Workload label of the job the lane is running (empty when
    /// idle). The one non-atomic field: labels change once per *job*,
    /// so a mutex costs nothing on the hot path.
    label: Mutex<String>,
}

impl LaneTelemetry {
    /// Publishes the lane's current phase.
    pub fn set_phase(&self, phase: LanePhase) {
        self.phase.store(phase as u8, Ordering::Relaxed);
    }

    /// The lane's current phase.
    pub fn phase(&self) -> LanePhase {
        LanePhase::from_u8(self.phase.load(Ordering::Relaxed))
    }

    /// Adds executed instructions to the lane's live count.
    pub fn add_icount(&self, n: u64) {
        self.icount.fetch_add(n, Ordering::Relaxed);
    }

    /// Instructions executed on this lane so far (monotone).
    pub fn icount(&self) -> u64 {
        self.icount.load(Ordering::Relaxed)
    }

    /// Marks one job finished on this lane.
    pub fn job_done(&self) {
        self.jobs_done.fetch_add(1, Ordering::Relaxed);
    }

    /// Jobs finished on this lane so far.
    pub fn jobs_done(&self) -> u64 {
        self.jobs_done.load(Ordering::Relaxed)
    }

    /// Publishes the workload label the lane is currently running
    /// (clear with `""` when going idle).
    pub fn set_label(&self, label: &str) {
        label.clone_into(&mut self.label.lock().expect("lane label poisoned"));
    }

    /// The workload label the lane is currently running, or `""`.
    pub fn label(&self) -> String {
        self.label.lock().expect("lane label poisoned").clone()
    }
}

/// The telemetry handle one pipeline worker lane threads through its
/// jobs: its [`LaneTelemetry`] plus shared
/// per-phase wall-time counters (`phase_ns_*`, aggregated across
/// lanes). Built by [`TelemetryRegistry::pipeline_lane`].
#[derive(Debug, Clone)]
pub struct PipelineTelemetry {
    lane: Arc<LaneTelemetry>,
    /// Wall-time counters indexed by `LanePhase as usize - 1`
    /// (cache, setup, skip, measure, finalize).
    phase_ns: [Counter; 5],
}

impl PipelineTelemetry {
    /// The lane's live state.
    pub fn lane(&self) -> &LaneTelemetry {
        &self.lane
    }

    /// Adds one finished phase's wall time to the shared `phase_ns_*`
    /// counter ([`LanePhase::Idle`] has none and is ignored).
    pub(crate) fn add_phase_ns(&self, phase: LanePhase, ns: u64) {
        if phase != LanePhase::Idle {
            self.phase_ns[phase as usize - 1].add(ns);
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: Vec<(String, Arc<AtomicU64>)>,
    gauges: Vec<(String, Arc<AtomicU64>)>,
    hists: Vec<(String, Arc<HistInner>)>,
    lanes: Vec<Arc<LaneTelemetry>>,
}

/// A `Send + Sync` registry of named telemetry instruments. Handles
/// ([`Counter`], [`Gauge`], [`Histogram`], [`LaneTelemetry`]) are
/// interned by name: asking twice returns handles sharing one atomic.
/// Registration takes a mutex; updates through handles are lock-free.
///
/// # Examples
///
/// ```
/// use instrep_core::TelemetryRegistry;
///
/// let registry = TelemetryRegistry::new();
/// let hits = registry.counter("cache_hit");
/// hits.inc();
/// registry.counter("cache_hit").add(2); // same underlying counter
/// let snap = registry.snapshot();
/// assert_eq!(snap.counters, vec![("cache_hit".to_string(), 3)]);
/// ```
#[derive(Debug)]
pub struct TelemetryRegistry {
    start: Instant,
    inner: Mutex<Inner>,
}

impl Default for TelemetryRegistry {
    fn default() -> TelemetryRegistry {
        TelemetryRegistry::new()
    }
}

impl TelemetryRegistry {
    /// Creates an empty registry; its clock starts now.
    pub fn new() -> TelemetryRegistry {
        TelemetryRegistry { start: Instant::now(), inner: Mutex::new(Inner::default()) }
    }

    /// Nanoseconds since the registry was created.
    pub fn elapsed_ns(&self) -> u64 {
        ns_between(self.start, Instant::now())
    }

    /// Returns the counter named `name`, creating it at 0 on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().expect("telemetry registry poisoned");
        if let Some((_, a)) = inner.counters.iter().find(|(n, _)| n == name) {
            return Counter(Arc::clone(a));
        }
        let a = Arc::new(AtomicU64::new(0));
        inner.counters.push((name.to_string(), Arc::clone(&a)));
        Counter(a)
    }

    /// Returns the gauge named `name`, creating it at 0 on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock().expect("telemetry registry poisoned");
        if let Some((_, a)) = inner.gauges.iter().find(|(n, _)| n == name) {
            return Gauge(Arc::clone(a));
        }
        let a = Arc::new(AtomicU64::new(0));
        inner.gauges.push((name.to_string(), Arc::clone(&a)));
        Gauge(a)
    }

    /// Returns the histogram named `name`, creating it empty on first
    /// use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut inner = self.inner.lock().expect("telemetry registry poisoned");
        if let Some((_, h)) = inner.hists.iter().find(|(n, _)| n == name) {
            return Histogram { inner: Arc::clone(h) };
        }
        let h = Arc::new(HistInner::new());
        inner.hists.push((name.to_string(), Arc::clone(&h)));
        Histogram { inner: h }
    }

    /// Returns lane `index`'s live state, creating lanes 0..=index on
    /// first use.
    pub fn lane(&self, index: usize) -> Arc<LaneTelemetry> {
        let mut inner = self.inner.lock().expect("telemetry registry poisoned");
        while inner.lanes.len() <= index {
            let lane = inner.lanes.len() as u32;
            inner.lanes.push(Arc::new(LaneTelemetry { lane, ..LaneTelemetry::default() }));
        }
        Arc::clone(&inner.lanes[index])
    }

    /// Builds the per-lane pipeline handle for worker `index`: its
    /// [`LaneTelemetry`] plus the shared `phase_ns_*` counters.
    pub fn pipeline_lane(&self, index: usize) -> PipelineTelemetry {
        PipelineTelemetry {
            lane: self.lane(index),
            phase_ns: [
                self.counter("phase_ns_cache"),
                self.counter("phase_ns_setup"),
                self.counter("phase_ns_skip"),
                self.counter("phase_ns_measure"),
                self.counter("phase_ns_finalize"),
            ],
        }
    }

    /// Reads every instrument into a point-in-time [`TelemetrySnapshot`]
    /// (counters/gauges/histograms name-sorted for deterministic
    /// rendering; lanes in lane order).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let elapsed_ns = self.elapsed_ns();
        let inner = self.inner.lock().expect("telemetry registry poisoned");
        let mut counters: Vec<(String, u64)> =
            inner.counters.iter().map(|(n, a)| (n.clone(), a.load(Ordering::Relaxed))).collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        let mut gauges: Vec<(String, u64)> =
            inner.gauges.iter().map(|(n, a)| (n.clone(), a.load(Ordering::Relaxed))).collect();
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        let mut hists: Vec<(String, HistSnapshot)> = inner
            .hists
            .iter()
            .map(|(n, h)| {
                (
                    n.clone(),
                    HistSnapshot {
                        count: h.count.load(Ordering::Relaxed),
                        sum: h.sum.load(Ordering::Relaxed),
                        buckets: std::array::from_fn(|i| h.buckets[i].load(Ordering::Relaxed)),
                    },
                )
            })
            .collect();
        hists.sort_by(|a, b| a.0.cmp(&b.0));
        let lanes = inner
            .lanes
            .iter()
            .map(|l| LaneSnapshot {
                lane: l.lane,
                icount: l.icount(),
                jobs_done: l.jobs_done(),
                phase: l.phase(),
                label: l.label(),
            })
            .collect();
        TelemetrySnapshot { elapsed_ns, counters, gauges, hists, lanes }
    }
}

/// Point-in-time values of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Per-bucket observation counts (see [`bucket_index`]).
    pub buckets: [u64; HIST_BUCKETS],
}

/// Point-in-time state of one worker lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneSnapshot {
    /// Lane (worker) index.
    pub lane: u32,
    /// Instructions executed so far.
    pub icount: u64,
    /// Jobs finished so far.
    pub jobs_done: u64,
    /// Phase the lane was in when sampled.
    pub phase: LanePhase,
    /// Workload the lane was running when sampled (`""` when idle).
    pub label: String,
}

/// A point-in-time copy of every instrument in a
/// [`TelemetryRegistry`], produced by
/// [`TelemetryRegistry::snapshot`]. Individual values are exact reads
/// of monotone atomics; no atomicity across values is claimed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Registry age when sampled, in nanoseconds.
    pub elapsed_ns: u64,
    /// Counters, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Gauges, name-sorted.
    pub gauges: Vec<(String, u64)>,
    /// Histograms, name-sorted.
    pub hists: Vec<(String, HistSnapshot)>,
    /// Lanes, in lane order.
    pub lanes: Vec<LaneSnapshot>,
}

/// Renders a snapshot as Prometheus-style text exposition: `# TYPE`
/// comments, `instrep_`-prefixed sample lines, cumulative `le`-labelled
/// histogram buckets. Deterministic for a fixed snapshot.
pub fn render_prometheus(snap: &TelemetrySnapshot) -> String {
    let mut s = String::with_capacity(2048);
    s.push_str(&format!(
        "# instrep telemetry exposition (schema_version {TELEMETRY_SCHEMA_VERSION})\n"
    ));
    s.push_str(&format!("# elapsed_ns {}\n", snap.elapsed_ns));
    for (name, v) in &snap.counters {
        s.push_str(&format!("# TYPE instrep_{name} counter\ninstrep_{name} {v}\n"));
    }
    for (name, v) in &snap.gauges {
        s.push_str(&format!("# TYPE instrep_{name} gauge\ninstrep_{name} {v}\n"));
    }
    for (name, h) in &snap.hists {
        s.push_str(&format!("# TYPE instrep_{name} histogram\n"));
        let top = h.buckets.iter().rposition(|&b| b > 0).unwrap_or(0);
        let mut cum = 0u64;
        for (i, &b) in h.buckets.iter().enumerate().take(top + 1) {
            cum += b;
            s.push_str(&format!("instrep_{name}_bucket{{le=\"{}\"}} {cum}\n", bucket_le(i)));
        }
        s.push_str(&format!("instrep_{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
        s.push_str(&format!("instrep_{name}_sum {}\n", h.sum));
        s.push_str(&format!("instrep_{name}_count {}\n", h.count));
    }
    for l in &snap.lanes {
        s.push_str(&format!(
            "instrep_lane_icount{{lane=\"{}\"}} {}\n\
             instrep_lane_jobs_done{{lane=\"{}\"}} {}\n\
             instrep_lane_phase{{lane=\"{}\",phase=\"{}\"}} 1\n",
            l.lane,
            l.icount,
            l.lane,
            l.jobs_done,
            l.lane,
            l.phase.name(),
        ));
    }
    s
}

/// The heartbeat stream's header line (JSONL line 1).
pub fn heartbeat_header_json(period_ms: u64) -> String {
    let mut w = JsonWriter::new(Layout::Line, 64);
    w.row(|w| {
        w.key("schema_version").uint(TELEMETRY_SCHEMA_VERSION.into());
        w.key("kind").str("heartbeats");
        w.key("period_ms").uint(period_ms);
    });
    w.finish()
}

/// Renders one heartbeat JSONL line from a snapshot. `prev` (the
/// previous heartbeat's snapshot) supplies the baseline for per-lane
/// events/s; without one the rates are 0.
pub fn heartbeat_json(
    seq: u64,
    snap: &TelemetrySnapshot,
    prev: Option<&TelemetrySnapshot>,
) -> String {
    let mut w = JsonWriter::new(Layout::Line, 512);
    w.row(|w| {
        w.key("kind").str("heartbeat");
        w.key("seq").uint(seq);
        w.key("elapsed_ms").f3(snap.elapsed_ns as f64 / 1e6);
        for (key, values) in [("counters", &snap.counters), ("gauges", &snap.gauges)] {
            w.key(key).object(|w| {
                for (name, v) in values {
                    w.key(name).uint(*v);
                }
            });
        }
        w.key("hists").object(|w| {
            for (name, h) in &snap.hists {
                w.key(name).object(|w| {
                    w.key("count").uint(h.count);
                    w.key("sum").uint(h.sum);
                });
            }
        });
        w.key("lanes").array(|w| {
            for l in &snap.lanes {
                w.object(|w| {
                    w.key("lane").uint(l.lane.into());
                    w.key("icount").uint(l.icount);
                    w.key("events_per_sec").f3(lane_rate(l, snap, prev));
                    w.key("phase").str(l.phase.name());
                    w.key("workload").str(&l.label);
                    w.key("jobs_done").uint(l.jobs_done);
                });
            }
        });
    });
    w.finish()
}

/// Per-lane events/s between `prev` and `snap` (0 without a baseline
/// or elapsed time).
fn lane_rate(l: &LaneSnapshot, snap: &TelemetrySnapshot, prev: Option<&TelemetrySnapshot>) -> f64 {
    let Some(prev) = prev else { return 0.0 };
    let Some(pl) = prev.lanes.iter().find(|p| p.lane == l.lane) else { return 0.0 };
    let dt_ns = snap.elapsed_ns.saturating_sub(prev.elapsed_ns);
    if dt_ns == 0 {
        return 0.0;
    }
    l.icount.saturating_sub(pl.icount) as f64 / (dt_ns as f64 / 1e9)
}

/// The single-line live progress string (`--progress`): totals across
/// all lanes plus the per-lane rate sum from the last heartbeat,
/// followed by each lane's phase and current workload — so a long
/// ten-family run shows *what* is executing, not just that something
/// is.
pub fn progress_line(snap: &TelemetrySnapshot, prev: Option<&TelemetrySnapshot>) -> String {
    let jobs: u64 = snap.lanes.iter().map(|l| l.jobs_done).sum();
    let icount: u64 = snap.lanes.iter().map(|l| l.icount).sum();
    let rate: f64 = snap.lanes.iter().map(|l| lane_rate(l, snap, prev)).sum();
    let mut s = format!("telemetry: {jobs} job(s) done, {icount} events, {rate:.0} events/s");
    for l in &snap.lanes {
        s.push_str(&format!(" | lane{} {}", l.lane, l.phase.name()));
        if !l.label.is_empty() {
            s.push(' ');
            s.push_str(&l.label);
        }
    }
    s
}

/// Configuration for [`HeartbeatSampler::start`].
#[derive(Debug, Clone)]
pub struct HeartbeatConfig {
    /// JSONL destination; `None` streams no file (progress only).
    pub out: Option<PathBuf>,
    /// Wall-clock sampling period.
    pub period: Duration,
    /// Render a live single-line progress string to stderr each beat.
    pub progress: bool,
}

/// A background thread that snapshots a [`TelemetryRegistry`] on a
/// wall-clock period, streaming JSONL heartbeats and/or a live stderr
/// progress line. One final beat is always emitted on [`stop`]
/// (after workers have joined, so it reads their final counts), which
/// guarantees at least one heartbeat line even for runs shorter than
/// the period.
///
/// [`stop`]: HeartbeatSampler::stop
#[derive(Debug)]
pub struct HeartbeatSampler {
    /// Dropped to stop: the thread blocks in `recv_timeout` on the
    /// other end, and the disconnect wakes it for its final beat.
    stop: Option<mpsc::Sender<()>>,
    handle: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl HeartbeatSampler {
    /// Opens the output (writing the header line eagerly so I/O errors
    /// surface here, not in the thread) and starts sampling.
    ///
    /// # Errors
    ///
    /// Returns the error from creating or writing the output file.
    pub fn start(
        registry: Arc<TelemetryRegistry>,
        cfg: HeartbeatConfig,
    ) -> std::io::Result<HeartbeatSampler> {
        let mut file = match &cfg.out {
            Some(path) => {
                let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
                writeln!(f, "{}", heartbeat_header_json(cfg.period.as_millis() as u64))?;
                f.flush()?;
                Some(f)
            }
            None => None,
        };
        let (stop, stopped) = mpsc::channel::<()>();
        let handle = std::thread::Builder::new()
            .name("instrep-heartbeat".to_string())
            .spawn(move || -> std::io::Result<()> {
                let mut seq = 0u64;
                let mut prev: Option<TelemetrySnapshot> = None;
                loop {
                    // Nothing is sent: a period passes, or the sender is
                    // dropped and this is the final beat.
                    let stopping =
                        !matches!(stopped.recv_timeout(cfg.period), Err(RecvTimeoutError::Timeout));
                    seq += 1;
                    let snap = registry.snapshot();
                    if let Some(f) = file.as_mut() {
                        writeln!(f, "{}", heartbeat_json(seq, &snap, prev.as_ref()))?;
                        f.flush()?;
                    }
                    if cfg.progress {
                        eprint!("\r{}\x1b[K", progress_line(&snap, prev.as_ref()));
                    }
                    prev = Some(snap);
                    if stopping {
                        break;
                    }
                }
                if cfg.progress {
                    // Clear the progress line so exit-time eprintln
                    // notices start on a clean line.
                    eprint!("\r\x1b[K");
                }
                Ok(())
            })
            .expect("spawning heartbeat thread");
        Ok(HeartbeatSampler { stop: Some(stop), handle: Some(handle) })
    }

    /// Signals the thread, waits for its final beat, and surfaces any
    /// I/O error it hit.
    ///
    /// # Errors
    ///
    /// Returns the thread's deferred write error, or a synthetic error
    /// if it panicked.
    pub fn stop(mut self) -> std::io::Result<()> {
        self.stop = None;
        match self.handle.take().expect("heartbeat sampler already stopped").join() {
            Ok(r) => r,
            Err(_) => Err(std::io::Error::other("heartbeat thread panicked")),
        }
    }
}

impl Drop for HeartbeatSampler {
    fn drop(&mut self) {
        // Defensive: if `stop()` was never called (early error-exit
        // paths), still signal and join so the file is flushed and the
        // progress line cleared.
        if let Some(handle) = self.handle.take() {
            self.stop = None;
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        for k in 0..64 {
            assert_eq!(bucket_index(1u64 << k), k as usize + 1, "2^{k}");
            if k > 0 {
                assert_eq!(bucket_index((1u64 << k) - 1), k as usize, "2^{k}-1");
            }
        }
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_le(0), "0");
        assert_eq!(bucket_le(1), "1");
        assert_eq!(bucket_le(11), "2047");
        assert_eq!(bucket_le(64), u64::MAX.to_string());
    }

    #[test]
    fn concurrent_updates_sum_exactly() {
        let registry = TelemetryRegistry::new();
        let c = registry.counter("c");
        let h = registry.histogram("h");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = c.clone();
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..10_000u64 {
                        c.inc();
                        h.record(i % 100);
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
        assert_eq!(h.count(), 80_000);
        // Each thread records 0..100 repeated 100 times: sum = 8 * 100 * (99*100/2).
        assert_eq!(h.sum(), 8 * 100 * (99 * 100 / 2));
        let snap = registry.snapshot();
        let (_, hs) = &snap.hists[0];
        assert_eq!(hs.buckets.iter().sum::<u64>(), 80_000);
    }

    #[test]
    fn snapshot_while_updating_is_monotone() {
        let registry = TelemetryRegistry::new();
        let c = registry.counter("events");
        let lane = registry.lane(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for _ in 0..50_000 {
                    c.inc();
                    lane.add_icount(1);
                }
            });
            let mut last_counter = 0;
            let mut last_icount = 0;
            for _ in 0..100 {
                let snap = registry.snapshot();
                let v = snap.counters[0].1;
                let i = snap.lanes[0].icount;
                assert!(v >= last_counter, "counter went backwards: {v} < {last_counter}");
                assert!(i >= last_icount, "icount went backwards: {i} < {last_icount}");
                last_counter = v;
                last_icount = i;
            }
        });
        // After the writer joins, the final snapshot is exact.
        let snap = registry.snapshot();
        assert_eq!(snap.counters[0].1, 50_000);
        assert_eq!(snap.lanes[0].icount, 50_000);
    }

    #[test]
    fn registry_interns_handles_by_name() {
        let registry = TelemetryRegistry::new();
        registry.counter("a").inc();
        registry.counter("a").inc();
        registry.counter("b").inc();
        registry.gauge("g").set(7);
        registry.gauge("g").set(9);
        registry.histogram("h").record(3);
        registry.histogram("h").record(5);
        let snap = registry.snapshot();
        assert_eq!(snap.counters, vec![("a".to_string(), 2), ("b".to_string(), 1)]);
        assert_eq!(snap.gauges, vec![("g".to_string(), 9)]);
        assert_eq!(snap.hists.len(), 1);
        assert_eq!(snap.hists[0].1.count, 2);
        assert_eq!(snap.hists[0].1.sum, 8);
    }

    #[test]
    fn pipeline_lane_phases_and_timing() {
        let registry = TelemetryRegistry::new();
        let tel = registry.pipeline_lane(0);
        assert_eq!(tel.lane().phase(), LanePhase::Idle);
        tel.lane().set_phase(LanePhase::Measure);
        assert_eq!(tel.lane().phase(), LanePhase::Measure);
        tel.add_phase_ns(LanePhase::Measure, 1_500);
        tel.add_phase_ns(LanePhase::Idle, 7);
        tel.lane().set_phase(LanePhase::Idle);
        let snap = registry.snapshot();
        let counter = |snap: &TelemetrySnapshot, name: &str| {
            snap.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
        };
        assert_eq!(counter(&snap, "phase_ns_measure"), Some(1_500));
        assert_eq!(snap.lanes[0].phase, LanePhase::Idle);
        // Both lanes share the phase counters: interning by name.
        let tel2 = registry.pipeline_lane(1);
        tel2.add_phase_ns(LanePhase::Measure, 500);
        let snap = registry.snapshot();
        assert_eq!(snap.lanes.len(), 2);
        assert_eq!(counter(&snap, "phase_ns_measure"), Some(2_000));
    }

    #[test]
    fn prometheus_rendering_buckets_are_cumulative() {
        let registry = TelemetryRegistry::new();
        let h = registry.histogram("lat");
        h.record(0);
        h.record(1);
        h.record(2);
        registry.counter("hits").add(5);
        registry.gauge("depth").set(3);
        registry.lane(0).add_icount(10);
        let text = render_prometheus(&registry.snapshot());
        assert!(text.contains("# TYPE instrep_hits counter\ninstrep_hits 5\n"));
        assert!(text.contains("# TYPE instrep_depth gauge\ninstrep_depth 3\n"));
        assert!(text.contains("instrep_lat_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("instrep_lat_bucket{le=\"1\"} 2\n"));
        assert!(text.contains("instrep_lat_bucket{le=\"3\"} 3\n"));
        assert!(text.contains("instrep_lat_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("instrep_lat_sum 3\n"));
        assert!(text.contains("instrep_lat_count 3\n"));
        // No buckets beyond the highest nonzero one (before +Inf).
        assert!(!text.contains("le=\"7\""));
        assert!(text.contains("instrep_lane_icount{lane=\"0\"} 10\n"));
        assert!(text.contains("instrep_lane_phase{lane=\"0\",phase=\"idle\"} 1\n"));
    }

    #[test]
    fn lane_rates_and_progress_line() {
        let registry = TelemetryRegistry::new();
        registry.counter("cache_hit").inc();
        registry.lane(0).add_icount(1000);
        let first = registry.snapshot();
        registry.lane(0).add_icount(1000);
        std::thread::sleep(Duration::from_millis(2));
        let second = registry.snapshot();
        assert_eq!(lane_rate(&second.lanes[0], &second, None), 0.0);
        // 1000 more events over ≥2ms elapsed: a positive, finite rate.
        let rate = lane_rate(&second.lanes[0], &second, Some(&first));
        assert!(rate > 0.0 && rate.is_finite());
        assert_eq!(
            progress_line(&first, None),
            "telemetry: 0 job(s) done, 1000 events, 0 events/s | lane0 idle"
        );
        // With a label published, the progress line names the workload
        // next to the phase.
        registry.lane(0).set_phase(LanePhase::Measure);
        registry.lane(0).set_label("compress");
        let labeled = registry.snapshot();
        assert!(progress_line(&labeled, None).ends_with(" | lane0 measure compress"));
        registry.lane(0).set_label("");
        assert_eq!(registry.snapshot().lanes[0].label, "");
    }

    #[test]
    fn gauge_set_max_is_monotone() {
        let registry = TelemetryRegistry::new();
        let g = registry.gauge("depth");
        g.set_max(3);
        g.set_max(1);
        assert_eq!(g.get(), 3);
        g.set_max(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn sampler_streams_header_and_beats() {
        let dir = std::env::temp_dir().join(format!("instrep-telemetry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hb.jsonl");
        let registry = Arc::new(TelemetryRegistry::new());
        registry.counter("ticks").add(3);
        let sampler = HeartbeatSampler::start(
            Arc::clone(&registry),
            HeartbeatConfig {
                out: Some(path.clone()),
                period: Duration::from_millis(5),
                progress: false,
            },
        )
        .unwrap();
        std::thread::sleep(Duration::from_millis(30));
        sampler.stop().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines = text.lines();
        let header = lines.next().unwrap();
        assert!(header.contains("\"kind\": \"heartbeats\""));
        assert!(header.contains("\"schema_version\": 1"));
        assert!(header.contains("\"period_ms\": 5"));
        let beats: Vec<&str> = lines.collect();
        assert!(!beats.is_empty());
        assert!(beats.iter().all(|l| l.contains("\"kind\": \"heartbeat\"")));
        assert!(beats.last().unwrap().contains("\"ticks\": 3"));
        std::fs::remove_dir_all(&dir).ok();
    }
}

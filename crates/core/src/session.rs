//! The unified analysis entry point: a builder that owns the probe
//! bundle and the cache client.
//!
//! Four PRs of probe growth left `core::pipeline` with six parallel
//! `analyze*` functions, each new feature threading one more parameter
//! through all of them. [`Session`] replaces that surface: configure
//! once, attach whichever observers you want, then [`Session::run`] a
//! batch (or [`Session::run_one`] a single workload). The old functions
//! served their one release as `#[deprecated]` shims and are gone.
//!
//! A configured `Session` is `Send` (pinned by the compile-time
//! assertions in `tests/send_clean.rs`): every borrowed observer is
//! either exclusively owned (`&mut SpanTracer`) or `Sync`
//! ([`AnalysisCache`], [`TelemetryRegistry`]), so a worker pool — the
//! `instrep-serve` daemon — can move per-request sessions freely
//! across threads while sharing one cache and one registry.
//!
//! ```
//! use instrep_core::{AnalysisConfig, AnalysisJob, Session, SpanTracer};
//!
//! let image = instrep_minicc::build(
//!     "int main() { int i; int s = 0; for (i = 0; i < 300; i++) s += i & 7; return s & 0xff; }",
//! )?;
//! let mut tracer = SpanTracer::new();
//! let results = Session::new(AnalysisConfig::default())
//!     .jobs(2)
//!     .metrics(true)
//!     .interval(1000)
//!     .profile(true)
//!     .trace(&mut tracer)
//!     .run(vec![
//!         AnalysisJob { image: &image, input: Vec::new(), label: "a" },
//!         AnalysisJob { image: &image, input: Vec::new(), label: "b" },
//!     ]);
//! for r in results {
//!     let ir = r?;
//!     assert!(ir.report.dynamic_total > 300);
//!     assert!(ir.metrics.is_some() && ir.intervals.is_some() && ir.profile.is_some());
//! }
//! assert_eq!(tracer.spans().iter().filter(|s| s.cat == "workload").count(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Caching
//!
//! Attaching an [`AnalysisCache`] makes the session memoize whole
//! workloads: before simulating a job it derives the job's
//! [`CacheKey`](crate::CacheKey) and, on a hit, returns the stored
//! report without executing a single instruction (the job's metrics
//! then contain one `"cache"` phase and nothing else). Misses run
//! normally and populate the cache. [`Session::cache_verify`] turns
//! hits into recompute-and-compare runs — the poisoned-cache detector.
//!
//! Interval sampling and profiling *bypass* the cache (outcome
//! [`CacheOutcome::Uncached`]): entries store only the report, and a
//! hit that silently dropped the requested time series or profile
//! would be worse than a recomputation.

use instrep_asm::Image;
use instrep_sim::{InterpTier, SimError};

use crate::cache::{encode_report, AnalysisCache, CacheKey};
use crate::interval::IntervalSampler;
use crate::loops::LoopProfiler;
use crate::metrics::{PhaseTimer, WorkloadMetrics};
use crate::pipeline::{
    parallel_map_indexed, run_probed, AnalysisConfig, AnalysisJob, InstrumentedReport, Probes,
};
use crate::profile::InstructionProfile;
use crate::telemetry::{LanePhase, PipelineTelemetry, TelemetryRegistry};
use crate::trace_span::{SpanLane, SpanTracer};

/// How the analysis cache participated in producing one job's report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// No cache attached, or the probe set bypassed it (see the module
    /// docs).
    Uncached,
    /// Cache attached, no usable entry: the job ran and stored one.
    Miss,
    /// Entry found and returned without running the simulator.
    Hit,
    /// Verify mode: entry found, job recomputed, results identical.
    VerifyOk,
    /// Verify mode: entry found but it does **not** match the
    /// recomputation — the cache is poisoned or stale. The report
    /// returned is the fresh one.
    VerifyMismatch,
}

/// Builder for one batch of workload analyses — the crate's single
/// entry point (see the module docs for an example).
///
/// Builder methods consume and return the session, so a configured run
/// is one expression. The lifetime `'t` ties borrowed observers (the
/// span tracer, the cache) to the session; everything else is owned.
#[derive(Debug)]
pub struct Session<'t> {
    cfg: AnalysisConfig,
    threads: usize,
    metrics: bool,
    interval: Option<u64>,
    profile: bool,
    loops: bool,
    tracer: Option<&'t mut SpanTracer>,
    cache: Option<&'t AnalysisCache>,
    telemetry: Option<&'t TelemetryRegistry>,
    verify: bool,
    tier: InterpTier,
}

/// The analysis implementation a [`Session`] runs. There is one: the
/// seven observers of `core::pipeline`.
///
/// Kept only because `benchmark/` still names it; it goes with the next
/// change to the benchmark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AnalysisTier {
    /// The seven observers (the only tier).
    #[default]
    Split,
}

impl<'t> Session<'t> {
    /// A session with no probes, no cache, and one worker thread.
    pub fn new(cfg: AnalysisConfig) -> Session<'t> {
        Session {
            cfg,
            threads: 1,
            metrics: false,
            interval: None,
            profile: false,
            loops: false,
            tracer: None,
            cache: None,
            telemetry: None,
            verify: false,
            tier: InterpTier::default(),
        }
    }

    /// Interpreter tier driving the simulation ([`InterpTier::default`]
    /// unless overridden). Tiers produce byte-identical event streams,
    /// so reports — and [cache](Session::cache) keys — never depend on
    /// this choice: an entry stored under one tier is served under the
    /// other.
    pub fn interp(mut self, tier: InterpTier) -> Session<'t> {
        self.tier = tier;
        self
    }

    /// Selects the analysis tier: a no-op, as [`AnalysisTier`] has one
    /// variant.
    ///
    /// Kept only because `benchmark/` still calls it; it goes with the
    /// next change to the benchmark.
    pub fn analysis(self, _tier: AnalysisTier) -> Session<'t> {
        self
    }

    /// Worker threads for [`Session::run`], clamped to `[1, jobs]` at
    /// run time. Pass [`crate::default_parallelism`] for "use the
    /// machine". Results are bit-identical for every value, including 1.
    pub fn jobs(mut self, threads: usize) -> Session<'t> {
        self.threads = threads;
        self
    }

    /// Collect a [`WorkloadMetrics`] per job (phase timers, throughput,
    /// occupancy gauges).
    pub fn metrics(mut self, on: bool) -> Session<'t> {
        self.metrics = on;
        self
    }

    /// Sample an interval time series per job, closing a window every
    /// `insns` measured instructions. Bypasses the cache.
    pub fn interval(mut self, insns: u64) -> Session<'t> {
        self.interval = Some(insns);
        self
    }

    /// Fill an [`InstructionProfile`] per job (per-PC attribution).
    /// Bypasses the cache.
    pub fn profile(mut self, on: bool) -> Session<'t> {
        self.profile = on;
        self
    }

    /// Fill a [`LoopNestProfile`](crate::LoopNestProfile) per job —
    /// dynamic loop detection from back edges with exec/repeated
    /// attribution per loop nest. Bypasses the cache.
    pub fn loops(mut self, on: bool) -> Session<'t> {
        self.loops = on;
        self
    }

    /// Record span traces into `tracer`: one lane per worker thread
    /// (lane `1 + worker index`; lane 0 is the driver's), one
    /// `"workload"` span per job wrapping the pipeline's `"phase"`
    /// spans. Lanes are merged into the tracer in job order.
    pub fn trace(mut self, tracer: &'t mut SpanTracer) -> Session<'t> {
        self.tracer = Some(tracer);
        self
    }

    /// Memoize whole-workload results in `cache` (see the module docs
    /// for hit/miss/bypass semantics).
    pub fn cache(mut self, cache: &'t AnalysisCache) -> Session<'t> {
        self.cache = Some(cache);
        self
    }

    /// Publish live telemetry into `registry`: per-worker-lane icount
    /// and phase ([`crate::telemetry::LaneTelemetry`]), shared
    /// `phase_ns_*` wall-time counters, `session_*` run counters, and
    /// `cache_verify_*` outcomes. Updates are relaxed atomics read
    /// concurrently by the wall-clock heartbeat sampler; like every
    /// probe, attaching a registry cannot perturb the reports.
    pub fn telemetry(mut self, registry: &'t TelemetryRegistry) -> Session<'t> {
        self.telemetry = Some(registry);
        self
    }

    /// On a cache hit, recompute anyway and compare — reporting
    /// [`CacheOutcome::VerifyOk`] or [`CacheOutcome::VerifyMismatch`]
    /// instead of skipping the run. No effect without
    /// [`Session::cache`].
    pub fn cache_verify(mut self, on: bool) -> Session<'t> {
        self.verify = on;
        self
    }

    /// Runs every job, returning results **in job order** regardless of
    /// scheduling. Reports are byte-identical to an unprobed, uncached
    /// run for every thread count — probes observe, the cache memoizes,
    /// neither perturbs.
    ///
    /// # Errors
    ///
    /// Each slot carries its own simulator outcome; one trapped
    /// workload does not poison the others.
    pub fn run(self, jobs: Vec<AnalysisJob<'_>>) -> Vec<Result<InstrumentedReport, SimError>> {
        let Session {
            cfg,
            threads,
            metrics,
            interval,
            profile,
            loops,
            mut tracer,
            cache,
            telemetry,
            verify,
            tier,
        } = self;
        // Entries store only the report; serving a hit that silently
        // dropped a requested time series or profile would be wrong, so
        // those probe sets bypass the cache entirely.
        let cache = if interval.is_some() || profile || loops { None } else { cache };
        let epoch = tracer.as_ref().map(|t| t.epoch());

        // Telemetry handles, interned up front (one mutex pass): one
        // lane per worker the pool will actually spawn, plus the shared
        // session counters. The worker closure only touches atomics.
        let lane_count = threads.clamp(1, jobs.len().max(1));
        let lanes: Vec<PipelineTelemetry> = telemetry
            .map(|r| (0..lane_count).map(|w| r.pipeline_lane(w)).collect())
            .unwrap_or_default();
        let runs_started = telemetry.map(|r| r.counter("session_runs_started"));
        let runs_finished = telemetry.map(|r| r.counter("session_runs_finished"));
        let verify_ok = telemetry.map(|r| r.counter("cache_verify_ok"));
        let verify_mismatch = telemetry.map(|r| r.counter("cache_verify_mismatch"));
        // Loop-profiler instruments, registered only when the probe is
        // on so an off run leaves no zero-valued ghosts in expositions.
        let loop_tel = telemetry.filter(|_| loops).map(|r| {
            (
                r.counter("loops_discovered"),
                r.counter("loops_back_edges"),
                r.counter("loops_irregular"),
                r.gauge("loops_max_depth"),
            )
        });
        if let Some(r) = telemetry {
            r.counter("session_jobs_submitted").add(jobs.len() as u64);
        }

        let results = parallel_map_indexed(jobs, threads, |worker, job| {
            let tel = lanes.get(worker);
            if let Some(c) = &runs_started {
                c.inc();
            }
            let mut m = metrics.then(WorkloadMetrics::default);
            let mut lane = epoch.map(|e| SpanLane::new(worker as u32 + 1, e));
            let label = job.label.to_string();
            if let Some(t) = tel {
                t.lane().set_label(&label);
            }
            let job_span = lane.as_mut().map(|l| l.begin());

            // Cache lookup, timed as its own pipeline phase.
            let mut key = None;
            let mut cached = None;
            if let Some(cache) = cache {
                let timer = m.as_ref().map(|_| PhaseTimer::start());
                let span = lane.as_mut().map(|l| l.begin());
                let lt = tel.map(|t| t.begin(LanePhase::Cache));
                let k = CacheKey::derive(job.image, &job.input, &cfg);
                cached = cache.load(&k);
                key = Some(k);
                if let Some(m) = m.as_mut() {
                    m.record_phase("cache", timer.expect("timer started with metrics"), 0);
                }
                if let Some(l) = lane.as_mut() {
                    l.end(span.expect("span opened with lane"), "cache", "phase", 0);
                }
                if let Some(t) = tel {
                    t.end(LanePhase::Cache, lt.expect("telemetry timer started"));
                }
            }

            if let Some(report) = cached.take_if(|_| !verify) {
                // Pure hit: the stored report stands in for the whole
                // simulation — zero instructions execute.
                if let Some(l) = lane.as_mut() {
                    l.end(job_span.expect("span opened with lane"), label, "workload", 0);
                }
                if let Some(t) = tel {
                    t.lane().job_done();
                    t.lane().set_phase(LanePhase::Idle);
                    t.lane().set_label("");
                }
                if let Some(c) = &runs_finished {
                    c.inc();
                }
                let instrumented = InstrumentedReport {
                    report,
                    metrics: m,
                    intervals: None,
                    profile: None,
                    loops: None,
                    cache: CacheOutcome::Hit,
                };
                return (Ok(instrumented), lane.map(SpanLane::into_spans));
            }

            let mut sampler = interval.map(IntervalSampler::new);
            let mut prof = profile.then(InstructionProfile::default);
            let mut lp = loops.then(|| LoopProfiler::new(job.image.text.len()));
            let result = run_probed(
                job.image,
                job.input,
                &cfg,
                tier,
                Probes {
                    metrics: m.as_mut(),
                    spans: lane.as_mut(),
                    sampler: sampler.as_mut(),
                    profile: prof.as_mut(),
                    telemetry: tel,
                    loops: lp.as_mut(),
                },
            );
            if let (Some((discovered, back_edges, irregular, max_depth)), Some(p)) =
                (&loop_tel, &lp)
            {
                discovered.add(p.loops_discovered());
                back_edges.add(p.back_edges());
                irregular.add(p.irregular());
                max_depth.set_max(u64::from(p.max_depth()));
            }

            let mut outcome = CacheOutcome::Uncached;
            if let (Some(cache), Some(key), Ok(report)) = (cache, key.as_ref(), &result) {
                outcome = match cached {
                    // Verified hit: canonical encodings are equal iff
                    // every report field is.
                    Some(prior) if encode_report(&prior) == encode_report(report) => {
                        if let Some(c) = &verify_ok {
                            c.inc();
                        }
                        CacheOutcome::VerifyOk
                    }
                    Some(_) => {
                        if let Some(c) = &verify_mismatch {
                            c.inc();
                        }
                        CacheOutcome::VerifyMismatch
                    }
                    None => {
                        // Best-effort store: a full disk costs us the
                        // memoization, not the run.
                        let _ = cache.store(key, report);
                        CacheOutcome::Miss
                    }
                };
            }

            if let (Some(l), Ok(_)) = (lane.as_mut(), &result) {
                l.end(job_span.expect("span opened with lane"), label, "workload", 0);
            }
            if let Some(t) = tel {
                t.lane().job_done();
                t.lane().set_phase(LanePhase::Idle);
                t.lane().set_label("");
            }
            if let (Some(c), Ok(_)) = (&runs_finished, &result) {
                c.inc();
            }
            let spans = lane.map(SpanLane::into_spans);
            let instrumented = result.map(|report| InstrumentedReport {
                report,
                metrics: m,
                intervals: sampler.map(IntervalSampler::into_windows),
                profile: prof,
                loops: lp.map(LoopProfiler::finish),
                cache: outcome,
            });
            (instrumented, spans)
        });

        results
            .into_iter()
            .map(|(r, spans)| {
                if let (Some(t), Some(spans)) = (tracer.as_deref_mut(), spans) {
                    t.extend(spans);
                }
                r
            })
            .collect()
    }

    /// Runs a single workload — [`Session::run`] with one unlabeled
    /// job.
    ///
    /// # Errors
    ///
    /// Propagates simulator traps ([`SimError`]); a trap indicates a
    /// workload or compiler bug, not a property of the analyses.
    pub fn run_one(self, image: &Image, input: Vec<u8>) -> Result<InstrumentedReport, SimError> {
        self.run(vec![AnalysisJob { image, input, label: "" }])
            .pop()
            .expect("one job in, one result out")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instrep_minicc::build;
    use std::path::PathBuf;

    fn small_image() -> Image {
        build(
            r#"
            int tab[16] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
            int lookup(int i) { return tab[i & 15]; }
            int main() {
                int s = 0;
                int i;
                for (i = 0; i < 500; i++) s += lookup(i & 7);
                return s & 0xff;
            }
            "#,
        )
        .unwrap()
    }

    fn tmp_cache(tag: &str) -> (PathBuf, AnalysisCache) {
        let dir =
            std::env::temp_dir().join(format!("instrep-session-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cache = AnalysisCache::open(&dir).unwrap();
        (dir, cache)
    }

    #[test]
    fn session_matches_direct_pipeline_at_every_thread_count() {
        let image = small_image();
        let cfg = AnalysisConfig::default();
        let direct = {
            let r = run_probed(&image, Vec::new(), &cfg, InterpTier::default(), Probes::none());
            format!("{:?}", r.unwrap())
        };
        for threads in [1, 2, 7] {
            let jobs: Vec<AnalysisJob<'_>> = (0..4)
                .map(|_| AnalysisJob { image: &image, input: Vec::new(), label: "" })
                .collect();
            for r in Session::new(cfg).jobs(threads).run(jobs) {
                let ir = r.unwrap();
                assert_eq!(format!("{:?}", ir.report), direct, "threads={threads}");
                assert_eq!(ir.cache, CacheOutcome::Uncached);
                assert!(ir.metrics.is_none() && ir.intervals.is_none() && ir.profile.is_none());
            }
        }
    }

    #[test]
    fn interp_tiers_report_identically_and_share_cache_entries() {
        let image = small_image();
        let cfg = AnalysisConfig::default();
        let fast =
            Session::new(cfg).interp(InterpTier::Predecoded).run_one(&image, Vec::new()).unwrap();
        let legacy =
            Session::new(cfg).interp(InterpTier::Legacy).run_one(&image, Vec::new()).unwrap();
        assert_eq!(format!("{:?}", fast.report), format!("{:?}", legacy.report));

        // Cache keys are tier-invariant: an entry stored by the legacy
        // interpreter is a plain hit under the predecoded one.
        let (dir, cache) = tmp_cache("tier");
        let s = Session::new(cfg).interp(InterpTier::Legacy).cache(&cache);
        assert_eq!(s.run_one(&image, Vec::new()).unwrap().cache, CacheOutcome::Miss);
        let s = Session::new(cfg).interp(InterpTier::Predecoded).cache(&cache);
        let warm = s.run_one(&image, Vec::new()).unwrap();
        assert_eq!(warm.cache, CacheOutcome::Hit);
        assert_eq!(format!("{:?}", warm.report), format!("{:?}", fast.report));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_miss_then_hit_returns_identical_report() {
        let (dir, cache) = tmp_cache("hit");
        let image = small_image();
        let cfg = AnalysisConfig::default();

        let cold = Session::new(cfg).metrics(true).cache(&cache).run_one(&image, Vec::new());
        let cold = cold.unwrap();
        assert_eq!(cold.cache, CacheOutcome::Miss);
        let cold_phases: Vec<&str> =
            cold.metrics.as_ref().unwrap().phases.iter().map(|p| p.name).collect();
        assert_eq!(cold_phases, ["cache", "setup", "skip", "measure", "finalize"]);

        let warm = Session::new(cfg).metrics(true).cache(&cache).run_one(&image, Vec::new());
        let warm = warm.unwrap();
        assert_eq!(warm.cache, CacheOutcome::Hit);
        assert_eq!(format!("{:?}", warm.report), format!("{:?}", cold.report));
        // A hit executes nothing: the only phase is the cache lookup.
        let m = warm.metrics.unwrap();
        let warm_phases: Vec<&str> = m.phases.iter().map(|p| p.name).collect();
        assert_eq!(warm_phases, ["cache"]);
        assert_eq!(m.phases.iter().map(|p| p.events).sum::<u64>(), 0);
        assert!(m.gauges.is_empty(), "no simulator ran, so no gauges");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cached_batch_is_identical_across_thread_counts() {
        let (dir, cache) = tmp_cache("batch");
        let image = small_image();
        let cfg = AnalysisConfig::default();
        let jobs = |n: usize| -> Vec<AnalysisJob<'_>> {
            (0..n).map(|_| AnalysisJob { image: &image, input: Vec::new(), label: "" }).collect()
        };
        let plain: Vec<String> = Session::new(cfg)
            .run(jobs(3))
            .into_iter()
            .map(|r| format!("{:?}", r.unwrap().report))
            .collect();
        for threads in [1, 4] {
            let cached: Vec<String> = Session::new(cfg)
                .jobs(threads)
                .cache(&cache)
                .run(jobs(3))
                .into_iter()
                .map(|r| format!("{:?}", r.unwrap().report))
                .collect();
            assert_eq!(cached, plain, "threads={threads}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_passes_on_honest_entries_and_catches_poison() {
        let (dir, cache) = tmp_cache("verify");
        let image = small_image();
        let cfg = AnalysisConfig::default();
        let key = CacheKey::derive(&image, &[], &cfg);

        // Verify on a cold cache is a plain miss (nothing to compare).
        let s = Session::new(cfg).cache(&cache).cache_verify(true);
        assert_eq!(s.run_one(&image, Vec::new()).unwrap().cache, CacheOutcome::Miss);

        // Honest entry: verification recomputes and agrees.
        let s = Session::new(cfg).cache(&cache).cache_verify(true);
        assert_eq!(s.run_one(&image, Vec::new()).unwrap().cache, CacheOutcome::VerifyOk);

        // Poison the entry *through the front door*: store a
        // well-formed report with one counter nudged. A plain hit
        // serves the lie; verify catches it and returns the fresh
        // report.
        let mut poisoned = cache.load(&key).unwrap();
        poisoned.dynamic_repeated += 1;
        cache.store(&key, &poisoned).unwrap();
        let served = Session::new(cfg).cache(&cache).run_one(&image, Vec::new()).unwrap();
        assert_eq!(served.cache, CacheOutcome::Hit);
        assert_eq!(served.report.dynamic_repeated, poisoned.dynamic_repeated);
        let s = Session::new(cfg).cache(&cache).cache_verify(true);
        let verified = s.run_one(&image, Vec::new()).unwrap();
        assert_eq!(verified.cache, CacheOutcome::VerifyMismatch);
        assert_ne!(verified.report.dynamic_repeated, poisoned.dynamic_repeated);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interval_and_profile_probes_bypass_the_cache() {
        let (dir, cache) = tmp_cache("bypass");
        let image = small_image();
        let cfg = AnalysisConfig::default();
        // Prime the cache so a lookup *would* hit.
        Session::new(cfg).cache(&cache).run_one(&image, Vec::new()).unwrap();

        let ir =
            Session::new(cfg).cache(&cache).interval(1000).run_one(&image, Vec::new()).unwrap();
        assert_eq!(ir.cache, CacheOutcome::Uncached);
        assert!(ir.intervals.is_some());

        let ir = Session::new(cfg).cache(&cache).profile(true).run_one(&image, Vec::new()).unwrap();
        assert_eq!(ir.cache, CacheOutcome::Uncached);
        assert!(ir.profile.is_some());

        let ir = Session::new(cfg).cache(&cache).loops(true).run_one(&image, Vec::new()).unwrap();
        assert_eq!(ir.cache, CacheOutcome::Uncached);
        assert!(ir.loops.is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loop_probe_is_identical_across_threads_and_publishes_telemetry() {
        let image = small_image();
        let cfg = AnalysisConfig::default();
        let jobs = |n: usize| -> Vec<AnalysisJob<'_>> {
            (0..n).map(|_| AnalysisJob { image: &image, input: Vec::new(), label: "" }).collect()
        };
        let serial: Vec<_> = Session::new(cfg)
            .loops(true)
            .run(jobs(3))
            .into_iter()
            .map(|r| r.unwrap().loops.expect("loops were requested"))
            .collect();
        assert!(serial.iter().all(|p| !p.loops.is_empty() && p.max_depth >= 1));
        let registry = TelemetryRegistry::new();
        let parallel: Vec<_> = Session::new(cfg)
            .jobs(4)
            .loops(true)
            .telemetry(&registry)
            .run(jobs(3))
            .into_iter()
            .map(|r| r.unwrap().loops.expect("loops were requested"))
            .collect();
        assert_eq!(serial, parallel);
        // Each job contributed its counts; the depth gauge holds the max.
        assert_eq!(registry.counter("loops_discovered").get(), 3 * serial[0].loops.len() as u64);
        assert_eq!(registry.counter("loops_back_edges").get(), 3 * serial[0].back_edges);
        assert_eq!(registry.gauge("loops_max_depth").get(), u64::from(serial[0].max_depth));
    }

    #[test]
    fn telemetry_counts_runs_and_cache_outcomes() {
        let (dir, mut cache) = tmp_cache("telemetry");
        let registry = TelemetryRegistry::new();
        cache.attach_telemetry(&registry);
        let image = small_image();
        let cfg = AnalysisConfig { skip: 500, ..AnalysisConfig::default() };
        let counter = |name: &str| registry.counter(name).get();

        // Cold: one run, one miss, one store.
        let cold = Session::new(cfg)
            .cache(&cache)
            .telemetry(&registry)
            .run_one(&image, Vec::new())
            .unwrap();
        assert_eq!(cold.cache, CacheOutcome::Miss);
        assert_eq!(counter("session_jobs_submitted"), 1);
        assert_eq!(counter("session_runs_started"), 1);
        assert_eq!(counter("session_runs_finished"), 1);
        assert_eq!(counter("cache_miss"), 1);
        assert_eq!(counter("cache_store"), 1);
        assert_eq!(counter("cache_hit"), 0);

        // The lane's live icount is exact after the run: the skip
        // window plus every measured instruction, and one job done.
        let snap = registry.snapshot();
        assert_eq!(snap.lanes.len(), 1);
        assert_eq!(snap.lanes[0].icount, cfg.skip + cold.report.dynamic_total);
        assert_eq!(snap.lanes[0].jobs_done, 1);
        assert_eq!(snap.lanes[0].phase, LanePhase::Idle);
        for phase in ["cache", "setup", "skip", "measure", "finalize"] {
            assert!(counter(&format!("phase_ns_{phase}")) > 0, "phase_ns_{phase} unrecorded");
        }

        // Warm: a pure hit, no simulation.
        let warm = Session::new(cfg)
            .cache(&cache)
            .telemetry(&registry)
            .run_one(&image, Vec::new())
            .unwrap();
        assert_eq!(warm.cache, CacheOutcome::Hit);
        assert_eq!(counter("cache_hit"), 1);
        assert_eq!(counter("session_runs_finished"), 2);
        assert_eq!(registry.snapshot().lanes[0].icount, cfg.skip + cold.report.dynamic_total);

        // Verify mode recomputes and agrees.
        let verified = Session::new(cfg)
            .cache(&cache)
            .cache_verify(true)
            .telemetry(&registry)
            .run_one(&image, Vec::new())
            .unwrap();
        assert_eq!(verified.cache, CacheOutcome::VerifyOk);
        assert_eq!(counter("cache_verify_ok"), 1);
        assert_eq!(counter("cache_verify_mismatch"), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn telemetry_does_not_perturb_reports() {
        let image = small_image();
        let cfg = AnalysisConfig::default();
        let jobs = |n: usize| -> Vec<AnalysisJob<'_>> {
            (0..n).map(|_| AnalysisJob { image: &image, input: Vec::new(), label: "" }).collect()
        };
        let plain: Vec<String> = Session::new(cfg)
            .jobs(2)
            .run(jobs(3))
            .into_iter()
            .map(|r| format!("{:?}", r.unwrap().report))
            .collect();
        let registry = TelemetryRegistry::new();
        let with: Vec<String> = Session::new(cfg)
            .jobs(2)
            .telemetry(&registry)
            .run(jobs(3))
            .into_iter()
            .map(|r| format!("{:?}", r.unwrap().report))
            .collect();
        assert_eq!(plain, with);
        // All three jobs landed on some lane; the total is exact.
        let snap = registry.snapshot();
        assert_eq!(snap.lanes.iter().map(|l| l.jobs_done).sum::<u64>(), 3);
        assert_eq!(registry.counter("session_runs_finished").get(), 3);
    }

    #[test]
    fn cached_runs_trace_a_cache_span_per_job() {
        let (dir, cache) = tmp_cache("spans");
        let image = small_image();
        let cfg = AnalysisConfig::default();
        let jobs = || vec![AnalysisJob { image: &image, input: Vec::new(), label: "lookup" }];

        let mut cold = SpanTracer::new();
        Session::new(cfg).cache(&cache).trace(&mut cold).run(jobs());
        let cold_names: Vec<&str> = cold.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(cold_names, ["cache", "setup", "skip", "measure", "finalize", "lookup"]);

        let mut warm = SpanTracer::new();
        Session::new(cfg).cache(&cache).trace(&mut warm).run(jobs());
        let warm_names: Vec<&str> = warm.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(warm_names, ["cache", "lookup"], "a hit traces no pipeline phases");
        std::fs::remove_dir_all(&dir).ok();
    }
}

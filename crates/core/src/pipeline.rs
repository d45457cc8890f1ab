//! One-pass analysis pipeline: runs a program on the simulator with every
//! analysis attached, mirroring the paper's methodology (skip the
//! initialization phase, then measure a fixed window).
//!
//! During the skip phase all analyses still *propagate state* (dataflow
//! tags, call stacks, shadow memory) but accumulate no statistics, so the
//! measured window has correct provenance for every value it observes.
//!
//! The public entry point is [`Session`](crate::Session) in
//! `core::session`; this module holds the engine (`run_probed`) and the
//! configuration and report types. The pre-`Session` `analyze*` shims
//! served their one release of deprecation and are gone —
//! `scripts/ci.sh` greps the tree so they cannot reappear.

use instrep_asm::Image;
use instrep_isa::abi::{self, Region};
use instrep_sim::{Event, InterpTier, Machine, RunOutcome, SimError};

use crate::classes::{ClassAnalysis, ClassCounts};
use crate::coverage::Coverage;
use crate::function::FunctionAnalysis;
use crate::global::{GlobalAnalysis, GlobalCounts};
use crate::interval::{IntervalSampler, IntervalWindow};
use crate::local::{LocalAnalysis, LocalCounts};
use crate::loops::{LoopNestProfile, LoopProfiler};
use crate::metrics::{PhaseTimer, WorkloadMetrics};
use crate::predict::{PredictStats, StrideStats, ValuePredictors};
use crate::profile::InstructionProfile;
use crate::reuse::{ReuseBuffer, ReuseConfig, ReuseStats};
use crate::telemetry::{LanePhase, LiveCount, PipelineTelemetry};
use crate::trace_span::{OpenSpan, SpanLane};
use crate::tracker::{RepetitionTracker, TrackerConfig};

/// Configuration for an analysis run ([`Session`](crate::Session)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisConfig {
    /// Repetition-tracker configuration (instance buffer size).
    pub tracker: TrackerConfig,
    /// Reuse-buffer geometry (Table 10).
    pub reuse: ReuseConfig,
    /// Instructions to execute before measurement begins (the paper
    /// skipped 0.5–2.5 billion; scale to the workload).
    pub skip: u64,
    /// Maximum instructions to measure after the skip.
    pub window: u64,
    /// `k` for the top-k reports (Table 9, Figures 5 and 6).
    pub top_k: usize,
}

impl Default for AnalysisConfig {
    fn default() -> AnalysisConfig {
        AnalysisConfig {
            tracker: TrackerConfig::default(),
            reuse: ReuseConfig::paper(),
            skip: 0,
            window: u64::MAX,
            top_k: 5,
        }
    }
}

/// Everything the paper reports for one benchmark, produced by a single
/// simulation pass. See `DESIGN.md` for the experiment-by-experiment map.
#[derive(Debug)]
pub struct WorkloadReport {
    /// Whether the program ran to completion inside the window.
    pub outcome: RunOutcome,
    /// Dynamic instructions measured (Table 1, *Total*).
    pub dynamic_total: u64,
    /// Measured instructions classified repeated (Table 1, *Repeat %*).
    pub dynamic_repeated: u64,
    /// Static instructions in the text segment (Table 1, *Total*).
    pub static_total: usize,
    /// Static instructions executed in the window (Table 1, *Executed*).
    pub static_executed: usize,
    /// Executed static instructions with repetition (Table 1, *Repeated*).
    pub static_repeated: usize,
    /// Unique repeatable instances (Table 2, *Count*).
    pub unique_repeatable: u64,
    /// Average repeats per unique repeatable instance (Table 2).
    pub avg_repeats: f64,
    /// Figure 1: coverage of dynamic repetition by repeated static
    /// instructions (heaviest first).
    pub static_coverage: Coverage,
    /// Figure 3: repetition share by unique-repeatable-instance bucket.
    pub instance_histogram: [f64; 5],
    /// Figure 4: coverage of repetition by unique repeatable instances.
    pub instance_coverage: Coverage,
    /// Table 3: global source analysis counters.
    pub global: GlobalCounts,
    /// Static functions called (Table 4).
    pub funcs_called: usize,
    /// Dynamic calls (Table 4).
    pub dynamic_calls: u64,
    /// Fraction of calls with all arguments repeated (Table 4).
    pub all_arg_rate: f64,
    /// Fraction of calls with no argument repeated (Table 4).
    pub no_arg_rate: f64,
    /// Fraction of calls that were side-effect- and implicit-input-free
    /// (Table 8, column 2).
    pub pure_rate: f64,
    /// Fraction of all-arg-repeated calls that were pure (Table 8,
    /// column 3).
    pub pure_all_arg_rate: f64,
    /// Figure 5: all-arg repetition covered by top-k argument sets,
    /// `k = 1..=top_k`.
    pub argset_coverage: Vec<f64>,
    /// Tables 5–7: local category counters.
    pub local: LocalCounts,
    /// Table 9: top prologue/epilogue contributors
    /// `(name, static size, repeated P/E instructions)` and the fraction
    /// of all P/E repetition they cover.
    pub prologue_top: Vec<(String, u32, u64)>,
    /// Table 9 coverage column.
    pub prologue_coverage: f64,
    /// Figure 6: global+heap load repetition covered by each load's
    /// top-k values, `k = 1..=top_k`.
    pub load_value_coverage: Vec<f64>,
    /// Table 10: reuse-buffer statistics.
    pub reuse: ReuseStats,
    /// Extension: per-instruction-class breakdown (the total analysis
    /// the paper's §2 defers).
    pub classes: ClassCounts,
    /// Extension: unbounded last-value-predictor statistics (the §7
    /// value-prediction comparison point).
    pub predict: PredictStats,
    /// Extension: unbounded two-delta stride-predictor statistics.
    pub stride: StrideStats,
}

impl WorkloadReport {
    /// Fraction of measured dynamic instructions repeated.
    pub fn repetition_rate(&self) -> f64 {
        if self.dynamic_total == 0 {
            0.0
        } else {
            self.dynamic_repeated as f64 / self.dynamic_total as f64
        }
    }

    /// Fraction of static instructions executed.
    pub fn static_executed_rate(&self) -> f64 {
        if self.static_total == 0 {
            0.0
        } else {
            self.static_executed as f64 / self.static_total as f64
        }
    }

    /// Fraction of executed static instructions that repeated.
    pub fn static_repeated_rate(&self) -> f64 {
        if self.static_executed == 0 {
            0.0
        } else {
            self.static_repeated as f64 / self.static_executed as f64
        }
    }
}

/// The pipeline's optional observability hooks, all riding the same
/// `Option<&mut …>` pattern: any subset may be attached, none of them
/// can perturb the [`WorkloadReport`], and an all-`None` bundle is the
/// plain uninstrumented path. [`Session`](crate::Session) assembles
/// this bundle internally from its builder flags.
#[derive(Debug, Default)]
pub struct Probes<'a> {
    /// Phase timers, throughput, and end-of-run gauges (`core::metrics`).
    pub metrics: Option<&'a mut WorkloadMetrics>,
    /// Span lane for Chrome-trace export (`core::trace_span`); one
    /// span per pipeline phase is recorded into it.
    pub spans: Option<&'a mut SpanLane>,
    /// Windowed repetition time-series sampler (`core::interval`),
    /// driven every retired instruction of the measurement phase.
    pub sampler: Option<&'a mut IntervalSampler>,
    /// Per-static-instruction attribution profile (`core::profile`),
    /// filled once during finalize from the tracker's per-PC counters —
    /// no per-event cost at all.
    pub profile: Option<&'a mut InstructionProfile>,
    /// Live lane telemetry (`core::telemetry`): current phase, batched
    /// instruction counts, and per-phase wall-time counters, published
    /// through relaxed atomics for the wall-clock heartbeat sampler. A
    /// shared reference — unlike the other probes it is read
    /// concurrently while the run executes.
    pub telemetry: Option<&'a PipelineTelemetry>,
    /// Dynamic loop-nest profiler (`core::loops`): online back-edge
    /// loop detection plus a per-event path assignment, joined against
    /// the tracker's per-static stats at finalize.
    pub loops: Option<&'a mut LoopProfiler>,
}

impl Probes<'_> {
    /// No probes attached: exactly the uninstrumented path.
    pub fn none() -> Probes<'static> {
        Probes::default()
    }
}

/// One simulation pass with any combination of [`Probes`] attached —
/// the entry everything else (the `Session` builder,
/// `steady_state_check`) runs on.
///
/// Metrics and spans sample the clock at phase boundaries only; the
/// interval sampler, the loop profiler and the telemetry tick are
/// `Option`s checked per event. None of them feed back into the
/// analyses, so the report is byte-identical whatever is attached.
pub(crate) fn run_probed(
    image: &Image,
    input: Vec<u8>,
    cfg: &AnalysisConfig,
    interp: InterpTier,
    mut probes: Probes<'_>,
) -> Result<WorkloadReport, SimError> {
    let phase = probes.begin(LanePhase::Setup);
    let mut machine = Machine::with_tier(image, interp);
    machine.set_input(input);
    let mut obs = Observers::new(image, cfg);
    let mut live = probes.telemetry.map(|t| LiveCount::new(t.lane()));
    let mut loops = probes.loops.take();
    let mut sampler = probes.sampler.take();

    // Region classification: the simulator traps accesses between the
    // real heap break and the stack region, so any surviving address in
    // (data_end, STACK_REGION_BASE) is heap — pass the stack base as the
    // effective break.
    let data_end = image.data_end();
    let region_of =
        |ev: &Event| ev.mem.map(|m| abi::region_of(m.addr, data_end, abi::STACK_REGION_BASE));
    probes.end(phase, 0);

    // Skip phase: propagate analysis state without counting. The tracker
    // is idle during the skip (buffering starts with measurement, as in
    // the paper).
    let phase = probes.begin(LanePhase::Skip);
    let mut outcome = RunOutcome::MaxedOut;
    if cfg.skip > 0 {
        outcome = machine.run(cfg.skip, |ev| {
            if let Some(lp) = loops.as_deref_mut() {
                lp.observe(ev, false);
            }
            obs.skip(ev, region_of(ev));
            if let Some(l) = live.as_mut() {
                l.tick();
            }
        })?;
    }
    if let Some(l) = live.as_mut() {
        l.flush();
    }
    probes.end(phase, machine.icount());

    // Measurement window. The sampler reads gauges only at window
    // boundaries.
    let phase = probes.begin(LanePhase::Measure);
    let measured_from = machine.icount();
    if machine.exit_code().is_none() {
        outcome = machine.run(cfg.window, |ev| {
            if let Some(lp) = loops.as_deref_mut() {
                lp.observe(ev, true);
            }
            obs.measure(ev, region_of(ev));
            if let Some(l) = live.as_mut() {
                l.tick();
            }
            if let Some(s) = sampler.as_deref_mut() {
                if s.tick() {
                    let (repeated, reuse_hits, buffered) = obs.sampler_gauges();
                    s.flush(repeated, reuse_hits, buffered);
                }
            }
        })?;
    }
    if let Some(l) = live.as_mut() {
        l.flush();
    }
    if let Some(s) = sampler {
        let (repeated, reuse_hits, buffered) = obs.sampler_gauges();
        s.finish(repeated, reuse_hits, buffered);
    }
    probes.end(phase, machine.icount() - measured_from);

    let phase = probes.begin(LanePhase::Finalize);
    let Observers { tracker, global, function, local, reuse, classes, values } = &obs;
    let static_stats = tracker.static_stats();
    let (prologue_top, prologue_coverage) = local.prologue_report(cfg.top_k);
    let report = WorkloadReport {
        outcome,
        dynamic_total: tracker.dynamic_total(),
        dynamic_repeated: tracker.dynamic_repeated(),
        static_total: tracker.static_total(),
        static_executed: tracker.static_executed(),
        static_repeated: tracker.static_repeated(),
        unique_repeatable: tracker.unique_repeatable_instances(),
        avg_repeats: tracker.avg_repeats(),
        static_coverage: static_stats
            .iter()
            .filter(|s| s.repeated > 0)
            .map(|s| s.repeated)
            .collect(),
        instance_histogram: tracker.instance_histogram(),
        instance_coverage: Coverage::new(tracker.instance_repeat_counts()),
        global: *global.counts(),
        funcs_called: function.static_called(),
        dynamic_calls: function.total_calls(),
        all_arg_rate: function.all_arg_rate(),
        no_arg_rate: function.no_arg_rate(),
        pure_rate: function.pure_rate(),
        pure_all_arg_rate: function.pure_all_arg_rate(),
        argset_coverage: function.top_argset_coverage(cfg.top_k),
        local: *local.counts(),
        prologue_top,
        prologue_coverage,
        load_value_coverage: local.load_value_coverage(cfg.top_k),
        reuse: *reuse.stats(),
        classes: *classes.counts(),
        predict: *values.lvp_stats(),
        stride: *values.stride_stats(),
    };

    // Pull-based: one pass over state the observers (and the loop
    // profiler's path assignments) accumulated anyway.
    if let Some(p) = probes.profile.as_deref_mut() {
        p.fill_from_stats(image, &static_stats);
    }
    if let Some(lp) = loops {
        lp.fill_from_stats(image, &static_stats);
    }
    if let Some(m) = probes.metrics.as_deref_mut() {
        // Occupancy gauges, in a fixed order (deterministic documents).
        m.gauge("tracker_static_entries", tracker.static_total() as u64);
        m.gauge("tracker_instances_buffered", tracker.instances_buffered());
        m.gauge("tracker_table_bytes_est", tracker.approx_table_bytes());
        m.gauge("reuse_entries_valid", reuse.occupancy());
        m.gauge("global_shadow_words", global.shadow_words());
        m.gauge("function_argtuples", function.distinct_argtuples());
        m.gauge("local_stack_tag_words", local.shadow_stack_words());
        m.gauge("local_load_sites", local.load_sites());
        m.gauge("local_load_values", local.load_values_tracked());
        m.gauge("predict_lvp_entries", values.lvp_entries());
        m.gauge("predict_stride_entries", values.stride_entries());
        let fp = machine.footprint();
        m.gauge("sim_resident_pages", fp.resident_pages as u64);
        m.gauge("sim_resident_bytes", fp.resident_bytes as u64);
        m.gauge("sim_output_bytes", fp.output_bytes as u64);
    }
    probes.end(phase, 0);

    Ok(report)
}

/// One pipeline phase's open clocks: the metrics timer, the trace span
/// and the telemetry timer, each present when its probe is attached.
struct OpenPhase {
    phase: LanePhase,
    timer: Option<PhaseTimer>,
    span: Option<OpenSpan>,
    lane: Option<PhaseTimer>,
}

impl Probes<'_> {
    /// Opens `phase` on every attached phase clock.
    fn begin(&mut self, phase: LanePhase) -> OpenPhase {
        OpenPhase {
            phase,
            timer: self.metrics.as_ref().map(|_| PhaseTimer::start()),
            span: self.spans.as_mut().map(|l| l.begin()),
            lane: self.telemetry.map(|t| t.begin(phase)),
        }
    }

    /// Closes `open`, recording `events` retired instructions.
    fn end(&mut self, open: OpenPhase, events: u64) {
        let name = open.phase.name();
        if let (Some(m), Some(t)) = (self.metrics.as_deref_mut(), open.timer) {
            m.record_phase(name, t, events);
        }
        if let (Some(l), Some(s)) = (self.spans.as_deref_mut(), open.span) {
            l.end(s, name, "phase", events);
        }
        if let (Some(t), Some(lt)) = (self.telemetry, open.lane) {
            t.end(open.phase, lt);
        }
    }
}

/// The seven observers behind the paper's tables, driven one event at a
/// time. During the skip the dataflow observers propagate state and
/// nothing counts; during measurement the tracker's verdict feeds every
/// other observer.
struct Observers {
    tracker: RepetitionTracker,
    global: GlobalAnalysis,
    function: FunctionAnalysis,
    local: LocalAnalysis,
    reuse: ReuseBuffer,
    classes: ClassAnalysis,
    values: ValuePredictors,
}

impl Observers {
    fn new(image: &Image, cfg: &AnalysisConfig) -> Observers {
        Observers {
            tracker: RepetitionTracker::new(cfg.tracker, image.text.len()),
            global: GlobalAnalysis::new(image),
            function: FunctionAnalysis::new(image),
            local: LocalAnalysis::new(image),
            reuse: ReuseBuffer::new(cfg.reuse),
            classes: ClassAnalysis::new(),
            values: ValuePredictors::new(),
        }
    }

    /// Skip-phase event: propagate state, count nothing.
    fn skip(&mut self, ev: &Event, region: Option<Region>) {
        self.global.observe(ev, false, false);
        self.function.observe(ev, false, region);
        self.local.observe(ev, false, false, region);
    }

    /// Measurement-phase event.
    fn measure(&mut self, ev: &Event, region: Option<Region>) {
        let repeated = self.tracker.observe(ev);
        self.global.observe(ev, repeated, true);
        self.function.observe(ev, true, region);
        self.local.observe(ev, repeated, true, region);
        self.reuse.observe(ev, repeated);
        self.classes.observe(ev, repeated, true);
        self.values.observe(ev, repeated);
    }

    /// `(dynamic_repeated, reuse_hits, instances_buffered)` for the
    /// interval sampler's window flush.
    fn sampler_gauges(&self) -> (u64, u64, u64) {
        (
            self.tracker.dynamic_repeated(),
            self.reuse.stats().hits,
            self.tracker.instances_buffered(),
        )
    }
}

/// One unit of work for [`Session::run`](crate::Session::run): a built
/// image plus its input stream.
#[derive(Debug)]
pub struct AnalysisJob<'a> {
    /// The compiled workload image.
    pub image: &'a Image,
    /// The workload's input stream (consumed by the run).
    pub input: Vec<u8>,
    /// Display label (workload name) used for span traces; `""` is fine
    /// when tracing is off.
    pub label: &'a str,
}

/// One job's report plus whatever telemetry the
/// [`Session`](crate::Session) was configured to collect.
#[derive(Debug)]
pub struct InstrumentedReport {
    /// The analysis report — byte-identical to the uninstrumented run.
    pub report: WorkloadReport,
    /// Phase metrics, when `Session::metrics` was set.
    pub metrics: Option<WorkloadMetrics>,
    /// Interval windows, when `Session::interval` was set.
    pub intervals: Option<Vec<IntervalWindow>>,
    /// Per-PC attribution profile, when `Session::profile` was set.
    pub profile: Option<InstructionProfile>,
    /// Loop-nest attribution profile, when `Session::loops` was set.
    pub loops: Option<LoopNestProfile>,
    /// How the analysis cache participated, if one was attached.
    pub cache: crate::CacheOutcome,
}

/// The number of worker threads [`Session::jobs`](crate::Session::jobs)
/// should default to: the machine's available parallelism, or 1 if that
/// cannot be determined.
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Order-preserving parallel map over owned items using scoped threads,
/// passing each call the index of the worker thread running it
/// (`0..threads`) — the span tracer's lane key.
///
/// Items are claimed from a shared atomic cursor, so long and short jobs
/// balance across workers; each result lands in its item's original
/// slot, which is what makes downstream iteration deterministic.
pub(crate) fn parallel_map_indexed<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let n = items.len();
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(|item| f(0, item)).collect();
    }

    // Items move to whichever worker claims their index; results are
    // written back under a short-lived lock (contention is negligible —
    // one lock per *workload*, not per instruction).
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let (f, work, results, cursor) = (&f, &work, &results, &cursor);
        for worker in 0..threads {
            // `move` captures only the shared references plus this
            // worker's index.
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = work[i].lock().unwrap().take().expect("each index claimed once");
                let r = f(worker, item);
                *results[i].lock().unwrap() = Some(r);
            });
        }
    });

    results
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("worker filled every slot"))
        .collect()
}

/// The paper's §3 steady-state verification: runs the overall local
/// analysis at two window sizes and returns the largest absolute
/// difference in category shares. Small values indicate the short window
/// measures a steady-state region.
///
/// # Errors
///
/// Propagates simulator traps.
pub fn steady_state_check(
    image: &Image,
    input: Vec<u8>,
    cfg: &AnalysisConfig,
    factor: u64,
) -> Result<f64, SimError> {
    let short = run_probed(image, input.clone(), cfg, InterpTier::default(), Probes::none())?;
    let mut long_cfg = *cfg;
    long_cfg.window = cfg.window.saturating_mul(factor);
    let long = run_probed(image, input, &long_cfg, InterpTier::default(), Probes::none())?;
    let mut max_dev: f64 = 0.0;
    for cat in crate::local::LocalCat::ALL {
        let dev = (short.local.overall_share(cat) - long.local.overall_share(cat)).abs();
        max_dev = max_dev.max(dev);
    }
    Ok(max_dev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_span::{Span, SpanTracer};
    use crate::Session;
    use instrep_minicc::build;

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

    /// One plain run through the public builder.
    fn quick(image: &Image, cfg: &AnalysisConfig) -> WorkloadReport {
        Session::new(*cfg).run_one(image, Vec::new()).unwrap().report
    }

    #[test]
    fn end_to_end_analysis() {
        let image = small_image();
        let report = quick(&image, &AnalysisConfig::default());
        assert!(matches!(report.outcome, RunOutcome::Exited(_)));
        assert!(report.dynamic_total > 1000);
        // A tight loop calling a pure-ish lookup repeats heavily.
        assert!(report.repetition_rate() > 0.6, "rate = {}", report.repetition_rate());
        assert!(report.dynamic_calls >= 500);
        // lookup(i & 7) cycles through 8 tuples: heavy all-arg repetition.
        assert!(report.all_arg_rate > 0.9);
        // Counters are consistent.
        assert_eq!(report.global.total(), report.dynamic_total);
        assert_eq!(report.local.total(), report.dynamic_total);
        assert_eq!(report.reuse.total, report.dynamic_total);
        assert_eq!(report.static_coverage.total(), report.dynamic_repeated);
        assert_eq!(report.instance_coverage.total(), report.dynamic_repeated);
        let h: f64 = report.instance_histogram.iter().sum();
        assert!((h - 1.0).abs() < 1e-9);
        // The reuse buffer captures a large share of such a small loop.
        assert!(report.reuse.repeated_capture_rate() > 0.5);
        // Prologue/epilogue exist (lookup is called from main).
        use crate::local::LocalCat;
        assert!(report.local.overall[LocalCat::Prologue as usize] > 0);
        assert!(report.local.overall[LocalCat::Return as usize] >= 500);
    }

    #[test]
    fn skip_phase_excludes_startup() {
        let image = small_image();
        let full = quick(&image, &AnalysisConfig::default());
        let skipped = quick(&image, &AnalysisConfig { skip: 1000, ..AnalysisConfig::default() });
        assert_eq!(skipped.dynamic_total + 1000, full.dynamic_total);
        // Repetition persists in the steady-state region.
        assert!(skipped.repetition_rate() > 0.6);
    }

    #[test]
    fn window_truncates() {
        let image = small_image();
        let cfg = AnalysisConfig { window: 2000, ..AnalysisConfig::default() };
        let report = quick(&image, &cfg);
        assert_eq!(report.outcome, RunOutcome::MaxedOut);
        assert_eq!(report.dynamic_total, 2000);
    }

    #[test]
    fn steady_state_is_stable_for_uniform_loop() {
        let image = small_image();
        let cfg = AnalysisConfig { skip: 2000, window: 4000, ..AnalysisConfig::default() };
        let dev = steady_state_check(&image, Vec::new(), &cfg, 4).unwrap();
        assert!(dev < 0.15, "deviation {dev}");
    }

    #[test]
    fn batch_run_matches_serial_for_every_thread_count() {
        let image = small_image();
        let cfg = AnalysisConfig::default();
        let serial: Vec<u64> = (0..4).map(|_| quick(&image, &cfg).dynamic_repeated).collect();
        for threads in [1, 2, 7] {
            let jobs: Vec<AnalysisJob<'_>> = (0..4)
                .map(|_| AnalysisJob { image: &image, input: Vec::new(), label: "" })
                .collect();
            let parallel: Vec<u64> = Session::new(cfg)
                .jobs(threads)
                .run(jobs)
                .into_iter()
                .map(|r| r.unwrap().report.dynamic_repeated)
                .collect();
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn metrics_sink_does_not_perturb_report() {
        let image = small_image();
        let cfg = AnalysisConfig { skip: 500, ..AnalysisConfig::default() };
        let plain = quick(&image, &cfg);
        let mut m = WorkloadMetrics::default();
        let probes = Probes { metrics: Some(&mut m), ..Probes::none() };
        let instrumented =
            run_probed(&image, Vec::new(), &cfg, InterpTier::default(), probes).unwrap();
        assert_eq!(format!("{plain:?}"), format!("{instrumented:?}"));
        // Phases arrive in pipeline order with the right event counts.
        let names: Vec<&str> = m.phases.iter().map(|p| p.name).collect();
        assert_eq!(names, ["setup", "skip", "measure", "finalize"]);
        assert_eq!(m.phase("skip").unwrap().events, 500);
        assert_eq!(m.phase("measure").unwrap().events, instrumented.dynamic_total);
        // Gauges are present and consistent with the report.
        let gauge = |n: &str| m.gauges.iter().find(|(g, _)| *g == n).unwrap().1;
        assert_eq!(gauge("tracker_static_entries"), instrumented.static_total as u64);
        assert!(gauge("tracker_instances_buffered") >= instrumented.unique_repeatable);
        assert!(gauge("reuse_entries_valid") > 0);
        assert!(gauge("sim_resident_pages") > 0);
    }

    #[test]
    fn batch_metrics_do_not_perturb_reports() {
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
        let with: Vec<String> = Session::new(cfg)
            .jobs(2)
            .metrics(true)
            .run(jobs(3))
            .into_iter()
            .map(|r| format!("{:?}", r.unwrap().report))
            .collect();
        assert_eq!(plain, with);
    }

    #[test]
    fn probes_do_not_perturb_report() {
        let image = small_image();
        let cfg = AnalysisConfig { skip: 500, ..AnalysisConfig::default() };
        let plain = quick(&image, &cfg);
        let tracer = SpanTracer::new();
        let mut lane = SpanLane::new(0, tracer.epoch());
        let mut sampler = IntervalSampler::new(700);
        let mut m = WorkloadMetrics::default();
        let mut profile = InstructionProfile::default();
        let mut lp = LoopProfiler::new(image.text.len());
        let registry = crate::TelemetryRegistry::new();
        let tel = registry.pipeline_lane(0);
        let probed = run_probed(
            &image,
            Vec::new(),
            &cfg,
            InterpTier::default(),
            Probes {
                metrics: Some(&mut m),
                spans: Some(&mut lane),
                sampler: Some(&mut sampler),
                profile: Some(&mut profile),
                telemetry: Some(&tel),
                loops: Some(&mut lp),
            },
        )
        .unwrap();
        assert_eq!(format!("{plain:?}"), format!("{probed:?}"));
        // The live lane count matches exactly after the flushes: skip
        // window plus the measured instructions.
        assert_eq!(tel.lane().icount(), cfg.skip + probed.dynamic_total);
        // One span per pipeline phase, closed in pipeline order.
        let names: Vec<&str> = lane.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["setup", "skip", "measure", "finalize"]);
        assert_eq!(lane.spans()[2].events, probed.dynamic_total);
        // Windows tile the measurement exactly and sum to the report.
        let w = sampler.windows();
        assert!(!w.is_empty());
        assert_eq!(w.iter().map(|w| w.insns).sum::<u64>(), probed.dynamic_total);
        assert_eq!(w.iter().map(|w| w.repeated).sum::<u64>(), probed.dynamic_repeated);
        assert_eq!(w.iter().map(|w| w.reuse_hits).sum::<u64>(), probed.reuse.hits);
        assert!(w[..w.len() - 1].iter().all(|w| !w.partial && w.insns == 700 && w.end % 700 == 0));
        assert_eq!(w.last().unwrap().occupancy, w.iter().map(|w| w.unique_growth).sum::<u64>());
        // The profile covers every measured instruction exactly once.
        assert_eq!(profile.total_exec(), probed.dynamic_total);
        assert_eq!(profile.total_repeated(), probed.dynamic_repeated);
        assert_eq!(profile.sites.len(), probed.static_executed);
        // The loop profiler saw the whole window: its path assignment
        // conserves the report's totals and found the for loop.
        let loops = lp.finish();
        assert_eq!(loops.total_exec(), probed.dynamic_total);
        assert_eq!(loops.total_repeated(), probed.dynamic_repeated);
        assert!(loops.max_depth >= 1 && !loops.loops.is_empty());
    }

    #[test]
    fn exact_interval_multiple_produces_no_tail_window() {
        // When the measured count is an exact multiple of the interval,
        // the final flush lands on the boundary and finish() must not
        // append a zero-width partial window.
        let image = small_image();
        let cfg = AnalysisConfig { window: 2000, ..AnalysisConfig::default() };
        let mut sampler = IntervalSampler::new(500);
        let report = run_probed(
            &image,
            Vec::new(),
            &cfg,
            InterpTier::default(),
            Probes { sampler: Some(&mut sampler), ..Probes::none() },
        )
        .unwrap();
        assert_eq!(report.dynamic_total, 2000, "window must truncate exactly");
        let w = sampler.windows();
        assert_eq!(w.len(), 4);
        assert!(w.iter().all(|w| !w.partial && w.insns == 500));
        assert_eq!(w.last().unwrap().end, 2000);
    }

    #[test]
    fn batch_run_fills_profiles_identically_across_thread_counts() {
        let image = small_image();
        let cfg = AnalysisConfig::default();
        let jobs = |n: usize| -> Vec<AnalysisJob<'_>> {
            (0..n).map(|_| AnalysisJob { image: &image, input: Vec::new(), label: "" }).collect()
        };
        let profiles = |threads: usize| -> Vec<InstructionProfile> {
            Session::new(cfg)
                .jobs(threads)
                .profile(true)
                .run(jobs(3))
                .into_iter()
                .map(|r| r.unwrap().profile.expect("profile was requested"))
                .collect()
        };
        let serial = profiles(1);
        assert!(serial.iter().all(|p| p.total_exec() > 1000));
        assert_eq!(serial, profiles(4));
    }

    #[test]
    fn batch_run_traces_every_job_and_phase() {
        let image = small_image();
        let cfg = AnalysisConfig::default();
        let jobs: Vec<AnalysisJob<'_>> = (0..3)
            .map(|_| AnalysisJob { image: &image, input: Vec::new(), label: "lookup" })
            .collect();
        let mut tracer = SpanTracer::new();
        let results =
            Session::new(cfg).jobs(2).metrics(true).interval(1000).trace(&mut tracer).run(jobs);
        assert_eq!(results.len(), 3);
        for r in results {
            let ir = r.unwrap();
            assert!(ir.metrics.is_some());
            let windows = ir.intervals.unwrap();
            assert_eq!(windows.iter().map(|w| w.insns).sum::<u64>(), ir.report.dynamic_total);
        }
        // One workload span per job, each wrapping the four phase spans,
        // on worker lanes >= 1.
        let spans = tracer.spans();
        let workloads: Vec<&Span> = spans.iter().filter(|s| s.cat == "workload").collect();
        assert_eq!(workloads.len(), 3);
        assert!(workloads.iter().all(|s| s.name == "lookup" && s.lane >= 1));
        for lane in spans.iter().map(|s| s.lane).collect::<crate::FxHashSet<u32>>() {
            let names: Vec<&str> = spans
                .iter()
                .filter(|s| s.lane == lane && s.cat == "phase")
                .map(|s| s.name.as_str())
                .collect();
            assert_eq!(names.len() % 4, 0, "lane {lane} has whole jobs only");
            for chunk in names.chunks(4) {
                assert_eq!(chunk, ["setup", "skip", "measure", "finalize"]);
            }
        }
    }

    #[test]
    fn parallel_map_indexed_reports_valid_worker_ids() {
        use std::sync::Mutex;
        let seen = Mutex::new(Vec::new());
        let out = parallel_map_indexed((0..8u64).collect(), 3, |worker, i| {
            seen.lock().unwrap().push(worker);
            i
        });
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        assert!(seen.lock().unwrap().iter().all(|w| *w < 3));
    }

    #[test]
    fn parallel_map_preserves_item_order() {
        // Later items finish first (they sleep less); results must still
        // come back in input order.
        let items: Vec<u64> = (0..16).collect();
        let out = parallel_map_indexed(items, 8, |_, i| {
            std::thread::sleep(std::time::Duration::from_micros(200 * (16 - i)));
            i * i
        });
        assert_eq!(out, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }
}

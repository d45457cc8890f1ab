#![warn(missing_docs)]
//! Instruction-repetition analyses — the reproduction of Sodani & Sohi,
//! *An Empirical Analysis of Instruction Repetition* (ASPLOS 1998).
//!
//! The crate consumes the event stream of the [`instrep_sim`] functional
//! simulator and produces every measurement the paper reports:
//!
//! * [`RepetitionTracker`] — the core definition: a dynamic instruction is
//!   *repeated* when an earlier instance of the same static instruction
//!   had the same inputs and outputs (Tables 1–2, Figures 1–4).
//! * [`GlobalAnalysis`] — dataflow tagging by ultimate value source:
//!   external input ≻ global init data ≻ program internals ≻ uninit
//!   (Table 3).
//! * [`FunctionAnalysis`] — per-call argument-tuple repetition and
//!   side-effect/implicit-input freedom (Tables 4 and 8, Figure 5).
//! * [`LocalAnalysis`] — within-function categorization: prologue,
//!   epilogue, global address calculation, SP arithmetic, returns, and
//!   the argument/return-value/global/heap/internal source slices
//!   (Tables 5–7 and 9, Figure 6).
//! * [`ReuseBuffer`] — the 8K-entry 4-way reuse buffer (Table 10).
//! * [`Session`] — the one entry point: a builder over the one-pass
//!   pipeline wiring all of the above (the paper's skip-then-measure
//!   methodology), with every probe and the analysis cache attached
//!   through builder methods. The pre-`Session` `analyze*` family is
//!   gone; `scripts/ci.sh` greps to keep it from reappearing.
//! * [`cache`] — content-addressed on-disk memoization of whole-workload
//!   results (`instrep-repro --cache-dir`): a hit skips simulation
//!   entirely and still renders byte-identical tables.
//! * [`report`] — text renderers matching the paper's table layouts.
//! * [`metrics`] — pull-based observability: phase timers, throughput,
//!   occupancy gauges, and the versioned JSON documents behind
//!   `instrep-repro --metrics-out` and the `BENCH_*.json` trajectory.
//! * [`telemetry`] — live observability: a shared registry of named
//!   atomic counters/gauges/latency histograms updated from the hot
//!   paths with relaxed ordering, a wall-clock heartbeat sampler
//!   streaming JSONL (`instrep-repro --heartbeat-out/--heartbeat-ms`),
//!   Prometheus-style text exposition (`--telemetry-out`), and a live
//!   TTY progress line (`--progress`).
//! * [`service`] — the typed wire contract of the `instrep-serve`
//!   analysis daemon: schema-versioned `Request`/`Response` structs
//!   with a canonical newline-delimited JSON encoding shared by the
//!   daemon, the `instrep_client` example, and the stress tests.
//! * [`trace_span`] — explicit span tracer exporting Chrome trace-event
//!   JSON (`instrep-repro --trace-out`): one lane per pipeline worker
//!   thread, one span per phase, Perfetto-loadable.
//! * [`interval`] — windowed repetition time series
//!   (`instrep-repro --interval/--interval-out`): per-window repetition
//!   fraction, reuse hit rate, tracker occupancy, and unique-instance
//!   growth as JSONL.
//! * [`profile`] — source-level repetition profiler
//!   (`instrep-repro --profile-out/--profile-folded/--annotate`):
//!   per-static-instruction executed/repeated attribution joined with
//!   function, MiniC source line (`.loc` provenance), and opcode class;
//!   exports versioned JSON, flamegraph collapsed stacks, and an
//!   annotated source view.
//! * [`loops`] — dynamic loop-nest repetition attribution
//!   (`instrep-repro --loops-out/--loops-folded`): online loop
//!   detection from executed back edges, per-loop trip/depth counters,
//!   and exec/repeated attribution per (loop, depth, class), with a
//!   top-k redundancy summary per workload.
//!
//! # Examples
//!
//! ```
//! use instrep_core::{AnalysisConfig, Session};
//!
//! let image = instrep_minicc::build(r#"
//!     int main() {
//!         int i; int s = 0;
//!         for (i = 0; i < 1000; i++) s += i & 7;
//!         return s & 0xff;
//!     }
//! "#)?;
//! let report = Session::new(AnalysisConfig::default()).run_one(&image, Vec::new())?.report;
//! println!("repetition rate: {:.1}%", report.repetition_rate() * 100.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod cache;
mod classes;
mod coverage;
pub mod export;
mod function;
pub mod fxhash;
mod global;
pub mod interval;
mod local;
pub mod loops;
pub mod metrics;
mod pipeline;
mod predict;
pub mod profile;
pub mod report;
mod reuse;
pub mod service;
mod session;
mod shadow;
pub mod telemetry;
pub mod trace_span;
mod tracker;

pub use cache::{AnalysisCache, CacheKey, CACHE_SCHEMA_VERSION, ENTRY_PAYLOAD_OFFSET};
pub use classes::{ClassAnalysis, ClassCounts, InsnClass};
pub use coverage::Coverage;
pub use function::{FuncStats, FunctionAnalysis};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use global::{GlobalAnalysis, GlobalCounts, GlobalTag};
pub use instrep_sim::InterpTier;
pub use interval::{IntervalSampler, IntervalWindow, INTERVAL_SCHEMA_VERSION};
pub use local::{LocalAnalysis, LocalCat, LocalCounts};
pub use loops::{
    LoopNestProfile, LoopPathStats, LoopProfiler, LoopRecord, LoopsReport, LOOPS_SCHEMA_VERSION,
};
pub use metrics::{
    BenchSummary, MetricsReport, PhaseMetrics, WorkloadMetrics, METRICS_SCHEMA_VERSION,
};
pub use pipeline::{
    default_parallelism, steady_state_check, AnalysisConfig, AnalysisJob, InstrumentedReport,
    Probes, WorkloadReport,
};
pub use predict::{PredictStats, StrideStats, ValuePredictors};
pub use profile::{
    annotate, ClassRollup, FuncRollup, InstructionProfile, ProfileReport, SiteProfile,
    PROFILE_SCHEMA_VERSION,
};
pub use reuse::{ReuseBuffer, ReuseConfig, ReuseStats};
pub use session::{AnalysisTier, CacheOutcome, Session};
pub use telemetry::{
    HeartbeatConfig, HeartbeatSampler, LanePhase, PipelineTelemetry, TelemetryRegistry,
    TelemetrySnapshot, TELEMETRY_SCHEMA_VERSION,
};
pub use trace_span::{OpenSpan, Span, SpanLane, SpanTracer, TRACE_SCHEMA_VERSION};
pub use tracker::{RepetitionTracker, StaticStats, TrackerConfig};

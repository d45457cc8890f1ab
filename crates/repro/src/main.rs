//! `instrep-repro`: regenerates every table and figure of Sodani & Sohi,
//! *An Empirical Analysis of Instruction Repetition* (ASPLOS 1998), over
//! the ten SPEC-'95-like workloads.
//!
//! Run `instrep-repro --help` for the full flag list — the help text,
//! the parser, and the flag-conflict checks are all generated from one
//! declarative table ([`FLAGS`] + [`RULES`]), so they cannot drift
//! apart.
//!
//! With no table/figure selection, everything is printed. One simulation
//! pass per workload feeds all tables. Workloads run on `--jobs` threads
//! (default: available parallelism); output is identical for every jobs
//! count because reports merge in fixed workload order. The whole
//! analysis fan-out is one [`Session`] — the observability flags below
//! just toggle its probes.
//!
//! `--metrics-out PATH` additionally writes a versioned JSON metrics
//! document (phase timings, throughput, occupancy gauges, peak RSS — see
//! `DESIGN.md` §9) without changing a byte of the table output. With
//! `--bench N` the analysis repeats N times and PATH receives a
//! median+IQR bench summary instead — the unit of the `BENCH_*.json`
//! performance trajectory (`scripts/bench.sh`).
//!
//! `--trace-out PATH` writes a Chrome trace-event JSON document
//! (Perfetto-loadable) spanning compile, assemble, the analysis phases
//! of every workload (one lane per worker thread), and table rendering.
//! `--interval N --interval-out PATH` samples each workload's
//! measurement every N retired instructions and writes the repetition
//! time series as JSONL. Both are pull-based like `--metrics-out`: the
//! table output stays byte-identical (see `DESIGN.md` §10).
//!
//! The source-level profiler (see `DESIGN.md` §11) attributes every
//! measured instruction to its static PC, owning function, MiniC source
//! line, and opcode class. `--profile-out PATH` writes the versioned
//! JSON document (full per-PC table, per-function/per-class rollups, and
//! the `--top N` hottest repetition sites); `--profile-folded PATH`
//! writes flamegraph-ready collapsed stacks; `--annotate BENCH` prints
//! the benchmark's source annotated with per-line exec/repeat counters
//! after the tables. All three are pull-based too: the tables stay
//! byte-identical, and every output is identical for every `--jobs`
//! count.
//!
//! The loop-nest profiler (see `DESIGN.md` §16) detects loops online
//! from executed back edges and attributes every measured instruction to
//! its innermost dynamic loop, nesting depth, and opcode class.
//! `--loops-out PATH` writes the versioned JSON document (per-loop
//! table, depth/class rollups, and a top-k redundancy summary);
//! `--loops-folded PATH` writes collapsed stacks keyed by loop-nest
//! path; `--annotate` gains a per-line loop-depth column. Pull-based
//! like the profiler: the tables stay byte-identical.
//!
//! `--cache-dir PATH` memoizes whole-workload results in a
//! content-addressed on-disk cache (see `DESIGN.md` §12): a warm run
//! reproduces the same tables byte-for-byte without executing a single
//! measured instruction. `--cache-verify` recomputes on every hit and
//! fails loudly if an entry disagrees with a fresh analysis.

use std::io::IsTerminal;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use instrep_core::report::{self, Named};
use instrep_core::{
    default_parallelism, interval, metrics, profile, steady_state_check, telemetry, AnalysisCache,
    AnalysisConfig, AnalysisJob, CacheOutcome, HeartbeatConfig, HeartbeatSampler,
    InstructionProfile, InterpTier, IntervalWindow, LoopNestProfile, LoopsReport, MetricsReport,
    ProfileReport, Session, SpanLane, SpanTracer, TelemetryRegistry, WorkloadReport,
};
use instrep_workloads::{all, Scale, Workload};

/// Hard ceiling on `--bench` iterations when the settle loop keeps
/// finding new minimums (a pathologically noisy box must still halt).
const BENCH_MAX_RUNS: u32 = 200;

struct Options {
    scale: Scale,
    seed: u64,
    only: Option<String>,
    jobs: usize,
    interp: InterpTier,
    tables: Vec<u32>,
    figures: Vec<u32>,
    steady: bool,
    input_check: bool,
    csv: Option<String>,
    metrics_out: Option<String>,
    bench: Option<u32>,
    trace_out: Option<String>,
    interval: Option<u64>,
    interval_out: Option<String>,
    profile_out: Option<String>,
    profile_folded: Option<String>,
    loops_out: Option<String>,
    loops_folded: Option<String>,
    annotate: Option<String>,
    top: usize,
    top_given: bool,
    cache_dir: Option<String>,
    cache_verify: bool,
    heartbeat_out: Option<String>,
    heartbeat_ms: Option<u64>,
    telemetry_out: Option<String>,
    progress: bool,
}

impl Options {
    /// Whether any output needs the per-PC attribution profile.
    fn wants_profile(&self) -> bool {
        self.profile_out.is_some() || self.profile_folded.is_some() || self.annotate.is_some()
    }

    /// Whether any output needs the loop-nest profile (`--annotate`
    /// shows a loop-depth column, so it pulls both probes).
    fn wants_loops(&self) -> bool {
        self.loops_out.is_some() || self.loops_folded.is_some() || self.annotate.is_some()
    }
}

/// One command-line flag: the single source of truth its `--help` line,
/// its parsing (including arity and value errors), and its conflict
/// checks are generated from.
struct FlagSpec {
    /// Long name, e.g. `--scale`.
    name: &'static str,
    /// Optional extra spelling (only `--help` has one: `-h`).
    alias: Option<&'static str>,
    /// `Some((metavar, missing-value error))` for flags taking a value.
    value: Option<(&'static str, &'static str)>,
    /// Right-hand column of the generated help text.
    help: &'static str,
    /// Folds the flag into `Options`; bare flags receive `""`.
    apply: fn(&mut Options, &str) -> Result<(), String>,
}

/// A cross-flag validity rule, checked after the parse loop. `broken`
/// returning true fails the parse with `message`.
struct Rule {
    broken: fn(&Options) -> bool,
    message: &'static str,
}

const FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "--scale",
        alias: None,
        value: Some(("SCALE", "--scale needs a value")),
        help: "measurement scale: tiny, small, or full (default: small)",
        apply: |o, v| {
            o.scale = match v {
                "tiny" => Scale::Tiny,
                "small" => Scale::Small,
                "full" => Scale::Full,
                other => return Err(format!("unknown scale `{other}`")),
            };
            Ok(())
        },
    },
    FlagSpec {
        name: "--seed",
        alias: None,
        value: Some(("N", "--seed needs a value")),
        help: "workload input seed (default: 1998)",
        apply: |o, v| {
            o.seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
            Ok(())
        },
    },
    FlagSpec {
        name: "--only",
        alias: None,
        value: Some(("BENCH", "--only needs a benchmark name")),
        help: "analyze one benchmark (see --list)",
        apply: |o, v| {
            o.only = Some(v.to_string());
            Ok(())
        },
    },
    FlagSpec {
        name: "--jobs",
        alias: None,
        value: Some(("N", "--jobs needs a thread count")),
        help: "worker threads (default: available parallelism)",
        apply: |o, v| {
            o.jobs = v.parse().map_err(|_| format!("bad job count `{v}`"))?;
            if o.jobs == 0 {
                return Err("--jobs must be at least 1".to_string());
            }
            Ok(())
        },
    },
    FlagSpec {
        name: "--interp",
        alias: None,
        value: Some(("TIER", "--interp needs a tier")),
        help: "interpreter tier: fast (predecoded) or legacy (default: fast)",
        apply: |o, v| {
            o.interp = match v {
                "fast" => InterpTier::Predecoded,
                "legacy" => InterpTier::Legacy,
                other => return Err(format!("unknown interpreter tier `{other}`")),
            };
            Ok(())
        },
    },
    FlagSpec {
        name: "--analysis",
        alias: None,
        value: Some(("TIER", "--analysis needs a tier")),
        help: "analysis tier: split, the only one (default: split)",
        // Kept only because `benchmark/` still passes `--analysis split`;
        // it goes with the next change to the benchmark.
        apply: |_, v| match v {
            "split" => Ok(()),
            other => Err(format!("unknown analysis tier `{other}`")),
        },
    },
    FlagSpec {
        name: "--table",
        alias: None,
        value: Some(("N", "--table needs a number")),
        help: "print table N (repeatable)",
        apply: |o, v| {
            o.tables.push(v.parse().map_err(|_| format!("bad table `{v}`"))?);
            Ok(())
        },
    },
    FlagSpec {
        name: "--figure",
        alias: None,
        value: Some(("N", "--figure needs a number")),
        help: "print figure N (repeatable)",
        apply: |o, v| {
            o.figures.push(v.parse().map_err(|_| format!("bad figure `{v}`"))?);
            Ok(())
        },
    },
    FlagSpec {
        name: "--steady-state",
        alias: None,
        value: None,
        help: "run the steady-state check (paper \u{a7}3)",
        apply: |o, _| {
            o.steady = true;
            Ok(())
        },
    },
    FlagSpec {
        name: "--input-check",
        alias: None,
        value: None,
        help: "run the input-sensitivity check (paper \u{a7}3)",
        apply: |o, _| {
            o.input_check = true;
            Ok(())
        },
    },
    FlagSpec {
        name: "--csv",
        alias: None,
        value: Some(("PREFIX", "--csv needs a path prefix")),
        help: "write PREFIX_summary.csv and PREFIX_breakdowns.csv",
        apply: |o, v| {
            o.csv = Some(v.to_string());
            Ok(())
        },
    },
    FlagSpec {
        name: "--metrics-out",
        alias: None,
        value: Some(("PATH", "--metrics-out needs a path")),
        help: "write the phase/throughput metrics JSON to PATH",
        apply: |o, v| {
            o.metrics_out = Some(v.to_string());
            Ok(())
        },
    },
    FlagSpec {
        name: "--bench",
        alias: None,
        value: Some(("N", "--bench needs a run count")),
        help: "repeat the analysis N times, summarize into --metrics-out",
        apply: |o, v| {
            let n: u32 = v.parse().map_err(|_| format!("bad bench run count `{v}`"))?;
            if n == 0 {
                return Err("--bench must be at least 1".to_string());
            }
            o.bench = Some(n);
            Ok(())
        },
    },
    FlagSpec {
        name: "--trace-out",
        alias: None,
        value: Some(("PATH", "--trace-out needs a path")),
        help: "write a Chrome trace-event JSON document to PATH",
        apply: |o, v| {
            o.trace_out = Some(v.to_string());
            Ok(())
        },
    },
    FlagSpec {
        name: "--interval",
        alias: None,
        value: Some(("N", "--interval needs an instruction count")),
        help: "sample each measurement every N instructions",
        apply: |o, v| {
            let n: u64 = v.parse().map_err(|_| format!("bad interval `{v}`"))?;
            if n == 0 {
                return Err("--interval must be at least 1".to_string());
            }
            o.interval = Some(n);
            Ok(())
        },
    },
    FlagSpec {
        name: "--interval-out",
        alias: None,
        value: Some(("PATH", "--interval-out needs a path")),
        help: "write the interval series as JSONL to PATH",
        apply: |o, v| {
            o.interval_out = Some(v.to_string());
            Ok(())
        },
    },
    FlagSpec {
        name: "--profile-out",
        alias: None,
        value: Some(("PATH", "--profile-out needs a path")),
        help: "write the per-PC repetition profile JSON to PATH",
        apply: |o, v| {
            o.profile_out = Some(v.to_string());
            Ok(())
        },
    },
    FlagSpec {
        name: "--profile-folded",
        alias: None,
        value: Some(("PATH", "--profile-folded needs a path")),
        help: "write flamegraph-ready collapsed stacks to PATH",
        apply: |o, v| {
            o.profile_folded = Some(v.to_string());
            Ok(())
        },
    },
    FlagSpec {
        name: "--loops-out",
        alias: None,
        value: Some(("PATH", "--loops-out needs a path")),
        help: "write the loop-nest repetition profile JSON to PATH",
        apply: |o, v| {
            o.loops_out = Some(v.to_string());
            Ok(())
        },
    },
    FlagSpec {
        name: "--loops-folded",
        alias: None,
        value: Some(("PATH", "--loops-folded needs a path")),
        help: "write loop-nest collapsed stacks to PATH",
        apply: |o, v| {
            o.loops_folded = Some(v.to_string());
            Ok(())
        },
    },
    FlagSpec {
        name: "--annotate",
        alias: None,
        value: Some(("BENCH", "--annotate needs a benchmark name")),
        help: "print BENCH's source annotated with repetition counts",
        apply: |o, v| {
            if instrep_workloads::by_name(v).is_none() {
                return Err(format!("unknown benchmark `{v}` for --annotate (see --list)"));
            }
            o.annotate = Some(v.to_string());
            Ok(())
        },
    },
    FlagSpec {
        name: "--top",
        alias: None,
        value: Some(("N", "--top needs a site count")),
        help: "hot sites listed per profile output (default: 10)",
        apply: |o, v| {
            o.top = v.parse().map_err(|_| format!("bad top count `{v}`"))?;
            if o.top == 0 {
                return Err("--top must be at least 1".to_string());
            }
            o.top_given = true;
            Ok(())
        },
    },
    FlagSpec {
        name: "--cache-dir",
        alias: None,
        value: Some(("PATH", "--cache-dir needs a path")),
        help: "memoize analysis results in a cache at PATH",
        apply: |o, v| {
            o.cache_dir = Some(v.to_string());
            Ok(())
        },
    },
    FlagSpec {
        name: "--cache-verify",
        alias: None,
        value: None,
        help: "recompute cache hits and fail on any mismatch",
        apply: |o, _| {
            o.cache_verify = true;
            Ok(())
        },
    },
    FlagSpec {
        name: "--heartbeat-out",
        alias: None,
        value: Some(("PATH", "--heartbeat-out needs a path")),
        help: "stream live telemetry heartbeats as JSONL to PATH",
        apply: |o, v| {
            o.heartbeat_out = Some(v.to_string());
            Ok(())
        },
    },
    FlagSpec {
        name: "--heartbeat-ms",
        alias: None,
        value: Some(("N", "--heartbeat-ms needs a period")),
        help: "wall-clock heartbeat period in milliseconds",
        apply: |o, v| {
            let n: u64 = v.parse().map_err(|_| format!("bad heartbeat period `{v}`"))?;
            if n == 0 {
                return Err("--heartbeat-ms must be at least 1".to_string());
            }
            o.heartbeat_ms = Some(n);
            Ok(())
        },
    },
    FlagSpec {
        name: "--telemetry-out",
        alias: None,
        value: Some(("PATH", "--telemetry-out needs a path")),
        help: "write Prometheus-style telemetry exposition to PATH at exit",
        apply: |o, v| {
            o.telemetry_out = Some(v.to_string());
            Ok(())
        },
    },
    FlagSpec {
        name: "--progress",
        alias: None,
        value: None,
        help: "live single-line progress on stderr (TTY only)",
        apply: |o, _| {
            o.progress = true;
            Ok(())
        },
    },
    FlagSpec {
        name: "--all",
        alias: None,
        value: None,
        help: "print every table and figure (the default)",
        apply: |_, _| Ok(()),
    },
    FlagSpec {
        name: "--list",
        alias: None,
        value: None,
        help: "list the benchmarks and their SPEC analogs",
        apply: |_, _| {
            println!("{:<12}{:<16}", "bench", "SPEC analog");
            for wl in all() {
                println!("{:<12}{:<16}", wl.name, wl.spec_analog);
            }
            std::process::exit(0);
        },
    },
    FlagSpec {
        name: "--help",
        alias: Some("-h"),
        value: None,
        help: "print this help (also -h)",
        apply: |_, _| {
            print_help();
            std::process::exit(0);
        },
    },
];

const RULES: &[Rule] = &[
    Rule {
        broken: |o| o.bench.is_some() && o.metrics_out.is_none(),
        message: "--bench requires --metrics-out (the summary is written there)",
    },
    Rule {
        broken: |o| o.interval.is_some() != o.interval_out.is_some(),
        message: "--interval and --interval-out must be given together",
    },
    Rule {
        broken: |o| o.bench.is_some() && (o.trace_out.is_some() || o.interval_out.is_some()),
        message: "--bench cannot be combined with --trace-out or --interval-out",
    },
    Rule {
        broken: |o| o.bench.is_some() && o.wants_profile(),
        message: "--bench cannot be combined with --profile-out, --profile-folded, or --annotate",
    },
    Rule {
        broken: |o| o.bench.is_some() && (o.loops_out.is_some() || o.loops_folded.is_some()),
        message: "--bench cannot be combined with --loops-out or --loops-folded",
    },
    Rule {
        broken: |o| o.top_given && !o.wants_profile() && !o.wants_loops(),
        message: "--top requires --profile-out, --profile-folded, --loops-out, \
                  --loops-folded, or --annotate",
    },
    Rule {
        broken: |o| o.bench.is_some() && o.cache_dir.is_some(),
        message: "--bench cannot be combined with --cache-dir \
                  (a cached run would make bench timings meaningless)",
    },
    Rule {
        broken: |o| o.cache_verify && o.cache_dir.is_none(),
        message: "--cache-verify requires --cache-dir",
    },
    Rule {
        broken: |o| o.heartbeat_out.is_some() != o.heartbeat_ms.is_some(),
        message: "--heartbeat-out and --heartbeat-ms must be given together",
    },
    Rule {
        broken: |o| {
            o.bench.is_some()
                && (o.heartbeat_out.is_some() || o.telemetry_out.is_some() || o.progress)
        },
        message: "--bench cannot be combined with --heartbeat-out, --telemetry-out, or --progress",
    },
];

/// Prints the help text generated from [`FLAGS`] — there is no
/// hand-maintained usage string to drift out of date.
fn print_help() {
    println!("usage: instrep-repro [options]\n");
    println!(
        "Regenerates the tables and figures of \"An Empirical Analysis of\n\
         Instruction Repetition\" over the ten SPEC-'95-like workloads.\n\
         With no table or figure selection, everything is printed.\n"
    );
    println!("options:");
    let width = FLAGS.iter().map(|f| f.name.len() + f.value.map_or(0, |(m, _)| m.len() + 1)).max();
    let width = width.unwrap_or(0) + 2;
    for f in FLAGS {
        let mut left = f.name.to_string();
        if let Some((metavar, _)) = f.value {
            left.push(' ');
            left.push_str(metavar);
        }
        println!("  {left:<width$}{}", f.help);
    }
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        scale: Scale::Small,
        seed: 1998,
        only: None,
        jobs: default_parallelism(),
        interp: InterpTier::default(),
        tables: Vec::new(),
        figures: Vec::new(),
        steady: false,
        input_check: false,
        csv: None,
        metrics_out: None,
        bench: None,
        trace_out: None,
        interval: None,
        interval_out: None,
        profile_out: None,
        profile_folded: None,
        loops_out: None,
        loops_folded: None,
        annotate: None,
        top: 10,
        top_given: false,
        cache_dir: None,
        cache_verify: false,
        heartbeat_out: None,
        heartbeat_ms: None,
        telemetry_out: None,
        progress: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let spec = FLAGS
            .iter()
            .find(|f| f.name == arg || f.alias == Some(arg.as_str()))
            .ok_or_else(|| format!("unknown argument `{arg}`"))?;
        let value = match spec.value {
            Some((_, missing)) => args.next().ok_or_else(|| missing.to_string())?,
            None => String::new(),
        };
        (spec.apply)(&mut opts, &value)?;
    }
    for rule in RULES {
        if (rule.broken)(&opts) {
            return Err(rule.message.to_string());
        }
    }
    Ok(opts)
}

/// Scale label used in metrics documents.
fn scale_label(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Full => "full",
    }
}

/// Analysis windows per scale: (skip, window), mirroring the paper's
/// skip-initialization-then-measure methodology at simulator-feasible
/// sizes.
fn windows(scale: Scale) -> (u64, u64) {
    match scale {
        Scale::Tiny => (20_000, 400_000),
        Scale::Small => (200_000, 4_000_000),
        Scale::Full => (1_000_000, 25_000_000),
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let (skip, window) = windows(opts.scale);
    let cfg = AnalysisConfig { skip, window, ..AnalysisConfig::default() };
    let workloads: Vec<Workload> =
        all().into_iter().filter(|w| opts.only.as_deref().is_none_or(|o| o == w.name)).collect();
    if workloads.is_empty() {
        eprintln!("error: no benchmark matches --only filter");
        return ExitCode::FAILURE;
    }
    if let Some(name) = &opts.annotate {
        if !workloads.iter().any(|w| w.name == name) {
            eprintln!("error: --annotate {name} is excluded by the --only filter");
            return ExitCode::FAILURE;
        }
    }
    // Telemetry is strictly opt-in: no registry, no atomics anywhere on
    // the hot path. `--progress` silently degrades to off when stderr is
    // not a terminal so piped runs never see control sequences.
    let progress = opts.progress && std::io::stderr().is_terminal();
    let registry = (opts.heartbeat_out.is_some() || opts.telemetry_out.is_some() || progress)
        .then(|| Arc::new(TelemetryRegistry::new()));
    let mut cache =
        match opts.cache_dir.as_ref().map(|d| AnalysisCache::open(d.as_str())).transpose() {
            Ok(c) => c,
            Err(e) => {
                let dir = opts.cache_dir.as_deref().unwrap_or_default();
                eprintln!("error: opening cache at {dir}: {e}");
                return ExitCode::FAILURE;
            }
        };
    if let (Some(c), Some(r)) = (cache.as_mut(), registry.as_deref()) {
        c.attach_telemetry(r);
    }
    let cache = cache;
    let mut heartbeat = None;
    if let Some(r) = registry.as_ref() {
        if opts.heartbeat_out.is_some() || progress {
            let hb_cfg = HeartbeatConfig {
                out: opts.heartbeat_out.as_ref().map(PathBuf::from),
                period: Duration::from_millis(opts.heartbeat_ms.unwrap_or(200)),
                progress,
            };
            match HeartbeatSampler::start(Arc::clone(r), hb_cfg) {
                Ok(s) => heartbeat = Some(s),
                Err(e) => {
                    eprintln!("error: starting heartbeat stream: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    let threads = opts.jobs.clamp(1, workloads.len());
    eprintln!(
        "running {} workload(s) at {:?} scale (skip {skip}, window {window}, \
         {threads} thread(s))...",
        workloads.len(),
        opts.scale
    );
    // The tracer (when --trace-out is given) records the driver's own
    // work on lane 0; the session's worker threads get lanes 1..=jobs.
    let mut tracer = opts.trace_out.as_ref().map(|_| SpanTracer::new());
    let mut main_lane = tracer.as_ref().map(|t| SpanLane::new(0, t.epoch()));

    let start = std::time::Instant::now();
    let mut images = Vec::with_capacity(workloads.len());
    let mut build_ns = Vec::with_capacity(workloads.len());
    for wl in &workloads {
        let t = std::time::Instant::now();
        let built = match main_lane.as_mut() {
            None => wl.build(),
            // Traced builds run the same two stages `Workload::build`
            // fuses, each under its own span.
            Some(lane) => {
                let sp = lane.begin();
                let asm = instrep_minicc::compile_to_asm(&wl.full_source());
                lane.end(sp, format!("compile: {}", wl.name), "build", 0);
                asm.and_then(|text| {
                    let sp = lane.begin();
                    let image = instrep_asm::assemble(&text);
                    lane.end(sp, format!("assemble: {}", wl.name), "build", 0);
                    image.map_err(instrep_minicc::BuildError::from)
                })
            }
        };
        match built {
            Ok(i) => {
                build_ns.push(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
                images.push(i);
            }
            Err(e) => {
                eprintln!("error: building {} failed: {e}", wl.name);
                return ExitCode::FAILURE;
            }
        }
    }

    let want_metrics = opts.metrics_out.is_some();
    let iterations = opts.bench.unwrap_or(1);
    // Repetition-tester settle phase (--bench only): keep re-running past
    // the requested count until no new minimum wall time appears within
    // INSTREP_BENCH_SETTLE_MS of wall clock (default 2000; 0 disables),
    // capped at BENCH_MAX_RUNS. Noise only ever adds time, so a settled
    // minimum is the best estimate of the true cost.
    let settle_ms: u64 =
        std::env::var("INSTREP_BENCH_SETTLE_MS").ok().and_then(|v| v.parse().ok()).unwrap_or(2000);
    let mut runs: Vec<MetricsReport> = Vec::new();
    let mut reports: Vec<(String, WorkloadReport)> = Vec::new();
    let mut interval_series: Vec<(String, Vec<IntervalWindow>)> = Vec::new();
    let mut profiles: Vec<(String, InstructionProfile)> = Vec::new();
    let mut loop_profiles: Vec<(String, LoopNestProfile)> = Vec::new();
    let mut iter: u32 = 0;
    let mut best_ns = u64::MAX;
    let mut best_at = std::time::Instant::now();
    loop {
        let iter_start = std::time::Instant::now();
        let jobs: Vec<AnalysisJob<'_>> = workloads
            .iter()
            .zip(&images)
            .map(|(wl, image)| AnalysisJob {
                image,
                input: wl.input(opts.scale, opts.seed),
                label: wl.name,
            })
            .collect();
        // One Session runs the whole fan-out; the probes are pull-based
        // and the cache memoizes without perturbing, so every flag
        // combination prints identical tables.
        let span = main_lane.as_mut().map(|l| l.begin());
        let mut session = Session::new(cfg).jobs(threads).interp(opts.interp).metrics(want_metrics);
        if let Some(n) = opts.interval {
            session = session.interval(n);
        }
        if opts.wants_profile() {
            session = session.profile(true);
        }
        if opts.wants_loops() {
            session = session.loops(true);
        }
        if let Some(t) = tracer.as_mut() {
            session = session.trace(t);
        }
        if let Some(c) = cache.as_ref() {
            session = session.cache(c).cache_verify(opts.cache_verify);
        }
        if let Some(r) = registry.as_deref() {
            session = session.telemetry(r);
        }
        let results = session.run(jobs);
        let mut analyzed_events = 0;
        let mut run_workloads = Vec::new();
        for ((wl, &built_ns), result) in workloads.iter().zip(&build_ns).zip(results) {
            match result {
                Ok(ir) => {
                    if ir.cache == CacheOutcome::VerifyMismatch {
                        eprintln!(
                            "error: cache verify failed for {} \
                             (entry does not match a fresh analysis)",
                            wl.name
                        );
                        return ExitCode::FAILURE;
                    }
                    let cache_note = match ir.cache {
                        CacheOutcome::Hit => " (cached)",
                        CacheOutcome::VerifyOk => " (cache verified)",
                        _ => "",
                    };
                    let r = ir.report;
                    analyzed_events += r.dynamic_total;
                    if iter == 0 {
                        eprintln!(
                            "  {:<10} {:>12} insns measured, {:>5.1}% repeated{cache_note}",
                            wl.name,
                            r.dynamic_total,
                            r.repetition_rate() * 100.0,
                        );
                        reports.push((wl.name.to_string(), r));
                        if let Some(windows) = ir.intervals {
                            interval_series.push((wl.name.to_string(), windows));
                        }
                        if let Some(p) = ir.profile {
                            profiles.push((wl.name.to_string(), p));
                        }
                        if let Some(p) = ir.loops {
                            loop_profiles.push((wl.name.to_string(), p));
                        }
                    }
                    if let Some(mut m) = ir.metrics {
                        m.prepend_phase_ns("build", built_ns, 0);
                        run_workloads.push((wl.name.to_string(), m));
                    }
                }
                Err(e) => {
                    eprintln!("error: analyzing {} trapped: {e}", wl.name);
                    return ExitCode::FAILURE;
                }
            }
        }
        if let Some(l) = main_lane.as_mut() {
            l.end(span.expect("span opened with lane"), "analyze", "phase", analyzed_events);
        }
        if want_metrics {
            runs.push(MetricsReport {
                scale: scale_label(opts.scale).to_string(),
                seed: opts.seed,
                jobs: threads,
                workloads: run_workloads,
                peak_rss_bytes: metrics::peak_rss_bytes(),
                wall_ns_total: u64::try_from(iter_start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            });
        }
        let iter_ns = u64::try_from(iter_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if iter_ns < best_ns {
            best_ns = iter_ns;
            best_at = std::time::Instant::now();
        }
        iter += 1;
        if opts.bench.is_some() {
            if iter > iterations {
                eprintln!("  bench iteration {iter} (settling): {} ms", iter_ns / 1_000_000);
            } else if iterations > 1 {
                eprintln!("  bench iteration {iter}/{iterations}: {} ms", iter_ns / 1_000_000);
            }
        }
        if iter < iterations {
            continue;
        }
        if opts.bench.is_none() || settle_ms == 0 || iter >= BENCH_MAX_RUNS {
            break;
        }
        if best_at.elapsed().as_millis() >= u128::from(settle_ms) {
            break;
        }
    }
    eprintln!("  analysis took {} ms on {threads} thread(s)", start.elapsed().as_millis());

    if let Some(path) = &opts.metrics_out {
        let doc = if opts.bench.is_some() {
            match metrics::summarize_runs(&runs) {
                Ok(summary) => summary.to_json(),
                Err(e) => {
                    eprintln!("error: summarizing bench runs: {e}");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            runs[0].to_json()
        };
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("error: writing metrics to {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote metrics to {path}");
    }
    let named: Vec<Named<'_>> = reports.iter().map(|(n, r)| (n.as_str(), r)).collect();
    let render_span = main_lane.as_mut().map(|l| l.begin());

    let everything =
        opts.tables.is_empty() && opts.figures.is_empty() && !opts.steady && !opts.input_check;
    let want_t = |n: u32| everything || opts.tables.contains(&n);
    let want_f = |n: u32| everything || opts.figures.contains(&n);

    if want_t(1) {
        println!("{}", report::table1(&named));
    }
    if want_f(1) {
        println!("{}", report::figure1(&named));
    }
    if want_t(2) {
        println!("{}", report::table2(&named));
    }
    if want_f(3) {
        println!("{}", report::figure3(&named));
    }
    if want_f(4) {
        println!("{}", report::figure4(&named));
    }
    if want_t(3) {
        println!("{}", report::table3(&named));
    }
    if want_t(4) {
        println!("{}", report::table4(&named));
    }
    if want_t(5) || want_t(6) || want_t(7) {
        println!("{}", report::tables5_6_7(&named));
    }
    if want_t(8) {
        println!("{}", report::table8(&named));
    }
    if want_f(5) {
        println!("{}", report::figure5(&named));
    }
    if want_t(9) {
        println!("{}", report::table9(&named));
    }
    if want_f(6) {
        println!("{}", report::figure6(&named));
    }
    if want_t(10) {
        println!("{}", report::table10(&named));
    }
    if everything {
        println!("{}", report::ext_classes(&named));
        println!("{}", report::ext_predict(&named));
    }
    if let Some(l) = main_lane.as_mut() {
        l.end(render_span.expect("span opened with lane"), "render", "report", 0);
    }
    if let Some(prefix) = &opts.csv {
        use instrep_core::export;
        let summary = format!("{prefix}_summary.csv");
        let breakdowns = format!("{prefix}_breakdowns.csv");
        if let Err(e) = std::fs::write(&summary, export::csv_summary(&named))
            .and_then(|()| std::fs::write(&breakdowns, export::csv_breakdowns(&named)))
        {
            eprintln!("error: writing CSV files: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {summary} and {breakdowns}");
    }

    if opts.input_check || everything {
        // The paper's input-sensitivity check (§3): a second input set
        // must show the same trends. It goes through the same cache, so
        // warm full runs skip this simulation pass too.
        println!("Input-sensitivity check (paper §3): repetition rate with a second input set");
        println!("{:<12}{:>14}{:>14}{:>10}", "bench", "seed A", "seed B", "delta");
        for ((wl, image), (_, r)) in workloads.iter().zip(&images).zip(&reports) {
            let alt = wl.input(opts.scale, opts.seed.wrapping_add(7919));
            let mut session = Session::new(cfg).interp(opts.interp);
            if let Some(c) = cache.as_ref() {
                session = session.cache(c).cache_verify(opts.cache_verify);
            }
            if let Some(r) = registry.as_deref() {
                session = session.telemetry(r);
            }
            match session.run_one(image, alt) {
                Ok(ir) if ir.cache == CacheOutcome::VerifyMismatch => {
                    eprintln!(
                        "error: cache verify failed for {} \
                         (entry does not match a fresh analysis)",
                        wl.name
                    );
                    return ExitCode::FAILURE;
                }
                Ok(ir) => {
                    let a = r.repetition_rate() * 100.0;
                    let b = ir.report.repetition_rate() * 100.0;
                    println!("{:<12}{a:>13.1}%{b:>13.1}%{:>9.1}%", wl.name, (a - b).abs());
                }
                Err(e) => println!("{:<12} trapped: {e}", wl.name),
            }
        }
        println!();
    }

    if opts.steady || everything {
        println!("Steady-state check (paper §3): max local-category share deviation, window vs 3x window");
        for (wl, image) in workloads.iter().zip(&images) {
            let input = wl.input(opts.scale, opts.seed);
            match steady_state_check(image, input, &cfg, 3) {
                Ok(dev) => println!("    {:<10} {:>6.2}%", wl.name, dev * 100.0),
                Err(e) => println!("    {:<10} trapped: {e}", wl.name),
            }
        }
    }

    if let Some(name) = &opts.annotate {
        let wl = workloads.iter().find(|w| w.name == name).expect("validated above");
        let p = profiles
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| p)
            .expect("profile collected for every workload");
        let lp = loop_profiles.iter().find(|(n, _)| n == name).map(|(_, p)| p);
        println!("{}", profile::annotate(name, &wl.full_source(), p, lp));
    }

    if let (Some(path), Some(mut t)) = (opts.trace_out.as_ref(), tracer) {
        if let Some(lane) = main_lane {
            t.extend(lane.into_spans());
        }
        t.name_lane(0, "main");
        for w in 0..threads {
            t.name_lane(w as u32 + 1, &format!("worker-{w}"));
        }
        if let Err(e) = std::fs::write(path, t.to_json()) {
            eprintln!("error: writing trace to {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote trace to {path} (open in https://ui.perfetto.dev)");
    }
    if let (Some(path), Some(n)) = (opts.interval_out.as_ref(), opts.interval) {
        let doc =
            interval::to_jsonl(scale_label(opts.scale), opts.seed, threads, n, &interval_series);
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("error: writing interval series to {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote interval series to {path}");
    }
    if opts.profile_out.is_some() || opts.profile_folded.is_some() {
        let doc = ProfileReport {
            scale: scale_label(opts.scale).to_string(),
            seed: opts.seed,
            top: opts.top,
            workloads: std::mem::take(&mut profiles),
        };
        if let Some(path) = &opts.profile_out {
            if let Err(e) = std::fs::write(path, doc.to_json()) {
                eprintln!("error: writing profile to {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote profile to {path}");
        }
        if let Some(path) = &opts.profile_folded {
            if let Err(e) = std::fs::write(path, doc.to_folded()) {
                eprintln!("error: writing folded stacks to {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote folded stacks to {path} (render with a flamegraph tool)");
        }
    }
    if opts.loops_out.is_some() || opts.loops_folded.is_some() {
        let doc = LoopsReport {
            scale: scale_label(opts.scale).to_string(),
            seed: opts.seed,
            top: opts.top,
            workloads: std::mem::take(&mut loop_profiles),
        };
        if let Some(path) = &opts.loops_out {
            if let Err(e) = std::fs::write(path, doc.to_json()) {
                eprintln!("error: writing loop profile to {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote loop profile to {path}");
        }
        if let Some(path) = &opts.loops_folded {
            if let Err(e) = std::fs::write(path, doc.to_folded()) {
                eprintln!("error: writing loop stacks to {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote loop stacks to {path} (render with a flamegraph tool)");
        }
    }

    // The sampler is stopped (and its final beat flushed) before the
    // exposition snapshot so both exports agree on the final totals.
    if let Some(hb) = heartbeat {
        if let Err(e) = hb.stop() {
            eprintln!("error: writing heartbeats: {e}");
            return ExitCode::FAILURE;
        }
        if let Some(path) = &opts.heartbeat_out {
            eprintln!("wrote heartbeats to {path}");
        }
    }
    if let (Some(path), Some(r)) = (opts.telemetry_out.as_ref(), registry.as_deref()) {
        let doc = telemetry::render_prometheus(&r.snapshot());
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("error: writing telemetry exposition to {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote telemetry exposition to {path}");
    }

    ExitCode::SUCCESS
}

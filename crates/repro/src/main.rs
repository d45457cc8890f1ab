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
//! just toggle its probes. Each of the paper's §3 checks is one more
//! batch on the same threads: the input-sensitivity check reruns every
//! workload on a second input, and the steady-state check reruns it over
//! a window three times as long and compares it with the fan-out's.
//!
//! `--metrics-out PATH` additionally writes a versioned JSON metrics
//! document (phase timings, throughput, occupancy gauges, peak RSS — see
//! `DESIGN.md` §9) without changing a byte of the table output.
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
//! content-addressed on-disk cache (see `DESIGN.md` §12). Every batch
//! goes through it: a default run stores three entries per workload
//! (the fan-out's, the second input's and the long window's), and a warm
//! rerun prints the same bytes without executing a single instruction.
//! `--cache-verify` recomputes on every hit and fails loudly if an entry
//! disagrees with a fresh analysis.

use std::io::{self, IsTerminal, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use instrep_core::metrics::{self, ns_between};
use instrep_core::report::{self, Named};
use instrep_core::service::scale_windows;
use instrep_core::{
    default_parallelism, interval, profile, telemetry, AnalysisCache, AnalysisConfig, AnalysisJob,
    CacheOutcome, HeartbeatConfig, HeartbeatSampler, InstructionProfile, InstrumentedReport,
    InterpTier, IntervalWindow, LocalCat, LoopNestProfile, LoopsReport, MetricsReport,
    ProfileReport, Session, SpanLane, SpanTracer, TelemetryRegistry, WorkloadReport,
};
use instrep_minicc::BuildError;
use instrep_workloads::{all, Scale, Workload};

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
    /// Text that `--help` or `--list` prints instead of a run.
    print_only: Option<String>,
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
            o.scale = Scale::from_name(v).ok_or_else(|| format!("unknown scale `{v}`"))?;
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
        apply: |o, _| {
            let mut text = format!("{:<12}{:<16}\n", "bench", "SPEC analog");
            for wl in all() {
                text.push_str(&format!("{:<12}{:<16}\n", wl.name, wl.spec_analog));
            }
            o.print_only = Some(text);
            Ok(())
        },
    },
    FlagSpec {
        name: "--help",
        alias: Some("-h"),
        value: None,
        help: "print this help (also -h)",
        apply: |o, _| {
            o.print_only = Some(help_text());
            Ok(())
        },
    },
];

const RULES: &[Rule] = &[
    Rule {
        broken: |o| o.interval.is_some() != o.interval_out.is_some(),
        message: "--interval and --interval-out must be given together",
    },
    Rule {
        broken: |o| o.top_given && !o.wants_profile() && !o.wants_loops(),
        message: "--top requires --profile-out, --profile-folded, --loops-out, \
                  --loops-folded, or --annotate",
    },
    Rule {
        broken: |o| o.cache_verify && o.cache_dir.is_none(),
        message: "--cache-verify requires --cache-dir",
    },
    Rule {
        broken: |o| o.heartbeat_out.is_some() != o.heartbeat_ms.is_some(),
        message: "--heartbeat-out and --heartbeat-ms must be given together",
    },
];

/// The help text, generated from [`FLAGS`] — there is no
/// hand-maintained usage string to drift out of date.
fn help_text() -> String {
    let mut text = "usage: instrep-repro [options]\n\n\
        Regenerates the tables and figures of \"An Empirical Analysis of\n\
        Instruction Repetition\" over the ten SPEC-'95-like workloads.\n\
        With no table or figure selection, everything is printed.\n\n\
        options:\n"
        .to_string();
    let width = FLAGS.iter().map(|f| f.name.len() + f.value.map_or(0, |(m, _)| m.len() + 1)).max();
    let width = width.unwrap_or(0) + 2;
    for f in FLAGS {
        let mut left = f.name.to_string();
        if let Some((metavar, _)) = f.value {
            left.push(' ');
            left.push_str(metavar);
        }
        text.push_str(&format!("  {left:<width$}{}\n", f.help));
    }
    text
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
        print_only: None,
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
        if opts.print_only.is_some() {
            return Ok(opts);
        }
    }
    for rule in RULES {
        if (rule.broken)(&opts) {
            return Err(rule.message.to_string());
        }
    }
    Ok(opts)
}

/// Why [`run`] stopped before its end.
enum Stop {
    /// A failure, reported on stderr as `error: MESSAGE`.
    Failed(String),
    /// A write to stdout failed.
    Stdout(io::Error),
}

impl From<io::Error> for Stop {
    fn from(e: io::Error) -> Stop {
        Stop::Stdout(e)
    }
}

/// Writes `contents` to the file at `path`, or fails the run.
fn write_file(path: &str, contents: impl AsRef<[u8]>, what: &str) -> Result<(), Stop> {
    std::fs::write(path, contents)
        .map_err(|e| Stop::Failed(format!("writing {what} to {path}: {e}")))
}

/// Runs `jobs` on `session` and returns their results in job order, each
/// trap as its message. A cache entry that `--cache-verify` found wrong
/// fails the run, naming the job's workload.
fn run_batch(
    session: Session<'_>,
    jobs: Vec<AnalysisJob<'_>>,
) -> Result<Vec<Result<InstrumentedReport, String>>, Stop> {
    let names: Vec<&str> = jobs.iter().map(|job| job.label).collect();
    let mut results = Vec::with_capacity(names.len());
    for (name, result) in names.into_iter().zip(session.run(jobs)) {
        if result.as_ref().is_ok_and(|ir| ir.cache == CacheOutcome::VerifyMismatch) {
            return Err(Stop::Failed(format!(
                "cache verify failed for {name} (entry does not match a fresh analysis)"
            )));
        }
        results.push(result.map_err(|e| e.to_string()));
    }
    Ok(results)
}

/// The paper's §3 steady-state figure: the largest absolute difference
/// between two runs' overall local-category shares.
fn local_share_deviation(short: &WorkloadReport, long: &WorkloadReport) -> f64 {
    let deviation = |cat| (short.local.overall_share(cat) - long.local.overall_share(cat)).abs();
    LocalCat::ALL.into_iter().map(deviation).fold(0.0, f64::max)
}

fn main() -> ExitCode {
    let mut out = io::stdout().lock();
    let ran = run(&mut out);
    match ran.and(out.flush().map_err(Stop::from)) {
        Ok(()) => ExitCode::SUCCESS,
        // A reader that stops early (`| head`) has what it wanted.
        Err(Stop::Stdout(e)) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(Stop::Stdout(e)) => {
            eprintln!("error: writing to stdout: {e}");
            ExitCode::FAILURE
        }
        Err(Stop::Failed(message)) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// The whole program, writing every table, check, listing and help line
/// to `out`.
fn run(out: &mut impl Write) -> Result<(), Stop> {
    let opts = parse_args().map_err(Stop::Failed)?;
    if let Some(text) = &opts.print_only {
        out.write_all(text.as_bytes())?;
        return Ok(());
    }

    let (skip, window) = scale_windows(opts.scale.name()).expect("every scale has windows");
    let cfg = AnalysisConfig { skip, window, ..AnalysisConfig::default() };
    let workloads: Vec<Workload> =
        all().into_iter().filter(|w| opts.only.as_deref().is_none_or(|o| o == w.name)).collect();
    if workloads.is_empty() {
        return Err(Stop::Failed("no benchmark matches --only filter".to_string()));
    }
    if let Some(name) = &opts.annotate {
        if !workloads.iter().any(|w| w.name == name) {
            return Err(Stop::Failed(format!(
                "--annotate {name} is excluded by the --only filter"
            )));
        }
    }
    // Telemetry is strictly opt-in: no registry, no atomics anywhere on
    // the hot path. `--progress` silently degrades to off when stderr is
    // not a terminal so piped runs never see control sequences.
    let progress = opts.progress && std::io::stderr().is_terminal();
    let registry = (opts.heartbeat_out.is_some() || opts.telemetry_out.is_some() || progress)
        .then(|| Arc::new(TelemetryRegistry::new()));
    let open = |dir: &String| {
        AnalysisCache::open(dir.as_str())
            .map_err(|e| Stop::Failed(format!("opening cache at {dir}: {e}")))
    };
    let mut cache = opts.cache_dir.as_ref().map(open).transpose()?;
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
            let sampler = HeartbeatSampler::start(Arc::clone(r), hb_cfg)
                .map_err(|e| Stop::Failed(format!("starting heartbeat stream: {e}")))?;
            heartbeat = Some(sampler);
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

    // Each stage boundary is one clock read, shared by the stage it
    // ends and the one it starts: the `build` metric and the
    // `compile:`/`assemble:` spans come from the same instants.
    let start = Instant::now();
    let mut built_at = start;
    let mut images = Vec::with_capacity(workloads.len());
    let mut build_ns = Vec::with_capacity(workloads.len());
    for wl in &workloads {
        let compiling = built_at;
        let asm = instrep_minicc::compile_to_asm(&wl.full_source());
        let assembling = Instant::now();
        let built = asm.and_then(|text| instrep_asm::assemble(&text).map_err(BuildError::from));
        built_at = Instant::now();
        let image = built.map_err(|e| Stop::Failed(format!("building {} failed: {e}", wl.name)))?;
        if let Some(lane) = main_lane.as_mut() {
            lane.push(format!("compile: {}", wl.name), "build", compiling, assembling, 0);
            lane.push(format!("assemble: {}", wl.name), "build", assembling, built_at, 0);
        }
        build_ns.push(ns_between(compiling, built_at));
        images.push(image);
    }

    let jobs_start = built_at;
    // Every simulation of the run, the fan-out and both §3 checks, is one
    // batch with a job per workload, and every batch follows the same
    // flags: threads, interpreter tier, cache (and verify) and telemetry.
    let jobs = |seed: u64| -> Vec<AnalysisJob<'_>> {
        workloads
            .iter()
            .zip(&images)
            .map(|(wl, image)| AnalysisJob {
                image,
                input: wl.input(opts.scale, seed),
                label: wl.name,
            })
            .collect()
    };
    let session = |cfg: AnalysisConfig| {
        let mut session = Session::new(cfg).jobs(threads).interp(opts.interp);
        if let Some(c) = cache.as_ref() {
            session = session.cache(c).cache_verify(opts.cache_verify);
        }
        if let Some(r) = registry.as_deref() {
            session = session.telemetry(r);
        }
        session
    };
    // The fan-out adds its probes on top. They are pull-based and the
    // cache memoizes without perturbing, so every flag combination
    // prints identical tables.
    let mut fan_out = session(cfg).metrics(opts.metrics_out.is_some());
    if let Some(n) = opts.interval {
        fan_out = fan_out.interval(n);
    }
    if opts.wants_profile() {
        fan_out = fan_out.profile(true);
    }
    if opts.wants_loops() {
        fan_out = fan_out.loops(true);
    }
    if let Some(t) = tracer.as_mut() {
        fan_out = fan_out.trace(t);
    }
    let results = run_batch(fan_out, jobs(opts.seed))?;
    let mut analyzed_events = 0;
    let mut reports: Vec<(String, WorkloadReport)> = Vec::new();
    let mut interval_series: Vec<(String, Vec<IntervalWindow>)> = Vec::new();
    let mut profiles: Vec<(String, InstructionProfile)> = Vec::new();
    let mut loop_profiles: Vec<(String, LoopNestProfile)> = Vec::new();
    let mut workload_metrics = Vec::new();
    for ((wl, &built_ns), result) in workloads.iter().zip(&build_ns).zip(results) {
        let ir = result.map_err(|e| Stop::Failed(format!("analyzing {} trapped: {e}", wl.name)))?;
        let cache_note = match ir.cache {
            CacheOutcome::Hit => " (cached)",
            CacheOutcome::VerifyOk => " (cache verified)",
            _ => "",
        };
        let r = ir.report;
        analyzed_events += r.dynamic_total;
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
        if let Some(mut m) = ir.metrics {
            m.prepend_phase_ns("build", built_ns, 0);
            workload_metrics.push((wl.name.to_string(), m));
        }
    }
    // The `analyze` span and the metrics' total wall time are one
    // interval: from building the jobs to the end of the fan-out.
    let analyzed = Instant::now();
    if let Some(l) = main_lane.as_mut() {
        l.push("analyze", "phase", jobs_start, analyzed, analyzed_events);
    }
    let wall_ns_total = ns_between(jobs_start, analyzed);
    eprintln!(
        "  analysis took {} ms on {threads} thread(s)",
        analyzed.duration_since(start).as_millis()
    );

    if let Some(path) = &opts.metrics_out {
        let doc = MetricsReport {
            scale: opts.scale.name().to_string(),
            seed: opts.seed,
            jobs: threads,
            workloads: workload_metrics,
            peak_rss_bytes: metrics::peak_rss_bytes(),
            wall_ns_total,
        };
        write_file(path, doc.to_json(), "metrics")?;
        eprintln!("wrote metrics to {path}");
    }
    let named: Vec<Named<'_>> = reports.iter().map(|(n, r)| (n.as_str(), r)).collect();
    let rendering = Instant::now();

    let everything =
        opts.tables.is_empty() && opts.figures.is_empty() && !opts.steady && !opts.input_check;
    let want_t = |n: u32| everything || opts.tables.contains(&n);
    let want_f = |n: u32| everything || opts.figures.contains(&n);

    if want_t(1) {
        writeln!(out, "{}", report::table1(&named))?;
    }
    if want_f(1) {
        writeln!(out, "{}", report::figure1(&named))?;
    }
    if want_t(2) {
        writeln!(out, "{}", report::table2(&named))?;
    }
    if want_f(3) {
        writeln!(out, "{}", report::figure3(&named))?;
    }
    if want_f(4) {
        writeln!(out, "{}", report::figure4(&named))?;
    }
    if want_t(3) {
        writeln!(out, "{}", report::table3(&named))?;
    }
    if want_t(4) {
        writeln!(out, "{}", report::table4(&named))?;
    }
    if want_t(5) || want_t(6) || want_t(7) {
        writeln!(out, "{}", report::tables5_6_7(&named))?;
    }
    if want_t(8) {
        writeln!(out, "{}", report::table8(&named))?;
    }
    if want_f(5) {
        writeln!(out, "{}", report::figure5(&named))?;
    }
    if want_t(9) {
        writeln!(out, "{}", report::table9(&named))?;
    }
    if want_f(6) {
        writeln!(out, "{}", report::figure6(&named))?;
    }
    if want_t(10) {
        writeln!(out, "{}", report::table10(&named))?;
    }
    if everything {
        writeln!(out, "{}", report::ext_classes(&named))?;
        writeln!(out, "{}", report::ext_predict(&named))?;
    }
    if let Some(l) = main_lane.as_mut() {
        l.push("render", "report", rendering, Instant::now(), 0);
    }
    if let Some(prefix) = &opts.csv {
        use instrep_core::export;
        let summary = format!("{prefix}_summary.csv");
        let breakdowns = format!("{prefix}_breakdowns.csv");
        std::fs::write(&summary, export::csv_summary(&named))
            .and_then(|()| std::fs::write(&breakdowns, export::csv_breakdowns(&named)))
            .map_err(|e| Stop::Failed(format!("writing CSV files: {e}")))?;
        eprintln!("wrote {summary} and {breakdowns}");
    }

    if opts.input_check || everything {
        // The paper's input-sensitivity check (§3): a second input set
        // must show the same trends.
        let second = run_batch(session(cfg), jobs(opts.seed.wrapping_add(7919)))?;
        writeln!(
            out,
            "Input-sensitivity check (paper §3): repetition rate with a second input set"
        )?;
        writeln!(out, "{:<12}{:>14}{:>14}{:>10}", "bench", "seed A", "seed B", "delta")?;
        for ((name, r), result) in reports.iter().zip(second) {
            match result {
                Ok(ir) => {
                    let a = r.repetition_rate() * 100.0;
                    let b = ir.report.repetition_rate() * 100.0;
                    writeln!(out, "{name:<12}{a:>13.1}%{b:>13.1}%{:>9.1}%", (a - b).abs())?;
                }
                Err(e) => writeln!(out, "{name:<12} trapped: {e}")?,
            }
        }
        writeln!(out)?;
    }

    if opts.steady || everything {
        // The paper's steady-state check (§3): the fan-out's window
        // against one three times as long.
        let long = AnalysisConfig { window: cfg.window.saturating_mul(3), ..cfg };
        let long = run_batch(session(long), jobs(opts.seed))?;
        writeln!(out, "Steady-state check (paper §3): max local-category share deviation, window vs 3x window")?;
        for ((name, short), result) in reports.iter().zip(long) {
            match result {
                Ok(ir) => {
                    let dev = local_share_deviation(short, &ir.report);
                    writeln!(out, "    {name:<10} {:>6.2}%", dev * 100.0)?;
                }
                Err(e) => writeln!(out, "    {name:<10} trapped: {e}")?,
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
        writeln!(out, "{}", profile::annotate(name, &wl.full_source(), p, lp))?;
    }

    if let (Some(path), Some(mut t)) = (opts.trace_out.as_ref(), tracer) {
        if let Some(lane) = main_lane {
            t.extend(lane.into_spans());
        }
        t.name_lane(0, "main");
        for w in 0..threads {
            t.name_lane(w as u32 + 1, &format!("worker-{w}"));
        }
        write_file(path, t.to_json(), "trace")?;
        eprintln!("wrote trace to {path} (open in https://ui.perfetto.dev)");
    }
    if let (Some(path), Some(n)) = (opts.interval_out.as_ref(), opts.interval) {
        let doc = interval::to_jsonl(opts.scale.name(), opts.seed, threads, n, &interval_series);
        write_file(path, doc, "interval series")?;
        eprintln!("wrote interval series to {path}");
    }
    if opts.profile_out.is_some() || opts.profile_folded.is_some() {
        let doc = ProfileReport {
            scale: opts.scale.name().to_string(),
            seed: opts.seed,
            top: opts.top,
            workloads: std::mem::take(&mut profiles),
        };
        if let Some(path) = &opts.profile_out {
            write_file(path, doc.to_json(), "profile")?;
            eprintln!("wrote profile to {path}");
        }
        if let Some(path) = &opts.profile_folded {
            write_file(path, doc.to_folded(), "folded stacks")?;
            eprintln!("wrote folded stacks to {path} (render with a flamegraph tool)");
        }
    }
    if opts.loops_out.is_some() || opts.loops_folded.is_some() {
        let doc = LoopsReport {
            scale: opts.scale.name().to_string(),
            seed: opts.seed,
            top: opts.top,
            workloads: std::mem::take(&mut loop_profiles),
        };
        if let Some(path) = &opts.loops_out {
            write_file(path, doc.to_json(), "loop profile")?;
            eprintln!("wrote loop profile to {path}");
        }
        if let Some(path) = &opts.loops_folded {
            write_file(path, doc.to_folded(), "loop stacks")?;
            eprintln!("wrote loop stacks to {path} (render with a flamegraph tool)");
        }
    }

    // The sampler is stopped (and its final beat flushed) before the
    // exposition snapshot so both exports agree on the final totals.
    if let Some(hb) = heartbeat {
        hb.stop().map_err(|e| Stop::Failed(format!("writing heartbeats: {e}")))?;
        if let Some(path) = &opts.heartbeat_out {
            eprintln!("wrote heartbeats to {path}");
        }
    }
    if let (Some(path), Some(r)) = (opts.telemetry_out.as_ref(), registry.as_deref()) {
        let doc = telemetry::render_prometheus(&r.snapshot());
        write_file(path, doc, "telemetry exposition")?;
        eprintln!("wrote telemetry exposition to {path}");
    }

    Ok(())
}

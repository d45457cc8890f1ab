//! `perfbench`: the repository benchmark.
//!
//! End-to-end runs (`--trace 0`) drive the shipped `instrep-repro` and
//! `instrep-serve` binaries and time what a user waits for. Traced runs
//! (`--trace 1`) call each layer's public functions in-process, one
//! thread, fastest of repeated calls, and record spans around every
//! call. `README.md` in this directory maps every metric to its layer and
//! workload; `run.py` builds everything and then runs this binary:
//!
//! ```text
//! python3 benchmark/run.py --workload batch-spec8 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of stdout is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod alloc;
mod cli;
mod layers;
mod minic;
mod serve;
mod spans;
mod sys;

use std::path::PathBuf;
use std::process::ExitCode;

use instrep_core::AnalysisConfig;
use instrep_workloads::Scale;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The eight SPEC-'95 analogs, in the paper's Table 1 order.
pub const SPEC8: [&str; 8] = ["go", "m88ksim", "ijpeg", "perl", "vortex", "li", "gcc", "compress"];
/// The two loop-diversity kernels.
pub const KERNELS: [&str; 2] = ["interp", "stencil"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BatchSpec8,
    KernelsProbed,
    ServeMixed,
    ServeConnect,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::BatchSpec8,
        Workload::KernelsProbed,
        Workload::ServeMixed,
        Workload::ServeConnect,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchSpec8 => "batch-spec8",
            Workload::KernelsProbed => "kernels-probed",
            Workload::ServeMixed => "serve-mixed",
            Workload::ServeConnect => "serve-connect",
        }
    }
}

/// Everything one run needs to know.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Tiny scale, one set-up, short budgets: the benchmark's own test.
    pub quick: bool,
    pub repro: PathBuf,
    pub serve: PathBuf,
    /// Scratch directory for sockets, caches, exports and trace files.
    pub work: PathBuf,
}

impl Ctx {
    /// Scale of the CLI workloads' inputs.
    pub fn cli_scale(&self) -> Scale {
        if self.quick {
            Scale::Tiny
        } else {
            Scale::Small
        }
    }

    /// The workload input seed the programs receive, derived from
    /// `--seed` (distinct seeds give distinct inputs).
    pub fn input_seed(&self, salt: u64) -> u64 {
        splitmix64(self.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15)) >> 32
    }
}

pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Full => "full",
    }
}

/// `instrep-repro`'s `(skip, window)` for a scale.
pub fn windows(scale: Scale) -> AnalysisConfig {
    let (skip, window) =
        instrep_core::service::scale_windows(scale_name(scale)).expect("every Scale has windows");
    AnalysisConfig { skip, window, ..AnalysisConfig::default() }
}

pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// Result of one run: what was attempted, what failed the output check,
/// and the metrics.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Linear-interpolation percentile (`q` in `[0, 1]`) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// End-to-end metrics shared by every workload: `ops` are per-operation
/// latencies in seconds, `slots` the same latencies grouped by position
/// in the workload's operation cycle, `setups` the set-up samples.
///
/// `wall_s` is the wall time of a typical pass over the cycle: the sum
/// of each position's median. It uses every sample, where the median of
/// whole passes would rest on the few passes a run has time for.
pub fn end_to_end(
    ops: &[f64],
    slots: &[Vec<f64>],
    elapsed: f64,
    setups: &[f64],
    peak_rss_mb: f64,
) -> Vec<Metric> {
    let wall = slots.iter().filter(|s| !s.is_empty()).map(|s| percentile(s, 0.5)).sum();
    vec![
        metric("setup_s", percentile(setups, 0.5), "s"),
        metric("wall_s", wall, "s"),
        metric("op_p50_ms", percentile(ops, 0.5) * 1e3, "ms"),
        metric("op_p90_ms", percentile(ops, 0.9) * 1e3, "ms"),
        metric("ops_per_s", ops.len() as f64 / elapsed, "1/s"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}

/// Prints one informational line of latency statistics (stdout, before
/// the result line).
pub fn report_latencies(label: &str, secs: &[f64]) {
    if secs.is_empty() {
        println!("# {label}: n=0");
        return;
    }
    println!(
        "# {label}: n={} p50_ms={:.3} p90_ms={:.3} max_ms={:.3}",
        secs.len(),
        percentile(secs, 0.5) * 1e3,
        percentile(secs, 0.9) * 1e3,
        percentile(secs, 1.0) * 1e3
    );
}

struct Args {
    ctx: Ctx,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut quick = false;
    let (mut repro, mut serve, mut work) = (None, None, None);
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == v)
                        .ok_or_else(|| format!("unknown workload `{v}`"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed".to_string())?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "bad --seconds".to_string())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--quick" => quick = true,
            "--repro" => repro = Some(PathBuf::from(value()?)),
            "--serve" => serve = Some(PathBuf::from(value()?)),
            "--work" => work = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let missing = |f: &str| format!("{f} is required");
    Ok(Args {
        ctx: Ctx {
            workload: workload.ok_or_else(|| missing("--workload"))?,
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            quick,
            repro: repro.ok_or_else(|| missing("--repro"))?,
            serve: serve.ok_or_else(|| missing("--serve"))?,
            work: work.ok_or_else(|| missing("--work"))?,
        },
        trace: trace.ok_or_else(|| missing("--trace"))?,
    })
}

fn run(ctx: &Ctx, trace: bool) -> Result<Outcome, String> {
    let cli = matches!(ctx.workload, Workload::BatchSpec8 | Workload::KernelsProbed);
    if !trace {
        return if cli { cli::measure(ctx) } else { serve::measure(ctx) };
    }
    let mut rec = spans::Recorder::new();
    let mut out = layers::measure(ctx, &mut rec)?;
    let pass = if cli { cli::traced(ctx, &mut rec)? } else { serve::traced(ctx, &mut rec)? };
    out.attempted += pass.attempted;
    out.failed += pass.failed;
    out.metrics.extend(pass.metrics);
    let path = ctx.work.join(format!("trace-{}-{}.json", ctx.workload.name(), ctx.seed));
    std::fs::write(&path, rec.to_json()).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("# wrote {} spans to {}", rec.len(), path.display());
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.ctx.work) {
        eprintln!("perfbench: creating {}: {e}", args.ctx.work.display());
        return ExitCode::FAILURE;
    }
    match run(&args.ctx, args.trace) {
        Ok(out) => {
            if let Some(m) = out.metrics.iter().find(|m| !m.value.is_finite()) {
                eprintln!("perfbench: metric {} is not a number", m.name);
                return ExitCode::FAILURE;
            }
            let metrics: Vec<String> = out
                .metrics
                .iter()
                .map(|m| {
                    format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
                })
                .collect();
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                out.failed == 0 && out.attempted > 0,
                out.attempted,
                out.failed,
                metrics.join(", ")
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

//! The CLI workloads: one `instrep-repro --jobs 1 --only FAMILY` process
//! per family, printing every table and figure.
//!
//! * `batch-spec8` runs the eight SPEC analogs at `small` scale.
//! * `kernels-probed` runs `interp` and `stencil` with every per-event
//!   probe and export on (loops, profile, interval series).
//!
//! The oracle is the same command at `--interp legacy --analysis split`,
//! run before the timed region; every timed process's stdout and export
//! files must match it byte for byte.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use instrep_sim::{InterpTier, Machine};

use crate::spans::{Recorder, Span};
use crate::{end_to_end, metric, report_latencies, Ctx, Outcome, Workload, KERNELS, SPEC8};

/// The export flags `kernels-probed` turns on, with file suffixes.
const EXPORTS: [(&str, &str); 5] = [
    ("--loops-out", "loops.json"),
    ("--loops-folded", "loops.folded"),
    ("--profile-out", "profile.json"),
    ("--profile-folded", "profile.folded"),
    ("--interval-out", "intervals.jsonl"),
];

/// Interval length for `--interval` on the probed kernels.
pub const INTERVAL: u64 = 10_000;

pub fn families(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::KernelsProbed => &KERNELS,
        _ => &SPEC8,
    }
}

/// The `(family, input seed)` of each process in one pass, in order.
/// `kernels-probed` runs each kernel at three inputs, so a pass averages
/// over six processes as `batch-spec8`'s does over eight.
fn plan(ctx: &Ctx) -> Vec<(&'static str, u64)> {
    let inputs = if ctx.workload == Workload::KernelsProbed { 3 } else { 1 };
    (0..inputs)
        .flat_map(|k| families(ctx.workload).iter().map(move |&f| (f, ctx.input_seed(k))))
        .collect()
}

/// One CLI invocation: its arguments and the export files it writes.
struct Op {
    family: &'static str,
    args: Vec<String>,
    exports: Vec<PathBuf>,
}

/// The invocation for `family` at input `seed`, writing exports under
/// `dir` with `tag`.
fn op(ctx: &Ctx, (family, seed): (&'static str, u64), dir: &Path, tag: &str) -> Op {
    let mut args: Vec<String> = [
        "--jobs",
        "1",
        "--scale",
        crate::scale_name(ctx.cli_scale()),
        "--seed",
        &seed.to_string(),
        "--only",
        family,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    // Every table and figure the default run prints, without the §3
    // checks (which re-simulate and would double the work timed).
    for t in [1, 2, 3, 4, 5, 8, 9, 10] {
        args.extend(["--table".to_string(), t.to_string()]);
    }
    for f in [1, 3, 4, 5, 6] {
        args.extend(["--figure".to_string(), f.to_string()]);
    }
    let mut exports = Vec::new();
    if ctx.workload == Workload::KernelsProbed {
        args.extend(["--interval".to_string(), INTERVAL.to_string()]);
        for (flag, suffix) in EXPORTS {
            let path = dir.join(format!("{tag}-{family}-{seed}.{suffix}"));
            args.extend([flag.to_string(), path.display().to_string()]);
            exports.push(path);
        }
    }
    Op { family, args, exports }
}

/// A finished process: wall time from spawn to reaped exit (stdout read
/// to the end), its peak RSS, and its stdout.
struct Proc {
    secs: f64,
    rss_mb: f64,
    ok: bool,
    stdout: Vec<u8>,
}

fn run_proc(bin: &Path, args: &[String]) -> Result<Proc, String> {
    let start = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
    let mut stdout = Vec::new();
    let read = child.stdout.take().expect("stdout is piped").read_to_end(&mut stdout);
    let (status, rss_kb) = crate::sys::reap(child.id())?;
    let secs = start.elapsed().as_secs_f64();
    read.map_err(|e| format!("reading stdout: {e}"))?;
    Ok(Proc { secs, rss_mb: rss_kb as f64 / 1024.0, ok: status == 0, stdout })
}

/// What a correct run of one family prints and writes.
struct Expected {
    stdout: Vec<u8>,
    exports: Vec<Vec<u8>>,
}

/// Runs the oracle tiers for every process of a pass (two at a time).
fn oracles(ctx: &Ctx, dir: &Path) -> Result<Vec<Expected>, String> {
    let plan = plan(ctx);
    let run_one = |item: (&'static str, u64)| -> Result<Expected, String> {
        let mut o = op(ctx, item, dir, "oracle");
        o.args.extend(["--interp", "legacy", "--analysis", "split"].map(String::from));
        let p = run_proc(&ctx.repro, &o.args)?;
        if !p.ok {
            return Err(format!("oracle run for {} failed", item.0));
        }
        let exports = o
            .exports
            .iter()
            .map(|f| std::fs::read(f).map_err(|e| format!("reading {}: {e}", f.display())))
            .collect::<Result<_, _>>()?;
        Ok(Expected { stdout: p.stdout, exports })
    };
    let results: Vec<Result<Expected, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = plan
            .chunks(plan.len().div_ceil(2))
            .map(|chunk| s.spawn(move || chunk.iter().map(|&i| run_one(i)).collect::<Vec<_>>()))
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("oracle thread panicked")).collect()
    });
    results.into_iter().collect()
}

/// Whether a timed process matched the oracle, stdout and exports alike.
fn matches(p: &Proc, o: &Op, want: &Expected) -> bool {
    if !p.ok || p.stdout != want.stdout {
        eprintln!("perfbench: {} stdout differs from the oracle", o.family);
        return false;
    }
    for (path, bytes) in o.exports.iter().zip(&want.exports) {
        if std::fs::read(path).ok().as_deref() != Some(bytes.as_slice()) {
            eprintln!("perfbench: {} export {} differs from the oracle", o.family, path.display());
            return false;
        }
    }
    true
}

/// Set-up as each CLI process does it: build every family image
/// in-process (compile, assemble, predecode). Returns seconds.
fn build_images(fams: &[&str]) -> Result<f64, String> {
    let start = Instant::now();
    for name in fams {
        let wl = instrep_workloads::by_name(name).ok_or_else(|| format!("no workload {name}"))?;
        let asm = instrep_minicc::compile_to_asm(&wl.full_source()).map_err(|e| e.to_string())?;
        let image = instrep_asm::assemble(&asm).map_err(|e| e.to_string())?;
        let machine = Machine::try_new_with_tier(&image, InterpTier::Predecoded)
            .map_err(|e| e.to_string())?;
        std::hint::black_box(machine);
    }
    Ok(start.elapsed().as_secs_f64())
}

/// Samples of passes over the families.
#[derive(Default)]
struct Cycles {
    ops: Vec<f64>,
    /// Latencies by position in the pass.
    slots: Vec<Vec<f64>>,
    rss: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Cycles {
    /// Runs one pass over `ops`, checking each against `want`; records a
    /// span per process when `rec` is given. Returns the pass's seconds.
    fn run(
        &mut self,
        ctx: &Ctx,
        ops: &[Op],
        want: &[Expected],
        mut rec: Option<&mut Recorder>,
    ) -> Result<f64, String> {
        self.slots.resize(ops.len(), Vec::new());
        let mut pass = 0.0;
        for (i, (o, w)) in ops.iter().zip(want).enumerate() {
            let start = Instant::now();
            let p = run_proc(&ctx.repro, &o.args)?;
            if let Some(r) = rec.as_deref_mut() {
                let name = format!("instrep-repro {}", o.family);
                r.push(Span {
                    name,
                    cat: "cli",
                    lane: 0,
                    start,
                    end: Instant::now(),
                    args: vec![],
                });
            }
            self.attempted += 1;
            if !matches(&p, o, w) {
                self.failed += 1;
            }
            pass += p.secs;
            self.ops.push(p.secs);
            self.slots[i].push(p.secs);
            self.rss.push(p.rss_mb);
        }
        Ok(pass)
    }
}

/// A fresh per-run scratch directory for exports.
fn run_dir(ctx: &Ctx) -> Result<PathBuf, String> {
    let dir = ctx.work.join(format!("cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// The end-to-end run: set-up samples, then passes over the families
/// until `--seconds` have gone by.
pub fn measure(ctx: &Ctx) -> Result<Outcome, String> {
    let fams = families(ctx.workload);
    let mut setups = (0..if ctx.quick { 1 } else { 5 })
        .map(|_| build_images(fams))
        .collect::<Result<Vec<_>, _>>()?;
    let dir = run_dir(ctx)?;
    let want = oracles(ctx, &dir)?;
    let ops: Vec<Op> = plan(ctx).into_iter().map(|i| op(ctx, i, &dir, "timed")).collect();
    let mut c = Cycles::default();
    let start = Instant::now();
    while c.ops.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
        // One more set-up sample per pass spreads them over the run, so
        // their median does not hang on one moment's machine speed.
        setups.push(build_images(fams)?);
        c.run(ctx, &ops, &want, None)?;
    }
    std::fs::remove_dir_all(&dir).ok();
    report_latencies("cli process", &c.ops);
    let total: f64 = c.ops.iter().sum();
    let rss = crate::percentile(&c.rss, 0.5);
    Ok(Outcome {
        attempted: c.attempted,
        failed: c.failed,
        metrics: end_to_end(&c.ops, &c.slots, total, &setups, rss),
    })
}

/// The traced run's end-to-end pass: one pass untraced, one traced, so
/// the spans' overhead can be read off; both are output-checked.
pub fn traced(ctx: &Ctx, rec: &mut Recorder) -> Result<Outcome, String> {
    let dir = run_dir(ctx)?;
    let want = oracles(ctx, &dir)?;
    let ops: Vec<Op> = plan(ctx).into_iter().map(|i| op(ctx, i, &dir, "timed")).collect();
    let mut c = Cycles::default();
    let untraced = c.run(ctx, &ops, &want, None)?;
    let traced = c.run(ctx, &ops, &want, Some(rec))?;
    std::fs::remove_dir_all(&dir).ok();
    println!(
        "# traced pass: {untraced:.3} s untraced, {traced:.3} s traced ({:+.1}%; one pass \
         each, so machine noise can outweigh the spans' cost)",
        (traced / untraced - 1.0) * 100.0
    );
    Ok(Outcome {
        attempted: c.attempted,
        failed: c.failed,
        // No cache and no daemon on the CLI path.
        metrics: vec![
            metric("cache.hit_ratio", 0.0, "ratio"),
            metric("serve.rejected_overload", 0.0, "count"),
            metric("serve.timeouts", 0.0, "count"),
        ],
    })
}

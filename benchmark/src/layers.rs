//! Per-layer costs, each layer timed alone.
//!
//! For every program the workload runs, each layer's public entry point
//! is called in-process on one thread, repeatedly, and the fastest call
//! is kept (the repetition-tester method). Observers replay one recorded
//! `sim::Trace` of bounded length (the tiny-scale skip + window) and are
//! fed the tracker's precomputed `repeated` bits, so each sees exactly
//! the inputs it sees in the pipeline. Allocation counts of each call sit
//! beside its time. No cost is derived by subtracting one run from
//! another, so none can be negative.
//!
//! The attribution self-check compares the sum of the isolated costs of
//! everything a pipeline job does (predecode, interpret, observers,
//! probes, finalize) with the measured job; the remainder is reported as
//! interaction, per program.

use std::hint::black_box;
use std::time::{Duration, Instant};

use instrep_asm::Image;
use instrep_core::report::{self, Named};
use instrep_core::service::{report_json, ReportPayload, Request, Response};
use instrep_core::{
    interval, AnalysisCache, AnalysisConfig, AnalysisTier, CacheKey, CacheOutcome, ClassAnalysis,
    Coverage, FunctionAnalysis, GlobalAnalysis, InstructionProfile, IntervalSampler,
    IntervalWindow, LocalAnalysis, LoopProfiler, LoopsReport, ProfileReport, RepetitionTracker,
    ReuseBuffer, Session, ValuePredictors, WorkloadReport,
};
use instrep_isa::abi::{region_of, Region, STACK_REGION_BASE};
use instrep_sim::{Event, InterpTier, Machine, Trace};
use instrep_workloads::Scale;

use crate::alloc::Allocs;
use crate::cli::INTERVAL;
use crate::spans::{Recorder, Span};
use crate::{metric, Ctx, Metric, Outcome, Workload};

/// Rounds over every (program, layer) pair: at least, and at most. A
/// round calls each pair once, so a layer's calls spread over the whole
/// run and its fastest call does not hang on one moment's machine speed.
const MIN_ROUNDS: u32 = 3;
const MAX_ROUNDS: u32 = 32;
/// Fresh-connection round trips behind `serve.connect_ms`.
const CONNECTS: usize = 15;

/// One program of the workload, as the layers see it.
struct Program {
    label: String,
    source: String,
    input: Vec<u8>,
    /// Bounded analysis window: tiny scale's skip + window.
    cfg: AnalysisConfig,
    /// The daemon request that would analyze it.
    request: Request,
    /// Whether the workload runs it with the loop/profile/interval probes.
    probed: bool,
    scale: Scale,
    seed: u64,
}

/// The programs `ctx.workload` runs, with the inputs it gives them.
fn corpus(ctx: &Ctx) -> Vec<Program> {
    let named = |name: &'static str, scale: Scale, seed: u64, probed: bool| {
        let wl = instrep_workloads::by_name(name).expect("roster workload");
        Program {
            label: name.to_string(),
            source: wl.full_source(),
            input: wl.input(scale, seed),
            cfg: crate::windows(Scale::Tiny),
            request: Request::workload(1, name).scale(crate::scale_name(scale)).seed(seed),
            probed,
            scale,
            seed,
        }
    };
    let mut programs: Vec<Program> = match ctx.workload {
        Workload::BatchSpec8 | Workload::KernelsProbed => crate::cli::families(ctx.workload)
            .iter()
            .map(|f| {
                let probed = ctx.workload == Workload::KernelsProbed;
                named(f, ctx.cli_scale(), ctx.input_seed(0), probed)
            })
            .collect(),
        Workload::ServeMixed | Workload::ServeConnect => crate::SPEC8
            .into_iter()
            .chain(crate::KERNELS)
            .enumerate()
            .map(|(i, f)| named(f, Scale::Tiny, ctx.input_seed(100 + i as u64), false))
            .collect(),
    };
    if ctx.workload == Workload::ServeMixed {
        for k in 0..4 {
            let source = crate::minic::program(ctx.input_seed(20_000 + 1 + k));
            let request = Request::raw_source(1, &source);
            let program = Program {
                label: format!("source-{k}"),
                source,
                input: Vec::new(),
                cfg: crate::windows(Scale::Tiny),
                request,
                probed: false,
                scale: Scale::Tiny,
                seed: 0,
            };
            programs.insert(2 * k as usize, program);
        }
    }
    if ctx.quick {
        programs.truncate(3);
    }
    programs
}

/// The cost of one layer call.
#[derive(Clone, Copy)]
struct Sample {
    ns: f64,
    allocs: Allocs,
    /// Minor page faults taken during the call.
    faults: u64,
}

/// The fastest call so far of one layer on one program; allocations and
/// page faults are those of the latest call (allocations repeat exactly).
#[derive(Clone, Copy)]
struct Best {
    ns: f64,
    reps: u32,
    allocs: Allocs,
    faults: u64,
}

impl Best {
    const NONE: Best =
        Best { ns: f64::INFINITY, reps: 0, allocs: Allocs { count: 0, bytes: 0 }, faults: 0 };

    fn add(&mut self, s: Sample) {
        self.ns = self.ns.min(s.ns);
        self.reps += 1;
        self.allocs = s.allocs;
        self.faults = s.faults;
    }
}

/// Times single layer calls of one program, in [`LAYERS`] order, and
/// records a span per call.
struct Caller<'a> {
    rec: &'a mut Recorder,
    program: &'a str,
    samples: Vec<Sample>,
}

impl Caller<'_> {
    /// Times `f`; its result is returned (and dropped) outside the timing.
    fn call<T>(&mut self, layer: &str, f: impl FnOnce() -> T) -> T {
        debug_assert_eq!(LAYERS[self.samples.len()].0, layer, "layers out of order");
        let (allocs, faults) = (Allocs::now(), crate::sys::minor_faults());
        let start = Instant::now();
        let out = black_box(f());
        let end = Instant::now();
        let allocs = allocs.since();
        let faults = crate::sys::minor_faults() - faults;
        self.samples.push(Sample { ns: (end - start).as_secs_f64() * 1e9, allocs, faults });
        self.rec.push(Span {
            name: format!("{layer} {}", self.program),
            cat: "layer",
            lane: 0,
            start,
            end,
            args: vec![("allocs", allocs.count as f64)],
        });
        out
    }
}

/// How a layer's cost is normalized.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Per {
    Call,
    Event,
}

/// Every timed layer: metric stem, normalization, and whether it is part
/// of a pipeline job (for the attribution self-check; `Probe` only when
/// the workload runs the probes).
const LAYERS: [(&str, Per, Part); 27] = [
    ("minicc.compile", Per::Call, Part::No),
    ("asm.assemble", Per::Call, Part::No),
    ("sim.predecode", Per::Call, Part::Job),
    ("sim.interpret", Per::Event, Part::Job),
    ("sim.replay", Per::Event, Part::No),
    ("core.tracker", Per::Event, Part::Job),
    ("core.global", Per::Event, Part::Job),
    ("core.function", Per::Event, Part::Job),
    ("core.local", Per::Event, Part::Job),
    ("core.reuse", Per::Event, Part::Job),
    ("core.classes", Per::Event, Part::Job),
    ("core.predict", Per::Event, Part::Job),
    ("core.loops", Per::Event, Part::Probe),
    ("core.interval", Per::Event, Part::Probe),
    ("core.finalize", Per::Call, Part::Job),
    ("core.profile_fill", Per::Call, Part::Probe),
    ("report.render", Per::Call, Part::No),
    ("export.profile", Per::Call, Part::No),
    ("export.loops", Per::Call, Part::No),
    ("export.interval", Per::Call, Part::No),
    ("pipeline.job", Per::Event, Part::No),
    ("pipeline.split_job", Per::Event, Part::No),
    ("cache.key", Per::Call, Part::No),
    ("cache.load", Per::Call, Part::No),
    ("cache.store", Per::Call, Part::No),
    ("service.decode", Per::Call, Part::No),
    ("service.encode", Per::Call, Part::No),
];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Part {
    No,
    Job,
    Probe,
}

/// One program's measurements: a `Best` per entry of [`LAYERS`], plus
/// exact work counts.
struct Costs {
    label: String,
    events: u64,
    probed: bool,
    best: Vec<Best>,
    counts: Counts,
}

#[derive(Default, Clone, Copy)]
struct Counts {
    source_bytes: u64,
    text_words: u64,
    tracker_instances: u64,
    reuse_valid: u64,
    function_argtuples: u64,
    report_bytes: u64,
    export_bytes: u64,
    entry_bytes: u64,
    response_bytes: u64,
}

impl Costs {
    fn get(&self, layer: &str) -> Best {
        let i = LAYERS.iter().position(|(l, ..)| *l == layer).expect("known layer");
        self.best[i]
    }

    /// The isolated layers that together do what a job does.
    fn job_parts(&self) -> impl Iterator<Item = &Best> {
        LAYERS
            .iter()
            .zip(&self.best)
            .filter(|((_, _, part), _)| *part == Part::Job || (*part == Part::Probe && self.probed))
            .map(|(_, b)| b)
    }

    /// Isolated cost of everything the job does, in ns.
    fn isolated_ns(&self) -> f64 {
        self.job_parts().map(|b| b.ns).sum()
    }
}

/// The tables `instrep-repro` prints for the CLI workloads.
fn render(named: &[Named<'_>]) -> String {
    [
        report::table1(named),
        report::figure1(named),
        report::table2(named),
        report::figure3(named),
        report::figure4(named),
        report::table3(named),
        report::table4(named),
        report::tables5_6_7(named),
        report::table8(named),
        report::figure5(named),
        report::table9(named),
        report::figure6(named),
        report::table10(named),
    ]
    .join("\n")
}

/// A program's untimed inputs to its layer calls, built once: the
/// compiled text, the export documents, the job's report (checked
/// against the split tier), and its cache key and request line.
struct Prepared<'p> {
    p: &'p Program,
    asm: String,
    image: Image,
    profile_doc: ProfileReport,
    loops_doc: LoopsReport,
    series: Vec<(String, Vec<IntervalWindow>)>,
    report: WorkloadReport,
    key: CacheKey,
    line: String,
    counts: Counts,
    /// Whether the default-tier, split-tier, probed and cached reports
    /// and the decoded request all agreed.
    consistent: bool,
}

fn prepare<'p>(p: &'p Program, cache: &AnalysisCache) -> Result<Prepared<'p>, String> {
    let err = |e: &dyn std::fmt::Display| format!("{}: {e}", p.label);
    let asm = instrep_minicc::compile_to_asm(&p.source).map_err(|e| err(&e))?;
    let image = instrep_asm::assemble(&asm).map_err(|e| err(&e))?;
    let probed = Session::new(p.cfg)
        .loops(true)
        .profile(true)
        .interval(INTERVAL)
        .run_one(&image, p.input.clone())
        .map_err(|e| err(&e))?;
    let report = Session::new(p.cfg).run_one(&image, p.input.clone()).map_err(|e| err(&e))?.report;
    let split = Session::new(p.cfg)
        .analysis(AnalysisTier::Split)
        .run_one(&image, p.input.clone())
        .map_err(|e| err(&e))?
        .report;
    let same = |a: &WorkloadReport, b: &WorkloadReport| format!("{a:?}") == format!("{b:?}");
    let mut consistent = same(&report, &split) && same(&report, &probed.report);

    let key = CacheKey::derive(&image, &p.input, &p.cfg);
    cache.store(&key, &report).map_err(|e| err(&e))?;
    consistent &= cache.load(&key).is_some_and(|r| same(&r, &report));
    let line = p.request.encode();
    consistent &= Request::decode(&line).as_ref() == Ok(&p.request);

    let scale = crate::scale_name(p.scale).to_string();
    let profile_doc = ProfileReport {
        scale: scale.clone(),
        seed: p.seed,
        top: 10,
        workloads: vec![(p.label.clone(), probed.profile.expect("profile requested"))],
    };
    let loops_doc = LoopsReport {
        scale,
        seed: p.seed,
        top: 10,
        workloads: vec![(p.label.clone(), probed.loops.expect("loops requested"))],
    };
    let series = vec![(p.label.clone(), probed.intervals.expect("intervals requested"))];
    let mut prep = Prepared {
        p,
        asm,
        image,
        profile_doc,
        loops_doc,
        series,
        report,
        key,
        line,
        counts: Counts::default(),
        consistent,
    };
    prep.counts = Counts {
        source_bytes: p.source.len() as u64,
        text_words: prep.image.text.len() as u64,
        report_bytes: render(&[(&p.label, &prep.report)]).len() as u64,
        export_bytes: prep.exports().iter().map(|e| e.len() as u64).sum(),
        entry_bytes: std::fs::metadata(cache.entry_path(&key)).map_or(0, |m| m.len()),
        response_bytes: prep.response().len() as u64,
        ..Counts::default()
    };
    Ok(prep)
}

impl Prepared<'_> {
    /// The five export documents `kernels-probed` writes.
    fn exports(&self) -> [String; 5] {
        let scale = &self.profile_doc.scale;
        [
            self.profile_doc.to_json(),
            self.profile_doc.to_folded(),
            self.loops_doc.to_json(),
            self.loops_doc.to_folded(),
            interval::to_jsonl(scale, self.p.seed, 1, INTERVAL, &self.series),
        ]
    }

    /// The daemon's reply line for this program.
    fn response(&self) -> String {
        Response::Report(ReportPayload {
            id: 1,
            cache: CacheOutcome::Hit,
            report: report_json(&self.report),
            metrics: None,
            profile: None,
            loops: None,
        })
        .encode()
    }
}

/// What one round over a program measured besides the samples.
struct Round {
    samples: Vec<Sample>,
    events: u64,
    tracker_instances: u64,
    reuse_valid: u64,
    function_argtuples: u64,
}

/// Calls every layer once on `prep`, in [`LAYERS`] order.
fn round(prep: &Prepared<'_>, cache: &AnalysisCache, rec: &mut Recorder) -> Result<Round, String> {
    let (p, image) = (prep.p, &prep.image);
    let l = p.label.as_str();
    let err = |e: &dyn std::fmt::Display| format!("{l}: {e}");
    let mut c = Caller { rec, program: l, samples: Vec::with_capacity(LAYERS.len()) };

    c.call("minicc.compile", || instrep_minicc::compile_to_asm(&p.source)).map_err(|e| err(&e))?;
    c.call("asm.assemble", || instrep_asm::assemble(&prep.asm)).map_err(|e| err(&e))?;
    c.call("sim.predecode", || Machine::try_new_with_tier(image, InterpTier::Predecoded))
        .map_err(|e| err(&e))?;
    let total = p.cfg.skip.saturating_add(p.cfg.window);
    let fresh = || {
        let mut m = Machine::new(image);
        m.set_input(p.input.clone());
        m
    };
    let mut m = fresh();
    c.call("sim.interpret", || {
        m.run(total, |ev| {
            black_box(ev);
        })
    })
    .map_err(|e| err(&e))?;

    // Untimed inputs of the replays: the trace, each event's memory
    // region, and the tracker's repeated bit per measured event.
    let trace = Trace::record(&mut fresh(), total).map_err(|e| err(&e))?;
    let events: &[Event] = trace.events();
    let skip = (p.cfg.skip as usize).min(events.len());
    let (warm, measured) = events.split_at(skip);
    let data_end = image.data_end();
    let regions: Vec<Option<Region>> = events
        .iter()
        .map(|ev| ev.mem.map(|m| region_of(m.addr, data_end, STACK_REGION_BASE)))
        .collect();
    let (warm_regions, measured_regions) = regions.split_at(skip);
    let repeated: Vec<bool> = {
        let mut tr = RepetitionTracker::new(p.cfg.tracker, image.text.len());
        measured.iter().map(|ev| tr.observe(ev)).collect()
    };

    // What every observer replay below pays on top of its own work:
    // streaming the recorded events from memory.
    c.call("sim.replay", || {
        for ev in events {
            black_box(*ev);
        }
    });

    // Each observer's call includes its construction, as in a job.
    let tracker = c.call("core.tracker", || {
        let mut a = RepetitionTracker::new(p.cfg.tracker, image.text.len());
        for ev in measured {
            a.observe(ev);
        }
        a
    });
    let global = c.call("core.global", || {
        let mut a = GlobalAnalysis::new(image);
        for ev in warm {
            a.observe(ev, false, false);
        }
        for (ev, &r) in measured.iter().zip(&repeated) {
            a.observe(ev, r, true);
        }
        a
    });
    let function = c.call("core.function", || {
        let mut a = FunctionAnalysis::new(image);
        for (ev, r) in warm.iter().zip(warm_regions) {
            a.observe(ev, false, *r);
        }
        for (ev, r) in measured.iter().zip(measured_regions) {
            a.observe(ev, true, *r);
        }
        a
    });
    let local = c.call("core.local", || {
        let mut a = LocalAnalysis::new(image);
        for (ev, r) in warm.iter().zip(warm_regions) {
            a.observe(ev, false, false, *r);
        }
        for ((ev, r), &rep) in measured.iter().zip(measured_regions).zip(&repeated) {
            a.observe(ev, rep, true, *r);
        }
        a
    });
    let reuse = c.call("core.reuse", || {
        let mut a = ReuseBuffer::new(p.cfg.reuse);
        for (ev, &r) in measured.iter().zip(&repeated) {
            a.observe(ev, r);
        }
        a
    });
    let classes = c.call("core.classes", || {
        let mut a = ClassAnalysis::new();
        for (ev, &r) in measured.iter().zip(&repeated) {
            a.observe(ev, r, true);
        }
        a
    });
    let values = c.call("core.predict", || {
        let mut a = ValuePredictors::new();
        for (ev, &r) in measured.iter().zip(&repeated) {
            a.observe(ev, r);
        }
        a
    });
    c.call("core.loops", || {
        let mut a = LoopProfiler::new(image.text.len());
        for (i, ev) in events.iter().enumerate() {
            a.observe(ev, i >= skip);
        }
        a
    });
    c.call("core.interval", || {
        let mut s = IntervalSampler::new(INTERVAL);
        let mut so_far = 0;
        for &r in &repeated {
            so_far += u64::from(r);
            if s.tick() {
                s.flush(so_far, 0, 0);
            }
        }
        s.finish(so_far, 0, 0);
        s
    });

    // Finalize: the accessor calls the pipeline makes to assemble a
    // report from finished observers.
    let k = p.cfg.top_k;
    c.call("core.finalize", || {
        let stats = tracker.static_stats();
        let static_coverage =
            Coverage::new(stats.iter().filter(|s| s.repeated > 0).map(|s| s.repeated).collect());
        let instance_coverage = Coverage::new(tracker.instance_repeat_counts());
        let scalars = (
            tracker.dynamic_total(),
            tracker.dynamic_repeated(),
            tracker.static_total(),
            tracker.static_executed(),
            tracker.static_repeated(),
            tracker.unique_repeatable_instances(),
            tracker.avg_repeats(),
            tracker.instance_histogram(),
        );
        let functions = (
            function.static_called(),
            function.total_calls(),
            function.all_arg_rate(),
            function.no_arg_rate(),
            function.pure_rate(),
            function.pure_all_arg_rate(),
            function.top_argset_coverage(k),
        );
        let locals = (local.prologue_report(k), local.load_value_coverage(k), *local.counts());
        let rest = (*global.counts(), *reuse.stats(), *classes.counts(), *values.lvp_stats());
        (stats, static_coverage, instance_coverage, scalars, functions, locals, rest)
    });
    c.call("core.profile_fill", || {
        let mut pr = InstructionProfile::default();
        pr.fill(image, &tracker);
        pr
    });

    c.call("report.render", || render(&[(l, &prep.report)]));
    c.call("export.profile", || (prep.profile_doc.to_json(), prep.profile_doc.to_folded()));
    c.call("export.loops", || (prep.loops_doc.to_json(), prep.loops_doc.to_folded()));
    let scale = &prep.profile_doc.scale;
    c.call("export.interval", || interval::to_jsonl(scale, p.seed, 1, INTERVAL, &prep.series));

    let job = |tier: AnalysisTier, input: Vec<u8>| {
        let mut s = Session::new(p.cfg).analysis(tier);
        if p.probed {
            s = s.loops(true).profile(true).interval(INTERVAL);
        }
        s.run_one(image, input)
    };
    let input = p.input.clone();
    c.call("pipeline.job", || job(AnalysisTier::default(), input)).map_err(|e| err(&e))?;
    let input = p.input.clone();
    c.call("pipeline.split_job", || job(AnalysisTier::Split, input)).map_err(|e| err(&e))?;

    c.call("cache.key", || CacheKey::derive(image, &p.input, &p.cfg));
    c.call("cache.load", || cache.load(&prep.key));
    c.call("cache.store", || cache.store(&prep.key, &prep.report)).map_err(|e| err(&e))?;
    c.call("service.decode", || Request::decode(&prep.line)).map_err(|e| err(&e.message()))?;
    c.call("service.encode", || prep.response());

    debug_assert_eq!(c.samples.len(), LAYERS.len());
    Ok(Round {
        samples: c.samples,
        events: events.len() as u64,
        tracker_instances: tracker.instances_buffered(),
        reuse_valid: reuse.occupancy(),
        function_argtuples: function.distinct_argtuples(),
    })
}

/// Median fresh-connection round trip of a malformed line (answered by
/// the connection thread, no worker), in ms. The median, not the
/// minimum: the accept loop's polling makes the fastest trip luck.
fn connect_ms(ctx: &Ctx, rec: &mut Recorder) -> Result<f64, String> {
    let dir = ctx.work.join(format!("connect-{}", std::process::id()));
    let daemon = crate::serve::Daemon::spawn(&ctx.serve, &dir, false)?;
    let mut samples = Vec::new();
    for _ in 0..CONNECTS {
        let start = Instant::now();
        daemon.malformed_round_trip()?;
        let end = Instant::now();
        samples.push((end - start).as_secs_f64() * 1e3);
        rec.push(Span {
            name: "serve.connect".into(),
            cat: "layer",
            lane: 0,
            start,
            end,
            args: vec![],
        });
    }
    Ok(crate::percentile(&samples, 0.5))
}

/// Writes the per-layer table (one row per program and layer) as JSON.
fn write_ledger(ctx: &Ctx, costs: &[Costs]) -> Result<(), String> {
    let mut rows = Vec::new();
    for c in costs {
        let layers: Vec<String> = LAYERS
            .iter()
            .zip(&c.best)
            .map(|((name, ..), b)| {
                format!(
                    "{{\"layer\":\"{name}\",\"best_ns\":{:.0},\"reps\":{},\"allocs\":{},\
                     \"alloc_bytes\":{},\"minor_faults\":{}}}",
                    b.ns, b.reps, b.allocs.count, b.allocs.bytes, b.faults
                )
            })
            .collect();
        let job = c.get("pipeline.job").ns;
        let split = c.get("pipeline.split_job").ns;
        rows.push(format!(
            "{{\"program\":\"{}\",\"events\":{},\"isolated_ns\":{:.0},\"job_ns\":{job:.0},\
             \"split_job_ns\":{split:.0},\"explained_share\":{:.4},\"split_explained_share\":{:.4},\
             \"layers\":[\n  {}]}}",
            c.label,
            c.events,
            c.isolated_ns(),
            c.isolated_ns() / job,
            c.isolated_ns() / split,
            layers.join(",\n  ")
        ));
    }
    let doc = format!(
        "{{\"schema_version\":1,\"kind\":\"layer-costs\",\"workload\":\"{}\",\"seed\":{},\
         \"programs\":[\n{}]}}\n",
        ctx.workload.name(),
        ctx.seed,
        rows.join(",\n")
    );
    let path = ctx.work.join(format!("layers-{}-{}.json", ctx.workload.name(), ctx.seed));
    std::fs::write(&path, doc).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("# wrote the per-layer table to {}", path.display());
    Ok(())
}

/// Prepares every program, then runs rounds over all of them until
/// `--seconds` are spent. Returns the costs and the number of programs
/// whose reports disagreed across tiers, probes or the cache.
fn rounds(
    ctx: &Ctx,
    programs: &[Program],
    cache: &AnalysisCache,
    rec: &mut Recorder,
) -> Result<(Vec<Costs>, u64), String> {
    let preps = programs.iter().map(|p| prepare(p, cache)).collect::<Result<Vec<_>, _>>()?;
    let mut costs: Vec<Costs> = preps
        .iter()
        .map(|prep| Costs {
            label: prep.p.label.clone(),
            events: 0,
            probed: prep.p.probed,
            best: vec![Best::NONE; LAYERS.len()],
            counts: prep.counts,
        })
        .collect();
    let budget = Duration::from_secs_f64(ctx.seconds);
    let begun = Instant::now();
    let mut done = 0;
    while done < MIN_ROUNDS || (done < MAX_ROUNDS && begun.elapsed() < budget) {
        for (prep, cost) in preps.iter().zip(&mut costs) {
            let r = round(prep, cache, rec)?;
            for (b, s) in cost.best.iter_mut().zip(r.samples) {
                b.add(s);
            }
            cost.events = r.events;
            cost.counts.tracker_instances = r.tracker_instances;
            cost.counts.reuse_valid = r.reuse_valid;
            cost.counts.function_argtuples = r.function_argtuples;
        }
        done += 1;
    }
    let mut failed = 0;
    for prep in preps.iter().filter(|prep| !prep.consistent) {
        eprintln!("perfbench: {}: tiers, probes or the cache disagree", prep.p.label);
        failed += 1;
    }
    Ok((costs, failed))
}

/// The traced run's per-layer half: every layer on every program.
pub fn measure(ctx: &Ctx, rec: &mut Recorder) -> Result<Outcome, String> {
    let programs = corpus(ctx);
    let cache_dir = ctx.work.join(format!("layers-cache-{}", std::process::id()));
    std::fs::remove_dir_all(&cache_dir).ok();
    let cache = AnalysisCache::open(&cache_dir).map_err(|e| format!("opening cache: {e}"))?;
    let measured = rounds(ctx, &programs, &cache, rec);
    std::fs::remove_dir_all(&cache_dir).ok();
    let (costs, failed) = measured?;
    let connect = connect_ms(ctx, rec)?;
    write_ledger(ctx, &costs)?;

    let events: u64 = costs.iter().map(|c| c.events).sum();
    let n = costs.len() as f64;
    let mut metrics: Vec<Metric> = Vec::new();
    for (i, (name, per, _)) in LAYERS.iter().enumerate() {
        let ns: f64 = costs.iter().map(|c| c.best[i].ns).sum();
        let allocs: u64 = costs.iter().map(|c| c.best[i].allocs.count).sum();
        let bytes: u64 = costs.iter().map(|c| c.best[i].allocs.bytes).sum();
        match per {
            Per::Call => {
                metrics.push(metric(format!("{name}_us"), ns / n / 1e3, "us"));
                metrics.push(metric(format!("{name}_allocs"), allocs as f64 / n, "allocs"));
                metrics.push(metric(format!("{name}_alloc_bytes"), bytes as f64 / n, "B"));
            }
            Per::Event => {
                let e = events as f64;
                metrics.push(metric(format!("{name}_ns_per_event"), ns / e, "ns/event"));
                metrics.push(metric(
                    format!("{name}_allocs_per_event"),
                    allocs as f64 / e,
                    "allocs/event",
                ));
                metrics.push(metric(
                    format!("{name}_alloc_bytes_per_event"),
                    bytes as f64 / e,
                    "B/event",
                ));
            }
        }
    }
    metrics.push(metric("serve.connect_ms", connect, "ms"));
    let sum = |f: fn(&Counts) -> u64| costs.iter().map(|c| f(&c.counts)).sum::<u64>() as f64;
    metrics.extend([
        metric("minicc.source_bytes", sum(|c| c.source_bytes), "B"),
        metric("asm.text_words", sum(|c| c.text_words), "count"),
        metric("sim.events", events as f64, "count"),
        metric("core.tracker_instances", sum(|c| c.tracker_instances), "count"),
        metric("core.reuse_valid", sum(|c| c.reuse_valid), "count"),
        metric("core.function_argtuples", sum(|c| c.function_argtuples), "count"),
        metric("report.bytes", sum(|c| c.report_bytes), "B"),
        metric("export.bytes", sum(|c| c.export_bytes), "B"),
        metric("cache.entry_bytes", sum(|c| c.entry_bytes), "B"),
        metric("service.response_bytes", sum(|c| c.response_bytes), "B"),
    ]);

    // The attribution self-check, per program and overall.
    let (mut isolated, mut job, mut split) = (0.0, 0.0, 0.0);
    for c in &costs {
        let (iso, j, s) =
            (c.isolated_ns(), c.get("pipeline.job").ns, c.get("pipeline.split_job").ns);
        let iso_faults: u64 = c.job_parts().map(|b| b.faults).sum();
        let e = c.events as f64;
        println!(
            "# explained {}: job {:.1} ns/event, isolated sum {:.1} ns/event, share {:.3} \
             (split job {:.1} ns/event, share {:.3}), interaction {:+.1} ns/event \
             (the seven observer replays include {:.1} ns/event of trace streaming); \
             page faults: job {}, isolated sum {}",
            c.label,
            j / e,
            iso / e,
            iso / j,
            s / e,
            iso / s,
            (j - iso) / e,
            7.0 * c.get("sim.replay").ns / e,
            c.get("pipeline.job").faults,
            iso_faults
        );
        isolated += iso;
        job += j;
        split += s;
    }
    metrics.push(metric("pipeline.explained_share", isolated / job, "ratio"));
    metrics.push(metric("pipeline.split_explained_share", isolated / split, "ratio"));

    Ok(Outcome { attempted: costs.len() as u64, failed, metrics })
}

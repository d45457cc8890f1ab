//! Smoke tests for the `instrep-repro` command-line interface: argument
//! errors must exit non-zero with a clear message, a real (tiny,
//! parallel) run must succeed, and the observability exports
//! (`--metrics-out`, `--trace-out`, `--interval-out`, `--profile-out`,
//! `--profile-folded`, `--loops-out`, `--loops-folded`, `--annotate`)
//! must write valid schema-v1 documents without changing a byte of
//! table stdout.

mod json;

use std::process::{Command, Output};

use json::Json;

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_instrep-repro"))
        .args(args)
        .output()
        .expect("spawn instrep-repro")
}

fn run_env(args: &[&str], envs: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_instrep-repro"))
        .args(args)
        .envs(envs.iter().copied())
        .output()
        .expect("spawn instrep-repro")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unknown_scale_fails_with_message() {
    let out = run(&["--scale", "galactic"]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("unknown scale `galactic`"), "stderr: {err}");
}

#[test]
fn missing_seed_value_fails_with_message() {
    let out = run(&["--seed"]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("--seed needs a value"), "stderr: {err}");
}

#[test]
fn unknown_only_benchmark_fails_with_message() {
    let out = run(&["--only", "no-such-bench"]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("no benchmark matches --only filter"), "stderr: {err}");
}

#[test]
fn unknown_flag_fails_with_message() {
    let out = run(&["--frobnicate"]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("unknown argument `--frobnicate`"), "stderr: {err}");
}

#[test]
fn zero_jobs_fails_with_message() {
    let out = run(&["--jobs", "0"]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("--jobs must be at least 1"), "stderr: {err}");
}

#[test]
fn bench_without_metrics_out_fails_with_message() {
    let out = run(&["--bench", "3"]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("--bench requires --metrics-out"), "stderr: {err}");
}

/// `--metrics-out` must emit parseable JSON carrying the documented
/// schema version, one workload entry per analyzed workload, the
/// pipeline's phases in order, and non-empty gauges.
#[test]
fn metrics_out_writes_schema_v1_json() {
    let dir = std::env::temp_dir().join(format!("instrep-metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("metrics.json");
    let out = run(&[
        "--scale",
        "tiny",
        "--only",
        "compress",
        "--table",
        "1",
        "--jobs",
        "2",
        "--metrics-out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let text = std::fs::read_to_string(&path).expect("metrics file written");
    let doc = Json::parse(&text).expect("metrics file is valid JSON");
    assert_eq!(doc.get("schema_version").and_then(Json::num), Some(1.0));
    assert_eq!(doc.get("kind").and_then(Json::str), Some("metrics"));
    assert_eq!(doc.get("scale").and_then(Json::str), Some("tiny"));
    let workloads = doc.get("workloads").expect("workloads array").items();
    assert_eq!(workloads.len(), 1, "one entry per analyzed workload");
    let wl = &workloads[0];
    assert_eq!(wl.get("name").and_then(Json::str), Some("compress"));
    let phase_names: Vec<&str> = wl
        .get("phases")
        .expect("phases array")
        .items()
        .iter()
        .map(|p| p.get("name").and_then(Json::str).expect("phase name"))
        .collect();
    assert_eq!(phase_names, ["build", "setup", "skip", "measure", "finalize"]);
    for p in wl.get("phases").unwrap().items() {
        assert!(p.get("wall_ms").and_then(Json::num).expect("wall_ms") >= 0.0);
        assert!(p.get("events_per_sec").and_then(Json::num).is_some());
    }
    let measure = wl
        .get("phases")
        .unwrap()
        .items()
        .iter()
        .find(|p| p.get("name").and_then(Json::str) == Some("measure"));
    assert_eq!(measure.unwrap().get("events").and_then(Json::num), Some(400_000.0));
    match wl.get("gauges") {
        Some(Json::Obj(gauges)) => {
            assert!(gauges.contains_key("tracker_instances_buffered"), "gauges: {gauges:?}");
            assert!(gauges.contains_key("reuse_entries_valid"), "gauges: {gauges:?}");
        }
        other => panic!("gauges must be an object, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `--bench N` turns the same path into a median+IQR summary document.
/// The settle phase is disabled via the environment so exactly the
/// requested run count executes.
#[test]
fn bench_mode_writes_schema_v1_summary() {
    let dir = std::env::temp_dir().join(format!("instrep-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bench.json");
    let out = run_env(
        &[
            "--scale",
            "tiny",
            "--only",
            "compress",
            "--table",
            "1",
            "--jobs",
            "1",
            "--bench",
            "2",
            "--metrics-out",
            path.to_str().unwrap(),
        ],
        &[("INSTREP_BENCH_SETTLE_MS", "0")],
    );
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).expect("valid JSON");
    assert_eq!(doc.get("schema_version").and_then(Json::num), Some(1.0));
    assert_eq!(doc.get("kind").and_then(Json::str), Some("bench"));
    assert_eq!(doc.get("runs").and_then(Json::num), Some(2.0));
    let wl = &doc.get("workloads").expect("workloads").items()[0];
    let measure = wl
        .get("phases")
        .expect("phases")
        .items()
        .iter()
        .find(|p| p.get("name").and_then(Json::str) == Some("measure"))
        .expect("measure phase summarized");
    assert!(measure.get("median_ms").and_then(Json::num).unwrap() > 0.0);
    assert!(measure.get("iqr_ms").and_then(Json::num).unwrap() >= 0.0);
    assert!(measure.get("median_events_per_sec").and_then(Json::num).unwrap() > 0.0);
    let min = measure.get("min_ms").and_then(Json::num).expect("min_ms present");
    let max = measure.get("max_ms").and_then(Json::num).expect("max_ms present");
    let avg = measure.get("avg_ms").and_then(Json::num).expect("avg_ms present");
    assert!(min > 0.0 && min <= avg && avg <= max, "min {min} <= avg {avg} <= max {max}");
    std::fs::remove_dir_all(&dir).ok();
}

/// With a settle interval, `--bench N` keeps re-running past N until the
/// minimum stops improving — the summary reports the actual run count.
#[test]
fn bench_settle_phase_extends_the_run_count() {
    let dir = std::env::temp_dir().join(format!("instrep-settle-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bench.json");
    let out = run_env(
        &[
            "--scale",
            "tiny",
            "--only",
            "compress",
            "--table",
            "1",
            "--jobs",
            "1",
            "--bench",
            "1",
            "--metrics-out",
            path.to_str().unwrap(),
        ],
        &[("INSTREP_BENCH_SETTLE_MS", "200")],
    );
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).expect("valid JSON");
    let runs = doc.get("runs").and_then(Json::num).expect("runs present");
    assert!(runs >= 2.0, "the first run sets a minimum, so settling must add a run; got {runs}");
    let err = stderr_of(&out);
    // The first run always sets a new minimum, so a 200ms settle window
    // forces at least one extra (settling) iteration on any machine.
    assert!(err.contains("(settling)"), "stderr: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Metrics collection must not change a byte of table stdout, at any
/// jobs count (the acceptance bar for the observability layer).
#[test]
fn metrics_out_leaves_stdout_byte_identical() {
    let dir = std::env::temp_dir().join(format!("instrep-ident-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut baseline: Option<Vec<u8>> = None;
    for jobs in ["1", "4"] {
        let args = ["--scale", "tiny", "--only", "compress", "--table", "1", "--jobs", jobs];
        let plain = run(&args);
        assert!(plain.status.success(), "stderr: {}", stderr_of(&plain));
        let path = dir.join(format!("m{jobs}.json"));
        let mut with_metrics_args = args.to_vec();
        with_metrics_args.extend_from_slice(&["--metrics-out", path.to_str().unwrap()]);
        let instrumented = run(&with_metrics_args);
        assert!(instrumented.status.success(), "stderr: {}", stderr_of(&instrumented));
        assert_eq!(
            plain.stdout, instrumented.stdout,
            "--metrics-out changed stdout at --jobs {jobs}"
        );
        match &baseline {
            None => baseline = Some(plain.stdout),
            Some(b) => assert_eq!(b, &plain.stdout, "stdout differs between jobs counts"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn interval_flags_must_come_together() {
    for args in [&["--interval", "1000"] as &[&str], &["--interval-out", "i.jsonl"]] {
        let out = run(args);
        assert!(!out.status.success());
        let err = stderr_of(&out);
        assert!(err.contains("--interval and --interval-out must be given together"), "{err}");
    }
}

#[test]
fn zero_interval_fails_with_message() {
    let out = run(&["--interval", "0", "--interval-out", "i.jsonl"]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("--interval must be at least 1"), "stderr: {err}");
}

#[test]
fn bench_excludes_tracing_and_intervals() {
    let out = run(&["--bench", "2", "--metrics-out", "m.json", "--trace-out", "t.json"]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("--bench cannot be combined with --trace-out"), "stderr: {err}");
}

/// The help text is generated from the declarative flag table; pin it
/// in full so any flag addition, removal, or rewording shows up as a
/// reviewed diff.
#[test]
fn help_text_is_pinned() {
    let expected = "\
usage: instrep-repro [options]

Regenerates the tables and figures of \"An Empirical Analysis of
Instruction Repetition\" over the ten SPEC-'95-like workloads.
With no table or figure selection, everything is printed.

options:
  --scale SCALE          measurement scale: tiny, small, or full (default: small)
  --seed N               workload input seed (default: 1998)
  --only BENCH           analyze one benchmark (see --list)
  --jobs N               worker threads (default: available parallelism)
  --interp TIER          interpreter tier: fast (predecoded) or legacy (default: fast)
  --analysis TIER        analysis tier: split, the only one (default: split)
  --table N              print table N (repeatable)
  --figure N             print figure N (repeatable)
  --steady-state         run the steady-state check (paper \u{a7}3)
  --input-check          run the input-sensitivity check (paper \u{a7}3)
  --csv PREFIX           write PREFIX_summary.csv and PREFIX_breakdowns.csv
  --metrics-out PATH     write the phase/throughput metrics JSON to PATH
  --bench N              repeat the analysis N times, summarize into --metrics-out
  --trace-out PATH       write a Chrome trace-event JSON document to PATH
  --interval N           sample each measurement every N instructions
  --interval-out PATH    write the interval series as JSONL to PATH
  --profile-out PATH     write the per-PC repetition profile JSON to PATH
  --profile-folded PATH  write flamegraph-ready collapsed stacks to PATH
  --loops-out PATH       write the loop-nest repetition profile JSON to PATH
  --loops-folded PATH    write loop-nest collapsed stacks to PATH
  --annotate BENCH       print BENCH's source annotated with repetition counts
  --top N                hot sites listed per profile output (default: 10)
  --cache-dir PATH       memoize analysis results in a cache at PATH
  --cache-verify         recompute cache hits and fail on any mismatch
  --heartbeat-out PATH   stream live telemetry heartbeats as JSONL to PATH
  --heartbeat-ms N       wall-clock heartbeat period in milliseconds
  --telemetry-out PATH   write Prometheus-style telemetry exposition to PATH at exit
  --progress             live single-line progress on stderr (TTY only)
  --all                  print every table and figure (the default)
  --list                 list the benchmarks and their SPEC analogs
  --help                 print this help (also -h)
";
    let out = run(&["--help"]);
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected);
    let alias = run(&["-h"]);
    assert!(alias.status.success());
    assert_eq!(String::from_utf8_lossy(&alias.stdout), expected, "-h diverges from --help");
}

#[test]
fn profile_flags_reject_missing_arguments() {
    for (args, msg) in [
        (&["--profile-out"] as &[&str], "--profile-out needs a path"),
        (&["--profile-folded"], "--profile-folded needs a path"),
        (&["--annotate"], "--annotate needs a benchmark name"),
        (&["--top"], "--top needs a site count"),
    ] {
        let out = run(args);
        assert!(!out.status.success(), "{args:?} unexpectedly succeeded");
        let err = stderr_of(&out);
        assert!(err.contains(msg), "{args:?} stderr: {err}");
    }
}

#[test]
fn zero_or_garbage_top_fails_with_message() {
    let out = run(&["--top", "0", "--profile-out", "p.json"]);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("--top must be at least 1"), "{}", stderr_of(&out));
    let out = run(&["--top", "many", "--profile-out", "p.json"]);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("bad top count `many`"), "{}", stderr_of(&out));
}

#[test]
fn top_without_profile_output_fails_with_message() {
    let out = run(&["--top", "5"]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(
        err.contains(
            "--top requires --profile-out, --profile-folded, --loops-out, \
             --loops-folded, or --annotate"
        ),
        "stderr: {err}"
    );
    // --top with only a loops output is legitimate (the redundancy
    // summary is a top-k).
    let out = run(&[
        "--scale",
        "tiny",
        "--only",
        "compress",
        "--table",
        "1",
        "--top",
        "3",
        "--loops-out",
        std::env::temp_dir().join("instrep-top-loops.json").to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    std::fs::remove_file(std::env::temp_dir().join("instrep-top-loops.json")).ok();
}

#[test]
fn bench_excludes_profiling() {
    let out = run(&["--bench", "2", "--metrics-out", "m.json", "--profile-out", "p.json"]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("--bench cannot be combined with --profile-out"), "stderr: {err}");
}

#[test]
fn unknown_annotate_benchmark_fails_with_message() {
    let out = run(&["--annotate", "no-such-bench"]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("unknown benchmark `no-such-bench` for --annotate"), "stderr: {err}");
    // A real benchmark excluded by --only is rejected too.
    let out = run(&["--only", "compress", "--annotate", "li"]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("--annotate li is excluded by the --only filter"), "stderr: {err}");
}

/// `--profile-out` must emit parseable JSON carrying the documented
/// schema version, per-workload totals that match Table 1's aggregates,
/// a top-N list bounded by `--top` and sorted by repeated count, and
/// function/line attribution on every site.
#[test]
fn profile_out_writes_schema_v1_json() {
    let dir = std::env::temp_dir().join(format!("instrep-profile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("profile.json");
    let out = run(&[
        "--scale",
        "tiny",
        "--only",
        "compress",
        "--table",
        "1",
        "--top",
        "5",
        "--profile-out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let text = std::fs::read_to_string(&path).expect("profile file written");
    let doc = Json::parse(&text).expect("profile file is valid JSON");
    assert_eq!(doc.get("schema_version").and_then(Json::num), Some(1.0));
    assert_eq!(doc.get("kind").and_then(Json::str), Some("profile"));
    assert_eq!(doc.get("scale").and_then(Json::str), Some("tiny"));
    assert_eq!(doc.get("top").and_then(Json::num), Some(5.0));
    let workloads = doc.get("workloads").expect("workloads array").items();
    assert_eq!(workloads.len(), 1);
    let wl = &workloads[0];
    assert_eq!(wl.get("name").and_then(Json::str), Some("compress"));
    // Totals match the tiny-scale measurement window.
    assert_eq!(wl.get("dynamic_total").and_then(Json::num), Some(400_000.0));
    let repeated = wl.get("dynamic_repeated").and_then(Json::num).unwrap();
    assert!(repeated > 0.0);

    let top = wl.get("top_sites").expect("top_sites array").items();
    assert_eq!(top.len(), 5, "--top bounds the hot-site list");
    let top_repeats: Vec<f64> =
        top.iter().map(|s| s.get("repeated").and_then(Json::num).unwrap()).collect();
    assert!(top_repeats.windows(2).all(|w| w[0] >= w[1]), "not sorted: {top_repeats:?}");

    let sites = wl.get("sites").expect("sites array").items();
    let exec_sum: f64 = sites.iter().map(|s| s.get("exec").and_then(Json::num).unwrap()).sum();
    let rep_sum: f64 = sites.iter().map(|s| s.get("repeated").and_then(Json::num).unwrap()).sum();
    assert_eq!(exec_sum, 400_000.0, "per-PC exec sums to the aggregate");
    assert_eq!(rep_sum, repeated, "per-PC repeated sums to the aggregate");
    for s in sites {
        assert!(s.get("function").and_then(Json::str).is_some());
        assert!(s.get("line").and_then(Json::num).is_some());
        assert!(s.get("class").and_then(Json::str).is_some());
        assert!(s.get("pc").and_then(Json::str).unwrap().starts_with("0x"));
    }
    // Compiled code carries line provenance on most sites.
    let with_lines =
        sites.iter().filter(|s| s.get("line").and_then(Json::num) != Some(0.0)).count();
    assert!(with_lines * 2 > sites.len(), "{with_lines}/{} sites have lines", sites.len());

    // Rollups conserve the totals too.
    for (key, name_key) in [("functions", "name"), ("classes", "class")] {
        let groups = wl.get(key).expect(key).items();
        let sum: f64 = groups.iter().map(|g| g.get("exec").and_then(Json::num).unwrap()).sum();
        assert_eq!(sum, 400_000.0, "{key} rollup conserves exec");
        assert!(groups.iter().all(|g| g.get(name_key).and_then(Json::str).is_some()));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `--profile-folded` must emit whitespace-clean collapsed stacks with
/// `executed` and `repeated` weightings whose counts sum to the
/// aggregates.
#[test]
fn profile_folded_writes_collapsed_stacks() {
    let dir = std::env::temp_dir().join(format!("instrep-folded-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("profile.folded");
    let out = run(&[
        "--scale",
        "tiny",
        "--only",
        "compress",
        "--table",
        "1",
        "--profile-folded",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let text = std::fs::read_to_string(&path).expect("folded file written");
    assert!(!text.is_empty());
    let mut exec_sum = 0u64;
    for line in text.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("`stack count` shape");
        assert!(!stack.contains(char::is_whitespace), "whitespace in stack: {line}");
        let n: u64 = count.parse().expect("count is an integer");
        assert!(n > 0, "zero-weight line: {line}");
        let frames: Vec<&str> = stack.split(';').collect();
        assert_eq!(frames.len(), 4, "workload;weight;function;pc@line: {line}");
        assert_eq!(frames[0], "compress");
        if frames[1] == "executed" {
            exec_sum += n;
        } else {
            assert_eq!(frames[1], "repeated", "bad weight frame: {line}");
        }
    }
    assert_eq!(exec_sum, 400_000, "executed stacks sum to the measurement window");
    std::fs::remove_dir_all(&dir).ok();
}

/// Profiling must not change a byte of table stdout, and all three
/// profile outputs must be byte-identical across jobs counts.
#[test]
fn profiling_is_deterministic_and_leaves_stdout_identical() {
    let dir = std::env::temp_dir().join(format!("instrep-prof-ident-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut baselines: Option<(Vec<u8>, String, String, Vec<u8>)> = None;
    for jobs in ["1", "4"] {
        let args = ["--scale", "tiny", "--only", "compress", "--table", "1", "--jobs", jobs];
        let plain = run(&args);
        assert!(plain.status.success(), "stderr: {}", stderr_of(&plain));
        let json = dir.join(format!("p{jobs}.json"));
        let folded = dir.join(format!("p{jobs}.folded"));
        let mut profiled_args = args.to_vec();
        profiled_args.extend_from_slice(&[
            "--profile-out",
            json.to_str().unwrap(),
            "--profile-folded",
            folded.to_str().unwrap(),
            "--annotate",
            "compress",
        ]);
        let profiled = run(&profiled_args);
        assert!(profiled.status.success(), "stderr: {}", stderr_of(&profiled));
        // Stdout = tables (identical to the plain run) + the annotate
        // view appended after them.
        assert!(
            profiled.stdout.starts_with(&plain.stdout),
            "profiling changed the tables at --jobs {jobs}"
        );
        let json_text = std::fs::read_to_string(&json).unwrap();
        let folded_text = std::fs::read_to_string(&folded).unwrap();
        match &baselines {
            None => {
                baselines = Some((plain.stdout, json_text, folded_text, profiled.stdout));
            }
            Some((b_plain, b_json, b_folded, b_annotated)) => {
                assert_eq!(b_plain, &plain.stdout, "stdout differs between jobs counts");
                assert_eq!(b_json, &json_text, "profile JSON differs between jobs counts");
                assert_eq!(b_folded, &folded_text, "folded stacks differ between jobs counts");
                assert_eq!(
                    b_annotated, &profiled.stdout,
                    "annotate view differs between jobs counts"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn loops_flags_reject_missing_arguments() {
    for (args, msg) in [
        (&["--loops-out"] as &[&str], "--loops-out needs a path"),
        (&["--loops-folded"], "--loops-folded needs a path"),
    ] {
        let out = run(args);
        assert!(!out.status.success(), "{args:?} unexpectedly succeeded");
        let err = stderr_of(&out);
        assert!(err.contains(msg), "{args:?} stderr: {err}");
    }
}

#[test]
fn bench_excludes_loops_outputs() {
    let out = run(&["--bench", "2", "--metrics-out", "m.json", "--loops-out", "l.json"]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("--bench cannot be combined with --loops-out"), "stderr: {err}");
}

#[test]
fn list_includes_the_loop_diversity_families() {
    let out = run(&["--list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["interp", "stencil"] {
        assert!(stdout.contains(name), "--list missing {name}: {stdout}");
    }
}

/// `--loops-out` must emit parseable JSON carrying the documented schema
/// version, per-loop records with function/line/depth attribution, depth
/// rollups that conserve the measured total, and a redundancy summary
/// consistent with the aggregates. The stencil family must show its full
/// four-deep nest.
#[test]
fn loops_out_writes_schema_v1_json() {
    let dir = std::env::temp_dir().join(format!("instrep-loops-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("loops.json");
    let out = run(&[
        "--scale",
        "tiny",
        "--only",
        "stencil",
        "--table",
        "1",
        "--top",
        "3",
        "--loops-out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let text = std::fs::read_to_string(&path).expect("loops file written");
    let doc = Json::parse(&text).expect("loops file is valid JSON");
    assert_eq!(doc.get("schema_version").and_then(Json::num), Some(1.0));
    assert_eq!(doc.get("kind").and_then(Json::str), Some("loops"));
    assert_eq!(doc.get("scale").and_then(Json::str), Some("tiny"));
    assert_eq!(doc.get("top").and_then(Json::num), Some(3.0));
    let workloads = doc.get("workloads").expect("workloads array").items();
    assert_eq!(workloads.len(), 1);
    let wl = &workloads[0];
    assert_eq!(wl.get("name").and_then(Json::str), Some("stencil"));
    assert_eq!(wl.get("dynamic_total").and_then(Json::num), Some(400_000.0));
    let repeated = wl.get("dynamic_repeated").and_then(Json::num).unwrap();
    assert!(repeated > 0.0);
    assert!(wl.get("max_depth").and_then(Json::num).unwrap() >= 4.0, "stencil nests four deep");
    assert!(wl.get("back_edges").and_then(Json::num).unwrap() > 0.0);

    let loops = wl.get("loops").expect("loops array").items();
    assert!(!loops.is_empty());
    for l in loops {
        assert!(l.get("header").and_then(Json::str).unwrap().starts_with("0x"));
        assert!(l.get("function").and_then(Json::str).is_some());
        assert!(l.get("depth").and_then(Json::num).unwrap() >= 1.0);
        assert!(l.get("trips").and_then(Json::num).unwrap() > 0.0);
        let exec = l.get("exec").and_then(Json::num).unwrap();
        let rep = l.get("repeated").and_then(Json::num).unwrap();
        assert!(rep <= exec, "repeated {rep} > exec {exec}");
        let lo = l.get("line_lo").and_then(Json::num).unwrap();
        let hi = l.get("line_hi").and_then(Json::num).unwrap();
        assert!(lo <= hi, "line span inverted: {lo}..{hi}");
    }

    // Depth rollups (depth 0 = outside any loop) tile the measurement.
    let depths = wl.get("depths").expect("depths array").items();
    let no_loop = wl.get("no_loop_exec").and_then(Json::num).unwrap();
    let depth_exec: f64 = depths.iter().map(|d| d.get("exec").and_then(Json::num).unwrap()).sum();
    assert_eq!(depth_exec, 400_000.0, "depth rollups tile the window");

    // Class rollups cover the loop-attributed share with all six
    // classes named.
    let classes = wl.get("classes").expect("classes array").items();
    assert_eq!(classes.len(), 6);
    let class_exec: f64 = classes.iter().map(|c| c.get("exec").and_then(Json::num).unwrap()).sum();
    assert_eq!(class_exec + no_loop, 400_000.0, "class rollups cover the loop share");

    let red = wl.get("redundancy").expect("redundancy object");
    assert_eq!(red.get("total_repeated").and_then(Json::num), Some(repeated));
    assert_eq!(red.get("top_k").and_then(Json::num), Some(3.0));
    let loop_rep = red.get("loop_repeated").and_then(Json::num).unwrap();
    let top_rep = red.get("top_k_repeated").and_then(Json::num).unwrap();
    assert!(top_rep <= loop_rep && loop_rep <= repeated);
    let cov = red.get("top_k_coverage").and_then(Json::num).unwrap();
    assert!((0.0..=1.0).contains(&cov), "coverage out of range: {cov}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `--loops-folded` must emit whitespace-clean collapsed stacks keyed by
/// loop-nest path whose `executed` counts tile the measurement window.
#[test]
fn loops_folded_writes_collapsed_stacks() {
    let dir = std::env::temp_dir().join(format!("instrep-loops-folded-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("loops.folded");
    let out = run(&[
        "--scale",
        "tiny",
        "--only",
        "stencil",
        "--table",
        "1",
        "--loops-folded",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let text = std::fs::read_to_string(&path).expect("folded file written");
    assert!(!text.is_empty());
    let mut exec_sum = 0u64;
    let mut max_frames = 0;
    for line in text.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("`stack count` shape");
        assert!(!stack.contains(char::is_whitespace), "whitespace in stack: {line}");
        let n: u64 = count.parse().expect("count is an integer");
        assert!(n > 0, "zero-weight line: {line}");
        let frames: Vec<&str> = stack.split(';').collect();
        assert!(frames.len() >= 3, "workload;weight;nest...: {line}");
        assert_eq!(frames[0], "stencil");
        max_frames = max_frames.max(frames.len());
        if frames[1] == "executed" {
            exec_sum += n;
        } else {
            assert_eq!(frames[1], "repeated", "bad weight frame: {line}");
        }
    }
    assert_eq!(exec_sum, 400_000, "executed stacks tile the measurement window");
    // The four-deep nest shows as at least workload;weight;l1;l2;l3;l4.
    assert!(max_frames >= 6, "no deep stacks: max {max_frames} frames");
    std::fs::remove_dir_all(&dir).ok();
}

/// The loop probe must not change a byte of table stdout, and both loop
/// outputs must be byte-identical across jobs counts.
#[test]
fn loop_outputs_are_deterministic_and_leave_stdout_identical() {
    let dir = std::env::temp_dir().join(format!("instrep-loops-ident-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut baselines: Option<(Vec<u8>, String, String)> = None;
    for jobs in ["1", "4"] {
        let args = ["--scale", "tiny", "--only", "interp", "--table", "1", "--jobs", jobs];
        let plain = run(&args);
        assert!(plain.status.success(), "stderr: {}", stderr_of(&plain));
        let json = dir.join(format!("l{jobs}.json"));
        let folded = dir.join(format!("l{jobs}.folded"));
        let mut probed_args = args.to_vec();
        probed_args.extend_from_slice(&[
            "--loops-out",
            json.to_str().unwrap(),
            "--loops-folded",
            folded.to_str().unwrap(),
        ]);
        let probed = run(&probed_args);
        assert!(probed.status.success(), "stderr: {}", stderr_of(&probed));
        assert_eq!(plain.stdout, probed.stdout, "loop probe changed stdout at --jobs {jobs}");
        let json_text = std::fs::read_to_string(&json).unwrap();
        let folded_text = std::fs::read_to_string(&folded).unwrap();
        match &baselines {
            None => baselines = Some((plain.stdout, json_text, folded_text)),
            Some((b_plain, b_json, b_folded)) => {
                assert_eq!(b_plain, &plain.stdout, "stdout differs (jobs {jobs})");
                assert_eq!(b_json, &json_text, "loops JSON differs (jobs {jobs})");
                assert_eq!(b_folded, &folded_text, "loop stacks differ (jobs {jobs})");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every pair of spans on one lane must nest or be disjoint — the
/// guarantee the LIFO close discipline makes.
fn assert_strictly_nested(tid: f64, spans: &[(f64, f64)]) {
    for (i, a) in spans.iter().enumerate() {
        for b in &spans[i + 1..] {
            let disjoint = a.1 <= b.0 || b.1 <= a.0;
            let a_in_b = b.0 <= a.0 && a.1 <= b.1;
            let b_in_a = a.0 <= b.0 && b.1 <= a.1;
            assert!(
                disjoint || a_in_b || b_in_a,
                "spans {a:?} and {b:?} on lane {tid} partially overlap"
            );
        }
    }
}

/// `--trace-out` must emit a schema-v1 Chrome trace-event document with
/// one span per pipeline phase of every workload, build and render
/// spans on the driver lane, strictly nested spans per lane, and
/// chronological phase timestamps in file order.
#[test]
fn trace_out_writes_schema_v1_chrome_trace() {
    let dir = std::env::temp_dir().join(format!("instrep-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.json");
    let out = run(&[
        "--scale",
        "tiny",
        "--table",
        "1",
        "--jobs",
        "2",
        "--trace-out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let text = std::fs::read_to_string(&path).expect("trace file written");
    let doc = Json::parse(&text).expect("trace file is valid JSON");
    assert_eq!(doc.get("schema_version").and_then(Json::num), Some(1.0));
    assert_eq!(doc.get("kind").and_then(Json::str), Some("trace"));
    let events = doc.get("traceEvents").expect("traceEvents array").items();

    // Lane names cover the driver and both workers.
    let thread_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::str) == Some("thread_name"))
        .map(|e| e.get("args").unwrap().get("name").and_then(Json::str).unwrap())
        .collect();
    for name in ["main", "worker-0", "worker-1"] {
        assert!(thread_names.contains(&name), "missing thread_name {name}: {thread_names:?}");
    }

    let spans: Vec<&Json> =
        events.iter().filter(|e| e.get("ph").and_then(Json::str) == Some("X")).collect();
    let named = |cat: &str, name: &str| {
        spans
            .iter()
            .filter(|s| {
                s.get("cat").and_then(Json::str) == Some(cat)
                    && s.get("name").and_then(Json::str) == Some(name)
            })
            .count()
    };
    // One span per pipeline phase per workload (10 workloads at tiny).
    for phase in ["setup", "skip", "measure", "finalize"] {
        assert_eq!(named("phase", phase), 10, "phase {phase}");
    }
    // The driver lane wraps compile + assemble per workload, the
    // analysis fan-out, and table rendering.
    assert_eq!(named("build", "compile: compress"), 1);
    assert_eq!(named("build", "assemble: compress"), 1);
    assert_eq!(named("phase", "analyze"), 1);
    assert_eq!(named("report", "render"), 1);
    assert_eq!(named("workload", "compress"), 1);

    // Every workload span runs on a worker lane, and with 2 jobs both
    // workers take work.
    let worker_tids: std::collections::BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.get("cat").and_then(Json::str) == Some("workload"))
        .map(|s| s.get("tid").and_then(Json::num).unwrap() as u64)
        .collect();
    assert!(worker_tids.iter().all(|t| *t >= 1), "workload spans on driver lane: {worker_tids:?}");
    assert_eq!(worker_tids.len(), 2, "both workers traced: {worker_tids:?}");

    // Per lane: strict nesting, and phase spans chronological in file
    // order (workers claim jobs in increasing cursor order).
    let tids: std::collections::BTreeSet<u64> =
        spans.iter().map(|s| s.get("tid").and_then(Json::num).unwrap() as u64).collect();
    for tid in tids {
        let lane: Vec<&&Json> =
            spans.iter().filter(|s| s.get("tid").and_then(Json::num) == Some(tid as f64)).collect();
        let intervals: Vec<(f64, f64)> = lane
            .iter()
            .map(|s| {
                let ts = s.get("ts").and_then(Json::num).unwrap();
                (ts, ts + s.get("dur").and_then(Json::num).unwrap())
            })
            .collect();
        assert_strictly_nested(tid as f64, &intervals);
        let phase_ts: Vec<f64> = lane
            .iter()
            .filter(|s| s.get("cat").and_then(Json::str) == Some("phase"))
            .map(|s| s.get("ts").and_then(Json::num).unwrap())
            .collect();
        assert!(
            phase_ts.windows(2).all(|w| w[0] <= w[1]),
            "phase timestamps not monotonic on lane {tid}: {phase_ts:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `--interval-out` must emit a JSONL series whose header carries the
/// schema version and whose windows close at exact multiples of the
/// interval, with only the final window flagged partial.
#[test]
fn interval_out_writes_jsonl_series() {
    let dir = std::env::temp_dir().join(format!("instrep-interval-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("series.jsonl");
    // 400_000 measured instructions / 7000 = 57 full windows + a 1000-
    // instruction partial tail.
    let out = run(&[
        "--scale",
        "tiny",
        "--only",
        "compress",
        "--table",
        "1",
        "--interval",
        "7000",
        "--interval-out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let text = std::fs::read_to_string(&path).expect("interval file written");
    let lines: Vec<Json> =
        text.lines().map(|l| Json::parse(l).expect("each line is valid JSON")).collect();
    let header = &lines[0];
    assert_eq!(header.get("schema_version").and_then(Json::num), Some(1.0));
    assert_eq!(header.get("kind").and_then(Json::str), Some("intervals"));
    assert_eq!(header.get("scale").and_then(Json::str), Some("tiny"));
    assert_eq!(header.get("interval").and_then(Json::num), Some(7000.0));

    let windows = &lines[1..];
    assert_eq!(windows.len(), 58, "57 full windows + 1 partial");
    let mut insns_total = 0.0;
    for (i, w) in windows.iter().enumerate() {
        assert_eq!(w.get("workload").and_then(Json::str), Some("compress"));
        assert_eq!(w.get("window").and_then(Json::num), Some((i + 1) as f64));
        let end = w.get("end").and_then(Json::num).unwrap();
        let insns = w.get("insns").and_then(Json::num).unwrap();
        let partial = w.get("partial").and_then(Json::bool).unwrap();
        insns_total += insns;
        if i < windows.len() - 1 {
            assert!(!partial, "window {} partial", i + 1);
            assert_eq!(insns, 7000.0);
            assert_eq!(end % 7000.0, 0.0, "window {} ends at {end}", i + 1);
        } else {
            assert!(partial, "final window not flagged partial");
            assert_eq!(insns, 1000.0);
        }
        assert!(w.get("repeat_frac").and_then(Json::num).unwrap() <= 1.0);
        assert!(w.get("reuse_hit_frac").and_then(Json::num).is_some());
        assert!(w.get("occupancy").and_then(Json::num).is_some());
        assert!(w.get("unique_growth").and_then(Json::num).is_some());
    }
    assert_eq!(insns_total, 400_000.0, "windows tile the whole measurement");
    std::fs::remove_dir_all(&dir).ok();
}

/// Tracing and interval sampling must not change a byte of table
/// stdout at any jobs count, and the interval windows themselves must
/// be identical across jobs counts (full determinism).
#[test]
fn tracing_leaves_stdout_byte_identical() {
    let dir = std::env::temp_dir().join(format!("instrep-trace-ident-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut baseline_stdout: Option<Vec<u8>> = None;
    let mut baseline_windows: Option<String> = None;
    for jobs in ["1", "4"] {
        let args = ["--scale", "tiny", "--only", "compress", "--table", "1", "--jobs", jobs];
        let plain = run(&args);
        assert!(plain.status.success(), "stderr: {}", stderr_of(&plain));
        let trace = dir.join(format!("t{jobs}.json"));
        let series = dir.join(format!("i{jobs}.jsonl"));
        let mut traced_args = args.to_vec();
        traced_args.extend_from_slice(&[
            "--trace-out",
            trace.to_str().unwrap(),
            "--interval",
            "1000",
            "--interval-out",
            series.to_str().unwrap(),
        ]);
        let traced = run(&traced_args);
        assert!(traced.status.success(), "stderr: {}", stderr_of(&traced));
        assert_eq!(plain.stdout, traced.stdout, "tracing changed stdout at --jobs {jobs}");
        // The window lines (everything after the header, which records
        // the jobs count) are deterministic across jobs counts.
        let text = std::fs::read_to_string(&series).unwrap();
        let windows = text.split_once('\n').expect("header + windows").1.to_string();
        assert!(!windows.is_empty());
        match (&baseline_stdout, &baseline_windows) {
            (None, _) => {
                baseline_stdout = Some(plain.stdout);
                baseline_windows = Some(windows);
            }
            (Some(b), Some(w)) => {
                assert_eq!(b, &plain.stdout, "stdout differs between jobs counts");
                assert_eq!(w, &windows, "interval windows differ between jobs counts");
            }
            _ => unreachable!(),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_flags_reject_bad_usage() {
    let out = run(&["--cache-dir"]);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("--cache-dir needs a path"), "{}", stderr_of(&out));
    let out = run(&["--cache-verify"]);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("--cache-verify requires --cache-dir"), "{}", stderr_of(&out));
    let out = run(&["--bench", "2", "--metrics-out", "m.json", "--cache-dir", "c"]);
    assert!(!out.status.success());
    assert!(
        stderr_of(&out).contains("--bench cannot be combined with --cache-dir"),
        "{}",
        stderr_of(&out)
    );
}

/// `--cache-dir` must never change a byte of table stdout — not on the
/// populating run, not on warm runs, not at any jobs count — and a warm
/// run must execute zero measured instructions: its metrics phases are
/// exactly `build` + `cache` with no events and no simulator gauges.
#[test]
fn cached_runs_are_byte_identical_and_execute_nothing() {
    let dir = std::env::temp_dir().join(format!("instrep-cache-ident-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cache = dir.join("cache");
    let mut baseline: Option<Vec<u8>> = None;
    for jobs in ["1", "4"] {
        let args = ["--scale", "tiny", "--only", "compress", "--table", "1", "--jobs", jobs];
        let plain = run(&args);
        assert!(plain.status.success(), "stderr: {}", stderr_of(&plain));
        let mut cached_args = args.to_vec();
        cached_args.extend_from_slice(&["--cache-dir", cache.to_str().unwrap()]);
        // First cached run at --jobs 1 populates; every later run hits.
        let cold = run(&cached_args);
        assert!(cold.status.success(), "stderr: {}", stderr_of(&cold));
        assert_eq!(plain.stdout, cold.stdout, "--cache-dir changed stdout at --jobs {jobs}");
        let warm = run(&cached_args);
        assert!(warm.status.success(), "stderr: {}", stderr_of(&warm));
        assert_eq!(plain.stdout, warm.stdout, "warm cache changed stdout at --jobs {jobs}");

        let mpath = dir.join(format!("m{jobs}.json"));
        let mut metrics_args = cached_args.clone();
        metrics_args.extend_from_slice(&["--metrics-out", mpath.to_str().unwrap()]);
        let measured = run(&metrics_args);
        assert!(measured.status.success(), "stderr: {}", stderr_of(&measured));
        assert_eq!(plain.stdout, measured.stdout, "metrics+cache changed stdout");
        let doc = Json::parse(&std::fs::read_to_string(&mpath).unwrap()).expect("valid JSON");
        let wl = &doc.get("workloads").expect("workloads").items()[0];
        let phases = wl.get("phases").expect("phases").items();
        let names: Vec<&str> =
            phases.iter().map(|p| p.get("name").and_then(Json::str).unwrap()).collect();
        assert_eq!(names, ["build", "cache"], "a hit must not run any pipeline phase");
        let events: f64 = phases.iter().map(|p| p.get("events").and_then(Json::num).unwrap()).sum();
        assert_eq!(events, 0.0, "a hit executes zero measured instructions");
        match wl.get("gauges") {
            Some(Json::Obj(gauges)) => {
                assert!(gauges.is_empty(), "no simulator ran, so no gauges: {gauges:?}");
            }
            other => panic!("gauges must be an object, got {other:?}"),
        }

        match &baseline {
            None => baseline = Some(plain.stdout),
            Some(b) => assert_eq!(b, &plain.stdout, "stdout differs between jobs counts"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `--cache-verify` must recompute hits and fail loudly on an entry
/// that parses cleanly but carries the wrong analysis — the case the
/// checksum alone cannot catch.
#[test]
fn cache_verify_catches_a_poisoned_entry() {
    use std::hash::Hasher;

    use instrep_core::{FxHasher, ENTRY_PAYLOAD_OFFSET};

    let dir = std::env::temp_dir().join(format!("instrep-cache-poison-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cache = dir.join("cache");
    let args = [
        "--scale",
        "tiny",
        "--only",
        "compress",
        "--table",
        "1",
        "--cache-dir",
        cache.to_str().unwrap(),
    ];
    let cold = run(&args);
    assert!(cold.status.success(), "stderr: {}", stderr_of(&cold));

    // Poison the one entry: flip a payload byte and recompute the
    // trailing checksum so the file still parses as a valid entry.
    let entry = std::fs::read_dir(&cache)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "bin"))
        .expect("cold run stored an entry");
    let mut bytes = std::fs::read(&entry).unwrap();
    bytes[ENTRY_PAYLOAD_OFFSET + 2] ^= 0xff;
    let payload_end = bytes.len() - 8;
    let mut h = FxHasher::default();
    h.write(&bytes[ENTRY_PAYLOAD_OFFSET..payload_end]);
    let sum = h.finish().to_le_bytes();
    bytes[payload_end..].copy_from_slice(&sum);
    std::fs::write(&entry, &bytes).unwrap();

    // A plain warm run trusts the well-formed entry...
    let warm = run(&args);
    assert!(warm.status.success(), "stderr: {}", stderr_of(&warm));
    // ...but verify mode recomputes, catches the lie, and fails.
    let mut verify_args = args.to_vec();
    verify_args.push("--cache-verify");
    let verified = run(&verify_args);
    assert!(!verified.status.success(), "--cache-verify accepted a poisoned entry");
    let err = stderr_of(&verified);
    assert!(err.contains("cache verify failed for compress"), "stderr: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_interp_tier_fails_with_message() {
    let out = run(&["--interp", "jit"]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("unknown interpreter tier `jit`"), "stderr: {err}");
    let out = run(&["--interp"]);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("--interp needs a tier"), "{}", stderr_of(&out));
}

/// The legacy interpreter must print the same bytes as the predecoded
/// tier — tier selection is a performance knob, never a result knob.
#[test]
fn interp_tiers_print_byte_identical_tables() {
    let args = ["--scale", "tiny", "--only", "compress", "--jobs", "2"];
    let fast = run(&args);
    assert!(fast.status.success(), "stderr: {}", stderr_of(&fast));
    for tier in ["fast", "legacy"] {
        let mut tier_args = args.to_vec();
        tier_args.extend_from_slice(&["--interp", tier]);
        let out = run(&tier_args);
        assert!(out.status.success(), "stderr: {}", stderr_of(&out));
        assert_eq!(fast.stdout, out.stdout, "--interp {tier} changed table stdout");
    }
}

#[test]
fn unknown_analysis_tier_fails_with_message() {
    let out = run(&["--analysis", "quantum"]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("unknown analysis tier `quantum`"), "stderr: {err}");
    let out = run(&["--analysis"]);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("--analysis needs a tier"), "{}", stderr_of(&out));
}

#[test]
fn tiny_parallel_table_run_succeeds() {
    let out = run(&["--scale", "tiny", "--table", "1", "--jobs", "2"]);
    let err = stderr_of(&out);
    assert!(out.status.success(), "stderr: {err}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Table 1"), "stdout: {stdout}");
    // Table-only selection must not drag in the other reports.
    assert!(!stdout.contains("Table 2"), "stdout: {stdout}");
}

#[test]
fn heartbeat_flags_must_come_together() {
    for args in [&["--heartbeat-out", "hb.jsonl"] as &[&str], &["--heartbeat-ms", "10"]] {
        let out = run(args);
        assert!(!out.status.success(), "{args:?} unexpectedly succeeded");
        let err = stderr_of(&out);
        assert!(err.contains("--heartbeat-out and --heartbeat-ms must be given together"), "{err}");
    }
}

#[test]
fn zero_or_garbage_heartbeat_period_fails_with_message() {
    let out = run(&["--heartbeat-out", "hb.jsonl", "--heartbeat-ms", "0"]);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("--heartbeat-ms must be at least 1"), "{}", stderr_of(&out));
    let out = run(&["--heartbeat-out", "hb.jsonl", "--heartbeat-ms", "soon"]);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("bad heartbeat period `soon`"), "{}", stderr_of(&out));
}

#[test]
fn bench_excludes_telemetry_outputs() {
    for extra in [
        &["--heartbeat-out", "hb.jsonl", "--heartbeat-ms", "10"] as &[&str],
        &["--telemetry-out", "t.txt"],
        &["--progress"],
    ] {
        let mut args = vec!["--bench", "2", "--metrics-out", "m.json"];
        args.extend_from_slice(extra);
        let out = run(&args);
        assert!(!out.status.success(), "{args:?} unexpectedly succeeded");
        let err = stderr_of(&out);
        assert!(
            err.contains(
                "--bench cannot be combined with --heartbeat-out, --telemetry-out, or --progress"
            ),
            "{args:?} stderr: {err}"
        );
    }
}

/// `--progress` must degrade to a no-op when stderr is not a terminal
/// (as in this test harness): the run succeeds and stderr carries no
/// carriage-return progress repaints.
#[test]
fn progress_degrades_silently_without_a_tty() {
    let out = run(&["--scale", "tiny", "--only", "compress", "--table", "1", "--progress"]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(!err.contains('\r'), "piped stderr must not see progress repaints: {err:?}");
    assert!(!err.contains("telemetry:"), "piped stderr must not see progress lines: {err:?}");
}

/// The full telemetry stack — heartbeat stream, exposition file, and
/// progress flag — must not change a byte of table stdout, at any jobs
/// count (the acceptance bar for the observability layer).
#[test]
fn telemetry_outputs_leave_stdout_byte_identical() {
    let dir = std::env::temp_dir().join(format!("instrep-telem-ident-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for jobs in ["1", "4"] {
        let args = ["--scale", "tiny", "--only", "compress", "--table", "1", "--jobs", jobs];
        let plain = run(&args);
        assert!(plain.status.success(), "stderr: {}", stderr_of(&plain));
        let hb = dir.join(format!("hb{jobs}.jsonl"));
        let telem = dir.join(format!("telem{jobs}.txt"));
        let mut instrumented_args = args.to_vec();
        instrumented_args.extend_from_slice(&[
            "--heartbeat-out",
            hb.to_str().unwrap(),
            "--heartbeat-ms",
            "10",
            "--telemetry-out",
            telem.to_str().unwrap(),
            "--progress",
        ]);
        let instrumented = run(&instrumented_args);
        assert!(instrumented.status.success(), "stderr: {}", stderr_of(&instrumented));
        assert_eq!(
            plain.stdout, instrumented.stdout,
            "telemetry outputs changed stdout at --jobs {jobs}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The heartbeat stream must be parseable JSONL: a schema-v1 header,
/// then at least one beat with increasing sequence numbers and per-lane
/// instruction counts that never move backwards.
#[test]
fn heartbeat_stream_is_schema_v1_jsonl_with_monotone_lanes() {
    let dir = std::env::temp_dir().join(format!("instrep-heartbeat-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("hb.jsonl");
    let out = run(&[
        "--scale",
        "tiny",
        "--only",
        "compress",
        "--table",
        "1",
        "--jobs",
        "2",
        "--heartbeat-out",
        path.to_str().unwrap(),
        "--heartbeat-ms",
        "10",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let text = std::fs::read_to_string(&path).expect("heartbeat file written");
    let lines: Vec<Json> = text
        .lines()
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("bad heartbeat line ({e:?}): {l}")))
        .collect();
    assert!(lines.len() >= 2, "expected a header plus at least one beat: {text}");
    let header = &lines[0];
    assert_eq!(header.get("schema_version").and_then(Json::num), Some(1.0));
    assert_eq!(header.get("kind").and_then(Json::str), Some("heartbeats"));
    assert_eq!(header.get("period_ms").and_then(Json::num), Some(10.0));
    let mut last_seq = 0.0;
    let mut last_icount: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
    let mut last_elapsed = 0.0;
    for beat in &lines[1..] {
        assert_eq!(beat.get("kind").and_then(Json::str), Some("heartbeat"));
        let seq = beat.get("seq").and_then(Json::num).expect("seq");
        assert!(seq > last_seq, "sequence numbers must increase: {seq} after {last_seq}");
        last_seq = seq;
        let elapsed = beat.get("elapsed_ms").and_then(Json::num).expect("elapsed_ms");
        assert!(elapsed >= last_elapsed, "elapsed must not go backwards");
        last_elapsed = elapsed;
        assert!(beat.get("counters").is_some(), "beats carry a counters object");
        for lane in beat.get("lanes").expect("lanes array").items() {
            let id = lane.get("lane").and_then(Json::num).expect("lane id") as u64;
            let icount = lane.get("icount").and_then(Json::num).expect("icount");
            assert!(icount >= 0.0);
            let prev = last_icount.insert(id, icount).unwrap_or(0.0);
            assert!(icount >= prev, "lane {id} icount moved backwards: {icount} after {prev}");
            assert!(lane.get("phase").and_then(Json::str).is_some(), "lanes carry a phase");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A warm-cache run with `--telemetry-out` must expose nonzero hit
/// counters and lookup-latency histogram counts in the exposition file.
#[test]
fn warm_cache_exposition_shows_hits_and_lookup_latency() {
    let dir = std::env::temp_dir().join(format!("instrep-telem-cache-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cache_dir = dir.join("cache");
    let telem = dir.join("telem.txt");
    let base = [
        "--scale",
        "tiny",
        "--only",
        "compress",
        "--table",
        "1",
        "--cache-dir",
        cache_dir.to_str().unwrap(),
    ];
    let cold = run(&base);
    assert!(cold.status.success(), "stderr: {}", stderr_of(&cold));
    let mut warm_args = base.to_vec();
    warm_args.extend_from_slice(&["--telemetry-out", telem.to_str().unwrap()]);
    let warm = run(&warm_args);
    assert!(warm.status.success(), "stderr: {}", stderr_of(&warm));
    let text = std::fs::read_to_string(&telem).expect("exposition file written");
    let metric = |name: &str| -> f64 {
        text.lines()
            .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.trim().parse().ok()))
            .unwrap_or_else(|| panic!("metric {name} missing from exposition:\n{text}"))
    };
    assert!(metric("instrep_cache_hit") > 0.0, "warm run must record cache hits");
    assert!(metric("instrep_cache_lookup_ns_count") > 0.0, "lookups must land in the histogram");
    assert!(metric("instrep_cache_miss") == 0.0, "warm run must not miss");
    assert!(text.contains("# TYPE instrep_cache_lookup_ns histogram"), "histogram typed: {text}");
    std::fs::remove_dir_all(&dir).ok();
}

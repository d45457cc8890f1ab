//! Golden-snapshot tests: the full `instrep-repro` table output for the
//! pinned workloads, and the profile, loops and interval exports of one
//! `interp` run, are compared byte-for-byte against files under
//! `tests/golden/`. Any intended change to a table layout, an export, an
//! analysis, or a workload shows up here as a diff to review; regenerate
//! with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p instrep-repro --test golden
//! ```
//!
//! Tables are pinned from stdout (stderr carries wall-clock timings),
//! exports from the files written. The runs use `--jobs 2`, and one case
//! is re-run at `--jobs 1` to hold the pipeline to its determinism
//! contract: identical bytes for every jobs count.

use std::path::PathBuf;
use std::process::Command;

/// Pinned snapshot cases: golden file stem → full CLI argument list.
const CASES: &[(&str, &[&str])] = &[
    ("compress_tiny", &["--scale", "tiny", "--seed", "1998", "--jobs", "2", "--only", "compress"]),
    ("li_tiny", &["--scale", "tiny", "--seed", "1998", "--jobs", "2", "--only", "li"]),
    // The loop-diversity families: one flat dispatch loop and one
    // four-deep nest, pinned the same way as the Table-1 workloads.
    ("interp_tiny", &["--scale", "tiny", "--seed", "1998", "--jobs", "2", "--only", "interp"]),
    ("stencil_tiny", &["--scale", "tiny", "--seed", "1998", "--jobs", "2", "--only", "stencil"]),
    // The annotated source view: per-line exec/repeat attribution for
    // one pinned workload (--table 1 keeps the snapshot focused).
    (
        "annotate_compress_tiny",
        &[
            "--scale",
            "tiny",
            "--seed",
            "1998",
            "--jobs",
            "2",
            "--only",
            "compress",
            "--table",
            "1",
            "--annotate",
            "compress",
        ],
    ),
];

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{name}.txt"))
}

fn run_stdout(args: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_instrep-repro"))
        .args(args)
        .output()
        .expect("spawn instrep-repro");
    assert!(
        out.status.success(),
        "instrep-repro {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// Panics with the first differing line so a snapshot break is readable
/// without an external diff tool.
fn assert_bytes_match(name: &str, got: &[u8], want: &[u8]) {
    if got == want {
        return;
    }
    let got_s = String::from_utf8_lossy(got);
    let want_s = String::from_utf8_lossy(want);
    for (i, (g, w)) in got_s.lines().zip(want_s.lines()).enumerate() {
        assert_eq!(
            g,
            w,
            "golden snapshot `{name}` diverges at line {} (regenerate with UPDATE_GOLDEN=1 \
             if the change is intended)",
            i + 1
        );
    }
    panic!(
        "golden snapshot `{name}`: output lengths differ ({} vs {} bytes) \
         (regenerate with UPDATE_GOLDEN=1 if the change is intended)",
        got.len(),
        want.len()
    );
}

#[test]
fn full_output_matches_golden_snapshots() {
    for (name, args) in CASES {
        let stdout = run_stdout(args);
        let path = golden_path(name);
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(&path, &stdout).expect("write golden file");
            continue;
        }
        let want = std::fs::read(&path).unwrap_or_else(|e| {
            panic!("missing golden file {} ({e}); generate it with UPDATE_GOLDEN=1", path.display())
        });
        assert_bytes_match(name, &stdout, &want);
    }
}

#[test]
fn snapshot_is_independent_of_jobs_count() {
    let (name, args) = CASES[0];
    let mut serial: Vec<&str> = args.to_vec();
    let pos = serial.iter().position(|a| *a == "--jobs").expect("case pins --jobs");
    serial[pos + 1] = "1";
    let stdout = run_stdout(&serial);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        return; // the other test just rewrote the file from --jobs 2
    }
    let want = std::fs::read(golden_path(name)).expect("golden file exists");
    assert_bytes_match(name, &stdout, &want);
}

/// The probe exports of one pinned run, each compared byte-for-byte with
/// its file under `tests/golden/`: `--profile-out`, `--loops-out` and
/// `--interval-out` of the flat-dispatch `interp` family.
#[test]
fn probe_exports_match_golden_files() {
    let dir = std::env::temp_dir().join(format!("instrep-golden-exports-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let files = [
        ("--profile-out", "interp_tiny_profile.json"),
        ("--loops-out", "interp_tiny_loops.json"),
        ("--interval-out", "interp_tiny_intervals.jsonl"),
    ];
    let outs: Vec<PathBuf> = files.iter().map(|(_, name)| dir.join(name)).collect();
    let mut args = vec![
        "--scale",
        "tiny",
        "--seed",
        "1998",
        "--jobs",
        "2",
        "--only",
        "interp",
        "--interval",
        "50000",
    ];
    for ((flag, _), out) in files.iter().zip(&outs) {
        args.extend([*flag, out.to_str().unwrap()]);
    }
    run_stdout(&args);
    for ((_, name), out) in files.iter().zip(&outs) {
        let got = std::fs::read(out).expect("export written");
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(&path, &got).expect("write golden file");
            continue;
        }
        let want = std::fs::read(&path).unwrap_or_else(|e| {
            panic!("missing golden file {} ({e}); generate it with UPDATE_GOLDEN=1", path.display())
        });
        assert_bytes_match(name, &got, &want);
    }
    std::fs::remove_dir_all(&dir).ok();
}

//! The paper's §2 definitions, written as plainly as possible, as the
//! oracle for the production observers.
//!
//! A dynamic instruction *repeats* when an earlier instance of the same
//! static instruction had the same inputs and the same outcome; each
//! static instruction remembers at most `max_instances` unique
//! instances. The reuse buffer (§7, Table 10) is set-associative with
//! LRU replacement. Both are recomputed here from a recorded
//! `sim::Trace` with linear scans over plain `Vec`s, and compared with
//! what `Session::run_one` reports for the same program and window.
//!
//! A proptest-gated case extends the check to randomly parameterized
//! MiniC programs; run it with
//! `cargo test -p instrep-workloads --features proptest`.

use instrep_asm::Image;
use instrep_core::{AnalysisConfig, Coverage, ReuseStats, Session, TrackerConfig};
use instrep_sim::{Event, Machine, Trace};
use instrep_workloads::{all, Scale};

/// Tiny-scale analysis windows (mirroring `instrep-repro --scale tiny`).
const SKIP: u64 = 20_000;
const WINDOW: u64 = 400_000;

/// One remembered instance: inputs, outcome, and how often it repeated.
struct Instance {
    in1: u32,
    in2: u32,
    outcome: u32,
    repeats: u64,
}

/// What the spec remembers about one static instruction.
#[derive(Default)]
struct Static {
    instances: Vec<Instance>,
    exec: u64,
    repeated: u64,
}

/// One reuse-buffer way.
struct Way {
    pc: u32,
    in1: u32,
    in2: u32,
    outcome: u32,
    last_used: u64,
}

/// The spec's numbers for one measured window.
struct Spec {
    statics: Vec<Static>,
    reuse: ReuseStats,
}

impl Spec {
    fn run(measured: &[Event], static_total: usize, cfg: &AnalysisConfig) -> Spec {
        let mut statics: Vec<Static> = (0..static_total).map(|_| Static::default()).collect();
        let sets = cfg.reuse.entries / cfg.reuse.ways;
        let mut buffer: Vec<Vec<Way>> = (0..sets).map(|_| Vec::new()).collect();
        let mut reuse = ReuseStats::default();

        for (now, ev) in measured.iter().enumerate() {
            let outcome = ev.outcome();

            // Repetition: scan the static instruction's instances.
            let s = &mut statics[ev.index as usize];
            s.exec += 1;
            let found = s
                .instances
                .iter_mut()
                .find(|i| i.in1 == ev.in1 && i.in2 == ev.in2 && i.outcome == outcome);
            let repeated = match found {
                Some(i) => {
                    i.repeats += 1;
                    s.repeated += 1;
                    true
                }
                None => {
                    if s.instances.len() < cfg.tracker.max_instances {
                        s.instances.push(Instance {
                            in1: ev.in1,
                            in2: ev.in2,
                            outcome,
                            repeats: 0,
                        });
                    }
                    false
                }
            };

            // Reuse: scan the PC's set. A match on PC and inputs with a
            // changed outcome is a stale entry: refreshed, not a hit.
            reuse.total += 1;
            if repeated {
                reuse.repeated_total += 1;
            }
            let now = now as u64;
            let set = &mut buffer[(ev.pc as usize >> 2) % sets];
            match set.iter_mut().find(|w| w.pc == ev.pc && w.in1 == ev.in1 && w.in2 == ev.in2) {
                Some(w) if w.outcome == outcome => {
                    w.last_used = now;
                    reuse.hits += 1;
                    if repeated {
                        reuse.repeated_hits += 1;
                    }
                }
                Some(w) => {
                    w.outcome = outcome;
                    w.last_used = now;
                    reuse.stale += 1;
                }
                None => {
                    let way = Way { pc: ev.pc, in1: ev.in1, in2: ev.in2, outcome, last_used: now };
                    if set.len() < cfg.reuse.ways {
                        set.push(way);
                    } else {
                        let lru = (0..set.len()).min_by_key(|&i| set[i].last_used).unwrap();
                        set[lru] = way;
                    }
                }
            }
        }
        Spec { statics, reuse }
    }

    fn executed(&self) -> impl Iterator<Item = &Static> {
        self.statics.iter().filter(|s| s.exec > 0)
    }

    /// Unique repeatable instances of one static instruction.
    fn unique_repeatable(s: &Static) -> u64 {
        s.instances.iter().filter(|i| i.repeats > 0).count() as u64
    }

    /// Figure 3: share of repetition by the unique-repeatable-instance
    /// count of its static instruction.
    fn instance_histogram(&self) -> [f64; 5] {
        let mut sums = [0u64; 5];
        for s in self.executed().filter(|s| s.repeated > 0) {
            let bucket = match Spec::unique_repeatable(s) {
                1 => 0,
                2..=10 => 1,
                11..=100 => 2,
                101..=1000 => 3,
                _ => 4,
            };
            sums[bucket] += s.repeated;
        }
        let total: u64 = sums.iter().sum();
        if total == 0 {
            return [0.0; 5];
        }
        sums.map(|s| s as f64 / total as f64)
    }
}

/// Runs `image` through the spec and through `Session::run_one`, and
/// asserts that they agree.
fn check(label: &str, image: &Image, input: Vec<u8>, cfg: AnalysisConfig) {
    let report = Session::new(cfg).run_one(image, input.clone()).expect("program analyzes").report;

    let mut m = Machine::new(image);
    m.set_input(input);
    let trace = Trace::record(&mut m, cfg.skip + cfg.window).expect("program records");
    let measured = &trace.events()[(cfg.skip as usize).min(trace.len())..];
    let spec = Spec::run(measured, image.text.len(), &cfg);

    let repeated: u64 = spec.executed().map(|s| s.repeated).sum();
    let unique: u64 = spec.executed().map(Spec::unique_repeatable).sum();
    assert_eq!(report.dynamic_total, measured.len() as u64, "{label}: dynamic total");
    assert_eq!(report.dynamic_repeated, repeated, "{label}: dynamic repeated");
    assert_eq!(report.static_total, image.text.len(), "{label}: static total");
    assert_eq!(report.static_executed, spec.executed().count(), "{label}: static executed");
    let static_repeated = spec.executed().filter(|s| s.repeated > 0).count();
    assert_eq!(report.static_repeated, static_repeated, "{label}: static repeated");
    assert_eq!(report.unique_repeatable, unique, "{label}: unique repeatable instances");
    assert_eq!(report.instance_histogram, spec.instance_histogram(), "{label}: Figure 3");

    let static_weights = spec.executed().filter(|s| s.repeated > 0).map(|s| s.repeated).collect();
    assert_eq!(report.static_coverage, Coverage::new(static_weights), "{label}: Figure 1");
    let instance_weights = spec
        .executed()
        .flat_map(|s| s.instances.iter().map(|i| i.repeats).filter(|&r| r > 0))
        .collect();
    assert_eq!(report.instance_coverage, Coverage::new(instance_weights), "{label}: Figure 4");
    assert_eq!(report.static_coverage.total(), repeated, "{label}: Figure 1 total");
    assert_eq!(report.instance_coverage.total(), repeated, "{label}: Figure 4 total");

    assert_eq!(report.reuse, spec.reuse, "{label}: Table 10");
}

#[test]
fn every_workload_family_matches_the_spec() {
    let cfg = AnalysisConfig { skip: SKIP, window: WINDOW, ..AnalysisConfig::default() };
    for wl in all() {
        let image = wl.build().expect("workload compiles");
        check(wl.name, &image, wl.input(Scale::Tiny, 1998), cfg);
    }
}

/// A small instance cap and a small buffer push both structures into
/// their capacity limits, where the cap and LRU replacement decide.
#[test]
fn small_capacities_match_the_spec() {
    let cfg = AnalysisConfig {
        skip: SKIP,
        window: 100_000,
        tracker: TrackerConfig { max_instances: 3 },
        reuse: instrep_core::ReuseConfig { entries: 64, ways: 2 },
        ..AnalysisConfig::default()
    };
    for name in ["gcc", "compress"] {
        let wl = all().into_iter().find(|w| w.name == name).expect("family exists");
        let image = wl.build().expect("workload compiles");
        check(name, &image, wl.input(Scale::Tiny, 777), cfg);
    }
}

#[cfg(feature = "proptest")]
mod random_programs {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        /// The production observers agree with the spec on randomly
        /// parameterized MiniC programs.
        #[test]
        fn random_workloads_match_the_spec(
            tab in proptest::collection::vec(0u32..1000, 8),
            iters in 10u32..400,
            step in 1u32..9,
            depth in 1u32..8,
            cap in prop_oneof![1usize..8, Just(2000usize)],
        ) {
            let src = format!(
                "int tab[8] = {{{}}};\n\
                 int lookup(int i) {{ return tab[i & 7]; }}\n\
                 int rec(int n) {{ if (n <= 0) return 1; return rec(n - 1) + lookup(n); }}\n\
                 int main() {{\n\
                     int s = rec({depth});\n\
                     int i;\n\
                     for (i = 0; i < {iters}; i = i + {step}) s = s + lookup(i);\n\
                     return s & 0xff;\n\
                 }}",
                tab.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(", ")
            );
            let image = instrep_minicc::build(&src).expect("random program compiles");
            let cfg = AnalysisConfig {
                skip: 1_000,
                window: 50_000,
                tracker: TrackerConfig { max_instances: cap },
                ..AnalysisConfig::default()
            };
            check("random", &image, Vec::new(), cfg);
        }
    }
}

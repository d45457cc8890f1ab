// Property tests are feature-gated: run with `--features proptest`.
#![cfg(feature = "proptest")]

//! Property tests checking the analyses against naive reference models.

use std::collections::{HashMap, HashSet};

use instrep_core::{
    AnalysisConfig, AnalysisJob, Coverage, InstructionProfile, ProfileReport, RepetitionTracker,
    ReuseBuffer, ReuseConfig, Session, TrackerConfig, ValuePredictors,
};
use instrep_isa::{AluOp, Insn, Reg};
use instrep_sim::Event;
use proptest::prelude::*;

fn ev(index: u32, in1: u32, in2: u32, out: u32) -> Event {
    Event {
        pc: 0x40_0000 + index * 4,
        index,
        insn: Insn::alu(AluOp::Add, Reg::V0, Reg::A0, Reg::A1),
        in1,
        in2,
        out: Some(out),
        mem: None,
        ctrl: None,
    }
}

/// Small value domains force collisions (repetitions) to actually occur.
fn arb_events() -> impl Strategy<Value = Vec<Event>> {
    proptest::collection::vec((0u32..6, 0u32..4, 0u32..4, 0u32..4), 1..400)
        .prop_map(|v| v.into_iter().map(|(i, a, b, o)| ev(i, a, b, o)).collect())
}

/// Figure 1/4 by definition: the share of the total held by the
/// heaviest `round(fraction × n)` items of the descending `sorted`.
fn naive_coverage_at(sorted: &[u64], item_fraction: f64) -> f64 {
    let total: u64 = sorted.iter().sum();
    if total == 0 || sorted.is_empty() {
        return 0.0;
    }
    let k = ((item_fraction * sorted.len() as f64).round() as usize).min(sorted.len());
    sorted[..k].iter().sum::<u64>() as f64 / total as f64
}

/// The fewest heaviest items whose running sum reaches
/// `weight_fraction` of the total, as a fraction of all items, found by
/// adding one item at a time.
fn naive_items_needed(sorted: &[u64], weight_fraction: f64) -> f64 {
    let total: u64 = sorted.iter().sum();
    if total == 0 || sorted.is_empty() {
        return 1.0;
    }
    let target = weight_fraction * total as f64;
    let mut acc = 0u64;
    for (i, w) in sorted.iter().enumerate() {
        acc += w;
        if acc as f64 >= target {
            return (i + 1) as f64 / sorted.len() as f64;
        }
    }
    1.0
}

proptest! {
    #[test]
    fn tracker_matches_naive_model(events in arb_events()) {
        let statics = 8;
        let mut tracker = RepetitionTracker::new(TrackerConfig::default(), statics);
        // Reference: per static instruction, the set of seen instances.
        let mut seen: Vec<HashSet<(u32, u32, u32)>> = vec![HashSet::new(); statics];
        let mut repeated_total = 0u64;
        for e in &events {
            let key = (e.in1, e.in2, e.out.unwrap());
            let expect = !seen[e.index as usize].insert(key);
            let got = tracker.observe(e);
            prop_assert_eq!(got, expect);
            repeated_total += u64::from(expect);
        }
        prop_assert_eq!(tracker.dynamic_total(), events.len() as u64);
        prop_assert_eq!(tracker.dynamic_repeated(), repeated_total);
        // Unique repeatable instances == distinct keys seen at least twice.
        let mut counts: HashMap<(u32, (u32, u32, u32)), u64> = HashMap::new();
        for e in &events {
            *counts.entry((e.index, (e.in1, e.in2, e.out.unwrap()))).or_insert(0) += 1;
        }
        let uris = counts.values().filter(|&&c| c >= 2).count() as u64;
        prop_assert_eq!(tracker.unique_repeatable_instances(), uris);
        // Coverage over instances must total the repeated count.
        let cov = Coverage::new(tracker.instance_repeat_counts());
        prop_assert_eq!(cov.total(), tracker.dynamic_repeated());
    }

    #[test]
    fn capped_tracker_is_conservative(events in arb_events(), cap in 1usize..4) {
        // A smaller buffer can only classify FEWER instructions repeated.
        let mut full = RepetitionTracker::new(TrackerConfig::default(), 8);
        let mut capped = RepetitionTracker::new(TrackerConfig { max_instances: cap }, 8);
        for e in &events {
            let f = full.observe(e);
            let c = capped.observe(e);
            prop_assert!(!c || f, "capped tracker found repetition the full one missed");
        }
        prop_assert!(capped.dynamic_repeated() <= full.dynamic_repeated());
    }

    #[test]
    fn tracker_repeated_never_exceeds_exec(events in arb_events()) {
        // Core accounting invariant: a repetition presupposes an earlier
        // execution, per static instruction and in aggregate.
        let mut tracker = RepetitionTracker::new(TrackerConfig::default(), 8);
        for e in &events {
            tracker.observe(e);
        }
        prop_assert!(tracker.dynamic_repeated() <= tracker.dynamic_total());
        let mut exec_sum = 0u64;
        for s in tracker.static_stats() {
            prop_assert!(s.repeated <= s.exec, "static {}: {} > {}", s.index, s.repeated, s.exec);
            prop_assert!(s.unique_repeatable <= s.repeated);
            exec_sum += s.exec;
        }
        prop_assert_eq!(exec_sum, tracker.dynamic_total());
    }

    #[test]
    fn tracker_respects_instance_cap(events in arb_events(), cap in 1usize..6) {
        // All events funneled to one static instruction: the buffer may
        // never hold more than `max_instances` unique instances, and only
        // buffered instances can repeat.
        let mut tracker = RepetitionTracker::new(TrackerConfig { max_instances: cap }, 1);
        for e in &events {
            let mut e = *e;
            e.index = 0;
            e.pc = 0x40_0000;
            tracker.observe(&e);
            prop_assert!(tracker.instances_buffered() <= cap as u64);
        }
        prop_assert!(tracker.unique_repeatable_instances() <= cap as u64);
        // First `cap` distinct keys in stream order are exactly the
        // buffered set.
        let mut first_keys = HashSet::new();
        for e in &events {
            if first_keys.len() < cap {
                first_keys.insert((e.in1, e.in2, e.out.unwrap()));
            }
        }
        prop_assert_eq!(tracker.instances_buffered(), first_keys.len() as u64);
    }

    #[test]
    fn fully_associative_reuse_buffer_matches_reference(events in arb_events()) {
        // With one set the buffer is fully associative; with capacity
        // beyond the working set it never evicts, so a hit occurs exactly
        // when (pc, inputs) was seen and its last outcome matches.
        let mut buf = ReuseBuffer::new(ReuseConfig { entries: 4096, ways: 4096 });
        let mut model: HashMap<(u32, u32, u32), u32> = HashMap::new();
        for e in &events {
            let key = (e.pc, e.in1, e.in2);
            let out = e.out.unwrap();
            let expect = model.get(&key) == Some(&out);
            let got = buf.observe(e, false);
            prop_assert_eq!(got, expect);
            model.insert(key, out);
        }
    }

    #[test]
    fn last_value_predictor_matches_reference(events in arb_events()) {
        let mut p = ValuePredictors::new();
        let mut last: HashMap<u32, u32> = HashMap::new();
        for e in &events {
            let out = e.out.unwrap();
            let expect = last.get(&e.index) == Some(&out);
            prop_assert_eq!(p.observe(e, false).0, expect);
            last.insert(e.index, out);
        }
        prop_assert_eq!(p.lvp_stats().predictable, events.len() as u64);
    }

    #[test]
    fn coverage_is_sound(weights in proptest::collection::vec(0u64..8, 0..=2000)) {
        let cov = Coverage::new(weights.clone());
        let total: u64 = weights.iter().sum();
        prop_assert_eq!(cov.total(), total);
        prop_assert_eq!(cov.len(), weights.len());
        // The run queries give exactly the per-item definition's answers.
        let mut sorted = weights.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        for i in 0..=10 {
            let x = i as f64 / 10.0;
            let (got, want) = (cov.coverage_at(x), naive_coverage_at(&sorted, x));
            prop_assert_eq!(got.to_bits(), want.to_bits(), "coverage_at({}): {} vs {}", x, got, want);
        }
        let report_targets = [0.5, 0.75, 0.9, 0.99];
        let sweep = (0..=200).map(|i| i as f64 / 200.0);
        for target in report_targets.into_iter().chain(sweep) {
            let (got, want) = (cov.items_needed(target), naive_items_needed(&sorted, target));
            prop_assert_eq!(got.to_bits(), want.to_bits(), "items_needed({}): {} vs {}", target, got, want);
        }
        // coverage_at is monotone in the item fraction.
        let mut prev = 0.0;
        for i in 0..=10 {
            let c = cov.coverage_at(i as f64 / 10.0);
            prop_assert!(c + 1e-12 >= prev);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&c));
            prev = c;
        }
        // items_needed inverts coverage_at within rounding.
        if total > 0 {
            for target in [0.25, 0.5, 0.9] {
                let frac = cov.items_needed(target);
                prop_assert!(cov.coverage_at(frac) >= target - 1e-9);
            }
        }
    }
}

// Few cases: each one compiles a random MiniC workload and analyzes it
// six times (3 jobs × 2 thread counts).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn parallel_pipeline_matches_serial_on_random_workloads(
        tab in proptest::collection::vec(1u32..100, 8),
        iters in 50u32..300,
        step in 1u32..9,
    ) {
        // A randomly parameterized workload: table contents, trip count,
        // and stride all vary, so repetition structure varies too.
        let src = format!(
            "int tab[8] = {{{}}};\n\
             int lookup(int i) {{ return tab[i & 7]; }}\n\
             int main() {{\n\
                 int s = 0;\n\
                 int i;\n\
                 for (i = 0; i < {iters}; i = i + {step}) s = s + lookup(i);\n\
                 return s & 0xff;\n\
             }}",
            tab.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(", ")
        );
        let image = instrep_minicc::build(&src).expect("random workload compiles");
        let cfg = AnalysisConfig::default();
        let run = |threads: usize| -> Vec<String> {
            let jobs: Vec<AnalysisJob<'_>> =
                (0..3).map(|_| AnalysisJob { image: &image, input: Vec::new(), label: "" }).collect();
            Session::new(cfg)
                .jobs(threads)
                .run(jobs)
                .into_iter()
                .map(|r| format!("{:?}", r.expect("workload runs").report))
                .collect()
        };
        // The full report — every table's inputs — must be identical
        // whether the pipeline runs serial or on 4 threads.
        prop_assert_eq!(run(1), run(4));
    }

    #[test]
    fn profile_sums_to_aggregates_on_random_workloads(
        tab in proptest::collection::vec(1u32..100, 8),
        iters in 50u32..300,
        step in 1u32..9,
    ) {
        let src = format!(
            "int tab[8] = {{{}}};\n\
             int lookup(int i) {{ return tab[i & 7]; }}\n\
             int main() {{\n\
                 int s = 0;\n\
                 int i;\n\
                 for (i = 0; i < {iters}; i = i + {step}) s = s + lookup(i);\n\
                 return s & 0xff;\n\
             }}",
            tab.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(", ")
        );
        let image = instrep_minicc::build(&src).expect("random workload compiles");
        let cfg = AnalysisConfig::default();
        let run = |threads: usize| -> Vec<(InstructionProfile, u64, u64, usize)> {
            let jobs: Vec<AnalysisJob<'_>> =
                (0..3).map(|_| AnalysisJob { image: &image, input: Vec::new(), label: "" }).collect();
            Session::new(cfg)
                .jobs(threads)
                .profile(true)
                .run(jobs)
                .into_iter()
                .map(|r| {
                    let ir = r.expect("workload runs");
                    (
                        ir.profile.expect("profile was requested"),
                        ir.report.dynamic_total,
                        ir.report.dynamic_repeated,
                        ir.report.static_executed,
                    )
                })
                .collect()
        };
        let serial = run(1);
        for (profile, total, repeated, executed) in &serial {
            // Per-PC counts conserve the tracker aggregates exactly:
            // every measured instruction lands at exactly one site.
            prop_assert_eq!(profile.total_exec(), *total);
            prop_assert_eq!(profile.total_repeated(), *repeated);
            prop_assert_eq!(profile.sites.len(), *executed);
            // And so do the rollups derived from them.
            let funcs = profile.func_rollups();
            prop_assert_eq!(funcs.iter().map(|f| f.exec).sum::<u64>(), *total);
            prop_assert_eq!(profile.class_rollups().iter().map(|c| c.exec).sum::<u64>(), *total);
        }
        // The rendered documents — what --profile-out/--profile-folded
        // write — are byte-identical between serial and 4 threads.
        let doc = |profiles: Vec<(InstructionProfile, u64, u64, usize)>| {
            let report = ProfileReport {
                scale: "tiny".to_string(),
                seed: 0,
                top: 5,
                workloads: profiles
                    .into_iter()
                    .enumerate()
                    .map(|(i, (p, ..))| (format!("job{i}"), p))
                    .collect(),
            };
            (report.to_json(), report.to_folded())
        };
        prop_assert_eq!(doc(serial), doc(run(4)));
    }
}

//! Loop-nest attribution on randomly parameterized MiniC programs: the
//! loop profile must tile the per-PC profile exactly and be identical
//! at every worker-thread count. Run it with
//! `cargo test -p instrep-workloads --features proptest`.

#[cfg(feature = "proptest")]
mod random_programs {
    use instrep_core::{AnalysisConfig, AnalysisJob, Session};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        /// The loop-nest attribution must conserve the per-PC profile on
        /// randomly parameterized MiniC programs: every loop's exec/
        /// repeated count is a subset of the tracker's per-PC sums, the
        /// loop share plus the no-loop remainder tiles them exactly, and
        /// the whole profile is identical at one worker thread and four.
        #[test]
        fn loop_sums_never_exceed_per_pc_sums_on_random_workloads(
            tab in proptest::collection::vec(0u32..1000, 8),
            iters in 10u32..400,
            step in 1u32..9,
            depth in 1u32..8,
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
            let cfg = AnalysisConfig { skip: 1_000, window: 50_000, ..AnalysisConfig::default() };
            let mut baseline = None;
            for threads in [1usize, 4] {
                let jobs: Vec<AnalysisJob<'_>> =
                    (0..4).map(|_| AnalysisJob { image: &image, input: Vec::new(), label: "rand" }).collect();
                let results: Vec<_> = Session::new(cfg)
                    .jobs(threads)
                    .profile(true)
                    .loops(true)
                    .run(jobs)
                    .into_iter()
                    .map(|r| {
                        let ir = r.expect("random program analyzes");
                        (ir.loops.expect("loop probe attached"), ir.profile.expect("profile probe attached"))
                    })
                    .collect();
                for (loops, profile) in &results {
                    let pc_exec: u64 = profile.sites.iter().map(|s| s.exec).sum();
                    let pc_rep: u64 = profile.sites.iter().map(|s| s.repeated).sum();
                    let loop_exec: u64 = loops.loops.iter().map(|l| l.exec).sum();
                    let loop_rep: u64 = loops.loops.iter().map(|l| l.repeated).sum();
                    prop_assert!(loop_exec <= pc_exec, "loop exec {loop_exec} > per-PC {pc_exec}");
                    prop_assert!(loop_rep <= pc_rep, "loop repeated {loop_rep} > per-PC {pc_rep}");
                    prop_assert_eq!(loop_exec + loops.no_loop_exec, pc_exec, "exec does not tile");
                    prop_assert_eq!(
                        loop_rep + loops.no_loop_repeated, pc_rep, "repeated does not tile"
                    );
                    prop_assert_eq!(loops.total_exec(), pc_exec, "path sums diverge from per-PC");
                }
                let fingerprint: Vec<String> =
                    results.iter().map(|(l, _)| format!("{l:?}")).collect();
                match &baseline {
                    None => baseline = Some(fingerprint),
                    Some(b) => prop_assert_eq!(
                        b, &fingerprint, "loop profiles diverge at {} thread(s)", threads
                    ),
                }
            }
        }
    }
}

//! Source-level repetition profiler: per-static-instruction attribution.
//!
//! The paper's central observation is that repetition concentrates in a
//! small set of static instructions (Figures 3–4, Table 9), but the
//! aggregate tables never say *which* sites those are. This module closes
//! that gap: an [`InstructionProfile`] joins the tracker's per-PC
//! executed/repeated counters with the image's line table (`.loc`
//! markers threaded from `minicc` through `instrep_asm`), function
//! metadata, and opcode class, attributing every counted instruction to
//! `function + MiniC source line + class`.
//!
//! The profile rides [`crate::Probes`] like the other observability
//! layers: it is pull-based (filled once, in the pipeline's finalize
//! phase, from state the tracker accumulates anyway), costs nothing per
//! event, and cannot perturb the [`crate::WorkloadReport`].
//!
//! Three renderers feed `instrep-repro`:
//!
//! * [`ProfileReport::to_json`] — schema-v1 JSON
//!   ([`PROFILE_SCHEMA_VERSION`], `"kind": "profile"`): full per-PC
//!   table, per-function and per-class rollups, top-N hot sites.
//! * [`ProfileReport::to_folded`] — collapsed-stack lines
//!   (`workload;function;pc@line count`) loadable by standard flamegraph
//!   tools, with `executed`/`repeated` weight frames.
//! * [`annotate`] — perf-annotate-style source listing with per-line
//!   exec/repeat columns.
//!
//! All outputs derive from the deterministic analyses and use explicit
//! sort tiebreaks, so documents are byte-reproducible across runs and
//! `--jobs` counts. Schema in `DESIGN.md` §11.

use instrep_asm::Image;

use crate::classes::InsnClass;
use crate::metrics::{comma, indent, push_kv_f64, push_kv_raw, push_kv_str, push_kv_u64};
use crate::tracker::RepetitionTracker;

/// Version of the profile JSON document. Bump on any change to field
/// names, meanings, or structure; `scripts/ci.sh` greps for the current
/// value to catch accidental drift.
pub const PROFILE_SCHEMA_VERSION: u32 = 1;

/// Function name used for instructions outside any `.func` region.
const NO_FUNC: &str = "(outside-function)";

/// One executed static instruction with full attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteProfile {
    /// Static instruction index (`(pc - TEXT_BASE) / 4`).
    pub index: u32,
    /// Absolute program counter.
    pub pc: u32,
    /// Dynamic executions in the measurement window.
    pub exec: u64,
    /// Dynamic executions classified repeated.
    pub repeated: u64,
    /// Unique repeatable instances buffered for this site.
    pub unique_repeatable: u64,
    /// Opcode class of the instruction word.
    pub class: InsnClass,
    /// Owning function (from `.func` metadata), or
    /// `"(outside-function)"`.
    pub func: String,
    /// MiniC source line (from `.loc` markers; 0 = no line info).
    pub line: u32,
}

impl SiteProfile {
    /// Fraction of this site's executions classified repeated.
    pub fn repeat_rate(&self) -> f64 {
        if self.exec == 0 {
            0.0
        } else {
            self.repeated as f64 / self.exec as f64
        }
    }
}

/// Per-function rollup of site counters, in entry-address order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncRollup {
    /// Function name.
    pub name: String,
    /// Entry address (rollup sort key — deterministic).
    pub entry: u32,
    /// Executed static sites inside the function.
    pub sites: u64,
    /// Dynamic executions summed over those sites.
    pub exec: u64,
    /// Repeated executions summed over those sites.
    pub repeated: u64,
}

/// Per-opcode-class rollup of site counters, in [`InsnClass::ALL`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassRollup {
    /// The opcode class.
    pub class: InsnClass,
    /// Executed static sites of this class.
    pub sites: u64,
    /// Dynamic executions summed over those sites.
    pub exec: u64,
    /// Repeated executions summed over those sites.
    pub repeated: u64,
}

/// Per-static-instruction repetition profile for one workload.
///
/// Request one with [`crate::Session::profile`]; the pipeline fills it
/// during finalize. Sites are stored in static-index order.
///
/// # Examples
///
/// ```
/// use instrep_core::{AnalysisConfig, Session};
///
/// let image = instrep_minicc::build(r#"
///     int main() {
///         int i; int s = 0;
///         for (i = 0; i < 500; i++) s += i & 3;
///         return s & 0xff;
///     }
/// "#)?;
/// let ir = Session::new(AnalysisConfig::default()).profile(true).run_one(&image, Vec::new())?;
/// let profile = ir.profile.expect("profile was requested");
/// assert_eq!(profile.total_exec(), ir.report.dynamic_total);
/// assert_eq!(profile.total_repeated(), ir.report.dynamic_repeated);
/// assert!(profile.top_sites(3).iter().all(|s| s.func == "main"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InstructionProfile {
    /// Executed sites, ordered by static index.
    pub sites: Vec<SiteProfile>,
}

impl InstructionProfile {
    /// Fills the profile from the tracker's per-PC statistics joined
    /// with the image's function, line, and opcode metadata. Called by
    /// the pipeline in its finalize phase; idempotent (refilling
    /// replaces the previous contents).
    pub fn fill(&mut self, image: &Image, tracker: &RepetitionTracker) {
        self.fill_from_stats(image, &tracker.static_stats());
    }

    /// [`InstructionProfile::fill`] from an already-materialized
    /// per-static statistics table — the pipeline's finalize computes it
    /// once and shares it with the loop profiler.
    pub(crate) fn fill_from_stats(&mut self, image: &Image, stats: &[crate::tracker::StaticStats]) {
        let text_base = instrep_isa::abi::TEXT_BASE;
        self.sites = stats
            .iter()
            .copied()
            .map(|s| {
                let pc = text_base + s.index * 4;
                let class = image
                    .text
                    .get(s.index as usize)
                    .and_then(|&w| instrep_isa::decode(w).ok())
                    .map_or(InsnClass::System, |i| InsnClass::of(&i));
                SiteProfile {
                    index: s.index,
                    pc,
                    exec: s.exec,
                    repeated: s.repeated,
                    unique_repeatable: s.unique_repeatable,
                    class,
                    func: image.func_at(pc).map_or_else(|| NO_FUNC.to_string(), |f| f.name.clone()),
                    line: image.line_at(s.index as usize),
                }
            })
            .collect();
    }

    /// Dynamic executions summed over all sites. Equals the tracker's
    /// `dynamic_total` (every measured instruction hits exactly one
    /// site).
    pub fn total_exec(&self) -> u64 {
        self.sites.iter().map(|s| s.exec).sum()
    }

    /// Repeated executions summed over all sites. Equals the tracker's
    /// `dynamic_repeated`.
    pub fn total_repeated(&self) -> u64 {
        self.sites.iter().map(|s| s.repeated).sum()
    }

    /// The `n` hottest repetition sites: repeated count descending,
    /// static index ascending as the deterministic tiebreak.
    pub fn top_sites(&self, n: usize) -> Vec<&SiteProfile> {
        let mut refs: Vec<&SiteProfile> = self.sites.iter().collect();
        refs.sort_by(|a, b| b.repeated.cmp(&a.repeated).then(a.index.cmp(&b.index)));
        refs.truncate(n);
        refs
    }

    /// Per-function rollups, ordered by function entry address (source
    /// order for compiler output) with out-of-function sites last.
    pub fn func_rollups(&self) -> Vec<FuncRollup> {
        let mut out: Vec<FuncRollup> = Vec::new();
        for s in &self.sites {
            // Sites are index-ordered, so each function's run of sites is
            // contiguous; out-of-function gaps may interleave, hence the
            // linear search (function counts are small).
            match out.iter_mut().find(|f| f.name == s.func) {
                Some(f) => {
                    f.sites += 1;
                    f.exec += s.exec;
                    f.repeated += s.repeated;
                    f.entry = f.entry.min(s.pc);
                }
                None => out.push(FuncRollup {
                    name: s.func.clone(),
                    entry: s.pc,
                    sites: 1,
                    exec: s.exec,
                    repeated: s.repeated,
                }),
            }
        }
        out.sort_by_key(|f| f.entry);
        out
    }

    /// Per-class rollups in [`InsnClass::ALL`] order (all six classes,
    /// zero-count ones included, for a stable document shape).
    pub fn class_rollups(&self) -> Vec<ClassRollup> {
        InsnClass::ALL
            .iter()
            .map(|&class| {
                let mut r = ClassRollup { class, sites: 0, exec: 0, repeated: 0 };
                for s in self.sites.iter().filter(|s| s.class == class) {
                    r.sites += 1;
                    r.exec += s.exec;
                    r.repeated += s.repeated;
                }
                r
            })
            .collect()
    }

    /// Aggregates `(exec, repeated)` per source line, ascending by line.
    /// Sites without line information (line 0) are excluded.
    pub fn line_totals(&self) -> Vec<(u32, u64, u64)> {
        let mut out: Vec<(u32, u64, u64)> = Vec::new();
        for s in self.sites.iter().filter(|s| s.line != 0) {
            match out.iter_mut().find(|(l, ..)| *l == s.line) {
                Some((_, e, r)) => {
                    *e += s.exec;
                    *r += s.repeated;
                }
                None => out.push((s.line, s.exec, s.repeated)),
            }
        }
        out.sort_by_key(|&(l, ..)| l);
        out
    }
}

/// The profile document behind `instrep-repro --profile-out` /
/// `--profile-folded`: run parameters plus one [`InstructionProfile`]
/// per workload, in workload order.
#[derive(Debug)]
pub struct ProfileReport {
    /// Scale label (`"tiny"`, `"small"`, `"full"`).
    pub scale: String,
    /// Input-stream seed.
    pub seed: u64,
    /// `N` for the top-N hot-site list in the JSON document.
    pub top: usize,
    /// `(workload name, profile)` in fixed workload order.
    pub workloads: Vec<(String, InstructionProfile)>,
}

impl ProfileReport {
    /// Renders the schema-v1 JSON document: header, then per workload
    /// the top-N sites, function and class rollups, and the full per-PC
    /// table. Key order is fixed; byte-reproducible.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256 + self.workloads.len() * 4096);
        s.push_str("{\n");
        push_kv_u64(&mut s, 1, "schema_version", u64::from(PROFILE_SCHEMA_VERSION), true);
        push_kv_str(&mut s, 1, "kind", "profile", true);
        push_kv_str(&mut s, 1, "scale", &self.scale, true);
        push_kv_u64(&mut s, 1, "seed", self.seed, true);
        // No `jobs` field on purpose: the document is byte-identical for
        // every worker count, and recording one would break that.
        push_kv_u64(&mut s, 1, "top", self.top as u64, true);
        indent(&mut s, 1);
        s.push_str("\"workloads\": [\n");
        for (wi, (name, profile)) in self.workloads.iter().enumerate() {
            indent(&mut s, 2);
            s.push_str("{\n");
            push_kv_str(&mut s, 3, "name", name, true);
            push_kv_u64(&mut s, 3, "dynamic_total", profile.total_exec(), true);
            push_kv_u64(&mut s, 3, "dynamic_repeated", profile.total_repeated(), true);
            push_kv_u64(&mut s, 3, "static_executed", profile.sites.len() as u64, true);

            indent(&mut s, 3);
            s.push_str("\"top_sites\": [\n");
            let top = profile.top_sites(self.top);
            for (i, site) in top.iter().enumerate() {
                push_site(&mut s, site, i + 1 < top.len());
            }
            indent(&mut s, 3);
            s.push_str("],\n");

            indent(&mut s, 3);
            s.push_str("\"functions\": [\n");
            let funcs = profile.func_rollups();
            for (i, f) in funcs.iter().enumerate() {
                indent(&mut s, 4);
                s.push_str("{\n");
                push_kv_str(&mut s, 5, "name", &f.name, true);
                push_kv_raw(&mut s, 5, "entry", &format!("\"{:#010x}\"", f.entry), true);
                push_kv_u64(&mut s, 5, "sites", f.sites, true);
                push_kv_u64(&mut s, 5, "exec", f.exec, true);
                push_kv_u64(&mut s, 5, "repeated", f.repeated, true);
                let rate = if f.exec == 0 { 0.0 } else { f.repeated as f64 / f.exec as f64 };
                push_kv_f64(&mut s, 5, "repeat_rate", rate, false);
                indent(&mut s, 4);
                s.push_str(&format!("}}{}\n", comma(i + 1 < funcs.len())));
            }
            indent(&mut s, 3);
            s.push_str("],\n");

            indent(&mut s, 3);
            s.push_str("\"classes\": [\n");
            let classes = profile.class_rollups();
            for (i, c) in classes.iter().enumerate() {
                indent(&mut s, 4);
                s.push_str("{\n");
                push_kv_str(&mut s, 5, "class", c.class.label(), true);
                push_kv_u64(&mut s, 5, "sites", c.sites, true);
                push_kv_u64(&mut s, 5, "exec", c.exec, true);
                push_kv_u64(&mut s, 5, "repeated", c.repeated, true);
                let rate = if c.exec == 0 { 0.0 } else { c.repeated as f64 / c.exec as f64 };
                push_kv_f64(&mut s, 5, "repeat_rate", rate, false);
                indent(&mut s, 4);
                s.push_str(&format!("}}{}\n", comma(i + 1 < classes.len())));
            }
            indent(&mut s, 3);
            s.push_str("],\n");

            indent(&mut s, 3);
            s.push_str("\"sites\": [\n");
            for (i, site) in profile.sites.iter().enumerate() {
                push_site(&mut s, site, i + 1 < profile.sites.len());
            }
            indent(&mut s, 3);
            s.push_str("]\n");

            indent(&mut s, 2);
            s.push_str(&format!("}}{}\n", comma(wi + 1 < self.workloads.len())));
        }
        indent(&mut s, 1);
        s.push_str("]\n}\n");
        s
    }

    /// Renders collapsed-stack lines for flamegraph tools:
    ///
    /// ```text
    /// <workload>;executed;<function>;0x<pc>@L<line> <exec-count>
    /// <workload>;repeated;<function>;0x<pc>@L<line> <repeated-count>
    /// ```
    ///
    /// The `executed`/`repeated` frame keeps the two weightings of the
    /// same stacks from merging when a flamegraph sums duplicate paths.
    /// Zero-count lines are omitted (flamegraph tools reject them).
    pub fn to_folded(&self) -> String {
        let mut s = String::with_capacity(
            self.workloads.iter().map(|(_, p)| p.sites.len()).sum::<usize>() * 2 * 48,
        );
        for (name, profile) in &self.workloads {
            for weight in ["executed", "repeated"] {
                for site in &profile.sites {
                    let n = if weight == "executed" { site.exec } else { site.repeated };
                    if n == 0 {
                        continue;
                    }
                    s.push_str(&format!(
                        "{name};{weight};{};{:#010x}@L{} {n}\n",
                        site.func, site.pc, site.line
                    ));
                }
            }
        }
        s
    }
}

/// Emits one site object at indent level 4 (used by both the top-N list
/// and the full table).
fn push_site(s: &mut String, site: &SiteProfile, more: bool) {
    indent(s, 4);
    s.push_str("{\n");
    push_kv_raw(s, 5, "pc", &format!("\"{:#010x}\"", site.pc), true);
    push_kv_u64(s, 5, "index", u64::from(site.index), true);
    push_kv_str(s, 5, "function", &site.func, true);
    push_kv_u64(s, 5, "line", u64::from(site.line), true);
    push_kv_str(s, 5, "class", site.class.label(), true);
    push_kv_u64(s, 5, "exec", site.exec, true);
    push_kv_u64(s, 5, "repeated", site.repeated, true);
    push_kv_u64(s, 5, "unique_repeatable", site.unique_repeatable, true);
    push_kv_f64(s, 5, "repeat_rate", site.repeat_rate(), false);
    indent(s, 4);
    s.push_str(&format!("}}{}\n", comma(more)));
}

/// Renders the perf-annotate-style source view: every line of `source`
/// with the exec/repeat counters of the instructions compiled from it,
/// plus — when a [`LoopNestProfile`](crate::LoopNestProfile) is
/// supplied — the deepest loop nest each line ran under. Lines that
/// produced no measured instruction (or ran under no loop) get blank
/// columns.
///
/// ```text
/// == compress: source-level repetition profile (exec / repeated / rep% / loop) ==
///       exec   repeated   rep%  loop  line  source
///          .          .      .     .     1  // --- shared workload prelude ---
///      12345      11000   89.1     2     5  int read_int() {
/// ```
pub fn annotate(
    name: &str,
    source: &str,
    profile: &InstructionProfile,
    loops: Option<&crate::LoopNestProfile>,
) -> String {
    let totals = profile.line_totals();
    let depths = loops.map(crate::LoopNestProfile::line_depths).unwrap_or_default();
    let mut s = String::with_capacity(source.len() * 2);
    s.push_str(&format!(
        "== {name}: source-level repetition profile (exec / repeated / rep% / loop) ==\n"
    ));
    s.push_str(&format!(
        "{:>10} {:>10} {:>6}  {:>4}  {:>4}  source\n",
        "exec", "repeated", "rep%", "loop", "line"
    ));
    for (i, text) in source.lines().enumerate() {
        let line = (i + 1) as u32;
        let depth = match depths.iter().find(|&&(l, _)| l == line) {
            Some(&(_, d)) => d.to_string(),
            None => ".".to_string(),
        };
        match totals.iter().find(|&&(l, ..)| l == line) {
            Some(&(_, exec, repeated)) => {
                let rate = if exec == 0 { 0.0 } else { repeated as f64 / exec as f64 * 100.0 };
                s.push_str(&format!(
                    "{exec:>10} {repeated:>10} {rate:>6.1}  {depth:>4}  {line:>4}  {text}\n"
                ));
            }
            None => {
                s.push_str(&format!(
                    "{:>10} {:>10} {:>6}  {depth:>4}  {line:>4}  {text}\n",
                    ".", ".", "."
                ));
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::AnalysisConfig;
    use crate::Session;
    use instrep_minicc::build;

    fn profiled(src: &str) -> (InstructionProfile, crate::WorkloadReport) {
        let image = build(src).unwrap();
        let ir = Session::new(AnalysisConfig::default())
            .profile(true)
            .run_one(&image, Vec::new())
            .unwrap();
        (ir.profile.expect("profile was requested"), ir.report)
    }

    const LOOP_SRC: &str = r#"int twice(int x) {
    return x + x;
}
int main() {
    int i;
    int s = 0;
    for (i = 0; i < 300; i++) {
        s += twice(i & 7);
    }
    return s & 0xff;
}
"#;

    #[test]
    fn sites_sum_to_tracker_aggregates() {
        let (profile, report) = profiled(LOOP_SRC);
        assert_eq!(profile.total_exec(), report.dynamic_total);
        assert_eq!(profile.total_repeated(), report.dynamic_repeated);
        assert_eq!(profile.sites.len(), report.static_executed);
        let rep_sites = profile.sites.iter().filter(|s| s.repeated > 0).count();
        assert_eq!(rep_sites, report.static_repeated);
        // Index-ordered, no duplicates.
        assert!(profile.sites.windows(2).all(|w| w[0].index < w[1].index));
    }

    #[test]
    fn attribution_joins_function_and_line() {
        let (profile, _) = profiled(LOOP_SRC);
        let funcs = profile.func_rollups();
        let names: Vec<&str> = funcs.iter().map(|f| f.name.as_str()).collect();
        assert!(names.contains(&"twice"), "rollups: {names:?}");
        assert!(names.contains(&"main"));
        assert!(names.contains(&"__start"), "runtime functions attributed too");
        // Entry order is address order.
        assert!(funcs.windows(2).all(|w| w[0].entry < w[1].entry));
        // twice's body instructions carry its source lines (1-2).
        let twice_sites: Vec<&SiteProfile> =
            profile.sites.iter().filter(|s| s.func == "twice").collect();
        assert!(!twice_sites.is_empty());
        assert!(twice_sites.iter().all(|s| (1..=3).contains(&s.line)), "{twice_sites:?}");
        // Runtime sites have no line info.
        assert!(profile.sites.iter().filter(|s| s.func == "__start").all(|s| s.line == 0));
        // Rollups conserve the totals.
        assert_eq!(funcs.iter().map(|f| f.exec).sum::<u64>(), profile.total_exec());
        assert_eq!(funcs.iter().map(|f| f.repeated).sum::<u64>(), profile.total_repeated());
        let classes = profile.class_rollups();
        assert_eq!(classes.len(), 6);
        assert_eq!(classes.iter().map(|c| c.exec).sum::<u64>(), profile.total_exec());
    }

    #[test]
    fn top_sites_sorted_with_deterministic_tiebreak() {
        let (profile, _) = profiled(LOOP_SRC);
        let top = profile.top_sites(10);
        assert_eq!(top.len(), 10);
        for w in top.windows(2) {
            assert!(
                w[0].repeated > w[1].repeated
                    || (w[0].repeated == w[1].repeated && w[0].index < w[1].index)
            );
        }
        // The hottest site lives in the loop body.
        assert!(top[0].repeated > 0);
        // Asking for more than exists returns everything.
        assert_eq!(profile.top_sites(usize::MAX).len(), profile.sites.len());
    }

    #[test]
    fn json_document_is_well_formed() {
        let (profile, _) = profiled(LOOP_SRC);
        let report = ProfileReport {
            scale: "tiny".into(),
            seed: 1,
            top: 3,
            workloads: vec![("loop".into(), profile)],
        };
        let json = report.to_json();
        assert!(json.starts_with("{\n  \"schema_version\": 1,\n  \"kind\": \"profile\",\n"));
        assert!(json.contains("\"top_sites\": ["));
        assert!(json.contains("\"functions\": ["));
        assert!(json.contains("\"classes\": ["));
        assert!(json.contains("\"sites\": ["));
        assert!(json.contains("\"function\": \"twice\""));
        // Balanced braces/brackets (cheap well-formedness check).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn folded_lines_have_two_weightings_and_no_zeros() {
        let (profile, report) = profiled(LOOP_SRC);
        let doc = ProfileReport {
            scale: "tiny".into(),
            seed: 1,
            top: 3,
            workloads: vec![("loop".into(), profile)],
        };
        let folded = doc.to_folded();
        let mut exec_total = 0u64;
        let mut rep_total = 0u64;
        for line in folded.lines() {
            let (stack, count) = line.rsplit_once(' ').unwrap();
            let count: u64 = count.parse().unwrap();
            assert!(count > 0, "zero-weight folded line: {line}");
            let frames: Vec<&str> = stack.split(';').collect();
            assert_eq!(frames.len(), 4, "bad stack: {stack}");
            assert_eq!(frames[0], "loop");
            match frames[1] {
                "executed" => exec_total += count,
                "repeated" => rep_total += count,
                other => panic!("bad weight frame {other}"),
            }
            assert!(frames[3].starts_with("0x") && frames[3].contains("@L"));
        }
        assert_eq!(exec_total, report.dynamic_total);
        assert_eq!(rep_total, report.dynamic_repeated);
    }

    #[test]
    fn annotate_renders_every_source_line() {
        let (profile, _) = profiled(LOOP_SRC);
        let view = annotate("loop", LOOP_SRC, &profile, None);
        // Header + column row + one row per source line.
        assert_eq!(view.lines().count(), 2 + LOOP_SRC.lines().count());
        // The loop-body line carries counts; its source text is present.
        let body = view.lines().find(|l| l.contains("s += twice(i & 7);")).unwrap();
        assert!(!body.trim_start().starts_with('.'), "loop body should have counts: {body}");
        // Line totals match the profile's line-attributed sites.
        let attributed: u64 = profile.sites.iter().filter(|s| s.line != 0).map(|s| s.exec).sum();
        assert_eq!(profile.line_totals().iter().map(|&(_, e, _)| e).sum::<u64>(), attributed);
    }

    #[test]
    fn annotate_loop_column_shows_nest_depth() {
        let image = build(LOOP_SRC).unwrap();
        let ir = Session::new(AnalysisConfig::default())
            .profile(true)
            .loops(true)
            .run_one(&image, Vec::new())
            .unwrap();
        let profile = ir.profile.expect("profile was requested");
        let loops = ir.loops.expect("loops were requested");
        let view = annotate("loop", LOOP_SRC, &profile, Some(&loops));
        assert!(view.lines().nth(1).unwrap().contains("loop  line  source"));
        // The for-loop body line shows a nest depth of at least 1; the
        // function-signature line of `twice` sits outside any loop span
        // unless the loop's body covers it, so just check the body.
        let body = view.lines().find(|l| l.contains("s += twice(i & 7);")).unwrap();
        let cols: Vec<&str> = body.split_whitespace().collect();
        let depth: u32 = cols[3].parse().expect("loop column is a depth number");
        assert!(depth >= 1, "{body}");
        // Without a loop profile the column renders as '.'.
        let plain = annotate("loop", LOOP_SRC, &profile, None);
        let body = plain.lines().find(|l| l.contains("s += twice(i & 7);")).unwrap();
        assert_eq!(body.split_whitespace().nth(3), Some("."), "{body}");
    }

    #[test]
    fn empty_profile_renders_cleanly() {
        let profile = InstructionProfile::default();
        assert_eq!(profile.total_exec(), 0);
        assert!(profile.top_sites(5).is_empty());
        assert!(profile.func_rollups().is_empty());
        assert_eq!(profile.class_rollups().len(), 6);
        let doc = ProfileReport {
            scale: "tiny".into(),
            seed: 0,
            top: 5,
            workloads: vec![("empty".into(), profile)],
        };
        assert!(doc.to_folded().is_empty());
        assert!(doc.to_json().contains("\"static_executed\": 0,"));
    }
}

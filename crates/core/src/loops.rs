//! Dynamic loop-nest profiler: which loops produce the repetition.
//!
//! The per-PC profile (`core::profile`) says *where* repetition lives;
//! this module says *which loop nest, at which depth*, makes it live
//! there — the attribution layer Coppieters et al. argue for and the
//! unit Shaccour & Mansour use to quantify cross-workload redundancy.
//!
//! Loops are detected online from the executed control flow, with no
//! static analysis: a taken branch or jump whose target is at or below
//! the current PC (or is an already-known header) is a *back edge*.
//! The first back edge to a header opens a loop; later back edges bump
//! its trip count; control leaving the `[header, latch]` body region —
//! or returning out of the frame that entered it — closes the current
//! nest level. Headers are interned in an FxHash table, the active nest
//! is a stack, and every measured instruction records the interned id
//! of the loop path it executed under (last execution wins, so the
//! store is one `u32` write per event). Calls made from a loop body
//! keep the enclosing path: callee instructions are attributed to the
//! loop that called them.
//!
//! Tangled control flow — back edges that cross an active loop's header
//! without targeting it (irreducible or multi-entry regions) — is
//! *counted* (`irregular`) and degraded gracefully by closing the
//! crossed levels; detection never panics and never loses events.
//! Known limits (see `DESIGN.md` §16): zero-iteration loops take no
//! back edge and are invisible, and a loop body's first iteration up to
//! the first back edge is attributed to the enclosing path.
//!
//! The profiler is one of the pipeline's probes, attached with
//! [`Session::loops`](crate::Session::loops): zero-cost when off, and
//! incapable of perturbing the [`crate::WorkloadReport`]. At finalize
//! it joins the tracker's per-static statistics against the recorded
//! path assignments and the image's function/line metadata, producing
//! a [`LoopNestProfile`]; [`LoopsReport`] renders the schema-v1 JSON
//! (`--loops-out`) and the collapsed-stack form (`--loops-folded`).

use instrep_asm::Image;
use instrep_sim::{CtrlEffect, Event};

use crate::classes::InsnClass;
use crate::fxhash::FxHashMap;
use crate::interval::frac;
use crate::json::{JsonWriter, Layout};
use crate::tracker::StaticStats;

/// Version of the loops JSON document. Bump on any change to field
/// names, meanings, or structure.
pub const LOOPS_SCHEMA_VERSION: u32 = 1;

/// Function name used for loops headed outside any `.func` region.
const NO_FUNC: &str = "(outside-function)";

/// Live per-loop state while the event stream runs.
#[derive(Debug)]
struct LoopData {
    /// Header PC (the back-edge target).
    header: u32,
    /// Highest body PC observed (the latch; grows as back edges land).
    end: u32,
    /// Back edges taken to this header.
    trips: u64,
    /// Times the loop was entered (pushed on the nest stack).
    entries: u64,
    /// Deepest nest position this loop ran at (1 = outermost).
    max_depth: u32,
}

/// One active level of the loop-nest stack.
#[derive(Debug, Clone, Copy)]
struct ActiveLoop {
    /// Index into [`LoopProfiler::loops`].
    id: u32,
    /// Call depth at entry; region-exit checks apply only in this
    /// frame, and returning past it closes the level.
    call_depth: u32,
}

/// Online loop-nest detector and per-event path recorder — the state
/// behind [`Session::loops`](crate::Session::loops). Attach one per
/// job; the pipeline drives [`LoopProfiler::observe`] for every event
/// and calls the finalize join itself, so the finished
/// [`LoopNestProfile`] is ready when the run returns.
#[derive(Debug, Default)]
pub struct LoopProfiler {
    /// Header PC → loop id.
    by_header: FxHashMap<u32, u32>,
    loops: Vec<LoopData>,
    stack: Vec<ActiveLoop>,
    /// Per-static-index interned path id, last execution wins.
    assign: Vec<u32>,
    /// Interned loop-id paths; `paths[0]` is the empty (no-loop) path.
    paths: Vec<Vec<u32>>,
    path_ids: FxHashMap<Vec<u32>, u32>,
    /// Interned id of the current stack contents.
    cur_path: u32,
    /// Stack changed since `cur_path` was interned.
    dirty: bool,
    call_depth: u32,
    back_edges: u64,
    irregular: u64,
    max_depth_seen: u32,
    finished: Option<LoopNestProfile>,
}

impl LoopProfiler {
    /// A profiler for an image with `static_len` text words.
    pub fn new(static_len: usize) -> LoopProfiler {
        let mut p = LoopProfiler { assign: vec![0; static_len], ..LoopProfiler::default() };
        p.paths.push(Vec::new());
        p.path_ids.insert(Vec::new(), 0);
        p
    }

    /// Observes one retired instruction. Skip-phase events
    /// (`measured == false`) propagate call depth only — loop discovery
    /// and counting start with the measurement window, exactly like the
    /// tracker.
    #[inline]
    pub fn observe(&mut self, ev: &Event, measured: bool) {
        if measured {
            self.measure(ev);
        } else if let Some(ctrl) = ev.ctrl {
            match ctrl {
                CtrlEffect::Call { .. } => self.call_depth = self.call_depth.saturating_add(1),
                CtrlEffect::Return { .. } => self.call_depth = self.call_depth.saturating_sub(1),
                _ => {}
            }
        }
    }

    fn measure(&mut self, ev: &Event) {
        // Region exit: the innermost level closes when control leaves
        // its body span in the frame that entered it. Levels entered
        // from a caller's frame survive callee execution untouched.
        while let Some(top) = self.stack.last() {
            if top.call_depth != self.call_depth {
                break;
            }
            let l = &self.loops[top.id as usize];
            if ev.pc >= l.header && ev.pc <= l.end {
                break;
            }
            self.stack.pop();
            self.dirty = true;
        }

        if let Some(ctrl) = ev.ctrl {
            match ctrl {
                CtrlEffect::Branch { taken: true, target } | CtrlEffect::Jump { target }
                    if target <= ev.pc || self.by_header.contains_key(&target) =>
                {
                    self.back_edge(target, ev.pc);
                }
                CtrlEffect::Call { .. } => {
                    self.call_depth = self.call_depth.saturating_add(1);
                }
                CtrlEffect::Return { .. } => {
                    self.call_depth = self.call_depth.saturating_sub(1);
                    while let Some(top) = self.stack.last() {
                        if top.call_depth <= self.call_depth {
                            break;
                        }
                        self.stack.pop();
                        self.dirty = true;
                    }
                }
                _ => {}
            }
        }

        if self.dirty {
            self.refresh_path();
            self.dirty = false;
        }
        // Last execution wins: the branch that closed a trip is already
        // under the loop's path, and first-iteration prefixes are
        // corrected by the second iteration.
        if let Some(slot) = self.assign.get_mut(ev.index as usize) {
            *slot = self.cur_path;
        }
    }

    /// Handles one back edge to `target` taken from `pc`.
    fn back_edge(&mut self, target: u32, pc: u32) {
        self.back_edges += 1;
        let cd = self.call_depth;
        if let Some(pos) = self
            .stack
            .iter()
            .rposition(|e| e.call_depth == cd && self.loops[e.id as usize].header == target)
        {
            // Another trip of an active loop; deeper levels were exited
            // by the jump (a `continue` of the outer loop).
            self.stack.truncate(pos + 1);
            let l = &mut self.loops[self.stack[pos].id as usize];
            l.trips += 1;
            if pc > l.end {
                l.end = pc;
            }
            self.dirty = true;
            return;
        }
        // Entering a new level. A target below an active header in the
        // same frame means the edge crosses that loop's boundary —
        // irreducible or multi-entry flow. Count it and degrade by
        // closing the crossed levels (never panic, never lose events).
        while let Some(top) = self.stack.last() {
            if top.call_depth == cd && self.loops[top.id as usize].header > target {
                self.stack.pop();
                self.irregular += 1;
                self.dirty = true;
            } else {
                break;
            }
        }
        let id = match self.by_header.get(&target) {
            Some(&id) => id,
            None => {
                let id = self.loops.len() as u32;
                self.by_header.insert(target, id);
                self.loops.push(LoopData {
                    header: target,
                    end: pc,
                    trips: 0,
                    entries: 0,
                    max_depth: 0,
                });
                id
            }
        };
        self.stack.push(ActiveLoop { id, call_depth: cd });
        let depth = self.stack.len() as u32;
        let l = &mut self.loops[id as usize];
        l.entries += 1;
        l.trips += 1;
        if pc > l.end {
            l.end = pc;
        }
        if depth > l.max_depth {
            l.max_depth = depth;
        }
        if depth > self.max_depth_seen {
            self.max_depth_seen = depth;
        }
        self.dirty = true;
    }

    fn refresh_path(&mut self) {
        let key: Vec<u32> = self.stack.iter().map(|e| e.id).collect();
        self.cur_path = match self.path_ids.get(&key) {
            Some(&p) => p,
            None => {
                let p = self.paths.len() as u32;
                self.path_ids.insert(key.clone(), p);
                self.paths.push(key);
                p
            }
        };
    }

    /// Distinct loop headers discovered so far.
    pub fn loops_discovered(&self) -> u64 {
        self.loops.len() as u64
    }

    /// Back edges observed in the measurement window.
    pub fn back_edges(&self) -> u64 {
        self.back_edges
    }

    /// Irregular (irreducible/multi-entry) edges degraded gracefully.
    pub fn irregular(&self) -> u64 {
        self.irregular
    }

    /// Deepest nest observed (0 if no loop ran).
    pub fn max_depth(&self) -> u32 {
        self.max_depth_seen
    }

    /// The finalize join: attributes the tracker's per-static counters
    /// to the recorded loop paths and resolves function and line-span
    /// metadata. Called by the pipeline once per run; idempotent.
    pub(crate) fn fill_from_stats(&mut self, image: &Image, stats: &[StaticStats]) {
        let text_base = instrep_isa::abi::TEXT_BASE;
        let mut recs: Vec<LoopRecord> = self
            .loops
            .iter()
            .map(|l| {
                let (mut line_lo, mut line_hi) = (0u32, 0u32);
                let lo = ((l.header - text_base) / 4) as usize;
                let hi = ((l.end - text_base) / 4) as usize;
                for i in lo..=hi.min(image.text.len().saturating_sub(1)) {
                    let line = image.line_at(i);
                    if line != 0 {
                        if line_lo == 0 || line < line_lo {
                            line_lo = line;
                        }
                        line_hi = line_hi.max(line);
                    }
                }
                LoopRecord {
                    header: l.header,
                    end: l.end,
                    func: image
                        .func_at(l.header)
                        .map_or_else(|| NO_FUNC.to_string(), |f| f.name.clone()),
                    line_lo,
                    line_hi,
                    depth: l.max_depth,
                    trips: l.trips,
                    entries: l.entries,
                    exec: 0,
                    repeated: 0,
                    unique_repeatable: 0,
                    class_exec: [0; 6],
                    class_repeated: [0; 6],
                }
            })
            .collect();

        let mut path_exec = vec![0u64; self.paths.len()];
        let mut path_rep = vec![0u64; self.paths.len()];
        let (mut no_loop_exec, mut no_loop_repeated) = (0u64, 0u64);
        for s in stats {
            let pid = self.assign.get(s.index as usize).copied().unwrap_or(0) as usize;
            path_exec[pid] += s.exec;
            path_rep[pid] += s.repeated;
            match self.paths[pid].last() {
                Some(&lid) => {
                    let class = image
                        .text
                        .get(s.index as usize)
                        .and_then(|&w| instrep_isa::decode(w).ok())
                        .map_or(InsnClass::System, |i| InsnClass::of(&i));
                    let rec = &mut recs[lid as usize];
                    rec.exec += s.exec;
                    rec.repeated += s.repeated;
                    rec.unique_repeatable += s.unique_repeatable;
                    rec.class_exec[class as usize] += s.exec;
                    rec.class_repeated[class as usize] += s.repeated;
                }
                None => {
                    no_loop_exec += s.exec;
                    no_loop_repeated += s.repeated;
                }
            }
        }

        let mut paths: Vec<LoopPathStats> = Vec::new();
        for (pid, ids) in self.paths.iter().enumerate() {
            if path_exec[pid] == 0 && path_rep[pid] == 0 {
                continue;
            }
            paths.push(LoopPathStats {
                headers: ids.iter().map(|&lid| self.loops[lid as usize].header).collect(),
                exec: path_exec[pid],
                repeated: path_rep[pid],
            });
        }
        paths.sort_by(|a, b| a.headers.cmp(&b.headers));
        recs.sort_by_key(|r| r.header);

        self.finished = Some(LoopNestProfile {
            loops: recs,
            paths,
            no_loop_exec,
            no_loop_repeated,
            back_edges: self.back_edges,
            irregular: self.irregular,
            max_depth: self.max_depth_seen,
        });
    }

    /// The finished profile (empty if the run trapped before finalize).
    pub fn finish(self) -> LoopNestProfile {
        self.finished.unwrap_or_default()
    }
}

/// One detected loop with full attribution — the finalize join of the
/// nest structure against the tracker's per-static statistics.
///
/// `exec`/`repeated`/`unique_repeatable` are *self* counts: events
/// whose innermost enclosing loop is this one (nested inner loops keep
/// their own).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopRecord {
    /// Header PC (the back-edge target).
    pub header: u32,
    /// Highest body PC observed (the latch).
    pub end: u32,
    /// Function owning the header, or `"(outside-function)"`.
    pub func: String,
    /// Lowest MiniC source line in the body span (0 = no line info).
    pub line_lo: u32,
    /// Highest MiniC source line in the body span.
    pub line_hi: u32,
    /// Deepest nest position the loop ran at (1 = outermost).
    pub depth: u32,
    /// Back edges taken to the header.
    pub trips: u64,
    /// Times the loop was entered.
    pub entries: u64,
    /// Dynamic executions attributed to this loop as innermost.
    pub exec: u64,
    /// Repeated executions attributed to this loop as innermost.
    pub repeated: u64,
    /// Unique repeatable instances attributed to this loop.
    pub unique_repeatable: u64,
    /// Per-[`InsnClass`] exec counts, in `InsnClass::ALL` order.
    pub class_exec: [u64; 6],
    /// Per-[`InsnClass`] repeated counts, in `InsnClass::ALL` order.
    pub class_repeated: [u64; 6],
}

impl LoopRecord {
    /// Fraction of this loop's executions classified repeated.
    pub fn repeat_rate(&self) -> f64 {
        frac(self.repeated, self.exec)
    }
}

/// One executed loop-nest path (outermost header first; empty = code
/// outside any loop) with the events attributed to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopPathStats {
    /// Header PCs from outermost to innermost.
    pub headers: Vec<u32>,
    /// Dynamic executions under exactly this path.
    pub exec: u64,
    /// Repeated executions under exactly this path.
    pub repeated: u64,
}

/// The finished loop-nest profile for one workload, produced by the
/// pipeline's finalize phase when [`Session::loops`](crate::Session::loops)
/// is set.
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
/// let ir = Session::new(AnalysisConfig::default()).loops(true).run_one(&image, Vec::new())?;
/// let loops = ir.loops.expect("loops were requested");
/// assert!(!loops.loops.is_empty());
/// assert_eq!(loops.total_exec(), ir.report.dynamic_total);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoopNestProfile {
    /// Detected loops, ordered by header PC.
    pub loops: Vec<LoopRecord>,
    /// Executed paths (lexicographic by header chain; the empty no-loop
    /// path first when it executed anything).
    pub paths: Vec<LoopPathStats>,
    /// Dynamic executions outside every loop.
    pub no_loop_exec: u64,
    /// Repeated executions outside every loop.
    pub no_loop_repeated: u64,
    /// Back edges observed in the window.
    pub back_edges: u64,
    /// Irregular (irreducible/multi-entry) edges degraded gracefully.
    pub irregular: u64,
    /// Deepest nest observed.
    pub max_depth: u32,
}

/// Per-depth rollup row: `(depth, paths, exec, repeated)`. Depth 0 is
/// the no-loop residue.
pub type DepthRollup = (u32, u64, u64, u64);

impl LoopNestProfile {
    /// Dynamic executions summed over every path — equals the tracker's
    /// `dynamic_total`.
    pub fn total_exec(&self) -> u64 {
        self.paths.iter().map(|p| p.exec).sum()
    }

    /// Repeated executions summed over every path — equals the
    /// tracker's `dynamic_repeated`.
    pub fn total_repeated(&self) -> u64 {
        self.paths.iter().map(|p| p.repeated).sum()
    }

    /// Dynamic executions attributed to some loop.
    pub fn loop_exec(&self) -> u64 {
        self.total_exec() - self.no_loop_exec
    }

    /// Repeated executions attributed to some loop.
    pub fn loop_repeated(&self) -> u64 {
        self.total_repeated() - self.no_loop_repeated
    }

    /// Per-depth rollups, depth ascending (0 = outside every loop).
    pub fn depth_rollups(&self) -> Vec<DepthRollup> {
        let mut out: Vec<DepthRollup> = Vec::new();
        for p in &self.paths {
            let d = p.headers.len() as u32;
            match out.iter_mut().find(|r| r.0 == d) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += p.exec;
                    r.3 += p.repeated;
                }
                None => out.push((d, 1, p.exec, p.repeated)),
            }
        }
        out.sort_by_key(|r| r.0);
        out
    }

    /// Per-class rollups of loop-attributed events, in
    /// [`InsnClass::ALL`] order (all six classes, for a stable document
    /// shape).
    pub fn class_rollups(&self) -> Vec<(InsnClass, u64, u64)> {
        InsnClass::ALL
            .iter()
            .map(|&class| {
                let i = class as usize;
                let exec: u64 = self.loops.iter().map(|l| l.class_exec[i]).sum();
                let rep: u64 = self.loops.iter().map(|l| l.class_repeated[i]).sum();
                (class, exec, rep)
            })
            .collect()
    }

    /// The `k` loops with the most repeated events (repeated
    /// descending, header ascending as the deterministic tiebreak).
    pub fn top_loops(&self, k: usize) -> Vec<&LoopRecord> {
        let mut refs: Vec<&LoopRecord> = self.loops.iter().collect();
        refs.sort_by(|a, b| b.repeated.cmp(&a.repeated).then(a.header.cmp(&b.header)));
        refs.truncate(k);
        refs
    }

    /// Repeated events covered by the top-`k` loops.
    pub fn top_k_repeated(&self, k: usize) -> u64 {
        self.top_loops(k).iter().map(|l| l.repeated).sum()
    }

    /// Per-source-line maximum loop-nest depth, from each loop's body
    /// line span — the `--annotate` loop column.
    pub fn line_depths(&self) -> Vec<(u32, u32)> {
        let mut out: Vec<(u32, u32)> = Vec::new();
        for l in self.loops.iter().filter(|l| l.line_lo != 0) {
            for line in l.line_lo..=l.line_hi {
                match out.iter_mut().find(|(ln, _)| *ln == line) {
                    Some((_, d)) => *d = (*d).max(l.depth),
                    None => out.push((line, l.depth)),
                }
            }
        }
        out.sort_by_key(|&(ln, _)| ln);
        out
    }

    /// Folded frame for one header: `function@0xheader`.
    fn frame(&self, header: u32) -> String {
        match self.loops.binary_search_by_key(&header, |l| l.header) {
            Ok(i) => format!("{}@{:#010x}", self.loops[i].func, header),
            Err(_) => format!("?@{header:#010x}"),
        }
    }
}

/// The loops document behind `instrep-repro --loops-out` /
/// `--loops-folded`: run parameters plus one [`LoopNestProfile`] per
/// workload, in workload order.
#[derive(Debug)]
pub struct LoopsReport {
    /// Scale label (`"tiny"`, `"small"`, `"full"`).
    pub scale: String,
    /// Input-stream seed.
    pub seed: u64,
    /// `k` for the redundancy summary's top-k coverage.
    pub top: usize,
    /// `(workload name, profile)` in fixed workload order.
    pub workloads: Vec<(String, LoopNestProfile)>,
}

impl LoopsReport {
    /// Renders the schema-v1 JSON document: header, then per workload
    /// the loop table, per-depth and per-class rollups, and the
    /// redundancy summary. Key order is fixed; byte-reproducible.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new(Layout::Indented, 256 + self.workloads.len() * 2048);
        w.object(|w| {
            w.key("schema_version").uint(LOOPS_SCHEMA_VERSION.into());
            w.key("kind").str("loops");
            w.key("scale").str(&self.scale);
            w.key("seed").uint(self.seed);
            // No `jobs` field on purpose: the document is byte-identical for
            // every worker count, and recording one would break that.
            w.key("top").uint(self.top as u64);
            w.key("workloads").array(|w| {
                for (name, p) in &self.workloads {
                    w.object(|w| self.write_workload(w, name, p));
                }
            });
        });
        w.newline();
        w.finish()
    }

    /// One workload's members: totals, the loop table, per-depth and
    /// per-class rollups, and the redundancy summary.
    fn write_workload(&self, w: &mut JsonWriter, name: &str, p: &LoopNestProfile) {
        w.key("name").str(name);
        w.key("dynamic_total").uint(p.total_exec());
        w.key("dynamic_repeated").uint(p.total_repeated());
        w.key("loops_discovered").uint(p.loops.len() as u64);
        w.key("back_edges").uint(p.back_edges);
        w.key("irregular_edges").uint(p.irregular);
        w.key("max_depth").uint(p.max_depth.into());
        w.key("no_loop_exec").uint(p.no_loop_exec);
        w.key("no_loop_repeated").uint(p.no_loop_repeated);
        w.key("loops").array(|w| {
            for l in &p.loops {
                w.object(|w| {
                    w.key("header").hex32(l.header);
                    w.key("end").hex32(l.end);
                    w.key("function").str(&l.func);
                    w.key("line_lo").uint(l.line_lo.into());
                    w.key("line_hi").uint(l.line_hi.into());
                    w.key("depth").uint(l.depth.into());
                    w.key("trips").uint(l.trips);
                    w.key("entries").uint(l.entries);
                    w.key("exec").uint(l.exec);
                    w.key("repeated").uint(l.repeated);
                    w.key("unique_repeatable").uint(l.unique_repeatable);
                    w.key("repeat_rate").f3(l.repeat_rate());
                });
            }
        });
        w.key("depths").array(|w| {
            for (depth, paths, exec, repeated) in p.depth_rollups() {
                w.object(|w| {
                    w.key("depth").uint(depth.into());
                    w.key("paths").uint(paths);
                    w.key("exec").uint(exec);
                    w.key("repeated").uint(repeated);
                    w.key("repeat_rate").f3(frac(repeated, exec));
                });
            }
        });
        w.key("classes").array(|w| {
            for (class, exec, repeated) in p.class_rollups() {
                w.object(|w| {
                    w.key("class").str(class.label());
                    w.key("exec").uint(exec);
                    w.key("repeated").uint(repeated);
                    w.key("repeat_rate").f3(frac(repeated, exec));
                });
            }
        });
        // The Shaccour & Mansour-style summary: how much of the
        // workload's repetition the top-k loops alone explain.
        let total_rep = p.total_repeated();
        let top_k_rep = p.top_k_repeated(self.top);
        w.key("redundancy").object(|w| {
            w.key("total_repeated").uint(total_rep);
            w.key("loop_repeated").uint(p.loop_repeated());
            w.key("top_k").uint(self.top as u64);
            w.key("top_k_repeated").uint(top_k_rep);
            w.key("top_k_coverage").f3(frac(top_k_rep, total_rep));
            w.key("loop_coverage").f3(frac(p.loop_repeated(), total_rep));
        });
    }

    /// Renders collapsed-stack lines keyed by loop-nest path:
    ///
    /// ```text
    /// <workload>;executed;<func>@0x<outer>;<func>@0x<inner> <exec>
    /// <workload>;repeated;(no-loop) <repeated>
    /// ```
    ///
    /// The `executed`/`repeated` frame keeps the two weightings of the
    /// same stacks from merging; zero-count lines are omitted
    /// (flamegraph tools reject them).
    pub fn to_folded(&self) -> String {
        let mut s = String::with_capacity(
            self.workloads.iter().map(|(_, p)| p.paths.len()).sum::<usize>() * 2 * 48,
        );
        for (name, p) in &self.workloads {
            for weight in ["executed", "repeated"] {
                for path in &p.paths {
                    let n = if weight == "executed" { path.exec } else { path.repeated };
                    if n == 0 {
                        continue;
                    }
                    let stack = if path.headers.is_empty() {
                        "(no-loop)".to_string()
                    } else {
                        path.headers.iter().map(|&h| p.frame(h)).collect::<Vec<String>>().join(";")
                    };
                    s.push_str(&format!("{name};{weight};{stack} {n}\n"));
                }
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::AnalysisConfig;
    use crate::Session;
    use instrep_isa::abi::TEXT_BASE;
    use instrep_isa::{AluOp, Insn, Reg};
    use instrep_minicc::build;

    fn profiled(src: &str) -> (LoopNestProfile, crate::WorkloadReport) {
        let image = build(src).unwrap();
        let ir = Session::new(AnalysisConfig::default())
            .loops(true)
            .run_one(&image, Vec::new())
            .unwrap();
        (ir.loops.expect("loops were requested"), ir.report)
    }

    const NEST_SRC: &str = r#"int main() {
    int i;
    int j;
    int s = 0;
    for (i = 0; i < 40; i++) {
        for (j = 0; j < 25; j++) {
            s += (i * j) & 15;
        }
    }
    return s & 0xff;
}
"#;

    #[test]
    fn detects_a_two_deep_nest_with_exact_trip_counts() {
        let (p, report) = profiled(NEST_SRC);
        assert!(p.max_depth >= 2, "nest depth {}", p.max_depth);
        assert_eq!(p.total_exec(), report.dynamic_total);
        assert_eq!(p.total_repeated(), report.dynamic_repeated);
        // The inner loop's self exec dominates, and its trip count
        // reflects 40 entries of ~25 trips.
        let inner = p.loops.iter().max_by_key(|l| l.exec).unwrap();
        assert!(inner.depth >= 2, "hottest loop is the inner one: {inner:?}");
        assert!(inner.trips >= 40 * 24, "trips {}", inner.trips);
        assert!(inner.entries >= 40, "entries {}", inner.entries);
        assert!(inner.line_lo >= 5 && inner.line_hi >= inner.line_lo, "{inner:?}");
        assert_eq!(inner.func, "main");
        // Attribution conserves: loop self counts + no-loop = totals.
        let self_exec: u64 = p.loops.iter().map(|l| l.exec).sum();
        assert_eq!(self_exec + p.no_loop_exec, p.total_exec());
        // Well-formed structure flags.
        assert!(p.back_edges > 1000);
        assert!(p.loops.windows(2).all(|w| w[0].header < w[1].header));
    }

    #[test]
    fn rollups_conserve_totals() {
        let (p, _) = profiled(NEST_SRC);
        let depths = p.depth_rollups();
        assert_eq!(depths.iter().map(|r| r.2).sum::<u64>(), p.total_exec());
        assert_eq!(depths.iter().map(|r| r.3).sum::<u64>(), p.total_repeated());
        assert!(depths.iter().any(|r| r.0 >= 2), "a depth-2 row exists: {depths:?}");
        let classes = p.class_rollups();
        assert_eq!(classes.len(), 6);
        assert_eq!(classes.iter().map(|c| c.1).sum::<u64>(), p.loop_exec());
        assert_eq!(classes.iter().map(|c| c.2).sum::<u64>(), p.loop_repeated());
        // Top-k coverage is monotone in k and bounded by loop coverage.
        assert!(p.top_k_repeated(1) <= p.top_k_repeated(2));
        assert!(p.top_k_repeated(usize::MAX) == p.loop_repeated());
    }

    #[test]
    fn calls_from_a_loop_attribute_the_callee_to_the_loop() {
        let (p, report) = profiled(
            r#"int work(int x) {
    return (x * 3) & 127;
}
int main() {
    int i;
    int s = 0;
    for (i = 0; i < 200; i++) {
        s += work(i & 7);
    }
    return s & 0xff;
}
"#,
        );
        // The callee's instructions land under the caller's loop: the
        // loop's self exec far exceeds its own body size * trips.
        let hot = p.loops.iter().max_by_key(|l| l.exec).unwrap();
        assert!(hot.exec > report.dynamic_total / 2, "{hot:?} of {}", report.dynamic_total);
        assert_eq!(p.total_exec(), report.dynamic_total);
    }

    #[test]
    fn zero_iteration_loops_are_invisible_and_harmless() {
        // The inner while never runs (condition false on entry): no
        // back edge, no loop record, nothing lost.
        let (p, report) = profiled(
            r#"int main() {
    int i;
    int s = 0;
    for (i = 0; i < 100; i++) {
        while (s > 1000000) {
            s -= 1;
        }
        s += i & 3;
    }
    return s & 0xff;
}
"#,
        );
        assert_eq!(p.total_exec(), report.dynamic_total);
        assert!(p.max_depth >= 1);
        // Only the for loop (plus any runtime loops) shows up in main.
        let in_main: Vec<&LoopRecord> = p.loops.iter().filter(|l| l.func == "main").collect();
        assert_eq!(in_main.len(), 1, "zero-iteration while detected: {in_main:?}");
    }

    #[test]
    fn do_while_single_back_edge_body_counts_once_per_trip() {
        // `while` with a body that always runs at least once and a
        // single backward branch — the do-while shape at the ISA level.
        let (p, _) = profiled(
            r#"int main() {
    int n = 77;
    int steps = 0;
    while (n != 1) {
        if (n & 1) { n = 3 * n + 1; } else { n = n / 2; }
        steps += 1;
    }
    return steps & 0xff;
}
"#,
        );
        let hot = p.loops.iter().filter(|l| l.func == "main").max_by_key(|l| l.trips).unwrap();
        assert!(hot.trips >= 20, "collatz(77) runs 22 steps: {hot:?}");
        assert!(hot.exec > 0 && hot.depth >= 1);
    }

    // --- synthetic-event edge cases -----------------------------------

    /// A minimal event at static index `idx` with control effect `ctrl`.
    fn ev(idx: u32, ctrl: Option<CtrlEffect>) -> Event {
        Event {
            pc: TEXT_BASE + idx * 4,
            index: idx,
            insn: Insn::alu(AluOp::Add, Reg::V0, Reg::A0, Reg::A1),
            in1: 0,
            in2: 0,
            out: Some(0),
            mem: None,
            ctrl,
        }
    }

    fn back(idx: u32, to: u32) -> Event {
        ev(idx, Some(CtrlEffect::Branch { taken: true, target: TEXT_BASE + to * 4 }))
    }

    #[test]
    fn irregular_multi_entry_flow_is_counted_not_fatal() {
        let mut p = LoopProfiler::new(64);
        // Open a loop with header 10, body to 20.
        for _ in 0..3 {
            for i in 10..20 {
                p.observe(&ev(i, None), true);
            }
            p.observe(&back(20, 10), true);
        }
        assert_eq!(p.loops_discovered(), 1);
        // Now a back edge from inside that body to 5 — below the active
        // header: crosses the loop boundary. Counted, not fatal.
        p.observe(&back(15, 5), true);
        assert_eq!(p.irregular(), 1);
        assert_eq!(p.loops_discovered(), 2);
        // The profiler keeps attributing events afterwards.
        for i in 5..8 {
            p.observe(&ev(i, None), true);
        }
        assert!(p.back_edges() >= 4);
    }

    #[test]
    fn returns_unwind_nest_levels_opened_in_the_callee() {
        let mut p = LoopProfiler::new(64);
        // Caller loop at header 2.
        p.observe(&back(6, 2), true);
        assert_eq!(p.max_depth(), 1);
        // Call into a function with its own loop.
        p.observe(&ev(3, Some(CtrlEffect::Call { target: 0, args: [0; 8], sp: 0, ra: 0 })), true);
        p.observe(&back(40, 30), true);
        assert_eq!(p.max_depth(), 2);
        // Return: the callee's level closes even though its body region
        // is nowhere near the return target.
        p.observe(&ev(42, Some(CtrlEffect::Return { target: TEXT_BASE + 16, v0: 0 })), true);
        p.observe(&ev(4, None), true);
        // Still inside the caller loop only.
        p.observe(&back(6, 2), true);
        assert_eq!(p.loops_discovered(), 2);
        assert_eq!(p.max_depth(), 2);
    }

    #[test]
    fn skip_phase_discovers_nothing_but_tracks_call_depth() {
        let mut p = LoopProfiler::new(64);
        p.observe(&back(6, 2), false);
        assert_eq!(p.loops_discovered(), 0);
        assert_eq!(p.back_edges(), 0);
        p.observe(&ev(3, Some(CtrlEffect::Call { target: 0, args: [0; 8], sp: 0, ra: 0 })), false);
        // Measured events then nest correctly relative to the skip-phase
        // call depth.
        p.observe(&back(40, 30), true);
        p.observe(&ev(42, Some(CtrlEffect::Return { target: TEXT_BASE, v0: 0 })), true);
        assert_eq!(p.loops_discovered(), 1);
    }

    #[test]
    fn folded_stacks_are_well_formed() {
        let (p, report) = profiled(NEST_SRC);
        let doc = LoopsReport {
            scale: "tiny".into(),
            seed: 1,
            top: 3,
            workloads: vec![("nest".into(), p)],
        };
        let folded = doc.to_folded();
        let mut exec_total = 0u64;
        let mut rep_total = 0u64;
        for line in folded.lines() {
            let (stack, count) = line.rsplit_once(' ').unwrap();
            let count: u64 = count.parse().unwrap();
            assert!(count > 0, "zero-weight folded line: {line}");
            let frames: Vec<&str> = stack.split(';').collect();
            assert_eq!(frames[0], "nest");
            match frames[1] {
                "executed" => exec_total += count,
                "repeated" => rep_total += count,
                other => panic!("bad weight frame {other}"),
            }
            assert!(frames[2] == "(no-loop)" || frames[2].contains("@0x"), "{stack}");
        }
        assert_eq!(exec_total, report.dynamic_total);
        assert_eq!(rep_total, report.dynamic_repeated);
    }

    #[test]
    fn empty_profile_renders_cleanly() {
        let p = LoopNestProfile::default();
        assert_eq!(p.total_exec(), 0);
        assert!(p.top_loops(5).is_empty());
        assert_eq!(p.class_rollups().len(), 6);
        let doc = LoopsReport {
            scale: "tiny".into(),
            seed: 0,
            top: 5,
            workloads: vec![("empty".into(), p)],
        };
        assert!(doc.to_folded().is_empty());
        assert!(doc.to_json().contains("\"loops_discovered\": 0,"));
    }
}

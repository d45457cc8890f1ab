//! Function-level analysis (paper §5.2 and §6; Tables 4 and 8, Figure 5).
//!
//! Tracks, per static function: dynamic call counts, *all-argument* and
//! *no-argument* repetition, the frequency of each argument tuple (for
//! specialization coverage, Figure 5), and whether each dynamic call was
//! free of side effects and implicit inputs (memoizability, Table 8).
//!
//! Side effects are stores to global or heap memory and syscalls;
//! implicit inputs are loads from global or heap memory. Both are
//! attributed to the executing function *and all of its callers on the
//! stack*, matching the paper's treatment of functions as including their
//! callees.

use instrep_asm::Image;
use instrep_isa::abi::Region;
use instrep_sim::{CtrlEffect, Event};

use crate::coverage::top_k_coverage;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::interval::frac;

/// Cap on distinct argument tuples (and per-argument values) tracked per
/// function; beyond this, new tuples are classified non-repeated and not
/// recorded. Mirrors the bounded instance buffering of the tracker.
const MAX_TUPLES: usize = 1 << 16;

/// An argument tuple: up to 8 values, truncated to the callee's arity.
type ArgTuple = Vec<u32>;

/// Per-function statistics.
#[derive(Debug, Clone, Default)]
pub struct FuncStats {
    /// Function name (from image metadata).
    pub name: String,
    /// Declared parameter count.
    pub arity: u8,
    /// Dynamic calls observed.
    pub calls: u64,
    /// Calls whose full argument tuple had been seen before.
    pub all_args_repeated: u64,
    /// Calls where no individual argument value had been seen before.
    pub no_args_repeated: u64,
    /// Calls (including callees) with no side effects or implicit inputs.
    pub pure_calls: u64,
    /// Pure calls that were also all-argument repeated.
    pub pure_all_arg_calls: u64,
    /// Frequency of each argument tuple (capped at [`MAX_TUPLES`]).
    tuples: FxHashMap<ArgTuple, u64>,
    /// Values seen per argument position (capped).
    seen_per_arg: Vec<FxHashSet<u32>>,
}

impl FuncStats {
    /// Number of distinct argument tuples observed (capped).
    pub fn distinct_tuples(&self) -> usize {
        self.tuples.len()
    }
}

/// A call-stack frame tracked by the analysis.
#[derive(Debug, Clone, Copy)]
struct Frame {
    /// Index into `funcs`, or `None` for calls to unknown targets.
    func: Option<usize>,
    /// Whether this call's argument tuple was repeated (set at call time,
    /// consumed at return for Table 8 column 3).
    all_arg: bool,
    side_effect: bool,
    implicit_input: bool,
}

/// Function-level argument-repetition and purity analysis.
#[derive(Debug)]
pub struct FunctionAnalysis {
    /// Function entry pc -> index into `funcs`.
    by_entry: FxHashMap<u32, usize>,
    funcs: Vec<FuncStats>,
    stack: Vec<Frame>,
    total_calls: u64,
}

impl FunctionAnalysis {
    /// Creates the analysis from an image's function metadata.
    pub fn new(image: &Image) -> FunctionAnalysis {
        let mut by_entry = FxHashMap::default();
        let mut funcs = Vec::with_capacity(image.funcs.len());
        for meta in &image.funcs {
            by_entry.insert(meta.entry, funcs.len());
            funcs.push(FuncStats {
                name: meta.name.clone(),
                arity: meta.arity,
                seen_per_arg: vec![FxHashSet::default(); meta.arity as usize],
                ..FuncStats::default()
            });
        }
        FunctionAnalysis {
            by_entry,
            funcs,
            // Synthetic frame for the startup code we entered without a
            // call event.
            stack: vec![Frame {
                func: None,
                all_arg: false,
                side_effect: false,
                implicit_input: false,
            }],
            total_calls: 0,
        }
    }

    /// Observes one retired instruction. Call-stack state always updates;
    /// statistics only while `counting`. `region` classifies the address
    /// of the instruction's memory access, if any.
    pub fn observe(&mut self, ev: &Event, counting: bool, region: Option<Region>) {
        // Fast path: most instructions touch neither memory nor control.
        if ev.mem.is_none() && ev.ctrl.is_none() {
            return;
        }
        // Purity flags for the current frame.
        if let Some(mem) = &ev.mem {
            if matches!(region, Some(Region::Data | Region::Heap)) {
                if let Some(top) = self.stack.last_mut() {
                    if mem.is_load {
                        top.implicit_input = true;
                    } else {
                        top.side_effect = true;
                    }
                }
            }
        }
        match ev.ctrl {
            Some(CtrlEffect::Syscall { .. }) | Some(CtrlEffect::Exit { .. }) => {
                if let Some(top) = self.stack.last_mut() {
                    top.side_effect = true;
                }
            }
            Some(CtrlEffect::Call { target, args, .. }) => {
                let func = self.by_entry.get(&target).copied();
                let mut all_arg = false;
                if let Some(fi) = func {
                    if counting {
                        all_arg = self.record_call(fi, &args);
                    }
                }
                self.stack.push(Frame { func, all_arg, side_effect: false, implicit_input: false });
            }
            Some(CtrlEffect::Return { .. }) => {
                if let Some(frame) = self.stack.pop() {
                    if counting {
                        if let Some(fi) = frame.func {
                            if !frame.side_effect && !frame.implicit_input {
                                self.funcs[fi].pure_calls += 1;
                                if frame.all_arg {
                                    self.funcs[fi].pure_all_arg_calls += 1;
                                }
                            }
                        }
                    }
                    // A callee's effects are its caller's effects too.
                    if let Some(parent) = self.stack.last_mut() {
                        parent.side_effect |= frame.side_effect;
                        parent.implicit_input |= frame.implicit_input;
                    }
                }
            }
            _ => {}
        }
    }

    /// Records a call's argument statistics; returns whether the full
    /// argument tuple was repeated.
    fn record_call(&mut self, fi: usize, args: &[u32; 8]) -> bool {
        self.total_calls += 1;
        let f = &mut self.funcs[fi];
        f.calls += 1;
        let arity = f.arity as usize;
        let tuple = &args[..arity];

        // All-argument repetition. The map is queried through a borrowed
        // slice so the repeated-call path allocates nothing.
        let mut all_repeated = false;
        if let Some(c) = f.tuples.get_mut(tuple) {
            *c += 1;
            all_repeated = true;
        } else if f.tuples.len() < MAX_TUPLES {
            f.tuples.insert(tuple.to_vec(), 1);
        }
        if all_repeated {
            f.all_args_repeated += 1;
        }

        // No-argument repetition: every individual argument value is new.
        // For zero-arity functions only the first call qualifies.
        let mut none_repeated = !all_repeated;
        for (i, &v) in tuple.iter().enumerate() {
            let seen = &mut f.seen_per_arg[i];
            if seen.contains(&v) {
                none_repeated = false;
            } else if seen.len() < MAX_TUPLES {
                seen.insert(v);
            }
        }
        if none_repeated {
            f.no_args_repeated += 1;
        }
        all_repeated
    }

    /// Per-function statistics, in image metadata order.
    pub fn funcs(&self) -> &[FuncStats] {
        &self.funcs
    }

    /// Number of static functions called at least once.
    pub fn static_called(&self) -> usize {
        self.funcs.iter().filter(|f| f.calls > 0).count()
    }

    /// Total dynamic calls to known functions.
    pub fn total_calls(&self) -> u64 {
        self.total_calls
    }

    /// Total distinct argument tuples buffered across all functions
    /// (occupancy gauge for the argument-set tables).
    pub fn distinct_argtuples(&self) -> u64 {
        self.funcs.iter().map(|f| f.distinct_tuples() as u64).sum()
    }

    /// Fraction of dynamic calls with all arguments repeated (Table 4).
    pub fn all_arg_rate(&self) -> f64 {
        frac(self.funcs.iter().map(|f| f.all_args_repeated).sum(), self.total_calls)
    }

    /// Fraction of dynamic calls with no argument repeated (Table 4).
    pub fn no_arg_rate(&self) -> f64 {
        frac(self.funcs.iter().map(|f| f.no_args_repeated).sum(), self.total_calls)
    }

    /// Fraction of dynamic calls free of side effects and implicit
    /// inputs (Table 8, column 2).
    pub fn pure_rate(&self) -> f64 {
        frac(self.funcs.iter().map(|f| f.pure_calls).sum(), self.total_calls)
    }

    /// Fraction of all-argument-repeated calls that were pure (Table 8,
    /// column 3).
    pub fn pure_all_arg_rate(&self) -> f64 {
        let pure: u64 = self.funcs.iter().map(|f| f.pure_all_arg_calls).sum();
        let all: u64 = self.funcs.iter().map(|f| f.all_args_repeated).sum();
        frac(pure, all)
    }

    /// Aggregate Figure 5 curve: fraction of all-argument repetition
    /// covered by specializing every function for its `k` most frequent
    /// argument tuples, for `k` in `1..=max_k`.
    pub fn top_argset_coverage(&self, max_k: usize) -> Vec<f64> {
        top_k_coverage(self.funcs.iter().map(|f| f.tuples.values().copied()), max_k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instrep_asm::FuncMeta;
    use instrep_isa::abi;
    use instrep_isa::{Insn, MemOp, MemWidth, Reg};
    use instrep_sim::MemEffect;

    fn image_two_funcs() -> Image {
        Image {
            funcs: vec![
                FuncMeta { name: "f".into(), entry: 0x40_0000, end: 0x40_0010, arity: 2 },
                FuncMeta { name: "g".into(), entry: 0x40_0010, end: 0x40_0020, arity: 0 },
            ],
            ..Image::default()
        }
    }

    fn call_event(target: u32, a0: u32, a1: u32) -> Event {
        Event {
            pc: 0x40_0100,
            index: 64,
            insn: Insn::Jump { link: true, target: target >> 2 },
            in1: 0,
            in2: 0,
            out: Some(0x40_0104),
            mem: None,
            ctrl: Some(CtrlEffect::Call {
                target,
                args: [a0, a1, 0, 0, 0, 0, 0, 0],
                sp: abi::STACK_TOP,
                ra: 0x40_0104,
            }),
        }
    }

    fn return_event() -> Event {
        Event {
            pc: 0x40_000c,
            index: 3,
            insn: Insn::Jr { rs: Reg::RA },
            in1: 0x40_0104,
            in2: 0,
            out: None,
            mem: None,
            ctrl: Some(CtrlEffect::Return { target: 0x40_0104, v0: 1 }),
        }
    }

    fn heap_store() -> Event {
        let addr = abi::DATA_BASE + 0x100;
        Event {
            pc: 0x40_0004,
            index: 1,
            insn: Insn::Mem {
                op: MemOp::Store(MemWidth::Word),
                rt: Reg::T0,
                base: Reg::T1,
                off: 0,
            },
            in1: addr,
            in2: 5,
            out: None,
            mem: Some(MemEffect { addr, width: MemWidth::Word, value: 5, is_load: false }),
            ctrl: None,
        }
    }

    #[test]
    fn argument_repetition() {
        let img = image_two_funcs();
        let mut fa = FunctionAnalysis::new(&img);
        fa.observe(&call_event(0x40_0000, 1, 2), true, None);
        fa.observe(&return_event(), true, None);
        fa.observe(&call_event(0x40_0000, 1, 2), true, None); // all repeated
        fa.observe(&return_event(), true, None);
        fa.observe(&call_event(0x40_0000, 1, 9), true, None); // partial (a0 seen)
        fa.observe(&return_event(), true, None);
        fa.observe(&call_event(0x40_0000, 7, 8), true, None); // none repeated
        fa.observe(&return_event(), true, None);

        let f = &fa.funcs()[0];
        assert_eq!(f.calls, 4);
        assert_eq!(f.all_args_repeated, 1);
        // First call and the (7,8) call have no repeated arg values.
        assert_eq!(f.no_args_repeated, 2);
        assert_eq!(fa.total_calls(), 4);
        assert!((fa.all_arg_rate() - 0.25).abs() < 1e-9);
        assert!((fa.no_arg_rate() - 0.5).abs() < 1e-9);
        assert_eq!(f.distinct_tuples(), 3);
    }

    #[test]
    fn zero_arity_calls_vacuously_repeat() {
        let img = image_two_funcs();
        let mut fa = FunctionAnalysis::new(&img);
        for _ in 0..3 {
            fa.observe(&call_event(0x40_0010, 0, 0), true, None);
            fa.observe(&return_event(), true, None);
        }
        let g = &fa.funcs()[1];
        assert_eq!(g.calls, 3);
        assert_eq!(g.all_args_repeated, 2); // all but the first
        assert_eq!(g.no_args_repeated, 1); // only the first
    }

    #[test]
    fn purity_tracking_includes_callees() {
        let img = image_two_funcs();
        let mut fa = FunctionAnalysis::new(&img);
        // f calls g; g stores to the heap; both become impure.
        fa.observe(&call_event(0x40_0000, 1, 2), true, None);
        fa.observe(&call_event(0x40_0010, 0, 0), true, None);
        fa.observe(&heap_store(), true, Some(Region::Heap));
        fa.observe(&return_event(), true, None); // g returns
        fa.observe(&return_event(), true, None); // f returns
        assert_eq!(fa.funcs()[0].pure_calls, 0);
        assert_eq!(fa.funcs()[1].pure_calls, 0);

        // A second call to f that does nothing is pure.
        fa.observe(&call_event(0x40_0000, 1, 2), true, None);
        fa.observe(&return_event(), true, None);
        assert_eq!(fa.funcs()[0].pure_calls, 1);
        assert!(fa.pure_rate() > 0.0);
    }

    #[test]
    fn implicit_input_spoils_purity() {
        let img = image_two_funcs();
        let mut fa = FunctionAnalysis::new(&img);
        fa.observe(&call_event(0x40_0000, 1, 2), true, None);
        let mut load = heap_store();
        load.mem = Some(MemEffect {
            addr: abi::DATA_BASE,
            width: MemWidth::Word,
            value: 5,
            is_load: true,
        });
        fa.observe(&load, true, Some(Region::Data));
        fa.observe(&return_event(), true, None);
        assert_eq!(fa.funcs()[0].pure_calls, 0);
    }

    #[test]
    fn stack_access_keeps_purity() {
        let img = image_two_funcs();
        let mut fa = FunctionAnalysis::new(&img);
        fa.observe(&call_event(0x40_0000, 1, 2), true, None);
        let mut store = heap_store();
        store.mem = Some(MemEffect {
            addr: abi::STACK_TOP - 8,
            width: MemWidth::Word,
            value: 5,
            is_load: false,
        });
        fa.observe(&store, true, Some(Region::Stack));
        fa.observe(&return_event(), true, None);
        assert_eq!(fa.funcs()[0].pure_calls, 1);
    }

    #[test]
    fn top_argset_coverage_figure5() {
        let img = image_two_funcs();
        let mut fa = FunctionAnalysis::new(&img);
        // Tuples: (1,1) x5, (2,2) x3, (3,3) x1.
        for (v, n) in [(1u32, 5), (2, 3), (3, 1)] {
            for _ in 0..n {
                fa.observe(&call_event(0x40_0000, v, v), true, None);
                fa.observe(&return_event(), true, None);
            }
        }
        // Repeated calls: (5-1) + (3-1) + 0 = 6.
        let cov = fa.top_argset_coverage(5);
        assert!((cov[0] - 4.0 / 6.0).abs() < 1e-9);
        assert!((cov[1] - 1.0).abs() < 1e-9);
        assert_eq!(cov.len(), 5);
        assert_eq!(fa.static_called(), 1);
    }

    #[test]
    fn counting_gate_stops_stats_not_stack() {
        let img = image_two_funcs();
        let mut fa = FunctionAnalysis::new(&img);
        fa.observe(&call_event(0x40_0000, 1, 2), false, None);
        assert_eq!(fa.total_calls(), 0);
        // The frame exists: a heap store inside still taints the frame,
        // and the return pops it without counting.
        fa.observe(&heap_store(), false, Some(Region::Heap));
        fa.observe(&return_event(), false, None);
        assert_eq!(fa.funcs()[0].calls, 0);
    }
}

//! Local (within-function) analysis (paper §5.3; Tables 5–7 and 9,
//! Figure 6).
//!
//! Each dynamic instruction is binned into one of ten categories, using
//! two classification criteria:
//!
//! * **task-based** (checked first): `prologue`, `epilogue`,
//!   `glb_addr_calc`, `return`, and `SP` arithmetic;
//! * **source-based**: the supersede rule
//!   `arguments ≻ return values ≻ global/heap ≻ function internals`
//!   over per-register value tags that are re-established at every call
//!   boundary, exactly as in the paper: argument registers are tagged
//!   *argument* on entry, `$v0` is tagged *return value* after a call
//!   returns, loads from the data segment re-tag as *global*, loads from
//!   the heap as *heap*, and stack memory preserves the tag of the value
//!   spilled into it.
//!
//! Prologue/epilogue detection follows the paper: on function entry all
//! registers except the argument registers are marked frame-uninitialized;
//! stores of such registers to the stack are prologue (and their slots
//! remembered), loads from remembered slots are epilogue, and stack
//! allocation/deallocation instructions join the respective category.

use instrep_asm::Image;
use instrep_isa::abi::{self, Region};
use instrep_isa::{decode, ImmOp, Insn, Reg};
use instrep_sim::{CtrlEffect, Event};

use crate::coverage::top_k_coverage;
use crate::fxhash::FxHashMap;
use crate::interval::frac;
use crate::shadow::ShadowPages;

/// The ten local-analysis categories, in the paper's row order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum LocalCat {
    /// Callee-saved register saves and stack allocation.
    Prologue = 0,
    /// Restores of saved registers and stack deallocation.
    Epilogue = 1,
    /// Slices originating from immediates inside the function.
    FuncInternal = 2,
    /// Global-variable address formation (gp-relative or immediate).
    GlbAddrCalc = 3,
    /// Function returns (`jr $ra`).
    Return = 4,
    /// Arithmetic on the stack pointer (other than frame alloc/dealloc).
    Sp = 5,
    /// Slices originating from values returned by callees.
    ReturnValue = 6,
    /// Slices originating from function arguments.
    Argument = 7,
    /// Slices originating from data-segment loads.
    Global = 8,
    /// Slices originating from heap loads.
    Heap = 9,
}

impl LocalCat {
    /// All categories in reporting order (paper Tables 5–7 rows).
    pub const ALL: [LocalCat; 10] = [
        LocalCat::Prologue,
        LocalCat::Epilogue,
        LocalCat::FuncInternal,
        LocalCat::GlbAddrCalc,
        LocalCat::Return,
        LocalCat::Sp,
        LocalCat::ReturnValue,
        LocalCat::Argument,
        LocalCat::Global,
        LocalCat::Heap,
    ];

    /// Row label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            LocalCat::Prologue => "prologue",
            LocalCat::Epilogue => "epilogue",
            LocalCat::FuncInternal => "function internals",
            LocalCat::GlbAddrCalc => "glb_addr_calc",
            LocalCat::Return => "return",
            LocalCat::Sp => "SP",
            LocalCat::ReturnValue => "return values",
            LocalCat::Argument => "arguments",
            LocalCat::Global => "global",
            LocalCat::Heap => "heap",
        }
    }
}

/// Value-source tag, ordered by supersede priority (higher wins).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
enum SrcTag {
    FnInternal = 0,
    Heap = 1,
    Global = 2,
    ReturnValue = 3,
    Argument = 4,
}

impl SrcTag {
    /// Decodes a tag from its `repr(u8)` discriminant.
    fn from_u8(v: u8) -> SrcTag {
        match v {
            0 => SrcTag::FnInternal,
            1 => SrcTag::Heap,
            2 => SrcTag::Global,
            3 => SrcTag::ReturnValue,
            _ => SrcTag::Argument,
        }
    }

    fn to_cat(self) -> LocalCat {
        match self {
            SrcTag::FnInternal => LocalCat::FuncInternal,
            SrcTag::Heap => LocalCat::Heap,
            SrcTag::Global => LocalCat::Global,
            SrcTag::ReturnValue => LocalCat::ReturnValue,
            SrcTag::Argument => LocalCat::Argument,
        }
    }
}

/// Per-category counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocalCounts {
    /// Dynamic instructions per category.
    pub overall: [u64; 10],
    /// Repeated dynamic instructions per category.
    pub repeated: [u64; 10],
}

impl LocalCounts {
    /// Total instructions counted.
    pub fn total(&self) -> u64 {
        self.overall.iter().sum()
    }

    /// Table 5: category share of all dynamic instructions.
    pub fn overall_share(&self, cat: LocalCat) -> f64 {
        frac(self.overall[cat as usize], self.total())
    }

    /// Table 6: category share of all repeated instructions.
    pub fn repeated_share(&self, cat: LocalCat) -> f64 {
        frac(self.repeated[cat as usize], self.repeated.iter().sum())
    }

    /// Table 7: fraction of the category's instructions that repeated.
    pub fn propensity(&self, cat: LocalCat) -> f64 {
        frac(self.repeated[cat as usize], self.overall[cat as usize])
    }
}

/// Cap on distinct values profiled per global/heap load (Figure 6).
const MAX_LOAD_VALUES: usize = 4096;

/// "No register" sentinel in [`LMeta`] operand slots. Distinct from
/// `Reg::ZERO`'s number: an absent operand contributes nothing to the
/// supersede max, while `$zero` contributes `FnInternal`.
const NO_REG: u8 = 0xFF;

/// `jr $ra` — a function return.
const LM_RET: u16 = 1 << 0;
/// `addi $sp, $sp, imm` — frame allocation or deallocation.
const LM_SP_ALLOC: u16 = 1 << 1;
/// The frame-allocation immediate is negative (allocation = prologue).
const LM_SP_NEG: u16 = 1 << 2;
/// Memory store (value register in `rt`).
const LM_STORE: u16 = 1 << 3;
/// Memory load.
const LM_LOAD: u16 = 1 << 4;
/// The memory base register is `$sp`.
const LM_BASE_SP: u16 = 1 << 5;
/// `lui` — address-constant candidate.
const LM_LUI: u16 = 1 << 6;
/// Immediate-operand instruction (gaddr rule keys off `s1`).
const LM_IMM: u16 = 1 << 7;
/// Register-register ALU instruction (gaddr rule over `s1`/`s2`).
const LM_ALU: u16 = 1 << 8;
/// Non-memory instruction reading `$sp` — the SP-arithmetic category.
const LM_SP_ARITH: u16 = 1 << 9;
/// The destination receives the link address (function-internal).
const LM_LINK: u16 = 1 << 10;

/// Per-static-instruction classification rules, precomputed at
/// construction so the per-event path indexes a flat table instead of
/// re-matching the instruction enum on every retired instruction.
#[derive(Debug, Clone, Copy)]
struct LMeta {
    /// First register read, or [`NO_REG`].
    s1: u8,
    /// Second register read, or [`NO_REG`].
    s2: u8,
    /// Destination register, or [`NO_REG`].
    def: u8,
    /// Memory value register (`rt`), or [`NO_REG`].
    rt: u8,
    flags: u16,
}

impl LMeta {
    /// The row of an undecodable word: reads and writes nothing. No event
    /// comes from one, as `Machine::try_new` refuses such an image.
    const INERT: LMeta = LMeta { s1: NO_REG, s2: NO_REG, def: NO_REG, rt: NO_REG, flags: 0 };

    /// Derives the classification rules for one instruction. This is the
    /// single source of truth for `classify`/`propagate`; the
    /// precomputed table is this function applied to the text segment.
    fn of(insn: &Insn) -> LMeta {
        let mut m = LMeta { s1: NO_REG, s2: NO_REG, def: NO_REG, rt: NO_REG, flags: 0 };
        match *insn {
            Insn::Jr { rs } if rs == Reg::RA => m.flags |= LM_RET,
            Insn::Imm { op: ImmOp::Addi, rt, rs, imm } if rt == Reg::SP && rs == Reg::SP => {
                m.flags |= LM_SP_ALLOC;
                if imm < 0 {
                    m.flags |= LM_SP_NEG;
                }
            }
            _ => {}
        }
        match *insn {
            Insn::Mem { op, rt, base, .. } => {
                m.rt = rt.number();
                if base == Reg::SP {
                    m.flags |= LM_BASE_SP;
                }
                m.flags |= if op.is_load() { LM_LOAD } else { LM_STORE };
            }
            Insn::Lui { .. } => m.flags |= LM_LUI,
            Insn::Imm { .. } => m.flags |= LM_IMM,
            Insn::Alu { .. } => m.flags |= LM_ALU,
            Insn::Jump { link: true, .. } | Insn::Jalr { .. } => m.flags |= LM_LINK,
            _ => {}
        }
        let [u1, u2] = insn.uses();
        if let Some(r) = u1 {
            m.s1 = r.number();
        }
        if let Some(r) = u2 {
            m.s2 = r.number();
        }
        if let Some(dst) = insn.def() {
            m.def = dst.number();
        }
        if m.flags & (LM_LOAD | LM_STORE) == 0
            && insn.uses().into_iter().flatten().any(|r| r == Reg::SP)
        {
            m.flags |= LM_SP_ARITH;
        }
        m
    }
}

/// Value profile of one static global/heap load instruction.
#[derive(Debug, Clone, Default)]
struct LoadProfile {
    values: FxHashMap<u32, u64>,
}

/// One call-stack frame of the local analysis.
#[derive(Debug, Clone)]
struct LocalFrame {
    /// Index into the image's function metadata, if known.
    func: Option<usize>,
    /// Registers not yet written in this frame (prologue-save candidates).
    unwritten: u32,
    /// Where this frame's prologue saves start in
    /// [`LocalAnalysis::saved_slots`].
    saved_from: usize,
}

/// The local (within-function) categorization analysis.
#[derive(Debug)]
pub struct LocalAnalysis {
    /// Per-register source tags.
    tags: [SrcTag; 32],
    /// Per-register flag: value is a pure global-address-calculation
    /// product (derived only from gp / data-segment immediates).
    gaddr: u32,
    /// Shadow tags for stack words (spills preserve provenance). Each
    /// slot is `tag + 1`, so the paged store's `0` means "no tag".
    stack_tags: ShadowPages,
    /// Tagged stack words (occupancy gauge; kept incrementally).
    stack_tag_count: u64,
    frames: Vec<LocalFrame>,
    /// Stack addresses written by prologue saves, for every frame on
    /// the call stack: a frame's own slots run from its `saved_from` to
    /// the end, and a return truncates them away. One stack for all
    /// frames, so a call allocates nothing.
    saved_slots: Vec<u32>,
    counts: LocalCounts,
    /// Prologue+epilogue repetition per function (paper Table 9).
    pe_repeats: Vec<u64>,
    pe_total: u64,
    /// Precomputed classification rules, one row per text word, indexed
    /// by `Event::index`.
    meta: Vec<LMeta>,
    /// Figure 6 value profiles, densely indexed by static load index.
    load_profiles: Vec<Option<Box<LoadProfile>>>,
    /// Load sites with a profile (occupancy gauge; kept incrementally).
    load_site_count: u64,
    /// Names/sizes from image metadata, for reports.
    func_names: Vec<(String, u32)>,
    /// Declared arity per function.
    arities: Vec<u8>,
    by_entry: FxHashMap<u32, usize>,
}

impl LocalAnalysis {
    /// Creates the analysis for a loaded image.
    pub fn new(image: &Image) -> LocalAnalysis {
        let mut by_entry = FxHashMap::default();
        let mut func_names = Vec::with_capacity(image.funcs.len());
        let mut arities = Vec::with_capacity(image.funcs.len());
        for (i, meta) in image.funcs.iter().enumerate() {
            by_entry.insert(meta.entry, i);
            func_names.push((meta.name.clone(), meta.size_insns()));
            arities.push(meta.arity);
        }
        LocalAnalysis {
            tags: [SrcTag::FnInternal; 32],
            gaddr: 0,
            stack_tags: ShadowPages::default(),
            stack_tag_count: 0,
            frames: vec![LocalFrame { func: None, unwritten: 0, saved_from: 0 }],
            saved_slots: Vec::new(),
            counts: LocalCounts::default(),
            pe_repeats: vec![0; image.funcs.len()],
            pe_total: 0,
            meta: image
                .text
                .iter()
                .map(|&w| decode(w).map_or(LMeta::INERT, |insn| LMeta::of(&insn)))
                .collect(),
            load_profiles: Vec::new(),
            load_site_count: 0,
            func_names,
            arities,
            by_entry,
        }
    }

    fn set_tag(&mut self, r: Reg, t: SrcTag) {
        if r != Reg::ZERO {
            self.tags[r.number() as usize] = t;
        }
    }

    /// Tag of the stack word containing `addr` (untagged words read as
    /// function-internal, like the pre-paged hash map's absent entries).
    fn stack_tag(&self, addr: u32) -> SrcTag {
        match self.stack_tags.get(addr) {
            0 => SrcTag::FnInternal,
            v => SrcTag::from_u8(v - 1),
        }
    }

    /// Tags the stack word containing `addr`.
    fn set_stack_tag(&mut self, addr: u32, t: SrcTag) {
        let slot = self.stack_tags.slot_mut(addr);
        if *slot == 0 {
            self.stack_tag_count += 1;
        }
        *slot = t as u8 + 1;
    }

    /// [`is_gaddr_n`](Self::is_gaddr_n) over a meta operand slot
    /// (register number or [`NO_REG`]).
    fn is_gaddr_n(&self, n: u8) -> bool {
        n != NO_REG && (n == Reg::GP.number() || (self.gaddr >> n) & 1 == 1)
    }

    /// The gaddr rule for a two-register ALU instruction: every operand
    /// is a global-address product or `$zero`, and at least one is a
    /// global-address product.
    fn is_gaddr_alu(&self, rs: u8, rt: u8) -> bool {
        let (gs, gt) = (self.is_gaddr_n(rs), self.is_gaddr_n(rt));
        (gs || rs == 0) && (gt || rt == 0) && (gs || gt)
    }

    /// Observes one retired instruction, classifying it and updating tag
    /// and frame state. `region` classifies a memory access's address;
    /// `repeated` is the tracker verdict; statistics accumulate only when
    /// `counting`.
    ///
    /// # Panics
    ///
    /// Panics if `ev.index` is out of range for the image this analysis
    /// was built for.
    pub fn observe(&mut self, ev: &Event, repeated: bool, counting: bool, region: Option<Region>) {
        let m = self.meta[ev.index as usize];
        let f = m.flags;

        // Shared sub-results: classification and propagation both need
        // the operand-tag supersede max, the loaded value's source tag,
        // and the global-address-product predicate, and nothing between
        // the two touches the state they read (tags, gaddr bits, shadow
        // stack tags) — so each is computed exactly once per event.
        let sp = Reg::SP.number();
        let mut reg_tag = SrcTag::FnInternal;
        if m.s1 != NO_REG && m.s1 != sp {
            reg_tag = reg_tag.max(self.tags[m.s1 as usize]);
        }
        if m.s2 != NO_REG && m.s2 != sp {
            reg_tag = reg_tag.max(self.tags[m.s2 as usize]);
        }
        let loaded_tag = match ev.mem {
            Some(mem) if mem.is_load => Some(self.data_tag(mem.addr, region)),
            _ => None,
        };
        let g = if f & LM_LUI != 0 {
            (abi::DATA_BASE..abi::STACK_REGION_BASE).contains(&ev.outcome())
        } else if f & LM_IMM != 0 {
            self.is_gaddr_n(m.s1)
        } else if f & LM_ALU != 0 {
            self.is_gaddr_alu(m.s1, m.s2)
        } else {
            false
        };

        let cat = self.classify(&m, ev, region, reg_tag, loaded_tag, g);

        // -- statistics --
        if counting {
            self.counts.overall[cat as usize] += 1;
            if repeated {
                self.counts.repeated[cat as usize] += 1;
            }
            if matches!(cat, LocalCat::Prologue | LocalCat::Epilogue) && repeated {
                self.pe_total += 1;
                if let Some(fi) = self.frames.last().and_then(|f| f.func) {
                    self.pe_repeats[fi] += 1;
                }
            }
            if matches!(cat, LocalCat::Global | LocalCat::Heap) {
                if let Some(mem) = ev.mem {
                    if mem.is_load && matches!(region, Some(Region::Data | Region::Heap)) {
                        let idx = ev.index as usize;
                        if idx >= self.load_profiles.len() {
                            self.load_profiles.resize_with(idx + 1, || None);
                        }
                        let slot = &mut self.load_profiles[idx];
                        if slot.is_none() {
                            *slot = Some(Box::default());
                            self.load_site_count += 1;
                        }
                        let profile = slot.as_mut().expect("just materialized");
                        if profile.values.len() < MAX_LOAD_VALUES
                            || profile.values.contains_key(&mem.value)
                        {
                            *profile.values.entry(mem.value).or_insert(0) += 1;
                        }
                    }
                }
            }
        }

        // -- state propagation --
        self.propagate(&m, ev, region, reg_tag, loaded_tag, g);
    }

    /// Determines the instruction's category (task-based first, then
    /// source tags) *before* state is updated. `reg_tag`, `loaded_tag`,
    /// and `g` are the shared sub-results from `observe`.
    fn classify(
        &mut self,
        m: &LMeta,
        ev: &Event,
        region: Option<Region>,
        reg_tag: SrcTag,
        loaded_tag: Option<SrcTag>,
        g: bool,
    ) -> LocalCat {
        let f = m.flags;
        // Returns.
        if f & LM_RET != 0 {
            return LocalCat::Return;
        }
        // Stack allocation / deallocation.
        if f & LM_SP_ALLOC != 0 {
            return if f & LM_SP_NEG != 0 { LocalCat::Prologue } else { LocalCat::Epilogue };
        }
        if f & LM_STORE != 0 {
            // Prologue saves: store of a not-yet-written register to the
            // stack.
            if let Some(mem) = ev.mem {
                if region == Some(Region::Stack) {
                    let frame = self.frames.last().expect("frame stack never empty");
                    if (frame.unwritten >> m.rt) & 1 == 1 && f & LM_BASE_SP != 0 {
                        self.saved_slots.push(mem.addr);
                        return LocalCat::Prologue;
                    }
                }
            }
        } else if f & LM_LOAD != 0 {
            // Epilogue restores: load from a remembered save slot.
            if let Some(mem) = ev.mem {
                if region == Some(Region::Stack) && f & LM_BASE_SP != 0 {
                    let frame = self.frames.last().expect("frame stack never empty");
                    if self.saved_slots[frame.saved_from..].contains(&mem.addr) {
                        return LocalCat::Epilogue;
                    }
                }
            }
        }

        // Global address calculation: instructions deriving a value
        // purely from gp or data-segment address immediates.
        if f & LM_LUI != 0 {
            return if g { LocalCat::GlbAddrCalc } else { LocalCat::FuncInternal };
        }
        if f & (LM_IMM | LM_ALU) != 0 && g {
            return LocalCat::GlbAddrCalc;
        }

        // SP arithmetic (frame alloc/dealloc already handled above).
        if f & LM_SP_ARITH != 0 {
            return LocalCat::Sp;
        }

        // Source-based classification.
        let mut tag = reg_tag;
        if let Some(t) = loaded_tag {
            tag = tag.max(t);
        }
        tag.to_cat()
    }

    /// The source tag of loaded data: region-based re-tagging for global
    /// and heap data, provenance-preserving for the stack.
    fn data_tag(&self, addr: u32, region: Option<Region>) -> SrcTag {
        match region {
            Some(Region::Data) => SrcTag::Global,
            Some(Region::Heap) => SrcTag::Heap,
            Some(Region::Stack) => self.stack_tag(addr),
            _ => SrcTag::FnInternal,
        }
    }

    fn propagate(
        &mut self,
        m: &LMeta,
        ev: &Event,
        region: Option<Region>,
        reg_tag: SrcTag,
        loaded_tag: Option<SrcTag>,
        g: bool,
    ) {
        let f = m.flags;
        // Result tag.
        if m.def != NO_REG {
            // A load's result carries the loaded data's tag.
            let new_tag = if f & (LM_LINK | LM_LUI) != 0 {
                SrcTag::FnInternal
            } else {
                loaded_tag.unwrap_or(reg_tag)
            };

            if m.def != 0 {
                self.tags[m.def as usize] = new_tag;
                if g {
                    self.gaddr |= 1 << m.def;
                } else {
                    self.gaddr &= !(1 << m.def);
                }
            }

            // Mark register written in this frame.
            let frame = self.frames.last_mut().expect("frame stack never empty");
            frame.unwritten &= !(1 << m.def);
        }

        // Stack stores preserve provenance.
        if let Some(mem) = ev.mem {
            if !mem.is_load && region == Some(Region::Stack) && m.rt != NO_REG {
                let t = self.tags[m.rt as usize];
                self.set_stack_tag(mem.addr, t);
            }
        }

        // Call/return boundaries.
        if ev.ctrl.is_none() {
            return;
        }
        match ev.ctrl {
            Some(CtrlEffect::Call { target, sp, .. }) => {
                let func = self.by_entry.get(&target).copied();
                let arity = func.map(|fi| usize::from(self.image_arity(fi))).unwrap_or(4).min(8);
                // Tag argument registers.
                for i in 0..arity.min(4) {
                    self.set_tag(Reg::arg(i).expect("register argument"), SrcTag::Argument);
                }
                // Tag incoming stack-argument slots.
                for i in 4..arity {
                    let slot = sp.wrapping_add(16 + 4 * (i as u32 - 4));
                    self.set_stack_tag(slot, SrcTag::Argument);
                }
                // All registers except the argument registers start
                // frame-uninitialized (prologue-save candidates).
                let mut unwritten = u32::MAX;
                unwritten &= !(1 << Reg::ZERO.number());
                unwritten &= !(1 << Reg::SP.number());
                unwritten &= !(1 << Reg::GP.number());
                for i in 0..arity.min(4) {
                    unwritten &= !(1 << Reg::arg(i).expect("register argument").number());
                }
                let saved_from = self.saved_slots.len();
                self.frames.push(LocalFrame { func, unwritten, saved_from });
            }
            Some(CtrlEffect::Return { .. }) => {
                let frame = self.frames.pop().expect("frame stack never empty");
                self.saved_slots.truncate(frame.saved_from);
                if self.frames.is_empty() {
                    self.frames.push(LocalFrame { func: None, unwritten: 0, saved_from: 0 });
                }
                // The caller sees the callee's result as a return value.
                self.set_tag(Reg::V0, SrcTag::ReturnValue);
                self.set_tag(Reg::V1, SrcTag::ReturnValue);
            }
            Some(CtrlEffect::Syscall { .. }) => {
                self.set_tag(Reg::V0, SrcTag::ReturnValue);
            }
            _ => {}
        }
    }

    fn image_arity(&self, fi: usize) -> u8 {
        self.arities.get(fi).copied().unwrap_or(4)
    }

    /// Accumulated category counters.
    pub fn counts(&self) -> &LocalCounts {
        &self.counts
    }

    /// Stack words carrying a shadow source tag (occupancy gauge).
    pub fn shadow_stack_words(&self) -> u64 {
        self.stack_tag_count
    }

    /// Global/heap load sites with a value profile (occupancy gauge).
    pub fn load_sites(&self) -> u64 {
        self.load_site_count
    }

    /// Distinct values tracked across all load-site profiles (occupancy
    /// gauge for the Figure 6 tables).
    pub fn load_values_tracked(&self) -> u64 {
        self.load_profiles.iter().flatten().map(|p| p.values.len() as u64).sum()
    }

    /// Top contributors to prologue+epilogue repetition (paper Table 9):
    /// `(name, static size in instructions, repeated P/E instructions)`,
    /// sorted descending, plus the fraction of all P/E repetition the
    /// first `k` cover.
    pub fn prologue_report(&self, k: usize) -> (Vec<(String, u32, u64)>, f64) {
        let mut rows: Vec<(String, u32, u64)> = self
            .func_names
            .iter()
            .zip(&self.pe_repeats)
            .filter(|(_, &reps)| reps > 0)
            .map(|((name, size), &reps)| (name.clone(), *size, reps))
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.2));
        rows.truncate(k);
        let covered: u64 = rows.iter().map(|r| r.2).sum();
        (rows, frac(covered, self.pe_total))
    }

    /// Figure 6: fraction of global+heap load repetition covered by each
    /// load's `k` most frequent values, for `k` in `1..=max_k`. A load
    /// instance repeating value `v` counts as covered when `v` is among
    /// that static load's top `k` values.
    pub fn load_value_coverage(&self, max_k: usize) -> Vec<f64> {
        let profiles = self.load_profiles.iter().flatten();
        top_k_coverage(profiles.map(|p| p.values.values().copied()), max_k)
    }
}

#[cfg(test)]
mod tests;

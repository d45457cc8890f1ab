//! Global source analysis (paper §5.1, Table 3).
//!
//! Every value flowing through the program is tagged with the ultimate
//! *source* of the data it derives from, and each dynamic instruction is
//! binned by the tags of its inputs under the supersede rule
//! `external input ≻ global init data ≻ program internal ≻ uninit`
//! (priority goes to the source that is "less repeatable").
//!
//! Tag state (registers and a shadow memory) is updated on every event;
//! statistics are accumulated only while counting is enabled, which lets
//! the pipeline fast-forward past initialization without losing dataflow
//! provenance (mirroring the paper's skip-then-measure methodology).

use instrep_asm::Image;
use instrep_isa::abi::Syscall;
use instrep_isa::{decode, Insn, Reg};
use instrep_sim::{CtrlEffect, Event};

use crate::shadow::ShadowPages;

/// Source category of a value or instruction, ordered by supersede
/// priority (higher wins when slices meet).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum GlobalTag {
    /// Uninitialized data (e.g. a callee-saved register saved before
    /// first definition).
    Uninit = 0,
    /// Program internals: immediates and values derived only from them.
    Internal = 1,
    /// Statically initialized global data.
    GlobalInit = 2,
    /// External program input (`read` syscall data).
    External = 3,
}

impl GlobalTag {
    /// All categories in reporting order (paper Table 3 rows).
    pub const ALL: [GlobalTag; 4] =
        [GlobalTag::Internal, GlobalTag::GlobalInit, GlobalTag::External, GlobalTag::Uninit];

    /// Decodes a tag from its `repr(u8)` discriminant.
    fn from_u8(v: u8) -> GlobalTag {
        match v {
            0 => GlobalTag::Uninit,
            1 => GlobalTag::Internal,
            2 => GlobalTag::GlobalInit,
            _ => GlobalTag::External,
        }
    }

    /// Row label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            GlobalTag::Internal => "internals",
            GlobalTag::GlobalInit => "global init data",
            GlobalTag::External => "external input",
            GlobalTag::Uninit => "uninit",
        }
    }
}

/// Per-category counters for the three Table 3 sections.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GlobalCounts {
    /// Dynamic instructions in each category (index = `GlobalTag as u8`).
    pub overall: [u64; 4],
    /// Repeated dynamic instructions in each category.
    pub repeated: [u64; 4],
}

impl GlobalCounts {
    /// Total dynamic instructions counted.
    pub fn total(&self) -> u64 {
        self.overall.iter().sum()
    }

    /// Fraction of all counted instructions in `tag` (Table 3 *Overall*).
    pub fn overall_share(&self, tag: GlobalTag) -> f64 {
        ratio(self.overall[tag as usize], self.total())
    }

    /// Fraction of all repeated instructions in `tag` (Table 3
    /// *Repeated*).
    pub fn repeated_share(&self, tag: GlobalTag) -> f64 {
        ratio(self.repeated[tag as usize], self.repeated.iter().sum())
    }

    /// Fraction of instructions in `tag` that repeated (Table 3
    /// *Propensity*).
    pub fn propensity(&self, tag: GlobalTag) -> f64 {
        ratio(self.repeated[tag as usize], self.overall[tag as usize])
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// "No register" sentinel in [`GMeta`] operand slots. Must be distinct
/// from `Reg::ZERO`'s number: an absent operand contributes nothing to
/// the supersede max, while `$zero` contributes `Internal`.
const NO_REG: u8 = 0xFF;

/// Tag rule is "store" — categorize by the stored register alone.
const GM_STORE: u8 = 1 << 0;
/// Register-only data inputs — the supersede max starts from `Uninit`
/// instead of `Internal`.
const GM_UNINIT_BASE: u8 = 1 << 1;
/// The destination receives `Internal` (link registers) rather than the
/// instruction's input tag.
const GM_DEF_INTERNAL: u8 = 1 << 2;
/// Slot decoded successfully; unset slots recompute from `Event::insn`.
const GM_VALID: u8 = 1 << 3;

/// Per-static-instruction tagging rules, precomputed at construction so
/// the per-event path indexes a flat table instead of re-matching the
/// instruction enum on every retired instruction.
#[derive(Debug, Clone, Copy)]
struct GMeta {
    /// First register read (stores: the stored register), or [`NO_REG`].
    s1: u8,
    /// Second register read, or [`NO_REG`].
    s2: u8,
    /// Destination register, or [`NO_REG`] (none, or `$zero`).
    def: u8,
    flags: u8,
}

impl GMeta {
    const INVALID: GMeta = GMeta { s1: NO_REG, s2: NO_REG, def: NO_REG, flags: 0 };

    /// Derives the tagging rules for one instruction. This is the single
    /// source of truth for `observe`'s categorization; the precomputed
    /// table is just this function applied to the decoded text segment.
    fn of(insn: &Insn) -> GMeta {
        let mut m = GMeta { s1: NO_REG, s2: NO_REG, def: NO_REG, flags: GM_VALID };
        if insn.is_store() {
            m.flags |= GM_STORE;
            if let Insn::Mem { rt, .. } = *insn {
                m.s1 = rt.number();
            }
            return m;
        }
        if matches!(
            insn,
            Insn::Alu { .. } | Insn::Branch { .. } | Insn::Jr { .. } | Insn::Jalr { .. }
        ) {
            m.flags |= GM_UNINIT_BASE;
        }
        let [u1, u2] = insn.uses();
        if let Some(r) = u1 {
            m.s1 = r.number();
        }
        if let Some(r) = u2 {
            m.s2 = r.number();
        }
        if let Some(dst) = insn.def() {
            if dst != Reg::ZERO {
                m.def = dst.number();
                if matches!(insn, Insn::Jump { link: true, .. } | Insn::Jalr { .. }) {
                    m.flags |= GM_DEF_INTERNAL;
                }
            }
        }
        m
    }
}

/// Dataflow-tagging analysis attributing instructions to value sources.
#[derive(Debug)]
pub struct GlobalAnalysis {
    regs: [GlobalTag; 32],
    /// Precomputed tagging rules indexed by `Event::index`; events past
    /// the table (or on undecodable slots) fall back to [`GMeta::of`].
    meta: Vec<GMeta>,
    /// Shadow tags for memory words that have been written (or read from
    /// external input); absent words fall back to the static image
    /// classification. Each slot is `(tag << 1) | 1`, so `0` (the paged
    /// store's "never set" value) cleanly means "fall back".
    mem: ShadowPages,
    /// Explicitly tagged words (occupancy gauge; kept incrementally).
    shadow_count: u64,
    /// Initialized-data ranges from the image (sorted).
    init_ranges: Vec<std::ops::Range<u32>>,
    counts: GlobalCounts,
}

impl GlobalAnalysis {
    /// Creates the analysis for a loaded image.
    pub fn new(image: &Image) -> GlobalAnalysis {
        let mut regs = [GlobalTag::Uninit; 32];
        // The loader materializes these; they are program internals.
        regs[Reg::ZERO.number() as usize] = GlobalTag::Internal;
        regs[Reg::GP.number() as usize] = GlobalTag::Internal;
        regs[Reg::SP.number() as usize] = GlobalTag::Internal;
        let meta = image
            .text
            .iter()
            .map(|&w| decode(w).map_or(GMeta::INVALID, |insn| GMeta::of(&insn)))
            .collect();
        GlobalAnalysis {
            regs,
            meta,
            mem: ShadowPages::new(),
            shadow_count: 0,
            init_ranges: image.init_ranges.clone(),
            counts: GlobalCounts::default(),
        }
    }

    fn mem_tag(&self, addr: u32) -> GlobalTag {
        let slot = self.mem.get(addr);
        if slot & 1 == 1 {
            return GlobalTag::from_u8(slot >> 1);
        }
        if self.is_initialized(addr) {
            GlobalTag::GlobalInit
        } else {
            GlobalTag::Uninit
        }
    }

    /// Explicitly tags the word containing `addr`.
    fn set_mem_tag(&mut self, addr: u32, tag: GlobalTag) {
        let slot = self.mem.slot_mut(addr);
        if *slot == 0 {
            self.shadow_count += 1;
        }
        *slot = ((tag as u8) << 1) | 1;
    }

    fn is_initialized(&self, addr: u32) -> bool {
        self.init_ranges
            .binary_search_by(|r| {
                if addr < r.start {
                    std::cmp::Ordering::Greater
                } else if addr >= r.end {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// Observes one retired instruction. Tag state always updates;
    /// statistics only when `counting`. Invalid metadata rows
    /// (undecodable slots, out-of-table indices) fall back to
    /// recomputing from the event's instruction.
    pub fn observe(&mut self, ev: &Event, repeated: bool, counting: bool) {
        let m = self.meta.get(ev.index as usize).copied().unwrap_or(GMeta::INVALID);
        let m = if m.flags & GM_VALID != 0 { m } else { GMeta::of(&ev.insn) };

        // 1. Input tag under the supersede rule. Stores are categorized
        // by the provenance of the stored value alone (the paper's
        // example: saving an uninitialized callee-saved register is an
        // *uninit* instruction even though the address comes from `$sp`).
        let tag = if m.flags & GM_STORE != 0 {
            if m.s1 != NO_REG {
                self.regs[m.s1 as usize]
            } else {
                GlobalTag::Internal
            }
        } else {
            // Instructions with an immediate data input (or none at all)
            // have *program internal* as one of their input tags;
            // register-only instructions start from the lowest priority
            // so two uninitialized operands classify as uninit.
            let mut tag =
                if m.flags & GM_UNINIT_BASE != 0 { GlobalTag::Uninit } else { GlobalTag::Internal };
            if m.s1 != NO_REG {
                tag = tag.max(self.regs[m.s1 as usize]);
            }
            if m.s2 != NO_REG {
                tag = tag.max(self.regs[m.s2 as usize]);
            }
            if let Some(mem) = ev.mem {
                if mem.is_load {
                    tag = tag.max(self.mem_tag(mem.addr));
                }
            }
            tag
        };

        // 2. Propagate to outputs. (For stores `tag` is already the
        // stored value's provenance, which is what future loads see.)
        if m.def != NO_REG {
            self.regs[m.def as usize] = if m.flags & GM_DEF_INTERNAL != 0 {
                // A call's ra is a program-internal constant.
                GlobalTag::Internal
            } else {
                tag
            };
        }
        if let Some(mem) = ev.mem {
            if !mem.is_load {
                // Sub-word stores tag their containing word (the shadow
                // memory is word-granular).
                self.set_mem_tag(mem.addr, tag);
            }
        }
        if ev.ctrl.is_some() {
            self.syscall_effects(ev);
        }

        // 3. Count.
        if counting {
            self.counts.overall[tag as usize] += 1;
            if repeated {
                self.counts.repeated[tag as usize] += 1;
            }
        }
    }

    /// Syscall register/memory tagging (off the hot path; most events
    /// carry no control effect).
    fn syscall_effects(&mut self, ev: &Event) {
        if let Some(CtrlEffect::Syscall { call, a, ret }) = ev.ctrl {
            match call {
                Syscall::Read => {
                    // Bytes read are external input; tag whole words.
                    let (buf, n) = (a[1], ret);
                    let mut w = buf & !3;
                    while w < buf + n {
                        self.set_mem_tag(w, GlobalTag::External);
                        w += 4;
                    }
                    self.regs[Reg::V0.number() as usize] = GlobalTag::External;
                }
                Syscall::Sbrk => {
                    self.regs[Reg::V0.number() as usize] = GlobalTag::Internal;
                }
                Syscall::Write | Syscall::Exit => {
                    self.regs[Reg::V0.number() as usize] = GlobalTag::Internal;
                }
            }
        }
    }

    /// Accumulated counters.
    pub fn counts(&self) -> &GlobalCounts {
        &self.counts
    }

    /// Number of memory words carrying a shadow tag (occupancy gauge for
    /// the dataflow state).
    pub fn shadow_words(&self) -> u64 {
        self.shadow_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instrep_isa::abi;
    use instrep_isa::{AluOp, ImmOp, MemOp, MemWidth};
    use instrep_sim::MemEffect;

    fn image_with_init() -> Image {
        Image { init_ranges: vec![abi::DATA_BASE..abi::DATA_BASE + 8; 1], ..Image::default() }
    }

    fn alu_event(rd: Reg, rs: Reg, rt: Reg) -> Event {
        Event {
            pc: abi::TEXT_BASE,
            index: 0,
            insn: Insn::alu(AluOp::Add, rd, rs, rt),
            in1: 0,
            in2: 0,
            out: Some(0),
            mem: None,
            ctrl: None,
        }
    }

    fn load_event(rt: Reg, base: Reg, addr: u32) -> Event {
        Event {
            pc: abi::TEXT_BASE,
            index: 0,
            insn: Insn::Mem { op: MemOp::Load(MemWidth::Word), rt, base, off: 0 },
            in1: addr,
            in2: 0,
            out: Some(7),
            mem: Some(MemEffect { addr, width: MemWidth::Word, value: 7, is_load: true }),
            ctrl: None,
        }
    }

    fn store_event(rt: Reg, base: Reg, addr: u32) -> Event {
        Event {
            pc: abi::TEXT_BASE,
            index: 0,
            insn: Insn::Mem { op: MemOp::Store(MemWidth::Word), rt, base, off: 0 },
            in1: addr,
            in2: 9,
            out: None,
            mem: Some(MemEffect { addr, width: MemWidth::Word, value: 9, is_load: false }),
            ctrl: None,
        }
    }

    #[test]
    fn immediates_are_internal() {
        let mut g = GlobalAnalysis::new(&image_with_init());
        let li = Event {
            pc: abi::TEXT_BASE,
            index: 0,
            insn: Insn::imm(ImmOp::Addi, Reg::T0, Reg::ZERO, 5),
            in1: 0,
            in2: 0,
            out: Some(5),
            mem: None,
            ctrl: None,
        };
        g.observe(&li, false, true);
        assert_eq!(g.counts().overall[GlobalTag::Internal as usize], 1);
        // t0 now carries Internal; an op on it stays Internal.
        g.observe(&alu_event(Reg::T1, Reg::T0, Reg::ZERO), false, true);
        assert_eq!(g.counts().overall[GlobalTag::Internal as usize], 2);
    }

    #[test]
    fn loads_from_init_data_are_global_init() {
        let mut g = GlobalAnalysis::new(&image_with_init());
        g.observe(&load_event(Reg::T0, Reg::GP, abi::DATA_BASE), false, true);
        assert_eq!(g.counts().overall[GlobalTag::GlobalInit as usize], 1);
        // And the loaded value propagates GlobalInit.
        g.observe(&alu_event(Reg::T1, Reg::T0, Reg::ZERO), false, true);
        assert_eq!(g.counts().overall[GlobalTag::GlobalInit as usize], 2);
    }

    #[test]
    fn bss_loads_follow_base_and_content() {
        let mut g = GlobalAnalysis::new(&image_with_init());
        let bss = abi::DATA_BASE + 16; // outside init range
                                       // Internal base supersedes uninit content for the load itself...
        g.observe(&load_event(Reg::T0, Reg::GP, bss), false, true);
        assert_eq!(g.counts().overall[GlobalTag::Internal as usize], 1);
        // ...and an operation on a never-written register is uninit.
        g.observe(&alu_event(Reg::T1, Reg::S4, Reg::S5), false, true);
        assert_eq!(g.counts().overall[GlobalTag::Uninit as usize], 1);
        // Store an internal value to bss; subsequent load is Internal.
        g.observe(&store_event(Reg::ZERO, Reg::GP, bss), false, true);
        g.observe(&load_event(Reg::T1, Reg::GP, bss), false, true);
        assert_eq!(g.counts().overall[GlobalTag::Internal as usize], 3);
    }

    #[test]
    fn external_input_supersedes() {
        let mut g = GlobalAnalysis::new(&image_with_init());
        let buf = abi::DATA_BASE + 32;
        let syscall = Event {
            pc: abi::TEXT_BASE,
            index: 0,
            insn: Insn::Syscall,
            in1: 0,
            in2: 0,
            out: None,
            mem: None,
            ctrl: Some(CtrlEffect::Syscall { call: Syscall::Read, a: [0, buf, 8], ret: 8 }),
        };
        g.observe(&syscall, false, true);
        g.observe(&load_event(Reg::T0, Reg::GP, buf), false, true);
        assert_eq!(g.counts().overall[GlobalTag::External as usize], 1);
        // External ≻ GlobalInit when slices meet.
        g.observe(&load_event(Reg::T1, Reg::GP, abi::DATA_BASE), false, true);
        g.observe(&alu_event(Reg::T2, Reg::T0, Reg::T1), false, true);
        assert_eq!(g.counts().overall[GlobalTag::External as usize], 2);
    }

    #[test]
    fn uninit_register_saves() {
        let mut g = GlobalAnalysis::new(&Image::default());
        // Saving a never-written callee-saved register.
        g.observe(&store_event(Reg::S3, Reg::SP, abi::STACK_TOP - 8), false, true);
        assert_eq!(g.counts().overall[GlobalTag::Uninit as usize], 1);
    }

    #[test]
    fn counting_gate() {
        let mut g = GlobalAnalysis::new(&image_with_init());
        g.observe(&load_event(Reg::T0, Reg::GP, abi::DATA_BASE), true, false);
        assert_eq!(g.counts().total(), 0);
        // But state still propagated.
        g.observe(&alu_event(Reg::T1, Reg::T0, Reg::ZERO), false, true);
        assert_eq!(g.counts().overall[GlobalTag::GlobalInit as usize], 1);
    }

    #[test]
    fn shares_and_propensity() {
        let mut c = GlobalCounts::default();
        c.overall[GlobalTag::Internal as usize] = 80;
        c.overall[GlobalTag::External as usize] = 20;
        c.repeated[GlobalTag::Internal as usize] = 60;
        c.repeated[GlobalTag::External as usize] = 5;
        assert!((c.overall_share(GlobalTag::Internal) - 0.8).abs() < 1e-9);
        assert!((c.repeated_share(GlobalTag::External) - 5.0 / 65.0).abs() < 1e-9);
        assert!((c.propensity(GlobalTag::Internal) - 0.75).abs() < 1e-9);
        assert_eq!(c.propensity(GlobalTag::Uninit), 0.0);
    }
}

//! Per-instruction-class total analysis.
//!
//! The paper notes (§2) that the total analysis "can also be carried out
//! for different types of instructions, e.g., loads, stores, ALU
//! operations, etc. (but we do not do so in this paper)". This module is
//! that deferred experiment: repetition rates broken down by instruction
//! class, the first question a value-prediction design asks ("are loads
//! more repetitive than ALU ops?").

use instrep_isa::Insn;
use instrep_sim::Event;

/// Coarse instruction classes for the breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum InsnClass {
    /// Register-register and register-immediate arithmetic/logic
    /// (including shifts and `lui`).
    Alu = 0,
    /// Memory loads.
    Load = 1,
    /// Memory stores.
    Store = 2,
    /// Conditional branches.
    Branch = 3,
    /// Jumps, calls, returns.
    Jump = 4,
    /// Environment calls and traps.
    System = 5,
}

impl InsnClass {
    /// All classes in reporting order.
    pub const ALL: [InsnClass; 6] = [
        InsnClass::Alu,
        InsnClass::Load,
        InsnClass::Store,
        InsnClass::Branch,
        InsnClass::Jump,
        InsnClass::System,
    ];

    /// Row label for reports.
    pub fn label(self) -> &'static str {
        match self {
            InsnClass::Alu => "alu",
            InsnClass::Load => "load",
            InsnClass::Store => "store",
            InsnClass::Branch => "branch",
            InsnClass::Jump => "jump",
            InsnClass::System => "system",
        }
    }

    /// Classifies a decoded instruction.
    pub fn of(insn: &Insn) -> InsnClass {
        match insn {
            Insn::Alu { .. } | Insn::Imm { .. } | Insn::Shift { .. } | Insn::Lui { .. } => {
                InsnClass::Alu
            }
            Insn::Mem { op, .. } => {
                if op.is_load() {
                    InsnClass::Load
                } else {
                    InsnClass::Store
                }
            }
            Insn::Branch { .. } => InsnClass::Branch,
            Insn::Jump { .. } | Insn::Jr { .. } | Insn::Jalr { .. } => InsnClass::Jump,
            Insn::Syscall | Insn::Break => InsnClass::System,
        }
    }
}

/// Per-class dynamic and repetition counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounts {
    /// Dynamic instructions per class.
    pub overall: [u64; 6],
    /// Repeated dynamic instructions per class.
    pub repeated: [u64; 6],
}

impl ClassCounts {
    /// Total instructions counted.
    pub fn total(&self) -> u64 {
        self.overall.iter().sum()
    }

    /// Share of all dynamic instructions in `class`.
    pub fn overall_share(&self, class: InsnClass) -> f64 {
        ratio(self.overall[class as usize], self.total())
    }

    /// Fraction of the class's instructions that repeated.
    pub fn propensity(&self, class: InsnClass) -> f64 {
        ratio(self.repeated[class as usize], self.overall[class as usize])
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-class observer.
#[derive(Debug, Default)]
pub struct ClassAnalysis {
    counts: ClassCounts,
}

impl ClassAnalysis {
    /// Creates an empty analysis.
    pub fn new() -> ClassAnalysis {
        ClassAnalysis::default()
    }

    /// Observes one retired instruction.
    pub fn observe(&mut self, ev: &Event, repeated: bool, counting: bool) {
        if !counting {
            return;
        }
        let class = InsnClass::of(&ev.insn);
        self.counts.overall[class as usize] += 1;
        if repeated {
            self.counts.repeated[class as usize] += 1;
        }
    }

    /// Accumulated counters.
    pub fn counts(&self) -> &ClassCounts {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instrep_isa::{AluOp, BranchOp, ImmOp, MemOp, MemWidth, Reg, ShiftOp};

    #[test]
    fn classification_covers_all_forms() {
        use InsnClass::*;
        let cases = [
            (Insn::alu(AluOp::Add, Reg::V0, Reg::A0, Reg::A1), Alu),
            (Insn::imm(ImmOp::Ori, Reg::T0, Reg::ZERO, 1), Alu),
            (Insn::Shift { op: ShiftOp::Sll, rd: Reg::T0, rt: Reg::T1, shamt: 2 }, Alu),
            (Insn::Lui { rt: Reg::T0, imm: 1 }, Alu),
            (
                Insn::Mem { op: MemOp::Load(MemWidth::Word), rt: Reg::T0, base: Reg::SP, off: 0 },
                Load,
            ),
            (
                Insn::Mem { op: MemOp::Store(MemWidth::Byte), rt: Reg::T0, base: Reg::SP, off: 0 },
                Store,
            ),
            (Insn::Branch { op: BranchOp::Beq, rs: Reg::T0, rt: Reg::T1, off: 1 }, Branch),
            (Insn::Jump { link: true, target: 0 }, Jump),
            (Insn::Jr { rs: Reg::RA }, Jump),
            (Insn::Jalr { rd: Reg::RA, rs: Reg::T9 }, Jump),
            (Insn::Syscall, System),
            (Insn::Break, System),
        ];
        for (insn, want) in cases {
            assert_eq!(InsnClass::of(&insn), want, "{insn}");
        }
    }

    #[test]
    fn counting_and_shares() {
        let mut a = ClassAnalysis::new();
        let ev = |insn| Event {
            pc: 0x40_0000,
            index: 0,
            insn,
            in1: 0,
            in2: 0,
            out: Some(0),
            mem: None,
            ctrl: None,
        };
        let alu = ev(Insn::alu(AluOp::Add, Reg::V0, Reg::A0, Reg::A1));
        let jr = ev(Insn::Jr { rs: Reg::RA });
        a.observe(&alu, true, true);
        a.observe(&alu, false, true);
        a.observe(&jr, true, true);
        a.observe(&jr, true, false); // gated off
        let c = a.counts();
        assert_eq!(c.total(), 3);
        assert!((c.overall_share(InsnClass::Alu) - 2.0 / 3.0).abs() < 1e-9);
        assert!((c.propensity(InsnClass::Alu) - 0.5).abs() < 1e-9);
        assert!((c.propensity(InsnClass::Jump) - 1.0).abs() < 1e-9);
        assert_eq!(c.propensity(InsnClass::Store), 0.0);
    }
}

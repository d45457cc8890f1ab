use std::fmt;

use crate::op::{AluOp, BranchOp, ImmOp, MemOp, ShiftOp};
use crate::reg::Reg;

/// A decoded SRV32 instruction.
///
/// Every variant lists its operand registers explicitly so that tooling
/// (simulator, analyses, disassembler) can reason about dataflow without
/// re-decoding bit fields. Use [`crate::encode`] / [`crate::decode`] to
/// convert to and from the 32-bit binary form.
///
/// # Examples
///
/// ```
/// use instrep_isa::{AluOp, Insn, Reg};
///
/// let i = Insn::alu(AluOp::Add, Reg::V0, Reg::A0, Reg::A1);
/// assert_eq!(i.to_string(), "add $v0, $a0, $a1");
/// assert_eq!(i.def(), Some(Reg::V0));
/// assert_eq!(i.uses(), [Some(Reg::A0), Some(Reg::A1)]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // operand roles follow the MIPS field names (rd/rs/rt/imm)
pub enum Insn {
    /// Three-register ALU operation: `rd = op(rs, rt)`.
    Alu { op: AluOp, rd: Reg, rs: Reg, rt: Reg },
    /// Register-immediate operation: `rt = op(rs, imm)`.
    Imm { op: ImmOp, rt: Reg, rs: Reg, imm: i16 },
    /// Constant shift: `rd = op(rt, shamt)`.
    Shift { op: ShiftOp, rd: Reg, rt: Reg, shamt: u8 },
    /// Load upper immediate: `rt = imm << 16`.
    Lui { rt: Reg, imm: u16 },
    /// Load or store: `rt <-> mem[base + off]`.
    Mem { op: MemOp, rt: Reg, base: Reg, off: i16 },
    /// Conditional branch to `pc + 4 + off*4`.
    Branch { op: BranchOp, rs: Reg, rt: Reg, off: i16 },
    /// Unconditional jump to an absolute word index (26 bits); `link`
    /// writes the return address to `$ra` (this is `jal`).
    Jump { link: bool, target: u32 },
    /// Indirect jump to the address in `rs`.
    Jr { rs: Reg },
    /// Indirect call: jump to `rs`, return address written to `rd`.
    Jalr { rd: Reg, rs: Reg },
    /// Environment call; the call number and arguments are read from
    /// registers per [`crate::abi`].
    Syscall,
    /// Trap instruction; halts simulation with an error.
    Break,
}

impl Insn {
    /// Convenience constructor for an ALU instruction.
    pub fn alu(op: AluOp, rd: Reg, rs: Reg, rt: Reg) -> Insn {
        Insn::Alu { op, rd, rs, rt }
    }

    /// Convenience constructor for a register-immediate instruction.
    pub fn imm(op: ImmOp, rt: Reg, rs: Reg, imm: i16) -> Insn {
        Insn::Imm { op, rt, rs, imm }
    }

    /// The register this instruction writes, if any.
    ///
    /// Writes to `$zero` are still reported; the register file discards
    /// them.
    pub fn def(&self) -> Option<Reg> {
        match *self {
            Insn::Alu { rd, .. } | Insn::Shift { rd, .. } | Insn::Jalr { rd, .. } => Some(rd),
            Insn::Imm { rt, .. } | Insn::Lui { rt, .. } => Some(rt),
            Insn::Mem { op, rt, .. } => op.is_load().then_some(rt),
            Insn::Jump { link: true, .. } => Some(Reg::RA),
            Insn::Branch { .. }
            | Insn::Jump { link: false, .. }
            | Insn::Jr { .. }
            | Insn::Syscall
            | Insn::Break => None,
        }
    }

    /// The up-to-two register operands this instruction reads, in operand
    /// order. Absent operands are `None`.
    pub fn uses(&self) -> [Option<Reg>; 2] {
        match *self {
            Insn::Alu { rs, rt, .. } => [Some(rs), Some(rt)],
            Insn::Imm { rs, .. } => [Some(rs), None],
            Insn::Shift { rt, .. } => [Some(rt), None],
            Insn::Lui { .. } | Insn::Jump { .. } | Insn::Syscall | Insn::Break => [None, None],
            Insn::Mem { op, rt, base, .. } => {
                if op.is_load() {
                    [Some(base), None]
                } else {
                    [Some(base), Some(rt)]
                }
            }
            Insn::Branch { op, rs, rt, .. } => {
                if op.uses_rt() {
                    [Some(rs), Some(rt)]
                } else {
                    [Some(rs), None]
                }
            }
            Insn::Jr { rs } | Insn::Jalr { rs, .. } => [Some(rs), None],
        }
    }

    /// Whether this is a memory store.
    pub fn is_store(&self) -> bool {
        matches!(self, Insn::Mem { op, .. } if !op.is_load())
    }
}

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Insn::Alu { op, rd, rs, rt } => write!(f, "{op} {rd}, {rs}, {rt}"),
            Insn::Imm { op, rt, rs, imm } => write!(f, "{op} {rt}, {rs}, {imm}"),
            Insn::Shift { op, rd, rt, shamt } => write!(f, "{op} {rd}, {rt}, {shamt}"),
            Insn::Lui { rt, imm } => write!(f, "lui {rt}, {:#x}", imm),
            Insn::Mem { op, rt, base, off } => write!(f, "{op} {rt}, {off}({base})"),
            Insn::Branch { op, rs, rt, off } => {
                if op.uses_rt() {
                    write!(f, "{op} {rs}, {rt}, {off}")
                } else {
                    write!(f, "{op} {rs}, {off}")
                }
            }
            Insn::Jump { link, target } => {
                write!(f, "{} {:#x}", if link { "jal" } else { "j" }, target << 2)
            }
            Insn::Jr { rs } => write!(f, "jr {rs}"),
            Insn::Jalr { rd, rs } => write!(f, "jalr {rd}, {rs}"),
            Insn::Syscall => f.write_str("syscall"),
            Insn::Break => f.write_str("break"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::MemWidth;

    #[test]
    fn def_use_sets() {
        let lw = Insn::Mem { op: MemOp::Load(MemWidth::Word), rt: Reg::T0, base: Reg::SP, off: 8 };
        assert_eq!(lw.def(), Some(Reg::T0));
        assert_eq!(lw.uses(), [Some(Reg::SP), None]);
        assert!(!lw.is_store());

        let sw = Insn::Mem { op: MemOp::Store(MemWidth::Word), rt: Reg::T0, base: Reg::SP, off: 8 };
        assert_eq!(sw.def(), None);
        assert_eq!(sw.uses(), [Some(Reg::SP), Some(Reg::T0)]);
        assert!(sw.is_store());

        let jal = Insn::Jump { link: true, target: 0x100 };
        assert_eq!(jal.def(), Some(Reg::RA));

        let beq = Insn::Branch { op: BranchOp::Beq, rs: Reg::A0, rt: Reg::A1, off: -4 };
        assert_eq!(beq.uses(), [Some(Reg::A0), Some(Reg::A1)]);
        let bgez = Insn::Branch { op: BranchOp::Bgez, rs: Reg::A0, rt: Reg::ZERO, off: 2 };
        assert_eq!(bgez.uses(), [Some(Reg::A0), None]);

        assert_eq!(Insn::Syscall.def(), None);
        assert_eq!(Insn::Syscall.uses(), [None, None]);
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            Insn::alu(AluOp::Add, Reg::V0, Reg::A0, Reg::A1).to_string(),
            "add $v0, $a0, $a1"
        );
        assert_eq!(Insn::imm(ImmOp::Addi, Reg::SP, Reg::SP, -32).to_string(), "addi $sp, $sp, -32");
        assert_eq!(Insn::Lui { rt: Reg::T0, imm: 0x1000 }.to_string(), "lui $t0, 0x1000");
        assert_eq!(Insn::Jump { link: false, target: 4 }.to_string(), "j 0x10");
        assert_eq!(Insn::Jr { rs: Reg::RA }.to_string(), "jr $ra");
    }
}

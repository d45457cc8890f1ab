use instrep_isa::abi::Syscall;
use instrep_isa::{Insn, MemWidth};

/// Memory side effect of one retired instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemEffect {
    /// Effective address.
    pub addr: u32,
    /// Access width.
    pub width: MemWidth,
    /// Value loaded (already extended) or stored.
    pub value: u32,
    /// `true` for loads, `false` for stores.
    pub is_load: bool,
}

/// Control-flow or environment side effect of one retired instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrlEffect {
    /// A function call (`jal` or `jalr`).
    Call {
        /// Callee entry address.
        target: u32,
        /// Potential argument values: `a0..a3` followed by the four
        /// stack-argument slots at `sp+16..sp+32`. The callee's arity
        /// (from function metadata) says how many are meaningful.
        args: [u32; 8],
        /// Stack pointer at the call.
        sp: u32,
        /// Return address written by the call.
        ra: u32,
    },
    /// A function return (`jr $ra`).
    Return {
        /// Address being returned to.
        target: u32,
        /// Value of `$v0` (the return-value register) at the return.
        v0: u32,
    },
    /// A conditional branch.
    Branch {
        /// Whether the branch was taken.
        taken: bool,
        /// Target address if taken.
        target: u32,
    },
    /// A non-call jump (`j`, or `jr` through a register other than `$ra`).
    Jump {
        /// Target address.
        target: u32,
    },
    /// A completed system call.
    Syscall {
        /// Which call.
        call: Syscall,
        /// Argument registers `a0..a2` at the call.
        a: [u32; 3],
        /// Value returned in `$v0`.
        ret: u32,
    },
    /// Program exit via `exit`.
    Exit {
        /// Exit code.
        code: u32,
    },
}

/// One retired instruction, as observed by analyses.
///
/// Operand values are captured *before* the instruction writes its
/// result, and the result after. `in1`/`in2` correspond position-wise to
/// [`Insn::uses`]; absent operands read as 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Program counter of the instruction.
    pub pc: u32,
    /// Static instruction index: `(pc - TEXT_BASE) / 4`.
    pub index: u32,
    /// The decoded instruction.
    pub insn: Insn,
    /// First source operand value (0 if the instruction has none).
    pub in1: u32,
    /// Second source operand value (0 if the instruction has none).
    pub in2: u32,
    /// Result value written to the destination register, if any.
    pub out: Option<u32>,
    /// Memory side effect, if any.
    pub mem: Option<MemEffect>,
    /// Control or environment side effect, if any.
    pub ctrl: Option<CtrlEffect>,
}

impl Event {
    /// A single value summarizing the instruction's outcome, used as the
    /// output half of a repetition-instance key:
    ///
    /// * result value for register-writing instructions,
    /// * stored value for stores,
    /// * taken/not-taken for branches,
    /// * target for indirect jumps,
    /// * return value for syscalls.
    pub fn outcome(&self) -> u32 {
        if let Some(out) = self.out {
            return out;
        }
        match self.ctrl {
            Some(CtrlEffect::Branch { taken, .. }) => taken as u32,
            Some(CtrlEffect::Jump { target }) => target,
            Some(CtrlEffect::Return { target, .. }) => target,
            Some(CtrlEffect::Syscall { ret, .. }) => ret,
            Some(CtrlEffect::Exit { code }) => code,
            Some(CtrlEffect::Call { .. }) | None => match self.mem {
                Some(m) if !m.is_load => m.value,
                _ => 0,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instrep_isa::{AluOp, Reg};

    fn base_event() -> Event {
        Event {
            pc: 0x40_0000,
            index: 0,
            insn: Insn::alu(AluOp::Add, Reg::V0, Reg::A0, Reg::A1),
            in1: 1,
            in2: 2,
            out: Some(3),
            mem: None,
            ctrl: None,
        }
    }

    #[test]
    fn outcome_prefers_register_result() {
        assert_eq!(base_event().outcome(), 3);
    }

    #[test]
    fn outcome_for_branch_and_store() {
        let mut e = base_event();
        e.out = None;
        e.ctrl = Some(CtrlEffect::Branch { taken: true, target: 0x40_0010 });
        assert_eq!(e.outcome(), 1);
        e.ctrl = None;
        e.mem = Some(MemEffect { addr: 8, width: MemWidth::Word, value: 77, is_load: false });
        assert_eq!(e.outcome(), 77);
        e.mem = None;
        assert_eq!(e.outcome(), 0);
    }
}

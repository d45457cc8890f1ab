//! The predecoded fast-interpreter tier.
//!
//! [`Machine::try_new`](crate::Machine::try_new) decodes every text word
//! once; this module lowers that decoded text a second time into a dense
//! array of *resolved* operations ([`PreOp`]): operand registers as
//! plain array indices, immediates already sign- or zero-extended,
//! branch targets as absolute addresses, jump targets pre-shifted, and a
//! flat handler id to dispatch on. The per-instruction loop then never
//! touches `Insn::uses()`, never re-extends an immediate, and never
//! recomputes a branch target — it reads one 12-byte `PreOp`, two
//! registers, and matches once on the handler.
//!
//! The legacy [`Machine::step`](crate::Machine::step) interpreter stays
//! as the oracle: [`InterpTier`] selects the loop, and the differential
//! tests (`crates/sim/tests/differential.rs`, plus the workload-family
//! suite in `instrep-workloads`) assert that both tiers produce
//! byte-identical [`Event`] streams, traps included.
//!
//! Superinstruction fusion (folding minicc's prologue/epilogue/gp-load
//! shapes into one handler) was considered and rejected: the observer
//! contract requires one `Event` per retired instruction, so a combined
//! handler still has to materialize every constituent event — all it
//! can save is the dispatch branch, which is a few percent of the loop
//! and not worth a second code path.

use instrep_isa::abi::Region;
use instrep_isa::{AluOp, BranchOp, ImmOp, Insn, MemWidth, Reg, ShiftOp};

use crate::error::SimError;
use crate::event::{CtrlEffect, Event, MemEffect};
use crate::machine::{Machine, RunOutcome};

/// Which interpreter loop [`Machine::run`](crate::Machine::run) uses.
///
/// Both tiers produce identical event streams and traps — reports built
/// on them are tier-invariant by construction, so nothing downstream
/// (analysis caches included) may key on the tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum InterpTier {
    /// The predecoded fast tier (the default): one-time lowering to
    /// [`PreOp`]s plus a flat match-on-handler dispatch loop.
    #[default]
    Predecoded,
    /// The original one-`step()`-per-instruction oracle loop.
    Legacy,
}

/// One resolved text word. 12 bytes; the whole predecoded text of a
/// workload stays L1-resident.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PreOp {
    h: Handler,
    /// First source register index (`0` = `$zero` when the instruction
    /// has no first operand — reading it yields the same 0 the legacy
    /// tier reports).
    s1: u8,
    /// Second source register index (same `$zero` convention).
    s2: u8,
    /// Destination register index (`0` discards the write).
    d: u8,
    /// Resolved immediate: extended imm, shamt, absolute branch target,
    /// or pre-shifted jump target, depending on the handler.
    imm: u32,
}

/// Handler ids the dispatch loop matches on. ALU/shift/branch/memory
/// handlers carry the original op so the semantics stay defined in one
/// place (`instrep_isa::op`); the immediate ops get dedicated handlers
/// because their win *is* the precomputed extension.
#[derive(Debug, Clone, Copy)]
enum Handler {
    Alu(AluOp),
    Addi,
    Slti,
    Sltiu,
    Andi,
    Ori,
    Xori,
    Shift(ShiftOp),
    Lui,
    Load(MemWidth),
    Store(MemWidth),
    Branch(BranchOp),
    J,
    Jal,
    Jr,
    JrRa,
    Jalr,
    Syscall,
    Break,
}

/// Lowers the decoded text segment into the dense resolved-op array.
pub(crate) fn predecode(text: &[Insn], text_base: u32) -> Vec<PreOp> {
    text.iter()
        .enumerate()
        .map(|(i, &insn)| lower(insn, text_base.wrapping_add((i as u32) * 4)))
        .collect()
}

fn lower(insn: Insn, pc: u32) -> PreOp {
    let mut op = PreOp { h: Handler::Break, s1: 0, s2: 0, d: 0, imm: 0 };
    match insn {
        Insn::Alu { op: alu, rd, rs, rt } => {
            op.h = Handler::Alu(alu);
            op.s1 = rs.number();
            op.s2 = rt.number();
            op.d = rd.number();
        }
        Insn::Imm { op: iop, rt, rs, imm } => {
            op.h = match iop {
                ImmOp::Addi => Handler::Addi,
                ImmOp::Slti => Handler::Slti,
                ImmOp::Sltiu => Handler::Sltiu,
                ImmOp::Andi => Handler::Andi,
                ImmOp::Ori => Handler::Ori,
                ImmOp::Xori => Handler::Xori,
            };
            op.s1 = rs.number();
            op.d = rt.number();
            op.imm = iop.extend(imm);
        }
        Insn::Shift { op: sop, rd, rt, shamt } => {
            op.h = Handler::Shift(sop);
            op.s1 = rt.number();
            op.d = rd.number();
            op.imm = u32::from(shamt);
        }
        Insn::Lui { rt, imm } => {
            op.h = Handler::Lui;
            op.d = rt.number();
            op.imm = u32::from(imm) << 16;
        }
        Insn::Mem { op: mop, rt, base, off } => {
            op.s1 = base.number();
            op.imm = off as i32 as u32;
            if mop.is_load() {
                op.h = Handler::Load(mop.width());
                op.d = rt.number();
            } else {
                op.h = Handler::Store(mop.width());
                op.s2 = rt.number();
            }
        }
        Insn::Branch { op: bop, rs, rt, off } => {
            op.h = Handler::Branch(bop);
            op.s1 = rs.number();
            op.s2 = if bop.uses_rt() { rt.number() } else { 0 };
            op.imm = pc.wrapping_add(4).wrapping_add((off as i32 as u32) << 2);
        }
        Insn::Jump { link, target } => {
            op.h = if link { Handler::Jal } else { Handler::J };
            op.imm = target << 2;
        }
        Insn::Jr { rs } => {
            op.h = if rs == Reg::RA { Handler::JrRa } else { Handler::Jr };
            op.s1 = rs.number();
        }
        Insn::Jalr { rd, rs } => {
            op.h = Handler::Jalr;
            op.s1 = rs.number();
            op.d = rd.number();
        }
        Insn::Syscall => op.h = Handler::Syscall,
        Insn::Break => op.h = Handler::Break,
    }
    op
}

impl Machine {
    /// The fast dispatch loop. Event-for-event and trap-for-trap
    /// identical to driving [`Machine::step`] in a loop.
    pub(crate) fn run_predecoded<F: FnMut(&Event)>(
        &mut self,
        max_insns: u64,
        observer: &mut F,
    ) -> Result<RunOutcome, SimError> {
        let budget_end = self.icount.saturating_add(max_insns);
        while self.exited.is_none() {
            if self.icount >= budget_end {
                return Ok(RunOutcome::MaxedOut);
            }
            let pc = self.pc;
            let index = pc.wrapping_sub(self.text_base) / 4;
            let op = match self.pre.get(index as usize) {
                Some(&op) if pc >= self.text_base && pc.is_multiple_of(4) => op,
                _ => return Err(SimError::BadPc { pc }),
            };
            let in1 = self.regs[usize::from(op.s1)];
            let in2 = self.regs[usize::from(op.s2)];
            let mut out = None;
            let mut mem_eff = None;
            let mut ctrl = None;
            let mut next_pc = pc.wrapping_add(4);

            match op.h {
                Handler::Alu(alu) => {
                    let v = alu.apply(in1, in2).ok_or(SimError::DivideByZero { pc })?;
                    if op.d != 0 {
                        self.regs[usize::from(op.d)] = v;
                    }
                    out = Some(v);
                }
                Handler::Addi => {
                    let v = in1.wrapping_add(op.imm);
                    if op.d != 0 {
                        self.regs[usize::from(op.d)] = v;
                    }
                    out = Some(v);
                }
                Handler::Slti => {
                    let v = u32::from((in1 as i32) < (op.imm as i32));
                    if op.d != 0 {
                        self.regs[usize::from(op.d)] = v;
                    }
                    out = Some(v);
                }
                Handler::Sltiu => {
                    let v = u32::from(in1 < op.imm);
                    if op.d != 0 {
                        self.regs[usize::from(op.d)] = v;
                    }
                    out = Some(v);
                }
                Handler::Andi => {
                    let v = in1 & op.imm;
                    if op.d != 0 {
                        self.regs[usize::from(op.d)] = v;
                    }
                    out = Some(v);
                }
                Handler::Ori => {
                    let v = in1 | op.imm;
                    if op.d != 0 {
                        self.regs[usize::from(op.d)] = v;
                    }
                    out = Some(v);
                }
                Handler::Xori => {
                    let v = in1 ^ op.imm;
                    if op.d != 0 {
                        self.regs[usize::from(op.d)] = v;
                    }
                    out = Some(v);
                }
                Handler::Shift(sop) => {
                    let v = sop.apply(in1, op.imm as u8);
                    if op.d != 0 {
                        self.regs[usize::from(op.d)] = v;
                    }
                    out = Some(v);
                }
                Handler::Lui => {
                    if op.d != 0 {
                        self.regs[usize::from(op.d)] = op.imm;
                    }
                    out = Some(op.imm);
                }
                Handler::Load(width) => {
                    let addr = in1.wrapping_add(op.imm);
                    let bytes = width.bytes();
                    if !addr.is_multiple_of(bytes) {
                        return Err(SimError::Unaligned { pc, addr, width: bytes });
                    }
                    if self.region_of(addr) == Region::Other {
                        return Err(SimError::BadAddress { pc, addr });
                    }
                    let raw = match bytes {
                        1 => u32::from(self.mem.load_u8(addr)),
                        2 => u32::from(self.mem.load_u16(addr)),
                        _ => self.mem.load_u32(addr),
                    };
                    let v = width.extend(raw);
                    if op.d != 0 {
                        self.regs[usize::from(op.d)] = v;
                    }
                    out = Some(v);
                    mem_eff = Some(MemEffect { addr, width, value: v, is_load: true });
                }
                Handler::Store(width) => {
                    let addr = in1.wrapping_add(op.imm);
                    let bytes = width.bytes();
                    if !addr.is_multiple_of(bytes) {
                        return Err(SimError::Unaligned { pc, addr, width: bytes });
                    }
                    match self.region_of(addr) {
                        Region::Other => return Err(SimError::BadAddress { pc, addr }),
                        Region::Text => return Err(SimError::TextWrite { pc, addr }),
                        _ => {}
                    }
                    match bytes {
                        1 => self.mem.store_u8(addr, in2 as u8),
                        2 => self.mem.store_u16(addr, in2 as u16),
                        _ => self.mem.store_u32(addr, in2),
                    }
                    mem_eff = Some(MemEffect { addr, width, value: in2, is_load: false });
                }
                Handler::Branch(bop) => {
                    let taken = bop.taken(in1, in2);
                    if taken {
                        next_pc = op.imm;
                    }
                    ctrl = Some(CtrlEffect::Branch { taken, target: op.imm });
                }
                Handler::J => {
                    next_pc = op.imm;
                    ctrl = Some(CtrlEffect::Jump { target: op.imm });
                }
                Handler::Jal => {
                    let ra = pc.wrapping_add(4);
                    self.regs[usize::from(Reg::RA.number())] = ra;
                    out = Some(ra);
                    ctrl = Some(CtrlEffect::Call {
                        target: op.imm,
                        args: self.peek_args(),
                        sp: self.reg(Reg::SP),
                        ra,
                    });
                    next_pc = op.imm;
                }
                Handler::Jr => {
                    next_pc = in1;
                    ctrl = Some(CtrlEffect::Jump { target: in1 });
                }
                Handler::JrRa => {
                    next_pc = in1;
                    ctrl = Some(CtrlEffect::Return { target: in1, v0: self.reg(Reg::V0) });
                }
                Handler::Jalr => {
                    let ra = pc.wrapping_add(4);
                    if op.d != 0 {
                        self.regs[usize::from(op.d)] = ra;
                    }
                    out = Some(ra);
                    ctrl = Some(CtrlEffect::Call {
                        target: in1,
                        args: self.peek_args(),
                        sp: self.reg(Reg::SP),
                        ra,
                    });
                    next_pc = in1;
                }
                Handler::Syscall => {
                    ctrl = Some(self.do_syscall(pc)?);
                }
                Handler::Break => return Err(SimError::Break { pc }),
            }

            self.pc = next_pc;
            self.icount += 1;
            let ev = Event {
                pc,
                index,
                insn: self.text[index as usize],
                in1,
                in2,
                out,
                mem: mem_eff,
                ctrl,
            };
            observer(&ev);
        }
        Ok(RunOutcome::Exited(self.exited.unwrap()))
    }
}

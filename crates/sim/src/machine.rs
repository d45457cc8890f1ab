use instrep_asm::Image;
use instrep_isa::abi::{self, Region, Syscall};
use instrep_isa::{decode, Insn, MemWidth, Reg};

use crate::error::SimError;
use crate::event::{CtrlEffect, Event, MemEffect};
use crate::mem::Memory;
use crate::predecode::{self, InterpTier, PreOp};

/// Why [`Machine::run`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The program called `exit` with this code.
    Exited(u32),
    /// The instruction budget was exhausted first.
    MaxedOut,
}

/// Resource footprint of a running [`Machine`], sampled by observability
/// layers (see `instrep_core::metrics`). Sampling reads existing state
/// only — it never perturbs execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineFootprint {
    /// Simulated-memory pages resident (touched at least once).
    pub resident_pages: usize,
    /// Bytes backing those pages (page-granular).
    pub resident_bytes: usize,
    /// Static instructions in the pre-decoded text segment.
    pub text_insns: usize,
    /// Bytes the program has written through the `write` syscall.
    pub output_bytes: usize,
    /// Input-stream bytes not yet consumed by `read`.
    pub input_remaining: usize,
}

/// A functional SRV32 machine: registers, memory, and an environment
/// (input stream, output buffer, heap break).
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Machine {
    pub(crate) regs: [u32; 32],
    pub(crate) pc: u32,
    pub(crate) mem: Memory,
    pub(crate) text: Vec<Insn>,
    pub(crate) pre: Vec<PreOp>,
    pub(crate) text_base: u32,
    pub(crate) data_end: u32,
    pub(crate) brk: u32,
    pub(crate) input: Vec<u8>,
    pub(crate) input_pos: usize,
    pub(crate) output: Vec<u8>,
    pub(crate) exited: Option<u32>,
    pub(crate) icount: u64,
    tier: InterpTier,
}

impl Machine {
    /// Creates a machine loaded with `image`, with registers initialized
    /// per the ABI (`$sp`, `$gp`) and `pc` at the image entry point.
    ///
    /// # Panics
    ///
    /// Panics if a text word of the image fails to decode; [`assemble`]
    /// output never does. Use [`Machine::try_new`] for untrusted images.
    ///
    /// [`assemble`]: instrep_asm::assemble
    pub fn new(image: &Image) -> Machine {
        Machine::try_new(image).expect("image text must decode")
    }

    /// Like [`Machine::new`], but with an explicit interpreter tier
    /// instead of [`InterpTier::default`].
    ///
    /// # Panics
    ///
    /// Panics if a text word of the image fails to decode.
    pub fn with_tier(image: &Image, tier: InterpTier) -> Machine {
        Machine::try_new_with_tier(image, tier).expect("image text must decode")
    }

    /// Creates a machine, failing cleanly on undecodable text words.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadText`] for the first undecodable word.
    pub fn try_new(image: &Image) -> Result<Machine, SimError> {
        Machine::try_new_with_tier(image, InterpTier::default())
    }

    /// Like [`Machine::try_new`], but with an explicit interpreter tier.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadText`] for the first undecodable word.
    pub fn try_new_with_tier(image: &Image, tier: InterpTier) -> Result<Machine, SimError> {
        let text = image
            .text
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                decode(w)
                    .map_err(|_| SimError::BadText { pc: abi::TEXT_BASE + (i as u32) * 4, word: w })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut mem = Memory::new();
        mem.write_bytes(abi::DATA_BASE, &image.data);
        let mut regs = [0u32; 32];
        regs[Reg::SP.number() as usize] = abi::STACK_TOP;
        regs[Reg::GP.number() as usize] = abi::GP_INIT;
        let pre = predecode::predecode(&text, abi::TEXT_BASE);
        Ok(Machine {
            regs,
            pc: image.entry,
            mem,
            text,
            pre,
            text_base: abi::TEXT_BASE,
            data_end: image.data_end(),
            brk: image.data_end(),
            input: Vec::new(),
            input_pos: 0,
            output: Vec::new(),
            exited: None,
            icount: 0,
            tier,
        })
    }

    /// The interpreter tier this machine runs on.
    pub fn tier(&self) -> InterpTier {
        self.tier
    }

    /// Provides the byte stream returned by the `read` syscall.
    pub fn set_input(&mut self, input: Vec<u8>) {
        self.input = input;
        self.input_pos = 0;
    }

    /// Bytes written through the `write` syscall so far.
    pub fn output(&self) -> &[u8] {
        &self.output
    }

    /// Current value of a register.
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.number() as usize]
    }

    /// Sets a register (writes to `$zero` are ignored).
    pub fn set_reg(&mut self, r: Reg, v: u32) {
        if r != Reg::ZERO {
            self.regs[r.number() as usize] = v;
        }
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Number of instructions retired so far.
    pub fn icount(&self) -> u64 {
        self.icount
    }

    /// Exit code, once the program has exited.
    pub fn exit_code(&self) -> Option<u32> {
        self.exited
    }

    /// First address past the static data image (heap base).
    pub fn data_end(&self) -> u32 {
        self.data_end
    }

    /// Current heap break.
    pub fn brk(&self) -> u32 {
        self.brk
    }

    /// Direct access to memory (for test setup and analyses).
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// The memory [`Region`] of an address under the current heap break.
    pub fn region_of(&self, addr: u32) -> Region {
        abi::region_of(addr, self.data_end, self.brk)
    }

    /// Samples the machine's current resource footprint (for metrics).
    pub fn footprint(&self) -> MachineFootprint {
        MachineFootprint {
            resident_pages: self.mem.resident_pages(),
            resident_bytes: self.mem.resident_bytes(),
            text_insns: self.text.len(),
            output_bytes: self.output.len(),
            input_remaining: self.input.len().saturating_sub(self.input_pos),
        }
    }

    /// Runs until exit or until `max_insns` have retired, feeding every
    /// retired instruction's [`Event`] to `observer`.
    ///
    /// Dispatches to the loop selected by this machine's [`InterpTier`];
    /// both tiers produce identical event streams and traps.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SimError`] trap.
    pub fn run<F: FnMut(&Event)>(
        &mut self,
        max_insns: u64,
        mut observer: F,
    ) -> Result<RunOutcome, SimError> {
        match self.tier {
            InterpTier::Predecoded => self.run_predecoded(max_insns, &mut observer),
            InterpTier::Legacy => self.run_legacy(max_insns, &mut observer),
        }
    }

    fn run_legacy<F: FnMut(&Event)>(
        &mut self,
        max_insns: u64,
        observer: &mut F,
    ) -> Result<RunOutcome, SimError> {
        let budget_end = self.icount.saturating_add(max_insns);
        while self.exited.is_none() {
            if self.icount >= budget_end {
                return Ok(RunOutcome::MaxedOut);
            }
            let ev = self.step()?;
            observer(&ev);
        }
        Ok(RunOutcome::Exited(self.exited.unwrap()))
    }

    /// Executes one instruction and returns its event.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] trap on invalid execution; the machine state
    /// is left as of the trap and must not be stepped further.
    ///
    /// # Panics
    ///
    /// Panics if called after the program has exited.
    pub fn step(&mut self) -> Result<Event, SimError> {
        assert!(self.exited.is_none(), "step() after exit");
        let pc = self.pc;
        let index = pc.wrapping_sub(self.text_base) / 4;
        let insn = *self
            .text
            .get(index as usize)
            .filter(|_| pc >= self.text_base && pc.is_multiple_of(4))
            .ok_or(SimError::BadPc { pc })?;

        let uses = insn.uses();
        let in1 = uses[0].map_or(0, |r| self.reg(r));
        let in2 = uses[1].map_or(0, |r| self.reg(r));
        let mut out = None;
        let mut mem_eff = None;
        let mut ctrl = None;
        let mut next_pc = pc.wrapping_add(4);

        match insn {
            Insn::Alu { op, rd, .. } => {
                let v = op.apply(in1, in2).ok_or(SimError::DivideByZero { pc })?;
                self.set_reg(rd, v);
                out = Some(v);
            }
            Insn::Imm { op, rt, imm, .. } => {
                let v = op.apply(in1, imm);
                self.set_reg(rt, v);
                out = Some(v);
            }
            Insn::Shift { op, rd, shamt, .. } => {
                let v = op.apply(in1, shamt);
                self.set_reg(rd, v);
                out = Some(v);
            }
            Insn::Lui { rt, imm } => {
                let v = u32::from(imm) << 16;
                self.set_reg(rt, v);
                out = Some(v);
            }
            Insn::Mem { op, rt, off, .. } => {
                let addr = in1.wrapping_add(off as i32 as u32);
                let width = op.width();
                self.check_access(pc, addr, width, op.is_load())?;
                if op.is_load() {
                    let raw = match width.bytes() {
                        1 => u32::from(self.mem.load_u8(addr)),
                        2 => u32::from(self.mem.load_u16(addr)),
                        _ => self.mem.load_u32(addr),
                    };
                    let v = width.extend(raw);
                    self.set_reg(rt, v);
                    out = Some(v);
                    mem_eff = Some(MemEffect { addr, width, value: v, is_load: true });
                } else {
                    let v = self.reg(rt);
                    match width.bytes() {
                        1 => self.mem.store_u8(addr, v as u8),
                        2 => self.mem.store_u16(addr, v as u16),
                        _ => self.mem.store_u32(addr, v),
                    }
                    mem_eff = Some(MemEffect { addr, width, value: v, is_load: false });
                }
            }
            Insn::Branch { op, off, .. } => {
                let taken = op.taken(in1, in2);
                let target = pc.wrapping_add(4).wrapping_add((off as i32 as u32) << 2);
                if taken {
                    next_pc = target;
                }
                ctrl = Some(CtrlEffect::Branch { taken, target });
            }
            Insn::Jump { link, target } => {
                let target = target << 2;
                if link {
                    let ra = pc.wrapping_add(4);
                    self.set_reg(Reg::RA, ra);
                    out = Some(ra);
                    ctrl = Some(CtrlEffect::Call {
                        target,
                        args: self.peek_args(),
                        sp: self.reg(Reg::SP),
                        ra,
                    });
                } else {
                    ctrl = Some(CtrlEffect::Jump { target });
                }
                next_pc = target;
            }
            Insn::Jr { rs } => {
                next_pc = in1;
                ctrl = if rs == Reg::RA {
                    Some(CtrlEffect::Return { target: in1, v0: self.reg(Reg::V0) })
                } else {
                    Some(CtrlEffect::Jump { target: in1 })
                };
            }
            Insn::Jalr { rd, .. } => {
                let ra = pc.wrapping_add(4);
                self.set_reg(rd, ra);
                out = Some(ra);
                ctrl = Some(CtrlEffect::Call {
                    target: in1,
                    args: self.peek_args(),
                    sp: self.reg(Reg::SP),
                    ra,
                });
                next_pc = in1;
            }
            Insn::Syscall => {
                ctrl = Some(self.do_syscall(pc)?);
            }
            Insn::Break => return Err(SimError::Break { pc }),
        }

        self.pc = next_pc;
        self.icount += 1;
        Ok(Event { pc, index, insn, in1, in2, out, mem: mem_eff, ctrl })
    }

    /// Snapshot of the eight potential argument slots at a call site.
    ///
    /// The four stack slots are read only when `$sp` is 4-aligned and
    /// the slot address lies in the stack region; otherwise they stay
    /// 0 — hand-written asm may call with `$sp` pointing anywhere, and
    /// a best-effort peek must not fabricate values from other regions
    /// (or panic on a misaligned load).
    pub(crate) fn peek_args(&self) -> [u32; 8] {
        let sp = self.reg(Reg::SP);
        let mut args = [0u32; 8];
        args[..4].copy_from_slice(&self.regs[4..8]);
        if sp.is_multiple_of(4) {
            for i in 0..4u32 {
                let addr = sp.wrapping_add(16 + 4 * i);
                if addr >= abi::STACK_REGION_BASE {
                    args[4 + i as usize] = self.mem.load_u32(addr);
                }
            }
        }
        args
    }

    fn check_access(
        &self,
        pc: u32,
        addr: u32,
        width: MemWidth,
        is_load: bool,
    ) -> Result<(), SimError> {
        let bytes = width.bytes();
        if !addr.is_multiple_of(bytes) {
            return Err(SimError::Unaligned { pc, addr, width: bytes });
        }
        match self.region_of(addr) {
            Region::Other => Err(SimError::BadAddress { pc, addr }),
            Region::Text if !is_load => Err(SimError::TextWrite { pc, addr }),
            _ => Ok(()),
        }
    }

    /// First region boundary strictly above `addr` (or the end of the
    /// address space). Since region membership only changes at these
    /// boundaries, validating one address per boundary interval covers
    /// an arbitrarily long buffer in at most a handful of checks.
    fn region_end(&self, addr: u32) -> u64 {
        let bounds =
            [abi::TEXT_BASE, abi::DATA_BASE, self.data_end, self.brk, abi::STACK_REGION_BASE];
        bounds.into_iter().map(u64::from).filter(|&b| b > u64::from(addr)).min().unwrap_or(1 << 32)
    }

    /// Validates a syscall buffer `[buf, buf + len)` with the same rules
    /// ordinary loads/stores go through: every byte must be in a mapped
    /// region, and writes (`is_load == false`, i.e. `read` filling the
    /// buffer) must not target text. Byte accesses are always aligned,
    /// so only the region rules apply. A range that wraps past the end
    /// of the address space faults at the wrapped address.
    fn check_buffer(&self, pc: u32, buf: u32, len: u32, is_load: bool) -> Result<(), SimError> {
        if len == 0 {
            return Ok(());
        }
        let end = u64::from(buf) + u64::from(len);
        let mut addr = u64::from(buf);
        while addr < end.min(1 << 32) {
            match self.region_of(addr as u32) {
                Region::Other => return Err(SimError::BadAddress { pc, addr: addr as u32 }),
                Region::Text if !is_load => {
                    return Err(SimError::TextWrite { pc, addr: addr as u32 })
                }
                _ => {}
            }
            addr = self.region_end(addr as u32);
        }
        if end > 1 << 32 {
            // The range wraps past the end of the address space; its
            // first wrapped byte lands at address 0, which is always
            // Region::Other.
            return Err(SimError::BadAddress { pc, addr: 0 });
        }
        Ok(())
    }

    pub(crate) fn do_syscall(&mut self, pc: u32) -> Result<CtrlEffect, SimError> {
        let num = self.reg(Reg::V0);
        let a = [self.reg(Reg::A0), self.reg(Reg::A1), self.reg(Reg::A2)];
        let call = Syscall::from_number(num).ok_or(SimError::BadSyscall { pc, number: num })?;
        let ret = match call {
            Syscall::Exit => {
                self.exited = Some(a[0]);
                a[0]
            }
            Syscall::Read => {
                let (buf, len) = (a[1], a[2] as usize);
                let avail = self.input.len() - self.input_pos;
                let n = len.min(avail);
                // Validate the range actually written (not the full
                // request — a short read past the end of a clamped
                // buffer region is the program's business), before any
                // input is consumed or memory touched.
                self.check_buffer(pc, buf, n as u32, false)?;
                self.mem.write_bytes(buf, &self.input[self.input_pos..self.input_pos + n]);
                self.input_pos += n;
                n as u32
            }
            Syscall::Write => {
                let (buf, len) = (a[1], a[2]);
                // Validate the full requested range up front — all
                // `len` bytes are emitted — then stream page-wise into
                // the output buffer; no `len`-sized intermediate Vec,
                // so a bogus 4 GiB request traps before allocating.
                self.check_buffer(pc, buf, len, true)?;
                self.mem.read_into(buf, len, &mut self.output);
                len
            }
            Syscall::Sbrk => {
                let delta = a[0] as i32;
                let old = self.brk;
                let new = (i64::from(old) + i64::from(delta)) as u32;
                if new < self.data_end || new >= abi::STACK_REGION_BASE {
                    return Err(SimError::BadSbrk { pc, delta });
                }
                self.brk = new;
                old
            }
        };
        self.set_reg(abi::SYSCALL_RET_REG, ret);
        Ok(CtrlEffect::Syscall { call, a, ret })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instrep_asm::assemble;

    fn run_asm(src: &str) -> (Machine, RunOutcome) {
        let image = assemble(src).unwrap();
        let mut m = Machine::new(&image);
        let outcome = m.run(1_000_000, |_| {}).unwrap();
        (m, outcome)
    }

    #[test]
    fn exit_code_propagates() {
        let (m, out) = run_asm(".text\n__start: li $a0, 7\nli $v0, 0\nsyscall\n");
        assert_eq!(out, RunOutcome::Exited(7));
        assert_eq!(m.exit_code(), Some(7));
        assert_eq!(m.icount(), 3);
    }

    #[test]
    fn arithmetic_loop() {
        // Sum 1..=10 then exit(sum).
        let (_, out) = run_asm(
            r#"
            .text
            __start:
                li   $t0, 0      # sum
                li   $t1, 1      # i
            loop:
                add  $t0, $t0, $t1
                addi $t1, $t1, 1
                ble  $t1, $t2, loop   # t2 == 0, never taken; test not-taken path
                li   $t2, 10
                ble  $t1, $t2, loop
                move $a0, $t0
                li   $v0, 0
                syscall
            "#,
        );
        assert_eq!(out, RunOutcome::Exited(55));
    }

    #[test]
    fn data_loads_and_stores() {
        let (_, out) = run_asm(
            r#"
            .data
            x:  .word 40
            y:  .space 4
            .text
            __start:
                lw   $t0, x
                addi $t0, $t0, 2
                sw   $t0, y
                lw   $a0, y
                li   $v0, 0
                syscall
            "#,
        );
        assert_eq!(out, RunOutcome::Exited(42));
    }

    #[test]
    fn call_and_return_events() {
        let image = assemble(
            r#"
            .text
            __start:
                li   $a0, 5
                li   $a1, 6
                jal  add2
                move $a0, $v0
                li   $v0, 0
                syscall
            .func add2, 2
            add2:
                add  $v0, $a0, $a1
                jr   $ra
            .endfunc
            "#,
        )
        .unwrap();
        let mut m = Machine::new(&image);
        let mut calls = Vec::new();
        let mut returns = Vec::new();
        let out = m
            .run(100, |ev| {
                if let Some(CtrlEffect::Call { target, args, .. }) = ev.ctrl {
                    calls.push((target, args[0], args[1]));
                }
                if let Some(CtrlEffect::Return { v0, .. }) = ev.ctrl {
                    returns.push(v0);
                }
            })
            .unwrap();
        assert_eq!(out, RunOutcome::Exited(11));
        let add2 = image.symbols.get("add2").unwrap();
        assert_eq!(calls, vec![(add2, 5, 6)]);
        assert_eq!(returns, vec![11]);
    }

    #[test]
    fn read_write_syscalls() {
        let image = assemble(
            r#"
            .data
            buf: .space 16
            .text
            __start:
                li   $a0, 0
                la   $a1, buf
                li   $a2, 5
                li   $v0, 1      # read
                syscall
                move $a2, $v0    # echo as many as read
                la   $a1, buf
                li   $a0, 1
                li   $v0, 2      # write
                syscall
                li   $a0, 0
                li   $v0, 0
                syscall
            "#,
        )
        .unwrap();
        let mut m = Machine::new(&image);
        m.set_input(b"hey".to_vec());
        let out = m.run(100, |_| {}).unwrap();
        assert_eq!(out, RunOutcome::Exited(0));
        assert_eq!(m.output(), b"hey");
    }

    #[test]
    fn sbrk_heap() {
        let image = assemble(
            r#"
            .text
            __start:
                li   $a0, 4096
                li   $v0, 3      # sbrk
                syscall
                sw   $a0, 0($v0)     # write to new heap page
                lw   $a0, 0($v0)
                li   $v0, 0
                syscall
            "#,
        )
        .unwrap();
        let mut m = Machine::new(&image);
        let out = m.run(100, |_| {}).unwrap();
        assert_eq!(out, RunOutcome::Exited(4096));
        assert_eq!(m.brk(), m.data_end() + 4096);
    }

    #[test]
    fn traps() {
        // Division by zero.
        let image = assemble(".text\n__start: div $t0, $t1, $zero\n").unwrap();
        let err = Machine::new(&image).run(10, |_| {}).unwrap_err();
        assert!(matches!(err, SimError::DivideByZero { .. }));

        // Unaligned word load.
        let image = assemble(".text\n__start: li $t0, 0x10000001\nlw $t1, 0($t0)\n").unwrap();
        let err = Machine::new(&image).run(10, |_| {}).unwrap_err();
        assert!(matches!(err, SimError::Unaligned { .. }));

        // Unmapped address (between heap break and stack).
        let image = assemble(".text\n__start: li $t0, 0x30000000\nlw $t1, 0($t0)\n").unwrap();
        let err = Machine::new(&image).run(10, |_| {}).unwrap_err();
        assert!(matches!(err, SimError::BadAddress { .. }));

        // Store into text.
        let image = assemble(".text\n__start: li $t0, 0x400000\nsw $t0, 0($t0)\n").unwrap();
        let err = Machine::new(&image).run(10, |_| {}).unwrap_err();
        assert!(matches!(err, SimError::TextWrite { .. }));

        // Running off the end of text.
        let image = assemble(".text\n__start: nop\n").unwrap();
        let err = Machine::new(&image).run(10, |_| {}).unwrap_err();
        assert!(matches!(err, SimError::BadPc { .. }));

        // Break.
        let image = assemble(".text\n__start: break\n").unwrap();
        let err = Machine::new(&image).run(10, |_| {}).unwrap_err();
        assert!(matches!(err, SimError::Break { .. }));

        // Bad syscall number.
        let image = assemble(".text\n__start: li $v0, 99\nsyscall\n").unwrap();
        let err = Machine::new(&image).run(10, |_| {}).unwrap_err();
        assert!(matches!(err, SimError::BadSyscall { number: 99, .. }));
    }

    #[test]
    fn budget_exhaustion() {
        let image = assemble(".text\n__start: b __start\n").unwrap();
        let mut m = Machine::new(&image);
        assert_eq!(m.run(100, |_| {}).unwrap(), RunOutcome::MaxedOut);
        assert_eq!(m.icount(), 100);
        // Budget is relative to the call, not absolute.
        assert_eq!(m.run(50, |_| {}).unwrap(), RunOutcome::MaxedOut);
        assert_eq!(m.icount(), 150);
    }

    #[test]
    fn zero_register_is_immutable() {
        let (_, out) =
            run_asm(".text\n__start: li $zero, 5\nmove $a0, $zero\nli $v0, 0\nsyscall\n");
        assert_eq!(out, RunOutcome::Exited(0));
    }

    fn run_asm_tiered(src: &str, tier: InterpTier) -> Result<(Machine, RunOutcome), SimError> {
        let image = assemble(src).unwrap();
        let mut m = Machine::with_tier(&image, tier);
        let outcome = m.run(1_000_000, |_| {});
        outcome.map(|o| (m, o))
    }

    const BOTH_TIERS: [InterpTier; 2] = [InterpTier::Predecoded, InterpTier::Legacy];

    #[test]
    fn tier_selection_is_explicit_and_defaulted() {
        let image = assemble(".text\n__start: li $v0, 0\nsyscall\n").unwrap();
        assert_eq!(Machine::new(&image).tier(), InterpTier::default());
        assert_eq!(Machine::with_tier(&image, InterpTier::Legacy).tier(), InterpTier::Legacy);
        assert_eq!(
            Machine::with_tier(&image, InterpTier::Predecoded).tier(),
            InterpTier::Predecoded
        );
    }

    #[test]
    fn syscall_write_from_text_is_allowed_like_a_load() {
        // Reading text through `write` mirrors an ordinary load's rules.
        for tier in BOTH_TIERS {
            let (m, out) = run_asm_tiered(
                ".text\n__start: li $a0, 1\nli $a1, 0x400000\nli $a2, 4\nli $v0, 2\nsyscall\n\
                 li $a0, 0\nli $v0, 0\nsyscall\n",
                tier,
            )
            .unwrap();
            assert_eq!(out, RunOutcome::Exited(0));
            assert_eq!(m.output().len(), 4);
        }
    }

    #[test]
    fn syscall_read_into_text_traps() {
        for tier in BOTH_TIERS {
            let image = assemble(
                ".text\n__start: li $a0, 0\nli $a1, 0x400000\nli $a2, 4\nli $v0, 1\nsyscall\n",
            )
            .unwrap();
            let mut m = Machine::with_tier(&image, tier);
            m.set_input(b"oops".to_vec());
            let err = m.run(100, |_| {}).unwrap_err();
            assert!(matches!(err, SimError::TextWrite { addr: 0x40_0000, .. }), "{err:?}");
            // Nothing was consumed or written before the trap.
            assert_eq!(m.footprint().input_remaining, 4);
            assert_eq!(m.mem().load_u8(0x40_0000), 0);
        }
    }

    #[test]
    fn syscall_buffers_in_unmapped_regions_trap() {
        for tier in BOTH_TIERS {
            // Write from the gap between heap break and stack.
            let err = run_asm_tiered(
                ".text\n__start: li $a0, 1\nli $a1, 0x30000000\nli $a2, 4\nli $v0, 2\nsyscall\n",
                tier,
            )
            .unwrap_err();
            assert!(matches!(err, SimError::BadAddress { addr: 0x3000_0000, .. }), "{err:?}");

            // Read into low unmapped memory (below text).
            let image = assemble(
                ".text\n__start: li $a0, 0\nli $a1, 0x1000\nli $a2, 4\nli $v0, 1\nsyscall\n",
            )
            .unwrap();
            let mut m = Machine::with_tier(&image, tier);
            m.set_input(b"oops".to_vec());
            let err = m.run(100, |_| {}).unwrap_err();
            assert!(matches!(err, SimError::BadAddress { addr: 0x1000, .. }), "{err:?}");
        }
    }

    #[test]
    fn syscall_buffer_straddling_region_boundary_traps() {
        // A buffer that starts in valid data but runs past the heap
        // break must trap at the first invalid byte, not the base.
        for tier in BOTH_TIERS {
            let image = assemble(
                ".data\nx: .word 1\n.text\n__start:\n\
                 li $a0, 1\nla $a1, x\nli $a2, 0x100000\nli $v0, 2\nsyscall\n",
            )
            .unwrap();
            let mut m = Machine::with_tier(&image, tier);
            let err = m.run(100, |_| {}).unwrap_err();
            let brk = m.brk();
            assert_eq!(err, SimError::BadAddress { pc: m.pc(), addr: brk });
        }
    }

    #[test]
    fn syscall_write_with_huge_len_traps_without_allocating() {
        // a2 = 0xffff_ffff used to materialize a ~4 GiB Vec before any
        // validation; it must now trap up front, touching no memory.
        for tier in BOTH_TIERS {
            let image = assemble(
                ".text\n__start: li $a0, 1\nli $a1, 0x10000000\nli $a2, -1\nli $v0, 2\nsyscall\n",
            )
            .unwrap();
            let mut m = Machine::with_tier(&image, tier);
            let pages_before = m.mem().resident_pages();
            let err = m.run(100, |_| {}).unwrap_err();
            assert!(matches!(err, SimError::BadAddress { .. }));
            assert_eq!(m.mem().resident_pages(), pages_before);
            assert!(m.output().is_empty());
        }
    }

    #[test]
    fn syscall_buffer_wrapping_address_space_traps() {
        // Starts in the stack region, runs past 2^32: first wrapped
        // byte is address 0, which is unmapped.
        for tier in BOTH_TIERS {
            let err = run_asm_tiered(
                ".text\n__start: li $a0, 1\nli $a1, -16\nli $a2, 32\nli $v0, 2\nsyscall\n",
                tier,
            )
            .unwrap_err();
            assert!(matches!(err, SimError::BadAddress { addr: 0, .. }), "{err:?}");
        }
    }

    #[test]
    fn syscall_read_clamped_by_input_validates_written_range_only() {
        // The data region is one page here; a 64 KiB request would run
        // past the heap break, but only 3 input bytes remain, so only
        // [buf, buf+3) is validated and written.
        for tier in BOTH_TIERS {
            let image = assemble(
                ".data\nbuf: .space 16\n.text\n__start:\n\
                 li $a0, 0\nla $a1, buf\nli $a2, 0x10000\nli $v0, 1\nsyscall\n\
                 move $a0, $v0\nli $v0, 0\nsyscall\n",
            )
            .unwrap();
            let mut m = Machine::with_tier(&image, tier);
            m.set_input(b"hey".to_vec());
            let out = m.run(100, |_| {}).unwrap();
            assert_eq!(out, RunOutcome::Exited(3));
            assert_eq!(m.mem().read_bytes(abi::DATA_BASE, 3), b"hey");
        }
    }

    #[test]
    fn syscall_zero_len_io_is_a_no_op_anywhere() {
        // len == 0 touches no bytes, so even a wild base address is fine
        // (matching POSIX read/write semantics for zero-length I/O).
        for tier in BOTH_TIERS {
            let (m, out) = run_asm_tiered(
                ".text\n__start: li $a0, 1\nli $a1, 0x30000000\nli $a2, 0\nli $v0, 2\nsyscall\n\
                 li $a0, 0\nli $v0, 0\nsyscall\n",
                tier,
            )
            .unwrap();
            assert_eq!(out, RunOutcome::Exited(0));
            assert!(m.output().is_empty());
        }
    }

    #[test]
    fn peek_args_outside_stack_region_reads_no_memory() {
        // $sp re-pointed at the data region: the four stack arg slots
        // must stay 0 instead of leaking data-region words.
        for tier in BOTH_TIERS {
            let image = assemble(
                ".data\nvals: .word 11, 22, 33, 44, 55, 66\n.text\n__start:\n\
                 la $sp, vals\nli $a0, 1\njal f\nli $v0, 0\nli $a0, 0\nsyscall\n\
                 .func f, 1\nf:\njr $ra\n.endfunc\n",
            )
            .unwrap();
            let mut m = Machine::with_tier(&image, tier);
            let mut seen = None;
            m.run(100, |ev| {
                if let Some(CtrlEffect::Call { args, sp, .. }) = ev.ctrl {
                    seen = Some((args, sp));
                }
            })
            .unwrap();
            let (args, sp) = seen.unwrap();
            assert_eq!(sp, abi::DATA_BASE);
            assert_eq!(args[0], 1);
            assert_eq!(&args[4..], &[0, 0, 0, 0], "stack slots must not be peeked");
        }
    }

    #[test]
    fn peek_args_in_stack_region_reads_slots() {
        for tier in BOTH_TIERS {
            let image = assemble(
                ".text\n__start:\n\
                 addi $sp, $sp, -32\nli $t0, 77\nsw $t0, 16($sp)\nli $a0, 5\njal f\n\
                 li $v0, 0\nli $a0, 0\nsyscall\n\
                 .func f, 1\nf:\njr $ra\n.endfunc\n",
            )
            .unwrap();
            let mut m = Machine::with_tier(&image, tier);
            let mut seen = None;
            m.run(100, |ev| {
                if let Some(CtrlEffect::Call { args, .. }) = ev.ctrl {
                    seen = Some(args);
                }
            })
            .unwrap();
            let args = seen.unwrap();
            assert_eq!(args[0], 5);
            assert_eq!(args[4], 77);
        }
    }

    #[test]
    fn event_fields_for_alu() {
        let image = assemble(
            ".text\n__start: li $t0, 3\nli $t1, 4\nadd $t2, $t0, $t1\n li $v0,0\nsyscall\n",
        )
        .unwrap();
        let mut m = Machine::new(&image);
        let mut seen = None;
        m.run(100, |ev| {
            if let Insn::Alu { .. } = ev.insn {
                seen = Some((ev.in1, ev.in2, ev.out));
            }
        })
        .unwrap();
        assert_eq!(seen, Some((3, 4, Some(7))));
    }
}

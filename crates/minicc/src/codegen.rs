//! SRV32 code generation.
//!
//! Emits assembly text for a type-checked [`Program`]. The generated code
//! deliberately has the shape of classic MIPS o32 compiler output, because
//! the repetition analyses categorize exactly these shapes:
//!
//! * functions carry a prologue (frame allocation, `$ra` / `$s*` saves)
//!   and a matching epilogue;
//! * scalar locals live in callee-saved registers when possible, spilling
//!   to the frame otherwise;
//! * globals are addressed gp-relative when they fall in the 64 KiB gp
//!   window and through `lui/ori` materialization otherwise;
//! * the first four arguments travel in `$a0..$a3`, the rest in the
//!   caller's outgoing-argument area at `sp+16`.

use std::fmt::{self, Write as _};

use instrep_isa::Reg;

use crate::ast::*;
use crate::error::CompileError;
use crate::types::Type;

fn err(line: u32, msg: impl Into<String>) -> CompileError {
    CompileError::new(line, msg)
}

/// Temporaries used as the expression evaluation stack, in order.
const T_REGS: [Reg; 10] =
    [Reg::T0, Reg::T1, Reg::T2, Reg::T3, Reg::T4, Reg::T5, Reg::T6, Reg::T7, Reg::T8, Reg::T9];

/// Callee-saved registers available for scalar locals.
const S_REGS: [Reg; 8] = [Reg::S0, Reg::S1, Reg::S2, Reg::S3, Reg::S4, Reg::S5, Reg::S6, Reg::S7];

/// Bytes reserved in every non-leaf frame for spilling live temporaries
/// around calls (one word per entry of the evaluation stack).
const SPILL_BYTES: u32 = 4 * T_REGS.len() as u32;

/// Generates assembly for a program that has passed [`crate::sema`].
///
/// # Errors
///
/// Returns an error for expressions too deep for the 10-register
/// evaluation stack (a static property surfaced with a source line).
pub fn generate(program: &Program) -> Result<String, CompileError> {
    let mut out = String::new();
    emit_data(program, &mut out);
    out.push_str(".text\n");
    for func in &program.funcs {
        FnGen::new(program, func, &mut out)?.run()?;
    }
    Ok(out)
}

fn emit_data(program: &Program, out: &mut String) {
    out.push_str(".data\n");
    for g in &program.globals {
        let structs = &program.structs;
        let size = g.ty.size(structs);
        let align = g.ty.align(structs);
        if align >= 4 {
            out.push_str(".align 2\n");
        }
        let _ = writeln!(out, "{}:", g.name);
        match &g.init {
            GlobalInit::None => {
                let _ = writeln!(out, "    .space {size}");
            }
            GlobalInit::Scalar(v) => match g.ty {
                Type::Char => {
                    let _ = writeln!(out, "    .byte {}", *v as u8);
                }
                _ => {
                    let _ = writeln!(out, "    .word {v}");
                }
            },
            GlobalInit::List(vals) => {
                let elem = g.ty.deref().cloned().unwrap_or(Type::Int);
                let n = size / elem.size(structs).max(1);
                let dir = if elem == Type::Char { ".byte" } else { ".word" };
                let mut padded: Vec<i64> = vals.clone();
                padded.resize(n as usize, 0);
                for chunk in padded.chunks(16) {
                    emit_row(out, dir, chunk);
                }
            }
            GlobalInit::Str(bytes) => {
                let mut padded = bytes.clone();
                padded.resize(size as usize, 0);
                emit_bytes(out, &padded);
            }
        }
    }
    for (i, s) in program.strings.iter().enumerate() {
        let _ = writeln!(out, ".Lstr{i}:");
        emit_bytes(out, s);
    }
}

fn emit_bytes(out: &mut String, bytes: &[u8]) {
    for chunk in bytes.chunks(16) {
        emit_row(out, ".byte", chunk);
    }
}

/// Writes one data directive line: `dir` and the comma-separated `row`.
fn emit_row<T: fmt::Display>(out: &mut String, dir: &str, row: &[T]) {
    let _ = write!(out, "    {dir} ");
    for (i, v) in row.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{v}");
    }
    out.push('\n');
}

/// Writes one indented instruction line, formatting its arguments
/// straight into the generator's output buffer.
macro_rules! emit {
    ($gen:expr, $($fmt:tt)+) => {{
        $gen.out.push_str("    ");
        let _ = writeln!($gen.out, $($fmt)+);
    }};
}

/// A local label, written `.L{func}_{tag}{n}` where it is used.
#[derive(Clone, Copy)]
struct Label<'a> {
    func: &'a str,
    tag: &'static str,
    n: u32,
}

impl fmt::Display for Label<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, ".L{}_{}{}", self.func, self.tag, self.n)
    }
}

/// Where a local variable lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Home {
    /// In a callee-saved register.
    SReg(Reg),
    /// At `sp + offset` in the frame.
    Stack(u32),
}

struct FnGen<'a> {
    program: &'a Program,
    func: &'a Func,
    out: &'a mut String,
    labels: u32,
    /// Virtual evaluation-stack depth (index of next free T_REG).
    depth: usize,
    homes: Vec<Home>,
    sregs_used: Vec<Reg>,
    frame: u32,
    out_args: u32,
    spill_base: u32,
    ra_off: Option<u32>,
    sreg_save_base: u32,
    /// (continue label, break label) stack.
    loops: Vec<(Label<'a>, Label<'a>)>,
    /// Source line of the last `.loc` marker emitted (0 = none yet).
    cur_loc: u32,
}

impl<'a> FnGen<'a> {
    fn new(
        program: &'a Program,
        func: &'a Func,
        out: &'a mut String,
    ) -> Result<Self, CompileError> {
        // Pre-pass: leaf detection and maximum stack-argument count.
        let mut max_args = 0usize;
        let mut has_call = false;
        scan_calls(&func.body, &mut |n| {
            has_call = true;
            max_args = max_args.max(n);
        });

        let out_args = if has_call { 16 + 4 * (max_args.saturating_sub(4) as u32) } else { 0 };
        let spill_base = out_args;
        let locals_base = spill_base + if has_call { SPILL_BYTES } else { 0 };

        // Assign homes: scalars that are never addressed get s-registers.
        let mut homes = Vec::with_capacity(func.locals.len());
        let mut sregs_used = Vec::new();
        let mut stack_off = locals_base;
        let mut sreg_iter = S_REGS.iter();
        for local in &func.locals {
            if local.ty.is_scalar() && !local.addressed {
                if let Some(&s) = sreg_iter.next() {
                    homes.push(Home::SReg(s));
                    sregs_used.push(s);
                    continue;
                }
            }
            let align = local.ty.align(&program.structs).max(4);
            stack_off = (stack_off + align - 1) & !(align - 1);
            homes.push(Home::Stack(stack_off));
            stack_off += local.ty.size(&program.structs).max(4);
        }

        let sreg_save_base = (stack_off + 3) & !3;
        stack_off = sreg_save_base + 4 * sregs_used.len() as u32;
        let ra_off = if has_call {
            let off = stack_off;
            stack_off += 4;
            Some(off)
        } else {
            None
        };
        let frame = (stack_off + 7) & !7;

        Ok(FnGen {
            program,
            func,
            out,
            labels: 0,
            depth: 0,
            homes,
            sregs_used,
            frame,
            out_args,
            spill_base,
            ra_off,
            sreg_save_base,
            loops: Vec::new(),
            cur_loc: 0,
        })
    }

    fn label(&mut self, l: Label<'_>) {
        let _ = writeln!(self.out, "{l}:");
    }

    /// Emits a `.loc` source-line marker, deduplicating consecutive
    /// repeats. Line 0 means "unknown" and is never emitted.
    fn loc(&mut self, line: u32) {
        if line != 0 && line != self.cur_loc {
            let _ = writeln!(self.out, "    .loc {line}");
            self.cur_loc = line;
        }
    }

    fn fresh_label(&mut self, tag: &'static str) -> Label<'a> {
        self.labels += 1;
        let func: &'a Func = self.func;
        Label { func: &func.name, tag, n: self.labels }
    }

    // -- evaluation stack ------------------------------------------------

    fn push(&mut self, line: u32) -> Result<Reg, CompileError> {
        if self.depth >= T_REGS.len() {
            return Err(err(line, "expression too complex (evaluation stack overflow)"));
        }
        let r = T_REGS[self.depth];
        self.depth += 1;
        Ok(r)
    }

    fn pop(&mut self) -> Reg {
        debug_assert!(self.depth > 0);
        self.depth -= 1;
        T_REGS[self.depth]
    }

    fn top(&self) -> Reg {
        T_REGS[self.depth - 1]
    }

    // -- function body ---------------------------------------------------

    fn run(mut self) -> Result<(), CompileError> {
        let func = self.func;
        let _ = writeln!(self.out, ".func {}, {}", func.name, func.arity);
        let _ = writeln!(self.out, "{}:", func.name);
        self.loc(func.line);

        // Prologue.
        if self.frame > 0 {
            emit!(self, "addi $sp, $sp, -{}", self.frame);
        }
        if let Some(off) = self.ra_off {
            emit!(self, "sw $ra, {off}($sp)");
        }
        let saves: Vec<(Reg, u32)> = self
            .sregs_used
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, self.sreg_save_base + 4 * i as u32))
            .collect();
        for &(s, off) in &saves {
            emit!(self, "sw {s}, {off}($sp)");
        }

        // Move parameters to their homes.
        for i in 0..self.func.arity {
            let home = self.homes[i];
            if i < 4 {
                let a = Reg::arg(i).expect("register argument");
                match home {
                    Home::SReg(s) => emit!(self, "move {s}, {a}"),
                    Home::Stack(off) => emit!(self, "sw {a}, {off}($sp)"),
                }
            } else {
                let in_off = self.frame + 16 + 4 * (i as u32 - 4);
                match home {
                    Home::SReg(s) => emit!(self, "lw {s}, {in_off}($sp)"),
                    Home::Stack(off) => {
                        emit!(self, "lw $t0, {in_off}($sp)");
                        emit!(self, "sw $t0, {off}($sp)");
                    }
                }
            }
        }

        for stmt in &func.body {
            self.stmt(stmt)?;
        }

        // Fall-through return value defaults to 0.
        if self.func.ret != Type::Void {
            emit!(self, "addi $v0, $zero, 0");
        }
        let _ = writeln!(self.out, ".L{}_epi:", func.name);
        for &(s, off) in &saves {
            emit!(self, "lw {s}, {off}($sp)");
        }
        if let Some(off) = self.ra_off {
            emit!(self, "lw $ra, {off}($sp)");
        }
        if self.frame > 0 {
            emit!(self, "addi $sp, $sp, {}", self.frame);
        }
        emit!(self, "jr $ra");
        self.out.push_str(".endfunc\n");
        Ok(())
    }

    // -- statements --------------------------------------------------------

    fn stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        debug_assert_eq!(self.depth, 0, "evaluation stack must be empty between statements");
        self.loc(stmt_line(s));
        match s {
            Stmt::Decl { init, local, ty, line, .. } => {
                if let Some(e) = init {
                    self.expr(e)?;
                    let v = self.pop();
                    self.store_to_home(self.homes[*local], v, ty, *line);
                }
                Ok(())
            }
            Stmt::Expr(e) => {
                self.expr(e)?;
                self.pop();
                Ok(())
            }
            Stmt::If { cond, then, els } => {
                let lfalse = self.fresh_label("else");
                self.branch(cond, lfalse, false)?;
                self.stmt(then)?;
                if let Some(els) = els {
                    let lend = self.fresh_label("endif");
                    emit!(self, "b {lend}");
                    self.label(lfalse);
                    self.stmt(els)?;
                    self.label(lend);
                } else {
                    self.label(lfalse);
                }
                Ok(())
            }
            Stmt::While { cond, body } => {
                let ltop = self.fresh_label("while");
                let lend = self.fresh_label("endwhile");
                self.label(ltop);
                self.branch(cond, lend, false)?;
                self.loops.push((ltop, lend));
                self.stmt(body)?;
                self.loops.pop();
                emit!(self, "b {ltop}");
                self.label(lend);
                Ok(())
            }
            Stmt::For { init, cond, step, body } => {
                if let Some(e) = init {
                    self.expr(e)?;
                    self.pop();
                }
                let ltop = self.fresh_label("for");
                let lcont = self.fresh_label("forstep");
                let lend = self.fresh_label("endfor");
                self.label(ltop);
                if let Some(c) = cond {
                    self.branch(c, lend, false)?;
                }
                self.loops.push((lcont, lend));
                self.stmt(body)?;
                self.loops.pop();
                self.label(lcont);
                if let Some(e) = step {
                    self.expr(e)?;
                    self.pop();
                }
                emit!(self, "b {ltop}");
                self.label(lend);
                Ok(())
            }
            Stmt::Return { value, .. } => {
                if let Some(e) = value {
                    self.expr(e)?;
                    let r = self.pop();
                    emit!(self, "move $v0, {r}");
                }
                emit!(self, "b .L{}_epi", self.func.name);
                Ok(())
            }
            Stmt::Break { line } => {
                let (_, brk) = *self
                    .loops
                    .last()
                    .ok_or_else(|| err(*line, "break outside loop (sema bug)"))?;
                emit!(self, "b {brk}");
                Ok(())
            }
            Stmt::Continue { line } => {
                let (cont, _) = *self
                    .loops
                    .last()
                    .ok_or_else(|| err(*line, "continue outside loop (sema bug)"))?;
                emit!(self, "b {cont}");
                Ok(())
            }
            Stmt::Block(stmts) => {
                for s in stmts {
                    self.stmt(s)?;
                }
                Ok(())
            }
            Stmt::Empty => Ok(()),
        }
    }

    /// Stores the value in `v` into a local's home, applying char
    /// truncation semantics.
    fn store_to_home(&mut self, home: Home, v: Reg, ty: &Type, _line: u32) {
        match home {
            Home::SReg(s) => {
                if *ty == Type::Char {
                    emit!(self, "andi {s}, {v}, 0xff");
                } else {
                    emit!(self, "move {s}, {v}");
                }
            }
            Home::Stack(off) => {
                if *ty == Type::Char {
                    emit!(self, "sb {v}, {off}($sp)");
                } else {
                    emit!(self, "sw {v}, {off}($sp)");
                }
            }
        }
    }

    // -- branches ----------------------------------------------------------

    /// Emits a conditional jump to `target` when `cond` evaluates truthy
    /// (`jump_if == true`) or falsy (`jump_if == false`).
    fn branch(
        &mut self,
        cond: &Expr,
        target: Label<'a>,
        jump_if: bool,
    ) -> Result<(), CompileError> {
        match &cond.kind {
            ExprKind::Num(v) => {
                if (*v != 0) == jump_if {
                    emit!(self, "b {target}");
                }
                Ok(())
            }
            ExprKind::Unary(UnOp::Not, inner) => self.branch(inner, target, !jump_if),
            ExprKind::Binary(BinOp::LogAnd, l, r) => {
                if jump_if {
                    let skip = self.fresh_label("and");
                    self.branch(l, skip, false)?;
                    self.branch(r, target, true)?;
                    self.label(skip);
                } else {
                    self.branch(l, target, false)?;
                    self.branch(r, target, false)?;
                }
                Ok(())
            }
            ExprKind::Binary(BinOp::LogOr, l, r) => {
                if jump_if {
                    self.branch(l, target, true)?;
                    self.branch(r, target, true)?;
                } else {
                    let skip = self.fresh_label("or");
                    self.branch(l, skip, true)?;
                    self.branch(r, target, false)?;
                    self.label(skip);
                }
                Ok(())
            }
            ExprKind::Binary(op, l, r) if op.is_comparison() => {
                self.expr(l)?;
                self.expr(r)?;
                let b = self.pop();
                let a = self.pop();
                let mn = match (op, jump_if) {
                    (BinOp::Eq, true) | (BinOp::Ne, false) => "beq",
                    (BinOp::Eq, false) | (BinOp::Ne, true) => "bne",
                    (BinOp::Lt, true) | (BinOp::Ge, false) => "blt",
                    (BinOp::Lt, false) | (BinOp::Ge, true) => "bge",
                    (BinOp::Gt, true) | (BinOp::Le, false) => "bgt",
                    (BinOp::Gt, false) | (BinOp::Le, true) => "ble",
                    _ => unreachable!("non-comparison op"),
                };
                emit!(self, "{mn} {a}, {b}, {target}");
                Ok(())
            }
            _ => {
                self.expr(cond)?;
                let r = self.pop();
                let mn = if jump_if { "bnez" } else { "beqz" };
                emit!(self, "{mn} {r}, {target}");
                Ok(())
            }
        }
    }

    // -- expressions -------------------------------------------------------

    /// Generates code leaving the value of `e` in a fresh top-of-stack
    /// register. Array- and struct-typed expressions evaluate to their
    /// address (decay).
    fn expr(&mut self, e: &Expr) -> Result<(), CompileError> {
        let line = e.line;
        match &e.kind {
            ExprKind::Num(v) => {
                let r = self.push(line)?;
                emit!(self, "li {r}, {v}");
                Ok(())
            }
            ExprKind::Str(i) => {
                let r = self.push(line)?;
                emit!(self, "la {r}, .Lstr{i}");
                Ok(())
            }
            ExprKind::Sizeof(ty) => {
                let size = ty.size(&self.program.structs);
                let r = self.push(line)?;
                emit!(self, "li {r}, {size}");
                Ok(())
            }
            ExprKind::Ident { name, storage } => {
                let storage =
                    storage.ok_or_else(|| err(line, "unresolved identifier (sema bug)"))?;
                match storage {
                    Storage::Local(i) => {
                        let home = self.homes[i];
                        let func = self.func;
                        let ty = &func.locals[i].ty;
                        let r = self.push(line)?;
                        match (home, ty.is_scalar()) {
                            (Home::SReg(s), _) => emit!(self, "move {r}, {s}"),
                            (Home::Stack(off), true) => {
                                if *ty == Type::Char {
                                    emit!(self, "lbu {r}, {off}($sp)");
                                } else {
                                    emit!(self, "lw {r}, {off}($sp)");
                                }
                            }
                            (Home::Stack(off), false) => emit!(self, "addi {r}, $sp, {off}"),
                        }
                    }
                    Storage::Global => {
                        let ty = &e.ty;
                        let r = self.push(line)?;
                        if ty.is_scalar() {
                            if *ty == Type::Char {
                                emit!(self, "lbu {r}, {name}");
                            } else {
                                emit!(self, "lw {r}, {name}");
                            }
                        } else {
                            emit!(self, "la {r}, {name}");
                        }
                    }
                }
                Ok(())
            }
            ExprKind::Unary(op, inner) => self.unary(*op, inner, e, line),
            ExprKind::Binary(op, l, r) => self.binary(*op, l, r, e, line),
            ExprKind::Assign { op, lhs, rhs } => self.assign(*op, lhs, rhs, line),
            ExprKind::IncDec { pre, inc, target } => self.inc_dec(*pre, *inc, target, line),
            ExprKind::Call { name, args } => self.call(name, args, line),
            ExprKind::Index(..) | ExprKind::Member { .. } => {
                if e.ty.is_scalar() {
                    self.addr_of(e)?;
                    let r = self.top();
                    self.load_scalar(r, r, &e.ty);
                } else {
                    // Aggregate element: its address is its value.
                    self.addr_of(e)?;
                }
                Ok(())
            }
        }
    }

    fn load_scalar(&mut self, dst: Reg, addr: Reg, ty: &Type) {
        if *ty == Type::Char {
            emit!(self, "lbu {dst}, 0({addr})");
        } else {
            emit!(self, "lw {dst}, 0({addr})");
        }
    }

    fn store_scalar(&mut self, src: Reg, addr: Reg, ty: &Type) {
        if *ty == Type::Char {
            emit!(self, "sb {src}, 0({addr})");
        } else {
            emit!(self, "sw {src}, 0({addr})");
        }
    }

    /// Pushes the address of an lvalue expression.
    fn addr_of(&mut self, e: &Expr) -> Result<(), CompileError> {
        let line = e.line;
        match &e.kind {
            ExprKind::Ident { name, storage } => {
                let storage =
                    storage.ok_or_else(|| err(line, "unresolved identifier (sema bug)"))?;
                match storage {
                    Storage::Local(i) => match self.homes[i] {
                        Home::Stack(off) => {
                            let r = self.push(line)?;
                            emit!(self, "addi {r}, $sp, {off}");
                            Ok(())
                        }
                        Home::SReg(_) => Err(err(line, "address of register local (sema bug)")),
                    },
                    Storage::Global => {
                        let r = self.push(line)?;
                        emit!(self, "la {r}, {name}");
                        Ok(())
                    }
                }
            }
            ExprKind::Str(i) => {
                let r = self.push(line)?;
                emit!(self, "la {r}, .Lstr{i}");
                Ok(())
            }
            ExprKind::Unary(UnOp::Deref, ptr) => self.expr(ptr),
            ExprKind::Index(base, idx) => {
                self.expr(base)?;
                self.expr(idx)?;
                let size = e.ty.size(&self.program.structs).max(1);
                self.scale_top(size, line)?;
                let i = self.pop();
                let b = self.top();
                emit!(self, "add {b}, {b}, {i}");
                Ok(())
            }
            ExprKind::Member { base, field, arrow } => {
                let sid = if *arrow {
                    match base.ty.decayed() {
                        Type::Ptr(inner) => match *inner {
                            Type::Struct(id) => id,
                            _ => return Err(err(line, "bad -> base (sema bug)")),
                        },
                        _ => return Err(err(line, "bad -> base (sema bug)")),
                    }
                } else {
                    match &base.ty {
                        Type::Struct(id) => *id,
                        _ => return Err(err(line, "bad . base (sema bug)")),
                    }
                };
                let offset = self.program.structs[sid.0]
                    .field(field)
                    .ok_or_else(|| err(line, "missing field (sema bug)"))?
                    .offset;
                if *arrow {
                    self.expr(base)?;
                } else {
                    self.addr_of(base)?;
                }
                if offset != 0 {
                    let r = self.top();
                    emit!(self, "addi {r}, {r}, {offset}");
                }
                Ok(())
            }
            _ => Err(err(line, "expression is not an lvalue (sema bug)")),
        }
    }

    /// Multiplies the top register by a constant element size.
    fn scale_top(&mut self, size: u32, line: u32) -> Result<(), CompileError> {
        if size == 1 {
            return Ok(());
        }
        let r = self.top();
        if size.is_power_of_two() {
            emit!(self, "sll {r}, {r}, {}", size.trailing_zeros());
        } else {
            let tmp = self.push(line)?;
            emit!(self, "li {tmp}, {size}");
            emit!(self, "mul {r}, {r}, {tmp}");
            self.pop();
        }
        Ok(())
    }

    /// Divides the top register by a constant element size (for ptr-ptr
    /// subtraction). Addresses are positive so arithmetic shift is exact.
    fn unscale_top(&mut self, size: u32, line: u32) -> Result<(), CompileError> {
        if size == 1 {
            return Ok(());
        }
        let r = self.top();
        if size.is_power_of_two() {
            emit!(self, "sra {r}, {r}, {}", size.trailing_zeros());
        } else {
            let tmp = self.push(line)?;
            emit!(self, "li {tmp}, {size}");
            emit!(self, "div {r}, {r}, {tmp}");
            self.pop();
        }
        Ok(())
    }

    fn unary(&mut self, op: UnOp, inner: &Expr, e: &Expr, _line: u32) -> Result<(), CompileError> {
        match op {
            UnOp::Addr => self.addr_of(inner),
            UnOp::Deref => {
                if e.ty.is_scalar() {
                    self.expr(inner)?;
                    let r = self.top();
                    self.load_scalar(r, r, &e.ty);
                } else {
                    self.expr(inner)?;
                }
                Ok(())
            }
            UnOp::Neg => {
                self.expr(inner)?;
                let r = self.top();
                emit!(self, "neg {r}, {r}");
                Ok(())
            }
            UnOp::BitNot => {
                self.expr(inner)?;
                let r = self.top();
                emit!(self, "not {r}, {r}");
                Ok(())
            }
            UnOp::Not => {
                self.expr(inner)?;
                let r = self.top();
                emit!(self, "sltiu {r}, {r}, 1");
                Ok(())
            }
        }
    }

    fn binary(
        &mut self,
        op: BinOp,
        l: &Expr,
        r: &Expr,
        e: &Expr,
        line: u32,
    ) -> Result<(), CompileError> {
        // Short-circuit logicals synthesize a 0/1 value via branches.
        if matches!(op, BinOp::LogAnd | BinOp::LogOr) {
            let res = self.push(line)?;
            let lfalse = self.fresh_label("sc");
            let lend = self.fresh_label("scend");
            // branch() evaluates its operands above the reserved slot.
            self.branch(e, lfalse, false)?;
            emit!(self, "li {res}, 1");
            emit!(self, "b {lend}");
            self.label(lfalse);
            emit!(self, "li {res}, 0");
            self.label(lend);
            return Ok(());
        }

        self.expr(l)?;
        // Pointer arithmetic scaling.
        let lt = l.ty.decayed();
        let rt = r.ty.decayed();
        match op {
            BinOp::Add => {
                if let Type::Ptr(elem) = &lt {
                    let size = elem.size(&self.program.structs).max(1);
                    self.expr(r)?;
                    self.scale_top(size, line)?;
                } else if let Type::Ptr(elem) = &rt {
                    // int + ptr: scale the int (currently on top).
                    let size = elem.size(&self.program.structs).max(1);
                    self.scale_top(size, line)?;
                    self.expr(r)?;
                } else {
                    self.expr(r)?;
                }
                let b = self.pop();
                let a = self.top();
                emit!(self, "add {a}, {a}, {b}");
                return Ok(());
            }
            BinOp::Sub => {
                if let (Type::Ptr(ea), Type::Ptr(_)) = (&lt, &rt) {
                    self.expr(r)?;
                    let b = self.pop();
                    let a = self.top();
                    emit!(self, "sub {a}, {a}, {b}");
                    let size = ea.size(&self.program.structs).max(1);
                    self.unscale_top(size, line)?;
                    return Ok(());
                }
                if let Type::Ptr(elem) = &lt {
                    let size = elem.size(&self.program.structs).max(1);
                    self.expr(r)?;
                    self.scale_top(size, line)?;
                    let b = self.pop();
                    let a = self.top();
                    emit!(self, "sub {a}, {a}, {b}");
                    return Ok(());
                }
                self.expr(r)?;
                let b = self.pop();
                let a = self.top();
                emit!(self, "sub {a}, {a}, {b}");
                return Ok(());
            }
            _ => {}
        }
        self.expr(r)?;
        let b = self.pop();
        let a = self.top();
        match op {
            BinOp::Mul => emit!(self, "mul {a}, {a}, {b}"),
            BinOp::Div => emit!(self, "div {a}, {a}, {b}"),
            BinOp::Rem => emit!(self, "rem {a}, {a}, {b}"),
            BinOp::And => emit!(self, "and {a}, {a}, {b}"),
            BinOp::Or => emit!(self, "or {a}, {a}, {b}"),
            BinOp::Xor => emit!(self, "xor {a}, {a}, {b}"),
            BinOp::Shl => emit!(self, "sllv {a}, {b}, {a}"),
            BinOp::Shr => emit!(self, "srav {a}, {b}, {a}"),
            BinOp::Lt => emit!(self, "slt {a}, {a}, {b}"),
            BinOp::Gt => emit!(self, "slt {a}, {b}, {a}"),
            BinOp::Le => {
                emit!(self, "slt {a}, {b}, {a}");
                emit!(self, "xori {a}, {a}, 1");
            }
            BinOp::Ge => {
                emit!(self, "slt {a}, {a}, {b}");
                emit!(self, "xori {a}, {a}, 1");
            }
            BinOp::Eq => emit!(self, "seq {a}, {a}, {b}"),
            BinOp::Ne => emit!(self, "sne {a}, {a}, {b}"),
            BinOp::Add | BinOp::Sub | BinOp::LogAnd | BinOp::LogOr => unreachable!(),
        }
        Ok(())
    }

    fn assign(
        &mut self,
        op: Option<BinOp>,
        lhs: &Expr,
        rhs: &Expr,
        line: u32,
    ) -> Result<(), CompileError> {
        // Fast path: register-resident scalar local.
        if let ExprKind::Ident { storage: Some(Storage::Local(i)), .. } = &lhs.kind {
            if let Home::SReg(s) = self.homes[*i] {
                let is_char = self.func.locals[*i].ty == Type::Char;
                match op {
                    None => {
                        self.expr(rhs)?;
                        let r = self.top();
                        if is_char {
                            emit!(self, "andi {r}, {r}, 0xff");
                        }
                        emit!(self, "move {s}, {r}");
                    }
                    Some(op) => {
                        self.expr(rhs)?;
                        let r = self.top();
                        self.apply_compound(op, s, s, r, &lhs.ty, line)?;
                        if is_char {
                            emit!(self, "andi {s}, {s}, 0xff");
                        }
                        emit!(self, "move {r}, {s}");
                    }
                }
                return Ok(());
            }
        }

        match op {
            None => {
                self.addr_of(lhs)?;
                self.expr(rhs)?;
                let v = self.top();
                if lhs.ty == Type::Char {
                    emit!(self, "andi {v}, {v}, 0xff");
                }
                let v = self.pop();
                let a = self.top();
                self.store_scalar(v, a, &lhs.ty);
                // Result is the stored value, in the slot the address held.
                emit!(self, "move {a}, {v}");
                Ok(())
            }
            Some(op) => {
                self.addr_of(lhs)?;
                let a = self.top();
                let old = self.push(line)?;
                self.load_scalar(old, a, &lhs.ty);
                self.expr(rhs)?;
                let r = self.top();
                self.apply_compound(op, old, old, r, &lhs.ty, line)?;
                if lhs.ty == Type::Char {
                    emit!(self, "andi {old}, {old}, 0xff");
                }
                self.pop(); // rhs
                let old = self.pop();
                let a = self.top();
                self.store_scalar(old, a, &lhs.ty);
                emit!(self, "move {a}, {old}");
                Ok(())
            }
        }
    }

    /// Emits `dst = a OP b`, scaling `b` for pointer arithmetic.
    fn apply_compound(
        &mut self,
        op: BinOp,
        dst: Reg,
        a: Reg,
        b: Reg,
        lhs_ty: &Type,
        line: u32,
    ) -> Result<(), CompileError> {
        if let (BinOp::Add | BinOp::Sub, Type::Ptr(elem)) = (op, &lhs_ty.decayed()) {
            // b is on the eval stack top or an arbitrary reg; scale needs
            // the top-of-stack discipline, so scale b in place if it is
            // the top register.
            let size = elem.size(&self.program.structs).max(1);
            if size != 1 {
                if size.is_power_of_two() {
                    emit!(self, "sll {b}, {b}, {}", size.trailing_zeros());
                } else {
                    let tmp = self.push(line)?;
                    emit!(self, "li {tmp}, {size}");
                    emit!(self, "mul {b}, {b}, {tmp}");
                    self.pop();
                }
            }
        }
        let mn = match op {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => {
                emit!(self, "sllv {dst}, {b}, {a}");
                return Ok(());
            }
            BinOp::Shr => {
                emit!(self, "srav {dst}, {b}, {a}");
                return Ok(());
            }
            other => return Err(err(line, format!("bad compound operator {other:?}"))),
        };
        emit!(self, "{mn} {dst}, {a}, {b}");
        Ok(())
    }

    fn inc_dec(
        &mut self,
        pre: bool,
        inc: bool,
        target: &Expr,
        line: u32,
    ) -> Result<(), CompileError> {
        let delta: i64 = {
            let step = match &target.ty.decayed() {
                Type::Ptr(elem) => i64::from(elem.size(&self.program.structs).max(1)),
                _ => 1,
            };
            if inc {
                step
            } else {
                -step
            }
        };
        // Register-resident local.
        if let ExprKind::Ident { storage: Some(Storage::Local(i)), .. } = &target.kind {
            if let Home::SReg(s) = self.homes[*i] {
                let is_char = self.func.locals[*i].ty == Type::Char;
                let r = self.push(line)?;
                if !pre {
                    emit!(self, "move {r}, {s}");
                }
                emit!(self, "addi {s}, {s}, {delta}");
                if is_char {
                    emit!(self, "andi {s}, {s}, 0xff");
                }
                if pre {
                    emit!(self, "move {r}, {s}");
                }
                return Ok(());
            }
        }
        self.addr_of(target)?;
        let a = self.top();
        let v = self.push(line)?;
        self.load_scalar(v, a, &target.ty);
        if pre {
            emit!(self, "addi {v}, {v}, {delta}");
            if target.ty == Type::Char {
                emit!(self, "andi {v}, {v}, 0xff");
            }
            self.store_scalar(v, a, &target.ty);
            let v = self.pop();
            let a = self.top();
            emit!(self, "move {a}, {v}");
        } else {
            let n = self.push(line)?;
            emit!(self, "addi {n}, {v}, {delta}");
            if target.ty == Type::Char {
                emit!(self, "andi {n}, {n}, 0xff");
            }
            self.store_scalar(n, a, &target.ty);
            self.pop(); // n
            let v = self.pop();
            let a = self.top();
            emit!(self, "move {a}, {v}");
        }
        Ok(())
    }

    fn call(&mut self, name: &str, args: &[Expr], line: u32) -> Result<(), CompileError> {
        // Evaluate all arguments onto the evaluation stack first: a nested
        // call inside a later argument would clobber the shared outgoing
        // slots if earlier arguments were already parked there.
        debug_assert!(self.out_args >= 16 || args.is_empty());
        let base = self.depth;
        for arg in args {
            self.expr(arg)?;
        }
        for i in 0..args.len() {
            emit!(self, "sw {}, {}($sp)", T_REGS[base + i], 4 * i);
        }
        self.depth = base;
        // Spill live temporaries (caller-saved) around the call.
        let live = self.depth;
        for (d, reg) in T_REGS.iter().enumerate().take(live) {
            let off = self.spill_base + 4 * d as u32;
            emit!(self, "sw {reg}, {off}($sp)");
        }
        for i in 0..args.len().min(4) {
            let a = Reg::arg(i).expect("register argument");
            emit!(self, "lw {a}, {}($sp)", 4 * i);
        }
        emit!(self, "jal {name}");
        let res = self.push(line)?;
        emit!(self, "move {res}, $v0");
        for (d, reg) in T_REGS.iter().enumerate().take(live) {
            let off = self.spill_base + 4 * d as u32;
            emit!(self, "lw {reg}, {off}($sp)");
        }
        Ok(())
    }
}

/// Source line a statement's first instruction should be attributed to
/// (0 = no line of its own; blocks defer to their inner statements).
fn stmt_line(s: &Stmt) -> u32 {
    match s {
        Stmt::Decl { line, .. }
        | Stmt::Return { line, .. }
        | Stmt::Break { line }
        | Stmt::Continue { line } => *line,
        Stmt::Expr(e) => e.line,
        Stmt::If { cond, .. } | Stmt::While { cond, .. } => cond.line,
        Stmt::For { init, cond, step, .. } => {
            [init, cond, step].into_iter().flatten().map(|e| e.line).find(|&l| l != 0).unwrap_or(0)
        }
        Stmt::Block(_) | Stmt::Empty => 0,
    }
}

/// Walks all statements, invoking `f` with the argument count of every
/// call expression found.
fn scan_calls(stmts: &[Stmt], f: &mut impl FnMut(usize)) {
    for s in stmts {
        scan_stmt(s, f);
    }
}

fn scan_stmt(s: &Stmt, f: &mut impl FnMut(usize)) {
    match s {
        Stmt::Decl { init, .. } => {
            if let Some(e) = init {
                scan_expr(e, f);
            }
        }
        Stmt::Expr(e) => scan_expr(e, f),
        Stmt::If { cond, then, els } => {
            scan_expr(cond, f);
            scan_stmt(then, f);
            if let Some(e) = els {
                scan_stmt(e, f);
            }
        }
        Stmt::While { cond, body } => {
            scan_expr(cond, f);
            scan_stmt(body, f);
        }
        Stmt::For { init, cond, step, body } => {
            for e in [init, cond, step].into_iter().flatten() {
                scan_expr(e, f);
            }
            scan_stmt(body, f);
        }
        Stmt::Return { value, .. } => {
            if let Some(e) = value {
                scan_expr(e, f);
            }
        }
        Stmt::Block(stmts) => scan_calls(stmts, f),
        Stmt::Break { .. } | Stmt::Continue { .. } | Stmt::Empty => {}
    }
}

fn scan_expr(e: &Expr, f: &mut impl FnMut(usize)) {
    match &e.kind {
        ExprKind::Call { args, .. } => {
            f(args.len());
            for a in args {
                scan_expr(a, f);
            }
        }
        ExprKind::Unary(_, inner) => scan_expr(inner, f),
        ExprKind::Binary(_, l, r) => {
            scan_expr(l, f);
            scan_expr(r, f);
        }
        ExprKind::Assign { lhs, rhs, .. } => {
            scan_expr(lhs, f);
            scan_expr(rhs, f);
        }
        ExprKind::IncDec { target, .. } => scan_expr(target, f),
        ExprKind::Index(b, i) => {
            scan_expr(b, f);
            scan_expr(i, f);
        }
        ExprKind::Member { base, .. } => scan_expr(base, f),
        ExprKind::Num(_) | ExprKind::Str(_) | ExprKind::Ident { .. } | ExprKind::Sizeof(_) => {}
    }
}

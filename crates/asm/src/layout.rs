//! Address assignment and binary emission.
//!
//! Layout runs in two passes over the parsed items: pass A walks every
//! `.data` item and assigns data addresses (so pseudo-instruction
//! expansions can decide gp-relative vs. absolute addressing), pass B
//! walks `.text` items measuring expansion sizes and assigning text label
//! addresses. [`encode`] then re-expands with every symbol resolved and
//! emits binary.

use instrep_isa::abi::{self, GP_INIT};
use instrep_isa::{AluOp, BranchOp, ImmOp, Insn, MemOp, MemWidth, Reg, ShiftOp};

use crate::error::AsmError;
use crate::image::{FuncMeta, Image, SymbolTable};
use crate::parse::{Expr, Operand, Parsed, Reloc, Section, Stmt};

fn err(line: u32, msg: impl Into<String>) -> AsmError {
    AsmError::new(line, msg)
}

/// The parsed file plus the results of the two layout passes.
pub(crate) struct Laid<'a> {
    parsed: Parsed<'a>,
    symbols: SymbolTable,
    text_len: u32,
    data_len: u32,
    init_ranges: Vec<std::ops::Range<u32>>,
    funcs: Vec<FuncMeta>,
}

/// Size in bytes a data statement occupies (before alignment).
fn data_stmt_bytes(stmt: &Stmt) -> Option<(u32, u32, bool)> {
    // (alignment, size, initialized)
    match *stmt {
        Stmt::Values { width, values } => Some((width, width * values.len() as u32, true)),
        Stmt::Ascii(bytes) => Some((1, bytes.len() as u32, true)),
        Stmt::Space(n) => Some((1, n, false)),
        _ => None,
    }
}

/// Bytes the data segment may span: it must end below the stack region,
/// which also keeps every data address and cursor within `u32`.
const MAX_DATA: u32 = abi::STACK_REGION_BASE - abi::DATA_BASE;

fn align_to(cursor: u32, align: u32) -> u32 {
    debug_assert!(align.is_power_of_two());
    (cursor + align - 1) & !(align - 1)
}

/// Pass A + B: assign all addresses.
pub(crate) fn layout(parsed: Parsed<'_>) -> Result<Laid<'_>, AsmError> {
    let mut symbols = SymbolTable::new();
    let mut init_ranges: Vec<std::ops::Range<u32>> = Vec::new();

    // Pass A: data addresses. Labels are held pending until the next data
    // item so that a label immediately before an aligned item points at
    // the post-alignment address.
    let mut section = Section::Text;
    let mut dcur: u32 = 0;
    let mut pending: Vec<(&str, u32)> = Vec::new(); // (name, line)
    for item in &parsed.items {
        match &item.stmt {
            Stmt::Section(s) => section = *s,
            Stmt::Label(name) if section == Section::Data => {
                pending.push((name, item.line));
            }
            Stmt::Align(n) if section == Section::Data => {
                dcur = align_to(dcur, 1 << n);
            }
            other if section == Section::Data => {
                if let Some((align, size, init)) = data_stmt_bytes(other) {
                    dcur = align_to(dcur, align);
                    // `dcur` is at most MAX_DATA plus one alignment pad and
                    // `size` at most 2^30, so the sum cannot overflow.
                    if dcur + size > MAX_DATA {
                        return Err(err(item.line, "data segment runs into the stack region"));
                    }
                    for (name, line) in pending.drain(..) {
                        if !symbols.insert(name, abi::DATA_BASE + dcur) {
                            return Err(err(line, format!("duplicate symbol `{name}`")));
                        }
                    }
                    let start = abi::DATA_BASE + dcur;
                    if init && size > 0 {
                        match init_ranges.last_mut() {
                            Some(last) if last.end == start => last.end = start + size,
                            _ => init_ranges.push(start..start + size),
                        }
                    }
                    dcur += size;
                } else if matches!(other, Stmt::Insn { .. }) {
                    return Err(err(item.line, "instruction in .data section"));
                }
            }
            _ => {}
        }
    }
    for (name, line) in pending.drain(..) {
        if !symbols.insert(name, abi::DATA_BASE + dcur) {
            return Err(err(line, format!("duplicate symbol `{name}`")));
        }
    }
    let data_len = dcur;

    // Pass B: text addresses. Expansion sizes consult data symbols (all
    // known) and treat unknown symbols as non-gp-addressable, which is
    // exactly how resolved text addresses behave in the encode pass.
    let mut section = Section::Text;
    let mut tcur: u32 = 0; // instruction index
    let mut funcs: Vec<FuncMeta> = Vec::new();
    let mut open_func: Option<(&str, u8, u32, u32)> = None; // name, arity, entry, line
    let mut scratch = Vec::new();
    for item in &parsed.items {
        match &item.stmt {
            Stmt::Section(s) => section = *s,
            Stmt::Label(name)
                if section == Section::Text && !symbols.insert(name, abi::TEXT_BASE + tcur * 4) =>
            {
                return Err(err(item.line, format!("duplicate symbol `{name}`")));
            }
            Stmt::Func { name, arity } if section == Section::Text => {
                if let Some((open, ..)) = &open_func {
                    return Err(err(
                        item.line,
                        format!("`.func {name}` while `.func {open}` is still open"),
                    ));
                }
                open_func = Some((name, *arity, abi::TEXT_BASE + tcur * 4, item.line));
            }
            Stmt::EndFunc if section == Section::Text => {
                let (name, arity, entry, _) =
                    open_func.take().ok_or_else(|| err(item.line, "`.endfunc` without `.func`"))?;
                funcs.push(FuncMeta {
                    name: name.to_string(),
                    entry,
                    end: abi::TEXT_BASE + tcur * 4,
                    arity,
                });
            }
            Stmt::Insn { mnemonic, operands } if section == Section::Text => {
                scratch.clear();
                expand(
                    mnemonic,
                    operands.of(&parsed.operands),
                    abi::TEXT_BASE + tcur * 4,
                    &symbols,
                    false,
                    &mut scratch,
                    item.line,
                )?;
                tcur += scratch.len() as u32;
            }
            // `.loc` markers occupy no space; they only matter to encode.
            Stmt::Loc(_) => {}
            Stmt::Insn { .. } | Stmt::Label(_) | Stmt::Func { .. } | Stmt::EndFunc => {}
            other if section == Section::Text && data_stmt_bytes(other).is_some() => {
                return Err(err(item.line, "data directive in .text section"));
            }
            _ => {}
        }
    }
    if let Some((name, _, _, line)) = open_func {
        return Err(err(line, format!("`.func {name}` never closed")));
    }

    Ok(Laid { parsed, symbols, text_len: tcur, data_len, init_ranges, funcs })
}

/// Final pass: emit binary text and data with all symbols resolved.
pub(crate) fn encode(laid: Laid<'_>) -> Result<Image, AsmError> {
    let Laid { parsed, symbols, text_len, data_len, init_ranges, funcs } = laid;
    let mut text: Vec<u32> = Vec::with_capacity(text_len as usize);
    let mut lines: Vec<u32> = Vec::with_capacity(text_len as usize);
    let mut cur_line: u32 = 0; // active `.loc` source line (0 = unknown)
    let mut data: Vec<u8> = vec![0; data_len as usize];
    let mut insns = Vec::new();

    let mut section = Section::Text;
    let mut dcur: u32 = 0;
    for item in &parsed.items {
        match &item.stmt {
            Stmt::Section(s) => section = *s,
            Stmt::Loc(n) => cur_line = *n,
            Stmt::Insn { mnemonic, operands } if section == Section::Text => {
                insns.clear();
                expand(
                    mnemonic,
                    operands.of(&parsed.operands),
                    abi::TEXT_BASE + (text.len() as u32) * 4,
                    &symbols,
                    true,
                    &mut insns,
                    item.line,
                )?;
                text.extend(insns.iter().map(instrep_isa::encode));
                // Every word of a pseudo-expansion inherits the active line.
                lines.resize(text.len(), cur_line);
            }
            other if section == Section::Data => {
                let mut put = |bytes: &[u8], align: u32, dcur: &mut u32| {
                    *dcur = align_to(*dcur, align);
                    data[*dcur as usize..*dcur as usize + bytes.len()].copy_from_slice(bytes);
                    *dcur += bytes.len() as u32;
                };
                match *other {
                    Stmt::Values { width, values } => {
                        // Aligned once, as layout did, even when empty.
                        dcur = align_to(dcur, width);
                        let bits = 8 * width;
                        let what = match width {
                            4 => "word",
                            2 => "half",
                            _ => "byte",
                        };
                        for e in values.of(&parsed.values) {
                            let v = resolve(e, &symbols, true, item.line)?.unwrap_or(0);
                            if !(-(1i64 << (bits - 1))..(1i64 << bits)).contains(&v) {
                                return Err(err(
                                    item.line,
                                    format!("{what} value {v} out of range"),
                                ));
                            }
                            put(&(v as u32).to_le_bytes()[..width as usize], width, &mut dcur);
                        }
                    }
                    Stmt::Ascii(bytes) => put(bytes.of(&parsed.bytes), 1, &mut dcur),
                    Stmt::Space(n) => dcur += n,
                    Stmt::Align(n) => dcur = align_to(dcur, 1 << n),
                    _ => {}
                }
            }
            _ => {}
        }
    }

    Ok(Image { text, lines, data, init_ranges, entry: abi::TEXT_BASE, symbols, funcs })
}

// ---------------------------------------------------------------------------
// Pseudo-instruction expansion
// ---------------------------------------------------------------------------

struct Ops<'a> {
    operands: &'a [Operand<'a>],
    mnemonic: &'a str,
    line: u32,
}

impl<'a> Ops<'a> {
    fn expect(&self, n: usize) -> Result<(), AsmError> {
        if self.operands.len() != n {
            return Err(err(
                self.line,
                format!("`{}` expects {n} operand(s), got {}", self.mnemonic, self.operands.len()),
            ));
        }
        Ok(())
    }

    fn reg(&self, i: usize) -> Result<Reg, AsmError> {
        match self.operands.get(i) {
            Some(Operand::Reg(r)) => Ok(*r),
            other => Err(err(
                self.line,
                format!("`{}` operand {} must be a register, got {other:?}", self.mnemonic, i + 1),
            )),
        }
    }

    fn val(&self, i: usize) -> Result<(Reloc, &Expr<'a>), AsmError> {
        match self.operands.get(i) {
            Some(Operand::Val(reloc, expr)) => Ok((*reloc, expr)),
            other => Err(err(
                self.line,
                format!("`{}` operand {} must be a value, got {other:?}", self.mnemonic, i + 1),
            )),
        }
    }
}

/// Resolves `expr` to a value. In non-strict (sizing) mode, undefined
/// symbols resolve to `None`.
fn resolve(
    expr: &Expr<'_>,
    symbols: &SymbolTable,
    strict: bool,
    line: u32,
) -> Result<Option<i64>, AsmError> {
    match expr {
        Expr::Imm(v) => Ok(Some(*v)),
        Expr::Sym(name, off) => match symbols.get(name) {
            Some(addr) => Ok(Some(i64::from(addr).wrapping_add(*off))),
            None if strict => Err(err(line, format!("undefined symbol `{name}`"))),
            None => Ok(None),
        },
    }
}

fn check_i16(v: i64, line: u32, what: &str) -> Result<i16, AsmError> {
    i16::try_from(v).map_err(|_| err(line, format!("{what} {v} does not fit in 16 signed bits")))
}

fn check_u16(v: i64, line: u32, what: &str) -> Result<u16, AsmError> {
    u16::try_from(v).map_err(|_| err(line, format!("{what} {v} does not fit in 16 unsigned bits")))
}

/// True when `addr` can be addressed with a single signed 16-bit
/// displacement off the global pointer.
fn in_gp_window(addr: i64) -> bool {
    let delta = addr.wrapping_sub(i64::from(GP_INIT));
    (-0x8000..=0x7fff).contains(&delta) && addr >= i64::from(abi::DATA_BASE)
}

/// Emits `lui rd, hi; ori rd, rd, lo` materializing `value`.
fn emit_li32(rd: Reg, value: u32, out: &mut Vec<Insn>) {
    out.push(Insn::Lui { rt: rd, imm: (value >> 16) as u16 });
    out.push(Insn::imm(ImmOp::Ori, rd, rd, (value & 0xffff) as u16 as i16));
}

/// Expands one assembly statement into machine instructions.
///
/// In non-strict mode (layout sizing) undefined symbols are tolerated and
/// produce placeholder values; the *number* of emitted instructions is
/// identical to strict mode for the same inputs, which is the property the
/// two-pass layout relies on.
#[allow(clippy::too_many_lines)]
pub(crate) fn expand(
    mnemonic: &str,
    operands: &[Operand<'_>],
    pc: u32,
    symbols: &SymbolTable,
    strict: bool,
    out: &mut Vec<Insn>,
    line: u32,
) -> Result<(), AsmError> {
    let ops = Ops { operands, mnemonic, line };

    let alu3 = |op: AluOp, ops: &Ops, out: &mut Vec<Insn>| -> Result<(), AsmError> {
        ops.expect(3)?;
        out.push(Insn::alu(op, ops.reg(0)?, ops.reg(1)?, ops.reg(2)?));
        Ok(())
    };

    // Resolves a branch-target operand into a signed word offset from the
    // *next* instruction after `at_index` instructions of this expansion.
    let branch_off = |ops: &Ops, i: usize, at_index: u32| -> Result<i16, AsmError> {
        let (reloc, expr) = ops.val(i)?;
        if reloc != Reloc::None {
            return Err(err(line, "relocation operator not allowed on branch target"));
        }
        match expr {
            Expr::Imm(v) => check_i16(*v, line, "branch offset"),
            Expr::Sym(..) => {
                let Some(target) = resolve(expr, symbols, strict, line)? else {
                    return Ok(0);
                };
                let from = i64::from(pc) + i64::from(at_index) * 4 + 4;
                let delta = target.wrapping_sub(from);
                if delta % 4 != 0 {
                    return Err(err(line, "branch target not word-aligned"));
                }
                check_i16(delta / 4, line, "branch offset")
            }
        }
    };

    match mnemonic {
        // --- native three-register ALU ---
        "add" => alu3(AluOp::Add, &ops, out)?,
        "sub" => alu3(AluOp::Sub, &ops, out)?,
        "and" => alu3(AluOp::And, &ops, out)?,
        "or" => alu3(AluOp::Or, &ops, out)?,
        "xor" => alu3(AluOp::Xor, &ops, out)?,
        "nor" => alu3(AluOp::Nor, &ops, out)?,
        "slt" => alu3(AluOp::Slt, &ops, out)?,
        "sltu" => alu3(AluOp::Sltu, &ops, out)?,
        "sllv" => alu3(AluOp::Sllv, &ops, out)?,
        "srlv" => alu3(AluOp::Srlv, &ops, out)?,
        "srav" => alu3(AluOp::Srav, &ops, out)?,
        "mul" => alu3(AluOp::Mul, &ops, out)?,
        "div" => alu3(AluOp::Div, &ops, out)?,
        "rem" => alu3(AluOp::Rem, &ops, out)?,
        "divu" => alu3(AluOp::Divu, &ops, out)?,
        "remu" => alu3(AluOp::Remu, &ops, out)?,

        // --- immediates ---
        "addi" | "addiu" | "slti" | "sltiu" | "andi" | "ori" | "xori" => {
            ops.expect(3)?;
            let op = match mnemonic {
                "addi" | "addiu" => ImmOp::Addi,
                "slti" => ImmOp::Slti,
                "sltiu" => ImmOp::Sltiu,
                "andi" => ImmOp::Andi,
                "ori" => ImmOp::Ori,
                _ => ImmOp::Xori,
            };
            let rt = ops.reg(0)?;
            let rs = ops.reg(1)?;
            let (reloc, expr) = ops.val(2)?;
            let v = resolve(expr, symbols, strict, line)?.unwrap_or(0);
            let imm = match reloc {
                Reloc::None => {
                    if op.sign_extends() {
                        check_i16(v, line, "immediate")?
                    } else {
                        check_u16(v, line, "immediate")? as i16
                    }
                }
                Reloc::Lo => {
                    if op.sign_extends() {
                        return Err(err(line, "%lo only valid with logical immediates"));
                    }
                    (v as u32 & 0xffff) as u16 as i16
                }
                Reloc::GpRel => {
                    if op != ImmOp::Addi {
                        return Err(err(line, "%gprel only valid with addi"));
                    }
                    check_i16(v.wrapping_sub(i64::from(GP_INIT)), line, "gp-relative offset")?
                }
                Reloc::Hi => return Err(err(line, "%hi only valid with lui")),
            };
            out.push(Insn::imm(op, rt, rs, imm));
        }

        // --- shifts ---
        "sll" | "srl" | "sra" => {
            ops.expect(3)?;
            let op = match mnemonic {
                "sll" => ShiftOp::Sll,
                "srl" => ShiftOp::Srl,
                _ => ShiftOp::Sra,
            };
            let rd = ops.reg(0)?;
            let rt = ops.reg(1)?;
            let (reloc, expr) = ops.val(2)?;
            if reloc != Reloc::None {
                return Err(err(line, "relocation not allowed on shift amount"));
            }
            let v = resolve(expr, symbols, strict, line)?.unwrap_or(0);
            if !(0..32).contains(&v) {
                return Err(err(line, format!("shift amount {v} out of range")));
            }
            out.push(Insn::Shift { op, rd, rt, shamt: v as u8 });
        }

        "lui" => {
            ops.expect(2)?;
            let rt = ops.reg(0)?;
            let (reloc, expr) = ops.val(1)?;
            let v = resolve(expr, symbols, strict, line)?.unwrap_or(0);
            let imm = match reloc {
                Reloc::Hi => ((v as u32) >> 16) as u16,
                Reloc::None => check_u16(v, line, "lui immediate")?,
                _ => return Err(err(line, "bad relocation on lui")),
            };
            out.push(Insn::Lui { rt, imm });
        }

        // --- memory ---
        "lb" | "lbu" | "lh" | "lhu" | "lw" | "sb" | "sh" | "sw" => {
            ops.expect(2)?;
            let op = match mnemonic {
                "lb" => MemOp::Load(MemWidth::Byte),
                "lbu" => MemOp::Load(MemWidth::ByteUnsigned),
                "lh" => MemOp::Load(MemWidth::Half),
                "lhu" => MemOp::Load(MemWidth::HalfUnsigned),
                "lw" => MemOp::Load(MemWidth::Word),
                "sb" => MemOp::Store(MemWidth::Byte),
                "sh" => MemOp::Store(MemWidth::Half),
                _ => MemOp::Store(MemWidth::Word),
            };
            let rt = ops.reg(0)?;
            match ops.operands.get(1) {
                Some(Operand::Mem { off, base }) => {
                    let v = resolve(off, symbols, strict, line)?.unwrap_or(0);
                    out.push(Insn::Mem {
                        op,
                        rt,
                        base: *base,
                        off: check_i16(v, line, "memory offset")?,
                    });
                }
                Some(Operand::Val(Reloc::None, expr @ Expr::Sym(..))) => {
                    // Bare-symbol addressing: gp-relative when possible,
                    // otherwise materialize the address into $at.
                    let addr = resolve(expr, symbols, strict, line)?;
                    match addr {
                        Some(a) if in_gp_window(a) => {
                            out.push(Insn::Mem {
                                op,
                                rt,
                                base: Reg::GP,
                                off: (a - i64::from(GP_INIT)) as i16,
                            });
                        }
                        Some(a) => {
                            emit_li32(Reg::AT, a as u32, out);
                            out.push(Insn::Mem { op, rt, base: Reg::AT, off: 0 });
                        }
                        None => {
                            emit_li32(Reg::AT, 0, out);
                            out.push(Insn::Mem { op, rt, base: Reg::AT, off: 0 });
                        }
                    }
                }
                other => {
                    return Err(err(line, format!("bad memory operand {other:?}")));
                }
            }
        }

        // --- branches ---
        "beq" | "bne" => {
            ops.expect(3)?;
            let op = if mnemonic == "beq" { BranchOp::Beq } else { BranchOp::Bne };
            let rs = ops.reg(0)?;
            let rt = ops.reg(1)?;
            let off = branch_off(&ops, 2, 0)?;
            out.push(Insn::Branch { op, rs, rt, off });
        }
        "blez" | "bgtz" | "bltz" | "bgez" => {
            ops.expect(2)?;
            let op = match mnemonic {
                "blez" => BranchOp::Blez,
                "bgtz" => BranchOp::Bgtz,
                "bltz" => BranchOp::Bltz,
                _ => BranchOp::Bgez,
            };
            let rs = ops.reg(0)?;
            let off = branch_off(&ops, 1, 0)?;
            out.push(Insn::Branch { op, rs, rt: Reg::ZERO, off });
        }

        // --- jumps ---
        "j" | "jal" => {
            ops.expect(1)?;
            let (reloc, expr) = ops.val(0)?;
            if reloc != Reloc::None {
                return Err(err(line, "relocation not allowed on jump target"));
            }
            let v = resolve(expr, symbols, strict, line)?.unwrap_or(i64::from(abi::TEXT_BASE));
            if v % 4 != 0 || !(0..(1i64 << 28)).contains(&v) {
                return Err(err(line, format!("jump target {v:#x} unencodable")));
            }
            out.push(Insn::Jump { link: mnemonic == "jal", target: (v as u32) >> 2 });
        }
        "jr" => {
            ops.expect(1)?;
            out.push(Insn::Jr { rs: ops.reg(0)? });
        }
        "jalr" => match ops.operands.len() {
            1 => out.push(Insn::Jalr { rd: Reg::RA, rs: ops.reg(0)? }),
            2 => out.push(Insn::Jalr { rd: ops.reg(0)?, rs: ops.reg(1)? }),
            n => return Err(err(line, format!("`jalr` expects 1 or 2 operands, got {n}"))),
        },

        "syscall" => {
            ops.expect(0)?;
            out.push(Insn::Syscall);
        }
        "break" => {
            ops.expect(0)?;
            out.push(Insn::Break);
        }

        // --- pseudo-instructions ---
        "li" => {
            ops.expect(2)?;
            let rd = ops.reg(0)?;
            let (reloc, expr) = ops.val(1)?;
            if reloc != Reloc::None {
                return Err(err(line, "relocation not allowed on li"));
            }
            let v = resolve(expr, symbols, strict, line)?.unwrap_or(0);
            if !(-(1i64 << 31)..(1i64 << 32)).contains(&v) {
                return Err(err(line, format!("li value {v} out of 32-bit range")));
            }
            let u = v as u32;
            if i16::try_from(v).is_ok() {
                out.push(Insn::imm(ImmOp::Addi, rd, Reg::ZERO, v as i16));
            } else if u16::try_from(v).is_ok() {
                out.push(Insn::imm(ImmOp::Ori, rd, Reg::ZERO, v as u16 as i16));
            } else {
                emit_li32(rd, u, out);
            }
        }
        "la" => {
            ops.expect(2)?;
            let rd = ops.reg(0)?;
            let (reloc, expr) = ops.val(1)?;
            if reloc != Reloc::None {
                return Err(err(line, "relocation not allowed on la"));
            }
            match resolve(expr, symbols, strict, line)? {
                Some(a) if in_gp_window(a) => {
                    out.push(Insn::imm(ImmOp::Addi, rd, Reg::GP, (a - i64::from(GP_INIT)) as i16));
                }
                Some(a) => emit_li32(rd, a as u32, out),
                None => emit_li32(rd, 0, out),
            }
        }
        "move" => {
            ops.expect(2)?;
            out.push(Insn::alu(AluOp::Or, ops.reg(0)?, ops.reg(1)?, Reg::ZERO));
        }
        "nop" => {
            ops.expect(0)?;
            out.push(Insn::Shift { op: ShiftOp::Sll, rd: Reg::ZERO, rt: Reg::ZERO, shamt: 0 });
        }
        "not" => {
            ops.expect(2)?;
            out.push(Insn::alu(AluOp::Nor, ops.reg(0)?, ops.reg(1)?, Reg::ZERO));
        }
        "neg" => {
            ops.expect(2)?;
            out.push(Insn::alu(AluOp::Sub, ops.reg(0)?, Reg::ZERO, ops.reg(1)?));
        }
        "b" => {
            ops.expect(1)?;
            let off = branch_off(&ops, 0, 0)?;
            out.push(Insn::Branch { op: BranchOp::Beq, rs: Reg::ZERO, rt: Reg::ZERO, off });
        }
        "beqz" | "bnez" => {
            ops.expect(2)?;
            let op = if mnemonic == "beqz" { BranchOp::Beq } else { BranchOp::Bne };
            let rs = ops.reg(0)?;
            let off = branch_off(&ops, 1, 0)?;
            out.push(Insn::Branch { op, rs, rt: Reg::ZERO, off });
        }
        "blt" | "bge" | "bgt" | "ble" | "bltu" | "bgeu" | "bgtu" | "bleu" => {
            ops.expect(3)?;
            let unsigned = mnemonic.ends_with('u');
            let base = if unsigned { &mnemonic[..3] } else { mnemonic };
            let cmp = if unsigned { AluOp::Sltu } else { AluOp::Slt };
            let rs = ops.reg(0)?;
            let rt = ops.reg(1)?;
            // blt: slt at,rs,rt; bne  |  bge: slt at,rs,rt; beq
            // bgt: slt at,rt,rs; bne  |  ble: slt at,rt,rs; beq
            let (a, b2, branch) = match base {
                "blt" => (rs, rt, BranchOp::Bne),
                "bge" => (rs, rt, BranchOp::Beq),
                "bgt" => (rt, rs, BranchOp::Bne),
                _ => (rt, rs, BranchOp::Beq),
            };
            let off = branch_off(&ops, 2, 1)?;
            out.push(Insn::alu(cmp, Reg::AT, a, b2));
            out.push(Insn::Branch { op: branch, rs: Reg::AT, rt: Reg::ZERO, off });
        }
        "seq" => {
            ops.expect(3)?;
            let rd = ops.reg(0)?;
            out.push(Insn::alu(AluOp::Xor, rd, ops.reg(1)?, ops.reg(2)?));
            out.push(Insn::imm(ImmOp::Sltiu, rd, rd, 1));
        }
        "sne" => {
            ops.expect(3)?;
            let rd = ops.reg(0)?;
            out.push(Insn::alu(AluOp::Xor, rd, ops.reg(1)?, ops.reg(2)?));
            out.push(Insn::alu(AluOp::Sltu, rd, Reg::ZERO, rd));
        }

        other => return Err(err(line, format!("unknown mnemonic `{other}`"))),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn asm(src: &str) -> Image {
        crate::assemble(src).unwrap()
    }

    #[test]
    fn simple_text_layout() {
        let img = asm(".text\nstart: add $t0, $t1, $t2\nnop\nend: jr $ra\n");
        assert_eq!(img.text.len(), 3);
        assert_eq!(img.symbols.get("start"), Some(abi::TEXT_BASE));
        assert_eq!(img.symbols.get("end"), Some(abi::TEXT_BASE + 8));
    }

    #[test]
    fn data_layout_and_alignment() {
        let img = asm(".data\nb: .byte 1\nw: .word 2\ns: .space 5\nz: .byte 3\n");
        // byte at 0, word aligned to 4, space at 8..13, byte at 13.
        assert_eq!(img.symbols.get("b"), Some(abi::DATA_BASE));
        assert_eq!(img.symbols.get("w"), Some(abi::DATA_BASE + 4));
        assert_eq!(img.symbols.get("s"), Some(abi::DATA_BASE + 8));
        assert_eq!(img.symbols.get("z"), Some(abi::DATA_BASE + 13));
        assert_eq!(img.data.len(), 14);
        assert_eq!(img.data[0], 1);
        assert_eq!(&img.data[4..8], &2u32.to_le_bytes());
        assert_eq!(img.data[13], 3);
        // init ranges: [0..1), then [4..8), then [13..14) -- space excluded.
        assert!(img.is_initialized(abi::DATA_BASE));
        assert!(!img.is_initialized(abi::DATA_BASE + 1)); // alignment pad
        assert!(img.is_initialized(abi::DATA_BASE + 4));
        assert!(!img.is_initialized(abi::DATA_BASE + 8)); // .space
        assert!(img.is_initialized(abi::DATA_BASE + 13));
    }

    #[test]
    fn word_with_symbol_refs() {
        let img = asm(".data\nptr: .word msg, msg+4\nmsg: .asciiz \"hello\"\n");
        let msg = img.symbols.get("msg").unwrap();
        assert_eq!(&img.data[0..4], &msg.to_le_bytes());
        assert_eq!(&img.data[4..8], &(msg + 4).to_le_bytes());
        assert_eq!(&img.data[8..14], b"hello\0");
    }

    #[test]
    fn li_expansion_sizes() {
        let img = asm(".text\nli $t0, 5\nli $t1, 0x8000\nli $t2, 0x12345678\nli $t3, -40000\n");
        // addi(1) + ori(1) + lui/ori(2) + lui/ori(2) = 6
        assert_eq!(img.text.len(), 6);
        use instrep_isa::decode;
        assert_eq!(decode(img.text[0]).unwrap(), Insn::imm(ImmOp::Addi, Reg::T0, Reg::ZERO, 5));
        assert_eq!(
            decode(img.text[1]).unwrap(),
            Insn::imm(ImmOp::Ori, Reg::T1, Reg::ZERO, 0x8000u16 as i16)
        );
        assert_eq!(decode(img.text[2]).unwrap(), Insn::Lui { rt: Reg::T2, imm: 0x1234 });
    }

    #[test]
    fn la_uses_gp_window() {
        let img = asm(".data\nx: .word 1\n.text\nla $t0, x\n");
        assert_eq!(img.text.len(), 1);
        let i = instrep_isa::decode(img.text[0]).unwrap();
        assert_eq!(i, Insn::imm(ImmOp::Addi, Reg::T0, Reg::GP, -0x8000));
    }

    #[test]
    fn la_far_data_uses_lui_ori() {
        let img = asm(".data\n.space 70000\nfar: .word 1\n.text\nla $t0, far\n");
        assert_eq!(img.text.len(), 2);
        let addr = img.symbols.get("far").unwrap();
        assert_eq!(
            instrep_isa::decode(img.text[0]).unwrap(),
            Insn::Lui { rt: Reg::T0, imm: (addr >> 16) as u16 }
        );
    }

    #[test]
    fn lw_bare_symbol_forms() {
        let img = asm(".data\nx: .word 7\n.text\nlw $t0, x\n");
        assert_eq!(img.text.len(), 1);
        let i = instrep_isa::decode(img.text[0]).unwrap();
        assert_eq!(
            i,
            Insn::Mem { op: MemOp::Load(MemWidth::Word), rt: Reg::T0, base: Reg::GP, off: -0x8000 }
        );
    }

    #[test]
    fn branch_offsets_and_compound_branches() {
        let img = asm(".text\nloop: addi $t0, $t0, 1\nblt $t0, $t1, loop\nj loop\n");
        assert_eq!(img.text.len(), 4); // addi, slt, bne, j
        let bne = instrep_isa::decode(img.text[2]).unwrap();
        // bne is at index 2; target loop at 0 => offset = 0 - (2+1) = -3.
        assert_eq!(bne, Insn::Branch { op: BranchOp::Bne, rs: Reg::AT, rt: Reg::ZERO, off: -3 });
        let j = instrep_isa::decode(img.text[3]).unwrap();
        assert_eq!(j, Insn::Jump { link: false, target: abi::TEXT_BASE >> 2 });
    }

    #[test]
    fn func_metadata() {
        let img = asm(
            ".text\n.func f, 2\nf: add $v0, $a0, $a1\njr $ra\n.endfunc\n.func g, 0\ng: jr $ra\n.endfunc\n",
        );
        assert_eq!(img.funcs.len(), 2);
        assert_eq!(img.funcs[0].name, "f");
        assert_eq!(img.funcs[0].arity, 2);
        assert_eq!(img.funcs[0].size_insns(), 2);
        assert_eq!(img.funcs[1].entry, abi::TEXT_BASE + 8);
        assert_eq!(img.func_at(abi::TEXT_BASE + 4).unwrap().name, "f");
        assert_eq!(img.func_at(abi::TEXT_BASE + 8).unwrap().name, "g");
    }

    #[test]
    fn entry_is_start_symbol() {
        let img = asm(".text\nnop\n__start: nop\n");
        assert_eq!(img.entry, abi::TEXT_BASE + 4);
    }

    #[test]
    fn errors() {
        assert!(crate::assemble(".text\nbeq $t0, $t1, nowhere\n").is_err());
        assert!(crate::assemble(".text\nx: nop\nx: nop\n").is_err());
        assert!(crate::assemble(".data\nadd $t0, $t0, $t0\n").is_err());
        assert!(crate::assemble(".text\n.word 3\n").is_err());
        assert!(crate::assemble(".text\naddi $t0, $t0, 40000\n").is_err());
        assert!(crate::assemble(".text\n.func f, 1\nnop\n").is_err()); // never closed
        assert!(crate::assemble(".text\n.endfunc\n").is_err());
        assert!(crate::assemble(".text\nsll $t0, $t0, 32\n").is_err());
        assert!(crate::assemble(".text\nli $t0, 0x1_0000_0000\n").is_err());
    }

    #[test]
    fn overflowing_values_do_not_panic() {
        // Each of these overflowed i64 arithmetic, which panics in a
        // debug build. Values and symbol offsets now wrap, as release
        // builds always did, so both builds give these results.
        for (src, ok) in [
            (".text\nla $t0, -9223372036854775807\n", true),
            (".text\nx: lui $t0, %hi(x+9223372036854775807)\n", true),
            (".text\naddi $t0, $gp, %gprel(-9223372036854775807)\n", false),
            (".data\nx: .word x+9223372036854775807\n", false),
            (".text\nx: beq $t0, $t1, x-9223372036854775807\n", false),
            (".data\n.word -0x-8000000000000000\n", false),
        ] {
            assert_eq!(crate::assemble(src).is_ok(), ok, "{src:?}");
        }
    }

    #[test]
    fn data_past_the_stack_region_is_an_error() {
        // Four 1 GiB `.space` directives overflowed the data cursor: a
        // panic in debug builds, an empty data segment in release builds.
        let src = format!(".data\n{}.text\nnop\n", ".space 1073741824\n".repeat(4));
        let e = crate::assemble(&src).unwrap_err();
        assert_eq!((e.line(), e.message()), (3, "data segment runs into the stack region"));
    }

    #[test]
    fn empty_half_aligns_like_layout() {
        // Layout aligns an empty `.half` too, so the bytes after it land
        // at the address their label was given.
        let img = asm(".data\n.byte 1\n.half\nx: .byte 2\n");
        assert_eq!(img.symbols.get("x"), Some(abi::DATA_BASE + 2));
        assert_eq!(img.data, [1, 0, 2]);
    }

    #[test]
    fn sizing_matches_encoding_for_forward_refs() {
        // `la` of a forward text symbol must size to 2 in layout and
        // encode to 2 instructions.
        let img = asm(".text\nla $t0, later\nnop\nlater: jr $ra\n");
        assert_eq!(img.text.len(), 4);
        assert_eq!(img.symbols.get("later"), Some(abi::TEXT_BASE + 12));
        let addr = abi::TEXT_BASE + 12;
        assert_eq!(
            instrep_isa::decode(img.text[0]).unwrap(),
            Insn::Lui { rt: Reg::T0, imm: (addr >> 16) as u16 }
        );
        assert_eq!(
            instrep_isa::decode(img.text[1]).unwrap(),
            Insn::imm(ImmOp::Ori, Reg::T0, Reg::T0, (addr & 0xffff) as i16)
        );
    }

    #[test]
    fn loc_markers_build_line_table() {
        let img = asm(".text\n.loc 3\nnop\nli $t0, 0x12345678\n.loc 7\nnop\n");
        // nop(1) + li expanding to lui/ori(2) at line 3, nop(1) at line 7.
        assert_eq!(img.text.len(), 4);
        assert_eq!(img.lines, vec![3, 3, 3, 7]);
        assert_eq!(img.line_at(0), 3);
        assert_eq!(img.line_at(2), 3);
        assert_eq!(img.line_at(3), 7);
        assert_eq!(img.line_at(99), 0);
    }

    #[test]
    fn text_without_loc_has_unknown_lines() {
        let img = asm(".text\nnop\n.loc 5\nnop\nnop\n");
        // Words before the first `.loc` carry line 0 (unknown).
        assert_eq!(img.lines, vec![0, 5, 5]);
        let bare = asm(".text\nnop\nnop\n");
        assert_eq!(bare.lines, vec![0, 0]);
        assert_eq!(bare.line_at(1), 0);
    }

    #[test]
    fn loc_occupies_no_space_and_rejects_bad_lines() {
        let img = asm(".text\na: .loc 2\nb: nop\n");
        // `.loc` between labels must not shift addresses.
        assert_eq!(img.symbols.get("a"), img.symbols.get("b"));
        assert!(crate::assemble(".text\n.loc -3\nnop\n").is_err());
        assert!(crate::assemble(".text\n.loc nope\nnop\n").is_err());
        // `.loc 0` clears line information.
        let cleared = asm(".text\n.loc 9\nnop\n.loc 0\nnop\n");
        assert_eq!(cleared.lines, vec![9, 0]);
    }

    #[test]
    fn parse_then_layout_rejects_dup_data_symbol() {
        let parsed = parse(".data\na: .word 1\na: .word 2\n").unwrap();
        assert!(layout(parsed).is_err());
    }
}

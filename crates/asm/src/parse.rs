//! The line parser: assembly text to statements that borrow from it.
//!
//! Labels, mnemonics and symbol names are slices of the source text. The
//! operands of every instruction, the values of every `.word`, `.half`
//! and `.byte`, and the bytes of every `.ascii`/`.asciiz` go into buffers
//! shared by the whole file; a statement names its run in them with a
//! [`Span`]. So no line allocates, except to lower-case a mnemonic that
//! has an upper-case letter.

use std::borrow::Cow;

use instrep_isa::Reg;

use crate::error::AsmError;

/// Assembly section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Section {
    Text,
    Data,
}

/// A value expression in a data directive or immediate position:
/// a constant, or a symbol plus constant offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Expr<'a> {
    Imm(i64),
    Sym(&'a str, i64),
}

/// A relocation operator applied to a symbol expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reloc {
    /// Full 32-bit value (only valid where a 32-bit field exists).
    None,
    /// Upper 16 bits (`%hi`), paired with `%lo` via `ori`.
    Hi,
    /// Lower 16 bits (`%lo`), zero-extended semantics.
    Lo,
    /// Offset from the global pointer (`%gprel`).
    GpRel,
}

/// One instruction operand as parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Operand<'a> {
    Reg(Reg),
    /// Immediate or symbolic value with an optional relocation operator.
    Val(Reloc, Expr<'a>),
    /// `off(base)` memory reference.
    Mem {
        off: Expr<'a>,
        base: Reg,
    },
}

/// A run of entries in one of a [`Parsed`] file's shared buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    start: usize,
    end: usize,
}

impl Span {
    /// The span from `start` to the end of `buf`.
    fn to_end<T>(start: usize, buf: &[T]) -> Span {
        Span { start, end: buf.len() }
    }

    /// Number of entries in the run.
    pub(crate) fn len(self) -> usize {
        self.end - self.start
    }

    /// The run's entries in `buf`.
    pub(crate) fn of<T>(self, buf: &[T]) -> &[T] {
        &buf[self.start..self.end]
    }
}

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Stmt<'a> {
    Label(&'a str),
    Section(Section),
    /// `.word`, `.half` or `.byte` (`width` 4, 2 or 1): a run of
    /// [`Parsed::values`]; those of `.half` and `.byte` are all `Imm`.
    Values {
        width: u32,
        values: Span,
    },
    /// `.ascii`, or `.asciiz` with its terminating zero: a run of
    /// [`Parsed::bytes`].
    Ascii(Span),
    Space(u32),
    Align(u32),
    Func {
        name: &'a str,
        arity: u8,
    },
    EndFunc,
    /// `.loc N`: subsequent instructions originate from source line `N`.
    Loc(u32),
    /// An instruction: its lower-cased mnemonic and a run of
    /// [`Parsed::operands`].
    Insn {
        mnemonic: Cow<'a, str>,
        operands: Span,
    },
}

/// A statement with its source line for error reporting.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Item<'a> {
    pub line: u32,
    pub stmt: Stmt<'a>,
}

/// A parsed source file: its statements in source order and the shared
/// buffers their spans index.
#[derive(Debug, Default)]
pub(crate) struct Parsed<'a> {
    pub items: Vec<Item<'a>>,
    /// Every instruction's operands, end to end.
    pub operands: Vec<Operand<'a>>,
    /// Every `.word`, `.half` and `.byte` value, end to end.
    pub values: Vec<Expr<'a>>,
    /// Every `.ascii`/`.asciiz` string, end to end.
    pub bytes: Vec<u8>,
}

fn err(line: u32, msg: impl Into<String>) -> AsmError {
    AsmError::new(line, msg)
}

/// Byte offset of the first comma in `s` outside quotes and parentheses.
/// Every byte it matches is ASCII, so the offset is a char boundary.
fn top_level_comma(s: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    // Before the first quote or parenthesis, a comma is top-level.
    let start = bytes.iter().position(|&b| matches!(b, b',' | b'(' | b'"' | b'\''))?;
    if bytes[start] == b',' {
        return Some(start);
    }
    let mut depth = 0usize;
    let mut in_str = false;
    let mut in_char = false;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate().skip(start) {
        if escaped {
            escaped = false;
            continue;
        }
        match b {
            b'\\' if in_str || in_char => escaped = true,
            b'"' if !in_char => in_str = !in_str,
            b'\'' if !in_str => in_char = !in_char,
            b'(' if !in_str && !in_char => depth += 1,
            b')' if !in_str && !in_char => depth = depth.saturating_sub(1),
            b',' if !in_str && !in_char && depth == 0 => return Some(i),
            _ => {}
        }
    }
    None
}

/// The top-level comma-separated fields of a statement body, each
/// trimmed (quotes and parentheses protect commas inside them). A body
/// that is empty or all whitespace has no fields.
fn fields(body: &str) -> impl Iterator<Item = &str> {
    let mut rest = (!body.trim().is_empty()).then_some(body);
    std::iter::from_fn(move || {
        let s = rest?;
        Some(match top_level_comma(s) {
            Some(i) => {
                rest = Some(&s[i + 1..]);
                s[..i].trim()
            }
            None => {
                rest = None;
                s.trim()
            }
        })
    })
}

/// Strips `#` / `//` comments outside string and character literals.
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    // Before the first quote or comment marker there is nothing to track.
    let Some(start) = bytes.iter().position(|&b| matches!(b, b'#' | b'/' | b'"' | b'\'')) else {
        return line;
    };
    let mut in_str = false;
    let mut in_char = false;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate().skip(start) {
        if escaped {
            escaped = false;
            continue;
        }
        match b {
            b'\\' if in_str || in_char => escaped = true,
            b'"' if !in_char => in_str = !in_str,
            b'\'' if !in_str => in_char = !in_char,
            b'#' if !in_str && !in_char => return &line[..i],
            b'/' if !in_str && !in_char && bytes.get(i + 1) == Some(&b'/') => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Whether `s` is a symbol name: a letter, `_` or `.`, then letters,
/// digits, `_`, `.` or `$`.
fn is_ident(s: &str) -> bool {
    match s.as_bytes() {
        [first, rest @ ..] => {
            (first.is_ascii_alphabetic() || matches!(first, b'_' | b'.'))
                && rest.iter().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'$'))
        }
        [] => false,
    }
}

/// Splits a leading `name:` label off a trimmed line: the name, and the
/// trimmed rest of the line after the colon.
fn split_label(s: &str) -> Option<(&str, &str)> {
    let colon = s.find(':')?;
    let name = s[..colon].trim();
    is_ident(name).then(|| (name, s[colon + 1..].trim()))
}

/// Parses an integer literal: decimal, `0x` hex, `0b` binary, `'c'` char,
/// with optional leading `-`.
pub(crate) fn parse_int(s: &str, line: u32) -> Result<i64, AsmError> {
    let s = s.trim();
    let (neg, body) = match s.strip_prefix('-') {
        Some(rest) => (true, rest.trim()),
        None => (false, s),
    };
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16).map_err(|_| err(line, format!("bad hex literal `{s}`")))?
    } else if let Some(bin) = body.strip_prefix("0b").or_else(|| body.strip_prefix("0B")) {
        i64::from_str_radix(bin, 2).map_err(|_| err(line, format!("bad binary literal `{s}`")))?
    } else if body.starts_with('\'') {
        let inner = body
            .strip_prefix('\'')
            .and_then(|b| b.strip_suffix('\''))
            .ok_or_else(|| err(line, format!("bad char literal `{s}`")))?;
        let (mut n, mut first) = (0usize, 0u8);
        unescape(inner, line, |b| {
            if n == 0 {
                first = b;
            }
            n += 1;
        })?;
        if n != 1 {
            return Err(err(line, format!("char literal `{s}` must be one byte")));
        }
        i64::from(first)
    } else {
        body.parse::<i64>().map_err(|_| err(line, format!("bad integer literal `{s}`")))?
    };
    // A body with its own sign can be `i64::MIN` (`-0x-8000000000000000`).
    Ok(if neg { v.wrapping_neg() } else { v })
}

/// Parses `sym`, `sym+N`, `sym-N`, or a bare integer into an [`Expr`].
fn parse_expr(s: &str, line: u32) -> Result<Expr<'_>, AsmError> {
    let s = s.trim();
    let Some(&first) = s.as_bytes().first() else {
        return Err(err(line, "empty expression"));
    };
    if first.is_ascii_digit() || first == b'-' || first == b'\'' {
        return Ok(Expr::Imm(parse_int(s, line)?));
    }
    // Symbol with optional +/- offset.
    if let Some(pos) = s.bytes().position(|b| b == b'+' || b == b'-') {
        let (name, off) = s.split_at(pos);
        let name = name.trim();
        if !is_ident(name) {
            return Err(err(line, format!("bad symbol `{name}`")));
        }
        return Ok(Expr::Sym(name, parse_int(off, line)?));
    }
    if !is_ident(s) {
        return Err(err(line, format!("bad symbol `{s}`")));
    }
    Ok(Expr::Sym(s, 0))
}

fn parse_reg(s: &str, line: u32) -> Result<Reg, AsmError> {
    s.parse::<Reg>().map_err(|e| err(line, e.to_string()))
}

/// Parses one instruction operand.
fn parse_operand(s: &str, line: u32) -> Result<Operand<'_>, AsmError> {
    let s = s.trim();
    if s.is_empty() {
        return Err(err(line, "empty operand"));
    }
    if s.starts_with('$') {
        return Ok(Operand::Reg(parse_reg(s, line)?));
    }
    // Relocation operators.
    for (prefix, reloc) in [("%hi(", Reloc::Hi), ("%lo(", Reloc::Lo), ("%gprel(", Reloc::GpRel)] {
        if let Some(rest) = s.strip_prefix(prefix) {
            let inner =
                rest.strip_suffix(')').ok_or_else(|| err(line, format!("missing `)` in `{s}`")))?;
            return Ok(Operand::Val(reloc, parse_expr(inner, line)?));
        }
    }
    // off(base) memory reference.
    if let Some(open) = s.find('(') {
        if let Some(inside) = s.strip_suffix(')') {
            let off_str = s[..open].trim();
            let off = if off_str.is_empty() { Expr::Imm(0) } else { parse_expr(off_str, line)? };
            let base = parse_reg(inside[open + 1..].trim(), line)?;
            return Ok(Operand::Mem { off, base });
        }
    }
    Ok(Operand::Val(Reloc::None, parse_expr(s, line)?))
}

/// Decodes the escapes in a string/char literal body, passing each byte
/// to `push`.
fn unescape(s: &str, line: u32, mut push: impl FnMut(u8)) -> Result<(), AsmError> {
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            c.encode_utf8(&mut [0; 4]).bytes().for_each(&mut push);
            continue;
        }
        let esc = chars.next().ok_or_else(|| err(line, "dangling escape"))?;
        push(match esc {
            'n' => b'\n',
            't' => b'\t',
            'r' => b'\r',
            '0' => 0,
            '\\' => b'\\',
            '\'' => b'\'',
            '"' => b'"',
            other => return Err(err(line, format!("unknown escape `\\{other}`"))),
        });
    }
    Ok(())
}

/// Appends the bytes of the string literal `s` to `out`.
fn parse_string_literal(s: &str, line: u32, out: &mut Vec<u8>) -> Result<(), AsmError> {
    let inner = s
        .trim()
        .strip_prefix('"')
        .and_then(|b| b.strip_suffix('"'))
        .ok_or_else(|| err(line, format!("expected string literal, got `{s}`")))?;
    unescape(inner, line, |b| out.push(b))
}

fn parse_directive<'a>(
    dir: &str,
    body: &'a str,
    line: u32,
    p: &mut Parsed<'a>,
) -> Result<Option<Stmt<'a>>, AsmError> {
    let stmt = match dir {
        ".text" => Stmt::Section(Section::Text),
        ".data" => Stmt::Section(Section::Data),
        ".word" | ".half" | ".byte" => {
            let width = match dir {
                ".word" => 4,
                ".half" => 2,
                _ => 1,
            };
            let start = p.values.len();
            for field in fields(body) {
                // Only words may name a symbol.
                p.values.push(if width == 4 {
                    parse_expr(field, line)?
                } else {
                    Expr::Imm(parse_int(field, line)?)
                });
            }
            Stmt::Values { width, values: Span::to_end(start, &p.values) }
        }
        ".ascii" | ".asciiz" => {
            let start = p.bytes.len();
            parse_string_literal(body, line, &mut p.bytes)?;
            if dir == ".asciiz" {
                p.bytes.push(0);
            }
            Stmt::Ascii(Span::to_end(start, &p.bytes))
        }
        ".space" => {
            let n = parse_int(body, line)?;
            if !(0..=(1 << 30)).contains(&n) {
                return Err(err(line, format!(".space size {n} out of range")));
            }
            Stmt::Space(n as u32)
        }
        ".align" => {
            let n = parse_int(body, line)?;
            if !(0..=16).contains(&n) {
                return Err(err(line, format!(".align {n} out of range")));
            }
            Stmt::Align(n as u32)
        }
        ".globl" | ".global" | ".ent" | ".end" | ".set" => return Ok(None), // accepted, ignored
        ".func" => {
            let mut parts = fields(body);
            let (Some(name), Some(arity), None) = (parts.next(), parts.next(), parts.next()) else {
                return Err(err(line, ".func expects `name, arity`"));
            };
            if !is_ident(name) {
                return Err(err(line, format!("bad function name `{name}`")));
            }
            let arity = parse_int(arity, line)?;
            if !(0..=16).contains(&arity) {
                return Err(err(line, format!("arity {arity} out of range")));
            }
            Stmt::Func { name, arity: arity as u8 }
        }
        ".endfunc" => Stmt::EndFunc,
        ".loc" => {
            // `.loc 0` explicitly clears line information (e.g. before
            // hand-written runtime code appended to compiler output).
            let n = parse_int(body, line)?;
            if !(0..=i64::from(u32::MAX)).contains(&n) {
                return Err(err(line, format!(".loc line {n} out of range")));
            }
            Stmt::Loc(n as u32)
        }
        other => return Err(err(line, format!("unknown directive `{other}`"))),
    };
    Ok(Some(stmt))
}

/// Parses source text into its statements.
pub(crate) fn parse(src: &str) -> Result<Parsed<'_>, AsmError> {
    let mut p = Parsed::default();
    for (idx, raw) in src.lines().enumerate() {
        let line = (idx + 1) as u32;
        let mut rest = strip_comment(raw).trim();
        // Leading labels.
        while let Some((label, tail)) = split_label(rest) {
            p.items.push(Item { line, stmt: Stmt::Label(label) });
            rest = tail;
        }
        if rest.is_empty() {
            continue;
        }
        let (head, body) = match rest.find(char::is_whitespace) {
            Some(pos) => (&rest[..pos], rest[pos..].trim()),
            None => (rest, ""),
        };
        let stmt = if head.starts_with('.') {
            match parse_directive(head, body, line, &mut p)? {
                Some(stmt) => stmt,
                None => continue,
            }
        } else {
            let start = p.operands.len();
            for field in fields(body) {
                p.operands.push(parse_operand(field, line)?);
            }
            let mnemonic = if head.bytes().any(|b| b.is_ascii_uppercase()) {
                Cow::Owned(head.to_ascii_lowercase())
            } else {
                Cow::Borrowed(head)
            };
            Stmt::Insn { mnemonic, operands: Span::to_end(start, &p.operands) }
        };
        p.items.push(Item { line, stmt });
    }
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The operands of the instruction at `items[i]`.
    fn operands<'p>(p: &'p Parsed<'_>, i: usize) -> &'p [Operand<'p>] {
        match &p.items[i].stmt {
            Stmt::Insn { operands, .. } => operands.of(&p.operands),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn labels_and_comments() {
        let p = parse("a: b: add $v0, $a0, $a1 # sum\n// whole-line\n").unwrap();
        assert_eq!(p.items.len(), 3);
        assert_eq!(p.items[0].stmt, Stmt::Label("a"));
        assert_eq!(p.items[1].stmt, Stmt::Label("b"));
        assert_eq!(
            p.items[2].stmt,
            Stmt::Insn { mnemonic: Cow::Borrowed("add"), operands: Span { start: 0, end: 3 } }
        );
        assert_eq!(operands(&p, 2), [Reg::V0, Reg::A0, Reg::A1].map(Operand::Reg));
    }

    #[test]
    fn mnemonics_are_lower_cased() {
        let p = parse("ADD $v0, $a0, $a1\nNop\nnop").unwrap();
        let mnemonics: Vec<_> = p
            .items
            .iter()
            .map(|item| match &item.stmt {
                Stmt::Insn { mnemonic, .. } => mnemonic.clone(),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(mnemonics, ["add", "nop", "nop"]);
        assert!(matches!(mnemonics[2], Cow::Borrowed(_)), "a lower-case mnemonic is borrowed");
    }

    #[test]
    fn directives() {
        let src = r#"
            .data
            .word 1, -2, 0x10, sym, sym+8
            .byte 'a', '\n', 255
            .half 1000
            .asciiz "hi\0\\"
            .space 16
            .align 2
            .globl main
        "#;
        let p = parse(src).unwrap();
        let stmts: Vec<_> = p.items.iter().map(|i| &i.stmt).collect();
        assert_eq!(stmts[0], &Stmt::Section(Section::Data));
        assert_eq!(stmts[1], &Stmt::Values { width: 4, values: Span { start: 0, end: 5 } });
        assert_eq!(stmts[2], &Stmt::Values { width: 1, values: Span { start: 5, end: 8 } });
        assert_eq!(stmts[3], &Stmt::Values { width: 2, values: Span { start: 8, end: 9 } });
        assert_eq!(
            p.values,
            [
                Expr::Imm(1),
                Expr::Imm(-2),
                Expr::Imm(16),
                Expr::Sym("sym", 0),
                Expr::Sym("sym", 8),
                Expr::Imm(i64::from(b'a')),
                Expr::Imm(10),
                Expr::Imm(255),
                Expr::Imm(1000),
            ]
        );
        assert_eq!(stmts[4], &Stmt::Ascii(Span { start: 0, end: 5 }));
        assert_eq!(p.bytes, [b'h', b'i', 0, b'\\', 0]);
        assert_eq!(stmts[5], &Stmt::Space(16));
        assert_eq!(stmts[6], &Stmt::Align(2));
        assert_eq!(stmts.len(), 7); // .globl dropped
    }

    #[test]
    fn operand_forms() {
        let p = parse("lw $t0, -8($sp)\nlui $t1, %hi(tab)\naddi $t2, $gp, %gprel(x)").unwrap();
        assert_eq!(
            operands(&p, 0),
            [Operand::Reg(Reg::T0), Operand::Mem { off: Expr::Imm(-8), base: Reg::SP }]
        );
        assert_eq!(operands(&p, 1)[1], Operand::Val(Reloc::Hi, Expr::Sym("tab", 0)));
        assert_eq!(operands(&p, 2)[2], Operand::Val(Reloc::GpRel, Expr::Sym("x", 0)));
    }

    #[test]
    fn func_directives() {
        let p = parse(".func foo, 3\n.endfunc").unwrap();
        assert_eq!(p.items[0].stmt, Stmt::Func { name: "foo", arity: 3 });
        assert_eq!(p.items[1].stmt, Stmt::EndFunc);
        assert!(parse(".func foo").is_err());
        assert!(parse(".func foo, 3, 4").is_err());
        assert!(parse(".func foo, 99").is_err());
    }

    #[test]
    fn error_cases() {
        assert!(parse("lw $t0, (").is_err());
        assert!(parse("add $bogus, $a0, $a1").is_err());
        assert!(parse(".word 0x").is_err());
        assert!(parse(".wat 3").is_err());
        assert!(parse(".asciiz nope").is_err());
        let e = parse("\n\nadd $t0, $zz, $t1").unwrap_err();
        assert_eq!(e.line(), 3);
    }

    #[test]
    fn char_and_negative_ints() {
        assert_eq!(parse_int("'A'", 1).unwrap(), 65);
        assert_eq!(parse_int("'\\n'", 1).unwrap(), 10);
        assert_eq!(parse_int("-0x10", 1).unwrap(), -16);
        assert_eq!(parse_int("0b101", 1).unwrap(), 5);
        assert!(parse_int("''", 1).is_err());
        assert!(parse_int("'ab'", 1).is_err());
        assert_eq!(parse_int("-0x-8000000000000000", 1).unwrap(), i64::MIN);
    }

    #[test]
    fn commas_in_strings_protected() {
        let p = parse(r#".asciiz "a,b""#).unwrap();
        assert_eq!(p.items[0].stmt, Stmt::Ascii(Span { start: 0, end: 4 }));
        assert_eq!(p.bytes, [b'a', b',', b'b', 0]);
    }

    #[test]
    fn fields_split_at_top_level_commas() {
        let split = |s| fields(s).collect::<Vec<_>>();
        assert_eq!(split(""), [""; 0]);
        assert_eq!(split("  "), [""; 0]);
        assert_eq!(split("a"), ["a"]);
        assert_eq!(split(" a , b(c, d) ,'x,' "), ["a", "b(c, d)", "'x,'"]);
        assert_eq!(split("a,,"), ["a", "", ""]);
    }
}

//! Disassembly listings for assembled images.
//!
//! The inverse companion to [`crate::assemble`]: renders an [`Image`]'s
//! text segment as annotated assembly, resolving function entries and
//! labels from the image's metadata. Per-instruction text comes from
//! [`instrep_isa::Insn`]'s `Display`, which the assembler accepts back
//! verbatim (see the `roundtrip` property test).

use std::fmt::Write as _;

use instrep_isa::abi::TEXT_BASE;
use instrep_isa::{decode, Insn};

use crate::image::Image;

/// Renders one instruction with pc-relative targets resolved to absolute
/// addresses in a trailing comment.
fn render_insn(pc: u32, insn: &Insn) -> String {
    match insn {
        Insn::Branch { off, .. } => {
            let target = pc.wrapping_add(4).wrapping_add((*off as i32 as u32) << 2);
            format!("{insn:<32}# -> {target:#010x}")
        }
        _ => insn.to_string(),
    }
}

/// Disassembles the instructions in `[start, end)` (absolute addresses).
///
/// Undecodable words render as `.word 0x...` so the listing is total.
///
/// # Examples
///
/// ```
/// use instrep_asm::{assemble, disassemble_range};
/// use instrep_isa::abi::TEXT_BASE;
///
/// let image = assemble(".text\n__start: addi $t0, $zero, 5\njr $ra\n")?;
/// let listing = disassemble_range(&image, TEXT_BASE, image.text_end());
/// assert!(listing.contains("addi $t0, $zero, 5"));
/// assert!(listing.contains("__start"));
/// # Ok::<(), instrep_asm::AsmError>(())
/// ```
pub fn disassemble_range(image: &Image, start: u32, end: u32) -> String {
    let mut out = String::new();
    let mut pc = start.max(TEXT_BASE) & !3;
    let end = end.min(image.text_end());
    while pc < end {
        let index = ((pc - TEXT_BASE) / 4) as usize;
        // Function headers and plain labels.
        if let Some(f) = image.funcs.iter().find(|f| f.entry == pc) {
            let _ =
                writeln!(out, "\n{}:    # .func arity={} size={}", f.name, f.arity, f.size_insns());
        } else if let Some(name) = image.symbols.name_at(pc) {
            let _ = writeln!(out, "{name}:");
        }
        let word = image.text[index];
        match decode(word) {
            Ok(insn) => {
                let _ = writeln!(out, "  {pc:#010x}:  {}", render_insn(pc, &insn));
            }
            Err(_) => {
                let _ = writeln!(out, "  {pc:#010x}:  .word {word:#010x}");
            }
        }
        pc += 4;
    }
    out
}

/// Disassembles the whole text segment.
///
/// # Examples
///
/// ```
/// use instrep_asm::{assemble, disassemble};
///
/// let image = assemble(".text\n.func f, 0\nf: jr $ra\n.endfunc\n")?;
/// let listing = disassemble(&image);
/// assert!(listing.contains("f:"));
/// assert!(listing.contains("jr $ra"));
/// # Ok::<(), instrep_asm::AsmError>(())
/// ```
pub fn disassemble(image: &Image) -> String {
    disassemble_range(image, TEXT_BASE, image.text_end())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assemble;

    #[test]
    fn listing_contains_every_instruction() {
        let image = assemble(
            r#"
            .text
            .func f, 1
            f:  addi $v0, $a0, 1
                jr $ra
            .endfunc
            __start:
                li $a0, 3
                jal f
                li $v0, 0
                syscall
            "#,
        )
        .unwrap();
        let listing = disassemble(&image);
        let lines: Vec<&str> = listing.lines().filter(|l| l.contains("0x00")).collect();
        assert_eq!(lines.len(), image.text.len());
        assert!(listing.contains("f:"));
        assert!(listing.contains("__start:"));
        assert!(listing.contains("arity=1"));
        assert!(listing.contains("syscall"));
    }

    #[test]
    fn branch_targets_annotated() {
        let image = assemble(".text\nloop: addi $t0, $t0, 1\nbne $t0, $t1, loop\n").unwrap();
        let listing = disassemble(&image);
        assert!(listing.contains("# -> 0x00400000"), "{listing}");
    }

    #[test]
    fn shared_addresses_print_the_first_label() {
        // Each assembly builds a fresh symbol table; a table that yielded
        // its labels in hash order would name these addresses differently
        // from one table to the next.
        let src = ".text\nfirst: second: third:\nnop\nfourth: fifth: jr $ra\nsixth:\n";
        for _ in 0..16 {
            let listing = disassemble(&assemble(src).unwrap());
            let labels: Vec<&str> = listing.lines().filter(|l| l.ends_with(':')).collect();
            assert_eq!(labels, ["first:", "fourth:"], "{listing}");
        }
    }

    #[test]
    fn range_clamps() {
        let image = assemble(".text\nnop\nnop\nnop\n").unwrap();
        let all = disassemble_range(&image, 0, u32::MAX);
        assert_eq!(all.lines().count(), 3);
        let one = disassemble_range(
            &image,
            instrep_isa::abi::TEXT_BASE + 4,
            instrep_isa::abi::TEXT_BASE + 8,
        );
        assert_eq!(one.lines().count(), 1);
    }
}

#![warn(missing_docs)]
//! Assembler for the SRV32 ISA.
//!
//! Translates assembly text into an executable [`Image`] ready for the
//! simulator. The assembler works in three phases: parse (line by line,
//! with labels and directives, in place: statements borrow their names
//! from the source text), layout (assign addresses to data and text
//! items; pseudo-instruction expansion sizes are decided here), and encode
//! (resolve symbols and emit binary instruction words).
//!
//! # Syntax
//!
//! * Sections: `.text`, `.data`.
//! * Labels: `name:` at line start; multiple labels per address allowed.
//! * Data directives: `.word`, `.half`, `.byte`, `.ascii`, `.asciiz`,
//!   `.space N`, `.align N`, `.globl name` (accepted, no-op).
//! * Function metadata: `.func name, arity` / `.endfunc` bracket a
//!   function's instructions; the bounds, name, and arity are recorded in
//!   [`Image::funcs`] for the repetition analyses.
//! * Line provenance: `.loc N` marks subsequent instructions as compiled
//!   from source line `N` (`.loc 0` clears the marker); the per-word
//!   table lands in [`Image::lines`] for source-level profiling.
//!   Occupies no space.
//! * Native instructions use the mnemonics of [`instrep_isa`].
//! * Pseudo-instructions: `li`, `la`, `move`, `nop`, `not`, `neg`, `b`,
//!   `beqz`, `bnez`, `blt`, `ble`, `bgt`, `bge` (+ unsigned `u` forms),
//!   `seq`, `sne`, and label-addressed `lw`/`sw` etc.
//! * `%hi(sym)`, `%lo(sym)`, and `%gprel(sym)` relocation operators in
//!   immediate positions.
//!
//! # Examples
//!
//! ```
//! use instrep_asm::assemble;
//!
//! let image = assemble(r#"
//!     .data
//! answer: .word 42
//!     .text
//!     .globl __start
//! __start:
//!     lw   $a0, answer
//!     li   $v0, 0          # exit
//!     syscall
//! "#)?;
//! assert_eq!(image.text.len(), 3);
//! # Ok::<(), instrep_asm::AsmError>(())
//! ```

mod disasm;
mod error;
mod image;
mod layout;
mod parse;

pub use disasm::{disassemble, disassemble_range};
pub use error::AsmError;
pub use image::{FuncMeta, Image, SymbolTable};

use instrep_isa::abi;

/// Assembles a source program into an executable image.
///
/// The entry point is the `__start` symbol if defined, otherwise the first
/// text instruction.
///
/// # Errors
///
/// Returns [`AsmError`] (with a line number) for syntax errors, unknown
/// mnemonics or directives, undefined or duplicate symbols, and
/// out-of-range immediates or branch offsets.
pub fn assemble(src: &str) -> Result<Image, AsmError> {
    let parsed = parse::parse(src)?;
    let laid = layout::layout(parsed)?;
    let mut image = layout::encode(laid)?;
    image.entry = image.symbols.get("__start").unwrap_or(abi::TEXT_BASE);
    Ok(image)
}

#![warn(missing_docs)]
//! Functional simulator for SRV32 executables.
//!
//! [`Machine`] loads an [`instrep_asm::Image`], pre-decodes the text
//! segment, and interprets instructions one at a time. Every retired
//! instruction produces an [`Event`] describing its operand values,
//! result, memory effect, and control effect — the raw material for the
//! repetition analyses in `instrep-core`.
//!
//! The simulator is *functional* (no timing): it models architectural
//! state only, exactly like the `sim-safe` SimpleScalar simulator used by
//! the paper this repository reproduces.
//!
//! # Examples
//!
//! ```
//! use instrep_asm::assemble;
//! use instrep_sim::{Machine, RunOutcome};
//!
//! let image = assemble(r#"
//!     .text
//! __start:
//!     li   $a0, 6
//!     li   $a1, 7
//!     mul  $a0, $a0, $a1
//!     li   $v0, 0          # exit(42)
//!     syscall
//! "#)?;
//! let mut m = Machine::new(&image);
//! let outcome = m.run(1_000, |_ev| {})?;
//! assert_eq!(outcome, RunOutcome::Exited(42));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod error;
mod event;
mod machine;
mod mem;
mod predecode;
mod trace;

pub use error::SimError;
pub use event::{CtrlEffect, Event, MemEffect};
pub use machine::{Machine, MachineFootprint, RunOutcome};
pub use mem::{Memory, PageTable};
pub use predecode::InterpTier;
pub use trace::{RecordError, Trace};

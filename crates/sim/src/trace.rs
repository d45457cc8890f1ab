//! Event-trace recording and replay.
//!
//! Many experiments replay the *same* execution through several analysis
//! configurations (reuse-buffer geometries, tracker caps, predictor
//! variants). [`Trace::record`] captures one run's event stream, and
//! [`Trace::events`] hands it to any observer without re-simulating,
//! guaranteeing every configuration sees an identical instruction stream.

use std::fmt;

use crate::error::SimError;
use crate::event::Event;
use crate::machine::{Machine, RunOutcome};

/// A trap during [`Trace::record`], carrying everything retired before
/// the trap so partial executions remain analyzable (e.g. replaying the
/// prefix of a buggy workload through the analyses).
#[derive(Debug, Clone)]
pub struct RecordError {
    /// The recorded prefix: every event retired before the trap.
    pub partial: Trace,
    /// The trap that ended recording.
    pub trap: SimError,
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} after {} recorded events", self.trap, self.partial.len())
    }
}

impl std::error::Error for RecordError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.trap)
    }
}

/// A recorded event stream.
///
/// # Examples
///
/// ```
/// use instrep_asm::assemble;
/// use instrep_sim::{Machine, Trace};
///
/// let image = assemble(r#"
///     .text
/// __start:
///     li $t0, 3
///     li $a0, 0
///     li $v0, 0
///     syscall
/// "#)?;
/// let mut m = Machine::new(&image);
/// let trace = Trace::record(&mut m, 1_000)?;
/// assert_eq!(trace.len(), 4);
/// let outs = trace.events().iter().filter(|ev| ev.out.is_some()).count();
/// assert_eq!(outs, 3); // syscall (exit) produces no register result
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<Event>,
    outcome: Option<RunOutcome>,
}

impl Trace {
    /// Records up to `max_insns` events from `machine`.
    ///
    /// # Errors
    ///
    /// Propagates simulator traps as a [`RecordError`]; events retired
    /// before the trap are kept in its `partial` trace.
    pub fn record(machine: &mut Machine, max_insns: u64) -> Result<Trace, RecordError> {
        let mut events = Vec::new();
        match machine.run(max_insns, |ev| events.push(*ev)) {
            Ok(outcome) => Ok(Trace { events, outcome: Some(outcome) }),
            Err(trap) => Err(RecordError { partial: Trace { events, outcome: None }, trap }),
        }
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// How the recorded run ended, if recorded via [`Trace::record`].
    pub fn outcome(&self) -> Option<RunOutcome> {
        self.outcome
    }

    /// The recorded events.
    pub fn events(&self) -> &[Event] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instrep_asm::assemble;

    fn machine() -> Machine {
        let image = assemble(
            r#"
            .text
            __start:
                li   $t0, 0
                li   $t1, 50
            loop:
                addi $t0, $t0, 1
                blt  $t0, $t1, loop
                li   $a0, 0
                li   $v0, 0
                syscall
            "#,
        )
        .unwrap();
        Machine::new(&image)
    }

    #[test]
    fn record_and_replay_are_identical() {
        let mut m = machine();
        let trace = Trace::record(&mut m, 1_000_000).unwrap();
        assert_eq!(trace.outcome(), Some(RunOutcome::Exited(0)));
        assert!(!trace.is_empty());

        // The recorded stream matches a fresh simulation.
        let a: Vec<_> = trace.events().iter().map(|ev| (ev.pc, ev.in1, ev.outcome())).collect();
        assert_eq!(a.len(), trace.len());
        let mut m2 = machine();
        let mut c = Vec::new();
        m2.run(1_000_000, |ev| c.push((ev.pc, ev.in1, ev.outcome()))).unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn budget_truncation_is_recorded() {
        let mut m = machine();
        let trace = Trace::record(&mut m, 10).unwrap();
        assert_eq!(trace.len(), 10);
        assert_eq!(trace.outcome(), Some(RunOutcome::MaxedOut));
    }

    #[test]
    fn trap_keeps_retired_prefix() {
        // Three instructions retire, then a division by zero traps.
        let src = r#"
            .text
            __start:
                li   $t0, 6
                li   $t1, 2
                add  $t2, $t0, $t1
                div  $t3, $t0, $zero
            "#;
        let image = assemble(src).unwrap();
        let err = Trace::record(&mut Machine::new(&image), 1_000).unwrap_err();
        assert!(matches!(err.trap, SimError::DivideByZero { .. }));
        assert_eq!(err.partial.len(), 3);
        assert_eq!(err.partial.outcome(), None);
        assert!(err.to_string().contains("3 recorded events"));

        // The partial trace matches a fresh run cut at the trap point.
        let mut fresh = Machine::new(&assemble(src).unwrap());
        let mut direct = Vec::new();
        for _ in 0..3 {
            let ev = fresh.step().unwrap();
            direct.push((ev.pc, ev.in1, ev.in2, ev.outcome()));
        }
        assert!(fresh.step().is_err());
        let events = err.partial.events().iter();
        let recorded: Vec<_> = events.map(|ev| (ev.pc, ev.in1, ev.in2, ev.outcome())).collect();
        assert_eq!(recorded, direct);
    }
}

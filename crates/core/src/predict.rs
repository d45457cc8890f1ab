//! Value predictors — the value-prediction comparison points for the
//! paper's §7 discussion.
//!
//! Where the reuse buffer (Table 10) requires the *inputs* to match
//! before supplying a result non-speculatively, a last-value predictor
//! (Lipasti & Shen) speculates that an instruction will produce the same
//! *output* as its previous instance, inputs unseen; a two-delta stride
//! predictor (Wang & Franklin's hybrid component) extends that to
//! arithmetic sequences. Comparing their hit rates on the same trace
//! quantifies the paper's point that repetition characteristics should
//! inform both mechanisms.
//!
//! Both predictors key on the same per-static-instruction slot, so they
//! share one dense table ([`ValuePredictors`]): one index computation
//! and one cache line per event instead of two of each.

use instrep_sim::Event;

/// Statistics from the last-value predictor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictStats {
    /// Instructions with a register result observed.
    pub predictable: u64,
    /// Correct last-value predictions.
    pub correct: u64,
    /// Correct predictions whose instruction the tracker also classified
    /// repeated (input-and-output match).
    pub correct_and_repeated: u64,
}

impl PredictStats {
    /// Last-value hit rate over result-producing instructions.
    pub fn hit_rate(&self) -> f64 {
        if self.predictable == 0 {
            0.0
        } else {
            self.correct as f64 / self.predictable as f64
        }
    }

    /// Fraction of correct predictions that were *not* full repetitions:
    /// output repeated while inputs changed — the value-locality surplus
    /// a predictor exploits and a reuse buffer cannot.
    pub fn output_only_share(&self) -> f64 {
        if self.correct == 0 {
            0.0
        } else {
            (self.correct - self.correct_and_repeated) as f64 / self.correct as f64
        }
    }
}

/// Statistics from the stride predictor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StrideStats {
    /// Instructions with a register result observed.
    pub predictable: u64,
    /// Correct stride predictions.
    pub correct: u64,
}

impl StrideStats {
    /// Stride hit rate over result-producing instructions.
    pub fn hit_rate(&self) -> f64 {
        if self.predictable == 0 {
            0.0
        } else {
            self.correct as f64 / self.predictable as f64
        }
    }
}

/// One dense per-static-instruction predictor slot.
///
/// `lvp` is `0` when empty, else bit 32 plus the last observed value.
/// `seen == 0` marks the stride half empty; both halves fill on the
/// same event (the first observed register result at this index).
#[derive(Debug, Clone, Copy, Default)]
struct PredSlot {
    lvp: u64,
    last: u32,
    stride: u32,
    candidate: u32,
    seen: u32,
}

/// Unbounded per-static-instruction last-value and two-delta stride
/// predictors over one shared table.
///
/// Unbounded capacity makes these the *upper bound* for any finite
/// predictor, the cleanest comparison against Table 10. The last-value
/// half captures constancy; the stride half captures arithmetic
/// sequences (loop counters, addresses) that never *repeat* under the
/// paper's definition at all. The two-delta stride updates its stride
/// only after the same delta is observed twice in a row, which filters
/// one-off jumps.
#[derive(Debug, Default)]
pub struct ValuePredictors {
    /// Dense slots indexed by `Event::index`. The text segment is small
    /// and indices are dense, so a flat table beats a hash map on the
    /// per-event path.
    table: Vec<PredSlot>,
    entries: u64,
    lvp_stats: PredictStats,
    stride_stats: StrideStats,
}

impl ValuePredictors {
    /// Creates empty predictors.
    pub fn new() -> ValuePredictors {
        ValuePredictors::default()
    }

    /// Observes one retired instruction; returns whether the last-value
    /// and stride predictions would have been correct. Instructions
    /// without a register result are not predicted.
    pub fn observe(&mut self, ev: &Event, repeated: bool) -> (bool, bool) {
        let Some(out) = ev.out else { return (false, false) };
        let idx = ev.index as usize;
        if idx >= self.table.len() {
            self.table.resize(idx + 1, PredSlot::default());
        }
        let s = &mut self.table[idx];
        self.lvp_stats.predictable += 1;
        self.stride_stats.predictable += 1;

        // Last-value half.
        let prev = s.lvp;
        if prev == 0 {
            self.entries += 1;
        }
        s.lvp = (1 << 32) | u64::from(out);
        let lvp_hit = prev != 0 && prev as u32 == out;
        if lvp_hit {
            self.lvp_stats.correct += 1;
            if repeated {
                self.lvp_stats.correct_and_repeated += 1;
            }
        }

        // Two-delta stride half.
        let stride_hit = if s.seen == 0 {
            s.last = out;
            s.stride = 0;
            s.candidate = 0;
            s.seen = 1;
            false
        } else {
            let predicted = s.last.wrapping_add(s.stride);
            let hit = predicted == out;
            let new_delta = out.wrapping_sub(s.last);
            if new_delta == s.candidate {
                s.stride = new_delta;
            } else {
                s.candidate = new_delta;
            }
            s.last = out;
            hit
        };
        if stride_hit {
            self.stride_stats.correct += 1;
        }
        (lvp_hit, stride_hit)
    }

    /// Accumulated last-value statistics.
    pub fn lvp_stats(&self) -> &PredictStats {
        &self.lvp_stats
    }

    /// Accumulated stride statistics.
    pub fn stride_stats(&self) -> &StrideStats {
        &self.stride_stats
    }

    /// Static instructions with a last-value entry (occupancy gauge).
    pub fn lvp_entries(&self) -> u64 {
        self.entries
    }

    /// Static instructions with a stride entry (occupancy gauge; fills
    /// on the same events as the last-value half).
    pub fn stride_entries(&self) -> u64 {
        self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instrep_isa::{AluOp, Insn, Reg};

    fn ev(index: u32, in1: u32, out: Option<u32>) -> Event {
        Event {
            pc: 0x40_0000 + index * 4,
            index,
            insn: Insn::alu(AluOp::Add, Reg::V0, Reg::A0, Reg::A1),
            in1,
            in2: 0,
            out,
            mem: None,
            ctrl: None,
        }
    }

    fn lvp(p: &mut ValuePredictors, e: &Event, repeated: bool) -> bool {
        p.observe(e, repeated).0
    }

    fn stride(p: &mut ValuePredictors, e: &Event) -> bool {
        p.observe(e, false).1
    }

    #[test]
    fn predicts_stable_outputs() {
        let mut p = ValuePredictors::new();
        assert!(!lvp(&mut p, &ev(0, 1, Some(7)), false)); // cold
        assert!(lvp(&mut p, &ev(0, 1, Some(7)), true)); // same in+out
        assert!(lvp(&mut p, &ev(0, 2, Some(7)), false)); // same OUT, new inputs
        assert!(!lvp(&mut p, &ev(0, 2, Some(9)), false)); // output changed
        let s = p.lvp_stats();
        assert_eq!(s.predictable, 4);
        assert_eq!(s.correct, 2);
        assert_eq!(s.correct_and_repeated, 1);
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
        assert!((s.output_only_share() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn ignores_resultless_instructions() {
        let mut p = ValuePredictors::new();
        assert_eq!(p.observe(&ev(0, 1, None), false), (false, false));
        assert_eq!(p.lvp_stats().predictable, 0);
        assert_eq!(p.stride_stats().predictable, 0);
    }

    #[test]
    fn per_static_isolation() {
        let mut p = ValuePredictors::new();
        lvp(&mut p, &ev(0, 1, Some(5)), false);
        assert!(!lvp(&mut p, &ev(1, 1, Some(5)), false)); // different pc
        assert!(lvp(&mut p, &ev(1, 1, Some(5)), true));
        assert_eq!(p.lvp_entries(), 2);
        assert_eq!(p.stride_entries(), 2);
    }

    #[test]
    fn stride_predicts_arithmetic_sequences() {
        let mut p = ValuePredictors::new();
        // Loop counter 10, 13, 16, 19, ...: two observations confirm the
        // stride, after which every value hits.
        let mut hits = 0;
        let mut lvp_hits = 0;
        for (i, v) in (0..10).map(|i| (i, 10 + 3 * i)) {
            let (l, s) = p.observe(&ev(0, i, Some(v)), false);
            hits += u32::from(s);
            lvp_hits += u32::from(l);
        }
        // First value is cold; second has stride 0; third confirms the
        // candidate stride; values from the fourth onward all hit.
        assert_eq!(hits, 7, "stats: {:?}", p.stride_stats());
        // The last-value half scores zero on the same stream.
        assert_eq!(lvp_hits, 0);
    }

    #[test]
    fn stride_zero_degenerates_to_last_value() {
        let mut p = ValuePredictors::new();
        assert!(!stride(&mut p, &ev(0, 0, Some(7))));
        assert!(stride(&mut p, &ev(0, 0, Some(7))));
        assert!(stride(&mut p, &ev(0, 0, Some(7))));
        assert!((p.stride_stats().hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn one_off_jump_does_not_destroy_stride() {
        let mut p = ValuePredictors::new();
        for v in [0u32, 1, 2, 3] {
            p.observe(&ev(0, 0, Some(v)), false);
        }
        // Jump, then resume the old stride from the new base: the
        // confirmed stride (1) survives the single disturbance.
        assert!(!stride(&mut p, &ev(0, 0, Some(100))));
        assert!(stride(&mut p, &ev(0, 0, Some(101))));
    }
}

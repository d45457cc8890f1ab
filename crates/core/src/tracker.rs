//! Instruction-repetition tracking (the paper's central measurement).
//!
//! A dynamic instance of a static instruction is *repeated* when an
//! earlier instance of the same static instruction consumed the same
//! operand values and produced the same outcome (paper §2). The tracker
//! buffers up to [`TrackerConfig::max_instances`] *unique* instances per
//! static instruction — 2000 in the paper — and classifies each retired
//! instruction against that buffer.
//!
//! A *unique repeatable instance* (paper Figure 2) is a buffered instance
//! that has been repeated at least once; the first occurrence of an
//! instance is never itself a repetition.

use instrep_sim::Event;

/// Configuration for [`RepetitionTracker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackerConfig {
    /// Maximum unique instances buffered per static instruction.
    /// Instances beyond the cap execute normally but are classified
    /// non-repeated and are not buffered (matching the paper's setup).
    pub max_instances: usize,
}

impl Default for TrackerConfig {
    /// The paper's configuration: 2000 instances per static instruction.
    fn default() -> TrackerConfig {
        TrackerConfig { max_instances: 2000 }
    }
}

/// The key identifying one dynamic instance: operand values plus outcome.
type InstanceKey = (u32, u32, u32);

/// One slot of a static instruction's open-addressed instance table.
///
/// `count_plus` is the instance's repeat count plus one, so `0` doubles
/// as the empty-slot marker and a buffered-but-never-repeated instance
/// is `1`. 24 bytes per slot keeps a probe to a single cache line.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    in1: u32,
    in2: u32,
    outcome: u32,
    count_plus: u64,
}

/// Per-static-instruction repetition state.
///
/// Instances live in a flat open-addressed table (power-of-two capacity,
/// linear probing, no deletion) rather than a hash map: the classify
/// path runs once per retired instruction and the flat layout removes
/// the map's entry indirection from it. Classification depends only on
/// exact key equality, never on hash order, so results are identical to
/// the map-based implementation.
#[derive(Debug, Clone, Default)]
struct StaticEntry {
    /// Buffered unique instances; empty until the first insert.
    slots: Vec<Slot>,
    /// Occupied slot count (`<= cfg.max_instances`).
    len: u32,
    /// Dynamic executions observed.
    exec: u64,
    /// Dynamic executions classified repeated.
    repeated: u64,
}

/// Mixes an instance key into a table index seed (fxhash-style multiply;
/// quality only affects probe lengths, never classification results).
#[inline]
fn hash_key(in1: u32, in2: u32, outcome: u32) -> usize {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let h = (u64::from(in1).wrapping_mul(K))
        .wrapping_add(u64::from(in2))
        .wrapping_mul(K)
        .wrapping_add(u64::from(outcome))
        .wrapping_mul(K);
    (h >> 32) as usize
}

impl StaticEntry {
    /// Inserts a new instance known to be absent, growing at 7/8 load.
    fn insert_new(&mut self, key: InstanceKey) {
        if self.slots.is_empty() {
            self.slots = vec![Slot::default(); 8];
        } else if (self.len as usize + 1) * 8 > self.slots.len() * 7 {
            let doubled = vec![Slot::default(); self.slots.len() * 2];
            let old = std::mem::replace(&mut self.slots, doubled);
            for s in old.into_iter().filter(|s| s.count_plus > 0) {
                let mask = self.slots.len() - 1;
                let mut i = hash_key(s.in1, s.in2, s.outcome) & mask;
                while self.slots[i].count_plus > 0 {
                    i = (i + 1) & mask;
                }
                self.slots[i] = s;
            }
        }
        let mask = self.slots.len() - 1;
        let mut i = hash_key(key.0, key.1, key.2) & mask;
        while self.slots[i].count_plus > 0 {
            i = (i + 1) & mask;
        }
        self.slots[i] = Slot { in1: key.0, in2: key.1, outcome: key.2, count_plus: 1 };
        self.len += 1;
    }

    /// Repeat counts of occupied slots (count excludes first occurrence).
    fn counts(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots.iter().filter(|s| s.count_plus > 0).map(|s| s.count_plus - 1)
    }
}

/// Statistics for one static instruction, as exposed to reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticStats {
    /// Static instruction index (`(pc - TEXT_BASE) / 4`).
    pub index: u32,
    /// Dynamic executions.
    pub exec: u64,
    /// Dynamic executions classified repeated.
    pub repeated: u64,
    /// Number of unique repeatable instances (buffered instances that
    /// repeated at least once).
    pub unique_repeatable: u64,
}

/// Tracks instruction repetition over a simulation's event stream.
///
/// # Examples
///
/// ```
/// use instrep_core::{RepetitionTracker, TrackerConfig};
///
/// let tracker = RepetitionTracker::new(TrackerConfig::default(), 16);
/// assert_eq!(tracker.dynamic_total(), 0);
/// ```
#[derive(Debug)]
pub struct RepetitionTracker {
    cfg: TrackerConfig,
    entries: Vec<StaticEntry>,
    dyn_total: u64,
    dyn_repeated: u64,
    buffered: u64,
}

impl RepetitionTracker {
    /// Creates a tracker for a program with `static_count` text
    /// instructions.
    pub fn new(cfg: TrackerConfig, static_count: usize) -> RepetitionTracker {
        RepetitionTracker {
            cfg,
            entries: vec![StaticEntry::default(); static_count],
            dyn_total: 0,
            dyn_repeated: 0,
            buffered: 0,
        }
    }

    /// Observes one retired instruction and reports whether it is a
    /// repetition of a buffered instance.
    ///
    /// # Panics
    ///
    /// Panics if `ev.index` is out of range for the program this tracker
    /// was sized for.
    pub fn observe(&mut self, ev: &Event) -> bool {
        let entry = &mut self.entries[ev.index as usize];
        entry.exec += 1;
        self.dyn_total += 1;
        let key = (ev.in1, ev.in2, ev.outcome());
        if !entry.slots.is_empty() {
            let mask = entry.slots.len() - 1;
            let mut i = hash_key(key.0, key.1, key.2) & mask;
            loop {
                let s = &mut entry.slots[i];
                if s.count_plus == 0 {
                    break;
                }
                if (s.in1, s.in2, s.outcome) == key {
                    s.count_plus += 1;
                    entry.repeated += 1;
                    self.dyn_repeated += 1;
                    return true;
                }
                i = (i + 1) & mask;
            }
        }
        if (entry.len as usize) < self.cfg.max_instances {
            entry.insert_new(key);
            self.buffered += 1;
        }
        false
    }

    /// Total dynamic instructions observed.
    pub fn dynamic_total(&self) -> u64 {
        self.dyn_total
    }

    /// Dynamic instructions classified repeated.
    pub fn dynamic_repeated(&self) -> u64 {
        self.dyn_repeated
    }

    /// Number of static instructions the tracker covers (text size).
    pub fn static_total(&self) -> usize {
        self.entries.len()
    }

    /// Number of static instructions executed at least once.
    pub fn static_executed(&self) -> usize {
        self.entries.iter().filter(|e| e.exec > 0).count()
    }

    /// Number of executed static instructions with at least one repeated
    /// dynamic instance.
    pub fn static_repeated(&self) -> usize {
        self.entries.iter().filter(|e| e.repeated > 0).count()
    }

    /// Total unique repeatable instances across all static instructions
    /// (paper Table 2, *Count*).
    pub fn unique_repeatable_instances(&self) -> u64 {
        self.entries.iter().map(|e| e.counts().filter(|&c| c > 0).count() as u64).sum()
    }

    /// Average number of repeats per unique repeatable instance (paper
    /// Table 2, *Avg. Repeats*). Returns 0.0 when nothing repeated.
    pub fn avg_repeats(&self) -> f64 {
        let uri = self.unique_repeatable_instances();
        if uri == 0 {
            0.0
        } else {
            self.dyn_repeated as f64 / uri as f64
        }
    }

    /// Per-static-instruction statistics for executed instructions.
    pub fn static_stats(&self) -> Vec<StaticStats> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.exec > 0)
            .map(|(i, e)| StaticStats {
                index: i as u32,
                exec: e.exec,
                repeated: e.repeated,
                unique_repeatable: e.counts().filter(|&c| c > 0).count() as u64,
            })
            .collect()
    }

    /// Repeat counts of every unique repeatable instance (unsorted).
    /// Input for the Figure 4 coverage curve.
    pub fn instance_repeat_counts(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for e in &self.entries {
            out.extend(e.counts().filter(|&c| c > 0));
        }
        out
    }

    /// Share of total dynamic repetition contributed by static
    /// instructions whose unique-repeatable-instance count falls in each
    /// bucket: `1`, `2..=10`, `11..=100`, `101..=1000`, `1001..`
    /// (paper Figure 3). Fractions sum to 1 when any repetition exists.
    pub fn instance_histogram(&self) -> [f64; 5] {
        let mut sums = [0u64; 5];
        for e in &self.entries {
            if e.repeated == 0 {
                continue;
            }
            let uri = e.counts().filter(|&c| c > 0).count() as u64;
            let bucket = match uri {
                0 => continue,
                1 => 0,
                2..=10 => 1,
                11..=100 => 2,
                101..=1000 => 3,
                _ => 4,
            };
            sums[bucket] += e.repeated;
        }
        let total: u64 = sums.iter().sum();
        if total == 0 {
            return [0.0; 5];
        }
        sums.map(|s| s as f64 / total as f64)
    }

    /// Total unique instances currently buffered across all static
    /// instructions (occupancy gauge; bounded by
    /// `static_executed * max_instances`). Maintained incrementally, so
    /// it is O(1) — the interval sampler reads it at every window
    /// boundary.
    pub fn instances_buffered(&self) -> u64 {
        self.buffered
    }

    /// Rough bytes held by the instance tables (occupancy gauge): buffered
    /// instances times their slot footprint plus the per-static entry
    /// structs. An estimate — open-addressed tables carry empty-slot
    /// slack — but monotone in the real cost, which is what a trajectory
    /// needs.
    pub fn approx_table_bytes(&self) -> u64 {
        let per_instance = std::mem::size_of::<Slot>() as u64;
        let per_static = std::mem::size_of::<StaticEntry>() as u64;
        self.buffered * per_instance + self.entries.len() as u64 * per_static
    }

    /// Fraction of dynamic instructions repeated, in `[0, 1]`.
    pub fn repetition_rate(&self) -> f64 {
        if self.dyn_total == 0 {
            0.0
        } else {
            self.dyn_repeated as f64 / self.dyn_total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instrep_isa::{AluOp, Insn, Reg};

    fn ev(index: u32, in1: u32, in2: u32, out: u32) -> Event {
        Event {
            pc: 0x40_0000 + index * 4,
            index,
            insn: Insn::alu(AluOp::Add, Reg::V0, Reg::A0, Reg::A1),
            in1,
            in2,
            out: Some(out),
            mem: None,
            ctrl: None,
        }
    }

    #[test]
    fn paper_figure_2_example() {
        // I1 unique never repeated; I2 repeated as I3; I4 repeated as
        // I5, I6, I7 => 2 unique repeatable instances, 4 repetitions.
        let mut t = RepetitionTracker::new(TrackerConfig::default(), 1);
        let seq = [(10, 20, 30), (1, 2, 3), (1, 2, 3), (4, 5, 9), (4, 5, 9), (4, 5, 9), (4, 5, 9)];
        let repeated: Vec<bool> = seq.iter().map(|&(a, b, c)| t.observe(&ev(0, a, b, c))).collect();
        assert_eq!(repeated, [false, false, true, false, true, true, true]);
        assert_eq!(t.dynamic_total(), 7);
        assert_eq!(t.dynamic_repeated(), 4);
        assert_eq!(t.unique_repeatable_instances(), 2);
        assert_eq!(t.avg_repeats(), 2.0);
        assert_eq!(t.static_executed(), 1);
        assert_eq!(t.static_repeated(), 1);
    }

    #[test]
    fn same_inputs_different_output_not_repeated() {
        // A load reading a clobbered address: operands repeat, outcome
        // does not => not a repetition.
        let mut t = RepetitionTracker::new(TrackerConfig::default(), 1);
        assert!(!t.observe(&ev(0, 1, 0, 100)));
        assert!(!t.observe(&ev(0, 1, 0, 200)));
        assert!(t.observe(&ev(0, 1, 0, 100)));
        assert_eq!(t.unique_repeatable_instances(), 1);
    }

    #[test]
    fn buffer_cap_limits_tracking() {
        let mut t = RepetitionTracker::new(TrackerConfig { max_instances: 2 }, 1);
        assert!(!t.observe(&ev(0, 1, 1, 1)));
        assert!(!t.observe(&ev(0, 2, 2, 2)));
        assert!(!t.observe(&ev(0, 3, 3, 3))); // beyond cap, not buffered
        assert!(!t.observe(&ev(0, 3, 3, 3))); // still not repeated
        assert!(t.observe(&ev(0, 1, 1, 1))); // buffered ones still hit
        assert_eq!(t.dynamic_repeated(), 1);
    }

    #[test]
    fn per_static_isolation() {
        let mut t = RepetitionTracker::new(TrackerConfig::default(), 2);
        assert!(!t.observe(&ev(0, 1, 1, 1)));
        // Same values at a different static instruction: not repeated.
        assert!(!t.observe(&ev(1, 1, 1, 1)));
        assert!(t.observe(&ev(0, 1, 1, 1)));
        assert_eq!(t.static_executed(), 2);
        assert_eq!(t.static_repeated(), 1);
        let stats = t.static_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].repeated, 1);
        assert_eq!(stats[1].repeated, 0);
    }

    #[test]
    fn histogram_buckets() {
        let mut t = RepetitionTracker::new(TrackerConfig::default(), 2);
        // Static 0: one unique repeatable instance, 5 repetitions.
        for _ in 0..6 {
            t.observe(&ev(0, 1, 1, 1));
        }
        // Static 1: three unique repeatable instances, 3 repetitions.
        for v in [1u32, 2, 3] {
            t.observe(&ev(1, v, v, v));
            t.observe(&ev(1, v, v, v));
        }
        let h = t.instance_histogram();
        assert!((h[0] - 5.0 / 8.0).abs() < 1e-9);
        assert!((h[1] - 3.0 / 8.0).abs() < 1e-9);
        assert_eq!(h[2], 0.0);
    }

    #[test]
    fn buffered_counter_matches_recount() {
        let mut t = RepetitionTracker::new(TrackerConfig { max_instances: 2 }, 2);
        for (idx, v) in [(0, 1u32), (0, 2), (0, 3), (0, 1), (1, 1), (1, 1)] {
            t.observe(&ev(idx, v, v, v));
        }
        let recount: u64 = t
            .entries
            .iter()
            .map(|e| e.slots.iter().filter(|s| s.count_plus > 0).count() as u64)
            .sum();
        assert_eq!(t.instances_buffered(), recount);
        assert_eq!(t.instances_buffered(), 3); // cap of 2 at static 0, 1 at static 1
    }

    #[test]
    fn instance_counts_for_coverage() {
        let mut t = RepetitionTracker::new(TrackerConfig::default(), 1);
        for _ in 0..4 {
            t.observe(&ev(0, 7, 7, 7));
        }
        t.observe(&ev(0, 8, 8, 8));
        t.observe(&ev(0, 8, 8, 8));
        let mut counts = t.instance_repeat_counts();
        counts.sort_unstable();
        assert_eq!(counts, vec![1, 3]);
        assert!((t.repetition_rate() - 4.0 / 6.0).abs() < 1e-9);
    }
}

//! Hardware reuse-buffer model (paper §7, Table 10).
//!
//! Models the `S_v` reuse scheme of Sodani & Sohi's "Dynamic Instruction
//! Reuse": a PC-indexed, set-associative buffer storing each
//! instruction's operand values and result. An instruction *reuses* a
//! buffered entry when its PC and operand values match. Load safety is
//! modeled with oracle invalidation: a matching entry whose recorded
//! outcome no longer equals the actual outcome (memory was clobbered)
//! counts as a miss and is refreshed — equivalent to a buffer with
//! perfect store-invalidations.

use instrep_sim::Event;

use crate::interval::frac;

/// Geometry of a [`ReuseBuffer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReuseConfig {
    /// Total entries (must be a multiple of `ways`).
    pub entries: usize,
    /// Set associativity.
    pub ways: usize,
}

impl ReuseConfig {
    /// The paper's configuration: 8K entries, 4-way set associative.
    pub fn paper() -> ReuseConfig {
        ReuseConfig { entries: 8192, ways: 4 }
    }

    fn sets(&self) -> usize {
        self.entries / self.ways
    }
}

impl Default for ReuseConfig {
    fn default() -> ReuseConfig {
        ReuseConfig::paper()
    }
}

/// Match state of one buffer entry. Kept apart from the LRU stamps so a
/// set's four keys fit one cache line on the per-event lookup path; the
/// stamp array doubles as the valid flag (`lru == 0` means never filled,
/// the clock starts at 1).
#[derive(Debug, Clone, Copy, Default)]
struct Key {
    pc: u32,
    in1: u32,
    in2: u32,
    outcome: u32,
}

/// Statistics reported by the reuse buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReuseStats {
    /// Instructions observed.
    pub total: u64,
    /// Instructions that hit (reused a buffered result).
    pub hits: u64,
    /// Hits among instructions the tracker classified repeated.
    pub repeated_hits: u64,
    /// Instructions the tracker classified repeated.
    pub repeated_total: u64,
    /// Matching entries invalidated by a changed outcome (stale loads).
    pub stale: u64,
}

impl ReuseStats {
    /// Table 10 column 1: fraction of all instructions reused.
    pub fn hit_rate(&self) -> f64 {
        frac(self.hits, self.total)
    }

    /// Table 10 column 2: fraction of repeated instructions captured.
    pub fn repeated_capture_rate(&self) -> f64 {
        frac(self.repeated_hits, self.repeated_total)
    }
}

/// A set-associative reuse buffer.
///
/// # Examples
///
/// ```
/// use instrep_core::{ReuseBuffer, ReuseConfig};
///
/// let buf = ReuseBuffer::new(ReuseConfig::paper());
/// assert_eq!(buf.stats().total, 0);
/// ```
#[derive(Debug)]
pub struct ReuseBuffer {
    cfg: ReuseConfig,
    /// `sets - 1` when the set count is a power of two (the paper
    /// geometry and every test geometry), so the per-event set index is
    /// a mask instead of an integer division; `None` falls back to
    /// modulo for odd geometries.
    set_mask: Option<usize>,
    keys: Vec<Key>,
    lru: Vec<u64>,
    clock: u64,
    stats: ReuseStats,
}

impl ReuseBuffer {
    /// Creates a buffer with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero, `ways` is zero, or `entries` is not a
    /// multiple of `ways`.
    pub fn new(cfg: ReuseConfig) -> ReuseBuffer {
        assert!(cfg.ways > 0 && cfg.entries > 0, "reuse buffer must have entries");
        assert_eq!(cfg.entries % cfg.ways, 0, "entries must be a multiple of ways");
        ReuseBuffer {
            cfg,
            set_mask: cfg.sets().is_power_of_two().then(|| cfg.sets() - 1),
            keys: vec![Key::default(); cfg.entries],
            lru: vec![0; cfg.entries],
            clock: 0,
            stats: ReuseStats::default(),
        }
    }

    /// Observes an instruction; returns whether it hit.
    pub fn observe(&mut self, ev: &Event, repeated: bool) -> bool {
        let outcome = ev.outcome();
        self.clock += 1;
        self.stats.total += 1;
        if repeated {
            self.stats.repeated_total += 1;
        }
        let pc_word = (ev.pc >> 2) as usize;
        let set = match self.set_mask {
            Some(mask) => pc_word & mask,
            None => pc_word % self.cfg.sets(),
        };
        let base = set * self.cfg.ways;
        // One bounds check for the whole set; the way loops below are
        // then branch-free on indexing.
        let keys = &mut self.keys[base..base + self.cfg.ways];
        let lru = &mut self.lru[base..base + self.cfg.ways];

        // Lookup.
        for (e, stamp) in keys.iter_mut().zip(lru.iter_mut()) {
            if *stamp != 0 && e.pc == ev.pc && e.in1 == ev.in1 && e.in2 == ev.in2 {
                if e.outcome == outcome {
                    *stamp = self.clock;
                    self.stats.hits += 1;
                    if repeated {
                        self.stats.repeated_hits += 1;
                    }
                    return true;
                }
                // Oracle invalidation: memory changed under a load.
                e.outcome = outcome;
                *stamp = self.clock;
                self.stats.stale += 1;
                return false;
            }
        }

        // Miss: insert via LRU (a zero stamp — never filled — is the
        // least recent of all, so invalid ways are claimed first).
        let victim = (0..lru.len()).min_by_key(|&i| lru[i]).expect("ways is non-empty");
        keys[victim] = Key { pc: ev.pc, in1: ev.in1, in2: ev.in2, outcome };
        lru[victim] = self.clock;
        false
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &ReuseStats {
        &self.stats
    }

    /// Number of valid entries currently resident (occupancy gauge;
    /// bounded by `entries`).
    pub fn occupancy(&self) -> u64 {
        self.lru.iter().filter(|&&stamp| stamp != 0).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instrep_isa::{AluOp, Insn, Reg};

    fn ev(pc: u32, in1: u32, in2: u32, out: u32) -> Event {
        Event {
            pc,
            index: (pc - 0x40_0000) / 4,
            insn: Insn::alu(AluOp::Add, Reg::V0, Reg::A0, Reg::A1),
            in1,
            in2,
            out: Some(out),
            mem: None,
            ctrl: None,
        }
    }

    #[test]
    fn basic_reuse() {
        let mut b = ReuseBuffer::new(ReuseConfig { entries: 8, ways: 2 });
        assert!(!b.observe(&ev(0x40_0000, 1, 2, 3), false));
        assert!(b.observe(&ev(0x40_0000, 1, 2, 3), true));
        assert!(!b.observe(&ev(0x40_0000, 9, 2, 11), false)); // different inputs
        assert_eq!(b.stats().hits, 1);
        assert_eq!(b.stats().repeated_hits, 1);
        assert_eq!(b.stats().total, 3);
    }

    #[test]
    fn stale_outcome_counts_as_miss() {
        let mut b = ReuseBuffer::new(ReuseConfig { entries: 8, ways: 2 });
        b.observe(&ev(0x40_0000, 1, 0, 100), false);
        // Same operands, different outcome: a clobbered load.
        assert!(!b.observe(&ev(0x40_0000, 1, 0, 200), false));
        assert_eq!(b.stats().stale, 1);
        // Entry refreshed: the new outcome now hits.
        assert!(b.observe(&ev(0x40_0000, 1, 0, 200), true));
    }

    #[test]
    fn lru_eviction_within_set() {
        // 1 set, 2 ways: three distinct PCs mapping to the same set.
        let mut b = ReuseBuffer::new(ReuseConfig { entries: 2, ways: 2 });
        b.observe(&ev(0x40_0000, 1, 1, 1), false);
        b.observe(&ev(0x40_0004, 2, 2, 2), false);
        // Touch the first to make the second LRU.
        assert!(b.observe(&ev(0x40_0000, 1, 1, 1), true));
        // Insert a third; evicts pc 0x40_0004 (the LRU way).
        b.observe(&ev(0x40_0008, 3, 3, 3), false);
        assert!(!b.observe(&ev(0x40_0004, 2, 2, 2), true)); // miss: was evicted
                                                            // That miss re-inserted pc 0x40_0004 over the now-LRU pc 0x40_0000;
                                                            // pc 0x40_0008 must still be resident.
        assert!(b.observe(&ev(0x40_0008, 3, 3, 3), true));
    }

    #[test]
    fn distinct_pcs_do_not_alias() {
        let mut b = ReuseBuffer::new(ReuseConfig::paper());
        b.observe(&ev(0x40_0000, 1, 2, 3), false);
        assert!(!b.observe(&ev(0x40_2000, 1, 2, 3), false));
    }

    #[test]
    fn capture_rates() {
        let mut b = ReuseBuffer::new(ReuseConfig { entries: 4, ways: 4 });
        b.observe(&ev(0x40_0000, 1, 1, 1), false);
        b.observe(&ev(0x40_0000, 1, 1, 1), true);
        b.observe(&ev(0x40_0000, 2, 2, 2), false);
        assert!((b.stats().hit_rate() - 1.0 / 3.0).abs() < 1e-9);
        assert!((b.stats().repeated_capture_rate() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "multiple of ways")]
    fn bad_geometry_panics() {
        let _ = ReuseBuffer::new(ReuseConfig { entries: 6, ways: 4 });
    }

    #[test]
    #[should_panic(expected = "must have entries")]
    fn zero_entries_rejected() {
        let _ = ReuseBuffer::new(ReuseConfig { entries: 0, ways: 4 });
    }

    #[test]
    #[should_panic(expected = "must have entries")]
    fn zero_ways_rejected() {
        let _ = ReuseBuffer::new(ReuseConfig { entries: 8, ways: 0 });
    }

    #[test]
    fn invalid_ways_are_filled_before_any_eviction() {
        // 1 set, 4 ways: four distinct PCs all fit — inserting a new
        // entry must claim an invalid way, never evict a valid one.
        let mut b = ReuseBuffer::new(ReuseConfig { entries: 4, ways: 4 });
        for pc in [0x40_0000u32, 0x40_0004, 0x40_0008, 0x40_000c] {
            assert!(!b.observe(&ev(pc, pc, 0, pc), false));
        }
        assert_eq!(b.occupancy(), 4);
        for pc in [0x40_0000u32, 0x40_0004, 0x40_0008, 0x40_000c] {
            assert!(b.observe(&ev(pc, pc, 0, pc), true), "pc {pc:#x} was evicted prematurely");
        }
    }

    #[test]
    fn oracle_refresh_makes_entry_most_recently_used() {
        // 1 set, 2 ways. A stale refresh must also update recency:
        // the refreshed entry survives the next eviction.
        let mut b = ReuseBuffer::new(ReuseConfig { entries: 2, ways: 2 });
        b.observe(&ev(0x40_0000, 1, 0, 100), false);
        b.observe(&ev(0x40_0004, 2, 2, 2), false);
        // Clobbered load at the first pc: outcome changed, refresh.
        assert!(!b.observe(&ev(0x40_0000, 1, 0, 200), false));
        assert_eq!(b.stats().stale, 1);
        // A third pc evicts the LRU way — now pc 0x40_0004.
        b.observe(&ev(0x40_0008, 3, 3, 3), false);
        assert!(b.observe(&ev(0x40_0000, 1, 0, 200), true), "refreshed entry was evicted");
        assert!(!b.observe(&ev(0x40_0004, 2, 2, 2), true), "stale-LRU entry survived");
    }

    #[test]
    fn oracle_refresh_only_rewrites_outcome() {
        let mut b = ReuseBuffer::new(ReuseConfig { entries: 8, ways: 2 });
        b.observe(&ev(0x40_0000, 1, 0, 100), false);
        // Clobbered: same operands, new outcome — refresh, not hit.
        assert!(!b.observe(&ev(0x40_0000, 1, 0, 200), false));
        // Different operands still miss (the refresh kept the operand
        // match intact rather than wildcarding the entry).
        assert!(!b.observe(&ev(0x40_0000, 9, 0, 200), false));
        // The refreshed (1, 0) -> 200 instance hits; stale counted once.
        // (The operand-9 miss LRU-inserted into the second way, leaving
        // the refreshed entry resident.)
        assert!(b.observe(&ev(0x40_0000, 1, 0, 200), true));
        assert_eq!(b.stats().stale, 1);
        assert_eq!(b.stats().hits, 1);
    }

    #[test]
    fn occupancy_counts_valid_entries_only() {
        let mut b = ReuseBuffer::new(ReuseConfig { entries: 8, ways: 2 });
        assert_eq!(b.occupancy(), 0);
        b.observe(&ev(0x40_0000, 1, 1, 1), false);
        b.observe(&ev(0x40_0000, 2, 2, 2), false);
        assert_eq!(b.occupancy(), 2);
        // A hit does not create a new entry.
        b.observe(&ev(0x40_0000, 1, 1, 1), true);
        assert_eq!(b.occupancy(), 2);
    }
}

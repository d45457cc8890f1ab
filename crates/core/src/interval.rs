//! Windowed repetition time series: how repetition evolves *over* a
//! program's execution, which the paper's end-of-run totals cannot show.
//!
//! An [`IntervalSampler`] closes a window every `interval` retired
//! instructions of the measurement phase and records, per window, the
//! repetition fraction, the reuse-buffer hit rate, the tracker's
//! instance-buffer occupancy, and how many new unique instances were
//! buffered. Sampling is boundary-only: the pipeline ends each measure
//! slice at the next window boundary and advances the sampler once per
//! slice, so it costs nothing per event; gauges are read only when a
//! window closes, so the analyses' output is byte-identical with the
//! sampler on or off.
//!
//! The series is emitted as JSONL ([`to_jsonl`]): a versioned header
//! line ([`INTERVAL_SCHEMA_VERSION`], `"kind": "intervals"`) followed by
//! one line per window, in workload order. Every value derives from the
//! deterministic analyses, so the document is byte-reproducible across
//! runs and `--jobs` counts. Schema in `DESIGN.md` §10.

use crate::json::{JsonWriter, Layout};

/// Version of the interval JSONL document. Bump on any change to field
/// names, meanings, or structure.
pub const INTERVAL_SCHEMA_VERSION: u32 = 1;

/// One closed measurement window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntervalWindow {
    /// Measured instructions retired when the window closed (an exact
    /// multiple of the interval, except for a final partial window).
    pub end: u64,
    /// Instructions in this window (the interval, or the remainder for
    /// a final partial window).
    pub insns: u64,
    /// Instructions classified repeated within the window.
    pub repeated: u64,
    /// Reuse-buffer hits within the window.
    pub reuse_hits: u64,
    /// Tracker instances buffered when the window closed (absolute).
    pub occupancy: u64,
    /// Instances newly buffered during the window (unique-instance
    /// growth).
    pub unique_growth: u64,
    /// Whether this is a final window shorter than the interval.
    pub partial: bool,
}

impl IntervalWindow {
    /// Fraction of the window's instructions classified repeated.
    pub fn repeat_frac(&self) -> f64 {
        frac(self.repeated, self.insns)
    }

    /// Fraction of the window's instructions that hit the reuse buffer.
    pub fn reuse_hit_frac(&self) -> f64 {
        frac(self.reuse_hits, self.insns)
    }
}

/// `part / whole`, or 0 when `whole` is 0.
pub(crate) fn frac(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Accumulates [`IntervalWindow`]s over one workload's measurement
/// phase.
///
/// A caller counts retired instructions with [`IntervalSampler::tick`]
/// (the pipeline advances it by whole slices) and flushes gauges at the
/// boundaries it reports; [`IntervalSampler::finish`] closes a trailing
/// partial window, if any.
///
/// # Examples
///
/// ```
/// use instrep_core::IntervalSampler;
///
/// let mut s = IntervalSampler::new(2);
/// for step in 1..=5u64 {
///     if s.tick() {
///         s.flush(step / 2, step, step * 10); // boundary gauges
///     }
/// }
/// s.finish(2, 5, 50);
/// let w = s.windows();
/// assert_eq!(w.len(), 3);
/// assert_eq!((w[0].end, w[0].insns, w[0].partial), (2, 2, false));
/// assert_eq!((w[2].end, w[2].insns, w[2].partial), (5, 1, true));
/// ```
#[derive(Debug, Clone)]
pub struct IntervalSampler {
    interval: u64,
    in_window: u64,
    measured: u64,
    last_repeated: u64,
    last_hits: u64,
    last_buffered: u64,
    windows: Vec<IntervalWindow>,
}

impl IntervalSampler {
    /// Creates a sampler closing a window every `interval` instructions
    /// (clamped to at least 1).
    pub fn new(interval: u64) -> IntervalSampler {
        IntervalSampler {
            interval: interval.max(1),
            in_window: 0,
            measured: 0,
            last_repeated: 0,
            last_hits: 0,
            last_buffered: 0,
            windows: Vec::new(),
        }
    }

    /// Counts one retired instruction; returns `true` when it completes
    /// a window (the caller must then call [`IntervalSampler::flush`]).
    #[inline]
    pub fn tick(&mut self) -> bool {
        self.advance(1)
    }

    /// Instructions left before the open window closes.
    pub(crate) fn until_boundary(&self) -> u64 {
        self.interval - self.in_window
    }

    /// Counts `n` retired instructions, at most
    /// [`until_boundary`](Self::until_boundary); returns `true` when
    /// they complete a window, as [`IntervalSampler::tick`] does.
    #[inline]
    pub(crate) fn advance(&mut self, n: u64) -> bool {
        debug_assert!(n <= self.until_boundary(), "a slice crossed a window boundary");
        self.in_window += n;
        self.measured += n;
        self.in_window == self.interval
    }

    /// Closes the current (full) window with cumulative gauges:
    /// instructions classified repeated so far, reuse-buffer hits so
    /// far, and the tracker's current buffered-instance count.
    pub fn flush(&mut self, repeated: u64, reuse_hits: u64, buffered: u64) {
        self.close(false, repeated, reuse_hits, buffered);
    }

    /// Closes a trailing partial window, if any instructions retired
    /// since the last boundary. Call once, after the run.
    pub fn finish(&mut self, repeated: u64, reuse_hits: u64, buffered: u64) {
        if self.in_window > 0 {
            self.close(true, repeated, reuse_hits, buffered);
        }
    }

    fn close(&mut self, partial: bool, repeated: u64, reuse_hits: u64, buffered: u64) {
        self.windows.push(IntervalWindow {
            end: self.measured,
            insns: self.in_window,
            repeated: repeated - self.last_repeated,
            reuse_hits: reuse_hits - self.last_hits,
            occupancy: buffered,
            unique_growth: buffered - self.last_buffered,
            partial,
        });
        self.in_window = 0;
        self.last_repeated = repeated;
        self.last_hits = reuse_hits;
        self.last_buffered = buffered;
    }

    /// The closed windows so far.
    pub fn windows(&self) -> &[IntervalWindow] {
        &self.windows
    }

    /// Consumes the sampler, returning its closed windows.
    pub fn into_windows(self) -> Vec<IntervalWindow> {
        self.windows
    }
}

/// Renders the interval JSONL document: a header line followed by one
/// line per window, workloads in the given order.
pub fn to_jsonl(
    scale: &str,
    seed: u64,
    jobs: usize,
    interval: u64,
    series: &[(String, Vec<IntervalWindow>)],
) -> String {
    let capacity = 128 + series.iter().map(|(_, w)| w.len() * 256).sum::<usize>();
    let mut w = JsonWriter::new(Layout::Line, capacity);
    w.row(|w| {
        w.key("schema_version").uint(INTERVAL_SCHEMA_VERSION.into());
        w.key("kind").str("intervals");
        w.key("scale").str(scale);
        w.key("seed").uint(seed);
        w.key("jobs").uint(jobs as u64);
        w.key("interval").uint(interval);
    });
    w.newline();
    for (name, windows) in series {
        for (i, win) in windows.iter().enumerate() {
            w.row(|w| {
                w.key("workload").str(name);
                w.key("window").uint(i as u64 + 1);
                w.key("end").uint(win.end);
                w.key("insns").uint(win.insns);
                w.key("repeated").uint(win.repeated);
                w.key("repeat_frac").f3(win.repeat_frac());
                w.key("reuse_hits").uint(win.reuse_hits);
                w.key("reuse_hit_frac").f3(win.reuse_hit_frac());
                w.key("occupancy").uint(win.occupancy);
                w.key("unique_growth").uint(win.unique_growth);
                w.key("partial").bool(win.partial);
            });
            w.newline();
        }
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_fall_on_exact_multiples() {
        let mut s = IntervalSampler::new(3);
        let mut closed = Vec::new();
        for step in 1..=10u64 {
            if s.tick() {
                s.flush(step / 2, step / 3, step);
                closed.push(step);
            }
        }
        s.finish(5, 3, 10);
        assert_eq!(closed, [3, 6, 9]);
        let w = s.windows();
        assert_eq!(w.len(), 4);
        assert!(w[..3].iter().all(|w| !w.partial && w.insns == 3 && w.end % 3 == 0));
        let last = w[3];
        assert!(last.partial);
        assert_eq!((last.end, last.insns), (10, 1));
        // Window deltas reconstruct the cumulative gauges.
        assert_eq!(w.iter().map(|w| w.repeated).sum::<u64>(), 5);
        assert_eq!(w.iter().map(|w| w.reuse_hits).sum::<u64>(), 3);
        assert_eq!(w.iter().map(|w| w.unique_growth).sum::<u64>(), 10);
        assert_eq!(last.occupancy, 10);
    }

    #[test]
    fn exact_fit_leaves_no_partial_window() {
        let mut s = IntervalSampler::new(2);
        for step in 1..=4u64 {
            if s.tick() {
                s.flush(0, 0, step);
            }
        }
        s.finish(0, 0, 4);
        assert_eq!(s.windows().len(), 2);
        assert!(s.windows().iter().all(|w| !w.partial));
        // No zero-width tail either: every window holds instructions and
        // the windows tile the measured count exactly.
        assert!(s.windows().iter().all(|w| w.insns > 0));
        assert_eq!(s.windows().iter().map(|w| w.insns).sum::<u64>(), 4);
        // A redundant finish stays a no-op even if gauges moved since —
        // close() must never run with an empty window.
        s.finish(9, 9, 9);
        assert_eq!(s.windows().len(), 2);
    }

    #[test]
    fn zero_interval_clamps_to_one() {
        let mut s = IntervalSampler::new(0);
        assert_eq!(s.until_boundary(), 1);
        assert!(s.tick());
    }

    #[test]
    fn fractions() {
        let w = IntervalWindow {
            end: 10,
            insns: 4,
            repeated: 3,
            reuse_hits: 1,
            occupancy: 5,
            unique_growth: 2,
            partial: false,
        };
        assert!((w.repeat_frac() - 0.75).abs() < 1e-12);
        assert!((w.reuse_hit_frac() - 0.25).abs() < 1e-12);
    }
}

//! Observability layer for the analysis pipeline: phase wall times,
//! event-throughput counters, per-analysis occupancy gauges, and peak-RSS
//! sampling, emitted as a versioned machine-readable JSON document.
//!
//! Collection is strictly *pull-based*: the pipeline reads the monotonic
//! clock once per phase boundary and queries each analysis for its table
//! occupancy after the run. Nothing executes per event, so enabling
//! metrics cannot perturb the analyses' output — the tables stay
//! byte-identical with metrics on or off, for every `--jobs` count — and
//! disabling them costs exactly one `Option` branch per phase boundary.
//!
//! The document (kind `"metrics"`, schema [`METRICS_SCHEMA_VERSION`],
//! documented in `DESIGN.md` §9) holds one run: per-workload phases
//! (wall time, events, events/sec) and gauges ([`MetricsReport::to_json`]).

use std::time::Instant;

use crate::json::{JsonWriter, Layout};

/// Version of the JSON documents this module emits. Bump on any change
/// to field names, meanings, or structure.
pub const METRICS_SCHEMA_VERSION: u32 = 1;

/// Nanoseconds from `start` to `end` on the monotonic clock: 0 when
/// `end` is earlier, saturating at `u64::MAX`. Every duration the
/// crate exports is converted here, so two sinks handed the same pair
/// of instants report the same figure.
///
/// # Examples
///
/// ```
/// use std::time::{Duration, Instant};
/// use instrep_core::metrics::ns_between;
///
/// let t0 = Instant::now();
/// let t1 = t0 + Duration::from_micros(3);
/// assert_eq!(ns_between(t0, t1), 3_000);
/// assert_eq!(ns_between(t1, t0), 0);
/// ```
pub fn ns_between(start: Instant, end: Instant) -> u64 {
    u64::try_from(end.saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}

/// Wall time and event count for one phase of one workload's analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseMetrics {
    /// Phase name (`"build"`, `"setup"`, `"skip"`, `"measure"`,
    /// `"finalize"`).
    pub name: &'static str,
    /// Wall-clock nanoseconds spent in the phase.
    pub wall_ns: u64,
    /// Simulator events (retired instructions) processed in the phase;
    /// 0 for phases that process no event stream.
    pub events: u64,
}

impl PhaseMetrics {
    /// Throughput in events per second (0.0 when no time was observed).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.events as f64 / (self.wall_ns as f64 / 1e9)
        }
    }

    /// Wall time in fractional milliseconds.
    pub fn wall_ms(&self) -> f64 {
        self.wall_ns as f64 / 1e6
    }
}

/// Everything the pipeline records about one workload's analysis run:
/// an ordered list of phases plus end-of-run occupancy gauges.
///
/// # Examples
///
/// ```
/// use instrep_core::metrics::WorkloadMetrics;
///
/// let mut m = WorkloadMetrics::default();
/// m.record_phase_ns("measure", 2_000_000, 1000);
/// m.gauge("tracker_instances_buffered", 42);
/// assert_eq!(m.events_total(), 1000);
/// assert_eq!(m.phase("measure").unwrap().events, 1000);
/// ```
#[derive(Debug, Clone, Default)]
pub struct WorkloadMetrics {
    /// Phases in execution order.
    pub phases: Vec<PhaseMetrics>,
    /// Named occupancy/size gauges sampled at the end of the run, in a
    /// fixed order (deterministic output).
    pub gauges: Vec<(&'static str, u64)>,
}

impl WorkloadMetrics {
    /// Appends a completed phase from a raw nanosecond duration.
    pub fn record_phase_ns(&mut self, name: &'static str, wall_ns: u64, events: u64) {
        self.phases.push(PhaseMetrics { name, wall_ns, events });
    }

    /// Prepends a phase (used for the per-workload build step, which
    /// happens before the pipeline runs).
    pub fn prepend_phase_ns(&mut self, name: &'static str, wall_ns: u64, events: u64) {
        self.phases.insert(0, PhaseMetrics { name, wall_ns, events });
    }

    /// Records one named gauge.
    pub fn gauge(&mut self, name: &'static str, value: u64) {
        self.gauges.push((name, value));
    }

    /// Looks up a phase by name.
    pub fn phase(&self, name: &str) -> Option<&PhaseMetrics> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Total events across all phases.
    pub fn events_total(&self) -> u64 {
        self.phases.iter().map(|p| p.events).sum()
    }
}

/// One run's metrics document (kind `"metrics"`).
#[derive(Debug, Clone)]
pub struct MetricsReport {
    /// Workload scale label (`"tiny"`, `"small"`, `"full"`).
    pub scale: String,
    /// Input-generation seed.
    pub seed: u64,
    /// Worker threads the pipeline ran with.
    pub jobs: usize,
    /// Per-workload metrics, in workload order.
    pub workloads: Vec<(String, WorkloadMetrics)>,
    /// Process peak resident set size; 0 when the platform does not
    /// expose it (see [`peak_rss_bytes`]).
    pub peak_rss_bytes: u64,
    /// Wall time of the whole pipeline invocation (all workloads).
    pub wall_ns_total: u64,
}

impl MetricsReport {
    /// Renders the versioned JSON document. Key order is fixed, so the
    /// output is deterministic for deterministic inputs.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new(Layout::Indented, 4096);
        w.object(|w| {
            w.key("schema_version").uint(METRICS_SCHEMA_VERSION.into());
            w.key("kind").str("metrics");
            w.key("scale").str(&self.scale);
            w.key("seed").uint(self.seed);
            w.key("jobs").uint(self.jobs as u64);
            w.key("wall_ms_total").f3(self.wall_ns_total as f64 / 1e6);
            w.key("peak_rss_bytes").uint(self.peak_rss_bytes);
            w.key("workloads").array(|w| {
                for (name, m) in &self.workloads {
                    w.object(|w| {
                        w.key("name").str(name);
                        w.key("events_total").uint(m.events_total());
                        w.key("phases").array(|w| {
                            for p in &m.phases {
                                w.row(|w| {
                                    w.key("name").str(p.name);
                                    w.key("wall_ms").f3(p.wall_ms());
                                    w.key("events").uint(p.events);
                                    w.key("events_per_sec").f3(p.events_per_sec());
                                });
                            }
                        });
                        w.key("gauges").object(|w| {
                            for &(gname, gval) in &m.gauges {
                                w.key(gname).uint(gval);
                            }
                        });
                    });
                }
            });
        });
        w.newline();
        w.finish()
    }
}

/// Process peak resident set size in bytes (`VmHWM` from
/// `/proc/self/status`). Degrades to 0 on platforms without procfs or
/// when the field is missing or unparseable — a 0 gauge, never a
/// garbage value.
pub fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status").map_or(0, |s| parse_vm_hwm(&s))
}

/// Extracts `VmHWM` from a `/proc/self/status`-shaped document, in
/// bytes. Any surprise — missing line, non-numeric value, unexpected
/// unit — yields 0, and huge values saturate instead of wrapping.
fn parse_vm_hwm(status: &str) -> u64 {
    let Some(rest) = status.lines().find_map(|l| l.strip_prefix("VmHWM:")) else {
        return 0;
    };
    let Some(kb) = rest.trim().strip_suffix("kB") else {
        return 0;
    };
    kb.trim().parse::<u64>().map_or(0, |kb| kb.saturating_mul(1024))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput() {
        let p = PhaseMetrics { name: "measure", wall_ns: 2_000_000_000, events: 10_000 };
        assert!((p.events_per_sec() - 5_000.0).abs() < 1e-9);
        assert_eq!(PhaseMetrics { name: "x", wall_ns: 0, events: 5 }.events_per_sec(), 0.0);
    }

    #[test]
    fn peak_rss_is_sane_on_linux() {
        let b = peak_rss_bytes();
        // A running test binary has touched at least a few pages; off
        // Linux the probe degrades to exactly 0.
        assert!(b == 0 || b > 4096, "peak RSS {b} implausible");
    }

    #[test]
    fn vm_hwm_parsing_degrades_to_zero() {
        let good = "VmPeak:\t  999 kB\nVmHWM:\t   5432 kB\nThreads: 4\n";
        assert_eq!(parse_vm_hwm(good), 5432 * 1024);
        // Missing field, garbage value, wrong unit: all degrade to 0.
        assert_eq!(parse_vm_hwm(""), 0);
        assert_eq!(parse_vm_hwm("VmPeak: 999 kB\n"), 0);
        assert_eq!(parse_vm_hwm("VmHWM: lots kB\n"), 0);
        assert_eq!(parse_vm_hwm("VmHWM: 5432 MB\n"), 0);
        assert_eq!(parse_vm_hwm("VmHWM: 5432\n"), 0);
        // Absurd values saturate rather than wrapping.
        assert_eq!(parse_vm_hwm("VmHWM: 18446744073709551615 kB\n"), u64::MAX);
    }
}

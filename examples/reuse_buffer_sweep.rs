//! Reuse-buffer design sweep: the hardware-exploitation question of the
//! paper's §7 extended into an ablation (DESIGN.md §8).
//!
//! Sweeps buffer size × associativity for one workload and prints the
//! fraction of repetition captured by each geometry — showing how far
//! the paper's 8K/4-way point sits from the asymptote (its Table 10
//! observation that "there is still room for improvement"). First it
//! prints how much repetition the tracker detects when each static
//! instruction buffers at most 1, 16, 256 or the paper's 2,000 unique
//! instances.
//!
//! ```text
//! cargo run --release --example reuse_buffer_sweep [workload]
//! ```

use std::error::Error;
use std::io::{self, Write};

use instrep::core::{RepetitionTracker, ReuseBuffer, ReuseConfig, TrackerConfig};
use instrep::sim::{Machine, Trace};
use instrep::workloads::{by_name, Scale};

fn main() -> Result<(), Box<dyn Error>> {
    match sweep(&mut io::stdout().lock()) {
        // A reader that stops early (`| head`) has what it wanted.
        Err(e)
            if e.downcast_ref::<io::Error>()
                .is_some_and(|e| e.kind() == io::ErrorKind::BrokenPipe) =>
        {
            Ok(())
        }
        done => done,
    }
}

/// Prints the tracker-cap ablation and the reuse-buffer sweep to `out`.
fn sweep(out: &mut impl Write) -> Result<(), Box<dyn Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "compress".to_string());
    let wl = by_name(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let image = wl.build()?;

    // One simulation pass, recorded; then each geometry replays it.
    // (Recording keeps the sweep honest: every config sees the same
    // trace.)
    let mut machine = Machine::new(&image);
    machine.set_input(wl.input(Scale::Tiny, 7));
    let trace = Trace::record(&mut machine, 5_000_000)?;
    let mut tracker = RepetitionTracker::new(TrackerConfig::default(), image.text.len());
    let repeated_flags: Vec<bool> = trace.events().iter().map(|ev| tracker.observe(ev)).collect();
    writeln!(
        out,
        "workload {}: {} instructions, {:.1}% repeated\n",
        wl.name,
        tracker.dynamic_total(),
        tracker.repetition_rate() * 100.0
    )?;

    writeln!(out, "{:<10}{:>18}", "cap", "% insts repeated")?;
    writeln!(out, "{}", "-".repeat(28))?;
    for cap in [1usize, 16, 256, 2000] {
        let mut t = RepetitionTracker::new(TrackerConfig { max_instances: cap }, image.text.len());
        for ev in trace.events() {
            t.observe(ev);
        }
        let marker = if cap == TrackerConfig::default().max_instances { "   <- paper" } else { "" };
        writeln!(out, "{cap:<10}{:>17.1}%{marker}", t.repetition_rate() * 100.0)?;
    }
    writeln!(out)?;

    writeln!(
        out,
        "{:<10}{:>8}{:>16}{:>22}",
        "entries", "ways", "% insts reused", "% repetition captured"
    )?;
    writeln!(out, "{}", "-".repeat(56))?;
    for entries in [256usize, 1024, 4096, 8192, 32768] {
        for ways in [1usize, 4] {
            let mut buf = ReuseBuffer::new(ReuseConfig { entries, ways });
            for (ev, repeated) in trace.events().iter().zip(&repeated_flags) {
                buf.observe(ev, *repeated);
            }
            let s = buf.stats();
            let marker = if entries == 8192 && ways == 4 { "   <- paper Table 10" } else { "" };
            writeln!(
                out,
                "{:<10}{:>8}{:>15.1}%{:>21.1}%{}",
                entries,
                ways,
                s.hit_rate() * 100.0,
                s.repeated_capture_rate() * 100.0,
                marker
            )?;
        }
    }
    Ok(out.flush()?)
}

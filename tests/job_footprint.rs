//! Allocation gate: a job allocates in proportion to the simulated pages
//! it touches, not to the size of the 32-bit address space, and each
//! workload family's tiny job stays within a pinned allocation count and
//! byte total.
//!
//! A counting global allocator tallies the allocations and bytes requested
//! on the thread that armed it, so tests running in parallel do not see
//! each other. A one-job `Session` runs inline on the calling thread
//! (`parallel_map_indexed` spawns no thread for one item), so the tally
//! covers the whole job: machine, observers, finalize and report.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use instrep::sim::Memory;
use instrep::workloads::{all, Scale};
use instrep::{AnalysisConfig, Session};

/// [`System`] plus per-thread allocation and byte counters. `realloc`
/// counts as one allocation of the new size.
struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(size: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            ALLOCS.with(|n| n.set(n.get() + 1));
            BYTES.with(|b| b.set(b.get() + size as u64));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are
// allocation-free thread-locals and touch no memory the allocator hands
// out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What one closure requested from the allocator on this thread.
struct Tally {
    allocs: u64,
    bytes: u64,
}

/// Runs `f` and returns what it requested on this thread, with its
/// result (dropped by the caller, outside the count).
fn allocated<R>(f: impl FnOnce() -> R) -> (Tally, R) {
    ALLOCS.with(|n| n.set(0));
    BYTES.with(|b| b.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (Tally { allocs: ALLOCS.with(Cell::get), bytes: BYTES.with(Cell::get) }, out)
}

#[test]
fn empty_memory_costs_one_page_table_root() {
    // The root of the two-level table is 1,024 pointers (8 KiB); a flat
    // table over all 2^20 pages would be 8 MiB.
    let (used, mem) = allocated(Memory::new);
    assert_eq!(mem.resident_pages(), 0);
    assert!(used.bytes <= 16 * 1024, "Memory::new() allocated {} B, bound 16 KiB", used.bytes);
}

#[test]
fn trivial_job_allocates_under_a_mebibyte() {
    // A job builds simulated memory and two shadow-tag tables; each
    // must cost what the program touches (a few pages here), not a
    // table sized for the whole address space.
    let image = instrep::minicc::build("int main() { return 7; }").expect("program builds");
    let (used, run) =
        allocated(|| Session::new(AnalysisConfig::default()).run_one(&image, Vec::new()));
    let run = run.expect("job runs");
    assert!(run.report.dynamic_total > 0);
    let bytes = used.bytes;
    assert!(bytes <= 1 << 20, "Session::run_one of a trivial job allocated {bytes} B, bound 1 MiB");
}

/// `(family, allocations, bytes)` of one `Session::run_one` at
/// `Scale::Tiny`, seed 1998, with the CLI's tiny windows (skip 20,000,
/// window 400,000). Each pin is the measured count, which repeats exactly
/// from run to run and is the same in debug and release builds. A change
/// that lowers a count lowers its pin with it.
const TINY_JOB_PINS: [(&str, u64, u64); 10] = [
    ("go", 2_580, 3_007_392),
    ("m88ksim", 1_174, 1_369_130),
    ("ijpeg", 1_982, 4_415_784),
    ("perl", 2_287, 4_166_157),
    ("vortex", 4_666, 6_165_749),
    ("li", 2_175, 1_772_476),
    ("gcc", 3_781, 5_849_461),
    ("compress", 4_540, 9_537_422),
    ("interp", 330, 1_781_298),
    ("stencil", 568, 4_539_808),
];

#[test]
fn tiny_family_jobs_stay_within_their_allocation_pins() {
    let cfg = AnalysisConfig { skip: 20_000, window: 400_000, ..AnalysisConfig::default() };
    let mut over = Vec::new();
    for wl in all() {
        let &(_, max_allocs, max_bytes) = TINY_JOB_PINS
            .iter()
            .find(|(name, ..)| *name == wl.name)
            .unwrap_or_else(|| panic!("{} has no allocation pin", wl.name));
        let image = wl.build().expect("family builds");
        let input = wl.input(Scale::Tiny, 1998);
        let (used, run) = allocated(|| Session::new(cfg).run_one(&image, input));
        let events = run.expect("job runs").report.dynamic_total;
        eprintln!(
            "{}: {} allocations, {} B over {events} events",
            wl.name, used.allocs, used.bytes
        );
        if used.allocs > max_allocs {
            over.push(format!("{}: {} allocations, pin {max_allocs}", wl.name, used.allocs));
        }
        if used.bytes > max_bytes {
            over.push(format!("{}: {} B, pin {max_bytes} B", wl.name, used.bytes));
        }
    }
    assert!(over.is_empty(), "tiny jobs over their allocation pins:\n{}", over.join("\n"));
}

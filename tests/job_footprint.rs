//! Allocation gate: a job allocates in proportion to the simulated pages
//! it touches, not to the size of the 32-bit address space.
//!
//! A counting global allocator tallies the bytes requested on the thread
//! that armed it, so tests running in parallel do not see each other. A
//! one-job `Session` runs inline on the calling thread
//! (`parallel_map_indexed` spawns no thread for one item), so the tally
//! covers the whole job: machine, observers, finalize and report.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use instrep::sim::Memory;
use instrep::{AnalysisConfig, Session};

/// [`System`] plus a per-thread byte counter. `realloc` counts as one
/// allocation of the new size.
struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(size: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
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

/// Runs `f` and returns the bytes it requested on this thread, with its
/// result (dropped by the caller, outside the count).
fn allocated<R>(f: impl FnOnce() -> R) -> (u64, R) {
    BYTES.with(|b| b.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (BYTES.with(Cell::get), out)
}

#[test]
fn empty_memory_costs_one_page_table_root() {
    // The root of the two-level table is 1,024 pointers (8 KiB); a flat
    // table over all 2^20 pages would be 8 MiB.
    let (bytes, mem) = allocated(Memory::new);
    assert_eq!(mem.resident_pages(), 0);
    assert!(bytes <= 16 * 1024, "Memory::new() allocated {bytes} B, bound 16 KiB");
}

#[test]
fn trivial_job_allocates_under_a_mebibyte() {
    // A job builds simulated memory and two shadow-tag tables; each
    // must cost what the program touches (a few pages here), not a
    // table sized for the whole address space.
    let image = instrep::minicc::build("int main() { return 7; }").expect("program builds");
    let (bytes, run) =
        allocated(|| Session::new(AnalysisConfig::default()).run_one(&image, Vec::new()));
    let run = run.expect("job runs");
    assert!(run.report.dynamic_total > 0);
    assert!(bytes <= 1 << 20, "Session::run_one of a trivial job allocated {bytes} B, bound 1 MiB");
}

//! Allocation gate: a job allocates in proportion to the simulated pages
//! it touches, not to the size of the 32-bit address space; each
//! workload family's tiny job and image build allocate exactly their
//! pinned counts and bytes; and each build makes the pinned image.
//!
//! A counting global allocator tallies the allocations and bytes requested
//! on the thread that armed it, so tests running in parallel do not see
//! each other. A one-job `Session` runs inline on the calling thread
//! (`parallel_map_indexed` spawns no thread for one item), so the tally
//! covers the whole job: machine, observers, finalize and report.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hash::Hasher;

use instrep::asm::assemble;
use instrep::core::FxHasher;
use instrep::minicc::compile_to_asm;
use instrep::sim::Memory;
use instrep::workloads::{all, Scale};
use instrep::{AnalysisConfig, CacheKey, Session};

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
/// from run to run and is the same in debug and release builds. The test
/// asserts equality, so a change that lowers a count lowers its pin with
/// it and the gain stays locked in.
const TINY_JOB_PINS: [(&str, u64, u64); 10] = [
    ("go", 2_484, 2_967_336),
    ("m88ksim", 1_099, 1_318_858),
    ("ijpeg", 1_852, 4_260_872),
    ("perl", 2_108, 4_020_181),
    ("vortex", 4_525, 5_945_365),
    ("li", 1_925, 1_753_964),
    ("gcc", 3_342, 5_408_389),
    ("compress", 4_372, 9_127_494),
    ("interp", 302, 1_780_402),
    ("stencil", 560, 4_539_544),
];

#[test]
fn tiny_family_jobs_stay_within_their_allocation_pins() {
    let cfg = AnalysisConfig { skip: 20_000, window: 400_000, ..AnalysisConfig::default() };
    let mut wrong = Vec::new();
    for wl in all() {
        let &(_, allocs, bytes) = TINY_JOB_PINS
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
        if (used.allocs, used.bytes) != (allocs, bytes) {
            wrong.push(format!(
                "{}: {} allocations, {} B; pin {allocs}, {bytes} B",
                wl.name, used.allocs, used.bytes
            ));
        }
    }
    assert!(wrong.is_empty(), "tiny jobs off their allocation pins:\n{}", wrong.join("\n"));
}

/// `(family, allocations, bytes, image key, text hash)` of one image
/// build: `compile_to_asm` of the family's full source, then `assemble`
/// (the source string itself is made outside the count). The counts
/// repeat exactly and are the same in debug and release builds; as with
/// the job pins, a change that lowers one lowers its pin. The image key
/// is `CacheKey::derive(&image, &[], &AnalysisConfig::default())`, which
/// hashes the image's text, lines, data, init ranges, entry and funcs;
/// the text hash is an `FxHasher` hash of the assembly text. Together
/// they pin the build's output bytes: a change to the compiler or the
/// assembler that moves either changes what every analysis runs on.
const BUILD_PINS: [(&str, u64, u64, &str, u64); 10] = [
    ("go", 1_604, 701_191, "7f5abda7827b392cab889b0e70a2350c", 0x39fc_2a4d_4254_9002),
    ("m88ksim", 1_195, 486_342, "d2023e308e3887f1ad6e684787d3e412", 0xe4e4_45cb_c835_16e9),
    ("ijpeg", 1_499, 696_409, "75bb85586fb7c6809d49e679a3296f36", 0x2f6a_d033_bdcf_6631),
    ("perl", 1_901, 863_598, "fcc24ac9b9f632d6717125147f2113c2", 0x7515_2c9e_b079_25c4),
    ("vortex", 1_471, 605_794, "499fa7f1cf3b3b8388cab81452725842", 0x395f_6a84_6133_b571),
    ("li", 1_813, 861_462, "0a4e90326720232e5a0e2000a4c9f84f", 0x932f_e5d2_be4d_b47f),
    ("gcc", 1_944, 880_199, "3dd8d3b51dfcdfd65a8e53aa9768899f", 0x623f_660f_917a_d19b),
    ("compress", 1_143, 516_623, "ededfd7d1751c96d3be1acf349c1907f", 0xef0d_279d_5404_9be4),
    ("interp", 1_004, 425_081, "0895337a8a10a4ee7e838b051c44d73f", 0x3968_801a_f6a2_ff52),
    ("stencil", 761, 312_035, "2c339e8c1d3673f33cad41e70f99d7e8", 0xe35e_a050_0f04_89ce),
];

#[test]
fn family_builds_match_their_pins() {
    let mut wrong = Vec::new();
    for wl in all() {
        let &(_, allocs, bytes, key, text_hash) = BUILD_PINS
            .iter()
            .find(|(name, ..)| *name == wl.name)
            .unwrap_or_else(|| panic!("{} has no build pin", wl.name));
        let src = wl.full_source();
        let (used, (asm, image)) = allocated(|| {
            let asm = compile_to_asm(&src).expect("family compiles");
            let image = assemble(&asm).expect("family assembles");
            (asm, image)
        });
        let got_key = CacheKey::derive(&image, &[], &AnalysisConfig::default()).to_string();
        let mut h = FxHasher::default();
        h.write(asm.as_bytes());
        let got_hash = h.finish();
        eprintln!(
            "{}: {} allocations, {} B, key {got_key}, text hash {got_hash:#018x}",
            wl.name, used.allocs, used.bytes
        );
        if (used.allocs, used.bytes) != (allocs, bytes) {
            wrong.push(format!(
                "{}: {} allocations, {} B; pin {allocs}, {bytes} B",
                wl.name, used.allocs, used.bytes
            ));
        }
        if got_key != key {
            wrong.push(format!("{}: image key {got_key}, pin {key}", wl.name));
        }
        if got_hash != text_hash {
            wrong.push(format!("{}: text hash {got_hash:#018x}, pin {text_hash:#018x}", wl.name));
        }
    }
    assert!(wrong.is_empty(), "family builds off their pins:\n{}", wrong.join("\n"));
}

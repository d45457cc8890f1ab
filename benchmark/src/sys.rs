//! The two process-accounting calls the standard library does not wrap:
//! reaping a child with its resource usage, and this process's page-fault
//! count.

/// `struct rusage` on 64-bit Linux: two `timeval`s then fourteen `long`s.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    /// `ixrss`, `idrss`, `isrss`, `minflt`, then ten more counters.
    rest: [i64; 13],
}

impl Rusage {
    fn zeroed() -> Rusage {
        Rusage { utime: [0; 2], stime: [0; 2], maxrss: 0, rest: [0; 13] }
    }
}

const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn getrusage(who: i32, rusage: *mut Rusage) -> i32;
}

/// Reaps child `pid`, returning its raw wait status and peak RSS in KiB.
pub fn reap(pid: u32) -> Result<(i32, i64), String> {
    let pid = i32::try_from(pid).map_err(|_| format!("pid {pid} out of range"))?;
    let mut status = 0;
    let mut ru = Rusage::zeroed();
    loop {
        // SAFETY: both pointers refer to live, writable locals; `Rusage`
        // matches the kernel's `struct rusage` layout on 64-bit Linux.
        let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if r == pid {
            return Ok((status, ru.maxrss));
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4: {err}"));
        }
    }
}

/// Minor page faults this process has taken so far.
pub fn minor_faults() -> u64 {
    let mut ru = Rusage::zeroed();
    // SAFETY: `ru` is a live, writable local of the kernel's layout.
    let r = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    if r == 0 {
        u64::try_from(ru.rest[3]).unwrap_or(0)
    } else {
        0
    }
}

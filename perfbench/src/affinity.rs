//! CPU placement. Load is pinned so that each run places its threads the
//! same way: the load thread, and the server thread serving its
//! connection, run on allowed CPU slot `LOAD_CPU`; the server's helper
//! threads on slot `HELPER_CPU`. Unpinned, a 2-core machine flips
//! between placements from run to run, and closed-loop throughput with
//! them by up to 2x.
//!
//! Linux only; elsewhere pinning is a no-op.

use std::collections::BTreeSet;
use std::fs;
use std::sync::OnceLock;
use std::thread;
use std::time::{Duration, Instant};

#[cfg(target_os = "linux")]
mod sys {
    /// Bytes of the CPU mask handed to the kernel (1024 CPUs).
    pub const MASK_BYTES: usize = 128;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    }

    pub fn get() -> Option<[u8; MASK_BYTES]> {
        let mut mask = [0u8; MASK_BYTES];
        // SAFETY: `mask` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, MASK_BYTES, mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    pub fn set(tid: i32, mask: &[u8; MASK_BYTES]) -> bool {
        // SAFETY: `mask` is a readable buffer of exactly the size passed;
        // the kernel only reads it. A stale `tid` makes the call fail.
        unsafe { sched_setaffinity(tid, MASK_BYTES, mask.as_ptr()) == 0 }
    }
}

/// The CPUs this process was allowed to run on at its first call,
/// ascending (empty where unknown). Called first from `main`, before any
/// thread is pinned.
pub fn cpus() -> &'static [usize] {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    CPUS.get_or_init(|| {
        #[cfg(target_os = "linux")]
        if let Some(mask) = sys::get() {
            return (0..sys::MASK_BYTES * 8)
                .filter(|&c| mask[c / 8] & (1 << (c % 8)) != 0)
                .collect();
        }
        Vec::new()
    })
}

/// The `slot`-th allowed CPU, wrapping around (`None` where unknown).
pub fn cpu_id(slot: usize) -> Option<usize> {
    let cpus = cpus();
    (!cpus.is_empty()).then(|| cpus[slot % cpus.len()])
}

/// Pins thread `tid` (0 = the calling thread) to the `slot`-th allowed
/// CPU, wrapping around.
pub fn pin(tid: i32, slot: usize) {
    #[cfg(target_os = "linux")]
    if let Some(cpu) = cpu_id(slot) {
        let mut mask = [0u8; sys::MASK_BYTES];
        mask[cpu / 8] |= 1 << (cpu % 8);
        sys::set(tid, &mask);
    }
    #[cfg(not(target_os = "linux"))]
    let _ = (tid, slot);
}

/// Thread ids of this process.
pub fn threads() -> BTreeSet<i32> {
    fs::read_dir("/proc/self/task")
        .map(|rd| rd.flatten().filter_map(|e| e.file_name().to_str()?.parse().ok()).collect())
        .unwrap_or_default()
}

/// Waits up to `patience` for a thread that is not in `before` and
/// returns its id: how the benchmark finds the server thread spawned for
/// a connection it just opened.
pub fn new_thread(before: &BTreeSet<i32>, patience: Duration) -> Option<i32> {
    let start = Instant::now();
    while start.elapsed() < patience {
        if let Some(&tid) = threads().difference(before).next() {
            return Some(tid);
        }
        thread::sleep(Duration::from_micros(200));
    }
    None
}

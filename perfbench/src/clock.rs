//! What the benchmark's timings are measured against.
//!
//! The machine is shared: other processes run on the same CPUs, and the
//! hypervisor takes the CPUs away, each for a share of the time that
//! changes from run to run. On the 2-vCPU VM this was tuned on, the load
//! thread of one run got half of its CPU and the next run all of it;
//! wall-clock throughput halved while the per-operation latency did not
//! move. So throughputs and set-up times are per CPU time the benchmark
//! got, not per wall time.

use std::fs;
use std::time::Instant;

/// Clock ticks per second of `/proc/stat` (`USER_HZ`, 100 on Linux).
const USER_HZ: f64 = 100.0;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }

    pub const PROCESS_CPUTIME: i32 = 2;
    pub const THREAD_CPUTIME: i32 = 3;

    /// The CPU-time clock of thread `tid` of this process: the kernel's
    /// encoding of a per-thread scheduler clock.
    pub fn thread_clock(tid: i32) -> i32 {
        (!tid << 3) | 6
    }

    pub fn ns(clock: i32) -> Option<u64> {
        let mut t = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `t` is a valid, writable timespec for the call; a bad
        // clock id makes the call fail without writing.
        let rc = unsafe { clock_gettime(clock, &mut t) };
        (rc == 0).then(|| t.sec as u64 * 1_000_000_000 + t.nsec as u64)
    }
}

/// CPU time of a thread of this process (0 = the calling thread), in ns.
fn thread_ns(tid: i32) -> Option<u64> {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    return sys::ns(if tid == 0 { sys::THREAD_CPUTIME } else { sys::thread_clock(tid) });
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    {
        let _ = tid;
        None
    }
}

/// CPU time of every thread of this process, live or ended, in seconds.
fn process_secs() -> Option<f64> {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    return sys::ns(sys::PROCESS_CPUTIME).map(|ns| ns as f64 / 1e9);
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    None
}

/// Cumulative seconds CPU `cpu` sat idle (idle + iowait in its
/// `/proc/stat` line; 0 where unknown).
fn idle_secs(cpu: usize) -> f64 {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let prefix = format!("cpu{cpu} ");
    stat.lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .map(|rest| {
            let t: Vec<f64> = rest.split_whitespace().filter_map(|x| x.parse().ok()).collect();
            (t.get(3).unwrap_or(&0.0) + t.get(4).unwrap_or(&0.0)) / USER_HZ
        })
        .unwrap_or(0.0)
}

/// The load CPU's time given to the load: CPU time of the load threads
/// plus the time the load CPU sat idle. Time other processes and the
/// hypervisor took is left out; time the load spends blocked with nothing
/// else to run still counts, so a change that makes the load wait shows.
/// Falls back to wall time where thread CPU clocks are not available.
pub struct LoadClock {
    tids: Vec<i32>,
    cpu: Option<usize>,
    wall: Instant,
    cpu_ns: Option<u64>,
    idle: f64,
}

impl LoadClock {
    /// Starts timing the threads `tids` (0 = the calling thread), which
    /// run on the load CPU.
    pub fn start(tids: &[i32]) -> Self {
        let cpu = crate::affinity::cpu_id(crate::LOAD_CPU);
        LoadClock {
            tids: tids.to_vec(),
            cpu,
            wall: Instant::now(),
            cpu_ns: Self::threads_ns(tids),
            idle: cpu.map_or(0.0, idle_secs),
        }
    }

    fn threads_ns(tids: &[i32]) -> Option<u64> {
        tids.iter().map(|&t| thread_ns(t)).sum()
    }

    /// Load-CPU seconds since `start`.
    pub fn secs(&self) -> f64 {
        match (self.cpu_ns, Self::threads_ns(&self.tids)) {
            (Some(a), Some(b)) => {
                let idle = self.cpu.map_or(0.0, |c| idle_secs(c) - self.idle);
                (b - a) as f64 / 1e9 + idle.max(0.0)
            }
            _ => self.wall.elapsed().as_secs_f64(),
        }
    }
}

/// Times a set-up: CPU seconds of all threads of the process while `f`
/// runs (waiting does not count, and neither does time other processes
/// took), or wall seconds where that clock is not available.
pub fn setup_secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let (wall, cpu) = (Instant::now(), process_secs());
    let out = f();
    let secs = match (cpu, process_secs()) {
        (Some(a), Some(b)) => b - a,
        _ => wall.elapsed().as_secs_f64(),
    };
    (out, secs)
}

#[cfg(all(test, target_os = "linux", target_pointer_width = "64"))]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread;

    /// The per-thread clock id must name the thread it was made from:
    /// another thread's clock reads what that thread read on its own.
    #[test]
    fn reads_another_threads_cpu_clock() {
        let (tx, rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let worker = thread::spawn(move || {
            while thread_ns(0).expect("own clock") < 20_000_000 {
                std::hint::black_box(0u64);
            }
            let link = std::fs::read_link("/proc/thread-self").expect("thread-self");
            let tid: i32 = link.file_name().and_then(|n| n.to_str()?.parse().ok()).expect("tid");
            tx.send((tid, thread_ns(0).expect("own clock"))).expect("main waits");
            done_rx.recv().ok();
        });
        let (tid, own) = rx.recv().expect("worker reports");
        let seen = thread_ns(tid).expect("worker's clock");
        done_tx.send(()).expect("worker waits");
        worker.join().expect("worker");
        assert!(seen >= own && seen < own + 10_000_000, "read {seen} ns, thread saw {own} ns");
    }
}

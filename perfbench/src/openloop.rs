//! Open-loop pacing: requests are due on a fixed schedule whether or not
//! earlier ones have been answered, and each is timed from when it was
//! due, so a stall is charged to every request queued behind it.
//!
//! One pacer drives one connection with at most one frame in flight (the
//! wrk2 model). A late answer delays the next send; that delay shows as
//! generator lag and is included in the next request's latency.
//!
//! The pacer waits for each due time by yielding in a loop rather than
//! sleeping, so its CPU never idles between requests. On a virtual
//! machine an idle CPU is handed back to the host, and waking it again
//! costs a host scheduling delay (tens of microseconds typically,
//! milliseconds under host load) that would otherwise dominate the
//! latency measured at a low rate.

use std::thread;
use std::time::{Duration, Instant};

/// One paced request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When it was due, relative to the schedule start.
    pub due_ns: u64,
    /// From due to answered.
    pub latency_ns: u64,
    /// From due to actually sent.
    pub lag_ns: u64,
}

/// Calls `call(i)` for request `i` at `start + i * period`, for
/// every due time before `until`. `call` returns whether to go on; the
/// pacer stops after the first request that says no.
pub fn pace(
    start: Instant,
    period: Duration,
    until: Instant,
    mut call: impl FnMut(u64) -> bool,
) -> Vec<Sample> {
    // Sized up front so the sample log's growth does not show in the
    // peak memory of the run.
    let due = until.saturating_duration_since(start);
    let mut samples = Vec::with_capacity((due.as_secs_f64() / period.as_secs_f64()) as usize + 2);
    for i in 0u64.. {
        let due = start + period.mul_f64(i as f64);
        if due >= until {
            break;
        }
        while Instant::now() < due {
            thread::yield_now();
        }
        let sent = Instant::now();
        let go_on = call(i);
        let done = Instant::now();
        samples.push(Sample {
            due_ns: (due - start).as_nanos() as u64,
            latency_ns: (done - due).as_nanos() as u64,
            lag_ns: sent.saturating_duration_since(due).as_nanos() as u64,
        });
        if !go_on {
            break;
        }
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    /// One injected 100 ms stall at request 50 of a 1 kHz schedule: timing
    /// from the due time charges it to the ~100 requests queued behind it,
    /// so the tail sees it even though only one call was slow.
    #[test]
    fn injected_stall_shows_in_the_tail() {
        let stall = Duration::from_millis(100);
        let start = Instant::now();
        let period = Duration::from_millis(1);
        let samples = pace(start, period, start + Duration::from_millis(400), |i| {
            if i == 50 {
                thread::sleep(stall);
            }
            true
        });
        assert_eq!(samples.len(), 400);
        let mut lat: Vec<u64> = samples.iter().map(|s| s.latency_ns).collect();
        lat.sort_unstable();
        let tail = stats::tail(&lat).expect("400 samples");
        assert!(tail.value >= 10_000_000, "stall hidden from the tail: {tail:?}");
        let delayed = samples.iter().filter(|s| s.latency_ns >= 10_000_000).count();
        assert!(delayed >= 50, "only {delayed} requests charged with the stall");
        // Timed from the actual send instead, one request looks slow and
        // the stall falls below every tail percentile.
        let from_send = samples.iter().filter(|s| s.latency_ns - s.lag_ns >= 10_000_000).count();
        assert_eq!(from_send, 1);
        assert!(stats::percentile(&lat, 50.0) < 5_000_000);
    }
}

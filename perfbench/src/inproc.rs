//! `inproc_mix`: the paper's own workload, no network.
//!
//! One load thread drives two seeded handles over each structure, picking
//! one of them per operation, in a closed loop over a prefilled structure:
//! one phase per structure (`Stack2D` and `Queue2D` 50/50 produce/consume,
//! `Counter2D` increments, each `for_threads(2)`), plus a `Stack2D` phase
//! of `produce_n`/`consume_n` with n = 8. Rank error comes from a
//! deterministic pass that interleaves two seeded handles against the
//! quality oracles.
//!
//! Two handles on one thread rather than two threads: on a 2-vCPU VM the
//! cost of a cache line shared by two threads depends on where the host
//! places the two vCPUs, and two-thread runs of the same code read up to
//! 30% apart. One thread still sees the two handles' windows, searches
//! and sub-structure hand-offs, without the host's placement in the
//! figure.

use std::time::{Duration, Instant};

use stack2d::{Counter2D, MetricsSnapshot, OpsHandle, Queue2D, RelaxedOps, Stack2D};
use stack2d_quality::{FifoOracle, Oracle};

use crate::affinity;
use crate::check::Flow;
use crate::clock::{setup_secs, LoadClock};
use crate::context::peak_rss_mb;
use crate::stats::{self, Thinned};
use crate::trace::Tracer;
use crate::{Cfg, Outcome, Rng, LOAD_CPU};

/// Handles per structure, and the participants it is sized for.
const HANDLES: usize = 2;
const PREFILL: u64 = 1 << 17;
const SETUPS: usize = 9;
/// Each structure's phase runs in `ROUNDS` parts, round-robin with the
/// other structures, so that all four sample the whole run rather than
/// one stretch of a shared host's drift.
const ROUNDS: usize = 8;
/// Slices per part, and the warm-up before them.
const SLICES: usize = 4;
const WARMUP: Duration = Duration::from_millis(50);
/// Batch length of the batched phase.
const BATCH: usize = 8;
/// Every this many calls one is timed for the latency metrics, at first;
/// a phase's slice keeps at most `LAT_CAP` of them, evenly thinned.
const LAT_EVERY: u64 = 64;
const LAT_CAP: usize = 2048;
/// Latency samples kept per pooled slice, evenly thinned: under 10,000,
/// so a slice's tail is its p99 whatever the run length.
const LAT_SAMPLES: usize = 5_000;
/// Every this many calls one is wrapped in a span in the traced run.
const SPAN_EVERY: u64 = 64;
/// Calls between two reads of the clock that ends a slice.
const CLOCK_EVERY: u64 = 256;
/// Operations of each rank-error pass.
const RANK_OPS: usize = 1_000_000;
/// Share of the time budget each structure's phase gets, over all rounds.
const PHASE_SHARE: f64 = 0.24;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// 50/50 produce/consume, one item per call.
    Mix,
    /// Produce only (a counter has nothing to consume).
    Increment,
    /// 50/50 `produce_n`/`consume_n` of `BATCH` items.
    Batch,
}

const KINDS: [Kind; 4] = [Kind::Mix, Kind::Mix, Kind::Increment, Kind::Batch];

/// A value no other producer can make: source in the top byte.
fn tag(source: u64, seq: u64) -> u64 {
    (source << 56) | seq
}

struct Structures {
    stack: Stack2D<u64>,
    queue: Queue2D<u64>,
    counter: Counter2D,
    batch: Stack2D<u64>,
}

fn build(seed: u64) -> (Structures, [Flow; 3]) {
    let s = Structures {
        stack: Stack2D::builder().for_threads(HANDLES).seed(seed).build().expect("preset params"),
        queue: Queue2D::builder().for_threads(HANDLES).seed(seed).build().expect("preset params"),
        counter: Counter2D::builder()
            .for_threads(HANDLES)
            .seed(seed)
            .build()
            .expect("preset params"),
        batch: Stack2D::builder().for_threads(HANDLES).seed(seed).build().expect("preset params"),
    };
    let mut flows: [Flow; 3] = Default::default();
    prefill(&s.stack, 0xF0, &mut flows[0]);
    prefill(&s.queue, 0xF1, &mut flows[1]);
    prefill(&s.batch, 0xF2, &mut flows[2]);
    (s, flows)
}

fn prefill<S: RelaxedOps<u64>>(s: &S, source: u64, flow: &mut Flow) {
    let mut h = s.ops_handle();
    for seq in 0..PREFILL {
        let v = tag(source, seq);
        h.produce(v);
        flow.produced.add(v);
    }
}

/// One structure's phase: its handles' generator state and what its
/// parts measured.
struct Phase {
    kind: Kind,
    rng: Rng,
    /// Value source (top byte) and the next sequence number.
    source: u64,
    seq: u64,
    calls: u64,
    /// Elements per second of load-CPU time in each slice.
    rates: Vec<f64>,
    /// Latency samples (ns) per slice.
    lat: Vec<Vec<u64>>,
    flow: Flow,
}

impl Phase {
    fn new(i: usize, seed: u64) -> Self {
        let source = 0x10 * (i as u64 + 1);
        Phase {
            kind: KINDS[i],
            rng: Rng::new(seed ^ (source << 8)),
            source,
            seq: 0,
            calls: 0,
            rates: Vec::new(),
            lat: Vec::new(),
            flow: Flow::default(),
        }
    }

    /// One call on one of the two handles; returns the span name and
    /// the elements it moved.
    #[inline]
    fn call<H: OpsHandle<u64>>(&mut self, hs: &mut [H; HANDLES]) -> (&'static str, u64) {
        let r = self.rng.next_u64();
        let h = &mut hs[(r >> 1) as usize % HANDLES];
        let produce = self.kind == Kind::Increment || r & 1 == 0;
        match (self.kind, produce) {
            (Kind::Batch, true) => {
                let vals: Vec<u64> =
                    (self.seq..self.seq + BATCH as u64).map(|i| tag(self.source, i)).collect();
                self.seq += BATCH as u64;
                vals.iter().for_each(|&v| self.flow.produced.add(v));
                h.produce_n(vals);
                ("core.produce_n", BATCH as u64)
            }
            (Kind::Batch, false) => {
                for v in h.consume_n(BATCH) {
                    self.flow.consumed.add(v);
                }
                ("core.consume_n", BATCH as u64)
            }
            (_, true) => {
                let v = tag(self.source, self.seq);
                self.seq += 1;
                h.produce(v);
                self.flow.produced.add(v);
                ("core.produce", 1)
            }
            (_, false) => {
                if let Some(v) = h.consume() {
                    self.flow.consumed.add(v);
                }
                ("core.consume", 1)
            }
        }
    }

    /// One part: a warm-up, then `SLICES` slices of `slice` each.
    fn part<H: OpsHandle<u64>>(
        &mut self,
        hs: &mut [H; HANDLES],
        slice: Duration,
        mut tracer: Option<&mut Tracer>,
    ) {
        for k in 0..=SLICES {
            let clock = LoadClock::start(&[0]);
            let until = Instant::now() + if k == 0 { WARMUP } else { slice };
            let mut lat = Thinned::new(LAT_EVERY, LAT_CAP);
            let mut elems = 0u64;
            loop {
                for _ in 0..CLOCK_EVERY {
                    self.calls += 1;
                    let timed = lat.due();
                    let spanned = self.calls.is_multiple_of(SPAN_EVERY);
                    let s0 = tracer.as_ref().filter(|_| spanned).map(|t| t.now());
                    let l0 = timed.then(Instant::now);
                    let (name, n) = self.call(hs);
                    if let Some(l0) = l0 {
                        lat.keep(l0.elapsed().as_nanos() as u64);
                    }
                    if let (Some(t), Some(s0)) = (tracer.as_deref_mut(), s0) {
                        t.leaf(name, self.calls, 0, s0);
                    }
                    elems += n;
                }
                if Instant::now() >= until {
                    break;
                }
            }
            if k > 0 {
                self.rates.push(elems as f64 / clock.secs());
                self.lat.push(lat.kept);
            }
        }
    }
}

/// Adds the counters the per-layer ratios use.
fn add_metrics(a: &mut MetricsSnapshot, b: &MetricsSnapshot) {
    a.ops += b.ops;
    a.probes += b.probes;
    a.cas_failures += b.cas_failures;
    a.search_rounds += b.search_rounds;
    a.global_restarts += b.global_restarts;
    a.empty_pops += b.empty_pops;
}

/// Two seeded handles on `s`.
fn handles<S: RelaxedOps<u64>>(s: &S, seed: u64) -> [S::Handle<'_>; HANDLES] {
    std::array::from_fn(|i| s.ops_handle_seeded(seed ^ (0xA0 + i as u64)))
}

/// Runs the stack, queue, counter and batch phases round-robin for
/// `ROUNDS` rounds on the calling thread.
fn phases(s: &Structures, cfg: Cfg, tracer: &mut Option<Tracer>) -> [Phase; 4] {
    let slice = Duration::from_secs_f64(cfg.seconds * PHASE_SHARE / (ROUNDS * SLICES) as f64);
    let mut out: [Phase; 4] = std::array::from_fn(|i| Phase::new(i, cfg.seed));
    let mut stack = handles(&s.stack, cfg.seed);
    let mut queue = handles(&s.queue, cfg.seed);
    let mut counter = handles(&s.counter, cfg.seed);
    let mut batch = handles(&s.batch, cfg.seed);
    let [p0, p1, p2, p3] = &mut out;
    for _ in 0..ROUNDS {
        p0.part(&mut stack, slice, tracer.as_mut());
        p1.part(&mut queue, slice, tracer.as_mut());
        p2.part(&mut counter, slice, tracer.as_mut());
        p3.part(&mut batch, slice, tracer.as_mut());
    }
    out
}

/// Consumes until empty and records what was left as resident.
fn drain<S: RelaxedOps<u64>>(s: &S, flow: &mut Flow) {
    let mut h = s.ops_handle();
    while let Some(v) = h.consume() {
        flow.resident.add(v);
    }
}

/// Mean rank error of the deterministic oracle passes, with a violation
/// for any error above the structure's bound: `(stack, queue)`.
pub fn rank_errors(seed: u64, violations: &mut Vec<String>) -> (f64, f64) {
    let stack: Stack2D<u64> =
        Stack2D::builder().for_threads(HANDLES).seed(seed).build().expect("preset params");
    let queue: Queue2D<u64> =
        Queue2D::builder().for_threads(HANDLES).seed(seed).build().expect("preset params");
    let mut lifo = Oracle::new();
    let s = rank_pass(&stack, stack.k_bound(), seed, "stack", violations, |push, label| {
        if push {
            lifo.insert(label);
            Some(0)
        } else {
            lifo.delete(label)
        }
    });
    let mut fifo = FifoOracle::new();
    let q = rank_pass(&queue, queue.k_bound(), seed, "queue", violations, |push, label| {
        if push {
            fifo.insert(label);
            Some(0)
        } else {
            fifo.delete(label)
        }
    });
    (s, q)
}

fn rank_pass<S: RelaxedOps<u64>>(
    s: &S,
    k_bound: usize,
    seed: u64,
    what: &str,
    violations: &mut Vec<String>,
    // The oracle: `(true, label)` inserts, `(false, label)` deletes and
    // returns the label's rank error.
    mut oracle: impl FnMut(bool, u64) -> Option<u32>,
) -> f64 {
    let mut hs = [
        s.ops_handle_seeded(seed.wrapping_mul(2) | 1),
        s.ops_handle_seeded(seed.wrapping_mul(2) + 2),
    ];
    let mut rng = Rng::new(seed ^ 0xA11CE);
    let (mut live, mut label, mut sum, mut pops, mut worst) = (0u64, 0u64, 0u64, 0u64, 0u32);
    for i in 0..RANK_OPS {
        let h = &mut hs[(rng.next_u64() & 1) as usize];
        // A 1024-item warm-up, then 50/50.
        if i < 1024 || live == 0 || rng.next_u64() & 1 == 0 {
            h.produce(label);
            oracle(true, label);
            label += 1;
            live += 1;
        } else if let Some(v) = h.consume() {
            live -= 1;
            match oracle(false, v) {
                Some(d) => {
                    sum += u64::from(d);
                    pops += 1;
                    worst = worst.max(d);
                }
                None => violations.push(format!("{what} rank pass: popped unknown label {v}")),
            }
        }
    }
    if worst as usize > k_bound {
        violations.push(format!("{what} rank error {worst} exceeds k_bound {k_bound}"));
    }
    println!(
        "  {what}_rank_error: mean {:.4} max {worst} (k_bound {k_bound}, {pops} pops)",
        sum as f64 / pops.max(1) as f64
    );
    sum as f64 / pops.max(1) as f64
}

pub fn run(cfg: Cfg) -> Outcome {
    let mut out = Outcome::default();
    let epoch = Instant::now();
    affinity::pin(0, LOAD_CPU);

    let mut setups = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let (b, secs) = setup_secs(|| build(cfg.seed));
        built = Some(b);
        setups.push(secs);
    }
    let (s, mut flows) = built.expect("at least one setup");
    out.set("setup_s", stats::median(&setups));
    out.note(format!(
        "setup_s {:.6}: median of {SETUPS} set-ups {setups:.4?}",
        stats::median(&setups)
    ));

    let metrics = || [s.stack.metrics(), s.queue.metrics(), s.counter.metrics(), s.batch.metrics()];
    let before = metrics();
    let mut tracer = cfg.traced.then(|| Tracer::new(epoch));
    let [stack, queue, counter, batch] = phases(&s, cfg, &mut tracer);
    let after = metrics();

    let mut rates = Vec::new();
    for (name, p) in [
        ("stack_ops_per_s", &stack),
        ("queue_ops_per_s", &queue),
        ("counter_ops_per_s", &counter),
        ("core.batch8_elems_per_s", &batch),
    ] {
        let m = stats::sustained_rate(&p.rates);
        rates.push(m);
        out.set(name, m);
        out.note(format!(
            "{name} {m:.0}: lower quartile of slices {:?}",
            p.rates.iter().map(|r| *r as u64).collect::<Vec<_>>()
        ));
    }
    out.set("ops_per_s", rates.iter().sum::<f64>() / rates.len() as f64);
    // Slice k pools slice k of each single-op phase, so every slice
    // samples the same mix of structures.
    let lat: Vec<Vec<u64>> = (0..stack.lat.len())
        .map(|k| {
            let pooled: Vec<u64> =
                [&stack, &queue, &counter].iter().flat_map(|p| p.lat[k].iter().copied()).collect();
            let step = pooled.len().div_ceil(LAT_SAMPLES).max(1);
            pooled.into_iter().step_by(step).collect()
        })
        .collect();
    let (p50, tail) = out.latency(&lat, "per-op latency (single-op phases pooled, evenly thinned)");
    out.set("p50_us", p50);
    out.set("tail_us", tail);

    // Output checks: push - pop = len() before the drain, and conservation
    // of every item after it.
    for ((what, p, len), flow) in [
        ("stack", &stack, s.stack.len()),
        ("queue", &queue, s.queue.len()),
        ("batch stack", &batch, s.batch.len()),
    ]
    .into_iter()
    .zip(flows.iter_mut())
    {
        flow.merge(&p.flow);
        let expect = flow.produced.count - flow.consumed.count;
        if len as u64 != expect {
            out.violations.push(format!("{what}: len() {len} but pushed - popped = {expect}"));
        }
        out.attempted += p.flow.produced.count + p.flow.consumed.count;
    }
    drain(&s.stack, &mut flows[0]);
    drain(&s.queue, &mut flows[1]);
    drain(&s.batch, &mut flows[2]);
    for (what, flow) in ["stack", "queue", "batch stack"].iter().zip(&flows) {
        flow.check(what, &mut out.violations);
    }
    let increments = counter.flow.produced.count;
    out.attempted += increments;
    if s.counter.value() as u64 != increments {
        out.violations
            .push(format!("counter: value() {} after {increments} increments", s.counter.value()));
    }

    // Before the rank pass, which builds structures of its own.
    out.set("peak_rss_mb", peak_rss_mb());
    let (sr, qr) = rank_errors(cfg.seed, &mut out.violations);
    out.set("stack_rank_error_mean", sr);
    out.set("queue_rank_error_mean", qr);

    if let Some(tracer) = tracer {
        let mut total = MetricsSnapshot::default();
        for (a, b) in after.iter().zip(&before) {
            add_metrics(&mut total, &a.delta_since(b));
        }
        let per = |x: u64| x as f64 / total.ops.max(1) as f64;
        out.set("core.probes_per_op", per(total.probes));
        out.set("core.cas_failures_per_op", per(total.cas_failures));
        out.set("core.search_rounds_per_op", per(total.search_rounds));
        out.set("core.global_restarts_per_op", per(total.global_restarts));
        out.set("core.empty_pop_share", per(total.empty_pops));
        out.set(
            "core.cas_success_ratio",
            total.ops as f64 / (total.ops + total.cas_failures).max(1) as f64,
        );
        for (metric, span) in [
            ("core.produce_ns", "core.produce"),
            ("core.consume_ns", "core.consume"),
            ("core.produce_n_ns", "core.produce_n"),
            ("core.consume_n_ns", "core.consume_n"),
        ] {
            let (n, mean) = tracer.mean(span);
            out.set(metric, mean);
            out.note(format!("{metric} {mean:.1} over {n} sampled spans"));
        }
        out.tracer = Some(tracer);
    }
    out
}

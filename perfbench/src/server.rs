//! `server_pipelined`: TCP loopback to an in-process relaxed2d server
//! with the shipped default configuration, one connection driven from
//! the calling thread.
//!
//! A run sets the server up (spawn, connect, create the tenants,
//! prefill), then alternates closed-loop parts, for throughput and
//! round-trip latency, with open-loop parts at one fixed rate, for the
//! latency from the due time. At the end every tenant is drained over the
//! wire and checked for conservation, and further set-ups are timed. The
//! traced run also replays the workload's seeded frames through the
//! server's public layer functions to time the server side.
//!
//! The client and the server thread serving its connection share one CPU,
//! so a request hands over between them without waking an idle CPU, and
//! the structures see no cross-CPU traffic. With two connections on the
//! two CPUs of a shared VM, runs of the same code read up to 50% apart.

use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use relaxed2d_server::frame::{read_frame, write_frame};
use relaxed2d_server::protocol::{
    decode_request_batch, decode_response_batch, encode_request_batch, encode_response_batch,
};
use relaxed2d_server::tenant::{Tenant, TenantMap};
use relaxed2d_server::{
    ErrorCode, FrameEvent, Personality, Request, Response, Server, ServerConfig, ServerHandle,
    TenantConfig, DEFAULT_MAX_FRAME_LEN,
};
use stack2d::OpsHandle;

use crate::affinity;
use crate::check::{align, Flow};
use crate::clock::{setup_secs, LoadClock};
use crate::context::peak_rss_mb;
use crate::inproc::rank_errors;
use crate::openloop::{pace, Sample};
use crate::stats::{self, Thinned};
use crate::trace::Tracer;
use crate::{Cfg, Outcome, Rng, HELPER_CPU, LOAD_CPU};

const SETUPS: usize = 15;
/// The closed-loop and open-loop phases alternate for `ROUNDS` rounds,
/// so that both sample the whole run rather than one stretch of a shared
/// host's drift.
const ROUNDS: usize = 5;
/// Throughput slices of each closed-loop part, and the warm-up before
/// them: after an open-loop part the tenants' controllers retune to the
/// higher load.
const SLICES: usize = 4;
const CLOSED_WARMUP: Duration = Duration::from_millis(500);
/// Closed-loop traffic after set-up before the first round.
const START_WARMUP: Duration = Duration::from_secs(1);
/// Shares of the run's seconds the closed-loop and open-loop parts get.
const CLOSED_SHARE: f64 = 0.65;
const OPEN_SHARE: f64 = 0.25;
/// Round trips kept per closed-loop slice, evenly thinned, and requests
/// per open-loop latency slice. Under 1000, so a slice's tail is its p90:
/// on a shared VM the hypervisor takes the load CPU away dozens of times
/// a second (2-12% of the time on the VM this was tuned on), which
/// touches about 1% of the round trips, so a p99 would read the host
/// rather than the program.
const RTT_CAP: usize = 1000;
const SLICE_SAMPLES: usize = 900;
/// Requests per frame, and the same-verb run length in it.
const DEPTH: usize = 32;
const RUN: usize = 8;
const ZIPF_S: f64 = 0.9;
const ACQUIRE_COST: u32 = 4;
/// Every this many limiter frames ends with a `Reset`.
const RESET_EVERY: u64 = 64;
/// Rate-limiter allowance; decisions are not the point here.
const LIMIT: u64 = 1 << 40;
/// Items each queue/pool tenant holds after set-up.
const PREFILL: u64 = 16_384;
/// Frames replayed through the server layers in the traced run.
const REPLAY_FRAMES: u64 = 20_000;
/// A client read waits at most this many 1 s timeouts for an answer.
const READ_PATIENCE: u32 = 30;
/// Fixed open-loop rate (frames per second), set once from the
/// closed-loop capacity measured on a 2-core VM (about 20k frames/s on
/// one connection): near a quarter of it, where latency is service time
/// rather than queueing.
const RATE: f64 = 5_000.0;

const TENANTS: [(Personality, &str); 6] = [
    (Personality::TaskQueue, "q0"),
    (Personality::ObjectPool, "p0"),
    (Personality::RateLimiter, "r0"),
    (Personality::TaskQueue, "q1"),
    (Personality::ObjectPool, "p1"),
    (Personality::RateLimiter, "r1"),
];

/// Index of the structure behind a personality: stack, queue, counter.
fn structure(p: Personality) -> usize {
    match p {
        Personality::ObjectPool => 0,
        Personality::TaskQueue => 1,
        Personality::RateLimiter => 2,
    }
}

/// One frame's requests, all against one tenant.
struct Frame {
    tenant: usize,
    reqs: Vec<Request>,
}

/// The seeded request generator: 32 requests per frame against one
/// tenant, drawn zipf(0.9) over six.
struct Gen {
    rng: Rng,
    zipf_cdf: Vec<f64>,
    seq: u64,
    frames: u64,
    limiter_frames: u64,
}

impl Gen {
    fn new(seed: u64) -> Self {
        let weights: Vec<f64> =
            (1..=TENANTS.len()).map(|k| 1.0 / (k as f64).powf(ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        let zipf_cdf = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect();
        Gen { rng: Rng::new(seed ^ 0xC0), zipf_cdf, seq: 0, frames: 0, limiter_frames: 0 }
    }

    /// A value no other producer makes: source 1 in the top byte.
    fn value(&mut self) -> u64 {
        self.seq += 1;
        (1 << 56) | self.seq
    }

    fn next(&mut self) -> Frame {
        self.frames += 1;
        let u = self.rng.unit();
        let tenant = self.zipf_cdf.iter().position(|&c| u < c).unwrap_or(0);
        let (p, name) = TENANTS[tenant];
        let reqs = if p == Personality::RateLimiter {
            self.limiter_frames += 1;
            let mut reqs: Vec<Request> = (0..DEPTH)
                .map(|_| Request::Acquire { tenant: name.into(), cost: ACQUIRE_COST })
                .collect();
            if self.limiter_frames.is_multiple_of(RESET_EVERY) {
                reqs[DEPTH - 1] = Request::Reset { tenant: name.into() };
            }
            reqs
        } else {
            // Two produce runs and two consume runs in seeded order.
            let mut verbs = [true, true, false, false];
            for i in (1..verbs.len()).rev() {
                verbs.swap(i, (self.rng.next_u64() % (i as u64 + 1)) as usize);
            }
            let mut reqs = Vec::with_capacity(DEPTH);
            for produce in verbs {
                for _ in 0..RUN {
                    reqs.push(if produce {
                        let value = self.value();
                        Request::Produce { personality: p, tenant: name.into(), value }
                    } else {
                        Request::Consume { personality: p, tenant: name.into() }
                    });
                }
            }
            reqs
        };
        Frame { tenant, reqs }
    }
}

/// One client connection, driven through the public frame and protocol
/// functions so each step can be timed.
struct Conn {
    w: TcpStream,
    r: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let w = TcpStream::connect(addr)?;
        w.set_nodelay(true)?;
        w.set_read_timeout(Some(Duration::from_secs(1)))?;
        let r = BufReader::new(w.try_clone()?);
        Ok(Conn { w, r })
    }

    /// Sends one frame and waits for its answer. With a tracer, records
    /// the frame's client spans under frame id `frame`.
    fn call(
        &mut self,
        reqs: &[Request],
        mut tr: Option<(&mut Tracer, u64)>,
    ) -> Result<(Vec<Response>, usize), String> {
        let root = tr.as_mut().map(|(t, _)| (t.id(), t.now()));
        let leaf = |tr: &mut Option<(&mut Tracer, u64)>, name, start: &mut u64| {
            if let (Some((t, f)), Some((id, _))) = (tr.as_mut(), root) {
                *start = t.leaf(name, *f, id, *start);
            }
        };
        let mut at = root.map_or(0, |(_, s)| s);
        let body = encode_request_batch(reqs);
        leaf(&mut tr, "client.encode", &mut at);
        write_frame(&mut self.w, &body).map_err(|e| format!("write: {e}"))?;
        leaf(&mut tr, "client.write", &mut at);
        let mut idle = 0;
        let resp = loop {
            match read_frame(&mut self.r, DEFAULT_MAX_FRAME_LEN) {
                Ok(FrameEvent::Frame(b)) => break b,
                Ok(FrameEvent::Idle) if idle < READ_PATIENCE => idle += 1,
                Ok(other) => return Err(format!("no answer: {other:?}")),
                Err(e) => return Err(format!("read: {e}")),
            }
        };
        leaf(&mut tr, "client.read", &mut at);
        let resps = decode_response_batch(&resp).map_err(|e| format!("decode: {e}"))?;
        leaf(&mut tr, "client.decode", &mut at);
        if let (Some((t, f)), Some((id, start))) = (tr, root) {
            t.record(id, "client.frame", f, 0, start);
        }
        Ok((resps, body.len()))
    }
}

/// The connection's accounting.
#[derive(Default)]
struct Tally {
    /// Item flow per tenant.
    flows: Vec<Flow>,
    /// Rate-limiter hits answered per tenant.
    hits: Vec<u64>,
    /// Requests and connection time per structure (stack, queue, counter).
    reqs_by: [u64; 3],
    ns_by: [u64; 3],
    attempted: u64,
    failed: u64,
    frames: u64,
    req_bytes: u64,
    violations: Vec<String>,
}

impl Tally {
    fn new() -> Self {
        Tally {
            flows: vec![Flow::default(); TENANTS.len()],
            hits: vec![0; TENANTS.len()],
            ..Tally::default()
        }
    }

    /// Checks one answered frame and books its items.
    fn settle(&mut self, f: &Frame, resps: &[Response]) {
        self.attempted += f.reqs.len() as u64;
        self.failed += align(&f.reqs, resps, &mut self.violations);
        for (req, resp) in f.reqs.iter().zip(resps) {
            match (req, resp) {
                (Request::Produce { value, .. }, Response::Done) => {
                    self.flows[f.tenant].produced.add(*value)
                }
                (Request::Consume { .. }, Response::Item { value }) => {
                    self.flows[f.tenant].consumed.add(*value)
                }
                (Request::Acquire { cost, .. }, Response::Decision { .. }) => {
                    self.hits[f.tenant] += u64::from(*cost)
                }
                _ => {}
            }
        }
    }

    /// Running totals a slice is the difference of: requests, then
    /// requests and connection nanoseconds per structure.
    fn totals(&self) -> [u64; 7] {
        let [r0, r1, r2] = self.reqs_by;
        let [n0, n1, n2] = self.ns_by;
        [self.attempted, r0, r1, r2, n0, n1, n2]
    }
}

/// Sends one generated frame on `conn` and settles it into `tally`;
/// returns its round trip in ns, or `None` when it failed.
fn exchange(
    conn: &mut Conn,
    gen: &mut Gen,
    tally: &mut Tally,
    tr: Option<&mut Tracer>,
) -> Option<u64> {
    let f = gen.next();
    let t0 = Instant::now();
    let frame_id = gen.frames;
    match conn.call(&f.reqs, tr.map(|t| (t, frame_id))) {
        Ok((resps, bytes)) => {
            let rtt = t0.elapsed().as_nanos() as u64;
            let s = structure(TENANTS[f.tenant].0);
            tally.reqs_by[s] += f.reqs.len() as u64;
            tally.ns_by[s] += rtt;
            tally.frames += 1;
            tally.req_bytes += bytes as u64;
            tally.settle(&f, &resps);
            Some(rtt)
        }
        Err(e) => {
            tally.attempted += f.reqs.len() as u64;
            tally.failed += f.reqs.len() as u64;
            tally.violations.push(format!("frame {frame_id}: {e}"));
            None
        }
    }
}

struct Setup {
    server: ServerHandle,
    conn: Conn,
    /// Thread id of the server thread serving `conn`.
    tid: i32,
    tally: Tally,
}

/// Spawns the server, connects, creates the tenants and prefills them.
/// The server's acceptor, and the tenant controllers its connection
/// thread spawns, stay on the helper CPU; the connection thread then
/// moves to the load CPU, next to the calling thread.
fn setup() -> Result<Setup, String> {
    affinity::pin(0, HELPER_CPU);
    let server = Server::spawn(ServerConfig::default()).map_err(|e| format!("spawn: {e}"))?;
    let addr = server.local_addr();
    // The server spawns one thread per accepted connection; find it.
    let before = affinity::threads();
    let mut conn = Conn::open(addr).map_err(|e| format!("connect: {e}"))?;
    let tid = affinity::new_thread(&before, Duration::from_secs(2))
        .ok_or("no server thread for the connection")?;
    let mut tally = Tally::new();
    let create: Vec<Request> = TENANTS
        .iter()
        .map(|&(personality, name)| Request::Create {
            personality,
            tenant: name.into(),
            limit: LIMIT,
        })
        .collect();
    let (resps, _) = conn.call(&create, None)?;
    if resps.iter().any(|r| *r != Response::Created { fresh: true }) {
        return Err(format!("tenant creation answered {resps:?}"));
    }
    affinity::pin(tid, LOAD_CPU);
    affinity::pin(0, LOAD_CPU);
    let mut seq = 0;
    for (t, &(personality, name)) in TENANTS.iter().enumerate() {
        if personality == Personality::RateLimiter {
            continue;
        }
        for _ in 0..PREFILL / DEPTH as u64 {
            let reqs: Vec<Request> = (0..DEPTH)
                .map(|_| {
                    seq += 1;
                    Request::Produce { personality, tenant: name.into(), value: (0xF0 << 56) | seq }
                })
                .collect();
            let f = Frame { tenant: t, reqs };
            let (resps, _) = conn.call(&f.reqs, None)?;
            tally.settle(&f, &resps);
        }
    }
    Ok(Setup { server, conn, tid, tally })
}

/// Sends frames back to back until `until`, sampling their round trips
/// into `rtts`; false after a failed frame.
fn run_until(
    conn: &mut Conn,
    gen: &mut Gen,
    tally: &mut Tally,
    until: Instant,
    mut rtts: Option<&mut Thinned>,
    mut tracer: Option<&mut Tracer>,
) -> bool {
    while Instant::now() < until {
        let Some(rtt) = exchange(conn, gen, tally, tracer.as_deref_mut()) else {
            return false;
        };
        if let Some(r) = rtts.as_deref_mut() {
            if r.due() {
                r.keep(rtt);
            }
        }
    }
    true
}

/// One closed-loop part: a warm-up, then `SLICES` slices over `secs`.
/// Per slice: requests per second of load-CPU time (see `LoadClock`),
/// and per structure the requests per second of connection time spent on
/// its frames. Also returns each slice's sample of round trips.
fn closed(
    conn: &mut Conn,
    gen: &mut Gen,
    tally: &mut Tally,
    tids: &[i32],
    secs: f64,
    mut tracer: Option<&mut Tracer>,
) -> (Vec<[f64; 4]>, Vec<Vec<u64>>) {
    let slice = Duration::from_secs_f64(secs / SLICES as f64);
    let mut rates = Vec::with_capacity(SLICES);
    let mut rtts = Vec::with_capacity(SLICES);
    let warm = Instant::now() + CLOSED_WARMUP;
    if !run_until(conn, gen, tally, warm, None, tracer.as_deref_mut()) {
        return (rates, rtts);
    }
    for _ in 0..SLICES {
        let (t0, clock, a) = (Instant::now(), LoadClock::start(tids), tally.totals());
        let mut sample = Thinned::new(1, RTT_CAP);
        if !run_until(conn, gen, tally, t0 + slice, Some(&mut sample), tracer.as_deref_mut()) {
            break;
        }
        rtts.push(sample.kept);
        let (wall, secs, b) = (t0.elapsed().as_secs_f64(), clock.secs(), tally.totals());
        let d: [f64; 7] = std::array::from_fn(|i| (b[i] - a[i]) as f64);
        // Frame times are wall time: scale them by the slice's share of
        // load-CPU time. NaN marks a slice without frames of that structure.
        let per = |s: usize| d[1 + s] / (d[4 + s] / 1e9) * (wall / secs);
        rates.push([d[0] / secs, per(0), per(1), per(2)]);
    }
    (rates, rtts)
}

/// The open-loop phase at `RATE` frames/s.
fn open(
    conn: &mut Conn,
    gen: &mut Gen,
    tally: &mut Tally,
    secs: f64,
    mut tracer: Option<&mut Tracer>,
) -> Vec<Sample> {
    let start = Instant::now() + Duration::from_millis(1);
    let until = start + Duration::from_secs_f64(secs);
    pace(start, Duration::from_secs_f64(1.0 / RATE), until, |_| {
        exchange(conn, gen, tally, tracer.as_deref_mut()).is_some()
    })
}

/// Latencies in consecutive slices of `SLICE_SAMPLES` requests, in due
/// order, after a warm-up of a fifth of the phase (at most 1 s); a short
/// remainder is dropped. The warm-up leaves out the transient that
/// follows a change of load, while the tenants' controllers retune.
fn by_slice(samples: &[Sample], secs: f64) -> Vec<Vec<u64>> {
    let warm = (secs * 0.2).min(1.0) * 1e9;
    let start = samples.partition_point(|s| (s.due_ns as f64) < warm);
    samples[start..]
        .chunks_exact(SLICE_SAMPLES)
        .map(|c| c.iter().map(|s| s.latency_ns).collect())
        .collect()
}

/// Reads every tenant's `Stats`, checks rate-limiter hit conservation and
/// drains queue/pool tenants, checking item conservation.
fn finish(conn: &mut Conn, tally: &mut Tally, out: &mut Outcome) {
    let tenants = &TENANTS;
    let stats: Vec<Request> = tenants
        .iter()
        .map(|&(personality, name)| Request::Stats { personality, tenant: name.into() })
        .collect();
    let (mut retunes, mut k_final) = (0u64, 0u64);
    match conn.call(&stats, None) {
        Ok((resps, _)) => {
            let f = Frame { tenant: 0, reqs: stats };
            align(&f.reqs, &resps, &mut out.violations);
            for (t, r) in resps.iter().enumerate() {
                if let Response::Stats { width, depth, ops, retunes: rt, k_bound, .. } = r {
                    out.note(format!(
                        "{}: {ops} ops, {rt} retunes, final width {width} depth {depth} k_bound {k_bound}",
                        tenants[t].1
                    ));
                    retunes += rt;
                    k_final = k_final.max(*k_bound);
                    if tenants[t].0 == Personality::RateLimiter && *ops != tally.hits[t] {
                        out.violations.push(format!(
                            "{}: counter saw {ops} hits, clients sent {}",
                            tenants[t].1, tally.hits[t]
                        ));
                    }
                }
            }
        }
        Err(e) => out.violations.push(format!("stats: {e}")),
    }
    out.set("adaptive.retunes", retunes as f64);
    out.set("adaptive.k_bound_final", k_final as f64);

    for (t, &(personality, name)) in tenants.iter().enumerate() {
        if personality == Personality::RateLimiter {
            continue;
        }
        let reqs: Vec<Request> =
            (0..DEPTH).map(|_| Request::Consume { personality, tenant: name.into() }).collect();
        loop {
            match conn.call(&reqs, None) {
                Ok((resps, _)) => {
                    align(&reqs, &resps, &mut out.violations);
                    let mut got = 0;
                    for r in &resps {
                        if let Response::Item { value } = r {
                            tally.flows[t].resident.add(*value);
                            got += 1;
                        }
                    }
                    if got == 0 {
                        break;
                    }
                }
                Err(e) => {
                    out.violations.push(format!("drain {name}: {e}"));
                    break;
                }
            }
        }
        tally.flows[t].check(name, &mut out.violations);
    }
}

/// The server's request path replayed in-process, in the order the
/// connection loop calls it: decode, resolve every request, run coalesced
/// same-tenant runs through one handle per tenant, decide, encode.
fn replay(seed: u64, frames: u64, tracer: &mut Tracer, out: &mut Outcome) {
    let map = TenantMap::new(TenantConfig::default(), None);
    for (i, &(p, name)) in TENANTS.iter().enumerate() {
        let (t, _) = map.get_or_create(p, name, LIMIT).expect("fresh tenant map has room");
        if t.supports_ops() {
            let base = (0xF0u64 << 56) | ((i as u64) << 32);
            t.ops_handle(0).produce_n((0..PREFILL).map(|s| base | s).collect());
        }
    }
    let mut gen = Gen::new(seed);
    for frame in 1..=frames {
        let f = gen.next();
        let body = encode_request_batch(&f.reqs);
        let root = tracer.id();
        let start = tracer.now();
        let reqs = match decode_request_batch(&body) {
            Ok(r) => r,
            Err(e) => {
                out.violations.push(format!("replay decode: {e}"));
                return;
            }
        };
        tracer.leaf("protocol.decode", frame, root, start);
        let mut slots: Vec<Option<Arc<Tenant>>> = Vec::with_capacity(reqs.len());
        for req in &reqs {
            let s = tracer.now();
            let t = match req {
                Request::Produce { personality, tenant, .. }
                | Request::Consume { personality, tenant } => map.get(*personality, tenant),
                Request::Acquire { tenant, .. } => map.get(Personality::RateLimiter, tenant),
                Request::Reset { tenant } => {
                    map.get(Personality::RateLimiter, tenant).filter(|t| t.limiter_reset())
                }
                _ => None,
            };
            tracer.leaf("tenant.get", frame, root, s);
            slots.push(t);
        }
        let mut handles: Vec<(*const Tenant, Box<dyn OpsHandle<u64> + '_>)> = Vec::new();
        let mut resps = Vec::with_capacity(reqs.len());
        let mut i = 0;
        while i < reqs.len() {
            let Some(t) = slots[i].as_ref() else {
                resps.push(Response::Error {
                    code: ErrorCode::UnknownTenant,
                    detail: String::new(),
                });
                i += 1;
                continue;
            };
            if matches!(reqs[i], Request::Reset { .. }) {
                resps.push(Response::Done);
                i += 1;
                continue;
            }
            let key = Arc::as_ptr(t);
            let h = match handles.iter().position(|(k, _)| *k == key) {
                Some(pos) => pos,
                None => {
                    let s = tracer.now();
                    handles.push((key, t.ops_handle(frame)));
                    tracer.leaf("tenant.ops_handle", frame, root, s);
                    handles.len() - 1
                }
            };
            let same = |j: usize, produce: bool| {
                slots[j].as_ref().is_some_and(|n| Arc::ptr_eq(n, t))
                    && matches!(
                        (&reqs[j], produce),
                        (Request::Produce { .. }, true) | (Request::Consume { .. }, false)
                    )
            };
            match &reqs[i] {
                Request::Produce { .. } => {
                    let n = (i..reqs.len()).take_while(|&j| same(j, true)).count();
                    let vals: Vec<u64> = reqs[i..i + n]
                        .iter()
                        .map(|r| if let Request::Produce { value, .. } = r { *value } else { 0 })
                        .collect();
                    let s = tracer.now();
                    handles[h].1.produce_n(vals);
                    tracer.leaf("core.produce_n", frame, root, s);
                    resps.extend(std::iter::repeat_n(Response::Done, n));
                    i += n;
                }
                Request::Consume { .. } => {
                    let n = (i..reqs.len()).take_while(|&j| same(j, false)).count();
                    let s = tracer.now();
                    let got = handles[h].1.consume_n(n);
                    tracer.leaf("core.consume_n", frame, root, s);
                    let misses = n - got.len();
                    resps.extend(got.into_iter().map(|value| Response::Item { value }));
                    resps.extend(std::iter::repeat_n(Response::Empty, misses));
                    i += n;
                }
                Request::Acquire { cost, .. } => {
                    for _ in 0..*cost {
                        let s = tracer.now();
                        handles[h].1.produce(1);
                        tracer.leaf("core.produce", frame, root, s);
                    }
                    let s = tracer.now();
                    let d = t.limiter_decision();
                    tracer.leaf("tenant.limiter_decision", frame, root, s);
                    resps.push(d.unwrap_or(Response::Empty));
                    i += 1;
                }
                _ => i += 1,
            }
        }
        let s = tracer.now();
        let body = encode_response_batch(&resps);
        std::hint::black_box(&body);
        tracer.leaf("protocol.encode", frame, root, s);
        let s = tracer.now();
        drop(handles);
        tracer.leaf("tenant.ops_handle_drop", frame, root, s);
        tracer.record(root, "server.frame", frame, 0, start);
        align(&f.reqs, &resps, &mut out.violations);
    }
}

/// Times `SETUPS - 1` more set-ups, each shut down at once, after the
/// measured one: run before it, the servers they leave behind would make
/// the measured process's memory depend on how the allocator placed them.
/// Sets `setup_s` to the median of all of them.
fn more_setups(mut times: Vec<f64>, out: &mut Outcome) {
    while times.len() < SETUPS {
        match setup_secs(setup) {
            (Ok(Setup { server, conn, .. }), secs) => {
                times.push(secs);
                drop(conn);
                if let Err(e) = server.shutdown() {
                    out.violations.push(format!("shutdown: {e}"));
                }
            }
            (Err(e), _) => {
                out.violations.push(format!("setup: {e}"));
                break;
            }
        }
    }
    out.set("setup_s", stats::median(&times));
    out.note(format!(
        "setup_s {:.6}: median of {} set-ups {times:.4?}",
        stats::median(&times),
        times.len()
    ));
}

pub fn run(cfg: Cfg) -> Outcome {
    let mut out = Outcome::default();
    let epoch = Instant::now();
    let (Setup { server, mut conn, tid, mut tally }, secs) = match setup_secs(setup) {
        (Ok(s), secs) => (s, secs),
        (Err(e), _) => {
            out.violations.push(format!("setup: {e}"));
            return out;
        }
    };
    let setup_times = vec![secs];
    // The load threads: this one and the server thread serving it.
    let tids = [0, tid];
    let mut gen = Gen::new(cfg.seed);
    let mut tracer = cfg.traced.then(|| Tracer::new(epoch));

    let warm = Instant::now() + START_WARMUP;
    run_until(&mut conn, &mut gen, &mut tally, warm, None, tracer.as_mut());
    let closed_secs = cfg.seconds * CLOSED_SHARE / ROUNDS as f64;
    let open_secs = cfg.seconds * OPEN_SHARE / ROUNDS as f64;
    let (mut rates, mut rtts, mut lat, mut lags) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let (r, t) = closed(&mut conn, &mut gen, &mut tally, &tids, closed_secs, tracer.as_mut());
        rates.extend(r);
        rtts.extend(t);
        let samples = open(&mut conn, &mut gen, &mut tally, open_secs, tracer.as_mut());
        lat.extend(by_slice(&samples, open_secs));
        lags.extend(samples.iter().map(|s| s.lag_ns));
    }
    let replay_frames = tally.frames.min(REPLAY_FRAMES);
    for (k, name) in ["ops_per_s", "stack_ops_per_s", "queue_ops_per_s", "counter_ops_per_s"]
        .into_iter()
        .enumerate()
    {
        let slices: Vec<f64> = rates.iter().map(|r| r[k]).filter(|r| r.is_finite()).collect();
        let m = stats::sustained_rate(&slices);
        out.set(name, m);
        out.note(format!(
            "{name} {m:.0}: closed loop, lower quartile of slices {:?}",
            slices.iter().map(|r| *r as u64).collect::<Vec<_>>()
        ));
    }
    let (p50, tail) = out.latency(&rtts, "closed-loop round trips");
    out.set("p50_us", p50);
    out.set("tail_us", tail);
    let (p50, tail) =
        out.latency(&lat, &format!("open loop at {RATE} frames/s, from the due time"));
    out.set("gen.open_p50_us", p50);
    out.set("gen.open_tail_us", tail);
    lags.sort_unstable();
    out.set("gen.lag_p99_us", stats::percentile(&lags, 99.0) as f64 / 1e3);

    finish(&mut conn, &mut tally, &mut out);
    out.attempted += tally.attempted;
    out.failed += tally.failed;
    out.violations.append(&mut tally.violations);
    drop(conn);
    if let Err(e) = server.shutdown() {
        out.violations.push(format!("shutdown: {e}"));
    }

    // Before the further set-ups and the rank pass, which builds
    // structures of its own.
    out.set("peak_rss_mb", peak_rss_mb());
    more_setups(setup_times, &mut out);
    let (sr, qr) = rank_errors(cfg.seed, &mut out.violations);
    out.set("stack_rank_error_mean", sr);
    out.set("queue_rank_error_mean", qr);

    if let Some(mut tr) = tracer {
        out.set("protocol.req_bytes", tally.req_bytes as f64 / tally.frames.max(1) as f64);
        replay(cfg.seed, replay_frames, &mut tr, &mut out);
        let mean = |n: &str| tr.mean(n).1;
        for (metric, span) in [
            ("client.encode_ns", "client.encode"),
            ("client.write_ns", "client.write"),
            ("client.read_ns", "client.read"),
            ("client.decode_ns", "client.decode"),
            ("protocol.decode_ns", "protocol.decode"),
            ("protocol.encode_ns", "protocol.encode"),
            ("tenant.get_ns", "tenant.get"),
            ("tenant.limiter_decision_ns", "tenant.limiter_decision"),
            ("core.produce_ns", "core.produce"),
            ("core.produce_n_ns", "core.produce_n"),
            ("core.consume_n_ns", "core.consume_n"),
        ] {
            out.set(metric, mean(span));
        }
        out.set("tenant.ops_handle_ns", mean("tenant.ops_handle") + mean("tenant.ops_handle_drop"));
        let (frames, server_ns) = tr.mean("server.frame");
        out.set(
            "tenant.get_calls_per_frame",
            tr.mean("tenant.get").0 as f64 / frames.max(1) as f64,
        );
        out.set("transport.unexplained_ns", mean("client.read") - server_ns);
        out.note(format!(
            "replayed {frames} frames: server layers {server_ns:.0} ns/frame against client read {:.0} ns/frame",
            mean("client.read")
        ));
        out.tracer = Some(tr);
    }
    out
}

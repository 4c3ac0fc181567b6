//! The repository benchmark: end-to-end and per-layer numbers for the
//! in-process 2D structures and the relaxed2d TCP request path.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench steady --workload <name> --runs <n> --seconds <s> [--trace <0|1>] [--seed <first>]
//! ```
//!
//! A run prints human-readable lines, a `context:` line, and as its last
//! line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: every end-to-end metric with `--trace 0`, every per-layer
//! metric with `--trace 1`. It exits non-zero when an output check fails.
//! See `perfbench/README.md`.

mod affinity;
mod check;
mod clock;
mod context;
mod inproc;
mod openloop;
mod server;
mod stats;
mod steady;
mod trace;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// End-to-end metrics (name, unit); every workload reports each one.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("stack_ops_per_s", "1/s"),
    ("queue_ops_per_s", "1/s"),
    ("counter_ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("tail_us", "us"),
    ("stack_rank_error_mean", "items"),
    ("queue_rank_error_mean", "items"),
];

/// Per-layer metrics (name, unit) of the traced run. A layer a workload
/// does not exercise reads 0. `overhead.<e2e>` entries are appended.
pub const LAYERS: &[(&str, &str)] = &[
    ("core.produce_ns", "ns"),
    ("core.consume_ns", "ns"),
    ("core.produce_n_ns", "ns"),
    ("core.consume_n_ns", "ns"),
    ("core.probes_per_op", "count"),
    ("core.cas_failures_per_op", "count"),
    ("core.search_rounds_per_op", "count"),
    ("core.global_restarts_per_op", "count"),
    ("core.empty_pop_share", "ratio"),
    ("core.cas_success_ratio", "ratio"),
    ("core.batch8_elems_per_s", "1/s"),
    ("protocol.decode_ns", "ns"),
    ("protocol.encode_ns", "ns"),
    ("protocol.req_bytes", "bytes"),
    ("tenant.get_ns", "ns"),
    ("tenant.get_calls_per_frame", "count"),
    ("tenant.ops_handle_ns", "ns"),
    ("tenant.limiter_decision_ns", "ns"),
    ("adaptive.retunes", "count"),
    ("adaptive.k_bound_final", "items"),
    ("client.encode_ns", "ns"),
    ("client.write_ns", "ns"),
    ("client.read_ns", "ns"),
    ("client.decode_ns", "ns"),
    ("gen.lag_p99_us", "us"),
    ("gen.open_p50_us", "us"),
    ("gen.open_tail_us", "us"),
    ("transport.unexplained_ns", "ns"),
    ("canary.treiber_pair_ops_per_s", "1/s"),
];

pub const WORKLOADS: [&str; 2] = ["inproc_mix", "server_pipelined"];

/// Allowed-CPU slots (see `affinity`): the load, and with it the server
/// thread serving the connection, runs on `LOAD_CPU`; the server's
/// acceptor and tenant controllers run on `HELPER_CPU`.
pub const LOAD_CPU: usize = 1;
pub const HELPER_CPU: usize = 0;

/// One workload invocation's settings.
#[derive(Debug, Clone, Copy)]
pub struct Cfg {
    pub seed: u64,
    /// Measured time budget, split among the workload's phases.
    pub seconds: f64,
    pub traced: bool,
}

/// What one workload invocation measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub tracer: Option<trace::Tracer>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Prints a human-readable line.
    pub fn note(&self, line: impl AsRef<str>) {
        println!("  {}", line.as_ref());
    }

    /// The `(p50, tail)` in µs of latency samples (ns) cut into slices:
    /// the upper quartiles of the slices' p50s and of their tails.
    pub fn latency(&self, slices: &[Vec<u64>], what: &str) -> (f64, f64) {
        let per = stats::per_slice(slices);
        let p50s: Vec<f64> = per.iter().map(|(p50, _)| *p50 as f64 / 1e3).collect();
        let tails: Vec<f64> = per.iter().map(|(_, t)| t.value as f64 / 1e3).collect();
        let (p50, tail) = (stats::sustained_latency(&p50s), stats::sustained_latency(&tails));
        let shown: Vec<String> = tails.iter().map(|x| format!("{x:.1}")).collect();
        let first = per
            .first()
            .map_or(String::new(), |(_, t)| format!("p{} with {} samples beyond", t.pct, t.beyond));
        self.note(format!(
            "{what}: p50 {p50:.3} us, tail {tail:.3} us: upper quartiles over {} slices of {} samples \
             (first slice tail: {first}); slice tails: {}",
            per.len(),
            slices.first().map_or(0, Vec::len),
            shown.join(" ")
        ));
        (p50, tail)
    }
}

/// splitmix64: the benchmark's input generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn run_workload(name: &str, cfg: Cfg) -> Outcome {
    match name {
        "inproc_mix" => inproc::run(cfg),
        _ => server::run(cfg),
    }
}

/// The `metrics` object's members, in table order; a metric the run did
/// not measure (a layer the workload does not exercise) reads 0.
fn json_metrics(table: &[(String, &str)], values: &BTreeMap<String, f64>) -> String {
    let body: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().filter(|v| v.is_finite()).unwrap_or(0.0);
            format!(r#""{name}": {{"value": {v}, "unit": "{unit}"}}"#)
        })
        .collect();
    body.join(", ")
}

fn layer_table() -> Vec<(String, &'static str)> {
    let mut t: Vec<(String, &str)> = LAYERS.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    t.extend(E2E.iter().map(|&(n, u)| (format!("overhead.{n}"), u)));
    t
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, runs: 5 };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {val:?} for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = val.parse().map_err(|_| bad())?,
            "--trace" => a.trace = val.parse::<u8>().map_err(|_| bad())? == 1,
            "--runs" => a.runs = val.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (steady_mode, rest) = match argv.first().map(String::as_str) {
        Some("steady") => (true, &argv[1..]),
        _ => (false, &argv[..]),
    };
    let args = match parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench [steady] --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--runs <n>]", WORKLOADS.join("|"));
            return ExitCode::from(2);
        }
    };
    if steady_mode {
        return steady::run(&args.workload, args.runs, args.seconds, args.trace, args.seed);
    }

    affinity::cpus();
    let ctx = context::Context::capture(args.seed);
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let cfg = Cfg { seed: args.seed, seconds: args.seconds, traced: false };
    let (mut outcome, table) = if args.trace {
        // Half the budget untraced, half traced: the difference per
        // end-to-end metric is the tracing overhead.
        let half = Cfg { seconds: args.seconds / 2.0, ..cfg };
        println!("untraced half:");
        let base = run_workload(&args.workload, half);
        println!("traced half:");
        let mut traced = run_workload(&args.workload, Cfg { traced: true, ..half });
        for &(name, _) in E2E {
            let d = traced.metrics.get(name).copied().unwrap_or(0.0)
                - base.metrics.get(name).copied().unwrap_or(0.0);
            traced.set(&format!("overhead.{name}"), d);
            println!("  overhead.{name} = {d}");
        }
        traced.set("canary.treiber_pair_ops_per_s", ctx.canary_pairs_per_s);
        traced.attempted += base.attempted;
        traced.failed += base.failed;
        traced.violations.extend(base.violations);
        if let Some(t) = &traced.tracer {
            let path = format!("perfbench/out/trace-{}-seed{}.jsonl", args.workload, args.seed);
            match t.write_jsonl(Path::new(&path)) {
                Ok(()) => println!("  spans written to {path}"),
                Err(e) => traced.violations.push(format!("writing {path}: {e}")),
            }
        }
        (traced, layer_table())
    } else {
        let o = run_workload(&args.workload, cfg);
        (o, E2E.iter().map(|&(n, u)| (n.to_string(), u)).collect())
    };

    if !args.trace {
        for (name, _) in E2E {
            if outcome.metrics.get(*name).is_none_or(|v| !v.is_finite()) {
                outcome.violations.push(format!("metric {name} was not measured"));
            }
        }
    }
    for v in &outcome.violations {
        println!("  VIOLATION: {v}");
    }
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "  error_rate = {error_rate} ({} failed of {} attempted)",
        outcome.failed, outcome.attempted
    );
    println!("context: {}", ctx.json());

    let correct = outcome.violations.is_empty() && outcome.attempted > 0;
    println!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        outcome.attempted.max(1),
        outcome.failed,
        json_metrics(&table, &outcome.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! Run context printed next to every result: machine size, source
//! revision, load at start, seed, and a same-run canary for reading
//! drift between runs. The canary never normalises a metric.

use std::fs;
use std::path::Path;
use std::time::{Duration, Instant};

use stack2d_baselines::treiber::TreiberStack;

use crate::stats;

const CANARY_SLICES: usize = 5;
const CANARY_SLICE: Duration = Duration::from_millis(60);

/// Cumulative `(steal, total)` CPU ticks of the machine, from
/// `/proc/stat`: time the hypervisor ran something else on our CPUs.
pub fn steal_ticks() -> (u64, u64) {
    let line = fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = line
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().take(8).sum())
}

pub struct Context {
    pub nproc: usize,
    pub rev: String,
    pub src: String,
    pub loadavg: String,
    pub seed: u64,
    pub canary_pairs_per_s: f64,
    steal_at_start: (u64, u64),
}

impl Context {
    pub fn capture(seed: u64) -> Self {
        let loadavg = fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|s| s.split_whitespace().next().map(str::to_string))
            .unwrap_or_else(|| "unknown".into());
        let steal_at_start = steal_ticks();
        Context {
            steal_at_start,
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            rev: git_rev().unwrap_or_else(|| "none".into()),
            src: format!("{:016x}", source_hash(Path::new("crates"))),
            loadavg,
            seed,
            canary_pairs_per_s: treiber_pairs_per_s(),
        }
    }

    /// The context as JSON, with the share of CPU time stolen by the
    /// hypervisor since the context was captured.
    pub fn json(&self) -> String {
        let (steal, total) = steal_ticks();
        let stolen =
            (steal - self.steal_at_start.0) as f64 / (total - self.steal_at_start.1).max(1) as f64;
        format!(
            r#"{{"nproc": {}, "git_rev": "{}", "src_fnv": "{}", "loadavg_1m": "{}", "seed": {}, "steal_share": {stolen:.4}, "canary.treiber_pair_ops_per_s": {}}}"#,
            self.nproc, self.rev, self.src, self.loadavg, self.seed, self.canary_pairs_per_s
        )
    }
}

/// The commit checked out in the working directory, read from `.git`
/// directly so nothing outside the checkout is consulted.
fn git_rev() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let rev = match head.trim().strip_prefix("ref: ") {
        None => head.trim().to_string(),
        Some(r) => match fs::read_to_string(format!(".git/{r}")) {
            Ok(id) => id.trim().to_string(),
            Err(_) => fs::read_to_string(".git/packed-refs")
                .ok()?
                .lines()
                .find_map(|l| l.strip_suffix(r).map(|id| id.trim().to_string()))?,
        },
    };
    Some(rev.chars().take(12).collect())
}

/// FNV-1a over the paths and bytes of every file under `dir`, in sorted
/// order: identifies the measured source when no git metadata is around.
fn source_hash(dir: &Path) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = fs::read_dir(dir) else { return };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(dir, &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Single-thread Treiber push+pop pairs per second (median of slices).
fn treiber_pairs_per_s() -> f64 {
    let stack = TreiberStack::new();
    let mut rates = Vec::with_capacity(CANARY_SLICES);
    for _ in 0..CANARY_SLICES {
        let start = Instant::now();
        let mut pairs = 0u64;
        while start.elapsed() < CANARY_SLICE {
            for i in 0..256u64 {
                stack.push(std::hint::black_box(i));
                std::hint::black_box(stack.pop());
            }
            pairs += 256;
        }
        rates.push(pairs as f64 / start.elapsed().as_secs_f64());
    }
    stats::median(&rates)
}

/// Peak resident set of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

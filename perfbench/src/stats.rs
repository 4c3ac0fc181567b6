//! Order statistics shared by every workload: medians, quartiles and the
//! tail-percentile rule.

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the "exclusive" method, the default of
/// Python's `statistics.quantiles(values, n=4)`, so spreads printed here
/// match a reader recomputing them from the JSON results.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// How a run sums up its slices: the lower quartile of slice throughputs
/// and the upper quartile of slice latencies, the level three slices in
/// four reach. On a shared host a run alternates, for seconds at a time,
/// between a slower and a faster state (a busy or idle neighbour on the
/// same physical core: 30-45% apart on the VM this was tuned on), and the
/// share of each changes from run to run. The median follows that share;
/// the slower state's quartile barely moves. On a quiet machine both read
/// the same.
pub fn sustained_rate(rates: &[f64]) -> f64 {
    quartiles(rates).0
}

/// See [`sustained_rate`].
pub fn sustained_latency(latencies: &[f64]) -> f64 {
    quartiles(latencies).1
}

/// An evenly spaced sample of a stream whose memory does not grow with
/// the stream's length: every `every`-th item is kept, and whenever `cap`
/// are held, every other one is dropped and `every` doubles. A run's
/// buffers then take the same memory however fast the program is, so they
/// do not show in its peak RSS.
pub struct Thinned {
    every: u64,
    seen: u64,
    cap: usize,
    pub kept: Vec<u64>,
}

impl Thinned {
    pub fn new(every: u64, cap: usize) -> Self {
        Thinned { every, seen: 0, cap, kept: Vec::with_capacity(cap) }
    }

    /// Counts the stream's next item; true when it is to be kept.
    #[inline]
    pub fn due(&mut self) -> bool {
        self.seen += 1;
        self.seen.is_multiple_of(self.every)
    }

    pub fn keep(&mut self, v: u64) {
        self.kept.push(v);
        if self.kept.len() == self.cap {
            // Kept items sit at multiples of `every`; the odd positions are
            // the multiples of twice that.
            for i in 0..self.cap / 2 {
                self.kept[i] = self.kept[2 * i + 1];
            }
            self.kept.truncate(self.cap / 2);
            self.every *= 2;
        }
    }
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A tail reading: the percentile chosen, its value and how many samples
/// lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub pct: f64,
    pub value: u64,
    pub beyond: usize,
}

/// The highest ladder percentile of an ascending slice that still has at
/// least [`MIN_BEYOND`] samples beyond it; `None` below that many samples.
pub fn tail(sorted: &[u64]) -> Option<Tail> {
    let n = sorted.len();
    TAIL_LADDER.iter().find_map(|&pct| {
        let rank = ((pct / 100.0) * n as f64).ceil() as usize;
        let beyond = n.saturating_sub(rank);
        (rank >= 1 && beyond >= MIN_BEYOND).then(|| Tail { pct, value: sorted[rank - 1], beyond })
    })
}

/// Each slice's p50 and tail, for slices with enough samples for a tail.
pub fn per_slice(slices: &[Vec<u64>]) -> Vec<(u64, Tail)> {
    slices
        .iter()
        .filter_map(|s| {
            let mut v = s.clone();
            v.sort_unstable();
            tail(&v).map(|t| (percentile(&v, 50.0), t))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_at_least_ten_samples_beyond() {
        for n in [20usize, 21, 99, 100, 999, 1_000, 1_009, 1_010, 9_999, 10_000, 250_000] {
            let sorted: Vec<u64> = (0..n as u64).collect();
            let t = tail(&sorted).expect("enough samples");
            assert!(t.beyond >= MIN_BEYOND, "n={n}: {t:?}");
            assert_eq!(t.beyond, sorted.iter().filter(|&&x| x > t.value).count());
            // The next percentile up would leave fewer than ten beyond.
            if let Some(&higher) = TAIL_LADDER.iter().rev().find(|&&p| p > t.pct) {
                let rank = ((higher / 100.0) * n as f64).ceil() as usize;
                assert!(n - rank < MIN_BEYOND, "n={n}: p{higher} also qualifies");
            }
        }
        assert_eq!(tail(&(0..19).collect::<Vec<u64>>()), None);
        let t = tail(&(1..=1_000).collect::<Vec<u64>>()).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 990, 10));
    }

    #[test]
    fn thinning_keeps_an_even_sample_of_bounded_size() {
        let mut t = Thinned::new(2, 8);
        for i in 1..=1000 {
            if t.due() {
                t.keep(i);
            }
        }
        // 500 items due at stride 2; the stride doubled to 128 on the way.
        assert!(t.kept.len() < 8);
        assert!(t.kept.windows(2).all(|w| w[1] - w[0] == 128), "{:?}", t.kept);
        assert_eq!(t.kept[0], 128);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}

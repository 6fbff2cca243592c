//! Percentiles and the seeded generator the workloads draw from.

/// Percentiles the report may use for a tail, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (0 < q ≤ 100) of ascending `sorted`
/// samples; `None` when there are none.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// 1-based nearest rank of percentile `q` among `n` samples (the slack
/// keeps 99.9% of 10 000 at rank 9990 despite binary rounding).
fn rank(n: usize, q: f64) -> usize {
    ((q / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// A timing summary: median, the highest percentile with at least
/// [`TAIL_BEYOND`] samples beyond it, and the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// Which percentile `tail` is, or `None` when too few samples.
    pub tail_pct: Option<f64>,
    /// The tail value (`p50` when no percentile qualifies).
    pub tail: f64,
}

impl Summary {
    /// Summarises `samples` (any order). `None` for an empty set.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let p50 = percentile(&sorted, 50.0)?;
        let n = sorted.len();
        let tail_pct = TAIL_CANDIDATES
            .iter()
            .copied()
            .find(|&q| n - rank(n, q) >= TAIL_BEYOND);
        let tail = tail_pct.map_or(p50, |q| sorted[rank(n, q) - 1]);
        Some(Summary {
            count: n,
            p50,
            tail_pct,
            tail,
        })
    }

    /// The value of percentile `q` if at least [`TAIL_BEYOND`] samples lie
    /// beyond it, else the best qualifying tail.
    pub fn at_most(samples: &[f64], q: f64) -> Option<(f64, f64)> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let q = if n >= 1 && n - rank(n, q) >= TAIL_BEYOND {
            q
        } else {
            Summary::of(samples)?.tail_pct.unwrap_or(50.0)
        };
        Some((q, percentile(&sorted, q)?))
    }
}

/// Median of `samples` (any order); 0 for none.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.p50)
}

/// SplitMix64: a small, seedable, platform-independent generator, so one
/// `--seed` always yields the same inputs and arrival times.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|k| k as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(5.0));
        assert_eq!(percentile(&s, 90.0), Some(9.0));
        assert_eq!(percentile(&s, 100.0), Some(10.0));
        assert_eq!(percentile(&s, 0.1), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 has exactly ten beyond it, p99.9 only one.
        let s = Summary::of(&ramp(1000)).unwrap();
        assert_eq!((s.count, s.tail_pct, s.tail), (1000, Some(99.0), 990.0));
        // 999 samples: p99 has nine beyond, so the tail drops to p95.
        let s = Summary::of(&ramp(999)).unwrap();
        assert_eq!((s.count, s.tail_pct), (999, Some(95.0)));
        // 10 000 samples reach p99.9.
        let s = Summary::of(&ramp(10_000)).unwrap();
        assert_eq!((s.tail_pct, s.tail), (Some(99.9), 9990.0));
        // 19 samples: even the median has only nine beyond it.
        let s = Summary::of(&ramp(19)).unwrap();
        assert_eq!((s.count, s.p50, s.tail_pct, s.tail), (19, 10.0, None, 10.0));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn at_most_falls_back_to_the_qualifying_tail() {
        assert_eq!(Summary::at_most(&ramp(1000), 99.0), Some((99.0, 990.0)));
        assert_eq!(Summary::at_most(&ramp(200), 99.0), Some((95.0, 190.0)));
        assert_eq!(Summary::at_most(&ramp(5), 99.0), Some((50.0, 3.0)));
    }

    #[test]
    fn rng_is_deterministic_per_seed_and_stream() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut x = Rng::new(7, 1);
        let mut y = Rng::new(7, 2);
        assert_ne!(x.next_u64(), y.next_u64());
        let mut v: Vec<u32> = (0..50).collect();
        Rng::new(3, 0).shuffle(&mut v);
        let mut w: Vec<u32> = (0..50).collect();
        Rng::new(3, 0).shuffle(&mut w);
        assert_eq!(v, w);
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
    }
}

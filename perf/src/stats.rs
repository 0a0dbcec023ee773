//! Order statistics: the quartiles reported for repeated runs, and the
//! log-bucketed histogram behind each layer's per-call quantiles.

/// Median of `values` (the mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Mean of `values` without the lowest and the highest `trim` share of
/// them (rounded down).
pub fn trimmed_mean(values: &[f64], trim: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let k = (v.len() as f64 * trim) as usize;
    let kept = &v[k..v.len() - k];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so a
/// spread reported here matches one computed from the same runs with
/// Python's standard library.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = len + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Sub-buckets per power of two: bucket width is 1/16 of an octave
/// (about 4.4% relative resolution).
const SUB: u64 = 16;
const BUCKETS: usize = (SUB + 60 * SUB) as usize;

/// A fixed-size log-linear histogram of nanosecond durations.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

fn bucket_of(ns: u64) -> usize {
    if ns < SUB {
        return ns as usize;
    }
    let e = 63 - u64::from(ns.leading_zeros());
    let sub = (ns >> (e - 4)) - SUB;
    (SUB + (e - 4) * SUB + sub) as usize
}

/// Midpoint of a bucket's value range (exact below [`SUB`]).
fn bucket_mid(index: usize) -> f64 {
    let i = index as u64;
    if i < SUB {
        return i as f64;
    }
    let e = (i - SUB) / SUB + 4;
    let sub = (i - SUB) % SUB;
    let lo = (SUB + sub) << (e - 4);
    let hi = (SUB + sub + 1) << (e - 4);
    (lo + hi) as f64 / 2.0
}

/// Rank (1-based) of the `num/den` quantile among `count` samples.
fn rank(count: u64, num: u64, den: u64) -> u64 {
    (count * num).div_ceil(den).max(1)
}

impl Histogram {
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns).min(BUCKETS - 1)] += 1;
        self.total += 1;
    }

    /// The `num/den` quantile in nanoseconds (bucket midpoint), or
    /// `None` when empty.
    pub fn quantile(&self, num: u64, den: u64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let want = rank(self.total, num, den);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= want {
                return Some(bucket_mid(i));
            }
        }
        None
    }

    /// The highest of p90, p99 and p999 that has at least ten samples
    /// beyond it, as `(quantile, value in ns)`. `None` when even p90 has
    /// fewer than ten samples above it, since a tail read from a handful
    /// of samples is noise.
    pub fn tail(&self) -> Option<(f64, f64)> {
        [(999, 1000), (99, 100), (9, 10)]
            .into_iter()
            .find(|&(num, den)| self.total.saturating_sub(rank(self.total, num, den)) >= 10)
            .and_then(|(num, den)| Some((num as f64 / den as f64, self.quantile(num, den)?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(median(&ten), 5.5);
        assert_eq!(quartiles(&[2.0, 4.0]), (1.5, 4.5));
    }

    #[test]
    fn trimmed_mean_drops_a_share_at_each_end() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(trimmed_mean(&ten, 0.1), 5.5);
        assert_eq!(trimmed_mean(&[1.0, 2.0, 3.0, 4.0, 100.0], 0.2), 3.0);
        // Fewer than 1 / trim values: nothing to drop.
        assert_eq!(trimmed_mean(&[1.0, 2.0, 6.0], 0.1), 3.0);
    }

    #[test]
    fn buckets_cover_values_within_resolution() {
        for ns in [0u64, 7, 15, 16, 17, 100, 1_000, 123_456, 10_000_000_000] {
            let mid = bucket_mid(bucket_of(ns));
            assert!(
                (mid - ns as f64).abs() <= ns as f64 * 0.05 + 0.5,
                "{ns} -> {mid}"
            );
        }
    }

    #[test]
    fn tail_takes_the_highest_quantile_with_ten_samples_beyond() {
        let mut h = Histogram::default();
        assert_eq!(h.tail(), None);
        for ns in 1..=99 {
            h.record(ns * 1_000);
        }
        // 99 samples: p90 has 9 samples beyond it, so no tail yet.
        assert_eq!(h.tail(), None);
        h.record(100_000);
        // 100 samples: p90 now has exactly 10 beyond it; p99 has 1.
        let (q, v) = h.tail().unwrap();
        assert_eq!(q, 0.9);
        assert!((v - 90_000.0).abs() < 90_000.0 * 0.05);
        for _ in 0..900 {
            h.record(50_000);
        }
        // 1000 samples: p99 has 10 beyond it, p999 only 1.
        assert_eq!(h.tail().unwrap().0, 0.99);
        for _ in 0..9_000 {
            h.record(50_000);
        }
        assert_eq!(h.tail().unwrap().0, 0.999);
    }
}

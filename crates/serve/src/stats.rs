//! Bounded-memory streaming statistics for an unbounded run.
//!
//! A long-running daemon cannot keep every response time: the reservoir
//! holds a fixed-size uniform sample (Vitter's Algorithm R, seeded) for
//! quantiles plus exact count/mean/max, and the time series keeps a
//! fixed point budget by doubling its sampling stride whenever it
//! fills — memory stays O(cap) over millions of tasks.

use rand::rngs::StdRng;
use rand::Rng;
use rds_workloads::rng as wrng;

/// Seeded fixed-capacity uniform sample with exact moments.
#[derive(Debug)]
pub struct Reservoir {
    buf: Vec<f64>,
    cap: usize,
    seen: u64,
    dropped: u64,
    sum: f64,
    max: f64,
    rng: StdRng,
}

impl Reservoir {
    /// A reservoir holding at most `cap` samples.
    pub fn new(cap: usize, seed: u64) -> Self {
        Reservoir {
            buf: Vec::with_capacity(cap.min(4096)),
            cap: cap.max(1),
            seen: 0,
            dropped: 0,
            sum: 0.0,
            max: f64::NEG_INFINITY,
            rng: wrng::rng(seed),
        }
    }

    /// Records one observation. Non-finite samples (NaN, ±∞) are counted
    /// in [`Self::dropped`] and excluded from every statistic: a single
    /// NaN must not poison the mean or scramble the quantile sort.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            self.dropped += 1;
            return;
        }
        self.seen += 1;
        self.sum += x;
        if x > self.max {
            self.max = x;
        }
        if self.buf.len() < self.cap {
            self.buf.push(x);
        } else {
            let j = self.rng.gen_range(0..self.seen);
            if (j as usize) < self.cap {
                self.buf[j as usize] = x;
            }
        }
    }

    /// Exact number of (finite) observations.
    pub fn count(&self) -> u64 {
        self.seen
    }

    /// Number of non-finite samples rejected at the door.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Exact mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.seen == 0 {
            0.0
        } else {
            self.sum / self.seen as f64
        }
    }

    /// Exact maximum (0 when empty).
    pub fn max(&self) -> f64 {
        if self.seen == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Approximate `q`-quantile from the sample (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.buf.is_empty() {
            return 0.0;
        }
        let mut sorted = self.buf.clone();
        // The reservoir only admits finite samples, but sort with a total
        // order anyway so no float input can ever scramble the ranks.
        sorted.sort_by(f64::total_cmp);
        let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        sorted[idx]
    }

    /// Compact summary for reports.
    pub fn digest(&self) -> StatsDigest {
        StatsDigest {
            count: self.count(),
            mean: self.mean(),
            max: self.max(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            dropped: self.dropped(),
        }
    }
}

/// Summary of one metric over the run.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsDigest {
    /// Observations recorded.
    pub count: u64,
    /// Exact mean.
    pub mean: f64,
    /// Exact maximum.
    pub max: f64,
    /// Sampled median.
    pub p50: f64,
    /// Sampled 95th percentile.
    pub p95: f64,
    /// Sampled 99th percentile.
    pub p99: f64,
    /// Non-finite samples rejected before aggregation.
    pub dropped: u64,
}

/// Bounded time series: keeps every `stride`-th point; when full, drops
/// every other retained point and doubles the stride.
#[derive(Debug)]
pub struct BoundedSeries {
    points: Vec<(f64, f64)>,
    cap: usize,
    stride: u64,
    count: u64,
}

impl BoundedSeries {
    /// A series retaining at most `cap` points.
    pub fn new(cap: usize) -> Self {
        BoundedSeries {
            points: Vec::new(),
            cap: cap.max(2),
            stride: 1,
            count: 0,
        }
    }

    /// Offers one `(x, y)` point; retained iff it lands on the stride.
    pub fn push(&mut self, x: f64, y: f64) {
        if self.count.is_multiple_of(self.stride) {
            if self.points.len() >= self.cap {
                let mut keep = 0usize;
                self.points.retain(|_| {
                    keep += 1;
                    keep % 2 == 1
                });
                self.stride *= 2;
            }
            if self.count.is_multiple_of(self.stride) {
                self.points.push((x, y));
            }
        }
        self.count += 1;
    }

    /// The retained points in arrival order.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservoir_exact_moments_bounded_memory() {
        let mut r = Reservoir::new(100, 7);
        for i in 0..10_000 {
            r.push(i as f64);
        }
        assert_eq!(r.count(), 10_000);
        assert!((r.mean() - 4999.5).abs() < 1e-9);
        assert_eq!(r.max(), 9999.0);
        assert!(r.buf.len() == 100);
        // Quantiles of a uniform ramp are near their index.
        let p50 = r.quantile(0.5);
        assert!((p50 - 5000.0).abs() < 1500.0, "p50 {p50} off");
    }

    #[test]
    fn reservoir_is_seeded() {
        let mk = || {
            let mut r = Reservoir::new(10, 3);
            for i in 0..1000 {
                r.push(i as f64);
            }
            r.buf
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn non_finite_samples_cannot_poison_quantiles() {
        // Regression: `partial_cmp().unwrap_or(Equal)` used to leave the
        // sample unsorted in the presence of NaN, silently corrupting
        // every quantile; ∞ additionally poisoned mean and max.
        let mut r = Reservoir::new(64, 11);
        for i in 0..32 {
            r.push(i as f64);
            r.push(f64::NAN);
            r.push(f64::INFINITY);
            r.push(f64::NEG_INFINITY);
        }
        assert_eq!(r.count(), 32);
        assert_eq!(r.dropped(), 96);
        let d = r.digest();
        assert_eq!(d.count, 32);
        assert_eq!(d.dropped, 96);
        for (name, v) in [
            ("mean", d.mean),
            ("max", d.max),
            ("p50", d.p50),
            ("p95", d.p95),
            ("p99", d.p99),
        ] {
            assert!(v.is_finite(), "{name} is {v}");
        }
        assert_eq!(d.max, 31.0);
        assert!((d.p50 - 15.5).abs() <= 1.0, "p50 {}", d.p50);
        // Quantiles are monotone again once the sort is total.
        assert!(d.p50 <= d.p95 && d.p95 <= d.p99);
    }

    #[test]
    fn series_never_exceeds_cap() {
        let mut s = BoundedSeries::new(64);
        for i in 0..100_000 {
            s.push(i as f64, (i * 2) as f64);
        }
        assert!(s.points().len() <= 64);
        assert!(s.points().len() >= 16);
        // Still spans the whole range.
        assert_eq!(s.points()[0].0, 0.0);
        assert!(s.points().last().unwrap().0 > 90_000.0);
    }
}

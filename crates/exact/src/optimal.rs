//! Facade choosing the right optimal-makespan solver per instance size.
//!
//! Empirical competitive-ratio measurements need `C*_max(actual times)`.
//! Small instances get an exact answer (DP, then branch-and-bound);
//! larger ones get a certified bracket from lower bounds + MULTIFIT +
//! the dual-approximation scheme.

use crate::{bin_packing, branch_bound, dp, dual_approx, lower_bounds};
use rds_core::{Realization, Time};

/// How the reported optimum was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Certainty {
    /// `lo == hi == C*`, proven.
    Exact,
    /// `lo ≤ C* ≤ hi` with both sides certified.
    Bracketed,
}

/// The (possibly bracketed) optimal makespan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptMakespan {
    /// Certified lower bound on `C*`.
    pub lo: Time,
    /// Certified achievable makespan (upper bound on `C*`).
    pub hi: Time,
    /// Whether `lo == hi`.
    pub certainty: Certainty,
}

impl OptMakespan {
    /// Midpoint estimate of `C*`.
    pub fn estimate(&self) -> Time {
        (self.lo + self.hi) / 2.0
    }

    /// Relative width of the bracket (`0` for exact).
    pub fn relative_gap(&self) -> f64 {
        if self.lo.is_zero() {
            0.0
        } else {
            (self.hi - self.lo).get() / self.lo.get()
        }
    }
}

/// Tunable solver limits.
#[derive(Debug, Clone, Copy)]
pub struct OptimalSolver {
    /// Use the subset DP up to this many tasks.
    pub dp_limit: usize,
    /// Node budget for branch-and-bound beyond the DP range.
    pub bnb_nodes: u64,
    /// Use branch-and-bound up to this many tasks.
    pub bnb_limit: usize,
    /// Epsilon for the dual-approximation fallback.
    pub eps: f64,
}

impl Default for OptimalSolver {
    fn default() -> Self {
        OptimalSolver {
            dp_limit: 14,
            bnb_nodes: 5_000_000,
            bnb_limit: 40,
            eps: 0.2,
        }
    }
}

impl OptimalSolver {
    /// A fast profile for large sweeps: exact only on tiny instances.
    pub fn fast() -> Self {
        OptimalSolver {
            dp_limit: 12,
            bnb_nodes: 200_000,
            bnb_limit: 24,
            eps: 0.3,
        }
    }

    /// Solves for the optimal makespan of `times` on `m` machines.
    ///
    /// # Panics
    /// Panics if `m == 0`.
    pub fn solve(&self, times: &[Time], m: usize) -> OptMakespan {
        assert!(m >= 1, "m must be >= 1");
        if let Some(opt) = self.solve_small(times, m) {
            return opt;
        }
        // Bracket: MULTIFIT upper bound, dual-approximation lower bound.
        let (mf, _) = bin_packing::multifit(times, m, 40);
        let lo = self.dual_lower(times, m).min(mf);
        OptMakespan {
            lo,
            hi: mf,
            certainty: if (mf - lo).get() <= 1e-12 * mf.get().max(1.0) {
                Certainty::Exact
            } else {
                Certainty::Bracketed
            },
        }
    }

    /// The certified lower bound on `C*` that [`solve`](Self::solve)
    /// reports as `lo`, without the upper side.
    ///
    /// Up to the exact solvers' size limits this is `solve().lo`, the DP
    /// or branch-and-bound value. Above them it is the combinatorial
    /// bound raised by the dual-approximation search, and MULTIFIT, most
    /// of a large `solve()`, never runs.
    ///
    /// When `solve()` reports [`Certainty::Bracketed`] the two agree bit
    /// for bit. When the MULTIFIT bracket closes ([`Certainty::Exact`]),
    /// `solve()` clamps `lo` to MULTIFIT's makespan and this bound does
    /// not, so it can exceed `solve().hi` by the rounding of two float
    /// sums (around 1e-14 relative).
    ///
    /// # Panics
    /// Panics if `m == 0`.
    pub fn lower_bound(&self, times: &[Time], m: usize) -> Time {
        assert!(m >= 1, "m must be >= 1");
        match self.solve_small(times, m) {
            Some(opt) => opt.lo,
            None => self.dual_lower(times, m),
        }
    }

    /// The exact routes: the subset DP, then branch-and-bound, whose
    /// unproven incumbent still certifies the upper side. `None` above
    /// both size limits.
    fn solve_small(&self, times: &[Time], m: usize) -> Option<OptMakespan> {
        if times.len() <= self.dp_limit {
            if let Ok((mk, _)) = dp::optimal(times, m) {
                return Some(OptMakespan {
                    lo: mk,
                    hi: mk,
                    certainty: Certainty::Exact,
                });
            }
        }
        if times.len() > self.bnb_limit {
            return None;
        }
        let r = branch_bound::solve(times, m, self.bnb_nodes);
        Some(if r.proved {
            OptMakespan {
                lo: r.makespan,
                hi: r.makespan,
                certainty: Certainty::Exact,
            }
        } else {
            OptMakespan {
                lo: self.dual_lower(times, m).min(r.makespan),
                hi: r.makespan,
                certainty: Certainty::Bracketed,
            }
        })
    }

    /// Best certified lower bound short of an exact solve: the
    /// combinatorial bound, possibly improved by the dual-approximation
    /// search. Both read one sorted copy of the times. Callers holding
    /// an upper bound clamp to it.
    fn dual_lower(&self, times: &[Time], m: usize) -> Time {
        let desc = lower_bounds::sorted_desc(times);
        let lb = lower_bounds::combined_sorted(times, &desc, m);
        match dual_approx::bracket_sorted(&desc, m, self.eps, lb) {
            Ok(b) => lb.max(b.lo),
            Err(_) => lb,
        }
    }

    /// Convenience: the optimal makespan for a realization's actual times.
    pub fn solve_realization(&self, realization: &Realization, m: usize) -> OptMakespan {
        self.solve(realization.times(), m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(v: &[f64]) -> Vec<Time> {
        v.iter().map(|&x| Time::of(x)).collect()
    }

    #[test]
    fn exact_on_small() {
        let s = OptimalSolver::default();
        let r = s.solve(&ts(&[3.0, 3.0, 2.0, 2.0, 2.0]), 2);
        assert_eq!(r.certainty, Certainty::Exact);
        assert!((r.lo.get() - 6.0).abs() < 1e-9);
        assert_eq!(r.relative_gap(), 0.0);
    }

    #[test]
    fn medium_instances_via_bnb() {
        let raw: Vec<f64> = (0..24).map(|i| ((i * 31) % 17 + 1) as f64).collect();
        let s = OptimalSolver::default();
        let r = s.solve(&ts(&raw), 3);
        assert!(r.lo <= r.hi);
        // With the default budget this should prove optimality.
        assert_eq!(r.certainty, Certainty::Exact);
    }

    #[test]
    fn large_instances_bracket() {
        let raw: Vec<f64> = (0..300).map(|i| ((i * 7919) % 100 + 1) as f64).collect();
        let s = OptimalSolver::default();
        let r = s.solve(&ts(&raw), 16);
        assert!(r.lo <= r.hi);
        assert!(
            r.relative_gap() < 0.15,
            "gap too wide: {} [{} , {}]",
            r.relative_gap(),
            r.lo,
            r.hi
        );
        // Bracket must contain the average-load bound.
        let avg = lower_bounds::average_load(&ts(&raw), 16);
        assert!(r.hi >= avg);
    }

    #[test]
    fn bracket_always_contains_truth_small_crosscheck() {
        let mut seed = 5u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) % 40) as f64 + 1.0
        };
        let s = OptimalSolver::fast();
        for trial in 0..15 {
            let n = 8 + trial % 5;
            let m = 2 + trial % 3;
            let t = ts(&(0..n).map(|_| next()).collect::<Vec<_>>());
            let truth = dp::optimal(&t, m).unwrap().0;
            let r = s.solve(&t, m);
            assert!(r.lo.get() <= truth.get() + 1e-9, "trial {trial}");
            assert!(r.hi.get() >= truth.get() - 1e-9, "trial {trial}");
        }
    }

    #[test]
    fn estimate_is_between_bounds() {
        let s = OptimalSolver::fast();
        let r = s.solve(&ts(&[5.0; 40]), 7);
        assert!(r.lo <= r.estimate() && r.estimate() <= r.hi);
    }
}

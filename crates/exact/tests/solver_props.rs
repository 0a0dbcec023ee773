//! Cross-solver property tests: every solver agrees with (or brackets)
//! the DP ground truth.

use proptest::prelude::*;
use rds_core::Time;
use rds_exact::{
    bin_packing, branch_bound, dp, dual_approx, lower_bounds, Certainty, OptimalSolver,
};

fn times(max_n: usize) -> impl Strategy<Value = Vec<Time>> {
    prop::collection::vec((0.1f64..50.0).prop_map(Time::of), 1..=max_n)
}

/// 41..700 task times, above every profile's `bnb_limit`, so the solver
/// brackets: uniform reals, integers, sizes on a 0.3 grid (inexact in
/// binary, so sums round), three 0.3-grid sizes, or all-equal sizes. The
/// last three often close the bracket.
fn bracket_times() -> impl Strategy<Value = Vec<Time>> {
    (41usize..700, 0usize..5).prop_flat_map(|(n, shape)| {
        prop::collection::vec(0.0f64..1.0, n).prop_map(move |u| {
            u.iter()
                .map(|&x| {
                    Time::of(match shape {
                        0 => 0.1 + 49.9 * x,
                        1 => 1.0 + (20.0 * x).floor(),
                        2 => 0.3 * (1.0 + (40.0 * x).floor()),
                        3 => 0.3 * (1.0 + (3.0 * x).floor()),
                        _ => 0.1 + 49.9 * u[0],
                    })
                })
                .collect()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bnb_matches_dp(t in times(11), m in 1usize..5) {
        let (truth, _) = dp::optimal(&t, m).unwrap();
        let bb = branch_bound::solve(&t, m, 5_000_000);
        prop_assert!(bb.proved);
        prop_assert!((bb.makespan.get() - truth.get()).abs() < 1e-9 * truth.get().max(1.0),
            "bnb {} vs dp {}", bb.makespan, truth);
    }

    #[test]
    fn every_lower_bound_below_dp(t in times(12), m in 1usize..5) {
        let (truth, _) = dp::optimal(&t, m).unwrap();
        let tol = 1.0 + 1e-9;
        prop_assert!(lower_bounds::average_load(&t, m).get() <= truth.get() * tol);
        prop_assert!(lower_bounds::longest_task(&t).get() <= truth.get() * tol);
        prop_assert!(lower_bounds::pair_bound(&t, m).get() <= truth.get() * tol);
        prop_assert!(lower_bounds::slice_bound(&t, m).get() <= truth.get() * tol);
        prop_assert!(lower_bounds::combined(&t, m).get() <= truth.get() * tol);
    }

    #[test]
    fn dual_bracket_contains_dp(t in times(10), m in 1usize..4, eps in 0.1f64..0.5) {
        let (truth, _) = dp::optimal(&t, m).unwrap();
        let b = dual_approx::bracket(&t, m, eps).unwrap();
        prop_assert!(b.lo.get() <= truth.get() * (1.0 + 1e-9), "lo {} > {}", b.lo, truth);
        prop_assert!(b.hi.get() >= truth.get() * (1.0 - 1e-9), "hi {} < {}", b.hi, truth);
    }

    #[test]
    fn facade_bracket_contains_dp(t in times(12), m in 1usize..5) {
        let (truth, _) = dp::optimal(&t, m).unwrap();
        for solver in [OptimalSolver::default(), OptimalSolver::fast()] {
            let r = solver.solve(&t, m);
            prop_assert!(r.lo.get() <= truth.get() * (1.0 + 1e-9));
            prop_assert!(r.hi.get() >= truth.get() * (1.0 - 1e-9));
            prop_assert!(r.lo <= r.hi);
        }
    }

    #[test]
    fn lower_bound_is_solve_lo_without_the_multifit_clamp(
        t in bracket_times(),
        m in 1usize..80,
    ) {
        let (mf, _) = bin_packing::multifit(&t, m, 40);
        for solver in [OptimalSolver::default(), OptimalSolver::fast()] {
            let r = solver.solve(&t, m);
            let lb = solver.lower_bound(&t, m);
            prop_assert!(lb >= r.lo, "lower_bound {lb} < solve().lo {}", r.lo);
            if r.certainty == Certainty::Bracketed {
                prop_assert_eq!(lb.get().to_bits(), r.lo.get().to_bits());
            }
            // `lower_bound` has no upper side to clamp to: only rounding
            // may lift it above MULTIFIT's achievable makespan.
            prop_assert!(lb.get() <= mf.get() * (1.0 + 1e-12),
                "lower_bound {lb} > MULTIFIT {mf} on n = {}, m = {m}", t.len());
        }
    }

    #[test]
    fn ffd_packings_respect_capacity(t in times(20), m in 1usize..6, slack in 1.0f64..3.0) {
        let lb = lower_bounds::combined(&t, m);
        let cap = lb * slack;
        if let bin_packing::FfdResult::Packed(assign) = bin_packing::first_fit_decreasing(&t, m, cap) {
            let mut loads = vec![0.0f64; m];
            for (j, id) in assign.iter().enumerate() {
                loads[id.index()] += t[j].get();
            }
            let tol = 1e-9 * cap.get().max(1.0);
            for load in loads {
                prop_assert!(load <= cap.get() + tol, "load {load} > cap {cap}");
            }
        }
    }

    #[test]
    fn multifit_assignment_consistent_with_reported_makespan(
        t in times(30),
        m in 1usize..8,
    ) {
        let (mk, assign) = bin_packing::multifit(&t, m, 30);
        let mut loads = vec![0.0f64; m];
        for (j, id) in assign.iter().enumerate() {
            loads[id.index()] += t[j].get();
        }
        let real_mk = loads.into_iter().fold(0.0, f64::max);
        prop_assert!((real_mk - mk.get()).abs() < 1e-9 * real_mk.max(1.0));
    }
}

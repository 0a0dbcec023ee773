//! `PlacementModel::solve` against exhaustive enumeration on small
//! models (n ≤ 8, m ≤ 3): it reports `Infeasible` exactly when no
//! assignment keeps every machine's memory within `B·(1 + ILP_TOL)`,
//! and otherwise proves an optimal feasible assignment.
//!
//! Budgets sit at the volume floor `max(Σs/m, s_max)`, just below it
//! (× (1 − 1e-10), where a perfect split only fits through the
//! tolerance) and above it. Integer sizes make perfect splits common,
//! so the greedy incumbents often miss and the packing test and the
//! search decide alone.

use proptest::prelude::*;
use rds_exact::ilp::{IlpError, PlacementModel};

/// `(envelopes, sizes, m, B)`.
fn small_model() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, usize, f64)> {
    (1usize..=8, 1usize..=3, 0usize..2, 0usize..3).prop_flat_map(|(n, m, integral, at)| {
        (
            prop::collection::vec(0.5f64..10.0, n),
            prop::collection::vec(0.0f64..1.0, n),
            0.0f64..0.5,
        )
            .prop_map(move |(env, u, above)| {
                let sizes: Vec<f64> = u
                    .iter()
                    .map(|&x| {
                        if integral == 1 {
                            1.0 + (6.0 * x).floor()
                        } else {
                            0.5 + 7.5 * x
                        }
                    })
                    .collect();
                let total: f64 = sizes.iter().sum();
                let floor = sizes.iter().fold(total / m as f64, |a, &s| a.max(s));
                let budget = match at {
                    0 => floor,
                    1 => floor * (1.0 - 1e-10),
                    _ => floor * (1.0 + above),
                };
                (env, sizes, m, budget)
            })
    })
}

/// The least envelope makespan over every assignment `feasible()`
/// accepts, or `None` when it accepts none.
fn brute_force(model: &PlacementModel) -> Option<f64> {
    let (n, m) = (model.n(), model.m());
    let mut assign = vec![0usize; n];
    let mut best: Option<f64> = None;
    loop {
        if model.feasible(&assign) {
            let mk = model.makespan_of(&assign);
            best = Some(best.map_or(mk, |b: f64| b.min(mk)));
        }
        // Next assignment in base-m counting order.
        let Some(j) = (0..n).find(|&j| assign[j] + 1 < m) else {
            return best;
        };
        assign[j] += 1;
        assign[..j].fill(0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5000))]

    #[test]
    fn solve_is_infeasible_exactly_when_nothing_fits(
        (env, sizes, m, budget) in small_model()
    ) {
        let model = PlacementModel::new(&env, &sizes, m, budget).unwrap();
        let truth = brute_force(&model);
        match (model.solve(10_000_000), truth) {
            (Err(IlpError::Infeasible), None) => {}
            (Ok(r), Some(opt)) => {
                let a: Vec<usize> = r.assignment.iter().map(|id| id.index()).collect();
                prop_assert!(model.feasible(&a), "infeasible assignment {a:?}");
                prop_assert!(r.proved, "search did not finish");
                prop_assert!(
                    r.makespan.get() <= opt * (1.0 + 1e-9),
                    "makespan {} above the optimum {opt}", r.makespan
                );
            }
            (got, truth) => prop_assert!(
                false,
                "sizes {sizes:?}, m = {m}, B = {budget}: solve {got:?}, \
                 least feasible makespan {truth:?}"
            ),
        }
    }
}

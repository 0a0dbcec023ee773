//! The expected value of adaptivity, estimated by Monte Carlo.
//!
//! The paper proves worst-case ratios; practitioners also want to know
//! how much replication helps on average. This module samples
//! realizations from a [`RealizationModel`] and measures the **expected
//! value of adaptivity (EVA)**: the mean makespan gap between a static
//! strategy and an adaptive one on identical realizations.

use rds_algs::Strategy;
use rds_core::{Instance, Result, Uncertainty};
use rds_report::Summary;
use rds_workloads::realize::RealizationModel;
use rds_workloads::rng;

/// Expected value of adaptivity: mean over paired samples of
/// `(static makespan − adaptive makespan) / static makespan`.
/// Positive values quantify how much runtime flexibility (replication)
/// buys on this workload; the paper's thesis predicts it grows with `α`.
///
/// # Errors
/// Propagates strategy/realization failures.
pub fn expected_value_of_adaptivity<A: Strategy, B: Strategy>(
    static_strategy: &A,
    adaptive_strategy: &B,
    instance: &Instance,
    unc: Uncertainty,
    model: RealizationModel,
    reps: usize,
    seed: u64,
) -> Result<Summary> {
    let p_static = static_strategy.place(instance, unc)?;
    let p_adapt = adaptive_strategy.place(instance, unc)?;
    let mut eva = Summary::new();
    for rep in 0..reps {
        let mut r = rng::rng(rng::child_seed(seed, rep as u64));
        let real = model.realize(instance, unc, &mut r)?;
        let mk_s = static_strategy
            .execute(instance, &p_static, &real)?
            .makespan(&real)
            .get();
        let mk_a = adaptive_strategy
            .execute(instance, &p_adapt, &real)?
            .makespan(&real)
            .get();
        if mk_s > 0.0 {
            eva.push((mk_s - mk_a) / mk_s);
        }
    }
    Ok(eva)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rds_algs::{LptNoChoice, LptNoRestriction};

    fn inst() -> Instance {
        Instance::from_estimates(
            &[8.0, 7.0, 6.0, 5.0, 5.0, 4.0, 4.0, 3.0, 3.0, 2.0, 2.0, 1.0],
            4,
        )
        .unwrap()
    }

    #[test]
    fn eva_is_nonnegative_under_uncertainty() {
        let i = inst();
        let unc = Uncertainty::of(2.0);
        let eva = expected_value_of_adaptivity(
            &LptNoChoice,
            &LptNoRestriction,
            &i,
            unc,
            RealizationModel::TwoPoint { p_inflate: 0.3 },
            60,
            7,
        )
        .unwrap();
        assert!(
            eva.mean() > 0.0,
            "replication should help on average: {}",
            eva.mean()
        );
    }

    #[test]
    fn eva_vanishes_without_uncertainty() {
        let i = inst();
        let unc = Uncertainty::CERTAIN;
        let eva = expected_value_of_adaptivity(
            &LptNoChoice,
            &LptNoRestriction,
            &i,
            unc,
            RealizationModel::Exact,
            5,
            7,
        )
        .unwrap();
        // With exact estimates both run LPT on the truth: nearly no gap
        // (tie-breaking can still differ slightly, but not in sign).
        assert!(eva.mean().abs() < 0.05, "EVA = {}", eva.mean());
    }
}

//! The survival-check arm of the conformance oracle: differential
//! verification of reliability-aware placement.
//!
//! Each case of the stream gets a seeded heterogeneous cluster (random
//! per-machine failure probabilities, contiguous zones with correlated
//! outage probabilities) plus a survival target, and the oracle checks
//! `SurvivalPlacement` from four independent directions:
//!
//! 1. **Target honesty**: when the planner claims feasibility, every
//!    task's analytic survival under the *true* model meets the target.
//! 2. **Monte-Carlo agreement**: the analytic bound matches a seeded
//!    fault-sampling estimate within binomial confidence — the closed
//!    formula and the sampled reality must tell the same story.
//! 3. **Exact agreement**: feasibility matches the exhaustive subset
//!    enumeration of `rds-exact`, and the greedy never reports *less*
//!    memory than the provable minimum.
//! 4. **Budget discipline & determinism**: a budgeted plan never spends
//!    past its budget, and replanning reproduces the placement
//!    bit-for-bit.
//!
//! The [`Mutation::IgnoreReliability`] mutant flattens the model to its
//! mean failure probability with no zones before planning — exactly the
//! defect of a scheduler that replicates uniformly "for safety" without
//! reading the failure data. Target honesty catches it: the flattened
//! planner claims feasibility that the true model refutes.

use crate::arm::{ArmReport, Violation};
use crate::registry::Mutation;
use rand::Rng;
use rds_algs::survival::{SurvivalPlacement, TARGET_EPS};
use rds_core::{Instance, ReliabilityModel, Result};
use rds_exact::min_memory_survival;
use rds_workloads::monte_carlo_survival;
use rds_workloads::rng::{child_seed, rng};

/// Monte-Carlo trials per case (binomial σ ≈ 0.013 at p = 0.5).
const MC_TRIALS: usize = 1500;

/// One survival case: an instance plus a heterogeneous cluster model
/// and a per-task survival target.
#[derive(Debug, Clone, PartialEq)]
pub struct SurvivalSpec {
    /// Estimated processing times.
    pub estimates: Vec<f64>,
    /// Per-machine failure probabilities (length = `m`).
    pub fail: Vec<f64>,
    /// Zone of each machine.
    pub zone_of: Vec<usize>,
    /// Per-zone outage probabilities.
    pub zone_fail: Vec<f64>,
    /// Per-task survival target.
    pub target: f64,
    /// Seed for the Monte-Carlo fault scripts of this case.
    pub mc_seed: u64,
}

impl SurvivalSpec {
    /// Builds the instance and true reliability model.
    ///
    /// # Errors
    /// Propagates validation failures (a well-formed generator never
    /// triggers them).
    pub fn build(&self) -> Result<(Instance, ReliabilityModel)> {
        let inst = Instance::from_estimates(&self.estimates, self.fail.len())?;
        let model = ReliabilityModel::new(
            self.fail.clone(),
            self.zone_of.clone(),
            self.zone_fail.clone(),
        )?;
        Ok((inst, model))
    }
}

/// The individual survival checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SurvivalCheck {
    /// The planner returned an error on a valid case.
    PlannerError,
    /// Claimed feasibility but a task misses the target under the true
    /// model.
    TargetHonesty,
    /// Analytic survival and Monte-Carlo estimate disagree beyond the
    /// confidence band.
    MonteCarloAgreement,
    /// Feasibility disagrees with exhaustive enumeration, or memory is
    /// below the provable minimum.
    ExactAgreement,
    /// A budgeted plan exceeded its memory budget.
    BudgetDiscipline,
    /// Replanning produced a different placement.
    Determinism,
}

impl SurvivalCheck {
    /// Stable wire tag.
    pub fn as_str(self) -> &'static str {
        match self {
            SurvivalCheck::PlannerError => "planner-error",
            SurvivalCheck::TargetHonesty => "target-honesty",
            SurvivalCheck::MonteCarloAgreement => "monte-carlo-agreement",
            SurvivalCheck::ExactAgreement => "exact-agreement",
            SurvivalCheck::BudgetDiscipline => "budget-discipline",
            SurvivalCheck::Determinism => "determinism",
        }
    }
}

/// Generates the `index`-th survival case of the stream rooted at
/// `seed`. Clusters are deliberately lopsided: failure probabilities
/// span an order of magnitude and zones carry correlated outage risk,
/// so reliability-blind planning is actually wrong, not just untested.
pub fn generate_survival_case(seed: u64, index: u64, max_n: usize, max_m: usize) -> SurvivalSpec {
    // Offset the stream so survival cases never share RNG streams with
    // the makespan cases of the same index.
    let case_seed = child_seed(seed ^ 0x5u64.rotate_left(61), index);
    let mut r = rng(case_seed);
    let m = r.gen_range(2..=max_m.max(2));
    let n = r.gen_range(1..=max_n.max(1));
    let estimates: Vec<f64> = (0..n).map(|_| r.gen_range(0.5..12.0)).collect();
    let fail: Vec<f64> = (0..m).map(|_| r.gen_range(0.02..0.45)).collect();
    let zones = r.gen_range(1..=m.min(4));
    let zone_of: Vec<usize> = (0..m).map(|i| i * zones / m).collect();
    let zone_fail: Vec<f64> = (0..zones).map(|_| r.gen_range(0.0..0.15)).collect();
    let target = r.gen_range(0.80..0.995);
    SurvivalSpec {
        estimates,
        fail,
        zone_of,
        zone_fail,
        target,
        mc_seed: child_seed(case_seed, 0xFACE),
    }
}

/// The model the planner sees under a mutation. `IgnoreReliability`
/// flattens every machine to the mean failure probability and erases
/// the zones — the placement math of a scheduler that never reads the
/// failure data.
fn planner_model(true_model: &ReliabilityModel, mutation: Mutation) -> Result<ReliabilityModel> {
    match mutation {
        Mutation::IgnoreReliability => {
            let m = true_model.m();
            let mean = (0..m)
                .map(|i| true_model.machine_fail(rds_core::MachineId::new(i)))
                .sum::<f64>()
                / m as f64;
            ReliabilityModel::uniform(m, mean)
        }
        _ => Ok(true_model.clone()),
    }
}

/// Runs the survival-check battery for one case.
///
/// # Errors
/// Only on invalid specs (a well-formed generator never triggers them);
/// planner failures on valid cases are *violations*, not errors.
pub fn check_survival_case(
    spec: &SurvivalSpec,
    mutation: Mutation,
) -> Result<ArmReport<SurvivalCheck>> {
    let mut report = ArmReport::default();
    let (inst, true_model) = spec.build()?;
    let plan_model = planner_model(&true_model, mutation)?;

    // Check 1: the planner must accept every in-domain case.
    report.checks_run += 1;
    let planner = SurvivalPlacement::new(plan_model.clone(), spec.target)?;
    let plan = match planner.plan(&inst) {
        Ok(plan) => plan,
        Err(e) => {
            report.violations.push(Violation {
                check: SurvivalCheck::PlannerError,
                observed: 0.0,
                limit: 0.0,
                detail: format!("planner rejected a valid case: {e}"),
            });
            return Ok(report);
        }
    };

    // Check 2: target honesty under the TRUE model.
    report.checks_run += 1;
    if plan.feasible {
        let true_survival = true_model.placement_survival(&plan.placement);
        for (j, &p) in true_survival.iter().enumerate() {
            if p + TARGET_EPS < spec.target {
                report.violations.push(Violation {
                    check: SurvivalCheck::TargetHonesty,
                    observed: p,
                    limit: spec.target,
                    detail: format!(
                        "task {j} claimed feasible at {p:.6} < target {:.6}",
                        spec.target
                    ),
                });
            }
        }
    }

    // Check 3: analytic bound vs Monte-Carlo estimate under seeded
    // fault sampling of the true model (~4.5σ + slack band; at 1500
    // trials a false positive is a < 1e-5 event per task).
    report.checks_run += 1;
    let analytic = true_model.placement_survival(&plan.placement);
    let mc = monte_carlo_survival(
        &plan.placement,
        &true_model,
        MC_TRIALS,
        &mut rng(spec.mc_seed),
    );
    for (j, (&a, &e)) in analytic.iter().zip(mc.iter()).enumerate() {
        let sigma = (a.clamp(0.01, 0.99) * (1.0 - a.clamp(0.01, 0.99)) / MC_TRIALS as f64).sqrt();
        let tol = 4.5 * sigma + 0.015;
        if (a - e).abs() > tol {
            report.violations.push(Violation {
                check: SurvivalCheck::MonteCarloAgreement,
                observed: e,
                limit: a,
                detail: format!("task {j}: analytic {a:.4} vs monte-carlo {e:.4} (tol {tol:.4})"),
            });
        }
    }

    // Check 4: agreement with exhaustive enumeration (planner model —
    // the greedy is judged against the optimum of the problem it was
    // actually asked to solve; the mutant's dishonesty is check 2's
    // job).
    if inst.m() <= rds_exact::survival::MAX_MACHINES {
        report.checks_run += 1;
        let exact = min_memory_survival(&inst, &plan_model, spec.target)?;
        if plan.feasible != exact.feasible {
            report.violations.push(Violation {
                check: SurvivalCheck::ExactAgreement,
                observed: plan.feasible as u8 as f64,
                limit: exact.feasible as u8 as f64,
                detail: format!(
                    "greedy feasibility {} but exact enumeration says {}",
                    plan.feasible, exact.feasible
                ),
            });
        } else if plan.feasible && plan.memory < exact.memory - 1e-9 {
            report.violations.push(Violation {
                check: SurvivalCheck::ExactAgreement,
                observed: plan.memory,
                limit: exact.memory,
                detail: format!(
                    "greedy memory {} below the provable minimum {}",
                    plan.memory, exact.memory
                ),
            });
        }
    }

    // Check 5: budget discipline — replan under a tight budget and
    // verify the spend.
    report.checks_run += 1;
    let budget = inst.n() as f64 + (inst.n() / 2) as f64;
    let budgeted = SurvivalPlacement::new(plan_model.clone(), spec.target)?
        .with_budget(budget)?
        .plan(&inst)?;
    if budgeted.memory > budget + TARGET_EPS {
        report.violations.push(Violation {
            check: SurvivalCheck::BudgetDiscipline,
            observed: budgeted.memory,
            limit: budget,
            detail: format!("spent {} of budget {budget}", budgeted.memory),
        });
    }

    // Check 6: determinism — replanning is bit-identical.
    report.checks_run += 1;
    let again = planner.plan(&inst)?;
    if again.placement != plan.placement {
        report.violations.push(Violation {
            check: SurvivalCheck::Determinism,
            observed: 1.0,
            limit: 0.0,
            detail: "replanning produced a different placement".into(),
        });
    }

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_in_domain() {
        for index in 0..32 {
            let a = generate_survival_case(42, index, 12, 8);
            let b = generate_survival_case(42, index, 12, 8);
            assert_eq!(a, b);
            let (inst, model) = a.build().unwrap();
            assert!(inst.n() >= 1 && inst.m() >= 2);
            assert!(model.zones() >= 1);
            assert!((0.0..=1.0).contains(&a.target));
        }
    }

    #[test]
    fn clean_stream_has_no_violations() {
        for index in 0..24 {
            let spec = generate_survival_case(42, index, 12, 8);
            let report = check_survival_case(&spec, Mutation::None).unwrap();
            assert!(
                report.violations.is_empty(),
                "case {index}: {:?}",
                report.violations
            );
            assert!(report.checks_run >= 5);
        }
    }

    #[test]
    fn ignore_reliability_mutant_is_caught() {
        let mut caught = 0;
        for index in 0..32 {
            let spec = generate_survival_case(42, index, 12, 8);
            let report = check_survival_case(&spec, Mutation::IgnoreReliability).unwrap();
            if report
                .violations
                .iter()
                .any(|v| v.check == SurvivalCheck::TargetHonesty)
            {
                caught += 1;
            }
        }
        assert!(
            caught >= 3,
            "reliability-blind mutant escaped target honesty ({caught}/32 caught)"
        );
    }

    #[test]
    fn drop_replica_mutation_leaves_survival_checks_clean() {
        // DropReplica mutates the makespan battery's strategies, not
        // the survival planner: the survival arm must stay quiet.
        for index in 0..8 {
            let spec = generate_survival_case(42, index, 12, 8);
            let report = check_survival_case(&spec, Mutation::DropReplica).unwrap();
            assert!(report.violations.is_empty(), "case {index}");
        }
    }
}

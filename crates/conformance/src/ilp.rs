//! The ILP arm of the conformance oracle: differential verification of
//! the optimization-based placement family (`IlpPlacement` branch-and-
//! bound and `LpRoundingPlacement`) against certified optima and the LP
//! relaxation bound.
//!
//! Each case of the stream gets a seeded `(estimates, sizes)` instance;
//! even indices run the *slack* family (no memory budget — the IP is
//! exactly `P || C_max` on the envelopes, so the branch-and-bound must
//! agree with `rds-exact`'s certified optimum), odd indices run the
//! *tight* family (budget pinned to what the size-driven greedy
//! achieves, so feasibility is guaranteed but the budget actually
//! binds). The battery checks:
//!
//! 1. **Feasibility**: every produced placement respects the memory
//!    budget and the per-task replica bounds, for both strategies.
//! 2. **Bound soundness**: the branch-and-bound makespan is never below
//!    its own combinatorial lower bound or the LP relaxation bound, and
//!    the rounding makespan is never below a proved optimum.
//! 3. **Exact agreement**: on slack small instances a proved solve
//!    matches `rds-exact::OptimalSolver` on the envelope times exactly.
//! 4. **Determinism**: replanning reproduces the placement bit-for-bit.
//! 5. **Time-box fallback**: a node budget of 1 still yields a feasible
//!    placement (anytime behaviour — the solver degrades, never hangs).
//!
//! The [`Mutation::IgnoreMemoryBudget`] mutant drops the budget before
//! planning while the oracle still checks the spec's budget — exactly
//! the defect of a placer that optimizes load and hopes memory works
//! out. The feasibility check catches it on the tight family.

use crate::arm::{ArmReport, Violation};
use crate::registry::Mutation;
use rand::Rng;
use rds_algs::{IlpPlacement, LpRoundingPlacement, Strategy};
use rds_core::{memory, Instance, Result, Size, Uncertainty};
use rds_exact::{OptimalSolver, PlacementModel};
use rds_workloads::rng::{child_seed, rng};

/// Relative tolerance for float bound comparisons.
const TOL: f64 = 1e-9;

/// Largest `n` for which the slack family cross-checks the certified
/// optimum (the exact solver is exponential in the worst case).
const EXACT_MAX_N: usize = 10;

/// One ILP case: an instance with sizes, an uncertainty level, and an
/// optional memory budget.
#[derive(Debug, Clone, PartialEq)]
pub struct IlpSpec {
    /// Estimated processing times.
    pub estimates: Vec<f64>,
    /// Per-task memory sizes (same length).
    pub sizes: Vec<f64>,
    /// Number of machines.
    pub m: usize,
    /// Uncertainty level `α ≥ 1`.
    pub alpha: f64,
    /// Per-machine memory budget; `None` is the slack (unbounded)
    /// family.
    pub budget: Option<f64>,
    /// Replication budget for the padded placement.
    pub k: usize,
    /// Branch-and-bound node budget for the main solve.
    pub node_limit: u64,
}

impl IlpSpec {
    /// Builds the instance.
    ///
    /// # Errors
    /// Propagates validation failures (a well-formed generator never
    /// triggers them).
    pub fn build(&self) -> Result<Instance> {
        let pairs: Vec<(f64, f64)> = self
            .estimates
            .iter()
            .copied()
            .zip(self.sizes.iter().copied())
            .collect();
        Instance::from_estimates_and_sizes(&pairs, self.m)
    }
}

/// The individual ILP checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IlpCheck {
    /// The planner returned an error on a valid case.
    PlannerError,
    /// A placement exceeded the spec's memory budget.
    MemoryBudget,
    /// A placement violated the per-task replica bounds.
    ReplicaBudget,
    /// A solver makespan fell below one of its own lower bounds.
    BoundSoundness,
    /// A proved slack-family solve disagrees with the certified optimum.
    ExactAgreement,
    /// Replanning produced a different placement.
    Determinism,
    /// The time-boxed solve failed to produce a feasible placement.
    TimeBoxFallback,
}

impl IlpCheck {
    /// Stable wire tag.
    pub fn as_str(self) -> &'static str {
        match self {
            IlpCheck::PlannerError => "planner-error",
            IlpCheck::MemoryBudget => "memory-budget",
            IlpCheck::ReplicaBudget => "replica-budget",
            IlpCheck::BoundSoundness => "bound-soundness",
            IlpCheck::ExactAgreement => "exact-agreement",
            IlpCheck::Determinism => "determinism",
            IlpCheck::TimeBoxFallback => "time-box-fallback",
        }
    }
}

/// Generates the `index`-th ILP case of the stream rooted at `seed`.
/// Sizes are drawn independently of the times, so load-optimal and
/// memory-optimal assignments genuinely disagree; the tight family's
/// budget is pinned to the size-driven greedy's achieved `Mem_max`,
/// which keeps every case feasible while making the budget bind.
pub fn generate_ilp_case(seed: u64, index: u64, max_n: usize, max_m: usize) -> IlpSpec {
    // Offset the stream so ILP cases never share RNG streams with the
    // makespan (no offset) or survival (0x5) cases of the same index.
    let case_seed = child_seed(seed ^ 0x8u64.rotate_left(61), index);
    let mut r = rng(case_seed);
    let m = r.gen_range(2..=max_m.max(2));
    let n = r.gen_range(1..=max_n.max(1));
    let estimates: Vec<f64> = (0..n).map(|_| r.gen_range(0.5..12.0)).collect();
    let sizes: Vec<f64> = (0..n).map(|_| r.gen_range(1.0..9.0)).collect();
    let alpha = r.gen_range(1.0..2.5);
    let k = r.gen_range(1..=3usize);
    let budget = if index.is_multiple_of(2) {
        None
    } else {
        // What worst-fit-decreasing on sizes achieves is always
        // reachable, so this budget is feasible yet near-minimal.
        let model = PlacementModel::new(&estimates, &sizes, m, f64::INFINITY)
            .expect("generator emits valid model inputs");
        let bfd = model
            .greedy_bfd()
            .expect("unbounded greedy always succeeds");
        let mem_max = model
            .memory_of(&bfd)
            .into_iter()
            .fold(0.0f64, f64::max)
            .max(1.0);
        Some(mem_max * (1.0 + 1e-6))
    };
    IlpSpec {
        estimates,
        sizes,
        m,
        alpha,
        budget,
        k,
        node_limit: 200_000,
    }
}

/// The budget the planner sees under a mutation. `IgnoreMemoryBudget`
/// erases it — the placement math of a scheduler that optimizes load
/// and never reads the memory column.
fn planner_budget(spec: &IlpSpec, mutation: Mutation) -> Option<f64> {
    match mutation {
        Mutation::IgnoreMemoryBudget => None,
        _ => spec.budget,
    }
}

/// Feasibility battery shared by both strategies: memory budget and
/// replica bounds, always judged against the *spec's* budget.
fn check_placement_feasibility(
    label: &str,
    inst: &Instance,
    placement: &rds_core::Placement,
    spec: &IlpSpec,
    report: &mut ArmReport<IlpCheck>,
) {
    report.checks_run += 1;
    if let Some(b) = spec.budget {
        let mem = memory::mem_max(inst, placement).get();
        if mem > b * (1.0 + TOL) {
            report.violations.push(Violation {
                check: IlpCheck::MemoryBudget,
                observed: mem,
                limit: b,
                detail: format!("{label}: Mem_max {mem} exceeds budget {b}"),
            });
        }
    }
    report.checks_run += 1;
    let k_eff = spec.k.min(spec.m);
    if placement.check_budget(k_eff).is_err() {
        report.violations.push(Violation {
            check: IlpCheck::ReplicaBudget,
            observed: k_eff as f64 + 1.0,
            limit: k_eff as f64,
            detail: format!("{label}: some task exceeds {k_eff} replicas"),
        });
    }
    for t in inst.task_ids() {
        if placement.replicas(t) == 0 {
            report.violations.push(Violation {
                check: IlpCheck::ReplicaBudget,
                observed: 0.0,
                limit: 1.0,
                detail: format!("{label}: task {} has no replica", t.index()),
            });
        }
    }
}

/// Runs the ILP check battery for one case.
///
/// # Errors
/// Only on invalid specs (a well-formed generator never triggers them);
/// planner failures on valid cases are *violations*, not errors.
pub fn check_ilp_case(spec: &IlpSpec, mutation: Mutation) -> Result<ArmReport<IlpCheck>> {
    let mut report = ArmReport::default();
    let inst = spec.build()?;
    let unc = Uncertainty::of(spec.alpha);
    let budget = planner_budget(spec, mutation);

    let with_budget = |mut s: IlpPlacement| {
        if let Some(b) = budget {
            s = s.with_budget(Size::of(b));
        }
        s.with_node_limit(spec.node_limit)
    };
    let ilp = with_budget(IlpPlacement::new(spec.k)?);

    // Check 1: the planner must accept every in-domain case.
    report.checks_run += 1;
    let placement = match ilp.place(&inst, unc) {
        Ok(p) => p,
        Err(e) => {
            report.violations.push(Violation {
                check: IlpCheck::PlannerError,
                observed: 0.0,
                limit: 0.0,
                detail: format!("ILP planner rejected a valid case: {e}"),
            });
            return Ok(report);
        }
    };

    // Check 2: feasibility of the branch-and-bound placement.
    check_placement_feasibility("ilp", &inst, &placement, spec, &mut report);

    // Check 3: bound soundness of the solve itself.
    report.checks_run += 1;
    let solve = ilp.solve_model(&inst, unc)?;
    let mk = solve.makespan.get();
    let lb = solve.lower_bound.get();
    if mk < lb - TOL * lb.max(1.0) {
        report.violations.push(Violation {
            check: IlpCheck::BoundSoundness,
            observed: mk,
            limit: lb,
            detail: format!("ilp makespan {mk} below combinatorial bound {lb}"),
        });
    }
    if let Some(lp) = solve.lp_bound {
        if mk < lp - TOL * lp.max(1.0) {
            report.violations.push(Violation {
                check: IlpCheck::BoundSoundness,
                observed: mk,
                limit: lp,
                detail: format!("ilp makespan {mk} below LP relaxation bound {lp}"),
            });
        }
    }

    // Check 4: exact agreement on the slack family — with no budget the
    // IP is P || C_max on the envelopes, so a proved solve must match
    // the certified optimum bit-for-bit (within float tolerance).
    if spec.budget.is_none() && spec.estimates.len() <= EXACT_MAX_N && solve.proved {
        report.checks_run += 1;
        let envelopes: Vec<rds_core::Time> =
            inst.task_ids().map(|t| unc.hi(inst.estimate(t))).collect();
        let opt = OptimalSolver::default().solve(&envelopes, spec.m);
        let lo = opt.lo.get();
        if (mk - lo).abs() > TOL * lo.max(1.0) {
            report.violations.push(Violation {
                check: IlpCheck::ExactAgreement,
                observed: mk,
                limit: lo,
                detail: format!("proved ilp makespan {mk} != certified optimum {lo}"),
            });
        }
    }

    // Checks 5+6: the LP-rounding strategy is feasible and never beats
    // a proved optimum of the same model.
    let rounding = {
        let mut s = LpRoundingPlacement::new(spec.k)?;
        if let Some(b) = budget {
            s = s.with_budget(Size::of(b));
        }
        s
    };
    report.checks_run += 1;
    match rounding.place(&inst, unc) {
        Ok(p) => {
            check_placement_feasibility("lp-round", &inst, &p, spec, &mut report);
            let r = rounding.solve_model(&inst, unc)?;
            let rmk = r.makespan.get();
            if solve.proved && rmk < mk - TOL * mk.max(1.0) {
                report.violations.push(Violation {
                    check: IlpCheck::BoundSoundness,
                    observed: rmk,
                    limit: mk,
                    detail: format!("rounding makespan {rmk} beats the proved optimum {mk}"),
                });
            }
        }
        Err(e) => {
            report.violations.push(Violation {
                check: IlpCheck::PlannerError,
                observed: 0.0,
                limit: 0.0,
                detail: format!("LP-rounding rejected a valid case: {e}"),
            });
        }
    }

    // Check 7: determinism — replanning is bit-identical.
    report.checks_run += 1;
    let again = ilp.place(&inst, unc)?;
    if again != placement {
        report.violations.push(Violation {
            check: IlpCheck::Determinism,
            observed: 1.0,
            limit: 0.0,
            detail: "replanning produced a different placement".into(),
        });
    }

    // Check 8: time-box fallback — a node budget of 1 must still yield
    // a feasible placement (anytime degradation, never a hang or error).
    report.checks_run += 1;
    let boxed = with_budget(IlpPlacement::new(spec.k)?).with_node_limit(1);
    match boxed.place(&inst, unc) {
        Ok(p) => check_placement_feasibility("time-boxed ilp", &inst, &p, spec, &mut report),
        Err(e) => {
            report.violations.push(Violation {
                check: IlpCheck::TimeBoxFallback,
                observed: 0.0,
                limit: 0.0,
                detail: format!("time-boxed solve failed instead of degrading: {e}"),
            });
        }
    }

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_in_domain() {
        for index in 0..32 {
            let a = generate_ilp_case(42, index, 12, 8);
            let b = generate_ilp_case(42, index, 12, 8);
            assert_eq!(a, b);
            let inst = a.build().unwrap();
            assert!(inst.n() >= 1 && inst.m() >= 2);
            assert!(a.alpha >= 1.0);
            assert!(a.k >= 1);
            assert_eq!(a.budget.is_some(), index % 2 == 1);
            if let Some(b) = a.budget {
                assert!(b >= inst.max_size().get(), "budget below max task size");
            }
        }
    }

    #[test]
    fn clean_stream_has_no_violations() {
        for index in 0..24 {
            let spec = generate_ilp_case(42, index, 12, 8);
            let report = check_ilp_case(&spec, Mutation::None).unwrap();
            assert!(
                report.violations.is_empty(),
                "case {index}: {:?}",
                report.violations
            );
            assert!(report.checks_run >= 6);
        }
    }

    #[test]
    fn ignore_memory_budget_mutant_is_caught() {
        let mut caught = 0;
        for index in 0..32 {
            let spec = generate_ilp_case(42, index, 12, 8);
            let report = check_ilp_case(&spec, Mutation::IgnoreMemoryBudget).unwrap();
            if report
                .violations
                .iter()
                .any(|v| v.check == IlpCheck::MemoryBudget)
            {
                caught += 1;
            }
        }
        assert!(
            caught >= 3,
            "memory-blind mutant escaped the feasibility check ({caught}/32 caught)"
        );
    }

    #[test]
    fn unrelated_mutations_leave_ilp_checks_clean() {
        // DropReplica mutates the makespan battery's strategies and
        // IgnoreReliability the survival planner: the ILP arm must stay
        // quiet under both.
        for index in 0..8 {
            let spec = generate_ilp_case(42, index, 12, 8);
            for mutation in [Mutation::DropReplica, Mutation::IgnoreReliability] {
                let report = check_ilp_case(&spec, mutation).unwrap();
                assert!(
                    report.violations.is_empty(),
                    "case {index} under {}: {:?}",
                    mutation.as_str(),
                    report.violations
                );
            }
        }
    }
}

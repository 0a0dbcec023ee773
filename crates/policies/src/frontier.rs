//! The makespan-vs-memory Pareto frontier: optimization-based placement
//! (`IlpPlacement`, `LpRoundingPlacement`) swept over a grid of memory
//! budgets against the paper's greedy strategies.
//!
//! The paper's strategies trade replication freedom for makespan with
//! memory as an afterthought; the ILP family makes the memory budget a
//! first-class constraint. This module runs every configuration under
//! the *same* realization and emits one [`ParetoPoint`] per run —
//! realized makespan on one axis, peak per-machine memory (`Mem_max`)
//! on the other — so `rds frontier` (and the EXPERIMENTS walkthrough)
//! can print the frontier and show where budget-constrained placement
//! dominates the greedy baselines.

use rds_algs::{
    IlpPlacement, LpRoundingPlacement, LptGroup, LptNoChoice, LptNoRestriction, LsGroup,
    SpeedRobustBags, Strategy,
};
use rds_core::{
    memory, Error, Instance, MachineSpeeds, NetworkTopology, Realization, Result, Size, Uncertainty,
};

/// Tolerance for dominance comparisons on the frontier.
const EPS: f64 = 1e-9;

/// One strategy run on the makespan-vs-memory plane.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoPoint {
    /// Display label (the strategy's `name()`).
    pub label: String,
    /// Realized makespan under the sweep's shared realization.
    pub makespan: f64,
    /// Peak per-machine memory `Mem_max`.
    pub mem_max: f64,
    /// Total memory across machines (`Σ_j |M_j| · s_j`).
    pub total_memory: f64,
    /// Total number of replicas placed.
    pub replicas: usize,
    /// `true` when no other point of the sweep dominates this one.
    pub on_frontier: bool,
}

impl ParetoPoint {
    /// `self` dominates `other`: no worse on both objectives, strictly
    /// better on at least one.
    pub fn dominates(&self, other: &ParetoPoint) -> bool {
        let no_worse = self.makespan <= other.makespan + EPS && self.mem_max <= other.mem_max + EPS;
        let strictly = self.makespan + EPS < other.makespan || self.mem_max + EPS < other.mem_max;
        no_worse && strictly
    }
}

/// A linear grid of `steps ≥ 2` per-machine memory budgets from the
/// pigeonhole lower bound (`max(max_j s_j, Σ_j s_j / m)`, below which no
/// placement can exist) up to the bound the size-driven greedy always
/// meets (`Σ_j s_j / m + max_j s_j`). The low end may still be
/// partition-infeasible; the sweep skips those points.
pub fn budget_grid(instance: &Instance, steps: usize) -> Vec<f64> {
    let lo = memory::mem_max_lower_bound(instance).get();
    let hi = instance.total_size().get() / instance.m() as f64 + instance.max_size().get();
    let steps = steps.max(2);
    (0..steps)
        .map(|i| lo + (hi - lo) * i as f64 / (steps - 1) as f64)
        .collect()
}

/// The LP lower-bound curve over a budget grid: for each budget, the
/// optimal value of the fractional placement relaxation (`None` where
/// the LP is infeasible, failed, or the model is too large for the
/// dense simplex). Computed as **one** warm-started simplex sweep —
/// [`rds_exact::PlacementModel::lp_relaxation_over_budgets`] reuses the
/// previous budget point's optimal basis, so the whole curve costs a
/// few pivots per point instead of a full two-phase solve each — and
/// each value equals what a cold solve at that budget produces.
///
/// # Errors
/// [`Error::InvalidParameter`] when the instance rejects model building
/// (e.g. non-finite task data).
pub fn lp_bound_curve(
    instance: &Instance,
    unc: Uncertainty,
    budgets: &[f64],
) -> Result<Vec<(f64, Option<f64>)>> {
    let model = rds_exact::PlacementModel::from_instance(instance, unc, None).map_err(|_| {
        Error::InvalidParameter {
            what: "instance does not admit a placement LP model",
        }
    })?;
    Ok(budgets
        .iter()
        .zip(model.lp_relaxation_over_budgets(budgets))
        .map(|(&b, r)| (b, r.map(|r| r.bound)))
        .collect())
}

/// A heterogeneous execution profile for frontier and sweep
/// measurement: optional per-machine speeds (revealed in phase 2) and
/// an optional transfer-latency topology (charged on remote starts).
/// The default profile is the paper's homogeneous model.
#[derive(Debug, Clone, Default)]
pub struct HeteroProfile {
    /// Per-machine speed factors; `None` means identical machines.
    pub speeds: Option<MachineSpeeds>,
    /// Transfer-latency matrix; `None` means data access is free.
    pub topology: Option<NetworkTopology>,
}

impl HeteroProfile {
    /// Whether this profile is the paper's base model.
    pub fn is_homogeneous(&self) -> bool {
        self.speeds.is_none() && self.topology.is_none()
    }
}

/// Runs one strategy and converts the outcome to a point; returns
/// `Ok(None)` when the configuration is infeasible (a budget below the
/// partition minimum) rather than failing the sweep. A homogeneous
/// profile takes the closed-form path (bit-identical to the historical
/// sweep); a heterogeneous one executes the strategy's placement
/// through the speed/locality-aware event engine.
fn run_point(
    strategy: &dyn Strategy,
    instance: &Instance,
    unc: Uncertainty,
    realization: &Realization,
    profile: &HeteroProfile,
) -> Result<Option<ParetoPoint>> {
    if profile.is_homogeneous() {
        return match strategy.run(instance, unc, realization) {
            Ok(outcome) => Ok(Some(ParetoPoint {
                label: strategy.name(),
                makespan: outcome.makespan.get(),
                mem_max: memory::mem_max(instance, &outcome.placement).get(),
                total_memory: memory::total(instance, &outcome.placement).get(),
                replicas: outcome.placement.total_replicas(),
                on_frontier: false,
            })),
            Err(Error::InvalidParameter { .. }) => Ok(None),
            Err(e) => Err(e),
        };
    }
    let placement = match strategy.place(instance, unc) {
        Ok(p) => p,
        Err(Error::InvalidParameter { .. }) => return Ok(None),
        Err(e) => return Err(e),
    };
    let res = rds_sim::executors::simulate_hetero(
        instance,
        &placement,
        realization,
        profile.speeds.as_ref(),
        profile.topology.as_ref(),
    )?;
    Ok(Some(ParetoPoint {
        label: strategy.name(),
        makespan: res.makespan.get(),
        mem_max: memory::mem_max(instance, &placement).get(),
        total_memory: memory::total(instance, &placement).get(),
        replicas: placement.total_replicas(),
        on_frontier: false,
    }))
}

/// Marks every non-dominated point of the sweep.
pub fn mark_frontier(points: &mut [ParetoPoint]) {
    let snapshot = points.to_vec();
    for p in points.iter_mut() {
        p.on_frontier = !snapshot.iter().any(|q| q.dominates(p));
    }
}

/// Measures the full sweep: the greedy baselines (the paper's two LPT
/// extremes plus both group families for every divisor of `m`), then
/// `IlpPlacement` and `LpRoundingPlacement` for every `k` in `ks` at
/// every budget in `budgets`. All points run under the same
/// `realization`; infeasible (budget, k) combinations are skipped.
///
/// # Errors
/// Propagates placement and execution errors other than infeasibility.
pub fn pareto_sweep(
    instance: &Instance,
    unc: Uncertainty,
    realization: &Realization,
    ks: &[usize],
    budgets: &[f64],
) -> Result<Vec<ParetoPoint>> {
    pareto_sweep_hetero(
        instance,
        unc,
        realization,
        ks,
        budgets,
        &HeteroProfile::default(),
    )
}

/// [`pareto_sweep`] under a heterogeneous execution profile: every point
/// is measured through the speed/locality-aware engine, and the
/// `SpeedRobust-Bags` family joins the baselines (it only pays off when
/// machines actually differ, so the homogeneous sweep stays unchanged).
///
/// # Errors
/// Propagates placement and execution errors other than infeasibility.
pub fn pareto_sweep_hetero(
    instance: &Instance,
    unc: Uncertainty,
    realization: &Realization,
    ks: &[usize],
    budgets: &[f64],
    profile: &HeteroProfile,
) -> Result<Vec<ParetoPoint>> {
    let _span = rds_obs::span("frontier.pareto_sweep");
    let m = instance.m();
    let mut points = Vec::new();

    let mut baselines: Vec<Box<dyn Strategy>> =
        vec![Box::new(LptNoChoice), Box::new(LptNoRestriction)];
    for k in (1..=m).filter(|&k| m.is_multiple_of(k)) {
        baselines.push(Box::new(LsGroup::new(k)));
        baselines.push(Box::new(LptGroup::new(k)));
        if !profile.is_homogeneous() {
            baselines.push(Box::new(SpeedRobustBags::new(k)));
        }
    }
    for s in &baselines {
        if let Some(p) = run_point(s.as_ref(), instance, unc, realization, profile)? {
            points.push(p);
        }
    }

    for &k in ks {
        for &b in budgets {
            let ilp = IlpPlacement::new(k)?.with_budget(Size::of(b));
            if let Some(p) = run_point(&ilp, instance, unc, realization, profile)? {
                points.push(p);
            }
            let lpr = LpRoundingPlacement::new(k)?.with_budget(Size::of(b));
            if let Some(p) = run_point(&lpr, instance, unc, realization, profile)? {
                points.push(p);
            }
        }
    }

    mark_frontier(&mut points);
    if rds_obs::enabled() {
        let g = rds_obs::global();
        g.counter("frontier.points").add(points.len() as u64);
        g.counter("frontier.pareto")
            .add(points.iter().filter(|p| p.on_frontier).count() as u64);
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 12 sized tasks on 4 machines; sizes anti-correlate with times so
    /// load-optimal and memory-optimal placements genuinely differ.
    fn instance() -> Instance {
        let pairs: Vec<(f64, f64)> = (0..12)
            .map(|i| (1.0 + (i % 5) as f64, 1.0 + ((11 - i) % 4) as f64))
            .collect();
        Instance::from_estimates_and_sizes(&pairs, 4).unwrap()
    }

    #[test]
    fn sweep_is_deterministic_and_marks_a_frontier() {
        let inst = instance();
        let unc = Uncertainty::of(1.5);
        let real = Realization::uniform_factor(&inst, unc, 1.2).unwrap();
        let budgets = budget_grid(&inst, 4);
        let a = pareto_sweep(&inst, unc, &real, &[1, 2], &budgets).unwrap();
        let b = pareto_sweep(&inst, unc, &real, &[1, 2], &budgets).unwrap();
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.iter().any(|p| p.on_frontier), "empty frontier: {a:?}");
        // Every off-frontier point is dominated by an on-frontier one.
        for p in a.iter().filter(|p| !p.on_frontier) {
            assert!(
                a.iter().any(|q| q.dominates(p)),
                "point {p:?} neither on frontier nor dominated"
            );
        }
    }

    #[test]
    fn lp_bound_curve_matches_cold_relaxations_and_decreases() {
        let inst = instance();
        let unc = Uncertainty::of(1.5);
        let budgets = budget_grid(&inst, 6);
        let curve = lp_bound_curve(&inst, unc, &budgets).unwrap();
        assert_eq!(curve.len(), budgets.len());
        for (i, (b, bound)) in curve.iter().enumerate() {
            assert_eq!(*b, budgets[i]);
            let cold =
                rds_exact::PlacementModel::from_instance(&inst, unc, Some(rds_core::Size::of(*b)))
                    .unwrap()
                    .lp_relaxation();
            match (bound, cold) {
                (Some(w), Some(c)) => {
                    assert!((w - c.bound).abs() < 1e-7, "B={b}: {w} vs {}", c.bound)
                }
                (None, None) => {}
                (w, c) => panic!("B={b}: warm {w:?} vs cold {c:?}"),
            }
        }
        // Loosening the budget can only help the fractional optimum.
        let bounds: Vec<f64> = curve.iter().filter_map(|(_, v)| *v).collect();
        assert!(bounds.windows(2).all(|w| w[1] <= w[0] + 1e-9), "{bounds:?}");
    }

    #[test]
    fn hetero_sweep_adds_bags_and_degrades_gracefully() {
        let inst = instance();
        let unc = Uncertainty::of(1.5);
        let real = Realization::uniform_factor(&inst, unc, 1.2).unwrap();
        let budgets = budget_grid(&inst, 3);
        // A slow machine plus a uniform remote latency.
        let profile = HeteroProfile {
            speeds: Some(MachineSpeeds::new(vec![0.5, 1.0, 1.0, 1.0]).unwrap()),
            topology: Some(NetworkTopology::uniform(4, 0.5).unwrap()),
        };
        let hot = pareto_sweep_hetero(&inst, unc, &real, &[1], &budgets, &profile).unwrap();
        let cold = pareto_sweep(&inst, unc, &real, &[1], &budgets).unwrap();
        assert!(hot.iter().any(|p| p.label.starts_with("SpeedRobust-Bags")));
        assert!(!cold.iter().any(|p| p.label.starts_with("SpeedRobust-Bags")));
        // A slow machine and transfer charges can only hurt the best
        // achievable makespan of the sweep.
        let best =
            |pts: &[ParetoPoint]| pts.iter().map(|p| p.makespan).fold(f64::INFINITY, f64::min);
        assert!(best(&hot) >= best(&cold) - 1e-9);
        // Determinism.
        let again = pareto_sweep_hetero(&inst, unc, &real, &[1], &budgets, &profile).unwrap();
        assert_eq!(hot, again);
    }

    #[test]
    fn homogeneous_profile_reproduces_the_plain_sweep() {
        let inst = instance();
        let unc = Uncertainty::of(1.4);
        let real = Realization::uniform_factor(&inst, unc, 1.1).unwrap();
        let budgets = budget_grid(&inst, 3);
        let plain = pareto_sweep(&inst, unc, &real, &[1], &budgets).unwrap();
        let via = pareto_sweep_hetero(&inst, unc, &real, &[1], &budgets, &HeteroProfile::default())
            .unwrap();
        assert_eq!(plain, via);
    }

    #[test]
    fn budget_grid_spans_the_feasible_band() {
        let inst = instance();
        let g = budget_grid(&inst, 5);
        assert_eq!(g.len(), 5);
        assert!(g.windows(2).all(|w| w[0] <= w[1]));
        assert!((g[0] - memory::mem_max_lower_bound(&inst).get()).abs() < 1e-12);
        // The top of the grid is always feasible for the ILP family.
        let unc = Uncertainty::of(1.3);
        let real = Realization::exact(&inst);
        let ilp = IlpPlacement::new(1)
            .unwrap()
            .with_budget(Size::of(*g.last().unwrap()));
        assert!(ilp.run(&inst, unc, &real).is_ok());
    }

    #[test]
    fn tight_budgets_trade_makespan_for_memory() {
        let inst = instance();
        let unc = Uncertainty::of(1.4);
        let real = Realization::uniform_factor(&inst, unc, 1.1).unwrap();
        let budgets = budget_grid(&inst, 6);
        let points = pareto_sweep(&inst, unc, &real, &[1], &budgets).unwrap();
        // The ILP family contributes at least one frontier point: at the
        // generous end it matches the unconstrained optimum on envelopes
        // while the greedy baselines carry no memory discipline.
        let ilp_points: Vec<_> = points
            .iter()
            .filter(|p| p.label.starts_with("ILP("))
            .collect();
        assert!(!ilp_points.is_empty());
        // Under a tighter budget the achieved Mem_max never exceeds the
        // budget it was given, so the sweep's memory axis is honest (the
        // label rounds the budget to 3 decimals, hence the slack).
        for p in &ilp_points {
            let b: f64 = p
                .label
                .split("B=")
                .nth(1)
                .and_then(|s| s.trim_end_matches(')').parse().ok())
                .unwrap();
            assert!(p.mem_max <= b + 1e-3, "{}: {} > {b}", p.label, p.mem_max);
        }
    }
}

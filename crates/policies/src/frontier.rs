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

/// A configuration that produced no placement: its budget admits none,
/// or its solver stopped at a resource limit (e.g. the ILP node budget)
/// first. It has no point on the plane, so it is kept off the frontier
/// and reported beside it.
#[derive(Debug, Clone, PartialEq)]
pub struct SkippedPoint {
    /// Display label (the strategy's `name()`).
    pub label: String,
    /// Why it has no placement, as the solver's error displays it.
    pub reason: String,
}

/// Everything a sweep measured.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParetoSweep {
    /// One point per solved configuration, frontier marked.
    pub points: Vec<ParetoPoint>,
    /// Configurations rejected as infeasible: for `ILP` a proof that no
    /// placement meets the budget, for `LP-Round` only that its
    /// heuristics found none.
    pub infeasible: Vec<SkippedPoint>,
    /// Configurations whose solver hit its resource limit.
    pub unsolved: Vec<SkippedPoint>,
}

/// A linear grid of `steps ≥ 2` per-machine memory budgets from the
/// pigeonhole lower bound (`max(max_j s_j, Σ_j s_j / m)`, below which no
/// placement can exist) up to the bound the size-driven greedy always
/// meets (`Σ_j s_j / m + max_j s_j`). The low end may still be
/// partition-infeasible; the sweep lists those points as infeasible.
pub fn budget_grid(instance: &Instance, steps: usize) -> Vec<f64> {
    let lo = memory::mem_max_lower_bound(instance).get();
    let hi = instance.total_size().get() / instance.m() as f64 + instance.max_size().get();
    let steps = steps.max(2);
    (0..steps)
        .map(|i| lo + (hi - lo) * i as f64 / (steps - 1) as f64)
        .collect()
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

/// Runs one strategy and records its point in `sweep`. An infeasible
/// configuration (a budget below the partition minimum) is recorded as
/// infeasible and one whose solver hit its resource limit as unsolved,
/// rather than failing the sweep. A homogeneous profile takes the
/// closed-form path (bit-identical to the historical sweep); a
/// heterogeneous one executes the strategy's placement through the
/// speed/locality-aware event engine.
fn run_point(
    strategy: &dyn Strategy,
    instance: &Instance,
    unc: Uncertainty,
    realization: &Realization,
    profile: &HeteroProfile,
    sweep: &mut ParetoSweep,
) -> Result<()> {
    let planned = if profile.is_homogeneous() {
        strategy
            .run(instance, unc, realization)
            .map(|outcome| (outcome.placement, Some(outcome.makespan)))
    } else {
        strategy
            .place(instance, unc)
            .map(|placement| (placement, None))
    };
    let (placement, makespan) = match planned {
        Ok(planned) => planned,
        Err(e) => {
            let list = match e {
                Error::InvalidParameter { .. } => &mut sweep.infeasible,
                Error::ResourceLimit { .. } => &mut sweep.unsolved,
                _ => return Err(e),
            };
            list.push(SkippedPoint {
                label: strategy.name(),
                reason: e.to_string(),
            });
            return Ok(());
        }
    };
    let makespan = match makespan {
        Some(makespan) => makespan,
        None => {
            rds_sim::executors::simulate_hetero(
                instance,
                &placement,
                realization,
                profile.speeds.as_ref(),
                profile.topology.as_ref(),
            )?
            .makespan
        }
    };
    sweep.points.push(ParetoPoint {
        label: strategy.name(),
        makespan: makespan.get(),
        mem_max: memory::mem_max(instance, &placement).get(),
        total_memory: memory::total(instance, &placement).get(),
        replicas: placement.total_replicas(),
        on_frontier: false,
    });
    Ok(())
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
/// `realization`; infeasible (budget, k) combinations are listed as
/// infeasible, and those whose solver hits its resource limit as
/// unsolved.
///
/// # Errors
/// Propagates placement and execution errors other than infeasibility
/// and resource limits.
pub fn pareto_sweep(
    instance: &Instance,
    unc: Uncertainty,
    realization: &Realization,
    ks: &[usize],
    budgets: &[f64],
) -> Result<ParetoSweep> {
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
/// Propagates placement and execution errors other than infeasibility
/// and resource limits.
pub fn pareto_sweep_hetero(
    instance: &Instance,
    unc: Uncertainty,
    realization: &Realization,
    ks: &[usize],
    budgets: &[f64],
    profile: &HeteroProfile,
) -> Result<ParetoSweep> {
    let _span = rds_obs::span("frontier.pareto_sweep");
    let m = instance.m();
    let mut sweep = ParetoSweep::default();

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
        run_point(s.as_ref(), instance, unc, realization, profile, &mut sweep)?;
    }

    for &k in ks {
        for &b in budgets {
            let ilp = IlpPlacement::new(k)?.with_budget(Size::of(b));
            run_point(&ilp, instance, unc, realization, profile, &mut sweep)?;
            let lpr = LpRoundingPlacement::new(k)?.with_budget(Size::of(b));
            run_point(&lpr, instance, unc, realization, profile, &mut sweep)?;
        }
    }

    mark_frontier(&mut sweep.points);
    if rds_obs::enabled() {
        let g = rds_obs::global();
        g.counter("frontier.points").add(sweep.points.len() as u64);
        g.counter("frontier.pareto")
            .add(sweep.points.iter().filter(|p| p.on_frontier).count() as u64);
    }
    Ok(sweep)
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
        let a = pareto_sweep(&inst, unc, &real, &[1, 2], &budgets)
            .unwrap()
            .points;
        let b = pareto_sweep(&inst, unc, &real, &[1, 2], &budgets)
            .unwrap()
            .points;
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
    fn cold_lp_bound_never_rises_as_the_budget_loosens() {
        let inst = instance();
        let unc = Uncertainty::of(1.5);
        let bounds: Vec<f64> = budget_grid(&inst, 6)
            .into_iter()
            .filter_map(|b| {
                rds_exact::PlacementModel::from_instance(&inst, unc, Some(Size::of(b)))
                    .unwrap()
                    .lp_relaxation()
                    .map(|r| r.bound)
            })
            .collect();
        assert!(bounds.len() >= 2, "{bounds:?}");
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
        let hot = pareto_sweep_hetero(&inst, unc, &real, &[1], &budgets, &profile)
            .unwrap()
            .points;
        let cold = pareto_sweep(&inst, unc, &real, &[1], &budgets)
            .unwrap()
            .points;
        assert!(hot.iter().any(|p| p.label.starts_with("SpeedRobust-Bags")));
        assert!(!cold.iter().any(|p| p.label.starts_with("SpeedRobust-Bags")));
        // A slow machine and transfer charges can only hurt the best
        // achievable makespan of the sweep.
        let best =
            |pts: &[ParetoPoint]| pts.iter().map(|p| p.makespan).fold(f64::INFINITY, f64::min);
        assert!(best(&hot) >= best(&cold) - 1e-9);
        // Determinism.
        let again = pareto_sweep_hetero(&inst, unc, &real, &[1], &budgets, &profile)
            .unwrap()
            .points;
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
    fn points_without_a_placement_are_listed_off_the_plane() {
        // {3, 3} / {2, 2, 2} fills both machines to B = 6, but LP
        // rounding, LPT and size-BFD all spread the 3s and strand a 2:
        // with one search node the ILP has no placement to return.
        let pairs = [(3.0, 3.0), (3.0, 3.0), (2.0, 2.0), (2.0, 2.0), (2.0, 2.0)];
        let inst = Instance::from_estimates_and_sizes(&pairs, 2).unwrap();
        let unc = Uncertainty::of(1.5);
        let real = Realization::exact(&inst);
        let profile = HeteroProfile::default();
        let ilp = |b: f64| IlpPlacement::new(1).unwrap().with_budget(Size::of(b));
        let mut sweep = ParetoSweep::default();

        let starved = ilp(6.0).with_node_limit(1);
        run_point(&starved, &inst, unc, &real, &profile, &mut sweep).unwrap();
        assert!(sweep.points.is_empty() && sweep.infeasible.is_empty());
        assert_eq!(
            sweep.unsolved,
            [SkippedPoint {
                label: "ILP(k=1,B=6.000)".into(),
                reason: "resource limit reached: ILP node budget".into(),
            }]
        );

        // Below Σs/m no placement exists, whatever the node budget.
        run_point(&ilp(5.5), &inst, unc, &real, &profile, &mut sweep).unwrap();
        assert_eq!(
            sweep.infeasible,
            [SkippedPoint {
                label: "ILP(k=1,B=5.500)".into(),
                reason: "invalid parameter: memory budget admits no feasible placement".into(),
            }]
        );

        // With its full node budget the starved point solves.
        run_point(&ilp(6.0), &inst, unc, &real, &profile, &mut sweep).unwrap();
        assert_eq!(sweep.points.len(), 1);
        assert!(sweep.points[0].mem_max <= 6.0 + 1e-9, "{:?}", sweep.points);
        assert_eq!((sweep.infeasible.len(), sweep.unsolved.len()), (1, 1));
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
        let points = pareto_sweep(&inst, unc, &real, &[1], &budgets)
            .unwrap()
            .points;
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

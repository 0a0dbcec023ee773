//! **`SurvivalPlacement`** — reliability-aware replication under a
//! heterogeneous failure model.
//!
//! The paper's strategies fix one replica count `k` for every task and
//! place blindly with respect to failures. This strategy instead reads a
//! [`ReliabilityModel`] (per-machine failure probabilities plus
//! correlated zones) and picks each task's replica count `k_j` and
//! machine set individually so that the task completes with probability
//! at least `target`, spending as little memory as possible.
//!
//! **Algorithm.** Every task first gets one replica (LPT order, least
//! projected estimated load, flakier machines only as tie-losers) — the
//! base layer any dispatchable placement needs. Then a global greedy
//! loop raises tasks still below the target: each step adds the
//! `(task, machine)` pair with the best marginal survival gain per byte
//! of memory, so cheap-and-safe replicas go first and big tasks pay for
//! replicas only when the reliability math demands it. The marginal gain
//! is computed under the full zone-correlated model, which automatically
//! prefers spreading replicas across failure domains (a second replica
//! in the same rack buys little when the rack itself is the risk).
//!
//! **Degraded mode.** When the target cannot be met under the memory
//! budget, the strategy does not fail: it falls back to lexicographic
//! max-min water-filling — repeatedly grant the *weakest* task its best
//! affordable replica — so the memory that exists buys the best worst-
//! case survival available. [`SurvivalPlan::degraded`] reports the
//! fallback, [`SurvivalPlan::feasible`] whether the target was met.
//!
//! The greedy is cross-checked against exhaustive per-task subset
//! enumeration (`rds-exact`) on small instances, and differentially
//! verified against Monte-Carlo fault sampling by the conformance
//! oracle.

use crate::strategy::Strategy;
use rds_core::{
    Assignment, Error, Instance, MachineId, MachineMask, MachineSet, Placement, Realization,
    ReliabilityModel, Result, Uncertainty,
};

/// Slack applied when comparing a survival probability to the target, so
/// accumulated floating-point rounding never flips feasibility.
pub const TARGET_EPS: f64 = 1e-12;

/// Marginal gains at or below this are treated as zero (no progress).
const GAIN_EPS: f64 = 1e-15;

/// Reliability-aware placement: meet a per-task survival target at
/// minimum memory, or degrade gracefully when the budget cannot.
#[derive(Debug, Clone)]
pub struct SurvivalPlacement {
    model: ReliabilityModel,
    target: f64,
    budget: Option<f64>,
}

/// The result of planning a [`SurvivalPlacement`]: the placement plus
/// its reliability accounting.
#[derive(Debug, Clone)]
pub struct SurvivalPlan {
    /// The chosen per-task machine sets.
    pub placement: Placement,
    /// Analytic survival probability of each task under the model.
    pub survival: Vec<f64>,
    /// Total memory spent: `Σ_j |M_j| · cost_j` (task size, or 1 per
    /// replica on unsized instances).
    pub memory: f64,
    /// `true` when every task meets the survival target.
    pub feasible: bool,
    /// `true` when the plan fell back to max-min water-filling because
    /// the target was unreachable (under the budget, or at all).
    pub degraded: bool,
}

impl SurvivalPlan {
    /// The weakest task's survival probability.
    pub fn min_survival(&self) -> f64 {
        self.survival.iter().copied().fold(1.0, f64::min)
    }
}

/// Internal planning state: per-task replica masks plus accounting.
#[derive(Clone)]
struct PlanState {
    masks: Vec<MachineMask>,
    survival: Vec<f64>,
    memory: f64,
}

impl SurvivalPlacement {
    /// Builds the strategy for a model and per-task survival target, with
    /// no memory budget (the greedy still minimizes memory).
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] when `target` is non-finite or outside
    /// `[0, 1]`.
    pub fn new(model: ReliabilityModel, target: f64) -> Result<Self> {
        if !target.is_finite() || !(0.0..=1.0).contains(&target) {
            return Err(Error::InvalidParameter {
                what: "survival target must be a probability in [0, 1]",
            });
        }
        Ok(SurvivalPlacement {
            model,
            target,
            budget: None,
        })
    }

    /// Caps total memory at `budget` (same units as task sizes; one unit
    /// per replica on unsized instances).
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] when `budget` is non-finite or
    /// negative.
    pub fn with_budget(mut self, budget: f64) -> Result<Self> {
        if !budget.is_finite() || budget < 0.0 {
            return Err(Error::InvalidParameter {
                what: "memory budget must be finite and >= 0",
            });
        }
        self.budget = Some(budget);
        Ok(self)
    }

    /// The survival target.
    #[inline]
    pub fn target(&self) -> f64 {
        self.target
    }

    /// The memory budget, if any.
    #[inline]
    pub fn budget(&self) -> Option<f64> {
        self.budget
    }

    /// The reliability model.
    #[inline]
    pub fn model(&self) -> &ReliabilityModel {
        &self.model
    }

    /// Memory cost of one replica of each task: the task's size, or 1
    /// when the instance carries no size information.
    fn costs(instance: &Instance) -> Vec<f64> {
        if instance.total_size().get() > 0.0 {
            instance.tasks().iter().map(|t| t.size.get()).collect()
        } else {
            vec![1.0; instance.n()]
        }
    }

    /// Base layer: one replica per task, LPT over projected estimated
    /// load; among equally loaded machines prefer the more reliable one.
    fn base_layer(&self, instance: &Instance, costs: &[f64]) -> PlanState {
        let m = instance.m();
        let mut est_load = vec![0.0f64; m];
        let mut masks = vec![MachineMask::empty(m); instance.n()];
        let mut memory = 0.0;
        for &task in &instance.ids_by_estimate_desc() {
            let p = instance.estimate(task).get();
            let mut best = 0usize;
            let mut best_key = (f64::INFINITY, f64::INFINITY);
            for (i, &load) in est_load.iter().enumerate() {
                let key = (load + p, self.model.effective_fail(MachineId::new(i)));
                if key < best_key {
                    best_key = key;
                    best = i;
                }
            }
            est_load[best] += p;
            masks[task.index()].insert(MachineId::new(best));
            memory += costs[task.index()];
        }
        let survival = masks
            .iter()
            .map(|mask| self.mask_survival(mask, m))
            .collect();
        PlanState {
            masks,
            survival,
            memory,
        }
    }

    fn mask_survival(&self, mask: &MachineMask, m: usize) -> f64 {
        self.model.survival(&MachineSet::from_mask(m, mask.clone()))
    }

    /// The best replica to add to one task: the machine with the largest
    /// marginal survival gain (ties to the lower id). `None` when the
    /// task already holds every machine or nothing improves it.
    fn best_addition(&self, mask: &MachineMask, m: usize) -> Option<(MachineId, f64)> {
        let current = 1.0 - self.mask_survival(mask, m);
        let mut best: Option<(MachineId, f64)> = None;
        for i in 0..m {
            let id = MachineId::new(i);
            if mask.contains(id) {
                continue;
            }
            let mut grown = mask.clone();
            grown.insert(id);
            let gain = current - (1.0 - self.mask_survival(&grown, m));
            if gain > GAIN_EPS && best.is_none_or(|(_, g)| gain > g) {
                best = Some((id, gain));
            }
        }
        best
    }

    /// Plans the placement and returns it with full reliability
    /// accounting (survival per task, memory, feasibility, degradation).
    ///
    /// # Errors
    /// - [`Error::InvalidParameter`] when the model's machine count does
    ///   not match the instance.
    /// - [`Error::ResourceLimit`] when the budget cannot even buy one
    ///   replica per task (no dispatchable placement exists).
    pub fn plan(&self, instance: &Instance) -> Result<SurvivalPlan> {
        if self.model.m() != instance.m() {
            return Err(Error::InvalidParameter {
                what: "reliability model machine count must match the instance",
            });
        }
        let m = instance.m();
        let costs = Self::costs(instance);
        let base = self.base_layer(instance, &costs);
        if let Some(budget) = self.budget {
            if base.memory > budget {
                return Err(Error::ResourceLimit {
                    what: "memory budget below one replica per task",
                });
            }
        }

        let mut state = base.clone();
        let feasible = self.raise_to_target(instance, &costs, &mut state);
        let mut degraded = false;
        if !feasible && self.budget.is_some() {
            // The target is out of reach under the budget: restart from
            // the base layer and spend the budget max-min instead, so the
            // weakest task ends as strong as the memory allows.
            state = base;
            self.water_fill(instance, &costs, &mut state);
            degraded = true;
        } else if !feasible {
            // Unbounded budget and still short: some task's target
            // exceeds even the all-machines survival. The greedy already
            // saturated it; report the shortfall rather than failing.
            degraded = true;
        }

        let sets = state
            .masks
            .iter()
            .map(|mask| MachineSet::from_mask(m, mask.clone()))
            .collect();
        Ok(SurvivalPlan {
            placement: Placement::new(instance, sets)?,
            survival: state.survival,
            memory: state.memory,
            feasible,
            degraded,
        })
    }

    /// Global greedy: while some task is below target, add the
    /// affordable `(task, machine)` replica with the best marginal
    /// survival gain per byte. Returns whether every task met the target.
    ///
    /// A task's best addition depends on its own mask alone, so it is
    /// computed when the task is first scored and again only after the
    /// task is granted a replica.
    fn raise_to_target(&self, instance: &Instance, costs: &[f64], state: &mut PlanState) -> bool {
        let m = instance.m();
        let mut additions: Vec<Option<Option<(MachineId, f64)>>> = vec![None; costs.len()];
        loop {
            let mut best: Option<(usize, MachineId, f64)> = None;
            let mut all_met = true;
            for (j, &cost) in costs.iter().enumerate() {
                if state.survival[j] + TARGET_EPS >= self.target {
                    continue;
                }
                all_met = false;
                if let Some(budget) = self.budget {
                    if state.memory + cost > budget + TARGET_EPS {
                        continue; // this task's replicas are unaffordable
                    }
                }
                let addition =
                    *additions[j].get_or_insert_with(|| self.best_addition(&state.masks[j], m));
                if let Some((machine, gain)) = addition {
                    let ratio = gain / cost.max(GAIN_EPS);
                    if best.is_none_or(|(_, _, r)| ratio > r) {
                        best = Some((j, machine, ratio));
                    }
                }
            }
            if all_met {
                return true;
            }
            let Some((j, machine, _)) = best else {
                return false; // below-target tasks left, nothing affordable helps
            };
            state.masks[j].insert(machine);
            state.survival[j] = self.mask_survival(&state.masks[j], m);
            state.memory += costs[j];
            additions[j] = None;
        }
    }

    /// Degraded mode: lexicographic max-min. Repeatedly pick the weakest
    /// task that still has an affordable improving replica and grant it
    /// its best machine, until no weak task can be helped.
    fn water_fill(&self, instance: &Instance, costs: &[f64], state: &mut PlanState) {
        let m = instance.m();
        // Tasks the previous rounds proved unhelpable stay out of the
        // weakest-first scan (saturated or unaffordable).
        let mut stuck = vec![false; instance.n()];
        loop {
            let mut weakest: Option<usize> = None;
            for (j, &is_stuck) in stuck.iter().enumerate() {
                if is_stuck {
                    continue;
                }
                if weakest.is_none_or(|w| (state.survival[j], j) < (state.survival[w], w)) {
                    weakest = Some(j);
                }
            }
            let Some(j) = weakest else { return };
            let affordable = self
                .budget
                .is_none_or(|b| state.memory + costs[j] <= b + TARGET_EPS);
            let addition = if affordable {
                self.best_addition(&state.masks[j], m)
            } else {
                None
            };
            match addition {
                Some((machine, _)) => {
                    state.masks[j].insert(machine);
                    state.survival[j] = self.mask_survival(&state.masks[j], m);
                    state.memory += costs[j];
                }
                None => stuck[j] = true,
            }
        }
    }
}

impl Strategy for SurvivalPlacement {
    fn name(&self) -> String {
        match self.budget {
            Some(b) => format!("Survival(target={}, budget={b})", self.target),
            None => format!("Survival(target={})", self.target),
        }
    }

    fn replication_budget(&self, m: usize) -> usize {
        m // per-task counts vary; only the trivial bound holds uniformly
    }

    fn place(&self, instance: &Instance, _uncertainty: Uncertainty) -> Result<Placement> {
        Ok(self.plan(instance)?.placement)
    }

    fn execute(
        &self,
        instance: &Instance,
        placement: &Placement,
        realization: &Realization,
    ) -> Result<Assignment> {
        // Closed-form restricted greedy over actual loads: tasks by
        // non-increasing estimate, each to the least-loaded machine of
        // its placement set (ties to the lower id) — the semi-clairvoyant
        // counterpart of online list scheduling on overlapping sets.
        let m = instance.m();
        let mut load = vec![0.0f64; m];
        let mut machines = vec![MachineId::new(0); instance.n()];
        for task in instance.ids_by_estimate_desc() {
            let mut best: Option<MachineId> = None;
            for id in placement.set(task).iter(m) {
                if best.is_none_or(|b| load[id.index()] < load[b.index()]) {
                    best = Some(id);
                }
            }
            let chosen = best.ok_or(Error::EmptyPlacement { task: task.index() })?;
            load[chosen.index()] += realization.actual(task).get();
            machines[task.index()] = chosen;
        }
        Assignment::new(instance, machines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rds_core::Uncertainty;

    fn model() -> ReliabilityModel {
        // 6 machines in 3 zones of 2; machine 4 is near-perfect.
        ReliabilityModel::new(
            vec![0.3, 0.25, 0.2, 0.35, 0.01, 0.15],
            vec![0, 0, 1, 1, 2, 2],
            vec![0.05, 0.02, 0.01],
        )
        .unwrap()
    }

    #[test]
    fn constructor_validates_target_and_budget() {
        assert!(matches!(
            SurvivalPlacement::new(model(), 1.5),
            Err(Error::InvalidParameter { .. })
        ));
        assert!(matches!(
            SurvivalPlacement::new(model(), f64::NAN),
            Err(Error::InvalidParameter { .. })
        ));
        assert!(matches!(
            SurvivalPlacement::new(model(), 0.9)
                .unwrap()
                .with_budget(-1.0),
            Err(Error::InvalidParameter { .. })
        ));
        assert!(SurvivalPlacement::new(model(), 0.9)
            .unwrap()
            .with_budget(100.0)
            .is_ok());
    }

    #[test]
    fn model_must_match_instance_machine_count() {
        let s = SurvivalPlacement::new(model(), 0.9).unwrap();
        let inst = Instance::from_estimates(&[1.0, 2.0], 4).unwrap();
        assert!(matches!(s.plan(&inst), Err(Error::InvalidParameter { .. })));
    }

    #[test]
    fn feasible_plan_meets_target_everywhere() {
        let s = SurvivalPlacement::new(model(), 0.99).unwrap();
        let inst = Instance::from_estimates(&[5.0, 3.0, 2.0, 2.0, 1.0], 6).unwrap();
        let plan = s.plan(&inst).unwrap();
        assert!(plan.feasible);
        assert!(!plan.degraded);
        for (j, &p) in plan.survival.iter().enumerate() {
            assert!(p + TARGET_EPS >= 0.99, "task {j} at {p}");
        }
        // Accounting matches the placement.
        assert_eq!(plan.memory, plan.placement.total_replicas() as f64);
        let recomputed = s.model().placement_survival(&plan.placement);
        for (a, b) in plan.survival.iter().zip(recomputed.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn trivial_target_places_single_replicas() {
        let s = SurvivalPlacement::new(model(), 0.0).unwrap();
        let inst = Instance::from_estimates(&[4.0, 3.0, 2.0, 1.0], 6).unwrap();
        let plan = s.plan(&inst).unwrap();
        assert!(plan.feasible);
        assert_eq!(plan.placement.total_replicas(), 4);
    }

    #[test]
    fn higher_target_costs_more_memory() {
        let inst = Instance::from_estimates(&[5.0, 4.0, 3.0, 2.0, 1.0, 1.0], 6).unwrap();
        let cheap = SurvivalPlacement::new(model(), 0.8)
            .unwrap()
            .plan(&inst)
            .unwrap();
        let safe = SurvivalPlacement::new(model(), 0.999)
            .unwrap()
            .plan(&inst)
            .unwrap();
        assert!(cheap.feasible && safe.feasible);
        assert!(safe.memory > cheap.memory);
    }

    #[test]
    fn sized_tasks_spend_size_weighted_memory() {
        let s = SurvivalPlacement::new(model(), 0.95).unwrap();
        let inst =
            Instance::from_estimates_and_sizes(&[(5.0, 10.0), (3.0, 1.0), (2.0, 4.0)], 6).unwrap();
        let plan = s.plan(&inst).unwrap();
        assert!(plan.feasible);
        let expected: f64 = inst
            .task_ids()
            .map(|t| plan.placement.replicas(t) as f64 * inst.size(t).get())
            .sum();
        assert!((plan.memory - expected).abs() < 1e-9);
    }

    #[test]
    fn impossible_target_degrades_to_saturation_not_error() {
        // Single zone with high outage probability: even all machines
        // cannot reach 0.999.
        let weak = ReliabilityModel::new(vec![0.5, 0.5, 0.5], vec![0, 0, 0], vec![0.2]).unwrap();
        let s = SurvivalPlacement::new(weak, 0.999).unwrap();
        let inst = Instance::from_estimates(&[2.0, 1.0], 3).unwrap();
        let plan = s.plan(&inst).unwrap();
        assert!(!plan.feasible);
        assert!(plan.degraded);
        // Every task saturated: no machine could improve it further.
        let best = s.model().survival(&MachineSet::All);
        for &p in &plan.survival {
            assert!((p - best).abs() < 1e-12);
        }
    }

    #[test]
    fn budget_infeasible_falls_back_to_max_min() {
        let s = SurvivalPlacement::new(model(), 0.9999)
            .unwrap()
            .with_budget(8.0)
            .unwrap();
        let inst = Instance::from_estimates(&[5.0, 4.0, 3.0, 2.0, 1.0, 1.0], 6).unwrap();
        let plan = s.plan(&inst).unwrap();
        assert!(!plan.feasible);
        assert!(plan.degraded);
        assert!(plan.memory <= 8.0 + TARGET_EPS);
        // Max-min spends the slack: budget leaves 2 extra replicas, and
        // water-filling grants them to the weakest tasks, so the minimum
        // survival strictly beats the single-replica base layer.
        let base = SurvivalPlacement::new(model(), 0.0)
            .unwrap()
            .plan(&inst)
            .unwrap();
        assert!(plan.min_survival() > base.min_survival());
    }

    #[test]
    fn budget_below_one_replica_per_task_is_an_error() {
        let s = SurvivalPlacement::new(model(), 0.5)
            .unwrap()
            .with_budget(3.0)
            .unwrap();
        let inst = Instance::from_estimates(&[1.0; 6], 6).unwrap();
        assert!(matches!(s.plan(&inst), Err(Error::ResourceLimit { .. })));
    }

    #[test]
    fn correlated_zones_push_replicas_across_domains() {
        // Zone 0 is a death trap (30% outage); per-machine failures are
        // mild. Meeting 0.9 from a zone-0 base replica requires leaving
        // the zone, not doubling down inside it.
        let zoned =
            ReliabilityModel::new(vec![0.1, 0.1, 0.1, 0.1], vec![0, 0, 1, 1], vec![0.3, 0.0])
                .unwrap();
        let s = SurvivalPlacement::new(zoned.clone(), 0.95).unwrap();
        let inst = Instance::from_estimates(&[3.0, 3.0, 2.0, 2.0], 4).unwrap();
        let plan = s.plan(&inst).unwrap();
        assert!(plan.feasible);
        for task in inst.task_ids() {
            let set = plan.placement.set(task);
            // No replicated task may stay confined to the risky zone:
            // a second replica there buys almost nothing against the 30%
            // rack outage. (Confinement to the outage-free zone 1 is
            // fine — that zone never fails collectively.)
            let all_in_risky = set.iter(4).all(|id| zoned.zone_of(id) == 0);
            if plan.placement.replicas(task) > 1 {
                assert!(!all_in_risky, "replicated task {task} confined to zone 0");
            }
        }
    }

    #[test]
    fn runs_end_to_end_as_a_strategy() {
        let s = SurvivalPlacement::new(model(), 0.95).unwrap();
        let inst = Instance::from_estimates(&[4.0, 3.0, 2.0, 2.0, 1.0], 6).unwrap();
        let real = Realization::exact(&inst);
        let out = s.run(&inst, Uncertainty::of(1.5), &real).unwrap();
        assert!(out.makespan.get() > 0.0);
        assert!(out.total_replicas() >= inst.n());
    }

    #[test]
    fn planning_is_deterministic() {
        let s = SurvivalPlacement::new(model(), 0.98).unwrap();
        let inst = Instance::from_estimates(&[5.0, 4.0, 3.0, 2.0, 1.0], 6).unwrap();
        let a = s.plan(&inst).unwrap();
        let b = s.plan(&inst).unwrap();
        assert_eq!(a.placement, b.placement);
        assert_eq!(a.survival, b.survival);
    }
}

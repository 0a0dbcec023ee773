//! `SurvivalPlacement::plan` against an uncached reference greedy that
//! re-scores every unmet task after each replica it grants, as the
//! planner did before it cached each task's best addition. Both must
//! agree on the placement, the survival bits, `memory`, `feasible` and
//! `degraded`, with and without a memory budget, and on the error a
//! budget below one replica per task gives.

use proptest::prelude::*;
use proptest::TestRng;
use rds_algs::survival::{SurvivalPlacement, SurvivalPlan, TARGET_EPS};
use rds_core::{Error, Instance, MachineId, MachineMask, MachineSet, ReliabilityModel};

const GAIN_EPS: f64 = 1e-15;

/// The planner's state: per-task masks, survival and memory spent.
#[derive(Clone)]
struct State {
    masks: Vec<MachineMask>,
    survival: Vec<f64>,
    memory: f64,
}

struct Reference<'a> {
    model: &'a ReliabilityModel,
    target: f64,
    budget: Option<f64>,
}

impl Reference<'_> {
    fn costs(instance: &Instance) -> Vec<f64> {
        if instance.total_size().get() > 0.0 {
            instance.tasks().iter().map(|t| t.size.get()).collect()
        } else {
            vec![1.0; instance.n()]
        }
    }

    fn survival(&self, mask: &MachineMask, m: usize) -> f64 {
        self.model.survival(&MachineSet::from_mask(m, mask.clone()))
    }

    fn base_layer(&self, instance: &Instance, costs: &[f64]) -> State {
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
        let survival = masks.iter().map(|mask| self.survival(mask, m)).collect();
        State {
            masks,
            survival,
            memory,
        }
    }

    fn best_addition(&self, mask: &MachineMask, m: usize) -> Option<(MachineId, f64)> {
        let current = 1.0 - self.survival(mask, m);
        let mut best: Option<(MachineId, f64)> = None;
        for i in 0..m {
            let id = MachineId::new(i);
            if mask.contains(id) {
                continue;
            }
            let mut grown = mask.clone();
            grown.insert(id);
            let gain = current - (1.0 - self.survival(&grown, m));
            if gain > GAIN_EPS && best.is_none_or(|(_, g)| gain > g) {
                best = Some((id, gain));
            }
        }
        best
    }

    /// Every round scores every unmet, affordable task afresh.
    fn raise_to_target(&self, m: usize, costs: &[f64], state: &mut State) -> bool {
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
                        continue;
                    }
                }
                if let Some((machine, gain)) = self.best_addition(&state.masks[j], m) {
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
                return false;
            };
            state.masks[j].insert(machine);
            state.survival[j] = self.survival(&state.masks[j], m);
            state.memory += costs[j];
        }
    }

    fn water_fill(&self, m: usize, costs: &[f64], state: &mut State) {
        let mut stuck = vec![false; costs.len()];
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
                    state.survival[j] = self.survival(&state.masks[j], m);
                    state.memory += costs[j];
                }
                None => stuck[j] = true,
            }
        }
    }

    /// `(masks, survival, memory, feasible, degraded)`, or `None` when
    /// the budget cannot buy one replica per task.
    fn plan(&self, instance: &Instance) -> Option<(State, bool, bool)> {
        let m = instance.m();
        let costs = Self::costs(instance);
        let base = self.base_layer(instance, &costs);
        if self.budget.is_some_and(|b| base.memory > b) {
            return None;
        }
        let mut state = base.clone();
        let feasible = self.raise_to_target(m, &costs, &mut state);
        let degraded = !feasible;
        if !feasible && self.budget.is_some() {
            state = base;
            self.water_fill(m, &costs, &mut state);
        }
        Some((state, feasible, degraded))
    }
}

fn probability() -> impl Strategy<Value = f64> {
    (0usize..8, 0.0f64..0.6).prop_map(|(pick, u)| match pick {
        0 => 0.0,
        1 => 1.0,
        _ => u,
    })
}

/// `(estimates, sizes or none, model, target, budget factor or none)`.
fn case() -> impl Strategy<Value = Case> {
    (1usize..=12, 1usize..=8, 1usize..=4, 0usize..6, 0usize..3).prop_flat_map(
        |(n, m, zones, target, budget)| {
            let zones = zones.min(m);
            (
                (
                    prop::collection::vec(1.0f64..10.0, n),
                    prop::collection::vec(0.5f64..5.0, n),
                    any::<bool>(),
                ),
                (
                    prop::collection::vec(probability(), m),
                    prop::collection::vec(0..zones, m),
                    prop::collection::vec((0usize..3, 0.0f64..0.3), zones),
                ),
                (0.0f64..1.0, 0.7f64..3.0),
            )
                .prop_map(
                    move |((est, sizes, sized), (fail, zone_of, zone_fail), (t, factor))| {
                        let zone_fail = zone_fail
                            .into_iter()
                            .map(|(pick, g)| if pick == 0 { 0.0 } else { g })
                            .collect();
                        let model = ReliabilityModel::new(fail, zone_of, zone_fail).unwrap();
                        let target = [0.0, 0.5, 0.9, 0.99, 0.999, t][target];
                        let budget = (budget > 0).then_some(factor);
                        (est, sized.then_some(sizes), model, target, budget)
                    },
                )
        },
    )
}

type Case = (
    Vec<f64>,
    Option<Vec<f64>>,
    ReliabilityModel,
    f64,
    Option<f64>,
);

/// Plans `case` both ways, asserts they agree, and names the outcome.
fn compare((est, sizes, model, target, factor): Case) -> &'static str {
    let m = model.m();
    let inst = match &sizes {
        Some(sizes) => {
            let pairs: Vec<(f64, f64)> = est.iter().copied().zip(sizes.iter().copied()).collect();
            Instance::from_estimates_and_sizes(&pairs, m).unwrap()
        }
        None => Instance::from_estimates(&est, m).unwrap(),
    };
    // A budget factor scales one replica of every task: below 1 the plan
    // must fail, just above it the target is often out of reach.
    let per_replica = sizes.as_ref().map_or(est.len() as f64, |s| s.iter().sum());
    let budget = factor.map(|f| f * per_replica);
    let mut planner = SurvivalPlacement::new(model.clone(), target).unwrap();
    if let Some(b) = budget {
        planner = planner.with_budget(b).unwrap();
    }
    let reference = Reference {
        model: &model,
        target,
        budget,
    };
    match (planner.plan(&inst), reference.plan(&inst)) {
        (Ok(plan), Some((state, feasible, degraded))) => {
            let SurvivalPlan {
                placement,
                survival,
                memory,
                feasible: f,
                degraded: d,
            } = plan;
            let sets: Vec<MachineSet> = state
                .masks
                .iter()
                .map(|mask| MachineSet::from_mask(m, mask.clone()))
                .collect();
            assert_eq!(placement.sets(), &sets[..]);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&survival), bits(&state.survival));
            assert_eq!(memory.to_bits(), state.memory.to_bits());
            assert_eq!((f, d), (feasible, degraded));
            match (feasible, budget.is_some()) {
                (true, _) => "feasible",
                (false, true) => "water-filled under a budget",
                (false, false) => "saturated",
            }
        }
        (Err(Error::ResourceLimit { .. }), None) => "below one replica per task",
        (got, want) => panic!("plan {got:?} against reference {:?}", want.map(|w| w.1)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    #[test]
    fn cached_greedy_matches_the_uncached_reference(case in case()) {
        compare(case);
    }
}

#[test]
fn the_cases_reach_every_outcome() {
    let mut rng = TestRng::for_test("survival_greedy_props::the_cases_reach_every_outcome");
    let mut seen = std::collections::BTreeMap::new();
    for _ in 0..1500 {
        *seen.entry(compare(case().new_value(&mut rng))).or_insert(0) += 1;
    }
    assert_eq!(seen.len(), 4, "outcomes {seen:?}");
}

//! **`SpeedRobust-Bags`** — bag-based placement for machines whose
//! speeds are revealed only in phase 2.
//!
//! Adapted from the sand–bricks–rocks structure of speed-robust
//! scheduling (Eberle et al.): phase 1 packs tasks into `m` balanced
//! bags by LPT on the estimates, then deals the bags — ranked by
//! estimated load, in snake order — across `k` machine groups. Each
//! group thus holds a mix of heavy and light bags and its data is
//! replicated group-wide, so when the speed realization turns out
//! adversarial (one group member slow), phase 2 can shift work within
//! the group instead of being pinned to the slow machine.
//!
//! The [`Strategy`] impl covers the homogeneous API (phase 2 is the
//! per-group LPT greedy, as in [`crate::LptGroup`]); the heterogeneous
//! execution runs the same placement through the event engine's
//! speed-aware path (`rds_sim::executors::simulate_hetero`), which the
//! adversary and conformance arms exercise.

use crate::balancer::LoadBalancer;
use crate::group::{execute_in_groups, machine_groups, place_in_groups};
use crate::strategy::Strategy;
use rds_core::{
    Assignment, GroupPartition, Instance, MachineId, MachineSpeeds, Placement, Realization, Result,
    Time, Uncertainty,
};

/// The `SpeedRobust-Bags` strategy with `k` machine groups.
#[derive(Debug, Clone, Copy)]
pub struct SpeedRobustBags {
    k: usize,
}

impl SpeedRobustBags {
    /// `SpeedRobust-Bags` over `k` near-equal groups (`k ∤ m` allowed).
    pub fn new(k: usize) -> Self {
        SpeedRobustBags { k }
    }

    /// The group count.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Packs tasks into `m` bags by LPT on the estimates and returns,
    /// for each task, the group its bag is dealt to.
    fn group_of_task(&self, instance: &Instance, partition: &GroupPartition) -> Vec<usize> {
        let m = instance.m();
        let mut bags = LoadBalancer::new(m);
        let mut bag_of = vec![0usize; instance.n()];
        for t in instance.ids_by_estimate_desc() {
            bag_of[t.index()] = bags.assign(instance.estimate(t)).index();
        }
        // Rank bags heaviest-first (ties toward the smaller bag id) and
        // deal them to groups in snake order, so every group receives
        // one bag from each weight tier and the estimated group loads
        // stay balanced.
        let mut ranked: Vec<usize> = (0..m).collect();
        ranked.sort_by(|&a, &b| {
            bags.load(MachineId::new(b))
                .cmp(&bags.load(MachineId::new(a)))
                .then(a.cmp(&b))
        });
        let k = partition.k();
        let mut group_of_bag = vec![0usize; m];
        for (rank, &bag) in ranked.iter().enumerate() {
            let (chunk, pos) = (rank / k, rank % k);
            group_of_bag[bag] = if chunk % 2 == 0 { pos } else { k - 1 - pos };
        }
        bag_of.into_iter().map(|b| group_of_bag[b]).collect()
    }
}

impl Strategy for SpeedRobustBags {
    fn name(&self) -> String {
        format!("SpeedRobust-Bags(k={})", self.k)
    }

    fn replication_budget(&self, m: usize) -> usize {
        m.div_ceil(self.k)
    }

    fn place(&self, instance: &Instance, _uncertainty: Uncertainty) -> Result<Placement> {
        let partition = machine_groups(instance.m(), self.k, false)?;
        let group_of = self.group_of_task(instance, &partition);
        place_in_groups(instance, &partition, &group_of)
    }

    fn execute(
        &self,
        instance: &Instance,
        placement: &Placement,
        realization: &Realization,
    ) -> Result<Assignment> {
        let partition = machine_groups(instance.m(), self.k, false)?;
        let order = instance.ids_by_estimate_desc();
        execute_in_groups(instance, placement, realization, &partition, order)
    }
}

/// A sound makespan lower bound under machine speeds: the speed-scaled
/// area bound `Σp / Σs` joined with the single-task bound
/// `max_j p_j / s_max` (even the fastest machine needs that long for
/// the largest task).
///
/// Both terms hold for *any* schedule, so conformance checks can
/// compare engine makespans against this without tripping over Graham
/// anomalies.
pub fn speed_lower_bound(actuals: &[Time], speeds: &MachineSpeeds) -> Time {
    let total_p: f64 = actuals.iter().map(|t| t.get()).sum();
    let max_p = actuals
        .iter()
        .map(|t| t.get())
        .fold(0.0f64, |acc, v| acc.max(v));
    let area = total_p / speeds.total();
    let single = max_p / speeds.max();
    Time::of(area.max(single))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rds_core::TaskId;

    #[test]
    fn placement_is_group_shaped_and_budgeted() {
        let inst = Instance::from_estimates(&[9.0, 7.0, 5.0, 3.0, 2.0, 1.0, 1.0, 1.0], 6).unwrap();
        let s = SpeedRobustBags::new(3);
        let p = s.place(&inst, Uncertainty::of(2.0)).unwrap();
        assert_eq!(p.max_replicas(), 2);
        assert_eq!(s.replication_budget(6), 2);
        // Every task's set is exactly one of the 3 group spans.
        let partition = GroupPartition::new(6, 3).unwrap();
        for t in inst.task_ids() {
            let members: Vec<usize> = p.set(t).iter(6).map(|mid| mid.index()).collect();
            let g = partition.group_of(MachineId::new(members[0]));
            let expect: Vec<usize> = partition.group_range(g).collect();
            assert_eq!(members, expect, "task {t:?}");
        }
    }

    #[test]
    fn snake_dealing_balances_estimated_group_loads() {
        // Skewed estimates: one rock, some bricks, lots of sand. Snake
        // dealing must keep the estimated group loads within one rock of
        // each other (plain round-robin would pile the heavy ranks onto
        // group 0).
        let ests = [16.0, 8.0, 8.0, 4.0, 4.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let inst = Instance::from_estimates(&ests, 4).unwrap();
        let s = SpeedRobustBags::new(2);
        let p = s.place(&inst, Uncertainty::CERTAIN).unwrap();
        let mut load = [0.0f64; 2];
        for t in inst.task_ids() {
            let first = p.set(t).iter(4).next().unwrap();
            let g = GroupPartition::new(4, 2).unwrap().group_of(first);
            load[g] += inst.estimate(t).get();
        }
        let total: f64 = ests.iter().sum();
        assert!((load[0] - load[1]).abs() <= total / 4.0, "loads {load:?}");
    }

    #[test]
    fn run_is_feasible_and_deterministic() {
        let inst = Instance::from_estimates(&[5.0, 4.0, 3.0, 2.0, 1.0, 1.0], 4).unwrap();
        let unc = Uncertainty::of(1.5);
        let real = Realization::uniform_factor(&inst, unc, 1.5).unwrap();
        let a = SpeedRobustBags::new(2).run(&inst, unc, &real).unwrap();
        let b = SpeedRobustBags::new(2).run(&inst, unc, &real).unwrap();
        a.assignment.check_feasible(&a.placement).unwrap();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.assignment.machines(), b.assignment.machines());
    }

    #[test]
    fn k_one_spans_all_machines() {
        let inst = Instance::from_estimates(&[2.0, 1.0], 3).unwrap();
        let p = SpeedRobustBags::new(1)
            .place(&inst, Uncertainty::CERTAIN)
            .unwrap();
        assert_eq!(p.set(TaskId::new(0)).count(3), 3);
    }

    #[test]
    fn speed_lower_bound_takes_the_binding_term() {
        let speeds = MachineSpeeds::new(vec![1.0, 3.0]).unwrap();
        // Area bound binds: Σp/Σs = 8/4 = 2 > max p/s_max = 4/3.
        let lb = speed_lower_bound(&[Time::of(4.0), Time::of(4.0)], &speeds);
        assert_eq!(lb, Time::of(2.0));
        // Single-task bound binds: max p/s_max = 9/3 = 3 > 10/4.
        let lb = speed_lower_bound(&[Time::of(9.0), Time::of(1.0)], &speeds);
        assert_eq!(lb, Time::of(3.0));
    }
}

//! **Strategy 3 — `LS-Group`** (§6): replication in `k` groups,
//! `|M_j| = m/k`.
//!
//! The machines are partitioned into `k` equal groups. Phase 1 runs List
//! Scheduling over the *groups* (by estimated load) and replicates each
//! task's data on every machine of its group. Phase 2 runs online List
//! Scheduling *within* each group on the actual loads.
//!
//! Guarantee (Theorem 4):
//! `(kα²/(α² + k − 1))·(1 + (k−1)/m) + (m − k)/m`.
//!
//! `k = 1` degenerates to replicate-everywhere (with LS instead of LPT in
//! phase 2); `k = m` degenerates to no replication (with LS instead of
//! LPT in phase 1).

use crate::balancer::LoadBalancer;
use crate::strategy::Strategy;
use rds_core::{
    Assignment, GroupPartition, Instance, MachineId, Placement, Realization, Result, TaskId,
    Uncertainty,
};

/// The `LS-Group` strategy with a fixed group count `k`.
#[derive(Debug, Clone, Copy)]
pub struct LsGroup {
    k: usize,
    /// Require `k | m` exactly as the paper assumes (`true`), or allow
    /// near-equal groups differing by one machine (`false`, extension).
    strict: bool,
}

impl LsGroup {
    /// `LS-Group` with `k` groups, requiring `k` to divide `m`.
    pub fn new(k: usize) -> Self {
        LsGroup { k, strict: true }
    }

    /// `LS-Group` with `k` groups, allowing uneven groups (sizes differ
    /// by at most one) when `k` does not divide `m`.
    pub fn new_relaxed(k: usize) -> Self {
        LsGroup { k, strict: false }
    }

    /// The group count.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl Strategy for LsGroup {
    fn name(&self) -> String {
        format!("LS-Group(k={})", self.k)
    }

    fn replication_budget(&self, m: usize) -> usize {
        // |M_j| = ⌈m/k⌉ with near-equal groups.
        m.div_ceil(self.k)
    }

    fn place(&self, instance: &Instance, _uncertainty: Uncertainty) -> Result<Placement> {
        let partition = machine_groups(instance.m(), self.k, self.strict)?;
        // List Scheduling over the group loads on the estimates, in
        // task-id order.
        let mut balancer = LoadBalancer::new(partition.k());
        let group_of: Vec<usize> = instance
            .task_ids()
            .map(|t| balancer.assign(instance.estimate(t)).index())
            .collect();
        place_in_groups(instance, &partition, &group_of)
    }

    fn execute(
        &self,
        instance: &Instance,
        placement: &Placement,
        realization: &Realization,
    ) -> Result<Assignment> {
        let partition = machine_groups(instance.m(), self.k, self.strict)?;
        execute_in_groups(
            instance,
            placement,
            realization,
            &partition,
            instance.task_ids(),
        )
    }
}

/// The machine groups of a grouped strategy: `k | m` exactly when
/// `strict`, near-equal groups (sizes differing by one) otherwise.
pub(crate) fn machine_groups(m: usize, k: usize, strict: bool) -> Result<GroupPartition> {
    if strict {
        GroupPartition::new_exact(m, k)
    } else {
        GroupPartition::new(m, k)
    }
}

/// Phase 1's output for a grouped strategy: each task's data on every
/// machine of its group `group_of[j]`.
pub(crate) fn place_in_groups(
    instance: &Instance,
    partition: &GroupPartition,
    group_of: &[usize],
) -> Result<Placement> {
    let sets = group_of.iter().map(|&g| partition.group_set(g)).collect();
    Placement::new(instance, sets)
}

/// Phase 2 of every grouped strategy: online List Scheduling inside each
/// group on the actual times, taking the tasks in `order`.
///
/// Each task's group is recovered from its placement (the set's first
/// machine identifies the group), so execution works even on placements
/// built elsewhere, as long as they are group-shaped.
pub(crate) fn execute_in_groups(
    instance: &Instance,
    placement: &Placement,
    realization: &Realization,
    partition: &GroupPartition,
    order: impl IntoIterator<Item = TaskId>,
) -> Result<Assignment> {
    let mut balancers: Vec<LoadBalancer> = (0..partition.k())
        .map(|g| LoadBalancer::new(partition.group_size(g)))
        .collect();
    let mut machines = vec![MachineId::new(0); instance.n()];
    for task in order {
        let first = placement
            .set(task)
            .iter(instance.m())
            .next()
            .ok_or(rds_core::Error::EmptyPlacement { task: task.index() })?;
        let g = partition.group_of(first);
        let offset = partition.group_range(g).start;
        let local = balancers[g].assign(realization.actual(task));
        machines[task.index()] = MachineId::new(offset + local.index());
    }
    Assignment::new(instance, machines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rds_core::{TaskId, Time};

    #[test]
    fn k_must_divide_m_in_strict_mode() {
        let inst = Instance::from_estimates(&[1.0; 6], 6).unwrap();
        assert!(LsGroup::new(4).place(&inst, Uncertainty::CERTAIN).is_err());
        assert!(LsGroup::new(3).place(&inst, Uncertainty::CERTAIN).is_ok());
        assert!(LsGroup::new_relaxed(4)
            .place(&inst, Uncertainty::CERTAIN)
            .is_ok());
    }

    #[test]
    fn placement_replicates_within_groups() {
        let inst = Instance::from_estimates(&[3.0, 2.0, 1.0, 1.0], 6).unwrap();
        let p = LsGroup::new(2).place(&inst, Uncertainty::CERTAIN).unwrap();
        assert_eq!(p.max_replicas(), 3); // m/k = 3
                                         // LS over groups in id order: t0→G0(3), t1→G1(2), t2→G1(3),
                                         // t3→G0 or G1 tie → G0.
        assert!(p.allows(TaskId::new(0), MachineId::new(0)));
        assert!(p.allows(TaskId::new(0), MachineId::new(2)));
        assert!(!p.allows(TaskId::new(0), MachineId::new(3)));
        assert!(p.allows(TaskId::new(1), MachineId::new(3)));
    }

    #[test]
    fn execution_stays_within_groups() {
        let inst = Instance::from_estimates(&[3.0, 2.0, 1.0, 1.0, 2.0, 2.0], 6).unwrap();
        let unc = Uncertainty::of(2.0);
        let real = Realization::uniform_factor(&inst, unc, 1.5).unwrap();
        let strat = LsGroup::new(3);
        let out = strat.run(&inst, unc, &real).unwrap();
        // run() already checks feasibility; double-check group containment.
        let p = &out.placement;
        for j in 0..inst.n() {
            let t = TaskId::new(j);
            assert!(p.allows(t, out.assignment.machine_of(t)));
        }
    }

    #[test]
    fn k1_uses_all_machines_as_one_group() {
        let inst = Instance::from_estimates(&[4.0, 3.0, 2.0, 1.0], 4).unwrap();
        let real = Realization::exact(&inst);
        let out = LsGroup::new(1)
            .run(&inst, Uncertainty::CERTAIN, &real)
            .unwrap();
        // One group of 4 machines: online LS in id order → each task its
        // own machine → makespan 4.
        assert_eq!(out.makespan, Time::of(4.0));
        assert_eq!(out.placement.max_replicas(), 4);
    }

    #[test]
    fn km_pins_each_task() {
        let inst = Instance::from_estimates(&[4.0, 3.0, 2.0, 1.0, 1.0], 3).unwrap();
        let real = Realization::exact(&inst);
        let out = LsGroup::new(3)
            .run(&inst, Uncertainty::CERTAIN, &real)
            .unwrap();
        assert_eq!(out.placement.max_replicas(), 1);
        // LS in id order on 3 machines: 4→p0, 3→p1, 2→p2, 1→p2(3)?
        // loads (4,3,2): least p2 → 1→p2 (3); 1→ p1 or p2 tie by load 3 →
        // p1. Loads (4,4,3) → makespan 4.
        assert_eq!(out.makespan, Time::of(4.0));
    }

    #[test]
    fn online_within_group_adapts() {
        // Group 0 gets two tasks; the first turns out slow, so the second
        // goes to the group's other machine.
        let inst = Instance::from_estimates(&[2.0, 2.0, 2.0, 2.0], 4).unwrap();
        let unc = Uncertainty::of(2.0);
        // LS over 2 groups in id order: t0→G0, t1→G1, t2→G0, t3→G1.
        let real = Realization::from_factors(&inst, unc, &[2.0, 1.0, 0.5, 1.0]).unwrap();
        let out = LsGroup::new(2).run(&inst, unc, &real).unwrap();
        // In G0 (machines 0,1): t0 actual 4 → p0; t2 actual 1 → p1.
        assert_eq!(out.assignment.machine_of(TaskId::new(0)).index(), 0);
        assert_eq!(out.assignment.machine_of(TaskId::new(2)).index(), 1);
    }

    #[test]
    fn uneven_groups_relaxed_mode() {
        // m = 5, k = 2 → groups of 3 and 2.
        let inst = Instance::from_estimates(&[1.0; 10], 5).unwrap();
        let real = Realization::exact(&inst);
        let out = LsGroup::new_relaxed(2)
            .run(&inst, Uncertainty::CERTAIN, &real)
            .unwrap();
        assert!(out.placement.max_replicas() <= 3);
        out.assignment.check_feasible(&out.placement).unwrap();
    }

    #[test]
    fn budget_matches_group_size() {
        assert_eq!(LsGroup::new(2).replication_budget(6), 3);
        assert_eq!(LsGroup::new_relaxed(2).replication_budget(5), 3);
        assert_eq!(LsGroup::new(5).replication_budget(5), 1);
    }
}

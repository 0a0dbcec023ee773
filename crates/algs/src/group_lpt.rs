//! **`LPT-Group`** — the LPT-based variant of strategy 3 the paper
//! speculates about (§6: "A LPT-based algorithm may have better
//! guarantee").
//!
//! Identical structure to [`crate::LsGroup`], but both phases process
//! tasks in non-increasing estimate order: phase 1 distributes tasks to
//! groups with LPT on the estimated group loads, phase 2 dispatches
//! within each group in LPT order on the actual loads. The paper argues
//! the guarantee would not improve much (for large `m` and practical `α`
//! the `k = m` case already matches `LPT-No Choice`); the ablation bench
//! measures whether the *empirical* ratios improve.

use crate::balancer::LoadBalancer;
use crate::group::{execute_in_groups, machine_groups, place_in_groups};
use crate::strategy::Strategy;
use rds_core::{Assignment, Instance, Placement, Realization, Result, Uncertainty};

/// The `LPT-Group` strategy with a fixed group count `k`.
#[derive(Debug, Clone, Copy)]
pub struct LptGroup {
    k: usize,
    strict: bool,
}

impl LptGroup {
    /// `LPT-Group` with `k` groups, requiring `k | m`.
    pub fn new(k: usize) -> Self {
        LptGroup { k, strict: true }
    }

    /// `LPT-Group` allowing near-equal groups when `k ∤ m`.
    pub fn new_relaxed(k: usize) -> Self {
        LptGroup { k, strict: false }
    }

    /// The group count.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl Strategy for LptGroup {
    fn name(&self) -> String {
        format!("LPT-Group(k={})", self.k)
    }

    fn replication_budget(&self, m: usize) -> usize {
        m.div_ceil(self.k)
    }

    fn place(&self, instance: &Instance, _uncertainty: Uncertainty) -> Result<Placement> {
        let partition = machine_groups(instance.m(), self.k, self.strict)?;
        let mut balancer = LoadBalancer::new(partition.k());
        let mut group_of = vec![0usize; instance.n()];
        for t in instance.ids_by_estimate_desc() {
            group_of[t.index()] = balancer.assign(instance.estimate(t)).index();
        }
        place_in_groups(instance, &partition, &group_of)
    }

    fn execute(
        &self,
        instance: &Instance,
        placement: &Placement,
        realization: &Realization,
    ) -> Result<Assignment> {
        let partition = machine_groups(instance.m(), self.k, self.strict)?;
        let order = instance.ids_by_estimate_desc();
        execute_in_groups(instance, placement, realization, &partition, order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::LsGroup;
    use rds_core::{TaskId, Time};

    #[test]
    fn phase1_uses_lpt_order() {
        // Tasks [1, 1, 2] on 2 groups: LS order puts {1},{1,2} (t0→G0,
        // t1→G1, t2→G0... loads (1,1) tie → G0 = {1,2}); LPT puts the 2
        // first → {2},{1,1}: perfectly balanced estimated group loads.
        let inst = Instance::from_estimates(&[1.0, 1.0, 2.0], 4).unwrap();
        let p = LptGroup::new(2).place(&inst, Uncertainty::CERTAIN).unwrap();
        // Task 2 alone in its group.
        let g_of_t2: Vec<bool> = (0..3)
            .map(|j| p.set(TaskId::new(j)).iter(4).next().unwrap().index() < 2)
            .collect();
        assert_eq!(g_of_t2[2], !g_of_t2[0]);
        assert_eq!(g_of_t2[0], g_of_t2[1]);
    }

    #[test]
    fn beats_or_matches_ls_group_on_skewed_instance() {
        // LPT phase 1 balances skewed estimates better than LS.
        let inst = Instance::from_estimates(&[1.0, 1.0, 1.0, 1.0, 4.0, 4.0], 4).unwrap();
        let real = Realization::exact(&inst);
        let lpt = LptGroup::new(2)
            .run(&inst, Uncertainty::CERTAIN, &real)
            .unwrap();
        let ls = LsGroup::new(2)
            .run(&inst, Uncertainty::CERTAIN, &real)
            .unwrap();
        assert!(
            lpt.makespan <= ls.makespan,
            "{} > {}",
            lpt.makespan,
            ls.makespan
        );
        assert_eq!(lpt.makespan, Time::of(4.0));
    }

    #[test]
    fn respects_group_confinement() {
        let inst = Instance::from_estimates(&[3.0, 2.0, 2.0, 1.0, 1.0, 1.0], 6).unwrap();
        let unc = Uncertainty::of(2.0);
        let real = Realization::uniform_factor(&inst, unc, 2.0).unwrap();
        let out = LptGroup::new(3).run(&inst, unc, &real).unwrap();
        out.assignment.check_feasible(&out.placement).unwrap();
        assert_eq!(out.placement.max_replicas(), 2);
    }

    #[test]
    fn k_extremes() {
        let inst = Instance::from_estimates(&[2.0, 1.0, 1.0], 3).unwrap();
        let real = Realization::exact(&inst);
        // k = 1: everything in one group of all machines, online LPT — the
        // same outcome as LPT-No Restriction.
        let g1 = LptGroup::new(1)
            .run(&inst, Uncertainty::CERTAIN, &real)
            .unwrap();
        let nr = crate::LptNoRestriction
            .run(&inst, Uncertainty::CERTAIN, &real)
            .unwrap();
        assert_eq!(g1.makespan, nr.makespan);
        // k = m: pinned LPT — the same makespan as LPT-No Choice.
        let gm = LptGroup::new(3)
            .run(&inst, Uncertainty::CERTAIN, &real)
            .unwrap();
        let nc = crate::LptNoChoice
            .run(&inst, Uncertainty::CERTAIN, &real)
            .unwrap();
        assert_eq!(gm.makespan, nc.makespan);
    }
}

//! Chained declustering: each task on `k` consecutive machines.
//!
//! A classical distributed-storage layout (and one instantiation of the
//! paper's future-work call for "more general replication policies"):
//! task `j`'s data lives on machines `{h_j, h_j+1, …, h_j+k−1} (mod m)`,
//! where `h_j` is the primary chosen by LPT on the estimates. Unlike
//! grouped replication, the eligibility sets *overlap*, so load can
//! spill gradually around the ring instead of being confined to a group.

use crate::executor::execute_online;
use rds_algs::list_scheduling::lpt_estimates;
use rds_algs::Strategy;
use rds_core::{
    Assignment, Error, Instance, MachineId, MachineMask, MachineSet, Placement, Realization,
    Result, Uncertainty,
};

/// The chained-declustering replication strategy.
#[derive(Debug, Clone, Copy)]
pub struct ChainedReplication {
    k: usize,
}

impl ChainedReplication {
    /// Replicates each task on `k ≥ 1` consecutive machines (mod `m`).
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] when `k == 0` — a replication factor
    /// of zero places every task nowhere.
    pub fn new(k: usize) -> Result<Self> {
        if k == 0 {
            return Err(Error::InvalidParameter {
                what: "chained replication needs k >= 1",
            });
        }
        Ok(ChainedReplication { k })
    }

    /// The replica count `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The placement that chains each task from its machine in
    /// `primaries`. [`Strategy::place`] passes the LPT assignment on the
    /// estimates; a caller that already holds it passes it here.
    ///
    /// # Errors
    /// - [`Error::BadGroupCount`] when `k` exceeds the machine count;
    /// - [`Placement::new`]'s errors.
    pub fn chain(&self, instance: &Instance, primaries: &Assignment) -> Result<Placement> {
        if self.k > instance.m() {
            return Err(Error::BadGroupCount {
                k: self.k,
                m: instance.m(),
            });
        }
        let sets = (0..instance.n())
            .map(|j| self.chain_set(instance.m(), primaries.machine_of(rds_core::TaskId::new(j))))
            .collect();
        Placement::new(instance, sets)
    }

    fn chain_set(&self, m: usize, primary: MachineId) -> MachineSet {
        let k = self.k.min(m);
        if k == m {
            return MachineSet::All;
        }
        let start = primary.index();
        if start + k <= m {
            MachineSet::Span {
                start: start as u32,
                end: (start + k) as u32,
            }
        } else {
            // Wrap-around: arbitrary subset via mask.
            let mask = MachineMask::from_iter_with_capacity(
                m,
                (0..k).map(|i| MachineId::new((start + i) % m)),
            );
            MachineSet::from_mask(m, mask)
        }
    }
}

impl Strategy for ChainedReplication {
    fn name(&self) -> String {
        format!("Chained(k={})", self.k)
    }

    fn replication_budget(&self, m: usize) -> usize {
        self.k.min(m)
    }

    fn place(&self, instance: &Instance, _uncertainty: Uncertainty) -> Result<Placement> {
        self.chain(instance, &lpt_estimates(instance)?)
    }

    fn execute(
        &self,
        instance: &Instance,
        placement: &Placement,
        realization: &Realization,
    ) -> Result<Assignment> {
        execute_online(instance, placement, realization)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rds_core::TaskId;

    #[test]
    fn placement_has_exactly_k_replicas() {
        let inst = Instance::from_estimates(&[3.0, 2.0, 1.0, 1.0, 1.0], 4).unwrap();
        for k in 1..=4 {
            let p = ChainedReplication::new(k)
                .unwrap()
                .place(&inst, Uncertainty::CERTAIN)
                .unwrap();
            for j in 0..inst.n() {
                assert_eq!(p.replicas(TaskId::new(j)), k, "k={k} task {j}");
            }
            p.check_budget(k).unwrap();
        }
    }

    #[test]
    fn wraparound_chains_work() {
        // Force a primary near the end: one long task per machine, the
        // chain from machine 3 with k = 3 wraps to {3, 0, 1}.
        let inst = Instance::from_estimates(&[4.0, 3.0, 2.0, 1.0], 4).unwrap();
        let p = ChainedReplication::new(3)
            .unwrap()
            .place(&inst, Uncertainty::CERTAIN)
            .unwrap();
        // LPT pins task 3 (estimate 1) to machine 3; chain wraps.
        let set = p.set(TaskId::new(3));
        assert!(set.contains(MachineId::new(3)));
        assert!(set.contains(MachineId::new(0)));
        assert!(set.contains(MachineId::new(1)));
        assert!(!set.contains(MachineId::new(2)));
    }

    #[test]
    fn k_too_large_rejected() {
        let inst = Instance::from_estimates(&[1.0], 2).unwrap();
        assert!(matches!(
            ChainedReplication::new(3)
                .unwrap()
                .place(&inst, Uncertainty::CERTAIN)
                .unwrap_err(),
            Error::BadGroupCount { k: 3, m: 2 }
        ));
    }

    #[test]
    fn end_to_end_feasible_and_adaptive() {
        let inst = Instance::from_estimates(&[2.0; 8], 4).unwrap();
        let unc = Uncertainty::of(2.0);
        // First-dispatched tasks get slow; chains let neighbours help.
        let real = Realization::from_factors(&inst, unc, &[2.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5])
            .unwrap();
        let out = ChainedReplication::new(2)
            .unwrap()
            .run(&inst, unc, &real)
            .unwrap();
        out.assignment.check_feasible(&out.placement).unwrap();
        // Pinned LPT would put 2 tasks per machine; the slow machine pair
        // would finish at 4 + something. With chains the second task of
        // the slow machine can drift to a neighbour.
        let pinned = rds_algs::LptNoChoice.run(&inst, unc, &real).unwrap();
        assert!(out.makespan <= pinned.makespan);
    }

    #[test]
    fn k_zero_is_a_typed_error() {
        assert!(matches!(
            ChainedReplication::new(0),
            Err(Error::InvalidParameter { .. })
        ));
    }

    #[test]
    fn k_equals_m_is_everywhere() {
        let inst = Instance::from_estimates(&[1.0, 2.0], 3).unwrap();
        let p = ChainedReplication::new(3)
            .unwrap()
            .place(&inst, Uncertainty::CERTAIN)
            .unwrap();
        assert_eq!(p.max_replicas(), 3);
        for j in 0..2 {
            assert_eq!(p.set(TaskId::new(j)), &MachineSet::All);
        }
    }
}

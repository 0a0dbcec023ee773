//! Randomized `k`-replication: each task on `k` machines chosen at
//! random (power-of-`k`-choices flavored).
//!
//! The natural baseline for any structured replication policy: does the
//! *shape* of the replica sets (groups, chains) matter, or only their
//! size `k`? Each task draws `k` distinct machines uniformly; phase 2 is
//! the same online LPT dispatch as the other policies.

use crate::executor::execute_online;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rds_algs::Strategy;
use rds_core::{
    Assignment, Error, Instance, MachineId, MachineMask, MachineSet, Placement, Realization,
    Result, Uncertainty,
};

/// The randomized `k`-subset replication strategy.
#[derive(Debug, Clone, Copy)]
pub struct RandomKReplication {
    k: usize,
    seed: u64,
}

impl RandomKReplication {
    /// Replicates each task on `k` uniformly random distinct machines,
    /// deterministically derived from `seed`.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] when `k == 0`.
    pub fn new(k: usize, seed: u64) -> Result<Self> {
        if k == 0 {
            return Err(Error::InvalidParameter {
                what: "random replication needs k >= 1",
            });
        }
        Ok(RandomKReplication { k, seed })
    }

    /// The replica count `k`.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl Strategy for RandomKReplication {
    fn name(&self) -> String {
        format!("Random(k={})", self.k)
    }

    fn replication_budget(&self, m: usize) -> usize {
        self.k.min(m)
    }

    fn place(&self, instance: &Instance, _uncertainty: Uncertainty) -> Result<Placement> {
        let m = instance.m();
        if self.k > m {
            return Err(Error::BadGroupCount { k: self.k, m });
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        let all: Vec<MachineId> = instance.machine_ids().collect();
        let sets = (0..instance.n())
            .map(|_| {
                let chosen = all
                    .choose_multiple(&mut rng, self.k)
                    .copied()
                    .collect::<Vec<_>>();
                MachineSet::from_mask(m, MachineMask::from_iter_with_capacity(m, chosen))
            })
            .collect();
        Placement::new(instance, sets)
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
    fn exactly_k_distinct_replicas() {
        let inst = Instance::from_estimates(&[1.0; 20], 6).unwrap();
        for k in 1..=6 {
            let p = RandomKReplication::new(k, 42)
                .unwrap()
                .place(&inst, Uncertainty::CERTAIN)
                .unwrap();
            for j in 0..inst.n() {
                assert_eq!(p.replicas(TaskId::new(j)), k);
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let inst = Instance::from_estimates(&[1.0; 10], 5).unwrap();
        let a = RandomKReplication::new(2, 7)
            .unwrap()
            .place(&inst, Uncertainty::CERTAIN)
            .unwrap();
        let b = RandomKReplication::new(2, 7)
            .unwrap()
            .place(&inst, Uncertainty::CERTAIN)
            .unwrap();
        assert_eq!(a, b);
        let c = RandomKReplication::new(2, 8)
            .unwrap()
            .place(&inst, Uncertainty::CERTAIN)
            .unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn end_to_end_feasible() {
        let inst = Instance::from_estimates(&[3.0, 2.0, 2.0, 1.0, 1.0, 1.0], 4).unwrap();
        let unc = Uncertainty::of(1.8);
        let real = Realization::uniform_factor(&inst, unc, 1.5).unwrap();
        let out = RandomKReplication::new(2, 123)
            .unwrap()
            .run(&inst, unc, &real)
            .unwrap();
        out.assignment.check_feasible(&out.placement).unwrap();
        assert!(out.placement.max_replicas() == 2);
    }

    #[test]
    fn k_zero_is_a_typed_error() {
        assert!(matches!(
            RandomKReplication::new(0, 1),
            Err(Error::InvalidParameter { .. })
        ));
    }

    #[test]
    fn k_too_large_rejected() {
        let inst = Instance::from_estimates(&[1.0], 2).unwrap();
        assert!(RandomKReplication::new(5, 1)
            .unwrap()
            .place(&inst, Uncertainty::CERTAIN)
            .is_err());
    }
}

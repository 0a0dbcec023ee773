//! Critical-task replication: replicate only the tasks that matter.
//!
//! The paper's closing observation: "A more realistic model would
//! introduce a cost of replicating a task… This would allow to replicate
//! only some critical tasks and limit memory usage." This policy
//! replicates everywhere the tasks whose estimates fall in the top
//! `fraction` of the total estimated work (the tasks whose inflation can
//! single-handedly wreck a machine) and pins the rest with LPT.

use crate::executor::execute_online;
use rds_algs::list_scheduling::lpt_estimates;
use rds_algs::Strategy;
use rds_core::{
    Assignment, Error, Instance, MachineSet, Placement, Realization, Result, TaskId, Uncertainty,
};

/// Replicates the most processing-time-critical tasks everywhere, pins
/// the rest.
#[derive(Debug, Clone, Copy)]
pub struct CriticalTaskReplication {
    fraction: f64,
}

impl CriticalTaskReplication {
    /// Replicates the smallest prefix of LPT-ordered tasks covering at
    /// least `fraction ∈ [0, 1]` of the total estimated work.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] unless `0 ≤ fraction ≤ 1` (NaN
    /// included — a NaN fraction would silently replicate nothing).
    pub fn new(fraction: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&fraction) {
            return Err(Error::InvalidParameter {
                what: "critical fraction must be in [0, 1]",
            });
        }
        Ok(CriticalTaskReplication { fraction })
    }

    /// The work fraction treated as critical.
    pub fn fraction(&self) -> f64 {
        self.fraction
    }

    /// The set of tasks this policy would replicate for `instance`.
    pub fn critical_set(&self, instance: &Instance) -> Vec<TaskId> {
        let total = instance.total_estimate().get();
        if total == 0.0 || self.fraction == 0.0 {
            return Vec::new();
        }
        let mut covered = 0.0;
        let mut critical = Vec::new();
        for t in instance.ids_by_estimate_desc() {
            if covered >= self.fraction * total {
                break;
            }
            covered += instance.estimate(t).get();
            critical.push(t);
        }
        critical
    }
}

impl Strategy for CriticalTaskReplication {
    fn name(&self) -> String {
        format!("Critical({}%)", (self.fraction * 100.0).round())
    }

    fn replication_budget(&self, m: usize) -> usize {
        if self.fraction == 0.0 {
            1
        } else {
            m
        }
    }

    fn place(&self, instance: &Instance, _uncertainty: Uncertainty) -> Result<Placement> {
        let pinned = lpt_estimates(instance)?;
        let mut sets: Vec<MachineSet> = pinned
            .machines()
            .iter()
            .map(|&id| MachineSet::One(id))
            .collect();
        for t in self.critical_set(instance) {
            sets[t.index()] = MachineSet::All;
        }
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

    fn inst() -> Instance {
        Instance::from_estimates(&[10.0, 8.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0], 4).unwrap()
    }

    #[test]
    fn critical_set_covers_requested_fraction() {
        let i = inst();
        // Total 30; 50% needs the 10 and 8 (18 ≥ 15).
        let c = CriticalTaskReplication::new(0.5).unwrap().critical_set(&i);
        let idx: Vec<usize> = c.iter().map(|t| t.index()).collect();
        assert_eq!(idx, vec![0, 1]);
        // 0% → nothing, 100% → everything.
        assert!(CriticalTaskReplication::new(0.0)
            .unwrap()
            .critical_set(&i)
            .is_empty());
        assert_eq!(
            CriticalTaskReplication::new(1.0)
                .unwrap()
                .critical_set(&i)
                .len(),
            8
        );
    }

    #[test]
    fn placement_mixes_pinned_and_replicated() {
        let i = inst();
        let p = CriticalTaskReplication::new(0.5)
            .unwrap()
            .place(&i, Uncertainty::CERTAIN)
            .unwrap();
        assert_eq!(p.replicas(TaskId::new(0)), 4);
        assert_eq!(p.replicas(TaskId::new(1)), 4);
        for j in 2..8 {
            assert_eq!(p.replicas(TaskId::new(j)), 1, "task {j}");
        }
        // Memory footprint interpolates between pinned and everywhere.
        assert_eq!(p.total_replicas(), 2 * 4 + 6);
    }

    #[test]
    fn zero_fraction_equals_lpt_no_choice() {
        let i = inst();
        let unc = Uncertainty::of(1.5);
        let real = Realization::uniform_factor(&i, unc, 1.2).unwrap();
        let crit = CriticalTaskReplication::new(0.0)
            .unwrap()
            .run(&i, unc, &real)
            .unwrap();
        let pinned = rds_algs::LptNoChoice.run(&i, unc, &real).unwrap();
        assert_eq!(crit.makespan, pinned.makespan);
        assert_eq!(crit.placement.max_replicas(), 1);
    }

    #[test]
    fn replicating_criticals_absorbs_their_inflation() {
        let i = inst();
        let unc = Uncertainty::of(2.0);
        // The two big tasks blow up, everything else shrinks.
        let real =
            Realization::from_factors(&i, unc, &[2.0, 2.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5]).unwrap();
        let crit = CriticalTaskReplication::new(0.5)
            .unwrap()
            .run(&i, unc, &real)
            .unwrap();
        let pinned = rds_algs::LptNoChoice.run(&i, unc, &real).unwrap();
        assert!(
            crit.makespan <= pinned.makespan,
            "critical replication should help: {} vs {}",
            crit.makespan,
            pinned.makespan
        );
        crit.assignment.check_feasible(&crit.placement).unwrap();
    }

    #[test]
    fn fraction_domain_is_a_typed_error() {
        for bad in [-0.1, 1.5, f64::NAN] {
            assert!(matches!(
                CriticalTaskReplication::new(bad),
                Err(Error::InvalidParameter { .. })
            ));
        }
    }
}

//! Engine-backed phase-2 execution for general placements.
//!
//! The closed-form "assign each task to its least-loaded eligible
//! machine" used by `rds-algs` is only equivalent to the true online
//! process when eligibility sets are disjoint (pinning, groups) or
//! universal (everywhere). For *overlapping* placements — chained
//! declustering, random k-subsets — the semantics that matters is the
//! event one: an idle machine pulls the highest-priority pending task it
//! is allowed to run. These policies therefore execute through the
//! `rds-sim` engine directly.

use rds_core::{Assignment, Instance, Placement, Realization, Result};
use rds_sim::{Engine, OrderedDispatcher};

/// Executes a placement online via the discrete-event engine and returns
/// the resulting assignment. The priority order is the one every policy
/// in this crate uses: non-increasing estimate, ties by task id (online
/// LPT, consistent with the paper's phase-2 choices).
///
/// # Errors
/// Propagates engine errors — notably
/// [`rds_core::Error::InvalidParameter`] when some pending task is
/// eligible on no machine that ever becomes idle.
pub fn execute_online(
    instance: &Instance,
    placement: &Placement,
    realization: &Realization,
) -> Result<Assignment> {
    let engine = Engine::new(instance, placement, realization)?;
    let result = engine.run(&mut OrderedDispatcher::lpt_by_estimate(instance))?;
    result.schedule.to_assignment(instance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rds_core::{MachineId, MachineSet, TaskId, Time};

    #[test]
    fn online_execution_respects_overlapping_sets() {
        // Tasks 0,1 may run on {0,1}; task 2 only on {1}. The online
        // process must keep machine 1 free-ish for task 2's turn.
        let inst = rds_core::Instance::from_estimates(&[4.0, 4.0, 2.0], 2).unwrap();
        let placement = Placement::new(
            &inst,
            vec![
                MachineSet::Span { start: 0, end: 2 },
                MachineSet::Span { start: 0, end: 2 },
                MachineSet::One(MachineId::new(1)),
            ],
        )
        .unwrap();
        let real = Realization::exact(&inst);
        let a = execute_online(&inst, &placement, &real).unwrap();
        a.check_feasible(&placement).unwrap();
        assert_eq!(a.machine_of(TaskId::new(2)), MachineId::new(1));
        assert_eq!(a.makespan(&real), Time::of(6.0));
    }
}

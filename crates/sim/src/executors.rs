//! Ready-made simulations of the paper's strategies.
//!
//! These wire each strategy's phase-2 policy into the event engine. Their
//! results are provably identical to the closed-form greedy
//! implementations in `rds-algs` (the integration tests assert this),
//! and additionally carry full traces and Gantt-able schedules.

use crate::dispatcher::{Dispatcher, LocalityDispatcher, OrderedDispatcher, PinnedDispatcher};
use crate::engine::{Engine, SimResult};
use rds_core::{
    Instance, MachineId, MachineSpeeds, NetworkTopology, Placement, Realization, Result, TaskId,
};

/// Simulates `LPT-No Restriction`: everywhere placement, online LPT by
/// estimate.
///
/// # Errors
/// Propagates engine errors.
pub fn simulate_no_restriction(
    instance: &Instance,
    realization: &Realization,
) -> Result<SimResult> {
    let placement = Placement::everywhere(instance);
    let engine = Engine::new(instance, &placement, realization)?;
    engine.run(&mut OrderedDispatcher::lpt_by_estimate(instance))
}

/// Simulates a fully pinned execution (e.g. `LPT-No Choice` after its
/// phase 1, or `SABO_Δ`): each task runs on its unique placed machine,
/// machines work through their queues in task-id order.
///
/// # Errors
/// Propagates engine errors.
pub fn simulate_pinned(
    instance: &Instance,
    machine_of: &[MachineId],
    realization: &Realization,
) -> Result<SimResult> {
    let placement = Placement::pinned(instance, machine_of)?;
    let engine = Engine::new(instance, &placement, realization)?;
    engine.run(&mut PinnedDispatcher::new(machine_of, instance.m()))
}

/// Simulates `LS-Group` phase 2 on a group-shaped placement: tasks are
/// dispatched in task-id order, each to the first idle machine of its
/// group. Group placements are sparse, so this takes the indexed
/// dispatch path (per-machine restricted orders) automatically.
///
/// # Errors
/// Propagates engine errors.
pub fn simulate_grouped(
    instance: &Instance,
    placement: &Placement,
    realization: &Realization,
) -> Result<SimResult> {
    let engine = Engine::new(instance, placement, realization)?;
    let order = instance.task_ids().collect();
    engine.run(&mut OrderedDispatcher::auto(order, placement))
}

/// Simulates an arbitrary placement with a custom priority order.
///
/// # Errors
/// Propagates engine errors.
pub fn simulate_ordered(
    instance: &Instance,
    placement: &Placement,
    order: Vec<TaskId>,
    realization: &Realization,
) -> Result<SimResult> {
    let engine = Engine::new(instance, placement, realization)?;
    engine.run(&mut OrderedDispatcher::auto(order, placement))
}

/// Simulates a heterogeneous execution: LPT priority, speed-stretched
/// durations, and — when a topology is given — locality-aware dispatch
/// with transfer charging ([`Engine::run_hetero`]).
///
/// With `speeds = None` and `topology = None` this is exactly the
/// homogeneous LPT run over `placement`. With a topology, dispatch
/// switches to [`LocalityDispatcher`] so the policy minimizes the very
/// transfers the engine charges.
///
/// # Errors
/// Propagates engine errors and machine-count mismatches.
pub fn simulate_hetero(
    instance: &Instance,
    placement: &Placement,
    realization: &Realization,
    speeds: Option<&MachineSpeeds>,
    topology: Option<&NetworkTopology>,
) -> Result<SimResult> {
    let engine = Engine::new(instance, placement, realization)?;
    let order = instance.ids_by_estimate_desc();
    let mut dispatcher: Box<dyn Dispatcher> = match topology {
        Some(t) => Box::new(LocalityDispatcher::new(order, placement, t.clone())?),
        None => Box::new(OrderedDispatcher::auto(order, placement)),
    };
    engine.run_hetero(dispatcher.as_mut(), speeds, topology)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rds_core::{Time, Uncertainty};

    #[test]
    fn no_restriction_simulation_runs_all_tasks() {
        let inst = Instance::from_estimates(&[4.0, 3.0, 2.0, 1.0], 2).unwrap();
        let unc = Uncertainty::of(1.5);
        let real = Realization::from_factors(&inst, unc, &[1.5, 1.0, 0.8, 1.2]).unwrap();
        let res = simulate_no_restriction(&inst, &real).unwrap();
        assert_eq!(res.trace.starts(), 4);
        let p = Placement::everywhere(&inst);
        crate::check_schedule(&inst, &p, &real, &res.schedule, &crate::Checks::engine()).unwrap();
    }

    #[test]
    fn pinned_simulation_keeps_assignment() {
        let inst = Instance::from_estimates(&[1.0, 2.0, 3.0], 2).unwrap();
        let machine_of = [MachineId::new(1), MachineId::new(0), MachineId::new(1)];
        let real = Realization::exact(&inst);
        let res = simulate_pinned(&inst, &machine_of, &real).unwrap();
        let a = res.schedule.to_assignment(&inst).unwrap();
        assert_eq!(a.machines(), &machine_of);
        assert_eq!(res.makespan, Time::of(4.0));
    }

    #[test]
    fn ordered_respects_custom_priority() {
        let inst = Instance::from_estimates(&[1.0, 5.0], 1).unwrap();
        let real = Realization::exact(&inst);
        let p = Placement::everywhere(&inst);
        let res = simulate_ordered(&inst, &p, vec![TaskId::new(1), TaskId::new(0)], &real).unwrap();
        let slots = res.schedule.slots(MachineId::new(0));
        assert_eq!(slots[0].task, TaskId::new(1));
    }
}

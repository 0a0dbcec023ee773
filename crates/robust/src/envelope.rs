//! Analytic worst/best-case envelopes of a *static* schedule.
//!
//! For a fixed assignment the actual times vary independently inside
//! `[p̃_j/α, α·p̃_j]`, so each machine's load varies inside
//! `[load̃_i/α, α·load̃_i]` and the makespan inside
//! `[C̃_max/α, α·C̃_max]` — tight, since the adversary controls every
//! task independently. These are the sensitivity-analysis quantities the
//! robust-scheduling literature the paper cites (§2) computes.

use rds_core::{Assignment, Instance, TaskId, Time, Uncertainty};

/// The static-schedule makespan envelope.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Envelope {
    /// Planned makespan on the estimates, `C̃_max`.
    pub planned: Time,
    /// Best reachable makespan, `C̃_max/α`.
    pub best: Time,
    /// Worst reachable makespan, `α·C̃_max`.
    pub worst: Time,
}

impl Envelope {
    /// Width of the envelope relative to the planned value:
    /// `(worst − best)/planned = α − 1/α`.
    pub fn relative_width(&self) -> f64 {
        if self.planned.is_zero() {
            0.0
        } else {
            (self.worst - self.best).get() / self.planned.get()
        }
    }
}

/// Computes the makespan envelope of a fixed assignment.
pub fn envelope(instance: &Instance, assignment: &Assignment, unc: Uncertainty) -> Envelope {
    let planned = assignment.estimated_makespan(instance);
    Envelope {
        planned,
        best: unc.lo(planned),
        worst: unc.hi(planned),
    }
}

/// Per-machine *criticality*: how close each machine's estimated load is
/// to the planned makespan (`1.0` = this machine decides the makespan).
/// Machines near `1` are the ones whose tasks' inflation hurts; the
/// memory-aware and critical-replication policies target exactly them.
pub fn machine_criticality(instance: &Instance, assignment: &Assignment) -> Vec<f64> {
    let loads = assignment.estimated_loads(instance);
    let cmax = loads.iter().copied().max().unwrap_or(Time::ZERO);
    if cmax.is_zero() {
        return vec![1.0; loads.len()];
    }
    loads.iter().map(|l| l.get() / cmax.get()).collect()
}

/// Per-task criticality: the criticality of the machine the task runs
/// on, scaled by the task's share of that machine's load. Tasks with
/// high values are the "critical tasks" of the paper's future-work
/// paragraph.
pub fn task_criticality(instance: &Instance, assignment: &Assignment) -> Vec<f64> {
    let loads = assignment.estimated_loads(instance);
    let cmax = loads.iter().copied().max().unwrap_or(Time::ZERO);
    if cmax.is_zero() {
        return vec![0.0; instance.n()];
    }
    (0..instance.n())
        .map(|j| {
            let t = TaskId::new(j);
            let machine = assignment.machine_of(t);
            let mach_crit = loads[machine.index()].get() / cmax.get();
            let share = instance.estimate(t).get() / loads[machine.index()].get().max(1e-300);
            mach_crit * share
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rds_core::{MachineId, Realization};

    fn setup() -> (Instance, Assignment, Uncertainty) {
        let inst = Instance::from_estimates(&[4.0, 2.0, 3.0, 1.0], 2).unwrap();
        let a = Assignment::new(
            &inst,
            vec![
                MachineId::new(0),
                MachineId::new(0),
                MachineId::new(1),
                MachineId::new(1),
            ],
        )
        .unwrap();
        (inst, a, Uncertainty::of(2.0))
    }

    #[test]
    fn envelope_brackets_every_realization() {
        let (inst, a, unc) = setup();
        let env = envelope(&inst, &a, unc);
        assert_eq!(env.planned, Time::of(6.0));
        assert_eq!(env.best, Time::of(3.0));
        assert_eq!(env.worst, Time::of(12.0));
        assert!((env.relative_width() - 1.5).abs() < 1e-12); // α − 1/α

        // Sample realizations stay inside.
        for factors in [
            [2.0, 2.0, 2.0, 2.0],
            [0.5, 0.5, 0.5, 0.5],
            [2.0, 0.5, 1.0, 1.3],
        ] {
            let real = Realization::from_factors(&inst, unc, &factors).unwrap();
            let mk = a.makespan(&real);
            assert!(mk >= env.best && mk <= env.worst, "{mk}");
        }
    }

    #[test]
    fn envelope_is_tight() {
        let (inst, a, unc) = setup();
        let env = envelope(&inst, &a, unc);
        let worst = Realization::uniform_factor(&inst, unc, 2.0).unwrap();
        assert_eq!(a.makespan(&worst), env.worst);
        let best = Realization::uniform_factor(&inst, unc, 0.5).unwrap();
        assert_eq!(a.makespan(&best), env.best);
    }

    #[test]
    fn criticality_identifies_the_bottleneck() {
        let (inst, a, _) = setup();
        let crit = machine_criticality(&inst, &a);
        assert_eq!(crit[0], 1.0); // load 6 = C̃max
        assert!((crit[1] - 4.0 / 6.0).abs() < 1e-12);
        let tc = task_criticality(&inst, &a);
        // Task 0 (4 of machine 0's 6) is the most critical.
        let max_idx = tc
            .iter()
            .enumerate()
            .max_by(|x, y| x.1.total_cmp(y.1))
            .unwrap()
            .0;
        assert_eq!(max_idx, 0);
    }
}

//! Phase-2 output: the executed schedule.
//!
//! An [`Assignment`] is the pure task→machine mapping (order-free: on
//! identical machines with no release dates the makespan depends only on
//! which tasks share a machine). A [`Schedule`] additionally fixes the
//! execution order and start/completion times per machine, as produced by
//! the discrete-event engine or by sequencing an assignment.

use crate::error::{Error, Result};
use crate::ids::{MachineId, TaskId};
use crate::instance::Instance;
use crate::placement::Placement;
use crate::realization::Realization;
use crate::scalar::Time;

/// A task→machine mapping (the sets `E_i` of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    machine_of: Vec<MachineId>,
    m: usize,
}

impl Assignment {
    /// Wraps a per-task machine vector.
    ///
    /// # Errors
    /// - [`Error::TaskCountMismatch`] on length mismatch.
    /// - [`Error::MachineOutOfRange`] on a bad machine index.
    pub fn new(instance: &Instance, machine_of: Vec<MachineId>) -> Result<Self> {
        if machine_of.len() != instance.n() {
            return Err(Error::TaskCountMismatch {
                what: "assignment",
                expected: instance.n(),
                got: machine_of.len(),
            });
        }
        if let Some(bad) = machine_of.iter().find(|id| id.index() >= instance.m()) {
            return Err(Error::MachineOutOfRange {
                machine: bad.index(),
                m: instance.m(),
            });
        }
        Ok(Assignment {
            machine_of,
            m: instance.m(),
        })
    }

    /// Machine executing a task.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[inline]
    pub fn machine_of(&self, id: TaskId) -> MachineId {
        self.machine_of[id.index()]
    }

    /// The raw per-task machine vector.
    #[inline]
    pub fn machines(&self) -> &[MachineId] {
        &self.machine_of
    }

    /// Number of machines.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of tasks.
    #[inline]
    pub fn n(&self) -> usize {
        self.machine_of.len()
    }

    /// Task ids assigned to each machine (`E_i`), in task-id order.
    pub fn tasks_per_machine(&self) -> Vec<Vec<TaskId>> {
        let mut per = vec![Vec::new(); self.m];
        for (j, id) in self.machine_of.iter().enumerate() {
            per[id.index()].push(TaskId::new(j));
        }
        per
    }

    /// Per-machine loads under a realization: `load_i = Σ_{j ∈ E_i} p_j`.
    ///
    /// # Panics
    /// Panics if the realization covers a different task count.
    pub fn loads(&self, realization: &Realization) -> Vec<Time> {
        assert_eq!(
            realization.n(),
            self.n(),
            "realization/assignment task count mismatch"
        );
        let mut loads = vec![Time::ZERO; self.m];
        for (j, id) in self.machine_of.iter().enumerate() {
            loads[id.index()] += realization.actual(TaskId::new(j));
        }
        loads
    }

    /// Per-machine loads under the *estimates* (`Σ_{j ∈ E_i} p̃_j`).
    pub fn estimated_loads(&self, instance: &Instance) -> Vec<Time> {
        assert_eq!(instance.n(), self.n());
        let mut loads = vec![Time::ZERO; self.m];
        for (j, id) in self.machine_of.iter().enumerate() {
            loads[id.index()] += instance.estimate(TaskId::new(j));
        }
        loads
    }

    /// The makespan `C_max = max_i Σ_{j ∈ E_i} p_j` under a realization.
    pub fn makespan(&self, realization: &Realization) -> Time {
        self.loads(realization)
            .into_iter()
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// The makespan under the estimates (`C̃_max`).
    pub fn estimated_makespan(&self, instance: &Instance) -> Time {
        self.estimated_loads(instance)
            .into_iter()
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// Checks phase-2 feasibility: every task runs on a machine in `M_j`.
    ///
    /// # Errors
    /// Returns [`Error::InfeasibleAssignment`] on the first violation.
    pub fn check_feasible(&self, placement: &Placement) -> Result<()> {
        for (j, &id) in self.machine_of.iter().enumerate() {
            if !placement.allows(TaskId::new(j), id) {
                return Err(Error::InfeasibleAssignment {
                    task: j,
                    machine: id.index(),
                });
            }
        }
        Ok(())
    }
}

/// One executed task occurrence in a [`Schedule`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slot {
    /// Which task ran.
    pub task: TaskId,
    /// When it started.
    pub start: Time,
    /// When it completed (`start + p_j`).
    pub end: Time,
}

/// A fully sequenced schedule: ordered slots per machine.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    per_machine: Vec<Vec<Slot>>,
}

impl Schedule {
    /// Sequences an assignment greedily: each machine runs its tasks
    /// back-to-back starting at time zero, in the given per-machine order.
    ///
    /// `order` gives, for each machine, the execution order of its tasks;
    /// use [`Assignment::tasks_per_machine`] for task-id order.
    ///
    /// # Panics
    /// Panics if `order` disagrees with the assignment's machine count.
    pub fn sequence(order: &[Vec<TaskId>], realization: &Realization) -> Self {
        let per_machine = order
            .iter()
            .map(|tasks| {
                let mut t = Time::ZERO;
                tasks
                    .iter()
                    .map(|&task| {
                        let start = t;
                        let end = start + realization.actual(task);
                        t = end;
                        Slot { task, start, end }
                    })
                    .collect()
            })
            .collect();
        Schedule { per_machine }
    }

    /// Builds a schedule directly from per-machine slot lists.
    ///
    /// Used by the simulator, which computes start times itself.
    pub fn from_slots(per_machine: Vec<Vec<Slot>>) -> Self {
        Schedule { per_machine }
    }

    /// Slots of one machine, in execution order.
    ///
    /// # Panics
    /// Panics if `machine` is out of range.
    pub fn slots(&self, machine: MachineId) -> &[Slot] {
        &self.per_machine[machine.index()]
    }

    /// All machines' slot lists.
    pub fn all_slots(&self) -> &[Vec<Slot>] {
        &self.per_machine
    }

    /// Number of machines.
    pub fn m(&self) -> usize {
        self.per_machine.len()
    }

    /// Completion time of the last task on any machine.
    pub fn makespan(&self) -> Time {
        self.per_machine
            .iter()
            .filter_map(|slots| slots.last().map(|s| s.end))
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// The underlying task→machine [`Assignment`].
    ///
    /// # Errors
    /// Propagates [`Assignment::new`] errors (e.g. a task missing from
    /// every machine yields [`Error::TaskCountMismatch`]).
    pub fn to_assignment(&self, instance: &Instance) -> Result<Assignment> {
        let mut machine_of = vec![None; instance.n()];
        for (i, slots) in self.per_machine.iter().enumerate() {
            for slot in slots {
                machine_of[slot.task.index()] = Some(MachineId::new(i));
            }
        }
        let machine_of = machine_of
            .into_iter()
            .enumerate()
            .map(|(j, mo)| {
                mo.ok_or(Error::TaskOutOfRange {
                    task: j,
                    n: instance.n(),
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Assignment::new(instance, machine_of)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::MachineSet;
    use crate::uncertainty::Uncertainty;

    fn inst() -> Instance {
        Instance::from_estimates(&[4.0, 2.0, 1.0, 3.0], 2).unwrap()
    }

    fn mid(i: usize) -> MachineId {
        MachineId::new(i)
    }

    #[test]
    fn assignment_validation() {
        let i = inst();
        assert!(Assignment::new(&i, vec![mid(0); 4]).is_ok());
        assert!(matches!(
            Assignment::new(&i, vec![mid(0); 3]).unwrap_err(),
            Error::TaskCountMismatch { .. }
        ));
        assert!(matches!(
            Assignment::new(&i, vec![mid(0), mid(1), mid(2), mid(0)]).unwrap_err(),
            Error::MachineOutOfRange { machine: 2, .. }
        ));
    }

    #[test]
    fn loads_and_makespan() {
        let i = inst();
        let a = Assignment::new(&i, vec![mid(0), mid(1), mid(1), mid(0)]).unwrap();
        let r = Realization::exact(&i);
        assert_eq!(a.loads(&r), vec![Time::of(7.0), Time::of(3.0)]);
        assert_eq!(a.makespan(&r), Time::of(7.0));
        assert_eq!(a.estimated_makespan(&i), Time::of(7.0));

        // Under an inflated realization the loads move.
        let u = Uncertainty::of(2.0);
        let r = Realization::from_factors(&i, u, &[0.5, 2.0, 2.0, 0.5]).unwrap();
        assert_eq!(a.loads(&r), vec![Time::of(3.5), Time::of(6.0)]);
        assert_eq!(a.makespan(&r), Time::of(6.0));
    }

    #[test]
    fn tasks_per_machine_groups() {
        let i = inst();
        let a = Assignment::new(&i, vec![mid(0), mid(1), mid(0), mid(1)]).unwrap();
        let per = a.tasks_per_machine();
        assert_eq!(per[0], vec![TaskId::new(0), TaskId::new(2)]);
        assert_eq!(per[1], vec![TaskId::new(1), TaskId::new(3)]);
    }

    #[test]
    fn feasibility_check() {
        let i = inst();
        let p = Placement::new(
            &i,
            vec![
                MachineSet::One(mid(0)),
                MachineSet::All,
                MachineSet::Span { start: 1, end: 2 },
                MachineSet::All,
            ],
        )
        .unwrap();
        let good = Assignment::new(&i, vec![mid(0), mid(0), mid(1), mid(1)]).unwrap();
        assert!(good.check_feasible(&p).is_ok());
        let bad = Assignment::new(&i, vec![mid(1), mid(0), mid(1), mid(1)]).unwrap();
        assert!(matches!(
            bad.check_feasible(&p).unwrap_err(),
            Error::InfeasibleAssignment {
                task: 0,
                machine: 1
            }
        ));
    }

    #[test]
    fn sequence_is_back_to_back() {
        let i = inst();
        let r = Realization::exact(&i);
        let a = Assignment::new(&i, vec![mid(0), mid(1), mid(1), mid(0)]).unwrap();
        let s = Schedule::sequence(&a.tasks_per_machine(), &r);
        assert_eq!(s.makespan(), Time::of(7.0));
        assert_eq!(s.makespan(), a.makespan(&r));
        // Slots are back-to-back.
        let slots = s.slots(mid(0));
        assert_eq!(slots[0].start, Time::ZERO);
        assert_eq!(slots[0].end, Time::of(4.0));
        assert_eq!(slots[1].start, Time::of(4.0));
        assert_eq!(slots[1].end, Time::of(7.0));
        // Round-trip to assignment.
        let back = s.to_assignment(&i).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn empty_machine_has_no_slots() {
        let i = inst();
        let a = Assignment::new(&i, vec![mid(0); 4]).unwrap();
        let r = Realization::exact(&i);
        let s = Schedule::sequence(&a.tasks_per_machine(), &r);
        assert!(s.slots(mid(1)).is_empty());
        assert_eq!(s.m(), 2);
    }
}

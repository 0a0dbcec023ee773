//! Differential property tests for the two slot readers of a validated
//! run: [`SimArena::per_machine_slots`], which builds each machine's list
//! at its exact length from the trace's columns, against a walk over the
//! decoded trace events; and [`validate_schedule`], which reads lists
//! already in `(start, end)` order as they are, against a validator that
//! always sorts them.

use proptest::prelude::*;
use rds_core::{
    Instance, MachineId, MachineMask, MachineSet, MachineSpeeds, Placement, Realization, Schedule,
    Slot, TaskId, Time,
};
use rds_sim::{
    validate_schedule, Checks, Engine, OrderedDispatcher, SimArena, Trace, TraceEvent, Violation,
};

/// The slots of a run derived by walking its decoded events: a `Start`
/// opens a slot on its machine, and the `Complete` of the same task
/// closes it wherever it was opened.
fn slots_by_trace_walk(trace: &Trace, n: usize, m: usize) -> Vec<Vec<Slot>> {
    let mut out: Vec<Vec<Slot>> = vec![Vec::new(); m];
    // `(machine, position)` of each task's open slot, for end fixup.
    let mut open: Vec<(usize, usize)> = vec![(usize::MAX, 0); n];
    for ev in trace.iter() {
        match ev {
            TraceEvent::Start {
                time,
                task,
                machine,
            } => {
                let mi = machine.index();
                open[task.index()] = (mi, out[mi].len());
                out[mi].push(Slot {
                    task,
                    start: time,
                    end: time,
                });
            }
            TraceEvent::Complete { time, task, .. } => {
                let (mi, si) = open[task.index()];
                out[mi][si].end = time;
            }
            _ => {}
        }
    }
    out
}

/// The validator with every machine's slots sorted by `(start, end)`
/// (stable, so equal slots keep their list order) before the overlap
/// scan, and the rest of its checks as `validate_schedule` runs them
/// with no envelope, budget or memory check.
fn always_sorting_validator(
    instance: &Instance,
    placement: &Placement,
    realization: &Realization,
    schedule: &Schedule,
    checks: &Checks,
) -> Vec<Violation> {
    let (n, m) = (instance.n(), instance.m());
    let mut out = Vec::new();
    let per_machine = schedule.all_slots();
    if per_machine.len() != m {
        out.push(Violation::MachineCountMismatch {
            expected: m,
            got: per_machine.len(),
        });
    }
    let mut completions = vec![0usize; n];
    for (mi, slots) in per_machine.iter().enumerate() {
        let mut order: Vec<usize> = (0..slots.len()).collect();
        order.sort_by(|&a, &b| {
            slots[a]
                .start
                .cmp(&slots[b].start)
                .then(slots[a].end.cmp(&slots[b].end))
        });
        for w in order.windows(2) {
            let (prev, next) = (&slots[w[0]], &slots[w[1]]);
            if next.start < prev.end {
                out.push(Violation::Overlap {
                    machine: mi,
                    first: prev.task.index(),
                    second: next.task.index(),
                    first_end: prev.end.get(),
                    second_start: next.start.get(),
                });
            }
        }
        for slot in slots {
            let j = slot.task.index();
            if j >= n {
                out.push(Violation::UnknownTask { task: j, n });
                continue;
            }
            completions[j] += 1;
            if mi < placement.m() && !placement.allows(slot.task, MachineId::new(mi)) {
                out.push(Violation::OffPlacement {
                    task: j,
                    machine: mi,
                });
            }
            if checks.durations {
                let got = slot.end.get() - slot.start.get();
                let want = realization.actual(slot.task).get();
                if (got - want).abs() > 1e-9 * want.max(slot.end.get()).max(1.0) {
                    out.push(Violation::DurationMismatch {
                        task: j,
                        machine: mi,
                        got,
                        want,
                    });
                }
            }
        }
    }
    for (j, &count) in completions.iter().enumerate() {
        if count > 1 {
            out.push(Violation::DuplicateTask { task: j });
        }
        if checks.completeness && count == 0 {
            out.push(Violation::MissingTask { task: j });
        }
    }
    out
}

/// A seeded placement of 1..=m replicas per task, mixing the span,
/// mask, single-machine and everywhere shapes.
fn placement(inst: &Instance, seed: u64) -> Placement {
    let m = inst.m();
    let mut s = seed | 1;
    let mut next = |k: usize| {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
        (s >> 33) as usize % k
    };
    let sets = (0..inst.n())
        .map(|_| match next(4) {
            0 => MachineSet::All,
            1 => MachineSet::One(MachineId::new(next(m))),
            2 => {
                let start = next(m);
                let end = start + 1 + next(m - start);
                MachineSet::Span {
                    start: start as u32,
                    end: end as u32,
                }
            }
            _ => {
                let mut mask = MachineMask::empty(m);
                for _ in 0..1 + next(m) {
                    mask.insert(MachineId::new(next(m)));
                }
                MachineSet::from_mask(m, mask)
            }
        })
        .collect();
    Placement::new(inst, sets).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The column-built slot lists equal the trace walk's, slot for
    /// slot, after plain and speed-stretched runs in a reused arena,
    /// and each list is allocated at its exact length.
    #[test]
    fn per_machine_slots_equal_the_trace_walk(
        est in prop::collection::vec(1u8..12, 1..60),
        m in 1usize..9,
        seed in any::<u64>(),
        speeds in prop::collection::vec(0.25f64..4.0, 8),
    ) {
        let est: Vec<f64> = est.into_iter().map(f64::from).collect();
        let inst = Instance::from_estimates(&est, m).unwrap();
        let p = placement(&inst, seed);
        let real = Realization::exact(&inst);
        let engine = Engine::new(&inst, &p, &real).unwrap();
        let speeds = MachineSpeeds::new(speeds[..m].to_vec()).unwrap();
        let mut arena = SimArena::new();
        for hetero in [false, true] {
            let mut d = OrderedDispatcher::lpt_by_estimate(&inst);
            if hetero {
                engine.run_hetero_in(&mut arena, &mut d, Some(&speeds), None).unwrap();
            } else {
                engine.run_in(&mut arena, &mut d).unwrap();
            }
            let slots = arena.per_machine_slots();
            prop_assert_eq!(&slots, &slots_by_trace_walk(arena.trace(), inst.n(), m));
            for list in &slots {
                prop_assert_eq!(list.capacity(), list.len());
            }
        }
    }

    /// On arbitrary slot lists (in order, shuffled, overlapping, with
    /// duplicate, unknown and misplaced tasks) the validator reports the
    /// violations the always-sorting one does, in the same order.
    #[test]
    fn validate_schedule_matches_an_always_sorting_validator(
        n in 1usize..10,
        m in 1usize..5,
        machines in 0usize..6,
        lists in prop::collection::vec(
            prop::collection::vec((0usize..12, 0u8..8, 0u8..4), 0..8),
            6,
        ),
        sort_first in prop::collection::vec(any::<bool>(), 6),
        seed in any::<u64>(),
        completeness in any::<bool>(),
        durations in any::<bool>(),
    ) {
        let est: Vec<f64> = (0..n).map(|j| 1.0 + (j % 3) as f64).collect();
        let inst = Instance::from_estimates(&est, m).unwrap();
        let p = placement(&inst, seed);
        let real = Realization::exact(&inst);
        let per_machine: Vec<Vec<Slot>> = lists[..machines]
            .iter()
            .zip(&sort_first)
            .map(|(list, &sort)| {
                let mut slots: Vec<Slot> = list
                    .iter()
                    .map(|&(task, start, len)| Slot {
                        task: TaskId::new(task),
                        start: Time::of(f64::from(start)),
                        end: Time::of(f64::from(start) + f64::from(len)),
                    })
                    .collect();
                if sort {
                    slots.sort_by(|a, b| a.start.cmp(&b.start).then(a.end.cmp(&b.end)));
                }
                slots
            })
            .collect();
        let schedule = Schedule::from_slots(per_machine);
        let checks = Checks {
            completeness,
            durations,
            ..Checks::structural()
        };
        prop_assert_eq!(
            validate_schedule(&inst, &p, &real, &schedule, &checks),
            always_sorting_validator(&inst, &p, &real, &schedule, &checks)
        );
    }
}

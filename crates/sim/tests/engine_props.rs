//! Property tests on the discrete-event engine: any placement shape plus
//! any priority order yields a valid, feasible, work-conserving schedule.

use proptest::prelude::*;
use rds_core::{
    Instance, MachineId, MachineMask, MachineSet, Placement, Realization, TaskId, Time, Uncertainty,
};
use rds_sim::{check_schedule, Checks, Engine, OrderedDispatcher, TraceEvent};

/// Builds a random placement where each task gets a nonempty subset.
fn placement_strategy(n: usize, m: usize) -> impl Strategy<Value = Vec<Vec<usize>>> {
    prop::collection::vec(
        prop::collection::btree_set(0..m, 1..=m).prop_map(|s| s.into_iter().collect()),
        n,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engine_always_produces_valid_feasible_schedules(
        est in prop::collection::vec(0.1f64..20.0, 1..25),
        m in 1usize..6,
        sets_seed in any::<u64>(),
        alpha in 1.0f64..2.5,
    ) {
        let n = est.len();
        let inst = Instance::from_estimates(&est, m).unwrap();
        let unc = Uncertainty::of(alpha);
        // Derive per-task subsets pseudo-randomly from the seed (always
        // nonempty: include machine j % m).
        let sets: Vec<MachineSet> = (0..n)
            .map(|j| {
                let mut mask = MachineMask::empty(m);
                mask.insert(MachineId::new(j % m));
                for i in 0..m {
                    if (sets_seed >> ((j * 7 + i) % 63)) & 1 == 1 {
                        mask.insert(MachineId::new(i));
                    }
                }
                MachineSet::from_mask(m, mask)
            })
            .collect();
        let placement = Placement::new(&inst, sets).unwrap();
        let factors: Vec<f64> = (0..n)
            .map(|j| if (sets_seed >> (j % 61)) & 1 == 1 { alpha } else { 1.0 / alpha })
            .collect();
        let real = Realization::from_factors(&inst, unc, &factors).unwrap();

        let engine = Engine::new(&inst, &placement, &real).unwrap();
        let result = engine.run(&mut OrderedDispatcher::fifo(&inst)).unwrap();

        // Valid (no overlap, every task once, right durations).
        check_schedule(&inst, &placement, &real, &result.schedule, &Checks::engine()).unwrap();
        // Feasible (every task on an allowed machine).
        let a = result.schedule.to_assignment(&inst).unwrap();
        a.check_feasible(&placement).unwrap();
        // Work conserving on the critical machine: the makespan machine
        // has no idle time in FIFO dispatch over everywhere-eligible...
        // (general placements can force idling, so only check the global
        // bound: makespan ≤ total work.)
        prop_assert!(result.makespan <= real.total() + Time::of(1e-9));
        prop_assert!(result.makespan >= real.max() * 0.999_999_999);
        // Trace accounting: exactly n starts and n completions.
        prop_assert_eq!(result.trace.starts(), n);
        let completes = result
            .trace
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Complete { .. }))
            .count();
        prop_assert_eq!(completes, n);
    }

    #[test]
    fn priority_order_is_respected_on_a_single_machine(
        est in prop::collection::vec(0.5f64..10.0, 2..12),
        perm_seed in any::<u64>(),
    ) {
        let n = est.len();
        let inst = Instance::from_estimates(&est, 1).unwrap();
        let real = Realization::exact(&inst);
        // A pseudo-random permutation as the priority order.
        let mut order: Vec<TaskId> = inst.task_ids().collect();
        let mut s = perm_seed;
        for i in (1..n).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            order.swap(i, (s >> 33) as usize % (i + 1));
        }
        let placement = Placement::everywhere(&inst);
        let engine = Engine::new(&inst, &placement, &real).unwrap();
        let result = engine
            .run(&mut OrderedDispatcher::new(order.clone()))
            .unwrap();
        let executed: Vec<TaskId> = result
            .schedule
            .slots(MachineId::new(0))
            .iter()
            .map(|s| s.task)
            .collect();
        prop_assert_eq!(executed, order);
    }

    #[test]
    fn random_placements_dont_change_total_work(
        est in prop::collection::vec(0.1f64..5.0, 1..15),
        subsets in (1usize..4).prop_flat_map(|m| {
            (Just(m), placement_strategy(15, m))
        }),
    ) {
        let (m, subsets) = subsets;
        let n = est.len();
        let inst = Instance::from_estimates(&est, m).unwrap();
        let sets: Vec<MachineSet> = (0..n)
            .map(|j| {
                let ids = &subsets[j % subsets.len()];
                MachineSet::from_mask(
                    m,
                    MachineMask::from_iter_with_capacity(
                        m,
                        ids.iter().map(|&i| MachineId::new(i)),
                    ),
                )
            })
            .collect();
        let placement = Placement::new(&inst, sets).unwrap();
        let real = Realization::exact(&inst);
        let engine = Engine::new(&inst, &placement, &real).unwrap();
        let result = engine.run(&mut OrderedDispatcher::fifo(&inst)).unwrap();
        // Total busy time across machines equals total work.
        let busy: f64 = result
            .schedule
            .all_slots()
            .iter()
            .flatten()
            .map(|s| (s.end - s.start).get())
            .sum();
        prop_assert!((busy - real.total().get()).abs() < 1e-6 * busy.max(1.0));
    }
}

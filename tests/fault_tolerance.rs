//! Integration: failure injection across the replication spectrum.

use proptest::prelude::*;
use rds_algs::Strategy as _;
use replicated_placement::prelude::*;
use replicated_placement::sim::faults::{
    FaultEvent, FaultScript, Outcome, ResilienceEngine, ResilienceReport,
};
use replicated_placement::sim::{
    check_schedule, Checks, Dispatcher, OrderedDispatcher, PinnedDispatcher,
};
use replicated_placement::workloads::{realize::RealizationModel, rng, EstimateDistribution};

/// A permanent crash of `machine` at `at`.
fn failure(machine: usize, at: f64) -> FaultEvent {
    FaultEvent::Crash {
        machine: MachineId::new(machine),
        at: Time::of(at),
    }
}

/// Runs the resilience engine under a crash-only script. A stranded
/// task surfaces as an [`Outcome::Partial`] report, not an error.
fn run_with_crashes(
    instance: &Instance,
    placement: &Placement,
    realization: &Realization,
    dispatcher: &mut dyn Dispatcher,
    crashes: &[FaultEvent],
) -> ResilienceReport {
    let script = FaultScript::new(crashes.to_vec());
    ResilienceEngine::new(instance, placement, realization, &script)
        .and_then(|engine| engine.run(dispatcher))
        .unwrap()
}

#[test]
fn everywhere_placement_survives_any_single_failure() {
    let mut r = rng::rng(1);
    let est = EstimateDistribution::Uniform { lo: 1.0, hi: 8.0 }.sample_n(30, &mut r);
    let inst = Instance::from_estimates(&est, 5).unwrap();
    let unc = Uncertainty::of(1.5);
    let real = RealizationModel::UniformFactor
        .realize(&inst, unc, &mut r)
        .unwrap();
    let placement = Placement::everywhere(&inst);
    for target in 0..5usize {
        for &at in &[0.0, 5.0, 20.0] {
            let res = run_with_crashes(
                &inst,
                &placement,
                &real,
                &mut OrderedDispatcher::lpt_by_estimate(&inst),
                &[failure(target, at)],
            );
            assert_eq!(res.outcome, Outcome::Completed, "machine {target} at {at}");
            // Every task once, with its actual duration: lost attempts
            // are not slots.
            check_schedule(&inst, &placement, &real, &res.schedule, &Checks::engine()).unwrap();
            // The dead machine contributes nothing after `at`.
            for slot in res.schedule.slots(MachineId::new(target)) {
                assert!(slot.start.get() < at || at == 0.0);
            }
        }
    }
}

#[test]
fn pinned_placement_strands_exactly_the_failed_machines_tasks() {
    let inst = Instance::from_estimates(&[5.0, 4.0, 3.0, 2.0, 2.0, 2.0], 3).unwrap();
    let unc = Uncertainty::CERTAIN;
    let placement = LptNoChoice.place(&inst, unc).unwrap();
    let assignment = LptNoChoice
        .execute(&inst, &placement, &Realization::exact(&inst))
        .unwrap();
    let real = Realization::exact(&inst);
    // Failing a machine early strands its pinned tasks.
    for target in 0..3usize {
        let mut d = PinnedDispatcher::new(assignment.machines(), 3);
        let res = run_with_crashes(&inst, &placement, &real, &mut d, &[failure(target, 0.5)]);
        assert!(
            matches!(res.outcome, Outcome::Partial { .. }),
            "machine {target} had pinned work"
        );
    }
}

#[test]
fn restarts_extend_but_bound_the_makespan() {
    // With replication, a failure at time t wastes at most t + restarts
    // from scratch: makespan ≤ failure-free + failure time + task length.
    let inst = Instance::from_estimates(&[6.0, 3.0, 3.0], 2).unwrap();
    let real = Realization::exact(&inst);
    let placement = Placement::everywhere(&inst);
    let base = run_with_crashes(
        &inst,
        &placement,
        &real,
        &mut OrderedDispatcher::lpt_by_estimate(&inst),
        &[],
    );
    let hit = run_with_crashes(
        &inst,
        &placement,
        &real,
        &mut OrderedDispatcher::lpt_by_estimate(&inst),
        &[failure(0, 4.0)],
    );
    assert_eq!(base.outcome, Outcome::Completed);
    assert_eq!(hit.outcome, Outcome::Completed);
    assert!(hit.metrics.makespan >= base.metrics.makespan);
    // Lost 4 units of the big task, restarted at t=4 on the survivor.
    assert!(hit.metrics.makespan <= base.metrics.makespan + Time::of(6.0) + Time::of(4.0));
    assert_eq!(hit.metrics.restarts, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn grouped_placements_survive_iff_a_holder_lives(
        est in prop::collection::vec(0.5f64..8.0, 4..20),
        seed in any::<u64>(),
    ) {
        let m = 4usize;
        let inst = Instance::from_estimates(&est, m).unwrap();
        let unc = Uncertainty::of(1.5);
        let mut r = rng::rng(seed);
        let real = RealizationModel::UniformFactor.realize(&inst, unc, &mut r).unwrap();
        let strategy = LsGroup::new(2); // groups {0,1}, {2,3}
        let placement = strategy.place(&inst, unc).unwrap();

        // One failure: every group keeps a living member → must survive.
        let one = run_with_crashes(
            &inst,
            &placement,
            &real,
            &mut OrderedDispatcher::fifo(&inst),
            &[failure((seed % 4) as usize, 0.1)],
        );
        prop_assert_eq!(one.outcome, Outcome::Completed);

        // Killing a whole group at time 0 strands its tasks — unless the
        // group happened to hold no tasks.
        let group0_has_tasks = inst
            .task_ids()
            .any(|t| placement.allows(t, MachineId::new(0)));
        let both = run_with_crashes(
            &inst,
            &placement,
            &real,
            &mut OrderedDispatcher::fifo(&inst),
            &[failure(0, 0.0), failure(1, 0.0)],
        );
        prop_assert_eq!(matches!(both.outcome, Outcome::Partial { .. }), group0_has_tasks);
    }

    #[test]
    fn survivors_complete_exactly_n_tasks(
        est in prop::collection::vec(0.5f64..5.0, 2..15),
        fail_machine in 0usize..3,
        fail_at in 0.0f64..10.0,
    ) {
        let m = 3usize;
        let inst = Instance::from_estimates(&est, m).unwrap();
        let real = Realization::exact(&inst);
        let placement = Placement::everywhere(&inst);
        let res = run_with_crashes(
            &inst,
            &placement,
            &real,
            &mut OrderedDispatcher::fifo(&inst),
            &[failure(fail_machine, fail_at)],
        );
        prop_assert_eq!(&res.outcome, &Outcome::Completed);
        let completed: usize = res.schedule.all_slots().iter().map(|s| s.len()).sum();
        prop_assert_eq!(completed, inst.n());
        check_schedule(&inst, &placement, &real, &res.schedule, &Checks::engine()).unwrap();
    }
}

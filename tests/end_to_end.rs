//! Integration: the closed-form greedy implementations and the
//! discrete-event engine produce identical executions, and every named
//! scenario runs end to end through both paths.

use replicated_placement::prelude::*;
use replicated_placement::sim::{check_schedule, executors, Checks};
use replicated_placement::workloads::{realize::RealizationModel, rng, scenarios};

/// The engine and the closed form must agree task-by-task, not just on
/// the makespan: both use the same (load, machine-id) tie-breaking.
fn assert_same_assignment(a: &Assignment, sched: &rds_core::Schedule, inst: &Instance) {
    let b = sched.to_assignment(inst).unwrap();
    assert_eq!(a, &b, "closed form and event engine disagree");
}

/// Makespans are compared with a relative tolerance: the closed form sums
/// each machine's load in task-id order while the engine accumulates in
/// execution order, so the two (identical) schedules can differ by a few
/// ULPs of floating-point non-associativity.
fn assert_close(a: Time, b: Time, context: &str) {
    assert!(a.approx_eq(b, 1e-9), "{context}: {a} vs {b}");
}

#[test]
fn no_restriction_engine_equivalence() {
    for seed in 0..10u64 {
        let mut r = rng::rng(seed);
        let est =
            replicated_placement::workloads::EstimateDistribution::Uniform { lo: 1.0, hi: 10.0 }
                .sample_n(40, &mut r);
        let inst = Instance::from_estimates(&est, 5).unwrap();
        let unc = Uncertainty::of(2.0);
        let real = RealizationModel::LogUniformFactor
            .realize(&inst, unc, &mut r)
            .unwrap();

        let closed = LptNoRestriction.run(&inst, unc, &real).unwrap();
        let sim = executors::simulate_no_restriction(&inst, &real).unwrap();
        assert_close(closed.makespan, sim.makespan, &format!("seed {seed}"));
        assert_same_assignment(&closed.assignment, &sim.schedule, &inst);
        let everywhere = Placement::everywhere(&inst);
        check_schedule(&inst, &everywhere, &real, &sim.schedule, &Checks::engine()).unwrap();
    }
}

#[test]
fn ls_group_engine_equivalence() {
    for seed in 0..10u64 {
        let mut r = rng::rng(100 + seed);
        let est =
            replicated_placement::workloads::EstimateDistribution::Uniform { lo: 1.0, hi: 10.0 }
                .sample_n(30, &mut r);
        let inst = Instance::from_estimates(&est, 6).unwrap();
        let unc = Uncertainty::of(1.7);
        let real = RealizationModel::TwoPoint { p_inflate: 0.4 }
            .realize(&inst, unc, &mut r)
            .unwrap();
        for k in [1usize, 2, 3, 6] {
            let strat = LsGroup::new(k);
            let placement = strat.place(&inst, unc).unwrap();
            let closed = strat.execute(&inst, &placement, &real).unwrap();
            let sim = executors::simulate_grouped(&inst, &placement, &real).unwrap();
            assert_close(
                closed.makespan(&real),
                sim.makespan,
                &format!("seed {seed} k {k}"),
            );
            assert_same_assignment(&closed, &sim.schedule, &inst);
        }
    }
}

#[test]
fn pinned_engine_equivalence() {
    for seed in 0..10u64 {
        let mut r = rng::rng(200 + seed);
        let est = replicated_placement::workloads::EstimateDistribution::Exponential { mean: 5.0 }
            .sample_n(25, &mut r);
        let inst = Instance::from_estimates(&est, 4).unwrap();
        let unc = Uncertainty::of(1.5);
        let real = RealizationModel::UniformFactor
            .realize(&inst, unc, &mut r)
            .unwrap();
        let placement = LptNoChoice.place(&inst, unc).unwrap();
        let closed = LptNoChoice.execute(&inst, &placement, &real).unwrap();
        let sim = executors::simulate_pinned(&inst, closed.machines(), &real).unwrap();
        assert_close(
            closed.makespan(&real),
            sim.makespan,
            &format!("seed {seed}"),
        );
        assert_same_assignment(&closed, &sim.schedule, &inst);
    }
}

#[test]
fn scenarios_run_under_every_strategy() {
    let scenarios = [
        scenarios::out_of_core_spmv(40, 8, 1).unwrap(),
        scenarios::mapreduce(60, 12, 2).unwrap(),
        scenarios::iterative_solver(30, 6, 3).unwrap(),
    ];
    for s in &scenarios {
        let mut r = rng::rng(9);
        let real = RealizationModel::UniformFactor
            .realize(&s.instance, s.uncertainty, &mut r)
            .unwrap();
        let strategies: Vec<Box<dyn Strategy>> = vec![
            Box::new(LptNoChoice),
            Box::new(LptNoRestriction),
            Box::new(LsGroup::new_relaxed(2)),
            Box::new(LsGroup::new_relaxed(s.instance.m())),
        ];
        for strat in &strategies {
            let out = strat
                .run(&s.instance, s.uncertainty, &real)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", strat.name(), s.name));
            assert!(out.makespan.get() > 0.0);
            out.assignment.check_feasible(&out.placement).unwrap();
            // Makespan is at least the average-load lower bound.
            let lb = real.total() / s.instance.m() as f64;
            assert!(out.makespan >= lb * 0.999_999);
        }
    }
}

#[test]
fn memory_strategies_run_on_scenarios() {
    let s = scenarios::out_of_core_spmv(40, 6, 11).unwrap();
    let mut r = rng::rng(13);
    let real = RealizationModel::LogUniformFactor
        .realize(&s.instance, s.uncertainty, &mut r)
        .unwrap();
    for delta in [0.3, 1.0, 3.0] {
        let sabo = Sabo::new(delta)
            .run(&s.instance, s.uncertainty, &real)
            .unwrap();
        let abo = Abo::new(delta)
            .run(&s.instance, s.uncertainty, &real)
            .unwrap();
        // Structural invariants.
        assert_eq!(sabo.placement.max_replicas(), 1);
        assert!(abo.placement.max_replicas() <= s.instance.m());
        assert!(sabo.mem_max <= abo.mem_max, "SABO is the memory-lean one");
        // Memory accounting matches the placement.
        assert_eq!(
            abo.mem_max,
            rds_core::memory::mem_max(&s.instance, &abo.placement)
        );
    }
}

#[test]
fn abo_equals_staged_dispatcher_simulation() {
    // ABO's phase 2 (pinned S2, then online LS over replicated S1 in
    // estimate order) must match the StagedDispatcher in the engine.
    use rds_algs::memory::pi::PiSchedules;
    use rds_algs::memory::sbo::TaskClass;

    for seed in 0..6u64 {
        let mut r = rng::rng(300 + seed);
        let pairs: Vec<(f64, f64)> = (0..20)
            .map(|_| {
                use rand::Rng;
                (r.gen_range(1.0..9.0), r.gen_range(0.5..6.0))
            })
            .collect();
        let inst = Instance::from_estimates_and_sizes(&pairs, 4).unwrap();
        let unc = Uncertainty::of(1.6);
        let real = RealizationModel::UniformFactor
            .realize(&inst, unc, &mut r)
            .unwrap();

        let abo = Abo::new(1.0);
        let pis = PiSchedules::lpt_defaults(&inst).unwrap();
        let (placement, classes) = abo.place_with(&inst, &pis).unwrap();
        let closed = abo.execute_with(&inst, &pis, &classes, &real).unwrap();

        // Engine path: staged dispatcher with the same stage-1 pinning
        // and stage-2 order.
        let pinned_of: Vec<Option<MachineId>> = (0..inst.n())
            .map(|j| match classes[j] {
                TaskClass::MemoryIntensive => Some(pis.pi2.machine_of(TaskId::new(j))),
                TaskClass::TimeIntensive => None,
            })
            .collect();
        let order: Vec<TaskId> = inst
            .ids_by_estimate_desc()
            .into_iter()
            .filter(|t| classes[t.index()] == TaskClass::TimeIntensive)
            .collect();
        let mut dispatcher = rds_sim::StagedDispatcher::new(&pinned_of, inst.m(), order);
        let engine = rds_sim::Engine::new(&inst, &placement, &real).unwrap();
        let sim = engine.run(&mut dispatcher).unwrap();
        assert_close(
            closed.makespan(&real),
            sim.makespan,
            &format!("seed {seed}"),
        );
    }
}

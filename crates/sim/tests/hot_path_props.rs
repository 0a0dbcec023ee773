//! Differential property tests on the engine hot path: the indexed
//! dispatch path driven through a dirty, reused arena must be
//! schedule-identical to the naive scan path on a fresh engine — with
//! instrumentation on or off — and a reused arena must never leak state
//! from a previous run into the next.

use proptest::prelude::*;
use rds_core::{
    Instance, MachineId, MachineMask, MachineSet, Placement, Realization, TaskId, Uncertainty,
};
use rds_sim::{
    Engine, FaultEvent, FaultScript, OrderedDispatcher, PinnedDispatcher, QueueMode,
    ResilienceEngine, SimArena,
};

/// A pseudo-random k-replica placement: every task gets machine
/// `j % m` plus `k − 1` further machines drawn from the seed.
fn k_replica_placement(inst: &Instance, m: usize, k: usize, seed: u64) -> Placement {
    let sets: Vec<MachineSet> = (0..inst.n())
        .map(|j| {
            let mut mask = MachineMask::empty(m);
            mask.insert(MachineId::new(j % m));
            let mut s = seed
                .wrapping_add(j as u64)
                .wrapping_mul(6364136223846793005);
            while mask.count() < k {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                mask.insert(MachineId::new((s >> 33) as usize % m));
            }
            MachineSet::from_mask(m, mask)
        })
        .collect();
    Placement::new(inst, sets).unwrap()
}

/// A pseudo-random priority order (Fisher–Yates from a seed).
fn shuffled_order(n: usize, seed: u64) -> Vec<TaskId> {
    let mut order: Vec<TaskId> = (0..n).map(TaskId::new).collect();
    let mut s = seed | 1;
    for i in (1..n).rev() {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
        order.swap(i, (s >> 33) as usize % (i + 1));
    }
    order
}

/// Runs a throwaway simulation into `arena` so its buffers carry stale
/// state (different shape, different contents) before the run under test.
fn dirty(arena: &mut SimArena) {
    let inst = Instance::from_estimates(&[5.0, 1.0, 3.0], 2).unwrap();
    let placement = Placement::everywhere(&inst);
    let real = Realization::exact(&inst);
    let engine = Engine::new(&inst, &placement, &real).unwrap();
    engine
        .run_in(arena, &mut OrderedDispatcher::fifo(&inst))
        .unwrap();
}

/// Pins each task to one machine of its replica set (seed-chosen), so
/// the pinned dispatcher is always feasible for the placement.
fn pins_from(placement: &Placement, seed: u64) -> Vec<MachineId> {
    let m = placement.m();
    (0..placement.n())
        .map(|j| {
            let set = placement.set(TaskId::new(j));
            let count = set.count(m);
            let pick = (seed.wrapping_add(j as u64) >> 7) as usize % count;
            set.iter(m).nth(pick).unwrap()
        })
        .collect()
}

/// Estimate vectors that stress the calendar queue: all-equal times
/// (every event lands in one bucket), a huge dynamic range (forces the
/// overflow heap and may trip the degeneracy fallback), and ordinary
/// well-mixed durations.
fn pathological_estimates() -> impl Strategy<Value = Vec<f64>> {
    (
        0u8..3,
        prop::collection::vec((-6i32..=6i32, 1.0f64..9.9), 1..40),
    )
        .prop_map(|(variant, raw)| match variant {
            0 => vec![1.0; raw.len()],
            1 => raw.into_iter().map(|(e, f)| f * 10f64.powi(e)).collect(),
            _ => raw.into_iter().map(|(_, f)| f * 2.0).collect(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole equivalence: for random instances, random k-replica
    /// placements, and random priority orders, the indexed dispatcher on
    /// a dirty reused arena produces bit-identical results (makespan,
    /// slots, trace) to the scan dispatcher on the fresh-allocation path
    /// — whether or not instrumentation is enabled.
    #[test]
    fn indexed_dispatch_matches_scan(
        est in prop::collection::vec(0.1f64..20.0, 1..30),
        m in 1usize..6,
        seed in any::<u64>(),
        alpha in 1.0f64..2.5,
        obs_on in any::<bool>(),
    ) {
        let n = est.len();
        let inst = Instance::from_estimates(&est, m).unwrap();
        let k = 1 + (seed as usize) % m;
        let placement = k_replica_placement(&inst, m, k, seed);
        let unc = Uncertainty::of(alpha);
        let factors: Vec<f64> = (0..n)
            .map(|j| if (seed >> (j % 61)) & 1 == 1 { alpha } else { 1.0 / alpha })
            .collect();
        let real = Realization::from_factors(&inst, unc, &factors).unwrap();
        let order = shuffled_order(n, seed);
        let engine = Engine::new(&inst, &placement, &real).unwrap();

        rds_obs::set_enabled(obs_on);
        // Reference: scan dispatcher, fresh allocations per run.
        let scan = engine.run(&mut OrderedDispatcher::new(order.clone()));
        // Under test: indexed dispatcher through a dirty, reused arena.
        let mut arena = SimArena::new();
        dirty(&mut arena);
        let mut indexed = OrderedDispatcher::indexed(order, &placement);
        let got = engine.run_in(&mut arena, &mut indexed);
        rds_obs::set_enabled(false);

        let scan = scan.unwrap();
        let makespan = got.unwrap();
        prop_assert_eq!(makespan.get().to_bits(), scan.makespan.get().to_bits());
        prop_assert_eq!(&arena.per_machine_slots()[..], scan.schedule.all_slots());
        prop_assert_eq!(arena.trace().events(), scan.trace.events());
        prop_assert_eq!(arena.makespan(), scan.makespan);
        // And the cloning escape hatch reproduces the owned result.
        let owned = arena.to_sim_result();
        prop_assert_eq!(owned.schedule.all_slots(), scan.schedule.all_slots());
        prop_assert_eq!(owned.makespan, scan.makespan);
    }

    /// Arena reuse is invisible: running the same simulation through a
    /// dirty arena, a second time through the *same* arena, and through
    /// the legacy `Engine::run` path all agree event for event.
    #[test]
    fn arena_reuse_never_leaks_state(
        est in prop::collection::vec(0.5f64..10.0, 1..20),
        m in 1usize..5,
        seed in any::<u64>(),
    ) {
        let inst = Instance::from_estimates(&est, m).unwrap();
        let k = 1 + (seed as usize) % m;
        let placement = k_replica_placement(&inst, m, k, seed);
        let real = Realization::exact(&inst);
        let order = shuffled_order(inst.n(), seed);
        let engine = Engine::new(&inst, &placement, &real).unwrap();

        let reference = engine
            .run(&mut OrderedDispatcher::new(order.clone()))
            .unwrap();

        let mut arena = SimArena::new();
        dirty(&mut arena);
        let mut d = OrderedDispatcher::auto(order, &placement);
        for _rerun in 0..2 {
            d.reset();
            let makespan = engine.run_in(&mut arena, &mut d).unwrap();
            prop_assert_eq!(makespan, reference.makespan);
            prop_assert_eq!(&arena.per_machine_slots()[..], reference.schedule.all_slots());
            prop_assert_eq!(arena.trace().events(), reference.trace.events());
        }
    }

    /// The bucketed calendar queue is an implementation detail: forcing
    /// it must produce byte-identical results to the forced binary heap
    /// for both dispatcher families, through dirty reused arenas, under
    /// pathological time distributions (all-equal timestamps collapse
    /// every event into one bucket; a 12-orders-of-magnitude spread
    /// drives the overflow heap and the degeneracy fallback).
    #[test]
    fn bucketed_queue_is_trace_identical_to_heap(
        est in pathological_estimates(),
        m in 1usize..6,
        seed in any::<u64>(),
        alpha in 1.0f64..2.0,
        pinned in any::<bool>(),
    ) {
        let n = est.len();
        let inst = Instance::from_estimates(&est, m).unwrap();
        let k = 1 + (seed as usize) % m;
        let placement = k_replica_placement(&inst, m, k, seed);
        let unc = Uncertainty::of(alpha);
        let factors: Vec<f64> = (0..n)
            .map(|j| if (seed >> (j % 61)) & 1 == 1 { alpha } else { 1.0 / alpha })
            .collect();
        let real = Realization::from_factors(&inst, unc, &factors).unwrap();
        let order = shuffled_order(n, seed);
        let engine = Engine::new(&inst, &placement, &real).unwrap();
        let pins = pins_from(&placement, seed);

        let run_with = |mode: QueueMode| {
            let mut arena = SimArena::new();
            dirty(&mut arena);
            arena.set_queue_mode(mode);
            let makespan = if pinned {
                let mut d = PinnedDispatcher::new(&pins, m);
                engine.run_in(&mut arena, &mut d)
            } else {
                let mut d = OrderedDispatcher::new(order.clone());
                engine.run_in(&mut arena, &mut d)
            };
            (makespan.unwrap(), arena)
        };

        let (heap_ms, heap_arena) = run_with(QueueMode::Heap);
        let (bucket_ms, bucket_arena) = run_with(QueueMode::Bucketed);
        prop_assert_eq!(heap_ms.get().to_bits(), bucket_ms.get().to_bits());
        prop_assert_eq!(heap_arena.trace().events(), bucket_arena.trace().events());
        prop_assert_eq!(
            &heap_arena.per_machine_slots()[..],
            &bucket_arena.per_machine_slots()[..]
        );
    }

    /// The resilience engine's scratch-reusing path (`run_in`, twice on
    /// one arena whose scratch already carries a different-shaped trial)
    /// reproduces the fresh-allocation `run` exactly: outcome, slots,
    /// trace, and metrics.
    #[test]
    fn faults_run_in_matches_run_across_scratch_reuse(
        est in prop::collection::vec(0.5f64..10.0, 2..20),
        m in 2usize..5,
        seed in any::<u64>(),
        crash_at in 0.5f64..8.0,
        factor in 1.5f64..4.0,
    ) {
        let n = est.len();
        let inst = Instance::from_estimates(&est, m).unwrap();
        let placement = k_replica_placement(&inst, m, 1 + (seed as usize) % m, seed);
        let real = Realization::exact(&inst);
        let script = FaultScript::new(vec![
            FaultEvent::Crash { machine: MachineId::new(0), at: rds_core::Time::of(crash_at) },
            FaultEvent::Outage {
                machine: MachineId::new(m - 1),
                at: rds_core::Time::of(crash_at / 2.0),
                down_for: rds_core::Time::of(1.0),
            },
            FaultEvent::Straggler { task: TaskId::new(n - 1), factor },
        ]);
        let engine = ResilienceEngine::new(&inst, &placement, &real, &script).unwrap();
        let order = shuffled_order(n, seed);

        let reference = engine
            .run(&mut OrderedDispatcher::new(order.clone()))
            .unwrap();

        let mut arena = SimArena::new();
        // Seed the scratch with a different-shaped trial first.
        {
            let small = Instance::from_estimates(&[2.0, 1.0], 2).unwrap();
            let p = Placement::everywhere(&small);
            let r = Realization::exact(&small);
            let s = FaultScript::new(vec![]);
            ResilienceEngine::new(&small, &p, &r, &s)
                .unwrap()
                .run_in(&mut arena, &mut OrderedDispatcher::fifo(&small))
                .unwrap();
        }
        for _rerun in 0..2 {
            let got = engine
                .run_in(&mut arena, &mut OrderedDispatcher::new(order.clone()))
                .unwrap();
            prop_assert_eq!(&got.outcome, &reference.outcome);
            prop_assert_eq!(got.schedule.all_slots(), reference.schedule.all_slots());
            prop_assert_eq!(got.trace.events(), reference.trace.events());
            prop_assert_eq!(got.metrics, reference.metrics);
        }
    }
}

/// The acceptance sweep for the million-task engine refactor: 500
/// seeded cases spanning every placement shape (span groups — the CSR
/// fast path —, k-replica masks, everywhere, single-machine pins),
/// each executed twice: a reference run (binary heap, plain scan
/// dispatcher, fresh allocations) and the optimized run (calendar
/// queue, indexed slotted dispatcher, one arena reused across all 500
/// cases). Makespan bits, trace, and derived slots must all agree.
#[test]
fn conformance_sweep_500_cases_schedule_identical() {
    let mut arena = SimArena::new();
    arena.set_queue_mode(QueueMode::Bucketed);
    dirty(&mut arena);
    let mut s: u64 = 0x95EEDCA5E;
    let mut rand = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        s >> 33
    };
    for case in 0..500u64 {
        let seed = rand();
        let n = 1 + (rand() as usize) % 120;
        let m = 1 + (rand() as usize) % 12;
        let est: Vec<f64> = (0..n)
            .map(|_| 0.5 + (rand() % 1000) as f64 / 50.0)
            .collect();
        let inst = Instance::from_estimates(&est, m).unwrap();
        let placement = match case % 4 {
            // Span groups of 2 machines — the layout the paper's
            // strategies emit and the CSR dispatch path serves.
            0 => {
                let groups = m.div_ceil(2);
                let sets: Vec<MachineSet> = (0..n)
                    .map(|j| {
                        let g = (j % groups) as u32;
                        MachineSet::Span {
                            start: g * 2,
                            end: ((g + 1) * 2).min(m as u32),
                        }
                    })
                    .collect();
                Placement::new(&inst, sets).unwrap()
            }
            1 => k_replica_placement(&inst, m, 1 + (seed as usize) % m, seed),
            2 => Placement::everywhere(&inst),
            _ => {
                let pins: Vec<MachineId> = (0..n)
                    .map(|_| MachineId::new(rand() as usize % m))
                    .collect();
                Placement::pinned(&inst, &pins).unwrap()
            }
        };
        let alpha = 1.0 + (rand() % 150) as f64 / 100.0;
        let unc = Uncertainty::of(alpha);
        let factors: Vec<f64> = (0..n)
            .map(|_| if rand() & 1 == 1 { alpha } else { 1.0 })
            .collect();
        let real = Realization::from_factors(&inst, unc, &factors).unwrap();
        let order = shuffled_order(n, seed);
        let engine = Engine::new(&inst, &placement, &real).unwrap();

        let reference = engine
            .run(&mut OrderedDispatcher::new(order.clone()))
            .unwrap();
        let mut d = OrderedDispatcher::auto(order, &placement);
        let makespan = engine.run_in(&mut arena, &mut d).unwrap();

        assert_eq!(
            makespan.get().to_bits(),
            reference.makespan.get().to_bits(),
            "case {case}: makespan diverged (n={n}, m={m})"
        );
        assert_eq!(
            arena.trace().events(),
            reference.trace.events(),
            "case {case}: trace diverged (n={n}, m={m})"
        );
        assert_eq!(
            &arena.per_machine_slots()[..],
            reference.schedule.all_slots(),
            "case {case}: slots diverged (n={n}, m={m})"
        );
    }
}

//! The two equivalences the fault engine's fast path rests on.
//!
//! - **The queue backend is invisible to fault runs.** On the calendar
//!   queue the fault arm drops an idle or check event that a new one
//!   supersedes; on the heap it lets the old one pop as a no-op. Under
//!   crashes, outages, overlapping slowdowns, stragglers and
//!   speculation, both backends must give the same report: outcome,
//!   slots, trace and metrics.
//! - **An empty script runs like the plain loop.** `run_trial` takes a
//!   trial's fault-free baseline from `Engine::run_in`, so an
//!   empty-script `ResilienceEngine` must give the same makespan bits and
//!   slots under every dispatcher flavor, with speculation off or on
//!   (`β ≥ 1` over a realization inside the envelope, so no check ever
//!   finds its attempt running). Traces differ: the fault arm offers
//!   work to machines that idle after every task has started and traces
//!   each refusal as `Starved`.

use proptest::prelude::*;
use rds_core::{
    Instance, MachineId, MachineMask, MachineSet, Placement, Realization, TaskId, Time, Uncertainty,
};
use rds_sim::faults::{FaultEvent, FaultScript, ResilienceEngine, ResilienceReport, Speculation};
use rds_sim::{Dispatcher, Engine, OrderedDispatcher, PinnedDispatcher, QueueMode, SimArena};

/// Deterministic stream drawn from one proptest seed.
struct Draw(u64);

impl Draw {
    fn below(&mut self, k: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % k as u64) as usize
    }
}

/// Span groups of about half the machines, or masks of one to `m / 2`
/// random machines, or everywhere.
fn placement(inst: &Instance, d: &mut Draw) -> Placement {
    let m = inst.m();
    let size = (m / 2).max(1);
    let shape = d.below(3);
    let sets = (0..inst.n())
        .map(|_| match shape {
            0 => {
                let g = d.below(m.div_ceil(size));
                MachineSet::Span {
                    start: (g * size) as u32,
                    end: ((g + 1) * size).min(m) as u32,
                }
            }
            1 => {
                let mut mask = MachineMask::empty(m);
                for _ in 0..1 + d.below(size) {
                    mask.insert(MachineId::new(d.below(m)));
                }
                MachineSet::from_mask(m, mask)
            }
            _ => MachineSet::All,
        })
        .collect();
    Placement::new(inst, sets).unwrap()
}

/// A script over every fault kind, timed inside `horizon`, where each
/// slowdown has a second one on the same machine overlapping it, so a
/// machine has two speed restores queued at once.
fn script(n: usize, m: usize, horizon: f64, d: &mut Draw) -> FaultScript {
    let mut events = Vec::new();
    for _ in 0..1 + d.below(6) {
        let machine = MachineId::new(d.below(m));
        let at = Time::of(horizon * d.below(64) as f64 / 64.0);
        match d.below(4) {
            0 => events.push(FaultEvent::Crash { machine, at }),
            1 => events.push(FaultEvent::Outage {
                machine,
                at,
                down_for: Time::of(horizon * d.below(16) as f64 / 32.0),
            }),
            2 => {
                for _ in 0..2 {
                    events.push(FaultEvent::Slowdown {
                        machine,
                        at: at + Time::of(d.below(4) as f64),
                        lasting: Time::of(1.0 + d.below(12) as f64),
                        speed: [0.2, 0.5, 1.5][d.below(3)],
                    });
                }
            }
            _ => events.push(FaultEvent::Straggler {
                task: TaskId::new(d.below(n)),
                factor: [0.5, 2.0, 4.0][d.below(3)],
            }),
        }
    }
    FaultScript::new(events)
}

/// A random priority order.
fn order(n: usize, d: &mut Draw) -> Vec<TaskId> {
    let mut order: Vec<TaskId> = (0..n).map(TaskId::new).collect();
    for i in (1..n).rev() {
        order.swap(i, d.below(i + 1));
    }
    order
}

/// Each task pinned to one machine of its replica set.
fn pins(placement: &Placement, d: &mut Draw) -> Vec<MachineId> {
    let m = placement.m();
    (0..placement.n())
        .map(|j| {
            let set = placement.set(TaskId::new(j));
            set.iter(m).nth(d.below(set.count(m))).unwrap()
        })
        .collect()
}

/// The three dispatcher flavors the campaigns use, by `flavor`.
fn dispatcher(
    flavor: usize,
    order: &[TaskId],
    placement: &Placement,
    pins: &[MachineId],
) -> Box<dyn Dispatcher> {
    match flavor {
        0 => Box::new(OrderedDispatcher::new(order.to_vec())),
        1 => Box::new(OrderedDispatcher::auto(order.to_vec(), placement)),
        _ => Box::new(PinnedDispatcher::new(pins, placement.m())),
    }
}

fn run_on(
    engine: &ResilienceEngine<'_>,
    mode: QueueMode,
    mut d: Box<dyn Dispatcher>,
) -> ResilienceReport {
    let mut arena = SimArena::new();
    arena.set_queue_mode(mode);
    engine.run_in(&mut arena, d.as_mut()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fault_runs_are_identical_on_the_heap_and_the_calendar(
        est in prop::collection::vec(0.5f64..8.0, 4..60),
        m in 2usize..7,
        seed in any::<u64>(),
        flavor in 0usize..3,
        spec in 0usize..3,
    ) {
        let n = est.len();
        let mut d = Draw(seed);
        let inst = Instance::from_estimates(&est, m).unwrap();
        let unc = Uncertainty::of(2.0);
        let factors: Vec<f64> = (0..n).map(|_| [0.5, 1.0, 2.0][d.below(3)]).collect();
        let real = Realization::from_factors(&inst, unc, &factors).unwrap();
        let p = placement(&inst, &mut d);
        let horizon = inst.total_estimate().get() / m as f64 * 2.0;
        let faults = script(n, m, horizon, &mut d);
        let order = order(n, &mut d);
        let pins = pins(&p, &mut d);

        let mut engine = ResilienceEngine::new(&inst, &p, &real, &faults).unwrap();
        if let Some(beta) = [None, Some(1.0), Some(1.5)][spec] {
            engine = engine.with_speculation(Speculation::new(beta, unc));
        }
        let heap = run_on(&engine, QueueMode::Heap, dispatcher(flavor, &order, &p, &pins));
        let calendar = run_on(&engine, QueueMode::Bucketed, dispatcher(flavor, &order, &p, &pins));

        prop_assert_eq!(&calendar.outcome, &heap.outcome);
        prop_assert_eq!(calendar.schedule.all_slots(), heap.schedule.all_slots());
        prop_assert_eq!(calendar.trace.events(), heap.trace.events());
        prop_assert_eq!(calendar.metrics, heap.metrics);
    }

    #[test]
    fn an_empty_script_runs_like_the_plain_loop(
        est in prop::collection::vec(0.5f64..8.0, 1..60),
        m in 1usize..7,
        seed in any::<u64>(),
        flavor in 0usize..3,
        spec in 0usize..3,
        bucketed in any::<bool>(),
    ) {
        let n = est.len();
        let mut d = Draw(seed);
        let inst = Instance::from_estimates(&est, m).unwrap();
        let unc = Uncertainty::of(2.0);
        // Envelope corners included: at β = 1 an attempt can end exactly
        // at its check, and the completion must win.
        let factors: Vec<f64> = (0..n).map(|_| [0.5, 1.0, 2.0][d.below(3)]).collect();
        let real = Realization::from_factors(&inst, unc, &factors).unwrap();
        let p = placement(&inst, &mut d);
        let order = order(n, &mut d);
        let pins = pins(&p, &mut d);
        let mode = if bucketed { QueueMode::Bucketed } else { QueueMode::Heap };

        let mut arena = SimArena::new();
        arena.set_queue_mode(mode);
        let plain = Engine::new(&inst, &p, &real)
            .unwrap()
            .run_in(&mut arena, dispatcher(flavor, &order, &p, &pins).as_mut())
            .unwrap();
        let empty = FaultScript::empty();
        let mut engine = ResilienceEngine::new(&inst, &p, &real, &empty).unwrap();
        if let Some(beta) = [None, Some(1.0), Some(1.5)][spec] {
            engine = engine.with_speculation(Speculation::new(beta, unc));
        }
        let report = run_on(&engine, mode, dispatcher(flavor, &order, &p, &pins));

        prop_assert!(report.outcome.is_completed());
        prop_assert_eq!(report.metrics.makespan.get().to_bits(), plain.get().to_bits());
        prop_assert_eq!(report.schedule.all_slots(), &arena.per_machine_slots()[..]);
        prop_assert_eq!(report.metrics.speculative_started, 0);
    }
}

//! Fault runs are layout-independent: the engine lays its hot column
//! out in whatever order the dispatcher declares (task ids, priority
//! positions, or CSR rows), and a lost attempt must flip the right
//! record back to pending in every layout.
//!
//! `OrderedDispatcher::new(order)` declares the priority-position
//! layout; `OrderedDispatcher::auto(order, &placement)` indexes
//! restricted placements and, when the per-machine rows partition the
//! tasks (span groups), declares the CSR layout with embedded task ids.
//! Both make identical dispatch decisions, so under random placements,
//! random fault scripts, and speculation on or off their resilience
//! reports must be identical — outcome, slots, trace, and metrics.

use proptest::prelude::*;
use rds_core::{
    Instance, MachineId, MachineMask, MachineSet, Placement, Realization, TaskId, Time, Uncertainty,
};
use rds_sim::faults::{FaultEvent, FaultScript, ResilienceEngine, ResilienceReport, Speculation};
use rds_sim::OrderedDispatcher;

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

/// Span groups of `size` machines (the last may be short), or masks of
/// at most `m / 2` random machines — restricted enough for `auto` to
/// index.
fn placement(inst: &Instance, groups: bool, d: &mut Draw) -> Placement {
    let m = inst.m();
    let size = (m / 2).max(1);
    let sets = (0..inst.n())
        .map(|_| {
            if groups {
                let g = d.below(m.div_ceil(size));
                MachineSet::Span {
                    start: (g * size) as u32,
                    end: ((g + 1) * size).min(m) as u32,
                }
            } else {
                let mut mask = MachineMask::empty(m);
                for _ in 0..1 + d.below(size) {
                    mask.insert(MachineId::new(d.below(m)));
                }
                MachineSet::from_mask(m, mask)
            }
        })
        .collect();
    Placement::new(inst, sets).unwrap()
}

/// A random script over every fault kind, timed inside `horizon`.
fn script(n: usize, m: usize, horizon: f64, d: &mut Draw) -> FaultScript {
    let events = (0..1 + d.below(6))
        .map(|_| {
            let machine = MachineId::new(d.below(m));
            let at = Time::of(horizon * d.below(64) as f64 / 64.0);
            match d.below(4) {
                0 => FaultEvent::Crash { machine, at },
                1 => FaultEvent::Outage {
                    machine,
                    at,
                    down_for: Time::of(horizon * d.below(16) as f64 / 32.0),
                },
                2 => FaultEvent::Slowdown {
                    machine,
                    at,
                    lasting: Time::of(1.0 + d.below(8) as f64),
                    speed: [0.2, 0.5, 1.5][d.below(3)],
                },
                _ => FaultEvent::Straggler {
                    task: TaskId::new(d.below(n)),
                    factor: [0.5, 2.0, 4.0][d.below(3)],
                },
            }
        })
        .collect();
    FaultScript::new(events)
}

fn run(engine: &ResilienceEngine<'_>, mut dispatcher: OrderedDispatcher) -> ResilienceReport {
    engine.run(&mut dispatcher).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fault_reports_do_not_depend_on_the_hot_column_layout(
        est in prop::collection::vec(0.5f64..8.0, 4..40),
        m in 2usize..7,
        seed in any::<u64>(),
        groups in any::<bool>(),
        speculate in any::<bool>(),
    ) {
        let n = est.len();
        let mut d = Draw(seed);
        let inst = Instance::from_estimates(&est, m).unwrap();
        let unc = Uncertainty::of(2.0);
        let factors: Vec<f64> = (0..n).map(|_| [0.5, 1.0, 2.0][d.below(3)]).collect();
        let real = Realization::from_factors(&inst, unc, &factors).unwrap();
        let p = placement(&inst, groups, &mut d);
        let horizon = inst.total_estimate().get() / m as f64 * 2.0;
        let faults = script(n, m, horizon, &mut d);
        let mut order: Vec<TaskId> = (0..n).map(TaskId::new).collect();
        for i in (1..n).rev() {
            order.swap(i, d.below(i + 1));
        }

        let mut engine = ResilienceEngine::new(&inst, &p, &real, &faults).unwrap();
        if speculate {
            engine = engine.with_speculation(Speculation::new(1.0, Uncertainty::CERTAIN));
        }
        let by_order = run(&engine, OrderedDispatcher::new(order.clone()));
        let auto = OrderedDispatcher::auto(order, &p);
        prop_assert!(auto.is_indexed(), "restricted placements must index");
        let by_index = run(&engine, auto);

        prop_assert_eq!(&by_index.outcome, &by_order.outcome);
        prop_assert_eq!(by_index.schedule.all_slots(), by_order.schedule.all_slots());
        prop_assert_eq!(by_index.trace.events(), by_order.trace.events());
        prop_assert_eq!(by_index.metrics, by_order.metrics);
    }
}

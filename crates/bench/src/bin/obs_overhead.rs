//! Self-check: instrumentation compiled in but **disabled** must slow
//! the engine loop by less than 2%.
//!
//! The engine monomorphizes its run loop on a const instrumentation
//! flag, so the disabled instantiation contains *no guard code at all*
//! — the entire disabled cost is one atomic flag load per run. A direct
//! A/B timing of two sub-millisecond runs cannot resolve a 2% delta on
//! a shared machine, so the check computes an analytic upper bound from
//! quantities that *are* measurable:
//!
//! 1. the median wall-clock of the engine run with instrumentation
//!    disabled (the denominator),
//! 2. the exact number of event iterations that run executes (read
//!    from the `engine.events` counter of one instrumented run),
//! 3. the *measured* residual cost of the disabled guard sequence —
//!    a replica of the engine's per-event guards with the same const
//!    `false` gate, timed by paired subtraction against an identical
//!    loop without the guard lines (expected ≈ 0: the compiler folds
//!    the const-disabled guards away, and this measurement verifies
//!    that empirically rather than assuming it),
//! 4. the measured cost of the once-per-run flag load.
//!
//! `bound = (events × per_event_residual + per_run_cost) / median`.
//! The raw A/B run medians are printed for context but not asserted.

use rds_bench::{header, quick_mode};
use rds_core::{Instance, Uncertainty};
use rds_sim::executors::simulate_no_restriction;
use rds_workloads::{realize::RealizationModel, rng, EstimateDistribution};
use std::hint::black_box;
use std::time::Instant;

/// The acceptance bound from the issue: < 2% disabled overhead.
const MAX_OVERHEAD: f64 = 0.02;

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn time_runs(reps: usize, inst: &Instance, real: &rds_core::Realization) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(simulate_no_restriction(inst, real).unwrap());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut samples)
}

/// The engine's per-event guard sequence with the same const-`false`
/// gate the disabled instantiation uses, plus loop-keeping ballast.
fn guarded_loop(iters: u64) -> u64 {
    // Exactly what `run_inner::<false>` resolves: a statically-`None`
    // handle tuple.
    let obs = false.then(|| {
        let g = rds_obs::global();
        (g.counter("bench.a"), g.counter("bench.b"))
    });
    let mut acc = 0u64;
    for i in 0..iters {
        if let Some((ev, _)) = &obs {
            ev.inc();
        }
        let _s1 = rds_obs::span_if(false, "engine.event");
        if let Some((_, d)) = &obs {
            d.inc();
        }
        let _s2 = rds_obs::span_if(false, "engine.dispatch");
        acc = acc.wrapping_add(black_box(i));
    }
    acc
}

/// The same loop without the guard lines — the subtraction control.
fn control_loop(iters: u64) -> u64 {
    let mut acc = 0u64;
    for i in 0..iters {
        acc = acc.wrapping_add(black_box(i));
    }
    acc
}

fn main() {
    let quick = quick_mode();
    let (n, m, reps) = if quick {
        (1_000usize, 16usize, 15usize)
    } else {
        (4_000, 32, 41)
    };
    header("observability overhead (engine loop, instrumentation disabled)");

    let mut r = rng::rng(17);
    let est = EstimateDistribution::Uniform { lo: 1.0, hi: 10.0 }.sample_n(n, &mut r);
    let inst = Instance::from_estimates(&est, m).unwrap();
    let unc = Uncertainty::of(1.5);
    let real = RealizationModel::UniformFactor
        .realize(&inst, unc, &mut r)
        .unwrap();

    assert!(
        !rds_obs::enabled(),
        "instrumentation must start disabled for the baseline"
    );
    // Warm-up, then the disabled baseline.
    for _ in 0..3 {
        black_box(simulate_no_restriction(&inst, &real).unwrap());
    }
    let disabled_med = time_runs(reps, &inst, &real);

    // One instrumented run gives the exact event-iteration count.
    rds_obs::set_enabled(true);
    let events_ctr = rds_obs::global().counter("engine.events");
    let before = events_ctr.get();
    black_box(simulate_no_restriction(&inst, &real).unwrap());
    let events = events_ctr.get() - before;
    let enabled_med = time_runs(reps, &inst, &real);
    rds_obs::set_enabled(false);
    let _ = rds_obs::global().take_spans();

    // Residual per-event guard cost via paired subtraction. The const
    // `false` gate matches the engine's disabled instantiation, so the
    // compiler should fold the guards to nothing — the clamp only
    // absorbs timer noise.
    let iters: u64 = if quick { 20_000_000 } else { 50_000_000 };
    let rounds = 7;
    let time_of = |f: &dyn Fn(u64) -> u64| -> f64 {
        let t0 = Instant::now();
        black_box(f(iters));
        t0.elapsed().as_secs_f64()
    };
    let mut guarded: Vec<f64> = (0..rounds).map(|_| time_of(&guarded_loop)).collect();
    let mut control: Vec<f64> = (0..rounds).map(|_| time_of(&control_loop)).collect();
    let per_event = (median(&mut guarded) - median(&mut control)).max(0.0) / iters as f64;

    // The once-per-run dispatch: one relaxed flag load and a branch.
    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(rds_obs::enabled());
    }
    let per_run = t0.elapsed().as_secs_f64() / iters as f64;

    let guard_cost = events as f64 * per_event + per_run;
    let bound = guard_cost / disabled_med;

    println!("instance: n = {n}, m = {m}, reps = {reps}");
    println!("engine events per run:        {events}");
    println!("disabled run median:          {:.3} ms", disabled_med * 1e3);
    println!(
        "enabled run median:           {:.3} ms (informational)",
        enabled_med * 1e3
    );
    println!("per-event guard residual:     {:.3} ns", per_event * 1e9);
    println!("per-run flag dispatch:        {:.3} ns", per_run * 1e9);
    println!("guard cost per run (bound):   {:.4} us", guard_cost * 1e6);
    println!(
        "disabled overhead bound:      {:.4}% (limit {:.1}%)",
        bound * 100.0,
        MAX_OVERHEAD * 100.0
    );

    if bound >= MAX_OVERHEAD {
        eprintln!("FAIL: disabled-instrumentation overhead bound exceeds the limit");
        std::process::exit(1);
    }
    println!("PASS: disabled instrumentation costs the engine loop < 2%");
}

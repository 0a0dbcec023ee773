//! **PERF-9** — engine scaling curve: per-event cost from n=10^3 to
//! n=10^6 (m=10^4) on the million-task hot path.
//!
//! For each size the paper's k=2 group workload runs two ways:
//!
//! - **hot**: the refactored path — one reused [`rds_sim::SimArena`]
//!   (SoA slot/trace columns, bucketed calendar event queue under
//!   `QueueMode::Auto`, batched same-timestamp dispatch rounds) driven
//!   through [`rds_sim::Engine::run_in`] with a reused indexed
//!   dispatcher; steady-state allocations are counted and asserted 0;
//! - **heap baseline**: the pre-refactor trial loop — fresh arena and
//!   scan dispatcher per trial with the event queue forced to
//!   `QueueMode::Heap` (`BinaryHeap`, one pop per event). The scan
//!   dispatcher is O(groups) per dispatch, so the baseline only runs up
//!   to n=10^5 — which is where the speedup gate applies.
//!
//! Gates (the tentpole's acceptance criteria):
//!
//! - per-event cost at the largest size ≤ 2× the n=10^3 cost
//!   (near-linear total cost in event count);
//! - hot-path trials/sec ≥ 3× the heap baseline at the largest
//!   baseline size;
//! - both paths produce bit-identical makespan sums per size
//!   (end-to-end schedule identity, backing the differential proptests).
//!
//! Emits machine-readable JSON (default `BENCH_9.json`, override with
//! `--out <path>`). `--quick` caps sizes at n=10^5 for CI.
//!
//! Run: `cargo run --release -p rds-bench --bin engine_scaling [--quick]`

use rds_bench::{arg_value, header, quick_mode};
use rds_core::{Instance, MachineSet, Placement, Realization, TaskId, Uncertainty};
use rds_sim::{Engine, OrderedDispatcher, QueueMode, SimArena};
use rds_workloads::realize::RealizationModel;
use rds_workloads::{rng, EstimateDistribution};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Global allocation counter: every `alloc`/`realloc`/`alloc_zeroed`
/// bumps it, so a steady-state trial that allocates anything shows up
/// as a nonzero count. Only this binary installs it — the workspace
/// libraries stay `forbid(unsafe_code)`.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

struct Workload {
    instance: Instance,
    placement: Placement,
    realizations: Vec<Realization>,
    order: Vec<TaskId>,
}

/// The paper's k=2 group shape at scale: `m/2` spans of 2 machines,
/// task `j` replicated on group `j % (m/2)`, dispatched in LPT order.
fn build_workload(n: usize, m: usize, trials: usize, seed: u64) -> Workload {
    let mut r = rng::rng(seed);
    let estimates = EstimateDistribution::Uniform { lo: 1.0, hi: 10.0 }.sample_n(n, &mut r);
    let instance = Instance::from_estimates(&estimates, m).expect("valid instance");
    let groups = m / 2;
    let sets: Vec<MachineSet> = (0..n)
        .map(|j| {
            let g = (j % groups) as u32;
            MachineSet::Span {
                start: g * 2,
                end: (g + 1) * 2,
            }
        })
        .collect();
    let placement = Placement::new(&instance, sets).expect("valid placement");
    let unc = Uncertainty::of(2.0);
    let realizations = (0..trials)
        .map(|t| {
            let mut tr = rng::rng(rng::child_seed(seed, t as u64));
            RealizationModel::UniformFactor
                .realize(&instance, unc, &mut tr)
                .expect("valid realization")
        })
        .collect();
    let order = instance.ids_by_estimate_desc();
    Workload {
        instance,
        placement,
        realizations,
        order,
    }
}

#[derive(Clone, Copy)]
struct Measured {
    seconds: f64,
    trials_per_sec: f64,
    per_event_ns: f64,
    allocs_per_trial: f64,
    makespan_sum: f64,
    events: u64,
}

/// The refactored hot path: reused arena with the calendar queue forced
/// at every size (so the curve measures one structure's scaling, not an
/// Auto-mode backend switch), reused indexed dispatcher, batched
/// dispatch rounds. One full warmup pass grows every buffer to its
/// high-water mark first.
fn run_hot(w: &Workload) -> Measured {
    let n = w.instance.n();
    let m = w.instance.m();
    let mut arena = SimArena::with_capacity(n, m);
    arena.set_queue_mode(QueueMode::Bucketed);
    let mut d = OrderedDispatcher::auto(w.order.clone(), &w.placement);
    assert!(d.is_indexed(), "group placement must take the indexed path");
    for real in &w.realizations {
        let engine = Engine::new(&w.instance, &w.placement, real).expect("engine");
        d.reset();
        engine.run_in(&mut arena, &mut d).expect("warmup run");
    }

    let t0 = Instant::now();
    let a0 = allocs();
    let mut events = 0u64;
    let mut makespan_sum = 0.0f64;
    for real in &w.realizations {
        let engine = Engine::new(&w.instance, &w.placement, real).expect("engine");
        d.reset();
        let makespan = engine.run_in(&mut arena, &mut d).expect("run");
        events += arena.trace().len() as u64;
        makespan_sum += makespan.get();
    }
    let seconds = t0.elapsed().as_secs_f64();
    let trials = w.realizations.len() as f64;
    Measured {
        seconds,
        trials_per_sec: trials / seconds,
        per_event_ns: seconds * 1e9 / events as f64,
        allocs_per_trial: (allocs() - a0) as f64 / trials,
        makespan_sum,
        events,
    }
}

/// The pre-refactor trial loop: fresh arena and scan dispatcher per
/// trial, event queue pinned to the binary heap.
fn run_heap_baseline(w: &Workload) -> Measured {
    let t0 = Instant::now();
    let a0 = allocs();
    let mut events = 0u64;
    let mut makespan_sum = 0.0f64;
    for real in &w.realizations {
        let engine = Engine::new(&w.instance, &w.placement, real).expect("engine");
        let mut arena = SimArena::new();
        arena.set_queue_mode(QueueMode::Heap);
        let mut d = OrderedDispatcher::new(w.order.clone());
        let makespan = engine.run_in(&mut arena, &mut d).expect("run");
        events += arena.trace().len() as u64;
        makespan_sum += makespan.get();
    }
    let seconds = t0.elapsed().as_secs_f64();
    let trials = w.realizations.len() as f64;
    Measured {
        seconds,
        trials_per_sec: trials / seconds,
        per_event_ns: seconds * 1e9 / events as f64,
        allocs_per_trial: (allocs() - a0) as f64 / trials,
        makespan_sum,
        events,
    }
}

fn main() {
    header("PERF-9 — engine scaling (bucketed queue, SoA hot path)");
    let quick = quick_mode();
    // (n, m, trials); m tracks n/100 toward the ROADMAP's 10^6 / 10^4.
    let sizes: &[(usize, usize, usize)] = if quick {
        &[(1_000, 10, 60), (10_000, 100, 12), (100_000, 1_000, 4)]
    } else {
        &[
            (1_000, 10, 200),
            (10_000, 100, 40),
            (100_000, 1_000, 8),
            (1_000_000, 10_000, 4),
        ]
    };
    // The scan-path baseline is O(groups) per dispatch; past 10^5 it
    // would dominate the wall clock without informing the gates.
    const BASELINE_MAX_N: usize = 100_000;

    let mut rows = Vec::new();
    let mut entries = Vec::new();
    for &(n, m, trials) in sizes {
        let w = build_workload(n, m, trials, 0x0005_EED9);
        let hot = run_hot(&w);
        let base = (n <= BASELINE_MAX_N).then(|| run_heap_baseline(&w));
        if let Some(b) = &base {
            assert_eq!(
                hot.makespan_sum.to_bits(),
                b.makespan_sum.to_bits(),
                "hot and heap-baseline paths diverged at n={n}"
            );
        }
        assert_eq!(
            hot.allocs_per_trial, 0.0,
            "hot path must be allocation-free in steady state (n={n})"
        );
        let speedup = base.as_ref().map(|b| hot.trials_per_sec / b.trials_per_sec);
        println!(
            "n={n:>8} m={m:>6} trials={trials:>4}: hot {:>7.1} ns/event  {:>9.1} trials/s{}",
            hot.per_event_ns,
            hot.trials_per_sec,
            match (&base, speedup) {
                (Some(b), Some(s)) =>
                    format!("  | heap {:>7.1} ns/event  speedup {s:.2}x", b.per_event_ns),
                _ => String::from("  | heap baseline skipped"),
            }
        );
        let base_json = match &base {
            Some(b) => format!(
                concat!(
                    "{{\n",
                    "        \"seconds\": {:.6},\n",
                    "        \"trials_per_sec\": {:.2},\n",
                    "        \"per_event_ns\": {:.2},\n",
                    "        \"allocs_per_trial\": {:.2}\n",
                    "      }}"
                ),
                b.seconds, b.trials_per_sec, b.per_event_ns, b.allocs_per_trial
            ),
            None => String::from("null"),
        };
        entries.push(format!(
            concat!(
                "    {{\n",
                "      \"n\": {n},\n",
                "      \"m\": {m},\n",
                "      \"trials\": {trials},\n",
                "      \"events\": {events},\n",
                "      \"hot\": {{\n",
                "        \"seconds\": {h_sec:.6},\n",
                "        \"trials_per_sec\": {h_tps:.2},\n",
                "        \"per_event_ns\": {h_pen:.2},\n",
                "        \"steady_allocs_per_trial\": {h_apt:.2}\n",
                "      }},\n",
                "      \"heap_baseline\": {base},\n",
                "      \"speedup\": {speedup}\n",
                "    }}"
            ),
            n = n,
            m = m,
            trials = trials,
            events = hot.events,
            h_sec = hot.seconds,
            h_tps = hot.trials_per_sec,
            h_pen = hot.per_event_ns,
            h_apt = hot.allocs_per_trial,
            base = base_json,
            speedup = speedup.map_or(String::from("null"), |s| format!("{s:.4}")),
        ));
        rows.push((n, hot, base));
    }

    let smallest = &rows[0].1;
    let largest = &rows[rows.len() - 1].1;
    let per_event_ratio = largest.per_event_ns / smallest.per_event_ns;
    let gate = rows
        .iter()
        .rev()
        .find_map(|(n, hot, base)| {
            base.as_ref()
                .map(|b| (*n, hot.trials_per_sec / b.trials_per_sec))
        })
        .expect("at least one size runs the heap baseline");
    println!(
        "per-event cost ratio (n={} vs n={}): {per_event_ratio:.2}x (gate ≤ 2)",
        rows[rows.len() - 1].0,
        rows[0].0
    );
    println!(
        "speedup vs heap baseline at n={}: {:.2}x (gate ≥ 3)",
        gate.0, gate.1
    );
    assert!(
        per_event_ratio <= 2.0,
        "per-event cost must stay near-linear: ratio {per_event_ratio:.2} > 2"
    );
    assert!(
        gate.1 >= 3.0,
        "hot path must beat the heap baseline ≥ 3x at n={}: got {:.2}x",
        gate.0,
        gate.1
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"engine_scaling\",\n",
            "  \"quick\": {quick},\n",
            "  \"sizes\": [\n{entries}\n  ],\n",
            "  \"per_event_ratio_largest_vs_smallest\": {ratio:.4},\n",
            "  \"speedup_vs_heap_at_n\": {gate_n},\n",
            "  \"speedup_vs_heap\": {gate_s:.4}\n",
            "}}\n"
        ),
        quick = quick,
        entries = entries.join(",\n"),
        ratio = per_event_ratio,
        gate_n = gate.0,
        gate_s = gate.1,
    );
    let out = arg_value("out").unwrap_or_else(|| "BENCH_9.json".to_string());
    std::fs::write(&out, &json).expect("write bench json");
    println!("\nwrote {out}");
}

//! Criterion benches for the extension policies and failure engine:
//! overlapping-eligibility dispatch cost and failure-recovery overhead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rds_algs::Strategy;
use rds_core::{Instance, MachineId, Placement, Time, Uncertainty};
use rds_policies::{ChainedReplication, CriticalTaskReplication};
use rds_sim::faults::{FaultEvent, FaultScript, ResilienceEngine};
use rds_sim::OrderedDispatcher;
use rds_workloads::{realize::RealizationModel, rng, EstimateDistribution};

fn setup(n: usize, m: usize) -> (Instance, Uncertainty, rds_core::Realization) {
    let mut r = rng::rng(21);
    let est = EstimateDistribution::Uniform { lo: 1.0, hi: 10.0 }.sample_n(n, &mut r);
    let inst = Instance::from_estimates(&est, m).unwrap();
    let unc = Uncertainty::of(1.5);
    let real = RealizationModel::UniformFactor
        .realize(&inst, unc, &mut r)
        .unwrap();
    (inst, unc, real)
}

fn bench_overlapping_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("overlapping_policies");
    for &n in &[200usize, 2_000] {
        let m = 16;
        let (inst, unc, real) = setup(n, m);
        group.bench_with_input(BenchmarkId::new("chained_k3", n), &n, |b, _| {
            b.iter(|| {
                ChainedReplication::new(3)
                    .unwrap()
                    .run(&inst, unc, &real)
                    .unwrap()
                    .makespan
            })
        });
        group.bench_with_input(BenchmarkId::new("critical_30pct", n), &n, |b, _| {
            b.iter(|| {
                CriticalTaskReplication::new(0.3)
                    .unwrap()
                    .run(&inst, unc, &real)
                    .unwrap()
                    .makespan
            })
        });
    }
    group.finish();
}

fn bench_failure_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("failure_engine");
    let (n, m) = (1_000usize, 16usize);
    let (inst, _unc, real) = setup(n, m);
    let placement = Placement::everywhere(&inst);
    let none = FaultScript::empty();
    let failures = FaultScript::new(
        (0..4)
            .map(|i| FaultEvent::Crash {
                machine: MachineId::new(i),
                at: Time::of(10.0 * (i + 1) as f64),
            })
            .collect(),
    );
    for (name, script) in [("no_failures", &none), ("four_failures", &failures)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                ResilienceEngine::new(&inst, &placement, &real, script)
                    .unwrap()
                    .run(&mut OrderedDispatcher::lpt_by_estimate(&inst))
                    .unwrap()
                    .metrics
                    .makespan
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_overlapping_policies, bench_failure_engine);
criterion_main!(benches);

//! Criterion benches for the optimal-makespan solvers: DP vs
//! branch-and-bound vs MULTIFIT vs the dual-approximation bracket.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rds_core::Time;
use rds_exact::{bin_packing, branch_bound, dp, dual_approx, OptimalSolver};
use rds_workloads::{rng, EstimateDistribution};

fn times(n: usize, seed: u64) -> Vec<Time> {
    let mut r = rng::rng(seed);
    EstimateDistribution::Uniform { lo: 1.0, hi: 50.0 }
        .sample_n(n, &mut r)
        .into_iter()
        .map(Time::of)
        .collect()
}

fn bench_exact_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_solvers");
    let m = 4;
    for &n in &[10usize, 14] {
        let t = times(n, 3);
        group.bench_with_input(BenchmarkId::new("dp", n), &n, |b, _| {
            b.iter(|| dp::optimal(&t, m).unwrap().0)
        });
        group.bench_with_input(BenchmarkId::new("branch_bound", n), &n, |b, _| {
            b.iter(|| branch_bound::solve(&t, m, 10_000_000).makespan)
        });
    }
    group.finish();
}

fn bench_heuristic_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("heuristic_solvers");
    // The last shape is `rds sweep`'s: with m = 256 bins each FFD pass's
    // bin search, not the sort, dominates MULTIFIT.
    for &(n, m) in &[(100usize, 16usize), (1_000, 16), (10_000, 16), (4_096, 256)] {
        let t = times(n, 5);
        let shape = format!("n={n},m={m}");
        group.bench_with_input(BenchmarkId::new("multifit", &shape), &n, |b, _| {
            b.iter(|| bin_packing::multifit(&t, m, 40).0)
        });
        group.bench_with_input(BenchmarkId::new("dual_bracket", &shape), &n, |b, _| {
            b.iter(|| dual_approx::bracket(&t, m, 0.2).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("solver_facade", &shape), &n, |b, _| {
            let s = OptimalSolver::fast();
            b.iter(|| s.solve(&t, m))
        });
        // The lower side alone, as `rds sweep` reads it: no MULTIFIT.
        group.bench_with_input(BenchmarkId::new("lower_bound", &shape), &n, |b, _| {
            let s = OptimalSolver::fast();
            b.iter(|| s.lower_bound(&t, m))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_exact_solvers, bench_heuristic_solvers);
criterion_main!(benches);

//! Property-based tests (proptest) on the core invariants.

use proptest::prelude::*;
use replicated_placement::prelude::*;
// Explicit import: `proptest::prelude::Strategy` shadows the scheduling
// trait under the glob imports above.
use rds_algs::Strategy as SchedulingStrategy;
use rds_exact::lower_bounds;
use replicated_placement::sim::{check_schedule, Checks};

/// Strategy for a vector of 1..=n positive estimates.
fn estimates(max_n: usize) -> impl proptest::strategy::Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.1f64..100.0, 1..=max_n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn realization_always_inside_interval(
        est in estimates(30),
        alpha in 1.0f64..4.0,
        pattern_seed in any::<u64>(),
    ) {
        let m = 3;
        let inst = Instance::from_estimates(&est, m).unwrap();
        let unc = Uncertainty::of(alpha);
        let factors: Vec<f64> = (0..inst.n())
            .map(|j| if (pattern_seed >> (j % 64)) & 1 == 1 { alpha } else { 1.0 / alpha })
            .collect();
        let real = Realization::from_factors(&inst, unc, &factors).unwrap();
        for t in inst.task_ids() {
            prop_assert!(unc.contains(inst.estimate(t), real.actual(t)));
        }
    }

    #[test]
    fn makespan_equals_max_load_and_sums_conserve(
        est in estimates(40),
        m in 1usize..8,
    ) {
        let inst = Instance::from_estimates(&est, m).unwrap();
        let real = Realization::exact(&inst);
        let a = rds_algs::list_scheduling::lpt_estimates(&inst).unwrap();
        let loads = a.loads(&real);
        // Sum of loads = sum of processing times.
        let total: f64 = loads.iter().map(|t| t.get()).sum();
        prop_assert!((total - real.total().get()).abs() < 1e-6 * total.max(1.0));
        // Makespan = max load.
        prop_assert_eq!(a.makespan(&real), loads.into_iter().max().unwrap());
    }

    #[test]
    fn strategies_always_feasible_and_bounded_by_graham(
        est in estimates(25),
        alpha in 1.0f64..3.0,
        pattern in any::<u64>(),
        m in 2usize..7,
    ) {
        let inst = Instance::from_estimates(&est, m).unwrap();
        let unc = Uncertainty::of(alpha);
        let factors: Vec<f64> = (0..inst.n())
            .map(|j| if (pattern >> (j % 64)) & 1 == 1 { alpha } else { 1.0 / alpha })
            .collect();
        let real = Realization::from_factors(&inst, unc, &factors).unwrap();

        // LPT-No Restriction is a List Scheduling variant: its makespan
        // is bounded by avg + (m-1)/m * pmax for the actual times.
        let out = LptNoRestriction.run(&inst, unc, &real).unwrap();
        let avg = real.total() / m as f64;
        let bound = avg + real.max() * ((m - 1) as f64 / m as f64);
        prop_assert!(out.makespan.get() <= bound.get() + 1e-9,
            "LS property violated: {} > {}", out.makespan, bound);

        // Every strategy's output is feasible (run() checks it, but the
        // property re-asserts the placement shapes too).
        for k in 1..=m {
            if m % k != 0 { continue; }
            let g = LsGroup::new(k).run(&inst, unc, &real).unwrap();
            prop_assert!(g.placement.max_replicas() == m / k);
        }
    }

    #[test]
    fn exact_optimum_is_a_true_lower_bound(
        est in estimates(10),
        m in 1usize..5,
    ) {
        let inst = Instance::from_estimates(&est, m).unwrap();
        let real = Realization::exact(&inst);
        let times = real.times();
        let (opt, assign) = rds_exact::dp::optimal(times, m).unwrap();
        // Optimal ≥ every combinatorial lower bound.
        prop_assert!(opt >= lower_bounds::combined(times, m) * 0.999_999_999);
        // Optimal ≤ any heuristic (LPT here).
        let lpt = rds_algs::list_scheduling::lpt_estimates(&inst).unwrap();
        prop_assert!(opt <= lpt.makespan(&real) * 1.000_000_001);
        // The reconstruction achieves the reported value.
        let mut loads = vec![0.0f64; m];
        for (j, id) in assign.iter().enumerate() {
            loads[id.index()] += times[j].get();
        }
        let achieved = loads.into_iter().fold(0.0, f64::max);
        prop_assert!((achieved - opt.get()).abs() < 1e-9 * achieved.max(1.0));
    }

    #[test]
    fn multifit_within_bound_and_above_optimal(
        est in estimates(12),
        m in 1usize..5,
    ) {
        let inst = Instance::from_estimates(&est, m).unwrap();
        let times: Vec<Time> = inst.tasks().iter().map(|t| t.estimate).collect();
        let (mf, _) = rds_exact::bin_packing::multifit(&times, m, 40);
        let (opt, _) = rds_exact::dp::optimal(&times, m).unwrap();
        prop_assert!(mf >= opt * 0.999_999_999, "multifit below optimal");
        prop_assert!(mf.get() <= 13.0 / 11.0 * opt.get() + 1e-9, "multifit beyond 13/11");
    }

    #[test]
    fn placement_budget_consistency(
        est in estimates(20),
        m in 2usize..9,
    ) {
        let inst = Instance::from_estimates(&est, m).unwrap();
        let everywhere = Placement::everywhere(&inst);
        prop_assert!(everywhere.check_budget(m).is_ok());
        prop_assert!(everywhere.check_budget(m - 1).is_err());
        prop_assert_eq!(everywhere.total_replicas(), m * inst.n());
    }

    #[test]
    fn balancer_matches_naive_greedy(
        weights in prop::collection::vec(0.0f64..50.0, 1..60),
        m in 1usize..9,
    ) {
        let mut fast = rds_algs::balancer::LoadBalancer::new(m);
        let mut naive = vec![0.0f64; m];
        for &w in &weights {
            let picked = fast.assign(Time::of(w));
            let slow = naive
                .iter()
                .enumerate()
                .min_by(|(i, a), (j, b)| a.total_cmp(b).then(i.cmp(j)))
                .unwrap()
                .0;
            prop_assert_eq!(picked.index(), slow);
            naive[slow] += w;
        }
    }

    #[test]
    fn two_point_adversary_never_exceeds_theorem2(
        lambda in 1usize..6,
        m in 2usize..6,
        alpha in 1.0f64..2.5,
    ) {
        // The full Theorem-1 adversary flow as a property.
        let inst = replicated_placement::adversary::theorem1::uniform_instance(lambda, m).unwrap();
        let unc = Uncertainty::of(alpha);
        let p = LptNoChoice.place(&inst, unc).unwrap();
        let a = LptNoChoice.execute(&inst, &p, &Realization::exact(&inst)).unwrap();
        let atk = replicated_placement::adversary::theorem1::attack(&inst, unc, &a).unwrap();
        let bound = rds_bounds::replication::lpt_no_choice(alpha, m);
        // Witness ratio uses an optimum overestimate, so it must respect
        // the upper bound as well.
        prop_assert!(atk.ratio_witness() <= bound + 1e-9);
    }

    #[test]
    fn group_partition_is_a_partition(
        m in 1usize..64,
        k_seed in any::<u64>(),
    ) {
        let k = (k_seed as usize % m) + 1;
        let g = GroupPartition::new(m, k).unwrap();
        let mut seen = vec![false; m];
        for grp in 0..k {
            for i in g.group_range(grp) {
                prop_assert!(!seen[i], "machine {} in two groups", i);
                seen[i] = true;
                prop_assert_eq!(g.group_of(MachineId::new(i)), grp);
            }
        }
        prop_assert!(seen.into_iter().all(|s| s));
        // Near-equal sizes.
        let sizes: Vec<usize> = (0..k).map(|grp| g.group_size(grp)).collect();
        let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        prop_assert!(hi - lo <= 1);
    }

    #[test]
    fn schedule_sequencing_roundtrip(
        est in estimates(20),
        m in 1usize..6,
    ) {
        let inst = Instance::from_estimates(&est, m).unwrap();
        let real = Realization::exact(&inst);
        let a = rds_algs::list_scheduling::list_schedule_estimates(&inst).unwrap();
        let s = Schedule::sequence(&a.tasks_per_machine(), &real);
        let everywhere = Placement::everywhere(&inst);
        check_schedule(&inst, &everywhere, &real, &s, &Checks::engine()).unwrap();
        prop_assert_eq!(s.to_assignment(&inst).unwrap(), a.clone());
        prop_assert_eq!(s.makespan(), a.makespan(&real));
    }
}

/// Deterministic pseudo-random sizes in `[1, 10]` derived from a seed,
/// so the solver properties get (estimate, size) pairs without needing
/// tuple strategies.
fn derive_sizes(seed: u64, n: usize) -> Vec<f64> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) % 10) as f64 + 1.0
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lp_rounding_is_always_memory_and_replica_feasible(
        est in estimates(10),
        m in 2usize..5,
        alpha in 1.0f64..2.5,
        k in 1usize..4,
        seed in any::<u64>(),
    ) {
        let sizes = derive_sizes(seed, est.len());
        let pairs: Vec<(f64, f64)> = est.iter().copied().zip(sizes.iter().copied()).collect();
        let inst = Instance::from_estimates_and_sizes(&pairs, m).unwrap();
        let unc = Uncertainty::of(alpha);
        // avg + max is achievable by the size-driven greedy, so the
        // rounding path must always succeed under this budget.
        let budget = Size::of(
            inst.total_size().get() / m as f64 + inst.max_size().get(),
        );
        let strat = rds_algs::LpRoundingPlacement::new(k).unwrap().with_budget(budget);
        let placement = strat.place(&inst, unc).unwrap();
        // Memory budget holds after rounding, repair, and k-padding.
        let mem = rds_core::memory::mem_max(&inst, &placement);
        prop_assert!(
            mem.get() <= budget.get() * (1.0 + 1e-9),
            "Mem_max {} exceeds B {}", mem, budget
        );
        // Per-task replica bounds: 1 ≤ |M_j| ≤ k.
        placement.check_budget(k.min(m)).unwrap();
        for t in inst.task_ids() {
            prop_assert!(placement.replicas(t) >= 1);
        }
        // The full two-phase run stays feasible.
        let real = Realization::uniform_factor(&inst, unc, alpha).unwrap();
        let out = strat.run(&inst, unc, &real).unwrap();
        out.assignment.check_feasible(&out.placement).unwrap();
    }

    #[test]
    fn ilp_never_below_lp_bound_and_matches_certified_optimum(
        est in estimates(8),
        m in 2usize..5,
        alpha in 1.0f64..2.0,
        seed in any::<u64>(),
    ) {
        let unc = Uncertainty::of(alpha);
        // Unconstrained memory: the IP is P || C_max on the envelopes,
        // so the B&B must agree exactly with the certified optimum.
        let inst = Instance::from_estimates(&est, m).unwrap();
        let r = rds_algs::IlpPlacement::new(1).unwrap().solve_model(&inst, unc).unwrap();
        prop_assert!(r.proved, "n <= 8 must prove within the default budget");
        prop_assert!(r.makespan.get() >= r.lower_bound.get() - 1e-9);
        if let Some(lp) = r.lp_bound {
            prop_assert!(
                r.makespan.get() >= lp - 1e-9 * lp.max(1.0),
                "ilp {} below its lp bound {lp}", r.makespan
            );
        }
        let envelopes: Vec<Time> = est.iter().map(|&p| Time::of(alpha * p)).collect();
        let opt = rds_exact::OptimalSolver::default().solve(&envelopes, m);
        prop_assert_eq!(opt.certainty, rds_exact::Certainty::Exact);
        prop_assert!(
            (r.makespan.get() - opt.lo.get()).abs() < 1e-9 * opt.lo.get().max(1.0),
            "ilp {} != certified optimum {}", r.makespan, opt.lo
        );

        // Memory-constrained: the bound ordering still holds.
        let sizes = derive_sizes(seed, est.len());
        let pairs: Vec<(f64, f64)> = est.iter().copied().zip(sizes.iter().copied()).collect();
        let inst = Instance::from_estimates_and_sizes(&pairs, m).unwrap();
        let budget = Size::of(
            inst.total_size().get() / m as f64 + inst.max_size().get(),
        );
        let r = rds_algs::IlpPlacement::new(1)
            .unwrap()
            .with_budget(budget)
            .solve_model(&inst, unc)
            .unwrap();
        prop_assert!(r.makespan.get() >= r.lower_bound.get() - 1e-9);
        if let Some(lp) = r.lp_bound {
            prop_assert!(r.makespan.get() >= lp - 1e-9 * lp.max(1.0));
        }
        // Tightening memory can only raise the optimum above the
        // unconstrained one.
        prop_assert!(r.makespan.get() >= opt.lo.get() - 1e-9 * opt.lo.get().max(1.0));
    }
}

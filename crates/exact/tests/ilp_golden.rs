//! Golden `PlacementModel::solve` outcomes on a fixed set of seeded
//! models:
//!
//! - `rds frontier`'s shape (m = 4, n = 14, α = 1.5) over its 5-step
//!   budget grid, whose lowest budget is often below every packing of
//!   the sizes;
//! - `ilp_scaling`'s BFD band (`B = Σs/m + s_max`), where the budget
//!   binds but size-BFD always meets it;
//! - unbounded models (`B = ∞`, plain `P || C_max` on the envelopes);
//! - node-limited solves: anytime fallbacks to an incumbent, and a
//!   packable budget no greedy incumbent meets, which runs out of nodes.
//!
//! An `Ok` pins the makespan and lower-bound bits, the node count, the
//! `proved` and `used_fallback` flags and the assignment; an `Err` pins
//! its variant. A mismatch means the search visited a different tree or
//! returned a different placement. The constants are the solver's
//! reference behavior; they must not be re-recorded to absorb a change
//! that was meant to be behavior-preserving.

use rand::Rng as _;
use rds_core::{Instance, Size, Uncertainty};
use rds_exact::ilp::{IlpError, PlacementModel};
use rds_workloads::{rng, EstimateDistribution};

/// `rds frontier`'s default node budget (`DEFAULT_NODE_LIMIT`).
const FRONTIER_NODES: u64 = 500_000;
/// `ilp_scaling`'s node budget.
const SCALING_NODES: u64 = 200_000;

/// The sized instance `rds frontier --m m --n n --seed seed` builds.
fn frontier_instance(m: usize, n: usize, seed: u64) -> Instance {
    let mut r = rng::rng(seed);
    let est = EstimateDistribution::Uniform { lo: 1.0, hi: 10.0 }.sample_n(n, &mut r);
    let pairs: Vec<(f64, f64)> = est.iter().map(|&p| (p, r.gen_range(1.0..8.0))).collect();
    Instance::from_estimates_and_sizes(&pairs, m).unwrap()
}

/// `rds_policies::budget_grid`: `steps` budgets from `max(s_max, Σs/m)`
/// up to `Σs/m + s_max`.
fn budget_grid(inst: &Instance, steps: usize) -> Vec<f64> {
    let avg = inst.total_size() / inst.m() as f64;
    let lo = inst.max_size().max(avg).get();
    let hi = inst.total_size().get() / inst.m() as f64 + inst.max_size().get();
    (0..steps)
        .map(|i| lo + (hi - lo) * i as f64 / (steps - 1) as f64)
        .collect()
}

/// `ilp_scaling`'s model for `n` tasks on `m` machines.
fn scaling_model(n: usize, m: usize, seed: u64) -> PlacementModel {
    let mut r = rng::rng(seed);
    let est = EstimateDistribution::Uniform { lo: 0.5, hi: 12.0 }.sample_n(n, &mut r);
    let sizes: Vec<f64> = (0..n).map(|_| r.gen_range(1.0..9.0)).collect();
    let pairs: Vec<(f64, f64)> = est.iter().copied().zip(sizes.iter().copied()).collect();
    let inst = Instance::from_estimates_and_sizes(&pairs, m).unwrap();
    let budget = inst.total_size().get() / m as f64 + inst.max_size().get();
    PlacementModel::from_instance(&inst, Uncertainty::of(1.5), Some(Size::of(budget))).unwrap()
}

/// Every case: a label, the model and the node limit.
fn cases() -> Vec<(String, PlacementModel, u64)> {
    let unc = Uncertainty::of(1.5);
    let mut out = Vec::new();
    for seed in [1u64, 2, 3, 4, 5, 6, 7, 42] {
        let inst = frontier_instance(4, 14, seed);
        for (step, b) in budget_grid(&inst, 5).into_iter().enumerate() {
            out.push((
                format!("frontier m=4 n=14 seed={seed} step={step}"),
                PlacementModel::from_instance(&inst, unc, Some(Size::of(b))).unwrap(),
                FRONTIER_NODES,
            ));
        }
    }
    for n in [6usize, 8, 10, 12, 16, 24] {
        out.push((
            format!("scaling m=4 n={n}"),
            scaling_model(n, 4, 0xC0DE_0008 ^ n as u64),
            SCALING_NODES,
        ));
    }
    for (m, n, seed) in [(2usize, 9usize, 5u64), (3, 10, 5), (5, 12, 11), (4, 14, 42)] {
        out.push((
            format!("unbounded m={m} n={n} seed={seed}"),
            PlacementModel::from_instance(&frontier_instance(m, n, seed), unc, None).unwrap(),
            FRONTIER_NODES,
        ));
    }
    for seed in [3u64, 42] {
        let inst = frontier_instance(4, 14, seed);
        let b = budget_grid(&inst, 5)[2];
        out.push((
            format!("fallback m=4 n=14 seed={seed} step=2 nodes=40"),
            PlacementModel::from_instance(&inst, unc, Some(Size::of(b))).unwrap(),
            40,
        ));
    }
    // {3, 3} / {2, 2, 2} fills both machines exactly; LP rounding, LPT
    // and size-BFD all spread the 3s and strand the last 2.
    let tight = PlacementModel::new(
        &[3.0, 3.0, 2.0, 2.0, 2.0],
        &[3.0, 3.0, 2.0, 2.0, 2.0],
        2,
        6.0,
    )
    .unwrap();
    for nodes in [1u64, FRONTIER_NODES] {
        out.push((format!("no incumbent nodes={nodes}"), tight.clone(), nodes));
    }
    out
}

/// One solve, rendered for comparison.
fn outcome(model: &PlacementModel, nodes: u64) -> String {
    match model.solve(nodes) {
        Ok(r) => {
            let assign: Vec<String> = r.assignment.iter().map(|i| i.index().to_string()).collect();
            format!(
                "mk={:#018x} lb={:#018x} nodes={} proved={} fallback={} assign={}",
                r.makespan.get().to_bits(),
                r.lower_bound.get().to_bits(),
                r.nodes,
                r.proved,
                r.used_fallback,
                assign.join(",")
            )
        }
        Err(IlpError::BadInput(what)) => format!("BadInput({what})"),
        Err(IlpError::Infeasible) => "Infeasible".to_string(),
        Err(IlpError::ResourceLimit) => "ResourceLimit".to_string(),
    }
}

/// Recorded with the search that kept one `Vec` of tried machine states
/// per node and proved every infeasible budget by exhausting its tree.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str)] = &[
    ("frontier m=4 n=14 seed=1 step=0", "Infeasible"),
    ("frontier m=4 n=14 seed=1 step=1", "mk=0x403c061b3496bb50 lb=0x403bb39b49b92a1e nodes=1046 proved=true fallback=false assign=2,3,1,2,2,3,0,1,3,3,1,0,1,0"),
    ("frontier m=4 n=14 seed=1 step=2", "mk=0x403bdacb424ae10e lb=0x403bb39b49b92a1e nodes=1725 proved=true fallback=false assign=2,3,1,2,3,3,0,1,3,2,1,0,1,0"),
    ("frontier m=4 n=14 seed=1 step=3", "mk=0x403bd7b9c002c302 lb=0x403bb39b49b92a1e nodes=1831 proved=true fallback=false assign=2,2,1,3,3,3,0,1,3,2,1,0,1,0"),
    ("frontier m=4 n=14 seed=1 step=4", "mk=0x403bd7b9c002c302 lb=0x403bb39b49b92a1e nodes=2177 proved=true fallback=false assign=2,2,1,3,3,3,0,1,3,2,1,0,1,0"),
    ("frontier m=4 n=14 seed=2 step=0", "Infeasible"),
    ("frontier m=4 n=14 seed=2 step=1", "mk=0x40416cefe9198621 lb=0x4041461f95e7af92 nodes=16989 proved=true fallback=false assign=2,1,3,3,1,1,1,2,0,0,3,2,3,0"),
    ("frontier m=4 n=14 seed=2 step=2", "mk=0x404151945b1551d0 lb=0x4041461f95e7af92 nodes=19354 proved=true fallback=false assign=1,2,3,3,3,1,2,2,0,0,2,1,3,0"),
    ("frontier m=4 n=14 seed=2 step=3", "mk=0x404151945b1551d0 lb=0x4041461f95e7af92 nodes=20385 proved=true fallback=false assign=1,2,3,3,3,1,2,2,0,0,2,1,3,0"),
    ("frontier m=4 n=14 seed=2 step=4", "mk=0x404151945b1551d0 lb=0x4041461f95e7af92 nodes=20505 proved=true fallback=false assign=1,2,3,3,3,1,2,2,0,0,2,1,3,0"),
    ("frontier m=4 n=14 seed=3 step=0", "Infeasible"),
    ("frontier m=4 n=14 seed=3 step=1", "mk=0x4039fbfb04d37f03 lb=0x4039eafe7839b735 nodes=862 proved=true fallback=false assign=0,2,0,1,2,1,2,1,3,2,3,0,0,3"),
    ("frontier m=4 n=14 seed=3 step=2", "mk=0x4039f99ef75c6a0c lb=0x4039eafe7839b735 nodes=904 proved=true fallback=false assign=0,2,0,1,1,1,2,2,3,2,3,0,0,3"),
    ("frontier m=4 n=14 seed=3 step=3", "mk=0x4039f99ef75c6a0c lb=0x4039eafe7839b735 nodes=1002 proved=true fallback=false assign=0,2,0,1,1,1,2,2,3,2,3,0,0,3"),
    ("frontier m=4 n=14 seed=3 step=4", "mk=0x4039f99ef75c6a0c lb=0x4039eafe7839b735 nodes=1024 proved=true fallback=false assign=0,2,0,1,1,1,2,2,3,2,3,0,0,3"),
    ("frontier m=4 n=14 seed=4 step=0", "Infeasible"),
    ("frontier m=4 n=14 seed=4 step=1", "mk=0x403f20bbcd82ab55 lb=0x403ef47d38e8d1a6 nodes=2252 proved=true fallback=false assign=3,2,0,2,1,1,2,0,0,1,0,1,3,3"),
    ("frontier m=4 n=14 seed=4 step=2", "mk=0x403f20bbcd82ab55 lb=0x403ef47d38e8d1a6 nodes=2700 proved=true fallback=false assign=3,2,0,2,1,1,2,0,0,1,0,1,3,3"),
    ("frontier m=4 n=14 seed=4 step=3", "mk=0x403f20b8813c1da0 lb=0x403ef47d38e8d1a6 nodes=2699 proved=true fallback=false assign=2,3,0,1,3,0,3,0,3,1,1,1,2,2"),
    ("frontier m=4 n=14 seed=4 step=4", "mk=0x403f20b8813c1da0 lb=0x403ef47d38e8d1a6 nodes=2816 proved=true fallback=false assign=2,3,0,1,3,0,3,0,3,1,1,1,2,2"),
    ("frontier m=4 n=14 seed=5 step=0", "Infeasible"),
    ("frontier m=4 n=14 seed=5 step=1", "mk=0x403fd62fb380ce6a lb=0x403f4edf4957ee26 nodes=1476 proved=true fallback=false assign=1,1,0,3,3,2,3,1,2,3,1,0,0,2"),
    ("frontier m=4 n=14 seed=5 step=2", "mk=0x403f9ee6c12e1e8c lb=0x403f4edf4957ee26 nodes=1131 proved=true fallback=false assign=3,3,0,1,3,2,3,1,1,2,0,1,0,2"),
    ("frontier m=4 n=14 seed=5 step=3", "mk=0x403f9ee6c12e1e8c lb=0x403f4edf4957ee26 nodes=1221 proved=true fallback=false assign=3,3,0,1,3,2,3,1,1,2,0,1,0,2"),
    ("frontier m=4 n=14 seed=5 step=4", "mk=0x403f9ee6c12e1e8c lb=0x403f4edf4957ee26 nodes=1233 proved=true fallback=false assign=3,3,0,1,3,2,3,1,1,2,0,1,0,2"),
    ("frontier m=4 n=14 seed=6 step=0", "Infeasible"),
    ("frontier m=4 n=14 seed=6 step=1", "mk=0x403c2ce897299e86 lb=0x403bef3251797168 nodes=1622 proved=true fallback=false assign=2,3,0,1,2,3,3,1,1,0,1,3,0,2"),
    ("frontier m=4 n=14 seed=6 step=2", "mk=0x403c2ba234498b31 lb=0x403bef3251797168 nodes=1683 proved=true fallback=false assign=2,1,2,3,0,2,2,1,0,0,3,3,3,1"),
    ("frontier m=4 n=14 seed=6 step=3", "mk=0x403c2ba234498b31 lb=0x403bef3251797168 nodes=1864 proved=true fallback=false assign=2,1,2,3,0,2,2,1,0,0,3,3,3,1"),
    ("frontier m=4 n=14 seed=6 step=4", "mk=0x403c2ba234498b31 lb=0x403bef3251797168 nodes=1893 proved=true fallback=false assign=2,1,2,3,0,2,2,1,0,0,3,3,3,1"),
    ("frontier m=4 n=14 seed=7 step=0", "Infeasible"),
    ("frontier m=4 n=14 seed=7 step=1", "mk=0x4039fa6cf26b2b41 lb=0x4039a6199cf63df4 nodes=2598 proved=true fallback=false assign=3,0,3,0,1,3,2,1,0,1,2,3,2,1"),
    ("frontier m=4 n=14 seed=7 step=2", "mk=0x4039d9aa86541990 lb=0x4039a6199cf63df4 nodes=2257 proved=true fallback=false assign=1,3,3,0,1,3,2,1,0,3,2,0,2,1"),
    ("frontier m=4 n=14 seed=7 step=3", "mk=0x4039b8bc43b76096 lb=0x4039a6199cf63df4 nodes=1762 proved=true fallback=false assign=3,1,3,1,1,0,2,3,0,3,2,3,2,0"),
    ("frontier m=4 n=14 seed=7 step=4", "mk=0x4039b8bc43b76096 lb=0x4039a6199cf63df4 nodes=1316 proved=true fallback=false assign=3,3,1,3,1,0,2,3,0,3,2,3,2,0"),
    ("frontier m=4 n=14 seed=42 step=0", "Infeasible"),
    ("frontier m=4 n=14 seed=42 step=1", "mk=0x4040a4989a1c8f53 lb=0x40408388e01ed7c6 nodes=2433 proved=true fallback=false assign=2,3,0,3,3,0,1,2,3,1,0,1,2,1"),
    ("frontier m=4 n=14 seed=42 step=2", "mk=0x4040a4074be46cab lb=0x40408388e01ed7c6 nodes=2550 proved=true fallback=false assign=2,2,0,3,3,0,1,3,2,1,0,1,2,1"),
    ("frontier m=4 n=14 seed=42 step=3", "mk=0x40409ab5a5c3e25c lb=0x40408388e01ed7c6 nodes=2228 proved=true fallback=false assign=0,0,0,3,2,1,2,1,2,1,3,2,3,3"),
    ("frontier m=4 n=14 seed=42 step=4", "mk=0x40408a360f46ee47 lb=0x40408388e01ed7c6 nodes=1688 proved=true fallback=false assign=0,0,0,2,1,3,3,3,1,1,2,2,3,1"),
    ("scaling m=4 n=6", "mk=0x402e7ceecdf5111d lb=0x402e7ceecdf5111d nodes=0 proved=true fallback=false assign=3,2,2,2,1,0"),
    ("scaling m=4 n=8", "mk=0x40330d06dd184a0a lb=0x40319ee86558073e nodes=15 proved=true fallback=false assign=3,1,1,3,2,2,0,3"),
    ("scaling m=4 n=10", "mk=0x4039346df7258a54 lb=0x4038bacd9ef3f91e nodes=57 proved=true fallback=false assign=2,1,3,0,2,3,1,0,3,0"),
    ("scaling m=4 n=12", "mk=0x40398484f2ef62e8 lb=0x4039071d3b28327f nodes=180 proved=true fallback=false assign=2,1,3,3,0,2,2,0,3,1,0,2"),
    ("scaling m=4 n=16", "mk=0x4043ae7630235368 lb=0x4043a88d7fae3d2f nodes=2538 proved=true fallback=false assign=0,2,1,2,0,1,0,1,3,2,3,1,3,0,2,0"),
    ("scaling m=4 n=24", "mk=0x4045ec07aac1b333 lb=0x4045e715777028c7 nodes=200000 proved=false fallback=true assign=2,0,3,2,1,0,3,0,2,1,2,2,2,1,2,1,3,1,3,3,0,0,3,3"),
    ("unbounded m=2 n=9 seed=5", "mk=0x403fc7e5c0819738 lb=0x403fbb44b4bec39c nodes=55 proved=true fallback=false assign=0,1,0,0,1,1,0,1,0"),
    ("unbounded m=3 n=10 seed=5", "mk=0x4039d5d2f0d9c841 lb=0x40397e9c390913d1 nodes=95 proved=true fallback=false assign=2,1,1,0,2,2,0,0,0,1"),
    ("unbounded m=5 n=12 seed=11", "mk=0x4035cb5ff5af5f55 lb=0x403559fc32a60791 nodes=25 proved=true fallback=false assign=1,2,0,3,2,4,2,1,3,0,4,1"),
    ("unbounded m=4 n=14 seed=42", "mk=0x40408a360f46ee47 lb=0x40408388e01ed7c6 nodes=1689 proved=true fallback=false assign=0,0,0,2,1,3,3,3,1,1,2,2,3,1"),
    ("fallback m=4 n=14 seed=3 step=2 nodes=40", "mk=0x403a3e009c9921bc lb=0x4039eafe7839b735 nodes=40 proved=false fallback=true assign=3,1,0,0,1,3,3,2,3,1,2,1,2,3"),
    ("fallback m=4 n=14 seed=42 step=2 nodes=40", "mk=0x4041e794cc41a003 lb=0x40408388e01ed7c6 nodes=40 proved=false fallback=true assign=3,3,3,2,2,2,2,1,1,1,0,0,0,3"),
    ("no incumbent nodes=1", "ResourceLimit"),
    ("no incumbent nodes=500000", "mk=0x4018000000000000 lb=0x4018000000000000 nodes=7 proved=true fallback=false assign=0,0,1,1,1"),
];

#[test]
fn ilp_outcomes_are_bit_identical_to_golden() {
    let cases = cases();
    let got: Vec<(String, String)> = cases
        .iter()
        .map(|(label, model, nodes)| (label.clone(), outcome(model, *nodes)))
        .collect();
    let listing: Vec<String> = got
        .iter()
        .map(|(label, o)| format!("    ({label:?}, {o:?}),"))
        .collect();
    assert_eq!(
        got.len(),
        GOLDEN.len(),
        "case list changed; current outcomes:\n{}",
        listing.join("\n")
    );
    let mismatches: Vec<String> = got
        .iter()
        .zip(GOLDEN)
        .filter(|((label, o), &(want_label, want))| label != want_label || o != want)
        .map(|((label, o), &(want_label, want))| {
            format!("{want_label}: want {want}\n{label}: got  {o}")
        })
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

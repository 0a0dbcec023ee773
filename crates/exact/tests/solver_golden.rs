//! Golden `OptimalSolver` results: the exact bit patterns of
//! `(lo, hi, certainty)` on a fixed set of seeded instances.
//!
//! - the realizations `rds sweep` brackets: n = 4096, m = 256, α = 1.5,
//!   seeds 3/7/42 × reps 0–2 × the uniform, two-point and inflate
//!   models (MULTIFIT upper side, dual-approximation lower side);
//! - `OptimalSolver::fast()` on mid-sized sweeps and small instances;
//! - n = 15…40 branch-and-bound instances under a small node budget, so
//!   both proved optima and unproven MULTIFIT/B&B incumbents appear;
//! - n ≤ 14 subset-DP instances (`dp ` labels), whose `lo` must also be
//!   the bits `dp::optimal` itself returns.
//!
//! `OptimalSolver::lower_bound` must return the same `lo` bits: every
//! bracket here stays open, and the exact routes are shared.
//!
//! A mismatch means some certified bound moved by even one bit, and with
//! it every competitive ratio that divides by it. The constants are the
//! solver's reference behavior; they must not be re-recorded to absorb a
//! change that was meant to be behavior-preserving.

use rds_core::{Instance, Time, Uncertainty};
use rds_exact::{dp, Certainty, OptimalSolver};
use rds_workloads::{rng, EstimateDistribution, RealizationModel};

/// The realized times `rds sweep --m m --n n --seed seed --model model`
/// brackets in repetition `rep`.
fn sweep_times(n: usize, m: usize, seed: u64, model: RealizationModel, rep: u64) -> Vec<Time> {
    let mut r = rng::rng(seed);
    let est = EstimateDistribution::Uniform { lo: 1.0, hi: 10.0 }.sample_n(n, &mut r);
    let inst = Instance::from_estimates(&est, m).unwrap();
    let mut tr = rng::rng(rng::child_seed(seed, rep));
    model
        .realize(&inst, Uncertainty::of(1.5), &mut tr)
        .unwrap()
        .times()
        .to_vec()
}

/// Seeded small-instance times: uniform reals, or integers in `1..=20`
/// (ties and exact fits).
fn small_times(n: usize, seed: u64, integral: bool) -> Vec<Time> {
    let mut r = rng::rng(seed);
    let raw = EstimateDistribution::Uniform { lo: 1.0, hi: 20.0 }.sample_n(n, &mut r);
    raw.into_iter()
        .map(|v| Time::of(if integral { v.floor() } else { v }))
        .collect()
}

/// Every case: a label, the solver, the times and `m`.
fn cases() -> Vec<(String, OptimalSolver, Vec<Time>, usize)> {
    let models = [
        ("uniform", RealizationModel::UniformFactor),
        ("two-point", RealizationModel::TwoPoint { p_inflate: 0.3 }),
        ("inflate", RealizationModel::AllInflate),
    ];
    let mut out = Vec::new();
    for seed in [3u64, 7, 42] {
        for (name, model) in models {
            for rep in 0..3 {
                out.push((
                    format!("sweep seed={seed} {name} rep={rep}"),
                    OptimalSolver::default(),
                    sweep_times(4096, 256, seed, model, rep),
                    256,
                ));
            }
        }
    }
    for (n, m, seed, name, model) in [
        (1000, 64, 7, "two-point", models[1].1),
        (200, 8, 42, "inflate", models[2].1),
        (300, 16, 3, "uniform", models[0].1),
    ] {
        for rep in 0..2 {
            out.push((
                format!("fast n={n} m={m} seed={seed} {name} rep={rep}"),
                OptimalSolver::fast(),
                sweep_times(n, m, seed, model, rep),
                m,
            ));
        }
    }
    for (n, m, seed) in [(20, 3, 1), (24, 4, 2), (30, 5, 3), (40, 7, 4)] {
        for integral in [false, true] {
            out.push((
                format!("fast small n={n} m={m} seed={seed} integral={integral}"),
                OptimalSolver::fast(),
                small_times(n, seed, integral),
                m,
            ));
        }
    }
    let bnb = OptimalSolver {
        bnb_nodes: 20_000,
        ..OptimalSolver::default()
    };
    for n in [15usize, 18, 22, 27, 33, 40] {
        for m in [2usize, 3, 5, 8] {
            for integral in [false, true] {
                out.push((
                    format!("bnb n={n} m={m} integral={integral}"),
                    bnb,
                    small_times(n, 1000 + (n * 10 + m) as u64, integral),
                    m,
                ));
            }
        }
    }
    out.extend(dp_cases());
    out
}

/// The subset-DP route (`n ≤ dp_limit`): seeded reals and integers over
/// a grid of `n` and `m` (few at n = 14, where the DP is slowest), the
/// `fast()` profile at its limit, the Theorem-1 adversary shape (14 unit
/// tasks on m = 7, the first `b` realized at α = 1.5 and the rest at
/// 1/1.5), twelve equal tasks of 4/3 (inexact in binary, so part sums
/// round), and `m ≥ n`. Every label starts with `dp `.
fn dp_cases() -> Vec<(String, OptimalSolver, Vec<Time>, usize)> {
    let mut out = Vec::new();
    let grid = [6usize, 10, 12]
        .iter()
        .flat_map(|&n| [2usize, 3, 5, 7].map(|m| (n, m)))
        .flat_map(|(n, m)| [false, true].map(|integral| (n, m, integral)))
        .chain([(14, 2, false), (14, 5, true), (14, 7, false)]);
    for (n, m, integral) in grid {
        out.push((
            format!("dp n={n} m={m} integral={integral}"),
            OptimalSolver::default(),
            small_times(n, 2000 + (n * 10 + m) as u64, integral),
            m,
        ));
    }
    for (m, integral) in [(4usize, false), (6, true)] {
        out.push((
            format!("dp fast n=12 m={m} integral={integral}"),
            OptimalSolver::fast(),
            small_times(12, 3000 + m as u64, integral),
            m,
        ));
    }
    let alpha = 1.5f64;
    for b in [2usize, 7, 11] {
        out.push((
            format!("dp adversary n=14 m=7 b={b}"),
            OptimalSolver::default(),
            (0..14)
                .map(|j| Time::of(if j < b { alpha } else { 1.0 / alpha }))
                .collect(),
            7,
        ));
    }
    out.push((
        "dp twelve 4/3 m=6".to_string(),
        OptimalSolver::default(),
        vec![Time::of(4.0 / 3.0); 12],
        6,
    ));
    for (n, m, integral) in [(5usize, 5usize, false), (4, 9, true)] {
        out.push((
            format!("dp m>=n n={n} m={m} integral={integral}"),
            OptimalSolver::default(),
            small_times(n, 4000 + (n * 10 + m) as u64, integral),
            m,
        ));
    }
    out
}

/// `(label, lo bits, hi bits, exact)` recorded before MULTIFIT's FFD
/// passes moved to the tournament tree; the `dp ` entries were recorded
/// with the unpruned `(m−1)·3ⁿ` subset DP.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64, u64, bool)] = &[
    ("sweep seed=3 uniform rep=0", 0x4057f7bea5cef930, 0x4057fa9108469bce, false),
    ("sweep seed=3 uniform rep=1", 0x405831ef7f7bbc40, 0x405834f691282a7c, false),
    ("sweep seed=3 uniform rep=2", 0x40581498bd82bef2, 0x40581780b6164f51, false),
    ("sweep seed=3 two-point rep=0", 0x4054b3d7a4fe478c, 0x4054b681eb33c498, false),
    ("sweep seed=3 two-point rep=1", 0x40544ce0948bbe7e, 0x40544eefacf8f793, false),
    ("sweep seed=3 two-point rep=2", 0x40546baf66000d16, 0x40546e736139cf03, false),
    ("sweep seed=3 inflate rep=0", 0x4060b6301f38bdd5, 0x4060ba29a29edc0f, false),
    ("sweep seed=3 inflate rep=1", 0x4060b6301f38bdd5, 0x4060ba29a29edc0f, false),
    ("sweep seed=3 inflate rep=2", 0x4060b6301f38bdd5, 0x4060ba29a29edc0f, false),
    ("sweep seed=7 uniform rep=0", 0x4057a63834090ebc, 0x4057a9619a6197a4, false),
    ("sweep seed=7 uniform rep=1", 0x4057a8e646b8501a, 0x4057aba099b4efe8, false),
    ("sweep seed=7 uniform rep=2", 0x405781e177f93c2e, 0x40578544e88b942d, false),
    ("sweep seed=7 two-point rep=0", 0x4053a5854fe2ea6f, 0x4053a8cf6c35ed9e, false),
    ("sweep seed=7 two-point rep=1", 0x4053d58f6069e481, 0x4053d87168962f39, false),
    ("sweep seed=7 two-point rep=2", 0x4054107d850b7cf6, 0x405413961c05c92f, false),
    ("sweep seed=7 inflate rep=0", 0x406049521fa7e097, 0x40604dbe682759b5, false),
    ("sweep seed=7 inflate rep=1", 0x406049521fa7e097, 0x40604dbe682759b5, false),
    ("sweep seed=7 inflate rep=2", 0x406049521fa7e097, 0x40604dbe682759b5, false),
    ("sweep seed=42 uniform rep=0", 0x4057f73050c3b497, 0x4057fa645dda1ca6, false),
    ("sweep seed=42 uniform rep=1", 0x4057eec1326f0629, 0x4057f10e75813c7c, false),
    ("sweep seed=42 uniform rep=2", 0x4057faff30cf2a5c, 0x4057fda16fede548, false),
    ("sweep seed=42 two-point rep=0", 0x40542b6c1ac1d76c, 0x40542e65082f720b, false),
    ("sweep seed=42 two-point rep=1", 0x40544be37a69b9b0, 0x40544ea3c8a4be14, false),
    ("sweep seed=42 two-point rep=2", 0x405459b86ce2c17d, 0x40545ce173b234cd, false),
    ("sweep seed=42 inflate rep=0", 0x406098acc56374f4, 0x40609ccfaddab913, false),
    ("sweep seed=42 inflate rep=1", 0x406098acc56374f4, 0x40609ccfaddab913, false),
    ("sweep seed=42 inflate rep=2", 0x406098acc56374f4, 0x40609ccfaddab913, false),
    ("fast n=1000 m=64 seed=7 two-point rep=0", 0x40535ffd43f17df7, 0x4053646c6d0a72e2, false),
    ("fast n=1000 m=64 seed=7 two-point rep=1", 0x4053d1f6d271c1fe, 0x4053d56319148327, false),
    ("fast n=200 m=8 seed=42 inflate rep=0", 0x406a626aba38b0ff, 0x406a65276d6347bb, false),
    ("fast n=200 m=8 seed=42 inflate rep=1", 0x406a626aba38b0ff, 0x406a65276d6347bb, false),
    ("fast n=300 m=16 seed=3 uniform rep=0", 0x405a3cb6dc978729, 0x405a419c910352e2, false),
    ("fast n=300 m=16 seed=3 uniform rep=1", 0x405addb99c7f8714, 0x405ae2b209b66a49, false),
    ("fast small n=20 m=3 seed=1 integral=false", 0x4050c0d34ca09364, 0x4050c0fceec90625, false),
    ("fast small n=20 m=3 seed=1 integral=true", 0x404faaaaaaaaaaab, 0x4050000000000000, false),
    ("fast small n=24 m=4 seed=2 integral=false", 0x405237806a0b7376, 0x40525183604f4de7, false),
    ("fast small n=24 m=4 seed=2 integral=true", 0x4051800000000000, 0x4051c00000000000, false),
    ("fast small n=30 m=5 seed=3 integral=false", 0x404c6de0e2add6aa, 0x404cb4ecc685f5da, false),
    ("fast small n=30 m=5 seed=3 integral=true", 0x404acccccccccccd, 0x404b000000000000, false),
    ("fast small n=40 m=7 seed=4 integral=false", 0x405081d298555800, 0x40509468d7eb79d6, false),
    ("fast small n=40 m=7 seed=4 integral=true", 0x404f6db6db6db6db, 0x4050000000000000, false),
    ("bnb n=15 m=2 integral=false", 0x4051dc93f48296d4, 0x4051dc93f48296d4, true),
    ("bnb n=15 m=2 integral=true", 0x4051000000000000, 0x4051000000000000, true),
    ("bnb n=15 m=3 integral=false", 0x4048e7d234a43511, 0x4048e7d234a43511, true),
    ("bnb n=15 m=3 integral=true", 0x4048000000000000, 0x4048000000000000, true),
    ("bnb n=15 m=5 integral=false", 0x403bc066cdf2f2e0, 0x403bc066cdf2f2e0, true),
    ("bnb n=15 m=5 integral=true", 0x403b000000000000, 0x403b000000000000, true),
    ("bnb n=15 m=8 integral=false", 0x4039b3bdccc1c5aa, 0x4039b3bdccc1c5aa, true),
    ("bnb n=15 m=8 integral=true", 0x4039000000000000, 0x4039000000000000, true),
    ("bnb n=18 m=2 integral=false", 0x4059e88f034867e1, 0x4059e88f034867e1, true),
    ("bnb n=18 m=2 integral=true", 0x4058c00000000000, 0x4058c00000000000, true),
    ("bnb n=18 m=3 integral=false", 0x404d1d25b8f0cb00, 0x404d1fcce78d70f1, false),
    ("bnb n=18 m=3 integral=true", 0x404b800000000000, 0x404b800000000000, true),
    ("bnb n=18 m=5 integral=false", 0x40446757f4ad1edd, 0x40446757f4ad1edd, true),
    ("bnb n=18 m=5 integral=true", 0x4044000000000000, 0x4044000000000000, true),
    ("bnb n=18 m=8 integral=false", 0x4036a25e0d846c06, 0x4036a25e0d846c06, true),
    ("bnb n=18 m=8 integral=true", 0x4036000000000000, 0x4036000000000000, true),
    ("bnb n=22 m=2 integral=false", 0x405ba07d49f50323, 0x405ba07dbd753881, false),
    ("bnb n=22 m=2 integral=true", 0x405a600000000000, 0x405a800000000000, false),
    ("bnb n=22 m=3 integral=false", 0x40527f885e954051, 0x405280e965cc2f0a, false),
    ("bnb n=22 m=3 integral=true", 0x4051800000000000, 0x4051800000000000, true),
    ("bnb n=22 m=5 integral=false", 0x40487e8d90df3702, 0x40488e46ccfdc53d, false),
    ("bnb n=22 m=5 integral=true", 0x4047333333333333, 0x4047800000000000, false),
    ("bnb n=22 m=8 integral=false", 0x403c2cdcac9223d9, 0x403c84ea8fc7660b, false),
    ("bnb n=22 m=8 integral=true", 0x403b000000000000, 0x403b000000000000, true),
    ("bnb n=27 m=2 integral=false", 0x405fbe7dadcc0868, 0x405fbe821463f349, false),
    ("bnb n=27 m=2 integral=true", 0x405de00000000000, 0x405e000000000000, false),
    ("bnb n=27 m=3 integral=false", 0x40584df0ce1487ab, 0x4058526031ef4b95, false),
    ("bnb n=27 m=3 integral=true", 0x4057400000000000, 0x4057400000000000, true),
    ("bnb n=27 m=5 integral=false", 0x4051a63976d07468, 0x4051a8f6906356ec, false),
    ("bnb n=27 m=5 integral=true", 0x40510ccccccccccd, 0x4051400000000000, false),
    ("bnb n=27 m=8 integral=false", 0x40415c8eb10528a4, 0x40416d7a9a62d034, false),
    ("bnb n=27 m=8 integral=true", 0x4040700000000000, 0x4040800000000000, false),
    ("bnb n=33 m=2 integral=false", 0x4068c79fc98d52cd, 0x4068c7a3f10e9f8b, false),
    ("bnb n=33 m=2 integral=true", 0x4067d00000000000, 0x4067e00000000000, false),
    ("bnb n=33 m=3 integral=false", 0x4060c63528b30c93, 0x4060cf944d9cddea, false),
    ("bnb n=33 m=3 integral=true", 0x405feaaaaaaaaaab, 0x4060000000000000, false),
    ("bnb n=33 m=5 integral=false", 0x40505b085fcdb2ae, 0x40506ad38fdd4da5, false),
    ("bnb n=33 m=5 integral=true", 0x404f4ccccccccccd, 0x404f800000000000, false),
    ("bnb n=33 m=8 integral=false", 0x404620fe30d1fdb7, 0x404642d1faccdaf6, false),
    ("bnb n=33 m=8 integral=true", 0x4045400000000000, 0x4045800000000000, false),
    ("bnb n=40 m=2 integral=false", 0x4069e51faa78df8a, 0x4069e5200c709ada, false),
    ("bnb n=40 m=2 integral=true", 0x4068a00000000000, 0x4068a00000000000, true),
    ("bnb n=40 m=3 integral=false", 0x40634d86685aefe3, 0x40634e4aa3a654ea, false),
    ("bnb n=40 m=3 integral=true", 0x40626aaaaaaaaaab, 0x4062800000000000, false),
    ("bnb n=40 m=5 integral=false", 0x40538c45b364ae02, 0x40538eb87d9bfaf5, false),
    ("bnb n=40 m=5 integral=true", 0x405299999999999a, 0x4052c00000000000, false),
    ("bnb n=40 m=8 integral=false", 0x4049790bd18ddc3e, 0x4049a2fd10f8bbcd, false),
    ("bnb n=40 m=8 integral=true", 0x4048400000000000, 0x4048800000000000, false),
    ("dp n=6 m=2 integral=false", 0x403951d2d0c9d6ac, 0x403951d2d0c9d6ac, true),
    ("dp n=6 m=2 integral=true", 0x4037000000000000, 0x4037000000000000, true),
    ("dp n=6 m=3 integral=false", 0x4032777a47f7081a, 0x4032777a47f7081a, true),
    ("dp n=6 m=3 integral=true", 0x4032000000000000, 0x4032000000000000, true),
    ("dp n=6 m=5 integral=false", 0x40327f114335c092, 0x40327f114335c092, true),
    ("dp n=6 m=5 integral=true", 0x4031000000000000, 0x4031000000000000, true),
    ("dp n=6 m=7 integral=false", 0x40337d88700ccbb5, 0x40337d88700ccbb5, true),
    ("dp n=6 m=7 integral=true", 0x4033000000000000, 0x4033000000000000, true),
    ("dp n=10 m=2 integral=false", 0x404c400c6612310a, 0x404c400c6612310a, true),
    ("dp n=10 m=2 integral=true", 0x404b000000000000, 0x404b000000000000, true),
    ("dp n=10 m=3 integral=false", 0x4042d4b83be3c6c7, 0x4042d4b83be3c6c7, true),
    ("dp n=10 m=3 integral=true", 0x4042000000000000, 0x4042000000000000, true),
    ("dp n=10 m=5 integral=false", 0x40319b14eff00eef, 0x40319b14eff00eef, true),
    ("dp n=10 m=5 integral=true", 0x4031000000000000, 0x4031000000000000, true),
    ("dp n=10 m=7 integral=false", 0x40325efbbfa4dcd6, 0x40325efbbfa4dcd6, true),
    ("dp n=10 m=7 integral=true", 0x4032000000000000, 0x4032000000000000, true),
    ("dp n=12 m=2 integral=false", 0x405342e1d01876c4, 0x405342e1d01876c4, true),
    ("dp n=12 m=2 integral=true", 0x4052c00000000000, 0x4052c00000000000, true),
    ("dp n=12 m=3 integral=false", 0x40466a14206722a4, 0x40466a14206722a4, true),
    ("dp n=12 m=3 integral=true", 0x4045800000000000, 0x4045800000000000, true),
    ("dp n=12 m=5 integral=false", 0x403b16c9067442dd, 0x403b16c9067442dd, true),
    ("dp n=12 m=5 integral=true", 0x403a000000000000, 0x403a000000000000, true),
    ("dp n=12 m=7 integral=false", 0x4031952da1a73ee1, 0x4031952da1a73ee1, true),
    ("dp n=12 m=7 integral=true", 0x4030000000000000, 0x4030000000000000, true),
    ("dp n=14 m=2 integral=false", 0x40501eef43634b95, 0x40501eef43634b95, true),
    ("dp n=14 m=5 integral=true", 0x4033000000000000, 0x4033000000000000, true),
    ("dp n=14 m=7 integral=false", 0x40327ed204b57aec, 0x40327ed204b57aec, true),
    ("dp fast n=12 m=4 integral=false", 0x403d53973d0d4520, 0x403d53973d0d4520, true),
    ("dp fast n=12 m=6 integral=true", 0x403c000000000000, 0x403c000000000000, true),
    ("dp adversary n=14 m=7 b=2", 0x4000000000000000, 0x4000000000000000, true),
    ("dp adversary n=14 m=7 b=7", 0x4001555555555555, 0x4001555555555555, true),
    ("dp adversary n=14 m=7 b=11", 0x4008000000000000, 0x4008000000000000, true),
    ("dp twelve 4/3 m=6", 0x4005555555555555, 0x4005555555555555, true),
    ("dp m>=n n=5 m=5 integral=false", 0x402b66700571d801, 0x402b66700571d801, true),
    ("dp m>=n n=4 m=9 integral=true", 0x4026000000000000, 0x4026000000000000, true),
];

#[test]
fn optimal_solver_results_are_bit_identical_to_golden() {
    let cases = cases();
    assert_eq!(cases.len(), GOLDEN.len(), "case list changed");
    let mut mismatches = Vec::new();
    for ((label, solver, times, m), &(want_label, lo, hi, exact)) in cases.iter().zip(GOLDEN) {
        assert_eq!(label, want_label, "case order changed");
        let got = solver.solve(times, *m);
        let got = (
            got.lo.get().to_bits(),
            got.hi.get().to_bits(),
            got.certainty == Certainty::Exact,
        );
        if got != (lo, hi, exact) {
            mismatches.push(format!("{label}: want {:?}, got {got:?}", (lo, hi, exact)));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn lower_bound_returns_the_golden_lo_bits() {
    let cases = cases();
    assert_eq!(cases.len(), GOLDEN.len(), "case list changed");
    let mismatches: Vec<String> = cases
        .iter()
        .zip(GOLDEN)
        .filter_map(|((label, solver, times, m), &(_, lo, _, _))| {
            let got = solver.lower_bound(times, *m).get().to_bits();
            (got != lo).then(|| format!("{label}: want {lo:#018x}, got {got:#018x}"))
        })
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn dp_returns_the_golden_bits_on_its_route() {
    let cases = cases();
    assert_eq!(cases.len(), GOLDEN.len(), "case list changed");
    let mismatches: Vec<String> = cases
        .iter()
        .zip(GOLDEN)
        .filter(|((label, ..), _)| label.starts_with("dp "))
        .filter_map(|((label, _, times, m), &(_, lo, _, _))| {
            let got = dp::optimal(times, *m).unwrap().0.get().to_bits();
            (got != lo).then(|| format!("{label}: want {lo:#018x}, got {got:#018x}"))
        })
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

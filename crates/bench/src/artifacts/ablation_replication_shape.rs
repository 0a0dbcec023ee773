//! **Ablation A2** — does the *shape* of the replica sets matter, or
//! only their size `k`?
//!
//! At a matched per-task budget `k`, compares grouped replication
//! (disjoint sets, the paper's strategy 3) against chained declustering
//! (overlapping rings) and uniformly random `k`-subsets — the "more
//! general replication policies" of the paper's future work.

use super::{summary, threads, Artifact};
use crate::measure_ratio;
use rds_algs::{LsGroup, Strategy};
use rds_core::{Instance, Uncertainty};
use rds_exact::OptimalSolver;
use rds_par::parallel_map;
use rds_policies::{ChainedReplication, RandomKReplication};
use rds_report::{table::fmt, Align, Table};
use rds_workloads::{realize::RealizationModel, rng, EstimateDistribution};

const M: usize = 12;
const ALPHA: f64 = 2.0;
/// Tasks per instance, and random realizations per cell.
const N: usize = 60;
const REPS: usize = 40;

fn mean_ratio<S: Strategy + Sync>(strategy: &S, seed: u64) -> (f64, f64) {
    let unc = Uncertainty::of(ALPHA);
    let solver = OptimalSolver::fast();
    let ratios = parallel_map((0..REPS).collect::<Vec<_>>(), threads(), |rep| {
        let mut r = rng::rng(rng::child_seed(seed, rep as u64));
        let est = EstimateDistribution::Uniform { lo: 1.0, hi: 10.0 }.sample_n(N, &mut r);
        let inst = Instance::from_estimates(&est, M).expect("instance");
        let real = RealizationModel::TwoPoint { p_inflate: 0.3 }
            .realize(&inst, unc, &mut r)
            .expect("realization");
        measure_ratio(strategy, &inst, unc, &real, &solver)
            .expect("strategy")
            .hi
    });
    let s = summary(ratios);
    (s.mean(), s.max())
}

pub fn render() -> rds_core::Result<Artifact> {
    let mut art = Artifact::default();
    art.header("A2 — replica-set shape at matched budget k (m = 12, α = 2)");

    let mut t = Table::new(vec![
        "k (replicas)",
        "grouped mean/max",
        "chained mean/max",
        "random mean/max",
    ])
    .align(vec![Align::Right; 4]);

    for &k in &[2usize, 3, 4, 6] {
        // LS-Group with m/groups = k replicas needs groups = m/k.
        let (g_mean, g_max) = mean_ratio(&LsGroup::new(M / k), 0x1000 + k as u64);
        let chained = ChainedReplication::new(k).expect("static k list");
        let (c_mean, c_max) = mean_ratio(&chained, 0x2000 + k as u64);
        let random = RandomKReplication::new(k, 0xDEAD + k as u64).expect("static k list");
        let (r_mean, r_max) = mean_ratio(&random, 0x3000 + k as u64);
        t.row(vec![
            k.to_string(),
            format!("{} / {}", fmt(g_mean, 3), fmt(g_max, 3)),
            format!("{} / {}", fmt(c_mean, 3), fmt(c_max, 3)),
            format!("{} / {}", fmt(r_mean, 3), fmt(r_max, 3)),
        ]);
    }
    writeln!(art, "{}", t.to_markdown());
    writeln!(
        art,
        "Reading: at equal budget the overlapping shapes (chains, random \
         subsets) typically match or beat disjoint groups — load can spill \
         beyond a group boundary — supporting the paper's conjecture that \
         more general policies can lead to better guarantees."
    );
    Ok(art)
}

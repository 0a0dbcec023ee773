//! **Extension to Figure 3** — measured ratios overlaid on the guarantee
//! curves at the paper's exact parameters (`m = 210`, `α ∈ {1.1, 1.5, 2}`).
//!
//! The paper plots only the *proven* bounds; this experiment executes
//! `LS-Group` at every plotted divisor `k` on a 210-machine simulated
//! system (1260 tasks) under random two-point realizations and a sampled
//! per-machine-inflation adversary, measuring real competitive ratios
//! against certified optimum brackets. The shape claim to verify: the
//! measured curves fall with replication exactly as the guarantees do —
//! just much lower in absolute terms.

use super::{summary, threads, Artifact};
use rds_algs::{LsGroup, Strategy};
use rds_bounds::replication as rb;
use rds_core::{Instance, Realization, TaskId, Uncertainty};
use rds_exact::OptimalSolver;
use rds_par::parallel_map;
use rds_report::{table::fmt, Align, Chart, Csv, Series, Table};
use rds_workloads::{realize::RealizationModel, rng};

const M: usize = 210;
/// Random realizations per cell.
const REPS: usize = 20;
/// Adversary target machines per cell.
const ADV_SAMPLES: usize = 15;

/// Measured statistics for one (α, k) cell.
struct Cell {
    k: usize,
    replicas: usize,
    guarantee: f64,
    mean: f64,
    worst_random: f64,
    worst_adversarial: f64,
}

fn measure_cell(alpha: f64, k: usize) -> Cell {
    let unc = Uncertainty::of(alpha);
    let n = 6 * M;
    let inst = Instance::from_estimates(&vec![1.0; n], M).expect("instance");
    let solver = OptimalSolver::fast();
    let strategy = LsGroup::new(k);
    let placement = strategy.place(&inst, unc).expect("placement");

    // Random two-point realizations.
    let random: Vec<f64> = parallel_map((0..REPS).collect::<Vec<_>>(), threads(), |rep| {
        let mut r = rng::rng(rng::child_seed(0xF3E + k as u64, rep as u64));
        let real = RealizationModel::TwoPoint { p_inflate: 0.3 }
            .realize(&inst, unc, &mut r)
            .expect("realization");
        let a = strategy.execute(&inst, &placement, &real).expect("exec");
        let opt = solver.solve_realization(&real, M);
        a.makespan(&real).ratio(opt.lo).unwrap_or(1.0)
    });

    // Sampled adversary: inflate the tasks of `ADV_SAMPLES` target
    // machines (spread across groups) in turn.
    let base = strategy
        .execute(&inst, &placement, &Realization::exact(&inst))
        .expect("base");
    let stride = (M / ADV_SAMPLES).max(1);
    let targets: Vec<usize> = (0..M).step_by(stride).take(ADV_SAMPLES).collect();
    let adversarial: Vec<f64> = parallel_map(targets, threads(), |target| {
        let factors: Vec<f64> = (0..n)
            .map(|j| {
                if base.machine_of(TaskId::new(j)).index() == target {
                    alpha
                } else {
                    1.0 / alpha
                }
            })
            .collect();
        let real = Realization::from_factors(&inst, unc, &factors).expect("realization");
        let a = strategy.execute(&inst, &placement, &real).expect("exec");
        let opt = solver.solve_realization(&real, M);
        a.makespan(&real).ratio(opt.lo).unwrap_or(1.0)
    });

    let s = summary(random);
    Cell {
        k,
        replicas: M / k,
        guarantee: rb::ls_group(alpha, M, k),
        mean: s.mean(),
        worst_random: s.max(),
        worst_adversarial: adversarial.iter().copied().fold(1.0, f64::max),
    }
}

pub fn render() -> rds_core::Result<Artifact> {
    let mut art = Artifact::default();
    // A representative subset of 210's divisors spanning the x axis.
    let ks = [210usize, 105, 70, 42, 30, 21, 14, 10, 7, 6, 5, 3, 2, 1];
    let mut csv = Csv::new(&[
        "alpha",
        "k",
        "replicas",
        "guarantee",
        "mean",
        "worst_random",
        "worst_adversarial",
    ]);

    for &alpha in &[1.1f64, 1.5, 2.0] {
        art.header(&format!(
            "Figure 3 empirical overlay — m = {M}, alpha = {alpha} ({REPS} reps/cell)"
        ));
        let cells: Vec<Cell> = ks.iter().map(|&k| measure_cell(alpha, k)).collect();
        let mut t = Table::new(vec![
            "k",
            "replicas",
            "Th.4 guarantee",
            "measured mean",
            "worst random",
            "worst adversarial",
        ])
        .align(vec![Align::Right; 6]);
        let mut guarantee_pts = Vec::new();
        let mut adversarial_pts = Vec::new();
        for c in &cells {
            t.row(vec![
                c.k.to_string(),
                c.replicas.to_string(),
                fmt(c.guarantee, 3),
                fmt(c.mean, 3),
                fmt(c.worst_random, 3),
                fmt(c.worst_adversarial, 3),
            ]);
            csv.row_f64(
                &[
                    alpha,
                    c.k as f64,
                    c.replicas as f64,
                    c.guarantee,
                    c.mean,
                    c.worst_random,
                    c.worst_adversarial,
                ],
                6,
            );
            guarantee_pts.push((c.replicas as f64, c.guarantee));
            adversarial_pts.push((c.replicas as f64, c.worst_adversarial));
            // Safety: measurement respects the theorem.
            assert!(
                c.worst_adversarial <= c.guarantee + 1e-6 && c.worst_random <= c.guarantee + 1e-6,
                "alpha={alpha} k={}: bound violated",
                c.k
            );
        }
        writeln!(art, "{}", t.to_markdown());
        let chart = Chart::new(
            format!("guarantee vs measured adversarial (log replicas), α={alpha}"),
            72,
            16,
        )?
        .log_x()
        .series(Series::new("Th.4 guarantee", '#', guarantee_pts))
        .series(Series::new("measured adversarial", '*', adversarial_pts));
        writeln!(art, "{}", chart.render());

        // Shape claim: both curves decrease from 1 replica to m replicas.
        let first = &cells[0]; // k = 210 → 1 replica
        let last = cells.last().unwrap(); // k = 1 → m replicas
        assert!(first.replicas < last.replicas);
        assert!(
            last.worst_adversarial <= first.worst_adversarial + 1e-9,
            "measured adversarial should fall with replication"
        );
        writeln!(
            art,
            "measured adversarial falls {:.3} → {:.3} as replicas go 1 → {M} ✓\n",
            first.worst_adversarial, last.worst_adversarial
        );
    }
    writeln!(art, "CSV:\n{}", csv.finish());
    Ok(art)
}

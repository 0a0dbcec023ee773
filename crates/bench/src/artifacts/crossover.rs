//! **Extension E2** — the `α² = 2` crossover of §5.2.
//!
//! The paper observes that `LPT-No Restriction`'s Theorem-3 guarantee
//! `1 + (m−1)α²/(2m)` beats Graham's `2 − 1/m` exactly when `α² < 2`.
//! This experiment sweeps α across the crossover, printing both
//! guarantee curves, and measures where the *empirical* worst ratios of
//! online-LPT and online-LS actually sit.

use super::{summary, threads, Artifact};
use rds_algs::list_scheduling::{online_list_schedule, online_lpt_by_estimate};
use rds_bounds::replication as rb;
use rds_core::{Instance, TaskId, Uncertainty};
use rds_exact::OptimalSolver;
use rds_par::parallel_map;
use rds_report::{table::fmt, Align, Chart, Csv, Series, Table};
use rds_workloads::{realize::RealizationModel, rng, EstimateDistribution};

pub fn render() -> rds_core::Result<Artifact> {
    let mut art = Artifact::default();
    art.header("E2 — LPT-No Restriction vs Graham LS around α² = 2 (§5.2)");
    let m = 10usize;
    let (reps, n) = (60, 50);

    let alphas: Vec<f64> = (0..=12)
        .map(|i| 1.05f64 + 0.05 * i as f64) // 1.05 .. 1.65, crossing √2 ≈ 1.414
        .collect();

    let mut t = Table::new(vec![
        "alpha",
        "alpha^2",
        "Th.3 bound",
        "Graham bound",
        "winner (theory)",
        "worst LPT-NR",
        "worst LS",
    ])
    .align(vec![Align::Right; 7]);
    let mut csv = Csv::new(&[
        "alpha",
        "th3",
        "graham",
        "measured_lpt_nr_worst",
        "measured_ls_worst",
    ]);
    let mut th3_pts = Vec::new();
    let mut graham_pts = Vec::new();
    let solver = OptimalSolver::fast();

    for &alpha in &alphas {
        let th3 = rb::lpt_no_restriction(alpha, m);
        let graham = rb::graham_list_scheduling(m);
        let unc = Uncertainty::of(alpha);

        let worst: Vec<(f64, f64)> =
            parallel_map((0..reps).collect::<Vec<_>>(), threads(), |rep| {
                let seed =
                    rds_workloads::rng::child_seed(0xCAFE ^ ((alpha * 1000.0) as u64), rep as u64);
                let mut r = rng::rng(seed);
                let est = EstimateDistribution::Uniform { lo: 1.0, hi: 10.0 }.sample_n(n, &mut r);
                let inst = Instance::from_estimates(&est, m).expect("instance");
                let real = RealizationModel::TwoPoint { p_inflate: 0.25 }
                    .realize(&inst, unc, &mut r)
                    .expect("realization");
                let opt = solver.solve_realization(&real, m);
                let lpt_nr = online_lpt_by_estimate(&inst, &real).expect("lpt");
                let order: Vec<TaskId> = inst.task_ids().collect();
                let ls = online_list_schedule(&inst, &order, &real).expect("ls");
                (
                    lpt_nr.makespan(&real).ratio(opt.lo).unwrap_or(1.0),
                    ls.makespan(&real).ratio(opt.lo).unwrap_or(1.0),
                )
            });
        let lpt_worst = summary(worst.iter().map(|w| w.0));
        let ls_worst = summary(worst.iter().map(|w| w.1));

        t.row(vec![
            fmt(alpha, 3),
            fmt(alpha * alpha, 3),
            fmt(th3, 4),
            fmt(graham, 4),
            if th3 < graham { "Th.3" } else { "Graham" }.to_string(),
            fmt(lpt_worst.max(), 4),
            fmt(ls_worst.max(), 4),
        ]);
        csv.row_f64(&[alpha, th3, graham, lpt_worst.max(), ls_worst.max()], 6);
        th3_pts.push((alpha * alpha, th3));
        graham_pts.push((alpha * alpha, graham));

        // Both measured worst cases respect their guarantees.
        assert!(lpt_worst.max() <= th3.min(graham) + 1e-6);
        assert!(ls_worst.max() <= graham + 1e-6);
    }
    writeln!(art, "{}", t.to_markdown());

    let chart = Chart::new(
        format!("guarantees vs α² (m = {m}): crossover at α² = 2"),
        72,
        16,
    )?
    .series(Series::new("Th.3: 1 + (m−1)α²/(2m)", '*', th3_pts.clone()))
    .series(Series::new("Graham: 2 − 1/m", '-', graham_pts));
    writeln!(art, "{}", chart.render());

    // Verify the analytic crossover point.
    let below = rb::lpt_no_restriction((2.0f64).sqrt() - 0.01, m);
    let above = rb::lpt_no_restriction((2.0f64).sqrt() + 0.01, m);
    let g = rb::graham_list_scheduling(m);
    assert!(below < g && above > g);
    writeln!(
        art,
        "analytic crossover confirmed: Th.3 < Graham iff α² < 2 ✓"
    );
    writeln!(art, "\nCSV:\n{}", csv.finish());
    Ok(art)
}

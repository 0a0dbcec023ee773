//! **Figure 1** — the Theorem-1 adversary construction.
//!
//! Reproduces the paper's illustration (λ = 3, m = 6: the online solution
//! after the adversary inflates the most-loaded machine, versus the
//! offline optimal that redistributes the long tasks) and then *measures*
//! the adversary's ratio witness as λ grows, showing convergence to the
//! Theorem-1 bound `α²m/(α² + m − 1)`.

use super::Artifact;
use rds_adversary::theorem1;
use rds_algs::{LptNoChoice, Strategy};
use rds_core::{Realization, Schedule, Uncertainty};
use rds_report::{table::fmt, Align, Chart, Csv, Series, Table};

pub fn render() -> rds_core::Result<Artifact> {
    let mut art = Artifact::default();
    let (lambda, m, alpha) = (3usize, 6usize, 2.0f64);
    art.header(&format!(
        "Figure 1 — adversary instance (λ = {lambda}, m = {m}, α = {alpha})"
    ));

    let inst = theorem1::uniform_instance(lambda, m)?;
    let unc = Uncertainty::of(alpha);
    let assignment = LptNoChoice.run(&inst, unc, &Realization::exact(&inst))?.assignment;
    let attack = theorem1::attack(&inst, unc, &assignment)?;

    writeln!(
        art,
        "online solution (adversary inflated the most-loaded machine by α):"
    );
    let online = Schedule::sequence(&assignment.tasks_per_machine(), &attack.realization);
    writeln!(art, "{}", rds_report::gantt::render(&online, 60));

    writeln!(
        art,
        "offline optimal arrangement (long tasks spread across machines):"
    );
    let solver = rds_exact::OptimalSolver::default();
    let opt = solver.solve_realization(&attack.realization, m);
    let bb = rds_exact::branch_bound::solve(attack.realization.times(), m, 2_000_000);
    let offline = rds_core::Assignment::new(&inst, bb.assignment)?.tasks_per_machine();
    let offline = Schedule::sequence(&offline, &attack.realization);
    writeln!(art, "{}", rds_report::gantt::render(&offline, 60));
    writeln!(
        art,
        "online C_max = {}   offline C* ∈ [{}, {}]   witness ratio ≥ {:.4}\n",
        attack.online_makespan,
        opt.lo,
        opt.hi,
        attack.ratio_witness()
    );

    art.header("Convergence of the adversary witness to the Theorem-1 bound");
    let lambdas = [1usize, 2, 3, 5, 8, 12, 20, 40, 80, 160, 320, 640];
    let bound = theorem1::theorem1_bound(alpha, m);
    let mut t = Table::new(vec![
        "lambda",
        "B",
        "witness ratio",
        "finite-λ formula",
        "Th.1 bound",
    ])
    .align(vec![Align::Right; 5]);
    let mut csv = Csv::new(&["lambda", "witness", "finite_formula", "bound"]);
    let mut pts_witness = Vec::new();
    let mut pts_formula = Vec::new();
    for &l in &lambdas {
        let inst = theorem1::uniform_instance(l, m)?;
        let a = LptNoChoice.run(&inst, unc, &Realization::exact(&inst))?.assignment;
        let atk = theorem1::attack(&inst, unc, &a)?;
        let fin = theorem1::finite_lambda_bound(alpha, m, l);
        t.row(vec![
            l.to_string(),
            atk.b.to_string(),
            fmt(atk.ratio_witness(), 4),
            fmt(fin, 4),
            fmt(bound, 4),
        ]);
        csv.row_f64(&[l as f64, atk.ratio_witness(), fin, bound], 6);
        pts_witness.push((l as f64, atk.ratio_witness()));
        pts_formula.push((l as f64, fin));
        assert!(
            atk.ratio_witness() <= bound + 1e-9,
            "witness must stay below the proven bound"
        );
    }
    writeln!(art, "{}", t.to_markdown());

    let chart = Chart::new(
        format!("adversary witness → α²m/(α²+m−1) = {bound:.4} (log λ)"),
        72,
        16,
    )?
    .log_x()
    .series(Series::new("measured witness", '*', pts_witness))
    .series(Series::new("finite-λ formula", '.', pts_formula));
    writeln!(art, "{}", chart.render());

    writeln!(art, "CSV:\n{}", csv.finish());
    Ok(art)
}

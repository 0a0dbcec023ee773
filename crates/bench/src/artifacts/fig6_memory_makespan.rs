//! **Figure 6** — memory–makespan guarantee tradeoffs.
//!
//! The paper's three panels: `(m=5, α²=2, ρ=4/3)`, `(m=5, α²=3, ρ=1)`,
//! `(m=5, α²=3, ρ=4/3)`. Each shows the `SABO_Δ` and `ABO_Δ` guarantee
//! curves swept over Δ, with the reconstructed zenith impossibility
//! frontier (bold in the paper).

use super::Artifact;
use rds_bounds::memory::impossibility_memory_for_makespan;
use rds_bounds::series::{delta_sweep, figure6_panels};
use rds_report::{table::fmt, Align, Chart, Csv, Series, Table};

pub fn render() -> rds_core::Result<Artifact> {
    let mut art = Artifact::default();
    let deltas = delta_sweep(0.05, 20.0, 33)?;
    let panels = figure6_panels(&deltas)?;
    let mut csv = Csv::new(&[
        "alpha_sq",
        "rho",
        "delta",
        "sabo_makespan",
        "sabo_memory",
        "abo_makespan",
        "abo_memory",
    ]);

    for p in &panels {
        art.header(&format!(
            "Figure 6 panel — m = {}, α² = {}, ρ₁ = ρ₂ = {:.3}",
            p.m, p.alpha_sq, p.rho
        ));
        let mut t = Table::new(vec![
            "delta",
            "SABO (mk, mem)",
            "ABO (mk, mem)",
            "frontier mem@SABO-mk",
        ])
        .align(vec![Align::Right; 4]);
        for (i, &d) in deltas.iter().enumerate().step_by(4) {
            let s = p.sabo[i];
            let a = p.abo[i];
            t.row(vec![
                fmt(d, 3),
                format!("({}, {})", fmt(s.makespan, 2), fmt(s.memory, 2)),
                format!("({}, {})", fmt(a.makespan, 2), fmt(a.memory, 2)),
                fmt(impossibility_memory_for_makespan(s.makespan), 2),
            ]);
        }
        writeln!(art, "{}", t.to_markdown());

        // Clip extreme memory values so the plot stays readable.
        let clipped = |label: &str, glyph: char, pts: Vec<(f64, f64)>| {
            let pts = pts
                .into_iter()
                .filter(|&(x, y)| x <= 25.0 && y <= 25.0)
                .collect();
            Series::new(label, glyph, pts)
        };
        let sabo = clipped(
            "SABO_Δ",
            's',
            p.sabo.iter().map(|q| (q.makespan, q.memory)).collect(),
        );
        let abo = clipped(
            "ABO_Δ",
            'a',
            p.abo.iter().map(|q| (q.makespan, q.memory)).collect(),
        );
        let frontier = clipped(
            "impossibility (reconstructed)",
            '#',
            p.impossibility.clone(),
        );
        let chart = Chart::new(
            format!(
                "memory (y) vs makespan (x) guarantees, α²={}, ρ={:.2}",
                p.alpha_sq, p.rho
            ),
            72,
            18,
        )?
        .series(sabo.clone())
        .series(abo.clone())
        .series(frontier.clone());
        writeln!(art, "{}", chart.render());

        for (i, &d) in deltas.iter().enumerate() {
            csv.row_f64(
                &[
                    p.alpha_sq,
                    p.rho,
                    d,
                    p.sabo[i].makespan,
                    p.sabo[i].memory,
                    p.abo[i].makespan,
                    p.abo[i].memory,
                ],
                6,
            );
        }
        let svg = rds_report::SvgChart::new(
            format!(
                "Figure 6: memory vs makespan guarantees (m={}, α²={}, ρ={:.2})",
                p.m, p.alpha_sq, p.rho
            ),
            720.0,
            440.0,
        )
        .labels("makespan guarantee", "memory guarantee")
        .series(sabo)
        .series(abo)
        .series(frontier)
        .render();
        art.files.push((
            format!("fig6_alphasq{}_rho{:.2}.svg", p.alpha_sq, p.rho),
            svg,
        ));
    }

    art.header("Paper's reading of the figure, checked");
    // For α·ρ₁ ≥ 2 (panels 2 and 3 ⇒ α²ρ₁ = 3, 4): ABO always better on
    // makespan at matched Δ; SABO always better on memory.
    for p in &panels[1..] {
        for i in 0..deltas.len() {
            assert!(p.abo[i].makespan < p.sabo[i].makespan + 1e-12);
            assert!(p.sabo[i].memory < p.abo[i].memory);
        }
    }
    writeln!(
        art,
        "α²ρ₁ ≥ 2 panels: ABO dominates makespan, SABO dominates memory ✓"
    );
    // A makespan guarantee below 3 in panel 2 is only reachable via ABO.
    let p2 = &panels[1];
    let sabo_best_mk = p2.sabo.iter().map(|q| q.makespan).fold(f64::MAX, f64::min);
    let abo_best_mk = p2.abo.iter().map(|q| q.makespan).fold(f64::MAX, f64::min);
    writeln!(
        art,
        "panel (α²=3, ρ=1): best reachable makespan guarantee — SABO {:.2}, ABO {:.2}",
        sabo_best_mk, abo_best_mk
    );
    assert!(abo_best_mk < 3.0 && sabo_best_mk > 3.0);

    writeln!(art, "\nCSV:\n{}", csv.finish());
    Ok(art)
}

//! **Figure 3** — ratio-replication tradeoff, `m = 210`,
//! `α ∈ {1.1, 1.5, 2}`.
//!
//! For each panel: the Theorem-1 lower bound and Theorem-2 guarantee at
//! one replica, the LS-Group guarantee at every divisor `k | m`
//! (`|M_j| = m/k` replicas), and the Theorem-3/Graham guarantees at full
//! replication — the exact series behind the paper's three subfigures.

use super::{label_then_numbers, Artifact};
use rds_bounds::series::{figure3_panels, RatioReplicationPanel};
use rds_report::{table::fmt, Chart, Csv, Series, Table};

/// Prints one panel's table and chart, and draws its SVG.
fn panel(art: &mut Artifact, p: &RatioReplicationPanel) -> rds_core::Result<()> {
    art.header(&format!(
        "Figure 3 panel — m = {}, alpha = {}",
        p.m, p.alpha
    ));
    // The single-point series, in table order around LS-Group's rows:
    // (table and SVG label, chart label, glyph, replicas, ratio).
    #[rustfmt::skip]
    let points = [
        ("Th.1 lower bound", "Th.1 LB @1", 'L', 1, p.lower_bound.ratio),
        ("LPT-No Choice (Th.2)", "LPT-No Choice @1", 'C', 1, p.lpt_no_choice.ratio),
        ("LPT-No Restriction (Th.3)", "LPT-No Restriction @m", 'R', p.m, p.lpt_no_restriction.ratio),
        ("Graham LS", "Graham @m", 'G', p.m, p.graham.ratio),
    ];
    let point_row = |&(label, _, _, replicas, ratio): &(&str, &str, char, usize, f64)| {
        vec![
            label.to_string(),
            "-".into(),
            replicas.to_string(),
            fmt(ratio, 4),
        ]
    };
    let mut t = Table::new(vec!["series", "k", "replicas |M_j|", "guaranteed ratio"])
        .align(label_then_numbers(3));
    for q in &points[..2] {
        t.row(point_row(q));
    }
    for pt in &p.ls_group {
        t.row(vec![
            "LS-Group (Th.4)".to_string(),
            pt.k.unwrap().to_string(),
            pt.replicas.to_string(),
            fmt(pt.ratio, 4),
        ]);
    }
    for q in &points[2..] {
        t.row(point_row(q));
    }
    writeln!(art, "{}", t.to_markdown());

    let ls_pts: Vec<(f64, f64)> = p
        .ls_group
        .iter()
        .map(|pt| (pt.replicas as f64, pt.ratio))
        .collect();
    let chart = Chart::new(
        format!("ratio vs replicas (log x), m={}, α={}", p.m, p.alpha),
        72,
        18,
    )?
    .log_x()
    .series(Series::new("LS-Group(k)", '*', ls_pts.clone()));
    let chart = points.iter().fold(chart, |c, &(_, label, glyph, x, y)| {
        c.series(Series::new(label, glyph, vec![(x as f64, y)]))
    });
    writeln!(art, "{}", chart.render());

    // Publication-style SVG alongside the terminal rendering.
    let svg = rds_report::SvgChart::new(
        format!("Figure 3: ratio vs replication (m={}, α={})", p.m, p.alpha),
        720.0,
        440.0,
    )
    .log_x()
    .labels(
        "replicas per task |M_j| (log)",
        "guaranteed competitive ratio",
    )
    .series(Series::new("LS-Group (Th.4)", '*', ls_pts));
    let svg = points.iter().fold(svg, |c, &(label, _, glyph, x, y)| {
        c.series(Series::new(label, glyph, vec![(x as f64, y)]))
    });
    let svg = svg.render();
    art.files.push((format!("fig3_alpha{}.svg", p.alpha), svg));
    Ok(())
}

pub fn render() -> rds_core::Result<Artifact> {
    let mut art = Artifact::default();
    let panels = figure3_panels()?;
    let mut csv = Csv::new(&["alpha", "k", "replicas", "ls_group_ratio"]);
    for p in &panels {
        panel(&mut art, p)?;
        for pt in &p.ls_group {
            csv.row_f64(
                &[p.alpha, pt.k.unwrap() as f64, pt.replicas as f64, pt.ratio],
                6,
            );
        }
    }

    art.header("Paper's qualitative observations, checked");
    // α = 1.1: little improvement from grouping over no-choice…
    let a11 = &panels[0];
    let best_group = a11
        .ls_group
        .iter()
        .map(|p| p.ratio)
        .fold(f64::MAX, f64::min);
    writeln!(
        art,
        "α=1.1: LPT-No Choice {:.3} vs best LS-Group {:.3} (small gap), \
         LPT-No Restriction {:.3} (clear winner)",
        a11.lpt_no_choice.ratio, best_group, a11.lpt_no_restriction.ratio
    );
    assert!(a11.lpt_no_restriction.ratio < best_group);

    // α = 1.5: LS-Group(k=1) ≈ LPT-No Restriction.
    let a15 = &panels[1];
    let k1 = a15.ls_group.iter().find(|p| p.k == Some(1)).unwrap();
    writeln!(
        art,
        "α=1.5: LS-Group(k=1) {:.3} ≈ LPT-No Restriction {:.3}",
        k1.ratio, a15.lpt_no_restriction.ratio
    );
    assert!((k1.ratio - a15.lpt_no_restriction.ratio).abs() < 0.15);

    // α = 2: a few replicas beat the no-replication lower bound; ratio
    // falls from > 7.5 at 1 replica to < 6 at 3 replicas.
    let a2 = &panels[2];
    let at1 = a2.ls_group.iter().find(|p| p.replicas == 1).unwrap().ratio;
    let at3 = a2.ls_group.iter().find(|p| p.replicas == 3).unwrap().ratio;
    let winning = a2
        .ls_group
        .iter()
        .find(|p| p.ratio < a2.lower_bound.ratio)
        .unwrap();
    writeln!(
        art,
        "α=2: 1 replica → {at1:.2}, 3 replicas → {at3:.2}; beats the \
         no-replication LB ({:.2}) with only {} replicas",
        a2.lower_bound.ratio, winning.replicas
    );
    assert!(at1 > 7.5 && at3 < 6.0 && winning.replicas < 50);

    writeln!(art, "\nCSV:\n{}", csv.finish());
    Ok(art)
}

//! **Table 1** — summary of the replication-bound model guarantees.
//!
//! Regenerates the paper's Table 1 (the approximation-ratio summary) and
//! evaluates each formula at the figure parameters `m = 210`,
//! `α ∈ {1.1, 1.5, 2}` so the abstract formulas become concrete numbers.
//!
use super::Artifact;
use rds_bounds::replication as rb;
use rds_report::{table::fmt, Align, Table};

pub fn render() -> rds_core::Result<Artifact> {
    let mut art = Artifact::default();
    art.header("Table 1 — Summary of the replication-bound model (paper, §7)");

    let mut t = Table::new(vec!["Replication", "Result", "Formula"]);
    t.row(vec![
        "|M_j| = 1",
        "LPT-No Choice ratio (Th. 2)",
        "2α²m/(2α² + m − 1)",
    ]);
    t.row(vec![
        "|M_j| = 1",
        "No algorithm better than (Th. 1)",
        "α²m/(α² + m − 1)",
    ]);
    t.row(vec![
        "|M_j| = m",
        "LPT-No Restriction ratio (Th. 3)",
        "1 + ((m−1)/m)·α²/2",
    ]);
    t.row(vec!["|M_j| = m", "List Scheduling [Graham66]", "2 − 1/m"]);
    t.row(vec![
        "|M_j| = m/k",
        "LS-Group ratio (Th. 4)",
        "(kα²/(α²+k−1))(1 + (k−1)/m) + (m−k)/m",
    ]);
    writeln!(art, "{}", t.to_markdown());

    art.header("Table 1 evaluated at m = 210 (Figure 3 parameters)");
    let m = 210;
    let mut v = Table::new(vec![
        "alpha",
        "Th.1 LB",
        "Th.2 LPT-NC",
        "Th.3 LPT-NR",
        "Graham LS",
        "Th.4 k=2",
        "Th.4 k=10",
        "Th.4 k=m",
    ])
    .align(vec![Align::Right; 8]);
    for &alpha in &[1.1, 1.5, 2.0] {
        v.row(vec![
            fmt(alpha, 1),
            fmt(rb::lower_bound_no_replication(alpha, m), 4),
            fmt(rb::lpt_no_choice(alpha, m), 4),
            fmt(rb::lpt_no_restriction(alpha, m), 4),
            fmt(rb::graham_list_scheduling(m), 4),
            fmt(rb::ls_group(alpha, m, 2), 4),
            fmt(rb::ls_group(alpha, m, 10), 4),
            fmt(rb::ls_group(alpha, m, m), 4),
        ]);
    }
    writeln!(art, "{}", v.to_markdown());

    art.header("Sanity relations asserted");
    for &alpha in &[1.1, 1.5, 2.0] {
        assert!(rb::lower_bound_no_replication(alpha, m) <= rb::lpt_no_choice(alpha, m));
        assert!(rb::ls_group(alpha, m, 1) <= rb::ls_group(alpha, m, m));
        writeln!(
            art,
            "alpha = {alpha}: LB ≤ Th.2 ✓   LS-Group monotone in k ✓   \
             gap(Th.2 − Th.1) = {:.4}",
            rb::lpt_no_choice(alpha, m) - rb::lower_bound_no_replication(alpha, m)
        );
    }
    Ok(art)
}

//! **Table 2** — summary of the memory-aware model guarantees.
//!
//! Regenerates the paper's Table 2 (`SABO_Δ` and `ABO_Δ` approximation
//! pairs, Theorems 5–8) and evaluates the formulas on the Figure 6
//! parameter grid.

use super::Artifact;
use rds_bounds::memory as mb;
use rds_report::{table::fmt, Align, Table};

pub fn render() -> rds_core::Result<Artifact> {
    let mut art = Artifact::default();
    art.header("Table 2 — Summary of the memory-aware model (paper, §7.3)");
    let mut t = Table::new(vec![
        "Algorithm",
        "Approx. on makespan",
        "Approx. on memory",
    ]);
    t.row(vec![
        "SABO_Δ",
        "(1 + Δ)·α²·ρ₁ (Th. 5)",
        "(1 + 1/Δ)·ρ₂ (Th. 6)",
    ]);
    t.row(vec![
        "ABO_Δ",
        "2 − 1/m + Δ·α²·ρ₁ (Th. 7)",
        "(1 + m/Δ)·ρ₂ (Th. 8)",
    ]);
    writeln!(art, "{}", t.to_markdown());

    art.header("Evaluated on the Figure 6 parameter grid (m = 5)");
    let m = 5usize;
    let grid: &[(f64, f64)] = &[(2.0, 4.0 / 3.0), (3.0, 1.0), (3.0, 4.0 / 3.0)];
    for &(alpha_sq, rho) in grid {
        let alpha = alpha_sq.sqrt();
        writeln!(art, "α² = {alpha_sq}, ρ₁ = ρ₂ = {rho:.3}:");
        let mut v = Table::new(vec![
            "delta",
            "SABO makespan",
            "SABO memory",
            "ABO makespan",
            "ABO memory",
        ])
        .align(vec![Align::Right; 5]);
        for &delta in &[0.25, 0.5, 1.0, 2.0, 4.0] {
            v.row(vec![
                fmt(delta, 2),
                fmt(mb::sabo_makespan(delta, alpha, rho), 3),
                fmt(mb::sabo_memory(delta, rho), 3),
                fmt(mb::abo_makespan(delta, alpha, rho, m), 3),
                fmt(mb::abo_memory(delta, rho, m), 3),
            ]);
        }
        writeln!(art, "{}", v.to_markdown());
        writeln!(
            art,
            "ABO beats SABO on makespan for every Δ: {} (condition α²ρ₁ > 2 − 1/m)\n",
            mb::abo_beats_sabo_on_makespan(alpha, rho, m)
        );
    }

    art.header("Structural checks");
    // SABO always better on memory; condition governs makespan dominance.
    for &(alpha_sq, rho) in grid {
        let alpha = alpha_sq.sqrt();
        for &delta in &[0.25, 1.0, 4.0] {
            assert!(mb::sabo_memory(delta, rho) < mb::abo_memory(delta, rho, m));
            if mb::abo_beats_sabo_on_makespan(alpha, rho, m) {
                assert!(
                    mb::abo_makespan(delta, alpha, rho, m) < mb::sabo_makespan(delta, alpha, rho)
                );
            }
        }
    }
    writeln!(art, "SABO dominates on memory for all Δ ✓");
    writeln!(art, "ABO dominates on makespan whenever α²ρ₁ > 2 − 1/m ✓");
    Ok(art)
}

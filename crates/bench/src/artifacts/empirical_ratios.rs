//! **Extension E1** — measured competitive ratios vs proven guarantees.
//!
//! The paper is purely theoretical; this experiment executes every
//! strategy on the simulator under adversarial and random realizations
//! and verifies that the measured competitive ratios (against the exact
//! solver's optimum bracket) never exceed the proven bounds — and shows
//! how much slack typical instances leave.

use super::{label_then_numbers, summary, threads, Artifact};
use crate::measure_ratio;
use rds_adversary::worst_case;
use rds_algs::{LptNoChoice, LptNoRestriction, LsGroup, Strategy};
use rds_bounds::replication as rb;
use rds_core::{Instance, Realization, Uncertainty};
use rds_exact::OptimalSolver;
use rds_par::parallel_map;
use rds_report::{table::fmt, Csv, Table};
use rds_workloads::{realize::RealizationModel, rng};

/// Random realizations per case, and tasks per instance.
const REPS: usize = 40;
const N: usize = 60;

struct Case {
    strategy_name: String,
    alpha: f64,
    m: usize,
    guarantee: f64,
    mean_ratio: f64,
    max_ratio_hi: f64,
    adversarial_ratio: f64,
}

fn run_strategy_case<S: Strategy + Sync>(
    strategy: &S,
    guarantee: f64,
    m: usize,
    alpha: f64,
    seed: u64,
) -> Case {
    let unc = Uncertainty::of(alpha);
    let solver = OptimalSolver::fast();

    // Random two-point and uniform realizations.
    let results = parallel_map(
        (0..REPS).collect::<Vec<_>>(),
        threads(),
        |rep| -> (f64, f64) {
            let child = rds_workloads::rng::child_seed(seed, rep as u64);
            let mut r = rng::rng(child);
            let est = rds_workloads::EstimateDistribution::Uniform { lo: 1.0, hi: 10.0 }
                .sample_n(N, &mut r);
            let inst = Instance::from_estimates(&est, m).expect("valid instance");
            let model = if rep % 2 == 0 {
                RealizationModel::TwoPoint { p_inflate: 0.3 }
            } else {
                RealizationModel::UniformFactor
            };
            let real = model
                .realize(&inst, unc, &mut r)
                .expect("valid realization");
            let mr = measure_ratio(strategy, &inst, unc, &real, &solver).expect("strategy runs");
            (mr.lo, mr.hi)
        },
    );
    let mean = summary(results.iter().map(|(lo, hi)| 0.5 * (lo + hi)));
    let max_hi = results.iter().map(|r| r.1).fold(0.0, f64::max);

    // Adversarial: inflate each machine's task set in turn against the
    // strategy's own balanced assignment on a uniform instance.
    let inst = Instance::from_estimates(&vec![1.0; 4 * m], m).expect("valid instance");
    let placement = strategy.place(&inst, unc).expect("placement");
    let balanced = strategy
        .execute(&inst, &placement, &Realization::exact(&inst))
        .expect("execution");
    let adversarial = worst_case::worst_over_inflate_sets(
        &inst,
        unc,
        strategy,
        &balanced.tasks_per_machine(),
        &solver,
    )
    .expect("adversary runs")
    .ratio_hi;

    Case {
        strategy_name: strategy.name(),
        alpha,
        m,
        guarantee,
        mean_ratio: mean.mean(),
        max_ratio_hi: max_hi,
        adversarial_ratio: adversarial,
    }
}

pub fn render() -> rds_core::Result<Artifact> {
    let mut art = Artifact::default();
    art.header("E1 — measured competitive ratios vs proven guarantees");
    let ms: &[usize] = &[6, 12];
    let alphas: &[f64] = &[1.1, 1.5, 2.0];

    let mut cases: Vec<Case> = Vec::new();
    for &m in ms {
        for &alpha in alphas {
            cases.push(run_strategy_case(
                &LptNoChoice,
                rb::lpt_no_choice(alpha, m),
                m,
                alpha,
                0xC0FFEE,
            ));
            for k in rb::group_counts(m) {
                if k == 1 || k == m {
                    continue;
                }
                cases.push(run_strategy_case(
                    &LsGroup::new(k),
                    rb::ls_group(alpha, m, k),
                    m,
                    alpha,
                    0xBEEF + k as u64,
                ));
            }
            cases.push(run_strategy_case(
                &LptNoRestriction,
                rb::lpt_no_restriction_best(alpha, m),
                m,
                alpha,
                0xF00D,
            ));
        }
    }

    let mut t = Table::new(vec![
        "strategy",
        "m",
        "alpha",
        "guarantee",
        "mean ratio",
        "max ratio",
        "adversarial",
        "reps",
    ])
    .align(label_then_numbers(7));
    let mut csv = Csv::new(&[
        "strategy",
        "m",
        "alpha",
        "guarantee",
        "mean",
        "max",
        "adversarial",
    ]);
    let mut violations = 0usize;
    for c in &cases {
        let violated =
            c.max_ratio_hi > c.guarantee + 1e-6 || c.adversarial_ratio > c.guarantee + 1e-6;
        if violated {
            violations += 1;
        }
        t.row(vec![
            format!("{}{}", c.strategy_name, if violated { " !!" } else { "" }),
            c.m.to_string(),
            fmt(c.alpha, 1),
            fmt(c.guarantee, 3),
            fmt(c.mean_ratio, 3),
            fmt(c.max_ratio_hi, 3),
            fmt(c.adversarial_ratio, 3),
            REPS.to_string(),
        ]);
        csv.row(&[
            c.strategy_name.clone(),
            c.m.to_string(),
            format!("{}", c.alpha),
            format!("{:.6}", c.guarantee),
            format!("{:.6}", c.mean_ratio),
            format!("{:.6}", c.max_ratio_hi),
            format!("{:.6}", c.adversarial_ratio),
        ]);
    }
    writeln!(art, "{}", t.to_markdown());
    writeln!(
        art,
        "guarantee violations: {violations} (expected 0 — every measured ratio \
         must respect its theorem)"
    );
    assert_eq!(violations, 0, "a proven bound was violated empirically");

    art.header("Replication helps: same adversary, decreasing replication budget");
    // On a fixed m, compare adversarial ratios across the spectrum.
    let m = ms[0];
    let alpha = 2.0;
    let rows: Vec<&Case> = cases
        .iter()
        .filter(|c| c.m == m && (c.alpha - alpha).abs() < 1e-9)
        .collect();
    for c in &rows {
        writeln!(
            art,
            "{:<24} adversarial ratio {:.3}  (guarantee {:.3})",
            c.strategy_name, c.adversarial_ratio, c.guarantee
        );
    }
    // The no-choice strategy must be strictly more vulnerable than the
    // fully replicated one.
    let nc = rows
        .iter()
        .find(|c| c.strategy_name.contains("No Choice"))
        .unwrap();
    let nr = rows
        .iter()
        .find(|c| c.strategy_name.contains("No Restriction"))
        .unwrap();
    assert!(
        nr.adversarial_ratio <= nc.adversarial_ratio + 1e-9,
        "replication should blunt the adversary"
    );
    writeln!(art, "\nCSV:\n{}", csv.finish());
    Ok(art)
}

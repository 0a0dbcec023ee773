//! Out-of-core iterative solver: the paper's motivating application.
//!
//! An iterative solver sweeps the same set of matrix-block tasks every
//! iteration ([Zhou12]): the data placement is decided *once* (phase 1,
//! paying the replication cost), then every iteration re-schedules online
//! under fresh runtime noise (phase 2). Replication cost is amortized
//! across iterations while the adaptivity benefit repeats every sweep.
//!
//! Run: `cargo run --release --example out_of_core_solver`

use replicated_placement::prelude::*;
use replicated_placement::report::{table::fmt, Align, Summary, Table};
use replicated_placement::workloads::{realize::RealizationModel, rng, scenarios};

fn main() -> Result<()> {
    let iterations = 30;
    let scenario = scenarios::out_of_core_spmv(120, 12, 7)?;
    let inst = &scenario.instance;
    let unc = scenario.uncertainty;
    println!(
        "out-of-core SpMV: n = {}, m = {}, α = {} ({} iterations)",
        inst.n(),
        inst.m(),
        unc.alpha(),
        iterations
    );

    // Phase 1 once per strategy.
    let strategies: Vec<(Box<dyn Strategy>, &str)> = vec![
        (Box::new(LptNoChoice), "LPT-No Choice"),
        (Box::new(LsGroup::new(6)), "LS-Group(k=6)"),
        (Box::new(LsGroup::new(3)), "LS-Group(k=3)"),
        (Box::new(LptNoRestriction), "LPT-No Restriction"),
    ];

    let solver = OptimalSolver::fast();
    let mut table = Table::new(vec![
        "strategy",
        "replicas/task",
        "mean C_max",
        "p95 ratio",
        "total sweep time",
    ])
    .align(vec![
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);

    for (strategy, label) in &strategies {
        let placement = strategy.place(inst, unc)?;
        let mut makespans = Summary::new();
        let mut ratios = Vec::new();
        let mut total = 0.0;
        for it in 0..iterations {
            // Fresh runtime noise per sweep: cache state, I/O contention…
            let mut r = rng::rng(rng::child_seed(1234, it));
            let real = RealizationModel::LogUniformFactor.realize(inst, unc, &mut r)?;
            let assignment = strategy.execute(inst, &placement, &real)?;
            assignment.check_feasible(&placement)?;
            let cmax = assignment.makespan(&real);
            let opt = solver.solve_realization(&real, inst.m());
            makespans.push(cmax.get());
            ratios.push(cmax.ratio(opt.lo).unwrap_or(1.0));
            total += cmax.get();
        }
        table.row(vec![
            label.to_string(),
            placement.max_replicas().to_string(),
            fmt(makespans.mean(), 2),
            fmt(quantile(&mut ratios, 0.95), 3),
            fmt(total, 1),
        ]);
    }
    println!("\n{}", table.to_markdown());
    println!(
        "Reading: more replication ⇒ better (and more stable) sweep times; \
         the placement cost is paid once, the adaptivity gain {iterations}×."
    );
    Ok(())
}

/// Linear-interpolation `q`-quantile of a non-empty sample (sorts it).
fn quantile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    let frac = pos - lo as f64;
    values[lo] * (1.0 - frac) + values[hi] * frac
}

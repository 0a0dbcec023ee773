//! `sweep`: the paper's headline experiment, `rds sweep`. Mostly the
//! fault-free `ResilienceEngine` and the `OptimalSolver` bracket.

use super::{core_err, mean, rds, words, Pass, Spec, Workload};
use crate::tables::{self, SWEEP};
use crate::trace;
use rds_core::{Instance, Uncertainty};
use rds_exact::OptimalSolver;
use rds_par::{supervise, Supervised, WatchdogPolicy};
use rds_policies::{aggregate_row, standard_suite, TrialMeasurement};
use rds_report::table::fmt;
use rds_sim::faults::FaultScript;
use rds_sim::ResilienceEngine;
use rds_workloads::{realize::RealizationModel, rng, EstimateDistribution};
use std::sync::Arc;

const M: usize = 256;
const N: usize = 4096;
/// Repetitions per pass: 5 policies × 2 reps = 10 trials, ~0.2 s. Short
/// passes let the reference kernel timed around each follow the
/// machine's speed closely.
const REPS: u64 = 2;
const ALPHA: f64 = 1.5;

pub const SPEC: Spec = Spec {
    name: "sweep",
    item: "trial (one policy on one realization)",
    quality: "mean over policies of the printed mean ratio C_max / C*_lo",
    min_passes: 6,
    repeat_check: false,
    build: || Box::new(Sweep),
};

struct Sweep;

/// The instance `rds sweep` builds for `seed`.
fn instance(seed: u64) -> Result<(Instance, Uncertainty), String> {
    let mut r = rng::rng(seed);
    let est = EstimateDistribution::Uniform { lo: 1.0, hi: 10.0 }.sample_n(N, &mut r);
    let inst = Instance::from_estimates(&est, M).map_err(core_err)?;
    Ok((inst, Uncertainty::new(ALPHA).map_err(core_err)?))
}

/// The checked result rows, as printed: (policy, runs, mean, worst).
fn finish(rows: Vec<[String; 4]>) -> Result<Pass, String> {
    let mut means = Vec::new();
    for [policy, runs, mean_ratio, worst_ratio] in &rows {
        if runs != &REPS.to_string() {
            return Err(format!(
                "sweep: {policy} ran {runs} of {REPS} trials (quarantined)"
            ));
        }
        for cell in [mean_ratio, worst_ratio] {
            let ratio: f64 = cell
                .parse()
                .map_err(|_| format!("sweep: {policy} ratio {cell:?} is not a number"))?;
            if ratio < 1.0 - 1e-9 {
                return Err(format!("sweep: {policy} ratio {ratio} beats the optimum"));
            }
        }
        means.push(mean_ratio.parse::<f64>().unwrap_or(f64::NAN));
    }
    Ok(Pass {
        items: rows.len() as u64 * REPS,
        quality: mean(&means),
        key: format!("{rows:?}"),
        ..Pass::default()
    })
}

impl Workload for Sweep {
    fn setup(&mut self, seed: u64) -> Result<(), String> {
        let (inst, unc) = instance(seed)?;
        std::hint::black_box(standard_suite(&inst, unc).map_err(core_err)?);
        Ok(())
    }

    fn pass(&mut self, seed: u64, traced: bool) -> Result<Pass, String> {
        if !traced {
            let out = rds(&words(&format!(
                "sweep --m {M} --n {N} --reps {REPS} --seed {seed}"
            )))?;
            if out.contains("quarantined trials") {
                return Err(format!("sweep: quarantined trials\n{out}"));
            }
            let t = tables::parse(&out, SWEEP)?;
            let rows = (0..t.rows.len())
                .map(|r| {
                    ["policy", "runs", "mean ratio", "worst ratio"]
                        .map(|c| t.cell(r, c).to_string())
                })
                .collect();
            return finish(rows);
        }

        // The command's loop, through the same public calls.
        let (inst, unc) = instance(seed)?;
        let suite = trace::timed("algs.place", || standard_suite(&inst, unc)).map_err(core_err)?;
        let inst = Arc::new(inst);
        let watchdog = WatchdogPolicy::default();
        let mut measured: Vec<Vec<TrialMeasurement>> = vec![Vec::new(); suite.len()];
        for rep in 0..REPS {
            let trial_seed = rng::child_seed(seed, rep);
            let mut tr = rng::rng(trial_seed);
            let real = trace::timed("workloads.realize", || {
                RealizationModel::UniformFactor.realize(&inst, unc, &mut tr)
            })
            .map_err(core_err)?;
            let opt_lo = {
                let _s = trace::span("exact.bracket");
                OptimalSolver::default()
                    .solve_realization(&real, M)
                    .lo
                    .get()
            };
            let real = Arc::new(real);
            for (policy, out) in suite.iter().zip(&mut measured) {
                let (inst, policy, real) = (
                    Arc::clone(&inst),
                    Arc::new(policy.clone()),
                    Arc::clone(&real),
                );
                let guard = trace::span("par.supervise");
                let outcome = supervise(&watchdog, trial_seed, move |_token| {
                    let mut d = {
                        let _s = trace::span("sim.dispatcher");
                        policy.dispatcher(&inst)
                    };
                    let report = trace::timed("sim.faults.baseline", || {
                        ResilienceEngine::new(
                            &inst,
                            &policy.placement,
                            &real,
                            &FaultScript::empty(),
                        )?
                        .run(d.as_mut())
                    })?;
                    Ok(report.metrics.makespan.get())
                });
                match outcome {
                    Supervised::Done { value, .. } => out.push(TrialMeasurement {
                        completed: true,
                        survival: 1.0,
                        restarts: 0.0,
                        rejoins: 0.0,
                        spec_started: 0.0,
                        spec_wins: 0.0,
                        cancelled: 0.0,
                        wasted: 0.0,
                        makespan: value,
                        baseline: opt_lo,
                    }),
                    Supervised::Quarantined { .. } => guard.fail(),
                }
            }
        }
        let rows = suite
            .iter()
            .zip(&measured)
            .map(|(policy, m)| {
                let row = aggregate_row(&policy.name, policy.placement.max_replicas(), m);
                [
                    row.name,
                    row.runs.to_string(),
                    fmt(row.mean_degradation, 4),
                    fmt(row.worst_degradation, 4),
                ]
            })
            .collect();
        finish(rows)
    }
}

//! `resilience`: `rds resilience --validate --journal`, the fault engine
//! with MTBF faults and speculation, the schedule validator, and an
//! fsync on every journal record.

use super::{core_err, mean, out_dir, rds, words, Pass, Spec, Workload};
use crate::tables::{self, RESILIENCE};
use crate::trace;
use rds_core::{Instance, Realization, Uncertainty};
use rds_par::{
    supervise, CampaignMeta, Journal, Supervised, TrialRecord, TrialStatus, WatchdogPolicy,
};
use rds_policies::{standard_suite, ResiliencePolicy, TrialMeasurement};
use rds_sim::faults::{FaultScript, ResilienceReport, Speculation};
use rds_sim::{check_schedule, Checks, ResilienceEngine};
use rds_workloads::{realize::RealizationModel, rng, EstimateDistribution, FaultModel};
use std::sync::Arc;

const M: usize = 256;
const N: usize = 4096;
const MTBF: f64 = 400.0;
/// Repetitions per pass: 5 policies × 2 reps = 10 trials, ~0.4 s.
const REPS: u64 = 2;
const ALPHA: f64 = 1.5;
const BETA: f64 = 1.5;
const STRAGGLERS: f64 = 0.0;

pub const SPEC: Spec = Spec {
    name: "resilience",
    item: "trial (one policy on one realization and fault script)",
    quality: "tasks per completed task (1 / mean survival rate) under faults",
    min_passes: 4,
    repeat_check: false,
    build: || Box::new(Resilience),
};

struct Resilience;

struct Inputs {
    inst: Instance,
    unc: Uncertainty,
    suite: Vec<ResiliencePolicy>,
    trials: Vec<(u64, Realization, FaultScript)>,
}

/// The inputs `rds resilience` builds for `seed`, each public call in
/// its layer's span.
fn inputs(seed: u64) -> Result<Inputs, String> {
    let unc = Uncertainty::new(ALPHA).map_err(core_err)?;
    let mut r = rng::rng(seed);
    let est = EstimateDistribution::Uniform { lo: 1.0, hi: 10.0 }.sample_n(N, &mut r);
    let inst = Instance::from_estimates(&est, M).map_err(core_err)?;
    let horizon = inst.total_estimate().get() / M as f64 * ALPHA * 2.0;
    let model = FaultModel::mtbf(MTBF, horizon)
        .and_then(|f| f.with_stragglers(STRAGGLERS, 3.0))
        .map_err(core_err)?;
    let suite = trace::timed("algs.place", || standard_suite(&inst, unc)).map_err(core_err)?;
    let trials = (0..REPS)
        .map(|i| {
            let trial_seed = rng::child_seed(seed, i);
            let mut tr = rng::rng(trial_seed);
            let real = trace::timed("workloads.realize", || {
                RealizationModel::UniformFactor.realize(&inst, unc, &mut tr)
            })?;
            let script = {
                let _s = trace::span("workloads.faults");
                model.generate(M, N, &mut tr)
            };
            Ok((trial_seed, real, script))
        })
        .collect::<rds_core::Result<Vec<_>>>()
        .map_err(core_err)?;
    Ok(Inputs {
        inst,
        unc,
        suite,
        trials,
    })
}

/// The validator call `ResilienceEngine` makes when validation is on.
fn validate(
    inst: &Instance,
    policy: &ResiliencePolicy,
    real: &Realization,
    script: &FaultScript,
    report: &ResilienceReport,
) -> rds_core::Result<()> {
    let checks = Checks {
        completeness: report.outcome.is_completed(),
        durations: !script.stretches_time(),
        ..Checks::structural()
    };
    trace::timed("sim.validate", || {
        check_schedule(inst, &policy.placement, real, &report.schedule, &checks)
    })
}

/// `run_trial` with a span around each engine run and validator call.
fn trial(
    inst: &Instance,
    policy: &ResiliencePolicy,
    real: &Realization,
    script: &FaultScript,
    speculation: Speculation,
) -> rds_core::Result<TrialMeasurement> {
    let empty = FaultScript::empty();
    let mut d = {
        let _s = trace::span("sim.dispatcher");
        policy.dispatcher(inst)
    };
    let base = trace::timed("sim.faults.baseline", || {
        ResilienceEngine::new(inst, &policy.placement, real, &empty)?.run(d.as_mut())
    })?;
    validate(inst, policy, real, &empty, &base)?;
    let mut d = {
        let _s = trace::span("sim.dispatcher");
        policy.dispatcher(inst)
    };
    let mut report = trace::timed("sim.faults.run", || {
        ResilienceEngine::new(inst, &policy.placement, real, script)?
            .with_speculation(speculation)
            .run(d.as_mut())
    })?;
    validate(inst, policy, real, script, &report)?;
    let baseline = base.metrics.makespan;
    report.set_baseline(baseline);
    let m = report.metrics;
    Ok(TrialMeasurement {
        completed: report.outcome.is_completed(),
        survival: m.survival_rate(),
        restarts: m.restarts as f64,
        rejoins: m.rejoins as f64,
        spec_started: m.speculative_started as f64,
        spec_wins: m.speculative_wins as f64,
        cancelled: m.cancelled as f64,
        wasted: m.wasted_work.get(),
        makespan: m.makespan.get(),
        baseline: baseline.get(),
    })
}

/// Checks the journaled records and condenses them into a pass.
fn finish(records: &[TrialRecord]) -> Result<Pass, String> {
    let expected = 5 * REPS as usize;
    if records.len() != expected {
        return Err(format!(
            "resilience: {} of {expected} trials journaled",
            records.len()
        ));
    }
    let quarantined = records.iter().filter(|r| !r.status.usable()).count() as u64;
    if quarantined > 0 {
        return Err(format!("resilience: {quarantined} trial(s) quarantined"));
    }
    // Not the makespan degradation: random fault scripts give that a
    // run-to-run spread near 9%, survival one near 0.1%.
    let survival: Vec<f64> = records.iter().map(|r| r.survival).collect();
    Ok(Pass {
        items: records.len() as u64,
        quality: 1.0 / mean(&survival),
        key: format!("{records:?}"),
        ..Pass::default()
    })
}

impl Workload for Resilience {
    fn setup(&mut self, seed: u64) -> Result<(), String> {
        std::hint::black_box(inputs(seed)?);
        Ok(())
    }

    fn pass(&mut self, seed: u64, traced: bool) -> Result<Pass, String> {
        let dir = out_dir()?;
        if !traced {
            let journal = dir.join("resilience.journal");
            let mut argv = words(&format!(
                "resilience --m {M} --n {N} --mtbf {MTBF} --reps {REPS} --seed {seed} --validate --journal"
            ));
            argv.push(journal.display().to_string());
            let out = rds(&argv)?;
            if out.contains("quarantined trials") {
                return Err(format!("resilience: quarantined trials\n{out}"));
            }
            let table = tables::parse(&out, RESILIENCE)?;
            for row in 0..table.rows.len() {
                table.num(row, "survival rate")?;
            }
            let (_, records) = Journal::read(&journal).map_err(core_err)?;
            return finish(&records);
        }

        // The command's loop, validating through `check_schedule` rather
        // than the engine's environment switch.
        std::env::remove_var("RDS_VALIDATE");
        let Inputs {
            inst,
            unc,
            suite,
            trials,
        } = inputs(seed)?;
        let meta = CampaignMeta {
            campaign: "resilience".into(),
            digest: inst.digest(),
            seed,
            params: format!(
                "n={N} m={M} mtbf={MTBF} alpha={ALPHA} beta={BETA} stragglers={STRAGGLERS} reps={REPS}"
            ),
        };
        let mut journal = trace::timed("par.journal", || {
            Journal::create(dir.join("resilience-traced.journal"), &meta)
        })
        .map_err(core_err)?;
        let speculation = Speculation::new(BETA, unc);
        let watchdog = WatchdogPolicy::default();
        let inst = Arc::new(inst);
        let trials: Vec<_> = trials.into_iter().map(Arc::new).collect();
        let mut records = Vec::new();
        for policy in &suite {
            let shared = Arc::new(policy.clone());
            for (index, shared_trial) in trials.iter().enumerate() {
                let seed = shared_trial.0;
                let (inst, policy, t) = (
                    Arc::clone(&inst),
                    Arc::clone(&shared),
                    Arc::clone(shared_trial),
                );
                let guard = trace::span("par.supervise");
                let outcome = supervise(&watchdog, seed, move |_token| {
                    trial(&inst, &policy, &t.1, &t.2, speculation)
                });
                let (m, attempts) = match outcome {
                    Supervised::Done { value, attempts } => (value, attempts),
                    Supervised::Quarantined { error, .. } => {
                        guard.fail();
                        return Err(format!(
                            "resilience: {} trial {index} quarantined: {error}",
                            shared.name
                        ));
                    }
                };
                drop(guard);
                let record = TrialRecord {
                    policy: shared.name.clone(),
                    trial: index as u64,
                    seed,
                    attempts,
                    status: if m.completed {
                        TrialStatus::Completed
                    } else {
                        TrialStatus::Partial
                    },
                    survival: m.survival,
                    restarts: m.restarts,
                    rejoins: m.rejoins,
                    spec_started: m.spec_started,
                    spec_wins: m.spec_wins,
                    cancelled: m.cancelled,
                    wasted: m.wasted,
                    makespan: m.makespan,
                    baseline: Some(m.baseline),
                    error: None,
                };
                trace::timed("par.journal", || journal.append(&record)).map_err(core_err)?;
                records.push(record);
            }
        }
        finish(&records)
    }
}

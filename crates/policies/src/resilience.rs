//! The standard resilience-evaluation suite and campaign runner.
//!
//! One place defines *which* placement strategies a fault campaign
//! compares and *how* each is dispatched online, so the `rds resilience`
//! CLI command and the `fault_tolerance` benchmark measure exactly the
//! same thing:
//!
//! - LPT-No Choice, dispatched from pinned per-machine queues (the
//!   no-replication baseline — stranded by any loaded-machine failure);
//! - Chained declustering with `k = 2` and `k = 3`;
//! - LS-Group with roughly three machines per group;
//! - LPT-No Restriction (full replication), the fault-tolerance ideal.
//!
//! [`run_campaign`] executes every policy against a shared set of
//! trials (realization + fault script pairs), establishes each trial's
//! fault-free baseline through the same engine path, and aggregates
//! [`rds_sim::ResilienceMetrics`] into one row per policy.

use crate::ChainedReplication;
use rds_algs::list_scheduling::greedy_by_order;
use rds_algs::{LptNoChoice, LptNoRestriction, LsGroup, Strategy};
use rds_core::{
    Assignment, Instance, MachineId, Placement, Realization, Result, TaskId, Uncertainty,
};
use rds_sim::faults::{FaultScript, ResilienceEngine, Speculation};
use rds_sim::{Dispatcher, OrderedDispatcher, PinnedDispatcher};
use std::sync::{Arc, OnceLock};

/// One strategy under test: its placement plus how to dispatch it.
#[derive(Debug, Clone)]
pub struct ResiliencePolicy {
    /// Display name (the strategy's own name).
    pub name: String,
    /// The phase-1 placement, shared between clones of the policy.
    /// Dispatchers are built from it once, on the first
    /// [`Self::dispatcher`] call, and every clone of the policy shares
    /// that build: replace the whole policy, not this field.
    pub placement: Arc<Placement>,
    /// For single-replica strategies, the planned task→machine pinning
    /// the dispatcher replays; replicated strategies dispatch online.
    pinned: Option<Arc<[MachineId]>>,
    /// The instance the suite was built for and its LPT order, one
    /// record shared by every policy of the suite.
    suite: Arc<SuiteKey>,
    /// A never-run dispatcher for the suite's instance, built lazily and
    /// shared between clones. Building one indexes a replicated
    /// placement per machine (~0.2–0.4 ms at n = 4096, m = 256); cloning
    /// it costs microseconds and is the same as a fresh build.
    prototype: Arc<OnceLock<Fresh>>,
}

/// The instance a suite was built for: the key a policy checks before
/// it hands out its prototype, and the dispatch order every prototype
/// takes.
#[derive(Debug)]
struct SuiteKey {
    m: usize,
    /// Estimate bit patterns, which fix the dispatch order.
    estimates: Vec<u64>,
    /// Task ids by non-increasing estimate, ties by id
    /// ([`Instance::ids_by_estimate_desc`]).
    order: Vec<TaskId>,
}

impl SuiteKey {
    fn new(instance: &Instance) -> Self {
        SuiteKey {
            m: instance.m(),
            estimates: estimate_bits(instance).collect(),
            order: instance.ids_by_estimate_desc(),
        }
    }

    fn built_for(&self, instance: &Instance) -> bool {
        self.m == instance.m()
            && self.estimates.len() == instance.n()
            && estimate_bits(instance).eq(self.estimates.iter().copied())
    }
}

/// The dispatchers a policy hands out, in their never-run state.
#[derive(Debug, Clone)]
enum Fresh {
    Pinned(PinnedDispatcher),
    Ordered(Box<OrderedDispatcher>),
}

impl Fresh {
    fn boxed(self) -> Box<dyn Dispatcher> {
        match self {
            Fresh::Pinned(d) => Box::new(d),
            Fresh::Ordered(d) => d,
        }
    }
}

fn estimate_bits(instance: &Instance) -> impl Iterator<Item = u64> + '_ {
    instance.tasks().iter().map(|t| t.estimate.get().to_bits())
}

impl ResiliencePolicy {
    /// A fresh dispatcher for one run (dispatchers are stateful): a
    /// clone of the policy's never-run prototype when `instance` is the
    /// suite's, a new build otherwise.
    pub fn dispatcher(&self, instance: &Instance) -> Box<dyn Dispatcher> {
        if self.suite.built_for(instance) {
            self.prototype
                .get_or_init(|| self.build(instance, self.suite.order.clone()))
                .clone()
                .boxed()
        } else {
            self.build(instance, instance.ids_by_estimate_desc())
                .boxed()
        }
    }

    fn build(&self, instance: &Instance, order: Vec<TaskId>) -> Fresh {
        match &self.pinned {
            Some(machines) => Fresh::Pinned(PinnedDispatcher::new(machines, instance.m())),
            None => Fresh::Ordered(Box::new(OrderedDispatcher::auto(order, &self.placement))),
        }
    }
}

/// Builds the standard five-policy suite for an instance.
///
/// The estimates are sorted once, and one LPT assignment on that order
/// gives LPT-No Choice its pinning and both chained placements their
/// primaries.
///
/// # Errors
/// Propagates placement/planning errors from the strategies, the first
/// in suite order.
pub fn standard_suite(instance: &Instance, unc: Uncertainty) -> Result<Vec<ResiliencePolicy>> {
    let suite = Arc::new(SuiteKey::new(instance));
    let lpt = Assignment::new(
        instance,
        greedy_by_order(instance.n(), instance.m(), &suite.order, |t| {
            instance.estimate(t)
        }),
    )?;
    let [chained2, chained3] = [ChainedReplication::new(2)?, ChainedReplication::new(3)?];
    // `k` is the number of groups: aim for ~3 machines per group so an
    // in-group failure leaves surviving holders.
    let groups = LsGroup::new_relaxed((instance.m() / 3).max(1));
    let planned = [
        (
            LptNoChoice.name(),
            Placement::pinned(instance, lpt.machines())?,
            Some(lpt.machines().into()),
        ),
        (chained2.name(), chained2.chain(instance, &lpt)?, None),
        (chained3.name(), chained3.chain(instance, &lpt)?, None),
        (groups.name(), groups.place(instance, unc)?, None),
        (
            LptNoRestriction.name(),
            LptNoRestriction.place(instance, unc)?,
            None,
        ),
    ];
    Ok(planned
        .into_iter()
        .map(|(name, placement, pinned)| ResiliencePolicy {
            name,
            placement: Arc::new(placement),
            pinned,
            suite: Arc::clone(&suite),
            prototype: Arc::default(),
        })
        .collect())
}

/// Aggregated campaign results for one policy.
#[derive(Debug, Clone)]
pub struct CampaignRow {
    /// Policy name.
    pub name: String,
    /// Maximum replicas per task under this placement.
    pub replicas: usize,
    /// Number of trials executed.
    pub runs: usize,
    /// Trials in which every task completed.
    pub completed_runs: usize,
    /// Mean per-trial task survival rate.
    pub mean_survival: f64,
    /// Mean restarts per trial.
    pub mean_restarts: f64,
    /// Mean machine rejoins per trial.
    pub mean_rejoins: f64,
    /// Mean speculative backups launched per trial.
    pub mean_spec_started: f64,
    /// Mean speculative wins per trial.
    pub mean_spec_wins: f64,
    /// Mean wasted work (killed + cancelled attempts) per trial.
    pub mean_wasted: f64,
    /// Mean makespan degradation versus the trial's fault-free baseline,
    /// over fully-completed trials (`NaN` when none completed).
    pub mean_degradation: f64,
    /// Worst observed degradation over fully-completed trials.
    pub worst_degradation: f64,
}

/// Per-trial measurements of one policy under one (realization, fault
/// script) pair — the unit the campaign journal stores and aggregates
/// are recomputed from.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrialMeasurement {
    /// `true` when every task completed.
    pub completed: bool,
    /// Fraction of tasks completed.
    pub survival: f64,
    /// Attempts killed by faults and restarted.
    pub restarts: f64,
    /// Machines that rejoined after outages.
    pub rejoins: f64,
    /// Speculative backups launched.
    pub spec_started: f64,
    /// Speculative backups that won.
    pub spec_wins: f64,
    /// Attempts cancelled (speculation losers).
    pub cancelled: f64,
    /// Wall-clock work thrown away.
    pub wasted: f64,
    /// Achieved makespan of completed work.
    pub makespan: f64,
    /// Fault-free baseline makespan of the same trial.
    pub baseline: f64,
}

impl TrialMeasurement {
    /// Makespan degradation versus the fault-free baseline, mirroring
    /// [`rds_sim::ResilienceMetrics::degradation`]'s zero-baseline
    /// convention.
    pub fn degradation(&self) -> f64 {
        if self.baseline == 0.0 {
            1.0
        } else {
            self.makespan / self.baseline
        }
    }
}

/// Runs one (policy, trial) pair: the fault-free baseline through the
/// identical engine path, then the faulty run.
///
/// This is the single execution path both [`run_campaign`] and the
/// resumable campaign runtime go through, so journaled replays aggregate
/// bit-identically to live runs.
///
/// # Errors
/// Propagates engine errors (dispatcher misbehaviour, invalid scripts,
/// invariant violations when validation is on).
pub fn run_trial(
    instance: &Instance,
    policy: &ResiliencePolicy,
    realization: &Realization,
    script: &FaultScript,
    speculation: Option<Speculation>,
) -> Result<TrialMeasurement> {
    let _span = rds_obs::span("resilience.trial");
    let empty = FaultScript::empty();
    let baseline = {
        let mut d = policy.dispatcher(instance);
        ResilienceEngine::new(instance, &policy.placement, realization, &empty)?
            .run(d.as_mut())?
            .metrics
            .makespan
    };
    let mut engine = ResilienceEngine::new(instance, &policy.placement, realization, script)?;
    if let Some(spec) = speculation {
        engine = engine.with_speculation(spec);
    }
    let mut d = policy.dispatcher(instance);
    let mut report = engine.run(d.as_mut())?;
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

/// Aggregates per-trial measurements (in trial order) into one row.
///
/// The summation order is the trial order, so aggregating a mix of
/// journaled and freshly-run trials reproduces an uninterrupted run
/// bit-for-bit.
pub fn aggregate_row(
    name: &str,
    replicas: usize,
    measurements: &[TrialMeasurement],
) -> CampaignRow {
    let mut row = CampaignRow {
        name: name.to_string(),
        replicas,
        runs: measurements.len(),
        completed_runs: 0,
        mean_survival: 0.0,
        mean_restarts: 0.0,
        mean_rejoins: 0.0,
        mean_spec_started: 0.0,
        mean_spec_wins: 0.0,
        mean_wasted: 0.0,
        mean_degradation: 0.0,
        worst_degradation: 0.0,
    };
    let mut degradations = Vec::new();
    for m in measurements {
        row.mean_survival += m.survival;
        row.mean_restarts += m.restarts;
        row.mean_rejoins += m.rejoins;
        row.mean_spec_started += m.spec_started;
        row.mean_spec_wins += m.spec_wins;
        row.mean_wasted += m.wasted;
        if m.completed {
            row.completed_runs += 1;
            degradations.push(m.degradation());
        }
    }
    let runs = row.runs.max(1) as f64;
    row.mean_survival /= runs;
    row.mean_restarts /= runs;
    row.mean_rejoins /= runs;
    row.mean_spec_started /= runs;
    row.mean_spec_wins /= runs;
    row.mean_wasted /= runs;
    row.mean_degradation = if degradations.is_empty() {
        f64::NAN
    } else {
        degradations.iter().sum::<f64>() / degradations.len() as f64
    };
    row.worst_degradation = degradations.iter().copied().fold(f64::NAN, f64::max);
    row
}

/// Runs every policy against every trial and aggregates per policy.
///
/// Each trial supplies a realization and a fault script; the fault-free
/// baseline is re-established per (policy, trial) through the identical
/// engine path, so a zero-fault campaign reports degradation exactly 1.
///
/// This is the fail-fast path: the first engine error aborts the whole
/// campaign. The crash-safe runtime in [`crate::campaign`] wraps the same
/// [`run_trial`] with journaling, watchdogs, and quarantine.
///
/// # Errors
/// Propagates engine errors (dispatcher misbehaviour, invalid scripts).
pub fn run_campaign(
    instance: &Instance,
    suite: &[ResiliencePolicy],
    trials: &[(Realization, FaultScript)],
    speculation: Option<Speculation>,
) -> Result<Vec<CampaignRow>> {
    let mut rows = Vec::with_capacity(suite.len());
    for policy in suite {
        let measurements = trials
            .iter()
            .map(|(real, script)| run_trial(instance, policy, real, script, speculation))
            .collect::<Result<Vec<_>>>()?;
        rows.push(aggregate_row(
            &policy.name,
            policy.placement.max_replicas(),
            &measurements,
        ));
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rds_core::Time;
    use rds_sim::faults::FaultEvent;
    use rds_workloads::{rng, RealizationModel};

    fn setup() -> (Instance, Uncertainty) {
        let est: Vec<f64> = (0..24).map(|i| 1.0 + (i % 7) as f64).collect();
        (
            Instance::from_estimates(&est, 6).unwrap(),
            Uncertainty::of(1.5),
        )
    }

    #[test]
    fn suite_has_five_policies_with_expected_replication() {
        let (inst, unc) = setup();
        let suite = standard_suite(&inst, unc).unwrap();
        assert_eq!(suite.len(), 5);
        assert_eq!(suite[0].placement.max_replicas(), 1);
        assert_eq!(suite[1].placement.max_replicas(), 2);
        assert_eq!(suite[2].placement.max_replicas(), 3);
        assert_eq!(suite[4].placement.max_replicas(), inst.m());
    }

    /// A policy's name, placement and pinned machines.
    type Planned = (String, Placement, Option<Vec<MachineId>>);

    /// The suite as each strategy builds it alone: its `place`, and for
    /// a single-replica placement the pinning its `execute` reads back
    /// on the exact realization.
    fn suite_by_strategy(inst: &Instance, unc: Uncertainty) -> Result<Vec<Planned>> {
        let strategies: Vec<Box<dyn Strategy>> = vec![
            Box::new(LptNoChoice),
            Box::new(ChainedReplication::new(2)?),
            Box::new(ChainedReplication::new(3)?),
            Box::new(LsGroup::new_relaxed((inst.m() / 3).max(1))),
            Box::new(LptNoRestriction),
        ];
        strategies
            .iter()
            .map(|s| {
                let placement = s.place(inst, unc)?;
                let pinned = if placement.max_replicas() == 1 {
                    let a = s.execute(inst, &placement, &Realization::exact(inst))?;
                    Some(a.machines().to_vec())
                } else {
                    None
                };
                Ok((s.name(), placement, pinned))
            })
            .collect()
    }

    #[test]
    fn shared_lpt_suite_builds_what_each_strategy_builds() {
        use rand::Rng;
        use rds_workloads::EstimateDistribution;
        let unc = Uncertainty::of(1.5);
        let mut r = rng::rng(21);
        for m in 1..=40usize {
            let mut sizes = vec![1, m, m + 1, 300];
            sizes.extend((0..3).map(|_| r.gen_range(1..=300usize)));
            for (case, n) in sizes.into_iter().enumerate() {
                // Reals, and small integers whose ties test the order's
                // tie-break.
                let mut est =
                    EstimateDistribution::Uniform { lo: 1.0, hi: 10.0 }.sample_n(n, &mut r);
                if case % 2 == 1 {
                    est.iter_mut().for_each(|e| *e = e.ceil() % 4.0 + 1.0);
                }
                let inst = Instance::from_estimates(&est, m).unwrap();
                let want = suite_by_strategy(&inst, unc);
                let got = standard_suite(&inst, unc);
                match (got, want) {
                    (Ok(got), Ok(want)) => {
                        assert_eq!(got.len(), want.len());
                        for (policy, (name, placement, pinned)) in got.iter().zip(&want) {
                            assert_eq!(&policy.name, name, "m = {m}, n = {n}");
                            assert_eq!(*policy.placement, *placement, "{name}, m = {m}, n = {n}");
                            assert_eq!(
                                policy.pinned.as_deref(),
                                pinned.as_deref(),
                                "{name}, m = {m}, n = {n}"
                            );
                        }
                    }
                    (Err(got), Err(want)) => {
                        assert!(m <= 2, "m = {m}, n = {n}: {want}");
                        assert_eq!(got, want, "m = {m}, n = {n}");
                    }
                    (got, want) => panic!(
                        "m = {m}, n = {n}: suite {:?}, strategies {:?}",
                        got.map(|s| s.len()),
                        want.map(|s| s.len())
                    ),
                }
            }
        }
    }

    #[test]
    fn zero_fault_campaign_has_degradation_exactly_one() {
        let (inst, unc) = setup();
        let suite = standard_suite(&inst, unc).unwrap();
        let trials = vec![(Realization::exact(&inst), FaultScript::empty())];
        let rows = run_campaign(&inst, &suite, &trials, None).unwrap();
        for row in &rows {
            assert_eq!(row.completed_runs, row.runs, "{}", row.name);
            assert_eq!(row.mean_survival, 1.0);
            assert_eq!(row.mean_degradation, 1.0, "{}", row.name);
            assert_eq!(row.worst_degradation, 1.0, "{}", row.name);
        }
    }

    #[test]
    fn shared_prototype_dispatches_like_a_fresh_build() {
        let (inst, unc) = setup();
        let suite = standard_suite(&inst, unc).unwrap();
        // Same n and m, other estimates: the prototype must not serve it.
        let reversed: Vec<f64> = inst
            .tasks()
            .iter()
            .rev()
            .map(|t| t.estimate.get())
            .collect();
        let other = Instance::from_estimates(&reversed, inst.m()).unwrap();
        let script = FaultScript::new(vec![FaultEvent::Crash {
            machine: MachineId::new(1),
            at: Time::of(2.5),
        }]);
        for policy in &suite {
            // Varied times, a crash and eager speculation exercise the
            // dispatchers' requeue paths.
            let run = |inst: &Instance, mut d: Box<dyn Dispatcher>| {
                let real = RealizationModel::UniformFactor
                    .realize(inst, unc, &mut rng::rng(5))
                    .unwrap();
                let report = ResilienceEngine::new(inst, &policy.placement, &real, &script)
                    .unwrap()
                    .with_speculation(Speculation::new(0.5, unc))
                    .run(d.as_mut())
                    .unwrap();
                format!("{report:?}")
            };
            let fresh = |inst: &Instance| -> Box<dyn Dispatcher> {
                match &policy.pinned {
                    Some(machines) => Box::new(PinnedDispatcher::new(machines, inst.m())),
                    None => Box::new(OrderedDispatcher::auto(
                        inst.ids_by_estimate_desc(),
                        &policy.placement,
                    )),
                }
            };
            let want = run(&inst, fresh(&inst));
            let clone = policy.clone();
            // The first call builds the prototype; later calls, on the
            // policy or a clone, follow runs of earlier hand-outs.
            for p in [policy, &clone, policy, &clone] {
                assert_eq!(run(&inst, p.dispatcher(&inst)), want, "{}", policy.name);
            }
            assert_eq!(
                run(&other, policy.dispatcher(&other)),
                run(&other, fresh(&other)),
                "{} on another instance",
                policy.name
            );
            assert_eq!(run(&inst, clone.dispatcher(&inst)), want, "{}", policy.name);
        }
    }

    #[test]
    fn crash_campaign_separates_pinned_from_replicated() {
        let (inst, unc) = setup();
        let suite = standard_suite(&inst, unc).unwrap();
        // Crash the two most loaded machines early: pinning strands
        // their tasks, full replication shrugs it off.
        let script = FaultScript::new(vec![
            FaultEvent::Crash {
                machine: MachineId::new(0),
                at: Time::of(0.5),
            },
            FaultEvent::Crash {
                machine: MachineId::new(1),
                at: Time::of(1.0),
            },
        ]);
        let trials = vec![(Realization::exact(&inst), script)];
        let rows = run_campaign(&inst, &suite, &trials, None).unwrap();
        let pinned = &rows[0];
        let full = &rows[4];
        assert!(pinned.completed_runs < pinned.runs);
        assert!(pinned.mean_survival < 1.0);
        assert_eq!(full.completed_runs, full.runs);
        assert_eq!(full.mean_survival, 1.0);
        assert!(full.mean_degradation >= 1.0);
    }
}

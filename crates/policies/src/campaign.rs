//! The crash-safe campaign runtime: journaled, resumable, supervised.
//!
//! [`run_supervised`] is the one campaign loop. It visits a suite's
//! (trial, policy) cells in the order its caller asks for and runs each
//! through a caller-supplied trial body, with the robustness layers a
//! multi-hour Monte-Carlo sweep needs:
//!
//! - every finished trial is appended to an fsync'd
//!   [`rds_par::Journal`], so a SIGKILL loses at most the trial in
//!   flight;
//! - `resume: true` re-reads the journal, skips already-recorded
//!   (policy, trial) pairs before building any of their inputs, and
//!   recomputes aggregates from the union — bit-identical to an
//!   uninterrupted run because aggregation always happens in (suite
//!   order, trial order) from exactly round-tripped numbers;
//! - each trial runs under the [`rds_par::supervise`] watchdog:
//!   wall-clock budget with cancellation, bounded retry with backoff and
//!   jitter, and quarantine after repeated failures — a poisoned trial
//!   becomes a report entry, never an abort;
//! - an optional [`StallInjection`] deliberately hangs trial bodies, the
//!   harness-level fault-injection knob the kill-and-resume and
//!   watchdog end-to-end tests drive.
//!
//! `rds resilience` runs [`run_campaign_resumable`]: policy-major over
//! prebuilt trials, each cell the fault run of [`run_trial`], the same
//! path as the fail-fast [`crate::resilience::run_campaign`]. `rds sweep`
//! runs trial-major over lazily built [`SweepRep`]s, each cell the
//! fault-free [`run_sweep_trial`].

use crate::resilience::{
    aggregate_row, run_trial, CampaignRow, ResiliencePolicy, TrialMeasurement,
};
use rds_core::{Error, Instance, MachineSpeeds, NetworkTopology, Realization, Result};
use rds_par::journal::{CampaignMeta, Journal, TrialRecord, TrialStatus};
use rds_par::pool::{supervise, CancelToken, Supervised, WatchdogPolicy};
use rds_sim::faults::{FaultScript, Speculation};
use rds_sim::{Dispatcher, Engine, LocalityDispatcher, SimArena};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// One campaign trial: a derived seed plus the shared execution context.
#[derive(Debug, Clone)]
pub struct Trial {
    /// The trial's derived seed (journaled; also feeds backoff jitter).
    pub seed: u64,
    /// Actual processing times for this trial.
    pub realization: Realization,
    /// Scripted faults for this trial.
    pub script: FaultScript,
}

/// What one `rds sweep` rep shares across the suite's policies.
#[derive(Debug, Clone)]
pub struct SweepRep {
    /// Actual processing times for this rep.
    pub realization: Realization,
    /// Per-machine speeds; `None` means identical machines.
    pub speeds: Option<MachineSpeeds>,
    /// Transfer latencies; `None` means data access is free. Present,
    /// the locality-aware dispatcher runs every policy.
    pub topology: Option<NetworkTopology>,
    /// The ratio's denominator: a certified lower bound on this
    /// realization's optimal makespan.
    pub baseline: f64,
}

/// The order in which [`run_supervised`] visits a campaign's cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellOrder {
    /// Every trial of the first policy, then of the next (`rds
    /// resilience`).
    PolicyMajor,
    /// Every policy on the first trial, then on the next (`rds sweep`),
    /// so each trial's inputs are built once.
    TrialMajor,
}

/// Deliberate stall injected into trial bodies — the knob that lets the
/// test suite exercise the watchdog and the kill-and-resume path with a
/// real hung process. `only_trial` restricts the stall to one trial
/// index (per policy); `None` stalls every trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallInjection {
    /// How long the trial body sleeps before doing any work.
    pub delay: Duration,
    /// Restrict the stall to this trial index, if set.
    pub only_trial: Option<u64>,
}

impl StallInjection {
    fn applies_to(&self, trial: u64) -> bool {
        self.only_trial.is_none_or(|only| only == trial)
    }
}

/// Configuration of the crash-safe campaign runtime.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Campaign kind recorded in the journal meta (`"resilience"`, ...).
    pub campaign: String,
    /// Master seed recorded in the journal meta.
    pub seed: u64,
    /// Parameter string recorded in the journal meta; a resume with
    /// different parameters is rejected.
    pub params: String,
    /// Journal path; `None` runs without checkpointing.
    pub journal: Option<PathBuf>,
    /// Resume from an existing journal instead of truncating it.
    pub resume: bool,
    /// Watchdog policy every trial runs under.
    pub watchdog: WatchdogPolicy,
    /// Optional speculative re-execution for the simulated cluster.
    pub speculation: Option<Speculation>,
    /// Harness fault injection: deliberately stall trial bodies.
    pub stall: Option<StallInjection>,
}

impl CampaignConfig {
    /// A plain configuration: no journal, default watchdog, no stall.
    pub fn new(campaign: impl Into<String>, seed: u64, params: impl Into<String>) -> Self {
        CampaignConfig {
            campaign: campaign.into(),
            seed,
            params: params.into(),
            journal: None,
            resume: false,
            watchdog: WatchdogPolicy::default(),
            speculation: None,
            stall: None,
        }
    }
}

/// A trial the watchdog gave up on; reported, not fatal.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedTrial {
    /// Policy the trial ran under.
    pub policy: String,
    /// Trial index.
    pub trial: u64,
    /// The trial's derived seed.
    pub seed: u64,
    /// Watchdog attempts consumed.
    pub attempts: u32,
    /// The last attempt's rendered error.
    pub error: String,
}

/// Everything a resumable campaign produces.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// One aggregated row per policy, in suite order. Quarantined trials
    /// are excluded from the aggregates.
    pub rows: Vec<CampaignRow>,
    /// The poison list: trials the watchdog gave up on.
    pub quarantined: Vec<QuarantinedTrial>,
    /// Trials executed in this invocation.
    pub executed: usize,
    /// Trials skipped because the journal already had them.
    pub skipped: usize,
}

/// The journal record of a finished trial: its measurement, keyed by
/// policy, trial index and seed.
fn record_from_measurement(
    policy: &str,
    trial: u64,
    seed: u64,
    attempts: u32,
    m: &TrialMeasurement,
) -> TrialRecord {
    TrialRecord {
        policy: policy.to_string(),
        trial,
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
    }
}

fn measurement_from_record(r: &TrialRecord) -> TrialMeasurement {
    TrialMeasurement {
        completed: r.status == TrialStatus::Completed,
        survival: r.survival,
        restarts: r.restarts,
        rejoins: r.rejoins,
        spec_started: r.spec_started,
        spec_wins: r.spec_wins,
        cancelled: r.cancelled,
        wasted: r.wasted,
        makespan: r.makespan,
        baseline: r.baseline.unwrap_or(0.0),
    }
}

/// The journal record of a trial the watchdog gave up on: zeroed
/// measurements, no baseline, and the last attempt's error.
fn quarantine_record(
    policy: &str,
    trial: u64,
    seed: u64,
    attempts: u32,
    error: &Error,
) -> TrialRecord {
    TrialRecord {
        policy: policy.to_string(),
        trial,
        seed,
        attempts,
        status: TrialStatus::Quarantined,
        survival: 0.0,
        restarts: 0.0,
        rejoins: 0.0,
        spec_started: 0.0,
        spec_wins: 0.0,
        cancelled: 0.0,
        wasted: 0.0,
        makespan: 0.0,
        baseline: None,
        error: Some(error.to_string()),
    }
}

/// Sleeps in small cancellable increments; returns `false` when the
/// watchdog cancelled the attempt mid-stall.
fn cancellable_stall(delay: Duration, token: &CancelToken) -> bool {
    let step = Duration::from_millis(2);
    let mut slept = Duration::ZERO;
    while slept < delay {
        if token.is_cancelled() {
            return false;
        }
        let chunk = step.min(delay - slept);
        std::thread::sleep(chunk);
        slept += chunk;
    }
    !token.is_cancelled()
}

/// Opens the journal of the campaign `config` describes over an
/// instance with `digest`: `None` without a journal, otherwise the
/// journal resumed (with the records already on it) or created fresh,
/// as `config.resume` says.
///
/// # Errors
/// Journal I/O, corruption and meta-mismatch errors, as in
/// [`Journal::resume`].
fn open_journal(
    config: &CampaignConfig,
    digest: u64,
) -> Result<(Option<Journal>, Vec<TrialRecord>)> {
    let Some(path) = &config.journal else {
        return Ok((None, Vec::new()));
    };
    let meta = CampaignMeta {
        campaign: config.campaign.clone(),
        digest,
        seed: config.seed,
        params: config.params.clone(),
    };
    if config.resume {
        let (journal, records) = Journal::resume(path, &meta)?;
        Ok((Some(journal), records))
    } else {
        Ok((Some(Journal::create(path, &meta)?), Vec::new()))
    }
}

/// Runs a campaign crash-safely: journaled, resumable and supervised.
///
/// The campaign has `trials` trials per policy of `suite`. The loop
/// visits the cells in `order` and skips those its journal already
/// holds. For a pending cell it calls `input(t)`, which returns the
/// trial's derived seed and the inputs its cells share; the loop keeps
/// the last trial's inputs, so in [`CellOrder::TrialMajor`] each trial
/// is built once, and a trial with no pending cell is never built.
/// `body` then runs one policy on those inputs under the watchdog, with
/// the instance, suite and inputs shared by `Arc`.
///
/// Each finished trial is journaled before the next starts. Quarantined
/// trials are journaled too (so a resume does not retry a poisoned pair
/// forever) and reported in [`CampaignReport::quarantined`] while being
/// excluded from the aggregate rows. Aggregation sorts each policy's
/// records by trial index, so the report is bit-identical however the
/// trials were interleaved across invocations.
///
/// # Errors
/// - Journal I/O, corruption, and meta-mismatch errors
///   ([`Error::Io`] / [`Error::JournalCorrupt`] /
///   [`Error::InvalidInstance`]);
/// - whatever `input` returns;
/// - engine errors never surface here: a failing trial is retried and
///   ultimately quarantined by the watchdog.
pub fn run_supervised<T, B, E>(
    instance: Arc<Instance>,
    suite: &[ResiliencePolicy],
    trials: u64,
    order: CellOrder,
    config: &CampaignConfig,
    mut input: impl FnMut(u64) -> std::result::Result<(u64, Arc<T>), E>,
    body: B,
) -> std::result::Result<CampaignReport, E>
where
    T: Send + Sync + 'static,
    B: Fn(&Instance, &ResiliencePolicy, &T) -> Result<TrialMeasurement> + Send + Sync + 'static,
    E: From<Error>,
{
    let _span = rds_obs::span("campaign.run");
    let obs_trials = rds_obs::enabled().then(|| rds_obs::global().counter("campaign.trials"));
    // The supervised body must own everything it touches (a budgeted
    // attempt runs on a dedicated thread the watchdog may abandon), but
    // ownership only needs refcounts: a policy's clone shares its
    // placement, and each cell bumps the `Arc`s below.
    let suite: Arc<[ResiliencePolicy]> = suite.into();
    let body = Arc::new(body);

    let (mut journal, mut records) = open_journal(config, instance.digest())?;
    let skipped = records.len();
    if skipped > 0 && rds_obs::enabled() {
        rds_obs::global()
            .counter("campaign.skipped")
            .add(skipped as u64);
    }
    let have: HashSet<(String, u64)> = records.iter().map(TrialRecord::key).collect();

    let cells: Vec<(u64, usize)> = match order {
        CellOrder::PolicyMajor => (0..suite.len())
            .flat_map(|p| (0..trials).map(move |t| (t, p)))
            .collect(),
        CellOrder::TrialMajor => (0..trials)
            .flat_map(|t| (0..suite.len()).map(move |p| (t, p)))
            .collect(),
    };
    let mut executed = 0usize;
    let mut built: Option<(u64, u64, Arc<T>)> = None;
    for (trial, p) in cells {
        let policy = &suite[p];
        if have.contains(&(policy.name.clone(), trial)) {
            continue;
        }
        if built.as_ref().is_none_or(|b| b.0 != trial) {
            let (seed, shared) = input(trial)?;
            built = Some((trial, seed, shared));
        }
        let (_, seed, shared) = built.as_ref().expect("built above");
        let (cell_instance, cell_suite, cell_input, cell_body) = (
            Arc::clone(&instance),
            Arc::clone(&suite),
            Arc::clone(shared),
            Arc::clone(&body),
        );
        let stall = config.stall.filter(|s| s.applies_to(trial));
        let outcome = supervise(&config.watchdog, *seed, move |token| {
            if let Some(stall) = stall {
                if !cancellable_stall(stall.delay, token) {
                    return Err(Error::TrialTimeout {
                        millis: stall.delay.as_millis() as u64,
                    });
                }
            }
            cell_body(&cell_instance, &cell_suite[p], &cell_input)
        });
        let record = match outcome {
            Supervised::Done { value, attempts } => {
                record_from_measurement(&policy.name, trial, *seed, attempts, &value)
            }
            Supervised::Quarantined { attempts, error } => {
                quarantine_record(&policy.name, trial, *seed, attempts, &error)
            }
        };
        if let Some(j) = journal.as_mut() {
            j.append(&record)?;
        }
        records.push(record);
        executed += 1;
        if let Some(trials_counter) = &obs_trials {
            trials_counter.inc();
        }
    }
    Ok(CampaignReport::from_records(
        &suite, &records, executed, skipped,
    ))
}

/// Runs the fault campaign `rds resilience` runs: every policy against
/// every trial, policy-major, each cell through [`run_trial`] with
/// `config.speculation`, under [`run_supervised`].
///
/// # Errors
/// As [`run_supervised`].
pub fn run_campaign_resumable(
    instance: &Instance,
    suite: &[ResiliencePolicy],
    trials: &[Trial],
    config: &CampaignConfig,
) -> Result<CampaignReport> {
    let shared: Vec<Arc<Trial>> = trials.iter().map(|t| Arc::new(t.clone())).collect();
    let speculation = config.speculation;
    run_supervised(
        Arc::new(instance.clone()),
        suite,
        trials.len() as u64,
        CellOrder::PolicyMajor,
        config,
        |t| Ok((trials[t as usize].seed, Arc::clone(&shared[t as usize]))),
        move |instance, policy, trial: &Trial| {
            run_trial(
                instance,
                policy,
                &trial.realization,
                &trial.script,
                speculation,
            )
        },
    )
}

/// One fault-free `rds sweep` cell: `policy` on `rep`'s realization,
/// with its speeds and topology. Only the makespan comes back; the
/// run's slots and trace stay in an arena local to the call, and the
/// validator still checks them when it is on.
///
/// # Errors
/// Engine errors (dispatcher misbehaviour, a speed or topology profile
/// for another machine count, invariant violations when validation is
/// on).
pub fn run_sweep_trial(
    instance: &Instance,
    policy: &ResiliencePolicy,
    rep: &SweepRep,
) -> Result<TrialMeasurement> {
    let engine = Engine::new(instance, &policy.placement, &rep.realization)?;
    // The locality-aware dispatcher takes over phase 2 when a topology
    // is present; otherwise each policy keeps its own dispatcher.
    let mut d: Box<dyn Dispatcher> = match &rep.topology {
        Some(t) => Box::new(LocalityDispatcher::new(
            instance.ids_by_estimate_desc(),
            &policy.placement,
            t.clone(),
        )?),
        None => policy.dispatcher(instance),
    };
    let mut arena = SimArena::with_capacity(instance.n(), instance.m());
    let makespan = engine.run_hetero_in(
        &mut arena,
        d.as_mut(),
        rep.speeds.as_ref(),
        rep.topology.as_ref(),
    )?;
    // A fault-free run: everything survives, and the ratio's
    // denominator rides in the baseline.
    Ok(TrialMeasurement {
        completed: true,
        survival: 1.0,
        makespan: makespan.get(),
        baseline: rep.baseline,
        ..TrialMeasurement::default()
    })
}

impl CampaignReport {
    /// Aggregates journal records into one row per policy and the poison
    /// list. Rows follow suite order and each policy's records are taken
    /// in trial order, regardless of which invocation produced them —
    /// the resume-identity invariant. Quarantined records go to
    /// [`Self::quarantined`] and are excluded from the rows.
    fn from_records(
        suite: &[ResiliencePolicy],
        records: &[TrialRecord],
        executed: usize,
        skipped: usize,
    ) -> Self {
        let mut rows = Vec::with_capacity(suite.len());
        let mut quarantined = Vec::new();
        for policy in suite {
            let mut mine: Vec<&TrialRecord> =
                records.iter().filter(|r| r.policy == policy.name).collect();
            mine.sort_by_key(|r| r.trial);
            let measurements: Vec<TrialMeasurement> = mine
                .iter()
                .filter(|r| r.status.usable())
                .map(|r| measurement_from_record(r))
                .collect();
            quarantined.extend(
                mine.iter()
                    .filter(|r| r.status == TrialStatus::Quarantined)
                    .map(|r| QuarantinedTrial {
                        policy: r.policy.clone(),
                        trial: r.trial,
                        seed: r.seed,
                        attempts: r.attempts,
                        error: r.error.clone().unwrap_or_default(),
                    }),
            );
            rows.push(aggregate_row(
                &policy.name,
                policy.placement.max_replicas(),
                &measurements,
            ));
        }
        CampaignReport {
            rows,
            quarantined,
            executed,
            skipped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::{run_campaign, standard_suite};
    use rds_core::{MachineId, Time, Uncertainty};
    use rds_sim::faults::FaultEvent;

    fn setup() -> (Instance, Vec<ResiliencePolicy>, Vec<Trial>) {
        let est: Vec<f64> = (0..18).map(|i| 1.0 + (i % 5) as f64).collect();
        let inst = Instance::from_estimates(&est, 6).unwrap();
        let suite = standard_suite(&inst, Uncertainty::of(1.5)).unwrap();
        let crash = FaultScript::new(vec![FaultEvent::Crash {
            machine: MachineId::new(0),
            at: Time::of(0.5),
        }]);
        let trials = vec![
            Trial {
                seed: 11,
                realization: Realization::exact(&inst),
                script: FaultScript::empty(),
            },
            Trial {
                seed: 12,
                realization: Realization::exact(&inst),
                script: crash,
            },
        ];
        (inst, suite, trials)
    }

    fn rows_bitwise_equal(a: &[CampaignRow], b: &[CampaignRow]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.replicas, y.replicas);
            assert_eq!(x.runs, y.runs);
            assert_eq!(x.completed_runs, y.completed_runs);
            for (u, v) in [
                (x.mean_survival, y.mean_survival),
                (x.mean_restarts, y.mean_restarts),
                (x.mean_rejoins, y.mean_rejoins),
                (x.mean_spec_started, y.mean_spec_started),
                (x.mean_spec_wins, y.mean_spec_wins),
                (x.mean_wasted, y.mean_wasted),
                (x.mean_degradation, y.mean_degradation),
                (x.worst_degradation, y.worst_degradation),
            ] {
                assert_eq!(u.to_bits(), v.to_bits(), "{}", x.name);
            }
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("rds-campaign-{}-{}", tag, std::process::id()))
    }

    #[test]
    fn matches_fail_fast_runner_without_journal() {
        let (inst, suite, trials) = setup();
        let pairs: Vec<(Realization, FaultScript)> = trials
            .iter()
            .map(|t| (t.realization.clone(), t.script.clone()))
            .collect();
        let expected = run_campaign(&inst, &suite, &pairs, None).unwrap();
        let config = CampaignConfig::new("resilience", 42, "m=6 n=18");
        let report = run_campaign_resumable(&inst, &suite, &trials, &config).unwrap();
        rows_bitwise_equal(&expected, &report.rows);
        assert!(report.quarantined.is_empty());
        assert_eq!(report.executed, suite.len() * trials.len());
        assert_eq!(report.skipped, 0);
    }

    #[test]
    fn journal_prefix_resume_is_bit_identical() {
        let (inst, suite, trials) = setup();
        let full_path = temp_path("full");
        let mut config = CampaignConfig::new("resilience", 42, "m=6 n=18");
        config.journal = Some(full_path.clone());
        let full = run_campaign_resumable(&inst, &suite, &trials, &config).unwrap();

        // Replay from every possible crash point: meta + first K trial
        // lines, then resume and compare aggregates bit-for-bit.
        let text = std::fs::read_to_string(&full_path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + suite.len() * trials.len());
        for keep in 0..lines.len() {
            let prefix_path = temp_path(&format!("prefix-{keep}"));
            let mut prefix: String = lines[..=keep].join("\n");
            prefix.push('\n');
            std::fs::write(&prefix_path, prefix).unwrap();
            let mut resume_config = config.clone();
            resume_config.journal = Some(prefix_path.clone());
            resume_config.resume = true;
            let resumed = run_campaign_resumable(&inst, &suite, &trials, &resume_config).unwrap();
            assert_eq!(resumed.skipped, keep);
            assert_eq!(resumed.executed, suite.len() * trials.len() - keep);
            rows_bitwise_equal(&full.rows, &resumed.rows);
            std::fs::remove_file(&prefix_path).ok();
        }
        std::fs::remove_file(&full_path).ok();
    }

    #[test]
    fn hung_trial_is_quarantined_and_campaign_completes() {
        let (inst, suite, trials) = setup();
        let mut config = CampaignConfig::new("resilience", 42, "m=6 n=18");
        config.watchdog = WatchdogPolicy {
            budget: Some(Duration::from_millis(25)),
            max_attempts: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            jitter: 0.0,
        };
        config.stall = Some(StallInjection {
            delay: Duration::from_millis(400),
            only_trial: Some(1),
        });
        let report = run_campaign_resumable(&inst, &suite, &trials, &config).unwrap();
        // Trial 1 hangs for every policy; the watchdog cancels, retries,
        // then quarantines. The fault-free trial 0 still completes.
        assert_eq!(report.quarantined.len(), suite.len());
        for q in &report.quarantined {
            assert_eq!(q.trial, 1);
            assert_eq!(q.attempts, 2);
            assert!(q.error.contains("wall-clock budget"), "{}", q.error);
        }
        assert_eq!(report.rows.len(), suite.len());
        for row in &report.rows {
            assert_eq!(row.runs, 1);
            assert_eq!(row.completed_runs, 1);
        }
    }

    #[test]
    fn quarantined_trials_are_not_retried_on_resume() {
        let (inst, suite, trials) = setup();
        let path = temp_path("poison");
        let mut config = CampaignConfig::new("resilience", 42, "m=6 n=18");
        config.journal = Some(path.clone());
        config.watchdog = WatchdogPolicy {
            budget: Some(Duration::from_millis(25)),
            max_attempts: 1,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            jitter: 0.0,
        };
        config.stall = Some(StallInjection {
            delay: Duration::from_millis(400),
            only_trial: Some(1),
        });
        let first = run_campaign_resumable(&inst, &suite, &trials, &config).unwrap();
        assert_eq!(first.quarantined.len(), suite.len());

        // Resume with the stall removed: poisoned pairs stay journaled
        // and are skipped, not silently retried.
        let mut resume_config = config.clone();
        resume_config.resume = true;
        resume_config.stall = None;
        let resumed = run_campaign_resumable(&inst, &suite, &trials, &resume_config).unwrap();
        assert_eq!(resumed.executed, 0);
        assert_eq!(resumed.skipped, suite.len() * trials.len());
        assert_eq!(resumed.quarantined.len(), suite.len());
        std::fs::remove_file(&path).ok();
    }
}

//! The conformance campaign runner: a budgeted, resumable sweep over the
//! seeded case stream, with automatic shrinking and artifact emission on
//! failure, plus replay of previously saved counterexamples.

use crate::arm::Arm;
use crate::artifact::Counterexample;
use crate::case::CaseSpec;
use crate::checks::{check_case, CaseReport};
use crate::generator::generate_case;
use crate::registry::{Mutation, StrategyId};
use crate::shrink::shrink;
use rds_core::{fnv1a, Result};
use rds_exact::OptimalSolver;
use rds_par::journal::{CampaignMeta, Journal, TrialRecord, TrialStatus};
use rds_workloads::rng::child_seed;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Upper bound on shrink candidate evaluations per counterexample.
const SHRINK_BUDGET: u64 = 4_000;

/// Configuration of one conformance campaign.
#[derive(Debug, Clone)]
pub struct ConformanceConfig {
    /// Master seed of the case stream.
    pub seed: u64,
    /// Number of cases to generate.
    pub cases: u64,
    /// Optional wall-clock budget; once it is spent, the sweep stops
    /// before its next case, but only after running at least one.
    pub seconds: Option<f64>,
    /// Maximum tasks per generated case.
    pub max_n: usize,
    /// Maximum machines per generated case.
    pub max_m: usize,
    /// Seeded defect to inject (used to validate the oracle itself).
    pub mutation: Mutation,
    /// Directory for counterexample artifacts (created on demand).
    pub artifact_dir: Option<PathBuf>,
    /// Crash-safe journal path; cases already journaled as passing are
    /// skipped on resume, failed ones are re-run.
    pub journal: Option<PathBuf>,
    /// Resume from an existing journal instead of truncating it.
    pub resume: bool,
    /// Stop shrinking/archiving after this many counterexamples (further
    /// violations are still counted).
    pub max_counterexamples: usize,
}

impl Default for ConformanceConfig {
    fn default() -> Self {
        ConformanceConfig {
            seed: 42,
            cases: 200,
            seconds: None,
            max_n: 12,
            max_m: 8,
            mutation: Mutation::None,
            artifact_dir: None,
            journal: None,
            resume: false,
            max_counterexamples: 8,
        }
    }
}

/// Outcome of a conformance campaign.
#[derive(Debug, Clone, Default)]
pub struct ConformanceReport {
    /// Cases generated and checked this run.
    pub cases_run: u64,
    /// Cases skipped because the journal already records them passing.
    pub cases_skipped: u64,
    /// Individual checks evaluated this run.
    pub checks_run: u64,
    /// Total breached invariants (may exceed `counterexamples.len()`).
    pub violations: u64,
    /// The subset of `violations` raised by each seeded arm, indexed in
    /// [`Arm::ALL`] order. These are journaled but never shrunk or
    /// archived: `(seed, index)` is the reproducer.
    pub arm_violations: [u64; Arm::ALL.len()],
    /// Minimized counterexamples, one per breached (strategy, check).
    pub counterexamples: Vec<Counterexample>,
    /// Artifact files written.
    pub artifacts: Vec<PathBuf>,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

/// Outcome of replaying a saved counterexample.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Whether the archived (strategy, check) violation still fires.
    pub reproduced: bool,
    /// The full fresh check report for the archived case.
    pub report: CaseReport,
}

fn campaign_meta(config: &ConformanceConfig) -> CampaignMeta {
    // Budgets (cases, seconds) are deliberately excluded from the params
    // identity so a resumed campaign may extend them.
    let params = format!(
        "max_n={};max_m={};mutation={}",
        config.max_n,
        config.max_m,
        config.mutation.as_str()
    );
    CampaignMeta {
        campaign: "conformance".into(),
        digest: fnv1a(params.bytes()),
        seed: config.seed,
        params,
    }
}

fn trial_record(
    config: &ConformanceConfig,
    index: u64,
    violations: u64,
    error: Option<String>,
) -> TrialRecord {
    TrialRecord {
        policy: "conformance".into(),
        trial: index,
        seed: child_seed(config.seed, index),
        attempts: 1,
        status: if violations == 0 && error.is_none() {
            TrialStatus::Completed
        } else {
            TrialStatus::Failed
        },
        survival: if violations == 0 { 1.0 } else { 0.0 },
        restarts: 0.0,
        rejoins: 0.0,
        spec_started: 0.0,
        spec_wins: 0.0,
        cancelled: 0.0,
        wasted: 0.0,
        makespan: violations as f64,
        baseline: None,
        error,
    }
}

/// Runs a conformance campaign per `config`.
///
/// Violations are *reported*, not returned as errors: the call fails only
/// on infrastructure problems (journal or artifact I/O, invalid internal
/// state). Callers decide the exit policy from the report.
///
/// # Errors
/// [`rds_core::Error::Io`] / journal errors on filesystem failures.
pub fn run(config: &ConformanceConfig) -> Result<ConformanceReport> {
    let _span = rds_obs::span("conformance.run");
    let started = Instant::now();
    let solver = OptimalSolver::default();
    let mut report = ConformanceReport::default();

    // Journal setup: passing cases skip on resume, failing ones re-run
    // (the stream is deterministic, so they fail identically and their
    // counterexamples are regenerated).
    let mut skip: BTreeSet<u64> = BTreeSet::new();
    let mut journal = match (&config.journal, config.resume) {
        (Some(path), true) => {
            let (journal, records) = Journal::resume(path, &campaign_meta(config))?;
            skip.extend(
                records
                    .iter()
                    .filter(|r| r.status.usable())
                    .map(|r| r.trial),
            );
            Some(journal)
        }
        (Some(path), false) => Some(Journal::create(path, &campaign_meta(config))?),
        (None, _) => None,
    };

    if let Some(dir) = &config.artifact_dir {
        std::fs::create_dir_all(dir).map_err(|e| rds_core::Error::Io {
            op: "create-dir",
            path: dir.display().to_string(),
            why: e.to_string(),
        })?;
    }

    let deadline = config.seconds.map(Duration::from_secs_f64);
    for index in 0..config.cases {
        // A budget too short for any case still runs one, so a sweep
        // that passes has checked something.
        if report.cases_run > 0 && deadline.is_some_and(|d| started.elapsed() >= d) {
            break;
        }
        if skip.contains(&index) {
            report.cases_skipped += 1;
            continue;
        }
        let spec = generate_case(config.seed, index, config.max_n, config.max_m);
        report.cases_run += 1;
        let (mut violations, mut error) =
            match check_case(&spec, &StrategyId::suite(spec.m), config.mutation, &solver) {
                Err(e) => {
                    report.violations += 1;
                    (1, Some(format!("case rejected by the oracle: {e}")))
                }
                Ok(case_report) => {
                    report.checks_run += case_report.checks_run;
                    let n = case_report.violations.len() as u64;
                    report.violations += n;
                    let error = case_report
                        .violations
                        .first()
                        .map(|v| format!("{} violation(s); first: {}", n, v.detail));
                    archive_violations(config, index, &spec, &case_report, &solver, &mut report)?;
                    (n, error)
                }
            };
        // The seeded arms, each on its own spec for this case index.
        for arm in Arm::ALL {
            let case = arm.run(config, index);
            report.checks_run += case.checks_run;
            let Some(first) = case.violations.first() else {
                continue;
            };
            let n = case.violations.len() as u64;
            report.violations += n;
            report.arm_violations[arm as usize] += n;
            violations += n;
            let msg = format!(
                "{n} {} violation(s); first: [{}] {}",
                arm.as_str(),
                first.check,
                first.detail
            );
            error = Some(match error {
                Some(prev) => format!("{prev}; {msg}"),
                None => msg,
            });
        }
        if let Some(j) = journal.as_mut() {
            j.append(&trial_record(config, index, violations, error))?;
        }
    }

    report.elapsed = started.elapsed();
    if rds_obs::enabled() {
        let g = rds_obs::global();
        g.counter("conformance.cases").add(report.cases_run);
        g.counter("conformance.checks").add(report.checks_run);
        g.counter("conformance.violations").add(report.violations);
    }
    Ok(report)
}

/// Shrinks and archives one counterexample per breached (strategy, check)
/// pair, respecting the campaign's counterexample cap.
fn archive_violations(
    config: &ConformanceConfig,
    index: u64,
    spec: &CaseSpec,
    case_report: &CaseReport,
    solver: &OptimalSolver,
    report: &mut ConformanceReport,
) -> Result<()> {
    let mut seen: BTreeSet<(String, &'static str)> = BTreeSet::new();
    for v in &case_report.violations {
        if report.counterexamples.len() >= config.max_counterexamples {
            break;
        }
        if !seen.insert((v.strategy.name(), v.check.as_str())) {
            continue;
        }
        let shrunk = shrink(
            spec,
            v.strategy,
            config.mutation,
            v.check,
            solver,
            SHRINK_BUDGET,
        );
        let ce = Counterexample {
            strategy: v.strategy,
            mutation: config.mutation,
            check: v.check,
            observed: v.observed,
            limit: v.limit,
            detail: v.detail.clone(),
            seed: config.seed,
            case_index: index,
            shrink_steps: shrunk.steps,
            spec: shrunk.spec,
        };
        if let Some(dir) = &config.artifact_dir {
            let path = dir.join(format!(
                "counterexample-{index}-{}-{}.json",
                ce.strategy.name(),
                ce.check.as_str()
            ));
            ce.write(&path)?;
            report.artifacts.push(path);
        }
        report.counterexamples.push(ce);
    }
    Ok(())
}

/// Re-runs a saved counterexample through the full check battery.
///
/// # Errors
/// Returns an error when the archived case itself is invalid (corrupt or
/// hand-edited artifact).
pub fn replay(ce: &Counterexample, solver: &OptimalSolver) -> Result<ReplayOutcome> {
    let _span = rds_obs::span("conformance.replay");
    let report = check_case(&ce.spec, &[ce.strategy], ce.mutation, solver)?;
    let reproduced = report
        .violations
        .iter()
        .any(|v| v.strategy == ce.strategy && v.check == ce.check);
    Ok(ReplayOutcome { reproduced, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::CheckKind;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rds-conformance-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn shipped_strategies_survive_the_stream() {
        let config = ConformanceConfig {
            cases: 40,
            ..ConformanceConfig::default()
        };
        let report = run(&config).unwrap();
        assert_eq!(report.cases_run, 40);
        assert_eq!(
            report.violations, 0,
            "shipped strategies flagged: {:?}",
            report.counterexamples
        );
        assert!(report.checks_run > 200);
    }

    #[test]
    fn a_spent_time_budget_still_runs_one_case() {
        let config = ConformanceConfig {
            cases: 50,
            seconds: Some(1e-9),
            ..ConformanceConfig::default()
        };
        let report = run(&config).unwrap();
        assert_eq!(report.cases_run, 1);
        assert!(report.checks_run > 0);
    }

    #[test]
    fn mutant_campaign_produces_replayable_artifacts() {
        let dir = tmp("artifacts");
        let config = ConformanceConfig {
            cases: 16,
            mutation: Mutation::DropReplica,
            artifact_dir: Some(dir.clone()),
            max_counterexamples: 2,
            ..ConformanceConfig::default()
        };
        let report = run(&config).unwrap();
        assert!(report.violations > 0, "mutant escaped the oracle");
        assert!(!report.counterexamples.is_empty());
        assert!(report.counterexamples.len() <= 2);
        assert_eq!(report.artifacts.len(), report.counterexamples.len());

        let solver = OptimalSolver::default();
        for path in &report.artifacts {
            let ce = Counterexample::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
            let outcome = replay(&ce, &solver).unwrap();
            assert!(outcome.reproduced, "artifact {path:?} did not reproduce");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ignore_reliability_mutant_fails_the_campaign() {
        let config = ConformanceConfig {
            cases: 24,
            mutation: Mutation::IgnoreReliability,
            ..ConformanceConfig::default()
        };
        let report = run(&config).unwrap();
        assert!(
            report.violations > 0,
            "reliability-blind mutant escaped the campaign"
        );
    }

    #[test]
    fn ignore_memory_budget_mutant_fails_the_campaign() {
        let config = ConformanceConfig {
            cases: 24,
            mutation: Mutation::IgnoreMemoryBudget,
            ..ConformanceConfig::default()
        };
        let report = run(&config).unwrap();
        assert!(
            report.violations > 0,
            "memory-blind mutant escaped the campaign"
        );
        assert_eq!(
            report.violations,
            report.arm_violations[Arm::Ilp as usize],
            "ignore-memory-budget must only fire in the ILP arm"
        );
    }

    #[test]
    fn ignore_speeds_mutant_fails_the_campaign() {
        let config = ConformanceConfig {
            cases: 24,
            mutation: Mutation::IgnoreSpeeds,
            ..ConformanceConfig::default()
        };
        let report = run(&config).unwrap();
        assert!(report.violations > 0, "speed-blind mutant escaped");
        assert_eq!(
            report.violations,
            report.arm_violations[Arm::Hetero as usize],
            "ignore-speeds must only fire in the hetero arm"
        );
    }

    #[test]
    fn ignore_transfer_cost_mutant_fails_the_campaign() {
        let config = ConformanceConfig {
            cases: 24,
            mutation: Mutation::IgnoreTransferCost,
            ..ConformanceConfig::default()
        };
        let report = run(&config).unwrap();
        assert!(report.violations > 0, "transfer-blind mutant escaped");
        assert_eq!(
            report.violations,
            report.arm_violations[Arm::Hetero as usize],
            "ignore-transfer-cost must only fire in the hetero arm"
        );
    }

    #[test]
    fn journal_resume_skips_passing_cases() {
        let path = tmp("resume.journal");
        let _ = std::fs::remove_file(&path);
        let mut config = ConformanceConfig {
            cases: 10,
            journal: Some(path.clone()),
            ..ConformanceConfig::default()
        };
        let first = run(&config).unwrap();
        assert_eq!(first.cases_run, 10);

        config.cases = 20;
        config.resume = true;
        let second = run(&config).unwrap();
        assert_eq!(second.cases_skipped, 10);
        assert_eq!(second.cases_run, 10);
        assert_eq!(second.violations, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replay_of_a_doctored_passing_case_reports_not_reproduced() {
        let ce = Counterexample {
            strategy: StrategyId::LptNoChoice,
            mutation: Mutation::None,
            check: CheckKind::GuaranteeRatio,
            observed: 0.0,
            limit: 0.0,
            detail: "hand-written".into(),
            seed: 0,
            case_index: 0,
            shrink_steps: 0,
            spec: CaseSpec {
                estimates: vec![2.0, 1.0],
                m: 2,
                alpha: 1.5,
                factors: vec![1.0, 1.0],
            },
        };
        let outcome = replay(&ce, &OptimalSolver::default()).unwrap();
        assert!(!outcome.reproduced);
    }

    #[test]
    fn campaign_digest_is_pinned() {
        // Conformance journals record this value; a change breaks resume.
        assert_eq!(
            campaign_meta(&ConformanceConfig::default()).digest,
            0x8d94_004a_b433_785f
        );
    }
}

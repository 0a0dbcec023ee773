//! **Extension E4** — fault tolerance: the Hadoop motivation, measured.
//!
//! The paper motivates replication via Hadoop, which replicates data "for
//! the purpose of tolerating hardware faults" — and then exploits the
//! same replicas against runtime uncertainty. This experiment injects
//! random machine crashes through the resilience engine and measures,
//! per replication policy: the task survival rate (runs no longer abort
//! when a task strands — they report a partial outcome), restarts,
//! wasted work, and makespan degradation among fully-completed runs.
//!
//! Run: `cargo run --release -p rds-bench --bin fault_tolerance [--quick]`
//!
//! Crash safety: `--journal <path>` checkpoints every finished trial to
//! an fsync'd JSONL journal; `--resume` skips journaled trials and
//! reproduces the aggregate table bit-for-bit.

use rds_bench::{arg_flag, arg_value, header, quick_mode};
use rds_core::{Instance, MachineId, Time, Uncertainty};
use rds_policies::{run_campaign_resumable, standard_suite, CampaignConfig, Trial};
use rds_report::{table::fmt, Align, Table};
use rds_sim::faults::{FaultEvent, FaultScript};
use rds_workloads::{realize::RealizationModel, rng};

/// Draws `count` distinct machines crashing at random times in
/// `[0, horizon)`.
fn draw_failures(m: usize, count: usize, horizon: f64, seed: u64) -> FaultScript {
    use rand::seq::SliceRandom;
    use rand::Rng;
    let mut r = rng::rng(seed);
    let mut ids: Vec<usize> = (0..m).collect();
    ids.shuffle(&mut r);
    ids.truncate(count);
    FaultScript::new(
        ids.into_iter()
            .map(|i| FaultEvent::Crash {
                machine: MachineId::new(i),
                at: Time::of(r.gen_range(0.0..horizon)),
            })
            .collect(),
    )
}

fn main() -> rds_core::Result<()> {
    header("E4 — surviving machine failures (m = 12, α = 1.5, 2 crashes/run)");
    let quick = quick_mode();
    let (n, m) = (60usize, 12usize);
    let reps = if quick { 10 } else { 60 };
    let failures_per_run = 2;
    let unc = Uncertainty::of(1.5);
    let mut r = rng::rng(404);
    let est =
        rds_workloads::EstimateDistribution::Uniform { lo: 1.0, hi: 10.0 }.sample_n(n, &mut r);
    let inst = Instance::from_estimates(&est, m)?;

    // Crashes land inside 80% of the load-balance lower bound, so they
    // reliably hit machines with work still in flight.
    let horizon = inst.total_estimate().get() / m as f64 * 0.8;
    let trials: Vec<Trial> = (0..reps)
        .map(|rep| {
            let trial_seed = rng::child_seed(777, rep as u64);
            let mut rr = rng::rng(trial_seed);
            let real = RealizationModel::UniformFactor.realize(&inst, unc, &mut rr)?;
            let script = draw_failures(
                m,
                failures_per_run,
                horizon,
                rng::child_seed(888, rep as u64),
            );
            Ok(Trial {
                seed: trial_seed,
                realization: real,
                script,
            })
        })
        .collect::<rds_core::Result<_>>()?;

    let suite = standard_suite(&inst, unc)?;
    let mut config = CampaignConfig::new(
        "fault_tolerance",
        404,
        format!("n={n} m={m} reps={reps} failures={failures_per_run}"),
    );
    config.journal = arg_value("journal").map(std::path::PathBuf::from);
    config.resume = arg_flag("resume");
    let report = run_campaign_resumable(&inst, &suite, &trials, &config)?;
    let rows = &report.rows;
    if let Some(path) = &config.journal {
        println!(
            "journal: {} ({} trial(s) executed, {} resumed)",
            path.display(),
            report.executed,
            report.skipped
        );
    }
    if !report.quarantined.is_empty() {
        println!("quarantined trials (excluded from aggregates):");
        for q in &report.quarantined {
            println!(
                "  {} trial {} (seed {}): {} after {} attempt(s)",
                q.policy, q.trial, q.seed, q.error, q.attempts
            );
        }
    }

    let mut t = Table::new(vec![
        "policy",
        "replicas/task",
        "completed runs",
        "task survival",
        "mean degradation",
        "worst degradation",
        "mean restarts",
        "mean wasted work",
    ])
    .align(vec![
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for row in rows {
        let degr = |v: f64| if v.is_nan() { "-".into() } else { fmt(v, 3) };
        t.row(vec![
            row.name.clone(),
            row.replicas.to_string(),
            format!("{}/{}", row.completed_runs, row.runs),
            fmt(row.mean_survival, 3),
            degr(row.mean_degradation),
            degr(row.worst_degradation),
            fmt(row.mean_restarts, 2),
            fmt(row.mean_wasted, 2),
        ]);
    }
    println!("{}", t.to_markdown());

    // Structural claims: pinned placements strand tasks whenever a loaded
    // machine dies (the run now completes partially instead of erroring);
    // any ≥2-replica policy survives 2 failures only if the failed pair
    // never covers a whole replica set — chained k=2 can still lose a
    // task if both chain members die. k ≥ 3 and everywhere must always
    // fully complete under 2 failures.
    let by_name = |needle: &str| -> rds_core::Result<&rds_policies::CampaignRow> {
        rows.iter()
            .find(|r| r.name.contains(needle))
            .ok_or(rds_core::Error::InvalidParameter {
                what: "expected policy missing from campaign rows",
            })
    };
    let pinned = by_name("No Choice")?;
    let full = by_name("No Restriction")?;
    let chain3 = by_name("Chained(k=3)")?;
    assert!(
        pinned.completed_runs < pinned.runs,
        "pinned should strand sometimes"
    );
    assert!(
        pinned.mean_survival > 0.0 && pinned.mean_survival < 1.0,
        "stranded runs still complete the surviving tasks (partial outcome)"
    );
    assert_eq!(
        full.completed_runs, full.runs,
        "full replication always survives"
    );
    assert_eq!(
        chain3.completed_runs, chain3.runs,
        "3 replicas survive 2 failures"
    );
    println!(
        "pinned fully completed {}/{} runs (task survival {:.3} — partial \
         outcomes, not aborts); every ≥3-replica policy completed all — \
         replication is simultaneously the fault-tolerance and the \
         uncertainty mechanism, as the paper's Hadoop motivation suggests.",
        pinned.completed_runs, pinned.runs, pinned.mean_survival
    );
    Ok(())
}

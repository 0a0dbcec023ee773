//! The `rds` subcommands.
//!
//! Each command takes parsed [`Args`] and writes its report to the given
//! writer, so the binary stays a thin shell and everything is testable.

use crate::args::{ArgError, Args};
use rds_algs::{LptNoChoice, LptNoRestriction, LsGroup, Strategy};
use rds_bounds::replication as rb;
use rds_core::{Instance, Realization, Result as CoreResult, Schedule, Uncertainty};
use rds_exact::OptimalSolver;
use rds_report::{table::fmt, Align, Table};
use rds_workloads::{realize::RealizationModel, rng, EstimateDistribution};
use std::io::Write;

/// Any error a command can produce.
pub type CmdError = Box<dyn std::error::Error>;

/// A command body: it reads its parsed flags and writes its report.
type Body = fn(&Args, &mut dyn Write) -> Result<(), CmdError>;

/// Every subcommand as (name, body, help text). The help text is the
/// command's declaration: each `--name` in it is a flag the command
/// accepts, valued when a `<…>` placeholder follows, and
/// [`Args::parse`] rejects any other. `rds help` prints this table.
#[rustfmt::skip]
const COMMANDS: &[(&str, Body, &str)] = &[
    ("bounds", cmd_bounds, "print the proven competitive-ratio guarantees
            --alpha <f64> --m <usize> [--k <usize>]"),
    ("plan", cmd_plan, "run phase 1 of a strategy on an instance
            [--strategy <no-choice|no-restriction|group>] [--k <usize>]
            --m <usize> --alpha <f64>
            [--estimates <a,b,c,...>] or [--n <usize>] [--seed <u64>]"),
    ("simulate", cmd_simulate, "run both phases under a sampled realization
            [--strategy <no-choice|no-restriction|group>] [--k <usize>]
            --m <usize> --alpha <f64> [--seed <u64>]
            [--estimates <a,b,c,...>] or [--n <usize>]
            [--model <exact|uniform|two-point|inflate>] [--gantt]"),
    ("envelope", cmd_envelope, "robustness envelope of the static LPT placement
            --m <usize> --alpha <f64>
            [--estimates <a,b,c,...>] or [--n <usize>] [--seed <u64>]"),
    ("memory", cmd_memory, "SABO/ABO bi-objective sweep over delta
            --m <usize> --alpha <f64> [--n <usize>] [--seed <u64>]
            [--model <exact|uniform|two-point|inflate>]"),
    ("resilience", cmd_resilience, "MTBF-driven fault campaign: survival rate, restarts, wasted
            work, and makespan degradation per placement strategy
            --m <usize, >= 3> --mtbf <f64> (0 = fault-free)
            [--n <usize>] [--alpha <f64>] [--beta <f64>] [--reps <usize>]
            [--seed <u64>] [--stragglers <rate in [0, 1]>] [--gantt]
            [--min-survival <p>]  exit non-zero when even the best
            policy's mean survival rate falls below p
            crash safety: [--journal <path>] [--resume] [--validate]
            [--budget-ms <u64>] [--retries <u32>]
            [--stall-ms <u64>] [--stall-trial <u64>]"),
    ("reliability", cmd_reliability, "resilience-vs-memory frontier on a seeded heterogeneous
            cluster: fixed-k chained replication versus survival-target
            placement under identical scripted fault campaigns
            --m <usize> [--n <usize>] [--zones <usize>]
            [--targets <p,p,...>] [--ks <k,k,...>] [--alpha <f64>]
            [--reps <usize>] [--seed <u64>]"),
    ("frontier", cmd_frontier, "makespan-vs-memory Pareto frontier: ILP branch-and-bound and
            LP-rounding placement swept over a per-machine memory budget
            grid against the greedy strategies, under one realization
            --m <usize> [--n <usize>] [--alpha <f64>] [--seed <u64>]
            [--ks <k,k,...>] [--budget-steps <usize, >= 2>]
            heterogeneity: [--speeds <spec>] [--topology <spec>]"),
    ("sweep", cmd_sweep, "empirical competitive-ratio sweep: the standard suite over
            sampled realizations versus the certified lower bound on C*
            --m <usize, >= 3> [--n <usize>] [--alpha <f64>] [--reps <usize>]
            [--seed <u64>] [--model <exact|uniform|two-point|inflate>]
            heterogeneity: [--speeds <spec>] [--topology <spec>]
              speed specs:    unit | uniform:<lo>,<hi>
                              | two-class:<slow>,<fast>,<p-fast>
              topology specs: zero | uniform:<latency>
                              | clustered:<zones>,<local>,<remote>
                              | random:<lo>,<hi>
            crash safety: [--journal <path>] [--resume] [--validate]
            [--budget-ms <u64>] [--retries <u32>]
            [--stall-ms <u64>] [--stall-trial <u64>]"),
    ("conformance", cmd_conformance, "differential/metamorphic oracle: run every strategy through
            the closed forms AND the event engine on a seeded case
            stream, checking exact-solver brackets, proven guarantees,
            and metamorphic invariants; failures shrink to minimal
            replayable counterexamples
            [--cases <u64>] [--seed <u64>]
            [--seconds <f64>]  a time budget: once spent, no further
                               case starts, but one always runs
            [--max-n <usize>] [--max-m <usize>]
            [--mutate <none|drop-replica|ignore-reliability|
                       ignore-memory-budget|ignore-speeds|
                       ignore-transfer-cost>]
            [--artifacts <dir>]
            [--max-counterexamples <usize>]
            crash safety: [--journal <path>] [--resume]
            replay: --replay <counterexample.json>"),
    ("serve", cmd_serve, "streaming scheduler daemon: continuous arrivals, bounded
            admission with typed rejection + backpressure, overload
            shedding and replication degradation (hysteresis
            watermarks), graceful drain on SIGTERM/SIGINT, crash
            recovery from an fsync'd journal
            --m <usize> [--k <usize>] [--tasks <u64>] [--rate <f64>]
            [--arrivals <poisson|bursty|trace>] [--burst-rate <f64>]
            [--period <f64>] [--burst-fraction <f64>]
            [--trace-file <path>] [--est-lo <f64>] [--est-hi <f64>]
            [--alpha <f64>] [--fail-rate <f64>] [--attempts <u32>]
            [--deadline-factor <f64>] [--queue-cap <usize>]
            [--kd <usize>] [--degrade-hi <usize>] [--degrade-lo <usize>]
            [--shed-hi <usize>] [--shed-lo <usize>]
            [--fsync-every <usize>] [--seed <u64>] [--plot]
            [--status-every <u64 events>] [--pace-us <u64>]
            crash safety: [--journal <path>] [--resume]
            line protocol on stdin: [--stdin]"),
    ("help", cmd_help, "show this message"),
];

/// What `rds help` prints below the command table: prose, not a
/// declaration, since any `--name` in a declaring text becomes a flag.
const HELP_FOOT: &str = "
Observability options (any command):
  --metrics <path>    enable instrumentation and write a JSON metrics
                      summary (counters + latency histograms) to <path>;
                      a human-readable table is printed as well
  --trace-out <path>  enable instrumentation and write the collected
                      tracing spans as JSONL (one span per line) to
                      <path>

Crash safety options (resilience, sweep):
  --journal <path>  append each finished trial to an fsync'd JSONL
                    journal; a killed campaign can pick up where it left
                    off with --resume (aggregates are bit-identical to an
                    uninterrupted run)
  --validate        run the schedule invariant validator on every trial
                    (always on in debug builds)
  --budget-ms <ms>  per-trial wall-clock budget enforced by a watchdog;
                    a hung trial is cancelled, retried with backoff, and
                    quarantined after --retries attempts
";

/// The metric series every instrumented run is expected to expose.
/// Pre-registered when observability is switched on, so a `--metrics`
/// report always names the interesting series even when a run never
/// touched one — a zero there is a finding, not a gap in the report.
const STANDARD_COUNTERS: &[&str] = &[
    "engine.events",
    "engine.dispatch",
    "engine.starved",
    "journal.appends",
    "watchdog.retries",
    "watchdog.quarantines",
    "validator.checks",
    "validator.violations",
    "campaign.trials",
    "campaign.skipped",
    "sweep.items",
    "conformance.cases",
    "conformance.checks",
    "conformance.violations",
    "conformance.shrink_steps",
    "reliability.frontier.fixed_k_points",
    "reliability.frontier.survival_points",
    "serve.admitted",
    "serve.completed",
    "serve.shed",
    "serve.rejected",
    "serve.retries",
    "serve.degraded",
    "serve.transitions",
    "serve.journal.appends",
];

/// Histogram companions to [`STANDARD_COUNTERS`].
const STANDARD_HISTOGRAMS: &[&str] = &[
    "trial.latency",
    "journal.fsync",
    "serve.queue_depth",
    "serve.response_time",
    "serve.journal.fsync",
];

/// Switches global instrumentation on when `--metrics` or `--trace-out`
/// was given, and seeds the registry with the standard series.
fn obs_setup(args: &Args) -> Result<(), CmdError> {
    let wanted =
        args.get::<String>("metrics")?.is_some() || args.get::<String>("trace-out")?.is_some();
    if !wanted {
        return Ok(());
    }
    rds_obs::set_enabled(true);
    let g = rds_obs::global();
    for name in STANDARD_COUNTERS {
        g.counter(name);
    }
    for name in STANDARD_HISTOGRAMS {
        g.histogram(name);
    }
    Ok(())
}

/// Exports whatever instrumentation collected: the metrics JSON (plus a
/// human-readable table) for `--metrics`, the span JSONL for
/// `--trace-out`. Both files are written atomically.
fn obs_finish(args: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    if let Some(path) = args.get::<String>("metrics")? {
        let snapshot = rds_obs::global().snapshot();
        rds_report::write_atomic_str(&path, &snapshot.to_json())?;
        writeln!(out, "\nobservability metrics ({} series):", snapshot.len())?;
        write!(out, "{}", rds_report::metrics::render(&snapshot))?;
        writeln!(out, "metrics written to {path}")?;
    }
    if let Some(path) = args.get::<String>("trace-out")? {
        let spans = rds_obs::global().take_spans();
        rds_report::write_atomic_str(&path, &rds_obs::spans_to_jsonl(&spans))?;
        let dropped = rds_obs::global().dropped_spans();
        if dropped > 0 {
            writeln!(
                out,
                "trace: {dropped} span(s) dropped past the {}-span cap",
                rds_obs::MAX_SPANS
            )?;
        }
        writeln!(out, "trace: {} span(s) written to {path}", spans.len())?;
    }
    Ok(())
}

/// The `--strategy` (default `no-restriction`) for `m` machines.
fn build_strategy(args: &Args, m: usize) -> Result<Box<dyn Strategy>, CmdError> {
    let name: String = args.get_or("strategy", "no-restriction".to_string())?;
    Ok(match name.as_str() {
        "no-choice" => Box::new(LptNoChoice),
        "no-restriction" => Box::new(LptNoRestriction),
        "group" => {
            let k = checked("k", args.require("k")?, |k| (1..=m).contains(k))?;
            Box::new(LsGroup::new_relaxed(k))
        }
        other => return Err(bad_spec("strategy", format!("unknown strategy {other:?}")).into()),
    })
}

fn build_instance(args: &Args) -> Result<(Instance, Uncertainty), CmdError> {
    let (m, n, alpha) = shape(args, 1, 4, None)?;
    let est = match args.floats("estimates")? {
        Some(est) => est,
        None => {
            // Synthesize when not given explicitly.
            let mut r = rng::rng(args.get_or("seed", 42u64)?);
            EstimateDistribution::Uniform { lo: 1.0, hi: 10.0 }.sample_n(n, &mut r)
        }
    };
    Ok((Instance::from_estimates(&est, m)?, Uncertainty::new(alpha)?))
}

fn build_realization(
    args: &Args,
    inst: &Instance,
    unc: Uncertainty,
) -> Result<Realization, CmdError> {
    let seed: u64 = args.get_or("seed", 42u64)?;
    let mut r = rng::rng(seed);
    let (_, model) = realization_model(args)?;
    Ok(model.realize(inst, unc, &mut r)?)
}

/// A usage error for a `--key` value outside its domain.
fn bad_value(key: &str, value: impl ToString) -> ArgError {
    ArgError::BadValue {
        key: key.to_string(),
        value: value.to_string(),
    }
}

/// A spec-string usage error for `--key`.
fn bad_spec(key: &str, reason: String) -> ArgError {
    ArgError::BadSpec {
        key: key.to_string(),
        reason,
    }
}

/// `value`, read from `--{key}`, when `ok` holds for it; else a usage
/// error.
fn checked<T: ToString>(key: &str, value: T, ok: impl FnOnce(&T) -> bool) -> Result<T, ArgError> {
    if ok(&value) {
        Ok(value)
    } else {
        Err(bad_value(key, value))
    }
}

/// Reads `--alpha`, required unless `default` gives it: an uncertainty
/// factor is finite and at least 1.
fn read_alpha(args: &Args, default: Option<f64>) -> Result<f64, ArgError> {
    let alpha = match default {
        Some(alpha) => args.get_or("alpha", alpha)?,
        None => args.require("alpha")?,
    };
    checked("alpha", alpha, |a| a.is_finite() && *a >= 1.0)
}

/// Reads the `(m, n, alpha)` of an instance of the paper's model,
/// rejecting values outside their domain as usage errors before any
/// work: fewer than `min_m` machines, zero tasks, more machines or tasks
/// than the engine's `u32` ids number ([`EventQueue::MAX_IDS`]), or an
/// `alpha` below 1 or not finite. `n` defaults to `n_per_m · m`, an
/// `--m` error when that is too many tasks, and `alpha` is required
/// unless `default_alpha` gives it.
///
/// [`EventQueue::MAX_IDS`]: rds_sim::event::EventQueue::MAX_IDS
fn shape(
    args: &Args,
    min_m: usize,
    n_per_m: usize,
    default_alpha: Option<f64>,
) -> Result<(usize, usize, f64), ArgError> {
    let ids = 1..=rds_sim::event::EventQueue::MAX_IDS;
    let m = checked("m", args.require("m")?, |m| *m >= min_m && ids.contains(m))?;
    let n = match args.get("n")? {
        Some(n) => checked("n", n, |n| ids.contains(n))?,
        None => n_per_m
            .checked_mul(m)
            .filter(|n| ids.contains(n))
            .ok_or_else(|| bad_value("m", m))?,
    };
    Ok((m, n, read_alpha(args, default_alpha)?))
}

/// Reads the UTF-8 text file named by option `--{key}`. A file that
/// cannot be read is a runtime failure; one that is not UTF-8 text is a
/// malformed `--{key}`. Either way the message is `describe`'s.
fn read_text(
    key: &str,
    path: &str,
    describe: impl FnOnce(&std::io::Error) -> String,
) -> Result<String, CmdError> {
    std::fs::read_to_string(path).map_err(|e| {
        let reason = describe(&e);
        if e.kind() == std::io::ErrorKind::InvalidData {
            bad_spec(key, reason).into()
        } else {
            reason.into()
        }
    })
}

/// Parses `--model` (default `uniform`) into its name and model.
fn realization_model(args: &Args) -> Result<(String, RealizationModel), ArgError> {
    let name: String = args.get_or("model", "uniform".to_string())?;
    let model = match name.as_str() {
        "exact" => RealizationModel::Exact,
        "uniform" => RealizationModel::UniformFactor,
        "two-point" => RealizationModel::TwoPoint { p_inflate: 0.3 },
        "inflate" => RealizationModel::AllInflate,
        other => {
            return Err(bad_spec(
                "model",
                format!("unknown realization model {other:?}"),
            ))
        }
    };
    Ok((name, model))
}

/// `rds bounds`: the guarantee table for given `α`, `m` (and optional `k`).
pub fn cmd_bounds(args: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    // The bounds assert their domain; a flag outside it is a usage error.
    let alpha = read_alpha(args, None)?;
    let m: usize = checked("m", args.require("m")?, |&m| m > 0)?;
    let k: Option<usize> = args.get("k")?;
    if let Some(k) = k.filter(|&k| k == 0 || k > m) {
        return Err(bad_value("k", k).into());
    }
    let mut t = Table::new(vec!["result", "value"]).align(vec![Align::Left, Align::Right]);
    t.row(vec![
        "Th.1 lower bound (|M_j| = 1)".to_string(),
        fmt(rb::lower_bound_no_replication(alpha, m), 4),
    ]);
    t.row(vec![
        "Th.2 LPT-No Choice".to_string(),
        fmt(rb::lpt_no_choice(alpha, m), 4),
    ]);
    t.row(vec![
        "Th.3 LPT-No Restriction".to_string(),
        fmt(rb::lpt_no_restriction(alpha, m), 4),
    ]);
    t.row(vec![
        "Graham List Scheduling".to_string(),
        fmt(rb::graham_list_scheduling(m), 4),
    ]);
    if let Some(k) = k {
        t.row(vec![
            format!("Th.4 LS-Group(k={k})"),
            fmt(rb::ls_group(alpha, m, k), 4),
        ]);
    }
    writeln!(out, "guarantees for alpha = {alpha}, m = {m}:")?;
    writeln!(out, "{}", t.to_markdown())?;
    Ok(())
}

/// `rds plan`: phase 1 only — show the placement.
pub fn cmd_plan(args: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    let (inst, unc) = build_instance(args)?;
    let strategy = build_strategy(args, inst.m())?;
    let placement = strategy.place(&inst, unc)?;
    writeln!(
        out,
        "{} on n = {}, m = {}, alpha = {}:",
        strategy.name(),
        inst.n(),
        inst.m(),
        unc.alpha()
    )?;
    let mut t = Table::new(vec!["task", "estimate", "placement |M_j|", "machines"]);
    for t_id in inst.task_ids() {
        t.row(vec![
            format!("{t_id}"),
            format!("{}", inst.estimate(t_id)),
            placement.replicas(t_id).to_string(),
            format!("{}", placement.set(t_id)),
        ]);
    }
    writeln!(out, "{}", t.to_markdown())?;
    writeln!(
        out,
        "total replicas: {} ({}x the no-replication footprint)",
        placement.total_replicas(),
        placement.total_replicas() as f64 / inst.n() as f64
    )?;
    Ok(())
}

/// `rds simulate`: both phases under a sampled realization.
pub fn cmd_simulate(args: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    let (inst, unc) = build_instance(args)?;
    let strategy = build_strategy(args, inst.m())?;
    let real = build_realization(args, &inst, unc)?;
    let outcome = strategy.run(&inst, unc, &real)?;
    let opt = OptimalSolver::default().solve_realization(&real, inst.m());
    writeln!(
        out,
        "{}: C_max = {}   C* in [{}, {}]   ratio <= {:.4}",
        strategy.name(),
        outcome.makespan,
        opt.lo,
        opt.hi,
        outcome.makespan.ratio(opt.lo).unwrap_or(1.0)
    )?;
    if args.flag("gantt") {
        let schedule: CoreResult<Schedule> = Ok(Schedule::sequence(
            &outcome.assignment.tasks_per_machine(),
            &real,
        ));
        writeln!(out, "{}", rds_report::gantt::render(&schedule?, 60))?;
    }
    Ok(())
}

/// `rds envelope`: static-schedule robustness report.
pub fn cmd_envelope(args: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    let (inst, unc) = build_instance(args)?;
    let placement = LptNoChoice.place(&inst, unc)?;
    let assignment = LptNoChoice.execute(&inst, &placement, &Realization::exact(&inst))?;
    let env = rds_robust::envelope(&inst, &assignment, unc);
    writeln!(
        out,
        "LPT placement envelope: planned = {}, best = {}, worst = {} (width {:.3})",
        env.planned,
        env.best,
        env.worst,
        env.relative_width()
    )?;
    let crit = rds_robust::machine_criticality(&inst, &assignment);
    let mut t = Table::new(vec!["machine", "criticality"]).align(vec![Align::Right; 2]);
    for (i, c) in crit.iter().enumerate() {
        t.row(vec![format!("p{i}"), fmt(*c, 3)]);
    }
    writeln!(out, "{}", t.to_markdown())?;
    Ok(())
}

/// `rds memory`: bi-objective SABO/ABO sweep on a synthesized workload.
pub fn cmd_memory(args: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    use rds_algs::memory::{abo::Abo, sabo::Sabo, MemoryStrategy};
    let (m, n, alpha) = shape(args, 1, 5, None)?;
    let unc = Uncertainty::new(alpha)?;
    let seed: u64 = args.get_or("seed", 42u64)?;
    let mut r = rng::rng(seed);
    use rand::Rng as _;
    let pairs: Vec<(f64, f64)> = (0..n)
        .map(|_| (r.gen_range(1.0..10.0), r.gen_range(0.5..6.0)))
        .collect();
    let inst = Instance::from_estimates_and_sizes(&pairs, m)?;
    let real = build_realization(args, &inst, unc)?;
    let mut t = Table::new(vec![
        "delta",
        "SABO C_max",
        "SABO Mem_max",
        "ABO C_max",
        "ABO Mem_max",
    ])
    .align(vec![Align::Right; 5]);
    for &d in &[0.25, 0.5, 1.0, 2.0, 4.0] {
        let sabo = Sabo::new(d).run(&inst, unc, &real)?;
        let abo = Abo::new(d).run(&inst, unc, &real)?;
        t.row(vec![
            fmt(d, 2),
            fmt(sabo.makespan.get(), 2),
            fmt(sabo.mem_max.get(), 2),
            fmt(abo.makespan.get(), 2),
            fmt(abo.mem_max.get(), 2),
        ]);
    }
    writeln!(
        out,
        "memory-aware sweep on n = {n}, m = {m}, alpha = {alpha}:"
    )?;
    writeln!(out, "{}", t.to_markdown())?;
    Ok(())
}

/// Maps the fault-relevant events of a simulation trace onto Gantt
/// [`rds_report::Mark`]s (slot occupancy is already in the schedule).
fn fault_marks(trace: &rds_sim::Trace) -> Vec<rds_report::Mark> {
    use rds_report::{Mark, MarkKind};
    use rds_sim::TraceEvent;
    trace
        .events()
        .iter()
        .filter_map(|ev| match *ev {
            TraceEvent::Failure { time, machine } => {
                Some(Mark::new(time, machine, MarkKind::Failure))
            }
            TraceEvent::Recovery { time, machine } => {
                Some(Mark::new(time, machine, MarkKind::Recovery))
            }
            TraceEvent::Degraded { time, machine, .. } => {
                Some(Mark::new(time, machine, MarkKind::Degraded))
            }
            TraceEvent::SpeculativeStart { time, machine, .. } => {
                Some(Mark::new(time, machine, MarkKind::SpeculativeStart))
            }
            TraceEvent::Cancelled { time, machine, .. } => {
                Some(Mark::new(time, machine, MarkKind::Cancelled))
            }
            _ => None,
        })
        .collect()
}

/// Builds the crash-safety configuration shared by the journaled
/// commands (`resilience`, `sweep`) from their common options.
fn campaign_config(
    args: &Args,
    campaign: &str,
    seed: u64,
    params: String,
) -> Result<rds_policies::CampaignConfig, CmdError> {
    use std::time::Duration;
    if args.flag("validate") {
        // Same switch the validator reads in release builds.
        std::env::set_var("RDS_VALIDATE", "1");
    }
    let mut config = rds_policies::CampaignConfig::new(campaign, seed, params);
    config.journal = args.get::<String>("journal")?.map(std::path::PathBuf::from);
    config.resume = args.flag("resume");
    if let Some(ms) = args.get::<u64>("budget-ms")? {
        config.watchdog.budget = Some(Duration::from_millis(ms));
    }
    config.watchdog.max_attempts = args.get_or("retries", 3u32)?.max(1);
    let stall_ms: u64 = args.get_or("stall-ms", 0u64)?;
    if stall_ms > 0 {
        config.stall = Some(rds_policies::StallInjection {
            delay: Duration::from_millis(stall_ms),
            only_trial: args.get::<u64>("stall-trial")?,
        });
    }
    Ok(config)
}

/// Writes the poison list and journal summary shared by the journaled
/// commands.
fn report_campaign_health(
    report: &rds_policies::CampaignReport,
    journal: Option<&std::path::Path>,
    out: &mut dyn Write,
) -> Result<(), CmdError> {
    if !report.quarantined.is_empty() {
        writeln!(out, "\nquarantined trials (excluded from aggregates):")?;
        let mut t = Table::new(vec!["policy", "trial", "seed", "attempts", "last error"]);
        for q in &report.quarantined {
            t.row(vec![
                q.policy.clone(),
                q.trial.to_string(),
                q.seed.to_string(),
                q.attempts.to_string(),
                q.error.clone(),
            ]);
        }
        writeln!(out, "{}", t.to_markdown())?;
    }
    if let Some(path) = journal {
        writeln!(
            out,
            "journal: {} ({} trial(s) executed, {} resumed)",
            path.display(),
            report.executed,
            report.skipped
        )?;
    }
    Ok(())
}

/// `rds resilience`: MTBF-driven fault campaign over the standard
/// policy suite, with speculative re-execution enabled. Runs on the
/// crash-safe campaign runtime: journaled and resumable via
/// `--journal`/`--resume`, with per-trial watchdog budgets.
pub fn cmd_resilience(args: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    use rds_sim::Speculation;
    use rds_workloads::FaultModel;
    // The standard suite's Chained(k = 3) needs three machines, and a
    // campaign of zero reps measures nothing.
    let (m, n, alpha) = shape(args, 3, 8, Some(1.5))?;
    let reps: usize = checked("reps", args.get_or("reps", 10)?, |&r| r > 0)?;
    let unc = Uncertainty::new(alpha)?;
    // `--mtbf 0` is the zero-fault campaign.
    let mtbf: f64 = args.require("mtbf")?;
    let mtbf = checked("mtbf", mtbf, |t| t.is_finite() && *t >= 0.0)?;
    let seed: u64 = args.get_or("seed", 42u64)?;
    // Speculation's patience must be positive and finite; reject any
    // other value here as a usage error instead of panicking later.
    let beta: f64 = args.get_or("beta", 1.5)?;
    let beta = checked("beta", beta, |b| *b > 0.0 && b.is_finite())?;
    let min_survival: Option<f64> = args.get("min-survival")?;
    if min_survival.is_some_and(|p| !(0.0..=1.0).contains(&p)) {
        return Err(bad_spec("min-survival", "--min-survival must be in [0, 1]".into()).into());
    }
    let stragglers: f64 = args.get_or("stragglers", 0.0)?;
    let stragglers = checked("stragglers", stragglers, |p| (0.0..=1.0).contains(p))?;

    let mut r = rng::rng(seed);
    let est = EstimateDistribution::Uniform { lo: 1.0, hi: 10.0 }.sample_n(n, &mut r);
    let inst = Instance::from_estimates(&est, m)?;
    // Faults land inside roughly twice the load-balance lower bound, so
    // they hit while work is actually in flight.
    let horizon = inst.total_estimate().get() / m as f64 * alpha * 2.0;
    let model = FaultModel::mtbf(mtbf, horizon)?.with_stragglers(stragglers, 3.0)?;

    let suite = rds_policies::standard_suite(&inst, unc)?;
    let trials = (0..reps)
        .map(|i| {
            let trial_seed = rng::child_seed(seed, i as u64);
            let mut tr = rng::rng(trial_seed);
            let real = RealizationModel::UniformFactor.realize(&inst, unc, &mut tr)?;
            let script = model.generate(m, n, &mut tr);
            Ok(rds_policies::Trial {
                seed: trial_seed,
                realization: real,
                script,
            })
        })
        .collect::<CoreResult<Vec<_>>>()?;
    let params = format!(
        "n={n} m={m} mtbf={mtbf} alpha={alpha} beta={beta} stragglers={stragglers} reps={reps}"
    );
    let mut config = campaign_config(args, "resilience", seed, params)?;
    config.speculation = Some(Speculation::new(beta, unc));
    let report = rds_policies::run_campaign_resumable(&inst, &suite, &trials, &config)?;
    let rows = &report.rows;

    writeln!(
        out,
        "resilience campaign: n = {n}, m = {m}, mtbf = {mtbf}, alpha = {alpha}, \
         beta = {beta}, stragglers = {stragglers}, reps = {reps}, seed = {seed}"
    )?;
    let mut t = Table::new(vec![
        "policy",
        "replicas",
        "survival rate",
        "completed runs",
        "mean restarts",
        "mean wasted work",
        "spec wins",
        "mean degradation",
        "worst degradation",
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
        Align::Right,
    ]);
    for row in rows {
        let degr = |v: f64| {
            if v.is_nan() {
                "-".to_string()
            } else {
                fmt(v, 3)
            }
        };
        t.row(vec![
            row.name.clone(),
            row.replicas.to_string(),
            fmt(row.mean_survival, 3),
            format!("{}/{}", row.completed_runs, row.runs),
            fmt(row.mean_restarts, 2),
            fmt(row.mean_wasted, 2),
            fmt(row.mean_spec_wins, 2),
            degr(row.mean_degradation),
            degr(row.worst_degradation),
        ]);
    }
    writeln!(out, "{}", t.to_markdown())?;
    if args.flag("gantt") {
        if let (Some(policy), Some(trial)) = (suite.last(), trials.first()) {
            let mut d = policy.dispatcher(&inst);
            let sim_report = rds_sim::ResilienceEngine::new(
                &inst,
                &policy.placement,
                &trial.realization,
                &trial.script,
            )?
            .with_speculation(Speculation::new(beta, unc))
            .run(d.as_mut())?;
            let marks = fault_marks(&sim_report.trace);
            writeln!(
                out,
                "\n{} under trial 0 ({} scripted fault events):",
                policy.name,
                trial.script.len()
            )?;
            write!(
                out,
                "{}",
                rds_report::gantt::render_with_marks(&sim_report.schedule, 60, &marks)
            )?;
        }
    }
    if mtbf == 0.0 && stragglers == 0.0 {
        let exact = rows.iter().all(|row| {
            row.completed_runs == row.runs
                && row.mean_degradation == 1.0
                && row.worst_degradation == 1.0
        });
        if exact {
            writeln!(
                out,
                "zero-fault campaign: every strategy reproduced its fault-free \
                 makespan exactly (degradation = 1)"
            )?;
        } else {
            writeln!(
                out,
                "warning: zero-fault campaign deviated from the fault-free baseline"
            )?;
        }
    }
    report_campaign_health(&report, config.journal.as_deref(), out)?;
    if let Some(threshold) = min_survival {
        let best = rows
            .iter()
            .filter(|row| !row.mean_survival.is_nan())
            .max_by(|a, b| a.mean_survival.total_cmp(&b.mean_survival));
        match best {
            Some(row) if row.mean_survival + 1e-12 >= threshold => {
                writeln!(
                    out,
                    "survival gate: PASS ({} reached {:.4} >= {threshold})",
                    row.name, row.mean_survival
                )?;
            }
            Some(row) => {
                writeln!(
                    out,
                    "survival gate: FAIL (best policy {} reached only {:.4} < {threshold})",
                    row.name, row.mean_survival
                )?;
                return Err(format!(
                    "survival gate failed: best mean survival {:.4} below --min-survival {threshold}",
                    row.mean_survival
                )
                .into());
            }
            None => return Err("survival gate failed: no completed trials".into()),
        }
    }
    Ok(())
}

/// Parses `--ks`, a comma-separated list of group counts in `1..=m`;
/// without the flag, `1..=default_max` (capped at `m`).
fn parse_ks(args: &Args, m: usize, default_max: usize) -> Result<Vec<usize>, ArgError> {
    let Some(raw) = args.get::<String>("ks")? else {
        return Ok((1..=default_max.min(m)).collect());
    };
    let ks = raw
        .split(',')
        .map(|p| {
            p.trim()
                .parse::<usize>()
                .map_err(|_| bad_spec("ks", format!("cannot parse --ks entry {p:?}")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    if ks.iter().any(|&k| k < 1 || k > m) {
        return Err(bad_spec("ks", "--ks entries must be in 1..=m".into()));
    }
    Ok(ks)
}

/// `rds reliability`: the resilience-vs-memory frontier on a seeded
/// heterogeneous cluster. Fixed-k chained replication and survival-target
/// placement run under *identical* scripted fault campaigns, so the
/// frontier compares memory spent against survival delivered on equal
/// footing, with the analytic survival bound cross-checked by the engine.
pub fn cmd_reliability(args: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    use rds_core::ReliabilityModel;
    use rds_report::plot::{Chart, Series};
    use rds_workloads::HeterogeneousFaultModel;

    let (m, n, alpha) = shape(args, 1, 3, Some(1.5))?;
    let unc = Uncertainty::new(alpha)?;
    let seed: u64 = args.get_or("seed", 42u64)?;
    let zones: usize = args.get_or("zones", 3usize.min(m))?;
    let zones = checked("zones", zones, |z| (1..=m).contains(z))?;
    let reps: usize = checked("reps", args.get_or("reps", 30)?, |&r| r > 0)?;
    let targets = args.floats("targets")?.unwrap_or(vec![0.9, 0.97, 0.995]);
    if let Some(&p) = targets.iter().find(|p| !(0.0..=1.0).contains(*p)) {
        return Err(bad_value("targets", p).into());
    }
    let ks = parse_ks(args, m, 3)?;

    // Seeded heterogeneous cluster: per-machine MTBFs spread over an
    // order of magnitude (some flaky, some solid) and mildly unreliable
    // zones, so the reliability-aware planner has real structure to use.
    let mut r = rng::rng(seed);
    let est = EstimateDistribution::Uniform { lo: 1.0, hi: 10.0 }.sample_n(n, &mut r);
    let inst = Instance::from_estimates(&est, m)?;
    let horizon = inst.total_estimate().get() / m as f64 * alpha * 2.0;
    use rand::Rng as _;
    let mtbf: Vec<f64> = (0..m).map(|_| horizon * r.gen_range(1.2..12.0)).collect();
    let zone_outage = r.gen_range(0.01..0.06);
    // Heterogeneous re-staging weights: losing a replica on one machine
    // can cost several times more than on another (bandwidth, egress).
    let recovery: Vec<f64> = (0..m).map(|_| r.gen_range(0.5..4.0)).collect();
    let model = ReliabilityModel::from_mtbf(&mtbf, horizon, zones, zone_outage)?
        .with_recovery_costs(recovery)?;
    let hetero = HeterogeneousFaultModel::new(model.clone(), horizon)?;

    let points = rds_policies::frontier(&inst, unc, &hetero, &ks, &targets, reps, seed)?;

    writeln!(
        out,
        "reliability frontier: n = {n}, m = {m}, zones = {zones}, alpha = {alpha}, \
         horizon = {horizon:.2}, zone outage = {zone_outage:.3}, reps = {reps}, seed = {seed}"
    )?;
    writeln!(
        out,
        "machine failure probabilities over the horizon: [{}]",
        (0..m)
            .map(|i| format!("{:.3}", model.machine_fail(rds_core::MachineId::new(i))))
            .collect::<Vec<_>>()
            .join(", ")
    )?;
    let mut t = Table::new(vec![
        "policy",
        "memory",
        "analytic survival",
        "measured survival",
        "max replicas",
        "E[recovery cost]",
        "degraded",
    ])
    .align({
        let mut a = vec![Align::Right; 7];
        a[0] = Align::Left;
        a
    });
    for p in &points {
        t.row(vec![
            p.label.clone(),
            fmt(p.memory, 1),
            fmt(p.analytic, 4),
            fmt(p.measured, 4),
            p.max_replicas.to_string(),
            fmt(p.recovery_cost, 2),
            if p.degraded {
                "yes".into()
            } else {
                "no".into()
            },
        ]);
    }
    writeln!(out, "{}", t.to_markdown())?;

    let fixed: Vec<(f64, f64)> = points
        .iter()
        .filter(|p| p.label.starts_with("k="))
        .map(|p| (p.memory, p.analytic))
        .collect();
    let survival: Vec<(f64, f64)> = points
        .iter()
        .filter(|p| !p.label.starts_with("k="))
        .map(|p| (p.memory, p.analytic))
        .collect();
    let chart = Chart::new("analytic min survival vs memory", 64, 12)?
        .series(Series::new("fixed-k", 'o', fixed))
        .series(Series::new("survival-target", 'S', survival));
    write!(out, "{}", chart.render())?;

    writeln!(out, "\ndominance (guaranteed-survival curve vs fixed-k):")?;
    for (label, winner) in rds_policies::dominance(&points) {
        match winner {
            Some(by) => writeln!(out, "  {label}: dominated by {by}")?,
            None => writeln!(out, "  {label}: not dominated")?,
        }
    }
    Ok(())
}

/// Splits a `--key` spec `<head>[:<x>,<y>,...]` into its head and its
/// numbers (empty components are skipped).
fn spec_parts<'a>(key: &str, raw: &'a str) -> Result<(&'a str, Vec<f64>), ArgError> {
    let (head, tail) = raw.split_once(':').unwrap_or((raw, ""));
    let nums = tail
        .split(',')
        .filter(|p| !p.is_empty())
        .map(|p| {
            p.trim()
                .parse::<f64>()
                .map_err(|_| bad_spec(key, format!("cannot parse --{key} component {p:?}")))
        })
        .collect::<Result<Vec<f64>, _>>()?;
    Ok((head, nums))
}

/// Parses a `--speeds` spec: `unit`, `uniform:<lo>,<hi>`, or
/// `two-class:<slow>,<fast>,<p-fast>`.
fn parse_speed_spec(raw: &str) -> Result<rds_workloads::SpeedDistribution, ArgError> {
    use rds_workloads::SpeedDistribution as S;
    let (head, nums) = spec_parts("speeds", raw)?;
    let dist = match (head, nums.as_slice()) {
        ("unit", []) => S::Unit,
        ("uniform", [lo, hi]) => S::Uniform { lo: *lo, hi: *hi },
        ("two-class", [slow, fast, p_fast]) => S::TwoClass {
            slow: *slow,
            fast: *fast,
            p_fast: *p_fast,
        },
        _ => {
            return Err(bad_spec(
                "speeds",
                format!(
                    "bad --speeds spec {raw:?}; try unit | uniform:<lo>,<hi> | \
                     two-class:<slow>,<fast>,<p-fast>"
                ),
            ))
        }
    };
    dist.validate()
        .map_err(|e| bad_spec("speeds", e.to_string()))?;
    Ok(dist)
}

/// Parses a `--topology` spec: `zero`, `uniform:<latency>`,
/// `clustered:<zones>,<local>,<remote>`, or `random:<lo>,<hi>`.
fn parse_topology_spec(raw: &str) -> Result<rds_workloads::TopologyModel, ArgError> {
    use rds_workloads::TopologyModel as T;
    let (head, nums) = spec_parts("topology", raw)?;
    let model = match (head, nums.as_slice()) {
        ("zero", []) => T::Zero,
        ("uniform", [latency]) => T::UniformRemote { latency: *latency },
        ("clustered", [zones, local, remote]) if zones.fract() == 0.0 && *zones >= 1.0 => {
            T::Clustered {
                zones: *zones as usize,
                local: *local,
                remote: *remote,
            }
        }
        ("random", [lo, hi]) => T::RandomPairs { lo: *lo, hi: *hi },
        _ => {
            return Err(bad_spec(
                "topology",
                format!(
                    "bad --topology spec {raw:?}; try zero | uniform:<latency> | \
                     clustered:<zones>,<local>,<remote> | random:<lo>,<hi>"
                ),
            ))
        }
    };
    model
        .validate()
        .map_err(|e| bad_spec("topology", e.to_string()))?;
    Ok(model)
}

/// Realizes the `--speeds` spec `raw` (parsed as `dist`) for `m`
/// machines. Speeds so slow that `real`'s work overflows even on the
/// fastest machine would make every time derived from them infinite, so
/// they are a malformed spec too.
fn realize_speeds(
    raw: &str,
    dist: &rds_workloads::SpeedDistribution,
    m: usize,
    real: &Realization,
    r: &mut rand::rngs::StdRng,
) -> Result<rds_core::MachineSpeeds, CmdError> {
    let speeds = dist.realize(m, r)?;
    let work: f64 = real.times().iter().map(|t| t.get()).sum();
    if !(work / speeds.max()).is_finite() {
        return Err(bad_spec(
            "speeds",
            format!(
                "--speeds {raw:?} is too slow: the realized work overflows even on the \
                 fastest machine"
            ),
        )
        .into());
    }
    Ok(speeds)
}

/// Realizes the optional `--speeds`/`--topology` specs into a
/// [`rds_policies::HeteroProfile`] using the given RNG.
fn hetero_profile(
    args: &Args,
    m: usize,
    real: &Realization,
    r: &mut rand::rngs::StdRng,
) -> Result<rds_policies::HeteroProfile, CmdError> {
    let speeds = match args.get::<String>("speeds")? {
        Some(raw) => Some(realize_speeds(&raw, &parse_speed_spec(&raw)?, m, real, r)?),
        None => None,
    };
    let topology = match args.get::<String>("topology")? {
        Some(raw) => Some(parse_topology_spec(&raw)?.build(m, r)?),
        None => None,
    };
    Ok(rds_policies::HeteroProfile { speeds, topology })
}

/// `rds frontier`: the makespan-vs-memory Pareto frontier. The
/// optimization-based placements (`IlpPlacement`, `LpRoundingPlacement`)
/// sweep a grid of per-machine memory budgets against the paper's greedy
/// strategies, all executed under the same sampled realization, and the
/// non-dominated points are marked. Optional `--speeds`/`--topology`
/// specs run the sweep under a heterogeneous profile (adding the
/// `SpeedRobust-Bags` baselines).
pub fn cmd_frontier(args: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    use rds_policies::{budget_grid, pareto_sweep_hetero};
    use rds_report::plot::{Chart, Series};

    let (m, n, alpha) = shape(args, 1, 3, Some(1.5))?;
    let unc = Uncertainty::new(alpha)?;
    let seed: u64 = args.get_or("seed", 42u64)?;
    // The grid runs from the lowest budget to the highest: two at least.
    let steps: usize = args.get_or("budget-steps", 5usize)?;
    let steps = checked("budget-steps", steps, |&s| s >= 2)?;
    let ks = parse_ks(args, m, 2)?;

    // Seeded sized instance: sizes drawn independently of the times, so
    // the load-optimal and memory-optimal placements genuinely differ
    // and the budget axis has real structure.
    let mut r = rng::rng(seed);
    let est = EstimateDistribution::Uniform { lo: 1.0, hi: 10.0 }.sample_n(n, &mut r);
    use rand::Rng as _;
    let pairs: Vec<(f64, f64)> = est.iter().map(|&p| (p, r.gen_range(1.0..8.0))).collect();
    let inst = Instance::from_estimates_and_sizes(&pairs, m)?;
    let real = RealizationModel::UniformFactor.realize(&inst, unc, &mut r)?;
    let budgets = budget_grid(&inst, steps);
    // Hetero draws come after the realization draw, so homogeneous runs
    // (no flags) keep their historical stream bit-for-bit.
    let profile = hetero_profile(args, m, &real, &mut r)?;

    let sweep = pareto_sweep_hetero(&inst, unc, &real, &ks, &budgets, &profile)?;
    let points = &sweep.points;

    writeln!(
        out,
        "makespan-vs-memory frontier: n = {n}, m = {m}, alpha = {alpha}, seed = {seed}, \
         budgets = [{}], ks = {ks:?}",
        budgets
            .iter()
            .map(|b| format!("{b:.1}"))
            .collect::<Vec<_>>()
            .join(", ")
    )?;
    if !profile.is_homogeneous() {
        writeln!(
            out,
            "hetero profile: speeds = {}, topology = {}",
            args.get::<String>("speeds")?.as_deref().unwrap_or("unit"),
            args.get::<String>("topology")?.as_deref().unwrap_or("zero"),
        )?;
    }
    let mut t = Table::new(vec![
        "strategy",
        "makespan",
        "Mem_max",
        "total memory",
        "replicas",
        "pareto",
    ])
    .align({
        let mut a = vec![Align::Right; 6];
        a[0] = Align::Left;
        a
    });
    for p in points {
        t.row(vec![
            p.label.clone(),
            fmt(p.makespan, 2),
            fmt(p.mem_max, 1),
            fmt(p.total_memory, 1),
            p.replicas.to_string(),
            if p.on_frontier { "*".into() } else { "".into() },
        ]);
    }
    writeln!(out, "{}", t.to_markdown())?;
    for (kind, skipped) in [
        ("infeasible", &sweep.infeasible),
        ("unsolved", &sweep.unsolved),
    ] {
        if skipped.is_empty() {
            continue;
        }
        writeln!(out, "{kind}, kept off the frontier:")?;
        for u in skipped {
            writeln!(out, "  {}: {}", u.label, u.reason)?;
        }
        writeln!(out)?;
    }

    let greedy: Vec<(f64, f64)> = points
        .iter()
        .filter(|p| !p.label.starts_with("ILP(") && !p.label.starts_with("LP-Round("))
        .map(|p| (p.mem_max, p.makespan))
        .collect();
    let ilp: Vec<(f64, f64)> = points
        .iter()
        .filter(|p| p.label.starts_with("ILP("))
        .map(|p| (p.mem_max, p.makespan))
        .collect();
    let rounding: Vec<(f64, f64)> = points
        .iter()
        .filter(|p| p.label.starts_with("LP-Round("))
        .map(|p| (p.mem_max, p.makespan))
        .collect();
    let chart = Chart::new("realized makespan vs Mem_max", 64, 12)?
        .series(Series::new("greedy", 'o', greedy))
        .series(Series::new("ilp", 'I', ilp))
        .series(Series::new("lp-round", 'r', rounding));
    write!(out, "{}", chart.render())?;

    let on: Vec<&str> = points
        .iter()
        .filter(|p| p.on_frontier)
        .map(|p| p.label.as_str())
        .collect();
    writeln!(out, "\npareto frontier: {}", on.join(", "))?;
    Ok(())
}

/// `rds sweep`: empirical competitive-ratio sweep of the standard suite
/// over sampled realizations, measured against the exact solver's lower
/// bound on each realization. Journaled and resumable like
/// `rds resilience`; per-trial ratios are stored as
/// makespan/baseline pairs, so aggregates survive a crash bit-for-bit.
pub fn cmd_sweep(args: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    use rds_policies::{CellOrder, SweepRep};
    use std::sync::Arc;

    // As in `rds resilience`: three machines and one rep at least.
    let (m, n, alpha) = shape(args, 3, 8, Some(1.5))?;
    let reps: usize = checked("reps", args.get_or("reps", 20)?, |&r| r > 0)?;
    let unc = Uncertainty::new(alpha)?;
    let seed: u64 = args.get_or("seed", 42u64)?;
    let (model_name, model) = realization_model(args)?;

    let speeds_raw = args.get::<String>("speeds")?;
    let topology_raw = args.get::<String>("topology")?;
    let speed_dist = speeds_raw.as_deref().map(parse_speed_spec).transpose()?;
    let topo_model = topology_raw
        .as_deref()
        .map(parse_topology_spec)
        .transpose()?;

    let mut r = rng::rng(seed);
    let est = EstimateDistribution::Uniform { lo: 1.0, hi: 10.0 }.sample_n(n, &mut r);
    let inst = Arc::new(Instance::from_estimates(&est, m)?);
    let suite = rds_policies::standard_suite(&inst, unc)?;
    // Hetero specs join the journal params so a resumed journal refuses to
    // mix homogeneous and heterogeneous records; absent flags leave the
    // historical params string untouched.
    let mut params = format!("n={n} m={m} alpha={alpha} reps={reps} model={model_name}");
    if let Some(raw) = &speeds_raw {
        params.push_str(&format!(" speeds={raw}"));
    }
    if let Some(raw) = &topology_raw {
        params.push_str(&format!(" topology={raw}"));
    }
    let config = campaign_config(args, "sweep", seed, params)?;

    // Rep-major: a rep's realization, hetero draws and ratio denominator
    // are built once, and only when one of its cells is pending.
    let rep_inputs = |rep: u64| -> Result<(u64, Arc<SweepRep>), CmdError> {
        let trial_seed = rng::child_seed(seed, rep);
        let mut tr = rng::rng(trial_seed);
        let realization = model.realize(&inst, unc, &mut tr)?;
        // Hetero draws come after the realization draw so runs without
        // the flags keep their historical stream.
        let speeds = match speeds_raw.as_deref().zip(speed_dist.as_ref()) {
            Some((raw, d)) => Some(realize_speeds(raw, d, m, &realization, &mut tr)?),
            None => None,
        };
        let topology = match &topo_model {
            Some(t) => Some(t.build(m, &mut tr)?),
            None => None,
        };
        // The exact solver's certified lower bound on the offline
        // optimum of this realization is the ratio denominator; the
        // bracket's upper side is never needed here. Under
        // heterogeneous speeds the homogeneous solver bound no longer
        // applies, so switch to the speed-aware bound (transfer charges
        // only add time, so it stays sound when a topology is also
        // present).
        let baseline = match &speeds {
            Some(s) => rds_algs::speed_lower_bound(realization.times(), s).get(),
            None => OptimalSolver::default()
                .lower_bound(realization.times(), inst.m())
                .get(),
        };
        let rep = SweepRep {
            realization,
            speeds,
            topology,
            baseline,
        };
        Ok((trial_seed, Arc::new(rep)))
    };
    let report = rds_policies::run_supervised(
        Arc::clone(&inst),
        &suite,
        reps as u64,
        CellOrder::TrialMajor,
        &config,
        rep_inputs,
        rds_policies::run_sweep_trial,
    )?;
    if rds_obs::enabled() {
        rds_obs::global()
            .counter("sweep.items")
            .add(report.executed as u64);
    }

    writeln!(
        out,
        "competitive-ratio sweep: n = {n}, m = {m}, alpha = {alpha}, \
         model = {model_name}, reps = {reps}, seed = {seed}"
    )?;
    if speeds_raw.is_some() || topology_raw.is_some() {
        writeln!(
            out,
            "hetero profile: speeds = {}, topology = {} \
             (ratios measured against the speed-aware lower bound)",
            speeds_raw.as_deref().unwrap_or("unit"),
            topology_raw.as_deref().unwrap_or("zero"),
        )?;
    }
    let mut t = Table::new(vec![
        "policy",
        "replicas",
        "runs",
        "mean ratio",
        "worst ratio",
    ])
    .align(vec![
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    // Rows aggregate per policy in (suite order, rep order); the
    // journaled makespan/baseline pairs reproduce the ratios bit-for-bit.
    let degr = |v: f64| {
        if v.is_nan() {
            "-".to_string()
        } else {
            fmt(v, 4)
        }
    };
    for row in &report.rows {
        t.row(vec![
            row.name.clone(),
            row.replicas.to_string(),
            row.runs.to_string(),
            degr(row.mean_degradation),
            degr(row.worst_degradation),
        ]);
    }
    writeln!(out, "{}", t.to_markdown())?;
    report_campaign_health(&report, config.journal.as_deref(), out)?;
    Ok(())
}

/// `rds conformance`: budgeted differential/metamorphic oracle sweep, or
/// replay of a saved counterexample artifact. A run that finds (or
/// reproduces) a violation returns an error so the process exits
/// non-zero — conformance is a pass/fail gate, not a report.
pub fn cmd_conformance(args: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    use rds_conformance::{Counterexample, Mutation};
    use std::path::PathBuf;
    use std::time::Duration;

    if let Some(path) = args.get::<String>("replay")? {
        let text = read_text("replay", &path, |e| {
            rds_core::Error::Io {
                op: "read",
                path: path.clone(),
                why: e.to_string(),
            }
            .to_string()
        })?;
        // Text that is not an artifact is a malformed replay too.
        let ce = Counterexample::parse(&text).map_err(|e| bad_spec("replay", e.to_string()))?;
        writeln!(
            out,
            "replaying {path}: strategy {}, mutation {}, check {} \
             (n = {}, m = {}, alpha = {})",
            ce.strategy.name(),
            ce.mutation.as_str(),
            ce.check.as_str(),
            ce.spec.n(),
            ce.spec.m,
            ce.spec.alpha
        )?;
        let outcome = rds_conformance::replay(&ce, &OptimalSolver::default())?;
        if outcome.reproduced {
            writeln!(out, "REPRODUCED: the archived violation still fires")?;
            for v in &outcome.report.violations {
                writeln!(
                    out,
                    "  [{}] {} — {}",
                    v.check.as_str(),
                    v.strategy.name(),
                    v.detail
                )?;
            }
            return Err(format!(
                "counterexample reproduced: {} breaks {} (observed {}, limit {})",
                ce.strategy.name(),
                ce.check.as_str(),
                ce.observed,
                ce.limit
            )
            .into());
        }
        writeln!(
            out,
            "not reproduced: {} check(s) ran clean on the archived case",
            outcome.report.checks_run
        )?;
        return Ok(());
    }

    let mutation_name: String = args.get_or("mutate", "none".to_string())?;
    let mutation = Mutation::parse(&mutation_name).ok_or_else(|| {
        bad_spec(
            "mutate",
            format!(
                "unknown mutation {mutation_name:?}; try \
                 none|drop-replica|ignore-reliability|ignore-memory-budget\
                 |ignore-speeds|ignore-transfer-cost"
            ),
        )
    })?;
    // A budget that no `Duration` holds panics, and a zero budget, case
    // count or case size runs nothing.
    let seconds: Option<f64> = args.get("seconds")?;
    let budget = |s: &f64| Duration::try_from_secs_f64(*s).is_ok_and(|d| !d.is_zero());
    let config = rds_conformance::ConformanceConfig {
        seed: args.get_or("seed", 42u64)?,
        cases: checked("cases", args.get_or("cases", 200u64)?, |&c| c > 0)?,
        seconds: seconds.map(|s| checked("seconds", s, budget)).transpose()?,
        max_n: checked("max-n", args.get_or("max-n", 12usize)?, |&n| n > 0)?,
        max_m: checked("max-m", args.get_or("max-m", 8usize)?, |&m| m > 0)?,
        mutation,
        artifact_dir: args.get::<String>("artifacts")?.map(PathBuf::from),
        journal: args.get::<String>("journal")?.map(PathBuf::from),
        resume: args.flag("resume"),
        max_counterexamples: args.get_or("max-counterexamples", 8usize)?,
    };
    let report = rds_conformance::run(&config)?;
    writeln!(
        out,
        "conformance: seed = {}, cases = {}, max n = {}, max m = {}, mutation = {}",
        config.seed,
        config.cases,
        config.max_n,
        config.max_m,
        config.mutation.as_str()
    )?;
    writeln!(
        out,
        "cases: {} run, {} resumed from journal; {} checks in {:.2?}",
        report.cases_run, report.cases_skipped, report.checks_run, report.elapsed
    )?;
    if report.violations == 0 {
        writeln!(out, "no violations: every check passed")?;
        return Ok(());
    }
    writeln!(out, "VIOLATIONS: {}", report.violations)?;
    if !report.counterexamples.is_empty() {
        let mut t =
            Table::new(vec!["case", "strategy", "check", "n", "m", "shrink steps"]).align(vec![
                Align::Right,
                Align::Left,
                Align::Left,
                Align::Right,
                Align::Right,
                Align::Right,
            ]);
        for ce in &report.counterexamples {
            t.row(vec![
                ce.case_index.to_string(),
                ce.strategy.name(),
                ce.check.as_str().to_string(),
                ce.spec.n().to_string(),
                ce.spec.m.to_string(),
                ce.shrink_steps.to_string(),
            ]);
        }
        writeln!(out, "{}", t.to_markdown())?;
    }
    for (arm, &n) in rds_conformance::Arm::ALL.iter().zip(&report.arm_violations) {
        if n > 0 {
            let arm = arm.as_str();
            writeln!(
                out,
                "{arm} arm: {n} violation(s); reproduce with --seed {} \
                 ({arm} specs are fully seeded and never shrunk)",
                config.seed
            )?;
        }
    }
    for path in &report.artifacts {
        writeln!(out, "counterexample written to {}", path.display())?;
    }
    Err(format!(
        "conformance failed: {} violation(s), {} minimized counterexample(s)",
        report.violations,
        report.counterexamples.len()
    )
    .into())
}

/// Builds a [`rds_serve::ServeConfig`] from command-line options.
fn serve_config(args: &Args) -> Result<rds_serve::ServeConfig, CmdError> {
    use rds_workloads::ArrivalProcess;

    let m: usize = args.require("m")?;
    let k: usize = args.get_or("k", 2.min(m))?;
    let count: u64 = args.get_or("tasks", 10_000u64)?;
    let rate: f64 = args.get_or("rate", 4.0)?;
    let mut cfg = rds_serve::ServeConfig::poisson(m, k, rate, count);

    match args.get::<String>("arrivals")?.as_deref() {
        None | Some("poisson") => {}
        Some("bursty") => {
            cfg.process = ArrivalProcess::Bursty {
                base_rate: rate,
                burst_rate: args.get_or("burst-rate", rate * 4.0)?,
                period: args.get_or("period", 50.0)?,
                burst_fraction: args.get_or("burst-fraction", 0.2)?,
            };
        }
        Some("trace") => {
            let path: String = args.require("trace-file")?;
            let text = read_text("trace-file", &path, |e| {
                format!("cannot read --trace-file {path}: {e}")
            })?;
            let times = text
                .split(|c: char| c == ',' || c.is_whitespace())
                .filter(|s| !s.is_empty())
                .map(|s| {
                    s.parse::<f64>().map_err(|_| {
                        bad_spec("trace-file", format!("bad arrival time {s:?} in {path}"))
                    })
                })
                .collect::<Result<Vec<f64>, _>>()?;
            cfg.count = times.len() as u64;
            cfg.process = ArrivalProcess::Trace { times };
        }
        Some(other) => {
            return Err(bad_spec(
                "arrivals",
                format!("unknown --arrivals {other:?} (expected poisson|bursty|trace)"),
            )
            .into())
        }
    }
    // Rates and burst shape come from flags and trace times from the
    // user's file, so an arrival process outside its domain is a usage
    // error.
    cfg.process
        .validate()
        .map_err(|e| bad_spec("arrivals", e.to_string()))?;

    match (args.get("est-lo")?, args.get("est-hi")?) {
        (Some(lo), Some(hi)) => cfg.estimates = EstimateDistribution::Uniform { lo, hi },
        (None, None) => {}
        _ => return Err(bad_spec("serve", "--est-lo and --est-hi go together".into()).into()),
    }
    // A custom cap rescales the default watermarks before explicit
    // overrides apply, so `--queue-cap 64` alone stays well-formed.
    if let Some(cap) = args.get::<usize>("queue-cap")? {
        cfg.queue_cap = cap;
        cfg.degrade_hi = cap / 2;
        cfg.degrade_lo = cap * 3 / 8;
        cfg.shed_hi = cap * 3 / 4;
        cfg.shed_lo = cap * 5 / 8;
    }
    cfg.degraded_replication = args.get_or("kd", cfg.degraded_replication)?;
    cfg.degrade_hi = args.get_or("degrade-hi", cfg.degrade_hi)?;
    cfg.degrade_lo = args.get_or("degrade-lo", cfg.degrade_lo)?;
    cfg.shed_hi = args.get_or("shed-hi", cfg.shed_hi)?;
    cfg.shed_lo = args.get_or("shed-lo", cfg.shed_lo)?;
    cfg.deadline_factor = args.get_or("deadline-factor", cfg.deadline_factor)?;
    cfg.alpha = args.get_or("alpha", cfg.alpha)?;
    cfg.fail_rate = args.get_or("fail-rate", cfg.fail_rate)?;
    cfg.max_attempts = args.get_or("attempts", cfg.max_attempts)?;
    cfg.fsync_every = args.get_or("fsync-every", cfg.fsync_every)?;
    cfg.seed = args.get_or("seed", cfg.seed)?;
    // Every field now comes from a flag or its default, so a
    // configuration outside its domain is a usage error too.
    cfg.validate()
        .map_err(|e| bad_spec("serve", e.to_string()))?;
    Ok(cfg)
}

/// Renders a [`rds_serve::ServeReport`] as tables (and charts with
/// `--plot`).
fn serve_render(
    report: &rds_serve::ServeReport,
    plot: bool,
    out: &mut dyn Write,
) -> Result<(), CmdError> {
    use rds_report::plot::{Chart, Series};

    let mut t = Table::new(vec!["outcome", "count"]).align(vec![Align::Left, Align::Right]);
    t.row(vec!["admitted".into(), report.admitted.to_string()]);
    t.row(vec!["completed".into(), report.completed.to_string()]);
    t.row(vec!["shed (deadline)".into(), report.shed.to_string()]);
    t.row(vec!["failed (retries)".into(), report.failed.to_string()]);
    t.row(vec![
        "rejected: queue full".into(),
        report.rejected_full.to_string(),
    ]);
    t.row(vec![
        "rejected: deadline".into(),
        report.rejected_deadline.to_string(),
    ]);
    t.row(vec![
        "rejected: draining".into(),
        report.rejected_draining.to_string(),
    ]);
    t.row(vec!["retries".into(), report.retries.to_string()]);
    t.row(vec![
        "degraded-k admissions".into(),
        report.degraded_entries.to_string(),
    ]);
    t.row(vec![
        "overload transitions".into(),
        report.transitions.to_string(),
    ]);
    t.row(vec!["max queue depth".into(), report.max_depth.to_string()]);
    writeln!(out, "{}", t.to_markdown())?;

    let mut s = Table::new(vec!["metric", "count", "mean", "p50", "p95", "p99", "max"]).align({
        let mut a = vec![Align::Right; 7];
        a[0] = Align::Left;
        a
    });
    for (name, d) in [("wait time", &report.wait), ("flow time", &report.flow)] {
        s.row(vec![
            name.into(),
            d.count.to_string(),
            fmt(d.mean, 3),
            fmt(d.p50, 3),
            fmt(d.p95, 3),
            fmt(d.p99, 3),
            fmt(d.max, 3),
        ]);
    }
    writeln!(out, "{}", s.to_markdown())?;
    writeln!(
        out,
        "final state: {}  virtual makespan: {}  events: {}{}",
        report.final_state.label(),
        fmt(report.makespan, 3),
        report.events,
        if report.halted { "  (halted)" } else { "" }
    )?;

    if plot {
        if report.depth_series.len() > 1 {
            let chart = Chart::new("queue depth over virtual time", 64, 12)?.series(Series::new(
                "depth",
                '*',
                report.depth_series.clone(),
            ));
            writeln!(out, "\n{}", chart.render())?;
        }
        if report.flow_series.len() > 1 {
            let chart = Chart::new("flow time of completions", 64, 12)?.series(Series::new(
                "flow",
                '+',
                report.flow_series.clone(),
            ));
            writeln!(out, "\n{}", chart.render())?;
        }
    }
    Ok(())
}

/// `rds serve`: run the streaming scheduler daemon to completion (or
/// drive it over the stdin line protocol with `--stdin`), then report
/// admission/outcome counters, wait/flow-time digests, and optionally
/// ASCII charts of the queue-depth and flow-time series.
pub fn cmd_serve(args: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    use rds_serve::{serve_lines, signal, Control, Daemon};

    let cfg = serve_config(args)?;
    let journal: Option<String> = args.get("journal")?;
    let resume = args.flag("resume");
    let status_every: u64 = args.get_or("status-every", 0u64)?;
    let pace_us: u64 = args.get_or("pace-us", 0u64)?;

    let mut daemon = match &journal {
        Some(path) => Daemon::with_journal(cfg.clone(), path, resume)?,
        None => Daemon::new(cfg.clone())?,
    };
    signal::install();

    writeln!(
        out,
        "serve: m={} k={} (degraded {}) cap={} arrivals={} tasks={} seed={}",
        cfg.machines,
        cfg.replication,
        cfg.degraded_replication,
        cfg.queue_cap,
        match cfg.process {
            rds_workloads::ArrivalProcess::Poisson { .. } => "poisson",
            rds_workloads::ArrivalProcess::Bursty { .. } => "bursty",
            rds_workloads::ArrivalProcess::Trace { .. } => "trace",
        },
        cfg.count,
        cfg.seed
    )?;

    let report = if args.flag("stdin") {
        let stdin = std::io::stdin();
        serve_lines(&mut daemon, stdin.lock(), &mut *out)?
    } else {
        let mut ticks: u64 = 0;
        daemon.run(&mut |h| {
            if signal::drain_requested() {
                return Control::Drain;
            }
            if pace_us > 0 {
                std::thread::sleep(std::time::Duration::from_micros(pace_us));
            }
            ticks += 1;
            if status_every > 0 && ticks.is_multiple_of(status_every) {
                eprintln!("{}", h.line());
            }
            Control::Continue
        })?
    };
    serve_render(&report, args.flag("plot"), out)?;
    if let Some(path) = &journal {
        writeln!(out, "journal: {path}")?;
    }
    Ok(())
}

/// `rds help`, also `rds`, `rds --help` and `rds <command> --help`: the
/// command table, each command with its declaration.
fn cmd_help(_: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    writeln!(
        out,
        "rds — replicated data placement for uncertain scheduling\n\n\
         USAGE: rds <COMMAND> [OPTIONS]\n\nCOMMANDS:"
    )?;
    for (name, _, help) in COMMANDS {
        // A name wider than its column gets a line of its own.
        let wrap = if name.len() > 8 { "\n          " } else { "" };
        writeln!(out, "  {name:8}{wrap}  {help}")?;
    }
    writeln!(out, "{HELP_FOOT}")?;
    Ok(())
}

/// Dispatches a full command line (without the program name).
pub fn run<S: AsRef<str>>(argv: &[S], out: &mut dyn Write) -> Result<(), CmdError> {
    let (name, rest) = match argv.split_first() {
        Some((name, rest)) if !matches!(name.as_ref(), "--help" | "-h") => (name.as_ref(), rest),
        _ => ("help", argv.get(1..).unwrap_or_default()),
    };
    let Some(&(_, body, help)) = COMMANDS.iter().find(|c| c.0 == name) else {
        return Err(format!("unknown command {name:?}; try `rds help`").into());
    };
    let args = Args::parse(help, rest)?;
    if args.flag("help") {
        return cmd_help(&args, out);
    }
    obs_setup(&args)?;
    body(&args, out)?;
    obs_finish(&args, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::{declared, GLOBAL};
    use proptest::prelude::{any, prop, prop_assert, prop_assert_eq, proptest, ProptestConfig};

    fn run_to_string(argv: &[&str]) -> Result<String, CmdError> {
        let mut buf = Vec::new();
        run(argv, &mut buf)?;
        Ok(String::from_utf8(buf).unwrap())
    }

    #[test]
    fn bounds_prints_all_theorems() {
        let out = run_to_string(&["bounds", "--alpha", "2", "--m", "6", "--k", "2"]).unwrap();
        assert!(out.contains("Th.1"));
        assert!(out.contains("Th.2"));
        assert!(out.contains("Th.3"));
        assert!(out.contains("Th.4 LS-Group(k=2)"));
        // Spot value: Th.1 at α=2, m=6 is 24/9 ≈ 2.6667.
        assert!(out.contains("2.6667"));
    }

    #[test]
    fn plan_shows_placement_per_task() {
        let out = run_to_string(&[
            "plan",
            "--strategy",
            "group",
            "--k",
            "2",
            "--estimates",
            "4,3,2,1",
            "--m",
            "4",
            "--alpha",
            "1.5",
        ])
        .unwrap();
        assert!(out.contains("LS-Group(k=2)"));
        assert!(out.contains("t0"));
        assert!(out.contains("total replicas: 8"));
    }

    #[test]
    fn simulate_reports_ratio_and_gantt() {
        let out = run_to_string(&[
            "simulate",
            "--strategy",
            "no-restriction",
            "--estimates",
            "4,3,2,2,1",
            "--m",
            "2",
            "--alpha",
            "2",
            "--model",
            "two-point",
            "--seed",
            "7",
            "--gantt",
        ])
        .unwrap();
        assert!(out.contains("C_max"));
        assert!(out.contains("ratio <="));
        assert!(out.contains("p0"), "gantt rendered");
    }

    #[test]
    fn envelope_reports_criticality() {
        let out = run_to_string(&[
            "envelope",
            "--estimates",
            "4,3,2,1",
            "--m",
            "2",
            "--alpha",
            "2",
        ])
        .unwrap();
        assert!(out.contains("envelope"));
        assert!(out.contains("criticality"));
    }

    #[test]
    fn memory_sweep_prints_both_algorithms() {
        let out = run_to_string(&["memory", "--m", "3", "--alpha", "1.5", "--n", "9"]).unwrap();
        assert!(out.contains("SABO C_max"));
        assert!(out.contains("ABO Mem_max"));
        assert!(out.lines().count() > 7);
    }

    #[test]
    fn resilience_zero_mtbf_reproduces_baseline_exactly() {
        let out = run_to_string(&[
            "resilience",
            "--m",
            "3",
            "--n",
            "9",
            "--mtbf",
            "0",
            "--reps",
            "2",
            "--seed",
            "5",
        ])
        .unwrap();
        assert!(out.contains("survival rate"));
        assert!(out.contains("reproduced its fault-free makespan exactly"));
    }

    #[test]
    fn resilience_campaign_reports_all_policies() {
        let out = run_to_string(&[
            "resilience",
            "--m",
            "4",
            "--n",
            "16",
            "--mtbf",
            "15",
            "--reps",
            "2",
            "--seed",
            "3",
            "--stragglers",
            "0.2",
        ])
        .unwrap();
        assert!(out.contains("No Choice"));
        assert!(out.contains("No Restriction"));
        assert!(out.contains("k=3"));
        assert!(out.contains("mean restarts"));
        assert!(out.contains("mean wasted work"));
        assert!(out.contains("degradation"));
    }

    #[test]
    fn resilience_min_survival_gate_passes_and_fails() {
        // Fault-free campaign: survival is 1, so any threshold passes.
        let out = run_to_string(&[
            "resilience",
            "--m",
            "3",
            "--n",
            "9",
            "--mtbf",
            "0",
            "--reps",
            "2",
            "--seed",
            "5",
            "--min-survival",
            "0.9",
        ])
        .unwrap();
        assert!(out.contains("survival gate: PASS"));

        // A brutal MTBF drives survival far below an impossible target;
        // the command must exit with an error naming the gate.
        let err = run_to_string(&[
            "resilience",
            "--m",
            "4",
            "--n",
            "8",
            "--mtbf",
            "3",
            "--reps",
            "3",
            "--seed",
            "5",
            "--min-survival",
            "0.999",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("survival gate failed"));
        assert!(err.to_string().contains("0.999"));

        let err = run_to_string(&[
            "resilience",
            "--m",
            "3",
            "--n",
            "6",
            "--mtbf",
            "0",
            "--reps",
            "1",
            "--min-survival",
            "1.5",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("[0, 1]"));
    }

    #[test]
    fn reliability_frontier_reports_both_curves() {
        let out = run_to_string(&[
            "reliability",
            "--m",
            "6",
            "--n",
            "12",
            "--reps",
            "6",
            "--seed",
            "7",
        ])
        .unwrap();
        assert!(out.contains("reliability frontier"));
        assert!(out.contains("machine failure probabilities"));
        // Both families appear in the table…
        assert!(out.contains("k=1"));
        assert!(out.contains("k=3"));
        assert!(out.contains("S(0.9)"));
        assert!(out.contains("S(0.995)"));
        // …and in the chart legend, plus the dominance verdicts.
        assert!(out.contains("fixed-k"));
        assert!(out.contains("survival-target"));
        assert!(out.contains("dominance"));
        assert!(out.contains("dominated by S("));
    }

    #[test]
    fn reliability_accepts_explicit_targets_and_ks() {
        let out = run_to_string(&[
            "reliability",
            "--m",
            "4",
            "--n",
            "8",
            "--reps",
            "4",
            "--seed",
            "11",
            "--targets",
            "0.9",
            "--ks",
            "2",
        ])
        .unwrap();
        assert!(out.contains("k=2"));
        assert!(out.contains("S(0.9)"));
        assert!(!out.contains("k=1"));

        let err = run_to_string(&["reliability", "--m", "4", "--ks", "9"]).unwrap_err();
        assert!(err.to_string().contains("1..=m"));
    }

    #[test]
    fn resilience_gantt_overlays_fault_marks() {
        let out = run_to_string(&[
            "resilience",
            "--m",
            "4",
            "--n",
            "16",
            "--mtbf",
            "10",
            "--reps",
            "1",
            "--seed",
            "3",
            "--gantt",
        ])
        .unwrap();
        assert!(out.contains("under trial 0"));
        assert!(out.contains("p0"), "machine rows rendered");
        // An mtbf this small virtually guarantees at least one fault
        // event, and any drawn mark brings its legend entry.
        assert!(
            out.contains("X failure") || out.contains("^ recovery") || out.contains("~ degraded"),
            "legend missing:\n{out}"
        );
    }

    #[test]
    fn sweep_reports_ratios_at_least_one() {
        let out = run_to_string(&[
            "sweep", "--m", "3", "--n", "9", "--reps", "2", "--seed", "5",
        ])
        .unwrap();
        assert!(out.contains("mean ratio"));
        assert!(out.contains("No Choice"));
        assert!(out.contains("No Restriction"));
        // Every achieved makespan is at least the exact lower bound.
        for line in out.lines().filter(|l| l.contains("LPT")) {
            assert!(!line.contains("-inf") && !line.contains("NaN"));
        }
    }

    #[test]
    fn sweep_resume_reproduces_identical_table() {
        let path = std::env::temp_dir().join(format!("rds-cli-sweep-{}", std::process::id()));
        let path_str = path.to_string_lossy().into_owned();
        let argv = [
            "sweep",
            "--m",
            "3",
            "--n",
            "9",
            "--reps",
            "2",
            "--seed",
            "5",
            "--journal",
            &path_str,
        ];
        let full = run_to_string(&argv).unwrap();
        assert!(!full.contains("2 resumed"));
        // Journal now holds every trial: resuming executes nothing and
        // reproduces the table verbatim.
        let resume_argv = [
            "sweep",
            "--m",
            "3",
            "--n",
            "9",
            "--reps",
            "2",
            "--seed",
            "5",
            "--journal",
            &path_str,
            "--resume",
        ];
        let resumed = run_to_string(&resume_argv).unwrap();
        let table = |s: &str| {
            s.lines()
                .filter(|l| l.starts_with('|'))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(table(&full), table(&resumed));
        assert!(resumed.contains("0 trial(s) executed"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_positive_or_non_finite_beta_is_a_usage_error() {
        for beta in ["0", "-1", "nan", "inf"] {
            let err = run_to_string(&[
                "resilience",
                "--m",
                "4",
                "--n",
                "8",
                "--mtbf",
                "20",
                "--reps",
                "1",
                "--beta",
                beta,
            ])
            .unwrap_err();
            // An `ArgError` is what `main` maps to exit code 2.
            let arg_err = err
                .downcast_ref::<crate::args::ArgError>()
                .unwrap_or_else(|| panic!("--beta {beta}: not a usage error: {err}"));
            assert!(
                matches!(arg_err, crate::args::ArgError::BadValue { key, .. } if key == "beta"),
                "--beta {beta}: {arg_err}"
            );
        }
    }

    /// Runs `argv` and returns the usage error it must fail with.
    fn usage_error(argv: &[&str]) -> ArgError {
        let err = run_to_string(argv).unwrap_err();
        // An `ArgError` is what `main` maps to exit code 2.
        err.downcast_ref::<ArgError>()
            .unwrap_or_else(|| panic!("{argv:?}: not a usage error: {err}"))
            .clone()
    }

    #[test]
    fn bounds_flags_outside_their_domain_are_usage_errors() {
        let cases: [(&[&str], &str); 6] = [
            (&["--alpha", "0.5", "--m", "3"], "alpha"),
            (&["--alpha", "nan", "--m", "3"], "alpha"),
            (&["--alpha", "inf", "--m", "3"], "alpha"),
            (&["--alpha", "2", "--m", "0"], "m"),
            (&["--alpha", "2", "--m", "3", "--k", "0"], "k"),
            (&["--alpha", "2", "--m", "3", "--k", "9"], "k"),
        ];
        for (flags, flag) in cases {
            let mut argv = vec!["bounds"];
            argv.extend_from_slice(flags);
            let err = usage_error(&argv);
            assert!(
                matches!(&err, ArgError::BadValue { key, .. } if key == flag),
                "{argv:?}: {err:?}"
            );
        }
    }

    #[test]
    fn campaign_flags_outside_their_domain_are_usage_errors() {
        let resilience: [(&[&str], &str); 12] = [
            (&["--m", "0"], "m"),
            (&["--m", "1"], "m"),
            (&["--m", "2"], "m"),
            (&["--m", "4", "--n", "0"], "n"),
            (&["--m", "4", "--alpha", "0.5"], "alpha"),
            (&["--m", "4", "--alpha", "nan"], "alpha"),
            (&["--m", "4", "--reps", "0"], "reps"),
            (&["--m", "4", "--mtbf", "-5"], "mtbf"),
            (&["--m", "4", "--mtbf", "nan"], "mtbf"),
            (&["--m", "4", "--mtbf", "inf"], "mtbf"),
            (&["--m", "4", "--stragglers", "2"], "stragglers"),
            (&["--m", "4", "--stragglers", "-1"], "stragglers"),
        ];
        for (flags, flag) in resilience {
            let mut argv = vec!["resilience"];
            argv.extend_from_slice(flags);
            if !flags.contains(&"--mtbf") {
                argv.extend_from_slice(&["--mtbf", "10"]);
            }
            let err = usage_error(&argv);
            assert!(
                matches!(&err, ArgError::BadValue { key, .. } if key == flag),
                "{argv:?}: {err:?}"
            );
        }
        let sweep: [(&[&str], &str); 6] = [
            (&["--m", "0"], "m"),
            (&["--m", "2"], "m"),
            (&["--m", "4", "--n", "0"], "n"),
            (&["--m", "4", "--alpha", "0.5"], "alpha"),
            (&["--m", "4", "--alpha", "nan"], "alpha"),
            (&["--m", "4", "--reps", "0"], "reps"),
        ];
        for (flags, flag) in sweep {
            let mut argv = vec!["sweep"];
            argv.extend_from_slice(flags);
            let err = usage_error(&argv);
            assert!(
                matches!(&err, ArgError::BadValue { key, .. } if key == flag),
                "{argv:?}: {err:?}"
            );
        }
        // The zero-fault campaign stays a valid run.
        run_to_string(&[
            "resilience",
            "--m",
            "3",
            "--n",
            "6",
            "--mtbf",
            "0",
            "--reps",
            "1",
        ])
        .unwrap();
    }

    #[test]
    fn ks_and_min_survival_are_usage_errors_checked_before_any_work() {
        let cases: [(&[&str], &str, &str); 4] = [
            (
                &["frontier", "--m", "3", "--ks", "1,x"],
                "ks",
                "cannot parse --ks entry \"x\"",
            ),
            (
                &["frontier", "--m", "3", "--ks", "5"],
                "ks",
                "--ks entries must be in 1..=m",
            ),
            (
                &["reliability", "--m", "3", "--ks", "0"],
                "ks",
                "--ks entries must be in 1..=m",
            ),
            (
                &[
                    "resilience",
                    "--m",
                    "4",
                    "--mtbf",
                    "20",
                    "--reps",
                    "1",
                    "--min-survival",
                    "2",
                ],
                "min-survival",
                "--min-survival must be in [0, 1]",
            ),
        ];
        for (argv, flag, message) in cases {
            let mut out = Vec::new();
            let err = run(argv, &mut out).unwrap_err();
            // An `ArgError` is what `main` maps to exit code 2.
            let err = err
                .downcast_ref::<ArgError>()
                .unwrap_or_else(|| panic!("{argv:?}: not a usage error: {err}"));
            assert!(
                matches!(err, ArgError::BadSpec { key, .. } if key == flag),
                "{argv:?}: {err:?}"
            );
            assert_eq!(err.to_string(), message, "{argv:?}");
            assert!(
                out.is_empty(),
                "{argv:?} printed before failing:\n{}",
                String::from_utf8_lossy(&out)
            );
        }
    }

    #[test]
    fn unknown_realization_model_is_a_usage_error() {
        for argv in [
            &[
                "sweep", "--m", "4", "--n", "8", "--reps", "1", "--model", "bogus",
            ][..],
            &["simulate", "--m", "4", "--alpha", "1.5", "--model", "bogus"][..],
        ] {
            let err = usage_error(argv);
            assert!(
                matches!(&err, ArgError::BadSpec { key, .. } if key == "model"),
                "{argv:?}: {err:?}"
            );
            assert_eq!(err.to_string(), "unknown realization model \"bogus\"");
        }
    }

    #[test]
    fn malformed_hetero_specs_are_usage_errors_with_their_messages() {
        let cases = [
            (
                "speeds",
                "junk",
                "bad --speeds spec \"junk\"; try unit | uniform:<lo>,<hi> | \
                 two-class:<slow>,<fast>,<p-fast>",
            ),
            (
                "speeds",
                "uniform:2,1",
                "invalid parameter: speed Uniform requires finite 0 < lo <= hi",
            ),
            (
                "speeds",
                "two-class:0.5,1.5,2",
                "invalid parameter: TwoClass.p_fast must be in [0, 1]",
            ),
            (
                "speeds",
                "uniform:x,1",
                "cannot parse --speeds component \"x\"",
            ),
            (
                "speeds",
                "uniform:1e-320,1e-320",
                "--speeds \"uniform:1e-320,1e-320\" is too slow: the realized work \
                 overflows even on the fastest machine",
            ),
            (
                "topology",
                "clustered:0,1,2",
                "bad --topology spec \"clustered:0,1,2\"; try zero | uniform:<latency> | \
                 clustered:<zones>,<local>,<remote> | random:<lo>,<hi>",
            ),
            (
                "topology",
                "uniform:-1",
                "invalid parameter: UniformRemote.latency must be finite and >= 0",
            ),
        ];
        for (flag, spec, message) in cases {
            let flag_arg = format!("--{flag}");
            for argv in [
                &[
                    "sweep", "--m", "4", "--n", "8", "--reps", "1", &flag_arg, spec,
                ][..],
                &["frontier", "--m", "4", "--n", "8", &flag_arg, spec][..],
            ] {
                let err = usage_error(argv);
                assert!(
                    matches!(&err, ArgError::BadSpec { key, .. } if key == flag),
                    "{argv:?}: {err:?}"
                );
                assert_eq!(err.to_string(), message, "{argv:?}");
            }
        }
    }

    #[test]
    fn malformed_serve_arrivals_are_usage_errors_with_their_messages() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let not_a_number = dir.join(format!("rds-cli-trace-nan-{pid}"));
        let not_utf8 = dir.join(format!("rds-cli-trace-utf8-{pid}"));
        std::fs::write(&not_a_number, "0.5, 1.0\nsoon 2.0").unwrap();
        std::fs::write(&not_utf8, b"0.5 \xff 1.0").unwrap();
        let (nan_path, utf8_path) = (
            not_a_number.to_string_lossy().into_owned(),
            not_utf8.to_string_lossy().into_owned(),
        );
        let cases: [(&[&str], &str, String); 6] = [
            (
                &["--arrivals", "bogus"],
                "arrivals",
                "unknown --arrivals \"bogus\" (expected poisson|bursty|trace)".into(),
            ),
            (
                &["--rate", "-1"],
                "arrivals",
                "invalid parameter: Poisson.rate must be finite and > 0".into(),
            ),
            (
                &["--arrivals", "bursty", "--period", "0"],
                "arrivals",
                "invalid parameter: Bursty.period must be finite and > 0".into(),
            ),
            (
                &["--arrivals", "bursty", "--burst-fraction", "2"],
                "arrivals",
                "invalid parameter: Bursty.burst_fraction must be in [0, 1]".into(),
            ),
            (
                &["--arrivals", "trace", "--trace-file", &nan_path],
                "trace-file",
                format!("bad arrival time \"soon\" in {nan_path}"),
            ),
            (
                &["--arrivals", "trace", "--trace-file", &utf8_path],
                "trace-file",
                format!("cannot read --trace-file {utf8_path}: stream did not contain valid UTF-8"),
            ),
        ];
        for (extra, flag, message) in cases {
            let mut argv = vec!["serve", "--m", "2"];
            argv.extend_from_slice(extra);
            let err = usage_error(&argv);
            assert!(
                matches!(&err, ArgError::BadSpec { key, .. } if key == flag),
                "{argv:?}: {err:?}"
            );
            assert_eq!(err.to_string(), message, "{argv:?}");
        }
        std::fs::remove_file(&not_a_number).ok();
        std::fs::remove_file(&not_utf8).ok();

        // A trace file that cannot be read stays a runtime failure.
        let missing = dir.join(format!("rds-cli-trace-missing-{pid}"));
        let missing = missing.to_string_lossy();
        let err = run_to_string(&[
            "serve",
            "--m",
            "2",
            "--arrivals",
            "trace",
            "--trace-file",
            &missing,
        ])
        .unwrap_err();
        assert!(err.downcast_ref::<ArgError>().is_none(), "{err}");
        assert!(err
            .to_string()
            .starts_with(&format!("cannot read --trace-file {missing}: ")));
    }

    #[test]
    fn serve_configuration_errors_are_usage_errors_with_their_messages() {
        let cases: [(&[&str], &str); 10] = [
            (
                &["--queue-cap", "0"],
                "invalid parameter: queue_cap must be >= 1",
            ),
            (
                &["--alpha", "0.5"],
                "uncertainty factor alpha = 0.5 must be >= 1",
            ),
            (
                &["--attempts", "0"],
                "invalid parameter: max_attempts must be >= 1",
            ),
            (
                &["--fail-rate", "1"],
                "invalid parameter: fail_rate must be in [0, 1)",
            ),
            (
                &["--fsync-every", "0"],
                "invalid parameter: fsync_every must be >= 1",
            ),
            (
                &["--deadline-factor", "0"],
                "invalid parameter: deadline_factor must be finite and > 0",
            ),
            (
                &["--degrade-lo", "40", "--degrade-hi", "30"],
                "invalid parameter: watermarks must satisfy degrade_lo <= degrade_hi <= shed_hi",
            ),
            (
                &["--shed-lo", "800"],
                "invalid parameter: watermarks must satisfy shed_lo <= shed_hi <= queue_cap",
            ),
            (
                &["--kd", "0"],
                "invalid parameter: degraded_replication must satisfy 1 <= degraded <= replication",
            ),
            (
                &["--k", "3"],
                "invalid group count k = 3 for m = 2 machines",
            ),
        ];
        for (extra, message) in cases {
            let mut argv = vec!["serve", "--m", "2"];
            argv.extend_from_slice(extra);
            let err = usage_error(&argv);
            assert!(
                matches!(&err, ArgError::BadSpec { key, .. } if key == "serve"),
                "{argv:?}: {err:?}"
            );
            assert_eq!(err.to_string(), message, "{argv:?}");
        }
    }

    #[test]
    fn malformed_replay_artifacts_are_usage_errors_with_their_messages() {
        let path = std::env::temp_dir().join(format!("rds-cli-replay-{}.json", std::process::id()));
        let path_str = path.to_string_lossy().into_owned();
        let artifact = |strategy: &str, mutation: &str, check: &str, estimates: &str| {
            format!(
                "{{\"strategy\":\"{strategy}\",\"mutation\":\"{mutation}\",\"check\":\"{check}\",\
                 \"observed\":1.5,\"limit\":1.2,\"detail\":\"d\",\"seed\":1,\"case_index\":0,\
                 \"shrink_steps\":0,\"m\":2,\"alpha\":1.5,\"estimates\":\"{estimates}\",\
                 \"factors\":\"1,1\"}}"
            )
        };
        let ok = ["lpt-no-choice", "none", "guarantee-ratio", "1,2"];
        let cases: Vec<(Vec<u8>, String)> = vec![
            (
                b"not json".to_vec(),
                "invalid parameter: counterexample artifact is not a flat JSON object".into(),
            ),
            (
                b"{}".to_vec(),
                "invalid parameter: counterexample artifact is missing a required field".into(),
            ),
            (
                artifact("bogus", ok[1], ok[2], ok[3]).into_bytes(),
                "invalid parameter: counterexample artifact names an unknown strategy".into(),
            ),
            (
                artifact(ok[0], "bogus", ok[2], ok[3]).into_bytes(),
                "invalid parameter: counterexample artifact names an unknown mutation".into(),
            ),
            (
                artifact(ok[0], ok[1], "bogus", ok[3]).into_bytes(),
                "invalid parameter: counterexample artifact names an unknown check".into(),
            ),
            (
                artifact(ok[0], ok[1], ok[2], "1,x").into_bytes(),
                "invalid parameter: counterexample artifact has malformed estimates".into(),
            ),
            (
                artifact(ok[0], ok[1], ok[2], ok[3])
                    .replace("\"seed\":1", "\"seed\":-1")
                    .into_bytes(),
                "invalid parameter: counterexample artifact has a malformed field".into(),
            ),
            (
                artifact(ok[0], ok[1], ok[2], ok[3])
                    .replace("\"factors\":\"1,1\"", "\"factors\":\"1;1\"")
                    .into_bytes(),
                "invalid parameter: counterexample artifact has malformed factors".into(),
            ),
            (
                b"{\"strategy\":\"\xff\"}".to_vec(),
                format!("io error during read of {path_str}: stream did not contain valid UTF-8"),
            ),
        ];
        for (bytes, message) in cases {
            std::fs::write(&path, &bytes).unwrap();
            let err = usage_error(&["conformance", "--replay", &path_str]);
            assert!(
                matches!(&err, ArgError::BadSpec { key, .. } if key == "replay"),
                "{message}: {err:?}"
            );
            assert_eq!(err.to_string(), message);
        }
        // A file that cannot be read stays a runtime failure (exit 1).
        std::fs::remove_file(&path).unwrap();
        let err = run_to_string(&["conformance", "--replay", &path_str]).unwrap_err();
        assert!(err.downcast_ref::<ArgError>().is_none(), "{err}");
        assert!(
            err.to_string().starts_with("io error during read of"),
            "{err}"
        );
    }

    #[test]
    fn resilience_journal_resume_reproduces_identical_table() {
        let path = std::env::temp_dir().join(format!("rds-cli-res-{}", std::process::id()));
        let path_str = path.to_string_lossy().into_owned();
        let argv = [
            "resilience",
            "--m",
            "3",
            "--n",
            "9",
            "--mtbf",
            "12",
            "--reps",
            "2",
            "--seed",
            "5",
            "--journal",
            &path_str,
        ];
        let full = run_to_string(&argv).unwrap();
        // Truncate to meta + first 4 trial lines: a simulated crash.
        let text = std::fs::read_to_string(&path).unwrap();
        let prefix: String = text.lines().take(5).map(|l| format!("{l}\n")).collect();
        std::fs::write(&path, prefix).unwrap();
        let resume_argv = [
            "resilience",
            "--m",
            "3",
            "--n",
            "9",
            "--mtbf",
            "12",
            "--reps",
            "2",
            "--seed",
            "5",
            "--journal",
            &path_str,
            "--resume",
        ];
        let resumed = run_to_string(&resume_argv).unwrap();
        let table = |s: &str| {
            s.lines()
                .filter(|l| l.starts_with('|'))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(table(&full), table(&resumed));
        assert!(resumed.contains("4 resumed"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resilience_hung_trial_is_quarantined_via_flags() {
        // The (policy, trial) rows of a printed quarantine table.
        fn quarantined(out: &str) -> Vec<(String, String)> {
            out.lines()
                .skip_while(|l| !l.starts_with("quarantined trials"))
                .filter(|l| l.starts_with("| ") && !l.starts_with("| policy") && !l.contains("---"))
                .map(|l| {
                    let cells: Vec<&str> = l.split('|').map(str::trim).collect();
                    (cells[1].to_string(), cells[2].to_string())
                })
                .collect()
        }
        // Both campaign commands run on one supervised loop, so the same
        // stall flags hang and quarantine the same cells in each.
        let common = [
            "--m",
            "3",
            "--n",
            "9",
            "--reps",
            "2",
            "--seed",
            "5",
            "--stall-ms",
            "300",
            "--stall-trial",
            "1",
            "--budget-ms",
            "30",
            "--retries",
            "2",
        ];
        let mut lists = Vec::new();
        for command in [&["resilience", "--mtbf", "0"][..], &["sweep"][..]] {
            let argv: Vec<&str> = command.iter().chain(&common).copied().collect();
            let out = run_to_string(&argv).unwrap();
            assert!(out.contains("quarantined trials"), "{out}");
            assert!(out.contains("wall-clock budget"), "{out}");
            lists.push(quarantined(&out));
        }
        assert_eq!(lists[0].len(), 5, "{:?}", lists[0]);
        assert!(lists[0].iter().all(|(_, trial)| trial == "1"));
        assert_eq!(lists[0], lists[1]);
    }

    #[test]
    fn sweep_metrics_flag_exports_json_and_table() {
        let path =
            std::env::temp_dir().join(format!("rds-cli-metrics-{}.json", std::process::id()));
        let path_str = path.to_string_lossy().into_owned();
        let out = run_to_string(&[
            "sweep",
            "--m",
            "3",
            "--n",
            "9",
            "--reps",
            "1",
            "--seed",
            "5",
            "--metrics",
            &path_str,
        ])
        .unwrap();
        assert!(out.contains("observability metrics"), "{out}");
        assert!(out.contains("engine.dispatch"));
        assert!(out.contains("trial.latency"));
        assert!(out.contains(&format!("metrics written to {path_str}")));
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.starts_with("{\"counters\":{"), "{json}");
        assert!(json.ends_with("}}"), "{json}");
        assert!(json.contains("\"trial.latency\":{\"count\":"));
        // Every standard series is present even if this run never
        // touched it — the issue's floor is six, we guarantee all.
        for name in STANDARD_COUNTERS.iter().chain(STANDARD_HISTOGRAMS) {
            assert!(
                json.contains(&format!("\"{name}\"")),
                "{name} missing:\n{json}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resilience_trace_out_writes_span_jsonl() {
        let path = std::env::temp_dir().join(format!("rds-cli-trace-{}.jsonl", std::process::id()));
        let path_str = path.to_string_lossy().into_owned();
        let out = run_to_string(&[
            "resilience",
            "--m",
            "3",
            "--n",
            "9",
            "--mtbf",
            "0",
            "--reps",
            "1",
            "--seed",
            "5",
            "--trace-out",
            &path_str,
        ])
        .unwrap();
        assert!(out.contains("span(s) written"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.is_empty(), "no spans collected");
        for line in text.lines() {
            assert!(line.starts_with("{\"name\":"), "{line}");
            assert!(line.ends_with('}'), "{line}");
            assert!(line.contains("\"dur_ns\":"), "{line}");
        }
        // The campaign itself must have left its marks (other tests
        // running in-process may contribute extra spans — that's fine).
        assert!(
            text.contains("\"resilience.run\"") || text.contains("\"resilience.trial\""),
            "campaign spans missing:\n{text}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn help_documents_observability_flags() {
        let help = run_to_string(&["help"]).unwrap();
        assert!(help.contains("--metrics"));
        assert!(help.contains("--trace-out"));
    }

    #[test]
    fn unknown_command_and_help() {
        assert!(run_to_string(&["frobnicate"]).is_err());
        let help = run_to_string(&["help"]).unwrap();
        assert!(help.contains("USAGE"));
        let empty = run_to_string(&[]).unwrap();
        assert!(empty.contains("USAGE"));
        // `--help` after a command prints the usage and runs nothing;
        // an unknown command stays an error.
        for argv in [&["conformance", "--help"][..], &["sweep", "--help"]] {
            let out = run_to_string(argv).unwrap();
            assert_eq!(out, help, "{argv:?}");
            assert!(!out.contains("conformance:"), "{argv:?}");
        }
        assert!(run_to_string(&["frobnicate", "--help"]).is_err());
    }

    #[test]
    fn synthesized_instance_when_no_estimates() {
        let out = run_to_string(&["simulate", "--m", "3", "--alpha", "1.5", "--n", "9"]).unwrap();
        assert!(out.contains("C_max"));
    }

    #[test]
    fn bad_strategy_is_an_error() {
        let err = run_to_string(&["plan", "--strategy", "nope", "--m", "2", "--alpha", "1.5"])
            .unwrap_err();
        assert!(err.to_string().contains("unknown strategy"));
    }

    #[test]
    fn conformance_clean_run_passes() {
        let out = run_to_string(&["conformance", "--cases", "24", "--seed", "42"]).unwrap();
        assert!(out.contains("no violations"), "unexpected output:\n{out}");
        assert!(out.contains("cases: 24 run"));
    }

    #[test]
    fn conformance_mutant_fails_and_replays() {
        let dir = std::env::temp_dir().join(format!("rds-cli-conformance-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        let mut buf = Vec::new();
        let err = run(
            &[
                "conformance",
                "--cases",
                "12",
                "--mutate",
                "drop-replica",
                "--max-counterexamples",
                "1",
                "--artifacts",
                dir.to_str().unwrap(),
            ],
            &mut buf,
        )
        .unwrap_err();
        assert!(err.to_string().contains("conformance failed"));
        let out = String::from_utf8(buf).unwrap();
        assert!(out.contains("VIOLATIONS"));
        assert!(out.contains("counterexample written to"));

        // The artifact replays and reproduces (non-zero exit again).
        let artifact = std::fs::read_dir(&dir)
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let mut buf = Vec::new();
        let err = run(
            &["conformance", "--replay", artifact.to_str().unwrap()],
            &mut buf,
        )
        .unwrap_err();
        assert!(err.to_string().contains("counterexample reproduced"));
        assert!(String::from_utf8(buf).unwrap().contains("REPRODUCED"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn conformance_ilp_mutant_fails_in_the_ilp_arm() {
        let mut buf = Vec::new();
        let err = run(
            &[
                "conformance",
                "--cases",
                "12",
                "--mutate",
                "ignore-memory-budget",
            ],
            &mut buf,
        )
        .unwrap_err();
        assert!(err.to_string().contains("conformance failed"));
        let out = String::from_utf8(buf).unwrap();
        assert!(out.contains("ilp arm:"), "unexpected output:\n{out}");
    }

    #[test]
    fn frontier_prints_table_chart_and_pareto_set() {
        let out = run_to_string(&["frontier", "--m", "4", "--n", "10", "--seed", "7"]).unwrap();
        assert!(out.contains("makespan-vs-memory frontier"), "{out}");
        assert!(out.contains("ILP(k=1"), "no ILP points:\n{out}");
        assert!(out.contains("LP-Round(k=1"), "no rounding points:\n{out}");
        assert!(out.contains("LPT-No Choice"), "no greedy baseline:\n{out}");
        assert!(out.contains("pareto frontier:"), "{out}");
        assert!(out.contains("realized makespan vs Mem_max"), "{out}");
    }

    #[test]
    fn frontier_lists_infeasible_budgets_off_the_frontier() {
        // The tightest budget of this instance admits no placement. The
        // ILP proves that before branching, so it is listed as
        // infeasible, and nothing runs out of nodes.
        let out = run_to_string(&["frontier", "--m", "6", "--n", "18", "--seed", "42"]).unwrap();
        assert!(!out.contains("unsolved"), "{out}");
        let (table, rest) = out
            .split_once("infeasible, kept off the frontier:\n")
            .expect("no infeasible list");
        let infeasible: Vec<&str> = rest
            .lines()
            .take_while(|l| !l.is_empty())
            .map(|l| l.trim().split_once(": ").expect("label: reason").0)
            .collect();
        let frontier = out
            .lines()
            .find(|l| l.starts_with("pareto frontier:"))
            .expect("no frontier line");
        for label in ["ILP(k=1,B=15.127)", "ILP(k=2,B=15.127)"] {
            assert!(infeasible.contains(&label), "{label} not listed:\n{out}");
            assert!(!table.contains(label), "{label} has a row:\n{out}");
            assert!(!frontier.contains(label), "{label} on the frontier:\n{out}");
        }
    }

    #[test]
    fn frontier_rejects_bad_ks() {
        let err = run_to_string(&["frontier", "--m", "3", "--ks", "0"]).unwrap_err();
        assert!(err.to_string().contains("1..=m"));
    }

    #[test]
    fn frontier_hetero_flags_add_speed_robust_baselines() {
        let out = run_to_string(&[
            "frontier",
            "--m",
            "4",
            "--n",
            "10",
            "--seed",
            "7",
            "--speeds",
            "two-class:0.5,1.5,0.5",
            "--topology",
            "uniform:0.4",
        ])
        .unwrap();
        assert!(out.contains("hetero profile: speeds = two-class"), "{out}");
        assert!(out.contains("SpeedRobust-Bags"), "no bags baseline:\n{out}");
        // Determinism: the hetero draws are seeded off the same stream.
        let again = run_to_string(&[
            "frontier",
            "--m",
            "4",
            "--n",
            "10",
            "--seed",
            "7",
            "--speeds",
            "two-class:0.5,1.5,0.5",
            "--topology",
            "uniform:0.4",
        ])
        .unwrap();
        assert_eq!(out, again);
    }

    #[test]
    fn frontier_rejects_malformed_hetero_specs() {
        let err = run_to_string(&["frontier", "--m", "3", "--speeds", "uniform:2,1"]).unwrap_err();
        assert!(err.to_string().contains("speed"), "{err}");
        let err = run_to_string(&["frontier", "--m", "3", "--topology", "warp:9"]).unwrap_err();
        assert!(err.to_string().contains("--topology"), "{err}");
    }

    #[test]
    fn sweep_hetero_flags_run_and_report_speed_aware_baseline() {
        let out = run_to_string(&[
            "sweep",
            "--m",
            "3",
            "--n",
            "9",
            "--reps",
            "2",
            "--seed",
            "5",
            "--speeds",
            "uniform:0.5,2.0",
            "--topology",
            "clustered:2,0.1,1.0",
        ])
        .unwrap();
        assert!(
            out.contains("hetero profile: speeds = uniform:0.5,2.0"),
            "{out}"
        );
        assert!(out.contains("speed-aware lower bound"), "{out}");
        assert!(out.contains("mean ratio"), "{out}");
        // Ratios stay finite and at least 1 against the sound bound.
        assert!(!out.contains("NaN") && !out.contains("inf"), "{out}");
    }

    #[test]
    fn sweep_hetero_flags_tag_the_journal_params() {
        let path =
            std::env::temp_dir().join(format!("rds-cli-hetero-sweep-{}", std::process::id()));
        let path_str = path.to_string_lossy().into_owned();
        run_to_string(&[
            "sweep",
            "--m",
            "3",
            "--n",
            "9",
            "--reps",
            "1",
            "--seed",
            "5",
            "--speeds",
            "unit",
            "--journal",
            &path_str,
        ])
        .unwrap();
        // Resuming without the hetero flags must refuse the journal:
        // the params differ, so the records are not comparable.
        let err = run_to_string(&[
            "sweep",
            "--m",
            "3",
            "--n",
            "9",
            "--reps",
            "1",
            "--seed",
            "5",
            "--journal",
            &path_str,
            "--resume",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("params"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn conformance_bad_mutation_is_an_error() {
        let err = run_to_string(&["conformance", "--mutate", "nope"]).unwrap_err();
        assert!(err.to_string().contains("unknown mutation"));
    }

    #[test]
    fn serve_runs_a_poisson_stream_to_completion() {
        let out = run_to_string(&[
            "serve", "--m", "4", "--k", "2", "--tasks", "300", "--rate", "3", "--seed", "7",
        ])
        .unwrap();
        assert!(out.contains("serve: m=4 k=2"));
        assert!(out.contains("| admitted"));
        assert!(out.contains(" 300 |"), "all 300 arrivals admitted:\n{out}");
        assert!(out.contains("final state: accepting"));
        assert!(out.contains("flow time"));
    }

    #[test]
    fn serve_overload_sheds_and_reports_typed_counts() {
        // 2x+ overload on a tiny cap: the run must finish without
        // panicking and account for every arrival in the typed rows.
        let out = run_to_string(&[
            "serve",
            "--m",
            "2",
            "--k",
            "2",
            "--tasks",
            "400",
            "--rate",
            "12",
            "--queue-cap",
            "16",
            "--deadline-factor",
            "4",
            "--seed",
            "11",
            "--plot",
        ])
        .unwrap();
        assert!(out.contains("rejected: queue full") || out.contains("shed (deadline)"));
        assert!(out.contains("overload transitions"));
        assert!(out.contains("queue depth over virtual time"));
    }

    #[test]
    fn serve_journal_resume_after_partial_run() {
        let path = std::env::temp_dir().join(format!("rds-cli-serve-{}.jsonl", std::process::id()));
        let base = [
            "serve",
            "--m",
            "3",
            "--tasks",
            "200",
            "--rate",
            "5",
            "--seed",
            "3",
            "--journal",
        ];
        let mut argv: Vec<&str> = base.to_vec();
        let p = path.to_str().unwrap().to_string();
        argv.push(&p);
        let first = run_to_string(&argv).unwrap();
        assert!(first.contains("journal:"));
        // Resume against the sealed journal: replays, dedups, finishes.
        argv.push("--resume");
        let second = run_to_string(&argv).unwrap();
        assert!(second.contains("| admitted"));
        let log = rds_serve::ServeJournal::read(&path).unwrap();
        assert_eq!(log.duplicates, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_stdin_line_protocol() {
        // --stdin reads the process stdin, which is closed/empty under
        // the test harness — EOF must drain cleanly, not hang or panic.
        let out = run_to_string(&["serve", "--m", "2", "--tasks", "0", "--stdin"]).unwrap();
        assert!(out.contains("| admitted"));
    }

    #[test]
    fn serve_bad_arrivals_is_a_typed_error() {
        let err = run_to_string(&["serve", "--m", "2", "--arrivals", "fancy"]).unwrap_err();
        assert!(err.to_string().contains("unknown --arrivals"));
        let err = run_to_string(&["serve", "--m", "2", "--arrivals", "trace"]).unwrap_err();
        assert!(err.to_string().contains("trace-file"));
    }

    #[test]
    fn serve_trace_file_drives_arrivals() {
        let path = std::env::temp_dir().join(format!("rds-cli-trace-{}.csv", std::process::id()));
        std::fs::write(&path, "0.0, 0.5, 1.0\n2.5\n").unwrap();
        let out = run_to_string(&[
            "serve",
            "--m",
            "2",
            "--arrivals",
            "trace",
            "--trace-file",
            path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("arrivals=trace tasks=4"));
        assert!(out.contains(" 4 |"), "4 trace arrivals admitted:\n{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_metrics_expose_live_series() {
        let path = std::env::temp_dir().join(format!("rds-cli-smetr-{}.json", std::process::id()));
        let out = run_to_string(&[
            "serve",
            "--m",
            "3",
            "--tasks",
            "120",
            "--rate",
            "4",
            "--metrics",
            path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("serve.admitted"));
        assert!(out.contains("serve.queue_depth"));
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("serve.completed"));
        assert!(json.contains("serve.response_time"));
        std::fs::remove_file(&path).ok();
        rds_obs::set_enabled(false);
    }

    /// Runs `rds <line> <extra>`, which must fail with `want` before
    /// printing anything.
    fn fails_before_output(line: &str, extra: &[&str], want: &ArgError) {
        let argv: Vec<&str> = line.split(' ').chain(extra.iter().copied()).collect();
        let mut out = Vec::new();
        let err = run(&argv, &mut out).unwrap_err();
        // An `ArgError` is what `main` maps to exit code 2.
        assert_eq!(err.downcast_ref::<ArgError>(), Some(want), "{argv:?}");
        assert!(
            out.is_empty(),
            "{argv:?} printed before failing:\n{}",
            String::from_utf8_lossy(&out)
        );
    }

    #[test]
    fn every_command_rejects_undeclared_flags_and_stray_tokens_before_any_work() {
        // Runs that print, and that journal where the command can.
        let commands = [
            "bounds --alpha 2 --m 4",
            "plan --m 2 --alpha 1.5 --estimates 3,2,1",
            "simulate --m 2 --alpha 1.5 --estimates 3,2",
            "envelope --m 2 --alpha 1.5 --estimates 3,2",
            "memory --m 2 --alpha 1.5 --n 4",
            "resilience --m 3 --n 6 --mtbf 0 --reps 1",
            "reliability --m 3 --n 6 --reps 1",
            "frontier --m 2 --n 4",
            "sweep --m 3 --n 6 --reps 1",
            "conformance --cases 1",
            "serve --m 2 --tasks 5",
        ];
        assert_eq!(commands.len() + 1, COMMANDS.len(), "every command but help");
        let dir = std::env::temp_dir().join(format!("rds-cli-undeclared-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (metrics, journal) = (dir.join("metrics.json"), dir.join("run.journal"));
        for line in commands {
            let name = line.split(' ').next();
            let help = COMMANDS.iter().find(|c| Some(c.0) == name).unwrap().2;
            let declares = |flag: &str| declared(help).any(|(f, _)| f == flag);
            let (foreign, valued) = COMMANDS
                .iter()
                .flat_map(|c| declared(c.2))
                .find(|&(f, _)| !declares(f))
                .unwrap();
            let foreign_argv = format!("--{foreign}{}", if valued { " 3" } else { "" });
            let cases = [
                (foreign_argv.as_str(), ArgError::Unknown(foreign.into())),
                ("--quick", ArgError::Unknown("quick".into())),
                ("--csv", ArgError::Unknown("csv".into())),
                ("--shards 2", ArgError::Unknown("shards".into())),
                ("--seeed 3", ArgError::Unknown("seeed".into())),
                ("extra", ArgError::Unexpected("extra".into())),
            ];
            for (undeclared, want) in cases {
                let mut files = vec!["--metrics", metrics.to_str().unwrap()];
                if declares("journal") {
                    files.extend(["--journal", journal.to_str().unwrap()]);
                }
                fails_before_output(&format!("{line} {undeclared}"), &files, &want);
                assert!(
                    !metrics.exists() && !journal.exists(),
                    "{line} {undeclared}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn values_that_would_run_nothing_or_panic_are_usage_errors() {
        let lone = bad_spec("serve", "--est-lo and --est-hi go together".into());
        let cases = [
            ("conformance --seconds -1", bad_value("seconds", "-1")),
            ("conformance --seconds nan", bad_value("seconds", "NaN")),
            ("conformance --seconds inf", bad_value("seconds", "inf")),
            (
                "conformance --seconds 1e20",
                bad_value("seconds", "100000000000000000000"),
            ),
            ("conformance --seconds 0", bad_value("seconds", "0")),
            ("conformance --cases 0", bad_value("cases", "0")),
            ("conformance --max-n 0", bad_value("max-n", "0")),
            ("conformance --max-m 0", bad_value("max-m", "0")),
            ("reliability --m 3 --reps 0", bad_value("reps", "0")),
            (
                "frontier --m 3 --budget-steps 0",
                bad_value("budget-steps", "0"),
            ),
            (
                "frontier --m 3 --budget-steps 1",
                bad_value("budget-steps", "1"),
            ),
            ("serve --m 2 --tasks 5 --est-lo 2", lone.clone()),
            ("serve --m 2 --tasks 5 --est-hi 9", lone),
        ];
        for (line, want) in &cases {
            fails_before_output(line, &[], want);
        }
        // Both bounds together still run.
        run_to_string(&[
            "serve", "--m", "2", "--tasks", "5", "--est-lo", "2", "--est-hi", "9",
        ])
        .unwrap();
    }

    #[test]
    fn model_flags_outside_their_domain_are_usage_errors_on_every_command() {
        let shapes = [
            ("--m 0 --alpha 1.5", bad_value("m", "0")),
            ("--m 3 --n 0 --alpha 1.5", bad_value("n", "0")),
            (
                "--m 4294967295 --n 4 --alpha 1.5",
                bad_value("m", "4294967295"),
            ),
            (
                "--m 3 --n 4294967295 --alpha 1.5",
                bad_value("n", "4294967295"),
            ),
            // Ids fit, but the default `n` (at least 3 per machine) does not.
            ("--m 4294967294 --alpha 1.5", bad_value("m", "4294967294")),
            ("--m 3 --alpha 0.5", bad_value("alpha", "0.5")),
            ("--m 3 --alpha nan", bad_value("alpha", "NaN")),
            ("--m 3 --alpha inf", bad_value("alpha", "inf")),
        ];
        for command in [
            "plan",
            "simulate",
            "envelope",
            "memory",
            "frontier",
            "reliability",
        ] {
            for (flags, want) in &shapes {
                fails_before_output(&format!("{command} {flags}"), &[], want);
            }
        }
        let cases = [
            ("reliability --m 3 --zones 0", bad_value("zones", "0")),
            ("reliability --m 3 --zones 4", bad_value("zones", "4")),
            (
                "reliability --m 3 --targets 0.9,1.5",
                bad_value("targets", "1.5"),
            ),
            (
                "reliability --m 3 --targets -0.1",
                bad_value("targets", "-0.1"),
            ),
            // Machine counts past the engine's `u32` ids, whose default
            // `n` wrapped or whose run never ended.
            (
                "plan --m 18446744073709551615 --alpha 2",
                bad_value("m", "18446744073709551615"),
            ),
            (
                "sweep --m 4611686018427387904 --reps 1",
                bad_value("m", "4611686018427387904"),
            ),
            (
                "frontier --m 9223372036854775807 --n 4",
                bad_value("m", "9223372036854775807"),
            ),
            (
                "plan --strategy group --m 3 --alpha 1.5 --k 0",
                bad_value("k", "0"),
            ),
            (
                "plan --strategy group --m 3 --alpha 1.5 --k 4",
                bad_value("k", "4"),
            ),
            (
                "simulate --strategy group --m 3 --alpha 1.5 --k 0",
                bad_value("k", "0"),
            ),
            (
                "simulate --strategy group --m 3 --alpha 1.5 --k 4",
                bad_value("k", "4"),
            ),
            (
                "plan --strategy nope --m 3 --alpha 1.5",
                bad_spec("strategy", "unknown strategy \"nope\"".into()),
            ),
            (
                "conformance --mutate nope",
                bad_spec(
                    "mutate",
                    "unknown mutation \"nope\"; try none|drop-replica|ignore-reliability\
                     |ignore-memory-budget|ignore-speeds|ignore-transfer-cost"
                        .into(),
                ),
            ),
        ];
        for (line, want) in &cases {
            fails_before_output(line, &[], want);
        }
    }

    #[test]
    fn help_texts_declare_what_their_commands_read_with_one_arity_each() {
        for (command, flags) in [
            ("plan", &["n", "seed"][..]),
            ("simulate", &["n", "seed"]),
            ("envelope", &["n", "seed"]),
            ("memory", &["model"]),
        ] {
            let help = COMMANDS.iter().find(|c| c.0 == command).unwrap().2;
            for &flag in flags {
                assert!(
                    declared(help).any(|d| d == (flag, true)),
                    "rds {command} --{flag}"
                );
            }
        }
        for (name, _, help) in COMMANDS {
            let flags: Vec<_> = declared(help).chain(declared(GLOBAL)).collect();
            for (flag, valued) in &flags {
                assert!(
                    flags.iter().all(|(f, v)| f != flag || v == valued),
                    "rds {name} declares --{flag} with two arities"
                );
            }
        }
    }

    /// Values for valued keys: numbers inside and outside their domains,
    /// text, an empty value, non-ASCII text, and tokens that start with
    /// `--`.
    const VALUES: &[&str] = &[
        "4", "0", "-1", "2.5", "nan", "x", "", "é", "🦀", "a=b", "--", "--m",
    ];

    /// Tokens that are no `--key`.
    const STRAY: &[&str] = &["extra", "4", "-m", "-", "=", "é", "🦀", "\u{0}", " --m"];

    /// An argv for the command that declares `help`, built from drawn
    /// pieces: its own keys with values, every command's keys, `--key=v`
    /// forms (bare flags given `=v` too), random `--[a-z-]+` words, stray
    /// tokens, a lone `--`, non-ASCII keys, and repeats of an earlier
    /// token.
    fn draw_argv(help: &'static str, pieces: &[(u8, usize, usize, Vec<u8>)]) -> Vec<String> {
        let own: Vec<_> = declared(help).chain(declared(GLOBAL)).collect();
        let every: Vec<_> = COMMANDS
            .iter()
            .flat_map(|c| declared(c.2))
            .chain(declared(GLOBAL))
            .collect();
        let mut argv = Vec::new();
        for (kind, a, b, word) in pieces {
            let value = VALUES[b % VALUES.len()].to_string();
            let (key, valued) = if *kind < 2 {
                own[a % own.len()]
            } else {
                every[a % every.len()]
            };
            match kind {
                0..=2 => {
                    argv.push(format!("--{key}"));
                    if valued {
                        argv.push(value);
                    }
                }
                3 => argv.push(format!("--{key}={value}")),
                4 => {
                    let word = word
                        .iter()
                        .map(|&c| if c < 26 { char::from(b'a' + c) } else { '-' });
                    argv.push(format!("--{}", word.collect::<String>()));
                }
                5 => argv.push(STRAY[a % STRAY.len()].to_string()),
                6 => argv.push("--".to_string()),
                7 => argv.push(format!(
                    "--{}",
                    ["é", "ключ", "🦀", "m\u{301}", "m\u{0}"][a % 5]
                )),
                _ => argv.extend(argv.get(a % argv.len().max(1)).cloned()),
            }
        }
        argv
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn parse_accepts_exactly_the_declared_flags(
            command in 0..COMMANDS.len(),
            pieces in prop::collection::vec(
                (0u8..9, any::<usize>(), any::<usize>(), prop::collection::vec(0u8..27, 1..8)),
                0..8,
            ),
        ) {
            let (name, _, help) = COMMANDS[command];
            let arity = |key: &str| {
                declared(help)
                    .chain(declared(GLOBAL))
                    .find_map(|(f, valued)| (f == key).then_some(valued))
            };
            let argv = draw_argv(help, &pieces);
            match Args::parse(help, &argv) {
                // Every `--key` is declared, with the arity it was given in.
                Ok(args) => {
                    let mut tokens = argv.iter();
                    while let Some(tok) = tokens.next() {
                        let Some(tok) = tok.strip_prefix("--") else {
                            panic!("rds {name} {argv:?}: accepted {tok:?}");
                        };
                        let (key, inline) = match tok.split_once('=') {
                            Some((key, v)) => (key, Some(v)),
                            None => (tok, None),
                        };
                        match (arity(key), inline) {
                            (Some(true), Some(v)) => {
                                prop_assert_eq!(args.get::<String>(key).unwrap().as_deref(), Some(v));
                            }
                            (Some(true), None) => {
                                prop_assert_eq!(args.get::<String>(key).unwrap().as_ref(), tokens.next());
                            }
                            (Some(false), None) => prop_assert!(args.flag(key)),
                            other => panic!("rds {name} {argv:?}: accepted --{key} as {other:?}"),
                        }
                    }
                }
                // Every error names a token of argv.
                Err(e) => {
                    let names = |key: &str| {
                        argv.iter().any(|t| {
                            t.strip_prefix("--").is_some_and(|t| {
                                t == key || t.strip_prefix(key).is_some_and(|v| v.starts_with('='))
                            })
                        })
                    };
                    let named = match &e {
                        ArgError::Unknown(k) | ArgError::MissingValue(k) | ArgError::Duplicate(k) => {
                            names(k)
                        }
                        ArgError::Unexpected(t) => argv.contains(t),
                        ArgError::BadValue { key, value } => argv.contains(&format!("--{key}={value}")),
                        _ => false,
                    };
                    prop_assert!(named, "rds {name} {argv:?}: {e:?} names no token");
                }
            }
            // The command's own flags, each once, always parse.
            let mut keys: Vec<(&str, bool)> = Vec::new();
            for d in declared(help) {
                if !keys.iter().any(|k| k.0 == d.0) {
                    keys.push(d);
                }
            }
            let turn = pieces.len() % keys.len().max(1);
            keys.rotate_left(turn);
            let inline = pieces.first().is_some_and(|p| p.1 % 2 == 0);
            let valid: Vec<String> = keys
                .iter()
                .flat_map(|&(key, valued)| match (valued, inline) {
                    (true, true) => vec![format!("--{key}=4")],
                    (true, false) => vec![format!("--{key}"), "4".to_string()],
                    (false, _) => vec![format!("--{key}")],
                })
                .collect();
            let args = Args::parse(help, &valid)
                .unwrap_or_else(|e| panic!("rds {name} {valid:?}: {e}"));
            for (key, valued) in keys {
                if valued {
                    prop_assert_eq!(args.get::<String>(key).unwrap().as_deref(), Some("4"));
                } else {
                    prop_assert!(args.flag(key));
                }
            }
        }
    }
}

//! `serve`: the streaming daemon, `Daemon::with_journal` + `run`, on
//! Poisson arrivals at about 0.95 utilization. An open loop in virtual
//! time run as fast as the wall clock allows, so `items_per_s` is the
//! highest arrival rate the daemon sustains. Most of the wall time is
//! the journal. `norm_items_per_s` counts CPU time only, so it leaves
//! out waiting on the disk for fsync but keeps encoding and writes.

use super::{core_err, out_dir, Pass, Spec, Workload};
use crate::trace::{self, Recorder};
use rds_serve::{Control, Daemon, ServeConfig, ServeReport};
use std::time::Instant;

const MACHINES: usize = 16;
const REPLICATION: usize = 2;
const RATE: f64 = 14.0;
/// Arrivals per pass (~0.15 s with the journal).
const TASKS: u64 = 100_000;
/// Journal records per fsync. At the command's default of 64, waiting
/// on the shared disk was half the wall time and spread run-to-run
/// throughput by 19%; at 1024 the journal is still most of the wall
/// time, as encoding and writes rather than as disk latency.
const FSYNC_EVERY: usize = 1024;

pub const SPEC: Spec = Spec {
    name: "serve",
    item: "arrival",
    quality: "mean flow time over mean task estimate",
    // Near saturation the mean flow time of one pass swings by a few
    // percent with its arrival draws; sixteen passes (1.6M arrivals)
    // average that down.
    min_passes: 16,
    repeat_check: true,
    build: || Box::new(Serve),
};

struct Serve;

fn config(seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig::poisson(MACHINES, REPLICATION, RATE, TASKS);
    cfg.seed = seed;
    cfg.fsync_every = FSYNC_EVERY;
    cfg
}

/// Runs the daemon to completion; `lap` is called between events.
fn run(daemon: &mut Daemon, mut lap: impl FnMut()) -> Result<ServeReport, String> {
    let report = daemon
        .run(&mut |_| {
            lap();
            Control::Continue
        })
        .map_err(core_err)?;
    lap();
    Ok(report)
}

fn finish(report: &ServeReport) -> Result<Pass, String> {
    if report.admitted != report.completed + report.shed + report.failed {
        return Err(format!(
            "serve: admitted {} != completed {} + shed {} + failed {}",
            report.admitted, report.completed, report.shed, report.failed
        ));
    }
    let rejected = report.rejected_full + report.rejected_deadline + report.rejected_draining;
    if report.admitted + rejected != TASKS {
        return Err(format!(
            "serve: {} of {TASKS} arrivals accounted for",
            report.admitted + rejected
        ));
    }
    // Estimates are uniform on [0.5, 1.5]: the mean task is 1.
    Ok(Pass {
        items: TASKS,
        failed: report.failed + report.shed + rejected,
        quality: report.flow.mean,
        key: format!("{report:?}"),
        ..Pass::default()
    })
}

impl Workload for Serve {
    fn setup(&mut self, seed: u64) -> Result<(), String> {
        // A path of its own: truncating a pass's full journal is not
        // set-up work.
        let path = out_dir()?.join("serve-setup.journal");
        drop(Daemon::with_journal(config(seed), path, false).map_err(core_err)?);
        Ok(())
    }

    fn pass(&mut self, seed: u64, traced: bool) -> Result<Pass, String> {
        let path = out_dir()?.join("serve.journal");
        if !traced {
            let mut daemon = Daemon::with_journal(config(seed), &path, false).map_err(core_err)?;
            return finish(&run(&mut daemon, || {})?);
        }

        // Each interval between control callbacks is one event: a
        // `serve.step` span.
        let mut daemon = trace::timed("serve.journal", || {
            Daemon::with_journal(config(seed), &path, false)
        })
        .map_err(core_err)?;
        let started = trace::now_ns();
        let mut last = started;
        let report = run(&mut daemon, || trace::lap("serve.step", &mut last))?;
        let journaled_ns = last - started;

        // The journal's share comes from a paired run of the same config
        // without it, timed the same way into a scratch recorder; its
        // wall time is not part of the traced window.
        let paired_start = Instant::now();
        let mut plain = Daemon::new(config(seed)).map_err(core_err)?;
        let mut scratch = Recorder::default();
        let clock = Instant::now();
        let mut at = 0;
        let plain_report = run(&mut plain, || {
            let now = clock.elapsed().as_nanos() as u64;
            scratch.leaf("serve.step", at, now);
            at = now;
        })?;
        let plain_ns = at;
        if format!("{plain_report:?}") != format!("{report:?}") {
            return Err("serve: the journal changed the schedule".into());
        }
        trace::with_recorder(|r| {
            r.attribute(
                "serve.step",
                "serve.journal",
                journaled_ns.saturating_sub(plain_ns),
            )
        });
        Ok(Pass {
            excluded_s: paired_start.elapsed().as_secs_f64(),
            ..finish(&report)?
        })
    }
}

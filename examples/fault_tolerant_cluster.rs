//! A cluster that loses machines mid-run: replication as the shared
//! answer to uncertainty *and* failures.
//!
//! The paper's Hadoop motivation: systems already replicate blocks for
//! fault tolerance, so exploiting the replicas against runtime
//! uncertainty is free. This example runs the same workload through the
//! resilience engine under a one-crash script and three placements, and
//! shows survival, restarts, and the executed Gantt of a run that
//! absorbed the failure.
//!
//! Run: `cargo run --release --example fault_tolerant_cluster`

use replicated_placement::prelude::*;
use replicated_placement::report;
use replicated_placement::sim::faults::{
    FaultEvent, FaultScript, Outcome as RunOutcome, ResilienceEngine, ResilienceReport,
};
use replicated_placement::sim::{Dispatcher, OrderedDispatcher};
use replicated_placement::workloads::{realize::RealizationModel, rng};

/// Runs `script` and treats a partial outcome as the job's failure: a
/// task whose every data holder died is lost work.
fn run_to_completion(
    inst: &Instance,
    placement: &Placement,
    real: &Realization,
    dispatcher: &mut dyn Dispatcher,
    script: &FaultScript,
) -> Result<ResilienceReport> {
    let report = ResilienceEngine::new(inst, placement, real, script)?.run(dispatcher)?;
    match report.outcome {
        RunOutcome::Completed => Ok(report),
        RunOutcome::Partial { .. } => Err(Error::InvalidParameter {
            what: "task stranded: every machine holding its data failed",
        }),
    }
}

fn main() -> Result<()> {
    let (n, m) = (18usize, 6usize);
    let mut r = rng::rng(11);
    let est = replicated_placement::workloads::EstimateDistribution::Uniform { lo: 2.0, hi: 8.0 }
        .sample_n(n, &mut r);
    let inst = Instance::from_estimates(&est, m)?;
    let unc = Uncertainty::of(1.5);
    let real = RealizationModel::UniformFactor.realize(&inst, unc, &mut r)?;

    // Machine 2 dies a third of the way through the horizon.
    let failures = FaultScript::new(vec![FaultEvent::Crash {
        machine: MachineId::new(2),
        at: Time::of(6.0),
    }]);

    println!(
        "cluster: n = {n}, m = {m}, α = {}; machine p2 fails at t = 6\n",
        unc.alpha()
    );

    for strategy in [
        Box::new(LsGroup::new(3)) as Box<dyn Strategy>,
        Box::new(ChainedReplication::new(2)?),
        Box::new(LptNoRestriction),
    ] {
        let placement = strategy.place(&inst, unc)?;
        let mut dispatcher = OrderedDispatcher::lpt_by_estimate(&inst);
        match run_to_completion(&inst, &placement, &real, &mut dispatcher, &failures) {
            Ok(res) => {
                println!(
                    "{:<22} replicas/task = {}   C_max = {:.2}   restarts = {}",
                    strategy.name(),
                    placement.max_replicas(),
                    res.metrics.makespan.get(),
                    res.metrics.restarts
                );
                if strategy.name().contains("Chained") {
                    println!("\nexecution with the failure absorbed (p2 row goes quiet at t=6):");
                    println!("{}", report::gantt::render(&res.schedule, 60));
                }
            }
            Err(e) => println!(
                "{:<22} replicas/task = {}   FAILED: {e}",
                strategy.name(),
                placement.max_replicas()
            ),
        }
    }

    // The pinned placement strands p2's tasks — shown for contrast.
    let pinned = LptNoChoice.place(&inst, unc)?;
    let assignment = LptNoChoice.execute(&inst, &pinned, &Realization::exact(&inst))?;
    let mut d = replicated_placement::sim::PinnedDispatcher::new(assignment.machines(), m);
    match run_to_completion(&inst, &pinned, &real, &mut d, &failures) {
        Ok(_) => println!("LPT-No Choice          unexpectedly survived"),
        Err(e) => println!("LPT-No Choice          replicas/task = 1   LOST WORK: {e}"),
    }
    Ok(())
}

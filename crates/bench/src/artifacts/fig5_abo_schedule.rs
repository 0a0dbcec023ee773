//! **Figure 5** — an `ABO_Δ` schedule example.
//!
//! Reproduces the paper's illustration: memory-intensive tasks pinned by
//! `π₂` (uncolored), time-intensive tasks replicated on every machine and
//! list-scheduled online on top (colored).

use super::{fig4_sabo_schedule::mixed_instance, Artifact};
use rds_algs::memory::pi::PiSchedules;
use rds_algs::memory::sbo::TaskClass;
use rds_algs::memory::{abo::Abo, sabo::Sabo, MemoryStrategy};
use rds_core::{Schedule, TaskId, Uncertainty};
use rds_report::Table;
use rds_workloads::{realize::RealizationModel, rng};

pub fn render() -> rds_core::Result<Artifact> {
    let mut art = Artifact::default();
    art.header("Figure 5 — ABO_Δ schedule (S2 pinned by π₂, S1 replicated + online LS)");

    let inst = mixed_instance()?;
    let unc = Uncertainty::of(1.5);
    let delta = 1.0;
    let abo = Abo::new(delta);
    let pis = PiSchedules::lpt_defaults(&inst)?;
    let (placement, classes) = abo.place_with(&inst, &pis)?;

    let mut t = Table::new(vec!["task", "estimate", "size", "class", "replicas"]);
    for (j, class) in classes.iter().enumerate() {
        let task = TaskId::new(j);
        t.row(vec![
            format!("t{j}"),
            format!("{}", inst.estimate(task)),
            format!("{}", inst.size(task)),
            match class {
                TaskClass::TimeIntensive => "S1 (replicated)".to_string(),
                TaskClass::MemoryIntensive => "S2 (pinned)".to_string(),
            },
            placement.replicas(task).to_string(),
        ]);
    }
    writeln!(art, "{}", t.to_markdown());

    // Execute under a perturbed realization: the online LS phase reacts.
    let mut r = rng::rng(7);
    let real = RealizationModel::TwoPoint { p_inflate: 0.4 }.realize(&inst, unc, &mut r)?;
    let out = abo.run(&inst, unc, &real)?;
    writeln!(art, "executed schedule (Δ = {delta}):");
    let schedule = Schedule::sequence(&out.assignment.tasks_per_machine(), &real);
    writeln!(art, "{}", rds_report::gantt::render(&schedule, 60));
    writeln!(art, "C_max = {}   Mem_max = {}", out.makespan, out.mem_max);

    art.header("ABO vs SABO on the same perturbed realization");
    let sabo_out = Sabo::new(delta).run(&inst, unc, &real)?;
    let mut cmp = Table::new(vec!["algorithm", "C_max", "Mem_max", "total replicas"]);
    cmp.row(vec![
        "SABO_Δ".to_string(),
        format!("{}", sabo_out.makespan),
        format!("{}", sabo_out.mem_max),
        sabo_out.placement.total_replicas().to_string(),
    ]);
    cmp.row(vec![
        "ABO_Δ".to_string(),
        format!("{}", out.makespan),
        format!("{}", out.mem_max),
        out.placement.total_replicas().to_string(),
    ]);
    writeln!(art, "{}", cmp.to_markdown());
    writeln!(
        art,
        "ABO spends memory {} vs SABO's {} for online flexibility; \
         makespan on this realization: {} vs {}.",
        out.mem_max, sabo_out.mem_max, out.makespan, sabo_out.makespan
    );
    Ok(art)
}

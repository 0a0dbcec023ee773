//! **Figure 4** — a `SABO_Δ` two-phase schedule example.
//!
//! Reproduces the paper's illustration: tasks split by the `SBO_Δ`
//! threshold, memory-intensive tasks following the memory schedule `π₂`,
//! time-intensive tasks following the makespan schedule `π₁`, everything
//! pinned (no replication).

use super::Artifact;
use rds_algs::memory::pi::PiSchedules;
use rds_algs::memory::sbo::{classify, TaskClass};
use rds_algs::memory::{sabo::Sabo, MemoryStrategy};
use rds_core::{Instance, Realization, Schedule, TaskId, Uncertainty};
use rds_report::Table;

/// The Figure 4 and 5 instance: half compute-bound, half data-bound.
pub(super) fn mixed_instance() -> rds_core::Result<Instance> {
    Instance::from_estimates_and_sizes(
        &[
            (9.0, 1.0),
            (7.0, 2.0),
            (6.0, 1.0),
            (2.0, 8.0),
            (1.5, 7.0),
            (1.0, 6.0),
            (3.0, 3.0),
            (2.5, 4.0),
        ],
        3,
    )
}

pub fn render() -> rds_core::Result<Artifact> {
    let mut art = Artifact::default();
    art.header("Figure 4 — SABO_Δ schedule (uncolored = π₂/memory, colored = π₁/time)");

    let inst = mixed_instance()?;
    let unc = Uncertainty::of(1.5);
    let delta = 1.0;
    let pis = PiSchedules::lpt_defaults(&inst)?;
    let classes = classify(&inst, &pis, delta);

    let mut t = Table::new(vec!["task", "estimate", "size", "class", "machine"]);
    let sabo = Sabo::new(delta);
    let (placement, assignment) = sabo.place_with(&inst, &pis)?;
    for (j, class) in classes.iter().enumerate() {
        let task = TaskId::new(j);
        t.row(vec![
            format!("t{j}"),
            format!("{}", inst.estimate(task)),
            format!("{}", inst.size(task)),
            match class {
                TaskClass::TimeIntensive => "S1 (time → π₁)".to_string(),
                TaskClass::MemoryIntensive => "S2 (memory → π₂)".to_string(),
            },
            format!("{}", assignment.machine_of(task)),
        ]);
    }
    writeln!(art, "{}", t.to_markdown());

    let real = Realization::exact(&inst);
    let out = sabo.run(&inst, unc, &real)?;
    writeln!(art, "executed schedule (Δ = {delta}):");
    let schedule = Schedule::sequence(&out.assignment.tasks_per_machine(), &real);
    writeln!(art, "{}", rds_report::gantt::render(&schedule, 60));
    writeln!(
        art,
        "C_max = {}   Mem_max = {}   (placement uses {} replicas total: no replication)",
        out.makespan,
        out.mem_max,
        placement.total_replicas()
    );
    assert_eq!(placement.total_replicas(), inst.n());

    art.header("Effect of Δ on the split");
    let mut t = Table::new(vec!["delta", "|S1|", "|S2|", "C_max", "Mem_max"]);
    for &d in &[0.1, 0.5, 1.0, 2.0, 10.0] {
        let classes = classify(&inst, &pis, d);
        let s1 = classes
            .iter()
            .filter(|&&c| c == TaskClass::TimeIntensive)
            .count();
        let out = Sabo::new(d).run(&inst, unc, &real)?;
        t.row(vec![
            format!("{d}"),
            s1.to_string(),
            (inst.n() - s1).to_string(),
            format!("{}", out.makespan),
            format!("{}", out.mem_max),
        ]);
    }
    writeln!(art, "{}", t.to_markdown());
    Ok(art)
}

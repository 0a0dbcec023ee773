//! **Figure 2** — the two phases of grouped replication (m = 6, k = 2).
//!
//! Reproduces the paper's illustration: phase 1 assigns each task's data
//! to one of the two groups; phase 2 schedules each task onto a machine
//! within its group, reacting to the actual times.

use super::Artifact;
use rds_algs::{LsGroup, Strategy};
use rds_core::{GroupPartition, Schedule, TaskId, Uncertainty};
use rds_report::Table;
use rds_workloads::{realize::RealizationModel, rng};

pub fn render() -> rds_core::Result<Artifact> {
    let mut art = Artifact::default();
    let (m, k) = (6usize, 2usize);
    art.header(&format!(
        "Figure 2 — replication in groups (m = {m}, k = {k})"
    ));

    // A small irregular instance like the figure's.
    let inst =
        rds_core::Instance::from_estimates(&[5.0, 4.0, 4.0, 3.0, 3.0, 2.0, 2.0, 2.0, 1.0, 1.0], m)?;
    let unc = Uncertainty::of(1.5);
    let strat = LsGroup::new(k);
    let placement = strat.place(&inst, unc)?;
    let partition = GroupPartition::new_exact(m, k)?;

    writeln!(
        art,
        "phase 1 — data placement (each task replicated on its whole group):"
    );
    let mut t = Table::new(vec!["task", "estimate", "group", "machines"]);
    for j in 0..inst.n() {
        let task = TaskId::new(j);
        let first = placement.set(task).iter(m).next().unwrap();
        let g = partition.group_of(first);
        t.row(vec![
            format!("t{j}"),
            format!("{}", inst.estimate(task)),
            format!("G{}", g + 1),
            format!("{}", placement.set(task)),
        ]);
    }
    writeln!(art, "{}", t.to_markdown());

    // Phase 2 under a perturbed realization.
    let mut r = rng::rng(2024);
    let real = RealizationModel::TwoPoint { p_inflate: 0.3 }.realize(&inst, unc, &mut r)?;
    let out = strat.run(&inst, unc, &real)?;
    writeln!(
        art,
        "phase 2 — online execution within groups (C_max = {}):",
        out.makespan
    );
    let schedule = Schedule::sequence(&out.assignment.tasks_per_machine(), &real);
    writeln!(art, "{}", rds_report::gantt::render(&schedule, 60));
    let svg = rds_report::gantt_svg(&schedule, 720.0);
    art.files.push(("fig2_gantt.svg".into(), svg));

    // Cross-check with the event-driven engine.
    let sim = rds_sim::executors::simulate_grouped(&inst, &placement, &real)?;
    assert_eq!(sim.makespan, out.makespan, "engine and closed form agree");
    writeln!(
        art,
        "event-engine cross-check: identical makespan {} over {} dispatches ✓",
        sim.makespan,
        sim.trace.starts()
    );

    // And compare against no replication / full replication on the same
    // realization to show the tradeoff in action.
    let pinned = rds_algs::LptNoChoice.run(&inst, unc, &real)?;
    let every = rds_algs::LptNoRestriction.run(&inst, unc, &real)?;
    writeln!(
        art,
        "\nmakespans on this realization:  LPT-No Choice = {}   \
         LS-Group(k=2) = {}   LPT-No Restriction = {}",
        pinned.makespan, out.makespan, every.makespan
    );
    writeln!(
        art,
        "replicas per task:              1                 {}                 {}",
        placement.max_replicas(),
        m
    );
    Ok(art)
}

//! Always-on schedule invariant validator.
//!
//! Every schedule the engines produce can be re-checked against the
//! paper's ground rules, independently of the engine that built it:
//!
//! - **placement feasibility** — tasks run only on machines in `M_j`;
//! - **no overlap** — a machine processes at most one task at a time;
//! - **replication budget** — `|M_j| ≤ k` when a budget is in force;
//! - **duration honesty** — each slot spans exactly the task's actual
//!   processing time `p_j`;
//! - **the α-envelope** — actual times lie within `[p̃_j/α, α·p̃_j]`;
//! - **memory accounting** — a claimed `Mem_max` matches the occupation
//!   recomputed from the placement (`Mem_i = Σ_{j: i ∈ M_j} s_j`).
//!
//! Validation is *on* in debug builds (so every test exercises it) and
//! opt-in in release builds via `RDS_VALIDATE=1` or the CLI `--validate`
//! flag. Violations are returned as typed values — never panics — so a
//! bad schedule degrades the one trial that produced it, not the whole
//! campaign.
//!
//! Not every check applies to every run: fault scripts with slowdowns or
//! stragglers legitimately stretch slot durations beyond the envelope,
//! and partial outcomes legitimately miss tasks. [`Checks`] selects the
//! invariant subset that must hold for a given execution mode; the
//! structural checks (placement, overlap, duplicates) hold always.

use rds_core::{
    memory, Error, Instance, Placement, Realization, Result, Schedule, Size, Slot, Uncertainty,
};
use std::fmt;

/// Relative tolerance for floating-point time/size comparisons.
const TOL: f64 = 1e-9;

/// `true` when the validator should run: always in debug builds, and in
/// release builds when `RDS_VALIDATE=1` is set (the CLI `--validate` flag
/// sets it for the process).
pub fn enabled() -> bool {
    cfg!(debug_assertions) || std::env::var_os("RDS_VALIDATE").is_some_and(|v| v == "1")
}

/// One violated invariant, with enough context to debug it.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A slot ran a task on a machine outside its placement set `M_j`.
    OffPlacement {
        /// Offending task index.
        task: usize,
        /// Machine the slot ran on.
        machine: usize,
    },
    /// Two slots on one machine overlap in time.
    Overlap {
        /// The machine with overlapping slots.
        machine: usize,
        /// The earlier slot's task.
        first: usize,
        /// The later slot's task.
        second: usize,
        /// End of the earlier slot.
        first_end: f64,
        /// Start of the later slot (before `first_end`).
        second_start: f64,
    },
    /// A task has more than one completed slot.
    DuplicateTask {
        /// Offending task index.
        task: usize,
    },
    /// A task has no completed slot although the run claims completion.
    MissingTask {
        /// Offending task index.
        task: usize,
    },
    /// A slot references a task index `>= n`.
    UnknownTask {
        /// Offending task index.
        task: usize,
        /// Number of tasks in the instance.
        n: usize,
    },
    /// The schedule's machine count differs from the instance's `m`.
    MachineCountMismatch {
        /// Instance machine count.
        expected: usize,
        /// Schedule machine count.
        got: usize,
    },
    /// A task's placement exceeds the replication budget: `|M_j| > k`.
    BudgetExceeded {
        /// Offending task index.
        task: usize,
        /// Number of replicas placed.
        replicas: usize,
        /// The budget `k`.
        budget: usize,
    },
    /// A slot's span differs from the task's actual processing time.
    DurationMismatch {
        /// Offending task index.
        task: usize,
        /// Machine the slot ran on.
        machine: usize,
        /// The slot's span `end - start`.
        got: f64,
        /// The realized processing time `p_j`.
        want: f64,
    },
    /// A realized time escaped the uncertainty envelope `[p̃/α, α·p̃]`.
    EnvelopeViolated {
        /// Offending task index.
        task: usize,
        /// The estimate `p̃_j`.
        estimate: f64,
        /// The realized time `p_j`.
        actual: f64,
        /// The uncertainty factor in force.
        alpha: f64,
    },
    /// A claimed peak memory differs from the placement's recomputed
    /// occupation.
    MemoryMismatch {
        /// The claimed `Mem_max`.
        claimed: f64,
        /// `max_i Σ_{j: i ∈ M_j} s_j` recomputed from the placement.
        actual: f64,
    },
}

impl Violation {
    /// Stable machine-readable tag for the invariant class.
    pub fn invariant(&self) -> &'static str {
        match self {
            Violation::OffPlacement { .. } => "off-placement",
            Violation::Overlap { .. } => "overlap",
            Violation::DuplicateTask { .. } => "duplicate-task",
            Violation::MissingTask { .. } => "missing-task",
            Violation::UnknownTask { .. } => "unknown-task",
            Violation::MachineCountMismatch { .. } => "machine-count",
            Violation::BudgetExceeded { .. } => "replication-budget",
            Violation::DurationMismatch { .. } => "duration",
            Violation::EnvelopeViolated { .. } => "envelope",
            Violation::MemoryMismatch { .. } => "memory",
        }
    }

    /// Converts into the shared error taxonomy.
    pub fn into_error(self) -> Error {
        Error::InvariantViolation {
            invariant: self.invariant(),
            detail: self.to_string(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::OffPlacement { task, machine } => {
                write!(f, "task {task} ran on machine {machine} outside M_j")
            }
            Violation::Overlap {
                machine,
                first,
                second,
                first_end,
                second_start,
            } => write!(
                f,
                "machine {machine}: task {second} starts at {second_start} \
                 before task {first} ends at {first_end}"
            ),
            Violation::DuplicateTask { task } => {
                write!(f, "task {task} completed more than once")
            }
            Violation::MissingTask { task } => {
                write!(f, "task {task} never completed")
            }
            Violation::UnknownTask { task, n } => {
                write!(f, "slot references task {task} (n = {n})")
            }
            Violation::MachineCountMismatch { expected, got } => {
                write!(f, "schedule covers {got} machines, instance has {expected}")
            }
            Violation::BudgetExceeded {
                task,
                replicas,
                budget,
            } => write!(
                f,
                "task {task} placed on {replicas} machines, budget k = {budget}"
            ),
            Violation::DurationMismatch {
                task,
                machine,
                got,
                want,
            } => write!(
                f,
                "task {task} on machine {machine} spans {got}, actual time is {want}"
            ),
            Violation::EnvelopeViolated {
                task,
                estimate,
                actual,
                alpha,
            } => write!(
                f,
                "task {task}: actual {actual} outside [{lo}, {hi}] \
                 (estimate {estimate}, alpha {alpha})",
                lo = estimate / alpha,
                hi = estimate * alpha,
            ),
            Violation::MemoryMismatch { claimed, actual } => {
                write!(f, "claimed Mem_max {claimed}, placement occupies {actual}")
            }
        }
    }
}

/// Which invariant subset must hold for a given execution mode.
///
/// The structural checks — placement feasibility, no overlap, no
/// duplicate completions, index ranges — always run; they hold even
/// under faults and partial outcomes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checks {
    /// Require every task to have exactly one completed slot. Off for
    /// partial (gracefully degraded) outcomes.
    pub completeness: bool,
    /// Require each slot to span exactly the task's realized time. Off
    /// when the fault script stretches time (slowdowns / stragglers).
    pub durations: bool,
    /// Check realized times against the α-envelope. `None` skips (the
    /// plain engine does not know the uncertainty model; straggler
    /// scripts violate it by design).
    pub envelope: Option<Uncertainty>,
    /// Check `|M_j| ≤ k` for every task.
    pub budget: Option<usize>,
    /// Check a claimed `Mem_max` against the recomputed occupation.
    pub memory: Option<Size>,
}

impl Checks {
    /// Structural checks only — the subset that holds for any schedule,
    /// including partial outcomes under arbitrary fault scripts.
    pub fn structural() -> Self {
        Checks::default()
    }

    /// The fault-free engine contract: complete and duration-honest.
    pub fn engine() -> Self {
        Checks {
            completeness: true,
            durations: true,
            ..Checks::default()
        }
    }

    /// Everything: completeness, durations, envelope, and budget.
    pub fn full(uncertainty: Uncertainty, budget: usize) -> Self {
        Checks {
            completeness: true,
            durations: true,
            envelope: Some(uncertainty),
            budget: Some(budget),
            ..Checks::default()
        }
    }
}

/// Validates a produced schedule, returning *all* violations found.
///
/// An empty vector means the schedule satisfies every requested
/// invariant. The function never panics on malformed input — a slot with
/// an out-of-range task index becomes an [`Violation::UnknownTask`], not
/// an index panic.
pub fn validate_schedule(
    instance: &Instance,
    placement: &Placement,
    realization: &Realization,
    schedule: &Schedule,
    checks: &Checks,
) -> Vec<Violation> {
    let _span = rds_obs::span("validator.check");
    let n = instance.n();
    let m = instance.m();
    let mut out = Vec::new();

    let per_machine = schedule.all_slots();
    if per_machine.len() != m {
        out.push(Violation::MachineCountMismatch {
            expected: m,
            got: per_machine.len(),
        });
    }

    let mut completions = vec![0usize; n];
    let mut sorted = Vec::new();
    for (mi, slots) in per_machine.iter().enumerate() {
        // Check consecutive pairs in `(start, end)` order without
        // assuming the engine appended chronologically. The engines do,
        // so the lists are read as they are; any other is stable-sorted
        // in a copy, which keeps equal slots in list order.
        let by_start = |a: &Slot, b: &Slot| a.start.cmp(&b.start).then(a.end.cmp(&b.end));
        let in_order = if slots.windows(2).all(|w| by_start(&w[0], &w[1]).is_le()) {
            &slots[..]
        } else {
            sorted.clear();
            sorted.extend_from_slice(slots);
            sorted.sort_by(by_start);
            &sorted[..]
        };
        for w in in_order.windows(2) {
            let (prev, next) = (&w[0], &w[1]);
            if next.start < prev.end {
                out.push(Violation::Overlap {
                    machine: mi,
                    first: prev.task.index(),
                    second: next.task.index(),
                    first_end: prev.end.get(),
                    second_start: next.start.get(),
                });
            }
        }
        for slot in slots.iter() {
            let j = slot.task.index();
            if j >= n {
                out.push(Violation::UnknownTask { task: j, n });
                continue;
            }
            completions[j] += 1;
            if mi < placement.m() && !placement.allows(slot.task, rds_core::MachineId::new(mi)) {
                out.push(Violation::OffPlacement {
                    task: j,
                    machine: mi,
                });
            }
            if checks.durations {
                let got = slot.end.get() - slot.start.get();
                let want = realization.actual(slot.task).get();
                // The span `end − start` inherits the clock's rounding
                // error, so the tolerance must scale with the slot's
                // absolute position, not just the task's duration: a
                // short task started late in a long schedule can differ
                // from its actual by ~ulp(end) ≫ ulp(duration).
                if (got - want).abs() > TOL * want.max(slot.end.get()).max(1.0) {
                    out.push(Violation::DurationMismatch {
                        task: j,
                        machine: mi,
                        got,
                        want,
                    });
                }
            }
        }
    }

    for (j, &count) in completions.iter().enumerate() {
        if count > 1 {
            out.push(Violation::DuplicateTask { task: j });
        }
        if checks.completeness && count == 0 {
            out.push(Violation::MissingTask { task: j });
        }
    }

    if let Some(unc) = checks.envelope {
        for (j, task) in instance.tasks().iter().enumerate() {
            let actual = realization.actual(task.id);
            if !unc.contains(task.estimate, actual) {
                out.push(Violation::EnvelopeViolated {
                    task: j,
                    estimate: task.estimate.get(),
                    actual: actual.get(),
                    alpha: unc.alpha(),
                });
            }
        }
    }

    if let Some(k) = checks.budget {
        for id in instance.task_ids() {
            let replicas = placement.replicas(id);
            if replicas > k {
                out.push(Violation::BudgetExceeded {
                    task: id.index(),
                    replicas,
                    budget: k,
                });
            }
        }
    }

    if let Some(claimed) = checks.memory {
        let actual = memory::occupation(instance, placement)
            .iter()
            .map(|s| s.get())
            .fold(0.0_f64, f64::max);
        if (claimed.get() - actual).abs() > TOL * actual.max(1.0) {
            out.push(Violation::MemoryMismatch {
                claimed: claimed.get(),
                actual,
            });
        }
    }

    // One registry lookup per validation (not per slot), so the lock in
    // `Registry::counter` stays off the per-event path.
    if rds_obs::enabled() {
        let g = rds_obs::global();
        g.counter("validator.checks").inc();
        if !out.is_empty() {
            g.counter("validator.violations").add(out.len() as u64);
        }
    }

    out
}

/// Like [`validate_schedule`], but maps the first violation into the
/// shared error taxonomy for `?`-propagation.
///
/// # Errors
/// [`Error::InvariantViolation`] carrying the first violation's class tag
/// and rendered detail.
pub fn check_schedule(
    instance: &Instance,
    placement: &Placement,
    realization: &Realization,
    schedule: &Schedule,
    checks: &Checks,
) -> Result<()> {
    match validate_schedule(instance, placement, realization, schedule, checks)
        .into_iter()
        .next()
    {
        None => Ok(()),
        Some(v) => Err(v.into_error()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rds_core::{MachineId, Slot, TaskId, Time};

    fn fixture() -> (Instance, Placement, Realization, Schedule) {
        let inst = Instance::from_estimates(&[2.0, 1.0, 3.0], 2).unwrap();
        let p = Placement::everywhere(&inst);
        let r = Realization::exact(&inst);
        // m0: t0 [0,2), t1 [2,3); m1: t2 [0,3).
        let slots = vec![
            vec![
                Slot {
                    task: TaskId::new(0),
                    start: Time::ZERO,
                    end: Time::of(2.0),
                },
                Slot {
                    task: TaskId::new(1),
                    start: Time::of(2.0),
                    end: Time::of(3.0),
                },
            ],
            vec![Slot {
                task: TaskId::new(2),
                start: Time::ZERO,
                end: Time::of(3.0),
            }],
        ];
        (inst, p, r, Schedule::from_slots(slots))
    }

    #[test]
    fn clean_schedule_passes_every_check() {
        let (inst, p, r, s) = fixture();
        let checks = Checks::full(Uncertainty::of(2.0), 2);
        assert!(validate_schedule(&inst, &p, &r, &s, &checks).is_empty());
        check_schedule(&inst, &p, &r, &s, &checks).unwrap();
        // Idle time between two slots is allowed: t1 starts at 5, not 2.
        let mut slots = s.all_slots().to_vec();
        slots[0][1].start = Time::of(5.0);
        slots[0][1].end = Time::of(6.0);
        let gap = Schedule::from_slots(slots);
        check_schedule(&inst, &p, &r, &gap, &checks).unwrap();
        assert_eq!(gap.makespan(), Time::of(6.0));
    }

    #[test]
    fn overlap_is_detected() {
        let (inst, p, r, s) = fixture();
        let mut slots = s.all_slots().to_vec();
        slots[0][1].start = Time::of(1.5); // starts before t0 ends
        slots[0][1].end = Time::of(2.5);
        let bad = Schedule::from_slots(slots);
        let vs = validate_schedule(&inst, &p, &r, &bad, &Checks::structural());
        assert!(vs.iter().any(|v| matches!(
            v,
            Violation::Overlap {
                machine: 0,
                first: 0,
                second: 1,
                ..
            }
        )));
    }

    #[test]
    fn off_placement_is_detected() {
        let (inst, _, r, s) = fixture();
        // Task 2 ran on machine 1, but is now pinned to machine 0 only.
        let pinned = Placement::pinned(
            &inst,
            &[MachineId::new(0), MachineId::new(0), MachineId::new(0)],
        )
        .unwrap();
        let vs = validate_schedule(&inst, &pinned, &r, &s, &Checks::structural());
        assert!(vs.iter().any(|v| matches!(
            v,
            Violation::OffPlacement {
                task: 2,
                machine: 1
            }
        )));
    }

    #[test]
    fn duplicate_and_missing_are_detected() {
        let (inst, p, r, s) = fixture();
        let mut slots = s.all_slots().to_vec();
        // Re-run task 0 on machine 1 (duplicate), drop task 1 (missing).
        slots[1].push(Slot {
            task: TaskId::new(0),
            start: Time::of(3.0),
            end: Time::of(5.0),
        });
        slots[0].pop();
        let bad = Schedule::from_slots(slots);
        let checks = Checks::engine();
        let vs = validate_schedule(&inst, &p, &r, &bad, &checks);
        assert!(vs
            .iter()
            .any(|v| matches!(v, Violation::DuplicateTask { task: 0 })));
        assert!(vs
            .iter()
            .any(|v| matches!(v, Violation::MissingTask { task: 1 })));
        // Partial-outcome mode tolerates the missing task but still flags
        // the duplicate.
        let vs = validate_schedule(&inst, &p, &r, &bad, &Checks::structural());
        assert!(vs
            .iter()
            .any(|v| matches!(v, Violation::DuplicateTask { task: 0 })));
        assert!(!vs
            .iter()
            .any(|v| matches!(v, Violation::MissingTask { .. })));
    }

    #[test]
    fn budget_violation_is_detected() {
        let (inst, p, r, s) = fixture();
        // Everywhere-placement puts each task on 2 machines; budget 1.
        let mut checks = Checks::structural();
        checks.budget = Some(1);
        let vs = validate_schedule(&inst, &p, &r, &s, &checks);
        assert!(vs.iter().any(|v| matches!(
            v,
            Violation::BudgetExceeded {
                replicas: 2,
                budget: 1,
                ..
            }
        )));
    }

    #[test]
    fn duration_mismatch_is_detected() {
        let (inst, p, r, s) = fixture();
        let mut slots = s.all_slots().to_vec();
        slots[1][0].end = Time::of(4.0); // t2 stretched beyond p_2 = 3
        let bad = Schedule::from_slots(slots);
        let vs = validate_schedule(&inst, &p, &r, &bad, &Checks::engine());
        assert!(vs
            .iter()
            .any(|v| matches!(v, Violation::DurationMismatch { task: 2, .. })));
        // ... but tolerated in structural mode (slowdown scripts stretch).
        assert!(validate_schedule(&inst, &p, &r, &bad, &Checks::structural()).is_empty());
    }

    #[test]
    fn envelope_violation_is_detected() {
        let inst = Instance::from_estimates(&[2.0], 1).unwrap();
        let p = Placement::everywhere(&inst);
        // Build via exact() then compare against a *tighter* claimed α by
        // constructing an out-of-envelope realization through a wide α.
        let wide = Uncertainty::of(4.0);
        let r = Realization::from_factors(&inst, wide, &[4.0]).unwrap();
        let s = Schedule::from_slots(vec![vec![Slot {
            task: TaskId::new(0),
            start: Time::ZERO,
            end: Time::of(8.0),
        }]]);
        let mut checks = Checks::structural();
        checks.envelope = Some(Uncertainty::of(2.0));
        let vs = validate_schedule(&inst, &p, &r, &s, &checks);
        assert!(vs
            .iter()
            .any(|v| matches!(v, Violation::EnvelopeViolated { task: 0, .. })));
    }

    #[test]
    fn memory_mismatch_is_detected() {
        let inst =
            Instance::from_estimates_and_sizes(&[(2.0, 1.0), (1.0, 2.0), (3.0, 4.0)], 2).unwrap();
        let p = Placement::everywhere(&inst);
        let r = Realization::exact(&inst);
        let s = Schedule::from_slots(vec![Vec::new(), Vec::new()]);
        // Everywhere: each machine holds all sizes → Mem_max = 7.
        let mut checks = Checks::structural();
        checks.memory = Some(Size::of(7.0));
        assert!(validate_schedule(&inst, &p, &r, &s, &checks).is_empty());
        checks.memory = Some(Size::of(5.0));
        let vs = validate_schedule(&inst, &p, &r, &s, &checks);
        assert!(vs
            .iter()
            .any(|v| matches!(v, Violation::MemoryMismatch { .. })));
    }

    #[test]
    fn unknown_task_is_a_violation_not_a_panic() {
        let inst = Instance::from_estimates(&[1.0], 1).unwrap();
        let p = Placement::everywhere(&inst);
        let r = Realization::exact(&inst);
        let s = Schedule::from_slots(vec![vec![Slot {
            task: TaskId::new(9),
            start: Time::ZERO,
            end: Time::ONE,
        }]]);
        let vs = validate_schedule(&inst, &p, &r, &s, &Checks::structural());
        assert!(vs
            .iter()
            .any(|v| matches!(v, Violation::UnknownTask { task: 9, n: 1 })));
    }

    #[test]
    fn violations_map_into_the_error_taxonomy() {
        let v = Violation::Overlap {
            machine: 1,
            first: 0,
            second: 2,
            first_end: 3.0,
            second_start: 2.0,
        };
        match v.into_error() {
            Error::InvariantViolation { invariant, detail } => {
                assert_eq!(invariant, "overlap");
                assert!(detail.contains("machine 1"));
            }
            other => panic!("wrong error: {other}"),
        }
    }
}

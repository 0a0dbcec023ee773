//! The resilience engine: scripted faults, recovery, speculative
//! re-execution, and graceful degradation.
//!
//! The paper motivates replication partly through Hadoop, which
//! replicates data "for the purpose of tolerating hardware faults": a
//! failed machine's in-flight task must restart *on another machine
//! holding its data* — impossible without replication. The same
//! [`Dispatcher`] policies drive the surviving machines, and the runs
//! execute in the one engine event loop ([`crate::Engine`]) with its
//! fault arm switched on. The fault taxonomy:
//!
//! - **Crash** — the machine is gone permanently; its in-flight attempt
//!   is lost and the task requeues on another data-holding machine.
//! - **Outage** — the machine is down for a window, then *rejoins* empty-
//!   handed and may be re-dispatched (crash-and-restart à la Zavou &
//!   Fernández Anta: all in-progress work at the crash point is lost).
//! - **Slowdown** — a degraded-speed phase: the machine keeps running but
//!   processes work at `speed < 1` for a while. Completion events are
//!   re-projected from the remaining work.
//! - **Straggler** — an estimate violation: one task's actual time is
//!   multiplied past the `α` envelope (`p_j > α·p̃_j`), deliberately
//!   breaking the model assumption the dispatcher relies on.
//!
//! On top of the fault script sit two mechanisms replication enables:
//!
//! - **Speculative re-execution** ([`Speculation`]): when an attempt has
//!   been running longer than `β·α·p̃_j` wall-clock, a backup attempt is
//!   requested on another data-holding machine. The first finisher wins;
//!   the losers are cancelled and their progress is counted as wasted
//!   work. Backups only consume *spare* capacity: an idle machine serves
//!   pending fresh tasks first and backups only when its dispatcher has
//!   nothing else for it.
//! - **Graceful degradation**: a stranded task (every holder dead) no
//!   longer aborts the run. The engine drains every event and reports an
//!   [`Outcome`] — `Completed`, or `Partial` with the unfinished set —
//!   plus [`ResilienceMetrics`].
//!
//! # Event-ordering tie-breaks
//!
//! At equal timestamps events process in kind order *fault (0) →
//! recovery (1) → idle/completion (2) → speculation check (3)*:
//!
//! - A failure at exactly a task's completion instant **kills the
//!   attempt** (conservative: the machine is gone first, so work
//!   needing the full interval `[start, t]` never commits). Fault event
//!   ids sort before completion ids; the tie-break is pinned by
//!   `failure_at_exact_completion_instant_kills_the_attempt` below.
//! - A machine rejoining at time `t` participates in dispatch at `t`.
//! - A completion at exactly the speculation threshold does *not* launch
//!   a useless backup (completion processes first).
//!
//! Equal-time events of one kind then process by machine (faults by
//! script index), exactly as the event ids of `FaultArm` sort.

use crate::arena::SimArena;
use crate::dispatcher::Dispatcher;
use crate::engine::{Engine, LoopIo};
use crate::event::{EventQueue, IdleEvent};
use crate::trace::{Trace, TraceEvent};
use rds_core::{
    Error, Instance, MachineId, Placement, Realization, Result, Schedule, Slot, TaskId, Time,
    Uncertainty,
};
use std::collections::VecDeque;

/// One scripted fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// Permanent machine failure at `at`.
    Crash {
        /// The machine that fails.
        machine: MachineId,
        /// When it fails.
        at: Time,
    },
    /// Transient outage: down at `at`, rejoining (empty-handed, at full
    /// speed) `down_for` later.
    Outage {
        /// The machine that goes down.
        machine: MachineId,
        /// When the outage starts.
        at: Time,
        /// Length of the outage window.
        down_for: Time,
    },
    /// Degraded-speed phase: from `at` for `lasting`, the machine
    /// processes work at `speed` (fraction of nominal; `0 < speed`).
    /// Afterwards it returns to nominal speed.
    Slowdown {
        /// The degraded machine.
        machine: MachineId,
        /// When degradation starts.
        at: Time,
        /// Length of the degraded phase.
        lasting: Time,
        /// Processing-speed fraction during the phase.
        speed: f64,
    },
    /// Estimate violation: the task's actual processing time is
    /// multiplied by `factor` at execution, typically pushing it beyond
    /// the `α` envelope the realization was validated against. This is a
    /// deliberate model violation — the knob for "the estimate was just
    /// wrong".
    Straggler {
        /// The violated task.
        task: TaskId,
        /// Multiplier on the task's actual time (`> 0`).
        factor: f64,
    },
}

/// A validated collection of scripted faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultScript {
    events: Vec<FaultEvent>,
}

impl FaultScript {
    /// Wraps a list of fault events.
    pub fn new(events: Vec<FaultEvent>) -> Self {
        FaultScript { events }
    }

    /// The empty (fault-free) script.
    pub fn empty() -> Self {
        Self::default()
    }

    /// The scripted events, in script order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// `true` when no fault is scripted.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scripted events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when the script can legitimately stretch slot durations
    /// beyond the realized times (slowdowns run work at reduced speed,
    /// stragglers multiply actual times), so duration-honesty checks do
    /// not apply to the resulting schedule.
    pub fn stretches_time(&self) -> bool {
        self.events.iter().any(|ev| {
            matches!(
                ev,
                FaultEvent::Slowdown { .. } | FaultEvent::Straggler { .. }
            )
        })
    }

    /// Checks machine/task indices and parameter domains against an
    /// instance.
    ///
    /// # Errors
    /// [`Error::MachineOutOfRange`] / [`Error::TaskOutOfRange`] for bad
    /// indices, [`Error::InvalidParameter`] for non-positive speeds or
    /// factors.
    pub fn validate(&self, instance: &Instance) -> Result<()> {
        let (n, m) = (instance.n(), instance.m());
        for ev in &self.events {
            match *ev {
                FaultEvent::Crash { machine, .. } | FaultEvent::Outage { machine, .. } => {
                    if machine.index() >= m {
                        return Err(Error::MachineOutOfRange {
                            machine: machine.index(),
                            m,
                        });
                    }
                }
                FaultEvent::Slowdown { machine, speed, .. } => {
                    if machine.index() >= m {
                        return Err(Error::MachineOutOfRange {
                            machine: machine.index(),
                            m,
                        });
                    }
                    if !(speed > 0.0 && speed.is_finite()) {
                        return Err(Error::InvalidParameter {
                            what: "slowdown speed must be positive and finite",
                        });
                    }
                }
                FaultEvent::Straggler { task, factor } => {
                    if task.index() >= n {
                        return Err(Error::TaskOutOfRange {
                            task: task.index(),
                            n,
                        });
                    }
                    if !(factor > 0.0 && factor.is_finite()) {
                        return Err(Error::InvalidParameter {
                            what: "straggler factor must be positive and finite",
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

/// Speculative re-execution policy: request a backup attempt once a
/// task's attempt has run `β·α·p̃_j` of wall-clock time without
/// completing.
///
/// Under the model's guarantee an attempt finishes within `α·p̃_j`, so
/// with `β ≥ 1` a backup is triggered only by genuine anomalies
/// (slowdowns, stragglers); a fault-free envelope-respecting run is
/// provably unchanged by speculation. At most one backup is launched per
/// task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Speculation {
    /// Patience multiplier `β` applied on top of the envelope bound.
    pub beta: f64,
    /// The uncertainty level `α` of the envelope.
    pub alpha: f64,
}

impl Speculation {
    /// Policy with patience `beta` over the `uncertainty` envelope.
    ///
    /// # Panics
    /// Panics when `beta` is not positive and finite.
    pub fn new(beta: f64, uncertainty: Uncertainty) -> Self {
        assert!(beta > 0.0 && beta.is_finite(), "beta must be positive");
        Speculation {
            beta,
            alpha: uncertainty.alpha(),
        }
    }

    /// Wall-clock patience for a task with the given estimate.
    pub fn threshold(&self, estimate: Time) -> Time {
        estimate * (self.beta * self.alpha)
    }
}

/// Terminal state of a resilient run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Every task completed.
    Completed,
    /// Some tasks could not complete (stranded or refused); the run
    /// finished gracefully with partial results.
    Partial {
        /// The unfinished tasks, in id order.
        unfinished: Vec<TaskId>,
    },
}

impl Outcome {
    /// `true` when every task completed.
    pub fn is_completed(&self) -> bool {
        matches!(self, Outcome::Completed)
    }

    /// Number of unfinished tasks (0 when completed).
    pub fn unfinished_count(&self) -> usize {
        match self {
            Outcome::Completed => 0,
            Outcome::Partial { unfinished } => unfinished.len(),
        }
    }
}

/// Quantitative summary of a resilient run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceMetrics {
    /// Total task count.
    pub n: usize,
    /// Tasks that completed.
    pub completed: usize,
    /// Attempts killed by machine failures whose task returned to the
    /// pending set (the legacy `restarts` notion).
    pub restarts: usize,
    /// Machines that rejoined after a transient outage.
    pub rejoins: usize,
    /// Degraded-speed phases applied.
    pub degraded_phases: usize,
    /// Speculative backup attempts launched.
    pub speculative_started: usize,
    /// Tasks won by a speculative backup.
    pub speculative_wins: usize,
    /// Attempts cancelled because a sibling finished first.
    pub cancelled: usize,
    /// Work units spent on attempts that did not complete (killed or
    /// cancelled) — the price of faults plus the price of speculation.
    pub wasted_work: Time,
    /// Recovery-cost weight accumulated over machine-down events
    /// (crashes and outage starts), charged from the engine's
    /// per-machine weights ([`ResilienceEngine::with_recovery_costs`]).
    /// With the default unit weights this counts down events.
    pub recovery_cost: f64,
    /// Completion time of the last finished task (zero when nothing
    /// finished).
    pub makespan: Time,
    /// Makespan of the fault-free reference run, when the caller
    /// provided one (see [`ResilienceReport::set_baseline`]).
    pub fault_free_makespan: Option<Time>,
}

impl ResilienceMetrics {
    /// Fraction of tasks that completed (`1.0` for an empty instance).
    pub fn survival_rate(&self) -> f64 {
        if self.n == 0 {
            1.0
        } else {
            self.completed as f64 / self.n as f64
        }
    }

    /// Makespan degradation versus the fault-free baseline
    /// (`makespan / fault_free_makespan`), when a baseline is known.
    pub fn degradation(&self) -> Option<f64> {
        self.fault_free_makespan
            .map(|base| self.makespan.ratio(base).unwrap_or(1.0))
    }
}

/// Everything a resilient run produced.
#[derive(Debug, Clone)]
pub struct ResilienceReport {
    /// Completed / partial.
    pub outcome: Outcome,
    /// Completed work only (lost and cancelled attempts are not slots).
    /// Under slowdowns/stragglers a slot's duration may exceed the
    /// realization's actual time, so this schedule is not expected to
    /// pass [`crate::Checks::engine`]'s duration check.
    pub schedule: Schedule,
    /// Chronological trace including fault, recovery, speculation, and
    /// cancellation events.
    pub trace: Trace,
    /// Quantitative summary.
    pub metrics: ResilienceMetrics,
}

impl ResilienceReport {
    /// Records the fault-free reference makespan (enables
    /// [`ResilienceMetrics::degradation`]).
    pub fn set_baseline(&mut self, fault_free_makespan: Time) {
        self.metrics.fault_free_makespan = Some(fault_free_makespan);
    }
}

/// Recovery kinds, in tie-break order: at equal times a machine's
/// rejoin precedes its speed restoration.
const RECOVER_REJOIN: usize = 0;
const RECOVER_SPEED: usize = 1;

/// A running attempt of a task on a machine.
#[derive(Debug, Clone, Copy)]
struct Attempt {
    task: TaskId,
    start: Time,
    /// Work units this attempt must process (actual × straggler factor).
    total: Time,
    /// Work units processed so far.
    done: Time,
    /// Wall-clock instant `done` was last advanced to.
    last: Time,
    speculative: bool,
    /// When this attempt's speculation check is due (primary attempts
    /// under a [`Speculation`] policy, until the check runs). The check
    /// is queued only while the attempt's projected end lies past it.
    check: Option<Time>,
}

impl Attempt {
    /// Advances processed work to wall-clock `now` at `speed`.
    fn advance(&mut self, now: Time, speed: f64) {
        self.done += (now - self.last) * speed;
        self.last = now;
    }

    /// Completion instant projected from the remaining work at `speed`.
    fn projected_end(&self, speed: f64) -> Time {
        self.last + self.total.saturating_sub(self.done) / speed
    }
}

#[derive(Debug, Clone, Copy)]
struct MachineState {
    alive: bool,
    /// Permanently crashed (suppresses a pending rejoin).
    crashed: bool,
    /// Parked: idle, having refused work; woken by [`FaultArm::offer`]
    /// when a task it holds is requeued or gets a backup request queued,
    /// or as the one other machine offered work then.
    parked: bool,
    attempt: Option<Attempt>,
    /// Due time of the machine's one live idle/completion event. An
    /// earlier event of the machine was superseded (a re-projected
    /// completion, a lost attempt): on the calendar's wheel it was
    /// dropped when the live one was queued, and in the overflow heap,
    /// the look-ahead window or on the heap backend it pops as a no-op.
    /// Matching on the time alone is exact: events of one machine at
    /// one time pop back to back and carry nothing else, so whichever
    /// of them pops first acts for the live one, and the rest see the
    /// cleared (or re-armed) due time.
    due: Option<Time>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum TaskState {
    Pending,
    Running { attempts: usize },
    Done,
}

#[derive(Debug, Clone, Copy)]
struct TaskRec {
    state: TaskState,
    /// Straggler multiplier (product of the scripted factors).
    straggle: f64,
    /// Position of the task's record in the engine's hot column, set
    /// when its first attempt starts; a lost attempt flips it pending.
    slot: u32,
    /// A speculative backup was already requested.
    spec_launched: bool,
}

/// Column storage of the fault arm, kept in [`SimArena`] between runs
/// so same-shape trials rebuild none of it.
#[derive(Debug, Default)]
pub(crate) struct FaultColumns {
    machines: Vec<MachineState>,
    /// Per-machine processing speed (1.0 nominal; slowdowns change it).
    speed: Vec<f64>,
    tasks: Vec<TaskRec>,
    /// Tasks with a requested-but-unplaced speculative backup.
    spec_queue: VecDeque<TaskId>,
    /// Completed work in completion order; the report splits it per
    /// machine.
    slots: Vec<(MachineId, Slot)>,
}

/// The resilience engine: one (instance, placement, realization, fault
/// script) execution context.
#[derive(Debug)]
pub struct ResilienceEngine<'a> {
    engine: Engine<'a>,
    script: &'a FaultScript,
    speculation: Option<Speculation>,
    recovery_costs: Option<Vec<f64>>,
}

impl<'a> ResilienceEngine<'a> {
    /// Creates an engine.
    ///
    /// # Errors
    /// [`Error::TaskCountMismatch`] when the pieces disagree on the task
    /// count; the script's validation errors for out-of-range faults.
    pub fn new(
        instance: &'a Instance,
        placement: &'a Placement,
        realization: &'a Realization,
        script: &'a FaultScript,
    ) -> Result<Self> {
        let engine = Engine::new(instance, placement, realization)?;
        script.validate(instance)?;
        EventQueue::check_capacity(instance.n(), script.len() + 4 * instance.m())?;
        Ok(ResilienceEngine {
            engine,
            script,
            speculation: None,
            recovery_costs: None,
        })
    }

    /// Enables speculative re-execution.
    pub fn with_speculation(mut self, speculation: Speculation) -> Self {
        self.speculation = Some(speculation);
        self
    }

    /// Sets per-machine recovery-cost weights, charged to
    /// [`ResilienceMetrics::recovery_cost`] each time the machine goes
    /// down. The weight convention matches
    /// [`rds_core::ReliabilityModel::with_recovery_costs`], so a model's
    /// weights can be passed straight through.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] on length mismatch or a non-finite
    /// or negative weight.
    pub fn with_recovery_costs(mut self, costs: Vec<f64>) -> Result<Self> {
        if costs.len() != self.engine.instance.m() {
            return Err(Error::InvalidParameter {
                what: "recovery costs must cover every machine",
            });
        }
        if costs.iter().any(|&c| !c.is_finite() || c < 0.0) {
            return Err(Error::InvalidParameter {
                what: "recovery cost must be finite and >= 0",
            });
        }
        self.recovery_costs = Some(costs);
        Ok(self)
    }

    /// Runs the execution to quiescence under `dispatcher`.
    ///
    /// Never errors on stranded tasks — they surface as a partial
    /// [`Outcome`].
    ///
    /// # Errors
    /// Only dispatcher-misbehaviour errors (out-of-range, ineligible, or
    /// already-started picks).
    pub fn run(&self, dispatcher: &mut dyn Dispatcher) -> Result<ResilienceReport> {
        self.run_in(&mut SimArena::new(), dispatcher)
    }

    /// Runs the execution to quiescence under `dispatcher`, reusing the
    /// arena across trials.
    ///
    /// Same semantics as [`Self::run`] — the report still owns its
    /// schedule and trace — but the event queue, the hot column, and
    /// the per-task / per-machine fault state are borrowed from `arena`
    /// and keep their storage for the next run, so a steady-state
    /// campaign (same instance shape trial after trial) rebuilds none of
    /// them.
    ///
    /// # Errors
    /// Same as [`Self::run`].
    pub fn run_in(
        &self,
        arena: &mut SimArena,
        dispatcher: &mut dyn Dispatcher,
    ) -> Result<ResilienceReport> {
        let mut arm = FaultArm::new(self, std::mem::take(&mut arena.faults));
        let report = self
            .engine
            .run_faults_in(arena, dispatcher, &mut arm)
            .and_then(|_| arm.report(std::mem::take(&mut arena.trace)));
        arena.faults = arm.cols;
        report
    }
}

/// The fault arm of the engine's event loop ([`Engine::run_faults_in`]):
/// crashes, outages with rejoin, slowdowns, stragglers, speculative
/// backups with first-finisher-wins cancellation, and parking.
///
/// The loop owns the clock and the dispatcher calls; the arm owns every
/// event kind it adds and the attempt state behind them. Its event ids
/// sort in the tie-break order documented at the top of this module —
/// with `F` scripted faults and `m` machines:
///
/// - `[0, F)`: scripted faults, by script index;
/// - `[F, F + 2m)`: recoveries, machine-major (rejoin before speed);
/// - `[F + 2m, F + 3m)`: idle/completion events, by machine;
/// - `[F + 3m, F + 4m)`: speculation checks, by machine.
///
/// An idle or check id has one live event at a time, and each new one
/// is queued through [`LoopIo::reschedule`], which drops the id's
/// superseded event from the calendar's wheel. Faults and recoveries
/// are pushed: two overlapping slowdowns of one machine each schedule
/// a speed restore, and both must fire.
pub(crate) struct FaultArm<'a> {
    instance: &'a Instance,
    placement: &'a Placement,
    realization: &'a Realization,
    script: &'a FaultScript,
    speculation: Option<Speculation>,
    /// Per-machine down-event weights (unit when the engine set none).
    recovery_costs: Option<&'a [f64]>,
    cols: FaultColumns,
    metrics: ResilienceMetrics,
    /// Tasks not yet done.
    remaining: usize,
}

impl<'a> FaultArm<'a> {
    fn new(engine: &'a ResilienceEngine<'_>, mut cols: FaultColumns) -> Self {
        let n = engine.engine.instance.n();
        let m = engine.engine.instance.m();
        cols.machines.clear();
        cols.machines.resize(
            m,
            MachineState {
                alive: true,
                crashed: false,
                parked: false,
                attempt: None,
                due: None,
            },
        );
        cols.speed.clear();
        cols.speed.resize(m, 1.0);
        cols.tasks.clear();
        cols.tasks.resize(
            n,
            TaskRec {
                state: TaskState::Pending,
                straggle: 1.0,
                slot: u32::MAX,
                spec_launched: false,
            },
        );
        for ev in engine.script.events() {
            if let FaultEvent::Straggler { task, factor } = *ev {
                cols.tasks[task.index()].straggle *= factor;
            }
        }
        cols.spec_queue.clear();
        cols.slots.clear();
        FaultArm {
            instance: engine.engine.instance,
            placement: engine.engine.placement,
            realization: engine.engine.realization,
            script: engine.script,
            speculation: engine.speculation,
            recovery_costs: engine.recovery_costs.as_deref(),
            cols,
            metrics: ResilienceMetrics {
                n,
                completed: 0,
                restarts: 0,
                rejoins: 0,
                degraded_phases: 0,
                speculative_started: 0,
                speculative_wins: 0,
                cancelled: 0,
                wasted_work: Time::ZERO,
                recovery_cost: 0.0,
                makespan: Time::ZERO,
                fault_free_makespan: None,
            },
            remaining: n,
        }
    }

    fn m(&self) -> usize {
        self.cols.machines.len()
    }

    fn recovery_id(&self, mi: usize, kind: usize) -> usize {
        self.script.len() + 2 * mi + kind
    }

    fn idle_id(&self, mi: usize) -> usize {
        self.script.len() + 2 * self.m() + mi
    }

    fn check_id(&self, mi: usize) -> usize {
        self.script.len() + 3 * self.m() + mi
    }

    /// Resets `queue` for this arm's ids and seeds every machine idle at
    /// time zero plus every timed scripted fault.
    pub(crate) fn seed(&mut self, queue: &mut EventQueue, width: Option<f64>) {
        let m = self.m();
        queue.reset_empty(self.script.len() + 4 * m, width);
        for mi in 0..m {
            self.cols.machines[mi].due = Some(Time::ZERO);
            queue.push(IdleEvent::bare(Time::ZERO, self.idle_id(mi)));
        }
        for (idx, ev) in self.script.events().iter().enumerate() {
            match *ev {
                FaultEvent::Crash { at, .. }
                | FaultEvent::Outage { at, .. }
                | FaultEvent::Slowdown { at, .. } => queue.push(IdleEvent::bare(at, idx)),
                FaultEvent::Straggler { .. } => {}
            }
        }
    }

    /// Makespan so far (the completion time of the last finished task).
    pub(crate) fn makespan(&self) -> Time {
        self.metrics.makespan
    }

    /// Handles event `id` at `time`. Returns the machine the loop should
    /// offer work to: one whose live idle/completion event this was,
    /// while unfinished tasks remain.
    pub(crate) fn on_event<D: Dispatcher + ?Sized>(
        &mut self,
        time: Time,
        id: usize,
        io: &mut LoopIo<'_, D>,
    ) -> Option<MachineId> {
        let m = self.m();
        let Some(id) = id.checked_sub(self.script.len()) else {
            self.on_fault(time, id, io);
            return None;
        };
        if id < 2 * m {
            self.on_recovery(time, id / 2, id % 2, io);
            return None;
        }
        if id >= 3 * m {
            self.on_check(time, id - 3 * m, io);
            return None;
        }
        let mi = id - 2 * m;
        let st = &mut self.cols.machines[mi];
        if st.due != Some(time) || !st.alive {
            return None; // superseded (attempt/speed changed) or dead
        }
        st.due = None;
        if let Some(att) = st.attempt {
            // The live event of a running attempt is its (re-)projected
            // completion instant.
            self.complete(time, mi, att, io);
        }
        (self.remaining > 0).then(|| MachineId::new(mi))
    }

    /// The dispatcher picked `task` (hot record `slot`) for `machine`.
    pub(crate) fn start<D: Dispatcher + ?Sized>(
        &mut self,
        time: Time,
        machine: MachineId,
        task: TaskId,
        slot: u32,
        io: &mut LoopIo<'_, D>,
    ) {
        self.cols.tasks[task.index()].slot = slot;
        self.start_attempt(time, machine.index(), task, false, io);
    }

    /// The dispatcher had nothing for `machine`: host a queued
    /// speculative backup if one fits, else park.
    pub(crate) fn no_pick<D: Dispatcher + ?Sized>(
        &mut self,
        time: Time,
        machine: MachineId,
        io: &mut LoopIo<'_, D>,
    ) {
        let mi = machine.index();
        if let Some(task) = self.pop_backup_for(machine) {
            self.start_attempt(time, mi, task, true, io);
        } else if !self.cols.machines[mi].parked {
            self.cols.machines[mi].parked = true;
            io.trace.push(TraceEvent::Starved { time, machine });
        }
    }

    /// Schedules machine `mi`'s live idle/completion event at `time`,
    /// superseding any earlier one still queued.
    fn wake<D: ?Sized>(&mut self, time: Time, mi: usize, io: &mut LoopIo<'_, D>) {
        self.cols.machines[mi].due = Some(time);
        io.reschedule(time, self.idle_id(mi));
    }

    /// Applies scripted fault `index` at `time`.
    fn on_fault<D: Dispatcher + ?Sized>(
        &mut self,
        time: Time,
        index: usize,
        io: &mut LoopIo<'_, D>,
    ) {
        match self.script.events()[index] {
            FaultEvent::Crash { machine, .. } => {
                let mi = machine.index();
                self.cols.machines[mi].crashed = true;
                if self.cols.machines[mi].alive {
                    self.take_down(time, mi, io);
                }
            }
            FaultEvent::Outage {
                machine, down_for, ..
            } => {
                let mi = machine.index();
                if self.cols.machines[mi].alive {
                    self.take_down(time, mi, io);
                    io.push(time + down_for, self.recovery_id(mi, RECOVER_REJOIN));
                }
            }
            FaultEvent::Slowdown {
                machine,
                lasting,
                speed,
                ..
            } => {
                let mi = machine.index();
                if self.cols.machines[mi].alive {
                    self.metrics.degraded_phases += 1;
                    self.set_speed(time, mi, speed, io);
                    io.trace.push(TraceEvent::Degraded {
                        time,
                        machine,
                        speed,
                    });
                    io.push(time + lasting, self.recovery_id(mi, RECOVER_SPEED));
                }
            }
            FaultEvent::Straggler { .. } => unreachable!("stragglers are not timed events"),
        }
    }

    /// Takes machine `mi` down, killing its in-flight attempt. A failure
    /// arriving at exactly an attempt's completion instant kills the
    /// attempt (fault events order before completion events).
    fn take_down<D: Dispatcher + ?Sized>(&mut self, time: Time, mi: usize, io: &mut LoopIo<'_, D>) {
        let st = &mut self.cols.machines[mi];
        // An idle machine due now was offered work at this instant
        // (faults sort first, so no rejoin or completion has woken it
        // yet; at time zero nothing is parked). It will never refuse,
        // so the lowest parked machine is offered work in its place.
        let offered = st.attempt.is_none() && st.due == Some(time);
        st.alive = false;
        st.parked = false;
        st.due = None;
        let lost = st.attempt.take();
        if offered {
            self.wake_lowest_parked(time, io);
        }
        self.metrics.recovery_cost += self.recovery_costs.map_or(1.0, |c| c[mi]);
        io.trace.push(TraceEvent::Failure {
            time,
            machine: MachineId::new(mi),
        });
        let Some(mut att) = lost else { return };
        att.advance(time, self.cols.speed[mi]);
        self.metrics.wasted_work += att.done.min(att.total);
        let rec = &mut self.cols.tasks[att.task.index()];
        match rec.state {
            TaskState::Running { attempts } if attempts > 1 => {
                rec.state = TaskState::Running {
                    attempts: attempts - 1,
                };
            }
            TaskState::Running { .. } => {
                rec.state = TaskState::Pending;
                io.pending[rec.slot as usize].mark_pending();
                self.metrics.restarts += 1;
                io.dispatcher.on_requeue(att.task, self.placement);
                self.offer(time, att.task, io);
            }
            _ => unreachable!("attempt for a non-running task"),
        }
    }

    /// Handles a rejoin or a speed restoration for machine `mi`.
    fn on_recovery<D: ?Sized>(
        &mut self,
        time: Time,
        mi: usize,
        kind: usize,
        io: &mut LoopIo<'_, D>,
    ) {
        let machine = MachineId::new(mi);
        if kind == RECOVER_REJOIN {
            let st = &mut self.cols.machines[mi];
            if st.crashed {
                return; // a permanent crash arrived during the outage
            }
            st.alive = true;
            st.parked = false;
            self.cols.speed[mi] = 1.0;
            self.metrics.rejoins += 1;
            io.trace.push(TraceEvent::Recovery { time, machine });
            self.wake(time, mi, io);
        } else if self.cols.machines[mi].alive && self.cols.speed[mi] != 1.0 {
            // End of a degraded phase: restore nominal speed. (An outage
            // in between also restores speed; this is then a no-op.)
            self.set_speed(time, mi, 1.0, io);
            io.trace.push(TraceEvent::Degraded {
                time,
                machine,
                speed: 1.0,
            });
        }
    }

    /// Changes machine `mi`'s speed, re-projecting its in-flight
    /// completion from the remaining work.
    fn set_speed<D: ?Sized>(&mut self, time: Time, mi: usize, speed: f64, io: &mut LoopIo<'_, D>) {
        let old = std::mem::replace(&mut self.cols.speed[mi], speed);
        let check_id = self.check_id(mi);
        if let Some(att) = self.cols.machines[mi].attempt.as_mut() {
            // The end projected when the attempt started or last changed
            // speed, bit for bit: nothing has advanced it since.
            let was = att.projected_end(old);
            att.advance(time, old);
            let end = att.projected_end(speed);
            // A check left unqueued because the attempt was due to end
            // by then is armed once the attempt runs past it.
            if let Some(check) = att.check.filter(|&c| was <= c && c < end) {
                io.reschedule(check, check_id);
            }
            self.wake(end, mi, io);
        }
    }

    /// Completes `att` on machine `mi` at `time`.
    fn complete<D: Dispatcher + ?Sized>(
        &mut self,
        time: Time,
        mi: usize,
        att: Attempt,
        io: &mut LoopIo<'_, D>,
    ) {
        let machine = MachineId::new(mi);
        self.cols.machines[mi].attempt = None;
        self.cols.slots.push((
            machine,
            Slot {
                task: att.task,
                start: att.start,
                end: time,
            },
        ));
        let actual = self.realization.actual(att.task);
        io.trace.push(TraceEvent::Complete {
            time,
            task: att.task,
            machine,
            actual,
        });
        io.dispatcher.on_complete(att.task, machine, actual, time);
        self.metrics.completed += 1;
        self.metrics.makespan = self.metrics.makespan.max(time);
        self.remaining -= 1;
        if att.speculative {
            self.metrics.speculative_wins += 1;
        }
        let rec = &mut self.cols.tasks[att.task.index()];
        let siblings = matches!(rec.state, TaskState::Running { attempts } if attempts > 1);
        rec.state = TaskState::Done;
        if !siblings {
            return;
        }
        // First finisher wins: cancel sibling attempts of the same task,
        // which run only where its data is.
        let placement = self.placement;
        for w in placement.set(att.task).iter(self.m()) {
            let w = w.index();
            let st = &mut self.cols.machines[w];
            let Some(mut lost) = st.attempt.filter(|a| a.task == att.task) else {
                continue;
            };
            st.attempt = None;
            lost.advance(time, self.cols.speed[w]);
            self.metrics.cancelled += 1;
            self.metrics.wasted_work += lost.done.min(lost.total);
            io.trace.push(TraceEvent::Cancelled {
                time,
                task: lost.task,
                machine: MachineId::new(w),
            });
            // The machine is free now; let it dispatch at this instant.
            self.wake(time, w, io);
        }
    }

    /// Pops the first queued backup this machine can host, dropping
    /// entries that became stale (task completed or requeued) meanwhile.
    fn pop_backup_for(&mut self, machine: MachineId) -> Option<TaskId> {
        let tasks = &self.cols.tasks;
        self.cols
            .spec_queue
            .retain(|&t| matches!(tasks[t.index()].state, TaskState::Running { .. }));
        let pos = self
            .cols
            .spec_queue
            .iter()
            .position(|&t| self.placement.allows(t, machine))?;
        self.cols.spec_queue.remove(pos)
    }

    /// Starts an attempt of `task` on machine `mi`.
    fn start_attempt<D: ?Sized>(
        &mut self,
        time: Time,
        mi: usize,
        task: TaskId,
        speculative: bool,
        io: &mut LoopIo<'_, D>,
    ) {
        let machine = MachineId::new(mi);
        let rec = &mut self.cols.tasks[task.index()];
        rec.state = match (rec.state, speculative) {
            (TaskState::Pending, false) => TaskState::Running { attempts: 1 },
            (TaskState::Running { attempts }, true) => TaskState::Running {
                attempts: attempts + 1,
            },
            _ => unreachable!("invalid start"),
        };
        let total = self.realization.actual(task) * rec.straggle;
        let mut att = Attempt {
            task,
            start: time,
            total,
            done: Time::ZERO,
            last: time,
            speculative,
            check: None,
        };
        let end = att.projected_end(self.cols.speed[mi]);
        if speculative {
            self.metrics.speculative_started += 1;
            io.trace.push(TraceEvent::SpeculativeStart {
                time,
                task,
                machine,
            });
        } else {
            io.trace.push(TraceEvent::Start {
                time,
                task,
                machine,
            });
            if let Some(spec) = self.speculation {
                let check = time + spec.threshold(self.instance.estimate(task));
                att.check = Some(check);
                // At equal times the completion sorts first, so the
                // check can only find the attempt running if it is due
                // to end later (or is slowed down: `set_speed`).
                if check < end {
                    io.reschedule(check, self.check_id(mi));
                }
            }
        }
        let st = &mut self.cols.machines[mi];
        st.parked = false;
        st.attempt = Some(att);
        self.wake(end, mi, io);
    }

    /// Handles a speculation check on machine `mi`: if the watched
    /// attempt is still running, request one backup on another
    /// data-holding machine.
    fn on_check<D: ?Sized>(&mut self, time: Time, mi: usize, io: &mut LoopIo<'_, D>) {
        let task = match self.cols.machines[mi].attempt.as_mut() {
            Some(a) if a.check == Some(time) => {
                a.check = None;
                a.task
            }
            _ => return, // attempt finished or was killed — stale check
        };
        let rec = &mut self.cols.tasks[task.index()];
        if rec.spec_launched {
            return;
        }
        rec.spec_launched = true;
        // Prefer an immediately-idle host; otherwise queue the request
        // and offer it to the parked machines that could claim it.
        let host = self.placement.set(task).iter(self.m()).find(|&w| {
            let st = &self.cols.machines[w.index()];
            w.index() != mi && st.alive && st.attempt.is_none()
        });
        match host {
            Some(w) => self.start_attempt(time, w.index(), task, true, io),
            None => {
                self.cols.spec_queue.push_back(task);
                self.offer(time, task, io);
            }
        }
    }

    /// Offers work again at `time` once `task` is pending again or has a
    /// backup request queued: wakes the parked living machines of its
    /// replica set `M_j`, the only ones that can take it, and the
    /// lowest-numbered other parked living machine.
    ///
    /// That one extra machine cannot take the task, but its refusal
    /// runs [`Self::pop_backup_for`], which drops backup requests whose
    /// attempt was lost before their task is dispatched again. It
    /// refuses where the first machine outside `M_j` refuses when every
    /// parked machine is woken; the others would only refuse again
    /// and trace it as `Starved`.
    fn offer<D: ?Sized>(&mut self, time: Time, task: TaskId, io: &mut LoopIo<'_, D>) {
        for w in self.placement.set(task).iter(self.m()) {
            let st = &mut self.cols.machines[w.index()];
            if st.alive && st.parked {
                st.parked = false;
                self.wake(time, w.index(), io);
            }
        }
        self.wake_lowest_parked(time, io);
    }

    /// Wakes the lowest-numbered parked living machine at `time`, if any.
    fn wake_lowest_parked<D: ?Sized>(&mut self, time: Time, io: &mut LoopIo<'_, D>) {
        let machines = &mut self.cols.machines;
        if let Some(w) = (0..machines.len()).find(|&w| machines[w].alive && machines[w].parked) {
            machines[w].parked = false;
            self.wake(time, w, io);
        }
    }

    /// Assembles the report once the loop has drained every event.
    fn report(&mut self, trace: Trace) -> Result<ResilienceReport> {
        let unfinished: Vec<TaskId> = self
            .cols
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, r)| r.state != TaskState::Done)
            .map(|(j, _)| TaskId::new(j))
            .collect();
        let outcome = if unfinished.is_empty() {
            Outcome::Completed
        } else {
            Outcome::Partial { unfinished }
        };
        let mut counts = vec![0; self.m()];
        for (machine, _) in &self.cols.slots {
            counts[machine.index()] += 1;
        }
        let mut per_machine: Vec<Vec<Slot>> = counts.into_iter().map(Vec::with_capacity).collect();
        for &(machine, slot) in &self.cols.slots {
            per_machine[machine.index()].push(slot);
        }
        let schedule = Schedule::from_slots(per_machine);
        if crate::validate::enabled() {
            // Even faulty runs must satisfy the structural invariants;
            // completeness only when the run claims it, duration honesty
            // only when the script cannot stretch time. Crashed attempts
            // are not slots, so overlap/placement checks always hold.
            let checks = crate::validate::Checks {
                completeness: matches!(outcome, Outcome::Completed),
                durations: !self.script.stretches_time(),
                ..crate::validate::Checks::structural()
            };
            crate::validate::check_schedule(
                self.instance,
                self.placement,
                self.realization,
                &schedule,
                &checks,
            )?;
        }
        Ok(ResilienceReport {
            outcome,
            schedule,
            trace,
            metrics: self.metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatcher::{OrderedDispatcher, PinnedDispatcher};
    use rds_core::{MachineSet, Uncertainty};

    fn run_fifo(
        inst: &Instance,
        p: &Placement,
        r: &Realization,
        script: &FaultScript,
        spec: Option<Speculation>,
    ) -> ResilienceReport {
        let mut engine = ResilienceEngine::new(inst, p, r, script).unwrap();
        if let Some(s) = spec {
            engine = engine.with_speculation(s);
        }
        engine.run(&mut OrderedDispatcher::fifo(inst)).unwrap()
    }

    #[test]
    fn one_sided_mismatch_names_the_culprit_component() {
        let inst = Instance::from_estimates(&[1.0, 2.0], 2).unwrap();
        let shorter = Instance::from_estimates(&[1.0], 2).unwrap();
        let script = FaultScript::new(vec![]);

        // Placement disagrees, realization matches.
        let p = Placement::everywhere(&shorter);
        let r = Realization::exact(&inst);
        assert_eq!(
            ResilienceEngine::new(&inst, &p, &r, &script).unwrap_err(),
            Error::TaskCountMismatch {
                what: "placement",
                expected: 2,
                got: 1,
            }
        );

        // Realization disagrees, placement matches.
        let p = Placement::everywhere(&inst);
        let r = Realization::exact(&shorter);
        assert_eq!(
            ResilienceEngine::new(&inst, &p, &r, &script).unwrap_err(),
            Error::TaskCountMismatch {
                what: "realization",
                expected: 2,
                got: 1,
            }
        );
    }

    #[test]
    fn failure_at_exact_completion_instant_kills_the_attempt() {
        // The tie-break: the task would complete at t=2.0, and machine 0
        // fails at exactly t=2.0. The failure event orders before the
        // completion event, so the attempt is lost and the task restarts
        // on machine 1 at t=2.0, finishing at t=4.0.
        let inst = Instance::from_estimates(&[2.0], 2).unwrap();
        let p = Placement::everywhere(&inst);
        let r = Realization::exact(&inst);
        let script = FaultScript::new(vec![FaultEvent::Crash {
            machine: MachineId::new(0),
            at: Time::of(2.0),
        }]);
        let rep = run_fifo(&inst, &p, &r, &script, None);
        assert_eq!(rep.outcome, Outcome::Completed);
        assert_eq!(rep.metrics.restarts, 1);
        assert_eq!(rep.metrics.makespan, Time::of(4.0));
        assert!(rep.schedule.slots(MachineId::new(0)).is_empty());
        let slots1 = rep.schedule.slots(MachineId::new(1));
        assert_eq!(slots1.len(), 1);
        assert_eq!(slots1[0].start, Time::of(2.0));
    }

    #[test]
    fn failure_after_completion_is_harmless() {
        let inst = Instance::from_estimates(&[2.0], 2).unwrap();
        let p = Placement::everywhere(&inst);
        let r = Realization::exact(&inst);
        let script = FaultScript::new(vec![FaultEvent::Crash {
            machine: MachineId::new(0),
            at: Time::of(3.0),
        }]);
        let rep = run_fifo(&inst, &p, &r, &script, None);
        assert_eq!(rep.outcome, Outcome::Completed);
        assert_eq!(rep.metrics.restarts, 0);
        assert_eq!(rep.metrics.makespan, Time::of(2.0));
    }

    #[test]
    fn cascading_failures_with_enough_replicas() {
        // The big task restarts at t=1 when m0 dies; if the restart
        // landed on m1 it restarts again at t=2 on m2. Everything
        // completes on the last survivor.
        let inst = Instance::from_estimates(&[6.0, 1.0, 1.0], 3).unwrap();
        let p = Placement::everywhere(&inst);
        let r = Realization::exact(&inst);
        let script = FaultScript::new(vec![
            FaultEvent::Crash {
                machine: MachineId::new(0),
                at: Time::of(1.0),
            },
            FaultEvent::Crash {
                machine: MachineId::new(1),
                at: Time::of(2.0),
            },
        ]);
        let rep = ResilienceEngine::new(&inst, &p, &r, &script)
            .unwrap()
            .run(&mut OrderedDispatcher::lpt_by_estimate(&inst))
            .unwrap();
        assert_eq!(rep.outcome, Outcome::Completed);
        assert!(rep.metrics.restarts >= 1);
        assert!(rep.metrics.makespan >= Time::of(7.0));
        crate::check_schedule(&inst, &p, &r, &rep.schedule, &crate::Checks::engine()).unwrap();
    }

    #[test]
    fn outage_machine_rejoins_and_takes_work() {
        let inst = Instance::from_estimates(&[4.0, 1.0, 1.0, 1.0], 2).unwrap();
        let p = Placement::everywhere(&inst);
        let r = Realization::exact(&inst);
        let script = FaultScript::new(vec![FaultEvent::Outage {
            machine: MachineId::new(0),
            at: Time::of(0.5),
            down_for: Time::of(1.5),
        }]);
        let rep = run_fifo(&inst, &p, &r, &script, None);
        // t0 lost on m0 at 0.5 (0.5 work wasted), restarted on m1 at 1.0
        // (after t1), done at 5.0; m0 rejoins at 2.0 and clears t2, t3.
        assert!(rep.outcome.is_completed());
        assert_eq!(rep.metrics.restarts, 1);
        assert_eq!(rep.metrics.rejoins, 1);
        assert_eq!(rep.metrics.makespan, Time::of(5.0));
        assert_eq!(rep.metrics.wasted_work, Time::of(0.5));
        assert!(!rep.schedule.slots(MachineId::new(0)).is_empty());
    }

    #[test]
    fn slowdown_stretches_the_affected_attempt() {
        let inst = Instance::from_estimates(&[2.0], 1).unwrap();
        let p = Placement::everywhere(&inst);
        let r = Realization::exact(&inst);
        let script = FaultScript::new(vec![FaultEvent::Slowdown {
            machine: MachineId::new(0),
            at: Time::of(1.0),
            lasting: Time::of(10.0),
            speed: 0.5,
        }]);
        let rep = run_fifo(&inst, &p, &r, &script, None);
        // 1 unit at full speed, the remaining 1 unit at half speed: 3.0.
        assert!(rep.outcome.is_completed());
        assert_eq!(rep.metrics.degraded_phases, 1);
        assert_eq!(rep.metrics.makespan, Time::of(3.0));
        assert!(rep
            .trace
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::Degraded { speed, .. } if *speed == 0.5)));
    }

    #[test]
    fn speculation_rescues_a_crawling_machine() {
        let inst = Instance::from_estimates(&[2.0, 1.0], 2).unwrap();
        let p = Placement::everywhere(&inst);
        let r = Realization::exact(&inst);
        let script = FaultScript::new(vec![FaultEvent::Slowdown {
            machine: MachineId::new(0),
            at: Time::ZERO,
            lasting: Time::of(100.0),
            speed: 0.1,
        }]);
        let spec = Speculation::new(1.0, Uncertainty::CERTAIN);
        let rep = run_fifo(&inst, &p, &r, &script, Some(spec));
        // Primary on m0 would finish at 20; the backup launched on m1 at
        // the β·α·p̃ = 2.0 mark finishes at 4.0 and wins.
        assert!(rep.outcome.is_completed());
        assert_eq!(rep.metrics.speculative_started, 1);
        assert_eq!(rep.metrics.speculative_wins, 1);
        assert_eq!(rep.metrics.cancelled, 1);
        assert_eq!(rep.metrics.makespan, Time::of(4.0));
        // The cancelled primary crawled 4.0 × 0.1 = 0.4 units for nothing.
        assert!((rep.metrics.wasted_work.get() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn slowdown_mid_attempt_arms_the_check_it_was_due_to_beat() {
        let inst = Instance::from_estimates(&[2.0, 1.0], 2).unwrap();
        let p = Placement::everywhere(&inst);
        let r = Realization::exact(&inst);
        let script = FaultScript::new(vec![FaultEvent::Slowdown {
            machine: MachineId::new(0),
            at: Time::of(1.0),
            lasting: Time::of(100.0),
            speed: 0.1,
        }]);
        let spec = Speculation::new(1.0, Uncertainty::CERTAIN);
        let rep = run_fifo(&inst, &p, &r, &script, Some(spec));
        // The primary on m0 was due to end at 2.0, exactly at its check,
        // so the check was not queued; the slowdown at 1.0 pushes its end
        // to 11.0, which arms the check. The backup launched on m1 at
        // 2.0 finishes at 4.0 and wins.
        assert!(rep.outcome.is_completed());
        assert_eq!(rep.metrics.speculative_started, 1);
        assert_eq!(rep.metrics.speculative_wins, 1);
        assert_eq!(rep.metrics.makespan, Time::of(4.0));
    }

    #[test]
    fn straggler_runs_long_but_primary_still_wins() {
        let inst = Instance::from_estimates(&[2.0, 1.0], 2).unwrap();
        let p = Placement::everywhere(&inst);
        let r = Realization::exact(&inst);
        let script = FaultScript::new(vec![FaultEvent::Straggler {
            task: TaskId::new(0),
            factor: 3.0,
        }]);
        let spec = Speculation::new(1.0, Uncertainty::CERTAIN);
        let rep = run_fifo(&inst, &p, &r, &script, Some(spec));
        // The straggling task takes 6.0 wherever it runs; the backup
        // (launched at 2.0) loses to the primary (6.0 < 8.0).
        assert!(rep.outcome.is_completed());
        assert_eq!(rep.metrics.speculative_started, 1);
        assert_eq!(rep.metrics.speculative_wins, 0);
        assert_eq!(rep.metrics.cancelled, 1);
        assert_eq!(rep.metrics.makespan, Time::of(6.0));
        assert_eq!(rep.metrics.wasted_work, Time::of(4.0));
    }

    #[test]
    fn zero_faults_with_speculation_matches_plain_engine_exactly() {
        let inst = Instance::from_estimates(&[3.0, 3.0, 2.0, 1.0], 2).unwrap();
        let p = Placement::everywhere(&inst);
        let unc = Uncertainty::of(2.0);
        let r = Realization::from_factors(&inst, unc, &[2.0, 0.5, 1.0, 1.0]).unwrap();
        let plain = crate::engine::Engine::new(&inst, &p, &r)
            .unwrap()
            .run(&mut OrderedDispatcher::fifo(&inst))
            .unwrap();
        let script = FaultScript::empty();
        let spec = Speculation::new(1.0, unc);
        let rep = run_fifo(&inst, &p, &r, &script, Some(spec));
        // Within the envelope no speculation check can fire before its
        // completion, so the runs are bit-identical.
        assert!(rep.outcome.is_completed());
        assert_eq!(rep.metrics.makespan, plain.makespan);
        assert_eq!(rep.metrics.speculative_started, 0);
        assert_eq!(rep.metrics.wasted_work, Time::ZERO);
    }

    #[test]
    fn stranded_task_yields_partial_outcome_not_error() {
        let inst = Instance::from_estimates(&[4.0, 1.0], 2).unwrap();
        let p = Placement::pinned(&inst, &[MachineId::new(0), MachineId::new(1)]).unwrap();
        let r = Realization::exact(&inst);
        let script = FaultScript::new(vec![FaultEvent::Crash {
            machine: MachineId::new(0),
            at: Time::of(2.0),
        }]);
        let mut d = PinnedDispatcher::new(&[MachineId::new(0), MachineId::new(1)], 2);
        let mut rep = ResilienceEngine::new(&inst, &p, &r, &script)
            .unwrap()
            .run(&mut d)
            .unwrap();
        assert_eq!(
            rep.outcome,
            Outcome::Partial {
                unfinished: vec![TaskId::new(0)]
            }
        );
        assert_eq!(rep.metrics.completed, 1);
        assert_eq!(rep.metrics.restarts, 1);
        assert!((rep.metrics.survival_rate() - 0.5).abs() < 1e-12);
        assert_eq!(rep.metrics.makespan, Time::of(1.0));
        rep.set_baseline(Time::of(4.0));
        assert_eq!(rep.metrics.degradation(), Some(0.25));
    }

    /// The trace events at exactly `time`.
    fn events_at(rep: &ResilienceReport, time: f64) -> Vec<TraceEvent> {
        rep.trace
            .iter()
            .filter(|e| e.time() == Time::of(time))
            .collect()
    }

    #[test]
    fn a_requeue_offers_work_to_the_parked_holders_and_one_other_machine() {
        // t0 may run on machines 0..3 and starts on 0; t1 keeps 1 busy;
        // 2 (a holder) and 3..6 (not) park at time zero. The crash at 1
        // requeues t0: the parked holder 2 takes it, and of the parked
        // machines outside the group only the lowest, 3, is offered work
        // and refuses; 4 and 5 stay parked.
        let inst = Instance::from_estimates(&[4.0, 4.0], 6).unwrap();
        let sets = vec![
            MachineSet::Span { start: 0, end: 3 },
            MachineSet::One(MachineId::new(1)),
        ];
        let p = Placement::new(&inst, sets).unwrap();
        let r = Realization::exact(&inst);
        let script = FaultScript::new(vec![FaultEvent::Crash {
            machine: MachineId::new(0),
            at: Time::ONE,
        }]);
        let rep = run_fifo(&inst, &p, &r, &script, None);
        assert!(rep.outcome.is_completed());
        let parked_at_zero: Vec<TraceEvent> = (2..6)
            .map(|w| TraceEvent::Starved {
                time: Time::ZERO,
                machine: MachineId::new(w),
            })
            .collect();
        assert_eq!(events_at(&rep, 0.0)[2..], parked_at_zero[..]);
        assert_eq!(
            events_at(&rep, 1.0),
            vec![
                TraceEvent::Failure {
                    time: Time::ONE,
                    machine: MachineId::new(0),
                },
                TraceEvent::Start {
                    time: Time::ONE,
                    task: TaskId::new(0),
                    machine: MachineId::new(2),
                },
                TraceEvent::Starved {
                    time: Time::ONE,
                    machine: MachineId::new(3),
                },
            ]
        );
        assert_eq!(rep.metrics.makespan, Time::of(5.0));
    }

    fn starved(time: f64, machine: usize) -> TraceEvent {
        TraceEvent::Starved {
            time: Time::of(time),
            machine: MachineId::new(machine),
        }
    }

    /// t0 (machines 0..3) straggles on machine 0; at its check (2.0)
    /// holders 1 and 2 are busy until 5.0, so the backup request is
    /// queued, and machine 0 crashes at 3.0, so the request lapses.
    /// Machines 3 and 4 hold nothing and park at time zero; `faults`
    /// adds to the script.
    fn lapsed_request_run(faults: &[FaultEvent]) -> ResilienceReport {
        let inst = Instance::from_estimates(&[2.0, 5.0, 5.0], 5).unwrap();
        let sets = vec![
            MachineSet::Span { start: 0, end: 3 },
            MachineSet::One(MachineId::new(1)),
            MachineSet::One(MachineId::new(2)),
        ];
        let p = Placement::new(&inst, sets).unwrap();
        let r = Realization::exact(&inst);
        let mut events = vec![
            FaultEvent::Straggler {
                task: TaskId::new(0),
                factor: 4.0,
            },
            FaultEvent::Crash {
                machine: MachineId::new(0),
                at: Time::of(3.0),
            },
        ];
        events.extend_from_slice(faults);
        let spec = Speculation::new(1.0, Uncertainty::CERTAIN);
        let rep = run_fifo(&inst, &p, &r, &FaultScript::new(events), Some(spec));
        assert!(rep.outcome.is_completed());
        // At 5.0 machine 1 runs t0 again, and machine 2 finds no backup
        // to host: the lapsed request did not come back to life.
        assert!(events_at(&rep, 5.0).contains(&TraceEvent::Start {
            time: Time::of(5.0),
            task: TaskId::new(0),
            machine: MachineId::new(1),
        }));
        assert!(events_at(&rep, 5.0).contains(&starved(5.0, 2)));
        assert_eq!(rep.metrics.speculative_started, 0);
        assert_eq!(rep.metrics.makespan, Time::of(13.0));
        rep
    }

    #[test]
    fn a_lapsed_backup_request_is_dropped_before_its_task_runs_again() {
        // The one machine outside the group offered work, 3, refuses
        // both the queued request at 2.0 and the requeue at 3.0, which
        // drops the lapsed request.
        let rep = lapsed_request_run(&[]);
        assert_eq!(events_at(&rep, 2.0), vec![starved(2.0, 3)]);
        assert_eq!(events_at(&rep, 3.0)[1..], [starved(3.0, 3)]);
    }

    #[test]
    fn an_offered_machine_that_fails_at_once_hands_its_offer_on() {
        // Machine 3, offered the requeue at 3.0, crashes at that instant
        // before it can refuse, so machine 4 is offered work instead and
        // its refusal drops the lapsed request.
        let rep = lapsed_request_run(&[FaultEvent::Crash {
            machine: MachineId::new(3),
            at: Time::of(3.0),
        }]);
        assert_eq!(events_at(&rep, 3.0)[2..], [starved(3.0, 4)]);
    }

    #[test]
    fn crash_during_outage_suppresses_the_rejoin() {
        let inst = Instance::from_estimates(&[1.0, 1.0, 1.0, 1.0], 2).unwrap();
        let p = Placement::everywhere(&inst);
        let r = Realization::exact(&inst);
        let script = FaultScript::new(vec![
            FaultEvent::Outage {
                machine: MachineId::new(0),
                at: Time::ZERO,
                down_for: Time::of(2.0),
            },
            FaultEvent::Crash {
                machine: MachineId::new(0),
                at: Time::of(1.0),
            },
        ]);
        let rep = run_fifo(&inst, &p, &r, &script, None);
        assert!(rep.outcome.is_completed());
        assert_eq!(rep.metrics.rejoins, 0);
        assert!(rep.schedule.slots(MachineId::new(0)).is_empty());
        assert_eq!(rep.metrics.makespan, Time::of(4.0));
    }

    #[test]
    fn recovery_cost_charges_weighted_down_events() {
        let inst = Instance::from_estimates(&[1.0, 1.0, 1.0, 1.0], 2).unwrap();
        let p = Placement::everywhere(&inst);
        let r = Realization::exact(&inst);
        let script = FaultScript::new(vec![
            FaultEvent::Outage {
                machine: MachineId::new(0),
                at: Time::of(0.5),
                down_for: Time::of(1.0),
            },
            FaultEvent::Crash {
                machine: MachineId::new(1),
                at: Time::of(1.5),
            },
        ]);
        // Default unit weights: two down events.
        let rep = run_fifo(&inst, &p, &r, &script, None);
        assert_eq!(rep.metrics.recovery_cost, 2.0);
        // Weighted: machine 1's loss is 5x as expensive to re-stage.
        let rep = ResilienceEngine::new(&inst, &p, &r, &script)
            .unwrap()
            .with_recovery_costs(vec![0.5, 5.0])
            .unwrap()
            .run(&mut OrderedDispatcher::fifo(&inst))
            .unwrap();
        assert_eq!(rep.metrics.recovery_cost, 5.5);
        // Fault-free runs charge nothing.
        let rep = run_fifo(&inst, &p, &r, &FaultScript::empty(), None);
        assert_eq!(rep.metrics.recovery_cost, 0.0);
    }

    #[test]
    fn recovery_cost_weights_are_validated() {
        let inst = Instance::from_estimates(&[1.0], 2).unwrap();
        let p = Placement::everywhere(&inst);
        let r = Realization::exact(&inst);
        let script = FaultScript::empty();
        let e = ResilienceEngine::new(&inst, &p, &r, &script).unwrap();
        assert!(e.with_recovery_costs(vec![1.0]).is_err());
        let e = ResilienceEngine::new(&inst, &p, &r, &script).unwrap();
        assert!(e.with_recovery_costs(vec![1.0, -2.0]).is_err());
    }

    #[test]
    fn script_validation_rejects_bad_parameters() {
        let inst = Instance::from_estimates(&[1.0], 1).unwrap();
        let p = Placement::everywhere(&inst);
        let r = Realization::exact(&inst);
        let bad_machine = FaultScript::new(vec![FaultEvent::Crash {
            machine: MachineId::new(9),
            at: Time::ZERO,
        }]);
        assert!(ResilienceEngine::new(&inst, &p, &r, &bad_machine).is_err());
        let bad_speed = FaultScript::new(vec![FaultEvent::Slowdown {
            machine: MachineId::new(0),
            at: Time::ZERO,
            lasting: Time::ONE,
            speed: 0.0,
        }]);
        assert!(ResilienceEngine::new(&inst, &p, &r, &bad_speed).is_err());
        let bad_task = FaultScript::new(vec![FaultEvent::Straggler {
            task: TaskId::new(5),
            factor: 2.0,
        }]);
        assert!(ResilienceEngine::new(&inst, &p, &r, &bad_task).is_err());
    }
}
